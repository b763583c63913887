//! The assembled TraceBench suite and its Table III accounting.

use crate::gen::synthesize;
use crate::labels::IssueLabel;
use crate::spec::{all_specs, Source, TraceSpec};
use darshan::DarshanTrace;
use serde::{Deserialize, Serialize};

/// A generated trace together with its ground-truth annotation.
#[derive(Debug, Clone)]
pub struct LabeledTrace {
    /// The static spec (id, source, labels, workload parameters).
    pub spec: TraceSpec,
    /// The synthesized Darshan trace.
    pub trace: DarshanTrace,
}

impl LabeledTrace {
    /// Ground-truth labels as a sorted vector.
    pub fn labels(&self) -> Vec<IssueLabel> {
        let mut v = self.spec.labels.to_vec();
        v.sort_unstable();
        v
    }
}

/// The full TraceBench suite: 40 labelled traces.
#[derive(Debug, Clone)]
pub struct TraceBench {
    /// All traces in spec order (SB, IO500, RA).
    pub entries: Vec<LabeledTrace>,
}

impl TraceBench {
    /// Generate the full suite. Deterministic.
    pub fn generate() -> Self {
        let entries = all_specs()
            .into_iter()
            .map(|spec| {
                let trace = synthesize(&spec);
                LabeledTrace { spec, trace }
            })
            .collect();
        TraceBench { entries }
    }

    /// Traces belonging to one source.
    pub fn by_source(&self, source: Source) -> impl Iterator<Item = &LabeledTrace> {
        self.entries.iter().filter(move |e| e.spec.source == source)
    }

    /// Look a trace up by id.
    pub fn get(&self, id: &str) -> Option<&LabeledTrace> {
        self.entries.iter().find(|e| e.spec.id == id)
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the suite is empty (never, after `generate`).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Table III accounting: per-label counts per source plus totals.
    pub fn table3(&self) -> Table3 {
        let mut rows = Vec::new();
        for label in IssueLabel::ALL {
            let count = |src: Source| self.by_source(src).filter(|e| e.spec.has(label)).count();
            let sb = count(Source::SimpleBench);
            let io500 = count(Source::Io500);
            let ra = count(Source::RealApps);
            rows.push(Table3Row {
                label,
                sb,
                io500,
                ra,
                total: sb + io500 + ra,
            });
        }
        Table3 { rows }
    }
}

/// One row of the Table III reproduction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Issue label.
    pub label: IssueLabel,
    /// Count among Simple-Bench traces.
    pub sb: usize,
    /// Count among IO500 traces.
    pub io500: usize,
    /// Count among Real-Application traces.
    pub ra: usize,
    /// Row total.
    pub total: usize,
}

/// The Table III reproduction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table3 {
    /// One row per issue label, in Table II order.
    pub rows: Vec<Table3Row>,
}

impl Table3 {
    /// Total number of labelled issues across the suite.
    pub fn total_issues(&self) -> usize {
        self.rows.iter().map(|r| r.total).sum()
    }

    /// Render as an aligned text table matching the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<38} {:>4} {:>6} {:>4} {:>6}\n",
            "Labeled Issue", "SB", "IO500", "RA", "Total"
        ));
        for row in &self.rows {
            out.push_str(&format!(
                "{:<38} {:>4} {:>6} {:>4} {:>6}\n",
                row.label.display_name(),
                row.sb,
                row.io500,
                row.ra,
                row.total
            ));
        }
        out.push_str(&format!(
            "{:<38} {:>4} {:>6} {:>4} {:>6}\n",
            "TOTAL",
            self.rows.iter().map(|r| r.sb).sum::<usize>(),
            self.rows.iter().map(|r| r.io500).sum::<usize>(),
            self.rows.iter().map(|r| r.ra).sum::<usize>(),
            self.total_issues()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_forty_traces() {
        let tb = TraceBench::generate();
        assert_eq!(tb.len(), 40);
        assert!(!tb.is_empty());
        assert_eq!(tb.by_source(Source::SimpleBench).count(), 10);
        assert_eq!(tb.by_source(Source::Io500).count(), 21);
        assert_eq!(tb.by_source(Source::RealApps).count(), 9);
    }

    #[test]
    fn table3_totals_182() {
        let tb = TraceBench::generate();
        let t3 = tb.table3();
        assert_eq!(t3.total_issues(), 182);
    }

    #[test]
    fn table3_render_contains_key_rows() {
        let tb = TraceBench::generate();
        let text = tb.table3().render();
        assert!(text.contains("Server Load Imbalance"));
        assert!(text.contains("182"));
    }

    #[test]
    fn lookup_by_id() {
        let tb = TraceBench::generate();
        assert!(tb.get("ra_amrex").is_some());
        assert!(tb.get("nope").is_none());
    }

    #[test]
    fn labels_sorted() {
        let tb = TraceBench::generate();
        let l = tb.get("ra_amrex").unwrap().labels();
        let mut sorted = l.clone();
        sorted.sort_unstable();
        assert_eq!(l, sorted);
    }
}
