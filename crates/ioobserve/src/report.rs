//! Fold a span NDJSON file into a per-stage latency attribution table.
//!
//! The daemon emits one root `job` span per diagnosis plus `stage.*`
//! child spans (queue wait, preprocess, retrieve, LLM, merge, persist).
//! [`fold_spans`] groups every `stage.*` span under its root ancestor,
//! aggregates exact per-stage latency distributions (the offline report
//! can afford to sort real samples — no bucketing error here), and
//! computes per-job *coverage*: the fraction of each job's wall time
//! that the stage spans account for. Only **top-most** stage spans (no
//! `stage.*` ancestor between them and the job root) count toward
//! coverage, so `stage.retrieve` nested inside `stage.fragment` is not
//! double-counted; every stage span still gets its own latency row. The
//! acceptance bar for the instrumentation is coverage ≥ 95% on every
//! job.

use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Aggregated latency for one stage name across all jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Span name (e.g. `stage.retrieve`).
    pub name: String,
    /// Number of spans folded into this row.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Mean span duration, ns.
    pub mean_ns: u64,
    /// Exact median span duration, ns.
    pub p50_ns: u64,
    /// Exact p99 span duration, ns.
    pub p99_ns: u64,
    /// `total_ns` as a fraction of all jobs' wall time.
    pub share: f64,
}

/// The folded view of one trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Number of root `job` spans.
    pub jobs: u64,
    /// Total wall time across job spans, ns.
    pub job_total_ns: u64,
    /// One row per `stage.*` name, sorted by descending total time.
    pub stages: Vec<StageRow>,
    /// Per-job stage coverage: Σ(stage durations) / job duration.
    pub coverage_min: f64,
    /// Mean per-job stage coverage.
    pub coverage_mean: f64,
    /// Spans whose root ancestor is not a `job` span (work that could
    /// not be attributed to a job; reported, never guessed).
    pub orphan_spans: u64,
}

/// Name of the root span each stage span must descend from.
pub const JOB_SPAN: &str = "job";
/// Prefix of spans that count toward a job's latency decomposition.
pub const STAGE_PREFIX: &str = "stage.";

/// Resolve a span's root ancestor, memoized. Roots map to their own id;
/// spans with a missing parent record resolve to 0.
fn resolve(id: u64, by_id: &HashMap<u64, &SpanRecord>, memo: &mut HashMap<u64, u64>) -> u64 {
    if let Some(&r) = memo.get(&id) {
        return r;
    }
    let root = match by_id.get(&id) {
        None => 0,
        Some(rec) if rec.parent == 0 => id,
        Some(rec) => resolve(rec.parent, by_id, memo),
    };
    memo.insert(id, root);
    root
}

/// Is there a `stage.*` ancestor between this span and its root? Nested
/// stages tile time their ancestor already accounts for.
fn nested_in_stage(rec: &SpanRecord, by_id: &HashMap<u64, &SpanRecord>) -> bool {
    let mut cur = rec.parent;
    while cur != 0 {
        match by_id.get(&cur) {
            Some(p) if p.name.starts_with(STAGE_PREFIX) => return true,
            Some(p) => cur = p.parent,
            None => break,
        }
    }
    false
}

/// Fold parsed span records into a [`TraceReport`].
pub fn fold_spans(records: &[SpanRecord]) -> TraceReport {
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let mut root_of: HashMap<u64, u64> = HashMap::with_capacity(records.len());

    let mut report = TraceReport::default();
    let mut stage_samples: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    // job root id -> (job duration, sum of its stage durations)
    let mut job_cover: HashMap<u64, (u64, u64)> = HashMap::new();

    for rec in records {
        if rec.parent == 0 && rec.name == JOB_SPAN {
            report.jobs += 1;
            report.job_total_ns += rec.duration_ns();
            job_cover.entry(rec.id).or_insert((0, 0)).0 = rec.duration_ns();
        }
    }

    for rec in records {
        if !rec.name.starts_with(STAGE_PREFIX) {
            continue;
        }
        let root = resolve(rec.id, &by_id, &mut root_of);
        let under_job = by_id
            .get(&root)
            .is_some_and(|r| r.parent == 0 && r.name == JOB_SPAN);
        if !under_job {
            report.orphan_spans += 1;
            continue;
        }
        stage_samples
            .entry(rec.name.as_str())
            .or_default()
            .push(rec.duration_ns());
        // Coverage counts only top-most stage spans.
        if !nested_in_stage(rec, &by_id) {
            job_cover.entry(root).or_insert((0, 0)).1 += rec.duration_ns();
        }
    }

    for (name, mut samples) in stage_samples {
        samples.sort_unstable();
        let count = samples.len() as u64;
        let total: u64 = samples.iter().sum();
        let exact = |p: f64| -> u64 {
            let rank = ((p * count as f64).ceil() as usize).max(1);
            samples[rank - 1]
        };
        report.stages.push(StageRow {
            name: name.to_string(),
            count,
            total_ns: total,
            mean_ns: total / count,
            p50_ns: exact(0.50),
            p99_ns: exact(0.99),
            share: if report.job_total_ns == 0 {
                0.0
            } else {
                total as f64 / report.job_total_ns as f64
            },
        });
    }
    report
        .stages
        .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));

    let coverages: Vec<f64> = job_cover
        .values()
        .filter(|(job_ns, _)| *job_ns > 0)
        .map(|(job_ns, stage_ns)| *stage_ns as f64 / *job_ns as f64)
        .collect();
    if !coverages.is_empty() {
        report.coverage_min = coverages.iter().copied().fold(f64::INFINITY, f64::min);
        report.coverage_mean = coverages.iter().sum::<f64>() / coverages.len() as f64;
    }
    report
}

/// Human-friendly duration: `1.23s` / `45.00ms` / `6.70us` / `89ns`.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl TraceReport {
    /// Render as an aligned text table (what `ioagentd trace-report`
    /// prints).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "jobs: {}  total: {}  coverage: min {:.1}% mean {:.1}%  orphan spans: {}",
            self.jobs,
            fmt_ns(self.job_total_ns),
            self.coverage_min * 100.0,
            self.coverage_mean * 100.0,
            self.orphan_spans,
        );
        let _ = writeln!(
            out,
            "{:<20} {:>7} {:>12} {:>12} {:>12} {:>12} {:>7}",
            "stage", "count", "total", "mean", "p50", "p99", "share"
        );
        for row in &self.stages {
            let _ = writeln!(
                out,
                "{:<20} {:>7} {:>12} {:>12} {:>12} {:>12} {:>6.1}%",
                row.name,
                row.count,
                fmt_ns(row.total_ns),
                fmt_ns(row.mean_ns),
                fmt_ns(row.p50_ns),
                fmt_ns(row.p99_ns),
                row.share * 100.0,
            );
        }
        out
    }
}

/// Merge span files from several processes into one record set.
///
/// Every tracer numbers spans from 1, so ids collide across processes;
/// each file's ids (and non-zero parents) are shifted into a disjoint
/// range before folding. Cross-process correlation is by the `trace_id`
/// attribute on `job` roots, not by span id.
pub fn merge_process_spans(files: Vec<Vec<SpanRecord>>) -> Vec<SpanRecord> {
    let mut merged = Vec::with_capacity(files.iter().map(Vec::len).sum());
    let mut offset = 0u64;
    for file in files {
        let max_id = file.iter().map(|r| r.id).max().unwrap_or(0);
        for mut rec in file {
            rec.id += offset;
            if rec.parent != 0 {
                rec.parent += offset;
            }
            merged.push(rec);
        }
        offset += max_id;
    }
    merged
}

/// One (logical) job for the `--slowest` listing: the root `job` span —
/// or, when several processes recorded roots sharing one `trace_id`,
/// all of them — plus its top-most stage critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDigest {
    /// `job` attribute of the root span(s), `-` when absent.
    pub job: String,
    /// `trace_id` attribute, `-` when absent.
    pub trace_id: String,
    /// Slowest root's wall time (roots sharing a trace overlap — the
    /// client-side span covers the daemon-side one — so max, not sum).
    pub duration_ns: u64,
    /// Top-most `stage.*` spans under the root(s), `(name, duration)`,
    /// in start order.
    pub stages: Vec<(String, u64)>,
}

/// The `n` slowest jobs, slowest first. Roots with the same `trace_id`
/// attribute are grouped into one digest (the multi-process case);
/// roots without one stay separate.
pub fn slowest_jobs(records: &[SpanRecord], n: usize) -> Vec<JobDigest> {
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let mut memo: HashMap<u64, u64> = HashMap::new();

    // Group roots: by trace_id when present, else by own span id.
    let mut groups: BTreeMap<String, Vec<&SpanRecord>> = BTreeMap::new();
    let mut root_group: HashMap<u64, String> = HashMap::new();
    for rec in records {
        if rec.parent == 0 && rec.name == JOB_SPAN {
            let key = rec
                .attr("trace_id")
                .map(str::to_string)
                .unwrap_or_else(|| format!("\u{0}span-{}", rec.id));
            root_group.insert(rec.id, key.clone());
            groups.entry(key).or_default().push(rec);
        }
    }

    // (group key, start_ns, name, duration) for top-most stages.
    let mut stages: HashMap<String, Vec<(u64, String, u64)>> = HashMap::new();
    for rec in records {
        if !rec.name.starts_with(STAGE_PREFIX) || nested_in_stage(rec, &by_id) {
            continue;
        }
        let root = resolve(rec.id, &by_id, &mut memo);
        if let Some(key) = root_group.get(&root) {
            stages.entry(key.clone()).or_default().push((
                rec.start_ns,
                rec.name.clone(),
                rec.duration_ns(),
            ));
        }
    }

    let mut digests: Vec<JobDigest> = groups
        .into_iter()
        .map(|(key, roots)| {
            let mut rows = stages.remove(&key).unwrap_or_default();
            rows.sort();
            let attr_or_dash = |name: &str| {
                roots
                    .iter()
                    .find_map(|r| r.attr(name))
                    .unwrap_or("-")
                    .to_string()
            };
            JobDigest {
                job: attr_or_dash("job"),
                trace_id: attr_or_dash("trace_id"),
                duration_ns: roots.iter().map(|r| r.duration_ns()).max().unwrap_or(0),
                stages: rows.into_iter().map(|(_, name, d)| (name, d)).collect(),
            }
        })
        .collect();
    digests.sort_by(|a, b| {
        b.duration_ns
            .cmp(&a.duration_ns)
            .then_with(|| a.trace_id.cmp(&b.trace_id))
    });
    let total = digests.len();
    digests.truncate(n.min(total));
    digests
}

/// Render a `--slowest` listing (what `ioagentd trace-report --slowest N`
/// prints under the stage table).
pub fn render_slowest(digests: &[JobDigest], total_jobs: u64) -> String {
    let mut out = format!("slowest {} of {} jobs\n", digests.len(), total_jobs);
    for (i, d) in digests.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>3}. job {}  trace {}  total {}",
            i + 1,
            d.job,
            d.trace_id,
            fmt_ns(d.duration_ns),
        );
        if !d.stages.is_empty() {
            let path = d
                .stages
                .iter()
                .map(|(name, dur)| {
                    format!(
                        "{} {}",
                        name.strip_prefix(STAGE_PREFIX).unwrap_or(name),
                        fmt_ns(*dur)
                    )
                })
                .collect::<Vec<_>>()
                .join(" -> ");
            let _ = writeln!(out, "     {path}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn folds_stages_under_job_roots_with_coverage() {
        let records = vec![
            span(1, 0, "job", 0, 1_000),
            span(2, 1, "stage.queue_wait", 0, 100),
            span(3, 1, "stage.retrieve", 100, 500),
            span(4, 3, "llm.call", 150, 450), // non-stage child: ignored
            // Stage nested inside a stage: gets its own row, but does
            // not double-count toward the job's coverage.
            span(11, 3, "stage.llm", 150, 450),
            span(5, 1, "stage.merge", 500, 980),
            span(6, 0, "job", 1_000, 2_000),
            span(7, 6, "stage.queue_wait", 1_000, 1_200),
            span(8, 6, "stage.retrieve", 1_200, 2_000),
            // Stage under a non-job root: orphaned, not attributed.
            span(9, 0, "conn", 0, 10_000),
            span(10, 9, "stage.retrieve", 0, 5_000),
        ];
        let report = fold_spans(&records);
        assert_eq!(report.jobs, 2);
        assert_eq!(report.job_total_ns, 2_000);
        assert_eq!(report.orphan_spans, 1);
        // Job 1 coverage: (100+400+480)/1000 = 0.98; job 2: 1.0.
        assert!((report.coverage_min - 0.98).abs() < 1e-9);
        assert!((report.coverage_mean - 0.99).abs() < 1e-9);
        let retrieve = report
            .stages
            .iter()
            .find(|s| s.name == "stage.retrieve")
            .unwrap();
        assert_eq!(retrieve.count, 2);
        assert_eq!(retrieve.total_ns, 1_200);
        assert_eq!(retrieve.p50_ns, 400);
        assert_eq!(retrieve.p99_ns, 800);
        let nested_llm = report
            .stages
            .iter()
            .find(|s| s.name == "stage.llm")
            .unwrap();
        assert_eq!((nested_llm.count, nested_llm.total_ns), (1, 300));
        // Sorted by descending total.
        assert_eq!(report.stages[0].name, "stage.retrieve");
        // Shares are fractions of total job wall time.
        assert!((retrieve.share - 0.6).abs() < 1e-9);
    }

    #[test]
    fn deep_nesting_resolves_to_the_job_root() {
        let records = vec![
            span(1, 0, "job", 0, 100),
            span(2, 1, "stage.llm", 0, 90),
            span(3, 2, "stage.inner", 10, 20), // grandchild stage still attributed
        ];
        let report = fold_spans(&records);
        assert_eq!(report.jobs, 1);
        assert_eq!(report.orphan_spans, 0);
        assert_eq!(report.stages.len(), 2);
    }

    #[test]
    fn empty_and_missing_parent_inputs_are_safe() {
        assert_eq!(fold_spans(&[]).jobs, 0);
        let report = fold_spans(&[span(5, 99, "stage.retrieve", 0, 10)]);
        assert_eq!(report.orphan_spans, 1);
        assert_eq!(report.stages.len(), 0);
    }

    fn span_attrs(
        id: u64,
        parent: u64,
        name: &str,
        start: u64,
        end: u64,
        attrs: &[(&str, &str)],
    ) -> SpanRecord {
        SpanRecord {
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            ..span(id, parent, name, start, end)
        }
    }

    #[test]
    fn merge_process_spans_keeps_files_disjoint() {
        // Two processes, both numbering from 1.
        let a = vec![
            span(1, 0, "job", 0, 100),
            span(2, 1, "stage.retrieve", 0, 90),
        ];
        let b = vec![span(1, 0, "job", 0, 200), span(2, 1, "stage.llm", 0, 150)];
        let merged = merge_process_spans(vec![a, b]);
        let ids: Vec<u64> = merged.iter().map(|r| r.id).collect();
        assert_eq!(ids, [1, 2, 3, 4], "second file shifted past the first");
        assert_eq!(merged[3].parent, 3, "parents shifted with their file");
        let report = fold_spans(&merged);
        assert_eq!(report.jobs, 2);
        assert_eq!(report.orphan_spans, 0);
        // Order-insensitive: roots still resolve after the shift.
        assert_eq!(report.job_total_ns, 300);
    }

    #[test]
    fn slowest_jobs_ranks_and_lists_critical_path() {
        let records = vec![
            span_attrs(
                1,
                0,
                "job",
                0,
                1_000,
                &[("job", "fast"), ("trace_id", "t-1")],
            ),
            span(2, 1, "stage.retrieve", 0, 900),
            span_attrs(
                3,
                0,
                "job",
                0,
                5_000,
                &[("job", "slow"), ("trace_id", "t-2")],
            ),
            span(4, 3, "stage.queue_wait", 0, 1_000),
            span(5, 3, "stage.llm", 1_000, 4_500),
            span(6, 5, "stage.inner", 1_200, 1_300), // nested: not on the path
            span_attrs(7, 0, "job", 0, 3_000, &[("job", "mid")]), // no trace_id
        ];
        let digests = slowest_jobs(&records, 2);
        assert_eq!(digests.len(), 2);
        assert_eq!(digests[0].job, "slow");
        assert_eq!(digests[0].trace_id, "t-2");
        assert_eq!(digests[0].duration_ns, 5_000);
        assert_eq!(
            digests[0].stages,
            vec![
                ("stage.queue_wait".to_string(), 1_000),
                ("stage.llm".to_string(), 3_500)
            ]
        );
        assert_eq!(digests[1].job, "mid");
        assert_eq!(digests[1].trace_id, "-");

        let text = render_slowest(&digests, 3);
        assert!(text.contains("slowest 2 of 3 jobs"));
        assert!(text.contains("job slow  trace t-2  total 5.00us"));
        assert!(text.contains("queue_wait 1.00us -> llm 3.50us"));
    }

    #[test]
    fn slowest_jobs_groups_multi_process_roots_by_trace() {
        // Client process recorded a job root for trace t-9; the daemon
        // recorded its own root plus stages for the same trace.
        let client = vec![span_attrs(1, 0, "job", 0, 10_000, &[("trace_id", "t-9")])];
        let daemon = vec![
            span_attrs(1, 0, "job", 0, 9_000, &[("job", "j1"), ("trace_id", "t-9")]),
            span(2, 1, "stage.llm", 0, 8_000),
        ];
        let merged = merge_process_spans(vec![client, daemon]);
        let digests = slowest_jobs(&merged, 10);
        assert_eq!(digests.len(), 1, "same trace_id folds into one digest");
        assert_eq!(digests[0].trace_id, "t-9");
        assert_eq!(digests[0].job, "j1", "attrs found on any grouped root");
        assert_eq!(digests[0].duration_ns, 10_000, "max of the roots, not sum");
        assert_eq!(digests[0].stages.len(), 1);
    }

    #[test]
    fn table_renders_all_rows() {
        let records = vec![
            span(1, 0, "job", 0, 2_000_000),
            span(2, 1, "stage.retrieve", 0, 1_500_000),
            span(3, 1, "stage.merge", 1_500_000, 1_900_000),
        ];
        let table = fold_spans(&records).render_table();
        assert!(table.contains("jobs: 1"));
        assert!(table.contains("stage.retrieve"));
        assert!(table.contains("stage.merge"));
        assert!(table.contains("1.50ms"));
    }
}
