//! Module split: one CSV per Darshan module.
//!
//! The paper's pre-processor "separates the Darshan log into a set of CSV
//! files, with each file containing the counters and values from a single
//! Darshan module", guaranteeing that every module is visible to downstream
//! steps regardless of trace length.

use darshan::counters::Module;
use darshan::{DarshanTrace, Record};
use std::collections::{BTreeMap, BTreeSet};

/// Render one module's records as CSV text. Columns are the union of
/// counter names across the module's records (sorted), prefixed by
/// `rank,record_id,file`. Missing counters render as empty cells.
pub fn module_csv(trace: &DarshanTrace, module: Module) -> Option<String> {
    let records: Vec<&Record> = trace.records_for(module).collect();
    if records.is_empty() {
        return None;
    }
    let mut int_cols: BTreeSet<&str> = BTreeSet::new();
    let mut float_cols: BTreeSet<&str> = BTreeSet::new();
    for r in &records {
        int_cols.extend(r.int_counters().map(|(name, _)| name));
        float_cols.extend(r.float_counters().map(|(name, _)| name));
    }
    let int_cols: Vec<&str> = int_cols.into_iter().collect();
    let float_cols: Vec<&str> = float_cols.into_iter().collect();

    let mut out = String::new();
    out.push_str("rank,record_id,file");
    for c in &int_cols {
        out.push(',');
        out.push_str(c);
    }
    for c in &float_cols {
        out.push(',');
        out.push_str(c);
    }
    out.push('\n');

    let mut sorted: Vec<&&Record> = records.iter().collect();
    sorted.sort_by_key(|r| (r.record_id, r.rank));
    for r in sorted {
        out.push_str(&format!("{},{},{}", r.rank, r.record_id, r.file));
        for c in &int_cols {
            match r.get_ic(c) {
                Some(v) => out.push_str(&format!(",{v}")),
                None => out.push(','),
            }
        }
        for c in &float_cols {
            match r.get_fc(c) {
                Some(v) => out.push_str(&format!(",{v:.6}")),
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    Some(out)
}

/// Split a trace into per-module CSVs, keyed by module.
pub fn split_modules(trace: &DarshanTrace) -> BTreeMap<Module, String> {
    Module::ALL
        .into_iter()
        .filter_map(|m| module_csv(trace, m).map(|csv| (m, csv)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use darshan::JobHeader;

    fn trace() -> DarshanTrace {
        let mut t = DarshanTrace::new(JobHeader::new("./x", 4, 10.0));
        let mut a = Record::new(Module::Posix, 0, 2, "/scratch/b");
        a.set_ic("POSIX_READS", 5);
        a.set_fc("POSIX_F_READ_TIME", 0.5);
        t.push(a);
        let mut b = Record::new(Module::Posix, 1, 1, "/scratch/a");
        b.set_ic("POSIX_WRITES", 7);
        t.push(b);
        let mut l = Record::new(Module::Lustre, -1, 1, "/scratch/a");
        l.set_ic("LUSTRE_STRIPE_WIDTH", 4);
        t.push(l);
        t
    }

    #[test]
    fn csv_has_union_of_columns() {
        let csv = module_csv(&trace(), Module::Posix).unwrap();
        let header = csv.lines().next().unwrap();
        assert!(header.contains("POSIX_READS"));
        assert!(header.contains("POSIX_WRITES"));
        assert!(header.contains("POSIX_F_READ_TIME"));
    }

    #[test]
    fn rows_sorted_by_record_id() {
        let csv = module_csv(&trace(), Module::Posix).unwrap();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert!(rows[0].contains("/scratch/a"));
        assert!(rows[1].contains("/scratch/b"));
    }

    #[test]
    fn missing_counters_render_empty() {
        let csv = module_csv(&trace(), Module::Posix).unwrap();
        // Record b has no POSIX_READS: there must be an empty cell.
        let row_a = csv.lines().find(|l| l.contains("/scratch/a")).unwrap();
        assert!(row_a.contains(",,") || row_a.ends_with(','));
    }

    #[test]
    fn absent_module_yields_none() {
        assert!(module_csv(&trace(), Module::Stdio).is_none());
    }

    #[test]
    fn split_covers_present_modules_only() {
        let map = split_modules(&trace());
        assert_eq!(map.len(), 2);
        assert!(map.contains_key(&Module::Posix));
        assert!(map.contains_key(&Module::Lustre));
    }

    #[test]
    fn split_works_on_full_tracebench_traces() {
        let suite = tracebench::TraceBench::generate();
        for entry in suite.entries.iter().take(5) {
            let map = split_modules(&entry.trace);
            assert!(map.contains_key(&Module::Posix) || map.contains_key(&Module::Stdio));
            for csv in map.values() {
                assert!(csv.lines().count() >= 2);
            }
        }
    }
}
