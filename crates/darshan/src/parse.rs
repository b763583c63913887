//! Parser for the `darshan-parser` text format.
//!
//! The format has a `#`-prefixed header (job metadata and mount table)
//! followed by one tab-separated data row per counter:
//!
//! ```text
//! <module>\t<rank>\t<record id>\t<counter>\t<value>\t<file name>\t<mount pt>\t<fs type>
//! ```
//!
//! Rows belonging to the same `(module, rank, record id)` triple are folded
//! into a single [`Record`]. Each row is split once; its counter name is
//! looked up in the module tables and a table counter is stored by index,
//! so a row allocates nothing. A name outside the record's module tables
//! (`LUSTRE_OST_ID_*`, a counter of another module, a name a newer Darshan
//! adds) is kept verbatim in the record's side list, so the parser stays
//! forward-compatible. A repeated row overwrites the earlier value.

use crate::counters::{is_float_counter, Counter, Module};
use crate::error::DarshanError;
use crate::record::Record;
use crate::trace::{DarshanTrace, JobHeader, Mount};
use std::collections::HashMap;

/// Parse `darshan-parser` text into a [`DarshanTrace`].
pub fn parse_text(input: &str) -> Result<DarshanTrace, DarshanError> {
    let mut header = JobHeader {
        mounts: Vec::new(),
        ..JobHeader::default()
    };
    let mut seen_nprocs = false;
    // Records in first-seen order, found by (module, rank, record_id);
    // rows of one record usually come together, so the last one is tried
    // before the index.
    let mut records: Vec<Record> = Vec::new();
    let mut index: HashMap<(Module, i64, u64), usize> = HashMap::new();
    let mut last: Option<((Module, i64, u64), usize)> = None;

    for (idx, raw) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            parse_header_line(rest.trim(), &mut header, &mut seen_nprocs);
            continue;
        }
        // Tab-separated: the first five columns, then the rest unsplit (a
        // record's file, mount and fs are read only by its first row). A
        // row without any tab falls back to whitespace.
        let mut cols = [""; 6];
        let mut n = fill(&mut cols, line.splitn(6, '\t'));
        let mut spaced = None;
        if n == 1 {
            let mut fields = line.split_whitespace();
            n = fill(&mut cols[..5], &mut fields);
            spaced = Some(fields);
        }
        if n < 5 {
            return Err(DarshanError::MalformedRow {
                line: lineno,
                content: line.to_string(),
            });
        }
        let module: Module = cols[0].parse().map_err(|_| DarshanError::UnknownModule {
            line: lineno,
            module: cols[0].into(),
        })?;
        let rank: i64 = cols[1].parse().map_err(|_| DarshanError::BadNumber {
            line: lineno,
            field: "rank",
            value: cols[1].into(),
        })?;
        let record_id: u64 = cols[2].parse().map_err(|_| DarshanError::BadNumber {
            line: lineno,
            field: "record id",
            value: cols[2].into(),
        })?;
        let counter = cols[3];
        let value = cols[4];

        let key = (module, rank, record_id);
        let at = match last {
            Some((k, at)) if k == key => at,
            _ => *index.entry(key).or_insert_with(|| {
                let mut location = ["<unknown>", "/", "unknown"];
                match spaced {
                    Some(fields) => fill(&mut location, fields),
                    None if n == 6 => fill(&mut location, cols[5].split('\t')),
                    None => 0,
                };
                let [file, mount, fs] = location;
                records.push(Record::located(
                    module,
                    rank,
                    record_id,
                    file.to_string(),
                    mount,
                    fs,
                ));
                records.len() - 1
            }),
        };
        last = Some((key, at));
        let rec = &mut records[at];
        let known = Counter::from_name(counter);
        if known.map_or_else(|| is_float_counter(counter), Counter::is_float) {
            let v: f64 = value.parse().map_err(|_| DarshanError::BadNumber {
                line: lineno,
                field: "float counter value",
                value: value.into(),
            })?;
            rec.set_fc_resolved(counter, known, v);
        } else {
            let v: i64 = value.parse().map_err(|_| DarshanError::BadNumber {
                line: lineno,
                field: "int counter value",
                value: value.into(),
            })?;
            rec.set_ic_resolved(counter, known, v);
        }
    }

    if !seen_nprocs && !records.is_empty() {
        // Tolerate missing nprocs only for header-only (empty) traces.
        return Err(DarshanError::MissingHeader("nprocs"));
    }

    // Keys are unique, so the order is total: (module, rank, record id).
    records.sort_unstable_by_key(|r| (r.module, r.rank, r.record_id));
    Ok(DarshanTrace { header, records })
}

/// Fill `slots` from `fields` in order; how many were filled.
fn fill<'a>(slots: &mut [&'a str], fields: impl Iterator<Item = &'a str>) -> usize {
    let mut n = 0;
    for (slot, field) in slots.iter_mut().zip(fields) {
        *slot = field;
        n += 1;
    }
    n
}

fn parse_header_line(line: &str, header: &mut JobHeader, seen_nprocs: &mut bool) {
    if let Some(rest) = line.strip_prefix("mount entry:") {
        let mut parts = rest.split_whitespace();
        if let (Some(point), Some(fs)) = (parts.next(), parts.next()) {
            header.mounts.push(Mount {
                point: point.to_string(),
                fs: fs.to_string(),
            });
        }
        return;
    }
    let Some((key, value)) = line.split_once(':') else {
        return;
    };
    let key = key.trim();
    let value = value.trim();
    match key {
        "darshan log version" => header.version = value.to_string(),
        "exe" => header.exe = value.to_string(),
        "uid" => header.uid = value.parse().unwrap_or(header.uid),
        "jobid" => header.jobid = value.parse().unwrap_or(header.jobid),
        "nprocs" => {
            if let Ok(v) = value.parse() {
                header.nprocs = v;
                *seen_nprocs = true;
            }
        }
        "start_time" => header.start_time = value.parse().unwrap_or(header.start_time),
        "end_time" => header.end_time = value.parse().unwrap_or(header.end_time),
        "run time" => header.run_time = value.parse().unwrap_or(header.run_time),
        // Anything else (compression method, start_time_asci, ...) is kept
        // as free-form metadata.
        _ => {
            if !key.is_empty() && !key.starts_with('-') && !key.starts_with('<') {
                header.metadata.insert(key.to_string(), value.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# darshan log version: 3.41
# exe: ./amrex_run
# uid: 5001
# jobid: 987654
# nprocs: 8
# start_time: 1700000000
# end_time: 1700000722
# run time: 722.00
# metadata: lib_ver = 3.4.1
# mounted file systems (mount point and fs type)
# mount entry:\t/scratch\tlustre
# mount entry:\t/home\tnfs
POSIX\t-1\t101\tPOSIX_OPENS\t16\t/scratch/plt00000\t/scratch\tlustre
POSIX\t-1\t101\tPOSIX_BYTES_WRITTEN\t1048576\t/scratch/plt00000\t/scratch\tlustre
POSIX\t-1\t101\tPOSIX_F_WRITE_TIME\t3.25\t/scratch/plt00000\t/scratch\tlustre
STDIO\t0\t202\tSTDIO_OPENS\t1\t/home/app.cfg\t/home\tnfs
LUSTRE\t-1\t101\tLUSTRE_STRIPE_WIDTH\t1\t/scratch/plt00000\t/scratch\tlustre
LUSTRE\t-1\t101\tLUSTRE_STRIPE_SIZE\t1048576\t/scratch/plt00000\t/scratch\tlustre
";

    #[test]
    fn parses_header() {
        let t = parse_text(SAMPLE).unwrap();
        assert_eq!(t.header.nprocs, 8);
        assert_eq!(t.header.jobid, 987654);
        assert!((t.header.run_time - 722.0).abs() < 1e-9);
        assert_eq!(t.header.exe, "./amrex_run");
        assert_eq!(t.header.mounts.len(), 2);
        assert_eq!(t.header.mounts[0].point, "/scratch");
        assert_eq!(t.header.mounts[0].fs, "lustre");
        assert_eq!(
            t.header.metadata.get("metadata").map(String::as_str),
            Some("lib_ver = 3.4.1")
        );
    }

    #[test]
    fn folds_rows_into_records() {
        let t = parse_text(SAMPLE).unwrap();
        assert_eq!(t.records.len(), 3);
        let posix: Vec<_> = t.records_for(Module::Posix).collect();
        assert_eq!(posix.len(), 1);
        assert_eq!(posix[0].ic("POSIX_OPENS"), 16);
        assert_eq!(posix[0].ic("POSIX_BYTES_WRITTEN"), 1_048_576);
        assert!((posix[0].fc("POSIX_F_WRITE_TIME") - 3.25).abs() < 1e-12);
        assert_eq!(posix[0].file, "/scratch/plt00000");
        assert_eq!(posix[0].fs, "lustre");
    }

    #[test]
    fn lustre_records_separate_from_posix() {
        let t = parse_text(SAMPLE).unwrap();
        let lustre: Vec<_> = t.records_for(Module::Lustre).collect();
        assert_eq!(lustre.len(), 1);
        assert_eq!(lustre[0].ic("LUSTRE_STRIPE_WIDTH"), 1);
    }

    #[test]
    fn rejects_unknown_module() {
        let bad = "# nprocs: 1\nHDF5\t0\t1\tX\t1\t/f\t/\text4\n";
        match parse_text(bad) {
            Err(DarshanError::UnknownModule { module, .. }) => assert_eq!(module, "HDF5"),
            other => panic!("expected UnknownModule, got {other:?}"),
        }
    }

    #[test]
    fn rejects_short_row() {
        let bad = "# nprocs: 1\nPOSIX\t0\t1\n";
        assert!(matches!(
            parse_text(bad),
            Err(DarshanError::MalformedRow { .. })
        ));
    }

    #[test]
    fn rejects_bad_counter_value() {
        let bad = "# nprocs: 1\nPOSIX\t0\t1\tPOSIX_OPENS\txyz\t/f\t/\text4\n";
        assert!(matches!(
            parse_text(bad),
            Err(DarshanError::BadNumber { .. })
        ));
    }

    #[test]
    fn missing_nprocs_with_data_is_error() {
        let bad = "POSIX\t0\t1\tPOSIX_OPENS\t1\t/f\t/\text4\n";
        assert_eq!(parse_text(bad), Err(DarshanError::MissingHeader("nprocs")));
    }

    #[test]
    fn whitespace_fallback_when_no_tabs() {
        let ws = "# nprocs: 2\nPOSIX -1 9 POSIX_READS 4 /f / ext4\n";
        let t = parse_text(ws).unwrap();
        assert_eq!(t.records[0].ic("POSIX_READS"), 4);
    }

    #[test]
    fn negative_counter_values_parse() {
        // Darshan uses -1 for "undefined" in several counters.
        let s = "# nprocs: 1\nPOSIX\t0\t1\tPOSIX_STRIDE1_STRIDE\t-1\t/f\t/\text4\n";
        let t = parse_text(s).unwrap();
        assert_eq!(t.records[0].ic("POSIX_STRIDE1_STRIDE"), -1);
    }
}
