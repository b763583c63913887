//! The full trace: job header plus all per-file records.

use crate::counters::{Counter, Module};
use crate::record::Record;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A mounted file system visible to the instrumented job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mount {
    /// Mount point path, e.g. `/scratch`.
    pub point: String,
    /// File-system type, e.g. `lustre`.
    pub fs: String,
}

/// Job-level metadata from the Darshan log header.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobHeader {
    /// Darshan log format version string.
    pub version: String,
    /// Executable path and arguments.
    pub exe: String,
    /// Numeric user id of the job owner.
    pub uid: u64,
    /// Scheduler job identifier.
    pub jobid: u64,
    /// Number of MPI processes in the job.
    pub nprocs: u64,
    /// Job start time (unix seconds).
    pub start_time: u64,
    /// Job end time (unix seconds).
    pub end_time: u64,
    /// Wall-clock run time in seconds.
    pub run_time: f64,
    /// Mounted file systems recorded in the header.
    pub mounts: Vec<Mount>,
    /// Free-form `key: value` metadata lines (e.g. `lib_ver`).
    pub metadata: BTreeMap<String, String>,
}

impl Default for JobHeader {
    fn default() -> Self {
        JobHeader {
            version: "3.41".to_string(),
            exe: "./a.out".to_string(),
            uid: 1000,
            jobid: 0,
            nprocs: 1,
            start_time: 1_700_000_000,
            end_time: 1_700_000_060,
            run_time: 60.0,
            mounts: vec![Mount {
                point: "/".to_string(),
                fs: "ext4".to_string(),
            }],
            metadata: BTreeMap::new(),
        }
    }
}

impl JobHeader {
    /// Convenience constructor for the fields every generator sets.
    pub fn new(exe: impl Into<String>, nprocs: u64, run_time: f64) -> Self {
        let start = 1_700_000_000u64;
        JobHeader {
            exe: exe.into(),
            nprocs,
            run_time,
            start_time: start,
            end_time: start + run_time.ceil() as u64,
            ..JobHeader::default()
        }
    }
}

/// A parsed Darshan trace: header plus every per-file module record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DarshanTrace {
    /// Job-level header metadata.
    pub header: JobHeader,
    /// All records, in no particular order.
    pub records: Vec<Record>,
}

impl DarshanTrace {
    /// Create an empty trace with the given header.
    pub fn new(header: JobHeader) -> Self {
        DarshanTrace {
            header,
            records: Vec::new(),
        }
    }

    /// Append a record.
    pub fn push(&mut self, record: Record) {
        self.records.push(record);
    }

    /// All records produced by `module`.
    pub fn records_for(&self, module: Module) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(move |r| r.module == module)
    }

    /// Whether any record of `module` exists in the trace.
    pub fn module_present(&self, module: Module) -> bool {
        self.records.iter().any(|r| r.module == module)
    }

    /// The set of modules present in the trace, in canonical order.
    pub fn modules(&self) -> Vec<Module> {
        Module::ALL
            .into_iter()
            .filter(|m| self.module_present(*m))
            .collect()
    }

    /// Distinct file paths touched by any module.
    pub fn files(&self) -> BTreeSet<&str> {
        self.records.iter().map(|r| r.file.as_str()).collect()
    }

    /// Distinct file paths touched by one module.
    pub fn files_for(&self, module: Module) -> BTreeSet<&str> {
        self.records_for(module).map(|r| r.file.as_str()).collect()
    }

    /// Total bytes moved (read + written) through POSIX and STDIO.
    ///
    /// MPI-IO volumes are *not* added on top because MPI-IO operations are
    /// ultimately serviced by POSIX in Darshan's layering; adding both would
    /// double-count.
    ///
    /// The sums saturate at the `i64` bounds, so a crafted trace cannot
    /// wrap the total (or panic, in a build with overflow checks).
    pub fn total_bytes(&self) -> u64 {
        let volume = |module, read, written| {
            self.records_for(module).fold(0i64, |acc, r| {
                acc.saturating_add(r.int(read))
                    .saturating_add(r.int(written))
            })
        };
        let posix = volume(
            Module::Posix,
            Counter::POSIX_BYTES_READ,
            Counter::POSIX_BYTES_WRITTEN,
        );
        let stdio = volume(
            Module::Stdio,
            Counter::STDIO_BYTES_READ,
            Counter::STDIO_BYTES_WRITTEN,
        );
        posix.saturating_add(stdio).max(0) as u64
    }

    /// Number of shared-file records (rank -1) for a module.
    pub fn shared_file_count(&self, module: Module) -> usize {
        self.records_for(module).filter(|r| r.is_shared()).count()
    }

    /// Estimated total number of text lines this trace would occupy in
    /// `darshan-parser` output. Used by LLM front-ends to decide whether a
    /// trace fits a context window.
    pub fn parser_line_estimate(&self) -> usize {
        let header = 16 + self.header.mounts.len();
        let counters: usize = self.records.iter().map(|r| r.len()).sum();
        header + counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_with_modules() -> DarshanTrace {
        let mut t = DarshanTrace::new(JobHeader::new("./app", 8, 120.0));
        let mut p = Record::new(Module::Posix, -1, 1, "/scratch/a");
        p.set_ic("POSIX_BYTES_READ", 1000);
        p.set_ic("POSIX_BYTES_WRITTEN", 500);
        t.push(p);
        let mut s = Record::new(Module::Stdio, 0, 2, "/home/cfg");
        s.set_ic("STDIO_BYTES_READ", 10);
        t.push(s);
        let mut m = Record::new(Module::Mpiio, -1, 1, "/scratch/a");
        m.set_ic("MPIIO_BYTES_READ", 1000);
        t.push(m);
        t
    }

    #[test]
    fn module_queries() {
        let t = trace_with_modules();
        assert!(t.module_present(Module::Posix));
        assert!(t.module_present(Module::Stdio));
        assert!(!t.module_present(Module::Lustre));
        assert_eq!(
            t.modules(),
            vec![Module::Posix, Module::Mpiio, Module::Stdio]
        );
    }

    #[test]
    fn total_bytes_excludes_mpiio_double_count() {
        let t = trace_with_modules();
        assert_eq!(t.total_bytes(), 1510);
    }

    #[test]
    fn total_bytes_saturates() {
        let mut t = DarshanTrace::new(JobHeader::new("./app", 2, 1.0));
        for rank in 0..2 {
            let mut p = Record::new(Module::Posix, rank, 1, "/scratch/huge");
            p.set_ic("POSIX_BYTES_READ", i64::MAX);
            p.set_ic("POSIX_BYTES_WRITTEN", i64::MAX);
            t.push(p);
        }
        assert_eq!(t.total_bytes(), i64::MAX as u64);
    }

    #[test]
    fn file_sets() {
        let t = trace_with_modules();
        assert_eq!(t.files().len(), 2);
        assert_eq!(t.files_for(Module::Posix).len(), 1);
        assert!(t.files().contains("/home/cfg"));
    }

    #[test]
    fn shared_count() {
        let t = trace_with_modules();
        assert_eq!(t.shared_file_count(Module::Posix), 1);
        assert_eq!(t.shared_file_count(Module::Stdio), 0);
    }

    #[test]
    fn header_new_sets_end_time() {
        let h = JobHeader::new("./x", 4, 10.5);
        assert_eq!(h.end_time, h.start_time + 11);
        assert_eq!(h.nprocs, 4);
    }

    #[test]
    fn line_estimate_counts_counters() {
        let t = trace_with_modules();
        assert!(t.parser_line_estimate() > 16);
    }
}
