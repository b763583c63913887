//! Per-file counter records.

use crate::counters::{is_float_counter, Module};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One Darshan record: the counter set collected for a single file by a
/// single module, attributed either to one MPI rank or (rank `-1`) shared
/// across all ranks that accessed the file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Which instrumentation module produced this record.
    pub module: Module,
    /// MPI rank the record belongs to; `-1` means the file was accessed by
    /// multiple ranks and counters were aggregated into a shared record.
    pub rank: i64,
    /// Darshan's hashed record identifier for the file path.
    pub record_id: u64,
    /// Absolute path of the file.
    pub file: String,
    /// Mount point under which the file lives.
    pub mount: String,
    /// File-system type (e.g. `lustre`, `gpfs`, `tmpfs`).
    pub fs: String,
    /// Integer counters, keyed by canonical counter name.
    pub icounters: BTreeMap<String, i64>,
    /// Floating-point counters, keyed by canonical counter name.
    pub fcounters: BTreeMap<String, f64>,
}

impl Record {
    /// Create an empty record for `file` under `module`.
    pub fn new(module: Module, rank: i64, record_id: u64, file: impl Into<String>) -> Self {
        Record {
            module,
            rank,
            record_id,
            file: file.into(),
            mount: "/".to_string(),
            fs: "unknown".to_string(),
            icounters: BTreeMap::new(),
            fcounters: BTreeMap::new(),
        }
    }

    /// Builder-style mount/fs assignment.
    pub fn with_mount(mut self, mount: impl Into<String>, fs: impl Into<String>) -> Self {
        self.mount = mount.into();
        self.fs = fs.into();
        self
    }

    /// Read an integer counter; missing counters read as 0 (Darshan's
    /// convention for "not observed" in most counters).
    pub fn ic(&self, name: &str) -> i64 {
        self.icounters.get(name).copied().unwrap_or(0)
    }

    /// Read a floating-point counter; missing counters read as 0.0.
    pub fn fc(&self, name: &str) -> f64 {
        self.fcounters.get(name).copied().unwrap_or(0.0)
    }

    /// Set a counter, dispatching on Darshan's `_F_` float-name convention.
    pub fn set(&mut self, name: &str, value: f64) {
        if is_float_counter(name) {
            self.fcounters.insert(name.to_string(), value);
        } else {
            self.icounters.insert(name.to_string(), value as i64);
        }
    }

    /// Set an integer counter explicitly.
    pub fn set_ic(&mut self, name: &str, value: i64) {
        debug_assert!(!is_float_counter(name), "float counter {name} set as int");
        self.icounters.insert(name.to_string(), value);
    }

    /// Set a floating-point counter explicitly.
    pub fn set_fc(&mut self, name: &str, value: f64) {
        debug_assert!(is_float_counter(name), "int counter {name} set as float");
        self.fcounters.insert(name.to_string(), value);
    }

    /// Whether this record is shared across ranks.
    pub fn is_shared(&self) -> bool {
        self.rank < 0
    }

    /// Total counter entries (integer + float) in the record.
    pub fn len(&self) -> usize {
        self.icounters.len() + self.fcounters.len()
    }

    /// Whether the record carries no counters at all.
    pub fn is_empty(&self) -> bool {
        self.icounters.is_empty() && self.fcounters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        let mut r =
            Record::new(Module::Posix, -1, 42, "/scratch/out.dat").with_mount("/scratch", "lustre");
        r.set_ic("POSIX_READS", 10);
        r.set_ic("POSIX_WRITES", 20);
        r.set_fc("POSIX_F_READ_TIME", 1.5);
        r
    }

    #[test]
    fn counter_access_defaults_to_zero() {
        let r = sample();
        assert_eq!(r.ic("POSIX_SEEKS"), 0);
        assert_eq!(r.fc("POSIX_F_WRITE_TIME"), 0.0);
        assert_eq!(r.ic("POSIX_READS"), 10);
        assert!((r.fc("POSIX_F_READ_TIME") - 1.5).abs() < 1e-12);
    }

    #[test]
    fn set_dispatches_on_name_convention() {
        let mut r = Record::new(Module::Posix, 0, 1, "/x");
        r.set("POSIX_OPENS", 3.0);
        r.set("POSIX_F_META_TIME", 0.25);
        assert_eq!(r.ic("POSIX_OPENS"), 3);
        assert!((r.fc("POSIX_F_META_TIME") - 0.25).abs() < 1e-12);
        assert_eq!(r.icounters.len(), 1);
        assert_eq!(r.fcounters.len(), 1);
    }

    #[test]
    fn shared_flag() {
        assert!(sample().is_shared());
        assert!(!Record::new(Module::Posix, 0, 1, "/x").is_shared());
    }

    #[test]
    fn len_and_empty() {
        let r = sample();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(Record::new(Module::Lustre, -1, 0, "/z").is_empty());
    }
}
