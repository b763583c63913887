//! Per-file counter records.
//!
//! A record keeps its module's counters the way a Darshan log does: in
//! fixed arrays indexed by the module's counter enum ([`Counter`]),
//! one for integers and one for floats, with a presence bitmask beside
//! each. Presence is kept apart from the value because a counter the log
//! never mentioned differs from one it set to 0: the writer and
//! `module_csv` emit only present counters.
//!
//! Names outside the module's tables go to a small side list, sorted by
//! name: the per-stripe `LUSTRE_OST_ID_*` counters, counters of another
//! module (a `MPIIO_*` row filed under a POSIX record) and names a newer
//! Darshan may add. Reads and writes by name ([`Record::ic`],
//! [`Record::set_ic`], ...) resolve the name against the tables and then
//! use the one store; hot paths read by [`Counter`] and skip the lookup.

use crate::counters::{is_float_counter, Counter, Module};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One Darshan record: the counter set collected for a single file by a
/// single module, attributed either to one MPI rank or (rank `-1`) shared
/// across all ranks that accessed the file.
#[derive(Clone, PartialEq, Deserialize)]
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
    ints: Values<i64>,
    floats: Values<f64>,
}

/// One kind of counter: the module's dense values and the side list.
#[derive(Clone, PartialEq)]
struct Values<T> {
    /// Bit `s` is set when slot `s` holds a value from the log.
    present: u128,
    /// One value per table counter of the module; absent slots hold 0.
    dense: Box<[T]>,
    /// Counters outside the module's tables, by name. A map, not a sorted
    /// `Vec`: rows of untrusted text may arrive in any order.
    other: BTreeMap<String, T>,
}

impl<T: Copy + Default> Values<T> {
    fn new(len: usize) -> Self {
        Values {
            present: 0,
            dense: vec![T::default(); len].into_boxed_slice(),
            other: BTreeMap::new(),
        }
    }

    fn get(&self, slot: usize) -> Option<T> {
        ((self.present >> slot) & 1 == 1).then(|| self.dense[slot])
    }

    fn set(&mut self, slot: usize, value: T) {
        self.dense[slot] = value;
        self.present |= 1 << slot;
    }

    fn get_other(&self, name: &str) -> Option<T> {
        self.other.get(name).copied()
    }

    fn set_other(&mut self, name: &str, value: T) {
        match self.other.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.other.insert(name.to_string(), value);
            }
        }
    }

    fn len(&self) -> usize {
        self.present.count_ones() as usize + self.other.len()
    }

    /// Present counters as `(name, value)` in byte order of the names:
    /// the module's table (already in name order) merged with the side
    /// list. No name is in both.
    fn iter<'a>(&'a self, table: &'static [Counter]) -> impl Iterator<Item = (&'a str, T)> + 'a {
        let mut dense = table
            .iter()
            .filter(|c| (self.present >> c.slot()) & 1 == 1)
            .map(|c| (c.name(), self.dense[c.slot()]))
            .peekable();
        let mut other = self.other.iter().map(|(n, v)| (n.as_str(), *v)).peekable();
        std::iter::from_fn(move || match (dense.peek(), other.peek()) {
            (Some(d), Some(o)) if o.0 < d.0 => other.next(),
            (Some(_), _) => dense.next(),
            (None, _) => other.next(),
        })
    }
}

impl Record {
    /// Create an empty record for `file` under `module`.
    pub fn new(module: Module, rank: i64, record_id: u64, file: impl Into<String>) -> Self {
        Record::located(module, rank, record_id, file.into(), "/", "unknown")
    }

    /// A record with its mount and file system already known.
    pub(crate) fn located(
        module: Module,
        rank: i64,
        record_id: u64,
        file: String,
        mount: &str,
        fs: &str,
    ) -> Self {
        Record {
            module,
            rank,
            record_id,
            file,
            mount: mount.to_string(),
            fs: fs.to_string(),
            ints: Values::new(module.counter_count(false)),
            floats: Values::new(module.counter_count(true)),
        }
    }

    /// Builder-style mount/fs assignment.
    pub fn with_mount(mut self, mount: impl Into<String>, fs: impl Into<String>) -> Self {
        self.mount = mount.into();
        self.fs = fs.into();
        self
    }

    /// The dense slot of `counter` in this record, if it is one of the
    /// record's own module's counters of the asked-for kind.
    fn slot(&self, counter: Option<Counter>, float: bool) -> Option<usize> {
        counter
            .filter(|c| c.module() == self.module && c.is_float() == float)
            .map(Counter::slot)
    }

    /// An integer counter, or `None` when the log never set it.
    pub fn get_ic(&self, name: &str) -> Option<i64> {
        match self.slot(Counter::from_name(name), false) {
            Some(slot) => self.ints.get(slot),
            None => self.ints.get_other(name),
        }
    }

    /// A floating-point counter, or `None` when the log never set it.
    pub fn get_fc(&self, name: &str) -> Option<f64> {
        match self.slot(Counter::from_name(name), true) {
            Some(slot) => self.floats.get(slot),
            None => self.floats.get_other(name),
        }
    }

    /// Read an integer counter; missing counters read as 0 (Darshan's
    /// convention for "not observed" in most counters).
    pub fn ic(&self, name: &str) -> i64 {
        self.get_ic(name).unwrap_or(0)
    }

    /// Read a floating-point counter; missing counters read as 0.0.
    pub fn fc(&self, name: &str) -> f64 {
        self.get_fc(name).unwrap_or(0.0)
    }

    /// Read an integer table counter by index; missing counters read as 0.
    pub fn int(&self, counter: Counter) -> i64 {
        match self.slot(Some(counter), false) {
            Some(slot) => self.ints.dense[slot],
            None => self.ints.get_other(counter.name()).unwrap_or(0),
        }
    }

    /// Read a floating-point table counter by index; missing counters
    /// read as 0.0.
    pub fn float(&self, counter: Counter) -> f64 {
        match self.slot(Some(counter), true) {
            Some(slot) => self.floats.dense[slot],
            None => self.floats.get_other(counter.name()).unwrap_or(0.0),
        }
    }

    /// Set an integer counter explicitly.
    pub fn set_ic(&mut self, name: &str, value: i64) {
        debug_assert!(!is_float_counter(name), "float counter {name} set as int");
        self.set_ic_resolved(name, Counter::from_name(name), value);
    }

    /// Set a floating-point counter explicitly.
    pub fn set_fc(&mut self, name: &str, value: f64) {
        debug_assert!(is_float_counter(name), "int counter {name} set as float");
        self.set_fc_resolved(name, Counter::from_name(name), value);
    }

    /// [`Record::set_ic`] with the name already resolved against the
    /// tables; `counter` must be `Counter::from_name(name)`.
    pub(crate) fn set_ic_resolved(&mut self, name: &str, counter: Option<Counter>, value: i64) {
        match self.slot(counter, false) {
            Some(slot) => self.ints.set(slot, value),
            None => self.ints.set_other(name, value),
        }
    }

    /// [`Record::set_fc`] with the name already resolved.
    pub(crate) fn set_fc_resolved(&mut self, name: &str, counter: Option<Counter>, value: f64) {
        match self.slot(counter, true) {
            Some(slot) => self.floats.set(slot, value),
            None => self.floats.set_other(name, value),
        }
    }

    /// Present integer counters as `(name, value)`, in byte order of the
    /// names.
    pub fn int_counters(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.ints.iter(self.module.counters_by_name(false))
    }

    /// Present floating-point counters as `(name, value)`, in byte order
    /// of the names.
    pub fn float_counters(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.floats.iter(self.module.counters_by_name(true))
    }

    /// Whether this record is shared across ranks.
    pub fn is_shared(&self) -> bool {
        self.rank < 0
    }

    /// Total counter entries (integer + float) in the record.
    pub fn len(&self) -> usize {
        self.ints.len() + self.floats.len()
    }

    /// Whether the record carries no counters at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Record")
            .field("module", &self.module)
            .field("rank", &self.rank)
            .field("record_id", &self.record_id)
            .field("file", &self.file)
            .field("mount", &self.mount)
            .field("fs", &self.fs)
            .field(
                "icounters",
                &self.int_counters().collect::<BTreeMap<_, _>>(),
            )
            .field(
                "fcounters",
                &self.float_counters().collect::<BTreeMap<_, _>>(),
            )
            .finish()
    }
}

/// The JSON shape keeps counters keyed by name:
/// `{"module", ..., "icounters": {name: value}, "fcounters": {...}}`.
impl Serialize for Record {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("module".into(), self.module.to_value());
        map.insert("rank".into(), self.rank.to_value());
        map.insert("record_id".into(), self.record_id.to_value());
        map.insert("file".into(), self.file.to_value());
        map.insert("mount".into(), self.mount.to_value());
        map.insert("fs".into(), self.fs.to_value());
        let ints: BTreeMap<_, _> = self.int_counters().collect();
        let floats: BTreeMap<_, _> = self.float_counters().collect();
        map.insert("icounters".into(), ints.to_value());
        map.insert("fcounters".into(), floats.to_value());
        serde::Value::Object(map)
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
        assert_eq!(r.int(Counter::POSIX_WRITES), 20);
        assert_eq!(r.int(Counter::POSIX_SEEKS), 0);
        assert_eq!(r.float(Counter::POSIX_F_READ_TIME), 1.5);
    }

    #[test]
    fn presence_is_kept_apart_from_the_value() {
        let mut r = sample();
        r.set_ic("POSIX_SEEKS", 0);
        assert_eq!(r.get_ic("POSIX_SEEKS"), Some(0));
        assert_eq!(r.get_ic("POSIX_STATS"), None);
        assert_eq!(r.get_fc("POSIX_F_META_TIME"), None);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn names_outside_the_tables_go_to_the_side_list() {
        let mut r = Record::new(Module::Lustre, -1, 1, "/x");
        r.set_ic("LUSTRE_OST_ID_2", 5);
        r.set_ic("LUSTRE_OST_ID_10", 7);
        r.set_ic("LUSTRE_OSTS", 64);
        r.set_ic("POSIX_READS", 3);
        r.set_fc("POSIX_F_READ_TIME", 0.5);
        assert_eq!(r.ic("LUSTRE_OST_ID_10"), 7);
        assert_eq!(r.ic("POSIX_READS"), 3);
        assert_eq!(r.int(Counter::POSIX_READS), 3);
        assert_eq!(r.float(Counter::POSIX_F_READ_TIME), 0.5);
        let names: Vec<&str> = r.int_counters().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "LUSTRE_OSTS",
                "LUSTRE_OST_ID_10",
                "LUSTRE_OST_ID_2",
                "POSIX_READS"
            ]
        );
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn a_second_write_overwrites() {
        let mut r = sample();
        r.set_ic("POSIX_READS", 11);
        r.set_ic("UNKNOWN_COUNTER", 1);
        r.set_ic("UNKNOWN_COUNTER", 2);
        assert_eq!(r.ic("POSIX_READS"), 11);
        assert_eq!(r.ic("UNKNOWN_COUNTER"), 2);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn equality_and_debug_see_counters_by_name() {
        let mut a = sample();
        let b = sample();
        assert_eq!(a, b);
        a.set_ic("POSIX_SEEKS", 0);
        assert_ne!(a, b);
        let text = format!("{b:?}");
        assert!(text.contains("\"POSIX_READS\": 10"), "{text}");
        assert!(text.contains("\"POSIX_F_READ_TIME\": 1.5"), "{text}");
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
