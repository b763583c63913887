//! Canonical Darshan counter names per instrumentation module.
//!
//! One `counter_tables!` declaration below is the single source of the
//! names: it generates the public name tables and the [`Counter`] enum, by
//! which a [`crate::Record`] stores its module's counters in dense arrays
//! (Darshan's own log format indexes each module's counters by a
//! per-module enum the same way).
//!
//! The counter lists mirror the counters emitted by `darshan-parser` for the
//! POSIX, MPI-IO, STDIO and LUSTRE modules (a representative superset of the
//! counters that the IOAgent pre-processor, Drishti's triggers, and the
//! TraceBench generators need). Integer counters and floating-point counters
//! (`*_F_*`) are listed separately because `darshan-parser` prints them with
//! different value formats.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A Darshan instrumentation module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Module {
    /// POSIX I/O interface (open/read/write/seek/stat...).
    Posix,
    /// MPI-IO interface (independent and collective operations).
    Mpiio,
    /// Buffered standard I/O (fopen/fread/fwrite...).
    Stdio,
    /// Lustre file-system striping information.
    Lustre,
}

impl Module {
    /// All modules, in the order `darshan-parser` prints them.
    pub const ALL: [Module; 4] = [Module::Posix, Module::Mpiio, Module::Stdio, Module::Lustre];

    /// The upper-case token used in the `darshan-parser` data rows.
    pub fn as_str(&self) -> &'static str {
        match self {
            Module::Posix => "POSIX",
            Module::Mpiio => "MPIIO",
            Module::Stdio => "STDIO",
            Module::Lustre => "LUSTRE",
        }
    }

    /// The counter-name prefix for this module (`POSIX_`, `MPIIO_`, ...).
    pub fn prefix(&self) -> &'static str {
        self.as_str()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Module {
    type Err = ();
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "POSIX" => Ok(Module::Posix),
            "MPIIO" | "MPI-IO" => Ok(Module::Mpiio),
            "STDIO" => Ok(Module::Stdio),
            "LUSTRE" => Ok(Module::Lustre),
            _ => Err(()),
        }
    }
}

/// Access-size histogram bin suffixes shared by the POSIX and MPI-IO modules.
///
/// Darshan buckets every read and write into one of these ten size ranges;
/// e.g. `POSIX_SIZE_READ_100K_1M` counts reads of 100 KiB - 1 MiB.
pub const SIZE_BINS: [&str; 10] = [
    "0_100", "100_1K", "1K_10K", "10K_100K", "100K_1M", "1M_4M", "4M_10M", "10M_100M", "100M_1G",
    "1G_PLUS",
];

/// Upper (exclusive) byte bound of each size bin, used when classifying a
/// transfer size into a bin. The last bin is unbounded.
pub const SIZE_BIN_UPPER: [u64; 10] = [
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    4_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    u64::MAX,
];

/// Classify a transfer size (bytes) into a size-histogram bin index.
pub fn size_bin_index(size: u64) -> usize {
    SIZE_BIN_UPPER
        .iter()
        .position(|&upper| size < upper)
        .unwrap_or(SIZE_BINS.len() - 1)
}

/// Declares the counter tables: for each module a list of integer and a
/// list of floating-point counter names, in `darshan-parser`'s order.
///
/// From one declaration it generates the public name tables
/// (`POSIX_INT_COUNTERS`, ...), the [`Counter`] enum (one variant per
/// name, module by module, integers before floats) and [`INFO`], the
/// module and kind of each variant, from which the const tables below
/// derive each counter's slot in a record and the name lookup.
macro_rules! counter_tables {
    ($(
        $module:ident {
            $(#[$int_doc:meta])*
            $int_table:ident = [$($int:ident),* $(,)?];
            $(#[$float_doc:meta])*
            $float_table:ident = [$($float:ident),* $(,)?];
        }
    )*) => {
        $(
            $(#[$int_doc])*
            pub const $int_table: &[&str] = &[$(stringify!($int)),*];
            $(#[$float_doc])*
            pub const $float_table: &[&str] = &[$(stringify!($float)),*];
        )*

        /// Every counter in the tables, named as in `darshan-parser`
        /// output. A record stores its own module's counters by index
        /// (the counter's position in its module's table) instead of by
        /// name.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Counter {
            $($($int,)* $($float,)*)*
        }

        impl Counter {
            /// Every counter, in declaration order (`Counter::ALL[c as usize] == c`).
            pub(crate) const ALL: [Counter; COUNT] = [$($(Counter::$int,)* $(Counter::$float,)*)*];
        }

        /// Name, module and whether it is a float, per counter.
        const INFO: [(&str, Module, bool); COUNT] = [$(
            $((stringify!($int), Module::$module, false),)*
            $((stringify!($float), Module::$module, true),)*
        )*];
    };
}

/// Number of counters in the tables.
const COUNT: usize = POSIX_INT_COUNTERS.len()
    + POSIX_FLOAT_COUNTERS.len()
    + MPIIO_INT_COUNTERS.len()
    + MPIIO_FLOAT_COUNTERS.len()
    + STDIO_INT_COUNTERS.len()
    + STDIO_FLOAT_COUNTERS.len()
    + LUSTRE_INT_COUNTERS.len()
    + LUSTRE_FLOAT_COUNTERS.len();

counter_tables! {
    Posix {
        /// Integer counters recorded by the POSIX module.
        POSIX_INT_COUNTERS = [
            POSIX_OPENS,
            POSIX_FILENOS,
            POSIX_DUPS,
            POSIX_READS,
            POSIX_WRITES,
            POSIX_SEEKS,
            POSIX_STATS,
            POSIX_MMAPS,
            POSIX_FSYNCS,
            POSIX_FDSYNCS,
            POSIX_RENAME_SOURCES,
            POSIX_RENAME_TARGETS,
            POSIX_MODE,
            POSIX_BYTES_READ,
            POSIX_BYTES_WRITTEN,
            POSIX_MAX_BYTE_READ,
            POSIX_MAX_BYTE_WRITTEN,
            POSIX_CONSEC_READS,
            POSIX_CONSEC_WRITES,
            POSIX_SEQ_READS,
            POSIX_SEQ_WRITES,
            POSIX_RW_SWITCHES,
            POSIX_MEM_NOT_ALIGNED,
            POSIX_MEM_ALIGNMENT,
            POSIX_FILE_NOT_ALIGNED,
            POSIX_FILE_ALIGNMENT,
            POSIX_MAX_READ_TIME_SIZE,
            POSIX_MAX_WRITE_TIME_SIZE,
            POSIX_SIZE_READ_0_100,
            POSIX_SIZE_READ_100_1K,
            POSIX_SIZE_READ_1K_10K,
            POSIX_SIZE_READ_10K_100K,
            POSIX_SIZE_READ_100K_1M,
            POSIX_SIZE_READ_1M_4M,
            POSIX_SIZE_READ_4M_10M,
            POSIX_SIZE_READ_10M_100M,
            POSIX_SIZE_READ_100M_1G,
            POSIX_SIZE_READ_1G_PLUS,
            POSIX_SIZE_WRITE_0_100,
            POSIX_SIZE_WRITE_100_1K,
            POSIX_SIZE_WRITE_1K_10K,
            POSIX_SIZE_WRITE_10K_100K,
            POSIX_SIZE_WRITE_100K_1M,
            POSIX_SIZE_WRITE_1M_4M,
            POSIX_SIZE_WRITE_4M_10M,
            POSIX_SIZE_WRITE_10M_100M,
            POSIX_SIZE_WRITE_100M_1G,
            POSIX_SIZE_WRITE_1G_PLUS,
            POSIX_STRIDE1_STRIDE,
            POSIX_STRIDE2_STRIDE,
            POSIX_STRIDE3_STRIDE,
            POSIX_STRIDE4_STRIDE,
            POSIX_STRIDE1_COUNT,
            POSIX_STRIDE2_COUNT,
            POSIX_STRIDE3_COUNT,
            POSIX_STRIDE4_COUNT,
            POSIX_ACCESS1_ACCESS,
            POSIX_ACCESS2_ACCESS,
            POSIX_ACCESS3_ACCESS,
            POSIX_ACCESS4_ACCESS,
            POSIX_ACCESS1_COUNT,
            POSIX_ACCESS2_COUNT,
            POSIX_ACCESS3_COUNT,
            POSIX_ACCESS4_COUNT,
            POSIX_FASTEST_RANK,
            POSIX_FASTEST_RANK_BYTES,
            POSIX_SLOWEST_RANK,
            POSIX_SLOWEST_RANK_BYTES,
        ];
        /// Floating-point counters recorded by the POSIX module.
        POSIX_FLOAT_COUNTERS = [
            POSIX_F_OPEN_START_TIMESTAMP,
            POSIX_F_READ_START_TIMESTAMP,
            POSIX_F_WRITE_START_TIMESTAMP,
            POSIX_F_CLOSE_START_TIMESTAMP,
            POSIX_F_OPEN_END_TIMESTAMP,
            POSIX_F_READ_END_TIMESTAMP,
            POSIX_F_WRITE_END_TIMESTAMP,
            POSIX_F_CLOSE_END_TIMESTAMP,
            POSIX_F_READ_TIME,
            POSIX_F_WRITE_TIME,
            POSIX_F_META_TIME,
            POSIX_F_MAX_READ_TIME,
            POSIX_F_MAX_WRITE_TIME,
            POSIX_F_FASTEST_RANK_TIME,
            POSIX_F_SLOWEST_RANK_TIME,
            POSIX_F_VARIANCE_RANK_TIME,
            POSIX_F_VARIANCE_RANK_BYTES,
        ];
    }
    Mpiio {
        /// Integer counters recorded by the MPI-IO module.
        MPIIO_INT_COUNTERS = [
            MPIIO_INDEP_OPENS,
            MPIIO_COLL_OPENS,
            MPIIO_INDEP_READS,
            MPIIO_INDEP_WRITES,
            MPIIO_COLL_READS,
            MPIIO_COLL_WRITES,
            MPIIO_SPLIT_READS,
            MPIIO_SPLIT_WRITES,
            MPIIO_NB_READS,
            MPIIO_NB_WRITES,
            MPIIO_SYNCS,
            MPIIO_HINTS,
            MPIIO_VIEWS,
            MPIIO_MODE,
            MPIIO_BYTES_READ,
            MPIIO_BYTES_WRITTEN,
            MPIIO_RW_SWITCHES,
            MPIIO_MAX_READ_TIME_SIZE,
            MPIIO_MAX_WRITE_TIME_SIZE,
            MPIIO_SIZE_READ_AGG_0_100,
            MPIIO_SIZE_READ_AGG_100_1K,
            MPIIO_SIZE_READ_AGG_1K_10K,
            MPIIO_SIZE_READ_AGG_10K_100K,
            MPIIO_SIZE_READ_AGG_100K_1M,
            MPIIO_SIZE_READ_AGG_1M_4M,
            MPIIO_SIZE_READ_AGG_4M_10M,
            MPIIO_SIZE_READ_AGG_10M_100M,
            MPIIO_SIZE_READ_AGG_100M_1G,
            MPIIO_SIZE_READ_AGG_1G_PLUS,
            MPIIO_SIZE_WRITE_AGG_0_100,
            MPIIO_SIZE_WRITE_AGG_100_1K,
            MPIIO_SIZE_WRITE_AGG_1K_10K,
            MPIIO_SIZE_WRITE_AGG_10K_100K,
            MPIIO_SIZE_WRITE_AGG_100K_1M,
            MPIIO_SIZE_WRITE_AGG_1M_4M,
            MPIIO_SIZE_WRITE_AGG_4M_10M,
            MPIIO_SIZE_WRITE_AGG_10M_100M,
            MPIIO_SIZE_WRITE_AGG_100M_1G,
            MPIIO_SIZE_WRITE_AGG_1G_PLUS,
            MPIIO_ACCESS1_ACCESS,
            MPIIO_ACCESS2_ACCESS,
            MPIIO_ACCESS3_ACCESS,
            MPIIO_ACCESS4_ACCESS,
            MPIIO_ACCESS1_COUNT,
            MPIIO_ACCESS2_COUNT,
            MPIIO_ACCESS3_COUNT,
            MPIIO_ACCESS4_COUNT,
            MPIIO_FASTEST_RANK,
            MPIIO_FASTEST_RANK_BYTES,
            MPIIO_SLOWEST_RANK,
            MPIIO_SLOWEST_RANK_BYTES,
        ];
        /// Floating-point counters recorded by the MPI-IO module.
        MPIIO_FLOAT_COUNTERS = [
            MPIIO_F_OPEN_START_TIMESTAMP,
            MPIIO_F_READ_START_TIMESTAMP,
            MPIIO_F_WRITE_START_TIMESTAMP,
            MPIIO_F_CLOSE_START_TIMESTAMP,
            MPIIO_F_OPEN_END_TIMESTAMP,
            MPIIO_F_READ_END_TIMESTAMP,
            MPIIO_F_WRITE_END_TIMESTAMP,
            MPIIO_F_CLOSE_END_TIMESTAMP,
            MPIIO_F_READ_TIME,
            MPIIO_F_WRITE_TIME,
            MPIIO_F_META_TIME,
            MPIIO_F_MAX_READ_TIME,
            MPIIO_F_MAX_WRITE_TIME,
            MPIIO_F_FASTEST_RANK_TIME,
            MPIIO_F_SLOWEST_RANK_TIME,
            MPIIO_F_VARIANCE_RANK_TIME,
            MPIIO_F_VARIANCE_RANK_BYTES,
        ];
    }
    Stdio {
        /// Integer counters recorded by the STDIO module.
        STDIO_INT_COUNTERS = [
            STDIO_OPENS,
            STDIO_FDOPENS,
            STDIO_READS,
            STDIO_WRITES,
            STDIO_SEEKS,
            STDIO_FLUSHES,
            STDIO_BYTES_WRITTEN,
            STDIO_BYTES_READ,
            STDIO_MAX_BYTE_READ,
            STDIO_MAX_BYTE_WRITTEN,
            STDIO_FASTEST_RANK,
            STDIO_FASTEST_RANK_BYTES,
            STDIO_SLOWEST_RANK,
            STDIO_SLOWEST_RANK_BYTES,
        ];
        /// Floating-point counters recorded by the STDIO module.
        STDIO_FLOAT_COUNTERS = [
            STDIO_F_META_TIME,
            STDIO_F_WRITE_TIME,
            STDIO_F_READ_TIME,
            STDIO_F_OPEN_START_TIMESTAMP,
            STDIO_F_CLOSE_START_TIMESTAMP,
            STDIO_F_WRITE_START_TIMESTAMP,
            STDIO_F_READ_START_TIMESTAMP,
            STDIO_F_OPEN_END_TIMESTAMP,
            STDIO_F_CLOSE_END_TIMESTAMP,
            STDIO_F_WRITE_END_TIMESTAMP,
            STDIO_F_READ_END_TIMESTAMP,
            STDIO_F_FASTEST_RANK_TIME,
            STDIO_F_SLOWEST_RANK_TIME,
            STDIO_F_VARIANCE_RANK_TIME,
            STDIO_F_VARIANCE_RANK_BYTES,
        ];
    }
    Lustre {
        /// Integer counters recorded by the LUSTRE module. `LUSTRE_OST_ID_*`
        /// counters (one per stripe) are generated dynamically and are therefore not
        /// listed here; a record keeps them in its side list.
        LUSTRE_INT_COUNTERS = [
            LUSTRE_OSTS,
            LUSTRE_MDTS,
            LUSTRE_STRIPE_OFFSET,
            LUSTRE_STRIPE_SIZE,
            LUSTRE_STRIPE_WIDTH,
        ];
        /// The LUSTRE module records no floating-point counters.
        LUSTRE_FLOAT_COUNTERS = [];
    }
}

impl Counter {
    /// The counter's name, e.g. `POSIX_BYTES_READ`.
    pub const fn name(self) -> &'static str {
        INFO[self as usize].0
    }

    /// The module whose records carry this counter.
    pub(crate) const fn module(self) -> Module {
        INFO[self as usize].1
    }

    /// Whether this is a floating-point (`_F_`) counter.
    pub(crate) const fn is_float(self) -> bool {
        INFO[self as usize].2
    }

    /// Index of the counter within its module's integer (or float)
    /// values: the position of its name in the module's table.
    pub(crate) const fn slot(self) -> usize {
        SLOTS[self as usize] as usize
    }

    /// The table counter called `name`, if there is one.
    pub(crate) fn from_name(name: &str) -> Option<Counter> {
        let mut i = name_hash(name.as_bytes());
        loop {
            let entry = LOOKUP[i];
            if entry == EMPTY {
                return None;
            }
            let counter = Counter::ALL[entry as usize];
            if counter.name() == name {
                return Some(counter);
            }
            i = (i + 1) % LOOKUP_LEN;
        }
    }
}

impl Module {
    /// The module's integer (`float == false`) or floating-point counters,
    /// in byte order of their names: the order `darshan-parser` text
    /// written by this crate lists them in.
    pub(crate) fn counters_by_name(self, float: bool) -> &'static [Counter] {
        let (start, len) = BLOCKS[self as usize][float as usize];
        &BY_NAME[start..start + len]
    }

    /// Number of integer (or floating-point) counters in the module's
    /// table: the length of a record's value array.
    pub(crate) const fn counter_count(self, float: bool) -> usize {
        BLOCKS[self as usize][float as usize].1
    }
}

/// `(start, len)` of each module's integer and float counters in
/// declaration order: the macro declares them module by module, integers
/// first.
const BLOCKS: [[(usize, usize); 2]; 4] = {
    let mut blocks = [[(0, 0); 2]; 4];
    let mut i = 0;
    while i < COUNT {
        let (_, module, float) = INFO[i];
        let block = &mut blocks[module as usize][float as usize];
        if block.1 == 0 {
            block.0 = i;
        }
        block.1 += 1;
        i += 1;
    }
    blocks
};

/// [`Counter::slot`] per counter.
const SLOTS: [u8; COUNT] = {
    let mut slots = [0; COUNT];
    let mut i = 0;
    while i < COUNT {
        let (_, module, float) = INFO[i];
        let slot = i - BLOCKS[module as usize][float as usize].0;
        assert!(
            slot < 128,
            "a module has more than 128 counters of one kind"
        );
        slots[i] = slot as u8;
        i += 1;
    }
    slots
};

/// Every counter, each module-and-kind block sorted by name.
const BY_NAME: [Counter; COUNT] = {
    let mut sorted = Counter::ALL;
    // Insertion sort; the blocks are contiguous, so a counter only ever
    // moves within its own block.
    let mut i = 1;
    while i < COUNT {
        let mut j = i;
        while j > 0 && sorts_before(sorted[j], sorted[j - 1]) {
            let t = sorted[j];
            sorted[j] = sorted[j - 1];
            sorted[j - 1] = t;
            j -= 1;
        }
        i += 1;
    }
    sorted
};

/// Order by block (module, then integers before floats), then by name.
const fn sorts_before(a: Counter, b: Counter) -> bool {
    let (block_a, block_b) = (
        2 * a.module() as usize + a.is_float() as usize,
        2 * b.module() as usize + b.is_float() as usize,
    );
    if block_a != block_b {
        return block_a < block_b;
    }
    let (a, b) = (a.name().as_bytes(), b.name().as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

/// Marks an unused [`LOOKUP`] entry.
const EMPTY: u8 = u8::MAX;

/// Entries in [`LOOKUP`]: a power of two, at least twice [`COUNT`].
const LOOKUP_LEN: usize = 512;

/// Open-addressing name table: [`name_hash`] picks the first entry,
/// collisions probe linearly. Entries hold `Counter as u8`.
const LOOKUP: [u8; LOOKUP_LEN] = {
    assert!(COUNT < EMPTY as usize && 2 * COUNT <= LOOKUP_LEN);
    let mut table = [EMPTY; LOOKUP_LEN];
    let mut c = 0;
    while c < COUNT {
        let mut i = name_hash(INFO[c].0.as_bytes());
        while table[i] != EMPTY {
            i = (i + 1) % LOOKUP_LEN;
        }
        table[i] = c as u8;
        c += 1;
    }
    table
};

/// Hash of a counter name: its length and its first and last eight bytes,
/// which tell the tables' names apart well enough for a short probe.
const fn name_hash(name: &[u8]) -> usize {
    let head = word(name, 0);
    let tail = word(name, name.len().saturating_sub(8));
    let h = (head ^ tail.rotate_left(29) ^ name.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> (64 - LOOKUP_LEN.trailing_zeros())) as usize
}

/// Up to eight bytes of `bytes` from `start`, little-endian.
const fn word(bytes: &[u8], start: usize) -> u64 {
    let mut w = 0u64;
    let mut i = 0;
    while i < 8 && start + i < bytes.len() {
        w |= (bytes[start + i] as u64) << (8 * i);
        i += 1;
    }
    w
}

/// Whether a counter name denotes a floating-point counter.
///
/// Darshan's convention is that float counters carry an `_F_` infix
/// (`POSIX_F_READ_TIME`); everything else is a 64-bit integer counter.
pub fn is_float_counter(name: &str) -> bool {
    name.contains("_F_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_str_round_trip() {
        for m in Module::ALL {
            assert_eq!(m.as_str().parse::<Module>().unwrap(), m);
        }
    }

    #[test]
    fn unknown_module_rejected() {
        assert!("HDF5".parse::<Module>().is_err());
        assert!("".parse::<Module>().is_err());
    }

    #[test]
    fn float_counter_classification() {
        assert!(is_float_counter("POSIX_F_READ_TIME"));
        assert!(is_float_counter("MPIIO_F_VARIANCE_RANK_BYTES"));
        assert!(!is_float_counter("POSIX_READS"));
        assert!(!is_float_counter("LUSTRE_STRIPE_WIDTH"));
    }

    #[test]
    fn size_bin_boundaries() {
        assert_eq!(size_bin_index(0), 0);
        assert_eq!(size_bin_index(99), 0);
        assert_eq!(size_bin_index(100), 1);
        assert_eq!(size_bin_index(999), 1);
        assert_eq!(size_bin_index(1_000), 2);
        assert_eq!(size_bin_index(999_999), 4);
        assert_eq!(size_bin_index(1_000_000), 5);
        assert_eq!(size_bin_index(4_000_000), 6);
        assert_eq!(size_bin_index(1_000_000_000), 9);
        assert_eq!(size_bin_index(u64::MAX - 1), 9);
    }

    #[test]
    fn size_bin_names_align_with_bounds() {
        assert_eq!(SIZE_BINS.len(), SIZE_BIN_UPPER.len());
    }

    #[test]
    fn histogram_counters_exist_for_all_bins() {
        for bin in SIZE_BINS {
            let read = format!("POSIX_SIZE_READ_{bin}");
            let write = format!("POSIX_SIZE_WRITE_{bin}");
            assert!(POSIX_INT_COUNTERS.contains(&read.as_str()), "{read}");
            assert!(POSIX_INT_COUNTERS.contains(&write.as_str()), "{write}");
            let agg_r = format!("MPIIO_SIZE_READ_AGG_{bin}");
            assert!(MPIIO_INT_COUNTERS.contains(&agg_r.as_str()), "{agg_r}");
        }
    }

    #[test]
    fn every_table_name_resolves_to_its_counter() {
        let tables = [
            (Module::Posix, POSIX_INT_COUNTERS, POSIX_FLOAT_COUNTERS),
            (Module::Mpiio, MPIIO_INT_COUNTERS, MPIIO_FLOAT_COUNTERS),
            (Module::Stdio, STDIO_INT_COUNTERS, STDIO_FLOAT_COUNTERS),
            (Module::Lustre, LUSTRE_INT_COUNTERS, LUSTRE_FLOAT_COUNTERS),
        ];
        let mut seen = 0;
        for (module, ints, floats) in tables {
            for (float, table) in [(false, ints), (true, floats)] {
                assert_eq!(module.counter_count(float), table.len());
                for (slot, name) in table.iter().enumerate() {
                    let c = Counter::from_name(name).unwrap_or_else(|| panic!("{name}"));
                    assert_eq!(c.name(), *name);
                    assert_eq!(c.module(), module, "{name}");
                    assert_eq!(c.is_float(), float, "{name}");
                    // The `_F_` convention agrees with the tables.
                    assert_eq!(is_float_counter(name), float, "{name}");
                    assert_eq!(c.slot(), slot, "{name}");
                    assert_eq!(Counter::ALL[c as usize], c);
                    seen += 1;
                }
            }
        }
        assert_eq!(seen, Counter::ALL.len());
    }

    #[test]
    fn names_outside_the_tables_do_not_resolve() {
        for name in [
            "",
            "POSIX",
            "POSIX_",
            "LUSTRE_OST_ID_0",
            "POSIX_READS ",
            "posix_reads",
            "MPIIO_SEQ_READS",
            "STDIO_F_READ_TIME_",
        ] {
            assert_eq!(Counter::from_name(name), None, "{name:?}");
        }
    }

    #[test]
    fn counters_by_name_are_sorted_by_bytes() {
        for module in Module::ALL {
            for float in [false, true] {
                let names: Vec<&str> = module
                    .counters_by_name(float)
                    .iter()
                    .map(|c| c.name())
                    .collect();
                let mut sorted = names.clone();
                sorted.sort_unstable();
                assert_eq!(names, sorted);
                assert_eq!(names.len(), module.counter_count(float));
                assert!(module
                    .counters_by_name(float)
                    .iter()
                    .all(|c| c.module() == module && c.is_float() == float));
            }
        }
    }

    #[test]
    fn no_duplicate_counter_names() {
        let mut all: Vec<&str> = POSIX_INT_COUNTERS
            .iter()
            .chain(POSIX_FLOAT_COUNTERS)
            .chain(MPIIO_INT_COUNTERS)
            .chain(MPIIO_FLOAT_COUNTERS)
            .chain(STDIO_INT_COUNTERS)
            .chain(STDIO_FLOAT_COUNTERS)
            .chain(LUSTRE_INT_COUNTERS)
            .chain(LUSTRE_FLOAT_COUNTERS)
            .copied()
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(before, all.len(), "duplicate counter name in tables");
    }
}
