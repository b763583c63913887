//! Canonical Darshan counter names per instrumentation module.
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

/// Integer counters recorded by the POSIX module.
pub const POSIX_INT_COUNTERS: &[&str] = &[
    "POSIX_OPENS",
    "POSIX_FILENOS",
    "POSIX_DUPS",
    "POSIX_READS",
    "POSIX_WRITES",
    "POSIX_SEEKS",
    "POSIX_STATS",
    "POSIX_MMAPS",
    "POSIX_FSYNCS",
    "POSIX_FDSYNCS",
    "POSIX_RENAME_SOURCES",
    "POSIX_RENAME_TARGETS",
    "POSIX_MODE",
    "POSIX_BYTES_READ",
    "POSIX_BYTES_WRITTEN",
    "POSIX_MAX_BYTE_READ",
    "POSIX_MAX_BYTE_WRITTEN",
    "POSIX_CONSEC_READS",
    "POSIX_CONSEC_WRITES",
    "POSIX_SEQ_READS",
    "POSIX_SEQ_WRITES",
    "POSIX_RW_SWITCHES",
    "POSIX_MEM_NOT_ALIGNED",
    "POSIX_MEM_ALIGNMENT",
    "POSIX_FILE_NOT_ALIGNED",
    "POSIX_FILE_ALIGNMENT",
    "POSIX_MAX_READ_TIME_SIZE",
    "POSIX_MAX_WRITE_TIME_SIZE",
    "POSIX_SIZE_READ_0_100",
    "POSIX_SIZE_READ_100_1K",
    "POSIX_SIZE_READ_1K_10K",
    "POSIX_SIZE_READ_10K_100K",
    "POSIX_SIZE_READ_100K_1M",
    "POSIX_SIZE_READ_1M_4M",
    "POSIX_SIZE_READ_4M_10M",
    "POSIX_SIZE_READ_10M_100M",
    "POSIX_SIZE_READ_100M_1G",
    "POSIX_SIZE_READ_1G_PLUS",
    "POSIX_SIZE_WRITE_0_100",
    "POSIX_SIZE_WRITE_100_1K",
    "POSIX_SIZE_WRITE_1K_10K",
    "POSIX_SIZE_WRITE_10K_100K",
    "POSIX_SIZE_WRITE_100K_1M",
    "POSIX_SIZE_WRITE_1M_4M",
    "POSIX_SIZE_WRITE_4M_10M",
    "POSIX_SIZE_WRITE_10M_100M",
    "POSIX_SIZE_WRITE_100M_1G",
    "POSIX_SIZE_WRITE_1G_PLUS",
    "POSIX_STRIDE1_STRIDE",
    "POSIX_STRIDE2_STRIDE",
    "POSIX_STRIDE3_STRIDE",
    "POSIX_STRIDE4_STRIDE",
    "POSIX_STRIDE1_COUNT",
    "POSIX_STRIDE2_COUNT",
    "POSIX_STRIDE3_COUNT",
    "POSIX_STRIDE4_COUNT",
    "POSIX_ACCESS1_ACCESS",
    "POSIX_ACCESS2_ACCESS",
    "POSIX_ACCESS3_ACCESS",
    "POSIX_ACCESS4_ACCESS",
    "POSIX_ACCESS1_COUNT",
    "POSIX_ACCESS2_COUNT",
    "POSIX_ACCESS3_COUNT",
    "POSIX_ACCESS4_COUNT",
    "POSIX_FASTEST_RANK",
    "POSIX_FASTEST_RANK_BYTES",
    "POSIX_SLOWEST_RANK",
    "POSIX_SLOWEST_RANK_BYTES",
];

/// Floating-point counters recorded by the POSIX module.
pub const POSIX_FLOAT_COUNTERS: &[&str] = &[
    "POSIX_F_OPEN_START_TIMESTAMP",
    "POSIX_F_READ_START_TIMESTAMP",
    "POSIX_F_WRITE_START_TIMESTAMP",
    "POSIX_F_CLOSE_START_TIMESTAMP",
    "POSIX_F_OPEN_END_TIMESTAMP",
    "POSIX_F_READ_END_TIMESTAMP",
    "POSIX_F_WRITE_END_TIMESTAMP",
    "POSIX_F_CLOSE_END_TIMESTAMP",
    "POSIX_F_READ_TIME",
    "POSIX_F_WRITE_TIME",
    "POSIX_F_META_TIME",
    "POSIX_F_MAX_READ_TIME",
    "POSIX_F_MAX_WRITE_TIME",
    "POSIX_F_FASTEST_RANK_TIME",
    "POSIX_F_SLOWEST_RANK_TIME",
    "POSIX_F_VARIANCE_RANK_TIME",
    "POSIX_F_VARIANCE_RANK_BYTES",
];

/// Integer counters recorded by the MPI-IO module.
pub const MPIIO_INT_COUNTERS: &[&str] = &[
    "MPIIO_INDEP_OPENS",
    "MPIIO_COLL_OPENS",
    "MPIIO_INDEP_READS",
    "MPIIO_INDEP_WRITES",
    "MPIIO_COLL_READS",
    "MPIIO_COLL_WRITES",
    "MPIIO_SPLIT_READS",
    "MPIIO_SPLIT_WRITES",
    "MPIIO_NB_READS",
    "MPIIO_NB_WRITES",
    "MPIIO_SYNCS",
    "MPIIO_HINTS",
    "MPIIO_VIEWS",
    "MPIIO_MODE",
    "MPIIO_BYTES_READ",
    "MPIIO_BYTES_WRITTEN",
    "MPIIO_RW_SWITCHES",
    "MPIIO_MAX_READ_TIME_SIZE",
    "MPIIO_MAX_WRITE_TIME_SIZE",
    "MPIIO_SIZE_READ_AGG_0_100",
    "MPIIO_SIZE_READ_AGG_100_1K",
    "MPIIO_SIZE_READ_AGG_1K_10K",
    "MPIIO_SIZE_READ_AGG_10K_100K",
    "MPIIO_SIZE_READ_AGG_100K_1M",
    "MPIIO_SIZE_READ_AGG_1M_4M",
    "MPIIO_SIZE_READ_AGG_4M_10M",
    "MPIIO_SIZE_READ_AGG_10M_100M",
    "MPIIO_SIZE_READ_AGG_100M_1G",
    "MPIIO_SIZE_READ_AGG_1G_PLUS",
    "MPIIO_SIZE_WRITE_AGG_0_100",
    "MPIIO_SIZE_WRITE_AGG_100_1K",
    "MPIIO_SIZE_WRITE_AGG_1K_10K",
    "MPIIO_SIZE_WRITE_AGG_10K_100K",
    "MPIIO_SIZE_WRITE_AGG_100K_1M",
    "MPIIO_SIZE_WRITE_AGG_1M_4M",
    "MPIIO_SIZE_WRITE_AGG_4M_10M",
    "MPIIO_SIZE_WRITE_AGG_10M_100M",
    "MPIIO_SIZE_WRITE_AGG_100M_1G",
    "MPIIO_SIZE_WRITE_AGG_1G_PLUS",
    "MPIIO_ACCESS1_ACCESS",
    "MPIIO_ACCESS2_ACCESS",
    "MPIIO_ACCESS3_ACCESS",
    "MPIIO_ACCESS4_ACCESS",
    "MPIIO_ACCESS1_COUNT",
    "MPIIO_ACCESS2_COUNT",
    "MPIIO_ACCESS3_COUNT",
    "MPIIO_ACCESS4_COUNT",
    "MPIIO_FASTEST_RANK",
    "MPIIO_FASTEST_RANK_BYTES",
    "MPIIO_SLOWEST_RANK",
    "MPIIO_SLOWEST_RANK_BYTES",
];

/// Floating-point counters recorded by the MPI-IO module.
pub const MPIIO_FLOAT_COUNTERS: &[&str] = &[
    "MPIIO_F_OPEN_START_TIMESTAMP",
    "MPIIO_F_READ_START_TIMESTAMP",
    "MPIIO_F_WRITE_START_TIMESTAMP",
    "MPIIO_F_CLOSE_START_TIMESTAMP",
    "MPIIO_F_OPEN_END_TIMESTAMP",
    "MPIIO_F_READ_END_TIMESTAMP",
    "MPIIO_F_WRITE_END_TIMESTAMP",
    "MPIIO_F_CLOSE_END_TIMESTAMP",
    "MPIIO_F_READ_TIME",
    "MPIIO_F_WRITE_TIME",
    "MPIIO_F_META_TIME",
    "MPIIO_F_MAX_READ_TIME",
    "MPIIO_F_MAX_WRITE_TIME",
    "MPIIO_F_FASTEST_RANK_TIME",
    "MPIIO_F_SLOWEST_RANK_TIME",
    "MPIIO_F_VARIANCE_RANK_TIME",
    "MPIIO_F_VARIANCE_RANK_BYTES",
];

/// Integer counters recorded by the STDIO module.
pub const STDIO_INT_COUNTERS: &[&str] = &[
    "STDIO_OPENS",
    "STDIO_FDOPENS",
    "STDIO_READS",
    "STDIO_WRITES",
    "STDIO_SEEKS",
    "STDIO_FLUSHES",
    "STDIO_BYTES_WRITTEN",
    "STDIO_BYTES_READ",
    "STDIO_MAX_BYTE_READ",
    "STDIO_MAX_BYTE_WRITTEN",
    "STDIO_FASTEST_RANK",
    "STDIO_FASTEST_RANK_BYTES",
    "STDIO_SLOWEST_RANK",
    "STDIO_SLOWEST_RANK_BYTES",
];

/// Floating-point counters recorded by the STDIO module.
pub const STDIO_FLOAT_COUNTERS: &[&str] = &[
    "STDIO_F_META_TIME",
    "STDIO_F_WRITE_TIME",
    "STDIO_F_READ_TIME",
    "STDIO_F_OPEN_START_TIMESTAMP",
    "STDIO_F_CLOSE_START_TIMESTAMP",
    "STDIO_F_WRITE_START_TIMESTAMP",
    "STDIO_F_READ_START_TIMESTAMP",
    "STDIO_F_OPEN_END_TIMESTAMP",
    "STDIO_F_CLOSE_END_TIMESTAMP",
    "STDIO_F_WRITE_END_TIMESTAMP",
    "STDIO_F_READ_END_TIMESTAMP",
    "STDIO_F_FASTEST_RANK_TIME",
    "STDIO_F_SLOWEST_RANK_TIME",
    "STDIO_F_VARIANCE_RANK_TIME",
    "STDIO_F_VARIANCE_RANK_BYTES",
];

/// Integer counters recorded by the LUSTRE module. `LUSTRE_OST_ID_*`
/// counters (one per stripe) are generated dynamically and are therefore not
/// listed here; any counter matching that prefix is accepted by the parser.
pub const LUSTRE_INT_COUNTERS: &[&str] = &[
    "LUSTRE_OSTS",
    "LUSTRE_MDTS",
    "LUSTRE_STRIPE_OFFSET",
    "LUSTRE_STRIPE_SIZE",
    "LUSTRE_STRIPE_WIDTH",
];

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
    fn no_duplicate_counter_names() {
        let mut all: Vec<&str> = POSIX_INT_COUNTERS
            .iter()
            .chain(POSIX_FLOAT_COUNTERS)
            .chain(MPIIO_INT_COUNTERS)
            .chain(MPIIO_FLOAT_COUNTERS)
            .chain(STDIO_INT_COUNTERS)
            .chain(STDIO_FLOAT_COUNTERS)
            .chain(LUSTRE_INT_COUNTERS)
            .copied()
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(before, all.len(), "duplicate counter name in tables");
    }
}
