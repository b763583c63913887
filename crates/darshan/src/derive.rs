//! Derived per-module aggregates.
//!
//! Every diagnosis tool in this workspace (IOAgent's pre-processor,
//! Drishti's triggers, ION's prompt builder, and the TraceBench
//! self-checks) reasons over the same derived quantities: operation totals,
//! access-size histograms, alignment and sequentiality fractions, timing
//! splits, and rank/server balance. Centralising them here keeps the tools'
//! *interpretation* different (which is the point of the paper) while the
//! *arithmetic* stays consistent and tested once.

use crate::counters::{Counter, Module, SIZE_BINS};
use crate::record::Record;
use crate::trace::DarshanTrace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Aggregate view over all records of one module in a trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModuleAgg {
    /// Number of distinct files the module touched.
    pub files: usize,
    /// Number of shared (rank −1) records.
    pub shared_files: usize,
    /// Open operations (POSIX_OPENS / MPIIO_*_OPENS / STDIO_OPENS).
    pub opens: i64,
    /// Read operations.
    pub reads: i64,
    /// Write operations.
    pub writes: i64,
    /// Seek operations (POSIX/STDIO only).
    pub seeks: i64,
    /// stat()-family operations (POSIX only).
    pub stats: i64,
    /// fsync/fdatasync operations (POSIX only), MPIIO_SYNCS for MPI-IO.
    pub syncs: i64,
    /// Bytes read.
    pub bytes_read: i64,
    /// Bytes written.
    pub bytes_written: i64,
    /// Largest offset read (max over files of MAX_BYTE_READ).
    pub max_byte_read: i64,
    /// Largest offset written.
    pub max_byte_written: i64,
    /// Size of the slowest read operation (`*_MAX_READ_TIME_SIZE`); in
    /// practice the size of a typical worst-case read request, used to judge
    /// per-direction alignment.
    pub max_read_time_size: i64,
    /// Size of the slowest write operation.
    pub max_write_time_size: i64,
    /// Read access-size histogram over [`SIZE_BINS`].
    pub read_hist: [i64; 10],
    /// Write access-size histogram over [`SIZE_BINS`].
    pub write_hist: [i64; 10],
    /// Sequential (offset strictly increasing) reads / writes.
    pub seq_reads: i64,
    /// Sequential writes.
    pub seq_writes: i64,
    /// Consecutive (offset exactly following) reads.
    pub consec_reads: i64,
    /// Consecutive writes.
    pub consec_writes: i64,
    /// Read↔write switches.
    pub rw_switches: i64,
    /// Accesses not aligned with the file-system block/stripe boundary.
    pub file_not_aligned: i64,
    /// Accesses not aligned in memory.
    pub mem_not_aligned: i64,
    /// File alignment value reported by Darshan (bytes; 0 if absent).
    pub file_alignment: i64,
    /// Aggregate time spent in reads (seconds, summed over ranks).
    pub read_time: f64,
    /// Aggregate time spent in writes.
    pub write_time: f64,
    /// Aggregate time spent in metadata operations.
    pub meta_time: f64,
    /// Max across shared files of the variance of per-rank bytes.
    pub variance_rank_bytes: f64,
    /// Max across shared files of the variance of per-rank time.
    pub variance_rank_time: f64,
    /// Bytes moved by the fastest rank (shared files).
    pub fastest_rank_bytes: i64,
    /// Bytes moved by the slowest rank (shared files).
    pub slowest_rank_bytes: i64,
    /// MPI-IO independent opens.
    pub indep_opens: i64,
    /// MPI-IO collective opens.
    pub coll_opens: i64,
    /// MPI-IO independent reads.
    pub indep_reads: i64,
    /// MPI-IO independent writes.
    pub indep_writes: i64,
    /// MPI-IO collective reads.
    pub coll_reads: i64,
    /// MPI-IO collective writes.
    pub coll_writes: i64,
}

impl ModuleAgg {
    /// reads + writes.
    pub fn total_ops(&self) -> i64 {
        self.reads.saturating_add(self.writes)
    }

    /// Fraction of read operations strictly below 1 MB (histogram bins
    /// `0_100 .. 100K_1M`). Returns 0 when there are no reads.
    pub fn small_read_fraction(&self) -> f64 {
        fraction(saturating_sum(&self.read_hist[..5]), self.reads)
    }

    /// Fraction of write operations strictly below 1 MB.
    pub fn small_write_fraction(&self) -> f64 {
        fraction(saturating_sum(&self.write_hist[..5]), self.writes)
    }

    /// Fraction of all operations not aligned with the file system.
    pub fn misaligned_fraction(&self) -> f64 {
        fraction(self.file_not_aligned, self.total_ops())
    }

    /// Fraction of reads that were sequential.
    pub fn seq_read_fraction(&self) -> f64 {
        fraction(self.seq_reads, self.reads)
    }

    /// Fraction of writes that were sequential.
    pub fn seq_write_fraction(&self) -> f64 {
        fraction(self.seq_writes, self.writes)
    }

    /// Metadata time as a fraction of total job runtime × ranks.
    ///
    /// Darshan's `F_META_TIME` is summed over ranks, so the natural
    /// denominator is `run_time * nprocs`.
    pub fn meta_time_fraction(&self, run_time: f64, nprocs: u64) -> f64 {
        if run_time <= 0.0 || nprocs == 0 {
            return 0.0;
        }
        (self.meta_time / (run_time * nprocs as f64)).clamp(0.0, 1.0)
    }

    /// Ratio slowest/fastest rank bytes for shared files (1.0 = balanced).
    /// Returns 1.0 when either side is unknown.
    pub fn rank_byte_imbalance(&self) -> f64 {
        if self.fastest_rank_bytes <= 0 || self.slowest_rank_bytes <= 0 {
            return 1.0;
        }
        self.fastest_rank_bytes as f64 / self.slowest_rank_bytes as f64
    }

    /// Bytes re-read factor: how many times over the touched byte range the
    /// module read. > 1.0 indicates repeated reads of the same data.
    pub fn read_reuse_factor(&self) -> f64 {
        if self.max_byte_read <= 0 {
            return if self.bytes_read > 0 {
                f64::INFINITY
            } else {
                0.0
            };
        }
        self.bytes_read as f64 / (self.max_byte_read as f64 + 1.0)
    }

    /// Fraction of MPI-IO reads that were collective.
    pub fn collective_read_fraction(&self) -> f64 {
        fraction(
            self.coll_reads,
            self.coll_reads.saturating_add(self.indep_reads),
        )
    }

    /// Fraction of MPI-IO writes that were collective.
    pub fn collective_write_fraction(&self) -> f64 {
        fraction(
            self.coll_writes,
            self.coll_writes.saturating_add(self.indep_writes),
        )
    }
}

fn saturating_sum(counters: &[i64]) -> i64 {
    let mut sum = 0;
    add(&mut sum, counters);
    sum
}

fn fraction(num: i64, den: i64) -> f64 {
    if den <= 0 {
        0.0
    } else {
        (num as f64 / den as f64).clamp(0.0, 1.0)
    }
}

/// `part / (part + rest)`, with the sum saturating; 0 when it is not
/// positive.
fn share(part: i64, rest: i64) -> f64 {
    let total = part.saturating_add(rest);
    if total <= 0 {
        return 0.0;
    }
    part as f64 / total as f64
}

/// Aggregate a module's records.
pub fn aggregate(trace: &DarshanTrace, module: Module) -> Option<ModuleAgg> {
    let records: Vec<&Record> = trace.records_for(module).collect();
    if records.is_empty() {
        return None;
    }
    let mut files: Vec<&str> = records.iter().map(|r| r.file.as_str()).collect();
    files.sort_unstable();
    files.dedup();
    let mut agg = ModuleAgg {
        files: files.len(),
        shared_files: records.iter().filter(|r| r.is_shared()).count(),
        ..ModuleAgg::default()
    };
    let k = Keys::of(module);
    for r in &records {
        let int = |c: Counter| r.int(c);
        match module {
            Module::Posix => {
                add(&mut agg.opens, &[int(Counter::POSIX_OPENS)]);
                add(&mut agg.reads, &[int(Counter::POSIX_READS)]);
                add(&mut agg.writes, &[int(Counter::POSIX_WRITES)]);
                add(&mut agg.seeks, &[int(Counter::POSIX_SEEKS)]);
                add(&mut agg.stats, &[int(Counter::POSIX_STATS)]);
                add(
                    &mut agg.syncs,
                    &[int(Counter::POSIX_FSYNCS), int(Counter::POSIX_FDSYNCS)],
                );
            }
            Module::Mpiio => {
                add(&mut agg.indep_opens, &[int(Counter::MPIIO_INDEP_OPENS)]);
                add(&mut agg.coll_opens, &[int(Counter::MPIIO_COLL_OPENS)]);
                add(&mut agg.indep_reads, &[int(Counter::MPIIO_INDEP_READS)]);
                add(&mut agg.indep_writes, &[int(Counter::MPIIO_INDEP_WRITES)]);
                add(&mut agg.coll_reads, &[int(Counter::MPIIO_COLL_READS)]);
                add(&mut agg.coll_writes, &[int(Counter::MPIIO_COLL_WRITES)]);
                add(
                    &mut agg.opens,
                    &[
                        int(Counter::MPIIO_INDEP_OPENS),
                        int(Counter::MPIIO_COLL_OPENS),
                    ],
                );
                add(
                    &mut agg.reads,
                    &[
                        int(Counter::MPIIO_INDEP_READS),
                        int(Counter::MPIIO_COLL_READS),
                        int(Counter::MPIIO_SPLIT_READS),
                        int(Counter::MPIIO_NB_READS),
                    ],
                );
                add(
                    &mut agg.writes,
                    &[
                        int(Counter::MPIIO_INDEP_WRITES),
                        int(Counter::MPIIO_COLL_WRITES),
                        int(Counter::MPIIO_SPLIT_WRITES),
                        int(Counter::MPIIO_NB_WRITES),
                    ],
                );
                add(&mut agg.syncs, &[int(Counter::MPIIO_SYNCS)]);
            }
            Module::Stdio => {
                add(
                    &mut agg.opens,
                    &[int(Counter::STDIO_OPENS), int(Counter::STDIO_FDOPENS)],
                );
                add(&mut agg.reads, &[int(Counter::STDIO_READS)]);
                add(&mut agg.writes, &[int(Counter::STDIO_WRITES)]);
                add(&mut agg.seeks, &[int(Counter::STDIO_SEEKS)]);
            }
            Module::Lustre => {}
        }
        add(&mut agg.bytes_read, &[k.bytes_read.int(r)]);
        add(&mut agg.bytes_written, &[k.bytes_written.int(r)]);
        agg.max_byte_read = agg.max_byte_read.max(k.max_byte_read.int(r));
        agg.max_byte_written = agg.max_byte_written.max(k.max_byte_written.int(r));
        agg.max_read_time_size = agg.max_read_time_size.max(k.max_read_time_size.int(r));
        agg.max_write_time_size = agg.max_write_time_size.max(k.max_write_time_size.int(r));
        add(&mut agg.seq_reads, &[k.seq_reads.int(r)]);
        add(&mut agg.seq_writes, &[k.seq_writes.int(r)]);
        add(&mut agg.consec_reads, &[k.consec_reads.int(r)]);
        add(&mut agg.consec_writes, &[k.consec_writes.int(r)]);
        add(&mut agg.rw_switches, &[k.rw_switches.int(r)]);
        add(&mut agg.file_not_aligned, &[k.file_not_aligned.int(r)]);
        add(&mut agg.mem_not_aligned, &[k.mem_not_aligned.int(r)]);
        agg.file_alignment = agg.file_alignment.max(k.file_alignment.int(r));
        agg.read_time += k.read_time.float(r);
        agg.write_time += k.write_time.float(r);
        agg.meta_time += k.meta_time.float(r);
        agg.variance_rank_bytes = agg.variance_rank_bytes.max(k.variance_rank_bytes.float(r));
        agg.variance_rank_time = agg.variance_rank_time.max(k.variance_rank_time.float(r));
        add(&mut agg.fastest_rank_bytes, &[k.fastest_rank_bytes.int(r)]);
        add(&mut agg.slowest_rank_bytes, &[k.slowest_rank_bytes.int(r)]);
        for (i, (read, write)) in k.read_hist.iter().zip(&k.write_hist).enumerate() {
            add(&mut agg.read_hist[i], &[read.int(r)]);
            add(&mut agg.write_hist[i], &[write.int(r)]);
        }
    }
    Some(agg)
}

/// A counter [`aggregate`] reads under every module's prefix
/// (`{prefix}_BYTES_READ`, ...). Most are table counters, read by index;
/// the rest (`STDIO_SEQ_READS` is in no table) can only come from a
/// record's side list.
enum Key {
    Table(Counter),
    Other(String),
}

impl Key {
    fn new(module: Module, suffix: &str) -> Key {
        let name = format!("{}_{suffix}", module.prefix());
        Counter::from_name(&name).map_or(Key::Other(name), Key::Table)
    }

    fn int(&self, r: &Record) -> i64 {
        match self {
            Key::Table(c) => r.int(*c),
            Key::Other(name) => r.ic(name),
        }
    }

    fn float(&self, r: &Record) -> f64 {
        match self {
            Key::Table(c) => r.float(*c),
            Key::Other(name) => r.fc(name),
        }
    }
}

/// The [`Key`]s of one module, resolved once per process.
struct Keys {
    bytes_read: Key,
    bytes_written: Key,
    max_byte_read: Key,
    max_byte_written: Key,
    max_read_time_size: Key,
    max_write_time_size: Key,
    seq_reads: Key,
    seq_writes: Key,
    consec_reads: Key,
    consec_writes: Key,
    rw_switches: Key,
    file_not_aligned: Key,
    mem_not_aligned: Key,
    file_alignment: Key,
    read_time: Key,
    write_time: Key,
    meta_time: Key,
    variance_rank_bytes: Key,
    variance_rank_time: Key,
    fastest_rank_bytes: Key,
    slowest_rank_bytes: Key,
    read_hist: [Key; 10],
    write_hist: [Key; 10],
}

impl Keys {
    fn of(module: Module) -> &'static Keys {
        static KEYS: OnceLock<[Keys; 4]> = OnceLock::new();
        &KEYS.get_or_init(|| Module::ALL.map(Keys::resolve))[module as usize]
    }

    fn resolve(module: Module) -> Keys {
        let key = |suffix: &str| Key::new(module, suffix);
        // MPI-IO's histograms count aggregate (collective) sizes.
        let (read_hist, write_hist) = match module {
            Module::Mpiio => ("SIZE_READ_AGG_", "SIZE_WRITE_AGG_"),
            _ => ("SIZE_READ_", "SIZE_WRITE_"),
        };
        Keys {
            bytes_read: key("BYTES_READ"),
            bytes_written: key("BYTES_WRITTEN"),
            max_byte_read: key("MAX_BYTE_READ"),
            max_byte_written: key("MAX_BYTE_WRITTEN"),
            max_read_time_size: key("MAX_READ_TIME_SIZE"),
            max_write_time_size: key("MAX_WRITE_TIME_SIZE"),
            seq_reads: key("SEQ_READS"),
            seq_writes: key("SEQ_WRITES"),
            consec_reads: key("CONSEC_READS"),
            consec_writes: key("CONSEC_WRITES"),
            rw_switches: key("RW_SWITCHES"),
            file_not_aligned: key("FILE_NOT_ALIGNED"),
            mem_not_aligned: key("MEM_NOT_ALIGNED"),
            file_alignment: key("FILE_ALIGNMENT"),
            read_time: key("F_READ_TIME"),
            write_time: key("F_WRITE_TIME"),
            meta_time: key("F_META_TIME"),
            variance_rank_bytes: key("F_VARIANCE_RANK_BYTES"),
            variance_rank_time: key("F_VARIANCE_RANK_TIME"),
            fastest_rank_bytes: key("FASTEST_RANK_BYTES"),
            slowest_rank_bytes: key("SLOWEST_RANK_BYTES"),
            read_hist: SIZE_BINS.map(|bin| key(&format!("{read_hist}{bin}"))),
            write_hist: SIZE_BINS.map(|bin| key(&format!("{write_hist}{bin}"))),
        }
    }
}

/// `acc += counters`, saturating at the `i64` bounds: counters summed over
/// the rows of a crafted or corrupt trace must not wrap to a negative total
/// (or panic, in a build with overflow checks).
fn add(acc: &mut i64, counters: &[i64]) {
    for &c in counters {
        *acc = acc.saturating_add(c);
    }
}

/// Summary of Lustre striping across files in a trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LustreSummary {
    /// Number of files with Lustre records.
    pub files: usize,
    /// Total number of OSTs in the file system (max of LUSTRE_OSTS).
    pub total_osts: i64,
    /// Total number of MDTs.
    pub total_mdts: i64,
    /// Stripe width (count) per file.
    pub stripe_widths: Vec<i64>,
    /// Stripe size (bytes) per file.
    pub stripe_sizes: Vec<i64>,
    /// Distinct OST ids actually used by the job.
    pub distinct_osts_used: usize,
    /// How many files use each OST id.
    pub ost_usage: BTreeMap<i64, usize>,
}

impl LustreSummary {
    /// Mean stripe width across files (0 when no files).
    pub fn mean_stripe_width(&self) -> f64 {
        if self.stripe_widths.is_empty() {
            0.0
        } else {
            self.stripe_widths.iter().sum::<i64>() as f64 / self.stripe_widths.len() as f64
        }
    }

    /// Fraction of the file system's OSTs the job touched (0..1).
    pub fn ost_utilisation(&self) -> f64 {
        if self.total_osts <= 0 {
            0.0
        } else {
            (self.distinct_osts_used as f64 / self.total_osts as f64).clamp(0.0, 1.0)
        }
    }

    /// Coefficient of variation of per-OST file counts; high values mean a
    /// few OSTs service most of the traffic.
    pub fn ost_usage_cv(&self) -> f64 {
        if self.ost_usage.is_empty() {
            return 0.0;
        }
        let counts: Vec<f64> = self.ost_usage.values().map(|&c| c as f64).collect();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / counts.len() as f64;
        var.sqrt() / mean
    }
}

/// Aggregate the LUSTRE module records.
pub fn lustre_summary(trace: &DarshanTrace) -> Option<LustreSummary> {
    let records: Vec<&Record> = trace.records_for(Module::Lustre).collect();
    if records.is_empty() {
        return None;
    }
    let mut s = LustreSummary {
        files: records.len(),
        ..LustreSummary::default()
    };
    for r in &records {
        s.total_osts = s.total_osts.max(r.int(Counter::LUSTRE_OSTS));
        s.total_mdts = s.total_mdts.max(r.int(Counter::LUSTRE_MDTS));
        s.stripe_widths.push(r.int(Counter::LUSTRE_STRIPE_WIDTH));
        s.stripe_sizes.push(r.int(Counter::LUSTRE_STRIPE_SIZE));
        for (name, value) in r.int_counters() {
            if name.starts_with("LUSTRE_OST_ID_") {
                *s.ost_usage.entry(value).or_insert(0) += 1;
            }
        }
    }
    s.distinct_osts_used = s.ost_usage.len();
    Some(s)
}

/// Whole-trace summary combining the per-module aggregates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Number of MPI processes.
    pub nprocs: u64,
    /// Job runtime in seconds.
    pub run_time: f64,
    /// POSIX aggregate, if the module is present.
    pub posix: Option<ModuleAgg>,
    /// MPI-IO aggregate.
    pub mpiio: Option<ModuleAgg>,
    /// STDIO aggregate.
    pub stdio: Option<ModuleAgg>,
    /// Lustre striping summary.
    pub lustre: Option<LustreSummary>,
}

impl TraceSummary {
    /// Build the summary for a trace.
    pub fn of(trace: &DarshanTrace) -> Self {
        TraceSummary {
            nprocs: trace.header.nprocs,
            run_time: trace.header.run_time,
            posix: aggregate(trace, Module::Posix),
            mpiio: aggregate(trace, Module::Mpiio),
            stdio: aggregate(trace, Module::Stdio),
            lustre: lustre_summary(trace),
        }
    }

    /// Total bytes through POSIX + STDIO (MPI-IO excluded: double counting).
    pub fn total_bytes(&self) -> i64 {
        let p = self
            .posix
            .as_ref()
            .map(|a| a.bytes_read.saturating_add(a.bytes_written))
            .unwrap_or(0);
        let s = self
            .stdio
            .as_ref()
            .map(|a| a.bytes_read.saturating_add(a.bytes_written))
            .unwrap_or(0);
        p.saturating_add(s)
    }

    /// Fraction of STDIO read bytes out of all read bytes.
    pub fn stdio_read_fraction(&self) -> f64 {
        let p = self.posix.as_ref().map(|a| a.bytes_read).unwrap_or(0);
        let s = self.stdio.as_ref().map(|a| a.bytes_read).unwrap_or(0);
        share(s, p)
    }

    /// Fraction of STDIO write bytes out of all write bytes.
    pub fn stdio_write_fraction(&self) -> f64 {
        let p = self.posix.as_ref().map(|a| a.bytes_written).unwrap_or(0);
        let s = self.stdio.as_ref().map(|a| a.bytes_written).unwrap_or(0);
        share(s, p)
    }

    /// Whether the job performs multi-process I/O without any MPI-IO usage.
    pub fn multi_process_without_mpi(&self) -> bool {
        self.nprocs > 1 && self.mpiio.is_none() && self.posix.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::JobHeader;

    fn trace() -> DarshanTrace {
        let mut t = DarshanTrace::new(JobHeader::new("./app", 8, 100.0));
        let mut p = Record::new(Module::Posix, -1, 1, "/scratch/a");
        p.set_ic("POSIX_READS", 100);
        p.set_ic("POSIX_WRITES", 200);
        p.set_ic("POSIX_SIZE_READ_0_100", 80);
        p.set_ic("POSIX_SIZE_READ_1M_4M", 20);
        p.set_ic("POSIX_SIZE_WRITE_1M_4M", 200);
        p.set_ic("POSIX_SEQ_READS", 90);
        p.set_ic("POSIX_SEQ_WRITES", 190);
        p.set_ic("POSIX_FILE_NOT_ALIGNED", 30);
        p.set_ic("POSIX_BYTES_READ", 1000);
        p.set_ic("POSIX_BYTES_WRITTEN", 2000);
        p.set_ic("POSIX_MAX_BYTE_READ", 499);
        p.set_fc("POSIX_F_META_TIME", 80.0);
        p.set_ic("POSIX_FASTEST_RANK_BYTES", 400);
        p.set_ic("POSIX_SLOWEST_RANK_BYTES", 100);
        t.push(p);
        let mut m = Record::new(Module::Mpiio, -1, 1, "/scratch/a");
        m.set_ic("MPIIO_INDEP_READS", 50);
        m.set_ic("MPIIO_COLL_READS", 0);
        m.set_ic("MPIIO_INDEP_WRITES", 10);
        m.set_ic("MPIIO_COLL_WRITES", 90);
        t.push(m);
        let mut l = Record::new(Module::Lustre, -1, 1, "/scratch/a");
        l.set_ic("LUSTRE_OSTS", 64);
        l.set_ic("LUSTRE_STRIPE_WIDTH", 1);
        l.set_ic("LUSTRE_STRIPE_SIZE", 1 << 20);
        l.set_ic("LUSTRE_OST_ID_0", 13);
        t.push(l);
        t
    }

    #[test]
    fn counter_sums_saturate_instead_of_wrapping() {
        let mut t = DarshanTrace::new(JobHeader::new("./app", 2, 10.0));
        for rank in 0..2 {
            let mut r = Record::new(Module::Posix, rank, 7, "/scratch/huge");
            r.set_ic("POSIX_READS", i64::MAX);
            r.set_ic("POSIX_BYTES_READ", i64::MAX);
            r.set_ic("POSIX_BYTES_WRITTEN", i64::MAX);
            r.set_ic("POSIX_SIZE_READ_0_100", i64::MAX);
            r.set_ic("POSIX_FSYNCS", i64::MAX);
            r.set_ic("POSIX_FDSYNCS", i64::MAX);
            t.push(r);
        }
        let agg = aggregate(&t, Module::Posix).unwrap();
        assert_eq!(agg.bytes_read, i64::MAX);
        assert_eq!(agg.bytes_written, i64::MAX);
        assert_eq!(agg.reads, i64::MAX);
        assert_eq!(agg.read_hist[0], i64::MAX);
        assert_eq!(agg.syncs, i64::MAX);
        // Quantities derived from the saturated sums stay in range too.
        assert_eq!(agg.total_ops(), i64::MAX);
        assert_eq!(agg.small_read_fraction(), 1.0);
        assert_eq!(TraceSummary::of(&t).total_bytes(), i64::MAX);
    }

    #[test]
    fn posix_fractions() {
        let agg = aggregate(&trace(), Module::Posix).unwrap();
        assert!((agg.small_read_fraction() - 0.8).abs() < 1e-9);
        assert!((agg.small_write_fraction() - 0.0).abs() < 1e-9);
        assert!((agg.misaligned_fraction() - 0.1).abs() < 1e-9);
        assert!((agg.seq_read_fraction() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn meta_time_fraction_uses_rank_scaled_denominator() {
        let agg = aggregate(&trace(), Module::Posix).unwrap();
        // 80 seconds of metadata time over 100 s × 8 ranks = 10 %.
        assert!((agg.meta_time_fraction(100.0, 8) - 0.1).abs() < 1e-9);
        assert_eq!(agg.meta_time_fraction(0.0, 8), 0.0);
    }

    #[test]
    fn rank_imbalance_ratio() {
        let agg = aggregate(&trace(), Module::Posix).unwrap();
        assert!((agg.rank_byte_imbalance() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn read_reuse_detects_rereads() {
        let agg = aggregate(&trace(), Module::Posix).unwrap();
        // 1000 bytes read over a 500-byte range => factor 2.
        assert!((agg.read_reuse_factor() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mpiio_collective_fractions() {
        let agg = aggregate(&trace(), Module::Mpiio).unwrap();
        assert_eq!(agg.collective_read_fraction(), 0.0);
        assert!((agg.collective_write_fraction() - 0.9).abs() < 1e-9);
        assert_eq!(agg.reads, 50);
        assert_eq!(agg.writes, 100);
    }

    #[test]
    fn lustre_summary_basics() {
        let s = lustre_summary(&trace()).unwrap();
        assert_eq!(s.total_osts, 64);
        assert_eq!(s.mean_stripe_width(), 1.0);
        assert_eq!(s.distinct_osts_used, 1);
        assert!(s.ost_utilisation() < 0.05);
    }

    #[test]
    fn trace_summary_composition() {
        let s = TraceSummary::of(&trace());
        assert!(s.posix.is_some());
        assert!(s.mpiio.is_some());
        assert!(s.stdio.is_none());
        assert_eq!(s.total_bytes(), 3000);
        assert!(!s.multi_process_without_mpi());
    }

    #[test]
    fn multi_process_without_mpi_flags_posix_only_jobs() {
        let mut t = trace();
        t.records.retain(|r| r.module != Module::Mpiio);
        assert!(TraceSummary::of(&t).multi_process_without_mpi());
        t.header.nprocs = 1;
        assert!(!TraceSummary::of(&t).multi_process_without_mpi());
    }

    #[test]
    fn missing_module_aggregates_to_none() {
        assert!(aggregate(&trace(), Module::Stdio).is_none());
    }
}
