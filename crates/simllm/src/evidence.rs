//! Evidence extraction from attended context.
//!
//! The simulated model can only reason over what survived the attention
//! model. Two input shapes are understood:
//!
//! - **Structured evidence** (`EVIDENCE key=value` lines) as produced by
//!   IOAgent's pre-processor prompts — compact and immune to truncation.
//! - **Raw `darshan-parser` rows** as stuffed into ION's direct prompts —
//!   the extractor rebuilds what aggregates it can from the surviving rows,
//!   so truncation mechanically destroys information (e.g. if every MPIIO
//!   row fell in the lost middle, the model cannot know MPI-IO was used).
//!
//! `REFERENCE claim=<key> cite=<citation>` lines record retrieved domain
//! knowledge; their claims ground rules and suppress misconceptions.

use std::collections::{BTreeMap, BTreeSet};

/// Canonical evidence keys shared by prompt builders and the rule base.
pub mod keys {
    /// Number of MPI processes.
    pub const NPROCS: &str = "nprocs";
    /// Job runtime in seconds.
    pub const RUNTIME: &str = "runtime";
    /// 1.0 if the POSIX module is present.
    pub const POSIX_PRESENT: &str = "posix.present";
    /// POSIX read operations.
    pub const POSIX_READS: &str = "posix.reads";
    /// POSIX write operations.
    pub const POSIX_WRITES: &str = "posix.writes";
    /// POSIX open operations.
    pub const POSIX_OPENS: &str = "posix.opens";
    /// POSIX stat operations.
    pub const POSIX_STATS: &str = "posix.stats";
    /// Fraction of reads below 1 MB.
    pub const POSIX_SMALL_READ_FRACTION: &str = "posix.small_read_fraction";
    /// Fraction of writes below 1 MB.
    pub const POSIX_SMALL_WRITE_FRACTION: &str = "posix.small_write_fraction";
    /// Fraction of sequential reads.
    pub const POSIX_SEQ_READ_FRACTION: &str = "posix.seq_read_fraction";
    /// Fraction of sequential writes.
    pub const POSIX_SEQ_WRITE_FRACTION: &str = "posix.seq_write_fraction";
    /// Fraction of file-system-misaligned operations.
    pub const POSIX_MISALIGNED_FRACTION: &str = "posix.misaligned_fraction";
    /// 1.0 if the typical read size is not a multiple of the alignment.
    pub const POSIX_READ_ALIGN_MISMATCH: &str = "posix.read_align_mismatch";
    /// 1.0 if the typical write size is not a multiple of the alignment.
    pub const POSIX_WRITE_ALIGN_MISMATCH: &str = "posix.write_align_mismatch";
    /// Metadata time fraction of runtime × ranks.
    pub const POSIX_META_FRACTION: &str = "posix.meta_fraction";
    /// 1.0 if shared (rank −1) data records exist.
    pub const POSIX_SHARED_DATA: &str = "posix.shared_data";
    /// Max per-file bytes-read over byte-range factor.
    pub const POSIX_READ_REUSE: &str = "posix.read_reuse_factor";
    /// Coefficient of variation of per-rank bytes.
    pub const POSIX_RANK_CV: &str = "posix.rank_cv";
    /// Fastest/slowest rank byte ratio on shared files.
    pub const POSIX_RANK_RATIO: &str = "posix.rank_ratio";
    /// POSIX bytes read.
    pub const POSIX_BYTES_READ: &str = "posix.bytes_read";
    /// POSIX bytes written.
    pub const POSIX_BYTES_WRITTEN: &str = "posix.bytes_written";
    /// 1.0 if the MPI-IO module is present.
    pub const MPIIO_PRESENT: &str = "mpiio.present";
    /// Independent MPI-IO reads.
    pub const MPIIO_INDEP_READS: &str = "mpiio.indep_reads";
    /// Collective MPI-IO reads.
    pub const MPIIO_COLL_READS: &str = "mpiio.coll_reads";
    /// Independent MPI-IO writes.
    pub const MPIIO_INDEP_WRITES: &str = "mpiio.indep_writes";
    /// Collective MPI-IO writes.
    pub const MPIIO_COLL_WRITES: &str = "mpiio.coll_writes";
    /// 1.0 if the STDIO module is present.
    pub const STDIO_PRESENT: &str = "stdio.present";
    /// STDIO bytes read.
    pub const STDIO_BYTES_READ: &str = "stdio.bytes_read";
    /// STDIO bytes written.
    pub const STDIO_BYTES_WRITTEN: &str = "stdio.bytes_written";
    /// STDIO share of read bytes.
    pub const STDIO_READ_FRACTION: &str = "stdio.read_fraction";
    /// STDIO share of write bytes.
    pub const STDIO_WRITE_FRACTION: &str = "stdio.write_fraction";
    /// 1.0 if Lustre records are present.
    pub const LUSTRE_PRESENT: &str = "lustre.present";
    /// Mean stripe count across files.
    pub const LUSTRE_STRIPE_WIDTH: &str = "lustre.stripe_width_mean";
    /// Stripe size in bytes.
    pub const LUSTRE_STRIPE_SIZE: &str = "lustre.stripe_size";
    /// OSTs available in the file system.
    pub const LUSTRE_OST_COUNT: &str = "lustre.ost_count";
    /// Distinct OSTs used by the job.
    pub const LUSTRE_OSTS_USED: &str = "lustre.osts_used";
    /// Total POSIX+STDIO bytes.
    pub const TOTAL_BYTES: &str = "total_bytes";
}

/// Evidence assembled from attended context.
#[derive(Debug, Clone, Default)]
pub struct Evidence {
    /// Numeric facts keyed by canonical evidence key.
    pub values: BTreeMap<String, f64>,
    /// Claims grounded by retrieved references.
    pub grounded: BTreeSet<String>,
    /// Retrieved references: (claim, citation).
    pub references: Vec<(String, String)>,
    /// Keys the model had to derive itself from raw counter rows (as
    /// opposed to being handed pre-computed `EVIDENCE` lines). Arithmetic
    /// over hundreds of raw rows is unreliable for LLMs; the diagnosis task
    /// degrades these keys under load.
    pub raw_keys: BTreeSet<String>,
}

impl Evidence {
    /// Look up a fact.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// Look up a fact with a default.
    pub fn get_or(&self, key: &str, default: f64) -> f64 {
        self.get(key).unwrap_or(default)
    }

    /// Whether a boolean-ish fact is present and set.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key).map(|v| v > 0.5).unwrap_or(false)
    }

    /// Whether a claim is grounded by retrieved knowledge.
    pub fn is_grounded(&self, claim: &str) -> bool {
        self.grounded.contains(claim)
    }

    /// Citations grounding a claim.
    pub fn citations_for(&self, claim: &str) -> Vec<&str> {
        self.references
            .iter()
            .filter(|(c, _)| c == claim)
            .map(|(_, cite)| cite.as_str())
            .collect()
    }

    /// Build evidence from attended lines (both input shapes).
    pub fn from_lines(lines: &[&str]) -> Self {
        let mut ev = Evidence::default();
        let mut raw = RawAccumulator::default();
        for line in lines {
            let t = line.trim();
            if let Some(rest) = t.strip_prefix("EVIDENCE ") {
                if let Some((k, v)) = rest.split_once('=') {
                    if let Ok(x) = v.trim().parse::<f64>() {
                        ev.values.insert(k.trim().to_string(), x);
                    }
                }
            } else if let Some(rest) = t.strip_prefix("CONTEXT ") {
                for pair in rest.split_whitespace() {
                    if let Some((k, v)) = pair.split_once('=') {
                        if let Ok(x) = v.parse::<f64>() {
                            ev.values.insert(k.to_string(), x);
                        }
                    }
                }
            } else if let Some(rest) = t.strip_prefix("REFERENCE ") {
                let mut claim = String::new();
                let mut cite = String::new();
                if let Some(cpos) = rest.find("claim=") {
                    let after = &rest[cpos + 6..];
                    claim = after.split_whitespace().next().unwrap_or("").to_string();
                }
                if let Some(cpos) = rest.find("cite=") {
                    cite = rest[cpos + 5..].trim().to_string();
                }
                if !claim.is_empty() {
                    ev.grounded.insert(claim.clone());
                    ev.references.push((claim, cite));
                }
            } else {
                raw.feed(t);
            }
        }
        raw.finish(&mut ev);
        ev
    }
}

/// Accumulates raw `darshan-parser` rows and derives evidence from whatever
/// survived attention.
#[derive(Debug, Default)]
struct RawAccumulator {
    nprocs: Option<f64>,
    runtime: Option<f64>,
    /// (module, counter) → summed value.
    sums: BTreeMap<(String, String), f64>,
    /// per (module, record, direction bookkeeping for reuse).
    per_record_read_bytes: BTreeMap<u64, f64>,
    per_record_read_range: BTreeMap<u64, f64>,
    per_rank_bytes: BTreeMap<i64, f64>,
    ost_ids: BTreeSet<i64>,
    stripe_widths: Vec<f64>,
    stripe_sizes: Vec<f64>,
    shared_data_rows: usize,
    max_read_size: f64,
    max_write_size: f64,
    alignment: f64,
    saw_any: bool,
}

impl RawAccumulator {
    fn feed(&mut self, line: &str) {
        if let Some(rest) = line.strip_prefix("# nprocs:") {
            self.nprocs = rest.trim().parse().ok();
            return;
        }
        if let Some(rest) = line.strip_prefix("# run time:") {
            self.runtime = rest.trim().parse().ok();
            return;
        }
        if line.starts_with('#') || line.is_empty() {
            return;
        }
        let cols: Vec<&str> = if line.contains('\t') {
            line.split('\t').collect()
        } else {
            line.split_whitespace().collect()
        };
        if cols.len() < 5 {
            return;
        }
        let module = cols[0];
        if !matches!(module, "POSIX" | "MPIIO" | "STDIO" | "LUSTRE") {
            return;
        }
        let Ok(rank) = cols[1].parse::<i64>() else {
            return;
        };
        let Ok(record_id) = cols[2].parse::<u64>() else {
            return;
        };
        let counter = cols[3];
        let Ok(value) = cols[4].parse::<f64>() else {
            return;
        };
        self.saw_any = true;
        *self
            .sums
            .entry((module.to_string(), counter.to_string()))
            .or_insert(0.0) += value;

        match counter {
            "POSIX_BYTES_READ" => {
                *self.per_record_read_bytes.entry(record_id).or_insert(0.0) += value;
                if rank >= 0 {
                    *self.per_rank_bytes.entry(rank).or_insert(0.0) += value;
                } else if value > 0.0 {
                    self.shared_data_rows += 1;
                }
            }
            "POSIX_BYTES_WRITTEN" => {
                if rank >= 0 {
                    *self.per_rank_bytes.entry(rank).or_insert(0.0) += value;
                } else if value > 0.0 {
                    self.shared_data_rows += 1;
                }
            }
            "POSIX_MAX_BYTE_READ" => {
                let e = self.per_record_read_range.entry(record_id).or_insert(0.0);
                *e = e.max(value + 1.0);
            }
            "POSIX_MAX_READ_TIME_SIZE" => self.max_read_size = self.max_read_size.max(value),
            "POSIX_MAX_WRITE_TIME_SIZE" => self.max_write_size = self.max_write_size.max(value),
            "POSIX_FILE_ALIGNMENT" => self.alignment = self.alignment.max(value),
            "LUSTRE_STRIPE_WIDTH" => self.stripe_widths.push(value),
            "LUSTRE_STRIPE_SIZE" => self.stripe_sizes.push(value),
            _ => {
                if counter.starts_with("LUSTRE_OST_ID_") {
                    self.ost_ids.insert(value as i64);
                }
            }
        }
    }

    fn finish(self, ev: &mut Evidence) {
        use keys::*;
        if !self.saw_any {
            return;
        }
        let mut raw_keys: BTreeSet<String> = BTreeSet::new();
        let mut set = |k: &str, v: f64| {
            if !ev.values.contains_key(k) {
                ev.values.insert(k.to_string(), v);
                raw_keys.insert(k.to_string());
            }
        };
        if let Some(n) = self.nprocs {
            set(NPROCS, n);
        }
        if let Some(r) = self.runtime {
            set(RUNTIME, r);
        }
        let s = |m: &str, c: &str| self.sums.get(&(m.to_string(), c.to_string())).copied();
        let posix_present = self.sums.keys().any(|(m, _)| m == "POSIX");
        set(POSIX_PRESENT, posix_present as u8 as f64);
        let mpiio_present = self.sums.keys().any(|(m, _)| m == "MPIIO");
        set(MPIIO_PRESENT, mpiio_present as u8 as f64);
        let stdio_present = self.sums.keys().any(|(m, _)| m == "STDIO");
        set(STDIO_PRESENT, stdio_present as u8 as f64);
        let lustre_present = self.sums.keys().any(|(m, _)| m == "LUSTRE");
        set(LUSTRE_PRESENT, lustre_present as u8 as f64);

        if posix_present {
            let reads = s("POSIX", "POSIX_READS").unwrap_or(0.0);
            let writes = s("POSIX", "POSIX_WRITES").unwrap_or(0.0);
            set(POSIX_READS, reads);
            set(POSIX_WRITES, writes);
            set(POSIX_OPENS, s("POSIX", "POSIX_OPENS").unwrap_or(0.0));
            set(POSIX_STATS, s("POSIX", "POSIX_STATS").unwrap_or(0.0));
            let bytes_read = s("POSIX", "POSIX_BYTES_READ").unwrap_or(0.0);
            let bytes_written = s("POSIX", "POSIX_BYTES_WRITTEN").unwrap_or(0.0);
            set(POSIX_BYTES_READ, bytes_read);
            set(POSIX_BYTES_WRITTEN, bytes_written);
            const SMALL_BINS: [&str; 5] = ["0_100", "100_1K", "1K_10K", "10K_100K", "100K_1M"];
            let small_reads: f64 = SMALL_BINS
                .iter()
                .filter_map(|b| s("POSIX", &format!("POSIX_SIZE_READ_{b}")))
                .sum();
            let small_writes: f64 = SMALL_BINS
                .iter()
                .filter_map(|b| s("POSIX", &format!("POSIX_SIZE_WRITE_{b}")))
                .sum();
            if reads > 0.0 {
                set(POSIX_SMALL_READ_FRACTION, (small_reads / reads).min(1.0));
                set(
                    POSIX_SEQ_READ_FRACTION,
                    (s("POSIX", "POSIX_SEQ_READS").unwrap_or(0.0) / reads).min(1.0),
                );
            }
            if writes > 0.0 {
                set(POSIX_SMALL_WRITE_FRACTION, (small_writes / writes).min(1.0));
                set(
                    POSIX_SEQ_WRITE_FRACTION,
                    (s("POSIX", "POSIX_SEQ_WRITES").unwrap_or(0.0) / writes).min(1.0),
                );
            }
            if reads + writes > 0.0 {
                set(
                    POSIX_MISALIGNED_FRACTION,
                    (s("POSIX", "POSIX_FILE_NOT_ALIGNED").unwrap_or(0.0) / (reads + writes))
                        .min(1.0),
                );
            }
            let align = if self.alignment > 0.0 {
                self.alignment
            } else {
                1048576.0
            };
            if self.max_read_size > 0.0 {
                set(
                    POSIX_READ_ALIGN_MISMATCH,
                    ((self.max_read_size as i64 % align as i64) != 0) as u8 as f64,
                );
            }
            if self.max_write_size > 0.0 {
                set(
                    POSIX_WRITE_ALIGN_MISMATCH,
                    ((self.max_write_size as i64 % align as i64) != 0) as u8 as f64,
                );
            }
            if let (Some(n), Some(r)) = (self.nprocs, self.runtime) {
                if n > 0.0 && r > 0.0 {
                    let meta = s("POSIX", "POSIX_F_META_TIME").unwrap_or(0.0);
                    set(POSIX_META_FRACTION, (meta / (n * r)).min(1.0));
                }
            }
            set(POSIX_SHARED_DATA, (self.shared_data_rows > 0) as u8 as f64);
            let mut reuse: f64 = 0.0;
            for (rec, bytes) in &self.per_record_read_bytes {
                if let Some(range) = self.per_record_read_range.get(rec) {
                    if *range > 0.0 {
                        reuse = reuse.max(bytes / range);
                    }
                }
            }
            if reuse > 0.0 {
                set(POSIX_READ_REUSE, reuse);
            }
            if self.per_rank_bytes.len() >= 2 {
                let vals: Vec<f64> = self.per_rank_bytes.values().copied().collect();
                let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                if mean > 0.0 {
                    let var =
                        vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
                    set(POSIX_RANK_CV, var.sqrt() / mean);
                }
            }
            let fr = s("POSIX", "POSIX_FASTEST_RANK_BYTES").unwrap_or(0.0);
            let sr = s("POSIX", "POSIX_SLOWEST_RANK_BYTES").unwrap_or(0.0);
            if fr > 0.0 && sr > 0.0 {
                set(POSIX_RANK_RATIO, fr / sr);
            }
            let stdio_read = s("STDIO", "STDIO_BYTES_READ").unwrap_or(0.0);
            let stdio_written = s("STDIO", "STDIO_BYTES_WRITTEN").unwrap_or(0.0);
            set(
                TOTAL_BYTES,
                bytes_read + bytes_written + stdio_read + stdio_written,
            );
        }
        if mpiio_present {
            set(
                MPIIO_INDEP_READS,
                s("MPIIO", "MPIIO_INDEP_READS").unwrap_or(0.0),
            );
            set(
                MPIIO_COLL_READS,
                s("MPIIO", "MPIIO_COLL_READS").unwrap_or(0.0),
            );
            set(
                MPIIO_INDEP_WRITES,
                s("MPIIO", "MPIIO_INDEP_WRITES").unwrap_or(0.0),
            );
            set(
                MPIIO_COLL_WRITES,
                s("MPIIO", "MPIIO_COLL_WRITES").unwrap_or(0.0),
            );
        }
        if stdio_present {
            let sr = s("STDIO", "STDIO_BYTES_READ").unwrap_or(0.0);
            let sw = s("STDIO", "STDIO_BYTES_WRITTEN").unwrap_or(0.0);
            set(STDIO_BYTES_READ, sr);
            set(STDIO_BYTES_WRITTEN, sw);
            let pr = s("POSIX", "POSIX_BYTES_READ").unwrap_or(0.0);
            let pw = s("POSIX", "POSIX_BYTES_WRITTEN").unwrap_or(0.0);
            if sr + pr > 0.0 {
                set(STDIO_READ_FRACTION, sr / (sr + pr));
            }
            if sw + pw > 0.0 {
                set(STDIO_WRITE_FRACTION, sw / (sw + pw));
            }
        }
        if lustre_present {
            if !self.stripe_widths.is_empty() {
                set(
                    LUSTRE_STRIPE_WIDTH,
                    self.stripe_widths.iter().sum::<f64>() / self.stripe_widths.len() as f64,
                );
            }
            if !self.stripe_sizes.is_empty() {
                set(
                    LUSTRE_STRIPE_SIZE,
                    self.stripe_sizes.iter().sum::<f64>() / self.stripe_sizes.len() as f64,
                );
            }
            if let Some(c) = s("LUSTRE", "LUSTRE_OSTS") {
                // Summed over records; divide back by file count for the max.
                let files = self.stripe_widths.len().max(1) as f64;
                set(LUSTRE_OST_COUNT, c / files);
            }
            set(LUSTRE_OSTS_USED, self.ost_ids.len() as f64);
        }
        ev.raw_keys.extend(raw_keys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_evidence_parsed() {
        let ev = Evidence::from_lines(&[
            "EVIDENCE posix.small_write_fraction=0.95",
            "CONTEXT nprocs=16 runtime=300",
            "REFERENCE claim=small_io_aggregation cite=[The Cost of Small Requests, SC 2020]",
        ]);
        assert_eq!(ev.get("posix.small_write_fraction"), Some(0.95));
        assert_eq!(ev.get(keys::NPROCS), Some(16.0));
        assert!(ev.is_grounded("small_io_aggregation"));
        assert_eq!(ev.citations_for("small_io_aggregation").len(), 1);
    }

    #[test]
    fn raw_rows_derive_fractions() {
        let ev = Evidence::from_lines(&[
            "# nprocs: 8",
            "# run time: 100.00",
            "POSIX\t-1\t1\tPOSIX_READS\t100\t/f\t/scratch\tlustre",
            "POSIX\t-1\t1\tPOSIX_WRITES\t200\t/f\t/scratch\tlustre",
            "POSIX\t-1\t1\tPOSIX_SIZE_READ_0_100\t80\t/f\t/scratch\tlustre",
            "POSIX\t-1\t1\tPOSIX_SIZE_READ_1M_4M\t20\t/f\t/scratch\tlustre",
            "POSIX\t-1\t1\tPOSIX_SEQ_WRITES\t190\t/f\t/scratch\tlustre",
            "POSIX\t-1\t1\tPOSIX_F_META_TIME\t80.0\t/f\t/scratch\tlustre",
            "POSIX\t-1\t1\tPOSIX_BYTES_READ\t1000\t/f\t/scratch\tlustre",
            "LUSTRE\t-1\t1\tLUSTRE_STRIPE_WIDTH\t1\t/f\t/scratch\tlustre",
            "LUSTRE\t-1\t1\tLUSTRE_OSTS\t64\t/f\t/scratch\tlustre",
            "LUSTRE\t-1\t1\tLUSTRE_OST_ID_0\t0\t/f\t/scratch\tlustre",
        ]);
        assert!((ev.get(keys::POSIX_SMALL_READ_FRACTION).unwrap() - 0.8).abs() < 1e-9);
        assert!((ev.get(keys::POSIX_SEQ_WRITE_FRACTION).unwrap() - 0.95).abs() < 1e-9);
        assert!((ev.get(keys::POSIX_META_FRACTION).unwrap() - 0.1).abs() < 1e-9);
        assert_eq!(ev.get(keys::LUSTRE_STRIPE_WIDTH), Some(1.0));
        assert_eq!(ev.get(keys::LUSTRE_OST_COUNT), Some(64.0));
        assert_eq!(ev.get(keys::MPIIO_PRESENT), Some(0.0));
        assert!(ev.flag(keys::POSIX_SHARED_DATA));
    }

    #[test]
    fn truncated_mpiio_rows_mean_module_invisible() {
        // Same trace, but all MPIIO rows were lost to attention: the model
        // cannot know MPI-IO was used.
        let ev = Evidence::from_lines(&[
            "# nprocs: 8",
            "POSIX\t-1\t1\tPOSIX_READS\t100\t/f\t/scratch\tlustre",
        ]);
        assert_eq!(ev.get(keys::MPIIO_PRESENT), Some(0.0));
        let ev2 = Evidence::from_lines(&[
            "# nprocs: 8",
            "POSIX\t-1\t1\tPOSIX_READS\t100\t/f\t/scratch\tlustre",
            "MPIIO\t-1\t1\tMPIIO_INDEP_READS\t100\t/f\t/scratch\tlustre",
        ]);
        assert_eq!(ev2.get(keys::MPIIO_PRESENT), Some(1.0));
        assert_eq!(ev2.get(keys::MPIIO_INDEP_READS), Some(100.0));
    }

    #[test]
    fn reuse_needs_both_rows() {
        let with_range = Evidence::from_lines(&[
            "# nprocs: 1",
            "POSIX\t0\t1\tPOSIX_BYTES_READ\t1000\t/f\t/\text4",
            "POSIX\t0\t1\tPOSIX_MAX_BYTE_READ\t199\t/f\t/\text4",
        ]);
        assert!((with_range.get(keys::POSIX_READ_REUSE).unwrap() - 5.0).abs() < 1e-9);
        let without = Evidence::from_lines(&[
            "# nprocs: 1",
            "POSIX\t0\t1\tPOSIX_BYTES_READ\t1000\t/f\t/\text4",
        ]);
        assert!(without.get(keys::POSIX_READ_REUSE).is_none());
    }

    #[test]
    fn structured_evidence_wins_over_raw() {
        let ev = Evidence::from_lines(&[
            "EVIDENCE posix.reads=42",
            "POSIX\t0\t1\tPOSIX_READS\t100\t/f\t/\text4",
            "# nprocs: 4",
        ]);
        assert_eq!(ev.get(keys::POSIX_READS), Some(42.0));
    }

    #[test]
    fn garbage_lines_ignored() {
        let ev = Evidence::from_lines(&[
            "hello world",
            "EVIDENCE broken",
            "POSIX\tbad\trow",
            "REFERENCE cite=[no claim]",
        ]);
        assert!(ev.values.is_empty());
        assert!(ev.references.is_empty());
    }
}
