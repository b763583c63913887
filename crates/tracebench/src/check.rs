//! Reference issue detector.
//!
//! This is the "oracle" detector used to validate that the generators plant
//! exactly the labelled issues: for every TraceBench trace,
//! `reference_detect(&trace)` must equal the spec's label set. The diagnosis
//! tools under evaluation (Drishti, ION, IOAgent) each implement their *own*
//! detection logic with their own blind spots; this module is only the
//! ground-truth check and the rule base from which those tools borrow
//! individual rules.

use crate::labels::IssueLabel;
use crate::thresholds as th;
use darshan::counters::Module;
use darshan::derive::{aggregate, lustre_summary, TraceSummary};
use darshan::DarshanTrace;
use std::collections::{BTreeMap, BTreeSet};

/// Detect the full issue-label set exhibited by a trace.
pub fn reference_detect(trace: &DarshanTrace) -> BTreeSet<IssueLabel> {
    let mut out = BTreeSet::new();
    let summary = TraceSummary::of(trace);
    let nprocs = trace.header.nprocs;

    // --- High metadata load -----------------------------------------------
    if let Some(posix) = &summary.posix {
        if posix.meta_time_fraction(summary.run_time, nprocs) > th::META_TIME_FRACTION {
            out.insert(IssueLabel::HighMetadataLoad);
        }
    }

    // --- Small / misaligned / random (per direction, POSIX) ----------------
    if let Some(posix) = &summary.posix {
        let align = if posix.file_alignment > 0 {
            posix.file_alignment
        } else {
            th::BLOCK_ALIGNMENT
        };
        if posix.reads >= th::MIN_DIR_OPS {
            if posix.small_read_fraction() > th::SMALL_FRACTION {
                out.insert(IssueLabel::SmallRead);
            }
            if posix.seq_read_fraction() < th::SEQ_FRACTION_RANDOM {
                out.insert(IssueLabel::RandomRead);
            }
            if posix.misaligned_fraction() > th::MISALIGNED_FRACTION
                && posix.max_read_time_size > 0
                && posix.max_read_time_size % align != 0
            {
                out.insert(IssueLabel::MisalignedRead);
            }
        }
        if posix.writes >= th::MIN_DIR_OPS {
            if posix.small_write_fraction() > th::SMALL_FRACTION {
                out.insert(IssueLabel::SmallWrite);
            }
            if posix.seq_write_fraction() < th::SEQ_FRACTION_RANDOM {
                out.insert(IssueLabel::RandomWrite);
            }
            if posix.misaligned_fraction() > th::MISALIGNED_FRACTION
                && posix.max_write_time_size > 0
                && posix.max_write_time_size % align != 0
            {
                out.insert(IssueLabel::MisalignedWrite);
            }
        }
    }

    // --- Shared file access -------------------------------------------------
    if nprocs > 1 {
        let shared_with_data = trace
            .records
            .iter()
            .filter(|r| r.is_shared() && matches!(r.module, Module::Posix | Module::Mpiio))
            .any(|r| {
                let p = r.module.prefix();
                r.ic(&format!("{p}_BYTES_READ"))
                    .saturating_add(r.ic(&format!("{p}_BYTES_WRITTEN")))
                    > 0
            });
        if shared_with_data {
            out.insert(IssueLabel::SharedFileAccess);
        }
    }

    // --- Repetitive reads (per-record reuse) --------------------------------
    let repetitive = trace.records_for(Module::Posix).any(|r| {
        let bytes = r.ic("POSIX_BYTES_READ");
        let range = r.ic("POSIX_MAX_BYTE_READ").saturating_add(1);
        bytes > 0 && range > 0 && bytes as f64 / range as f64 > th::READ_REUSE_FACTOR
    });
    if repetitive {
        out.insert(IssueLabel::RepetitiveRead);
    }

    // --- Server load imbalance ----------------------------------------------
    if let Some(lustre) = lustre_summary(trace) {
        if summary.total_bytes() >= th::SERVER_MIN_BYTES
            && lustre.mean_stripe_width() <= th::STRIPE_WIDTH_LOW
        {
            out.insert(IssueLabel::ServerLoadImbalance);
        }
    }

    // --- Rank load imbalance -------------------------------------------------
    if nprocs > 1 {
        // Per-rank byte totals from rank-attributed POSIX records.
        let mut by_rank: BTreeMap<i64, i64> = BTreeMap::new();
        for r in trace.records_for(Module::Posix) {
            if r.rank >= 0 {
                let total = by_rank.entry(r.rank).or_insert(0);
                *total = total
                    .saturating_add(r.ic("POSIX_BYTES_READ"))
                    .saturating_add(r.ic("POSIX_BYTES_WRITTEN"));
            }
        }
        let total = by_rank.values().fold(0i64, |acc, v| acc.saturating_add(*v));
        if by_rank.len() >= 2 && total > 0 {
            let vals: Vec<f64> = by_rank.values().map(|&v| v as f64).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
            if mean > 0.0 && var.sqrt() / mean > th::RANK_CV {
                out.insert(IssueLabel::RankLoadImbalance);
            }
        }
        // Shared-record fastest/slowest ratio.
        if let Some(posix) = &summary.posix {
            if posix.slowest_rank_bytes > 0 && posix.rank_byte_imbalance() > th::RANK_RATIO {
                out.insert(IssueLabel::RankLoadImbalance);
            }
        }
    }

    // --- Multi-process without MPI ------------------------------------------
    if summary.multi_process_without_mpi() {
        let posix_active = summary
            .posix
            .as_ref()
            .map(|p| p.total_ops() + p.opens > 0)
            .unwrap_or(false);
        if posix_active {
            out.insert(IssueLabel::MultiProcessWithoutMpi);
        }
    }

    // --- No collective I/O (per direction, MPI-IO) ---------------------------
    if let Some(mpiio) = &summary.mpiio {
        if mpiio.indep_reads + mpiio.coll_reads >= th::MIN_MPIIO_OPS
            && mpiio.collective_read_fraction() < th::COLLECTIVE_FRACTION
        {
            out.insert(IssueLabel::NoCollectiveRead);
        }
        if mpiio.indep_writes + mpiio.coll_writes >= th::MIN_MPIIO_OPS
            && mpiio.collective_write_fraction() < th::COLLECTIVE_FRACTION
        {
            out.insert(IssueLabel::NoCollectiveWrite);
        }
    }

    // --- Low-level library ----------------------------------------------------
    if let Some(stdio) = &summary.stdio {
        if stdio.bytes_read >= th::STDIO_MIN_BYTES
            && summary.stdio_read_fraction() > th::STDIO_FRACTION
        {
            out.insert(IssueLabel::LowLevelLibraryRead);
        }
        if stdio.bytes_written >= th::STDIO_MIN_BYTES
            && summary.stdio_write_fraction() > th::STDIO_FRACTION
        {
            out.insert(IssueLabel::LowLevelLibraryWrite);
        }
    }

    // Suppress direction rules when the direction lives entirely in MPI-IO
    // collective buffering... (not needed: generators keep POSIX mirrors).
    let _ = aggregate(trace, Module::Stdio);

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::synthesize;
    use crate::spec::all_specs;

    /// The linchpin of TraceBench: every generated trace must exhibit
    /// exactly its planted label set, no more, no fewer.
    #[test]
    fn every_trace_round_trips_its_labels() {
        for spec in all_specs() {
            let trace = synthesize(&spec);
            let detected = reference_detect(&trace);
            let expected: BTreeSet<IssueLabel> = spec.labels.iter().copied().collect();
            assert_eq!(
                detected, expected,
                "{}: detected {:?} expected {:?}",
                spec.id, detected, expected
            );
        }
    }

    #[test]
    fn detection_survives_text_round_trip() {
        for spec in all_specs().into_iter().take(8) {
            let trace = synthesize(&spec);
            let text = darshan::write::write_text(&trace);
            let back = darshan::parse::parse_text(&text).unwrap();
            assert_eq!(
                reference_detect(&back),
                reference_detect(&trace),
                "{}",
                spec.id
            );
        }
    }

    #[test]
    fn empty_trace_detects_nothing() {
        let t = DarshanTrace::new(darshan::JobHeader::default());
        assert!(reference_detect(&t).is_empty());
    }
}
