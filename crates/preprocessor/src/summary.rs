//! Summary extraction: Table I's module × category matrix.
//!
//! Each supported (module, category) pair has its own extraction function
//! over the module's counters, producing a compact JSON summary fragment.
//! Fragments also carry canonical evidence pairs for the diagnosis engine
//! and the broader application context (runtime, process count, module
//! presence, I/O volume) the paper attaches to every fragment.

use darshan::counters::{Counter, Module, SIZE_BINS};
use darshan::derive::{LustreSummary, ModuleAgg, TraceSummary};
use darshan::DarshanTrace;
use serde_json::{json, Value};

/// Summary categories (columns of paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SummaryCategory {
    /// Access-size distribution and volumes.
    IoSize,
    /// Operation counts.
    RequestCount,
    /// File/metadata operation profile.
    FileMetadata,
    /// Rank attribution and balance.
    Rank,
    /// Alignment with file-system boundaries.
    Alignment,
    /// Sequentiality / access order.
    Order,
    /// Mount points and file-system types.
    Mount,
    /// Lustre stripe settings.
    StripeSetting,
    /// Object-storage-target usage.
    ServerUsage,
}

impl SummaryCategory {
    /// Display name as in Table I.
    pub fn display(&self) -> &'static str {
        match self {
            SummaryCategory::IoSize => "I/O Size",
            SummaryCategory::RequestCount => "I/O Request Count",
            SummaryCategory::FileMetadata => "File Metadata",
            SummaryCategory::Rank => "Rank",
            SummaryCategory::Alignment => "Alignment",
            SummaryCategory::Order => "Order",
            SummaryCategory::Mount => "Mount",
            SummaryCategory::StripeSetting => "Stripe Setting",
            SummaryCategory::ServerUsage => "Server Usage",
        }
    }

    /// All categories in Table I column order.
    pub const ALL: [SummaryCategory; 9] = [
        SummaryCategory::IoSize,
        SummaryCategory::RequestCount,
        SummaryCategory::FileMetadata,
        SummaryCategory::Rank,
        SummaryCategory::Alignment,
        SummaryCategory::Order,
        SummaryCategory::Mount,
        SummaryCategory::StripeSetting,
        SummaryCategory::ServerUsage,
    ];
}

/// Table I: which categories each module supports.
pub fn coverage(module: Module) -> &'static [SummaryCategory] {
    use SummaryCategory::*;
    match module {
        Module::Posix => &[
            IoSize,
            RequestCount,
            FileMetadata,
            Rank,
            Alignment,
            Order,
            Mount,
        ],
        Module::Mpiio => &[IoSize, RequestCount, FileMetadata, Rank, Alignment],
        Module::Stdio => &[IoSize, RequestCount, FileMetadata],
        Module::Lustre => &[Mount, StripeSetting, ServerUsage],
    }
}

/// One categorised JSON summary fragment.
#[derive(Debug, Clone)]
pub struct SummaryFragment {
    /// Source module.
    pub module: Module,
    /// Summary category.
    pub category: SummaryCategory,
    /// Display title, e.g. `POSIX I/O Size`.
    pub title: String,
    /// The JSON summary produced by the extraction function.
    pub json: Value,
    /// Canonical evidence pairs for the diagnosis engine.
    pub evidence: Vec<(String, f64)>,
}

impl SummaryFragment {
    /// Stable key, e.g. `posix_io_size`.
    pub fn key(&self) -> String {
        format!(
            "{}_{}",
            self.module.as_str().to_lowercase(),
            self.category
                .display()
                .to_lowercase()
                .replace(['/', ' '], "_")
                .replace("__", "_")
        )
    }

    /// Evidence rendered as `EVIDENCE k=v` prompt lines.
    pub fn evidence_lines(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.evidence {
            out.push_str(&format!("EVIDENCE {k}={v}\n"));
        }
        out
    }

    /// Compact JSON text of the summary.
    pub fn json_text(&self) -> String {
        serde_json::to_string_pretty(&self.json).unwrap_or_default()
    }
}

fn hist_json(hist: &[i64; 10], total: i64) -> Value {
    let mut map = serde_json::Map::new();
    if total > 0 {
        for (i, &c) in hist.iter().enumerate() {
            if c > 0 {
                map.insert(
                    SIZE_BINS[i].to_string(),
                    json!((c as f64 / total as f64 * 100.0).round() / 100.0),
                );
            }
        }
    }
    Value::Object(map)
}

/// Per-record derived facts the aggregates cannot provide.
struct RecordDerived {
    read_reuse: f64,
    rank_cv: f64,
    shared_data: bool,
}

fn record_derived(trace: &DarshanTrace) -> RecordDerived {
    let mut read_reuse: f64 = 0.0;
    let mut by_rank: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
    let mut shared_data = false;
    for r in &trace.records {
        // Sums saturate: a crafted trace must not overflow them.
        let bytes = match r.module {
            Module::Posix => r
                .int(Counter::POSIX_BYTES_READ)
                .saturating_add(r.int(Counter::POSIX_BYTES_WRITTEN)),
            Module::Mpiio => r
                .int(Counter::MPIIO_BYTES_READ)
                .saturating_add(r.int(Counter::MPIIO_BYTES_WRITTEN)),
            _ => continue,
        };
        if r.is_shared() && bytes > 0 {
            shared_data = true;
        }
        if r.module == Module::Posix {
            if r.rank >= 0 {
                let total = by_rank.entry(r.rank).or_insert(0);
                *total = total.saturating_add(bytes);
            }
            let br = r.int(Counter::POSIX_BYTES_READ);
            let range = r.int(Counter::POSIX_MAX_BYTE_READ).saturating_add(1);
            if br > 0 && range > 0 {
                read_reuse = read_reuse.max(br as f64 / range as f64);
            }
        }
    }
    let rank_cv = if by_rank.len() >= 2 {
        let vals: Vec<f64> = by_rank.values().map(|&v| v as f64).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        if mean > 0.0 {
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
            var.sqrt() / mean
        } else {
            0.0
        }
    } else {
        0.0
    };
    RecordDerived {
        read_reuse,
        rank_cv,
        shared_data,
    }
}

/// Extract every supported fragment from a trace.
pub fn extract_fragments(trace: &DarshanTrace) -> Vec<SummaryFragment> {
    let summary = TraceSummary::of(trace);
    let derived = record_derived(trace);

    // Broader application context attached to every fragment.
    let context: Vec<(String, f64)> = vec![
        ("nprocs".into(), summary.nprocs as f64),
        ("runtime".into(), summary.run_time),
        ("posix.present".into(), summary.posix.is_some() as u8 as f64),
        ("mpiio.present".into(), summary.mpiio.is_some() as u8 as f64),
        ("stdio.present".into(), summary.stdio.is_some() as u8 as f64),
        (
            "lustre.present".into(),
            summary.lustre.is_some() as u8 as f64,
        ),
        ("total_bytes".into(), summary.total_bytes() as f64),
    ];

    let mut fragments = Vec::new();
    for module in Module::ALL {
        if !trace.module_present(module) {
            continue;
        }
        for &category in coverage(module) {
            let fragment = match module {
                Module::Posix => {
                    posix_fragment(trace, &summary, summary.posix.as_ref(), &derived, category)
                }
                Module::Mpiio => mpiio_fragment(summary.mpiio.as_ref(), &derived, category),
                Module::Stdio => stdio_fragment(&summary, summary.stdio.as_ref(), category),
                Module::Lustre => lustre_fragment(trace, summary.lustre.as_ref(), category),
            };
            if let Some((json, mut evidence)) = fragment {
                evidence.extend(context.iter().cloned());
                fragments.push(SummaryFragment {
                    module,
                    category,
                    title: format!("{} {}", module.as_str(), category.display()),
                    json,
                    evidence,
                });
            }
        }
    }
    fragments
}

type Extraction = Option<(Value, Vec<(String, f64)>)>;

fn posix_fragment(
    trace: &DarshanTrace,
    summary: &TraceSummary,
    agg: Option<&ModuleAgg>,
    derived: &RecordDerived,
    category: SummaryCategory,
) -> Extraction {
    let a = agg?;
    match category {
        SummaryCategory::IoSize => Some((
            json!({
                "read_histogram": hist_json(&a.read_hist, a.reads),
                "write_histogram": hist_json(&a.write_hist, a.writes),
                "bytes_read": a.bytes_read,
                "bytes_written": a.bytes_written,
                "typical_read_size": a.max_read_time_size,
                "typical_write_size": a.max_write_time_size,
            }),
            vec![
                ("posix.reads".into(), a.reads as f64),
                ("posix.writes".into(), a.writes as f64),
                ("posix.small_read_fraction".into(), a.small_read_fraction()),
                (
                    "posix.small_write_fraction".into(),
                    a.small_write_fraction(),
                ),
                ("posix.bytes_read".into(), a.bytes_read as f64),
                ("posix.bytes_written".into(), a.bytes_written as f64),
            ],
        )),
        SummaryCategory::RequestCount => Some((
            json!({
                "reads": a.reads,
                "writes": a.writes,
                "opens": a.opens,
                "seeks": a.seeks,
                "stats": a.stats,
                "rw_switches": a.rw_switches,
                "read_reuse_factor": derived.read_reuse,
            }),
            vec![
                ("posix.reads".into(), a.reads as f64),
                ("posix.writes".into(), a.writes as f64),
                ("posix.opens".into(), a.opens as f64),
                ("posix.stats".into(), a.stats as f64),
                ("posix.read_reuse_factor".into(), derived.read_reuse),
            ],
        )),
        SummaryCategory::FileMetadata => Some((
            json!({
                "files": a.files,
                "opens": a.opens,
                "stats": a.stats,
                "syncs": a.syncs,
                "meta_time_seconds": (a.meta_time * 100.0).round() / 100.0,
                "meta_time_fraction":
                    (a.meta_time_fraction(summary.run_time, summary.nprocs) * 1000.0).round()
                        / 1000.0,
            }),
            vec![
                (
                    "posix.meta_fraction".into(),
                    a.meta_time_fraction(summary.run_time, summary.nprocs),
                ),
                ("posix.opens".into(), a.opens as f64),
                ("posix.stats".into(), a.stats as f64),
            ],
        )),
        SummaryCategory::Rank => Some((
            json!({
                "shared_files": a.shared_files,
                "fastest_rank_bytes": a.fastest_rank_bytes,
                "slowest_rank_bytes": a.slowest_rank_bytes,
                "variance_rank_bytes": a.variance_rank_bytes,
                "per_rank_byte_cv": (derived.rank_cv * 1000.0).round() / 1000.0,
            }),
            vec![
                ("posix.shared_data".into(), derived.shared_data as u8 as f64),
                ("posix.rank_cv".into(), derived.rank_cv),
                ("posix.rank_ratio".into(), a.rank_byte_imbalance()),
            ],
        )),
        SummaryCategory::Alignment => Some((
            json!({
                "file_not_aligned": a.file_not_aligned,
                "mem_not_aligned": a.mem_not_aligned,
                "file_alignment": a.file_alignment,
                "misaligned_fraction": (a.misaligned_fraction() * 1000.0).round() / 1000.0,
                "typical_read_size": a.max_read_time_size,
                "typical_write_size": a.max_write_time_size,
            }),
            {
                let align = if a.file_alignment > 0 {
                    a.file_alignment
                } else {
                    1
                };
                vec![
                    ("posix.misaligned_fraction".into(), a.misaligned_fraction()),
                    (
                        "posix.read_align_mismatch".into(),
                        (a.max_read_time_size > 0 && a.max_read_time_size % align != 0) as u8
                            as f64,
                    ),
                    (
                        "posix.write_align_mismatch".into(),
                        (a.max_write_time_size > 0 && a.max_write_time_size % align != 0) as u8
                            as f64,
                    ),
                    ("posix.reads".into(), a.reads as f64),
                    ("posix.writes".into(), a.writes as f64),
                ]
            },
        )),
        SummaryCategory::Order => Some((
            json!({
                "seq_reads": a.seq_reads,
                "seq_writes": a.seq_writes,
                "consec_reads": a.consec_reads,
                "consec_writes": a.consec_writes,
                "seq_read_fraction": (a.seq_read_fraction() * 1000.0).round() / 1000.0,
                "seq_write_fraction": (a.seq_write_fraction() * 1000.0).round() / 1000.0,
            }),
            vec![
                ("posix.seq_read_fraction".into(), a.seq_read_fraction()),
                ("posix.seq_write_fraction".into(), a.seq_write_fraction()),
                ("posix.reads".into(), a.reads as f64),
                ("posix.writes".into(), a.writes as f64),
            ],
        )),
        SummaryCategory::Mount => Some((
            json!({
                "mounts": trace
                    .header
                    .mounts
                    .iter()
                    .map(|m| json!({"point": m.point, "fs": m.fs}))
                    .collect::<Vec<_>>(),
                "files": a.files,
            }),
            vec![],
        )),
        _ => None,
    }
}

fn mpiio_fragment(
    agg: Option<&ModuleAgg>,
    derived: &RecordDerived,
    category: SummaryCategory,
) -> Extraction {
    let a = agg?;
    match category {
        SummaryCategory::IoSize => Some((
            json!({
                "read_histogram": hist_json(&a.read_hist, a.reads),
                "write_histogram": hist_json(&a.write_hist, a.writes),
                "bytes_read": a.bytes_read,
                "bytes_written": a.bytes_written,
            }),
            vec![],
        )),
        SummaryCategory::RequestCount => Some((
            json!({
                "independent_reads": a.indep_reads,
                "collective_reads": a.coll_reads,
                "independent_writes": a.indep_writes,
                "collective_writes": a.coll_writes,
                "collective_read_fraction": (a.collective_read_fraction() * 1000.0).round() / 1000.0,
                "collective_write_fraction":
                    (a.collective_write_fraction() * 1000.0).round() / 1000.0,
            }),
            vec![
                ("mpiio.indep_reads".into(), a.indep_reads as f64),
                ("mpiio.coll_reads".into(), a.coll_reads as f64),
                ("mpiio.indep_writes".into(), a.indep_writes as f64),
                ("mpiio.coll_writes".into(), a.coll_writes as f64),
            ],
        )),
        SummaryCategory::FileMetadata => Some((
            json!({
                "files": a.files,
                "independent_opens": a.indep_opens,
                "collective_opens": a.coll_opens,
                "syncs": a.syncs,
                "meta_time_seconds": (a.meta_time * 100.0).round() / 100.0,
            }),
            vec![],
        )),
        SummaryCategory::Rank => Some((
            json!({
                "shared_files": a.shared_files,
                "fastest_rank_bytes": a.fastest_rank_bytes,
                "slowest_rank_bytes": a.slowest_rank_bytes,
            }),
            vec![("posix.shared_data".into(), derived.shared_data as u8 as f64)],
        )),
        SummaryCategory::Alignment => Some((
            json!({
                "typical_read_size": a.max_read_time_size,
                "typical_write_size": a.max_write_time_size,
            }),
            vec![],
        )),
        _ => None,
    }
}

fn stdio_fragment(
    summary: &TraceSummary,
    agg: Option<&ModuleAgg>,
    category: SummaryCategory,
) -> Extraction {
    let a = agg?;
    match category {
        SummaryCategory::IoSize => Some((
            json!({
                "bytes_read": a.bytes_read,
                "bytes_written": a.bytes_written,
                "stdio_read_byte_share": (summary.stdio_read_fraction() * 1000.0).round() / 1000.0,
                "stdio_write_byte_share":
                    (summary.stdio_write_fraction() * 1000.0).round() / 1000.0,
            }),
            vec![
                ("stdio.bytes_read".into(), a.bytes_read as f64),
                ("stdio.bytes_written".into(), a.bytes_written as f64),
                ("stdio.read_fraction".into(), summary.stdio_read_fraction()),
                (
                    "stdio.write_fraction".into(),
                    summary.stdio_write_fraction(),
                ),
            ],
        )),
        SummaryCategory::RequestCount => Some((
            json!({
                "reads": a.reads,
                "writes": a.writes,
                "seeks": a.seeks,
            }),
            vec![],
        )),
        SummaryCategory::FileMetadata => Some((
            json!({
                "files": a.files,
                "opens": a.opens,
                "meta_time_seconds": (a.meta_time * 100.0).round() / 100.0,
            }),
            vec![],
        )),
        _ => None,
    }
}

fn lustre_fragment(
    trace: &DarshanTrace,
    summary: Option<&LustreSummary>,
    category: SummaryCategory,
) -> Extraction {
    let l = summary?;
    match category {
        SummaryCategory::Mount => Some((
            json!({
                "mounts": trace
                    .header
                    .mounts
                    .iter()
                    .map(|m| json!({"point": m.point, "fs": m.fs}))
                    .collect::<Vec<_>>(),
                "lustre_files": l.files,
                "mdt_count": l.total_mdts,
            }),
            vec![],
        )),
        SummaryCategory::StripeSetting => Some((
            json!({
                "mean_stripe_width": l.mean_stripe_width(),
                "stripe_sizes": l.stripe_sizes.first().copied().unwrap_or(0),
                "files": l.files,
            }),
            vec![
                ("lustre.stripe_width_mean".into(), l.mean_stripe_width()),
                (
                    "lustre.stripe_size".into(),
                    l.stripe_sizes.first().copied().unwrap_or(0) as f64,
                ),
                ("lustre.osts_used".into(), l.distinct_osts_used as f64),
                ("lustre.ost_count".into(), l.total_osts as f64),
            ],
        )),
        SummaryCategory::ServerUsage => Some((
            json!({
                "total_osts": l.total_osts,
                "distinct_osts_used": l.distinct_osts_used,
                "ost_utilisation": (l.ost_utilisation() * 1000.0).round() / 1000.0,
                "ost_usage_cv": (l.ost_usage_cv() * 1000.0).round() / 1000.0,
            }),
            vec![
                ("lustre.ost_count".into(), l.total_osts as f64),
                ("lustre.osts_used".into(), l.distinct_osts_used as f64),
                ("lustre.stripe_width_mean".into(), l.mean_stripe_width()),
            ],
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracebench::TraceBench;

    #[test]
    fn coverage_matches_table1() {
        assert_eq!(coverage(Module::Posix).len(), 7);
        assert_eq!(coverage(Module::Mpiio).len(), 5);
        assert_eq!(coverage(Module::Stdio).len(), 3);
        assert_eq!(coverage(Module::Lustre).len(), 3);
    }

    #[test]
    fn fragments_extracted_for_full_stack_trace() {
        let suite = TraceBench::generate();
        let amrex = suite.get("ra_amrex").unwrap();
        let frags = extract_fragments(&amrex.trace);
        // POSIX(7) + MPIIO(5) + STDIO(3) + LUSTRE(3) = 18 for a full trace.
        assert_eq!(frags.len(), 18);
        assert!(frags
            .iter()
            .any(|f| f.key() == "posix_i_o_size" || f.key() == "posix_io_size"));
    }

    #[test]
    fn posix_only_trace_has_no_mpiio_fragments() {
        let suite = TraceBench::generate();
        let t = suite.get("io500_easy_posix_small_1").unwrap();
        let frags = extract_fragments(&t.trace);
        assert!(frags.iter().all(|f| f.module != Module::Mpiio));
    }

    #[test]
    fn every_fragment_carries_context_evidence() {
        let suite = TraceBench::generate();
        let t = suite.get("sb01_small_io").unwrap();
        for f in extract_fragments(&t.trace) {
            let keys: Vec<&str> = f.evidence.iter().map(|(k, _)| k.as_str()).collect();
            assert!(keys.contains(&"nprocs"), "{} missing context", f.title);
            assert!(
                keys.contains(&"mpiio.present"),
                "{} missing context",
                f.title
            );
        }
    }

    #[test]
    fn small_io_visible_in_io_size_fragment() {
        let suite = TraceBench::generate();
        let t = suite.get("sb01_small_io").unwrap();
        let frags = extract_fragments(&t.trace);
        let io_size = frags
            .iter()
            .find(|f| f.module == Module::Posix && f.category == SummaryCategory::IoSize)
            .unwrap();
        let small = io_size
            .evidence
            .iter()
            .find(|(k, _)| k == "posix.small_write_fraction")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(small > 0.9);
        assert!(io_size.json_text().contains("write_histogram"));
    }

    #[test]
    fn stripe_fragment_reflects_hotspot() {
        let suite = TraceBench::generate();
        let t = suite.get("sb10_server_hotspot").unwrap();
        let frags = extract_fragments(&t.trace);
        let stripe = frags
            .iter()
            .find(|f| f.category == SummaryCategory::StripeSetting)
            .unwrap();
        let width = stripe
            .evidence
            .iter()
            .find(|(k, _)| k == "lustre.stripe_width_mean")
            .map(|(_, v)| *v)
            .unwrap();
        assert_eq!(width, 1.0);
    }

    #[test]
    fn evidence_lines_render() {
        let suite = TraceBench::generate();
        let t = suite.get("sb01_small_io").unwrap();
        let frags = extract_fragments(&t.trace);
        let lines = frags[0].evidence_lines();
        assert!(lines.contains("EVIDENCE "));
        assert!(lines.contains("nprocs=4"));
    }

    #[test]
    fn fragment_counts_modest_for_every_trace() {
        // Fragments must stay small and bounded: that is the whole point.
        let suite = TraceBench::generate();
        for e in &suite.entries {
            let frags = extract_fragments(&e.trace);
            assert!(
                frags.len() >= 3 && frags.len() <= 18,
                "{}: {}",
                e.spec.id,
                frags.len()
            );
            for f in &frags {
                assert!(
                    f.json_text().split_whitespace().count() < 400,
                    "{} fragment too large",
                    f.title
                );
            }
        }
    }
}
