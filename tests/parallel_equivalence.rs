//! Parallel-vs-sequential equivalence: every `par_iter` hot loop in the
//! workspace must produce **byte-identical** results whether the rayon
//! shim runs it on one thread or many — the intra-trace analogue of
//! `tests/service.rs`'s worker-count determinism guarantee.
//!
//! Each test runs the same seeded-simllm computation under a forced
//! 1-thread pool and a 4-thread pool and compares outputs exactly (f32/f64
//! scores by bit pattern, report text by bytes). The five audited call
//! sites are:
//!
//! 1. `vecindex::VectorIndex::search` — parallel chunk scan;
//! 2. `vecindex::VectorIndex::search_batch` — parallel queries;
//! 3. `ioagent_core::rag::Retriever::retrieve_k` — parallel reflection
//!    (one `complete_all` batch, its content generated across the pool);
//! 4. `ioagent_core::IoAgent::diagnose` — parallel per-fragment retrieval
//!    and the `complete_all` waves of transforms, diagnoses and tree-merge
//!    levels (covers `agent.rs`, `merge.rs` and `simllm`'s batch path);
//! 5. `judge::Judge::evaluate` — parallel per-trace ranking.

use ioagent_core::merge::{merge_blocks, MergeStrategy, SummaryBlock};
use ioagent_core::rag::Retriever;
use ioagent_core::IoAgent;
use ioembed::Embedder;
use judge::{Criterion, Judge, ToolRun};
use simllm::{Diagnosis, SimLlm};
use std::sync::Arc;
use tracebench::TraceBench;
use vecindex::VectorIndex;

/// Run `f` under a pool of exactly `width` threads.
fn at_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .unwrap()
        .install(f)
}

/// Compare a width-1 and a width-4 run of the same computation.
fn narrow_vs_wide<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> (R, R) {
    let narrow = at_width(1, &f);
    let wide = at_width(4, &f);
    (narrow, wide)
}

fn small_index() -> VectorIndex {
    let mut ix = VectorIndex::new(Embedder::default(), 64, 8);
    ix.add_document(
        "doc-stripe",
        "[Striping for Parallel I/O, SC 2021]",
        "Lustre stripe count determines how many object storage targets serve a file. \
         A stripe count of one serialises all accesses onto a single OST, limiting \
         bandwidth and parallelism. Increasing the stripe count spreads server load.",
    );
    ix.add_document(
        "doc-collective",
        "[Collective I/O Revisited, IPDPS 2022]",
        "Collective MPI-IO operations aggregate many small independent requests into \
         large contiguous transfers, dramatically improving shared-file write bandwidth.",
    );
    ix.add_document(
        "doc-metadata",
        "[Metadata Scalability, FAST 2023]",
        "Excessive open, stat and close operations overload the metadata server. \
         Batching metadata operations or caching attributes reduces latency.",
    );
    ix
}

/// Bit-exact fingerprint of a hit list (score bits + entry index).
fn hit_bits(hits: &[vecindex::SearchHit]) -> Vec<(u32, usize)> {
    hits.iter()
        .map(|h| (h.score.to_bits(), h.entry_idx))
        .collect()
}

#[test]
fn vecindex_search_is_thread_count_invariant() {
    let ix = small_index();
    let (narrow, wide) = narrow_vs_wide(|| {
        hit_bits(&ix.search("stripe count of 1 limits parallelism on a single OST", 4))
    });
    assert_eq!(narrow, wide);
    assert!(!narrow.is_empty());
}

#[test]
fn vecindex_batch_search_is_thread_count_invariant() {
    let ix = small_index();
    let queries: Vec<String> = [
        "collective aggregation of small writes",
        "stat storm on the metadata server",
        "single OST stripe width",
        "contiguous transfers",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let (narrow, wide) = narrow_vs_wide(|| {
        ix.search_batch(&queries, 3)
            .iter()
            .map(|hits| hit_bits(hits))
            .collect::<Vec<_>>()
    });
    assert_eq!(narrow, wide);
    assert_eq!(narrow.len(), queries.len());
}

#[test]
fn retriever_reflection_is_thread_count_invariant() {
    let retriever = Retriever::build();
    let query = "100% of the write operations fall within the 0 B to 100 B range; \
                 the application issues many frequent small write requests";
    let (narrow, wide) = narrow_vs_wide(|| {
        // Fresh reflection model per run: usage is accounted per instance.
        let mini = SimLlm::new("gpt-4o-mini");
        let sources = retriever.retrieve_k(query, &mini, 15);
        let fingerprint: Vec<(String, String, Vec<&'static str>, u32)> = sources
            .into_iter()
            .map(|s| (s.doc_id, s.citation, s.claims, s.score.to_bits()))
            .collect();
        let usage = mini.usage();
        // Reflection call/token counts are integer sums, so they too must
        // be order- and thread-invariant.
        (
            fingerprint,
            usage.calls,
            usage.input_tokens,
            usage.output_tokens,
        )
    });
    assert_eq!(narrow, wide);
    assert!(!narrow.0.is_empty());
}

#[test]
fn agent_diagnosis_is_thread_count_invariant_across_traces() {
    let suite = TraceBench::generate();
    let retriever = Arc::new(Retriever::build());
    // Heterogeneous traces: multi-module fragments, server hotspot, and a
    // real-application profile, so fragment counts (and thus chunking
    // patterns) differ per trace.
    for id in ["sb01_small_io", "sb10_server_hotspot", "ra_vpic_io"] {
        let entry = suite.get(id).unwrap();
        let (narrow, wide) = narrow_vs_wide(|| {
            let model = SimLlm::new("gpt-4o");
            let agent = IoAgent::with_shared_retriever(
                &model,
                ioagent_core::AgentConfig::default(),
                Arc::clone(&retriever),
            );
            let d = agent.diagnose(&entry.trace);
            let backbone = model.usage();
            let reflection = agent.reflection_usage();
            (
                d.text,
                d.issues,
                d.references,
                backbone.calls + reflection.calls,
                backbone.input_tokens + reflection.input_tokens,
                backbone.output_tokens + reflection.output_tokens,
                // Cost is derived from integer token totals, so even this
                // f64 must be bit-identical across thread counts.
                (backbone.cost_usd + reflection.cost_usd).to_bits(),
            )
        });
        assert_eq!(narrow, wide, "{id} diverged across thread counts");
    }
}

#[test]
fn tree_merge_is_thread_count_invariant() {
    let blocks: Vec<SummaryBlock> = (0..13)
        .map(|i| {
            SummaryBlock::new(
                format!("S{i}"),
                vec![format!(
                    "- POINT[k{i}] finding about k{i} ;; REFS: [Ref {i}, V 2021]"
                )],
            )
        })
        .collect();
    let (narrow, wide) = narrow_vs_wide(|| {
        let model = SimLlm::new("gpt-4o");
        merge_blocks(&model, blocks.clone(), MergeStrategy::Tree)
    });
    assert_eq!(narrow, wide);
    assert!(!narrow.points.is_empty());
}

#[test]
fn judge_evaluation_is_thread_count_invariant() {
    let mut suite = TraceBench::generate();
    suite.entries.truncate(5);
    let fake = |tool: &str, labels: &[tracebench::IssueLabel]| {
        let mut text = format!("{tool} report\n");
        for l in labels {
            text.push_str(&format!(
                "Issue: {}\n  details with 42 numbers\n  Recommendation: fix it\n",
                l.display_name()
            ));
        }
        Diagnosis::from_text(tool, text)
    };
    let runs: Vec<ToolRun> = vec![
        ToolRun {
            tool: "good".into(),
            diagnoses: suite
                .entries
                .iter()
                .map(|e| fake("good", e.spec.labels))
                .collect(),
        },
        ToolRun {
            tool: "partial".into(),
            diagnoses: suite
                .entries
                .iter()
                .map(|e| fake("partial", &e.spec.labels[..1.min(e.spec.labels.len())]))
                .collect(),
        },
    ];
    let (narrow, wide) = narrow_vs_wide(|| {
        let model = SimLlm::new("gpt-4o");
        let judge = Judge::new(&model);
        let eval = judge.evaluate(&suite, &runs);
        let mut scores = Vec::new();
        for tool_idx in 0..2 {
            for criterion in Criterion::ALL {
                scores.push(eval.normalized(tool_idx, criterion, None).to_bits());
            }
        }
        scores
    });
    assert_eq!(narrow, wide);
}

#[test]
fn service_intra_threads_do_not_change_output() {
    use ioagentd::{DiagnosisService, JobRequest, ServiceConfig};
    let suite = TraceBench::generate();
    let jobs: Vec<JobRequest> = ["sb01_small_io", "sb10_server_hotspot", "ra_vpic_io"]
        .iter()
        .map(|id| {
            let entry = suite.get(id).unwrap();
            JobRequest::new(*id, entry.trace.clone(), "gpt-4o")
        })
        .collect();
    let sequential = DiagnosisService::start(
        ServiceConfig::with_workers(2)
            .intra_threads(1)
            .cache_capacity(0),
    );
    let parallel = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(2)
            .intra_threads(4)
            .cache_capacity(0),
        sequential.retriever(),
    );
    let a = sequential.run_batch(jobs.clone()).unwrap();
    let b = parallel.run_batch(jobs).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.diagnosis.text, y.diagnosis.text, "{} diverged", x.id);
        assert_eq!(x.metrics.llm_calls, y.metrics.llm_calls);
        assert_eq!(
            x.metrics.cost_usd.to_bits(),
            y.metrics.cost_usd.to_bits(),
            "{} per-job cost accounting diverged across intra widths",
            x.id
        );
    }
    sequential.shutdown();
    parallel.shutdown();
}
