//! Intra-trace parallelism benchmark: wall-clock for the hot loops *inside*
//! one diagnosis job at a 1-thread vs a 4-thread rayon-shim pool.
//!
//! Two arms:
//!
//! - **fragment diagnosis**: the full `IoAgent::diagnose` pipeline over the
//!   suite's most fragment-rich trace, with the backbone model charging a
//!   simulated 10 ms remote round trip per completion (the regime a
//!   deployed agent runs in — see `SimLlm::with_latency`). The width-1 arm
//!   already overlaps the 10 ms calls: each stage's calls (every
//!   fragment's transform, every diagnosis, every merge of a tree level)
//!   are one `complete_all` wave on the calling thread. Extra shim threads
//!   only split the CPU work between waves, so the speedup this arm prints
//!   is close to 1× on any machine.
//! - **batch search**: `VectorIndex::search_batch` over the knowledge-size
//!   index — pure local compute, so its scaling reflects physical cores
//!   (reported for reference; on a 1-core host both widths are equivalent
//!   by construction).
//!
//! Diagnoses are asserted byte-identical across widths before timing — the
//! speedup is only meaningful if the outputs agree. A `speedup` summary is
//! printed after the samples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ioagent_core::rag::Retriever;
use ioagent_core::{AgentConfig, IoAgent};
use simllm::SimLlm;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracebench::TraceBench;

/// Simulated per-completion remote-LLM round trip for the diagnosis arm.
const CALL_LATENCY: Duration = Duration::from_millis(10);
const WIDTHS: [usize; 2] = [1, 4];

fn pool(width: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("build shim pool")
}

fn bench_intra_trace(c: &mut Criterion) {
    let suite = TraceBench::generate();
    let entry = suite
        .entries
        .iter()
        .max_by_key(|e| preprocessor::extract_fragments(&e.trace).len())
        .expect("non-empty suite");
    let n_fragments = preprocessor::extract_fragments(&entry.trace).len();
    let retriever = Arc::new(Retriever::build());

    let diagnose = |width: usize| {
        pool(width).install(|| {
            let model = SimLlm::new("gpt-4o").with_latency(CALL_LATENCY);
            let agent = IoAgent::with_shared_retriever(
                &model,
                AgentConfig::default(),
                Arc::clone(&retriever),
            );
            agent.diagnose(&entry.trace).text
        })
    };
    assert_eq!(
        diagnose(1),
        diagnose(4),
        "widths must produce byte-identical diagnoses"
    );

    let queries: Vec<String> = (0..64)
        .map(|i| {
            format!(
                "query {i}: small writes, stripe width 1, metadata stat storm, \
                 collective aggregation of shared-file transfers"
            )
        })
        .collect();
    let mut index = vecindex::VectorIndex::default();
    for d in 0..48 {
        index.add_document(
            &format!("doc-{d}"),
            &format!("[Synthetic Source {d}, V 2024]"),
            &format!(
                "Document {d} discusses stripe counts, object storage targets, collective \
                 MPI-IO aggregation, metadata server load, request sizes and alignment. "
            )
            .repeat(24),
        );
    }

    let mut group = c.benchmark_group("intra_trace");
    group.sample_size(5);
    let mut summary: Vec<(String, Duration)> = Vec::new();

    for width in WIDTHS {
        let label = format!("diagnose_{width}thread");
        group.bench_with_input(BenchmarkId::new("fragments", &label), &width, |b, &w| {
            b.iter(|| black_box(diagnose(w)));
        });
        let start = Instant::now();
        black_box(diagnose(width));
        summary.push((label, start.elapsed()));
    }

    for width in WIDTHS {
        let label = format!("search_{width}thread");
        group.bench_with_input(BenchmarkId::new("batch_search", &label), &width, |b, &w| {
            b.iter(|| pool(w).install(|| black_box(index.search_batch(&queries, 15))));
        });
        let start = Instant::now();
        black_box(pool(width).install(|| index.search_batch(&queries, 15)));
        summary.push((label, start.elapsed()));
    }
    group.finish();

    println!(
        "\nintra-trace scaling summary ({n_fragments} fragments, {} queries):",
        queries.len()
    );
    for (label, t) in &summary {
        println!("  {label:20} {t:>12.3?}");
    }
    let find = |l: &str| summary.iter().find(|(s, _)| s == l).map(|(_, t)| *t);
    if let (Some(one), Some(four)) = (find("diagnose_1thread"), find("diagnose_4thread")) {
        println!(
            "  fragment-diagnosis speedup: {:.2}x (4 threads vs 1, {CALL_LATENCY:?}/call)",
            one.as_secs_f64() / four.as_secs_f64()
        );
    }
    if let (Some(one), Some(four)) = (find("search_1thread"), find("search_4thread")) {
        println!(
            "  batch-search speedup: {:.2}x (4 threads vs 1, compute-bound)",
            one.as_secs_f64() / four.as_secs_f64()
        );
    }
}

criterion_group!(benches, bench_intra_trace);
criterion_main!(benches);
