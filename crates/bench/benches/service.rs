//! `ioagentd` throughput benchmark: wall-clock for a 64-trace heterogeneous
//! batch through the diagnosis service at 1 worker vs N workers, plus the
//! cache-hit fast path.
//!
//! Two scaling arms:
//!
//! - **cpu**: raw local compute. Scales with physical cores (on a 1-core
//!   container both widths are equivalent by construction).
//! - **rpc**: each backbone LLM call additionally pays a simulated
//!   0.5 ms remote round trip (a flat `LatencyProfile`). A job's ~36
//!   backbone calls go out in ~5 waves whose calls overlap, so a job
//!   waits ~2.5 ms on the model — the regime a deployed service actually
//!   runs in, where worker concurrency hides latency rather than
//!   splitting compute. This arm scales with the worker count on any
//!   machine, by less than it did when each call waited on its own.
//!
//! All service instances share one pre-built knowledge index so the
//! comparison isolates diagnosis throughput from index construction; the
//! result cache is disabled in the scaling arms so every job does real
//! work. A `speedup` summary is printed after the samples.
//!
//! A final **tracing-overhead** arm times the cpu batch with span tracing
//! off, then on (`--trace-dir`-style file tracer at the default stage
//! detail, installed via the set-once global, so it must run last), then
//! with tail-based sampling (`--trace-sample tail:p99`, which buffers
//! fine-detail spans per job and only flushes the slow ones). Diagnoses
//! must stay byte-identical across all three, and the min-of-N numbers
//! go to `BENCH_obs.json` at the repo root. With `BENCH_GATE=1` the run
//! fails if either tracing mode costs more than 3% of batch wall time
//! (with a 5 ms absolute noise floor).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ioagentd::{DiagnosisService, JobRequest, Retriever, ServiceConfig};
use simllm::{FaultPlan, LatencyProfile};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracebench::TraceBench;

const N_JOBS: usize = 64;
/// Simulated remote round trip per backbone LLM call.
const RPC_LATENCY: Duration = Duration::from_micros(500);

fn rpc_plan() -> FaultPlan {
    FaultPlan::new().with_profile(LatencyProfile::flat(RPC_LATENCY))
}

/// 64 heterogeneous jobs: the 40 TraceBench traces cycled, with the model
/// alternating so repeated traces are still distinct (cache-busting) work.
fn workload(suite: &TraceBench) -> Vec<JobRequest> {
    let models = ["gpt-4o", "gpt-4o-mini", "llama-3.1-70b"];
    (0..N_JOBS)
        .map(|i| {
            let entry = &suite.entries[i % suite.entries.len()];
            let model = models[(i / suite.entries.len()) % models.len()];
            JobRequest::new(
                format!("job-{i}-{}", entry.spec.id),
                entry.trace.clone(),
                model,
            )
        })
        .collect()
}

fn timed_batch(service: &DiagnosisService, jobs: &[JobRequest]) -> Duration {
    let start = Instant::now();
    black_box(service.run_batch(jobs.to_vec()).unwrap());
    start.elapsed()
}

fn bench_service(c: &mut Criterion) {
    let suite = TraceBench::generate();
    let jobs = workload(&suite);
    let index = Arc::new(Retriever::build());
    let n_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .max(4);

    let mut group = c.benchmark_group("service");
    group.sample_size(5);

    let mut summary: Vec<(String, Duration)> = Vec::new();
    for (arm, plan) in [("cpu", None), ("rpc", Some(rpc_plan()))] {
        for workers in [1, n_workers] {
            let mut config = ServiceConfig::with_workers(workers).cache_capacity(0);
            config.fault_plan = plan.clone();
            let service = DiagnosisService::with_shared_index(config, Arc::clone(&index));
            let label = format!("{arm}_{workers}worker");
            group.bench_with_input(BenchmarkId::new("batch64", &label), &jobs, |b, jobs| {
                b.iter(|| black_box(service.run_batch(jobs.to_vec()).unwrap()));
            });
            summary.push((label, timed_batch(&service, &jobs)));
            service.shutdown();
        }
    }

    // Combined grain: half the workers, each running its jobs over a
    // 2-thread intra-job shim pool — the same workers × intra-threads
    // budget as the plain rpc_N arm, but split across both grains. Shows
    // the thread-budget interaction (README "Parallelism model"): a job's
    // calls already overlap wave by wave on its worker thread, so the
    // intra-job threads only split its CPU work while half as many jobs
    // run at once.
    let combined_workers = (n_workers / 2).max(1);
    let combined = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(combined_workers)
            .intra_threads(2)
            .cache_capacity(0)
            .fault_plan(rpc_plan()),
        Arc::clone(&index),
    );
    let combined_label = format!("rpc_combined_{combined_workers}x2");
    group.bench_with_input(
        BenchmarkId::new("batch64", &combined_label),
        &jobs,
        |b, jobs| {
            b.iter(|| black_box(combined.run_batch(jobs.to_vec()).unwrap()));
        },
    );
    summary.push((combined_label, timed_batch(&combined, &jobs)));
    combined.shutdown();

    // Cache arm: after the first batch, every job is answered from the LRU.
    let cached_service = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(n_workers).cache_capacity(2 * N_JOBS),
        Arc::clone(&index),
    );
    cached_service.run_batch(jobs.clone()).unwrap(); // warm the cache
    group.bench_with_input(
        BenchmarkId::new("batch64", "cache_hit"),
        &jobs,
        |b, jobs| {
            b.iter(|| black_box(cached_service.run_batch(jobs.to_vec()).unwrap()));
        },
    );
    summary.push(("cache_hit".into(), timed_batch(&cached_service, &jobs)));
    cached_service.shutdown();
    group.finish();

    println!("\nservice scaling summary ({N_JOBS} jobs, N = {n_workers} workers):");
    for (label, t) in &summary {
        println!("  {label:16} {t:>12.3?}");
    }
    let find = |l: &str| summary.iter().find(|(s, _)| s == l).map(|(_, t)| *t);
    if let (Some(one), Some(n)) = (
        find("rpc_1worker"),
        &find(&format!("rpc_{n_workers}worker")),
    ) {
        println!(
            "  rpc arm speedup: {:.2}x ({} workers vs 1)",
            one.as_secs_f64() / n.as_secs_f64(),
            n_workers
        );
    }
    if let (Some(one), Some(n)) = (
        find("cpu_1worker"),
        &find(&format!("cpu_{n_workers}worker")),
    ) {
        println!(
            "  cpu arm speedup: {:.2}x ({} workers vs 1)",
            one.as_secs_f64() / n.as_secs_f64(),
            n_workers
        );
    }
}

/// Tracing-overhead arm. Runs after `bench_service` (the global tracer
/// is set-once, so everything before this point measures the disabled
/// path): min-of-N cpu batches with tracing off, then the same batches
/// with a file tracer installed, byte-identity asserted between the two.
fn bench_tracing_overhead(_c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let samples = if test_mode { 1 } else { 7 };
    let suite = TraceBench::generate();
    let jobs = workload(&suite);
    let index = Arc::new(Retriever::build());
    let workers = 4;

    let min_of = |service: &DiagnosisService| -> (Duration, Vec<String>) {
        let texts = service
            .run_batch(jobs.clone())
            .unwrap()
            .into_iter()
            .map(|r| r.diagnosis.text)
            .collect();
        let best = (0..samples)
            .map(|_| timed_batch(service, &jobs))
            .min()
            .unwrap();
        (best, texts)
    };

    assert!(
        !ioobserve::tracer().enabled(),
        "tracing arm must start with the tracer disabled"
    );
    let off_service = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(workers).cache_capacity(0),
        Arc::clone(&index),
    );
    let (off_min, off_texts) = min_of(&off_service);
    off_service.shutdown();

    let trace_dir = std::env::temp_dir().join(format!("ioagentd-bench-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&trace_dir);
    let tracer = ioobserve::Tracer::to_dir(&trace_dir).expect("open trace dir");
    assert!(
        ioobserve::init_tracer(tracer),
        "a tracer was already installed; the overhead arm needs a fresh process"
    );
    let on_service = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(workers).cache_capacity(0),
        Arc::clone(&index),
    );
    let (on_min, on_texts) = min_of(&on_service);
    on_service.shutdown();

    assert_eq!(
        off_texts, on_texts,
        "tracing must not perturb diagnosis output"
    );
    let count_spans = |dir: &std::path::Path| {
        std::fs::read_dir(dir)
            .map(|dir| {
                dir.flatten()
                    .filter_map(|e| std::fs::read_to_string(e.path()).ok())
                    .map(|text| text.lines().count())
                    .sum::<usize>()
            })
            .unwrap_or(0)
    };
    let spans_written = count_spans(&trace_dir);
    let _ = std::fs::remove_dir_all(&trace_dir);

    // Tail-sampled arm: fine detail buffered per job, flushed only for
    // the slow tail — the worst case for sampling bookkeeping. The
    // global tracer is already set, so this arm swaps it via
    // `install_tracer` (the multi-arm escape hatch).
    let tail_rule = ioobserve::TailRule::parse("p99").expect("tail rule");
    let tail_dir = std::env::temp_dir().join(format!("ioagentd-bench-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tail_dir);
    let tail_tracer = ioobserve::Tracer::to_dir(&tail_dir)
        .expect("open tail trace dir")
        .with_tail_sampling(tail_rule);
    ioobserve::install_tracer(tail_tracer);
    let tail_service = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(workers).cache_capacity(0),
        Arc::clone(&index),
    );
    let (tail_min, tail_texts) = min_of(&tail_service);
    tail_service.shutdown();
    assert_eq!(
        off_texts, tail_texts,
        "tail sampling must not perturb diagnosis output"
    );
    ioobserve::tracer().flush();
    let tail_spans = count_spans(&tail_dir);
    let _ = std::fs::remove_dir_all(&tail_dir);

    let overhead = (on_min.as_secs_f64() - off_min.as_secs_f64()) / off_min.as_secs_f64();
    let tail_overhead = (tail_min.as_secs_f64() - off_min.as_secs_f64()) / off_min.as_secs_f64();
    println!(
        "\ntracing overhead ({N_JOBS} jobs, {workers} workers, min of {samples}): \
         off {off_min:.3?}, on {on_min:.3?} ({:+.2}%), {spans_written} spans written; \
         tail {tail_min:.3?} ({:+.2}%), {tail_spans} spans written",
        overhead * 100.0,
        tail_overhead * 100.0
    );

    if test_mode {
        println!("bench service tracing arm: ok (test mode, JSON/gate skipped)");
        return;
    }

    let generated_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let record = serde_json::json!({
        "bench": "service_tracing_overhead",
        "trace_detail": "stage",
        "jobs": N_JOBS,
        "workers": workers,
        "samples": samples,
        "tracing_off_min_ms": off_min.as_secs_f64() * 1e3,
        "tracing_on_min_ms": on_min.as_secs_f64() * 1e3,
        "overhead_pct": overhead * 100.0,
        "spans_written": spans_written,
        "tail_rule": "tail:p99",
        "tracing_tail_min_ms": tail_min.as_secs_f64() * 1e3,
        "tail_overhead_pct": tail_overhead * 100.0,
        "tail_spans_written": tail_spans,
        "generated_unix": generated_unix,
    });
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_obs.json");
    std::fs::write(
        &path,
        format!("{}\n", serde_json::to_string(&record).unwrap()),
    )
    .expect("write BENCH_obs.json");
    println!("wrote {}", path.display());

    if std::env::var("BENCH_GATE").is_ok() {
        // Same-run ratio: machine-independent. The absolute floor keeps a
        // sub-noise delta on a very fast batch from false-redding.
        let mut failed = false;
        for (label, on, pct) in [
            ("tracing", on_min, overhead),
            ("tail sampling", tail_min, tail_overhead),
        ] {
            let absolute = on.saturating_sub(off_min);
            if pct < 0.03 || absolute < Duration::from_millis(5) {
                println!(
                    "gate: OK ({label} overhead {:.2}% < 3%)",
                    pct.max(0.0) * 100.0
                );
            } else {
                eprintln!(
                    "REGRESSION: {label} overhead {:.2}% exceeds the 3% budget \
                     (off {off_min:.3?}, on {on:.3?})",
                    pct * 100.0
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}

criterion_group!(benches, bench_service, bench_tracing_overhead);
criterion_main!(benches);
