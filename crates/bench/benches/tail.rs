//! Tail-latency benchmark: heavy-tailed faulty LLMs with and without the
//! ioagentd countermeasures (ISSUE 9).
//!
//! An **open-loop** load generator submits a fixed arrival schedule
//! (job *i* at `i/rate`, rate derived from the measured fault-free mean
//! service time so the offered load is ~50% of capacity on any machine)
//! into a shared-index diagnosis service, three arms:
//!
//! - **nofault** — no fault plan: the latency floor.
//! - **faults_off** — the heavy-tailed fault-injecting plan with the
//!   countermeasures off (the delivery loop's unbounded case, which
//!   retries every fault until it succeeds): straggling draws and
//!   injected faults land directly in the tail.
//! - **faults_on** — the same plan under a 3 s deadline, 3 bounded
//!   retries with decorrelated backoff, and hedged requests after
//!   max(6 ms, observed p95 attempt latency).
//!
//! Per-job latency is `queue_wait + exec` (submission is on schedule, so
//! queueing from stragglers hogging workers is charged to the tail they
//! cause). Before any timing, a 24-job batch is run through the faulted
//! service with hedging on and off and asserted **byte-identical** to
//! the fault-free reference — the countermeasures may only move time,
//! never content.
//!
//! Results go to `BENCH_tail.json` at the repo root. With `BENCH_GATE=1`
//! the run fails when the same-run p999 improvement (faults_off /
//! faults_on) falls below 2×, or when p999 regresses >2× against the
//! committed baseline while the (machine-independent) same-run
//! improvement also collapsed. `--test` runs a small smoke workload and
//! skips the JSON write and the gate.

use ioagent_core::MergeStrategy;
use ioagentd::{
    DiagnosisService, HedgePolicy, JobRequest, ResiliencePolicy, Retriever, ServiceConfig,
};
use simllm::{FaultPlan, FaultSpec, LatencyProfile, TailSpec};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracebench::TraceBench;

const WORKERS: usize = 8;
const DEADLINE: Duration = Duration::from_secs(3);
/// Same-run p999 floor: countermeasures must cut the injected tail at
/// least this much.
const MIN_IMPROVEMENT: f64 = 2.0;

/// Streaming profile ≈ a fast hosted model (800 µs TTFT, 150k tok/s),
/// with a 3% heavy tail (lognormal σ 0.8 around 12×, 25% Pareto α 1.3,
/// capped at 250×) and 0.5% each of injected timeouts, rate limits, and
/// truncations.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .with_profile(LatencyProfile::new(Duration::from_micros(800), 150_000.0))
        .with_tail(TailSpec {
            probability: 0.03,
            lognormal_sigma: 0.8,
            median_multiplier: 12.0,
            pareto_alpha: 1.3,
            pareto_weight: 0.25,
            max_multiplier: 250.0,
        })
        .with_faults(FaultSpec {
            timeout_probability: 0.005,
            timeout: Duration::from_millis(50),
            rate_limit_probability: 0.005,
            retry_after: Duration::from_millis(10),
            truncate_probability: 0.005,
        })
}

fn countermeasures() -> ResiliencePolicy {
    ResiliencePolicy::default()
        .retries(3)
        .backoff(Duration::from_millis(2), Duration::from_millis(20))
        .hedged(HedgePolicy {
            quantile: 0.95,
            min_delay: Duration::from_millis(6),
        })
}

/// `n` jobs cycling the 40 TraceBench traces × 3 models with a light
/// config (no RAG, flat merge — few LLM calls per job, so the LLM tail
/// dominates). Each job also perturbs `header.nprocs`, which lands in
/// the prompt: every job is distinct *content*, not just a distinct
/// cache key, so every LLM draw is a fresh sample of the fault plan.
fn workload(suite: &TraceBench, n: usize) -> Vec<JobRequest> {
    let models = ["gpt-4o", "gpt-4o-mini", "llama-3.1-70b"];
    (0..n)
        .map(|i| {
            let entry = &suite.entries[i % suite.entries.len()];
            let mut trace = entry.trace.clone();
            trace.header.nprocs = trace.header.nprocs.max(1) + (i / suite.entries.len()) as u64;
            let mut job = JobRequest::new(
                format!("job-{i}-{}", entry.spec.id),
                trace,
                models[i % models.len()],
            );
            job.config.use_rag = false;
            job.config.nl_transform = false;
            job.config.merge = MergeStrategy::Flat;
            job
        })
        .collect()
}

struct ArmOutcome {
    latencies_ms: Vec<f64>,
    failed: u64,
    retries: u64,
    hedges: u64,
    hedge_wins: u64,
    shed: u64,
}

/// Submit `jobs` on the open-loop schedule `i/rate` and wait for all of
/// them. The queue bound exceeds the job count, so submission never
/// blocks: a slow service shows up as queue_wait, exactly like an open
/// queueing system.
fn open_loop(service: &DiagnosisService, jobs: &[JobRequest], rate: f64) -> ArmOutcome {
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let target = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        tickets.push(service.submit(job.clone()).expect("submit"));
    }
    let mut latencies_ms = Vec::with_capacity(tickets.len());
    let mut failed = 0u64;
    for ticket in tickets {
        let result = ticket.wait();
        if result.failure.is_some() {
            failed += 1;
        }
        latencies_ms.push((result.metrics.queue_wait + result.metrics.exec).as_secs_f64() * 1e3);
    }
    let stats = service.stats();
    ArmOutcome {
        latencies_ms,
        failed,
        retries: stats.retries,
        hedges: stats.hedges,
        hedge_wins: stats.hedge_wins,
        shed: stats.shed_total,
    }
}

/// Exact quantile over a sorted copy (nearest-rank on the sorted order).
fn quantile(latencies_ms: &[f64], p: f64) -> f64 {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn repo_root_bench_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_tail.json")
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let n_jobs = if test_mode { 60 } else { 1000 };

    // Read the committed baseline *before* overwriting it.
    let baseline: Option<serde_json::Value> = std::fs::read_to_string(repo_root_bench_path())
        .ok()
        .and_then(|raw| serde_json::from_str(&raw).ok());
    let baseline_field =
        |name: &str| -> Option<f64> { baseline.as_ref()?.get(name).and_then(|x| x.as_f64()) };

    let suite = TraceBench::generate();
    let index = Arc::new(Retriever::build());
    let service_for = |plan: Option<FaultPlan>, resilient: bool| {
        let mut config = ServiceConfig::with_workers(WORKERS)
            .cache_capacity(0)
            .queue_capacity(n_jobs + WORKERS);
        if let Some(plan) = plan {
            config = config.fault_plan(plan);
        }
        if resilient {
            config = config.deadline(DEADLINE).resilience(countermeasures());
        }
        DiagnosisService::with_shared_index(config, Arc::clone(&index))
    };

    // ---- byte-identity before timing ------------------------------------
    // Faults and hedging may only move *time*: the same 24 jobs through
    // the clean service, the faulted countermeasures-off service, and the
    // faulted+hedged service (no deadline here, so nothing is ever shed)
    // must produce identical diagnoses.
    let identity_jobs = workload(&suite, 24);
    let clean = service_for(None, false);
    let reference = clean.run_batch(identity_jobs.clone()).unwrap();
    let faulted = service_for(Some(chaos_plan()), false);
    let unhedged = faulted.run_batch(identity_jobs.clone()).unwrap();
    let hedged_service = {
        let config = ServiceConfig::with_workers(WORKERS)
            .cache_capacity(0)
            .queue_capacity(n_jobs + WORKERS)
            .fault_plan(chaos_plan())
            .resilience(countermeasures());
        DiagnosisService::with_shared_index(config, Arc::clone(&index))
    };
    let hedged = hedged_service.run_batch(identity_jobs.clone()).unwrap();
    for ((r, u), h) in reference.iter().zip(&unhedged).zip(&hedged) {
        assert!(u.failure.is_none(), "{}: {:?}", u.id, u.failure);
        assert!(h.failure.is_none(), "{}: {:?}", h.id, h.failure);
        assert_eq!(
            u.diagnosis.text, r.diagnosis.text,
            "{}: faults changed the diagnosis",
            r.id
        );
        assert_eq!(
            h.diagnosis.text, r.diagnosis.text,
            "{}: hedging changed the diagnosis",
            r.id
        );
    }
    println!(
        "byte-identity: ok ({} jobs, hedges launched {}, won {})",
        identity_jobs.len(),
        hedged_service.stats().hedges,
        hedged_service.stats().hedge_wins,
    );
    faulted.shutdown();
    hedged_service.shutdown();

    // Offered load ≈ 50% of *faulted* (countermeasures-off) capacity,
    // derived from the measured mean service time so the schedule is
    // feasible on any machine and the tail — not saturation ramp-up —
    // dominates the quantiles.
    let mean_exec = unhedged
        .iter()
        .map(|r| r.metrics.exec.as_secs_f64())
        .sum::<f64>()
        / unhedged.len() as f64;
    clean.shutdown();
    let rate = (0.5 * WORKERS as f64 / mean_exec.max(1e-4)).clamp(20.0, 400.0);
    println!(
        "open loop: {n_jobs} jobs at {rate:.0}/s ({WORKERS} workers, mean faulted exec {:.2} ms)",
        mean_exec * 1e3
    );

    // ---- the three timed arms --------------------------------------------
    let jobs = workload(&suite, n_jobs);
    let run_arm = |label: &str, plan: Option<FaultPlan>, resilient: bool| {
        let service = service_for(plan, resilient);
        let outcome = open_loop(&service, &jobs, rate);
        service.shutdown();
        println!(
            "{label:10} p50 {:8.2} ms  p99 {:8.2} ms  p999 {:8.2} ms  \
             (failed {}, shed {}, retries {}, hedges {} ({} won))",
            quantile(&outcome.latencies_ms, 0.50),
            quantile(&outcome.latencies_ms, 0.99),
            quantile(&outcome.latencies_ms, 0.999),
            outcome.failed,
            outcome.shed,
            outcome.retries,
            outcome.hedges,
            outcome.hedge_wins,
        );
        outcome
    };
    let nofault = run_arm("nofault", None, false);
    let faults_off = run_arm("faults_off", Some(chaos_plan()), false);
    let faults_on = run_arm("faults_on", Some(chaos_plan()), true);

    let p = |o: &ArmOutcome, q: f64| quantile(&o.latencies_ms, q);
    let improvement_p99 = p(&faults_off, 0.99) / p(&faults_on, 0.99).max(1e-6);
    let improvement_p999 = p(&faults_off, 0.999) / p(&faults_on, 0.999).max(1e-6);
    println!(
        "countermeasures: p99 {improvement_p99:.1}x, p999 {improvement_p999:.1}x \
         lower than faults_off"
    );

    if test_mode {
        println!("bench tail: ok (test mode, JSON/gate skipped)");
        return;
    }

    let generated_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let arm_json = |o: &ArmOutcome| {
        serde_json::json!({
            "p50_ms": p(o, 0.50),
            "p99_ms": p(o, 0.99),
            "p999_ms": p(o, 0.999),
            "failed": o.failed,
            "shed": o.shed,
            "retries": o.retries,
            "hedges": o.hedges,
            "hedge_wins": o.hedge_wins,
        })
    };
    let record = serde_json::json!({
        "bench": "tail_latency_under_faults",
        "jobs": n_jobs,
        "workers": WORKERS,
        "rate_per_s": rate,
        "deadline_ms": DEADLINE.as_millis() as u64,
        "nofault": arm_json(&nofault),
        "faults_off": arm_json(&faults_off),
        "faults_on": arm_json(&faults_on),
        "improvement_p99": improvement_p99,
        "improvement_p999": improvement_p999,
        "generated_unix": generated_unix,
    });
    let path = repo_root_bench_path();
    std::fs::write(
        &path,
        format!("{}\n", serde_json::to_string(&record).unwrap()),
    )
    .expect("write BENCH_tail.json");
    println!("wrote {}", path.display());

    if std::env::var("BENCH_GATE").is_ok() {
        let mut failures: Vec<String> = Vec::new();
        // The same-run improvement ratio is machine-independent: hard gate.
        if improvement_p999 < MIN_IMPROVEMENT {
            failures.push(format!(
                "countermeasures cut p999 only {improvement_p999:.2}x \
                 (floor {MIN_IMPROVEMENT}x over faults_off)"
            ));
        }
        // Absolute p999 vs the committed baseline needs both signals — a
        // >2× regression AND a collapsed same-run improvement — so a slow
        // CI machine that inflates every arm equally cannot false-red.
        let baseline_p999 = baseline
            .as_ref()
            .and_then(|b| b.get("faults_on")?.get("p999_ms")?.as_f64());
        if let (Some(base_ms), Some(base_improvement)) =
            (baseline_p999, baseline_field("improvement_p999"))
        {
            let on_ms = p(&faults_on, 0.999);
            let absolute_regressed = on_ms > 2.0 * base_ms;
            let ratio_collapsed = improvement_p999 < base_improvement / 2.0;
            if absolute_regressed && ratio_collapsed {
                failures.push(format!(
                    "faults_on p999 {on_ms:.1} ms is more than 2x the committed baseline \
                     {base_ms:.1} ms AND the same-run improvement collapsed to \
                     {improvement_p999:.1}x (baseline {base_improvement:.1}x)"
                ));
            } else if absolute_regressed {
                println!(
                    "gate: p999 {on_ms:.1} ms exceeds 2x baseline {base_ms:.1} ms but the \
                     same-run improvement is still {improvement_p999:.1}x — slow machine, \
                     not a regression; passing"
                );
            }
        } else {
            println!("gate: no committed tail baseline found — skipping absolute comparison");
        }
        if failures.is_empty() {
            println!("gate: OK (p999 improvement {improvement_p999:.1}x)");
        } else {
            for f in &failures {
                eprintln!("REGRESSION: {f}");
            }
            std::process::exit(1);
        }
    }
}
