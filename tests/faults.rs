//! Determinism under injected faults, and deadline shedding.
//!
//! The fault layer perturbs *when* a completion arrives (heavy-tailed
//! latency, injected timeouts/rate-limits/truncations forcing retries)
//! but never *what* it says: content draws are keyed by (model, prompt,
//! salt) only, and usage commits exactly once per delivered completion.
//! So a faulted service — at any worker count or intra-job pool width,
//! hedged or not — must produce diagnoses byte-identical to a fault-free
//! run, with identical per-job accounting.

use ioagentd::{
    DiagnosisService, HedgePolicy, JobFailure, JobRequest, ResiliencePolicy, ServiceConfig,
};
use simllm::{FaultPlan, FaultSpec, LatencyProfile, TailSpec};
use std::time::Duration;
use tracebench::TraceBench;

/// Latencies in microseconds, fault probabilities high enough that a
/// 6-job batch reliably exercises retries, and enough retry budget that
/// every job (deterministically) recovers.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .with_profile(LatencyProfile::flat(Duration::from_micros(20)))
        .with_tail(TailSpec {
            probability: 0.1,
            lognormal_sigma: 0.8,
            median_multiplier: 10.0,
            pareto_alpha: 1.3,
            pareto_weight: 0.25,
            max_multiplier: 100.0,
        })
        .with_faults(FaultSpec {
            timeout_probability: 0.05,
            timeout: Duration::from_micros(200),
            rate_limit_probability: 0.05,
            retry_after: Duration::from_micros(100),
            truncate_probability: 0.05,
        })
}

fn chaos_policy() -> ResiliencePolicy {
    ResiliencePolicy::default()
        .retries(16)
        .backoff(Duration::from_micros(50), Duration::from_micros(500))
}

fn workload(suite: &TraceBench) -> Vec<JobRequest> {
    let ids = [
        "sb01_small_io",
        "sb03_metadata_storm",
        "sb07_stdio_heavy",
        "io500_easy_posix_small_1",
        "ra_amrex",
        "ra_hacc_io",
    ];
    ids.iter()
        .enumerate()
        .map(|(i, id)| {
            let entry = suite.get(id).unwrap();
            let model = if i % 2 == 0 { "gpt-4o" } else { "gpt-4o-mini" };
            JobRequest::new(*id, entry.trace.clone(), model)
        })
        .collect()
}

#[test]
fn faulted_service_is_byte_identical_to_fault_free_at_any_width() {
    let suite = TraceBench::generate();
    let jobs = workload(&suite);

    // The reference: no faults, no resilience machinery at all.
    let clean = DiagnosisService::start(ServiceConfig::with_workers(2).cache_capacity(0));
    let reference = clean.run_batch(jobs.clone()).unwrap();
    let index = clean.retriever();

    // Faulted, narrow: one worker, intra-job pool width 1.
    let narrow = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(1)
            .cache_capacity(0)
            .fault_plan(chaos_plan())
            .resilience(chaos_policy()),
        index.clone(),
    );
    // Faulted, wide: four workers, intra-job pool width 4 — the same
    // jobs race through different threads and retry schedules.
    let wide = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(4)
            .intra_threads(4)
            .cache_capacity(0)
            .fault_plan(chaos_plan())
            .resilience(chaos_policy()),
        index.clone(),
    );
    // Faulted and hedged: a hedge floor at or below the plan's 20µs base
    // latency makes hedges fire, so both lanes of many rounds race. The
    // loser is never billed, so accounting still matches exactly.
    let hedged = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(2)
            .cache_capacity(0)
            .fault_plan(chaos_plan())
            .resilience(chaos_policy().hedged(HedgePolicy {
                quantile: 0.95,
                min_delay: Duration::from_micros(10),
            })),
        index,
    );

    let a = narrow.run_batch(jobs.clone()).unwrap();
    let b = wide.run_batch(jobs.clone()).unwrap();
    let c = hedged.run_batch(jobs.clone()).unwrap();
    for (((r, x), y), z) in reference.iter().zip(&a).zip(&b).zip(&c) {
        for (arm, faulted) in [("narrow", x), ("wide", y), ("hedged", z)] {
            assert!(
                faulted.failure.is_none(),
                "{} ({arm}): {:?}",
                faulted.id,
                faulted.failure
            );
            assert_eq!(
                faulted.diagnosis.text, r.diagnosis.text,
                "{} text diverged under faults ({arm})",
                r.id
            );
            assert_eq!(faulted.diagnosis.issues, r.diagnosis.issues, "{}", r.id);
            assert_eq!(
                faulted.diagnosis.references, r.diagnosis.references,
                "{}",
                r.id
            );
            // Commit-once usage: faulted attempts charge nothing, so the
            // per-job accounting matches the fault-free run exactly.
            assert_eq!(
                faulted.metrics.llm_calls, r.metrics.llm_calls,
                "{} call count diverged ({arm})",
                r.id
            );
            assert_eq!(faulted.metrics.cost_usd, r.metrics.cost_usd, "{}", r.id);
        }
    }

    // The plan actually bit: at least one retry happened somewhere (the
    // probabilities above make a fault-free 6-job batch essentially
    // impossible, and the draws are deterministic, so this is stable).
    let exercised = narrow.stats().retries + wide.stats().retries;
    assert!(exercised > 0, "fault plan never fired; the test is vacuous");
    assert!(
        hedged.stats().hedges > 0,
        "no hedge fired; the arm is vacuous"
    );
    clean.shutdown();
    narrow.shutdown();
    wide.shutdown();
    hedged.shutdown();
}

#[test]
fn jobs_expired_in_queue_are_shed_at_dequeue() {
    let suite = TraceBench::generate();
    let entry = suite.get("sb01_small_io").unwrap();
    // One worker, and each backbone LLM call costs a simulated 2ms round
    // trip: the first job occupies the worker long enough for the second
    // job's 5ms deadline to expire while it is still queued.
    let service = DiagnosisService::start(
        ServiceConfig::with_workers(1)
            .cache_capacity(16)
            .fault_plan(
                FaultPlan::new().with_profile(LatencyProfile::flat(Duration::from_millis(2))),
            ),
    );

    let mut slow = JobRequest::new("occupant", entry.trace.clone(), "gpt-4o-mini");
    slow.config.use_rag = false;
    // A different config than the occupant: distinct cache fingerprint,
    // so the final not-cached assertion can't be satisfied by the
    // occupant's own (legitimate) cache entry.
    let mut doomed = JobRequest::new("doomed", entry.trace.clone(), "gpt-4o-mini")
        .with_deadline(Duration::from_millis(5));
    doomed.config.use_rag = false;
    doomed.config.top_k = 5;

    let first = service.submit(slow).unwrap();
    let second = service.submit(doomed.clone()).unwrap();
    let occupant = first.wait();
    let shed = second.wait();

    assert!(occupant.failure.is_none(), "{:?}", occupant.failure);
    assert_eq!(shed.failure, Some(JobFailure::DeadlineExceededQueued));
    assert_eq!(shed.failure.unwrap().error_kind(), "deadline_exceeded");
    assert!(
        shed.diagnosis.text.is_empty(),
        "a shed job must not execute"
    );
    assert_eq!(shed.metrics.llm_calls, 0, "a shed job must not burn spend");

    let stats = service.stats();
    assert_eq!(stats.shed_total, 1);
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, 1, "only the occupant completed");

    // A shed job is never cached: the same request without a deadline
    // must execute fresh and succeed.
    doomed.deadline = None;
    let retried = service.submit(doomed).unwrap().wait();
    assert!(retried.failure.is_none());
    assert!(
        !retried.cached,
        "a failed job must never populate the cache"
    );
    assert!(!retried.diagnosis.text.is_empty());
    service.shutdown();
}
