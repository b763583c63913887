//! Determinism under injected faults, and deadline shedding.
//!
//! The fault layer perturbs *when* a completion arrives (heavy-tailed
//! latency, injected timeouts/rate-limits/truncations forcing retries)
//! but never *what* it says: content draws are keyed by (model, prompt,
//! salt) only, and usage commits exactly once per delivered completion.
//! So a faulted service — at any worker count, hedged or not — must
//! produce diagnoses byte-identical to a fault-free run, with identical
//! per-job accounting.

use ioagent_core::IoAgent;
use ioagentd::{
    DiagnosisService, HedgePolicy, JobFailure, JobRequest, ResilienceCounters, ResiliencePolicy,
    ResilientLlm, ServiceConfig,
};
use simllm::{FaultPlan, FaultSpec, LanguageModel, LatencyProfile, SimLlm, TailSpec};
use std::time::{Duration, Instant};
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

    // Faulted, narrow: one worker.
    let narrow = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(1)
            .cache_capacity(0)
            .fault_plan(chaos_plan())
            .resilience(chaos_policy()),
        index.clone(),
    );
    // Faulted, wide: four workers — the same jobs race through different
    // threads and retry schedules.
    let wide = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(4)
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

/// With a fault plan but no policy and no deadline, jobs run the
/// delivery loop's unbounded case: every faulted call retries until it
/// succeeds, and the service counts those retries and faults like any
/// other.
#[test]
fn a_faulted_service_without_a_policy_counts_its_retries_and_faults() {
    let suite = TraceBench::generate();
    let jobs = workload(&suite);
    let clean = DiagnosisService::start(ServiceConfig::with_workers(2).cache_capacity(0));
    let reference = clean.run_batch(jobs.clone()).unwrap();
    let faulted = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(2)
            .cache_capacity(0)
            .fault_plan(chaos_plan()),
        clean.retriever(),
    );
    let results = faulted.run_batch(jobs).unwrap();
    for (r, f) in reference.iter().zip(&results) {
        assert!(f.failure.is_none(), "{}: {:?}", f.id, f.failure);
        assert_eq!(f.diagnosis.text, r.diagnosis.text, "{}", r.id);
        assert_eq!(f.diagnosis.issues, r.diagnosis.issues, "{}", r.id);
        assert_eq!(f.diagnosis.references, r.diagnosis.references, "{}", r.id);
        assert_eq!(f.metrics.llm_calls, r.metrics.llm_calls, "{}", r.id);
        assert_eq!(f.metrics.cost_usd, r.metrics.cost_usd, "{}", r.id);
    }
    let stats = faulted.stats();
    assert!(stats.retries > 0, "no retry counted");
    let faults = stats.faults_timeout + stats.faults_rate_limited + stats.faults_truncated;
    assert!(faults > 0, "no fault counted");
    assert_eq!(stats.hedges, 0, "no policy means no hedging");
    clean.shutdown();
    faulted.shutdown();
}

fn hedged_policy() -> ResiliencePolicy {
    chaos_policy().hedged(HedgePolicy {
        quantile: 0.95,
        min_delay: Duration::from_micros(10),
    })
}

/// Each pipeline stage's calls are in flight together (one wave per
/// stage), each call with its own retries, hedge and backoff. However the
/// waves interleave faults, hedges and retries, every diagnosis and every
/// bill must equal the fault-free run's.
#[test]
fn fan_out_waves_under_faults_and_hedging_match_the_fault_free_run() {
    let suite = TraceBench::generate();
    let jobs = workload(&suite);
    let clean = DiagnosisService::start(ServiceConfig::with_workers(1).cache_capacity(0));
    let reference = clean.run_batch(jobs.clone()).unwrap();
    // One worker: all of a job's overlap comes from its waves. The generous deadline shares one clock across each
    // job's calls without ever firing.
    let fanned = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(1)
            .cache_capacity(0)
            .fault_plan(chaos_plan())
            .resilience(hedged_policy())
            .deadline(Duration::from_secs(60)),
        clean.retriever(),
    );
    let results = fanned.run_batch(jobs.clone()).unwrap();
    for (r, f) in reference.iter().zip(&results) {
        assert!(f.failure.is_none(), "{}: {:?}", f.id, f.failure);
        assert_eq!(f.diagnosis.text, r.diagnosis.text, "{}", r.id);
        assert_eq!(f.diagnosis.issues, r.diagnosis.issues, "{}", r.id);
        assert_eq!(f.diagnosis.references, r.diagnosis.references, "{}", r.id);
        assert_eq!(f.metrics.llm_calls, r.metrics.llm_calls, "{}", r.id);
        assert_eq!(f.metrics.input_tokens, r.metrics.input_tokens, "{}", r.id);
        assert_eq!(f.metrics.cost_usd, r.metrics.cost_usd, "{}", r.id);
    }
    let stats = fanned.stats();
    assert!(stats.retries > 0, "no retry fired; the arm is vacuous");
    assert!(stats.hedges > 0, "no hedge fired; the arm is vacuous");

    // The same jobs straight through the agent: the backbone's calls
    // went out in a handful of waves, not one at a time.
    for job in &jobs {
        let plain = SimLlm::new(&job.model);
        let faulted = ResilientLlm::new(
            SimLlm::new(&job.model).with_fault_plan(chaos_plan()),
            hedged_policy(),
            Some(Instant::now() + Duration::from_secs(60)),
            ResilienceCounters::detached(),
        );
        let run = |model: &dyn LanguageModel| {
            let agent =
                IoAgent::with_shared_retriever(model, job.config.clone(), clean.retriever());
            let text = agent.diagnose(&job.trace).text;
            (text, agent.llm_waves())
        };
        let (expected, plain_waves) = run(&plain);
        let (text, waves) = run(&faulted);
        assert!(faulted.take_failure().is_none(), "{}", job.id);
        assert_eq!(text, expected, "{}", job.id);
        assert_eq!(faulted.usage(), plain.usage(), "{}", job.id);
        assert_eq!(waves, plain_waves, "{}", job.id);
        assert!(
            waves >= 3 && waves * 3 < plain.usage().calls,
            "{}: {waves} waves for {} backbone calls",
            job.id,
            plain.usage().calls
        );
    }
    clean.shutdown();
    fanned.shutdown();
}

#[test]
fn a_deadline_mid_wave_fails_the_job_once_and_bills_no_abandoned_attempt() {
    let suite = TraceBench::generate();
    let entry = suite.get("sb01_small_io").unwrap();
    let fragments = preprocessor::extract_fragments(&entry.trace).len();
    // Every backbone call takes 300ms. The transform wave delivers at
    // 300ms, and the diagnosis wave, due at 600ms, is in flight when the
    // 450ms deadline passes. Without retrieval no other model is billed.
    let service = DiagnosisService::start(
        ServiceConfig::with_workers(1)
            .cache_capacity(0)
            .fault_plan(
                FaultPlan::new().with_profile(LatencyProfile::flat(Duration::from_millis(300))),
            )
            .resilience(ResiliencePolicy::unbounded()),
    );
    let mut job = JobRequest::new("late", entry.trace.clone(), "gpt-4o")
        .with_deadline(Duration::from_millis(450));
    job.config.use_rag = false;
    let result = service.submit(job).unwrap().wait();
    assert_eq!(result.failure, Some(JobFailure::DeadlineExceeded));
    assert!(result.diagnosis.text.is_empty());
    assert_eq!(
        result.metrics.llm_calls, fragments,
        "only the delivered transform wave is billed"
    );
    let stats = service.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, 0);
    assert_eq!(stats.llm_calls, fragments as u64);
    service.shutdown();
}

#[test]
fn jobs_expired_in_queue_are_shed_at_dequeue() {
    let suite = TraceBench::generate();
    let entry = suite.get("sb01_small_io").unwrap();
    // One worker, and each backbone LLM call costs a simulated 10ms round
    // trip. The occupant's calls overlap in 4 waves (transforms,
    // diagnoses, two merge levels), so it holds the worker for about
    // 40ms: long enough for the second job's 5ms deadline to expire while
    // it is still queued, with room to spare on a loaded machine.
    let service = DiagnosisService::start(
        ServiceConfig::with_workers(1)
            .cache_capacity(16)
            .fault_plan(
                FaultPlan::new().with_profile(LatencyProfile::flat(Duration::from_millis(10))),
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
