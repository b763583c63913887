//! `ioagentd` service-level guarantees, cross-checked against the
//! sequential pipeline:
//!
//! - a batch of N jobs through K workers yields **byte-identical**
//!   diagnoses to running each job alone through [`IoAgent`];
//! - resubmitting a completed batch is answered entirely from the result
//!   cache with **zero** additional LLM calls;
//! - the bounded queue applies backpressure yet completes everything.

use ioagent_core::{AgentConfig, IoAgent, MergeStrategy};
use ioagentd::{DiagnosisService, JobRequest, ServiceConfig};
use simllm::SimLlm;
use std::sync::Arc;
use tracebench::TraceBench;

/// A heterogeneous 12-job workload: varied traces, models, and configs.
fn workload(suite: &TraceBench) -> Vec<JobRequest> {
    let ids = [
        "sb01_small_io",
        "sb03_metadata_storm",
        "sb07_stdio_heavy",
        "sb10_server_hotspot",
        "io500_easy_posix_small_1",
        "io500_hard_mpiio_indep_1",
        "ra_amrex",
        "ra_hacc_io",
    ];
    let mut jobs = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let entry = suite.get(id).unwrap();
        let model = if i % 2 == 0 {
            "gpt-4o"
        } else {
            "llama-3.1-70b"
        };
        jobs.push(JobRequest::new(
            format!("{id}-default"),
            entry.trace.clone(),
            model,
        ));
    }
    // Four config variants over one trace: distinct cache keys, distinct outputs.
    let entry = suite.get("ra_vpic_io").unwrap();
    for (tag, config) in [
        (
            "flat",
            AgentConfig {
                merge: MergeStrategy::Flat,
                ..AgentConfig::default()
            },
        ),
        (
            "norag",
            AgentConfig {
                use_rag: false,
                ..AgentConfig::default()
            },
        ),
        (
            "k5",
            AgentConfig {
                top_k: 5,
                ..AgentConfig::default()
            },
        ),
        (
            "rawjson",
            AgentConfig {
                nl_transform: false,
                ..AgentConfig::default()
            },
        ),
    ] {
        let mut job = JobRequest::new(format!("vpic-{tag}"), entry.trace.clone(), "gpt-4o");
        job.config = config;
        jobs.push(job);
    }
    jobs
}

#[test]
fn concurrent_batch_matches_sequential_agent_byte_for_byte() {
    let suite = TraceBench::generate();
    let jobs = workload(&suite);

    let service = DiagnosisService::start(ServiceConfig::with_workers(4));
    let results = service.run_batch(jobs.clone()).unwrap();
    let retriever = service.retriever();

    assert_eq!(results.len(), jobs.len());
    for (job, result) in jobs.iter().zip(&results) {
        assert_eq!(
            result.id, job.id,
            "results must come back in submission order"
        );
        assert!(!result.cached);

        // The reference: one agent, one job, no service.
        let model = SimLlm::new(&job.model);
        let agent =
            IoAgent::with_shared_retriever(&model, job.config.clone(), Arc::clone(&retriever));
        let reference = agent.diagnose(&job.trace);

        assert_eq!(result.diagnosis.text, reference.text, "{} diverged", job.id);
        assert_eq!(
            result.diagnosis.issues, reference.issues,
            "{} issues diverged",
            job.id
        );
        assert_eq!(
            result.diagnosis.references, reference.references,
            "{} references diverged",
            job.id
        );

        // Per-job accounting matches the standalone run exactly.
        let standalone = model.usage().calls + agent.reflection_usage().calls;
        assert_eq!(
            result.metrics.llm_calls, standalone,
            "{} call count diverged",
            job.id
        );
    }
    service.shutdown();
}

#[test]
fn worker_count_does_not_change_output() {
    let suite = TraceBench::generate();
    let jobs = workload(&suite);
    let narrow = DiagnosisService::start(ServiceConfig::with_workers(1).cache_capacity(0));
    let wide = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(8).cache_capacity(0),
        narrow.retriever(),
    );
    let a = narrow.run_batch(jobs.clone()).unwrap();
    let b = wide.run_batch(jobs).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.diagnosis.text, y.diagnosis.text,
            "{} diverged across widths",
            x.id
        );
    }
}

#[test]
fn cache_hit_repeat_makes_zero_llm_calls() {
    let suite = TraceBench::generate();
    let jobs = workload(&suite);

    let service = DiagnosisService::start(ServiceConfig::with_workers(4).cache_capacity(64));
    let first = service.run_batch(jobs.clone()).unwrap();
    let stats_after_first = service.stats();
    assert!(stats_after_first.llm_calls > 0);
    assert_eq!(stats_after_first.cache_hits, 0);

    let second = service.run_batch(jobs.clone()).unwrap();
    let stats_after_second = service.stats();

    for (a, b) in first.iter().zip(&second) {
        assert!(b.cached, "{} should be a cache hit", b.id);
        assert_eq!(a.diagnosis.text, b.diagnosis.text);
        assert_eq!(b.metrics.llm_calls, 0);
        assert_eq!(b.metrics.cost_usd, 0.0);
    }
    assert_eq!(
        stats_after_second.llm_calls, stats_after_first.llm_calls,
        "a cache-hit repeat must not touch any LLM"
    );
    assert_eq!(stats_after_second.cache_hits, jobs.len() as u64);
    service.shutdown();
}

#[test]
fn config_changes_bypass_the_cache() {
    let suite = TraceBench::generate();
    let entry = suite.get("sb01_small_io").unwrap();
    let service = DiagnosisService::start(ServiceConfig::with_workers(2).cache_capacity(16));

    let default_job = JobRequest::new("a", entry.trace.clone(), "gpt-4o");
    let mut norag_job = JobRequest::new("b", entry.trace.clone(), "gpt-4o");
    norag_job.config.use_rag = false;
    let other_model_job = JobRequest::new("c", entry.trace.clone(), "gpt-4o-mini");

    service.run_batch(vec![default_job.clone()]).unwrap();
    let results = service
        .run_batch(vec![default_job, norag_job, other_model_job])
        .unwrap();
    assert!(results[0].cached, "identical job must hit");
    assert!(!results[1].cached, "different config must miss");
    assert!(!results[2].cached, "different model must miss");
    service.shutdown();
}

#[test]
fn tiny_queue_applies_backpressure_without_deadlock() {
    let suite = TraceBench::generate();
    // Queue bound 1 with 2 workers: submits block while workers chew.
    let service = DiagnosisService::start(
        ServiceConfig::with_workers(2)
            .queue_capacity(1)
            .cache_capacity(0),
    );
    let jobs: Vec<JobRequest> = suite
        .entries
        .iter()
        .take(10)
        .map(|e| JobRequest::new(e.spec.id, e.trace.clone(), "gpt-4o-mini"))
        .collect();
    let results = service.run_batch(jobs).unwrap();
    assert_eq!(results.len(), 10);
    assert!(results.iter().all(|r| !r.diagnosis.text.is_empty()));
    assert_eq!(service.stats().jobs_completed, 10);
    service.shutdown();
}

/// A crafted trace whose byte counters sit at `i64::MAX` on several
/// records: every per-record and per-rank byte sum on the ingest and
/// summary paths would overflow unless it saturates. Test builds run with
/// overflow checks, so an unchecked `+` panics here and the service
/// answers `error_kind: "internal"` instead of a diagnosis.
fn saturating_trace() -> darshan::DarshanTrace {
    let max = i64::MAX;
    let mut text = String::from(
        "# darshan log version: 3.41\n# exe: ./huge\n# nprocs: 4\n# run time: 10.00\n",
    );
    for (module, rank, id, file) in [
        ("POSIX", 0, 1, "/scratch/a"),
        ("POSIX", 1, 2, "/scratch/b"),
        ("POSIX", -1, 3, "/scratch/shared"),
        ("MPIIO", -1, 3, "/scratch/shared"),
        ("STDIO", 0, 4, "/home/log"),
    ] {
        for counter in [
            "BYTES_READ",
            "BYTES_WRITTEN",
            "MAX_BYTE_READ",
            "READS",
            "WRITES",
        ] {
            let counter = match (module, counter) {
                ("MPIIO", "READS") => "INDEP_READS",
                ("MPIIO", "WRITES") => "INDEP_WRITES",
                _ => counter,
            };
            text.push_str(&format!(
                "{module}\t{rank}\t{id}\t{module}_{counter}\t{max}\t{file}\t/scratch\tlustre\n"
            ));
        }
    }
    darshan::parse::parse_text(&text).expect("crafted trace parses")
}

#[test]
fn counters_at_i64_max_still_diagnose() {
    let trace = saturating_trace();
    assert_eq!(trace.total_bytes(), i64::MAX as u64);
    let fragments = preprocessor::extract_fragments(&trace);
    assert!(!fragments.is_empty());

    let service = DiagnosisService::start(ServiceConfig::with_workers(1).cache_capacity(0));
    let result = service
        .submit(JobRequest::new("huge", trace, "gpt-4o"))
        .expect("submit")
        .wait();
    assert_eq!(result.failure, None, "the job failed instead of diagnosing");
    assert!(!result.diagnosis.text.is_empty());
    let reply = ioagentd::protocol::render_result(&result);
    assert!(!reply.contains("error_kind"), "{reply}");
    service.shutdown();
}
