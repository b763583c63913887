//! `ioagentd` — a long-lived, concurrent batch-diagnosis service over the
//! IOAgent pipeline.
//!
//! The per-trace CLI (`ioagent`) rebuilds the knowledge index and tears
//! everything down for every invocation. This crate provides the serving
//! layer the ROADMAP's production north star needs:
//!
//! - **Shared knowledge index** ([`service::Retriever`] behind an `Arc`):
//!   built once at startup, shared read-only by all workers.
//! - **Bounded job queue** ([`queue::BoundedQueue`]): producers block when
//!   the workers fall behind — backpressure all the way to the socket.
//! - **Worker pool** ([`service::DiagnosisService`]): N threads, each job
//!   diagnosed with private models so results are bit-identical to a
//!   sequential [`ioagent_core::IoAgent`] run and usage accounting is
//!   strictly per job.
//! - **LRU result cache** ([`cache::LruCache`]): repeated submissions of
//!   the same (trace, model, config) are answered with zero LLM calls.
//! - **Persistence** (`iostore` via [`ServiceConfig::state_dir`]): the
//!   LRU reads through to a disk-backed result journal and the knowledge
//!   index loads from a versioned snapshot, so restarts answer
//!   previously-seen jobs with zero LLM calls too. Off by default;
//!   byte-identical results either way.
//! - **NDJSON front end** ([`protocol`] + the `ioagentd` binary): newline
//!   delimited JSON requests on stdin or TCP, responses in order on the
//!   same transport. Request lines are size-capped and malformed lines
//!   are answered with structured errors instead of poisoning the
//!   stream; `{"stats": true}` probes the service counters in-band.

pub mod cache;
pub mod protocol;
pub mod queue;
pub mod resilience;
pub mod service;
pub mod top;

pub use cache::LruCache;
pub use queue::BoundedQueue;
pub use resilience::{JobFailure, ResilientLlm};
pub use service::{
    DiagnosisService, IndexProvenance, JobMetrics, JobRequest, JobResult, JobTicket, Retriever,
    ServiceConfig, ServiceStats, SubmitError,
};
pub use simllm::{HedgePolicy, ResilienceCounters, ResiliencePolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use tracebench::TraceBench;

    #[test]
    fn service_diagnoses_and_accounts() {
        let suite = TraceBench::generate();
        let service = DiagnosisService::start(ServiceConfig::with_workers(2));
        let jobs: Vec<JobRequest> = suite
            .entries
            .iter()
            .take(3)
            .map(|e| JobRequest::new(e.spec.id, e.trace.clone(), "gpt-4o-mini"))
            .collect();
        let results = service.run_batch(jobs).unwrap();
        assert_eq!(results.len(), 3);
        for (r, e) in results.iter().zip(suite.entries.iter()) {
            assert_eq!(r.id, e.spec.id);
            assert!(!r.cached);
            assert!(r.metrics.llm_calls > 0);
            assert!(r.metrics.cost_usd > 0.0);
            assert!(!r.diagnosis.text.is_empty());
        }
        let stats = service.stats();
        assert_eq!(stats.jobs_completed, 3);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(
            stats.llm_calls,
            results
                .iter()
                .map(|r| r.metrics.llm_calls as u64)
                .sum::<u64>()
        );
        service.shutdown();
    }

    #[test]
    fn unknown_model_rejected_before_enqueue() {
        let suite = TraceBench::generate();
        let service = DiagnosisService::start(ServiceConfig::with_workers(1));
        let bad = JobRequest::new("x", suite.entries[0].trace.clone(), "gpt-17");
        assert_eq!(
            service.submit(bad).unwrap_err(),
            SubmitError::UnknownModel("gpt-17".into())
        );
        // An unknown *reflection* model would panic inside a worker thread
        // (profile_or_panic) and wedge every waiter — it must be rejected
        // at submit time too, and the workers must stay alive after.
        let mut bad_reflection = JobRequest::new("y", suite.entries[0].trace.clone(), "gpt-4o");
        bad_reflection.config.reflection_model = "bogus-mini".into();
        assert_eq!(
            service.submit(bad_reflection).unwrap_err(),
            SubmitError::UnknownModel("bogus-mini".into())
        );
        assert_eq!(service.stats().jobs_completed, 0);
        let ok = JobRequest::new("z", suite.entries[0].trace.clone(), "gpt-4o-mini");
        assert!(!service.submit(ok).unwrap().wait().diagnosis.text.is_empty());
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let suite = TraceBench::generate();
        let service = DiagnosisService::start(ServiceConfig::with_workers(1));
        let retriever = service.retriever();
        service.shutdown();
        // A fresh service on the same index still works (index survives).
        let service2 =
            DiagnosisService::with_shared_index(ServiceConfig::with_workers(1), retriever);
        let job = JobRequest::new("y", suite.entries[0].trace.clone(), "gpt-4o-mini");
        let result = service2.submit(job).unwrap().wait();
        assert!(!result.diagnosis.text.is_empty());
    }
}
