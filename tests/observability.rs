//! The observability bargain, pinned end to end:
//!
//! - tracing **off** (the default) and tracing **on** produce
//!   byte-identical diagnoses over a seed-corpus batch;
//! - with tracing on, folding the emitted spans attributes >= 95% of
//!   every job's wall time to named `stage.*` spans;
//! - the per-stage latency report is internally consistent.
//!
//! The global tracer is set-once per process, so the off-then-on
//! ordering lives in ONE test function: the disabled phase must finish
//! before `init_tracer` installs the memory tracer for the enabled
//! phase. (Each file under `tests/` is its own test binary, so no other
//! test can race the installation.)

use ioagentd::{DiagnosisService, JobRequest, ServiceConfig};
use ioobserve::{fold_spans, Tracer, JOB_SPAN, STAGE_PREFIX};
use tracebench::TraceBench;

/// A 16-job batch over the seed corpus, mixed models.
fn workload(suite: &TraceBench) -> Vec<JobRequest> {
    let models = ["gpt-4o", "gpt-4o-mini", "llama-3.1-70b"];
    suite
        .entries
        .iter()
        .cycle()
        .take(16)
        .enumerate()
        .map(|(i, entry)| {
            JobRequest::new(
                format!("job-{i}-{}", entry.spec.id),
                entry.trace.clone(),
                models[i % models.len()],
            )
        })
        .collect()
}

#[test]
fn tracing_is_invisible_to_diagnoses_and_attributes_job_time() {
    let suite = TraceBench::generate();
    let jobs = workload(&suite);

    // Phase 1: tracing disabled (nothing has installed a global tracer
    // in this process). Caches off so the traced rerun below re-executes
    // every job instead of answering from the result cache.
    assert!(!ioobserve::tracer().enabled());
    let off_service = DiagnosisService::start(ServiceConfig::with_workers(4).cache_capacity(0));
    let off = off_service.run_batch(jobs.clone()).unwrap();
    let retriever = off_service.retriever();
    off_service.shutdown();

    // Phase 2: install a fine-detail memory tracer and rerun the same
    // batch on a fresh service over the same knowledge index.
    assert!(ioobserve::init_tracer(Tracer::memory().with_fine_detail()));
    assert!(ioobserve::tracer().enabled());
    let on_service = DiagnosisService::with_shared_index(
        ServiceConfig::with_workers(4).cache_capacity(0),
        retriever,
    );
    let on = on_service.run_batch(jobs.clone()).unwrap();
    // Joining the workers flushes their span buffers.
    on_service.shutdown();

    // Byte identity: tracing must never perturb the pipeline.
    assert_eq!(off.len(), on.len());
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.diagnosis.text, b.diagnosis.text,
            "{}: diagnosis text changed under tracing",
            a.id
        );
        assert_eq!(a.diagnosis.issues, b.diagnosis.issues);
        assert_eq!(a.diagnosis.references, b.diagnosis.references);
        assert_eq!(a.metrics.llm_calls, b.metrics.llm_calls);
    }

    // Fold the trace: every job decomposes into stage spans.
    let records = ioobserve::tracer().drain_memory();
    let report = fold_spans(&records);
    assert_eq!(report.jobs, jobs.len() as u64, "one root job span per job");
    assert!(
        report.coverage_min >= 0.95,
        "stage spans must attribute >= 95% of every job's wall time, \
         got min {:.3} (mean {:.3})",
        report.coverage_min,
        report.coverage_mean
    );

    // The expected pipeline stages all appear.
    let stage_names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "stage.queue_wait",
        "stage.preprocess",
        "stage.fragments",
        "stage.fragment",
        "stage.retrieve",
        "stage.llm",
        "stage.merge",
        "stage.render",
        "stage.reply",
    ] {
        assert!(
            stage_names.contains(&expected),
            "missing {expected} in {stage_names:?}"
        );
    }

    // Report sanity: rows are internally consistent and shares are sane.
    for row in &report.stages {
        assert!(row.name.starts_with(STAGE_PREFIX));
        assert!(row.count > 0);
        assert!(row.p50_ns <= row.p99_ns);
        assert!(
            row.mean_ns as u128 * row.count as u128 <= row.total_ns as u128 + row.count as u128
        );
        assert!((0.0..=1.0).contains(&row.share));
    }
    let roots = records
        .iter()
        .filter(|r| r.parent == 0 && r.name == JOB_SPAN)
        .count();
    assert_eq!(roots as u64, report.jobs);

    // One `stage.llm` span per wave of backbone calls, and the job root
    // carries the wave count: one per `stage.llm` span under it.
    let waves: Vec<&ioobserve::SpanRecord> =
        records.iter().filter(|r| r.name == "stage.llm").collect();
    assert!(waves.iter().all(
        |w| w.attr("calls").and_then(|c| c.parse::<usize>().ok()) > Some(0)
            && w.attr("op").is_some()
    ));
    let mut total_waves = 0;
    for root in records.iter().filter(|r| r.name == JOB_SPAN) {
        let count: usize = root
            .attr("llm_waves")
            .and_then(|w| w.parse().ok())
            .expect("every fresh job records llm_waves");
        assert!(count >= 2, "{count} waves");
        total_waves += count;
    }
    assert_eq!(total_waves, waves.len());
    let table = report.render_table();
    assert!(table.contains("stage.llm"), "table:\n{table}");
}
