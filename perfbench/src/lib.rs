//! `perfbench` — the repository's end-to-end benchmark.
//!
//! One run drives one workload through `ioagentd`'s public request path
//! in-process, checks every reply against a plain fault-free `IoAgent`
//! run of the same request, and reports end-to-end metrics. With tracing
//! on it also replays the same requests layer by layer (see [`traced`])
//! and reports per-layer metrics instead. See `perfbench/README.md`.

pub mod check;
pub mod drive;
pub mod spec;
pub mod stats;
pub mod traced;

use check::Reply;
use drive::{Drive, Sample};
use ioagentd::protocol::{self, Request};
use ioagentd::{
    DiagnosisService, HedgePolicy, IndexProvenance, ResiliencePolicy, Retriever, ServiceConfig,
    ServiceStats,
};
use iostore::ResultStore;
use simllm::{FaultPlan, FaultSpec, LatencyProfile, TailSpec};
use spec::{Requests, Workload, COUNTED, REMOTE_DEADLINE, REMOTE_RATE_PER_S, REMOTE_WORKERS};
use stats::{mean, median, quantile, ratio, Metrics};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tracebench::TraceBench;

/// Service starts timed per batch. A run times two batches, one before
/// the drive and one after it; `setup_s` is the fastest start of both.
pub const SETUP_REPS: usize = 40;

/// `restart_repeat` preparation requests diagnosed per batch (small, so
/// the preparation's own peak memory stays low).
const PREP_BATCH: usize = 24;

/// The traced run is flagged when its named layers explain less than
/// this share of the replayed worker path.
pub const COVERAGE_MIN: f64 = 0.9;

/// An open-loop send is late when it leaves this long after its slot.
pub const LATE_MS: f64 = 10.0;

/// `remote_llm` is invalid (not slow) when more than this share of its
/// sends were late: the generator fell behind its schedule. A single stall
/// of the machine is not that; its backlog goes out at once, charged from
/// the scheduled slots, and makes only a few sends late.
pub const LATE_FRAC_LIMIT: f64 = 0.05;

/// Reply collectors on the open loop (far above the jobs in flight at
/// the fixed rate, so no reply waits behind another).
const WAITERS: usize = 64;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the request stream.
    pub seed: u64,
    /// Measured window. A traced run splits it: the first half drives the
    /// service, the second half replays layer by layer.
    pub window: Duration,
    /// Replay layer by layer and report per-layer metrics.
    pub trace: bool,
    /// Directory for scratch state (created, and removed again).
    pub work_root: PathBuf,
}

/// Why a run produced no numbers.
#[derive(Debug)]
pub enum Failure {
    /// A reply differed from the reference, or the run went wrong.
    Incorrect(String),
    /// The open-loop generator fell behind its schedule.
    Invalid(String),
}

/// What a successful run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that got no diagnosis.
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Deterministic counters, which repeat exactly at one seed.
    pub exact: Metrics,
    /// Human-readable notes printed above the metrics.
    pub notes: Vec<String>,
}

fn incorrect(e: impl std::fmt::Display) -> Failure {
    Failure::Incorrect(e.to_string())
}

/// Streaming profile of a fast hosted model (800 µs to first token,
/// 150k tokens/s) with a 3% heavy tail and 0.5% each of injected
/// timeouts, rate limits and truncations.
pub fn chaos_plan() -> FaultPlan {
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

/// Three bounded retries with decorrelated backoff, and hedging after
/// max(6 ms, observed p95 attempt latency).
pub fn countermeasures() -> ResiliencePolicy {
    ResiliencePolicy::default()
        .retries(3)
        .backoff(Duration::from_millis(2), Duration::from_millis(20))
        .hedged(HedgePolicy {
            quantile: 0.95,
            min_delay: Duration::from_millis(6),
        })
}

/// Cores available to the process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn service_config(workload: Workload, state_dir: &Path) -> ServiceConfig {
    match workload {
        Workload::TracebenchCpu => ServiceConfig::with_workers(cores()).cache_capacity(0),
        Workload::RemoteLlm => ServiceConfig::with_workers(REMOTE_WORKERS)
            .cache_capacity(0)
            .queue_capacity(1 << 16)
            .fault_plan(chaos_plan())
            .deadline(REMOTE_DEADLINE)
            .resilience(countermeasures()),
        Workload::RestartRepeat => ServiceConfig::with_workers(cores()).state_dir(state_dir),
    }
}

/// Scratch directory, removed (with its parent, when left empty) on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path) -> Result<Self, Failure> {
        let dir = root.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(incorrect)?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Replace `dst` with a copy of the flat directory `src`.
fn fresh_copy(src: &Path, dst: &Path) -> Result<(), Failure> {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).map_err(incorrect)?;
    for entry in std::fs::read_dir(src).map_err(incorrect)? {
        let entry = entry.map_err(incorrect)?;
        std::fs::copy(entry.path(), dst.join(entry.file_name())).map_err(incorrect)?;
    }
    Ok(())
}

/// Untimed preparation for `restart_repeat`: diagnose the preparation
/// rounds through a persistent service, leaving a v3 index snapshot and a
/// journal of their results in `dir`.
fn prepare_state(requests: &Requests, dir: &Path) -> Result<(), Failure> {
    let _ = std::fs::remove_dir_all(dir);
    let service = DiagnosisService::start(
        ServiceConfig::with_workers(cores())
            .state_dir(dir)
            .cache_capacity(0),
    );
    let mut fresh = true;
    for first in (0..requests.prep_len()).step_by(PREP_BATCH) {
        let mut jobs = Vec::with_capacity(PREP_BATCH);
        for i in first..(first + PREP_BATCH).min(requests.prep_len()) {
            let job = requests.prep_job(i);
            match protocol::parse_line(&requests.line(&job), &job.id) {
                Ok(Request::Job(request)) => jobs.push(*request),
                other => {
                    return Err(incorrect(format!(
                        "{}: bad preparation line: {other:?}",
                        job.id
                    )))
                }
            }
        }
        let results = service.run_batch(jobs).map_err(incorrect)?;
        fresh &= results.iter().all(|r| r.failure.is_none() && !r.cached);
    }
    let stats = service.stats();
    service.shutdown();
    if !fresh || stats.persisted_entries as usize != requests.prep_len() {
        return Err(incorrect(format!(
            "preparation journaled {} of {} jobs",
            stats.persisted_entries,
            requests.prep_len()
        )));
    }
    let state = iostore::StateDir::new(dir).map_err(incorrect)?;
    if !state.index_path().is_file() {
        return Err(incorrect("preparation left no index snapshot"));
    }
    Ok(())
}

/// Time a batch of `SETUP_REPS` service starts (each `restart_repeat`
/// start from a fresh copy of the prepared state) and keep the last
/// service.
fn set_up(
    workload: Workload,
    seed_state: Option<&Path>,
    run_state: &Path,
) -> Result<(DiagnosisService, Vec<f64>), Failure> {
    let config = service_config(workload, run_state);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(seed) = seed_state {
            fresh_copy(seed, run_state)?;
        }
        if let Some(previous) = last.take() {
            DiagnosisService::shutdown(previous);
        }
        let start = Instant::now();
        let service = DiagnosisService::start(config.clone());
        times.push(start.elapsed().as_secs_f64());
        if seed_state.is_some()
            && (!service.persistence_active()
                || service.index_provenance() != Some(&IndexProvenance::Snapshot))
        {
            return Err(incorrect(format!(
                "restart did not load the prepared state: {:?}",
                service.index_provenance()
            )));
        }
        last = Some(service);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// Run one workload once.
pub fn run(opts: &Options) -> Result<Outcome, Failure> {
    let workload = opts.workload;
    let suite = TraceBench::generate();
    let requests = Requests::new(&suite, workload, opts.seed);
    let work = WorkDir::create(&opts.work_root)?;
    let journaled = workload == Workload::RestartRepeat;

    let seed_state = work.path("seed");
    if journaled {
        prepare_state(&requests, &seed_state)?;
    }
    // `rss_mb` covers the set-ups and the timed stream, not the
    // preparation before them.
    let prep_rss_mb = stats::peak_rss_mib();
    let rss_reset = stats::reset_peak_rss();
    let run_state = work.path("run");
    let set_up_state = journaled.then_some(seed_state.as_path());
    let (service, mut setup_times) = set_up(workload, set_up_state, &run_state)?;

    let window = if opts.trace {
        opts.window / 2
    } else {
        opts.window
    };
    let drive = match workload {
        Workload::RemoteLlm => drive::open_loop(
            &service,
            &requests,
            REMOTE_RATE_PER_S,
            window,
            WAITERS,
            LATE_MS,
        ),
        // Two requests per worker: the queue never runs dry while a client
        // parses or renders, so the loop measures the service rather than
        // its clients' hand-offs (one per worker left the workers idle for
        // a scheduler-dependent share of each job).
        _ => drive::closed_loop(&service, &requests, 2 * cores(), window),
    };
    let service_stats = service.stats();
    let retriever = service.retriever();
    service.shutdown();
    // The second batch, a window after the first: the machine's slow
    // phases last seconds and move every start in them, so the fastest
    // start of both batches is the set-up's own cost.
    let (again, later) = set_up(workload, set_up_state, &run_state)?;
    again.shutdown();
    setup_times.extend(later);
    let setup_s = setup_times.iter().copied().fold(f64::INFINITY, f64::min);

    let mut notes = vec![format!(
        "workload {} seed {} window {:.1}s on {} cores, {} requests in {:.2}s",
        workload.name(),
        opts.seed,
        window.as_secs_f64(),
        cores(),
        drive.samples.len(),
        drive.wall_s
    )];
    notes.push(format!(
        "set-up over 2 x {SETUP_REPS} starts: fastest {setup_s:.6} s, median {:.6} s, third quartile {:.6} s",
        median(&setup_times),
        quantile(&setup_times, 0.75)
    ));
    notes.push(if rss_reset {
        format!("peak RSS before set-up {prep_rss_mb:.1} MiB, reset so rss_mb starts at set-up")
    } else {
        format!(
            "peak RSS could not be reset: rss_mb includes the {prep_rss_mb:.1} MiB before set-up"
        )
    });
    if workload == Workload::RemoteLlm {
        let late_frac = ratio(drive.late as f64, drive.samples.len() as f64);
        notes.push(format!(
            "open loop at {REMOTE_RATE_PER_S}/s on {REMOTE_WORKERS} workers; generator lag max {:.3} ms; {} sends more than {LATE_MS} ms late (limit {LATE_FRAC_LIMIT} of sends)",
            drive.lag_ms_max, drive.late
        ));
        if late_frac > LATE_FRAC_LIMIT {
            return Err(Failure::Invalid(format!(
                "the generator fell behind its schedule: {late_frac:.4} of sends were more than {LATE_MS} ms late (limit {LATE_FRAC_LIMIT}), so the offered load was not the fixed rate"
            )));
        }
    }

    let traced = if opts.trace {
        Some(replay(
            workload,
            &requests,
            retriever,
            &seed_state,
            &work,
            window,
        )?)
    } else {
        None
    };

    // Correctness before any number.
    let checked = check_replies(workload, &requests, &drive, traced.as_ref().map(|t| &t.0))?;
    let (failed, duplicate_calls) = (checked.failed, checked.duplicate_calls);
    notes.extend(checked.notes);
    let counted = counted(&drive)?;
    let f1 = check::label_f1(
        &requests,
        counted.iter().filter_map(|s| match &s.reply {
            Reply::Ok { issues, .. } => Some((issues.as_slice(), s.job.content.trace)),
            Reply::Failed { .. } => None,
        }),
    );
    let reference_f1 = check::label_f1(
        &requests,
        counted.iter().filter(|s| s.ok()).map(|s| {
            let expected = &checked.expected[&check::diagnosis_key(&s.job.content)];
            (expected.issues.as_slice(), s.job.content.trace)
        }),
    );
    if f1 != reference_f1 {
        return Err(incorrect(format!(
            "label F1 {f1} differs from the fault-free IoAgent run's {reference_f1}"
        )));
    }
    let cost = cost_metrics(&counted, f1);
    // Billed hedge duplicates depend on timing, so under hedging only the
    // label F1 of the cost block repeats exactly.
    let hedged = workload == Workload::RemoteLlm;
    let mut exact = Metrics::default();
    exact.0.extend(
        cost.0
            .iter()
            .filter(|m| !hedged || m.name == "label_f1")
            .cloned(),
    );

    // A request that got no diagnosis is charged at least the deadline, so
    // a change that fails or sheds slow jobs reads as slower, not faster.
    let charged_ms = |s: &Sample| {
        if s.ok() {
            s.latency_ms
        } else {
            s.latency_ms.max(REMOTE_DEADLINE.as_secs_f64() * 1e3)
        }
    };
    let latencies = |keep: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        drive
            .samples
            .iter()
            .filter(|s| keep(s))
            .map(charged_ms)
            .collect()
    };
    let ok: Vec<&Sample> = drive.samples.iter().filter(|s| s.ok()).collect();
    let all_ms = latencies(&|_| true);
    let miss_ms = latencies(&|s| !s.cached());
    let hit_ms = latencies(&|s| s.cached());
    if all_ms.len() < 1000 {
        notes.push(format!(
            "only {} replies: fewer than 10 lie beyond job_ms_p99",
            all_ms.len()
        ));
    }

    let metrics = match &traced {
        None => {
            let mut m = Metrics::default();
            m.push("diag_per_s", ok.len() as f64 / drive.wall_s, "1/s");
            m.push("job_ms_p50", quantile(&all_ms, 0.5), "ms");
            m.push("job_ms_p99", quantile(&all_ms, 0.99), "ms");
            m.push("miss_ms_p50", quantile(&miss_ms, 0.5), "ms");
            m.push("setup_s", setup_s, "s");
            m.push("rss_mb", drive.rss_mb, "MiB");
            m.0.extend(cost.0.iter().cloned());
            notes.push(format!(
                "hit_ms_p50 {:.4} ms over {} cache/journal hits; fail_frac {}",
                quantile(&hit_ms, 0.5),
                hit_ms.len(),
                ratio(failed as f64, drive.samples.len() as f64)
            ));
            m
        }
        Some((trace, open_ms, load_ms)) => {
            let fresh: Vec<&&Sample> = ok.iter().filter(|s| !s.cached()).collect();
            let queue_wait: Vec<f64> = fresh.iter().map(|s| s.queue_wait_ms).collect();
            let exec: Vec<f64> = fresh.iter().map(|s| s.exec_ms).collect();
            let submit: Vec<f64> = drive.samples.iter().map(|s| s.submit_ms).collect();
            let m = layer_metrics(
                trace,
                &service_stats,
                &LayerInputs {
                    queue_wait_ms_p50: quantile(&queue_wait, 0.5),
                    queue_wait_ms_p99: quantile(&queue_wait, 0.99),
                    exec_ms_p50: quantile(&exec, 0.5),
                    submit_ms: mean(&submit),
                    hit_ms_p50: quantile(&hit_ms, 0.5),
                    journal_open_ms: *open_ms,
                    snapshot_load_ms: *load_ms,
                    drive: &drive,
                    failed,
                    duplicate_calls,
                },
            );
            for name in EXACT_LAYER_METRICS {
                exact
                    .0
                    .push(m.find(name).expect("exact layer metric").clone());
            }
            let coverage = m.get("trace.coverage").unwrap_or(0.0);
            notes.push(format!(
                "traced run: {} jobs in {:.2}s; coverage {:.4} of the worker path; tracing overhead {:+.4} (diagnose over the timed against the bare backbone, same threads)",
                trace.all.jobs,
                trace.wall_s,
                coverage,
                m.get("trace.overhead").unwrap_or(0.0)
            ));
            if coverage < COVERAGE_MIN {
                notes.push(format!(
                    "FLAG: traced-run coverage {coverage:.4} is below {COVERAGE_MIN}; the per-layer split misses part of the job"
                ));
            }
            m
        }
    };
    Ok(Outcome {
        attempted: drive.samples.len(),
        failed,
        metrics,
        exact,
        notes,
    })
}

/// Per-layer metrics that count work rather than time it; like the LLM
/// cost they repeat exactly at one seed.
const EXACT_LAYER_METRICS: [&str; 11] = [
    "llm.filter.calls",
    "llm.transform.calls",
    "llm.diagnose.calls",
    "llm.merge.calls",
    "llm.in_tokens",
    "llm.out_tokens",
    "rag.kept_ratio",
    "darshan.lines",
    "preprocess.fragments",
    "vecindex.rows_scored",
    "journal.bytes_per_record",
];

/// What checking the replies found.
struct Checked {
    /// Reference runs, keyed by [`check::diagnosis_key`].
    expected: HashMap<spec::Content, check::Expected>,
    /// Replies without a diagnosis (allowed on `remote_llm` only).
    failed: usize,
    /// LLM calls billed beyond the reference (hedged duplicates).
    duplicate_calls: u64,
    /// One note per failed request.
    notes: Vec<String>,
}

/// Check every reply of the drive and of the traced run against a plain,
/// fault-free `IoAgent` run of the same request.
fn check_replies(
    workload: Workload,
    requests: &Requests,
    drive: &Drive,
    traced: Option<&traced::Trace>,
) -> Result<Checked, Failure> {
    let index = Arc::new(Retriever::build());
    let traced_replies = traced.into_iter().flat_map(|t| t.replies.iter());
    let expected = check::reference_runs(
        requests,
        &index,
        drive
            .samples
            .iter()
            .map(|s| s.job.content)
            .chain(traced_replies.clone().map(|(j, _)| j.content)),
        cores(),
    );
    let hedged = workload == Workload::RemoteLlm;
    let verify = |job: &spec::Job, digest: &check::Digest, cached: bool| {
        let shared = &expected[&check::diagnosis_key(&job.content)];
        check::compare(&job.id, digest, cached, job.repeat, hedged, shared).or_else(|_| {
            let own = check::reference_run(requests, &index, &job.content);
            check::compare(&job.id, digest, cached, job.repeat, hedged, &own)
        })
    };
    let (mut failed, mut duplicate_calls, mut notes) = (0, 0, Vec::new());
    for sample in &drive.samples {
        match &sample.reply {
            Reply::Ok { digest, cached, .. } => {
                duplicate_calls +=
                    verify(&sample.job, digest, *cached).map_err(Failure::Incorrect)?
            }
            Reply::Failed { kind } if hedged => {
                failed += 1;
                notes.push(format!("{} failed: {kind}", sample.job.id));
            }
            Reply::Failed { kind } => {
                return Err(incorrect(format!(
                    "{} failed on a fault-free workload: {kind}",
                    sample.job.id
                )))
            }
        }
    }
    for (job, reply) in traced_replies {
        if let Reply::Ok { digest, cached, .. } = reply {
            verify(job, digest, *cached)
                .map_err(|e| Failure::Incorrect(format!("traced run: {e}")))?;
        }
    }
    Ok(Checked {
        expected,
        failed,
        duplicate_calls,
        notes,
    })
}

/// The user's LLM cost per diagnosis and the label F1 over the counted
/// rounds. Sums run in stream order, so the float totals repeat exactly.
fn cost_metrics(counted: &[&Sample], f1: f64) -> Metrics {
    let (mut calls, mut tokens, mut usd) = (0u64, 0u64, 0.0f64);
    for sample in counted {
        if let Reply::Ok {
            digest, cost_usd, ..
        } = &sample.reply
        {
            calls += digest.llm_calls;
            tokens += digest.input_tokens + digest.output_tokens;
            usd += cost_usd;
        }
    }
    let n = counted.len() as f64;
    let mut m = Metrics::default();
    m.push("llm_calls_per_diag", calls as f64 / n, "count");
    m.push("tokens_per_diag", tokens as f64 / n, "count");
    m.push("usd_per_diag", usd / n, "USD");
    m.push("label_f1", f1, "ratio");
    m
}

/// The counted rounds' samples, in stream order (the exact counters are
/// taken over them, so they repeat at one seed whatever the speed).
fn counted(drive: &Drive) -> Result<Vec<&Sample>, Failure> {
    let mut counted: Vec<&Sample> = drive.samples.iter().filter(|s| s.job.counted()).collect();
    counted.sort_by_key(|s| s.job.index);
    if counted.len() != COUNTED {
        return Err(incorrect(format!(
            "only {} of the {COUNTED} counted requests were sent",
            counted.len()
        )));
    }
    Ok(counted)
}

/// The traced replay, with `restart_repeat`'s journal and snapshot
/// timings (median of `SETUP_REPS` each, ms).
fn replay(
    workload: Workload,
    requests: &Requests,
    retriever: Arc<Retriever>,
    seed_state: &Path,
    work: &WorkDir,
    window: Duration,
) -> Result<(traced::Trace, f64, f64), Failure> {
    let mut store = None;
    let (mut open_ms, mut load_ms) = (Vec::new(), Vec::new());
    if workload == Workload::RestartRepeat {
        let state_dir = work.path("replay");
        for _ in 0..SETUP_REPS {
            fresh_copy(seed_state, &state_dir)?;
            let state = iostore::StateDir::new(&state_dir).map_err(incorrect)?;
            let start = Instant::now();
            let index = iostore::load_index(&state.index_path(), &Retriever::index_spec())
                .map_err(|e| incorrect(format!("snapshot load: {e}")))?;
            load_ms.push(start.elapsed().as_secs_f64() * 1e3);
            drop(index);
            let start = Instant::now();
            let opened = ResultStore::open(state.results_path()).map_err(incorrect)?;
            open_ms.push(start.elapsed().as_secs_f64() * 1e3);
            store = Some(opened);
        }
    }
    let setup = traced::Setup {
        requests,
        retriever,
        store: store.map(Mutex::new),
        faults: (workload == Workload::RemoteLlm).then(|| (chaos_plan(), countermeasures())),
        threads: match workload {
            Workload::RemoteLlm => REMOTE_WORKERS,
            _ => cores(),
        },
        // A traced job does about three times an untraced job's CPU work
        // (the retrieval is replayed on its own, and the diagnosis runs
        // again over the bare backbone), so a third of the rate keeps the
        // cores about as busy as in the untraced run.
        pace: (workload == Workload::RemoteLlm).then_some(REMOTE_RATE_PER_S / 3.0),
    };
    let trace = traced::replay(&setup, window).map_err(Failure::Incorrect)?;
    Ok((trace, median(&open_ms), median(&load_ms)))
}

/// Numbers from the untraced run that the per-layer report carries.
struct LayerInputs<'a> {
    queue_wait_ms_p50: f64,
    queue_wait_ms_p99: f64,
    exec_ms_p50: f64,
    submit_ms: f64,
    hit_ms_p50: f64,
    journal_open_ms: f64,
    snapshot_load_ms: f64,
    drive: &'a Drive,
    failed: usize,
    duplicate_calls: u64,
}

/// The per-layer metrics, in `BENCHMARK.json` order. Counts are per
/// request over the counted rounds; busy times are per request over every
/// replayed request.
fn layer_metrics(trace: &traced::Trace, stats: &ServiceStats, input: &LayerInputs) -> Metrics {
    let (counted, all) = (&trace.counted, &trace.all);
    let per_counted = |v: u64| ratio(v as f64, counted.jobs as f64);
    let ms_per_job = |ns: u64| ratio(ns as f64 / 1e6, all.jobs as f64);
    let mut m = Metrics::default();
    m.push(
        "llm.filter.calls",
        per_counted(counted.calls("filter")),
        "count",
    );
    m.push("llm.filter.ms", ms_per_job(all.task_ns("filter")), "ms");
    m.push("rag.retrieve_ms", ms_per_job(all.retrieve_ns), "ms");
    m.push(
        "rag.kept_ratio",
        ratio(counted.kept as f64, counted.calls("filter") as f64),
        "ratio",
    );
    for task in ["transform", "diagnose", "merge"] {
        let (calls, busy) = match task {
            "transform" => ("llm.transform.calls", "llm.transform.ms"),
            "diagnose" => ("llm.diagnose.calls", "llm.diagnose.ms"),
            _ => ("llm.merge.calls", "llm.merge.ms"),
        };
        m.push(calls, per_counted(counted.calls(task)), "count");
        m.push(busy, ms_per_job(all.task_ns(task)), "ms");
    }
    m.push(
        "llm.in_tokens",
        per_counted(counted.llm.iter().map(|t| t.in_tokens).sum()),
        "count",
    );
    m.push(
        "llm.out_tokens",
        per_counted(counted.llm.iter().map(|t| t.out_tokens).sum()),
        "count",
    );
    m.push("darshan.parse_ms", ms_per_job(all.darshan_parse_ns), "ms");
    m.push(
        "darshan.parse_ms_max",
        all.darshan_parse_max_ns as f64 / 1e6,
        "ms",
    );
    m.push("darshan.lines", per_counted(counted.darshan_lines), "count");
    m.push("protocol.parse_ms", ms_per_job(all.protocol_parse_ns), "ms");
    m.push("preprocess.ms", ms_per_job(all.preprocess_ns), "ms");
    m.push(
        "preprocess.ms_max",
        all.preprocess_max_ns as f64 / 1e6,
        "ms",
    );
    m.push(
        "preprocess.fragments",
        per_counted(counted.fragments),
        "count",
    );
    m.push("vecindex.search_ms", ms_per_job(all.search_ns), "ms");
    m.push(
        "vecindex.rows_scored",
        per_counted(counted.rows_scored),
        "count",
    );
    m.push("embed.ms", ms_per_job(all.embed_ns), "ms");
    m.push("agent.diagnose_ms", ms_per_job(all.diagnose_ns), "ms");
    m.push(
        "agent.other_ms",
        ratio(all.agent_other_ns() / 1e6, all.jobs as f64),
        "ms",
    );
    m.push("protocol.render_ms", ms_per_job(all.render_ns), "ms");
    m.push("service.queue_wait_ms_p50", input.queue_wait_ms_p50, "ms");
    m.push("service.queue_wait_ms_p99", input.queue_wait_ms_p99, "ms");
    m.push("service.exec_ms_p50", input.exec_ms_p50, "ms");
    m.push("resilience.retries", stats.retries as f64, "count");
    m.push("resilience.hedges", stats.hedges as f64, "count");
    m.push(
        "resilience.hedge_win_ratio",
        ratio(stats.hedge_wins as f64, stats.hedges as f64),
        "ratio",
    );
    m.push(
        "resilience.faults",
        (stats.faults_timeout + stats.faults_rate_limited + stats.faults_truncated) as f64,
        "count",
    );
    m.push("resilience.shed", stats.shed_total as f64, "count");
    m.push(
        "resilience.duplicate_calls",
        input.duplicate_calls as f64,
        "count",
    );
    m.push("darshan.canon_ms", ms_per_job(all.canon_ns), "ms");
    m.push("service.submit_ms", input.submit_ms, "ms");
    m.push(
        "service.cache_hit_ratio",
        ratio(stats.cache_hits as f64, stats.jobs_completed as f64),
        "ratio",
    );
    m.push("hit_ms_p50", input.hit_ms_p50, "ms");
    m.push(
        "journal.insert_ms",
        ratio(all.journal_insert_ns as f64 / 1e6, all.inserts as f64),
        "ms",
    );
    m.push(
        "journal.bytes_per_record",
        ratio(counted.insert_bytes as f64, counted.inserts as f64),
        "bytes",
    );
    m.push("journal.open_ms", input.journal_open_ms, "ms");
    m.push("snapshot.load_ms", input.snapshot_load_ms, "ms");
    let sent = input.drive.samples.len();
    m.push("loadgen.lag_ms_max", input.drive.lag_ms_max, "ms");
    m.push("loadgen.late", input.drive.late as f64, "count");
    m.push("loadgen.sent", sent as f64, "count");
    m.push("loadgen.succeeded", (sent - input.failed) as f64, "count");
    m.push("loadgen.failed", input.failed as f64, "count");
    m.push(
        "fail_frac",
        ratio(input.failed as f64, sent as f64),
        "ratio",
    );
    m.push(
        "trace.coverage",
        ratio(all.accounted_ns() as f64, all.path_ns as f64),
        "ratio",
    );
    m.push(
        "trace.overhead",
        ratio(median(&trace.diagnose_ms), median(&trace.plain_ms)) - 1.0,
        "ratio",
    );
    m.push("trace.jobs", all.jobs as f64, "count");
    m
}
