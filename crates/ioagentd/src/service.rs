//! The diagnosis service: a fixed worker pool draining a bounded job queue
//! over one shared, build-once knowledge index.
//!
//! Concurrency model:
//!
//! - The `Arc<Retriever>` (vector index over the 66-document corpus) is
//!   built once at service start and shared read-only by every worker —
//!   the single most expensive piece of agent construction is amortised
//!   across all jobs.
//! - Each job gets its *own* backbone `SimLlm` and reflection model, so
//!   per-job usage accounting (calls, tokens, cost) never flows through
//!   shared state and results are bit-identical to running the job alone
//!   through [`IoAgent`].
//! - Completed diagnoses enter an LRU cache keyed by (trace fingerprint,
//!   model, config); resubmitting an identical job is answered from the
//!   cache with zero LLM calls.
//! - A job runs on the one worker thread that dequeued it, so the
//!   daemon's threads are its `workers`; a job overlaps its model latency
//!   in `complete_all` waves on that thread, not in threads of its own.
//! - A job that panics is answered as an `internal` failure
//!   (`service.panics`); its worker keeps serving the queue.

use crate::cache::LruCache;
use crate::queue::{BoundedQueue, QueueClosed};
use crate::resilience::{JobFailure, ResilientLlm};
use darshan::DarshanTrace;
use ioagent_core::{AgentConfig, IoAgent};
use ioobserve::{
    Counter, FloatCounter, Gauge, Histogram, MetricsRegistry, MonotonicClock, RegistrySnapshot,
    WindowSpec,
};
use iostore::{ResultKey, ResultStore, StateDir};
use simllm::{Diagnosis, FaultPlan, ResilienceCounters, ResiliencePolicy, SimLlm};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use ioagent_core::rag::{IndexProvenance, Retriever};

/// Service sizing knobs.
///
/// The daemon's threads are its `workers`: one job runs on one worker
/// thread from dequeue to reply, so `workers` jobs run concurrently.
/// Waiting on the model needs no more threads: each pipeline stage's LLM
/// calls go out as one wave and are in flight together on the job's own
/// thread.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (diagnoses running concurrently).
    pub workers: usize,
    /// Job queue bound; producers block (backpressure) when it is full.
    pub queue_capacity: usize,
    /// Result cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Persistent state directory (`None` — the default — keeps the
    /// pre-existing in-memory-only behaviour). When set, completed
    /// diagnoses are journalled to disk and served across restarts, and
    /// the knowledge index is snapshot-loaded instead of rebuilt when the
    /// snapshot matches the live corpus and embedder configuration.
    /// Results are byte-identical either way.
    pub state_dir: Option<PathBuf>,
    /// Default per-job deadline, measured from enqueue (`None` — the
    /// default — is no deadline). A job whose deadline expires in the
    /// queue is shed at dequeue; mid-execution expiry drops in-flight
    /// LLM attempts and fails the job. Per-request `deadline_ms`
    /// overrides this.
    pub deadline: Option<Duration>,
    /// Failure model installed on every job's backbone LLM (`None` — the
    /// default — keeps the fault-free simulator). Content is unaffected:
    /// the plan only injects latency and delivery faults.
    pub fault_plan: Option<FaultPlan>,
    /// Retry/backoff/hedge policy for LLM calls inside each job. Every
    /// job's backbone calls run the one delivery loop under this policy,
    /// the job's deadline and the service's counters; `None` (the
    /// default) runs it as [`ResiliencePolicy::unbounded`], the infinite
    /// patience of a bare `SimLlm`, so only a deadline bounds jobs.
    pub resilience: Option<ResiliencePolicy>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServiceConfig {
            workers,
            queue_capacity: 2 * workers,
            cache_capacity: 256,
            state_dir: None,
            deadline: None,
            fault_plan: None,
            resilience: None,
        }
    }
}

impl ServiceConfig {
    /// Config with an explicit worker count and proportional queue bound.
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        ServiceConfig {
            workers,
            queue_capacity: 2 * workers,
            ..ServiceConfig::default()
        }
    }

    /// Builder-style cache capacity override.
    pub fn cache_capacity(mut self, entries: usize) -> Self {
        self.cache_capacity = entries;
        self
    }

    /// Builder-style queue bound override.
    pub fn queue_capacity(mut self, jobs: usize) -> Self {
        self.queue_capacity = jobs.max(1);
        self
    }

    /// Builder-style persistent state directory override.
    pub fn state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_dir = Some(dir.into());
        self
    }

    /// Builder-style default per-job deadline override.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder-style failure-model override for every job's backbone LLM.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style retry/backoff/hedge policy override.
    pub fn resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = Some(policy);
        self
    }
}

/// One diagnosis job.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Caller-chosen identifier, echoed in the result.
    pub id: String,
    /// The parsed trace to diagnose.
    pub trace: DarshanTrace,
    /// Backbone model profile name (must exist in [`simllm::PROFILES`]).
    pub model: String,
    /// Agent configuration.
    pub config: AgentConfig,
    /// Caller-supplied trace context (`None` → the service generates
    /// one at submit time). Flows into the job's root span as the
    /// `trace_id` attribute and is echoed in the [`JobResult`], so span
    /// files from several processes (client + daemon) can be correlated.
    /// Deliberately **not** part of the cache fingerprint: two identical
    /// jobs under different trace ids share one cached diagnosis.
    pub trace_id: Option<String>,
    /// Per-job deadline override, measured from enqueue (`None` inherits
    /// [`ServiceConfig::deadline`]). Like `trace_id`, deliberately not
    /// part of the cache fingerprint: the deadline changes whether a
    /// diagnosis is delivered in time, never what it says.
    pub deadline: Option<Duration>,
}

impl JobRequest {
    /// Job with the default (paper) agent configuration.
    pub fn new(id: impl Into<String>, trace: DarshanTrace, model: impl Into<String>) -> Self {
        JobRequest {
            id: id.into(),
            trace,
            model: model.into(),
            config: AgentConfig::default(),
            trace_id: None,
            deadline: None,
        }
    }

    /// Builder-style per-job deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Parse `darshan-parser` text into a job.
    pub fn from_trace_text(
        id: impl Into<String>,
        text: &str,
        model: impl Into<String>,
    ) -> Result<Self, String> {
        let trace = darshan::parse::parse_text(text).map_err(|e| e.to_string())?;
        Ok(JobRequest::new(id, trace, model))
    }

    /// Cache key: canonical trace bytes × model × full config. The trace
    /// hash is the simulator's stable FNV-1a (`simllm::rng::stable_hash`)
    /// of `darshan::write::write_text`, streamed straight into the hash
    /// state so the canonical text is never built. The key type is
    /// `iostore`'s [`ResultKey`], so the in-memory LRU and the on-disk
    /// journal index results identically.
    pub fn fingerprint(&self) -> ResultKey {
        let mut canonical = simllm::rng::StableHasher::new();
        darshan::write::write_to(&self.trace, &mut canonical).expect("hashing cannot fail");
        ResultKey {
            trace_hash: canonical.finish(),
            model: self.model.clone(),
            config: format!("{:?}", self.config),
        }
    }
}

/// Per-job token/cost accounting (backbone + reflection models combined).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobMetrics {
    /// LLM completions issued for this job (0 on a cache hit).
    pub llm_calls: usize,
    /// Input tokens consumed.
    pub input_tokens: usize,
    /// Output tokens produced.
    pub output_tokens: usize,
    /// Simulated spend in USD.
    pub cost_usd: f64,
    /// Time spent waiting in the queue.
    pub queue_wait: Duration,
    /// Time spent executing (or answering from cache).
    pub exec: Duration,
}

/// A completed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The request's identifier.
    pub id: String,
    /// The diagnosis (bit-identical to a sequential [`IoAgent`] run).
    pub diagnosis: Diagnosis,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// Worker index that served the job (`usize::MAX` for submit-time
    /// cache hits, which never reach a worker).
    pub worker: usize,
    /// Token/cost/latency accounting.
    pub metrics: JobMetrics,
    /// The job's trace context: the request's own `trace_id` when one
    /// was supplied, otherwise the service-generated id. Matches the
    /// `trace_id` attribute on the job's root span.
    pub trace_id: String,
    /// Why the job produced no diagnosis (`None` on success). Failed
    /// jobs carry an empty [`Diagnosis`], are never cached, and render
    /// as protocol error replies with the matching `error_kind`.
    pub failure: Option<JobFailure>,
}

/// Per-process seed for generated trace ids, so ids from concurrent
/// daemons (multi-process trace merging is the point) cannot collide.
static TRACE_ID_SEED: OnceLock<u64> = OnceLock::new();
static TRACE_ID_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_trace_id() -> String {
    let seed = *TRACE_ID_SEED.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        simllm::rng::stable_hash(&format!("{}:{nanos}", std::process::id()))
    });
    let seq = TRACE_ID_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("{seed:016x}-{seq:08x}")
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The model name matches no known profile.
    UnknownModel(String),
    /// The service is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownModel(m) => write!(f, "unknown model profile {m:?}"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Aggregate service counters (monotonic over the service lifetime,
/// except the two persistence gauges, which snapshot the journal's state
/// at [`DiagnosisService::stats`] time and stay 0 with persistence off).
///
/// Since the observability refactor this struct is a *snapshot view*:
/// the live values are lock-free atomics in the service's private
/// [`MetricsRegistry`] (see the private `ServiceCounters`), read into this struct
/// by [`DiagnosisService::stats`]. The fields — and therefore
/// `render_stats` output — are unchanged from the `Mutex<ServiceStats>`
/// era.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Jobs completed (including cache hits).
    pub jobs_completed: u64,
    /// Jobs answered from the result cache (in-memory LRU or journal).
    pub cache_hits: u64,
    /// Jobs that missed every cache layer and ran a fresh diagnosis.
    pub cache_misses: u64,
    /// Total LLM completions across all jobs.
    pub llm_calls: u64,
    /// Total input tokens across all jobs.
    pub input_tokens: u64,
    /// Total output tokens across all jobs.
    pub output_tokens: u64,
    /// Total simulated spend.
    pub cost_usd: f64,
    /// Distinct results in the on-disk journal (0 with persistence off).
    pub persisted_entries: u64,
    /// Journal file size in bytes (0 with persistence off).
    pub journal_bytes: u64,
    /// Jobs that failed (deadline, fault, retries exhausted). Disjoint
    /// from `jobs_completed`.
    pub jobs_failed: u64,
    /// Jobs shed at dequeue because their deadline expired in the queue.
    pub shed_total: u64,
    /// Jobs failed on a deadline (shed in queue or expired mid-exec).
    pub deadline_exceeded: u64,
    /// Retry rounds entered across all jobs.
    pub retries: u64,
    /// Hedged duplicate requests launched.
    pub hedges: u64,
    /// Races the hedged duplicate won.
    pub hedge_wins: u64,
    /// Injected timeout faults observed.
    pub faults_timeout: u64,
    /// Injected rate-limit faults observed.
    pub faults_rate_limited: u64,
    /// Injected truncation faults observed.
    pub faults_truncated: u64,
}

struct QueuedJob {
    request: JobRequest,
    key: ResultKey,
    /// Resolved trace context (caller-supplied or generated at submit).
    trace_id: String,
    enqueued: Instant,
    /// Enqueue time on the tracer's clock (0 with tracing off), so the
    /// worker can emit the `job` root span and its `stage.queue_wait`
    /// child with the true enqueue instant as their start.
    enqueued_ns: u64,
    /// Absolute deadline (request override or config default, anchored
    /// at submit). Expired-in-queue jobs are shed at dequeue.
    deadline_at: Option<Instant>,
    reply: mpsc::Sender<JobResult>,
}

/// The service's live counters: lock-free atomics in a private
/// [`MetricsRegistry`] (private so several services in one process — the
/// unit tests — never share counters). Instruments are resolved once at
/// construction and then touched without any name lookup or lock on the
/// per-job path; [`DiagnosisService::stats`] reads them into the
/// [`ServiceStats`] snapshot view.
struct ServiceCounters {
    registry: MetricsRegistry,
    jobs_completed: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    errors: Arc<Counter>,
    llm_calls: Arc<Counter>,
    input_tokens: Arc<Counter>,
    output_tokens: Arc<Counter>,
    cost_usd: Arc<FloatCounter>,
    queue_wait_ns: Arc<Histogram>,
    exec_ns: Arc<Histogram>,
    persist_ns: Arc<Histogram>,
    workers: Arc<Gauge>,
    workers_busy: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    jobs_failed: Arc<Counter>,
    shed_total: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    /// Jobs whose execution panicked (caught; the worker kept serving).
    panics: Arc<Counter>,
    /// Retry/hedge/fault instruments, grouped for handing to each job's
    /// [`ResilientLlm`] (clones share the same atomics).
    resilience: ResilienceCounters,
}

impl ServiceCounters {
    fn new() -> Self {
        // Windowed with the standard spec so the same instruments answer
        // lifetime *and* last-10s/last-60s reads ({"metrics": true},
        // `top`, the SLO gate) without a second recording path.
        let registry =
            MetricsRegistry::windowed(WindowSpec::standard(Arc::new(MonotonicClock::new())));
        ServiceCounters {
            jobs_completed: registry.counter("service.jobs_completed"),
            cache_hits: registry.counter("service.cache_hits"),
            cache_misses: registry.counter("service.cache_misses"),
            errors: registry.counter("service.errors"),
            llm_calls: registry.counter("service.llm_calls"),
            input_tokens: registry.counter("service.input_tokens"),
            output_tokens: registry.counter("service.output_tokens"),
            cost_usd: registry.float_counter("service.cost_usd"),
            queue_wait_ns: registry.histogram("service.queue_wait_ns"),
            exec_ns: registry.histogram("service.exec_ns"),
            persist_ns: registry.histogram("service.persist_ns"),
            workers: registry.gauge("service.workers"),
            workers_busy: registry.gauge("service.workers_busy"),
            queue_depth: registry.gauge("service.queue_depth"),
            jobs_failed: registry.counter("service.jobs_failed"),
            shed_total: registry.counter("service.shed_total"),
            deadline_exceeded: registry.counter("service.deadline_exceeded"),
            panics: registry.counter("service.panics"),
            resilience: ResilienceCounters::on(&registry),
            registry,
        }
    }
}

struct Shared {
    queue: BoundedQueue<QueuedJob>,
    cache: Mutex<LruCache<ResultKey, Diagnosis>>,
    counters: ServiceCounters,
    retriever: Arc<Retriever>,
    /// Disk-backed result journal (`None` with persistence off).
    store: Option<Mutex<ResultStore>>,
    /// Default per-job deadline (request `deadline` overrides).
    deadline: Option<Duration>,
    /// Failure model for every job's backbone LLM.
    fault_plan: FaultPlan,
    /// Retry/backoff/hedge policy (see [`ServiceConfig::resilience`]).
    resilience: ResiliencePolicy,
}

impl Shared {
    fn record(&self, result: &JobResult) {
        let c = &self.counters;
        if let Some(failure) = &result.failure {
            // Failed jobs count separately: they never enter
            // `jobs_completed`, the cache-hit/miss split, or the latency
            // histograms (the SLO quantiles describe delivered work).
            // Spend that happened before the failure still counts.
            c.jobs_failed.inc();
            match failure {
                JobFailure::DeadlineExceededQueued => {
                    c.shed_total.inc();
                    c.deadline_exceeded.inc();
                }
                JobFailure::DeadlineExceeded => c.deadline_exceeded.inc(),
                JobFailure::Internal => c.panics.inc(),
                JobFailure::RetriesExhausted { .. } | JobFailure::Fault(_) => {}
            }
            c.llm_calls.add(result.metrics.llm_calls as u64);
            c.input_tokens.add(result.metrics.input_tokens as u64);
            c.output_tokens.add(result.metrics.output_tokens as u64);
            c.cost_usd.add(result.metrics.cost_usd);
            return;
        }
        c.jobs_completed.inc();
        if result.cached {
            c.cache_hits.inc();
        } else {
            c.cache_misses.inc();
        }
        c.llm_calls.add(result.metrics.llm_calls as u64);
        c.input_tokens.add(result.metrics.input_tokens as u64);
        c.output_tokens.add(result.metrics.output_tokens as u64);
        c.cost_usd.add(result.metrics.cost_usd);
        c.queue_wait_ns.record_duration(result.metrics.queue_wait);
        c.exec_ns.record_duration(result.metrics.exec);
    }

    /// LRU lookup with journal read-through: a miss in the in-memory layer
    /// falls back to the persistent store, promoting any hit into the LRU
    /// so subsequent lookups stay memory-speed.
    fn lookup(&self, key: &ResultKey) -> Option<Diagnosis> {
        let mut probe_span = ioobserve::tracer().span("stage.cache_probe");
        let hit = self.lookup_inner(key);
        probe_span.set_attr("hit", hit.is_some());
        hit
    }

    fn lookup_inner(&self, key: &ResultKey) -> Option<Diagnosis> {
        let mut cache = self
            .cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(diagnosis) = cache.get(key) {
            return Some(diagnosis);
        }
        let store = self.store.as_ref()?;
        let persisted = store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(key)
            .cloned()?;
        cache.insert(key.clone(), persisted.clone());
        Some(persisted)
    }

    /// Record a fresh diagnosis in the LRU and (when persistence is on)
    /// the journal. Journal write failures are reported, not fatal — the
    /// daemon keeps serving from memory.
    fn remember(&self, key: &ResultKey, diagnosis: &Diagnosis) {
        let persist_start = Instant::now();
        let _span = ioobserve::tracer().span("stage.persist");
        {
            let mut cache = self
                .cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            cache.insert(key.clone(), diagnosis.clone());
        }
        if let Some(store) = &self.store {
            let mut store = store
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Err(e) = store.insert(key.clone(), diagnosis.clone()) {
                eprintln!("[ioagentd] journal append failed: {e}");
            }
        }
        self.counters
            .persist_ns
            .record_duration(persist_start.elapsed());
    }
}

/// Pending result for one submitted job.
#[derive(Debug)]
pub struct JobTicket {
    id: String,
    receiver: mpsc::Receiver<JobResult>,
}

impl JobTicket {
    /// The submitted job's identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Block until the job completes. Panics only if the service was torn
    /// down without running the job (dropped mid-shutdown), which the
    /// service's graceful drain prevents.
    pub fn wait(self) -> JobResult {
        self.receiver.recv().expect("job dropped before completion")
    }
}

/// The long-lived diagnosis service.
pub struct DiagnosisService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    index_provenance: Option<IndexProvenance>,
}

impl DiagnosisService {
    /// Start a service, building the knowledge index once. With
    /// [`ServiceConfig::state_dir`] set, the index is snapshot-loaded when
    /// possible and the result journal is replayed, so previously-seen
    /// jobs are answered across restarts with zero LLM calls. A state
    /// directory that cannot be opened degrades to in-memory-only
    /// operation (reported on stderr and via
    /// [`DiagnosisService::persistence_active`]) rather than refusing to
    /// start.
    pub fn start(config: ServiceConfig) -> Self {
        let Some(dir) = config.state_dir.clone() else {
            return Self::with_shared_index(config, Arc::new(Retriever::build()));
        };
        match Self::open_state(&dir) {
            Ok((retriever, provenance, store)) => {
                let mut service = Self::build(config, Arc::new(retriever), Some(store));
                service.index_provenance = Some(provenance);
                service
            }
            Err(e) => {
                eprintln!(
                    "[ioagentd] state dir {dir:?} unusable ({e}); running without persistence"
                );
                Self::with_shared_index(config, Arc::new(Retriever::build()))
            }
        }
    }

    fn open_state(
        dir: &std::path::Path,
    ) -> std::io::Result<(Retriever, IndexProvenance, ResultStore)> {
        let state = StateDir::new(dir)?;
        // Open the (cheap, fallible) journal before building the index, so
        // an unusable journal cannot waste a corpus build that the fallback
        // path would immediately redo.
        let store = state.open_results()?;
        let (retriever, provenance) = Retriever::build_or_load(&state);
        Ok((retriever, provenance, store))
    }

    /// Start a service over an existing index (lets several services — or
    /// benchmarks comparing worker counts — share one build). Ignores
    /// [`ServiceConfig::state_dir`]'s index snapshot (the index is given),
    /// but still opens the result journal when the field is set.
    pub fn with_shared_index(config: ServiceConfig, retriever: Arc<Retriever>) -> Self {
        let store = config.state_dir.as_ref().and_then(|dir| {
            StateDir::new(dir)
                .and_then(|s| s.open_results())
                .map_err(|e| {
                    eprintln!(
                        "[ioagentd] state dir {dir:?} unusable ({e}); running without persistence"
                    )
                })
                .ok()
        });
        Self::build(config, retriever, store)
    }

    fn build(config: ServiceConfig, retriever: Arc<Retriever>, store: Option<ResultStore>) -> Self {
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            counters: ServiceCounters::new(),
            retriever,
            store: store.map(Mutex::new),
            deadline: config.deadline,
            fault_plan: config.fault_plan.clone().unwrap_or_default(),
            resilience: config
                .resilience
                .unwrap_or_else(ResiliencePolicy::unbounded),
        });
        shared.counters.workers.set(config.workers.max(1) as u64);
        let workers = (0..config.workers.max(1))
            .map(|worker_idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ioagentd-worker-{worker_idx}"))
                    .spawn(move || worker_loop(&shared, worker_idx))
                    .expect("spawn worker thread")
            })
            .collect();
        DiagnosisService {
            shared,
            workers,
            index_provenance: None,
        }
    }

    /// Whether a disk-backed result journal is attached.
    pub fn persistence_active(&self) -> bool {
        self.shared.store.is_some()
    }

    /// How the knowledge index was obtained (`None` when the index was
    /// supplied by the caller or persistence is off).
    pub fn index_provenance(&self) -> Option<&IndexProvenance> {
        self.index_provenance.as_ref()
    }

    /// Both model names a job would instantiate inside a worker. Checked
    /// at submit time, so an unknown profile is answered as
    /// `unknown_model` instead of panicking inside the worker
    /// (`profile_or_panic`) and coming back as an `internal` failure.
    fn validate_models(request: &JobRequest) -> Result<(), SubmitError> {
        if simllm::profile(&request.model).is_none() {
            return Err(SubmitError::UnknownModel(request.model.clone()));
        }
        if simllm::profile(&request.config.reflection_model).is_none() {
            return Err(SubmitError::UnknownModel(
                request.config.reflection_model.clone(),
            ));
        }
        Ok(())
    }

    /// Submit one job. Blocks while the queue is full (backpressure).
    /// Identical completed jobs are answered from the cache immediately.
    pub fn submit(&self, request: JobRequest) -> Result<JobTicket, SubmitError> {
        Self::validate_models(&request)?;
        let key = request.fingerprint();
        let trace_id = request.trace_id.clone().unwrap_or_else(fresh_trace_id);
        let (reply, receiver) = mpsc::channel();
        let ticket = JobTicket {
            id: request.id.clone(),
            receiver,
        };

        // Fast path: answer from the cache (LRU, then journal
        // read-through) without touching the queue. Cache hits are free,
        // so they are served even under an already-tight deadline.
        if let Some(diagnosis) = self.shared.lookup(&key) {
            let result = JobResult {
                id: request.id,
                diagnosis,
                cached: true,
                worker: usize::MAX,
                metrics: JobMetrics::default(),
                trace_id,
                failure: None,
            };
            self.shared.record(&result);
            let _ = reply.send(result);
            return Ok(ticket);
        }

        let deadline_at = self.deadline_at(&request);
        let job = QueuedJob {
            request,
            key,
            trace_id,
            enqueued: Instant::now(),
            enqueued_ns: ioobserve::tracer().now_ns(),
            deadline_at,
            reply,
        };
        match self.shared.queue.push(job) {
            Ok(()) => Ok(ticket),
            Err(QueueClosed(_)) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Resolve the job's absolute deadline at submit time: the request
    /// override, else the service default, anchored to now (enqueue).
    fn deadline_at(&self, request: &JobRequest) -> Option<Instant> {
        request
            .deadline
            .or(self.shared.deadline)
            .map(|d| Instant::now() + d)
    }

    /// Submit many jobs, returning one ticket per job in input order.
    /// Model names are validated up front so a bad batch fails atomically
    /// before any work is enqueued.
    pub fn submit_batch(&self, requests: Vec<JobRequest>) -> Result<Vec<JobTicket>, SubmitError> {
        for request in &requests {
            Self::validate_models(request)?;
        }
        requests.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Wait for a batch of tickets, preserving order.
    pub fn drain(tickets: Vec<JobTicket>) -> Vec<JobResult> {
        tickets.into_iter().map(JobTicket::wait).collect()
    }

    /// Convenience: submit a batch and wait for all results in order.
    pub fn run_batch(&self, requests: Vec<JobRequest>) -> Result<Vec<JobResult>, SubmitError> {
        Ok(Self::drain(self.submit_batch(requests)?))
    }

    /// Snapshot of the aggregate counters, with the persistence gauges
    /// (journal entry count and file size) read live from the store.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.shared.counters;
        let mut stats = ServiceStats {
            jobs_completed: c.jobs_completed.get(),
            cache_hits: c.cache_hits.get(),
            cache_misses: c.cache_misses.get(),
            llm_calls: c.llm_calls.get(),
            input_tokens: c.input_tokens.get(),
            output_tokens: c.output_tokens.get(),
            cost_usd: c.cost_usd.get(),
            persisted_entries: 0,
            journal_bytes: 0,
            jobs_failed: c.jobs_failed.get(),
            shed_total: c.shed_total.get(),
            deadline_exceeded: c.deadline_exceeded.get(),
            retries: c.resilience.retries.get(),
            hedges: c.resilience.hedges.get(),
            hedge_wins: c.resilience.hedge_wins.get(),
            faults_timeout: c.resilience.fault_timeout.get(),
            faults_rate_limited: c.resilience.fault_rate_limited.get(),
            faults_truncated: c.resilience.fault_truncated.get(),
        };
        if let Some(store) = &self.shared.store {
            let store = store
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            stats.persisted_entries = store.len() as u64;
            stats.journal_bytes = store.journal_bytes();
        }
        stats
    }

    /// Snapshot of the service's own metrics registry (the `service.*`
    /// counters and latency histograms behind [`DiagnosisService::stats`],
    /// each also answering last-10s/last-60s windowed reads).
    /// Process-wide stage metrics live in [`ioobserve::metrics()`]. The
    /// `service.queue_depth` gauge is refreshed at snapshot time.
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.shared
            .counters
            .queue_depth
            .set(self.shared.queue.len() as u64);
        self.shared.counters.registry.snapshot()
    }

    /// Count one request-level failure (malformed line, unknown model,
    /// shutdown, …) against the windowed `service.errors` counter.
    /// Front ends call this when they render an error reply, so the
    /// errors/s rate and any `errors`-based SLO see protocol rejections
    /// as well as service-side refusals.
    pub fn note_error(&self) {
        self.shared.counters.errors.inc();
    }

    /// Jobs currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// The shared knowledge index (for reuse in sibling services).
    pub fn retriever(&self) -> Arc<Retriever> {
        Arc::clone(&self.shared.retriever)
    }

    /// Stop accepting jobs, finish everything queued, and join the
    /// workers.
    pub fn shutdown(mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for DiagnosisService {
    fn drop(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, worker_idx: usize) {
    while let Some(job) = shared.queue.pop() {
        shared.counters.workers_busy.add(1);
        serve_job(shared, job, worker_idx);
        shared.counters.workers_busy.sub(1);
    }
    ioobserve::tracer().flush();
}

/// Serve one dequeued job on this worker: shed it, answer it from the
/// cache, or execute it; then record and reply. A panic while executing
/// is caught and answered as an `internal` failure, so one bad job costs
/// one reply, never the worker or the waiters queued behind it.
fn serve_job(shared: &Shared, job: QueuedJob, worker_idx: usize) {
    let tracer = ioobserve::tracer();
    let queue_wait = job.enqueued.elapsed();
    let started = Instant::now();

    // The root span for this job opens retroactively at the enqueue
    // instant, so its duration is true wall time (queue wait + exec)
    // and `stage.queue_wait` tiles the pre-dequeue part exactly. It
    // stays on this thread's span stack, parenting every stage span
    // the pipeline opens below (all job work runs on this thread).
    let mut job_span = tracer.span_at("job", job.enqueued_ns, 0);
    job_span.set_attr("id", &job.request.id);
    job_span.set_attr("trace_id", &job.trace_id);
    job_span.set_attr("model", &job.request.model);
    job_span.set_attr("worker", worker_idx);
    drop(tracer.span_at("stage.queue_wait", job.enqueued_ns, job_span.id()));

    let unexecuted = |diagnosis: Diagnosis, cached: bool, failure: Option<JobFailure>| JobResult {
        id: job.request.id.clone(),
        diagnosis,
        cached,
        worker: worker_idx,
        metrics: JobMetrics {
            queue_wait,
            exec: started.elapsed(),
            ..Default::default()
        },
        trace_id: job.trace_id.clone(),
        failure,
    };
    // Shed before any work: a deadline that expired in the queue
    // means the client has already given up — executing now would
    // burn a worker on an answer nobody reads.
    let result = if job.deadline_at.is_some_and(|d| Instant::now() >= d) {
        unexecuted(
            empty_diagnosis(&job.request.model),
            false,
            Some(JobFailure::DeadlineExceededQueued),
        )
    } else if let Some(diagnosis) = shared.lookup(&job.key) {
        // A duplicate completed while this job sat in the queue.
        unexecuted(diagnosis, true, None)
    } else {
        let execute =
            || execute_fresh(shared, &job, worker_idx, queue_wait, started, &mut job_span);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(execute)) {
            Ok(result) => result,
            Err(_) => {
                // The panic hook has already printed the message.
                eprintln!(
                    "[ioagentd] job {:?} panicked on worker {worker_idx}; answered as internal",
                    job.request.id
                );
                unexecuted(
                    empty_diagnosis(&job.request.model),
                    false,
                    Some(JobFailure::Internal),
                )
            }
        }
    };
    // Assembling the reply is the job's last stage; it starts where the
    // previous stage ended, and it ends with the job at one clock reading,
    // so the job's stages tile it from enqueue to its last nanosecond.
    let reply_span = tracer.span("stage.reply");
    if let Some(failure) = &result.failure {
        job_span.set_attr("error", failure.error_kind());
    }
    job_span.set_attr("cached", result.cached);
    // End (and flush) the job's spans before bookkeeping so the
    // recorded wall time covers exactly enqueue → result ready.
    let end_ns = tracer.now_ns();
    reply_span.end_at(end_ns);
    job_span.end_at(end_ns);
    shared.record(&result);
    // The submitter may have given up on the ticket; that is fine.
    let _ = job.reply.send(result);
}

/// Run one cache-missing job to completion (or failure) on this worker.
///
/// The backbone model carries the service's fault plan inside a
/// [`ResilientLlm`], which runs every LLM call the pipeline issues under
/// the service's policy (unbounded when none is set), the job's deadline
/// and the service's counters. Failed jobs return an empty diagnosis
/// and are never cached; the spend they accumulated before failing is
/// still accounted. The job's backbone wave count (its critical path in
/// model round trips) goes on `job_span` as `llm_waves`.
fn execute_fresh(
    shared: &Shared,
    job: &QueuedJob,
    worker_idx: usize,
    queue_wait: Duration,
    started: Instant,
    job_span: &mut ioobserve::Span,
) -> JobResult {
    // Fresh per-job models: usage accounting stays job-local.
    let model = ResilientLlm::new(
        SimLlm::new(&job.request.model).with_fault_plan(shared.fault_plan.clone()),
        shared.resilience,
        job.deadline_at,
        shared.counters.resilience.clone(),
    );
    let agent = IoAgent::with_shared_retriever(
        &model,
        job.request.config.clone(),
        Arc::clone(&shared.retriever),
    );
    let diagnosis = agent.diagnose(&job.request.trace);
    let (backbone, reflection) = (model.usage(), agent.reflection_usage());
    let failure = model.take_failure();
    job_span.set_attr("llm_waves", agent.llm_waves());
    let diagnosis = match failure {
        // A failed job's partial pipeline output is meaningless; drop it.
        Some(_) => empty_diagnosis(&job.request.model),
        None => {
            shared.remember(&job.key, &diagnosis);
            diagnosis
        }
    };
    JobResult {
        id: job.request.id.clone(),
        diagnosis,
        cached: false,
        worker: worker_idx,
        metrics: JobMetrics {
            llm_calls: backbone.calls + reflection.calls,
            input_tokens: backbone.input_tokens + reflection.input_tokens,
            output_tokens: backbone.output_tokens + reflection.output_tokens,
            cost_usd: backbone.cost_usd + reflection.cost_usd,
            queue_wait,
            exec: started.elapsed(),
        },
        trace_id: job.trace_id.clone(),
        failure,
    }
}

/// Placeholder diagnosis carried by failed jobs (the protocol renders
/// the failure, not this).
fn empty_diagnosis(model: &str) -> Diagnosis {
    Diagnosis {
        tool: format!("ioagent-{model}"),
        text: String::new(),
        issues: Vec::new(),
        references: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job as `submit` would queue it, but without its model check, so
    /// an unknown model reaches the worker and panics there.
    fn unchecked(
        id: &str,
        trace: &DarshanTrace,
        model: &str,
    ) -> (QueuedJob, mpsc::Receiver<JobResult>) {
        let request = JobRequest::new(id, trace.clone(), model);
        let (reply, receiver) = mpsc::channel();
        let job = QueuedJob {
            key: request.fingerprint(),
            trace_id: id.to_string(),
            request,
            enqueued: Instant::now(),
            enqueued_ns: 0,
            deadline_at: None,
            reply,
        };
        (job, receiver)
    }

    #[test]
    fn a_panicking_job_fails_as_internal_and_its_worker_keeps_serving() {
        let suite = tracebench::TraceBench::generate();
        let trace = suite.get("sb01_small_io").unwrap().trace.clone();
        let service = DiagnosisService::start(ServiceConfig::with_workers(1).cache_capacity(0));
        let (bad, panicking) = unchecked("bad", &trace, "gpt-17");
        let (good, next) = unchecked("good", &trace, "gpt-4o");
        assert!(service.shared.queue.push(bad).is_ok());
        assert!(service.shared.queue.push(good).is_ok());

        let failed = panicking
            .recv()
            .expect("the panicking job still gets a reply");
        assert_eq!(failed.failure, Some(JobFailure::Internal));
        assert_eq!(failed.failure.unwrap().error_kind(), "internal");
        assert!(failed.diagnosis.text.is_empty());
        assert_eq!(failed.worker, 0);

        // The same (only) worker serves the next job normally.
        let served = next.recv().expect("the next job gets its reply");
        assert!(served.failure.is_none(), "{:?}", served.failure);
        assert_eq!(served.worker, 0);
        let reference = IoAgent::new(&SimLlm::new("gpt-4o")).diagnose(&trace);
        assert_eq!(served.diagnosis.text, reference.text);

        let stats = service.stats();
        assert_eq!(stats.jobs_failed, 1);
        assert_eq!(stats.jobs_completed, 1);
        assert_eq!(service.shared.counters.panics.get(), 1);
        service.shutdown();
    }

    #[test]
    fn serve_job_answers_a_panic_and_then_the_next_job() {
        let suite = tracebench::TraceBench::generate();
        let trace = suite.get("sb03_metadata_storm").unwrap().trace.clone();
        // No workers drain this queue: the test plays the worker.
        let service = DiagnosisService::start(ServiceConfig::with_workers(1).cache_capacity(0));
        let shared = Arc::clone(&service.shared);
        service.shutdown();
        let (bad, bad_reply) = unchecked("bad", &trace, "no-such-model");
        serve_job(&shared, bad, 3);
        let failed = bad_reply.recv().unwrap();
        assert_eq!(failed.failure, Some(JobFailure::Internal));
        assert_eq!((failed.id.as_str(), failed.worker), ("bad", 3));

        let (good, good_reply) = unchecked("good", &trace, "gpt-4o-mini");
        serve_job(&shared, good, 3);
        let served = good_reply.recv().unwrap();
        assert!(served.failure.is_none(), "{:?}", served.failure);
        assert!(!served.diagnosis.text.is_empty());
        assert!(served.metrics.llm_calls > 0);
        assert_eq!(shared.counters.panics.get(), 1);
    }
}
