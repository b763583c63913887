//! The traced run: the same generated requests replayed layer by layer
//! through each layer's public functions, in the worker's order, with
//! every timer owned by the benchmark. Nothing inside the program is
//! instrumented; where a layer is private to `IoAgent` (its reflection
//! model), its work is replayed on its own.

use crate::check::{parse_reply, Reply};
use crate::spec::{Job, Requests, COUNTED, MODELS, REMOTE_DEADLINE};
use ioagent_core::IoAgent;
use ioagentd::protocol::{self, Request};
use ioagentd::{
    JobFailure, JobMetrics, JobRequest, JobResult, ResilienceCounters, ResiliencePolicy,
    ResilientLlm, Retriever,
};
use iostore::{ResultKey, ResultStore};
use simllm::{
    Completion, CompletionRequest, Diagnosis, FaultPlan, LanguageModel, ModelProfile, SimLlm,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Prompt tasks the timer tells apart, by the prompt's `### TASK:` line.
pub const TASKS: [&str; 5] = ["transform", "diagnose", "merge", "filter", "other"];
const TRANSFORM: usize = 0;
const DIAGNOSE: usize = 1;
const MERGE: usize = 2;
const FILTER: usize = 3;

fn task_of(prompt: &str) -> usize {
    prompt
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("### TASK:"))
        .and_then(|t| TASKS[..4].iter().position(|k| *k == t.trim()))
        .unwrap_or(TASKS.len() - 1)
}

/// Calls, busy time and tokens of one prompt task.
#[derive(Debug, Default, Clone, Copy)]
pub struct TaskTally {
    /// Completions.
    pub calls: u64,
    /// Busy nanoseconds inside `complete`.
    pub ns: u64,
    /// Input tokens.
    pub in_tokens: u64,
    /// Output tokens.
    pub out_tokens: u64,
}

#[derive(Default)]
struct TimedState {
    tasks: [TaskTally; TASKS.len()],
    /// `transform` completions in call order: the RAG queries.
    transforms: Vec<String>,
}

/// A [`LanguageModel`] that times every completion of the model it wraps.
pub struct Timed<M> {
    inner: M,
    state: Mutex<TimedState>,
}

impl<M: LanguageModel> Timed<M> {
    fn new(inner: M) -> Self {
        Timed {
            inner,
            state: Mutex::new(TimedState::default()),
        }
    }

    fn take(&self) -> TimedState {
        std::mem::take(&mut *self.state.lock().unwrap())
    }
}

impl<M: LanguageModel> LanguageModel for Timed<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    fn complete(&self, request: &CompletionRequest) -> Completion {
        let task = task_of(&request.user);
        let start = Instant::now();
        let completion = self.inner.complete(request);
        let ns = start.elapsed().as_nanos() as u64;
        let mut state = self.state.lock().unwrap();
        let t = &mut state.tasks[task];
        t.calls += 1;
        t.ns += ns;
        t.in_tokens += completion.input_tokens as u64;
        t.out_tokens += completion.output_tokens as u64;
        if task == TRANSFORM {
            state.transforms.push(completion.text.clone());
        }
        completion
    }
}

/// Per-layer sums over a set of replayed jobs (times in ns).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Jobs replayed.
    pub jobs: u64,
    /// `protocol::parse_line`.
    pub protocol_parse_ns: u64,
    /// `darshan::parse::parse_text`.
    pub darshan_parse_ns: u64,
    /// Slowest single `parse_text`.
    pub darshan_parse_max_ns: u64,
    /// Lines of darshan text.
    pub darshan_lines: u64,
    /// `darshan::write::write_text` (the cache-key canonicalisation).
    pub canon_ns: u64,
    /// `preprocessor::extract_fragments`.
    pub preprocess_ns: u64,
    /// Slowest single `extract_fragments`.
    pub preprocess_max_ns: u64,
    /// Fragments extracted.
    pub fragments: u64,
    /// Per prompt task (backbone inside `diagnose`, `filter` from the
    /// retrieval replay).
    pub llm: [TaskTally; TASKS.len()],
    /// `Retriever::retrieve_k` with a timed reflection model.
    pub retrieve_ns: u64,
    /// Sources kept after self-reflection.
    pub kept: u64,
    /// `VectorIndex::search` on its own.
    pub search_ns: u64,
    /// Rows scored by those searches.
    pub rows_scored: u64,
    /// `Embedder::embed` of the queries on their own.
    pub embed_ns: u64,
    /// `IoAgent::diagnose`.
    pub diagnose_ns: u64,
    /// `protocol::render_result`.
    pub render_ns: u64,
    /// `ResultStore::get`.
    pub journal_get_ns: u64,
    /// `ResultStore::insert`.
    pub journal_insert_ns: u64,
    /// Records appended.
    pub inserts: u64,
    /// Journal bytes those appends added.
    pub insert_bytes: u64,
    /// The worker path: parse, canonicalise, journal get, diagnose,
    /// journal insert, render.
    pub path_ns: u64,
}

impl Layers {
    fn add(&mut self, o: &Layers) {
        self.jobs += o.jobs;
        self.protocol_parse_ns += o.protocol_parse_ns;
        self.darshan_parse_ns += o.darshan_parse_ns;
        self.darshan_parse_max_ns = self.darshan_parse_max_ns.max(o.darshan_parse_max_ns);
        self.darshan_lines += o.darshan_lines;
        self.canon_ns += o.canon_ns;
        self.preprocess_ns += o.preprocess_ns;
        self.preprocess_max_ns = self.preprocess_max_ns.max(o.preprocess_max_ns);
        self.fragments += o.fragments;
        for (a, b) in self.llm.iter_mut().zip(&o.llm) {
            a.calls += b.calls;
            a.ns += b.ns;
            a.in_tokens += b.in_tokens;
            a.out_tokens += b.out_tokens;
        }
        self.retrieve_ns += o.retrieve_ns;
        self.kept += o.kept;
        self.search_ns += o.search_ns;
        self.rows_scored += o.rows_scored;
        self.embed_ns += o.embed_ns;
        self.diagnose_ns += o.diagnose_ns;
        self.render_ns += o.render_ns;
        self.journal_get_ns += o.journal_get_ns;
        self.journal_insert_ns += o.journal_insert_ns;
        self.inserts += o.inserts;
        self.insert_bytes += o.insert_bytes;
        self.path_ns += o.path_ns;
    }

    /// The named layers' busy time: everything on the worker path except
    /// what `diagnose` spends outside its timed children.
    pub fn accounted_ns(&self) -> u64 {
        self.protocol_parse_ns
            + self.canon_ns
            + self.journal_get_ns
            + self.preprocess_ns
            + self.llm[TRANSFORM].ns
            + self.llm[DIAGNOSE].ns
            + self.llm[MERGE].ns
            + self.retrieve_ns
            + self.journal_insert_ns
            + self.render_ns
    }

    /// `diagnose` minus its timed children (may dip below zero by noise).
    pub fn agent_other_ns(&self) -> f64 {
        self.diagnose_ns as f64
            - (self.preprocess_ns
                + self.llm[TRANSFORM].ns
                + self.llm[DIAGNOSE].ns
                + self.llm[MERGE].ns
                + self.retrieve_ns) as f64
    }

    /// Completions of one task.
    pub fn calls(&self, task: &str) -> u64 {
        self.llm[TASKS.iter().position(|t| *t == task).expect("known task")].calls
    }

    /// Busy time of one task, ns.
    pub fn task_ns(&self, task: &str) -> u64 {
        self.llm[TASKS.iter().position(|t| *t == task).expect("known task")].ns
    }
}

/// The replay's view of the workload's service configuration.
pub struct Setup<'a> {
    /// The request stream.
    pub requests: &'a Requests<'a>,
    /// The index the service ran on.
    pub retriever: Arc<Retriever>,
    /// Journal copy to replay against (`restart_repeat`).
    pub store: Option<Mutex<ResultStore>>,
    /// Fault plan and policy on the backbone (`remote_llm`).
    pub faults: Option<(FaultPlan, ResiliencePolicy)>,
    /// Replay threads.
    pub threads: usize,
    /// Start job `i` no earlier than `i / rate` seconds in (`remote_llm`
    /// replays at its open-loop rate, so the layers see the same load).
    pub pace: Option<f64>,
}

/// What the traced run observed.
#[derive(Debug, Default)]
pub struct Trace {
    /// Sums over the counted rounds (exact counters come from here).
    pub counted: Layers,
    /// Sums over every replayed job (busy times come from here).
    pub all: Layers,
    /// Per fresh job: `diagnose` over the timed backbone, ms.
    pub diagnose_ms: Vec<f64>,
    /// Per fresh job: the same `diagnose` over the bare backbone, ms.
    pub plain_ms: Vec<f64>,
    /// Replayed jobs and their rendered replies, reduced.
    pub replies: Vec<(Job, Reply)>,
    /// Wall time of the replay.
    pub wall_s: f64,
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

fn run_agent<M: LanguageModel>(
    model: &Timed<M>,
    request: &JobRequest,
    retriever: &Arc<Retriever>,
) -> (Diagnosis, simllm::Usage, u64) {
    let agent =
        IoAgent::with_shared_retriever(model, request.config.clone(), Arc::clone(retriever));
    let start = Instant::now();
    let diagnosis = agent.diagnose(&request.trace);
    (diagnosis, agent.reflection_usage(), elapsed_ns(start))
}

/// `IoAgent::diagnose` over the backbone a service worker would use, with
/// no timer inside it: `SimLlm`, or on `remote_llm` the same behind its
/// fault plan and `ResilientLlm`. Returns ns.
fn plain_diagnose_ns(setup: &Setup, counters: &ResilienceCounters, request: &JobRequest) -> u64 {
    let model: Box<dyn LanguageModel> = match &setup.faults {
        None => Box::new(SimLlm::new(&request.model)),
        Some((plan, policy)) => Box::new(ResilientLlm::new(
            SimLlm::new(&request.model).with_fault_plan(plan.clone()),
            *policy,
            Some(Instant::now() + REMOTE_DEADLINE),
            counters.clone(),
        )),
    };
    let agent = IoAgent::with_shared_retriever(
        model.as_ref(),
        request.config.clone(),
        Arc::clone(&setup.retriever),
    );
    let start = Instant::now();
    black_box(agent.diagnose(&request.trace));
    elapsed_ns(start)
}

/// A fresh job's `diagnose` time over the timed and over the bare
/// backbone, ms.
type DiagnoseMs = Option<(f64, f64)>;

/// Replay one job through every layer; returns its sums, its reply and
/// (for fresh jobs) its [`DiagnoseMs`].
fn replay_one(
    setup: &Setup,
    counters: &ResilienceCounters,
    job: &Job,
) -> Result<(Layers, Reply, DiagnoseMs), String> {
    let requests = setup.requests;
    let mut l = Layers {
        jobs: 1,
        ..Layers::default()
    };
    let text = requests.trace_text(&job.content);
    let line = crate::spec::request_line(&job.id, &text, MODELS[job.content.model]);

    // 1. The protocol layer.
    let start = Instant::now();
    let parsed = protocol::parse_line(&line, &job.id);
    l.protocol_parse_ns = elapsed_ns(start);
    let request = match parsed {
        Ok(Request::Job(request)) => *request,
        other => {
            return Err(format!(
                "{}: replayed line did not parse as a job: {other:?}",
                job.id
            ))
        }
    };

    // 2. Darshan parsing (also inside parse_line) and canonicalisation.
    let start = Instant::now();
    black_box(darshan::parse::parse_text(&text)).map_err(|e| format!("{}: {e}", job.id))?;
    l.darshan_parse_ns = elapsed_ns(start);
    l.darshan_parse_max_ns = l.darshan_parse_ns;
    l.darshan_lines = text.lines().count() as u64;
    let start = Instant::now();
    let canonical = darshan::write::write_text(&request.trace);
    l.canon_ns = elapsed_ns(start);
    // The service's cache key (private to `JobRequest`): the same triple,
    // so journaled jobs hit here exactly as they do in the service.
    let key = ResultKey {
        trace_hash: simllm::rng::stable_hash(&canonical),
        model: request.model.clone(),
        config: format!("{:?}", request.config),
    };

    // 6a. Journal lookup (restart_repeat).
    let journaled = setup.store.as_ref().and_then(|store| {
        let store = store.lock().unwrap();
        let start = Instant::now();
        let hit = store.get(&key).cloned();
        l.journal_get_ns = elapsed_ns(start);
        hit
    });

    let cached = journaled.is_some();
    let mut diagnose_ms = None;
    let (diagnosis, metrics, failure) = match journaled {
        Some(diagnosis) => (diagnosis, JobMetrics::default(), None),
        None => {
            // 3. Pre-processing, on its own.
            let start = Instant::now();
            let fragments = black_box(preprocessor::extract_fragments(&request.trace));
            l.preprocess_ns = elapsed_ns(start);
            l.preprocess_max_ns = l.preprocess_ns;
            l.fragments = fragments.len() as u64;

            // 4. The agent, over a timed backbone. The same diagnosis over
            //    the bare backbone gives the timers' cost; the two runs
            //    alternate in order, so neither always warms the other.
            let plain_first = job.index.is_multiple_of(2);
            let plain_ns = if plain_first {
                plain_diagnose_ns(setup, counters, &request)
            } else {
                0
            };
            let (diagnosis, backbone, reflection, failure, state) = match &setup.faults {
                None => {
                    let model = Timed::new(SimLlm::new(&request.model));
                    let (d, reflection, ns) = run_agent(&model, &request, &setup.retriever);
                    l.diagnose_ns = ns;
                    (d, model.inner.usage(), reflection, None, model.take())
                }
                Some((plan, policy)) => {
                    let inner = ResilientLlm::new(
                        SimLlm::new(&request.model).with_fault_plan(plan.clone()),
                        *policy,
                        Some(Instant::now() + REMOTE_DEADLINE),
                        counters.clone(),
                    );
                    let model = Timed::new(inner);
                    let (d, reflection, ns) = run_agent(&model, &request, &setup.retriever);
                    l.diagnose_ns = ns;
                    let failure: Option<JobFailure> = model.inner.take_failure();
                    (d, model.inner.usage(), reflection, failure, model.take())
                }
            };
            let plain_ns = if plain_first {
                plain_ns
            } else {
                plain_diagnose_ns(setup, counters, &request)
            };
            diagnose_ms = Some((l.diagnose_ns as f64 / 1e6, plain_ns as f64 / 1e6));
            l.llm = state.tasks;

            // 5. Retrieval per fragment, replayed with a timed reflection
            //    model; then the vector search and the embedder alone.
            let reflection_model = Timed::new(SimLlm::new(&request.config.reflection_model));
            let index = setup.retriever.index();
            for query in &state.transforms {
                let start = Instant::now();
                let kept =
                    setup
                        .retriever
                        .retrieve_k(query, &reflection_model, request.config.top_k);
                l.retrieve_ns += elapsed_ns(start);
                l.kept += kept.len() as u64;
                let start = Instant::now();
                black_box(index.search(query, request.config.top_k));
                l.search_ns += elapsed_ns(start);
                l.rows_scored += index.len() as u64;
                let start = Instant::now();
                black_box(index.embedder().embed(query));
                l.embed_ns += elapsed_ns(start);
            }
            let filter = reflection_model.take().tasks[FILTER];
            l.llm[FILTER] = filter;

            // 6b. Journal append (restart_repeat).
            if let (Some(store), None) = (&setup.store, &failure) {
                let mut store = store.lock().unwrap();
                let before = store.journal_bytes();
                let start = Instant::now();
                store
                    .insert(key, diagnosis.clone())
                    .map_err(|e| format!("journal append failed: {e}"))?;
                l.journal_insert_ns = elapsed_ns(start);
                l.inserts = 1;
                l.insert_bytes = store.journal_bytes().saturating_sub(before);
            }
            let metrics = JobMetrics {
                llm_calls: backbone.calls + reflection.calls,
                input_tokens: backbone.input_tokens + reflection.input_tokens,
                output_tokens: backbone.output_tokens + reflection.output_tokens,
                cost_usd: backbone.cost_usd + reflection.cost_usd,
                queue_wait: Duration::ZERO,
                exec: Duration::from_nanos(l.journal_get_ns + l.diagnose_ns + l.journal_insert_ns),
            };
            (diagnosis, metrics, failure)
        }
    };

    // 7. The reply.
    let result = JobResult {
        id: request.id.clone(),
        diagnosis,
        cached,
        worker: 0,
        metrics,
        trace_id: job.id.clone(),
        failure,
    };
    let start = Instant::now();
    let rendered = protocol::render_result(&result);
    l.render_ns = elapsed_ns(start);
    l.path_ns = l.protocol_parse_ns
        + l.canon_ns
        + l.journal_get_ns
        + l.diagnose_ns
        + l.journal_insert_ns
        + l.render_ns;
    Ok((l, parse_reply(&rendered, false), diagnose_ms))
}

/// Replay the stream from its first job on `setup.threads` threads (each
/// job single-threaded, as in a service worker) until `window` has passed
/// and the counted rounds are done.
pub fn replay(setup: &Setup, window: Duration) -> Result<Trace, String> {
    let counters = ResilienceCounters::detached();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + window;
    let out = Mutex::new(Trace::default());
    let error = Mutex::new(None::<String>);
    std::thread::scope(|scope| {
        for _ in 0..setup.threads.max(1) {
            scope.spawn(|| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(1)
                    .build()
                    .expect("replay pool");
                let mut counted = Layers::default();
                let mut all = Layers::default();
                let (mut timed_ms, mut plain_ms) = (Vec::new(), Vec::new());
                let mut replies = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if (i >= COUNTED && Instant::now() >= deadline)
                        || error.lock().unwrap().is_some()
                    {
                        break;
                    }
                    if let Some(rate) = setup.pace {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    }
                    let job = setup.requests.job(i);
                    match pool.install(|| replay_one(setup, &counters, &job)) {
                        Ok((layers, reply, diagnose_ms)) => {
                            if job.counted() {
                                counted.add(&layers);
                            }
                            all.add(&layers);
                            if let Some((timed, plain)) = diagnose_ms {
                                timed_ms.push(timed);
                                plain_ms.push(plain);
                            }
                            replies.push((job, reply));
                        }
                        Err(e) => {
                            *error.lock().unwrap() = Some(e);
                            break;
                        }
                    }
                }
                let mut out = out.lock().unwrap();
                out.counted.add(&counted);
                out.all.add(&all);
                out.diagnose_ms.extend(timed_ms);
                out.plain_ms.extend(plain_ms);
                out.replies.extend(replies);
            });
        }
    });
    if let Some(e) = error.into_inner().unwrap() {
        return Err(e);
    }
    let mut trace = out.into_inner().unwrap();
    trace.wall_s = start.elapsed().as_secs_f64();
    Ok(trace)
}
