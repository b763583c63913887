#![warn(missing_docs)]
//! `simllm` — a deterministic behavioural simulator of large language
//! models, calibrated to the failure modes the IOAgent paper engineers
//! around.
//!
//! The paper's contribution is not an LLM: it is an orchestration layer
//! (pre-processing, retrieval grounding, pairwise merging, bias-cancelled
//! judging) that turns an *unreliable* language model into a trustworthy
//! diagnostician. Reproducing that contribution offline therefore requires
//! a model substrate whose unreliability is realistic and controllable:
//!
//! - **finite attention** with *lost-in-the-middle* truncation
//!   ([`context`]), so stuffing a whole Darshan trace into a prompt
//!   mechanically destroys mid-file information (the ION failure mode);
//! - **capability-gated expertise** ([`iokb`]): harder inferences (server
//!   imbalance, missing collectives) need stronger models, unless retrieval
//!   grounding lowers the bar (the RAG benefit);
//! - **misconceptions** that surface exactly when ungrounded (the paper's
//!   "1 MB stripe is optimal" example, Fig. 1);
//! - **hallucination** of plausible but unsupported findings;
//! - **merge-fidelity collapse** as more documents are merged at once
//!   (the reason tree-based pairwise merging exists, Fig. 6);
//! - **positional and name bias** in ranking (the reason the judge
//!   anonymises and rotates, Fig. 4).
//!
//! Everything is deterministic per (model, prompt, salt), so the entire
//! evaluation pipeline is reproducible bit-for-bit.
//!
//! Every call is delivered by one event loop on the calling thread
//! ([`delivery`]). [`LanguageModel::complete_all`] on a bare [`SimLlm`]
//! is its unbounded case; a service job runs [`SimLlm::deliver_all`]
//! under its own [`ResiliencePolicy`] and deadline.

pub mod context;
pub mod delivery;
pub mod evidence;
pub mod faults;
pub mod iokb;
pub mod profile;
pub mod quality;
pub mod report;
pub mod rng;
pub mod tasks;

pub use delivery::{DeliveryFailure, HedgePolicy, ResilienceCounters, ResiliencePolicy};
pub use faults::{
    AttemptDraw, AttemptFault, FaultKind, FaultPlan, FaultSpec, LatencyProfile, TailSpec,
};
pub use profile::{profile, profile_or_panic, ModelProfile, PROFILES};
pub use report::{extract_issues, Diagnosis};

use ioobserve::{Counter, FloatCounter, Histogram};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Handles on the global registry's per-call `llm.*` instruments, looked
/// up once per process instead of by name on every delivery.
struct CallMetrics {
    calls: Arc<Counter>,
    input_tokens: Arc<Counter>,
    output_tokens: Arc<Counter>,
    cost_usd: Arc<FloatCounter>,
    call_ns: Arc<Histogram>,
    attempts: Arc<Histogram>,
}

fn call_metrics() -> &'static CallMetrics {
    static HANDLES: OnceLock<CallMetrics> = OnceLock::new();
    HANDLES.get_or_init(|| {
        let m = ioobserve::metrics();
        CallMetrics {
            calls: m.counter("llm.calls"),
            input_tokens: m.counter("llm.input_tokens"),
            output_tokens: m.counter("llm.output_tokens"),
            cost_usd: m.float_counter("llm.cost_usd"),
            call_ns: m.histogram("llm.call_ns"),
            attempts: m.histogram("llm.attempts"),
        }
    })
}

/// A completion request.
#[derive(Debug, Clone, Default)]
pub struct CompletionRequest {
    /// System prompt (instructions; attended first).
    pub system: String,
    /// User prompt (task + sections).
    pub user: String,
    /// Decorrelation salt (e.g. retry number, permutation index).
    pub salt: u64,
}

impl CompletionRequest {
    /// Convenience constructor.
    pub fn new(system: impl Into<String>, user: impl Into<String>) -> Self {
        CompletionRequest {
            system: system.into(),
            user: user.into(),
            salt: 0,
        }
    }

    /// With a specific salt.
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }
}

/// A completion result with usage accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The model's output text.
    pub text: String,
    /// Input tokens (before attention).
    pub input_tokens: usize,
    /// Output tokens.
    pub output_tokens: usize,
    /// Whether input was truncated / degraded by attention.
    pub truncated: bool,
    /// Fraction of input lines the model attended to.
    pub retention: f64,
    /// Accumulated cost of this call in USD.
    pub cost_usd: f64,
}

/// Anything that can complete prompts (the simulator, or a stub in tests).
pub trait LanguageModel: Send + Sync {
    /// Model name.
    fn name(&self) -> &str;
    /// Behavioural profile.
    fn profile(&self) -> &ModelProfile;
    /// Complete a request, retrying internally until it succeeds.
    fn complete(&self, request: &CompletionRequest) -> Completion;
    /// Complete independent requests, returning their completions in
    /// request order. The default issues them one after another through
    /// [`LanguageModel::complete`]; a model whose calls wait on a remote
    /// round trip overrides it to keep every call in flight at once, so
    /// the batch waits about as long as its slowest call.
    fn complete_all(&self, requests: &[CompletionRequest]) -> Vec<Completion> {
        requests.iter().map(|r| self.complete(r)).collect()
    }
}

/// Cumulative usage across a model instance's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// Number of completions served.
    pub calls: usize,
    /// Total input tokens.
    pub input_tokens: usize,
    /// Total output tokens.
    pub output_tokens: usize,
    /// Total cost in USD.
    pub cost_usd: f64,
}

/// The simulated LLM.
pub struct SimLlm {
    profile: &'static ModelProfile,
    usage: Mutex<Usage>,
    plan: FaultPlan,
}

impl SimLlm {
    /// Instantiate by profile name (panics on unknown names).
    pub fn new(model: &str) -> Self {
        SimLlm {
            profile: profile_or_panic(model),
            usage: Mutex::new(Usage::default()),
            plan: FaultPlan::default(),
        }
    }

    /// Charge a simulated remote round-trip per completion. A deployed
    /// agent fronts network-hosted models whose latency — not local
    /// compute — dominates, so benchmarks use this to reproduce the
    /// latency-bound regime on any machine. Output text and usage
    /// accounting are unaffected. This is the degenerate [`FaultPlan`]:
    /// a flat [`LatencyProfile`], no tail, no faults.
    pub fn with_latency(mut self, latency: std::time::Duration) -> Self {
        self.plan = self.plan.with_profile(LatencyProfile::flat(latency));
        self
    }

    /// Install a full failure model: streaming latency profile,
    /// heavy-tailed stragglers, and injected faults.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Generate `request`'s completion once — attention, task dispatch,
    /// text, per-call cost — without latency, faults, or usage. Every
    /// delivery attempt of the request shares this content, because
    /// content draws are keyed by (model, prompt, salt), never by lane.
    /// A batch of one `prepare_all`, the form the delivery loop uses.
    pub fn prepare(&self, request: &CompletionRequest) -> Prepared<'_> {
        self.prepare_all(std::slice::from_ref(request))
            .pop()
            .expect("one prepared call per request")
    }

    /// [`SimLlm::prepare`] every request, in request order.
    ///
    /// A batch's prompts often start alike: the 15 self-reflection
    /// prompts of one retrieval share everything up to their SOURCE text.
    /// The whole lines every prompt of the batch starts with are worked
    /// once: their hash state, lines, token count, task line and, for
    /// `filter`, section scan and FRAGMENT token set. Each call then works
    /// only its own suffix. Nothing outlives the call. The result is
    /// byte-identical to working each prompt whole. Every attempt span
    /// parents on the span that was current when the batch started.
    pub(crate) fn prepare_all(&self, requests: &[CompletionRequest]) -> Vec<Prepared<'_>> {
        let parent_span = ioobserve::tracer().current_span_id();
        let mut lower = Vec::new();
        let prefix = SharedPrefix::of(requests, &mut lower);
        requests
            .iter()
            .map(|request| self.prepare_under(request, &prefix, parent_span))
            .collect()
    }

    fn prepare_under(
        &self,
        request: &CompletionRequest,
        prefix: &SharedPrefix<'_>,
        parent_span: u64,
    ) -> Prepared<'_> {
        let started = Instant::now();
        let prompt = Prompt::of(request);
        let prompt_hash = prompt.hash(prefix.hash, prefix.len, prompt.len());
        let mut rng = rng::rng_for(self.profile.name, prompt_hash, request.salt);
        let mut lines = Vec::with_capacity(prefix.lines.len() + 4);
        lines.extend_from_slice(&prefix.lines);
        prompt.push_lines(prefix.len, prompt.len(), &mut lines);
        let input_tokens = prefix.tokens + context::line_tokens(&lines[prefix.lines.len()..]);
        let attended = context::attend_lines(self.profile, lines, input_tokens, &mut rng);

        // The prefix's parse holds only while attention kept every line.
        let (known, task, filter_prefix) = match attended.truncated {
            false => (prefix.lines.len(), prefix.task.as_ref(), &prefix.filter),
            true => (0, None, &tasks::FilterPrefix::default()),
        };
        let task = match task {
            Some(task) => task.clone(),
            None => task_name(
                tasks::parse_task(&attended.lines[known..])
                    .unwrap_or_else(|| "diagnose".to_string()),
            ),
        };
        let completion = respond(self.profile, &attended, &task, filter_prefix, &mut rng);
        Prepared {
            model: self,
            prompt_hash,
            salt: request.salt,
            output_tokens: completion.output_tokens,
            completion: Some(completion),
            task,
            parent_span,
            started,
        }
    }

    /// Snapshot of cumulative usage. Cost is derived here from the integer
    /// token totals (cost is linear in tokens, so the sum of per-call costs
    /// equals the cost of the summed tokens) rather than accumulated per
    /// call: f64 addition is order-sensitive, and with parallel completions
    /// an accumulated total would vary in its low bits from run to run —
    /// this way usage snapshots are bit-identical at any thread count.
    pub fn usage(&self) -> Usage {
        let mut usage = *self.usage.lock();
        usage.cost_usd =
            (usage.input_tokens + usage.output_tokens) as f64 / 1.0e6 * self.profile.cost_per_mtok;
        usage
    }
}

/// The tasks [`respond`] answers, by name.
const TASKS: [&str; 6] = ["diagnose", "transform", "merge", "filter", "rank", "chat"];

/// `task` as a static name when [`respond`] knows it, so a call can carry
/// its task without a copy of its own.
fn task_name(task: String) -> Cow<'static, str> {
    match TASKS.iter().find(|&&known| known == task) {
        Some(&known) => Cow::Borrowed(known),
        None => Cow::Owned(task),
    }
}

/// Run `task` over the attended prompt lines and price the answer.
/// `filter` is what the `filter` task may take from the lines the
/// batch's prompts share.
fn respond(
    profile: &ModelProfile,
    attended: &context::Attended<'_>,
    task: &str,
    filter: &tasks::FilterPrefix<'_>,
    rng: &mut rand_chacha::ChaCha8Rng,
) -> Completion {
    let lines = &attended.lines;
    let load = (attended.input_tokens as f64 / profile.context_tokens as f64).clamp(0.0, 1.0);
    let text = match task {
        "diagnose" => tasks::diagnose(profile, lines, load, rng),
        "transform" => tasks::transform(profile, lines),
        "merge" => tasks::merge(profile, lines, rng),
        "filter" => tasks::filter(profile, lines, filter, rng),
        "rank" => tasks::rank(profile, lines, rng),
        "chat" => tasks::chat(profile, lines, rng),
        _ => format!("I could not identify the task '{task}' in the prompt."),
    };
    let output_tokens = context::count_tokens(&text);
    let cost_usd = (attended.input_tokens + output_tokens) as f64 / 1.0e6 * profile.cost_per_mtok;
    Completion {
        text,
        input_tokens: attended.input_tokens,
        output_tokens,
        truncated: attended.truncated,
        retention: attended.retention,
        cost_usd,
    }
}

/// A request's prompt, `system + "\n" + user`, read as one byte stream
/// without copying it.
#[derive(Clone, Copy)]
struct Prompt<'a> {
    system: &'a str,
    user: &'a str,
}

impl<'a> Prompt<'a> {
    fn of(request: &'a CompletionRequest) -> Self {
        Prompt {
            system: &request.system,
            user: &request.user,
        }
    }

    fn len(&self) -> usize {
        self.system.len() + 1 + self.user.len()
    }

    /// The stream's bytes `from..to` as three pieces: system prompt,
    /// separator, user prompt (each possibly empty).
    fn pieces(&self, from: usize, to: usize) -> [&'a [u8]; 3] {
        let (system, user) = (self.system.as_bytes(), self.user.as_bytes());
        let s = system.len();
        let separator: &[u8] = if from <= s && s < to { b"\n" } else { b"" };
        [
            &system[from.min(s)..to.min(s)],
            separator,
            &user[from.max(s + 1) - s - 1..to.max(s + 1) - s - 1],
        ]
    }

    /// Length of a byte prefix this stream shares with `other`: through
    /// the user prompts when the system prompts are equal, else within
    /// the system prompts (shorter than the longest common prefix when
    /// one system prompt starts the other, which costs only sharing).
    fn common_prefix(&self, other: &Prompt<'_>) -> usize {
        if self.system != other.system {
            return common_len(self.system.as_bytes(), other.system.as_bytes());
        }
        self.system.len() + 1 + common_len(self.user.as_bytes(), other.user.as_bytes())
    }

    /// The start of the line holding byte `at`: just past the last `\n`
    /// before it, or 0.
    fn line_start(&self, at: usize) -> usize {
        let [system, separator, user] = self.pieces(0, at);
        let last_newline = |piece: &[u8]| piece.iter().rposition(|&b| b == b'\n');
        match last_newline(user) {
            Some(i) => system.len() + 1 + i + 1,
            None if !separator.is_empty() => system.len() + 1,
            None => last_newline(system).map_or(0, |i| i + 1),
        }
    }

    /// FNV-1a of the stream's bytes `from..to`, continued from `state`,
    /// the hash of the bytes before `from`.
    fn hash(&self, state: u64, from: usize, to: usize) -> u64 {
        self.pieces(from, to)
            .iter()
            .fold(state, |h, piece| rng::fnv1a_from(h, piece))
    }

    /// Push the lines of the stream's bytes `from..to`, both line starts
    /// (or `to` the end): what `str::lines` gives for that part of the
    /// joined prompt. The separator ends the system prompt's last line.
    fn push_lines(&self, from: usize, to: usize, out: &mut Vec<&'a str>) {
        let s = self.system.len();
        if to <= s {
            out.extend(self.system[from..to].lines());
        } else if from <= s {
            let system = self.system[from..].split('\n');
            out.extend(system.map(|l| l.strip_suffix('\r').unwrap_or(l)));
            out.extend(self.user[..to - s - 1].lines());
        } else {
            out.extend(self.user[from - s - 1..to - s - 1].lines());
        }
    }
}

/// Length of the common prefix of two byte strings.
fn common_len(x: &[u8], y: &[u8]) -> usize {
    x.iter().zip(y).take_while(|(a, b)| a == b).count()
}

/// What every prompt of one [`SimLlm::prepare_all`] batch shares: its
/// whole leading lines, worked once. Lives only for that call.
struct SharedPrefix<'a> {
    /// Bytes of the shared lines; each call's own work starts here.
    len: usize,
    /// FNV-1a state after those bytes.
    hash: u64,
    lines: Vec<&'a str>,
    /// [`context::line_tokens`] of `lines`.
    tokens: usize,
    /// The task, when its `### TASK:` line is among `lines`.
    task: Option<Cow<'static, str>>,
    /// The section scan and FRAGMENT token set of `filter` prompts.
    filter: tasks::FilterPrefix<'a>,
}

impl<'a> SharedPrefix<'a> {
    /// The shared prefix of `requests`: a byte prefix common to all
    /// their prompts, cut back to a line start. Non-ASCII FRAGMENT text
    /// is lower-cased into `lower`.
    fn of(requests: &'a [CompletionRequest], lower: &'a mut Vec<u8>) -> Self {
        let Some(first) = requests.first().map(Prompt::of) else {
            return SharedPrefix {
                len: 0,
                hash: rng::FNV_OFFSET,
                lines: Vec::new(),
                tokens: 0,
                task: None,
                filter: tasks::FilterPrefix::default(),
            };
        };
        let common = requests[1..]
            .iter()
            .map(|r| first.common_prefix(&Prompt::of(r)))
            .fold(first.len(), usize::min);
        let len = first.line_start(common);
        let mut lines = Vec::new();
        first.push_lines(0, len, &mut lines);
        let task = tasks::parse_task(&lines).map(task_name);
        let filter = match task.as_deref() {
            Some("filter") => tasks::FilterPrefix::new(&lines, lower),
            _ => tasks::FilterPrefix::default(),
        };
        SharedPrefix {
            len,
            hash: first.hash(rng::FNV_OFFSET, 0, len),
            tokens: context::line_tokens(&lines),
            lines,
            task,
            filter,
        }
    }
}

/// One request's content, generated once by [`SimLlm::prepare`] and
/// shared by all of its delivery attempts. Attempts are values: each
/// lane's latency and fault are drawn when it launches, the delivery loop
/// sleeps until the attempt it cares about finishes, and only a delivered
/// attempt is committed.
pub struct Prepared<'a> {
    model: &'a SimLlm,
    /// [`rng::stable_hash`] of `system\nuser`: the key of every content
    /// and attempt draw.
    prompt_hash: u64,
    salt: u64,
    /// Handed over, not copied, by the one attempt that delivers.
    completion: Option<Completion>,
    /// The completion's output tokens, which every attempt's latency
    /// draw scales with.
    output_tokens: usize,
    task: Cow<'static, str>,
    /// The caller's span at prepare time; every attempt's `llm.call`
    /// span is its child, so a hedge is a sibling of its primary.
    parent_span: u64,
    started: Instant,
}

impl Prepared<'_> {
    /// What attempt `lane` will do: its latency and fault. Pure and
    /// deterministic in (model, prompt, salt, lane).
    pub fn draw(&self, lane: u32) -> AttemptDraw {
        self.model.plan.draw(
            self.model.profile.name,
            self.prompt_hash,
            self.salt,
            lane,
            self.output_tokens,
        )
    }

    /// An RNG in the attempt-keyed domain of this request, for loop
    /// draws that must replay per lane (retry backoff).
    pub(crate) fn lane_rng(&self, lane: u32) -> rand_chacha::ChaCha8Rng {
        rng::rng_for_attempt(self.model.profile.name, self.prompt_hash, self.salt, lane)
    }

    /// Launch attempt `lane` now: open its `llm.call` span and draw its
    /// outcome. Nothing sleeps and nothing is charged; the loop waits
    /// until [`Attempt::finish`], then [`Prepared::resolve`]s it or
    /// [`Attempt::abandon`]s it.
    pub(crate) fn launch(&self, lane: u32) -> Attempt {
        let mut span = ioobserve::tracer().span_child_fine("llm.call", self.parent_span);
        span.set_attr("model", self.model.profile.name);
        if lane != 0 {
            span.set_attr("attempt", lane);
        }
        let draw = self.draw(lane);
        Attempt {
            draw,
            finish: Instant::now() + draw.latency,
            span,
        }
    }

    /// Resolve a finished attempt into its drawn fault, or deliver it:
    /// commit usage and metrics once and hand the completion over.
    /// Exactly one commit happens per delivered completion, so accounting
    /// is the same whether or not faults forced retries or hedges along
    /// the way. `llm.call_ns` records the wall time from
    /// [`SimLlm::prepare`] to delivery, retries and hedges included.
    pub(crate) fn resolve(&mut self, attempt: Attempt) -> Result<Completion, AttemptFault> {
        let Attempt { draw, mut span, .. } = attempt;
        if let Some(fault) = draw.fault {
            span.set_attr("fault", fault.kind.as_str());
            let counter = match fault.kind {
                FaultKind::Timeout => "llm.fault.timeout",
                FaultKind::RateLimited => "llm.fault.rate_limited",
                FaultKind::Truncated => "llm.fault.truncated",
            };
            ioobserve::metrics().counter(counter).inc();
            return Err(fault);
        }
        let completion = self.completion.take().expect("a request is delivered once");
        {
            // Integer sums only; the snapshot in [`SimLlm::usage`] derives
            // the (order-invariant) cost from these totals.
            let mut u = self.model.usage.lock();
            u.calls += 1;
            u.input_tokens += completion.input_tokens;
            u.output_tokens += completion.output_tokens;
        }
        span.set_attr("task", &self.task);
        span.set_attr("input_tokens", completion.input_tokens);
        span.set_attr("output_tokens", completion.output_tokens);
        drop(span);
        let m = call_metrics();
        m.calls.inc();
        m.input_tokens.add(completion.input_tokens as u64);
        m.output_tokens.add(completion.output_tokens as u64);
        m.cost_usd.add(completion.cost_usd);
        m.call_ns.record_duration(self.started.elapsed());
        Ok(completion)
    }
}

/// One in-flight delivery attempt: a value, not a thread. Its outcome
/// was drawn at launch; it resolves at [`Attempt::finish`].
pub(crate) struct Attempt {
    /// The drawn latency and fault.
    pub(crate) draw: AttemptDraw,
    /// When the attempt resolves.
    pub(crate) finish: Instant,
    span: ioobserve::Span,
}

impl Attempt {
    /// Drop an attempt that lost a race (or outlived the deadline)
    /// without billing it: its span is marked `cancelled=true`.
    pub(crate) fn abandon(mut self) {
        self.span.set_attr("cancelled", true);
        ioobserve::metrics().counter("llm.cancelled").inc();
    }
}

impl LanguageModel for SimLlm {
    fn name(&self) -> &str {
        self.profile.name
    }

    fn profile(&self) -> &ModelProfile {
        self.profile
    }

    /// A batch of one.
    fn complete(&self, request: &CompletionRequest) -> Completion {
        self.complete_all(std::slice::from_ref(request))
            .pop()
            .expect("one completion per request")
    }

    /// The one delivery loop's unbounded case: [`SimLlm::deliver_all`]
    /// under [`ResiliencePolicy::unbounded`], with no deadline and no
    /// counters. A faulted call relaunches on its next lane (1, 2, …)
    /// after its rate-limit hint, so every call succeeds eventually, with
    /// an enormous tail: the countermeasures-off baseline.
    fn complete_all(&self, requests: &[CompletionRequest]) -> Vec<Completion> {
        self.deliver_all(requests, &ResiliencePolicy::unbounded(), None, None)
            .expect("with no retry bound and no deadline every call is delivered")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_is_deterministic() {
        let m = SimLlm::new("gpt-4o");
        let req = CompletionRequest::new(
            "You are an HPC I/O expert.",
            "### TASK: diagnose\nEVIDENCE nprocs=8\nEVIDENCE posix.writes=1000\nEVIDENCE posix.small_write_fraction=0.9",
        );
        let a = m.complete(&req);
        let b = m.complete(&req);
        assert_eq!(a.text, b.text);
        assert_eq!(a.input_tokens, b.input_tokens);
    }

    #[test]
    fn salt_changes_stochastic_outcomes() {
        let m = SimLlm::new("llama-3-70b");
        let user = "### TASK: diagnose\nEVIDENCE nprocs=8\nEVIDENCE posix.writes=1000\nEVIDENCE posix.small_write_fraction=0.9\nEVIDENCE lustre.stripe_width_mean=1\nEVIDENCE total_bytes=2000000000\nEVIDENCE lustre.present=1";
        let texts: std::collections::BTreeSet<String> = (0..12)
            .map(|s| {
                m.complete(&CompletionRequest::new("sys", user).with_salt(s))
                    .text
            })
            .collect();
        assert!(texts.len() > 1, "salts produced identical outputs");
    }

    #[test]
    fn usage_accumulates() {
        let m = SimLlm::new("gpt-4o-mini");
        let req = CompletionRequest::new(
            "s",
            "### TASK: filter\n## FRAGMENT\na b c\n## SOURCE\na b c",
        );
        m.complete(&req);
        m.complete(&req);
        let u = m.usage();
        assert_eq!(u.calls, 2);
        assert!(u.input_tokens > 0);
        assert!(u.cost_usd > 0.0);
    }

    #[test]
    fn latency_knob_changes_neither_output_nor_accounting() {
        let req = CompletionRequest::new(
            "s",
            "### TASK: filter\n## FRAGMENT\na b c\n## SOURCE\na b c",
        );
        let plain = SimLlm::new("gpt-4o-mini");
        let slow = SimLlm::new("gpt-4o-mini").with_latency(std::time::Duration::from_millis(1));
        let a = plain.complete(&req);
        let b = slow.complete(&req);
        assert_eq!(a.text, b.text);
        assert_eq!(a.input_tokens, b.input_tokens);
        assert_eq!(plain.usage(), slow.usage());
    }

    #[test]
    fn complete_all_overlaps_calls_on_one_thread() {
        let requests: Vec<CompletionRequest> = (0..16)
            .map(|i| {
                CompletionRequest::new(
                    "Decide whether the source is relevant to the fragment.",
                    format!("### TASK: filter\n## FRAGMENT\nsmall writes {i}\n## SOURCE\nsmall writes\n"),
                )
            })
            .collect();
        let latency = std::time::Duration::from_millis(10);
        let overlapped = SimLlm::new("gpt-4o-mini").with_latency(latency);
        let started = Instant::now();
        let batch = overlapped.complete_all(&requests);
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(30),
            "16 calls of 10 ms took {elapsed:?}: they did not overlap"
        );
        let sequential = SimLlm::new("gpt-4o-mini").with_latency(latency);
        let one_by_one: Vec<Completion> = requests.iter().map(|r| sequential.complete(r)).collect();
        assert_eq!(batch, one_by_one);
        assert_eq!(overlapped.usage(), sequential.usage());
        assert_eq!(overlapped.usage().calls, 16);
    }

    #[test]
    fn complete_all_retries_each_faulted_call_to_the_same_content() {
        let requests: Vec<CompletionRequest> = (0..24)
            .map(|salt| {
                CompletionRequest::new(
                    "s",
                    "### TASK: diagnose\nEVIDENCE nprocs=8\nEVIDENCE posix.writes=1000",
                )
                .with_salt(salt)
            })
            .collect();
        let plain = SimLlm::new("gpt-4o");
        let flaky = SimLlm::new("gpt-4o").with_fault_plan(flaky_plan());
        assert!(
            requests
                .iter()
                .any(|r| flaky.prepare(r).draw(0).fault.is_some()),
            "no request faulted on lane 0; the test is vacuous"
        );
        assert_eq!(flaky.complete_all(&requests), plain.complete_all(&requests));
        assert_eq!(flaky.usage(), plain.usage());
        assert!(flaky.complete_all(&[]).is_empty());
    }

    /// The per-prompt path a batch must reproduce byte for byte: join
    /// the prompt, then hash, split, attend and answer it whole, with no
    /// shared prefix.
    fn whole_prompt(model: &str, request: &CompletionRequest) -> Completion {
        let profile = profile_or_panic(model);
        let prompt = format!("{}\n{}", request.system, request.user);
        let mut rng = rng::rng_for(model, rng::stable_hash(&prompt), request.salt);
        let attended = context::attend(profile, &prompt, &mut rng);
        let task = tasks::parse_task(&attended.lines).unwrap_or_else(|| "diagnose".to_string());
        let none = tasks::FilterPrefix::default();
        respond(profile, &attended, &task, &none, &mut rng)
    }

    /// Batches built to stress the shared-prefix path: a shared head cut
    /// at any character (mid-line too) with per-request tails, section
    /// headers and task lines inside queries, CRLF endings, systems that
    /// end in `\r` or `\n`, VT/FF and Unicode whitespace (U+0085, U+00A0,
    /// U+2028, U+3000), prompts past half of o1-preview's context budget,
    /// batches of 0 and 1, and batches with no common prefix.
    struct Batches;

    impl proptest::Strategy for Batches {
        type Value = (&'static str, Vec<CompletionRequest>);

        fn generate(&self, gen: &mut proptest::Gen) -> Self::Value {
            const MODELS: [&str; 2] = ["o1-preview", "gpt-4o-mini"];
            const SYSTEMS: [&str; 7] = [
                "Decide whether the source is relevant to the fragment.",
                "",
                "sys\r",
                "sys\n",
                "two\nlines",
                "crlf\r\n",
                "\u{3000}wide",
            ];
            const WORDS: [&str; 24] = [
                "small",
                "Writes",
                "STRIPE",
                "\u{212A}ernel",
                "i/o",
                "1MB",
                "a",
                "of",
                "\u{85}",
                "\u{a0}",
                "\u{2028}",
                "\u{3000}",
                "\x0B",
                "\x0C",
                "\t",
                "\x1C",
                "\r",
                "write",
                "bandwidth",
                "\u{0130}NDEX",
                "small",
                "writes",
                "stripe",
                "kernel",
            ];
            const LINES: [&str; 9] = [
                "## SOURCE",
                "## FRAGMENT",
                "## \u{17F}ource 2",
                "  ## fragment  ",
                "### TASK: filter",
                "### TASK: Diagnose",
                "## NOTES",
                "",
                "EVIDENCE nprocs=8",
            ];
            fn pick<'a>(gen: &mut proptest::Gen, list: &[&'a str]) -> &'a str {
                list[gen.below(list.len() as u64) as usize]
            }
            fn text(gen: &mut proptest::Gen, max_lines: u64) -> String {
                let mut out = String::new();
                for _ in 0..gen.below(max_lines + 1) {
                    if gen.below(4) == 0 {
                        out.push_str(pick(gen, &LINES));
                    } else {
                        for w in 0..1 + gen.below(8) {
                            if w > 0 {
                                out.push_str(pick(gen, &[" ", " ", "  ", "\t", ", "]));
                            }
                            out.push_str(pick(gen, &WORDS));
                        }
                    }
                    out.push_str(pick(gen, &["\n", "\n", "\r\n"]));
                }
                out
            }
            // About 2 100 tokens: past o1-preview's 2 000-token half budget.
            fn padding(gen: &mut proptest::Gen) -> String {
                match gen.below(6) {
                    0 => (0..700).map(|i| format!("pad {i} x\n")).collect(),
                    _ => String::new(),
                }
            }

            let model = pick(gen, &MODELS);
            let size = gen.below(7) as usize;
            let shared = gen.below(5) != 0;
            let system = pick(gen, &SYSTEMS);
            let mut head = match gen.below(4) {
                0 | 1 => format!("### TASK: filter\n## FRAGMENT\n{}## SOURCE\n", text(gen, 3)),
                2 => format!("{}{}", text(gen, 4), padding(gen)),
                _ => text(gen, 2),
            };
            if gen.below(3) == 0 {
                let cut = gen.below(head.len() as u64 + 1) as usize;
                let cut = (0..=cut)
                    .rev()
                    .find(|&c| head.is_char_boundary(c))
                    .unwrap_or(0);
                head.truncate(cut);
            }
            let requests = (0..size)
                .map(|_| {
                    let tail = format!("{}{}", text(gen, 3), padding(gen));
                    let (system, user) = if shared {
                        (system, format!("{head}{tail}"))
                    } else {
                        (pick(gen, &SYSTEMS), tail)
                    };
                    let user = match gen.below(4) {
                        0 => user.trim_end_matches('\n').to_string(),
                        _ => user,
                    };
                    CompletionRequest::new(system, user).with_salt(gen.below(3))
                })
                .collect();
            (model, requests)
        }
    }

    proptest::proptest! {
        #[test]
        fn the_prompt_stream_reads_as_the_joined_prompt(
            system in "[ab\r\n ]{0,8}",
            user in "[ab\r\n ]{0,8}",
        ) {
            let request = CompletionRequest::new(system, user);
            let prompt = Prompt::of(&request);
            let joined = format!("{}\n{}", request.system, request.user);
            assert_eq!(prompt.len(), joined.len());
            for at in 0..=joined.len() {
                let start = joined[..at].rfind('\n').map_or(0, |i| i + 1);
                assert_eq!(prompt.line_start(at), start, "{joined:?} at {at}");
            }
            for split in (0..=joined.len()).filter(|&i| i == 0 || joined.as_bytes()[i - 1] == b'\n') {
                let mut lines = Vec::new();
                prompt.push_lines(0, split, &mut lines);
                prompt.push_lines(split, prompt.len(), &mut lines);
                assert_eq!(lines, joined.lines().collect::<Vec<_>>(), "{joined:?} split at {split}");
                let head = prompt.hash(rng::FNV_OFFSET, 0, split);
                assert_eq!(head, rng::stable_hash(&joined[..split]));
                assert_eq!(prompt.hash(head, split, prompt.len()), rng::stable_hash(&joined));
            }
        }

        #[test]
        fn a_batch_answers_each_request_as_a_call_of_its_own(case in Batches) {
            let (model, requests) = case;
            let batch = SimLlm::new(model).complete_all(&requests);
            let single = SimLlm::new(model);
            for (i, request) in requests.iter().enumerate() {
                assert_eq!(batch[i], single.complete(request), "{model} {request:?}");
                assert_eq!(batch[i], whole_prompt(model, request), "{model} {request:?}");
            }
            assert_eq!(batch.len(), requests.len());

            // The hash seeds every attempt draw: lanes 0, 1 and the hedge
            // lane must draw alike from a batch and from a single call.
            let faulty = SimLlm::new(model).with_fault_plan(flaky_plan().with_tail(TailSpec {
                probability: 0.5,
                lognormal_sigma: 1.0,
                median_multiplier: 8.0,
                pareto_alpha: 1.5,
                pareto_weight: 0.3,
                max_multiplier: 50.0,
            }));
            for (prepared, request) in faulty.prepare_all(&requests).iter().zip(&requests) {
                let joined = format!("{}\n{}", request.system, request.user);
                assert_eq!(prepared.prompt_hash, rng::stable_hash(&joined));
                let alone = faulty.prepare(request);
                for lane in [0, 1, 0x8000_0000] {
                    assert_eq!(prepared.draw(lane), alone.draw(lane), "lane {lane}");
                }
            }
        }
    }

    #[test]
    fn unknown_task_degrades_gracefully() {
        let m = SimLlm::new("gpt-4");
        let c = m.complete(&CompletionRequest::new("", "### TASK: haiku\nwrite one"));
        assert!(c.text.contains("could not identify"));
    }

    #[test]
    fn huge_prompt_reports_truncation() {
        let m = SimLlm::new("gpt-4");
        let mut user = String::from("### TASK: diagnose\n");
        for i in 0..20_000 {
            user.push_str(&format!("POSIX\t0\t{i}\tPOSIX_READS\t1\t/f\t/\text4\n"));
        }
        let c = m.complete(&CompletionRequest::new("", &user));
        assert!(c.truncated);
        assert!(c.retention < 0.5);
    }

    #[test]
    #[should_panic(expected = "unknown model profile")]
    fn unknown_model_panics() {
        SimLlm::new("gpt-17");
    }

    /// A plan whose faults are frequent enough that infinite-patience
    /// delivery is all but guaranteed to retry, with waits in the
    /// microseconds so tests stay fast.
    fn flaky_plan() -> FaultPlan {
        FaultPlan::new()
            .with_profile(LatencyProfile::new(
                std::time::Duration::from_micros(20),
                2e8,
            ))
            .with_faults(FaultSpec {
                timeout_probability: 0.4,
                timeout: std::time::Duration::from_micros(50),
                rate_limit_probability: 0.2,
                retry_after: std::time::Duration::from_micros(10),
                truncate_probability: 0.1,
            })
    }

    #[test]
    fn faults_force_retries_but_content_and_usage_are_unchanged() {
        let req = CompletionRequest::new(
            "s",
            "### TASK: filter\n## FRAGMENT\na b c\n## SOURCE\na b c",
        );
        let plain = SimLlm::new("gpt-4o-mini");
        let flaky = SimLlm::new("gpt-4o-mini").with_fault_plan(flaky_plan());
        // Drive enough distinct prompts that some certainly fault.
        let mut faulted = 0usize;
        for i in 0..24 {
            let r = req.clone().with_salt(i);
            if flaky.prepare(&r).draw(0).fault.is_some() {
                faulted += 1;
            }
            let a = plain.complete(&r);
            let b = flaky.complete(&r);
            assert_eq!(a.text, b.text, "salt {i}: retries changed content");
            assert_eq!(a.input_tokens, b.input_tokens);
        }
        assert!(
            faulted > 0,
            "plan with 70% fault rate never faulted in 24 draws"
        );
        // Faulted attempts charge nothing and each delivered completion
        // commits exactly once: retries never double- or under-count.
        assert_eq!(flaky.usage(), plain.usage());
        assert_eq!(plain.usage().calls, 24);
    }

    #[test]
    fn attempt_lane_changes_timing_but_not_content() {
        let m = SimLlm::new("gpt-4o").with_fault_plan(
            FaultPlan::new()
                .with_profile(LatencyProfile::new(
                    std::time::Duration::from_micros(10),
                    1e9,
                ))
                .with_tail(TailSpec {
                    probability: 0.5,
                    lognormal_sigma: 1.0,
                    median_multiplier: 8.0,
                    pareto_alpha: 1.5,
                    pareto_weight: 0.3,
                    max_multiplier: 50.0,
                }),
        );
        let req = CompletionRequest::new(
            "You are an HPC I/O expert.",
            "### TASK: diagnose\nEVIDENCE nprocs=8\nEVIDENCE posix.writes=1000",
        );
        let prepared = m.prepare(&req);
        let draws: Vec<AttemptDraw> = (0..8).map(|a| prepared.draw(a)).collect();
        assert!(
            draws.iter().any(|d| *d != draws[0]),
            "8 attempt lanes drew identical timing"
        );
        let texts: std::collections::BTreeSet<String> = (0..8)
            .map(|a| {
                let mut prepared = m.prepare(&req);
                prepared.resolve(prepared.launch(a)).unwrap().text
            })
            .collect();
        assert_eq!(texts.len(), 1, "attempt lane leaked into content");
        assert!(texts.contains(&SimLlm::new("gpt-4o").complete(&req).text));
    }

    #[test]
    fn abandoned_attempt_charges_no_usage() {
        let m = SimLlm::new("gpt-4o-mini").with_latency(std::time::Duration::from_millis(50));
        let req = CompletionRequest::new(
            "s",
            "### TASK: filter\n## FRAGMENT\na b c\n## SOURCE\na b c",
        );
        let prepared = m.prepare(&req);
        let attempt = prepared.launch(0);
        assert!(attempt.finish >= Instant::now(), "launch must not sleep");
        attempt.abandon();
        assert_eq!(
            m.usage().calls,
            0,
            "abandoned attempt must not commit usage"
        );
    }

    #[test]
    fn resolve_follows_the_draw_and_commits_only_successes() {
        let m = SimLlm::new("gpt-4o").with_fault_plan(flaky_plan());
        let mut delivered = 0;
        for salt in 0..16 {
            let req = CompletionRequest::new(
                "s",
                "### TASK: diagnose\nEVIDENCE nprocs=8\nEVIDENCE posix.writes=1000",
            )
            .with_salt(salt);
            let mut prepared = m.prepare(&req);
            let drawn = prepared.draw(0);
            let outcome = prepared.resolve(prepared.launch(0));
            match drawn.fault {
                Some(f) => assert_eq!(outcome, Err(f), "salt {salt}"),
                None => {
                    assert!(outcome.is_ok(), "salt {salt}");
                    delivered += 1;
                }
            }
        }
        assert_eq!(m.usage().calls, delivered);
    }
}
