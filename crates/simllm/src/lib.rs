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

pub mod context;
pub mod evidence;
pub mod faults;
pub mod iokb;
pub mod profile;
pub mod quality;
pub mod report;
pub mod rng;
pub mod tasks;

pub use faults::{
    sleep_until, AttemptDraw, AttemptFault, FaultKind, FaultPlan, FaultSpec, LatencyProfile,
    TailSpec,
};
pub use profile::{profile, profile_or_panic, ModelProfile, PROFILES};
pub use report::{extract_issues, Diagnosis};

use ioobserve::{Counter, FloatCounter, Histogram};
use parking_lot::Mutex;
use rayon::prelude::*;
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

    /// The installed failure model.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Generate `request`'s completion once — attention, task dispatch,
    /// text, per-call cost — without latency, faults, or usage. Every
    /// delivery attempt of the request shares this content, because
    /// content draws are keyed by (model, prompt, salt), never by lane.
    pub fn prepare(&self, request: &CompletionRequest) -> Prepared<'_> {
        self.prepare_under(request, ioobserve::tracer().current_span_id())
    }

    /// [`SimLlm::prepare`] every request, split across the current shim
    /// pool (content generation is the CPU part of a call), in request
    /// order. Every attempt span parents on the caller's current span,
    /// whichever pool thread prepared the request.
    pub fn prepare_all(&self, requests: &[CompletionRequest]) -> Vec<Prepared<'_>> {
        let parent_span = ioobserve::tracer().current_span_id();
        requests
            .par_iter()
            .map(|request| self.prepare_under(request, parent_span))
            .collect()
    }

    fn prepare_under(&self, request: &CompletionRequest, parent_span: u64) -> Prepared<'_> {
        let started = Instant::now();
        let prompt = format!("{}\n{}", request.system, request.user);
        let prompt_hash = rng::stable_hash(&prompt);
        let mut rng = rng::rng_for(self.profile.name, prompt_hash, request.salt);
        let attended = context::attend(self.profile, &prompt, &mut rng);

        let task = tasks::parse_task(&attended.lines).unwrap_or_else(|| "diagnose".to_string());
        let load =
            (attended.input_tokens as f64 / self.profile.context_tokens as f64).clamp(0.0, 1.0);
        let text = match task.as_str() {
            "diagnose" => tasks::diagnose(self.profile, &attended.lines, load, &mut rng),
            "transform" => tasks::transform(self.profile, &attended.lines),
            "merge" => tasks::merge(self.profile, &attended.lines, &mut rng),
            "filter" => tasks::filter(self.profile, &attended.lines, &mut rng),
            "rank" => tasks::rank(self.profile, &attended.lines, &mut rng),
            "chat" => tasks::chat(self.profile, &attended.lines, &mut rng),
            _ => format!("I could not identify the task '{task}' in the prompt."),
        };

        let output_tokens = context::count_tokens(&text);
        let cost_usd =
            (attended.input_tokens + output_tokens) as f64 / 1.0e6 * self.profile.cost_per_mtok;
        Prepared {
            model: self,
            prompt_hash,
            salt: request.salt,
            completion: Completion {
                text,
                input_tokens: attended.input_tokens,
                output_tokens,
                truncated: attended.truncated,
                retention: attended.retention,
                cost_usd,
            },
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

/// One request's content, generated once by [`SimLlm::prepare`] and
/// shared by all of its delivery attempts. Attempts are values: each
/// lane's latency and fault are drawn when it launches, the caller sleeps
/// until the attempt it cares about finishes, and only a delivered
/// attempt is committed.
pub struct Prepared<'a> {
    model: &'a SimLlm,
    /// [`rng::stable_hash`] of `system\nuser`: the key of every content
    /// and attempt draw.
    prompt_hash: u64,
    salt: u64,
    completion: Completion,
    task: String,
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
            self.completion.output_tokens,
        )
    }

    /// An RNG in the attempt-keyed domain of this request, for caller
    /// draws that must replay per lane (retry backoff).
    pub fn lane_rng(&self, lane: u32) -> rand_chacha::ChaCha8Rng {
        rng::rng_for_attempt(self.model.profile.name, self.prompt_hash, self.salt, lane)
    }

    /// Launch attempt `lane` now: open its `llm.call` span and draw its
    /// outcome. Nothing sleeps and nothing is charged; the caller waits
    /// until [`Attempt::finish`], then [`Prepared::resolve`]s it or
    /// [`Attempt::abandon`]s it.
    pub fn launch(&self, lane: u32) -> Attempt {
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
    /// commit usage and metrics once and return the completion. Exactly
    /// one commit happens per delivered completion, so accounting is the
    /// same whether or not faults forced retries or hedges along the way.
    /// `llm.call_ns` records the wall time from [`SimLlm::prepare`] to
    /// delivery, retries and hedges included.
    pub fn resolve(&self, attempt: Attempt) -> Result<Completion, AttemptFault> {
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
        let completion = &self.completion;
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
        Ok(completion.clone())
    }
}

/// One in-flight delivery attempt: a value, not a thread. Its outcome
/// was drawn at launch; it resolves at [`Attempt::finish`].
pub struct Attempt {
    /// The drawn latency and fault.
    pub draw: AttemptDraw,
    /// When the attempt resolves.
    pub finish: Instant,
    span: ioobserve::Span,
}

impl Attempt {
    /// Drop an attempt that lost a race (or outlived the deadline)
    /// without billing it: its span is marked `cancelled=true`.
    pub fn abandon(mut self) {
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

    /// Infinite-patience delivery of every request at once: launch each
    /// request's lane 0 together, then sleep to the earliest event — an
    /// attempt's finish or a faulted call's relaunch — and handle it. A
    /// faulted call relaunches on its next lane (1, 2, …) after the
    /// fault's rate-limit hint; the first success is delivered. This is
    /// the countermeasures-off baseline a resilient caller competes
    /// against — it always succeeds eventually, with an enormous tail.
    /// The loop runs on the calling thread and starts none.
    fn complete_all(&self, requests: &[CompletionRequest]) -> Vec<Completion> {
        let prepared = self.prepare_all(requests);
        let mut calls: Vec<(u32, Delivery)> = prepared
            .iter()
            .map(|p| (0, Delivery::InFlight(p.launch(0))))
            .collect();
        loop {
            let next = calls
                .iter()
                .enumerate()
                .filter_map(|(i, (_, d))| match d {
                    Delivery::InFlight(attempt) => Some((attempt.finish, i)),
                    Delivery::Relaunch(at) => Some((*at, i)),
                    Delivery::Delivered(_) => None,
                })
                .min();
            let Some((at, i)) = next else { break };
            sleep_until(at);
            let (lane, delivery) = &mut calls[i];
            match std::mem::replace(delivery, Delivery::Relaunch(at)) {
                Delivery::Relaunch(_) => {
                    *lane = lane.wrapping_add(1);
                    *delivery = Delivery::InFlight(prepared[i].launch(*lane));
                }
                Delivery::InFlight(attempt) => match prepared[i].resolve(attempt) {
                    Ok(completion) => {
                        call_metrics().attempts.record(u64::from(*lane) + 1);
                        *delivery = Delivery::Delivered(completion);
                    }
                    Err(fault) => {
                        let wait = fault.retry_after.unwrap_or_default();
                        *delivery = Delivery::Relaunch(Instant::now() + wait);
                    }
                },
                Delivery::Delivered(_) => unreachable!("a delivered call has no event"),
            }
        }
        calls
            .into_iter()
            .map(|(_, d)| match d {
                Delivery::Delivered(completion) => completion,
                _ => unreachable!("the loop ends once every call is delivered"),
            })
            .collect()
    }
}

/// Where one call of [`SimLlm`]'s delivery loop stands.
enum Delivery {
    /// The current lane's attempt is in flight.
    InFlight(Attempt),
    /// The last lane faulted; the next launches at this instant.
    Relaunch(Instant),
    /// Delivered and billed.
    Delivered(Completion),
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
        let one_thread = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let overlapped = SimLlm::new("gpt-4o-mini").with_latency(latency);
        let started = Instant::now();
        let batch = one_thread.install(|| overlapped.complete_all(&requests));
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
            .map(|a| prepared.resolve(prepared.launch(a)).unwrap().text)
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
            let prepared = m.prepare(&req);
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
