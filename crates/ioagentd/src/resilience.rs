//! Deadlines, bounded retries, and hedged requests around the LLM calls
//! inside one job.
//!
//! [`ResilientLlm`] wraps a per-job [`SimLlm`] and implements
//! [`LanguageModel`], so the agent pipeline needs no changes: every
//! completion the pipeline issues flows through the resilience loop.
//!
//! The loop is an event loop on the job's own thread; it starts no
//! thread. The simulator generates a request's content once
//! ([`SimLlm::prepare`]) and draws each attempt's latency and fault the
//! moment it launches, so an in-flight attempt is a value with a known
//! finish time. Each round sleeps until the earliest of an attempt's
//! finish, the hedge launch, or the deadline, then handles that event.
//!
//! - **Bounded retries**: an injected fault triggers up to
//!   [`ResiliencePolicy::max_retries`] re-deliveries with deterministic
//!   decorrelated backoff. The backoff draw comes from the simulator's
//!   attempt-keyed fault domain (lane `0x4000_0000 | round`), so wait
//!   times replay bit-identically too.
//! - **Hedged requests**: after a delay derived from the live
//!   `service.llm_attempt_ns` quantile, a duplicate of the in-flight
//!   attempt launches on hedge lane `0x8000_0000 | round`, reusing the
//!   round's content. The first success is delivered and billed; the
//!   loser is dropped unbilled, its span marked `cancelled=true`.
//!   Because content draws are keyed by (model, prompt, salt) — never by
//!   attempt or timing — the delivered completion is byte-identical
//!   whichever lane wins, and usage is charged once per completion.
//! - **Deadlines**: an absolute per-job deadline caps the whole loop.
//!   On expiry every in-flight attempt is dropped and the job fails with
//!   `deadline_exceeded`.
//!
//! The first failure latches: subsequent completions on the same job
//! fail fast with an empty completion, so a doomed job stops burning
//! simulated spend, and the worker reports one [`JobFailure`] for the
//! whole job.

use ioobserve::{Counter, Histogram};
use simllm::{
    sleep_until, Attempt, AttemptFault, Completion, CompletionRequest, FaultKind, LanguageModel,
    ModelProfile, Prepared, SimLlm,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Attempt lane for the hedged duplicate of retry round `round`.
const HEDGE_LANE: u32 = 0x8000_0000;
/// Attempt lane for the backoff draw before retry round `round`.
const BACKOFF_LANE: u32 = 0x4000_0000;
/// Hedge delay falls back to [`HedgePolicy::min_delay`] until the
/// attempt-latency histogram has this many samples.
const HEDGE_WARMUP_SAMPLES: u64 = 20;

/// When to launch a hedged duplicate of an in-flight attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Launch the hedge once the attempt has been in flight longer than
    /// this quantile of observed attempt latency (e.g. `0.95`).
    pub quantile: f64,
    /// Floor on the hedge delay; also the cold-start delay while the
    /// latency histogram is still warming up.
    pub min_delay: Duration,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            quantile: 0.95,
            min_delay: Duration::from_millis(5),
        }
    }
}

/// Retry/backoff/hedge knobs for the LLM calls inside one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Re-deliveries allowed after the first faulted attempt
    /// (`None` = unbounded: retry until success or deadline).
    pub max_retries: Option<u32>,
    /// Decorrelated-jitter backoff floor before a retry.
    pub backoff_base: Duration,
    /// Backoff ceiling (the jitter range grows 3× per round up to this).
    pub backoff_cap: Duration,
    /// Hedged-request policy (`None` disables hedging).
    pub hedge: Option<HedgePolicy>,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            max_retries: Some(2),
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(50),
            hedge: None,
        }
    }
}

impl ResiliencePolicy {
    /// Infinite patience: no retry bound, no backoff, no hedging. What a
    /// job gets when only a deadline is configured — the deadline alone
    /// bounds it.
    pub fn unbounded() -> Self {
        ResiliencePolicy {
            max_retries: None,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            hedge: None,
        }
    }

    /// Builder-style retry bound.
    pub fn retries(mut self, max: u32) -> Self {
        self.max_retries = Some(max);
        self
    }

    /// Builder-style backoff range.
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Builder-style hedging policy.
    pub fn hedged(mut self, hedge: HedgePolicy) -> Self {
        self.hedge = Some(hedge);
        self
    }
}

/// Why a job produced no diagnosis. Carried on [`crate::JobResult`] and
/// rendered as a protocol error reply with the matching `error_kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFailure {
    /// The deadline expired while the job sat in the bounded queue; it
    /// was shed at dequeue without executing.
    DeadlineExceededQueued,
    /// The deadline expired mid-execution.
    DeadlineExceeded,
    /// Every allowed delivery attempt faulted.
    RetriesExhausted {
        /// Delivery attempts made (including hedges).
        attempts: u32,
        /// The fault that ended the final round.
        last: FaultKind,
    },
    /// A fault with retries disabled (`max_retries == 0`).
    Fault(FaultKind),
}

impl JobFailure {
    /// The protocol `error_kind` for this failure.
    pub fn error_kind(&self) -> &'static str {
        match self {
            JobFailure::DeadlineExceededQueued | JobFailure::DeadlineExceeded => {
                "deadline_exceeded"
            }
            JobFailure::RetriesExhausted { .. } => "retries_exhausted",
            JobFailure::Fault(kind) => kind.as_str(),
        }
    }

    /// Human-readable detail for the protocol error reply.
    pub fn message(&self) -> String {
        match self {
            JobFailure::DeadlineExceededQueued => {
                "deadline expired while the job was queued; shed without executing".to_string()
            }
            JobFailure::DeadlineExceeded => "deadline expired during execution".to_string(),
            JobFailure::RetriesExhausted { attempts, last } => {
                format!(
                    "all {attempts} delivery attempts faulted (last: {})",
                    last.as_str()
                )
            }
            JobFailure::Fault(kind) => {
                format!("llm fault with retries disabled: {}", kind.as_str())
            }
        }
    }
}

/// The service-registry instruments the resilience loop records into.
/// Resolved once per service; cloning shares the underlying atomics.
#[derive(Clone)]
pub struct ResilienceCounters {
    /// Retry rounds entered (`service.retries`).
    pub retries: Arc<Counter>,
    /// Hedged duplicates launched (`service.hedges`).
    pub hedges: Arc<Counter>,
    /// Races the hedge won (`service.hedge_wins`).
    pub hedge_wins: Arc<Counter>,
    /// Injected timeouts observed (`service.faults.timeout`).
    pub fault_timeout: Arc<Counter>,
    /// Injected rate limits observed (`service.faults.rate_limited`).
    pub fault_rate_limited: Arc<Counter>,
    /// Injected truncations observed (`service.faults.truncated`).
    pub fault_truncated: Arc<Counter>,
    /// Drawn latency of delivered attempts (`service.llm_attempt_ns`) —
    /// the quantile source for hedge delays.
    pub attempt_ns: Arc<Histogram>,
}

impl ResilienceCounters {
    /// Counters on a private lifetime-only registry, for using
    /// [`ResilientLlm`] outside a service (unit tests, ad-hoc tools).
    pub fn detached() -> Self {
        let registry = ioobserve::MetricsRegistry::new();
        ResilienceCounters {
            retries: registry.counter("service.retries"),
            hedges: registry.counter("service.hedges"),
            hedge_wins: registry.counter("service.hedge_wins"),
            fault_timeout: registry.counter("service.faults.timeout"),
            fault_rate_limited: registry.counter("service.faults.rate_limited"),
            fault_truncated: registry.counter("service.faults.truncated"),
            attempt_ns: registry.histogram("service.llm_attempt_ns"),
        }
    }

    fn fault(&self, kind: FaultKind) -> &Counter {
        match kind {
            FaultKind::Timeout => &self.fault_timeout,
            FaultKind::RateLimited => &self.fault_rate_limited,
            FaultKind::Truncated => &self.fault_truncated,
        }
    }
}

/// One race round's outcome.
enum RoundOutcome {
    Won(Completion),
    Fault(AttemptFault),
    Deadline,
}

/// A [`LanguageModel`] that delivers its inner [`SimLlm`]'s completions
/// under a deadline, with bounded retries and hedged requests. See the
/// module docs for the determinism argument.
pub struct ResilientLlm {
    inner: SimLlm,
    policy: ResiliencePolicy,
    deadline: Option<Instant>,
    counters: ResilienceCounters,
    failure: Mutex<Option<JobFailure>>,
}

impl ResilientLlm {
    /// Wrap `inner` with `policy`, failing the job outright at
    /// `deadline` (when set).
    pub fn new(
        inner: SimLlm,
        policy: ResiliencePolicy,
        deadline: Option<Instant>,
        counters: ResilienceCounters,
    ) -> Self {
        ResilientLlm {
            inner,
            policy,
            deadline,
            counters,
            failure: Mutex::new(None),
        }
    }

    /// The wrapped simulator's cumulative usage.
    pub fn usage(&self) -> simllm::Usage {
        self.inner.usage()
    }

    /// The first failure this job hit, if any. The worker calls this
    /// once after the pipeline finishes to decide success vs error.
    pub fn take_failure(&self) -> Option<JobFailure> {
        self.failure
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    fn fail(&self, failure: JobFailure) {
        let mut slot = self
            .failure
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // First failure wins; later calls fail fast without overwriting.
        slot.get_or_insert(failure);
    }

    fn failed(&self) -> bool {
        self.failure
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some()
    }

    /// Time left before the deadline; `None` with no deadline, `ZERO`
    /// once expired.
    fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// When to launch the hedge: the configured quantile of observed
    /// successful-attempt latency, floored by `min_delay` (which also
    /// covers the cold start before the histogram has samples).
    fn hedge_delay(&self) -> Option<Duration> {
        let hedge = self.policy.hedge.as_ref()?;
        let observed = if self.counters.attempt_ns.count() >= HEDGE_WARMUP_SAMPLES {
            Duration::from_nanos(self.counters.attempt_ns.quantile(hedge.quantile))
        } else {
            Duration::ZERO
        };
        Some(observed.max(hedge.min_delay))
    }

    /// Deterministic decorrelated-jitter backoff before retry `round`
    /// (≥ 1): uniform in `[base, min(base·3^round, cap)]`, drawn from
    /// the attempt-keyed fault domain so reruns replay the same waits.
    fn backoff(&self, prepared: &Prepared, round: u32) -> Duration {
        let base = self.policy.backoff_base.as_nanos() as u64;
        let cap = self.policy.backoff_cap.as_nanos() as u64;
        if base == 0 || cap <= base {
            return self.policy.backoff_base;
        }
        let hi = base
            .saturating_mul(3u64.saturating_pow(round.min(32)))
            .min(cap);
        let mut rng = prepared.lane_rng(BACKOFF_LANE | (round & !BACKOFF_LANE));
        use rand::Rng;
        Duration::from_nanos(rng.gen_range(base..=hi))
    }

    /// Run one retry round: the primary attempt on lane `round` and —
    /// once the hedge delay passes with the primary still in flight — a
    /// duplicate on the hedge lane. Sleeps to each event in time order
    /// (ties go to the primary). The first success wins and is billed;
    /// the other attempt is dropped. `attempts` counts every launched
    /// delivery attempt.
    fn race(&self, prepared: &Prepared, round: u32, attempts: &mut u32) -> RoundOutcome {
        *attempts += 1;
        let primary = prepared.launch(round);
        let primary_finish = primary.finish;
        let mut hedge_at = self.hedge_delay().map(|d| Instant::now() + d);
        let mut in_flight: [Option<Attempt>; 2] = [Some(primary), None];
        loop {
            let (finish, lane) = in_flight
                .iter()
                .enumerate()
                .filter_map(|(i, a)| a.as_ref().map(|a| (a.finish, i)))
                .min()
                .expect("a round always has an attempt in flight");
            let hedge_due = hedge_at.filter(|&at| at < finish);
            let next = hedge_due.unwrap_or(finish);
            if let Some(deadline) = self.deadline.filter(|&d| d < next) {
                sleep_until(deadline);
                in_flight.into_iter().flatten().for_each(Attempt::abandon);
                return RoundOutcome::Deadline;
            }
            sleep_until(next);
            if hedge_due.is_some() {
                hedge_at = None;
                self.counters.hedges.inc();
                *attempts += 1;
                in_flight[1] = Some(prepared.launch(HEDGE_LANE | (round & !HEDGE_LANE)));
                continue;
            }
            let attempt = in_flight[lane]
                .take()
                .expect("picked from the in-flight set");
            let latency = attempt.draw.latency;
            match prepared.resolve(attempt) {
                Ok(completion) => {
                    self.counters.attempt_ns.record_duration(latency);
                    if lane == 1 {
                        self.counters.hedge_wins.inc();
                        ioobserve::metrics()
                            .histogram("hedge.win_margin_ns")
                            .record_duration(primary_finish.saturating_duration_since(finish));
                    }
                    in_flight.into_iter().flatten().for_each(Attempt::abandon);
                    return RoundOutcome::Won(completion);
                }
                Err(fault) => {
                    self.counters.fault(fault.kind).inc();
                    // Every launched attempt faulted: hand the round back
                    // to the retry loop rather than waiting out a
                    // not-yet-launched hedge.
                    if in_flight.iter().all(Option::is_none) {
                        return RoundOutcome::Fault(fault);
                    }
                }
            }
        }
    }

    /// The full resilience loop for one completion. The content is
    /// generated once and shared by every round and lane.
    fn complete_resilient(&self, request: &CompletionRequest) -> Result<Completion, JobFailure> {
        if self.remaining().is_some_and(|r| r.is_zero()) {
            return Err(JobFailure::DeadlineExceeded);
        }
        let prepared = self.inner.prepare(request);
        let mut round = 0u32;
        let mut attempts = 0u32;
        let mut retry_hint: Option<Duration> = None;
        loop {
            if round > 0 {
                self.counters.retries.inc();
                let mut wait = self.backoff(&prepared, round);
                if let Some(hint) = retry_hint.take() {
                    wait = wait.max(hint);
                }
                if let Some(remaining) = self.remaining() {
                    if remaining.is_zero() {
                        return Err(JobFailure::DeadlineExceeded);
                    }
                    wait = wait.min(remaining);
                }
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                if self.remaining().is_some_and(|r| r.is_zero()) {
                    return Err(JobFailure::DeadlineExceeded);
                }
            }
            match self.race(&prepared, round, &mut attempts) {
                RoundOutcome::Won(completion) => {
                    ioobserve::metrics()
                        .histogram("llm.attempts")
                        .record(attempts as u64);
                    return Ok(completion);
                }
                RoundOutcome::Fault(fault) => match self.policy.max_retries {
                    Some(0) => return Err(JobFailure::Fault(fault.kind)),
                    Some(max) if round >= max => {
                        return Err(JobFailure::RetriesExhausted {
                            attempts,
                            last: fault.kind,
                        })
                    }
                    _ => {
                        retry_hint = fault.retry_after;
                        round += 1;
                    }
                },
                RoundOutcome::Deadline => return Err(JobFailure::DeadlineExceeded),
            }
        }
    }
}

impl LanguageModel for ResilientLlm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    fn complete(&self, request: &CompletionRequest) -> Completion {
        // A job that already failed stops burning attempts and spend:
        // every remaining pipeline call short-circuits to an empty
        // completion, which the agent's parsers treat as "no findings".
        if self.failed() {
            return empty_completion();
        }
        match self.complete_resilient(request) {
            Ok(completion) => completion,
            Err(failure) => {
                self.fail(failure);
                empty_completion()
            }
        }
    }
}

/// The fail-fast placeholder: no text, no tokens, no cost. Downstream
/// parsers yield no issues/references from it, and the worker discards
/// the whole diagnosis anyway once it sees the job's failure.
fn empty_completion() -> Completion {
    Completion {
        text: String::new(),
        input_tokens: 0,
        output_tokens: 0,
        truncated: false,
        retention: 1.0,
        cost_usd: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simllm::{FaultPlan, FaultSpec, LatencyProfile};

    fn request() -> CompletionRequest {
        CompletionRequest::new(
            "You are an HPC I/O expert.",
            "### TASK: diagnose\nEVIDENCE nprocs=8\nEVIDENCE posix.writes=1000",
        )
    }

    /// Find a salt whose attempt-0 draw faults (deterministic search).
    fn faulting_salt(model: &SimLlm, req: &CompletionRequest) -> u64 {
        (0..4096)
            .find(|&s| {
                model
                    .prepare(&req.clone().with_salt(s))
                    .draw(0)
                    .fault
                    .is_some()
            })
            .expect("no faulting salt in 4096 draws")
    }

    fn flaky() -> SimLlm {
        SimLlm::new("gpt-4o-mini").with_fault_plan(
            FaultPlan::new()
                .with_profile(LatencyProfile::flat(Duration::from_micros(50)))
                .with_faults(FaultSpec {
                    timeout_probability: 0.3,
                    timeout: Duration::from_micros(100),
                    rate_limit_probability: 0.0,
                    retry_after: Duration::ZERO,
                    truncate_probability: 0.0,
                }),
        )
    }

    #[test]
    fn retries_recover_from_faults_deterministically() {
        let model = flaky();
        let salt = faulting_salt(&model, &request());
        let req = request().with_salt(salt);
        let resilient = ResilientLlm::new(
            flaky(),
            ResiliencePolicy::default()
                .backoff(Duration::from_micros(10), Duration::from_micros(100)),
            None,
            ResilienceCounters::detached(),
        );
        let delivered = resilient.complete(&req);
        assert!(resilient.take_failure().is_none(), "retries should recover");
        assert!(resilient.counters.retries.get() >= 1, "no retry happened");
        // Content matches a fault-free model exactly.
        let clean = SimLlm::new("gpt-4o-mini");
        assert_eq!(delivered.text, clean.complete(&req).text);
    }

    #[test]
    fn zero_retries_surfaces_the_fault() {
        let model = flaky();
        let salt = faulting_salt(&model, &request());
        let req = request().with_salt(salt);
        let resilient = ResilientLlm::new(
            flaky(),
            ResiliencePolicy::default().retries(0),
            None,
            ResilienceCounters::detached(),
        );
        let completion = resilient.complete(&req);
        assert!(completion.text.is_empty());
        assert_eq!(
            resilient.take_failure(),
            Some(JobFailure::Fault(FaultKind::Timeout))
        );
        assert_eq!(
            resilient.usage().calls,
            0,
            "failed job must not commit usage"
        );
    }

    #[test]
    fn exhausted_retries_report_attempt_count() {
        // Timeout probability 1.0: every lane faults, retries must exhaust.
        let always_faults = || {
            SimLlm::new("gpt-4o-mini").with_fault_plan(FaultPlan::new().with_faults(FaultSpec {
                timeout_probability: 1.0,
                timeout: Duration::from_micros(10),
                ..FaultSpec::default()
            }))
        };
        let resilient = ResilientLlm::new(
            always_faults(),
            ResiliencePolicy::default()
                .retries(2)
                .backoff(Duration::from_micros(10), Duration::from_micros(50)),
            None,
            ResilienceCounters::detached(),
        );
        resilient.complete(&request());
        assert_eq!(
            resilient.take_failure(),
            Some(JobFailure::RetriesExhausted {
                attempts: 3,
                last: FaultKind::Timeout
            })
        );
        assert_eq!(resilient.counters.fault_timeout.get(), 3);
        // Later completions fail fast: no further attempts.
        resilient.fail(JobFailure::Fault(FaultKind::Timeout));
        resilient.complete(&request());
        assert_eq!(resilient.counters.fault_timeout.get(), 3);
    }

    #[test]
    fn deadline_expiry_cancels_the_attempt() {
        let slow = SimLlm::new("gpt-4o-mini").with_fault_plan(
            FaultPlan::new().with_profile(LatencyProfile::flat(Duration::from_secs(30))),
        );
        let started = Instant::now();
        let resilient = ResilientLlm::new(
            slow,
            ResiliencePolicy::unbounded(),
            Some(Instant::now() + Duration::from_millis(20)),
            ResilienceCounters::detached(),
        );
        let completion = resilient.complete(&request());
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "deadline ignored"
        );
        assert!(completion.text.is_empty());
        assert_eq!(resilient.take_failure(), Some(JobFailure::DeadlineExceeded));
    }

    #[test]
    fn hedge_wins_against_a_straggling_primary() {
        // Primary lane hangs for seconds; hedge lane (no tail, flat fast
        // profile on its attempt draw) finishes in microseconds. Build a
        // plan where attempt 0 draws a timeout-free but huge straggle:
        // easiest deterministic construction is a fault-free plan whose
        // tail fires on lane 0 but not on the hedge lane — search salts.
        let plan = FaultPlan::new()
            .with_profile(LatencyProfile::flat(Duration::from_micros(200)))
            .with_tail(simllm::TailSpec {
                probability: 0.5,
                lognormal_sigma: 0.1,
                median_multiplier: 20_000.0, // 200µs → 4s straggle
                pareto_alpha: 0.0,
                pareto_weight: 0.0,
                max_multiplier: 50_000.0,
            });
        let model = || SimLlm::new("gpt-4o-mini").with_fault_plan(plan.clone());
        let probe = model();
        let salt = (0..4096)
            .find(|&s| {
                let prepared = probe.prepare(&request().with_salt(s));
                let (slow, fast) = (prepared.draw(0), prepared.draw(HEDGE_LANE));
                slow.fault.is_none()
                    && fast.fault.is_none()
                    && slow.latency > Duration::from_secs(1)
                    && fast.latency < Duration::from_millis(5)
            })
            .expect("no salt makes lane 0 straggle while the hedge lane is fast");
        let req = request().with_salt(salt);
        let resilient = ResilientLlm::new(
            model(),
            ResiliencePolicy::default().hedged(HedgePolicy {
                quantile: 0.95,
                min_delay: Duration::from_millis(2),
            }),
            None,
            ResilienceCounters::detached(),
        );
        let started = Instant::now();
        let delivered = resilient.complete(&req);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "hedge did not rescue the straggler ({:?})",
            started.elapsed()
        );
        assert!(resilient.take_failure().is_none());
        assert_eq!(resilient.counters.hedges.get(), 1);
        assert_eq!(resilient.counters.hedge_wins.get(), 1);
        // First-wins is byte-identical to the unhedged result.
        assert_eq!(
            delivered.text,
            SimLlm::new("gpt-4o-mini").complete(&req).text
        );
        // Exactly one delivery committed usage (the winner).
        assert_eq!(resilient.usage().calls, 1);
    }
}
