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
//! finish time. [`LanguageModel::complete_all`] hands the loop a whole
//! pipeline stage at once (every fragment's transform, every diagnosis,
//! every merge of one tree level), and all of its calls are in flight
//! together: each call keeps its own retry round, hedge timer and
//! backoff timer, and each turn of the loop sleeps until the earliest
//! event of any call — an attempt's finish, a hedge launch, the end of a
//! backoff — or the deadline, then handles that one event. A stage
//! therefore waits about as long as its slowest call, not the sum of its
//! calls. [`LanguageModel::complete`] is a batch of one.
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
//! - **Deadlines**: an absolute per-job deadline, shared by every call
//!   of every batch, caps the whole loop. On expiry every in-flight
//!   attempt is dropped and the job fails with `deadline_exceeded`.
//!
//! The first failure of any call latches: every in-flight attempt of the
//! batch is dropped unbilled, subsequent completions on the same job
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
    /// The job panicked while executing. The worker caught the panic and
    /// keeps serving.
    Internal,
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
            JobFailure::Internal => "internal",
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
            JobFailure::Internal => "internal error: the job panicked".to_string(),
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

/// Where one call of the event loop stands.
enum Phase {
    /// Backing off; the call's next round launches at this instant.
    Backoff(Instant),
    /// A round in flight (its attempts are in [`Call::in_flight`]); the
    /// hedge launches at `hedge_at` unless it already has.
    Racing {
        hedge_at: Option<Instant>,
        primary_finish: Instant,
    },
    /// Delivered and billed.
    Delivered(Completion),
}

/// One call of a [`ResilientLlm::complete_all`] batch. Each keeps its own
/// retry round, hedge timer and backoff timer.
struct Call<'a> {
    prepared: Prepared<'a>,
    round: u32,
    /// Delivery attempts launched so far, hedges included.
    attempts: u32,
    /// The current round's primary (slot 0) and hedge (slot 1) attempts;
    /// both empty unless racing.
    in_flight: [Option<Attempt>; 2],
    phase: Phase,
}

/// What happens when a call's next timer fires.
#[derive(Clone, Copy)]
enum Event {
    /// The backoff ended: launch the next round.
    Launch,
    /// The hedge delay passed with the primary still in flight.
    Hedge,
    /// The attempt in this slot finishes.
    Resolve(usize),
}

impl Call<'_> {
    /// The call's next event, ties going to the primary attempt: an
    /// attempt's finish beats a hedge launch due at the same instant.
    fn next_event(&self) -> Option<(Instant, Event)> {
        match &self.phase {
            Phase::Backoff(at) => Some((*at, Event::Launch)),
            Phase::Racing { hedge_at, .. } => {
                let (finish, slot) = self
                    .in_flight
                    .iter()
                    .enumerate()
                    .filter_map(|(i, a)| a.as_ref().map(|a| (a.finish, i)))
                    .min()
                    .expect("a round always has an attempt in flight");
                Some(match hedge_at.filter(|&at| at < finish) {
                    Some(at) => (at, Event::Hedge),
                    None => (finish, Event::Resolve(slot)),
                })
            }
            Phase::Delivered(_) => None,
        }
    }

    /// Drop the call's in-flight attempts unbilled.
    fn abandon(&mut self) {
        self.in_flight
            .iter_mut()
            .filter_map(Option::take)
            .for_each(Attempt::abandon);
    }
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

    /// Launch `call`'s current round: its primary attempt now, and its
    /// hedge timer when hedging is on.
    fn launch_round(&self, call: &mut Call) {
        call.attempts += 1;
        let primary = call.prepared.launch(call.round);
        call.phase = Phase::Racing {
            primary_finish: primary.finish,
            hedge_at: self.hedge_delay().map(|d| Instant::now() + d),
        };
        call.in_flight = [Some(primary), None];
    }

    /// Every launched attempt of `call`'s round faulted: fail the job
    /// when the retry budget is spent, else back off before the next
    /// round (at least the fault's rate-limit hint, at most until the
    /// deadline).
    fn next_round(&self, call: &mut Call, fault: AttemptFault) -> Result<(), JobFailure> {
        match self.policy.max_retries {
            Some(0) => return Err(JobFailure::Fault(fault.kind)),
            Some(max) if call.round >= max => {
                return Err(JobFailure::RetriesExhausted {
                    attempts: call.attempts,
                    last: fault.kind,
                })
            }
            _ => {}
        }
        call.round += 1;
        self.counters.retries.inc();
        let mut wait = self.backoff(&call.prepared, call.round);
        if let Some(hint) = fault.retry_after {
            wait = wait.max(hint);
        }
        if let Some(remaining) = self.remaining() {
            if remaining.is_zero() {
                return Err(JobFailure::DeadlineExceeded);
            }
            wait = wait.min(remaining);
        }
        call.phase = Phase::Backoff(Instant::now() + wait);
        Ok(())
    }

    /// Handle `call`'s due `event`. The first success of a round wins
    /// and is billed; its rival is dropped unbilled.
    fn handle(&self, call: &mut Call, event: Event) -> Result<(), JobFailure> {
        let slot = match event {
            Event::Launch => {
                if self.remaining().is_some_and(|r| r.is_zero()) {
                    return Err(JobFailure::DeadlineExceeded);
                }
                self.launch_round(call);
                return Ok(());
            }
            Event::Hedge => {
                let hedge = call
                    .prepared
                    .launch(HEDGE_LANE | (call.round & !HEDGE_LANE));
                self.counters.hedges.inc();
                call.attempts += 1;
                if let Phase::Racing { hedge_at, .. } = &mut call.phase {
                    *hedge_at = None;
                }
                call.in_flight[1] = Some(hedge);
                return Ok(());
            }
            Event::Resolve(slot) => slot,
        };
        let Phase::Racing { primary_finish, .. } = call.phase else {
            unreachable!("only a racing call resolves attempts");
        };
        let attempt = call.in_flight[slot]
            .take()
            .expect("picked from the in-flight set");
        let (latency, finish) = (attempt.draw.latency, attempt.finish);
        match call.prepared.resolve(attempt) {
            Ok(completion) => {
                self.counters.attempt_ns.record_duration(latency);
                if slot == 1 {
                    self.counters.hedge_wins.inc();
                    ioobserve::metrics()
                        .histogram("hedge.win_margin_ns")
                        .record_duration(primary_finish.saturating_duration_since(finish));
                }
                call.abandon();
                ioobserve::metrics()
                    .histogram("llm.attempts")
                    .record(u64::from(call.attempts));
                call.phase = Phase::Delivered(completion);
                Ok(())
            }
            Err(fault) => {
                self.counters.fault(fault.kind).inc();
                // Every launched attempt faulted: end the round rather
                // than wait out a not-yet-launched hedge.
                if call.in_flight.iter().all(Option::is_none) {
                    self.next_round(call, fault)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// The event loop over a batch of calls. Every content is generated
    /// up front and shared by all of its call's rounds and lanes; every
    /// call launches its first round at once. Each turn sleeps to the
    /// earliest event of any call — an attempt's finish, a hedge launch,
    /// the end of a backoff — or to the deadline, whichever comes first,
    /// and handles it (ties go to the earlier call). The first failure
    /// drops every in-flight attempt of every call unbilled.
    fn deliver_all(&self, requests: &[CompletionRequest]) -> Result<Vec<Completion>, JobFailure> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        if self.remaining().is_some_and(|r| r.is_zero()) {
            return Err(JobFailure::DeadlineExceeded);
        }
        let mut calls: Vec<Call> = self
            .inner
            .prepare_all(requests)
            .into_iter()
            .map(|prepared| {
                let mut call = Call {
                    prepared,
                    round: 0,
                    attempts: 0,
                    in_flight: [None, None],
                    phase: Phase::Backoff(Instant::now()),
                };
                self.launch_round(&mut call);
                call
            })
            .collect();
        loop {
            let next = calls
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.next_event().map(|(at, event)| (at, i, event)))
                .min_by_key(|&(at, i, _)| (at, i));
            let Some((at, i, event)) = next else { break };
            let outcome = match self.deadline.filter(|&d| d < at) {
                Some(deadline) => {
                    sleep_until(deadline);
                    Err(JobFailure::DeadlineExceeded)
                }
                None => {
                    sleep_until(at);
                    self.handle(&mut calls[i], event)
                }
            };
            if let Err(failure) = outcome {
                calls.iter_mut().for_each(Call::abandon);
                return Err(failure);
            }
        }
        Ok(calls
            .into_iter()
            .map(|call| match call.phase {
                Phase::Delivered(completion) => completion,
                _ => unreachable!("the loop ends once every call is delivered"),
            })
            .collect())
    }
}

impl LanguageModel for ResilientLlm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    /// A batch of one.
    fn complete(&self, request: &CompletionRequest) -> Completion {
        self.complete_all(std::slice::from_ref(request))
            .pop()
            .expect("one completion per request")
    }

    fn complete_all(&self, requests: &[CompletionRequest]) -> Vec<Completion> {
        // A job that already failed stops burning attempts and spend:
        // every remaining pipeline call short-circuits to an empty
        // completion, which the agent's parsers treat as "no findings".
        if !self.failed() {
            match self.deliver_all(requests) {
                Ok(completions) => return completions,
                Err(failure) => self.fail(failure),
            }
        }
        vec![empty_completion(); requests.len()]
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
    fn a_batch_retries_and_hedges_each_call_to_the_fault_free_content() {
        let requests: Vec<CompletionRequest> =
            (0..24).map(|salt| request().with_salt(salt)).collect();
        let probe = flaky();
        assert!(
            requests
                .iter()
                .any(|r| probe.prepare(r).draw(0).fault.is_some()),
            "no call faulted on lane 0; the test is vacuous"
        );
        let resilient = ResilientLlm::new(
            flaky(),
            ResiliencePolicy::default()
                .retries(16)
                .backoff(Duration::from_micros(10), Duration::from_micros(100))
                .hedged(HedgePolicy {
                    quantile: 0.95,
                    min_delay: Duration::from_micros(20),
                }),
            None,
            ResilienceCounters::detached(),
        );
        let delivered = resilient.complete_all(&requests);
        assert!(resilient.take_failure().is_none());
        assert!(resilient.counters.retries.get() >= 1, "no retry happened");
        assert!(resilient.counters.hedges.get() >= 1, "no hedge fired");
        let clean = SimLlm::new("gpt-4o-mini");
        assert_eq!(delivered, clean.complete_all(&requests));
        // Only winners are billed: one delivery per call.
        assert_eq!(resilient.usage(), clean.usage());
    }

    #[test]
    fn a_deadline_mid_batch_fails_once_and_bills_no_abandoned_attempt() {
        // Half the calls straggle for about 20 s, the rest take 1 ms:
        // the deadline passes while the stragglers are in flight.
        let plan = FaultPlan::new()
            .with_profile(LatencyProfile::flat(Duration::from_millis(1)))
            .with_tail(simllm::TailSpec {
                probability: 0.5,
                lognormal_sigma: 0.1,
                median_multiplier: 20_000.0,
                pareto_alpha: 0.0,
                pareto_weight: 0.0,
                max_multiplier: 50_000.0,
            });
        let model = || SimLlm::new("gpt-4o-mini").with_fault_plan(plan.clone());
        let requests: Vec<CompletionRequest> =
            (0..16).map(|salt| request().with_salt(salt)).collect();
        let probe = model();
        let fast = requests
            .iter()
            .filter(|r| probe.prepare(r).draw(0).latency < Duration::from_millis(50))
            .count();
        assert!(
            fast > 0 && fast < requests.len(),
            "{fast} of {} calls are fast; the batch must mix both",
            requests.len()
        );
        let started = Instant::now();
        let resilient = ResilientLlm::new(
            model(),
            ResiliencePolicy::unbounded(),
            Some(started + Duration::from_millis(300)),
            ResilienceCounters::detached(),
        );
        let completions = resilient.complete_all(&requests);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the deadline did not cut the batch short"
        );
        assert_eq!(completions.len(), requests.len());
        assert!(completions.iter().all(|c| c.text.is_empty()));
        // The calls delivered before the deadline are billed; the
        // stragglers abandoned at the deadline are not.
        assert_eq!(resilient.usage().calls, fast);
        // The failure latched: a later batch fails fast and bills nothing,
        // and the job reports the one failure.
        let again = resilient.complete_all(&requests);
        assert!(again.iter().all(|c| c.text.is_empty()));
        assert_eq!(resilient.usage().calls, fast);
        assert_eq!(resilient.take_failure(), Some(JobFailure::DeadlineExceeded));
        assert_eq!(resilient.take_failure(), None);
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
