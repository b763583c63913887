//! The one delivery loop: every completion [`SimLlm`] hands out goes
//! through [`SimLlm::deliver_all`], under a deadline, bounded retries and
//! hedged requests.
//!
//! The loop runs on the calling thread and starts none. A request's
//! content is generated once ([`SimLlm::prepare`]) and each attempt's
//! latency and fault are drawn the moment it launches, so an in-flight
//! attempt is a value with a known finish time. All calls of a batch are
//! in flight together, each with its own retry round, hedge timer and
//! backoff timer. Each turn sleeps until the earliest event of any call
//! (an attempt's finish, a hedge launch, the end of a backoff) or the
//! deadline, and handles it. A batch waits about as long as its slowest
//! call, not the sum of its calls.
//!
//! - **Retries**: round `r` launches on lane `r`, after a decorrelated
//!   backoff drawn on lane `0x4000_0000 | r`, up to
//!   [`ResiliencePolicy::max_retries`] times.
//! - **Hedging**: after a quantile of [`ResilienceCounters::attempt_ns`],
//!   a duplicate launches on lane `0x8000_0000 | r`. The first success is
//!   delivered and billed; the loser's span is marked `cancelled=true`.
//! - **Deadline**: on expiry every in-flight attempt is dropped unbilled.
//!
//! Content draws are keyed by (model, prompt, salt), never by lane or
//! timing, so whichever attempt wins, the completion is byte-identical
//! and billed once. A bare [`SimLlm`] runs the loop's unbounded case:
//! [`ResiliencePolicy::unbounded`], no deadline and no counters.

use crate::faults::sleep_until;
use crate::{Attempt, AttemptFault, Completion, CompletionRequest, FaultKind, Prepared, SimLlm};
use ioobserve::{Counter, Histogram, MetricsRegistry};
use std::sync::Arc;
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
    /// latency histogram is still warming up (or absent).
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

/// Retry/backoff/hedge knobs for the calls of one delivery loop.
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
    /// Infinite patience: no retry bound, no backoff, no hedging. A
    /// faulted call relaunches after its rate-limit hint until it succeeds
    /// or a deadline ends the loop. What a bare [`SimLlm`] delivers with.
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

/// Why [`SimLlm::deliver_all`] delivered no batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryFailure {
    /// The deadline passed before every call was delivered.
    DeadlineExceeded,
    /// Every delivery attempt the retry bound allowed faulted.
    RetriesExhausted {
        /// Delivery attempts made (including hedges).
        attempts: u32,
        /// The fault that ended the final round.
        last: FaultKind,
    },
    /// A fault with retries disabled (`max_retries == 0`).
    Fault(FaultKind),
}

/// The instruments the delivery loop records into. Cloning shares the
/// underlying atomics.
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
    /// Drawn latency of attempts delivered under a hedging policy
    /// (`service.llm_attempt_ns`) — the quantile source for hedge delays.
    pub attempt_ns: Arc<Histogram>,
}

impl ResilienceCounters {
    /// The `service.*` instruments of `registry`.
    pub fn on(registry: &MetricsRegistry) -> Self {
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

    /// Counters on a private lifetime-only registry, for a resilient
    /// caller outside a service (unit tests, ad-hoc tools).
    pub fn detached() -> Self {
        Self::on(&MetricsRegistry::new())
    }

    fn fault(&self, kind: FaultKind) -> &Counter {
        match kind {
            FaultKind::Timeout => &self.fault_timeout,
            FaultKind::RateLimited => &self.fault_rate_limited,
            FaultKind::Truncated => &self.fault_truncated,
        }
    }
}

impl SimLlm {
    /// Deliver every request, in request order, under `policy` (see the
    /// module docs). The batch fails at `deadline`, if set, or when a call
    /// spends its retry bound, dropping every in-flight attempt unbilled.
    /// Retries, hedges, faults and attempt latency go to `counters`.
    pub fn deliver_all(
        &self,
        requests: &[CompletionRequest],
        policy: &ResiliencePolicy,
        deadline: Option<Instant>,
        counters: Option<&ResilienceCounters>,
    ) -> Result<Vec<Completion>, DeliveryFailure> {
        EventLoop {
            policy,
            deadline,
            counters,
        }
        .run(self, requests)
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

/// One call of a batch. Each keeps its own retry round, hedge timer and
/// backoff timer.
struct Call {
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

impl Call {
    /// The call's next event, ties going to the primary attempt: an
    /// attempt's finish beats a hedge launch due at the same instant.
    fn next_event(&self) -> Option<(Instant, Event)> {
        match &self.phase {
            Phase::Backoff(at) => Some((*at, Event::Launch)),
            Phase::Racing { hedge_at, .. } => {
                let (finish, slot) = match &self.in_flight {
                    [Some(primary), Some(hedge)] if hedge.finish < primary.finish => {
                        (hedge.finish, 1)
                    }
                    [Some(primary), _] => (primary.finish, 0),
                    [None, Some(hedge)] => (hedge.finish, 1),
                    [None, None] => unreachable!("a round always has an attempt in flight"),
                };
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

/// The terms one [`SimLlm::deliver_all`] runs under.
struct EventLoop<'c> {
    policy: &'c ResiliencePolicy,
    deadline: Option<Instant>,
    counters: Option<&'c ResilienceCounters>,
}

impl EventLoop<'_> {
    fn count(&self, counter: impl FnOnce(&ResilienceCounters) -> &Counter) {
        if let Some(counters) = self.counters {
            counter(counters).inc();
        }
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| d <= Instant::now())
    }

    /// When to launch the hedge: the configured quantile of observed
    /// successful-attempt latency, floored by `min_delay` (which also
    /// covers the cold start before the histogram has samples).
    fn hedge_delay(&self) -> Option<Duration> {
        let hedge = self.policy.hedge.as_ref()?;
        let observed = match self.counters.map(|c| &c.attempt_ns) {
            Some(ns) if ns.count() >= HEDGE_WARMUP_SAMPLES => {
                Duration::from_nanos(ns.quantile(hedge.quantile))
            }
            _ => Duration::ZERO,
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
    fn launch_round(&self, call: &mut Call, prepared: &Prepared) {
        call.attempts += 1;
        let primary = prepared.launch(call.round);
        call.phase = Phase::Racing {
            primary_finish: primary.finish,
            hedge_at: self.hedge_delay().map(|d| Instant::now() + d),
        };
        call.in_flight = [Some(primary), None];
    }

    /// Every launched attempt of `call`'s round faulted: fail when the
    /// retry bound is spent, else back off before the next round (at
    /// least the fault's rate-limit hint, at most until the deadline).
    fn next_round(
        &self,
        call: &mut Call,
        prepared: &Prepared,
        fault: AttemptFault,
    ) -> Result<(), DeliveryFailure> {
        match self.policy.max_retries {
            Some(0) => return Err(DeliveryFailure::Fault(fault.kind)),
            Some(max) if call.round >= max => {
                return Err(DeliveryFailure::RetriesExhausted {
                    attempts: call.attempts,
                    last: fault.kind,
                })
            }
            _ => {}
        }
        call.round += 1;
        self.count(|c| &c.retries);
        let mut wait = self.backoff(prepared, call.round);
        if let Some(hint) = fault.retry_after {
            wait = wait.max(hint);
        }
        if let Some(deadline) = self.deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(DeliveryFailure::DeadlineExceeded);
            }
            wait = wait.min(remaining);
        }
        call.phase = Phase::Backoff(Instant::now() + wait);
        Ok(())
    }

    /// Handle `call`'s due `event`. The first success of a round wins
    /// and is billed; its rival is dropped unbilled.
    fn handle(
        &self,
        call: &mut Call,
        prepared: &mut Prepared,
        event: Event,
    ) -> Result<(), DeliveryFailure> {
        let slot = match event {
            Event::Launch => {
                if self.expired() {
                    return Err(DeliveryFailure::DeadlineExceeded);
                }
                self.launch_round(call, prepared);
                return Ok(());
            }
            Event::Hedge => {
                let hedge = prepared.launch(HEDGE_LANE | (call.round & !HEDGE_LANE));
                self.count(|c| &c.hedges);
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
        match prepared.resolve(attempt) {
            Ok(completion) => {
                // Only hedging reads the histogram, and a record on every
                // delivery costs a service-wide atomic update per call.
                if let (Some(counters), Some(_)) = (self.counters, self.policy.hedge) {
                    counters.attempt_ns.record_duration(latency);
                }
                if slot == 1 {
                    self.count(|c| &c.hedge_wins);
                    ioobserve::metrics()
                        .histogram("hedge.win_margin_ns")
                        .record_duration(primary_finish.saturating_duration_since(finish));
                }
                call.abandon();
                crate::call_metrics()
                    .attempts
                    .record(u64::from(call.attempts));
                call.phase = Phase::Delivered(completion);
                Ok(())
            }
            Err(fault) => {
                self.count(|c| c.fault(fault.kind));
                // Every launched attempt faulted: end the round rather
                // than wait out a not-yet-launched hedge.
                if call.in_flight.iter().all(Option::is_none) {
                    self.next_round(call, prepared, fault)
                } else {
                    Ok(())
                }
            }
        }
    }

    /// The event loop over a batch: every call launches its first round
    /// at once; ties between events go to the earlier call. The first
    /// failure drops every in-flight attempt of every call unbilled.
    fn run(
        &self,
        model: &SimLlm,
        requests: &[CompletionRequest],
    ) -> Result<Vec<Completion>, DeliveryFailure> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        if self.expired() {
            return Err(DeliveryFailure::DeadlineExceeded);
        }
        let now = Instant::now();
        let mut prepared = model.prepare_all(requests);
        let mut calls: Vec<Call> = prepared
            .iter()
            .map(|prepared| {
                let mut call = Call {
                    round: 0,
                    attempts: 0,
                    in_flight: [None, None],
                    phase: Phase::Backoff(now),
                };
                self.launch_round(&mut call, prepared);
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
            let wake = self.deadline.filter(|&d| d < at).unwrap_or(at);
            sleep_until(wake);
            let outcome = if wake < at {
                Err(DeliveryFailure::DeadlineExceeded)
            } else {
                self.handle(&mut calls[i], &mut prepared[i], event)
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
