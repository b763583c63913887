//! The per-job part of LLM delivery. [`ResilientLlm`] runs every batch
//! the agent pipeline issues through the one delivery loop,
//! [`SimLlm::deliver_all`], under the service's [`ResiliencePolicy`]
//! (unbounded when none is set), the job's deadline and the service's
//! [`ResilienceCounters`]. The first failure latches: later batches of the
//! job fail fast with empty completions, so a doomed job stops burning
//! simulated spend, and the worker reports one [`JobFailure`].

use simllm::{
    Completion, CompletionRequest, DeliveryFailure, FaultKind, LanguageModel, ModelProfile,
    ResilienceCounters, ResiliencePolicy, SimLlm,
};
use std::sync::Mutex;
use std::time::Instant;

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

impl From<DeliveryFailure> for JobFailure {
    fn from(failure: DeliveryFailure) -> Self {
        match failure {
            DeliveryFailure::DeadlineExceeded => JobFailure::DeadlineExceeded,
            DeliveryFailure::RetriesExhausted { attempts, last } => {
                JobFailure::RetriesExhausted { attempts, last }
            }
            DeliveryFailure::Fault(kind) => JobFailure::Fault(kind),
        }
    }
}

impl JobFailure {
    /// The protocol `error_kind` for this failure.
    pub fn error_kind(&self) -> &'static str {
        crate::protocol::ErrorKind::from(self).as_str()
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

/// A [`LanguageModel`] that delivers its inner [`SimLlm`]'s completions
/// under one job's policy and deadline. See the module docs.
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
        self.failure().take()
    }

    fn failure(&self) -> std::sync::MutexGuard<'_, Option<JobFailure>> {
        self.failure
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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
        if self.failure().is_none() {
            let delivered =
                self.inner
                    .deliver_all(requests, &self.policy, self.deadline, Some(&self.counters));
            match delivered {
                Ok(completions) => return completions,
                // The first failure wins; later batches fail fast.
                Err(failure) => {
                    self.failure().get_or_insert(failure.into());
                }
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
    use simllm::{FaultPlan, FaultSpec, HedgePolicy, LatencyProfile};
    use std::time::Duration;

    /// The hedge lane of round 0 in the delivery loop.
    const HEDGE_LANE: u32 = 0x8000_0000;

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
        *resilient.failure() = Some(JobFailure::Fault(FaultKind::Timeout));
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
