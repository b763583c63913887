//! Heavy-tailed streaming latency and fault injection for [`SimLlm`].
//!
//! `with_latency` gave every call one flat duration, so the service never
//! saw what a production fleet actually fights: stragglers, timeouts,
//! rate limits, truncated streams. This module models those as a
//! [`FaultPlan`] — a streaming latency profile (time-to-first-token +
//! tokens/sec, so latency scales with response length), a heavy-tailed
//! straggler mixture (lognormal body, Pareto extreme tail) multiplied
//! over the base latency, and injected faults.
//!
//! Every draw comes from a ChaCha stream seeded by (model, prompt, salt,
//! attempt lane) in a domain separate from the content stream
//! ([`crate::rng::rng_for_attempt`]). Two consequences the test suite
//! pins:
//!
//! - **content is attempt-invariant**: retries and hedged duplicates of
//!   the same request produce byte-identical text, because content draws
//!   ignore the attempt lane entirely;
//! - **timing is replayable**: the same request on the same attempt lane
//!   draws the same latency and the same fault in every run, so a tail
//!   benchmark is reproducible bit-for-bit.
//!
//! Because an attempt's whole outcome is known the moment it launches,
//! an in-flight attempt is a value, not a thread. The one delivery loop
//! ([`crate::delivery`]) sleeps until the earliest event of its batch and
//! resolves attempts in finish order: a hedged round keeps both of its
//! attempts on the calling thread, delivers the first success, and drops
//! the loser unbilled. Nothing is cancelled mid-sleep, because only the
//! loop ever sleeps. A bare [`SimLlm`] retries a faulted call on its next
//! lane until it succeeds; a service job bounds the same loop with its
//! own retry policy and deadline.
//!
//! [`SimLlm`]: crate::SimLlm

use crate::rng::rng_for_attempt;
use rand::Rng;
use std::time::{Duration, Instant};

/// Streaming latency profile: a fixed time-to-first-token plus a
/// per-output-token streaming term. [`LatencyProfile::flat`] (what
/// `SimLlm::with_latency` builds) is the degenerate profile with no
/// streaming term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Time to first token: queueing + prefill, charged per call.
    pub ttft: Duration,
    /// Decode throughput; `<= 0` disables the streaming term (flat).
    pub tokens_per_sec: f64,
}

impl LatencyProfile {
    /// Profile with both a first-token delay and a streaming rate.
    pub fn new(ttft: Duration, tokens_per_sec: f64) -> Self {
        LatencyProfile {
            ttft,
            tokens_per_sec,
        }
    }

    /// The degenerate flat profile: every call costs exactly `latency`,
    /// regardless of response length.
    pub fn flat(latency: Duration) -> Self {
        LatencyProfile {
            ttft: latency,
            tokens_per_sec: 0.0,
        }
    }

    /// Base (pre-tail) latency of a completion with `output_tokens`.
    pub fn base(&self, output_tokens: usize) -> Duration {
        let stream_ns = if self.tokens_per_sec > 0.0 {
            output_tokens as f64 / self.tokens_per_sec * 1e9
        } else {
            0.0
        };
        self.ttft + Duration::from_nanos(stream_ns as u64)
    }
}

/// Heavy-tailed straggler mixture, multiplied over the base latency.
///
/// With probability [`TailSpec::probability`] a call is a straggler; its
/// slowdown multiplier is drawn from a lognormal body
/// (`median_multiplier · exp(σ·Z)`) or, for a [`TailSpec::pareto_weight`]
/// fraction of stragglers, a Pareto(α) extreme tail with scale
/// `median_multiplier`. The multiplier is clamped to
/// `[1, max_multiplier]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSpec {
    /// Probability a call is a straggler.
    pub probability: f64,
    /// Lognormal σ of the straggler body.
    pub lognormal_sigma: f64,
    /// Median straggler slowdown (lognormal scale and Pareto xₘ).
    pub median_multiplier: f64,
    /// Pareto shape of the extreme tail (`<= 0` disables that branch).
    pub pareto_alpha: f64,
    /// Fraction of stragglers drawn from the Pareto branch.
    pub pareto_weight: f64,
    /// Hard cap on the drawn multiplier.
    pub max_multiplier: f64,
}

impl TailSpec {
    /// Draw the slowdown multiplier for one attempt (1.0 for the
    /// non-straggler majority). Always consumes the same number of
    /// draws from `rng`, so downstream draw positions never depend on
    /// which branch was taken.
    fn multiplier(&self, rng: &mut rand_chacha::ChaCha8Rng) -> f64 {
        let u_straggle: f64 = rng.gen();
        let u_branch: f64 = rng.gen();
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u_straggle >= self.probability {
            return 1.0;
        }
        let m = if self.pareto_alpha > 0.0 && u_branch < self.pareto_weight {
            // Pareto(α) via inverse CDF, scale = median_multiplier.
            self.median_multiplier / (1.0 - u1).max(1e-12).powf(1.0 / self.pareto_alpha)
        } else {
            // Lognormal via Box–Muller.
            let z = (-2.0 * (1.0 - u1).max(1e-12).ln()).sqrt()
                * (2.0 * std::f64::consts::PI * u2).cos();
            self.median_multiplier * (self.lognormal_sigma * z).exp()
        };
        m.clamp(1.0, self.max_multiplier.max(1.0))
    }
}

/// Injected fault rates. Faults are *per attempt*: a retry of the same
/// request draws independently (different attempt lane), so a client
/// with patience eventually succeeds — with exactly the same content.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Probability an attempt hangs and then times out.
    pub timeout_probability: f64,
    /// How long a timed-out attempt hangs before the error surfaces.
    pub timeout: Duration,
    /// Probability an attempt is rejected with a rate-limit error.
    pub rate_limit_probability: f64,
    /// The provider's suggested wait carried by rate-limit errors.
    pub retry_after: Duration,
    /// Probability the response stream dies partway (truncated output).
    pub truncate_probability: f64,
}

/// Which fault an attempt surfaced. The snake_case names double as the
/// daemon's wire-level `error_kind` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The attempt hung past the provider timeout.
    Timeout,
    /// The provider shed load; retry after a suggested wait.
    RateLimited,
    /// The response stream died before completion.
    Truncated,
}

impl FaultKind {
    /// Stable wire name (`error_kind` on the daemon protocol).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Timeout => "llm_timeout",
            FaultKind::RateLimited => "llm_rate_limited",
            FaultKind::Truncated => "llm_truncated",
        }
    }
}

/// The full failure model: latency profile × heavy tail × fault rates.
/// An empty plan (the default) reproduces the pre-existing behaviour:
/// zero latency, no faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    profile: Option<LatencyProfile>,
    tail: Option<TailSpec>,
    faults: Option<FaultSpec>,
}

/// The drawn outcome of one delivery attempt: how long it takes and
/// whether it faults, known before any time passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptDraw {
    /// Simulated wall time until the attempt resolves.
    pub latency: Duration,
    /// The fault it resolves into (`None` = success).
    pub fault: Option<AttemptFault>,
}

/// A drawn fault and its retry hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptFault {
    /// The fault class.
    pub kind: FaultKind,
    /// Suggested wait before retrying (rate-limit errors only).
    pub retry_after: Option<Duration>,
}

impl FaultPlan {
    /// An empty plan: no latency, no tail, no faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Set the streaming latency profile.
    pub fn with_profile(mut self, profile: LatencyProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Set the heavy-tailed straggler mixture.
    pub fn with_tail(mut self, tail: TailSpec) -> Self {
        self.tail = Some(tail);
        self
    }

    /// Set the injected fault rates.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.profile.is_none() && self.tail.is_none() && self.faults.is_none()
    }

    /// The streaming latency profile, if any.
    pub fn profile(&self) -> Option<&LatencyProfile> {
        self.profile.as_ref()
    }

    /// Draw the outcome of one delivery attempt. Deterministic in
    /// (model, prompt, salt, attempt), with the prompt given as its
    /// [`crate::rng::stable_hash`]: the same attempt lane replays the
    /// same latency and fault in every run, and distinct lanes (retries,
    /// hedges) draw independently.
    pub fn draw(
        &self,
        model: &str,
        prompt_hash: u64,
        salt: u64,
        attempt: u32,
        output_tokens: usize,
    ) -> AttemptDraw {
        if self.is_empty() {
            return AttemptDraw {
                latency: Duration::ZERO,
                fault: None,
            };
        }
        let mut rng = rng_for_attempt(model, prompt_hash, salt, attempt);
        // Fixed draw order regardless of configuration, so enabling one
        // knob never shifts another knob's stream position.
        let u_timeout: f64 = rng.gen();
        let u_rate: f64 = rng.gen();
        let u_trunc: f64 = rng.gen();
        let base = self
            .profile
            .map(|p| p.base(output_tokens))
            .unwrap_or(Duration::ZERO);
        let multiplier = self
            .tail
            .as_ref()
            .map(|t| t.multiplier(&mut rng))
            .unwrap_or(1.0);
        let drawn = Duration::from_nanos((base.as_nanos() as f64 * multiplier) as u64);
        if let Some(f) = &self.faults {
            if u_timeout < f.timeout_probability {
                // The attempt hangs until the provider timeout fires.
                return AttemptDraw {
                    latency: f.timeout.max(drawn),
                    fault: Some(AttemptFault {
                        kind: FaultKind::Timeout,
                        retry_after: None,
                    }),
                };
            }
            if u_rate < f.rate_limit_probability {
                // Load shedding answers fast — before any decode happens.
                let ttft = self.profile.map(|p| p.ttft).unwrap_or(Duration::ZERO);
                return AttemptDraw {
                    latency: ttft,
                    fault: Some(AttemptFault {
                        kind: FaultKind::RateLimited,
                        retry_after: Some(f.retry_after),
                    }),
                };
            }
            if u_trunc < f.truncate_probability {
                // The stream dies partway through decoding.
                return AttemptDraw {
                    latency: drawn / 2,
                    fault: Some(AttemptFault {
                        kind: FaultKind::Truncated,
                        retry_after: None,
                    }),
                };
            }
        }
        AttemptDraw {
            latency: drawn,
            fault: None,
        }
    }

    /// Parse a compact `key=value,key=value` plan spec (the `--llm-faults`
    /// CLI format). Keys: `ttft`, `tps` (profile); `tail_p`, `tail_sigma`,
    /// `tail_med`, `tail_alpha`, `tail_pw`, `tail_cap` (tail);
    /// `timeout_p`, `timeout`, `ratelimit_p`, `retry_after`, `trunc_p`
    /// (faults). Durations take `ns`/`us`/`ms`/`s` suffixes.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut profile = LatencyProfile::flat(Duration::ZERO);
        let mut has_profile = false;
        let mut tail = TailSpec {
            probability: 0.0,
            lognormal_sigma: 0.5,
            median_multiplier: 10.0,
            pareto_alpha: 1.5,
            pareto_weight: 0.25,
            max_multiplier: 300.0,
        };
        let mut has_tail = false;
        let mut faults = FaultSpec::default();
        let mut has_faults = false;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v.parse().map_err(|_| format!("bad number {v:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("{key} must be in [0, 1], got {p}"));
                }
                Ok(p)
            };
            let num = |v: &str| -> Result<f64, String> {
                v.parse().map_err(|_| format!("bad number {v:?}"))
            };
            match key.trim() {
                "ttft" => {
                    profile.ttft = parse_duration(value)?;
                    has_profile = true;
                }
                "tps" => {
                    profile.tokens_per_sec = num(value)?;
                    has_profile = true;
                }
                "tail_p" => {
                    tail.probability = prob(value)?;
                    has_tail = true;
                }
                "tail_sigma" => {
                    tail.lognormal_sigma = num(value)?;
                    has_tail = true;
                }
                "tail_med" => {
                    tail.median_multiplier = num(value)?;
                    has_tail = true;
                }
                "tail_alpha" => {
                    tail.pareto_alpha = num(value)?;
                    has_tail = true;
                }
                "tail_pw" => {
                    tail.pareto_weight = prob(value)?;
                    has_tail = true;
                }
                "tail_cap" => {
                    tail.max_multiplier = num(value)?;
                    has_tail = true;
                }
                "timeout_p" => {
                    faults.timeout_probability = prob(value)?;
                    has_faults = true;
                }
                "timeout" => {
                    faults.timeout = parse_duration(value)?;
                    has_faults = true;
                }
                "ratelimit_p" => {
                    faults.rate_limit_probability = prob(value)?;
                    has_faults = true;
                }
                "retry_after" => {
                    faults.retry_after = parse_duration(value)?;
                    has_faults = true;
                }
                "trunc_p" => {
                    faults.truncate_probability = prob(value)?;
                    has_faults = true;
                }
                other => return Err(format!("unknown fault-plan key {other:?}")),
            }
        }
        let mut plan = FaultPlan::new();
        if has_profile {
            plan = plan.with_profile(profile);
        }
        if has_tail {
            plan = plan.with_tail(tail);
        }
        if has_faults {
            plan = plan.with_faults(faults);
        }
        Ok(plan)
    }
}

/// Parse `250ms` / `3s` / `800us` / `1500ns` into a [`Duration`].
fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (value, scale_ns) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = s.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = s.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1e9)
    } else {
        return Err(format!("duration {s:?} needs a ns/us/ms/s suffix"));
    };
    let value: f64 = value
        .trim()
        .parse()
        .map_err(|_| format!("bad duration {s:?}"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("duration {s:?} must be finite and non-negative"));
    }
    Ok(Duration::from_nanos((value * scale_ns) as u64))
}

/// Sleep the calling thread until `at` (no-op once it has passed).
pub(crate) fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stable_hash;

    fn tail() -> TailSpec {
        TailSpec {
            probability: 0.1,
            lognormal_sigma: 0.7,
            median_multiplier: 15.0,
            pareto_alpha: 1.5,
            pareto_weight: 0.3,
            max_multiplier: 200.0,
        }
    }

    #[test]
    fn flat_profile_ignores_output_length() {
        let p = LatencyProfile::flat(Duration::from_millis(3));
        assert_eq!(p.base(0), Duration::from_millis(3));
        assert_eq!(p.base(10_000), Duration::from_millis(3));
    }

    #[test]
    fn streaming_profile_scales_with_output() {
        let p = LatencyProfile::new(Duration::from_millis(1), 1000.0);
        assert_eq!(p.base(0), Duration::from_millis(1));
        assert_eq!(p.base(500), Duration::from_millis(501));
    }

    #[test]
    fn draws_replay_bit_identically_per_attempt_lane() {
        let plan = FaultPlan::new()
            .with_profile(LatencyProfile::new(Duration::from_millis(2), 5000.0))
            .with_tail(tail())
            .with_faults(FaultSpec {
                timeout_probability: 0.05,
                timeout: Duration::from_millis(100),
                rate_limit_probability: 0.05,
                retry_after: Duration::from_millis(20),
                truncate_probability: 0.05,
            });
        for attempt in [0u32, 1, 7, 0x8000_0000] {
            let a = plan.draw("gpt-4o", stable_hash("prompt body"), 3, attempt, 120);
            let b = plan.draw("gpt-4o", stable_hash("prompt body"), 3, attempt, 120);
            assert_eq!(a, b, "attempt {attempt} must replay identically");
        }
        // Distinct lanes decorrelate (at least one of several differs).
        let lanes: Vec<AttemptDraw> = (0..16)
            .map(|i| plan.draw("gpt-4o", stable_hash("prompt body"), 3, i, 120))
            .collect();
        assert!(
            lanes.iter().any(|d| *d != lanes[0]),
            "16 attempt lanes all drew the same outcome"
        );
    }

    #[test]
    fn tail_multiplier_is_bounded_and_sometimes_fires() {
        let plan = FaultPlan::new()
            .with_profile(LatencyProfile::flat(Duration::from_millis(1)))
            .with_tail(tail());
        let mut stragglers = 0usize;
        for i in 0..400 {
            let d = plan.draw("m", stable_hash(&format!("p{i}")), 0, 0, 100);
            assert!(
                d.latency <= Duration::from_millis(200),
                "cap violated: {:?}",
                d.latency
            );
            if d.latency > Duration::from_millis(2) {
                stragglers += 1;
            }
        }
        assert!(
            (10..120).contains(&stragglers),
            "p=0.1 over 400 calls produced {stragglers} stragglers"
        );
    }

    #[test]
    fn fault_probability_one_always_faults() {
        let plan = FaultPlan::new().with_faults(FaultSpec {
            timeout_probability: 1.0,
            timeout: Duration::from_millis(5),
            ..FaultSpec::default()
        });
        let d = plan.draw("m", stable_hash("p"), 0, 0, 10);
        assert_eq!(d.fault.map(|f| f.kind), Some(FaultKind::Timeout), "{d:?}");
        assert_eq!(d.latency, Duration::from_millis(5));
    }

    #[test]
    fn empty_plan_draws_nothing() {
        let d = FaultPlan::new().draw("m", stable_hash("p"), 0, 0, 10);
        assert_eq!(d.latency, Duration::ZERO);
        assert_eq!(d.fault, None);
    }

    #[test]
    fn plan_spec_round_trips() {
        let plan = FaultPlan::parse(
            "ttft=2ms, tps=500, tail_p=0.05, tail_med=20, timeout_p=0.01, \
             timeout=200ms, ratelimit_p=0.02, retry_after=10ms, trunc_p=0.01",
        )
        .unwrap();
        assert!(!plan.is_empty());
        let p = plan.profile().unwrap();
        assert_eq!(p.ttft, Duration::from_millis(2));
        assert!((p.tokens_per_sec - 500.0).abs() < 1e-9);
        assert!(FaultPlan::parse("bogus_key=1").is_err());
        assert!(FaultPlan::parse("timeout_p=1.5").is_err());
        assert!(FaultPlan::parse("ttft=10").is_err(), "suffixless duration");
    }
}
