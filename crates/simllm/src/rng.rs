//! Deterministic seeding: every stochastic decision in the simulator draws
//! from a ChaCha stream seeded by a stable hash of (model, prompt, salt), so
//! identical requests always produce identical completions while different
//! prompts decorrelate. Callers hash the prompt once ([`stable_hash`]) and
//! seed every stream of that request from the hash.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Stable FNV-1a 64-bit hash.
pub fn stable_hash(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

/// [`stable_hash`] in streaming form: text written piece by piece hashes
/// to the same value as the concatenated string (FNV-1a is a left fold),
/// so a caller can hash text it never builds.
///
/// ```
/// use simllm::rng::{stable_hash, StableHasher};
/// use std::fmt::Write;
///
/// let mut h = StableHasher::new();
/// write!(h, "{}-{}", "trace", 7).unwrap();
/// assert_eq!(h.finish(), stable_hash("trace-7"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StableHasher(u64);

impl StableHasher {
    /// The state of [`stable_hash`] of the empty string.
    pub fn new() -> Self {
        StableHasher(FNV_OFFSET)
    }

    /// Continue the hash over `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_from(self.0, bytes);
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl std::fmt::Write for StableHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// The FNV-1a 64-bit state before any byte: [`fnv1a`] of nothing.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit multiplier.
pub(crate) const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// FNV-1a 64-bit over raw bytes ([`stable_hash`] of a `&str`'s bytes).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a state over `bytes`. FNV-1a is a left fold, so
/// `fnv1a_from(fnv1a(a), b) == fnv1a(a ++ b)`: a prompt's hash can start
/// from the state at the end of a prefix it shares with others.
pub(crate) fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// RNG for a (model, prompt, salt) triple; `prompt_hash` is
/// [`stable_hash`] of the prompt.
pub fn rng_for(model: &str, prompt_hash: u64, salt: u64) -> ChaCha8Rng {
    let seed =
        stable_hash(model) ^ prompt_hash.rotate_left(17) ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ChaCha8Rng::seed_from_u64(seed)
}

/// RNG for the latency/fault domain of one delivery *attempt*;
/// `prompt_hash` is [`stable_hash`] of the prompt.
///
/// Content draws come from [`rng_for`] and deliberately ignore the
/// attempt number — a retry or hedged duplicate must reproduce the exact
/// same text. Timing and faults live in this separate domain, keyed by
/// attempt, so each delivery attempt draws an independent latency and
/// fault outcome while remaining bit-identical across runs. The domain
/// tag keeps position 0 of this stream uncorrelated with position 0 of
/// the content stream even at `attempt == 0`.
pub fn rng_for_attempt(model: &str, prompt_hash: u64, salt: u64, attempt: u32) -> ChaCha8Rng {
    let seed = stable_hash("fault-domain")
        ^ stable_hash(model)
        ^ prompt_hash.rotate_left(17)
        ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (attempt as u64).wrapping_mul(0xd1b5_4a32_d192_ed03);
    ChaCha8Rng::seed_from_u64(seed)
}

/// Symmetric uniform noise in [-amplitude, +amplitude].
pub fn noise(rng: &mut ChaCha8Rng, amplitude: f64) -> f64 {
    use rand::Rng;
    rng.gen_range(-amplitude..=amplitude)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = rng_for("gpt-4o", stable_hash("hello"), 1);
        let mut b = rng_for("gpt-4o", stable_hash("hello"), 1);
        for _ in 0..8 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_salt_different_stream() {
        let mut a = rng_for("gpt-4o", stable_hash("hello"), 1);
        let mut b = rng_for("gpt-4o", stable_hash("hello"), 2);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn different_model_different_stream() {
        let mut a = rng_for("gpt-4o", stable_hash("hello"), 1);
        let mut b = rng_for("llama-3-70b", stable_hash("hello"), 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn attempt_domain_is_separate_and_attempt_keyed() {
        // Same attempt lane replays; different lanes decorrelate.
        let mut a = rng_for_attempt("gpt-4o", stable_hash("hello"), 1, 0);
        let mut b = rng_for_attempt("gpt-4o", stable_hash("hello"), 1, 0);
        for _ in 0..8 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = rng_for_attempt("gpt-4o", stable_hash("hello"), 1, 1);
        assert_ne!(
            rng_for_attempt("gpt-4o", stable_hash("hello"), 1, 0).gen::<u64>(),
            c.gen::<u64>()
        );
        // The fault domain never collides with the content domain.
        assert_ne!(
            rng_for("gpt-4o", stable_hash("hello"), 1).gen::<u64>(),
            rng_for_attempt("gpt-4o", stable_hash("hello"), 1, 0).gen::<u64>()
        );
    }

    #[test]
    fn noise_bounded() {
        let mut rng = rng_for("m", stable_hash("p"), 0);
        for _ in 0..100 {
            let n = noise(&mut rng, 0.15);
            assert!(n.abs() <= 0.15);
        }
    }
}
