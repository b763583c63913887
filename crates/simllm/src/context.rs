//! The attention model: finite context with *lost-in-the-middle* loss.
//!
//! Two mechanisms from the long-context literature are reproduced:
//!
//! 1. **Truncation**: input beyond the model's effective budget is cut; the
//!    model keeps the head and tail of the document (the primacy/recency
//!    shape of attention) and only a thin sample of the middle.
//! 2. **Middle degradation**: even inputs that *fit* degrade once they fill
//!    more than half the budget — middle lines are dropped from the model's
//!    working set with a probability that grows with load and with distance
//!    from the edges.
//!
//! The unit of attention is the *line*: structured prompts and Darshan
//! parser output are both line-oriented.

use crate::profile::ModelProfile;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Outcome of pushing a prompt through the attention model.
#[derive(Debug, Clone)]
pub struct Attended<'a> {
    /// Lines the model actually "sees", in original order, borrowed from
    /// the prompt.
    pub lines: Vec<&'a str>,
    /// Total input tokens before attention.
    pub input_tokens: usize,
    /// Whether any content was lost.
    pub truncated: bool,
    /// Fraction of input lines retained.
    pub retention: f64,
}

/// Approximate token count: whitespace-separated words, exactly
/// `text.split_whitespace().count()`. ASCII text is counted by word
/// starts, eight bytes at a time; the bytes `0x09..=0x0D` and `0x20` are
/// exactly the ASCII characters [`char::is_whitespace`] accepts (VT and
/// FF included, which [`u8::is_ascii_whitespace`] would miss). Text with
/// any non-ASCII byte is split by the Unicode rules instead.
pub fn count_tokens(text: &str) -> usize {
    if !text.is_ascii() {
        return text.split_whitespace().count();
    }
    let mut chunks = text.as_bytes().chunks_exact(8);
    let mut words = 0;
    // Whether the byte before the current one is whitespace (a word can
    // start at the first byte).
    let mut after_space = true;
    for chunk in &mut chunks {
        let space = space_mask(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        let starts = !space & HIGH_BITS & ((space << 8) | (u64::from(after_space) << 7));
        words += starts.count_ones() as usize;
        after_space = space >> 63 != 0;
    }
    for &b in chunks.remainder() {
        let space = matches!(b, b'\t'..=b'\r' | b' ');
        words += usize::from(after_space && !space);
        after_space = space;
    }
    words
}

const LOW_BITS: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// The high bit of each byte of `x` (eight ASCII bytes) that is
/// whitespace: `0x09..=0x0D` or `0x20`. Per-byte sums stay below `0x100`,
/// so no carry crosses into the next byte.
fn space_mask(x: u64) -> u64 {
    // b + (0x80 - lo) has its high bit set exactly when b >= lo.
    let control = (x + LOW_BITS * (0x80 - 0x09)) & !(x + LOW_BITS * (0x80 - 0x0E));
    // A byte of y is zero exactly when the byte of x is a space.
    let y = x ^ (LOW_BITS * 0x20);
    let blank = !(((y & !HIGH_BITS) + !HIGH_BITS) | y);
    (control | blank) & HIGH_BITS
}

/// Input tokens of prompt lines: each line counts at least one token.
pub(crate) fn line_tokens(lines: &[&str]) -> usize {
    lines.iter().map(|l| count_tokens(l).max(1)).sum()
}

/// Apply the attention model of `profile` to `text`.
pub fn attend<'a>(profile: &ModelProfile, text: &'a str, rng: &mut ChaCha8Rng) -> Attended<'a> {
    let lines: Vec<&str> = text.lines().collect();
    let input_tokens = line_tokens(&lines);
    attend_lines(profile, lines, input_tokens, rng)
}

/// [`attend`] over a prompt already split into `lines`, whose
/// [`line_tokens`] are `input_tokens`. The RNG is drawn from, and a line
/// can be dropped, only when the input fills more than half the budget.
pub(crate) fn attend_lines<'a>(
    profile: &ModelProfile,
    lines: Vec<&'a str>,
    input_tokens: usize,
    rng: &mut ChaCha8Rng,
) -> Attended<'a> {
    let budget = profile.context_tokens;
    if input_tokens <= budget / 2 {
        // Comfortable load: everything attended.
        return Attended {
            lines,
            input_tokens,
            truncated: false,
            retention: 1.0,
        };
    }

    let token_counts: Vec<usize> = lines.iter().map(|l| count_tokens(l).max(1)).collect();
    let n = lines.len();
    let mut keep = vec![true; n];

    if input_tokens > budget {
        // Hard truncation: keep ~40% of budget from the head, ~40% from the
        // tail, and sample the middle with the remaining ~20%.
        let head_budget = budget * 2 / 5;
        let tail_budget = budget * 2 / 5;
        let mid_budget = budget - head_budget - tail_budget;

        let mut acc = 0usize;
        let mut head_end = 0usize;
        while head_end < n && acc + token_counts[head_end] <= head_budget {
            acc += token_counts[head_end];
            head_end += 1;
        }
        let mut acc = 0usize;
        let mut tail_start = n;
        while tail_start > head_end && acc + token_counts[tail_start - 1] <= tail_budget {
            acc += token_counts[tail_start - 1];
            tail_start -= 1;
        }
        let middle_tokens: usize = token_counts[head_end..tail_start].iter().sum();
        let sample_p = if middle_tokens == 0 {
            1.0
        } else {
            (mid_budget as f64 / middle_tokens as f64).min(1.0)
        };
        for (i, k) in keep.iter_mut().enumerate() {
            if i >= head_end && i < tail_start {
                *k = rng.gen_bool(sample_p);
            }
        }
    } else {
        // Fits, but heavy: lose middle lines with probability growing with
        // load and centrality.
        let load = input_tokens as f64 / budget as f64; // in (0.5, 1.0]
        let base_drop = (load - 0.5) * 0.9; // up to 0.45 at full budget
        for (i, k) in keep.iter_mut().enumerate() {
            let pos = i as f64 / (n.max(2) - 1) as f64; // 0..1
            let centrality = 1.0 - (2.0 * pos - 1.0).abs(); // 1 at middle
            let p_drop = base_drop * centrality;
            if rng.gen_bool(p_drop.clamp(0.0, 0.95)) {
                *k = false;
            }
        }
    }

    let attended: Vec<&str> = lines
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(l, _)| *l)
        .collect();
    let retention = attended.len() as f64 / n.max(1) as f64;
    Attended {
        lines: attended,
        input_tokens,
        truncated: retention < 1.0,
        retention,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_or_panic;
    use crate::rng::{rng_for, stable_hash};

    proptest::proptest! {
        #[test]
        fn ascii_count_tokens_is_split_whitespace(
            text in "[ab.\t\n\x0B\x0C\r \x1C\x1F\x08\x7F]{0,40}",
        ) {
            assert_eq!(count_tokens(&text), text.split_whitespace().count(), "{text:?}");
        }

        #[test]
        fn unicode_count_tokens_is_split_whitespace(
            text in "[a \t\x0B\u{85}\u{a0}\u{2028}\u{3000}\u{1680}\u{200B}\u{FEFF}]{0,24}",
        ) {
            assert_eq!(count_tokens(&text), text.split_whitespace().count(), "{text:?}");
        }
    }

    #[test]
    fn short_input_fully_attended() {
        let p = profile_or_panic("gpt-4o");
        let mut rng = rng_for("gpt-4o", stable_hash("x"), 0);
        let a = attend(p, "one two three\nfour five", &mut rng);
        assert_eq!(a.lines.len(), 2);
        assert!(!a.truncated);
        assert_eq!(a.retention, 1.0);
    }

    #[test]
    fn oversized_input_keeps_head_and_tail() {
        let p = profile_or_panic("gpt-4");
        let mut rng = rng_for("gpt-4", stable_hash("y"), 0);
        let body: String = (0..4000)
            .map(|i| format!("line {i} with a few tokens here\n"))
            .collect();
        let a = attend(p, &body, &mut rng);
        assert!(a.truncated);
        assert!(a.retention < 0.7);
        // Head survives.
        assert!(a.lines.iter().any(|l| l.contains("line 0 ")));
        // Tail survives.
        assert!(a.lines.iter().any(|l| l.contains("line 3999")));
        // Middle is mostly gone.
        let mid_kept = a.lines.iter().filter(|l| l.contains("line 2")).count();
        assert!(mid_kept < 600);
    }

    #[test]
    fn heavy_but_fitting_load_drops_middle_probabilistically() {
        let p = profile_or_panic("gpt-4o");
        // ~0.9 of budget.
        let nlines = p.context_tokens * 9 / 10 / 6;
        let body: String = (0..nlines).map(|i| format!("l {i} a b c d\n")).collect();
        let mut rng = rng_for("gpt-4o", stable_hash("z"), 0);
        let a = attend(p, &body, &mut rng);
        assert!(a.truncated);
        assert!(
            a.retention > 0.5 && a.retention < 1.0,
            "retention {}",
            a.retention
        );
        // Edges preferentially survive.
        assert!(a.lines.first().unwrap().contains("l 0 "));
    }

    #[test]
    fn attention_is_deterministic() {
        let p = profile_or_panic("llama-3-70b");
        let body: String = (0..3000).map(|i| format!("row {i} x y z\n")).collect();
        let a1 = attend(p, &body, &mut rng_for("llama-3-70b", stable_hash(&body), 7));
        let a2 = attend(p, &body, &mut rng_for("llama-3-70b", stable_hash(&body), 7));
        assert_eq!(a1.lines, a2.lines);
    }
}
