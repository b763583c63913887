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

/// Approximate token count: whitespace-separated words.
pub fn count_tokens(text: &str) -> usize {
    text.split_whitespace().count()
}

/// Apply the attention model of `profile` to `text`.
pub fn attend<'a>(profile: &ModelProfile, text: &'a str, rng: &mut ChaCha8Rng) -> Attended<'a> {
    let lines: Vec<&str> = text.lines().collect();
    let token_counts: Vec<usize> = lines.iter().map(|l| count_tokens(l).max(1)).collect();
    let input_tokens: usize = token_counts.iter().sum();
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
