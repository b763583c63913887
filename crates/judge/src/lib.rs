//! LLM-as-judge evaluation harness (paper §VI-A..D).
//!
//! Diagnosis outputs from competing tools are ranked 1..4 per trace and per
//! criterion by a capable LLM. Because LLM judges exhibit positional and
//! name bias, the harness applies the paper's three augmentations:
//!
//! - **A — anonymisation**: tool names are replaced by neutral `Tool-k`
//!   tags (defeats name bias);
//! - **B — rank-assignment-order rotation**: the order in which the
//!   response format asks for ranks rotates across permutations;
//! - **C — content-order rotation**: the order the candidate reports
//!   appear in the prompt rotates across permutations.
//!
//! Each sample is ranked under four permutations so every rotation appears,
//! and scores are aggregated with the paper's normalisation:
//! `S = (4 − rank)`, summed per source and divided by `3·|D|` (Eqs. 1–2).

pub mod bias;
pub mod criteria;
pub mod scoring;

pub use bias::position_rank_matrix;
pub use criteria::Criterion;
pub use scoring::{Evaluation, ScoreKey};

use simllm::{CompletionRequest, Diagnosis, LanguageModel};
use tracebench::{LabeledTrace, TraceBench};

/// Which of the paper's augmentations are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Augmentations {
    /// A: anonymise tool names.
    pub anonymize: bool,
    /// B: rotate the rank-assignment order in the response format.
    pub rotate_rank_order: bool,
    /// C: rotate the order of candidate content in the prompt.
    pub rotate_content: bool,
}

impl Augmentations {
    /// All augmentations on (the paper's configuration).
    pub const FULL: Augmentations = Augmentations {
        anonymize: true,
        rotate_rank_order: true,
        rotate_content: true,
    };
    /// No augmentations (the biased baseline).
    pub const NONE: Augmentations = Augmentations {
        anonymize: false,
        rotate_rank_order: false,
        rotate_content: false,
    };
}

/// One tool's diagnoses, aligned index-for-index with the suite entries.
pub struct ToolRun {
    /// Tool name (shown to the judge only when not anonymised).
    pub tool: String,
    /// One diagnosis per suite entry.
    pub diagnoses: Vec<Diagnosis>,
}

/// The judge bound to a rating model.
pub struct Judge<'m> {
    model: &'m dyn LanguageModel,
    /// Active augmentations.
    pub augmentations: Augmentations,
    /// Ranking repetitions per sample (paper: 4, covering each rotation).
    pub permutations: usize,
}

impl<'m> Judge<'m> {
    /// Create a judge with the paper's configuration (GPT-4o, full
    /// augmentations, 4 permutations).
    pub fn new(model: &'m dyn LanguageModel) -> Self {
        Judge {
            model,
            augmentations: Augmentations::FULL,
            permutations: 4,
        }
    }

    /// Create a judge with explicit augmentations.
    pub fn with_augmentations(model: &'m dyn LanguageModel, aug: Augmentations) -> Self {
        Judge {
            model,
            augmentations: aug,
            permutations: 4,
        }
    }

    /// Rank the candidate diagnoses for one trace under one criterion and
    /// one permutation. Returns, per candidate (in input order), the
    /// assigned rank 1..n (1 = best) and the prompt position it occupied.
    pub fn rank_once(
        &self,
        entry: &LabeledTrace,
        criterion: Criterion,
        candidates: &[&Diagnosis],
        permutation: usize,
    ) -> Vec<(usize, usize)> {
        let n = candidates.len();
        assert!(n >= 2, "need at least two candidates to rank");
        // Tags (augmentation A).
        let tags: Vec<String> = (0..n)
            .map(|i| {
                if self.augmentations.anonymize {
                    format!("Tool-{}", i + 1)
                } else {
                    candidates[i].tool.clone()
                }
            })
            .collect();
        // Content order (augmentation C).
        let content_order: Vec<usize> = if self.augmentations.rotate_content {
            (0..n).map(|i| (i + permutation) % n).collect()
        } else {
            (0..n).collect()
        };
        // Rank-assignment order (augmentation B) — rotated differently so B
        // and C do not cancel each other trivially.
        let format_order: Vec<usize> = if self.augmentations.rotate_rank_order {
            (0..n)
                .map(|i| (n - 1 + i * (n - 1) + permutation) % n)
                .collect()
        } else {
            (0..n).collect()
        };

        let mut prompt = format!(
            "### TASK: rank\n## CRITERION\n{} — {}\n",
            criterion.key(),
            criterion.description()
        );
        if criterion == Criterion::Accuracy {
            let gt: Vec<&str> = entry.spec.labels.iter().map(|l| l.display_name()).collect();
            prompt.push_str(&format!("## GROUND TRUTH\n{}\n", gt.join("; ")));
        }
        prompt.push_str(&format!(
            "## FORMAT\nassign ranks in order: {}\n",
            format_order
                .iter()
                .map(|&i| tags[i].as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        for &idx in &content_order {
            prompt.push_str(&format!(
                "## CANDIDATE {}\n{}\n",
                tags[idx], candidates[idx].text
            ));
        }

        let req = CompletionRequest::new(
            "You are a meticulous rater of I/O diagnosis reports.",
            prompt,
        )
        .with_salt(permutation as u64);
        let response = self.model.complete(&req).text;

        // Parse "RANKING: a > b > c > d".
        let ranking_line = response
            .lines()
            .find(|l| l.starts_with("RANKING:"))
            .map(|l| l.trim_start_matches("RANKING:").trim().to_string())
            .unwrap_or_default();
        let ordered_tags: Vec<&str> = ranking_line.split('>').map(str::trim).collect();
        let mut out = vec![(n, 0); n];
        for (rank0, tag) in ordered_tags.iter().enumerate() {
            if let Some(i) = tags.iter().position(|t| t == tag) {
                let position = content_order.iter().position(|&c| c == i).unwrap_or(0);
                out[i] = (rank0 + 1, position);
            }
        }
        out
    }

    /// Mean rank (1 = best) per candidate for one trace/criterion across
    /// all permutations.
    pub fn mean_ranks(
        &self,
        entry: &LabeledTrace,
        criterion: Criterion,
        candidates: &[&Diagnosis],
    ) -> Vec<f64> {
        let n = candidates.len();
        let mut sums = vec![0.0; n];
        for p in 0..self.permutations {
            for (i, (rank, _)) in self
                .rank_once(entry, criterion, candidates, p)
                .into_iter()
                .enumerate()
            {
                sums[i] += rank as f64;
            }
        }
        sums.iter_mut().for_each(|s| *s /= self.permutations as f64);
        sums
    }

    /// Evaluate the full suite for a set of tool runs, producing the paper's
    /// normalised scores (Table IV). Traces are judged and aggregated in
    /// suite order, criterion by criterion.
    pub fn evaluate(&self, suite: &TraceBench, runs: &[ToolRun]) -> Evaluation {
        for run in runs {
            assert_eq!(
                run.diagnoses.len(),
                suite.len(),
                "tool {} diagnoses misaligned with suite",
                run.tool
            );
        }
        let mut eval = Evaluation::new(runs.iter().map(|r| r.tool.clone()).collect(), runs.len());
        for (ti, entry) in suite.entries.iter().enumerate() {
            let candidates: Vec<&Diagnosis> = runs.iter().map(|r| &r.diagnoses[ti]).collect();
            for criterion in Criterion::ALL {
                let ranks = self.mean_ranks(entry, criterion, &candidates);
                for (tool_idx, rank) in ranks.iter().enumerate() {
                    // S = (max_rank − rank); normalisation happens later.
                    let score = runs.len() as f64 - rank;
                    eval.add_sample(tool_idx, criterion, entry.spec.source, score);
                }
            }
        }
        eval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simllm::SimLlm;
    use tracebench::IssueLabel;

    fn mini_suite() -> TraceBench {
        let mut tb = TraceBench::generate();
        tb.entries.truncate(6);
        tb
    }

    fn fake_diagnosis(tool: &str, labels: &[IssueLabel], extra: &str) -> Diagnosis {
        let mut text = format!("{tool} report\n");
        for l in labels {
            text.push_str(&format!(
                "Issue: {}\n  details with 42 numbers\n  Recommendation: fix it\n",
                l.display_name()
            ));
        }
        text.push_str(extra);
        Diagnosis::from_text(tool, text)
    }

    #[test]
    fn accurate_tool_outranks_empty_tool() {
        let tb = mini_suite();
        let model = SimLlm::new("gpt-4o");
        let judge = Judge::new(&model);
        let runs: Vec<ToolRun> = vec![
            ToolRun {
                tool: "good".into(),
                diagnoses: tb
                    .entries
                    .iter()
                    .map(|e| fake_diagnosis("good", e.spec.labels, ""))
                    .collect(),
            },
            ToolRun {
                tool: "empty".into(),
                diagnoses: tb
                    .entries
                    .iter()
                    .map(|_| fake_diagnosis("empty", &[], "nothing found"))
                    .collect(),
            },
        ];
        let eval = judge.evaluate(&tb, &runs);
        let good = eval.normalized(0, Criterion::Accuracy, None);
        let empty = eval.normalized(1, Criterion::Accuracy, None);
        assert!(good > empty + 0.3, "good {good} empty {empty}");
    }

    #[test]
    fn ranks_cover_all_candidates() {
        let tb = mini_suite();
        let model = SimLlm::new("gpt-4o");
        let judge = Judge::new(&model);
        let d1 = fake_diagnosis("a", &[IssueLabel::SmallWrite], "");
        let d2 = fake_diagnosis("b", &[IssueLabel::SmallRead], "");
        let d3 = fake_diagnosis("c", &[], "");
        let ranks = judge.rank_once(&tb.entries[0], Criterion::Utility, &[&d1, &d2, &d3], 0);
        let mut rs: Vec<usize> = ranks.iter().map(|(r, _)| *r).collect();
        rs.sort_unstable();
        assert_eq!(rs, vec![1, 2, 3]);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let tb = mini_suite();
        let model = SimLlm::new("gpt-4o");
        let judge = Judge::new(&model);
        let runs = || {
            vec![
                ToolRun {
                    tool: "x".into(),
                    diagnoses: tb
                        .entries
                        .iter()
                        .map(|e| fake_diagnosis("x", e.spec.labels, ""))
                        .collect(),
                },
                ToolRun {
                    tool: "y".into(),
                    diagnoses: tb
                        .entries
                        .iter()
                        .map(|e| {
                            fake_diagnosis("y", &e.spec.labels[..1.min(e.spec.labels.len())], "")
                        })
                        .collect(),
                },
            ]
        };
        let a = judge.evaluate(&tb, &runs());
        let b = judge.evaluate(&tb, &runs());
        assert_eq!(
            a.normalized(0, Criterion::Accuracy, None),
            b.normalized(0, Criterion::Accuracy, None)
        );
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_runs_panic() {
        let tb = mini_suite();
        let model = SimLlm::new("gpt-4o");
        let judge = Judge::new(&model);
        let runs = vec![
            ToolRun {
                tool: "x".into(),
                diagnoses: vec![],
            },
            ToolRun {
                tool: "y".into(),
                diagnoses: vec![],
            },
        ];
        judge.evaluate(&tb, &runs);
    }
}
