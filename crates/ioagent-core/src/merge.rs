//! Tree-based merge with pairwise LLM merging (paper §IV-C, Fig. 6).
//!
//! Per-fragment diagnoses are merged two at a time. The merges of one
//! tree level are independent, so they go to the model as one batch
//! ([`LanguageModel::complete_all`]): their calls are in flight together,
//! and the results come back in pair order, so the final merge does not
//! depend on thread count or timing. The alternative — a single flat
//! merge of all summaries — is implemented too, as the ablation arm (the
//! paper shows it loses key points and references even on frontier
//! models once more than a couple of summaries are merged at once).

use simllm::{Completion, CompletionRequest, LanguageModel};

/// How to combine per-fragment diagnoses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Pairwise tree merge, one batch of calls per level (IOAgent's design).
    Tree,
    /// One merge call over all summaries (the ablation baseline).
    Flat,
}

/// A mergeable summary: a title plus `- POINT[key] ...` lines.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryBlock {
    /// Block title (fragment title, or `merged` for internal nodes).
    pub title: String,
    /// Point lines, each `- POINT[key] text ;; REFS: [..] | [..]`.
    pub points: Vec<String>,
}

impl SummaryBlock {
    /// Construct a block.
    pub fn new(title: impl Into<String>, points: Vec<String>) -> Self {
        SummaryBlock {
            title: title.into(),
            points,
        }
    }

    /// Whether the block carries no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Render for inclusion in a merge prompt under the given index.
    fn render(&self, idx: usize) -> String {
        let mut out = format!("## SUMMARY {idx} {}\n", self.title);
        for p in &self.points {
            out.push_str(p);
            out.push('\n');
        }
        out
    }
}

/// Parse `- POINT[...]` lines from a merge response.
fn parse_points(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| l.starts_with("- POINT["))
        .map(String::from)
        .collect()
}

/// Merge a set of blocks into one via LLM calls, using the given strategy.
pub fn merge_blocks(
    model: &dyn LanguageModel,
    blocks: Vec<SummaryBlock>,
    strategy: MergeStrategy,
) -> SummaryBlock {
    merge_in_waves(blocks, strategy, |requests| model.complete_all(requests))
}

/// [`merge_blocks`] with each batch of merge calls — the one flat merge,
/// or every merge of one tree level — issued through `wave`, which
/// returns the completions in request order.
pub(crate) fn merge_in_waves(
    blocks: Vec<SummaryBlock>,
    strategy: MergeStrategy,
    mut wave: impl FnMut(&[CompletionRequest]) -> Vec<Completion>,
) -> SummaryBlock {
    let mut blocks: Vec<SummaryBlock> = blocks.into_iter().filter(|b| !b.is_empty()).collect();
    match blocks.len() {
        0 => return SummaryBlock::new("merged", Vec::new()),
        1 => return blocks.pop().expect("one block"),
        _ => {}
    }
    match strategy {
        MergeStrategy::Flat => merged_block(&wave(&[merge_request(&blocks)])[0]),
        MergeStrategy::Tree => {
            while blocks.len() > 1 {
                // Pair up; an odd trailing block passes through unchanged.
                let requests: Vec<CompletionRequest> =
                    blocks.chunks_exact(2).map(merge_request).collect();
                let odd = (blocks.len() % 2 == 1)
                    .then(|| blocks.pop().expect("an odd count has a trailing block"));
                blocks = wave(&requests)
                    .iter()
                    .map(merged_block)
                    .chain(odd)
                    .collect();
            }
            blocks.pop().expect("merging stops at one block")
        }
    }
}

/// The LLM merge request over `blocks`.
fn merge_request(blocks: &[SummaryBlock]) -> CompletionRequest {
    let mut prompt = String::from(
        "### TASK: merge\nMerge the following diagnosis summaries into one, removing \
         redundancy, resolving contradictions, and keeping every distinct key point with \
         its references.\n",
    );
    for (i, b) in blocks.iter().enumerate() {
        prompt.push_str(&b.render(i + 1));
    }
    CompletionRequest::new("You merge I/O diagnosis summaries faithfully.", prompt)
}

/// The block a merge completion describes.
fn merged_block(completion: &Completion) -> SummaryBlock {
    SummaryBlock::new("merged", parse_points(&completion.text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simllm::SimLlm;

    fn block(title: &str, keys: &[&str]) -> SummaryBlock {
        SummaryBlock::new(
            title,
            keys.iter()
                .map(|k| format!("- POINT[{k}] finding about {k} ;; REFS: [Ref {k}, V 2021]"))
                .collect(),
        )
    }

    #[test]
    fn tree_merge_retains_most_points_for_frontier_model() {
        let model = SimLlm::new("gpt-4o");
        let blocks: Vec<SummaryBlock> = (0..13)
            .map(|i| block(&format!("S{i}"), &[&format!("k{i}")]))
            .collect();
        let mut total = 0usize;
        for salt in 0..10 {
            // Vary the content slightly per round so RNG streams differ.
            let mut bs = blocks.clone();
            bs[0].points[0] = format!("- POINT[k0] finding about k0 round {salt}");
            let merged = merge_blocks(&model, bs, MergeStrategy::Tree);
            total += merged.points.len();
        }
        // 130 possible; pairwise fidelity 0.97 over ~4 levels ⇒ ≳ 85 %.
        assert!(total >= 100, "retained {total}/130");
    }

    #[test]
    fn flat_merge_loses_points_even_for_frontier_model() {
        let model = SimLlm::new("gpt-4o");
        let blocks: Vec<SummaryBlock> = (0..13)
            .map(|i| block(&format!("S{i}"), &[&format!("k{i}")]))
            .collect();
        let mut tree_total = 0usize;
        let mut flat_total = 0usize;
        for salt in 0..10 {
            let mut bs = blocks.clone();
            bs[0].points[0] = format!("- POINT[k0] finding about k0 round {salt}");
            tree_total += merge_blocks(&model, bs.clone(), MergeStrategy::Tree)
                .points
                .len();
            flat_total += merge_blocks(&model, bs, MergeStrategy::Flat).points.len();
        }
        assert!(
            flat_total * 2 < tree_total,
            "flat {flat_total} vs tree {tree_total}: flat merge should lose far more"
        );
    }

    #[test]
    fn single_block_passes_through() {
        let model = SimLlm::new("llama-3-70b");
        let b = block("only", &["a", "b"]);
        let merged = merge_blocks(&model, vec![b.clone()], MergeStrategy::Tree);
        assert_eq!(merged, b);
    }

    #[test]
    fn empty_input_yields_empty_block() {
        let model = SimLlm::new("gpt-4o");
        let merged = merge_blocks(&model, vec![], MergeStrategy::Tree);
        assert!(merged.is_empty());
    }

    #[test]
    fn duplicate_keys_deduplicated() {
        let model = SimLlm::new("o1-preview");
        let merged = merge_blocks(
            &model,
            vec![block("A", &["dup"]), block("B", &["dup"])],
            MergeStrategy::Tree,
        );
        assert!(merged.points.len() <= 1);
    }

    #[test]
    fn merge_is_deterministic() {
        let model = SimLlm::new("llama-3.1-70b");
        let blocks: Vec<SummaryBlock> = (0..6)
            .map(|i| block(&format!("S{i}"), &[&format!("k{i}")]))
            .collect();
        let a = merge_blocks(&model, blocks.clone(), MergeStrategy::Tree);
        let b = merge_blocks(&model, blocks, MergeStrategy::Tree);
        assert_eq!(a, b);
    }
}
