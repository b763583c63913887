//! Whole-pipeline determinism: identical inputs must produce bit-identical
//! outputs on every fresh run — the property that makes the reproduction
//! reproducible. All simulated randomness is keyed on prompt content.

use baselines::Ion;
use ioagent_core::merge::{merge_blocks, MergeStrategy, SummaryBlock};
use ioagent_core::rag::Retriever;
use ioagent_core::{AgentConfig, IoAgent};
use judge::{Criterion, Judge, ToolRun};
use simllm::{Diagnosis, SimLlm};
use std::sync::Arc;
use tracebench::TraceBench;

#[test]
fn suite_generation_is_bit_identical() {
    let a = TraceBench::generate();
    let b = TraceBench::generate();
    for (x, y) in a.entries.iter().zip(&b.entries) {
        assert_eq!(
            darshan::write::write_text(&x.trace),
            darshan::write::write_text(&y.trace),
            "{}",
            x.spec.id
        );
    }
}

#[test]
fn agent_diagnosis_is_repeatable() {
    // Heterogeneous traces: multi-module fragments, server hotspot, and a
    // real-application profile, so fragment counts and merge trees differ.
    let suite = TraceBench::generate();
    let retriever = Arc::new(Retriever::build());
    for id in ["sb01_small_io", "sb10_server_hotspot", "ra_vpic_io"] {
        let entry = suite.get(id).unwrap();
        let run = || {
            let model = SimLlm::new("gpt-4o");
            let agent = IoAgent::with_shared_retriever(
                &model,
                AgentConfig::default(),
                Arc::clone(&retriever),
            );
            let d = agent.diagnose(&entry.trace);
            let backbone = model.usage();
            let reflection = agent.reflection_usage();
            (
                d.text,
                d.issues,
                d.references,
                backbone.calls + reflection.calls,
                backbone.input_tokens + reflection.input_tokens,
                backbone.output_tokens + reflection.output_tokens,
                // Cost is derived from integer token totals, so even this
                // f64 must be bit-identical across runs.
                (backbone.cost_usd + reflection.cost_usd).to_bits(),
            )
        };
        assert_eq!(run(), run(), "{id} diverged across fresh runs");
    }
}

#[test]
fn tree_merge_is_repeatable() {
    let blocks: Vec<SummaryBlock> = (0..13)
        .map(|i| {
            SummaryBlock::new(
                format!("S{i}"),
                vec![format!(
                    "- POINT[k{i}] finding about k{i} ;; REFS: [Ref {i}, V 2021]"
                )],
            )
        })
        .collect();
    let merge = || merge_blocks(&SimLlm::new("gpt-4o"), blocks.clone(), MergeStrategy::Tree);
    let first = merge();
    assert_eq!(first, merge());
    assert!(!first.points.is_empty());
}

#[test]
fn ion_and_judge_are_repeatable() {
    let mut suite = TraceBench::generate();
    suite.entries.truncate(3);
    let model = SimLlm::new("llama-3.1-70b");
    let ion = Ion::new(&model);
    let first: Vec<String> = suite
        .entries
        .iter()
        .map(|e| ion.diagnose(&e.trace).text)
        .collect();
    let second: Vec<String> = suite
        .entries
        .iter()
        .map(|e| ion.diagnose(&e.trace).text)
        .collect();
    assert_eq!(first, second);

    let fake = |tool: &str, labels: &[tracebench::IssueLabel]| {
        let mut text = format!("{tool} report\n");
        for l in labels {
            text.push_str(&format!(
                "Issue: {}\n  details with 42 numbers\n  Recommendation: fix it\n",
                l.display_name()
            ));
        }
        Diagnosis::from_text(tool, text)
    };
    let runs: Vec<ToolRun> = vec![
        ToolRun {
            tool: "good".into(),
            diagnoses: suite
                .entries
                .iter()
                .map(|e| fake("good", e.spec.labels))
                .collect(),
        },
        ToolRun {
            tool: "partial".into(),
            diagnoses: suite
                .entries
                .iter()
                .map(|e| fake("partial", &e.spec.labels[..1.min(e.spec.labels.len())]))
                .collect(),
        },
    ];
    let scores = || {
        let model = SimLlm::new("gpt-4o");
        let eval = Judge::new(&model).evaluate(&suite, &runs);
        let mut scores = Vec::new();
        for tool_idx in 0..runs.len() {
            for criterion in Criterion::ALL {
                scores.push(eval.normalized(tool_idx, criterion, None).to_bits());
            }
        }
        scores
    };
    assert_eq!(scores(), scores());
}

#[test]
fn model_usage_accounting_consistent_across_runs() {
    let suite = TraceBench::generate();
    let entry = suite.get("sb01_small_io").unwrap();
    let usage = |_run: usize| {
        let model = SimLlm::new("gpt-4o");
        let agent = IoAgent::new(&model);
        let _ = agent.diagnose(&entry.trace);
        let u = model.usage();
        (u.calls, u.input_tokens, u.output_tokens)
    };
    assert_eq!(usage(0), usage(1));
}
