//! `ioagent` — command-line front end to the diagnosis pipeline.
//!
//! ```text
//! USAGE:
//!   ioagent [OPTIONS] [TRACE_FILE]
//!
//! ARGS:
//!   TRACE_FILE    darshan-parser text output; reads stdin when omitted
//!
//! OPTIONS:
//!   --model NAME      backbone model profile (default: gpt-4o)
//!   --ask QUESTION    follow-up question after the diagnosis (repeatable)
//!   --json            emit the diagnosis as JSON instead of text
//!   --flat-merge      use the 1-step merge ablation instead of the tree
//!   --no-rag          disable domain-knowledge retrieval
//!   --state-dir DIR   reuse/write the knowledge-index snapshot in DIR
//!                     (the same snapshot `ioagentd --state-dir` maintains)
//!   --list-models     print available model profiles and exit
//!   -h, --help        print this help
//! ```
//!
//! Example:
//! ```sh
//! darshan-parser --all job.darshan > job.txt
//! ioagent --model llama-3.1-70b --ask "how do I fix the stripe settings?" job.txt
//! ```

use ioagent_core::{AgentConfig, IoAgent, MergeStrategy};
use simllm::{SimLlm, PROFILES};
use std::io::Read;

fn usage() -> ! {
    // The module docs double as the help text.
    eprintln!(
        "ioagent — LLM-orchestrated HPC I/O diagnosis\n\n\
         USAGE: ioagent [OPTIONS] [TRACE_FILE]\n\n\
         ARGS:\n  TRACE_FILE        darshan-parser text output; stdin when omitted\n\n\
         OPTIONS:\n\
           --model NAME      backbone model profile (default: gpt-4o)\n\
           --ask QUESTION    follow-up question after the diagnosis (repeatable)\n\
           --json            emit the diagnosis as JSON\n\
           --flat-merge      use the 1-step merge ablation\n\
           --no-rag          disable domain-knowledge retrieval\n\
           --state-dir DIR   reuse/write the knowledge-index snapshot in DIR\n\
           --list-models     print available model profiles and exit\n\
           -h, --help        print this help"
    );
    std::process::exit(2);
}

fn main() {
    let mut model_name = "gpt-4o".to_string();
    let mut questions: Vec<String> = Vec::new();
    let mut json = false;
    let mut config = AgentConfig::default();
    let mut trace_path: Option<String> = None;
    let mut state_dir: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--model" => model_name = args.next().unwrap_or_else(|| usage()),
            "--ask" => questions.push(args.next().unwrap_or_else(|| usage())),
            "--json" => json = true,
            "--flat-merge" => config.merge = MergeStrategy::Flat,
            "--no-rag" => config.use_rag = false,
            "--state-dir" => state_dir = Some(args.next().unwrap_or_else(|| usage())),
            "--list-models" => {
                println!(
                    "{:<16} {:>8} {:>12} {:>12}",
                    "model", "vendor", "context", "capability"
                );
                for p in PROFILES {
                    println!(
                        "{:<16} {:>8} {:>12} {:>12.2}",
                        p.name, p.vendor, p.context_tokens, p.capability
                    );
                }
                return;
            }
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option {other:?}");
                usage();
            }
            other => trace_path = Some(other.to_string()),
        }
    }

    let text = match &trace_path {
        Some(path) => std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path:?}: {e}");
            std::process::exit(1);
        }),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| {
                    eprintln!("cannot read stdin: {e}");
                    std::process::exit(1);
                });
            buf
        }
    };
    let trace = darshan::parse::parse_text(&text).unwrap_or_else(|e| {
        eprintln!("failed to parse darshan text: {e}");
        std::process::exit(1);
    });

    if simllm::profile(&model_name).is_none() {
        eprintln!("unknown model {model_name:?}; use --list-models");
        std::process::exit(2);
    }
    let model = SimLlm::new(&model_name);
    // With --state-dir, the knowledge index is loaded from (or saved to)
    // the same snapshot `ioagentd` maintains, skipping the per-invocation
    // re-embedding of the corpus. Diagnoses are byte-identical either way.
    let agent = match &state_dir {
        Some(dir) => {
            let state = iostore::StateDir::new(dir).unwrap_or_else(|e| {
                eprintln!("cannot open state dir {dir:?}: {e}");
                std::process::exit(1);
            });
            let (retriever, provenance) = ioagent_core::Retriever::build_or_load(&state);
            match provenance {
                ioagent_core::IndexProvenance::Snapshot => {
                    eprintln!("[ioagent] knowledge index loaded from snapshot")
                }
                ioagent_core::IndexProvenance::Rebuilt(reason) => {
                    eprintln!("[ioagent] knowledge index rebuilt ({reason})")
                }
            }
            IoAgent::with_shared_retriever(&model, config, std::sync::Arc::new(retriever))
        }
        None => IoAgent::with_config(&model, config),
    };

    if questions.is_empty() {
        let diagnosis = agent.diagnose(&trace);
        if json {
            println!(
                "{}",
                serde_json::to_string_pretty(&diagnosis).expect("serialize")
            );
        } else {
            println!("{}", diagnosis.text);
        }
    } else {
        let mut session = agent.start_session(&trace);
        println!("{}", session.diagnosis.text);
        for q in questions {
            println!("user> {q}\n");
            println!("ioagent> {}\n", session.ask(&q));
        }
    }
    eprintln!(
        "[{} calls, {} input tokens, ${:.4} simulated cost]",
        model.usage().calls,
        model.usage().input_tokens,
        model.usage().cost_usd
    );
}
