//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then one JSON result line:
//! `{"correct": true, "attempted": N, "failed": F, "metrics": {...}}`.
//! Exit codes: 0 ok, 1 a reply was wrong (no numbers printed), 2 bad
//! arguments, 3 the run was invalid (open-loop generator fell behind).

use perfbench::spec::Workload;
use perfbench::{run, Failure, Options};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => {
                    seconds = s;
                    true
                }
                _ => false,
            },
            "--trace" => {
                trace = value == "1";
                matches!(value.as_str(), "0" | "1")
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let options = Options {
        workload,
        seed,
        window: Duration::from_secs_f64(seconds),
        trace,
        work_root: PathBuf::from(".bench_work"),
    };
    match run(&options) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            for m in &outcome.metrics.0 {
                println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            let exact: Vec<String> = outcome
                .exact
                .0
                .iter()
                .map(|m| format!("{}={}", m.name, m.value))
                .collect();
            println!("# exact: {}", exact.join(" "));
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                outcome.attempted,
                outcome.failed,
                outcome.metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(Failure::Incorrect(e)) => {
            eprintln!("perfbench: INCORRECT: {e}");
            ExitCode::from(1)
        }
        Err(Failure::Invalid(e)) => {
            eprintln!("perfbench: INVALID RUN: {e}");
            ExitCode::from(3)
        }
    }
}
