//! The benchmark's exact counters (LLM cost, label F1 and the per-layer
//! counts) must repeat exactly at one seed, and another seed must ask
//! different requests. Run with `cargo test --release` from `perfbench/`:
//! each workload still completes its counted rounds, so a debug build is
//! slow.

use perfbench::spec::{Requests, Workload, COUNTED};
use perfbench::{run, Options};
use std::path::PathBuf;
use std::time::Duration;
use tracebench::TraceBench;

fn options(workload: Workload, seed: u64) -> Options {
    Options {
        workload,
        seed,
        // Shorter than the counted rounds take, so the runs do exactly
        // the fixed work the counters are taken over.
        window: Duration::from_millis(200),
        trace: true,
        work_root: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-exact"),
    }
}

#[test]
fn exact_counters_repeat_at_one_seed() {
    for workload in Workload::ALL {
        let a = run(&options(workload, 11)).expect("first run");
        let b = run(&options(workload, 11)).expect("second run");
        assert!(a.exact.0.len() > 4, "{}: too few counters", workload.name());
        let bits = |o: &perfbench::Outcome| -> Vec<(&'static str, u64)> {
            o.exact
                .0
                .iter()
                .map(|m| (m.name, m.value.to_bits()))
                .collect()
        };
        assert_eq!(
            bits(&a),
            bits(&b),
            "{}: counters moved between runs",
            workload.name()
        );
    }
}

#[test]
fn another_seed_asks_different_requests() {
    let suite = TraceBench::generate();
    for workload in Workload::ALL {
        let lines = |seed| -> Vec<String> {
            let requests = Requests::new(&suite, workload, seed);
            (0..COUNTED)
                .map(|i| requests.line(&requests.job(i)))
                .collect()
        };
        assert_eq!(
            lines(11),
            lines(11),
            "{}: same seed, other requests",
            workload.name()
        );
        assert_ne!(
            lines(11),
            lines(12),
            "{}: other seed, same requests",
            workload.name()
        );
    }
}
