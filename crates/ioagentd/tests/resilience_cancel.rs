//! First-wins hedging drops the loser unbilled: when the hedge beats a
//! straggling primary, the race returns at the hedge's finish instead of
//! sleeping out the primary's latency, the primary's own `llm.call` span
//! records `cancelled=true`, and only the winner commits usage. This test
//! installs the in-memory tracer (fine detail, so per-LLM-call spans are
//! real) and inspects the spans the race actually left behind.

use ioagentd::{HedgePolicy, ResilienceCounters, ResiliencePolicy, ResilientLlm};
use simllm::{CompletionRequest, FaultPlan, LanguageModel, LatencyProfile, SimLlm, TailSpec};
use std::time::{Duration, Instant};

/// Hedge attempt lane (mirrors the private constant in
/// `simllm::delivery`; pinned here so a lane renumbering is caught).
const HEDGE_LANE: u32 = 0x8000_0000;

fn request() -> CompletionRequest {
    CompletionRequest::new(
        "You are an HPC I/O expert.",
        "### TASK: diagnose\nEVIDENCE nprocs=8\nEVIDENCE posix.writes=1000",
    )
}

#[test]
fn losing_attempt_is_cancelled_and_its_span_says_so() {
    // Process-global, set-once: installed before any span is recorded.
    assert!(
        ioobserve::init_tracer(ioobserve::Tracer::memory().with_fine_detail()),
        "tracer already installed; this test must own the process global"
    );

    // A plan where lane 0 straggles for seconds but the hedge lane is
    // fast: tail fires on half the draws with a ~20000x multiplier over
    // a 200µs base. The right salt is found deterministically.
    let plan = FaultPlan::new()
        .with_profile(LatencyProfile::flat(Duration::from_micros(200)))
        .with_tail(TailSpec {
            probability: 0.5,
            lognormal_sigma: 0.1,
            median_multiplier: 20_000.0,
            pareto_alpha: 0.0,
            pareto_weight: 0.0,
            max_multiplier: 50_000.0,
        });
    let model = || SimLlm::new("gpt-4o-mini").with_fault_plan(plan.clone());
    let probe = model();
    let salt = (0..4096)
        .find(|&s| {
            let prepared = probe.prepare(&request().with_salt(s));
            let (slow, fast) = (prepared.draw(0), prepared.draw(HEDGE_LANE));
            slow.fault.is_none()
                && fast.fault.is_none()
                && slow.latency > Duration::from_secs(1)
                && fast.latency < Duration::from_millis(5)
        })
        .expect("no salt makes lane 0 straggle while the hedge lane is fast");
    let req = request().with_salt(salt);

    let counters = ResilienceCounters::detached();
    let resilient = ResilientLlm::new(
        model(),
        ResiliencePolicy::default().hedged(HedgePolicy {
            quantile: 0.95,
            min_delay: Duration::from_millis(2),
        }),
        None,
        counters.clone(),
    );
    let started = Instant::now();
    let delivered = resilient.complete(&req);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "the straggling primary was never cancelled ({:?})",
        started.elapsed()
    );
    assert!(resilient.take_failure().is_none());
    assert_eq!(counters.hedges.get(), 1);
    assert_eq!(counters.hedge_wins.get(), 1);
    // Exactly one delivery committed usage — the winner; the cancelled
    // loser charged nothing.
    assert_eq!(resilient.usage().calls, 1);

    // The race left exactly two llm.call spans: the hedge-lane winner
    // (usage attrs, no cancellation) and the lane-0 loser marked
    // cancelled=true.
    let spans = ioobserve::tracer().drain_memory();
    let calls: Vec<_> = spans.iter().filter(|s| s.name == "llm.call").collect();
    assert_eq!(calls.len(), 2, "expected winner + loser, got {calls:#?}");
    let winner = calls
        .iter()
        .find(|s| s.attr("attempt") == Some(&(HEDGE_LANE.to_string())))
        .expect("no span on the hedge lane");
    assert_eq!(winner.attr("cancelled"), None);
    assert!(
        winner.attr("task").is_some(),
        "winner must carry usage attrs"
    );
    let loser = calls
        .iter()
        .find(|s| s.attr("attempt").is_none())
        .expect("no span on the primary lane");
    assert_eq!(
        loser.attr("cancelled"),
        Some("true"),
        "the losing attempt must record its cancellation: {loser:#?}"
    );
    assert!(
        loser.attr("task").is_none(),
        "a cancelled attempt commits nothing"
    );

    // And first-wins is byte-identical to an unhedged, fault-free run
    // (checked after the drain so the reference run's own span does not
    // pollute the race's trace).
    assert_eq!(
        delivered.text,
        SimLlm::new("gpt-4o-mini").complete(&req).text
    );
}
