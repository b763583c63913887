//! Workloads and their seeded request streams.
//!
//! Requests come in *rounds*: one round holds every (TraceBench trace,
//! backbone model) pair exactly once, in a seeded order, so any whole
//! round carries the same mix of traces and models whatever the seed.
//! The seed picks the order, each job's `header.nprocs` perturbation
//! (which lands in the LLM prompts) and, on `restart_repeat`, which
//! journaled job each repeat asks for again. Every job also gets its own
//! `header.jobid`, so no two jobs share a cache key unless one is a
//! deliberate repeat.

use darshan::DarshanTrace;
use std::time::Duration;
use tracebench::TraceBench;

/// Backbone models, assigned so that each round uses each one equally.
pub const MODELS: [&str; 3] = ["gpt-4o", "gpt-4o-mini", "llama-3.1-70b"];

/// Number of TraceBench traces (the round size is this times the model
/// count).
pub const TRACES: usize = 40;

/// Jobs per round.
pub const ROUND: usize = TRACES * MODELS.len();

/// Timed rounds over which the exact counters (LLM cost, label F1,
/// per-layer counts) are taken. Every run completes them, however short
/// its window, so the counters repeat exactly at one seed; four rounds
/// keep the seed's `nprocs` draws from moving them by more than ~1%.
pub const COUNTED_ROUNDS: usize = 4;

/// Jobs in the counted rounds.
pub const COUNTED: usize = COUNTED_ROUNDS * ROUND;

/// Largest `nprocs` perturbation, exclusive.
const NPROCS_SPREAD: u64 = 8;

/// `restart_repeat`: rounds diagnosed and journaled during preparation.
pub const PREP_ROUNDS: usize = 2;

/// `restart_repeat`: one (trace, model) pair in this many repeats a
/// journaled job in each timed round (a quarter, so every median of the
/// mixed stream lies among the fresh jobs). Which quarter rotates from
/// round to round, so four rounds repeat every pair exactly once and the
/// counted rounds' cost does not depend on the seed.
pub const REPEAT_EVERY: usize = 4;

/// `remote_llm`: fixed offered load, about half the service's capacity
/// as measured when the benchmark was written (a closed loop of 48
/// clients over this configuration completed 165 diagnoses per second on
/// a 2-vCPU x86-64 virtual machine; 24 or 32 workers did no better, because the
/// cores were full). It is never derived at run time, so every commit
/// sees the same arrival schedule.
pub const REMOTE_RATE_PER_S: f64 = 80.0;

/// `remote_llm`: worker threads. More than the cores, because remote
/// workers spend most of a job asleep in simulated model latency.
pub const REMOTE_WORKERS: usize = 16;

/// `remote_llm`: per-job deadline, measured from enqueue.
pub const REMOTE_DEADLINE: Duration = Duration::from_secs(3);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, cache off, no model latency: the CPU layers work.
    TracebenchCpu,
    /// Open loop at a fixed rate against a slow, faulty remote model.
    RemoteLlm,
    /// Restart from a seeded state directory, then a read/write mix.
    RestartRepeat,
}

impl Workload {
    /// All workloads, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::TracebenchCpu,
        Workload::RemoteLlm,
        Workload::RestartRepeat,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TracebenchCpu => "tracebench_cpu",
            Workload::RemoteLlm => "remote_llm",
            Workload::RestartRepeat => "restart_repeat",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds that precede the timed stream (journaled in preparation).
    pub fn first_round(self) -> usize {
        match self {
            Workload::RestartRepeat => PREP_ROUNDS,
            _ => 0,
        }
    }

    /// Whether some requests repeat journaled jobs.
    pub fn repeats(self) -> bool {
        self == Workload::RestartRepeat
    }
}

/// What a job asks to diagnose. Two jobs with equal content have equal
/// cache keys and equal diagnoses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Content {
    /// Index into the TraceBench suite.
    pub trace: usize,
    /// Index into [`MODELS`].
    pub model: usize,
    /// Added to the trace's `header.nprocs`.
    pub nprocs_bump: u64,
    /// The trace's `header.jobid`.
    pub jobid: u64,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Job {
    /// Position in the timed stream (preparation jobs count separately).
    pub index: usize,
    /// Request id.
    pub id: String,
    /// What the request asks to diagnose.
    pub content: Content,
    /// Whether this request repeats a journaled job.
    pub repeat: bool,
}

impl Job {
    /// Whether the job belongs to the counted rounds.
    pub fn counted(&self) -> bool {
        self.index < COUNTED
    }
}

/// splitmix64 finaliser over a combination of inputs.
fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &p in parts {
        h ^= p;
        h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = z ^ (z >> 31);
    }
    h
}

/// Seeded Fisher-Yates permutation of `0..n`.
fn permutation(n: usize, key: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let mut k = key.to_vec();
        k.push(i as u64);
        let j = (mix(&k) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Purpose tags that keep the seeded draws independent.
const TAG_ORDER: u64 = 1;
const TAG_NPROCS: u64 = 2;
const TAG_REPEAT_PICK: u64 = 3;

/// The request stream of one workload at one seed.
pub struct Requests<'a> {
    suite: &'a TraceBench,
    workload: Workload,
    seed: u64,
}

impl<'a> Requests<'a> {
    /// The stream for `workload` at `seed` over the TraceBench `suite`.
    pub fn new(suite: &'a TraceBench, workload: Workload, seed: u64) -> Self {
        assert_eq!(suite.len(), TRACES, "TraceBench must hold {TRACES} traces");
        Requests {
            suite,
            workload,
            seed,
        }
    }

    /// The suite the stream draws from.
    pub fn suite(&self) -> &TraceBench {
        self.suite
    }

    /// Content at `pos` of absolute round `round` (preparation rounds
    /// first), before any repeat substitution.
    fn base_content(&self, round: usize, pos: usize) -> Content {
        let pair = self.order(round)[pos];
        Content {
            trace: pair % TRACES,
            model: pair / TRACES,
            nprocs_bump: mix(&[self.seed, TAG_NPROCS, round as u64, pos as u64]) % NPROCS_SPREAD,
            jobid: (round * ROUND + pos + 1) as u64,
        }
    }

    /// The seeded order of (trace, model) pairs in absolute round `round`;
    /// pair `p` is trace `p % TRACES` on model `p / TRACES`.
    fn order(&self, round: usize) -> Vec<usize> {
        permutation(ROUND, &[self.seed, TAG_ORDER, round as u64])
    }

    /// Number of preparation jobs (journaled before the timed stream).
    pub fn prep_len(&self) -> usize {
        self.workload.first_round() * ROUND
    }

    /// Preparation job `index` (`< prep_len()`).
    pub fn prep_job(&self, index: usize) -> Job {
        let (round, pos) = (index / ROUND, index % ROUND);
        Job {
            index,
            id: format!("prep{round}-{pos}"),
            content: self.base_content(round, pos),
            repeat: false,
        }
    }

    /// Timed job `index`.
    pub fn job(&self, index: usize) -> Job {
        let round = self.workload.first_round() + index / ROUND;
        let pos = index % ROUND;
        let pair = self.order(round)[pos];
        let repeat = self.workload.repeats() && (pair + index / ROUND).is_multiple_of(REPEAT_EVERY);
        let content = if repeat {
            // The same pair from a seeded preparation round.
            let prep_round = (mix(&[self.seed, TAG_REPEAT_PICK, round as u64, pos as u64])
                % PREP_ROUNDS as u64) as usize;
            let prep_pos = self
                .order(prep_round)
                .iter()
                .position(|&p| p == pair)
                .expect("every round holds every pair");
            self.base_content(prep_round, prep_pos)
        } else {
            self.base_content(round, pos)
        };
        Job {
            index,
            id: format!(
                "r{round}-{pos}-{}",
                self.suite.entries[content.trace].spec.id
            ),
            content,
            repeat,
        }
    }

    /// The parsed trace a content asks about.
    pub fn trace(&self, content: &Content) -> DarshanTrace {
        let mut trace = self.suite.entries[content.trace].trace.clone();
        trace.header.nprocs = trace.header.nprocs.max(1) + content.nprocs_bump;
        trace.header.jobid = content.jobid;
        trace
    }

    /// The `darshan-parser` text a content carries on the wire.
    pub fn trace_text(&self, content: &Content) -> String {
        darshan::write::write_text(&self.trace(content))
    }

    /// The NDJSON request line for `job` (paper-default agent config).
    pub fn line(&self, job: &Job) -> String {
        request_line(
            &job.id,
            &self.trace_text(&job.content),
            MODELS[job.content.model],
        )
    }
}

/// One NDJSON request line; every other field takes its protocol default
/// (RAG on, top-15, NL transform, tree merge).
pub fn request_line(id: &str, trace_text: &str, model: &str) -> String {
    serde_json::to_string(&serde_json::json!({
        "id": id,
        "trace": trace_text,
        "model": model,
    }))
    .expect("serialize request")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_holds_every_trace_model_pair_once() {
        let suite = TraceBench::generate();
        let requests = Requests::new(&suite, Workload::TracebenchCpu, 7);
        let mut pairs: Vec<(usize, usize)> = (0..ROUND)
            .map(|i| {
                let c = requests.job(i).content;
                (c.trace, c.model)
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), ROUND);
    }

    #[test]
    fn repeats_rotate_over_every_pair_and_point_at_prep_jobs() {
        let suite = TraceBench::generate();
        let requests = Requests::new(&suite, Workload::RestartRepeat, 3);
        let prep: Vec<Content> = (0..requests.prep_len())
            .map(|i| requests.prep_job(i).content)
            .collect();
        let mut repeated = Vec::new();
        for round in 0..REPEAT_EVERY {
            let jobs: Vec<Job> = (round * ROUND..(round + 1) * ROUND)
                .map(|i| requests.job(i))
                .collect();
            assert_eq!(
                jobs.iter().filter(|j| j.repeat).count(),
                ROUND / REPEAT_EVERY
            );
            for j in &jobs {
                assert_eq!(j.repeat, prep.contains(&j.content), "{}", j.id);
                if j.repeat {
                    repeated.push((j.content.trace, j.content.model));
                }
            }
        }
        repeated.sort_unstable();
        repeated.dedup();
        assert_eq!(
            repeated.len(),
            ROUND,
            "every pair repeats once in {REPEAT_EVERY} rounds"
        );
    }
}
