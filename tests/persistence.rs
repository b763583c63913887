//! Acceptance tests for the `iostore` persistence layer (ISSUE 3):
//!
//! - restarting the service with the same `--state-dir` answers a
//!   previously-seen batch with **zero** LLM calls;
//! - a snapshot-loaded `VectorIndex` produces **byte-identical** diagnoses
//!   to a freshly built one;
//! - a corpus or embedder-config change invalidates the snapshot and
//!   triggers a rebuild instead of silently serving stale retrievals;
//! - a snapshot in a retired format version (the v2/v3 clustered
//!   formats) is rebuilt once into v1, never served.

use ioagent_core::{AgentConfig, IndexProvenance, IoAgent, Retriever};
use ioagentd::{DiagnosisService, JobRequest, ServiceConfig};
use simllm::SimLlm;
use std::path::PathBuf;
use std::sync::Arc;
use tracebench::TraceBench;

/// Unique self-cleaning temp directory (no tempfile crate offline).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("persistence-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn jobs(suite: &TraceBench, n: usize) -> Vec<JobRequest> {
    suite
        .entries
        .iter()
        .take(n)
        .map(|e| JobRequest::new(e.spec.id, e.trace.clone(), "gpt-4o-mini"))
        .collect()
}

#[test]
fn restarted_service_answers_previous_batch_with_zero_llm_calls() {
    let tmp = TempDir::new("restart");
    let suite = TraceBench::generate();

    // Generation 1: fresh state dir, every job does real work.
    let first_results = {
        let service = DiagnosisService::start(ServiceConfig::with_workers(2).state_dir(&tmp.0));
        assert!(service.persistence_active());
        let results = service.run_batch(jobs(&suite, 3)).unwrap();
        assert!(results.iter().all(|r| !r.cached));
        assert!(results.iter().all(|r| r.metrics.llm_calls > 0));
        let stats = service.stats();
        assert_eq!(stats.cache_misses, 3);
        assert_eq!(stats.persisted_entries, 3);
        assert!(stats.journal_bytes > 0);
        service.shutdown();
        results
    };

    // Generation 2: a brand-new process-equivalent service over the same
    // state dir. The knowledge index loads from the snapshot and the
    // repeat batch is answered entirely from the journal.
    let service = DiagnosisService::start(ServiceConfig::with_workers(2).state_dir(&tmp.0));
    assert_eq!(service.index_provenance(), Some(&IndexProvenance::Snapshot));
    let repeat = service.run_batch(jobs(&suite, 3)).unwrap();
    let total_calls: usize = repeat.iter().map(|r| r.metrics.llm_calls).sum();
    assert_eq!(
        total_calls, 0,
        "restart must serve the repeat batch for free"
    );
    assert!(repeat.iter().all(|r| r.cached));
    for (a, b) in first_results.iter().zip(&repeat) {
        assert_eq!(a.diagnosis, b.diagnosis, "persisted diagnosis must match");
    }
    let stats = service.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses), (3, 0));
    service.shutdown();
}

#[test]
fn snapshot_loaded_index_diagnoses_byte_identically() {
    let tmp = TempDir::new("snapshot-identical");
    let suite = TraceBench::generate();
    let state = iostore::StateDir::new(&tmp.0).unwrap();

    let (fresh, provenance) = Retriever::build_or_load(&state);
    assert!(matches!(provenance, IndexProvenance::Rebuilt(_)));
    let (loaded, provenance) = Retriever::build_or_load(&state);
    assert_eq!(provenance, IndexProvenance::Snapshot);

    let fresh = Arc::new(fresh);
    let loaded = Arc::new(loaded);
    for entry in suite.entries.iter().take(3) {
        let model_a = SimLlm::new("gpt-4o");
        let agent_a =
            IoAgent::with_shared_retriever(&model_a, AgentConfig::default(), Arc::clone(&fresh));
        let model_b = SimLlm::new("gpt-4o");
        let agent_b =
            IoAgent::with_shared_retriever(&model_b, AgentConfig::default(), Arc::clone(&loaded));
        let a = agent_a.diagnose(&entry.trace);
        let b = agent_b.diagnose(&entry.trace);
        assert_eq!(
            a, b,
            "trace {}: snapshot-loaded index must not change output",
            entry.spec.id
        );
        assert_eq!(
            model_a.usage().calls,
            model_b.usage().calls,
            "identical call pattern expected"
        );
    }
}

#[test]
fn corpus_change_invalidates_snapshot_and_rebuilds() {
    let tmp = TempDir::new("corpus-invalidation");
    let state = iostore::StateDir::new(&tmp.0).unwrap();

    // Write a snapshot that claims a different corpus hash — what a
    // corpus edit between deployments looks like from the new binary.
    let built = Retriever::build();
    iostore::save_index(
        &state.index_path(),
        built.index(),
        knowledge::corpus_hash().wrapping_add(1),
    )
    .unwrap();

    let (_retriever, provenance) = Retriever::build_or_load(&state);
    let IndexProvenance::Rebuilt(reason) = provenance else {
        panic!("stale snapshot must trigger a rebuild");
    };
    assert!(reason.contains("corpus"), "reason: {reason}");

    // The rebuild re-saved a valid snapshot.
    let (_retriever, provenance) = Retriever::build_or_load(&state);
    assert_eq!(provenance, IndexProvenance::Snapshot);
}

#[test]
fn embedder_config_change_invalidates_snapshot() {
    let tmp = TempDir::new("embedder-invalidation");
    let state = iostore::StateDir::new(&tmp.0).unwrap();
    let built = Retriever::build();
    iostore::save_index(&state.index_path(), built.index(), knowledge::corpus_hash()).unwrap();

    // The snapshot is valid for the current embedder…
    let spec = Retriever::index_spec();
    assert!(iostore::load_index(&state.index_path(), &spec).is_ok());

    // …but a binary compiled with different retrieval hyper-parameters
    // must reject it rather than serve vectors from another geometry.
    let mut other = Retriever::index_spec();
    other.embedder_dim = 512;
    assert!(matches!(
        iostore::load_index(&state.index_path(), &other).unwrap_err(),
        iostore::SnapshotError::ConfigMismatch(_)
    ));
    let mut other = Retriever::index_spec();
    other.chunk_size = 256;
    assert!(matches!(
        iostore::load_index(&state.index_path(), &other).unwrap_err(),
        iostore::SnapshotError::ConfigMismatch(_)
    ));
}

#[test]
fn journal_survives_torn_tail_across_service_generations() {
    let tmp = TempDir::new("torn-service");
    let suite = TraceBench::generate();

    let service = DiagnosisService::start(ServiceConfig::with_workers(1).state_dir(&tmp.0));
    service.run_batch(jobs(&suite, 2)).unwrap();
    service.shutdown();

    // Tear the journal mid-record, as a crash during append would. Byte
    // slicing on purpose: a real torn write does not respect UTF-8
    // character boundaries, and the journal must tolerate that too.
    let journal = tmp.0.join(iostore::RESULTS_FILE);
    let raw = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &raw[..raw.len() - 30]).unwrap();

    // The next generation starts, keeps the intact record, and re-runs
    // only the torn one.
    let service = DiagnosisService::start(ServiceConfig::with_workers(1).state_dir(&tmp.0));
    assert!(service.persistence_active());
    let results = service.run_batch(jobs(&suite, 2)).unwrap();
    let cached = results.iter().filter(|r| r.cached).count();
    assert_eq!(
        cached, 1,
        "the un-torn record must still be served from disk"
    );
    service.shutdown();
}

/// ISSUE 4: a snapshot written **before** the arena rebuild (the seed-era
/// one-`Vec<f32>`-per-entry engine) must load into the new flat-arena
/// representation without a rebuild and diagnose byte-identically.
///
/// The on-disk layout did not change — same header, same
/// `format_version: 1`, same hex-encoded vectors — so a pre-existing
/// snapshot is reproduced here by writing the v1 format by hand (the
/// literal line shapes the old writer emitted) rather than through
/// today's `save_index`.
#[test]
fn pre_existing_snapshot_loads_into_the_arena_without_rebuild() {
    use std::fmt::Write as _;

    let tmp = TempDir::new("pre-arena-snapshot");
    let state = iostore::StateDir::new(&tmp.0).unwrap();
    let suite = TraceBench::generate();

    // What the old binary would have serialised: the same entries and
    // bit-exact vectors the corpus index holds.
    let built = Retriever::build();
    let ix = built.index();
    let corpus_hash = knowledge::corpus_hash();
    let escape = |s: &str| {
        // Minimal JSON string escaping for the fields this corpus uses.
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    };
    let mut raw = format!(
        "{{\"chunk_size\":{},\"corpus_hash\":\"0x{:016x}\",\"embedder_dim\":{},\
         \"entries\":{},\"format_version\":1,\"magic\":\"ioagent-index\",\"overlap\":{}}}\n",
        ix.chunk_size(),
        corpus_hash,
        ix.embedder().dim,
        ix.len(),
        ix.overlap(),
    );
    for (i, entry) in ix.entries().iter().enumerate() {
        let mut hex = String::with_capacity(ix.embedder().dim * 8);
        for lane in ix.vector(i) {
            let _ = write!(hex, "{:08x}", lane.to_bits());
        }
        let _ = writeln!(
            raw,
            "{{\"chunk_no\":{},\"citation\":\"{}\",\"doc_id\":\"{}\",\"text\":\"{}\",\"vector\":\"{}\"}}",
            entry.chunk_no,
            escape(&entry.citation),
            escape(&entry.doc_id),
            escape(&entry.text),
            hex,
        );
    }
    std::fs::write(state.index_path(), raw).unwrap();

    // The new engine serves it without rebuilding…
    let (loaded, provenance) = Retriever::build_or_load(&state);
    assert_eq!(
        provenance,
        IndexProvenance::Snapshot,
        "pre-arena snapshot must load, not trigger a rebuild"
    );

    // …into the arena representation, bit-identical to the fresh build.
    let loaded_ix = loaded.index();
    assert_eq!(loaded_ix.len(), ix.len());
    assert_eq!(loaded_ix.arena().len(), loaded_ix.len());
    assert_eq!(loaded_ix.arena().dim(), ix.embedder().dim);
    for i in 0..ix.len() {
        let a: Vec<u32> = ix.vector(i).iter().map(|f| f.to_bits()).collect();
        let b: Vec<u32> = loaded_ix.vector(i).iter().map(|f| f.to_bits()).collect();
        assert_eq!(a, b, "entry {i} vector changed across the format boundary");
    }

    // …and diagnoses byte-identically to the fresh build.
    let fresh = Arc::new(built);
    let loaded = Arc::new(loaded);
    for entry in suite.entries.iter().take(2) {
        let model_a = SimLlm::new("gpt-4o");
        let agent_a =
            IoAgent::with_shared_retriever(&model_a, AgentConfig::default(), Arc::clone(&fresh));
        let model_b = SimLlm::new("gpt-4o");
        let agent_b =
            IoAgent::with_shared_retriever(&model_b, AgentConfig::default(), Arc::clone(&loaded));
        assert_eq!(
            agent_a.diagnose(&entry.trace),
            agent_b.diagnose(&entry.trace),
            "trace {}: pre-arena snapshot changed a diagnosis",
            entry.spec.id
        );
    }
}

/// Snapshots in the retired clustered formats (v2 added a trailing
/// clustering record, v3 a permutation and a codebook record) fail the
/// version check, so the first start rebuilds the index and re-saves it
/// as v1; the second start serves that v1 file. Either way, diagnoses are
/// byte-identical to [`Retriever::build`].
///
/// The fixtures are written by hand: a literal v2/v3 header, the corpus
/// entry lines (which those formats shared with v1, taken from today's
/// writer), and trailing records with fixed hex. The loader rejects the
/// header before it reads any later line, so the trailing records carry
/// only the fields that identify their kind.
#[test]
fn retired_v2_and_v3_snapshots_are_rebuilt_once_into_v1() {
    let suite = TraceBench::generate();
    let fresh = Arc::new(Retriever::build());
    let fresh_ix = fresh.index();

    // Entry lines exactly as v1 (and v2/v3) wrote them.
    let scratch = TempDir::new("retired-entries");
    let v1_path = scratch.0.join("v1.snap");
    iostore::save_index(&v1_path, fresh_ix, knowledge::corpus_hash()).unwrap();
    let v1 = std::fs::read_to_string(&v1_path).unwrap();
    let entry_lines = v1.split_once('\n').expect("header line").1;

    let header = |version: u32| {
        format!(
            "{{\"chunk_size\":{},\"corpus_hash\":\"0x{:016x}\",\"embedder_dim\":{},\
             \"entries\":{},\"format_version\":{version},\"magic\":\"ioagent-index\",\
             \"overlap\":{}}}\n",
            fresh_ix.chunk_size(),
            knowledge::corpus_hash(),
            fresh_ix.embedder().dim,
            fresh_ix.len(),
            fresh_ix.overlap(),
        )
    };
    let clustering = "{\"ivf_assignments\":\"00000000\",\"ivf_centroids\":\"3f800000\",\
                      \"ivf_clusters\":1}\n";
    let permutation = "{\"perm\":\"00000000\"}\n";
    let fixtures = [
        (2, format!("{}{entry_lines}{clustering}", header(2))),
        (
            3,
            format!("{}{entry_lines}{clustering}{permutation}", header(3)),
        ),
    ];

    for (version, raw) in fixtures {
        let tmp = TempDir::new(&format!("retired-v{version}"));
        let state = iostore::StateDir::new(&tmp.0).unwrap();
        std::fs::write(state.index_path(), raw).unwrap();

        let (rebuilt, provenance) = Retriever::build_or_load(&state);
        let IndexProvenance::Rebuilt(reason) = provenance else {
            panic!("a v{version} snapshot must be rebuilt, got {provenance:?}");
        };
        assert!(
            reason.contains(&format!("format version {version}")),
            "v{version}: reason must name the version mismatch: {reason}"
        );
        let resaved = std::fs::read_to_string(state.index_path()).unwrap();
        assert_eq!(
            resaved, v1,
            "v{version}: the rebuild must re-save the file as v1"
        );

        let (loaded, provenance) = Retriever::build_or_load(&state);
        assert_eq!(
            provenance,
            IndexProvenance::Snapshot,
            "v{version}: the second start must serve the re-saved v1 file"
        );

        for retriever in [Arc::new(rebuilt), Arc::new(loaded)] {
            for entry in suite.entries.iter().take(2) {
                let model_a = SimLlm::new("gpt-4o");
                let agent_a = IoAgent::with_shared_retriever(
                    &model_a,
                    AgentConfig::default(),
                    Arc::clone(&fresh),
                );
                let model_b = SimLlm::new("gpt-4o");
                let agent_b = IoAgent::with_shared_retriever(
                    &model_b,
                    AgentConfig::default(),
                    Arc::clone(&retriever),
                );
                assert_eq!(
                    agent_a.diagnose(&entry.trace),
                    agent_b.diagnose(&entry.trace),
                    "v{version}, trace {}: a diagnosis changed",
                    entry.spec.id
                );
            }
        }
    }
}
