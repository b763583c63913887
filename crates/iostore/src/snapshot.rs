//! Versioned on-disk snapshots of the knowledge [`VectorIndex`].
//!
//! A snapshot is a header line followed by one line per index entry:
//!
//! ```json
//! {"magic": "ioagent-index", "format_version": 1, "embedder_dim": 256,
//!  "chunk_size": 512, "overlap": 20, "corpus_hash": "0x9f2c…",
//!  "entries": 78}
//! {"doc_id": "k01", "citation": "[…]", "chunk_no": 0, "text": "…",
//!  "vector": "3f547ae1…"}
//! …
//! ```
//!
//! Byte-level field encodings and the journal record grammar are specified
//! in `docs/snapshot-format.md` at the repo root.
//!
//! The header makes staleness *detectable instead of silent*: loading
//! verifies the format version, the embedder configuration, the chunking
//! hyper-parameters, and a content hash of the corpus the index was built
//! from. Any mismatch returns a typed [`SnapshotError`] so the caller
//! rebuilds (and re-saves) rather than serving retrievals from an index
//! that no longer matches the code or the corpus.
//!
//! Embedding vectors are stored as bit-exact hex (`f32::to_bits`, 8 hex
//! digits per lane), never decimal text, so loaded cosine scores — and
//! therefore retrieval order, grounding, and final diagnoses — are
//! byte-identical to a fresh build.

use ioembed::Embedder;
use serde_json::{json, Value};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use vecindex::{IndexEntry, VectorArena, VectorIndex};

/// The snapshot format version this build writes and reads; bump on any
/// layout change. A file stamped with any other version (including the
/// retired v2/v3 clustered formats) fails with
/// [`SnapshotError::FormatVersion`], which callers answer by rebuilding.
pub const SNAPSHOT_FORMAT_VERSION: i64 = 1;

const MAGIC: &str = "ioagent-index";

/// What a snapshot must match to be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSpec {
    /// Embedding dimensionality ([`Embedder::dim`]).
    pub embedder_dim: usize,
    /// Chunk size in tokens.
    pub chunk_size: usize,
    /// Chunk overlap in tokens.
    pub overlap: usize,
    /// Content hash of the corpus the index is built over.
    pub corpus_hash: u64,
}

/// Why a snapshot could not be served.
#[derive(Debug)]
pub enum SnapshotError {
    /// No snapshot file exists yet.
    Missing,
    /// Reading or writing the snapshot failed.
    Io(io::Error),
    /// The file exists but is not an intact snapshot (bad header, torn
    /// entry lines, wrong entry count, malformed vectors, …).
    Corrupt(String),
    /// The snapshot was written by a different format version.
    FormatVersion {
        /// Version found in the header.
        found: i64,
    },
    /// The snapshot was built with different embedder / chunking settings.
    ConfigMismatch(String),
    /// The corpus changed since the snapshot was built.
    CorpusMismatch {
        /// Corpus hash in the header.
        found: u64,
        /// Corpus hash of the live corpus.
        expected: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Missing => write!(f, "no index snapshot on disk"),
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "snapshot corrupt: {why}"),
            SnapshotError::FormatVersion { found } => write!(
                f,
                "snapshot format version {found}, but this build reads v{SNAPSHOT_FORMAT_VERSION}"
            ),
            SnapshotError::ConfigMismatch(why) => {
                write!(f, "snapshot embedder/chunking mismatch: {why}")
            }
            SnapshotError::CorpusMismatch { found, expected } => write!(
                f,
                "snapshot corpus hash 0x{found:016x} != live corpus 0x{expected:016x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::NotFound {
            SnapshotError::Missing
        } else {
            SnapshotError::Io(e)
        }
    }
}

/// Write a snapshot of `index` (built over a corpus hashing to
/// `corpus_hash`) to `path`, via a temp file + rename so a crash never
/// leaves a half-written snapshot in place.
pub fn save_index(path: &Path, index: &VectorIndex, corpus_hash: u64) -> io::Result<()> {
    let tmp = path.with_extension("snap.tmp");
    {
        let mut w = BufWriter::new(std::fs::File::create(&tmp)?);
        let header = json!({
            "magic": MAGIC,
            "format_version": SNAPSHOT_FORMAT_VERSION,
            "embedder_dim": index.embedder().dim,
            "chunk_size": index.chunk_size(),
            "overlap": index.overlap(),
            "corpus_hash": format!("0x{corpus_hash:016x}"),
            "entries": index.entries().len(),
        });
        writeln!(w, "{}", serde_json::to_string(&header).expect("header"))?;
        for (i, entry) in index.entries().iter().enumerate() {
            let line = json!({
                "doc_id": entry.doc_id,
                "citation": entry.citation,
                "chunk_no": entry.chunk_no,
                "text": entry.text,
                "vector": encode_vector(index.vector(i)),
            });
            writeln!(w, "{}", serde_json::to_string(&line).expect("entry"))?;
        }
        w.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Records the snapshot-load latency histogram on every exit path of
/// [`load_index`] (including the typed-error early returns).
struct LoadTimer {
    start: std::time::Instant,
}

impl Drop for LoadTimer {
    fn drop(&mut self) {
        let m = ioobserve::metrics();
        m.counter("snapshot.loads").inc();
        m.histogram("snapshot.load_ns")
            .record_duration(self.start.elapsed());
    }
}

/// Load a snapshot from `path`, verifying it against `expected`. Returns
/// the reconstructed index — bit-identical, entry for entry, to the index
/// that was saved — or a typed error telling the caller to rebuild.
pub fn load_index(path: &Path, expected: &IndexSpec) -> Result<VectorIndex, SnapshotError> {
    let load_start = std::time::Instant::now();
    let _span = ioobserve::tracer().span("snapshot.load");
    let _timer = LoadTimer { start: load_start };
    let raw = std::fs::read_to_string(path)?;
    let mut lines = raw.lines();
    let header_line = lines
        .next()
        .ok_or_else(|| SnapshotError::Corrupt("empty snapshot file".into()))?;
    let header: Value = serde_json::from_str(header_line)
        .map_err(|e| SnapshotError::Corrupt(format!("unreadable header: {e}")))?;
    if header.get("magic").and_then(Value::as_str) != Some(MAGIC) {
        return Err(SnapshotError::Corrupt("missing magic marker".into()));
    }
    let found_version = header
        .get("format_version")
        .and_then(Value::as_i64)
        .unwrap_or(-1);
    if found_version != SNAPSHOT_FORMAT_VERSION {
        return Err(SnapshotError::FormatVersion {
            found: found_version,
        });
    }

    let header_usize = |field: &str| -> Result<usize, SnapshotError> {
        header
            .get(field)
            .and_then(Value::as_i64)
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| SnapshotError::Corrupt(format!("header field {field:?} missing")))
    };
    let dim = header_usize("embedder_dim")?;
    let chunk_size = header_usize("chunk_size")?;
    let overlap = header_usize("overlap")?;
    if dim != expected.embedder_dim {
        return Err(SnapshotError::ConfigMismatch(format!(
            "embedder dim {dim} != expected {}",
            expected.embedder_dim
        )));
    }
    if chunk_size != expected.chunk_size || overlap != expected.overlap {
        return Err(SnapshotError::ConfigMismatch(format!(
            "chunking {chunk_size}/{overlap} != expected {}/{}",
            expected.chunk_size, expected.overlap
        )));
    }
    let corpus_hash = header
        .get("corpus_hash")
        .and_then(Value::as_str)
        .and_then(|s| s.strip_prefix("0x"))
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| SnapshotError::Corrupt("header corpus_hash missing".into()))?;
    if corpus_hash != expected.corpus_hash {
        return Err(SnapshotError::CorpusMismatch {
            found: corpus_hash,
            expected: expected.corpus_hash,
        });
    }
    let declared_entries = header_usize("entries")?;

    let mut entries: Vec<IndexEntry> = Vec::with_capacity(declared_entries);
    let mut arena = VectorArena::with_capacity(dim, declared_entries);
    // Consecutive chunks of one document share a single doc_id / citation
    // allocation, restoring the memory shape `add_document` builds.
    let mut shared: Option<(Arc<str>, Arc<str>)> = None;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| SnapshotError::Corrupt(format!("unreadable entry: {e}")))?;
        let field = |name: &str| -> Result<String, SnapshotError> {
            v.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| SnapshotError::Corrupt(format!("entry field {name:?} missing")))
        };
        let chunk_no = v
            .get("chunk_no")
            .and_then(Value::as_i64)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| SnapshotError::Corrupt("entry field \"chunk_no\" missing".into()))?;
        let vector = decode_vector(&field("vector")?)?;
        if vector.len() != dim {
            return Err(SnapshotError::Corrupt(format!(
                "vector has {} lanes, header says {dim}",
                vector.len()
            )));
        }
        arena.push(&vector);
        let doc_id_s = field("doc_id")?;
        let citation_s = field("citation")?;
        let (doc_id, citation) = match &shared {
            Some((d, c)) if **d == *doc_id_s && **c == *citation_s => {
                (Arc::clone(d), Arc::clone(c))
            }
            _ => {
                let fresh = (Arc::<str>::from(doc_id_s), Arc::<str>::from(citation_s));
                shared = Some((Arc::clone(&fresh.0), Arc::clone(&fresh.1)));
                fresh
            }
        };
        entries.push(IndexEntry {
            doc_id,
            citation,
            chunk_no,
            text: field("text")?,
        });
    }
    if entries.len() != declared_entries {
        return Err(SnapshotError::Corrupt(format!(
            "snapshot holds {} entries, header declares {declared_entries} (torn tail?)",
            entries.len()
        )));
    }
    Ok(VectorIndex::from_parts(
        Embedder { dim },
        chunk_size,
        overlap,
        entries,
        arena,
    ))
}

/// Bit-exact hex encoding: 8 hex digits (`f32::to_bits`) per lane.
fn encode_vector(v: &[f32]) -> String {
    let mut out = String::with_capacity(v.len() * 8);
    for lane in v {
        out.push_str(&format!("{:08x}", lane.to_bits()));
    }
    out
}

fn decode_vector(hex: &str) -> Result<Vec<f32>, SnapshotError> {
    if !hex.len().is_multiple_of(8) {
        return Err(SnapshotError::Corrupt(
            "vector hex length not a multiple of 8".into(),
        ));
    }
    hex.as_bytes()
        .chunks(8)
        .map(|lane| {
            std::str::from_utf8(lane)
                .ok()
                .and_then(|s| u32::from_str_radix(s, 16).ok())
                .map(f32::from_bits)
                .ok_or_else(|| SnapshotError::Corrupt("bad vector hex lane".into()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn small_index() -> VectorIndex {
        let mut ix = VectorIndex::new(Embedder::default(), 64, 8);
        ix.add_document(
            "doc-a",
            "[A, V 2020]",
            "Lustre stripe count determines how many storage targets serve a file.",
        );
        ix.add_document(
            "doc-b",
            "[B, V 2021]",
            "Collective MPI-IO aggregates many small requests into large transfers.",
        );
        ix
    }

    fn spec(ix: &VectorIndex) -> IndexSpec {
        IndexSpec {
            embedder_dim: ix.embedder().dim,
            chunk_size: ix.chunk_size(),
            overlap: ix.overlap(),
            corpus_hash: 0xfeed,
        }
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let tmp = TempDir::new("snap-rt");
        let path = tmp.0.join("index.snap");
        let ix = small_index();
        save_index(&path, &ix, 0xfeed).unwrap();
        let loaded = load_index(&path, &spec(&ix)).unwrap();
        assert_eq!(loaded.len(), ix.len());
        for (i, (a, b)) in ix.entries().iter().zip(loaded.entries()).enumerate() {
            assert_eq!(a.doc_id, b.doc_id);
            assert_eq!(a.citation, b.citation);
            assert_eq!(a.chunk_no, b.chunk_no);
            assert_eq!(a.text, b.text);
            let bits_a: Vec<u32> = ix.vector(i).iter().map(|f| f.to_bits()).collect();
            let bits_b: Vec<u32> = loaded.vector(i).iter().map(|f| f.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "vectors must survive bit-exactly");
            assert_eq!(
                loaded.arena().norm(i).to_bits(),
                ioembed::norm(loaded.vector(i)).to_bits(),
                "loaded arena norms must match recomputation bit-exactly"
            );
        }
        // The load path restores Arc sharing: chunks of one document alias
        // one metadata allocation, as a fresh build does.
        for w in loaded.entries().windows(2) {
            if w[0].doc_id == w[1].doc_id {
                assert!(Arc::ptr_eq(&w[0].doc_id, &w[1].doc_id));
                assert!(Arc::ptr_eq(&w[0].citation, &w[1].citation));
            }
        }
        // Retrieval over the loaded index is identical.
        let q = "stripe count limits parallelism";
        let hits_a: Vec<(u32, usize)> = ix
            .search(q, 3)
            .into_iter()
            .map(|h| (h.score.to_bits(), h.entry_idx))
            .collect();
        let hits_b: Vec<(u32, usize)> = loaded
            .search(q, 3)
            .into_iter()
            .map(|h| (h.score.to_bits(), h.entry_idx))
            .collect();
        assert_eq!(hits_a, hits_b);
    }

    #[test]
    fn missing_snapshot_reports_missing() {
        let tmp = TempDir::new("snap-missing");
        let ix = small_index();
        let err = load_index(&tmp.0.join("nope.snap"), &spec(&ix)).unwrap_err();
        assert!(matches!(err, SnapshotError::Missing), "{err}");
    }

    #[test]
    fn corpus_change_invalidates() {
        let tmp = TempDir::new("snap-corpus");
        let path = tmp.0.join("index.snap");
        let ix = small_index();
        save_index(&path, &ix, 0xfeed).unwrap();
        let mut other = spec(&ix);
        other.corpus_hash = 0xbeef;
        let err = load_index(&path, &other).unwrap_err();
        assert!(matches!(err, SnapshotError::CorpusMismatch { .. }), "{err}");
    }

    #[test]
    fn embedder_config_change_invalidates() {
        let tmp = TempDir::new("snap-config");
        let path = tmp.0.join("index.snap");
        let ix = small_index();
        save_index(&path, &ix, 0xfeed).unwrap();
        let mut other = spec(&ix);
        other.embedder_dim = 128;
        assert!(matches!(
            load_index(&path, &other).unwrap_err(),
            SnapshotError::ConfigMismatch(_)
        ));
        let mut other = spec(&ix);
        other.chunk_size = 1024;
        assert!(matches!(
            load_index(&path, &other).unwrap_err(),
            SnapshotError::ConfigMismatch(_)
        ));
    }

    #[test]
    fn future_format_version_is_rejected() {
        let tmp = TempDir::new("snap-ver");
        let path = tmp.0.join("index.snap");
        let ix = small_index();
        save_index(&path, &ix, 0xfeed).unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        let bumped = raw.replace("\"format_version\":1", "\"format_version\":9");
        assert_ne!(raw, bumped, "fixture must actually bump the version");
        std::fs::write(&path, bumped).unwrap();
        assert!(matches!(
            load_index(&path, &spec(&ix)).unwrap_err(),
            SnapshotError::FormatVersion { found: 9 }
        ));
    }

    /// A v1 header followed by a trailing record of the retired clustered
    /// formats is not an intact v1 snapshot: typed corrupt, never served.
    #[test]
    fn v1_snapshot_with_trailing_ivf_record_is_corrupt() {
        let tmp = TempDir::new("snap-v1-ivf");
        let path = tmp.0.join("index.snap");
        let ix = small_index();
        save_index(&path, &ix, 0xfeed).unwrap();
        let mut raw = std::fs::read_to_string(&path).unwrap();
        assert!(raw.contains("\"format_version\":1"), "saves are v1");
        raw.push_str(
            "{\"ivf_clusters\":1,\"ivf_centroids\":\"3f800000\",\
             \"ivf_assignments\":\"00000000\"}\n",
        );
        std::fs::write(&path, raw).unwrap();
        let err = load_index(&path, &spec(&ix)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn torn_snapshot_is_corrupt_not_served() {
        let tmp = TempDir::new("snap-torn");
        let path = tmp.0.join("index.snap");
        let ix = small_index();
        save_index(&path, &ix, 0xfeed).unwrap();
        let raw = std::fs::read_to_string(&path).unwrap();
        let keep: String = raw
            .lines()
            .take(raw.lines().count() - 1)
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&path, keep).unwrap();
        assert!(matches!(
            load_index(&path, &spec(&ix)).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn vector_hex_round_trips_extremes() {
        let v = vec![0.0f32, -0.0, 1.0, -1.0, f32::MIN_POSITIVE, 0.1234567];
        let decoded = decode_vector(&encode_vector(&v)).unwrap();
        let bits_in: Vec<u32> = v.iter().map(|f| f.to_bits()).collect();
        let bits_out: Vec<u32> = decoded.iter().map(|f| f.to_bits()).collect();
        assert_eq!(bits_in, bits_out);
    }
}
