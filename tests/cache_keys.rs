//! Golden digest of the service's cache keys.
//!
//! `ioagentd` keys cached and journaled diagnoses by the FNV-1a hash of a
//! trace's canonical `darshan-parser` text (`write_text`). A change to the
//! canonical bytes would orphan every journal on disk, so this digest pins
//! them over the 40 TraceBench traces plus one hand-written trace that
//! exercises the parser's edge cases: counters outside the tables and from
//! another module, `LUSTRE_OST_ID_2` next to `LUSTRE_OST_ID_10`, a
//! duplicate row, whitespace-separated columns and records out of order.

use darshan::parse::parse_text;
use darshan::write::write_text;
use ioagentd::JobRequest;
use simllm::rng::stable_hash;
use tracebench::TraceBench;

/// Digest of the `id hash` lines built below.
const GOLDEN_DIGEST: u64 = 0x3c30_e814_edb3_1514;
/// Traces the digest covers: the suite plus the edge-case trace.
const GOLDEN_TRACES: usize = 41;

const EDGE_TRACE: &str = "\
# darshan log version: 3.41
# exe: ./edge --case
# uid: 4242
# jobid: 77
# nprocs: 4
# start_time: 1700000000
# end_time: 1700000013
# run time: 12.50
# metadata: lib_ver = 3.4.1
# mount entry:\t/scratch\tlustre
# mount entry:\t/home\tnfs
STDIO\t0\t30\tSTDIO_OPENS\t1\t/home/cfg\t/home\tnfs
STDIO\t0\t30\tSTDIO_F_META_TIME\t0.0012345\t/home/cfg\t/home\tnfs
POSIX\t-1\t20\tPOSIX_READS\t3\t/scratch/b\t/scratch\tlustre
POSIX\t-1\t20\tPOSIX_FUTURE_COUNTER\t11\t/scratch/b\t/scratch\tlustre
POSIX\t-1\t20\tPOSIX_F_FUTURE_TIME\t2.5\t/scratch/b\t/scratch\tlustre
POSIX\t-1\t20\tMPIIO_COLL_WRITES\t8\t/scratch/b\t/scratch\tlustre
POSIX\t-1\t20\tSTDIO_F_META_TIME\t0.75\t/scratch/b\t/scratch\tlustre
POSIX\t-1\t20\tPOSIX_BYTES_READ\t4096\t/scratch/b\t/scratch\tlustre
LUSTRE\t-1\t20\tLUSTRE_OST_ID_2\t5\t/scratch/b\t/scratch\tlustre
LUSTRE\t-1\t20\tLUSTRE_OST_ID_10\t7\t/scratch/b\t/scratch\tlustre
LUSTRE\t-1\t20\tLUSTRE_OSTS\t64\t/scratch/b\t/scratch\tlustre
LUSTRE\t-1\t20\tLUSTRE_OST_ID_0\t5\t/scratch/b\t/scratch\tlustre
POSIX -1 20 POSIX_F_READ_TIME 0.1234567 /scratch/b /scratch lustre
POSIX 0 10 POSIX_WRITES 12 /scratch/a /scratch lustre
POSIX\t-1\t20\tPOSIX_READS\t9\t/scratch/b\t/scratch\tlustre
MPIIO\t-1\t20\tMPIIO_COLL_WRITES\t8\t/scratch/b\t/scratch\tlustre
POSIX\t1\t10\tPOSIX_STRIDE1_STRIDE\t-1\t/scratch/a\t/scratch\tlustre
POSIX\t0\t10\tPOSIX_F_WRITE_TIME\t1e-7\t/scratch/a\t/scratch\tlustre
LUSTRE\t-1\t20\tLUSTRE_STRIPE_WIDTH\t2\t/scratch/b\t/scratch\tlustre
";

#[test]
fn cache_keys_match_the_golden_digest() {
    let suite = TraceBench::generate();
    let edge = parse_text(EDGE_TRACE).expect("edge-case trace parses");
    let traces = suite
        .entries
        .iter()
        .map(|e| (e.spec.id, &e.trace))
        .chain([("edge", &edge)]);
    let mut lines = String::new();
    let mut count = 0;
    for (id, trace) in traces {
        let hash = stable_hash(&write_text(trace));
        let key = JobRequest::new(id, trace.clone(), "gpt-4o").fingerprint();
        assert_eq!(
            key.trace_hash, hash,
            "{id}: fingerprint is not the text hash"
        );
        lines.push_str(&format!("{id} {hash:016x}\n"));
        count += 1;
    }
    assert_eq!(count, GOLDEN_TRACES);
    let digest = stable_hash(&lines);
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "cache-key digest changed (got {digest:#018x}):\n{lines}"
    );
}

#[test]
fn edge_case_trace_keeps_its_canonical_form() {
    let edge = parse_text(EDGE_TRACE).unwrap();
    let text = write_text(&edge);
    // The later duplicate row wins.
    assert!(text.contains("POSIX\t-1\t20\tPOSIX_READS\t9\t"));
    assert!(!text.contains("POSIX_READS\t3\t"));
    // Names in byte order: LUSTRE_OSTS < LUSTRE_OST_ID_0 < _10 < _2.
    let lustre: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("LUSTRE\t"))
        .map(|l| l.split('\t').nth(3).unwrap())
        .collect();
    assert_eq!(
        lustre,
        [
            "LUSTRE_OSTS",
            "LUSTRE_OST_ID_0",
            "LUSTRE_OST_ID_10",
            "LUSTRE_OST_ID_2",
            "LUSTRE_STRIPE_WIDTH"
        ]
    );
    // Unknown and foreign counters survive, ints before floats.
    let posix_b: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("POSIX\t-1\t20\t"))
        .map(|l| l.split('\t').nth(3).unwrap())
        .collect();
    assert_eq!(
        posix_b,
        [
            "MPIIO_COLL_WRITES",
            "POSIX_BYTES_READ",
            "POSIX_FUTURE_COUNTER",
            "POSIX_READS",
            "POSIX_F_FUTURE_TIME",
            "POSIX_F_READ_TIME",
            "STDIO_F_META_TIME"
        ]
    );
    assert_eq!(parse_text(&text).map(|t| write_text(&t)), Ok(text));
}
