//! In-memory model, parser, and writer for Darshan I/O trace logs.
//!
//! Darshan is the de-facto standard lightweight I/O characterisation tool on
//! HPC systems. It records, per file and per instrumented interface
//! ("module"), a fixed set of integer and floating-point counters describing
//! the application's I/O behaviour: data volumes, operation counts, access
//! size histograms, alignment, sequentiality, timing, and rank variance, plus
//! Lustre striping information.
//!
//! This crate models the *parsed* representation of a Darshan log, i.e. the
//! text format produced by `darshan-parser`, which is what downstream tools
//! (IOAgent, Drishti, PyDarshan, ...) consume:
//!
//! ```text
//! # darshan log version: 3.41
//! # exe: ./app
//! # nprocs: 8
//! # run time: 722.00
//! ...
//! POSIX   -1  10001  POSIX_OPENS          16   /scratch/out  /scratch  lustre
//! POSIX   -1  10001  POSIX_F_READ_TIME  1.25   /scratch/out  /scratch  lustre
//! ```
//!
//! The crate provides:
//! - [`DarshanTrace`]: the full log (header + per-file records),
//! - [`Record`]: one (module, rank, file) counter set, stored by
//!   [`Counter`] index in per-module arrays,
//! - [`parse::parse_text`] / [`write::write_text`]: a faithful round-trip of
//!   the `darshan-parser` text format,
//! - [`mod@derive`]: derived per-module aggregates (histograms, alignment
//!   fractions, sequentiality, rank balance, ...) used by every diagnosis
//!   tool in the workspace.

pub mod counters;
pub mod derive;
pub mod dxt;
pub mod error;
pub mod parse;
pub mod record;
pub mod trace;
pub mod write;

pub use counters::{Counter, Module, SIZE_BINS};
pub use derive::{LustreSummary, ModuleAgg, TraceSummary};
pub use dxt::{DxtEvent, DxtOp, DxtTrace};
pub use error::DarshanError;
pub use record::Record;
pub use trace::{DarshanTrace, JobHeader, Mount};

#[cfg(test)]
mod round_trip_tests {
    use super::*;

    #[test]
    fn empty_trace_round_trips() {
        let trace = DarshanTrace::new(JobHeader::default());
        let text = write::write_text(&trace);
        let back = parse::parse_text(&text).expect("parse");
        assert_eq!(back.records.len(), 0);
        assert_eq!(back.header.nprocs, trace.header.nprocs);
    }
}
