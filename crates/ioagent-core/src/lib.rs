//! `ioagent-core` — the paper's primary contribution: an LLM-orchestrated,
//! trustworthy HPC I/O performance diagnosis agent.
//!
//! Given a Darshan trace, [`IoAgent::diagnose`] runs the three-stage
//! pipeline of paper §IV:
//!
//! 1. **Module-based pre-processing** (via the `preprocessor` crate): the
//!    log is split per module and reduced to categorised JSON summary
//!    fragments, sidestepping context-window truncation entirely.
//! 2. **Domain Knowledge Integration**: each fragment is transformed to
//!    natural language by the LLM (better embedding alignment with expert
//!    prose), used as a query over the 66-document knowledge index
//!    (top-15 cosine retrieval), and the hits are filtered in parallel by a
//!    cheaper *self-reflection* model. The surviving sources ground a
//!    per-fragment diagnosis with citations.
//! 3. **Tree-based merge**: per-fragment diagnoses are merged pairwise,
//!    level by level (merges within a level run in parallel), preserving
//!    key points and references that a single flat merge would lose.
//!
//! The result is a [`simllm::Diagnosis`] with justifications and references,
//! plus an interactive [`session::AgentSession`] for follow-up questions.

pub mod agent;
pub mod merge;
pub mod rag;
pub mod session;
pub mod transform;

pub use agent::{AgentConfig, IoAgent};
pub use merge::{MergeStrategy, SummaryBlock};
pub use rag::{IndexProvenance, Retriever};
pub use session::AgentSession;
