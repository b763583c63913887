//! Offline shim standing in for the sliver of `rayon` that `perfbench`
//! compiles against: `ThreadPoolBuilder::{new, num_threads, build}` and
//! `ThreadPool::install`.
//!
//! The workspace runs each diagnosis job on the one thread that serves it
//! (threads = `ioagentd` workers; a job overlaps its model latency in
//! `complete_all` waves, not in threads), so nothing here spawns a thread:
//! a pool has no width and [`ThreadPool::install`] runs `op` on the calling
//! thread.

/// Error from [`ThreadPoolBuilder::build`] (never produced by the shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder;

impl ThreadPoolBuilder {
    /// New builder.
    pub fn new() -> Self {
        ThreadPoolBuilder
    }

    /// Accepted for API compatibility; every pool runs on its caller.
    pub fn num_threads(self, _n: usize) -> Self {
        self
    }

    /// Build the pool; never fails.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool)
    }
}

/// A pool that runs everything on the calling thread.
#[derive(Debug)]
pub struct ThreadPool;

impl ThreadPool {
    /// Run `op` on the calling thread and return its result.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_runs_on_the_calling_thread() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let caller = std::thread::current().id();
        assert_eq!(pool.install(|| std::thread::current().id()), caller);
    }
}
