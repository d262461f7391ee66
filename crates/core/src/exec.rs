//! Per-request execution context: the worker pool every stage fans out
//! through and the cost-oracle interner the request's candidate DAGs share.
//!
//! One [`Exec`] exists per planning request. [`crate::Optimizer::optimize`]
//! builds it once (on the caller's pool, or a pool of
//! [`crate::OptimizerConfig::parallelism`] runners) and every candidate
//! context holds a clone; a context built on its own
//! ([`crate::PlanContext::new`]) gets a private one sized the same way.
//! Neither part can change a planned byte: the pool splits and reduces in
//! fixed index order ([`ad_util::WorkerPool::map`]), and an interner hit
//! returns exactly what the cost oracle would recompute.

use std::sync::Arc;

use ad_util::WorkerPool;

use crate::atomic_dag::CostInterner;

/// How one planning request executes. Cloning shares the pool and the
/// interner (two `Arc`s), so handing a clone to every candidate is cheap.
#[derive(Debug, Clone)]
pub struct Exec {
    pool: Arc<WorkerPool>,
    interner: Arc<CostInterner>,
}

impl Exec {
    /// A context fanning out on `pool`, with an empty interner.
    pub fn new(pool: Arc<WorkerPool>) -> Self {
        Self {
            pool,
            interner: Arc::new(CostInterner::new()),
        }
    }

    /// A context with a pool of its own. The pool spawns its workers on
    /// the first fan-out that can use them, so `threads <= 1` never spawns.
    pub fn with_threads(threads: usize) -> Self {
        Self::new(Arc::new(WorkerPool::new(threads)))
    }

    /// The request's shared cost-oracle cache.
    pub(crate) fn interner(&self) -> &CostInterner {
        &self.interner
    }

    /// Deterministic index map over `0..k` on the request's pool: results
    /// in index order for every thread count.
    pub(crate) fn map<T, F>(&self, k: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.pool.map(k, f)
    }
}

impl Default for Exec {
    /// A serial context: one runner, no worker threads.
    fn default() -> Self {
        Self::with_threads(1)
    }
}
