//! Deterministic parallel execution for the candidate search.
//!
//! One contract — *results never depend on the thread count* — and one
//! vehicle: [`WorkerPool`], a persistent pool created once per planning
//! request and reused by every stage (the candidate table, optimizer
//! candidates, the serve daemon's connection handling). Spawning a thread
//! costs tens of microseconds, and a spawn-per-call scheme whose 4-way
//! daemon connection fan-out runs 4-way planning maps briefly holds 16
//! live threads. The pool bounds live threads to its configured size for
//! the whole request and keeps worker stacks (and their thread-local
//! malloc caches) warm across stages.
//! One-shot callers (bench sweeps, baselines) build a pool for the call.
//!
//! [`WorkerPool::map`] splits the index space statically — contiguous
//! blocks, a pure function of `(k, threads)` — and returns results strictly
//! in index order, so any reduction the caller performs visits candidates
//! in the same order whether one thread ran them or sixteen. Block
//! partitioning (rather than an interleaved `t, t+P, t+2P, …` split) keeps
//! each worker's results in adjacent cache lines; a test pins the two
//! splits equal element-for-element.
//!
//! # Pool determinism and soundness
//!
//! Jobs are lifetime-erased closures (the one `unsafe` in the workspace;
//! see `erase`, private to this module). Soundness is the
//! *join-before-return* rule scoped
//! threads enforce, rebuilt around a completion latch: [`WorkerPool::map`]
//! and [`WorkerPool::run_tasks`] never return — or unwind — until every
//! job they submitted has been executed (or drained) and its closure
//! dropped, so a job can never outlive the borrows it captured. Runners
//! signal the latch strictly *after* consuming the job closure, and the
//! latch itself is `'static`, so no borrowed state is touched after the
//! caller is released.
//!
//! A caller blocked in [`WorkerPool::map`] *helps*: it pops and runs jobs
//! of its own batch from the shared queue instead of sleeping. That makes
//! nested maps (a daemon connection task running a planning request's maps
//! on the same pool) deadlock-free by induction: any runner waiting on a batch can
//! always execute that batch's queued jobs itself, so every batch whose
//! in-flight jobs sit on deeper runners eventually drains. Helpers only
//! take jobs of the batch they are waiting on — never unrelated work —
//! so a planning map can never get stuck executing an unrelated
//! long-running job (e.g. a daemon connection).
//!
//! Unscoped `std::thread::spawn` is banned from the model crates (ad-lint
//! D3) because a free-running thread is a determinism and panic-propagation
//! hole; the pool's workers are spawned through `std::thread::Builder`
//! inside this module and joined in [`Drop`], preserving the same
//! guarantee (sanctioned with explicit `ad-lint: allow` justifications).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Contiguous block partition of `0..k` into `n` non-empty-when-possible
/// ranges: block `b` is `[b·k/n, (b+1)·k/n)`. Pure in `(k, n)`, so the
/// work split is a function of the configuration alone.
fn block_ranges(k: usize, n: usize) -> Vec<(usize, usize)> {
    let n = n.max(1);
    (0..n)
        .map(|b| (b * k / n, (b + 1) * k / n))
        .filter(|(lo, hi)| hi > lo)
        .collect()
}

/// A type-erased, lifetime-erased unit of work. See [`erase`] for the
/// erasure contract.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Erases the lifetime of a job closure so it can sit in the pool's
/// `'static` queue.
///
/// # Safety
///
/// The caller must guarantee the job is executed (consuming the closure)
/// or dropped before `'a` ends. In this module that is the latch
/// discipline: every submission path ([`WorkerPool::map`],
/// [`TaskScope::submit`]) blocks in [`WorkerPool::help_until_done`] until
/// the batch latch confirms each job has been consumed, and runners signal
/// the latch only after the closure (and every borrow it captured) is
/// gone. `Box<dyn FnOnce() + Send + 'a>` and the `'static` form have
/// identical layout (a fat pointer); only the borrow checker's view
/// changes.
unsafe fn erase<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
    // SAFETY: layout-identical fat pointers; execution-before-'a-ends is
    // upheld by the latch discipline documented above.
    unsafe { std::mem::transmute(job) }
}

/// Completion latch of one submission batch: counts jobs not yet fully
/// consumed. Entirely `'static` (no borrowed state), so signaling it is
/// the one thing a runner may do after a job's borrows are gone.
struct Latch {
    left: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    fn new() -> Self {
        Self {
            left: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn add(&self, n: usize) {
        *lock(&self.left) += n;
    }

    /// Marks one job fully consumed (closure dropped) and wakes waiters.
    fn complete_one(&self) {
        let mut left = lock(&self.left);
        *left = left.saturating_sub(1);
        if *left == 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until every job of the batch has been consumed.
    fn wait_zero(&self) {
        let mut left = lock(&self.left);
        while *left > 0 {
            left = self.cv.wait(left).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One queued job plus the latch of the batch it belongs to.
struct Task {
    job: Job,
    batch: Arc<Latch>,
}

impl Task {
    /// Runs the job to completion, then signals the batch. The closure —
    /// and every borrow it captured — is consumed by the call *before*
    /// the latch is touched, so a released caller can never race a live
    /// borrow.
    fn run(self) {
        (self.job)();
        self.batch.complete_one();
    }
}

/// Shared pool state: the job queue and the shutdown flag, guarded by one
/// mutex with one condvar for idle workers.
struct Shared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

struct PoolState {
    queue: VecDeque<Task>,
    shutdown: bool,
}

/// A persistent, deterministic worker pool (see the module docs for the
/// full contract).
///
/// Created once per planning request ([`WorkerPool::new`]) and reused by
/// every stage. Workers start on the first fan-out that can use them, so
/// a pool that only ever runs serial work — and `new(1)` (or `new(0)`)
/// always — spawns no threads and every `map` runs inline. Workers are
/// joined in [`Drop`], preserving the scoped-thread join guarantee the
/// ad-lint D3 rule exists to protect.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: OnceLock<Vec<std::thread::JoinHandle<()>>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("workers", &self.worker_count())
            .finish()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl WorkerPool {
    /// A pool of `threads` concurrent runners. The caller participates
    /// while blocked in [`WorkerPool::map`], so `threads - 1` worker
    /// threads are spawned, on the first fan-out; `threads <= 1` spawns
    /// none and the pool is a pure inline executor. A failed thread spawn
    /// degrades capacity instead of failing the pool — correctness never
    /// depends on how many workers actually started.
    pub fn new(threads: usize) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    queue: VecDeque::new(),
                    shutdown: false,
                }),
                cv: Condvar::new(),
            }),
            workers: OnceLock::new(),
            threads: threads.max(1),
        }
    }

    /// The worker threads, spawned by the first call.
    fn workers(&self) -> &[std::thread::JoinHandle<()>] {
        self.workers.get_or_init(|| {
            (1..self.threads)
                .filter_map(|i| {
                    let shared = self.shared.clone();
                    std::thread::Builder::new() // ad-lint: allow(d3) — workers are joined in Drop; the pool preserves the scoped join guarantee
                        .name(format!("ad-worker-{i}"))
                        .spawn(move || worker_loop(&shared)) // ad-lint: allow(d3) — see above: joined in Drop
                        .ok()
                })
                .collect()
        })
    }

    /// The configured runner count (caller + workers). The *execution*
    /// parallelism knob — never part of any plan fingerprint.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Live worker threads (diagnostics; 0 before the first fan-out, then
    /// `threads - 1` unless spawning failed).
    pub fn worker_count(&self) -> usize {
        self.workers.get().map_or(0, Vec::len)
    }

    /// Applies `f` to every index in `0..k` across the pool's runners and
    /// returns the results in index order. The index space is split into
    /// contiguous blocks (runner `t` of `P` takes `[t·k/P, (t+1)·k/P)`);
    /// with one runner (or `k <= 1`) the calls run inline on the caller's
    /// thread, in index order — byte-identical to the parallel path for
    /// any deterministic `f`.
    ///
    /// The caller is one of the runners: it executes queued blocks of its
    /// own batch while waiting. Nesting is supported and bounded — a job
    /// may call `map` on the same pool; total live threads never exceed
    /// the pool size. A panic in any block is resumed on the caller's
    /// thread after the whole batch has drained.
    pub fn map<T, F>(&self, k: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let runners = self.threads.min(k);
        if runners <= 1 || self.workers().is_empty() {
            return (0..k).map(f).collect();
        }
        let blocks = block_ranges(k, runners);
        type BlockOut<T> = Option<std::thread::Result<Vec<T>>>;
        let slots: Vec<Mutex<BlockOut<T>>> = blocks.iter().map(|_| Mutex::new(None)).collect();
        let batch = Arc::new(Latch::new());
        batch.add(blocks.len());
        {
            let f = &f;
            let mut tasks = Vec::with_capacity(blocks.len());
            for (&(lo, hi), slot) in blocks.iter().zip(&slots) {
                let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let out =
                        catch_unwind(AssertUnwindSafe(|| (lo..hi).map(f).collect::<Vec<T>>()));
                    *lock(slot) = Some(out);
                });
                // SAFETY: this `map` call blocks in `help_until_done`
                // until the batch latch confirms every job was consumed,
                // so no job outlives `f`, `slots`, or this frame.
                let job = unsafe { erase(job) };
                tasks.push(Task {
                    job,
                    batch: batch.clone(),
                });
            }
            self.enqueue(tasks);
            self.help_until_done(&batch);
        }
        let mut out = Vec::with_capacity(k);
        let mut panicked = None;
        for slot in slots {
            match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
                Some(Ok(part)) => out.extend(part),
                Some(Err(e)) => panicked = Some(e),
                // Unreachable: the latch only opens after every slot is
                // written. Kept non-panicking per the library contract.
                None => debug_assert!(false, "batch latch opened before a block finished"),
            }
        }
        if let Some(e) = panicked {
            resume_unwind(e);
        }
        out
    }

    /// Runs `scope` with a handle for submitting independent fire-and-wait
    /// tasks (the serve daemon's connection fan-out), then blocks until
    /// every submitted task has finished — helping to run still-queued
    /// ones on the caller's thread. Panics from `scope` or from tasks
    /// propagate after the drain, so no task ever outlives the borrows it
    /// captured.
    pub fn run_tasks<'env, R, S>(&self, scope: S) -> R
    where
        S: FnOnce(&TaskScope<'_, 'env>) -> R,
    {
        self.workers();
        let ts = TaskScope {
            pool: self,
            batch: Arc::new(Latch::new()),
            panicked: Mutex::new(None),
            _env: std::marker::PhantomData,
        };
        let out = catch_unwind(AssertUnwindSafe(|| scope(&ts)));
        // Drain before unwinding anything: queued tasks borrow `'env`.
        self.help_until_done(&ts.batch);
        match out {
            Ok(r) => {
                if let Some(e) = lock(&ts.panicked).take() {
                    resume_unwind(e);
                }
                r
            }
            Err(e) => resume_unwind(e),
        }
    }

    fn enqueue(&self, tasks: Vec<Task>) {
        let mut state = lock(&self.shared.state);
        state.queue.extend(tasks);
        drop(state);
        self.shared.cv.notify_all();
    }

    /// Runs queued jobs of `batch` on the calling thread until none remain
    /// queued, then blocks until in-flight ones (on other runners) finish.
    /// Only jobs of the waited-on batch are helped — a blocked planning
    /// map never picks up unrelated work.
    fn help_until_done(&self, batch: &Arc<Latch>) {
        loop {
            let task = {
                let mut state = lock(&self.shared.state);
                let pos = state
                    .queue
                    .iter()
                    .position(|t| Arc::ptr_eq(&t.batch, batch));
                pos.and_then(|p| state.queue.remove(p))
            };
            match task {
                Some(t) => t.run(),
                None => break,
            }
        }
        batch.wait_zero();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.cv.notify_all();
        for w in self.workers.take().into_iter().flatten() {
            // Worker bodies only run caught jobs; a join error would mean
            // the loop itself panicked, which has nothing to propagate
            // into during teardown.
            let _ = w.join();
        }
    }
}

/// A submission handle inside [`WorkerPool::run_tasks`]. Tasks may borrow
/// anything that outlives the `run_tasks` call (`'env`).
pub struct TaskScope<'p, 'env> {
    pool: &'p WorkerPool,
    batch: Arc<Latch>,
    panicked: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    // `'env` must be INVARIANT (the `&mut`), mirroring `std::thread::scope`.
    // With covariance the scope reference can be shrunk at a `submit` call
    // site, letting a task capture a borrow that dies before the final
    // drain executes it — the erased job then reads a dead stack slot.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> TaskScope<'_, 'env> {
    /// Submits one task. It runs on a pool worker (or on the caller during
    /// the final drain); a panic inside is captured and resumed by
    /// [`WorkerPool::run_tasks`] after every task finished.
    pub fn submit<F>(&self, task: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.batch.add(1);
        let panicked = &self.panicked;
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            if let Err(e) = catch_unwind(AssertUnwindSafe(task)) {
                let mut slot = lock(panicked);
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
        });
        // SAFETY: `run_tasks` drains the batch latch before returning or
        // unwinding, so no task outlives `'env` or the panic slot.
        let job = unsafe { erase(job) };
        self.pool.enqueue(vec![Task {
            job,
            batch: self.batch.clone(),
        }]);
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(t) = state.queue.pop_front() {
                    break Some(t);
                }
                if state.shutdown {
                    break None;
                }
                state = shared
                    .cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match task {
            Some(t) => t.run(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_for_any_thread_count() {
        let f = |i: usize| i * i;
        let sequential: Vec<usize> = (0..37).map(f).collect();
        for threads in [0, 1, 2, 3, 4, 7, 16, 64] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.map(37, f), sequential, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_ranges() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.map(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn captures_environment_by_reference() {
        let base = [5u64, 7, 11, 13];
        let out = WorkerPool::new(2).map(base.len(), |i| base[i] * 2);
        assert_eq!(out, vec![10, 14, 22, 26]);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = WorkerPool::new(4);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(8, |i| {
                assert!(i != 5, "planted");
                i
            })
        }));
        assert!(r.is_err());
    }

    /// An interleaved split, kept as the equality reference: block
    /// partitioning must be element-for-element identical.
    fn interleaved_map<T: Send, F: Fn(usize) -> T + Sync>(
        k: usize,
        threads: usize,
        f: F,
    ) -> Vec<T> {
        let threads = threads.max(1).min(k);
        let mut parts: Vec<(usize, T)> = Vec::with_capacity(k);
        std::thread::scope(|s| {
            let f = &f;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut part = Vec::new();
                        let mut i = t;
                        while i < k {
                            part.push((i, f(i)));
                            i += threads;
                        }
                        part
                    })
                })
                .collect();
            for h in handles {
                parts.extend(h.join().expect("no panics in this test"));
            }
        });
        parts.sort_by_key(|(i, _)| *i);
        parts.into_iter().map(|(_, v)| v).collect()
    }

    #[test]
    fn block_split_equals_interleaved_split() {
        let f = |i: usize| i.wrapping_mul(0x9E37_79B9) ^ (i << 3);
        for k in [0, 1, 2, 7, 31, 64, 100] {
            for threads in [1, 2, 3, 5, 8] {
                assert_eq!(
                    WorkerPool::new(threads).map(k, f),
                    interleaved_map(k, threads, f),
                    "k={k} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn block_ranges_cover_exactly_once() {
        for k in [0usize, 1, 5, 16, 37, 100] {
            for n in [1usize, 2, 3, 7, 16, 64] {
                let blocks = block_ranges(k, n);
                let covered: Vec<usize> = blocks.iter().flat_map(|&(lo, hi)| lo..hi).collect();
                assert_eq!(covered, (0..k).collect::<Vec<_>>(), "k={k} n={n}");
            }
        }
    }

    #[test]
    fn pool_map_matches_serial_for_any_pool_size() {
        let f = |i: usize| i * 3 + 1;
        let sequential: Vec<usize> = (0..53).map(f).collect();
        for threads in [1, 2, 4, 16] {
            let pool = WorkerPool::new(threads);
            assert_eq!(pool.map(53, f), sequential, "threads={threads}");
            // Reuse across calls (the whole point of persistence).
            assert_eq!(pool.map(53, f), sequential, "threads={threads} reuse");
            assert_eq!(pool.map(0, f), Vec::<usize>::new());
            assert_eq!(pool.map(1, f), vec![1]);
        }
    }

    #[test]
    fn pool_spawns_threads_minus_one_workers_and_joins_on_drop() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        // Workers start on the first fan-out, not at construction.
        assert_eq!(pool.worker_count(), 0);
        assert_eq!(pool.map(1, |i| i), vec![0]);
        assert_eq!(pool.worker_count(), 0, "a one-item map runs inline");
        assert_eq!(pool.map(4, |i| i), vec![0, 1, 2, 3]);
        assert_eq!(pool.worker_count(), 3);
        let serial = WorkerPool::new(1);
        serial.map(4, |i| i);
        assert_eq!(serial.worker_count(), 0);
        drop(pool);
        drop(serial);
    }

    #[test]
    fn nested_maps_on_one_pool_complete_and_stay_deterministic() {
        let pool = WorkerPool::new(4);
        let expect: Vec<usize> = (0..6)
            .map(|i| (0..8).map(|j| i * 100 + j).sum::<usize>())
            .collect();
        for _ in 0..3 {
            let out: Vec<usize> = pool.map(6, |i| pool.map(8, |j| i * 100 + j).into_iter().sum());
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn pool_map_panic_propagates_after_drain() {
        let pool = WorkerPool::new(4);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(16, |i| {
                assert!(i != 11, "planted");
                i
            })
        }));
        assert!(r.is_err());
        // The pool survives a panicked batch.
        assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn run_tasks_executes_every_submission_before_returning() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(3);
        let hits = AtomicUsize::new(0);
        pool.run_tasks(|s| {
            for _ in 0..10 {
                s.submit(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn run_tasks_propagates_task_panics_after_drain() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(2);
        let hits = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_tasks(|s| {
                let hits = &hits;
                for i in 0..8 {
                    // `move` is required (and enforced by the invariant
                    // `'env`): a by-ref capture of the loop-local `i` would
                    // dangle by the time the drain runs the task.
                    s.submit(move || {
                        hits.fetch_add(1, Ordering::SeqCst);
                        assert!(i != 3, "planted");
                    });
                }
            });
        }));
        assert!(r.is_err());
        // Every task ran (drain-before-unwind), including the panicking one.
        assert_eq!(hits.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn serial_pool_runs_inline_without_queue_machinery() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.map(9, |i| i + 1), (1..=9).collect::<Vec<_>>());
        pool.run_tasks(|s| s.submit(|| {}));
    }
}
