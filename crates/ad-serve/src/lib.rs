//! `ad-serve`: a long-lived plan-serving daemon over the request layer.
//!
//! Planning is expensive (seconds at paper scale) but perfectly cacheable:
//! the planner is byte-deterministic, and a [`PlanRequest`] is content-
//! addressed by the pair ([`Graph::canonical_fingerprint`],
//! [`request::config_fingerprint`]). This crate serves plans from a
//! [`PlanStore`] keyed by that pair:
//!
//! * **Content-addressed cache** — a `BTreeMap` from `(graph_fp,
//!   config_fp)` to the resolved plan payload, LRU-bounded by a logical
//!   tick (no wall clock in model code, ad-lint D2). A hit returns the
//!   first-computed payload *verbatim* — no pipeline stage re-runs — so
//!   repeated identical requests are byte-identical by construction.
//! * **Single-flight** — concurrent identical requests plan once: the
//!   first marks the key in-flight, the rest wait on a [`Condvar`] and
//!   then read the cached entry. Every planning attempt carries a
//!   generation counter: if the attempt fails, exactly the threads that
//!   waited on *that* generation inherit its error (no thundering-herd
//!   replan), while a request arriving after the failure never observes
//!   the stale error — it simply starts the next attempt.
//! * **Crash-safe persistence** (optional, [`PlanStore::open`]) — every
//!   fresh entry is appended to a checksummed write-ahead log and folded
//!   into an atomically-renamed snapshot by periodic compaction
//!   ([`persist`]). A restart — graceful or `kill -9` — recovers every
//!   fully-appended entry byte-identically; torn tails and corrupt
//!   records are dropped and counted, never served.
//!
//! A miss plans exactly what [`request::plan`] plans for the same request:
//! the cache never feeds one entry into another's search, so a served plan
//! depends only on its request, not on what the daemon cached before
//! (DESIGN.md §14).
//!
//! The daemon itself ([`serve`]) speaks line-delimited JSON over TCP:
//! one request object per line, one response object per line. One shared
//! [`ad_util::WorkerPool`] (sized from [`ServerConfig::workers`]) carries
//! *both* the connection fan-out ([`ad_util::WorkerPool::run_tasks`]) and
//! every miss's planning fan-out ([`PlanRequest::with_pool`]): a busy
//! daemon never spawns threads per request, the live thread count is
//! bounded by the pool size for the daemon's whole lifetime, and the pool
//! joins its workers on drop — the join-before-return discipline ad-lint
//! D3 enforces; no thread outlives [`serve`].
//! Parallelism is execution-only (excluded from the config fingerprint),
//! so pooled and pool-less planning produce byte-identical cache entries.
//!
//! ```json
//! {"op": "plan", "model": "resnet50", "batch": 4}
//! {"ok": true, "cached": false,
//!  "graph_fp": "…", "config_fp": "…", "plan": {…}}
//! ```
//!
//! Ops: `plan` (fields `model`, optional `batch`/`strategy`/`hw`/`fast`/
//! `budget`/`deadline_ms`), `stats` (cache counters), `shutdown`. A `plan`
//! member the daemon does not know, or one of the wrong type, is refused
//! with an error naming it. Every plan is admitted by the planner's
//! independent checker before it is served; there is no member to turn
//! that off.
//!
//! One line can never take the daemon down. A line longer than
//! [`MAX_REQUEST_BYTES`] gets `{"ok":false,"refused":"line_too_long",…}`
//! and its connection is closed; a document nested deeper than
//! [`ad_util::json::MAX_DEPTH`] is answered as bad request JSON on a connection
//! that stays open.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use ad_util::{BoundedQueue, Fingerprint, Json, PushError, WorkerPool};
use atomic_dataflow::{
    request, AdmissionRefusal, OptimizerConfig, PipelineError, PlanBudget, PlanRequest, Strategy,
    MAX_BATCH,
};
use dnn_graph::{models, Graph};
use engine_model::HardwareConfig;

pub mod admission;
pub mod persist;

pub use admission::{Admission, EdgeClock};
pub use persist::{Persist, PersistStats, PlanRecord};

/// Key of the content-addressed cache: (graph fingerprint, config
/// fingerprint). Equal keys describe the same planning problem.
pub type CacheKey = (Fingerprint, Fingerprint);

/// Locks a mutex, recovering the guard if a worker panicked while holding
/// it (the store's state is a cache: a poisoned entry is still sound to
/// read, at worst a wasted recomputation).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One resolved request: the plan payload plus how it was obtained.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The deterministic plan payload ([`request::PlanResponse::plan`]),
    /// returned verbatim from the cache on hits.
    pub plan: String,
    /// Whether the payload came from the cache (no pipeline stage ran).
    pub cached: bool,
    /// Graph half of the cache key.
    pub graph_fp: Fingerprint,
    /// Config half of the cache key.
    pub config_fp: Fingerprint,
}

/// Counter snapshot of a [`PlanStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Entries currently cached.
    pub entries: usize,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to plan.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Requests that inherited the typed error of the failed planning
    /// attempt they waited on (single-flight failure propagation).
    pub shared_failures: u64,
}

impl StoreStats {
    /// The counters as a [`Json`] object (the `stats` op payload).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("entries".into(), Json::from(self.entries)),
            ("hits".into(), Json::from(self.hits)),
            ("misses".into(), Json::from(self.misses)),
            ("evictions".into(), Json::from(self.evictions)),
            ("shared_failures".into(), Json::from(self.shared_failures)),
        ])
    }
}

/// One cached plan.
struct Entry {
    plan: String,
    /// Logical LRU stamp (ticks, not wall time: ad-lint D2).
    last_used: u64,
}

/// One in-progress planning attempt for a key.
struct Flight {
    /// Attempt generation — globally monotonic, so a waiter can tell the
    /// attempt it waited on apart from any earlier or later one.
    gen: u64,
    /// Threads currently waiting on this attempt.
    waiters: usize,
}

/// The error of a failed attempt, kept exactly until every thread that
/// waited on that attempt has inherited it. A request arriving *after*
/// the failure carries no matching generation and never observes it.
struct FailedAttempt {
    gen: u64,
    remaining: usize,
    error: Arc<dyn std::any::Any + Send + Sync>,
}

#[derive(Default)]
struct Inner {
    cache: BTreeMap<CacheKey, Entry>,
    /// Keys currently being planned (single-flight).
    inflight: BTreeMap<CacheKey, Flight>,
    /// Failed attempts whose waiters have not all inherited the error yet.
    failed: BTreeMap<CacheKey, FailedAttempt>,
    /// Monotonic attempt counter feeding [`Flight::gen`].
    attempt_gen: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    shared_failures: u64,
    /// Durability backend; `None` for a memory-only store.
    persist: Option<Persist>,
}

/// The content-addressed plan cache with single-flight miss resolution.
pub struct PlanStore {
    inner: Mutex<Inner>,
    cv: Condvar,
    capacity: usize,
}

impl PlanStore {
    /// A memory-only store holding at most `capacity` plans (clamped to
    /// ≥ 1); least-recently-used entries are evicted beyond that.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// A persistent store backed by `dir` (see [`persist`]): recovers
    /// every valid entry from the snapshot + WAL there, truncating any
    /// torn tail, and appends each fresh plan to the WAL from now on.
    /// Recovered hits are byte-identical to the responses that first
    /// produced them. If recovery finds more entries than `capacity`, the
    /// least recently appended are evicted (and remain only in the files
    /// until the next compaction).
    ///
    /// # Errors
    ///
    /// Directory creation or file I/O errors. Torn or corrupt log content
    /// is *not* an error — it is dropped and counted in
    /// [`PlanStore::persist_stats`].
    pub fn open(capacity: usize, dir: &std::path::Path) -> std::io::Result<Self> {
        let (persist, records) = Persist::open(dir)?;
        let mut inner = Inner {
            persist: Some(persist),
            ..Inner::default()
        };
        for rec in records {
            inner.tick += 1;
            let entry = Entry {
                plan: rec.plan,
                last_used: inner.tick,
            };
            inner.cache.insert((rec.graph_fp, rec.config_fp), entry);
        }
        let capacity = capacity.max(1);
        while inner.cache.len() > capacity {
            evict_lru(&mut inner);
        }
        Ok(Self {
            inner: Mutex::new(inner),
            cv: Condvar::new(),
            capacity,
        })
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> StoreStats {
        let g = lock(&self.inner);
        StoreStats {
            entries: g.cache.len(),
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            shared_failures: g.shared_failures,
        }
    }

    /// Durability counters, or `None` for a memory-only store.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        lock(&self.inner).persist.as_ref().map(Persist::stats)
    }

    /// Threads registered on the in-flight attempt for `key` (tests only:
    /// lets a race-free test wait until a waiter is actually parked).
    #[cfg(test)]
    fn waiters_on(&self, key: CacheKey) -> usize {
        lock(&self.inner)
            .inflight
            .get(&key)
            .map_or(0, |f| f.waiters)
    }

    /// Returns the cached plan for (`graph`, `cfg`, `strategy`) or plans it
    /// once with [`request::plan`].
    ///
    /// # Errors
    ///
    /// Propagates the pipeline's [`PipelineError`] on a failed miss; the
    /// key is released so a later request can retry.
    pub fn get_or_plan(
        &self,
        graph: &Graph,
        cfg: OptimizerConfig,
        strategy: Strategy,
    ) -> Result<ServeOutcome, PipelineError> {
        self.get_or_plan_pooled(graph, cfg, strategy, None)
    }

    /// [`PlanStore::get_or_plan`] with atomic-dataflow planning fanned out
    /// on a shared [`WorkerPool`] instead of request-local threads; the
    /// baselines plan at `cfg.parallelism`. Parallelism is execution-only —
    /// never part of the config fingerprint — so the cache key and the plan
    /// bytes are identical with or without a pool.
    ///
    /// # Errors
    ///
    /// Propagates the pipeline's [`PipelineError`] on a failed miss; the
    /// key is released so a later request can retry.
    pub fn get_or_plan_pooled(
        &self,
        graph: &Graph,
        cfg: OptimizerConfig,
        strategy: Strategy,
        pool: Option<&Arc<WorkerPool>>,
    ) -> Result<ServeOutcome, PipelineError> {
        let graph_fp = graph.canonical_fingerprint();
        let config_fp = request::config_fingerprint(&cfg, strategy);
        self.resolve(graph_fp, config_fp, || {
            let mut req = PlanRequest::new(graph, cfg).with_strategy(strategy);
            if let Some(p) = pool {
                req = req.with_pool(p.clone());
            }
            Ok(request::plan(&req)?.plan)
        })
    }

    /// Cache/single-flight core, generic over the planning function so the
    /// concurrency semantics are testable without running the pipeline.
    ///
    /// Failure semantics (the generation protocol): every attempt gets a
    /// globally monotonic generation. A thread that finds the key in
    /// flight records the attempt's generation and waits. If that exact
    /// attempt fails, each of its waiters inherits the typed error once
    /// (counted in [`StoreStats::shared_failures`]); the error is dropped
    /// as soon as the last such waiter has consumed it. A thread arriving
    /// after the failure holds no matching generation, so it can never
    /// observe the stale error — it starts (or waits on) the next attempt.
    fn resolve<E: Clone + Send + Sync + 'static>(
        &self,
        graph_fp: Fingerprint,
        config_fp: Fingerprint,
        compute: impl FnOnce() -> Result<String, E>,
    ) -> Result<ServeOutcome, E> {
        let key = (graph_fp, config_fp);
        {
            let mut g = lock(&self.inner);
            // Generation of the attempt this thread is waiting on, if any.
            let mut waited: Option<u64> = None;
            loop {
                g.tick += 1;
                let tick = g.tick;
                // Consume this thread's share of the error of the attempt
                // it waited on — before anything else, so the accounting
                // is exact even if the cache can serve meanwhile.
                let mut inherited: Option<Arc<dyn std::any::Any + Send + Sync>> = None;
                if let Some(gen) = waited {
                    if let Some(f) = g.failed.get_mut(&key) {
                        if f.gen == gen {
                            inherited = Some(f.error.clone());
                            f.remaining = f.remaining.saturating_sub(1);
                            if f.remaining == 0 {
                                g.failed.remove(&key);
                            }
                            waited = None;
                        }
                    }
                }
                if let Some(e) = g.cache.get_mut(&key) {
                    e.last_used = tick;
                    let plan = e.plan.clone();
                    g.hits += 1;
                    return Ok(ServeOutcome {
                        plan,
                        cached: true,
                        graph_fp,
                        config_fp,
                    });
                }
                if let Some(err) = inherited {
                    if let Some(e) = err.downcast_ref::<E>() {
                        g.shared_failures += 1;
                        return Err(e.clone());
                    }
                    // Error type mismatch (only possible when one store is
                    // driven with several `E` types): fall through and
                    // retry as a planner rather than lose the request.
                }
                if let Some(fl) = g.inflight.get_mut(&key) {
                    // Single-flight: an identical request is planning right
                    // now — register on its generation (once) and wait.
                    if waited != Some(fl.gen) {
                        fl.waiters += 1;
                        waited = Some(fl.gen);
                    }
                    g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                // No cache entry, no in-flight attempt: become the planner.
                g.attempt_gen += 1;
                let gen = g.attempt_gen;
                g.inflight.insert(key, Flight { gen, waiters: 0 });
                g.misses += 1;
                break;
            }
        }

        // Plan outside the lock; identical concurrent requests block on the
        // condvar, everything else proceeds in parallel. The guard releases
        // the flight even if `compute` panics, so waiters never hang.
        let mut guard = FlightGuard {
            store: self,
            key,
            armed: true,
        };
        let result = compute();
        guard.armed = false;

        let mut g = lock(&self.inner);
        let flight = g.inflight.remove(&key);
        let out = match result {
            Ok(plan) => {
                g.tick += 1;
                let entry = Entry {
                    plan: plan.clone(),
                    last_used: g.tick,
                };
                let rec = g.persist.is_some().then(|| record_of(key, &entry));
                g.cache.insert(key, entry);
                while g.cache.len() > self.capacity {
                    evict_lru(&mut g);
                }
                if let Some(rec) = rec {
                    persist_insert(&mut g, &rec);
                }
                Ok(ServeOutcome {
                    plan,
                    cached: false,
                    graph_fp,
                    config_fp,
                })
            }
            Err(e) => {
                // Leave the typed error for exactly the threads that
                // waited on this attempt; with no waiters there is nothing
                // to leave, and the key is simply free again.
                if let Some(fl) = flight {
                    if fl.waiters > 0 {
                        g.failed.insert(
                            key,
                            FailedAttempt {
                                gen: fl.gen,
                                remaining: fl.waiters,
                                error: Arc::new(e.clone()),
                            },
                        );
                    }
                }
                Err(e)
            }
        };
        drop(g);
        self.cv.notify_all();
        out
    }
}

/// Releases a planning flight when the compute closure unwinds, so waiting
/// threads retry instead of blocking forever behind a dead planner.
struct FlightGuard<'a> {
    store: &'a PlanStore,
    key: CacheKey,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut g = lock(&self.store.inner);
        g.inflight.remove(&self.key);
        drop(g);
        self.store.cv.notify_all();
    }
}

/// The durable record of one cache entry.
fn record_of(key: CacheKey, e: &Entry) -> PlanRecord {
    PlanRecord {
        graph_fp: key.0,
        config_fp: key.1,
        plan: e.plan.clone(),
    }
}

/// Appends a fresh entry to the WAL and compacts when it has outgrown the
/// live set. Persistence failures are counted and swallowed — the cache
/// keeps serving from memory.
fn persist_insert(g: &mut Inner, rec: &PlanRecord) {
    let entries = g.cache.len();
    let mut compact_input: Option<Vec<PlanRecord>> = None;
    if let Some(p) = g.persist.as_mut() {
        if p.append(rec).is_err() {
            p.note_io_error();
        }
        if p.wants_compaction(entries) {
            compact_input = Some(Vec::with_capacity(entries));
        }
    }
    if let Some(mut recs) = compact_input {
        recs.extend(g.cache.iter().map(|(k, e)| record_of(*k, e)));
        if let Some(p) = g.persist.as_mut() {
            if p.compact(recs.iter()).is_err() {
                p.note_io_error();
            }
        }
    }
}

/// Drops the least-recently-used entry. For a persistent store the entry's
/// records stay in the files until the next compaction rewrites the
/// snapshot from the live set.
fn evict_lru(inner: &mut Inner) {
    let victim = inner
        .cache
        .iter()
        .min_by_key(|(_, e)| e.last_used)
        .map(|(k, _)| *k);
    if let Some(k) = victim {
        inner.cache.remove(&k);
        inner.evictions += 1;
    }
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

/// Daemon-wide settings shared by every connection.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Hardware description used when a request carries no `hw` object.
    pub base_hw: HardwareConfig,
    /// Apply the fast search configuration to every request (CI/smoke).
    pub fast: bool,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Default admission deadline for requests that carry no
    /// `deadline_ms` field; `None` admits regardless of wait time.
    pub deadline_ms: Option<u64>,
    /// Bound on connections accepted but not yet picked up by a worker;
    /// beyond it, new connections receive a typed `overloaded` refusal.
    pub max_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            base_hw: HardwareConfig::paper_default(),
            fast: false,
            workers: 4,
            deadline_ms: None,
            max_queue: 64,
        }
    }
}

/// Outcome of one protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Response line to write back.
    Line(String),
    /// Response line to write back, then stop the daemon.
    Shutdown(String),
}

impl Reply {
    /// The response line of either variant.
    pub fn text(&self) -> &str {
        match self {
            Reply::Line(s) | Reply::Shutdown(s) => s,
        }
    }
}

/// Everything one request line is handled against: the store, the daemon
/// settings, and the optional edge state (pool, admission counters, and
/// the wall-clock origin of this request for deadline checks).
pub struct ServeCtx<'a> {
    /// The shared plan cache.
    pub store: &'a PlanStore,
    /// Daemon settings.
    pub sc: &'a ServerConfig,
    /// Shared worker pool for the planning fan-out of misses.
    pub pool: Option<&'a Arc<WorkerPool>>,
    /// Edge refusal counters + drain flag (daemon path only).
    pub admission: Option<&'a Admission>,
    /// Wall-clock origin of this request (accept time for the first
    /// request on a connection, read time after that). Without it,
    /// deadline admission is skipped — the request has waited nowhere.
    pub clock: Option<EdgeClock>,
}

/// Handles one request line and produces the response line. Pure protocol
/// logic — the TCP plumbing in [`serve`] is a thin wrapper, and tests can
/// drive the daemon without a socket.
pub fn handle_line(line: &str, store: &PlanStore, sc: &ServerConfig) -> Reply {
    handle_line_pooled(line, store, sc, None)
}

/// [`handle_line`] with misses planned on a shared [`WorkerPool`] (the
/// daemon path). The response bytes are identical either way — the pool
/// only changes which threads execute the pipeline.
pub fn handle_line_pooled(
    line: &str,
    store: &PlanStore,
    sc: &ServerConfig,
    pool: Option<&Arc<WorkerPool>>,
) -> Reply {
    handle_request(
        &ServeCtx {
            store,
            sc,
            pool,
            admission: None,
            clock: None,
        },
        line,
    )
}

/// Full request handler: [`handle_line`] plus deadline admission, drain
/// refusal, and edge accounting when the context carries them.
pub fn handle_request(ctx: &ServeCtx<'_>, line: &str) -> Reply {
    let doc = match Json::parse(line) {
        Ok(d) => d,
        Err(e) => return Reply::Line(err_line(&format!("bad request JSON: {e}"))),
    };
    match doc.get("op").and_then(Json::as_str) {
        Some("plan") => Reply::Line(handle_plan(&doc, ctx)),
        Some("stats") => Reply::Line(format!(
            "{{\"ok\":true,\"stats\":{}}}",
            stats_json(ctx).to_compact()
        )),
        Some("shutdown") => Reply::Shutdown("{\"ok\":true,\"shutdown\":true}".to_string()),
        Some(other) => Reply::Line(err_line(&format!(
            "unknown op `{other}` (plan|stats|shutdown)"
        ))),
        None => Reply::Line(err_line("request must carry an `op` field")),
    }
}

/// The `stats` payload: store counters, plus durability and admission
/// counters when present.
fn stats_json(ctx: &ServeCtx<'_>) -> Json {
    let mut fields = match ctx.store.stats().to_json() {
        Json::Obj(v) => v,
        other => return other,
    };
    if let Some(ps) = ctx.store.persist_stats() {
        fields.push(("persist".into(), ps.to_json()));
    }
    if let Some(a) = ctx.admission {
        fields.push(("admission".into(), a.to_json()));
    }
    Json::Obj(fields)
}

fn handle_plan(doc: &Json, ctx: &ServeCtx<'_>) -> String {
    // Admission runs before any planning work: a daemon that cannot
    // usefully serve the request answers with a typed refusal instead of
    // queueing it into a timeout.
    if let Some(a) = ctx.admission {
        if let Err(r) = a.check_draining() {
            a.note_refusal(&r);
            return refusal_line(&r);
        }
    }
    let deadline_ms = match doc.get("deadline_ms") {
        None => ctx.sc.deadline_ms,
        Some(v) => match v.as_u64() {
            Some(n) => Some(n),
            None => return err_line("`deadline_ms` must be a non-negative integer"),
        },
    };
    if let (Some(limit), Some(clock)) = (deadline_ms, ctx.clock) {
        if let Err(r) = clock.check_deadline(limit) {
            if let Some(a) = ctx.admission {
                a.note_refusal(&r);
            }
            return refusal_line(&r);
        }
    }
    let (graph, cfg, strategy) = match parse_plan(doc, ctx.sc) {
        Ok(x) => x,
        Err(e) => return err_line(&e),
    };
    if let Some(a) = ctx.admission {
        a.note_admitted();
    }
    match ctx
        .store
        .get_or_plan_pooled(&graph, cfg, strategy, ctx.pool)
    {
        // The plan payload is spliced in verbatim (it is already compact
        // JSON), so cache hits return byte-identical plan bytes.
        Ok(out) => format!(
            "{{\"ok\":true,\"cached\":{},\"graph_fp\":\"{}\",\"config_fp\":\"{}\",\"plan\":{}}}",
            out.cached, out.graph_fp, out.config_fp, out.plan
        ),
        Err(e) => err_line(&format!("planning failed: {e}")),
    }
}

fn err_line(msg: &str) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(msg.into())),
    ])
    .to_compact()
}

/// A typed admission refusal as a response line: `refused` carries the
/// stable kind tag, `error` the human-readable reason.
fn refusal_line(r: &AdmissionRefusal) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("refused".into(), Json::Str(r.kind().into())),
        ("error".into(), Json::Str(r.to_string())),
    ])
    .to_compact()
}

/// The reply to a request line longer than [`MAX_REQUEST_BYTES`], sent
/// just before the daemon closes the connection.
fn line_too_long() -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("refused".into(), Json::Str("line_too_long".into())),
        (
            "error".into(),
            Json::Str(format!(
                "request line longer than {MAX_REQUEST_BYTES} bytes; closing the connection"
            )),
        ),
    ])
    .to_compact()
}

/// The members a `plan` request may carry (`deadline_ms` is read by the
/// admission edge in `handle_plan`).
const PLAN_MEMBERS: [&str; 8] = [
    "op",
    "model",
    "batch",
    "strategy",
    "hw",
    "fast",
    "budget",
    "deadline_ms",
];

/// Decodes a `plan` request into (workload, config, strategy). A member
/// it does not know is an error, never ignored: a misspelt setting must
/// not plan on its default.
fn parse_plan(doc: &Json, sc: &ServerConfig) -> Result<(Graph, OptimizerConfig, Strategy), String> {
    if let Some((k, _)) = doc
        .as_object()
        .unwrap_or_default()
        .iter()
        .find(|(k, _)| !PLAN_MEMBERS.contains(&k.as_str()))
    {
        return Err(format!("unknown plan member `{k}`"));
    }
    let name = doc
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| "plan request must name a `model`".to_string())?;
    let graph = models::by_name(name).ok_or_else(|| format!("unknown model `{name}`"))?;
    let batch = match doc.get("batch") {
        None => 1,
        Some(v) => v
            .as_usize()
            .filter(|b| (1..=MAX_BATCH).contains(b))
            .ok_or_else(|| {
                format!("`batch` must be a positive integer no larger than {MAX_BATCH}")
            })?,
    };
    let strategy = match doc.get("strategy") {
        None => Strategy::AtomicDataflow,
        Some(v) => {
            let label = v
                .as_str()
                .ok_or_else(|| "`strategy` must be a string".to_string())?;
            Strategy::ALL
                .iter()
                .copied()
                .find(|s| s.label() == label)
                .ok_or_else(|| format!("unknown strategy `{label}`"))?
        }
    };
    let hw = match doc.get("hw") {
        None => sc.base_hw,
        Some(v) => HardwareConfig::from_json(v).map_err(|e| e.to_string())?,
    };
    let mut cfg = OptimizerConfig::for_hardware(&hw).map_err(|e| e.to_string())?;
    let fast = match doc.get("fast") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| "`fast` must be a bool".to_string())?,
    };
    if sc.fast || fast {
        cfg = cfg.with_fast_search();
    }
    cfg = cfg.with_batch(batch);
    if let Some(v) = doc.get("budget") {
        let fields = v
            .as_object()
            .ok_or_else(|| "`budget` must be an object".to_string())?;
        let mut budget = PlanBudget::unlimited();
        for (k, val) in fields {
            let n = val
                .as_u64()
                .ok_or_else(|| format!("`budget.{k}` must be an integer"))?;
            match k.as_str() {
                "sa_iters" => {
                    let iters = u32::try_from(n)
                        .map_err(|_| "`budget.sa_iters` out of range".to_string())?;
                    budget = budget.with_sa_iters(iters);
                }
                "dp_expansions" => budget = budget.with_dp_expansions(n),
                other => return Err(format!("unknown budget field `{other}`")),
            }
        }
        cfg = cfg.with_budget(budget);
    }
    Ok((graph, cfg, strategy))
}

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

/// A connection waiting for a worker, stamped with its accept time so the
/// first request's deadline accounts for the queue wait.
struct QueuedConn {
    conn: TcpStream,
    clock: EdgeClock,
}

/// Runs the accept loop until a `shutdown` op arrives.
///
/// One shared [`WorkerPool`] carries the whole daemon: `workers`
/// long-lived pool tasks drain a [`BoundedQueue`] of accepted connections,
/// and each miss's planning fan-out reuses the *same* pool
/// ([`PlanRequest::with_pool`]). The accept loop occupies the pool's
/// caller slot, so the pool is sized `workers + 1` and the live thread
/// count is bounded for the daemon's whole lifetime; every worker joins
/// before this function returns (the scoped-thread discipline, ad-lint
/// D3).
///
/// Overload and shutdown degrade by *refusing*, never by queueing
/// unboundedly or timing out silently:
///
/// * A connection arriving while [`ServerConfig::max_queue`] connections
///   wait receives a typed `overloaded` refusal line and is closed.
/// * On shutdown, in-flight connections (including their single-flight
///   planning misses) run to completion, while queued-but-unstarted
///   connections receive a `shutting_down` refusal.
///
/// # Errors
///
/// Only the initial `local_addr` query can fail; per-connection I/O errors
/// drop that connection and the daemon keeps serving.
pub fn serve(listener: &TcpListener, store: &PlanStore, sc: &ServerConfig) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    let stop = AtomicBool::new(false);
    let admission = Admission::new();
    let queue: BoundedQueue<QueuedConn> = BoundedQueue::new(sc.max_queue.max(1));
    let workers = sc.workers.max(1);
    let pool = Arc::new(WorkerPool::new(workers + 1));
    pool.run_tasks(|s| {
        let (stop, pool, queue, admission) = (&stop, &pool, &queue, &admission);
        for _ in 0..workers {
            s.submit(move || {
                while let Some(item) = queue.pop() {
                    // A connection still queued when shutdown began is
                    // refused, not served: only work that was already
                    // in flight at that point runs to completion.
                    if stop.load(Ordering::SeqCst) {
                        let r = AdmissionRefusal::ShuttingDown;
                        admission.note_refusal(&r);
                        refuse_connection(item.conn, &r);
                        continue;
                    }
                    serve_connection(item, store, sc, stop, addr, pool, admission);
                }
            });
        }
        for conn in listener.incoming() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(conn) = conn else { continue };
            let item = QueuedConn {
                conn,
                clock: EdgeClock::now(),
            };
            match queue.try_push(item) {
                Ok(()) => {}
                Err(PushError::Full(item)) => {
                    let r = AdmissionRefusal::Overloaded {
                        queued: queue.len(),
                        max_queue: queue.capacity(),
                    };
                    admission.note_refusal(&r);
                    refuse_connection(item.conn, &r);
                }
                Err(PushError::Closed(item)) => {
                    let r = AdmissionRefusal::ShuttingDown;
                    admission.note_refusal(&r);
                    refuse_connection(item.conn, &r);
                }
            }
        }
        // Graceful drain: raise the flag, hand back the unstarted backlog
        // and refuse each connection in it. Workers exit once the closed
        // queue is empty; in-flight connections complete before
        // `run_tasks` returns.
        admission.begin_drain();
        for item in queue.close() {
            let r = AdmissionRefusal::ShuttingDown;
            admission.note_refusal(&r);
            refuse_connection(item.conn, &r);
        }
    });
    Ok(())
}

/// Writes one typed refusal line; the connection closes when `conn` drops.
fn refuse_connection(mut conn: impl Write, r: &AdmissionRefusal) {
    let _ = write_line(&mut conn, refusal_line(r));
}

/// Sends `line` and its newline in one `write_all`, the way every line
/// the daemon and its clients put on a socket goes out.
///
/// `writeln!` on an unbuffered `TcpStream` makes two writes, so the
/// newline leaves as a second small segment. Nagle's algorithm holds that
/// segment until the first is acknowledged, and the peer delays its ACK by
/// up to ≈ 40 ms: every request or reply would wait that long.
///
/// # Errors
///
/// Whatever the writer reports.
pub fn write_line<W: Write + ?Sized>(w: &mut W, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())
}

/// Longest request line the daemon reads, newline excluded. A request is a
/// model name plus options and at most an inline hardware config: a few
/// hundred bytes to a few KB.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// One read from a connection.
enum RequestLine<'b> {
    /// A request line without its terminator.
    Line(&'b [u8]),
    /// A line longer than [`MAX_REQUEST_BYTES`]; only its first bytes
    /// were read.
    TooLong,
    /// End of stream.
    Eof,
}

/// Reads the next request line into `buf`, reading at most
/// [`MAX_REQUEST_BYTES`] + 1 bytes so one client cannot make the daemon
/// buffer without bound.
fn read_request_line<'b>(
    reader: impl BufRead,
    buf: &'b mut Vec<u8>,
) -> std::io::Result<RequestLine<'b>> {
    buf.clear();
    let limit = u64::try_from(MAX_REQUEST_BYTES + 1).unwrap_or(u64::MAX);
    if reader.take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(RequestLine::Eof);
    }
    let line = buf.strip_suffix(b"\n").unwrap_or(buf);
    if line.len() > MAX_REQUEST_BYTES {
        return Ok(RequestLine::TooLong);
    }
    Ok(RequestLine::Line(line.strip_suffix(b"\r").unwrap_or(line)))
}

/// What ended a connection's request loop.
#[derive(Debug, PartialEq, Eq)]
enum ConnEnd {
    /// End of stream, an I/O error, or a refused line.
    Closed,
    /// A `shutdown` request was answered.
    Shutdown,
}

/// Serves one connection: a sequence of request lines until EOF.
fn serve_connection(
    item: QueuedConn,
    store: &PlanStore,
    sc: &ServerConfig,
    stop: &AtomicBool,
    addr: SocketAddr,
    pool: &Arc<WorkerPool>,
    admission: &Admission,
) {
    let QueuedConn { mut conn, clock } = item;
    // A reply written while an earlier one is still unacknowledged
    // (pipelined requests, the tail of a large plan) goes out at once.
    let _ = conn.set_nodelay(true);
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let ctx = ServeCtx {
        store,
        sc,
        pool: Some(pool),
        admission: Some(admission),
        clock: Some(clock),
    };
    if serve_lines(ctx, BufReader::new(read_half), &mut conn) == ConnEnd::Shutdown {
        stop.store(true, Ordering::SeqCst);
        // Wake the accept loop so `serve` can observe the flag.
        drop(TcpStream::connect(addr));
    }
}

/// Answers the request lines read from `reader` on `writer`, one
/// [`write_line`] per reply, until the stream ends, a line is refused or a
/// `shutdown` is answered. The first request's deadline runs from
/// `ctx.clock` (accept time, so it includes the queue wait); follow-up
/// requests run from their read time.
fn serve_lines(
    mut ctx: ServeCtx<'_>,
    mut reader: impl BufRead,
    writer: &mut impl Write,
) -> ConnEnd {
    let mut first_clock = ctx.clock.take();
    let mut buf = Vec::new();
    loop {
        let line = match read_request_line(&mut reader, &mut buf) {
            Ok(RequestLine::Line(line)) => line,
            Ok(RequestLine::TooLong) => {
                let _ = write_line(writer, line_too_long());
                return ConnEnd::Closed;
            }
            Ok(RequestLine::Eof) | Err(_) => return ConnEnd::Closed,
        };
        let Ok(line) = std::str::from_utf8(line) else {
            return ConnEnd::Closed;
        };
        if line.trim().is_empty() {
            continue;
        }
        ctx.clock = Some(first_clock.take().unwrap_or_else(EdgeClock::now));
        match handle_request(&ctx, line) {
            Reply::Line(resp) => {
                if write_line(writer, resp).is_err() {
                    return ConnEnd::Closed;
                }
            }
            Reply::Shutdown(resp) => {
                let _ = write_line(writer, resp);
                return ConnEnd::Shutdown;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn fp(n: u64) -> Fingerprint {
        Fingerprint(n)
    }

    /// Records every `write` call: each one can leave as its own segment.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl CountingWriter {
        /// Asserts that each write is one whole line, and returns the lines.
        fn lines(&self) -> Vec<Json> {
            self.writes
                .iter()
                .map(|w| {
                    let text = std::str::from_utf8(w).unwrap();
                    let line = text
                        .strip_suffix('\n')
                        .unwrap_or_else(|| panic!("write {text:?} does not end a line"));
                    assert!(!line.contains('\n'), "one write carried two lines");
                    Json::parse(line).unwrap()
                })
                .collect()
        }
    }

    /// Drives the connection loop on `input` with a fast daemon config.
    fn serve_input(input: &[u8]) -> (ConnEnd, CountingWriter) {
        let store = PlanStore::new(4);
        let sc = ServerConfig {
            base_hw: HardwareConfig::fast_test(),
            fast: true,
            workers: 1,
            ..ServerConfig::default()
        };
        let pool = Arc::new(WorkerPool::new(1));
        let admission = Admission::new();
        let ctx = ServeCtx {
            store: &store,
            sc: &sc,
            pool: Some(&pool),
            admission: Some(&admission),
            clock: Some(EdgeClock::now()),
        };
        let mut w = CountingWriter::default();
        let end = serve_lines(ctx, input, &mut w);
        (end, w)
    }

    #[test]
    fn every_reply_is_one_write() {
        // Plan reply (miss, then hit), stats and shutdown: one write each.
        let plan = r#"{"op":"plan","model":"tiny_cnn"}"#;
        let input = format!("{plan}\n{plan}\n{{\"op\":\"stats\"}}\n{{\"op\":\"shutdown\"}}\n");
        let (end, w) = serve_input(input.as_bytes());
        assert_eq!(end, ConnEnd::Shutdown);
        let lines = w.lines();
        assert_eq!(lines.len(), 4, "one write per reply");
        assert_eq!(lines[0].get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(lines[1].get("cached").and_then(Json::as_bool), Some(true));
        assert!(lines[2].get("stats").is_some());
        assert_eq!(lines[3].get("shutdown").and_then(Json::as_bool), Some(true));

        // An over-long line: one refusal write, then the loop ends.
        let (end, w) = serve_input(" ".repeat(MAX_REQUEST_BYTES + 1).as_bytes());
        assert_eq!(end, ConnEnd::Closed);
        let lines = w.lines();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0].get("refused").and_then(Json::as_str),
            Some("line_too_long")
        );

        // An admission refusal.
        let mut w = CountingWriter::default();
        refuse_connection(&mut w, &AdmissionRefusal::ShuttingDown);
        let lines = w.lines();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            lines[0].get("refused").and_then(Json::as_str),
            Some("shutting_down")
        );
    }

    #[test]
    fn single_flight_plans_once_for_concurrent_identical_requests() {
        let store = PlanStore::new(8);
        let calls = AtomicUsize::new(0);
        let outs: Vec<ServeOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        store.resolve(fp(1), fp(2), || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            Ok::<_, ()>("{\"p\":1}".to_string())
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap())
                .collect()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "planned more than once");
        assert_eq!(outs.iter().filter(|o| !o.cached).count(), 1);
        assert!(outs.iter().all(|o| o.plan == "{\"p\":1}"));
        let st = store.stats();
        assert_eq!((st.hits, st.misses, st.entries), (7, 1, 1));
    }

    #[test]
    fn failed_plan_releases_the_key_for_retry() {
        let store = PlanStore::new(8);
        let r = store.resolve(fp(1), fp(2), || Err::<String, _>("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        // The key is not cached and not in flight: the retry computes.
        let out = store
            .resolve(fp(1), fp(2), || Ok::<_, &str>("{}".to_string()))
            .unwrap();
        assert!(!out.cached);
        assert_eq!(store.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_bounds_the_cache() {
        let store = PlanStore::new(2);
        let plan_of = |k: u64| format!("{{\"k\":{k}}}");
        for k in 1..=3 {
            store
                .resolve(fp(k), fp(0), || Ok::<_, ()>(plan_of(k)))
                .unwrap();
        }
        let st = store.stats();
        assert_eq!((st.entries, st.evictions), (2, 1));
        // Key 1 was the least recently used: it is gone and recomputes.
        let out = store
            .resolve(fp(1), fp(0), || Ok::<_, ()>(plan_of(1)))
            .unwrap();
        assert!(!out.cached);
        // Key 3 survived: byte-identical hit.
        let out = store
            .resolve(fp(3), fp(0), || Ok::<_, ()>(String::new()))
            .unwrap();
        assert!(out.cached);
        assert_eq!(out.plan, plan_of(3));
    }

    /// Spins until `cond` holds (the condition is made true by another
    /// thread that is guaranteed to run; the sleep only yields the CPU).
    fn wait_until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Regression test for the single-flight failure race: the error of a
    /// failed attempt must reach exactly the threads that waited on *that*
    /// attempt, and a request arriving after the failure must plan fresh —
    /// never inherit the stale error.
    #[test]
    fn failed_attempt_error_reaches_only_its_own_waiters() {
        let store = PlanStore::new(8);
        let key = (fp(1), fp(2));
        let a_entered = AtomicBool::new(false);
        let a_release = AtomicBool::new(false);

        std::thread::scope(|s| {
            // A becomes the planner and parks inside its compute closure.
            let a = s.spawn(|| {
                store.resolve(key.0, key.1, || {
                    a_entered.store(true, Ordering::SeqCst);
                    while !a_release.load(Ordering::SeqCst) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    Err::<String, &str>("boom")
                })
            });
            wait_until(|| a_entered.load(Ordering::SeqCst));

            // B finds the key in flight and registers on A's generation.
            let b =
                s.spawn(|| store.resolve(key.0, key.1, || Ok::<_, &str>("fresh-B".to_string())));
            wait_until(|| store.waiters_on(key) == 1);

            // A fails; B must inherit exactly that error.
            a_release.store(true, Ordering::SeqCst);
            assert_eq!(a.join().unwrap().unwrap_err(), "boom");
            assert_eq!(b.join().unwrap().unwrap_err(), "boom");
        });
        assert_eq!(store.stats().shared_failures, 1);

        // C arrives after the failure: no matching generation, so it can
        // never observe the stale error — it plans fresh and succeeds.
        let c = store
            .resolve(key.0, key.1, || Ok::<_, &str>("fresh-C".to_string()))
            .unwrap();
        assert!(!c.cached);
        assert_eq!(c.plan, "fresh-C");
        let st = store.stats();
        assert_eq!(st.shared_failures, 1, "C must not inherit the old error");
        assert_eq!(st.misses, 2, "A and C planned; B inherited");
    }

    /// A fresh scratch directory under the target-adjacent temp dir.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ad-serve-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persistent_store_recovers_entries_byte_identically() {
        let dir = scratch_dir("recover");
        let plan = "{\"p\":1,\"cost\":0.5}".to_string();
        {
            let store = PlanStore::open(8, &dir).unwrap();
            store
                .resolve(fp(1), fp(2), || Ok::<_, ()>(plan.clone()))
                .unwrap();
            store
                .resolve(fp(4), fp(5), || Ok::<_, ()>("{\"p\":2}".to_string()))
                .unwrap();
        }
        // A new store over the same directory serves both entries as hits,
        // byte-identical, without running compute at all.
        let store = PlanStore::open(8, &dir).unwrap();
        assert_eq!(store.stats().entries, 2);
        assert!(store.persist_stats().unwrap().is_clean_load());
        let out = store
            .resolve(fp(1), fp(2), || {
                Err::<String, &str>("recovered entry must not recompute")
            })
            .unwrap();
        assert!(out.cached);
        assert_eq!(out.plan, plan);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A v1 record (written when a miss could be seeded from a cached batch
    /// neighbour, so its plan may differ from what the request alone
    /// plans) is dropped and counted at open, and its key plans afresh.
    #[test]
    fn v1_record_is_counted_undecodable_and_never_served() {
        let dir = scratch_dir("v1");
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = format!("v1 {} {} {} 4\n7:3:16\n{{\"old\":1}}", fp(1), fp(2), fp(3));
        std::fs::write(
            dir.join(persist::WAL_FILE),
            ad_util::record::encode_record(v1.as_bytes()),
        )
        .unwrap();
        let store = PlanStore::open(8, &dir).unwrap();
        let ps = store.persist_stats().unwrap();
        assert_eq!((ps.undecodable_records, ps.recovered), (1, 0));
        assert_eq!(store.stats().entries, 0);
        let out = store
            .resolve(fp(1), fp(2), || Ok::<_, ()>("{\"new\":1}".to_string()))
            .unwrap();
        assert!(!out.cached);
        assert_eq!(out.plan, "{\"new\":1}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopening_with_a_smaller_capacity_clamps_by_eviction() {
        let dir = scratch_dir("clamp");
        {
            let store = PlanStore::open(8, &dir).unwrap();
            for k in 1..=4 {
                store
                    .resolve(fp(k), fp(0), || Ok::<_, ()>(format!("{{\"k\":{k}}}")))
                    .unwrap();
            }
        }
        let store = PlanStore::open(2, &dir).unwrap();
        let st = store.stats();
        assert_eq!((st.entries, st.evictions), (2, 2));
        // The most recently appended entries survive the clamp.
        let out = store
            .resolve(fp(4), fp(0), || Ok::<_, ()>(String::new()))
            .unwrap();
        assert!(out.cached);
        assert_eq!(out.plan, "{\"k\":4}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn protocol_rejects_malformed_requests() {
        let store = PlanStore::new(2);
        let sc = ServerConfig::default();
        for (req, want) in [
            ("not json", "bad request JSON"),
            ("{\"op\":\"fly\"}", "unknown op"),
            ("{\"model\":\"resnet50\"}", "`op` field"),
            ("{\"op\":\"plan\"}", "must name a `model`"),
            ("{\"op\":\"plan\",\"model\":\"alexnet\"}", "unknown model"),
            (
                "{\"op\":\"plan\",\"model\":\"tiny_cnn\",\"batch\":0}",
                "positive integer",
            ),
            (
                "{\"op\":\"plan\",\"model\":\"tiny_cnn\",\"strategy\":\"XX\"}",
                "unknown strategy",
            ),
            (
                "{\"op\":\"plan\",\"model\":\"tiny_cnn\",\"hw\":{\"mesh_cols\":0}}",
                "must be non-zero",
            ),
            (
                "{\"op\":\"plan\",\"model\":\"tiny_cnn\",\"budget\":{\"sa_iterz\":1}}",
                "unknown budget field",
            ),
            (
                "{\"op\":\"plan\",\"model\":\"tiny_cnn\",\"budget\":{\"deadline_ms\":5}}",
                "unknown budget field",
            ),
            (
                "{\"op\":\"plan\",\"model\":\"tiny_cnn\",\"validate\":\"deny\"}",
                "unknown plan member `validate`",
            ),
            (
                "{\"op\":\"plan\",\"model\":\"tiny_cnn\",\"valdiate\":\"deny\"}",
                "unknown plan member `valdiate`",
            ),
            (
                "{\"op\":\"plan\",\"model\":\"tiny_cnn\",\"strategy\":7}",
                "`strategy` must be a string",
            ),
            (
                "{\"op\":\"plan\",\"model\":\"tiny_cnn\",\"fast\":\"yes\"}",
                "`fast` must be a bool",
            ),
        ] {
            let reply = handle_line(req, &store, &sc);
            let doc = Json::parse(reply.text()).unwrap();
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{req}");
            let msg = doc.get("error").and_then(Json::as_str).unwrap();
            assert!(msg.contains(want), "{req}: `{msg}` missing `{want}`");
        }
        // Nothing malformed may touch the planner or the cache.
        assert_eq!(store.stats().misses, 0);
    }

    /// Batch sizes past the `u16` batch-sample space used to reach an
    /// assert in DAG construction and panic the worker; they are refused
    /// with the `batch` decode error instead.
    #[test]
    fn oversized_batch_is_refused_without_panicking() {
        let store = PlanStore::new(2);
        let sc = ServerConfig::default();
        for batch in ["65536", "70000", "18446744073709551615"] {
            let req = format!("{{\"op\":\"plan\",\"model\":\"tiny_cnn\",\"batch\":{batch}}}");
            let doc = Json::parse(handle_line(&req, &store, &sc).text()).unwrap();
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{req}");
            let msg = doc.get("error").and_then(Json::as_str).unwrap();
            assert!(msg.contains("`batch` must be"), "{req}: `{msg}`");
        }
        assert_eq!(store.stats().misses, 0);
    }

    /// A request nested far past the parser's depth cap is refused as bad
    /// JSON instead of overflowing the worker's stack, even on a thread
    /// with an eighth of the default stack.
    #[test]
    fn deeply_nested_request_is_refused_on_a_small_stack() {
        let reply = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let store = PlanStore::new(2);
                let sc = ServerConfig::default();
                let ctx = ServeCtx {
                    store: &store,
                    sc: &sc,
                    pool: None,
                    admission: None,
                    clock: None,
                };
                let line = format!("{{\"op\":\"plan\",\"hw\":{}}}", "[".repeat(20_000));
                handle_request(&ctx, &line)
            })
            .unwrap()
            .join()
            .unwrap();
        let doc = Json::parse(reply.text()).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let msg = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(msg.contains("nesting deeper than"), "{msg}");
    }

    #[test]
    fn request_lines_are_read_up_to_the_bound() {
        let ok = "x".repeat(MAX_REQUEST_BYTES);
        let long = "x".repeat(MAX_REQUEST_BYTES + 1);
        let input = format!("a\r\n{ok}\n{long}\nb\n");
        let mut reader = BufReader::new(input.as_bytes());
        let mut buf = Vec::new();
        let mut read = || match read_request_line(&mut reader, &mut buf).unwrap() {
            RequestLine::Line(l) => Ok(l.len()),
            RequestLine::TooLong => Err("too long"),
            RequestLine::Eof => Err("end of stream"),
        };
        assert_eq!(read(), Ok(1), "the CR of a CRLF terminator is dropped");
        assert_eq!(read(), Ok(MAX_REQUEST_BYTES));
        assert_eq!(read(), Err("too long"));
    }
}
