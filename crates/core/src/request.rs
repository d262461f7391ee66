//! Request-shaped planning: one typed entry path for every plan consumer.
//!
//! Before this module, each front end (bench grid, timing binaries, fault
//! harnesses, tests) invoked [`Optimizer`] or [`crate::Pipeline`] directly with an
//! ad-hoc hard-coded config. The serving work (ROADMAP's front-door item)
//! needs all of them to speak one language so plans can be cached and
//! replayed: a [`PlanRequest`] identifies *what* to plan
//! — a workload graph and an [`OptimizerConfig`] — and the pair of stable
//! fingerprints ([`Graph::canonical_fingerprint`], [`config_fingerprint`])
//! identifies the request content-addressably. [`plan`] resolves a request
//! into a [`PlanResponse`] carrying the simulated statistics, the per-stage
//! reports, the [`BudgetOutcome`] and a deterministic `plan` payload whose
//! bytes are pinned: equal fingerprints ⇒ equal payload bytes, which is
//! what makes the `ad-serve` cache sound.
//!
//! The config fingerprint deliberately *excludes* every execution-only
//! knob ([`OptimizerConfig::parallelism`], the worker-pool size): the
//! planner is byte-deterministic across thread counts, so requests that
//! differ only there must share a cache entry.

use accel_sim::{EvictionKind, SimStats};
use ad_util::{Fingerprint, FpHasher, Json};
use dnn_graph::Graph;
use engine_model::Dataflow;

use crate::atom::AtomSpec;
use crate::atomgen::{AtomGenConfig, AtomGenMode};
use crate::error::PipelineError;
use crate::mapping::MappingAlgo;
use crate::optimizer::{Optimizer, OptimizerConfig, Strategy};
use crate::pipeline::StageReport;
use crate::scheduler::ScheduleMode;
use crate::validate::{BudgetOutcome, PlanBudget};

/// A fully specified planning request: the workload and the platform +
/// strategy configuration. The plan it resolves to is a function of these
/// alone.
#[derive(Debug, Clone)]
pub struct PlanRequest<'g> {
    /// The workload to plan.
    pub graph: &'g Graph,
    /// Platform and search configuration.
    pub cfg: OptimizerConfig,
    /// Orchestration strategy (default: atomic dataflow).
    pub strategy: Strategy,
    /// Persistent worker pool shared across requests (atomic dataflow
    /// only): planning fans out on it instead of creating a run-local pool,
    /// so long-lived callers (the serve daemon) keep their total thread
    /// count bounded. Execution-only — excluded from every fingerprint and
    /// never affects plan bytes.
    pub pool: Option<std::sync::Arc<ad_util::WorkerPool>>,
}

impl<'g> PlanRequest<'g> {
    /// A request for the atomic-dataflow plan of `graph` under `cfg`.
    pub fn new(graph: &'g Graph, cfg: OptimizerConfig) -> Self {
        Self {
            graph,
            cfg,
            strategy: Strategy::AtomicDataflow,
            pool: None,
        }
    }

    /// Returns a copy planning on a shared persistent worker pool (see the
    /// `pool` field).
    pub fn with_pool(mut self, pool: std::sync::Arc<ad_util::WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Returns a copy requesting a different strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The graph half of the cache key.
    pub fn graph_fingerprint(&self) -> Fingerprint {
        self.graph.canonical_fingerprint()
    }

    /// The config half of the cache key.
    pub fn config_fingerprint(&self) -> Fingerprint {
        config_fingerprint(&self.cfg, self.strategy)
    }
}

/// Atomic-dataflow plan structure beyond the simulated statistics; absent
/// for baseline strategies, which plan without a generation report.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDetail {
    /// Scheduling rounds of the winning plan.
    pub rounds: usize,
    /// Atoms in the winning DAG.
    pub atoms: usize,
    /// Mean engine occupancy of the schedule.
    pub occupancy: f64,
    /// Chosen tile per layer.
    pub specs: Vec<AtomSpec>,
}

impl PlanDetail {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("rounds".into(), Json::from(self.rounds)),
            ("atoms".into(), Json::from(self.atoms)),
            ("occupancy".into(), Json::Num(self.occupancy)),
            (
                "specs".into(),
                Json::Arr(
                    self.specs
                        .iter()
                        .map(|s| {
                            Json::Arr(vec![Json::from(s.th), Json::from(s.tw), Json::from(s.tc)])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// What [`plan`] resolves a [`PlanRequest`] into.
#[derive(Debug, Clone)]
pub struct PlanResponse {
    /// [`Graph::canonical_fingerprint`] of the requested workload.
    pub graph_fp: Fingerprint,
    /// [`config_fingerprint`] of the requested configuration + strategy.
    pub config_fp: Fingerprint,
    /// Strategy that produced the plan.
    pub strategy: Strategy,
    /// Simulated statistics of the admitted plan.
    pub stats: SimStats,
    /// Per-stage wall times and summaries (reporting only; *not* part of
    /// the pinned `plan` payload — wall times vary run to run).
    pub reports: Vec<StageReport>,
    /// Whether planning completed within its [`PlanBudget`].
    pub budget: BudgetOutcome,
    /// Plan structure (atomic dataflow only).
    pub detail: Option<PlanDetail>,
    /// The deterministic response payload: compact JSON over the
    /// fingerprints, strategy, budget outcome, statistics and detail.
    /// Equal request fingerprints produce byte-identical payloads, so the
    /// serve cache returns this string verbatim on hits (pinned in tests).
    pub plan: String,
}

impl PlanResponse {
    fn assemble(
        graph_fp: Fingerprint,
        config_fp: Fingerprint,
        strategy: Strategy,
        stats: SimStats,
        reports: Vec<StageReport>,
        budget: BudgetOutcome,
        detail: Option<PlanDetail>,
    ) -> Self {
        let mut members = vec![
            ("graph_fp".into(), Json::Str(graph_fp.to_string())),
            ("config_fp".into(), Json::Str(config_fp.to_string())),
            ("strategy".into(), Json::Str(strategy.label().into())),
            ("budget".into(), Json::Str(budget.to_string())),
            ("stats".into(), stats.to_json()),
        ];
        if let Some(d) = &detail {
            members.push(("detail".into(), d.to_json()));
        }
        let plan = Json::Obj(members).to_compact();
        Self {
            graph_fp,
            config_fp,
            strategy,
            stats,
            reports,
            budget,
            detail,
            plan,
        }
    }
}

/// Resolves a [`PlanRequest`] by running the requested strategy's pipeline.
///
/// # Errors
///
/// [`PipelineError::BatchOutOfRange`] for a batch outside
/// `1..=`[`crate::MAX_BATCH`]; otherwise the strategy's
/// [`PipelineError`]s — scheduling/mapping failures and
/// [`PipelineError::Validation`] when the plan fails admission.
pub fn plan(req: &PlanRequest<'_>) -> Result<PlanResponse, PipelineError> {
    if !(1..=crate::MAX_BATCH).contains(&req.cfg.batch) {
        return Err(PipelineError::BatchOutOfRange {
            batch: req.cfg.batch,
        });
    }
    let graph_fp = req.graph_fingerprint();
    let config_fp = req.config_fingerprint();
    match req.strategy {
        Strategy::AtomicDataflow => {
            let mut opt = Optimizer::new(req.cfg);
            if let Some(p) = &req.pool {
                opt = opt.with_pool(p.clone());
            }
            let r = opt.optimize(req.graph)?;
            let detail = PlanDetail {
                rounds: r.rounds,
                atoms: r.atoms,
                occupancy: r.occupancy,
                specs: r.gen_report.specs.clone(),
            };
            Ok(PlanResponse::assemble(
                graph_fp,
                config_fp,
                req.strategy,
                r.stats,
                r.stage_reports,
                r.budget,
                Some(detail),
            ))
        }
        other => {
            let out = other.run_detailed(req.graph, &req.cfg)?;
            let budget = out
                .reports
                .iter()
                .map(|r| r.budget)
                .find(BudgetOutcome::is_truncated)
                .unwrap_or(BudgetOutcome::Completed);
            Ok(PlanResponse::assemble(
                graph_fp,
                config_fp,
                other,
                out.stats,
                out.reports,
                budget,
                None,
            ))
        }
    }
}

/// Why a serving layer refused to *start* planning a request.
///
/// Admission is decided before any planning stage runs, at the daemon edge
/// where wall-clock time is permitted (DESIGN.md §16): once a request is
/// admitted, planning itself remains governed only by the deterministic
/// [`PlanBudget`] caps. A refusal is a complete, typed answer — the client
/// learns *why* and can retry, back off, or re-route — never a timeout.
///
/// `deadline_ms` lives here (as an admission parameter) and NOT in
/// [`OptimizerConfig::budget`]: [`config_fingerprint`] hashes the budget,
/// so folding a per-request wall-clock deadline into the config would
/// fragment the plan cache key space for byte-identical plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionRefusal {
    /// The bounded work queue is full; admitting more work would grow
    /// memory and queue latency without bound.
    Overloaded {
        /// Requests queued or in flight when this one was refused.
        queued: usize,
        /// The configured admission bound.
        max_queue: usize,
    },
    /// The request's deadline expired before planning could begin (or was
    /// already expired on arrival), so starting would only waste work the
    /// client no longer wants.
    DeadlineExceeded {
        /// The deadline the request carried, in milliseconds.
        deadline_ms: u64,
        /// How long the request had already waited when it was refused.
        waited_ms: u64,
    },
    /// The daemon is draining for shutdown: in-flight work completes,
    /// queued and new work is refused.
    ShuttingDown,
}

impl AdmissionRefusal {
    /// Stable machine-readable tag, used verbatim in protocol responses
    /// and summary JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            AdmissionRefusal::Overloaded { .. } => "overloaded",
            AdmissionRefusal::DeadlineExceeded { .. } => "deadline_exceeded",
            AdmissionRefusal::ShuttingDown => "shutting_down",
        }
    }
}

impl std::fmt::Display for AdmissionRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionRefusal::Overloaded { queued, max_queue } => write!(
                f,
                "overloaded: {queued} requests queued or in flight (bound {max_queue})"
            ),
            AdmissionRefusal::DeadlineExceeded {
                deadline_ms,
                waited_ms,
            } => write!(
                f,
                "deadline exceeded: waited {waited_ms} ms against a {deadline_ms} ms deadline"
            ),
            AdmissionRefusal::ShuttingDown => write!(f, "shutting down: new work is refused"),
        }
    }
}

impl std::error::Error for AdmissionRefusal {}

/// A stable fingerprint of every *plan-relevant* field of `cfg` plus the
/// strategy tag. Execution-only knobs (worker-thread counts) are excluded:
/// the planner is byte-deterministic across thread counts, so two requests
/// differing only there are the same request.
pub fn config_fingerprint(cfg: &OptimizerConfig, strategy: Strategy) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_str("plan-config/v1");
    h.write_str(strategy.label());
    h.write_usize(cfg.batch);
    h.write_u64(match cfg.dataflow {
        Dataflow::KcPartition => 0,
        Dataflow::YxPartition => 1,
    });

    // Platform: engine, mesh, HBM, buffering.
    let e = &cfg.sim.engine;
    h.write_usize(e.pe_x);
    h.write_usize(e.pe_y);
    h.write_u64(e.buffer_bytes);
    h.write_u64(e.freq_mhz);
    h.write_usize(e.vector_lanes);
    h.write_f64(e.energy.mac_pj);
    h.write_f64(e.energy.sram_read_pj_per_byte);
    h.write_f64(e.energy.sram_write_pj_per_byte);
    h.write_f64(e.energy.static_mw_per_engine);
    let m = &cfg.sim.mesh;
    h.write_usize(m.cols);
    h.write_usize(m.rows);
    h.write_u64(m.link_bytes_per_cycle);
    h.write_u64(m.hop_latency);
    h.write_f64(m.energy_pj_per_byte_hop);
    let hbm = &cfg.sim.hbm;
    h.write_u64(hbm.capacity_bytes);
    h.write_u64(hbm.peak_bytes_per_cycle);
    h.write_u64(hbm.access_latency_cycles);
    h.write_f64(hbm.energy_pj_per_byte);
    h.write_usize(hbm.channels);
    // 1 was LRU eviction, since retired; it stays unused.
    h.write_u64(match cfg.sim.eviction {
        EvictionKind::InvalidOccupation => 0,
        EvictionKind::Fifo => 2,
    });
    // Retired settings hash as the constants they became, so every digest
    // stays what it was: double buffering (always on), the affinity
    // mapper's former permutation depth of 5, and atom generation's
    // working-set fraction 1.0 and 4096-atom cap (see `hash_atomgen`).
    h.write_u64(1);

    // Search configuration. `atomgen.engines` is overwritten from the mesh
    // by the pipeline, so it is not hashed.
    hash_atomgen(&mut h, &cfg.atomgen);
    hash_schedule_mode(&mut h, cfg.schedule_mode);
    h.write_u64(match cfg.mapping {
        MappingAlgo::ZigzagIdentity => 0,
        MappingAlgo::Affinity => 2,
    });
    h.write_usize(5);
    for t in cfg.search_targets {
        h.write_usize(t);
    }
    // A retired admission-mode switch: admission always runs now, and the
    // constant is the value release builds hashed, so their keys stay put.
    h.write_u64(2);
    hash_budget(&mut h, &cfg.budget);
    h.finish()
}

fn hash_atomgen(h: &mut FpHasher, g: &AtomGenConfig) {
    match g.mode {
        AtomGenMode::Sa(p) => {
            h.write_u64(0);
            h.write_usize(p.max_iters);
            h.write_f64(p.move_len);
            h.write_f64(p.epsilon);
            h.write_f64(p.temp);
            h.write_f64(p.lambda);
            h.write_u64(p.seed);
            h.write_usize(p.chains);
        }
        AtomGenMode::Ga(p) => {
            h.write_u64(1);
            h.write_usize(p.generations);
            h.write_usize(p.population);
            h.write_f64(p.mutation);
            h.write_usize(p.elites);
            h.write_u64(p.seed);
        }
        AtomGenMode::Uniform { parts } => {
            h.write_u64(2);
            h.write_usize(parts);
        }
    }
    h.write_f64(1.0);
    h.write_usize(4096);
    h.write_usize(g.target_atoms_per_layer);
}

fn hash_schedule_mode(h: &mut FpHasher, mode: ScheduleMode) {
    match mode {
        ScheduleMode::LayerOrder => h.write_u64(0),
        ScheduleMode::PriorityGreedy => h.write_u64(1),
        ScheduleMode::Dp { lookahead, branch } => {
            h.write_u64(2);
            h.write_usize(lookahead);
            h.write_usize(branch);
        }
    }
}

fn hash_budget(h: &mut FpHasher, b: &PlanBudget) {
    for cap in [b.sa_iters.map(u64::from), b.dp_expansions] {
        match cap {
            None => h.write_u64(0),
            Some(v) => {
                h.write_u64(1);
                h.write_u64(v);
            }
        }
    }
    // A retired third cap (a wall-clock deadline), hashed as the `None`
    // it always is now so every existing digest stays the same.
    h.write_u64(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_graph::models;

    #[test]
    fn parallelism_does_not_change_the_fingerprint() {
        let cfg = OptimizerConfig::fast_test();
        let a = config_fingerprint(&cfg, Strategy::AtomicDataflow);
        let b = config_fingerprint(&cfg.with_parallelism(4), Strategy::AtomicDataflow);
        assert_eq!(a, b);
    }

    #[test]
    fn plan_relevant_fields_change_the_fingerprint() {
        let cfg = OptimizerConfig::fast_test();
        let base = config_fingerprint(&cfg, Strategy::AtomicDataflow);
        assert_ne!(
            config_fingerprint(&cfg.with_batch(2), Strategy::AtomicDataflow),
            base
        );
        assert_ne!(
            config_fingerprint(
                &cfg.with_dataflow(Dataflow::YxPartition),
                Strategy::AtomicDataflow
            ),
            base
        );
        assert_ne!(config_fingerprint(&cfg, Strategy::LayerSequential), base);
        assert_ne!(
            config_fingerprint(
                &cfg.with_budget(PlanBudget::unlimited().with_sa_iters(10)),
                Strategy::AtomicDataflow
            ),
            base
        );
    }

    /// Literal config fingerprints of both preset configs under every
    /// strategy: they are the daemon's cache keys and sit in every plan
    /// payload, so any change to what `config_fingerprint` feeds the hasher shows
    /// here. Nothing in them depends on the build profile: debug and
    /// release builds must agree on every literal.
    #[test]
    fn preset_config_fingerprints_are_pinned() {
        let expected = [
            (
                OptimizerConfig::paper_default(),
                [
                    "99a6d8424e0ac0eb",
                    "a72b48b91b5ab425",
                    "72cda8c5f89cf6a1",
                    "44f04cc9047e8a58",
                    "c8dee8c1dcc63f84",
                    "3ef5281038701652",
                ],
            ),
            (
                OptimizerConfig::fast_test(),
                [
                    "d5b23a96fe2bd7dd",
                    "cc8ce014118e131f",
                    "7d087b7162cf0f70",
                    "ce0bad2cfd8a5446",
                    "c6f982d1a7c8cc46",
                    "c75cb1751d3af013",
                ],
            ),
        ];
        for (cfg, fps) in expected {
            for (strategy, fp) in Strategy::ALL.into_iter().zip(fps) {
                assert_eq!(
                    config_fingerprint(&cfg, strategy).to_string(),
                    fp,
                    "{strategy:?}"
                );
            }
        }
    }

    #[test]
    fn plan_resolves_and_pins_payload_bytes() {
        let g = models::tiny_branchy();
        let req = PlanRequest::new(&g, OptimizerConfig::fast_test());
        let a = plan(&req).unwrap();
        let b = plan(&req).unwrap();
        assert_eq!(a.plan, b.plan, "plan payload must be deterministic");
        assert!(a.stats.total_cycles > 0);
        assert!(a.detail.is_some());
        let parsed = Json::parse(&a.plan).unwrap();
        assert_eq!(
            parsed.get("graph_fp").and_then(Json::as_str),
            Some(a.graph_fp.to_string().as_str())
        );
        assert_eq!(parsed.get("strategy").and_then(Json::as_str), Some("AD"));
    }

    #[test]
    fn baseline_strategies_resolve_without_detail() {
        let g = models::tiny_branchy();
        let req = PlanRequest::new(&g, OptimizerConfig::fast_test())
            .with_strategy(Strategy::LayerSequential);
        let r = plan(&req).unwrap();
        assert!(r.detail.is_none());
        assert!(r.stats.total_cycles > 0);
        assert!(!Json::parse(&r.plan)
            .unwrap()
            .to_compact()
            .contains("detail"));
    }

    #[test]
    fn admission_refusal_kinds_are_stable_protocol_tags() {
        let overloaded = AdmissionRefusal::Overloaded {
            queued: 9,
            max_queue: 8,
        };
        let deadline = AdmissionRefusal::DeadlineExceeded {
            deadline_ms: 50,
            waited_ms: 61,
        };
        // The kind strings are wire format: clients match on them.
        assert_eq!(overloaded.kind(), "overloaded");
        assert_eq!(deadline.kind(), "deadline_exceeded");
        assert_eq!(AdmissionRefusal::ShuttingDown.kind(), "shutting_down");
        assert!(overloaded.to_string().contains("bound 8"));
        assert!(deadline.to_string().contains("50 ms deadline"));
    }

    #[test]
    fn deadline_stays_out_of_the_config_fingerprint_key_space() {
        // The admission deadline is per-request edge state that the
        // config does not carry; two requests differing only in admission
        // deadline share one config and so one cache key.
        let cfg = OptimizerConfig::fast_test();
        let a = config_fingerprint(&cfg, Strategy::AtomicDataflow);
        let b = config_fingerprint(&cfg, Strategy::AtomicDataflow);
        assert_eq!(a, b);
    }

    #[test]
    fn plan_refuses_batches_outside_the_batch_sample_space() {
        let g = models::tiny_cnn();
        for batch in [0, crate::MAX_BATCH + 1, usize::MAX] {
            let cfg = OptimizerConfig::fast_test().with_batch(batch);
            for strategy in [Strategy::AtomicDataflow, Strategy::LayerSequential] {
                let err = plan(&PlanRequest::new(&g, cfg).with_strategy(strategy)).unwrap_err();
                assert_eq!(
                    err,
                    PipelineError::BatchOutOfRange { batch },
                    "{strategy:?}"
                );
            }
        }
    }
}
