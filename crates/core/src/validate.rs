//! Independent plan admission: one checker per pipeline artifact.
//!
//! The planner has four generations of optimization behind it (dense tables,
//! DP memoization, SA fast paths, parallel search); this module is the
//! *oracle* those hot paths are audited against. Each checker re-derives the
//! legality of an artifact from first principles — the paper's Alg. 1 tiling
//! contract for the [`AtomicDag`], Alg. 2's round discipline for the
//! [`Schedule`], Sec. IV-C's engine-exclusivity for the mapping, and
//! conservation laws for the lowered [`Program`] and simulated
//! [`SimStats`] — without reusing any planner data structure, so a silent
//! invariant break in an optimized path cannot hide.
//!
//! Checkers are pure functions returning the *first* violated invariant as a
//! typed [`ValidationError`] carrying the artifact path (e.g.
//! `schedule/round 3`) and the violated [`Invariant`]. [`admit`] runs them
//! over a planned context. It runs in every build, once per plan, in the
//! code that hands the plan out: [`Optimizer::optimize`](crate::Optimizer::optimize)
//! on its winner, [`Pipeline::execute`](crate::Pipeline::execute) and CNN-P's
//! search on their plans, and [`run_with_recovery`](crate::run_with_recovery)
//! on every attempt before it is simulated. The pipeline stages and the
//! recovery ladder's rungs audit nothing themselves. A violation is a
//! planner bug, surfaced as
//! [`PipelineError::Validation`](crate::PipelineError) naming the
//! invariant; no caller falls back to another plan.
//!
//! The second half of the admission layer is [`PlanBudget`]: a
//! deterministic iteration cap on DP scheduling. On exhaustion the search
//! keeps its best-so-far plan and surfaces the
//! outcome as a [`BudgetOutcome`] in [`StageReport`](crate::StageReport)
//! and [`OptimizeResult`](crate::OptimizeResult).

use std::fmt;

use accel_sim::{Program, SimStats};
use dnn_graph::Graph;
use engine_model::{Dataflow, EngineConfig};

use crate::atom::{AtomCoords, Range};
use crate::atomic_dag::{AtomId, AtomicDag};
use crate::pipeline::PlanContext;
use crate::scheduler::Schedule;

/// Which pipeline artifact a violation was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    AtomicDag,
    Schedule,
    Mapping,
    Program,
    SimStats,
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Artifact::AtomicDag => "atomic-dag",
            Artifact::Schedule => "schedule",
            Artifact::Mapping => "mapping",
            Artifact::Program => "program",
            Artifact::SimStats => "sim-stats",
        };
        f.write_str(s)
    }
}

/// The invariant catalogue (DESIGN.md §12). One variant per checkable law.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Atoms of a layer cover the layer's output tensor exactly (Alg. 1).
    TilingCoverage,
    /// No two atoms of a layer overlap in output space (Alg. 1).
    TilingOverlap,
    /// Array-op atom channel/spatial dims are PE-multiples or edge
    /// remainders (Alg. 1 snapping).
    PeAlignment,
    /// A round holds more atoms than there are engines (Alg. 2, `≤ N`).
    RoundOversized,
    /// A round is empty (rounds must make progress).
    EmptyRound,
    /// A pending atom never appears in the schedule.
    AtomUnscheduled,
    /// An atom appears in more than one round (or twice in one).
    AtomDoubleScheduled,
    /// An already-completed atom is re-scheduled.
    CompletedAtomScheduled,
    /// A consumer runs no later than its producer (Alg. 2 closure).
    DependencyOrder,
    /// Two atoms in one round share an engine (Sec. IV-C exclusivity).
    DuplicateEngine,
    /// A mapping targets an engine outside the mesh.
    EngineOutOfRange,
    /// A mapping targets an engine marked dead by the fault plan.
    DeadEngine,
    /// Mapping rounds disagree with the schedule's rounds.
    RoundMismatch,
    /// The lowered program violates its own IR rules (see `ProgramError`).
    ProgramRule,
    /// Program task count disagrees with pending atom count.
    TaskCount,
    /// Program MAC total disagrees with the DAG's MAC total.
    MacConservation,
    /// Per-engine busy cycles exceed total cycles, or similar.
    CycleConservation,
    /// A reported ratio left `[0, 1]`.
    RatioRange,
    /// An energy component is negative or non-finite.
    NonFiniteEnergy,
    /// Degradation counters are mutually inconsistent.
    CounterConservation,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Invariant::TilingCoverage => "tiling-coverage",
            Invariant::TilingOverlap => "tiling-overlap",
            Invariant::PeAlignment => "pe-alignment",
            Invariant::RoundOversized => "round-oversized",
            Invariant::EmptyRound => "empty-round",
            Invariant::AtomUnscheduled => "atom-unscheduled",
            Invariant::AtomDoubleScheduled => "atom-double-scheduled",
            Invariant::CompletedAtomScheduled => "completed-atom-scheduled",
            Invariant::DependencyOrder => "dependency-order",
            Invariant::DuplicateEngine => "duplicate-engine",
            Invariant::EngineOutOfRange => "engine-out-of-range",
            Invariant::DeadEngine => "dead-engine",
            Invariant::RoundMismatch => "round-mismatch",
            Invariant::ProgramRule => "program-rule",
            Invariant::TaskCount => "task-count",
            Invariant::MacConservation => "mac-conservation",
            Invariant::CycleConservation => "cycle-conservation",
            Invariant::RatioRange => "ratio-range",
            Invariant::NonFiniteEnergy => "non-finite-energy",
            Invariant::CounterConservation => "counter-conservation",
        };
        f.write_str(s)
    }
}

/// A typed admission violation: which artifact, which invariant, where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    pub artifact: Artifact,
    pub invariant: Invariant,
    /// Slash-separated locator inside the artifact, e.g. `schedule/round 3`.
    pub path: String,
    /// Human-readable specifics (expected vs got).
    pub detail: String,
}

impl ValidationError {
    fn new(
        artifact: Artifact,
        invariant: Invariant,
        path: impl Into<String>,
        detail: impl Into<String>,
    ) -> Self {
        ValidationError {
            artifact,
            invariant,
            path: path.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} invariant `{}` violated at {}: {}",
            self.artifact, self.invariant, self.path, self.detail
        )
    }
}

impl std::error::Error for ValidationError {}

/// Deterministic anytime-planning budget.
///
/// The cap is checked against an iteration counter, so two runs at the
/// same budget visit the same search prefix and produce byte-identical
/// plans. The wall clock has no say: a plan is a function of its request.
/// Atom generation needs no cap of its own: Alg. 1 already stops at
/// [`crate::SaParams::max_iters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanBudget {
    /// Cap on DP combination evaluations (scheduling, Alg. 2).
    pub dp_expansions: Option<u64>,
}

impl PlanBudget {
    /// No limits: planning runs to completion.
    pub fn unlimited() -> Self {
        PlanBudget::default()
    }

    pub fn with_dp_expansions(mut self, expansions: u64) -> Self {
        self.dp_expansions = Some(expansions);
        self
    }
}

/// How a planning run related to its [`PlanBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetOutcome {
    /// The search ran to natural completion within budget.
    #[default]
    Completed,
    /// A budget cap fired in `stage`; the plan is the best found so far.
    Truncated { stage: &'static str },
}

impl BudgetOutcome {
    pub fn is_truncated(&self) -> bool {
        matches!(self, BudgetOutcome::Truncated { .. })
    }
}

impl fmt::Display for BudgetOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetOutcome::Completed => f.write_str("completed"),
            BudgetOutcome::Truncated { stage } => write!(f, "truncated@{stage}"),
        }
    }
}

// Bits in `PlanContext::validated`, marking artifacts already audited so
// admission runs each checker at most once per (re)plan.
pub(crate) const VALIDATED_DAG: u8 = 1;
pub(crate) const VALIDATED_SCHED: u8 = 1 << 1;
pub(crate) const VALIDATED_MAP: u8 = 1 << 2;
pub(crate) const VALIDATED_PROG: u8 = 1 << 3;
pub(crate) const VALIDATED_STATS: u8 = 1 << 4;
/// Bits cleared by `PlanContext::reset_plan` (the DAG survives replans).
pub(crate) const PLAN_BITS: u8 = VALIDATED_SCHED | VALIDATED_MAP | VALIDATED_PROG | VALIDATED_STATS;

/// Audit every newly produced artifact in `ctx`, returning the first
/// violation. Sets the corresponding `validated` bit even on failure, so
/// no artifact is audited twice.
pub fn admit(ctx: &mut PlanContext<'_>) -> Result<(), ValidationError> {
    let mut first: Option<ValidationError> = None;
    let record = |r: Result<(), ValidationError>, first: &mut Option<ValidationError>| {
        if let Err(e) = r {
            if first.is_none() {
                *first = Some(e);
            }
        }
    };

    if let Some(dag) = &ctx.dag {
        if ctx.validated & VALIDATED_DAG == 0 {
            ctx.validated |= VALIDATED_DAG;
            let alignment = if ctx.gen_report.is_some() {
                Some((ctx.cfg.dataflow, &ctx.cfg.sim.engine))
            } else {
                None
            };
            record(check_dag(dag, ctx.graph, alignment), &mut first);
        }
    }
    if let (Some(dag), Some(schedule)) = (&ctx.dag, &ctx.schedule) {
        if ctx.validated & VALIDATED_SCHED == 0 {
            ctx.validated |= VALIDATED_SCHED;
            record(
                check_schedule(dag, schedule, &ctx.done, ctx.alive_engines()),
                &mut first,
            );
        }
    }
    if let (Some(dag), Some(mapped)) = (&ctx.dag, &ctx.mapped) {
        if ctx.validated & VALIDATED_MAP == 0 {
            ctx.validated |= VALIDATED_MAP;
            record(
                check_mapping(
                    dag,
                    mapped,
                    ctx.schedule.as_ref(),
                    &ctx.done,
                    &ctx.dead_engines,
                    ctx.cfg.engines(),
                ),
                &mut first,
            );
        }
    }
    if let Some(program) = &ctx.program {
        if ctx.validated & VALIDATED_PROG == 0 {
            ctx.validated |= VALIDATED_PROG;
            let dag_info = ctx.dag.as_ref().map(|d| (d, ctx.done.as_slice()));
            record(
                check_program(program, ctx.cfg.engines(), dag_info),
                &mut first,
            );
        }
    }
    if let Some(stats) = &ctx.stats {
        if ctx.validated & VALIDATED_STATS == 0 {
            ctx.validated |= VALIDATED_STATS;
            record(check_stats(stats, ctx.program.as_ref()), &mut first);
        }
    }

    match first {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Alg. 1 tiling contract: per (batch, layer) the atoms partition the
/// layer's output tensor — in-bounds, disjoint, and covering it exactly.
/// When `graph` is absent (recovery replans drop the graph borrow) the
/// element-count check degrades to a bounding-box variant. `alignment`
/// (dataflow + engine) additionally enforces PE-multiple dims on array ops;
/// it is only passed for planner-generated DAGs (snapped candidates), not
/// for baseline grid splits.
pub fn check_dag(
    dag: &AtomicDag,
    graph: Option<&Graph>,
    alignment: Option<(Dataflow, &EngineConfig)>,
) -> Result<(), ValidationError> {
    for batch in 0..dag.batch() {
        for layer in 0..dag.layer_count() {
            let lid = dnn_graph::LayerId(ad_util::cast::u32_from_usize(layer));
            let ids = dag.layer_atoms(batch, lid);
            if ids.is_empty() {
                continue; // input layers produce no atoms
            }
            let path = |suffix: String| format!("dag/b{batch}/layer{layer}{suffix}");

            // Expected output extent: from the graph when available,
            // otherwise the bounding box of the atoms themselves.
            let (oh, ow, oc, exact) = match graph {
                Some(g) => {
                    let out = g.layer(lid).out_shape();
                    (out.h, out.w, out.c, true)
                }
                None => {
                    let mut h = 0;
                    let mut w = 0;
                    let mut c = 0;
                    for &id in ids {
                        let co = &dag.atom(id).coords;
                        h = h.max(co.h.end);
                        w = w.max(co.w.end);
                        c = c.max(co.c.end);
                    }
                    (h, w, c, false)
                }
            };

            let mut covered: u64 = 0;
            for &id in ids {
                let co = &dag.atom(id).coords;
                if co.h.end > oh || co.w.end > ow || co.c.end > oc {
                    return Err(ValidationError::new(
                        Artifact::AtomicDag,
                        Invariant::TilingCoverage,
                        path(format!("/atom{}", id.0)),
                        format!(
                            "atom extent ({},{},{}) exceeds layer output ({oh},{ow},{oc})",
                            co.h.end, co.w.end, co.c.end
                        ),
                    ));
                }
                if co.h.is_empty() || co.w.is_empty() || co.c.is_empty() {
                    return Err(ValidationError::new(
                        Artifact::AtomicDag,
                        Invariant::TilingCoverage,
                        path(format!("/atom{}", id.0)),
                        "empty atom tile".to_string(),
                    ));
                }
                covered += co.elements();
            }

            // Disjointness: proven by the grid check in O(k log k); the
            // pairwise scan runs only when that proof fails, and then names
            // the first overlapping pair.
            let tiles: Vec<AtomCoords> = ids.iter().map(|&id| dag.atom(id).coords).collect();
            if !grid_disjoint(&tiles) {
                for (i, &a) in ids.iter().enumerate() {
                    for &b in &ids[i + 1..] {
                        let ov = dag.atom(a).coords.overlap_elements(&dag.atom(b).coords);
                        if ov != 0 {
                            return Err(ValidationError::new(
                                Artifact::AtomicDag,
                                Invariant::TilingOverlap,
                                path(format!("/atom{}+atom{}", a.0, b.0)),
                                format!("atoms overlap in {ov} output elements"),
                            ));
                        }
                    }
                }
            }

            let expect = (oh as u64) * (ow as u64) * (oc as u64);
            if exact && covered != expect {
                return Err(ValidationError::new(
                    Artifact::AtomicDag,
                    Invariant::TilingCoverage,
                    path(String::new()),
                    format!("atoms cover {covered} elements, layer output has {expect}"),
                ));
            }
            if !exact && covered > expect {
                return Err(ValidationError::new(
                    Artifact::AtomicDag,
                    Invariant::TilingCoverage,
                    path(String::new()),
                    format!("atoms cover {covered} elements, bounding box holds {expect}"),
                ));
            }

            if let (Some((dataflow, engine)), Some(g)) = (alignment, graph) {
                let l = g.layer(lid);
                if l.is_array_op() {
                    for &id in ids {
                        check_atom_alignment(dag, id, dataflow, engine, oh, ow, oc).map_err(
                            |d| {
                                ValidationError::new(
                                    Artifact::AtomicDag,
                                    Invariant::PeAlignment,
                                    path(format!("/atom{}", id.0)),
                                    d,
                                )
                            },
                        )?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Proves `tiles` pairwise disjoint when they form a grid: on each axis,
/// every tile spans exactly one cell between consecutive distinct bounds.
/// Those cells partition space, so two such tiles overlap only if they are
/// the same cell, i.e. share an origin. O(k log k); `false` means the
/// proof does not apply or found a shared origin, not that tiles overlap.
fn grid_disjoint(tiles: &[AtomCoords]) -> bool {
    let axes: [fn(&AtomCoords) -> Range; 3] = [|t| t.h, |t| t.w, |t| t.c];
    for axis in axes {
        let mut bounds: Vec<usize> = tiles
            .iter()
            .flat_map(|t| [axis(t).start, axis(t).end])
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        let one_cell = |t: &AtomCoords| {
            let r = axis(t);
            bounds
                .binary_search(&r.start)
                .is_ok_and(|i| bounds.get(i + 1) == Some(&r.end))
        };
        if !tiles.iter().all(one_cell) {
            return false;
        }
    }
    let mut origins: Vec<(usize, usize, usize)> = tiles
        .iter()
        .map(|t| (t.h.start, t.w.start, t.c.start))
        .collect();
    origins.sort_unstable();
    origins.windows(2).all(|w| w[0] != w[1])
}

/// Per-atom PE-alignment for array ops: the snapped dimension is either a
/// PE multiple or runs to the layer edge (Alg. 1's snapping rule).
fn check_atom_alignment(
    dag: &AtomicDag,
    id: AtomId,
    dataflow: Dataflow,
    engine: &EngineConfig,
    oh: usize,
    ow: usize,
    oc: usize,
) -> Result<(), String> {
    let co = &dag.atom(id).coords;
    let aligned = |len: usize, pe: usize, end: usize, edge: usize| -> bool {
        pe == 0 || len % pe == 0 || end == edge
    };
    match dataflow {
        Dataflow::KcPartition => {
            if !aligned(co.c.len(), engine.pe_y, co.c.end, oc) {
                return Err(format!(
                    "KC channel tile {} not a multiple of pe_y={} and not at edge {}",
                    co.c.len(),
                    engine.pe_y,
                    oc
                ));
            }
        }
        Dataflow::YxPartition => {
            if !aligned(co.h.len(), engine.pe_x, co.h.end, oh) {
                return Err(format!(
                    "YX height tile {} not a multiple of pe_x={} and not at edge {}",
                    co.h.len(),
                    engine.pe_x,
                    oh
                ));
            }
            if !aligned(co.w.len(), engine.pe_y, co.w.end, ow) {
                return Err(format!(
                    "YX width tile {} not a multiple of pe_y={} and not at edge {}",
                    co.w.len(),
                    engine.pe_y,
                    ow
                ));
            }
        }
    }
    Ok(())
}

/// Alg. 2 round discipline: every pending atom scheduled exactly once, no
/// round wider than the engine count, no empty rounds, and every atom's
/// predecessors either already done or in a strictly earlier round.
pub fn check_schedule(
    dag: &AtomicDag,
    schedule: &Schedule,
    done: &[bool],
    engines: usize,
) -> Result<(), ValidationError> {
    let n = dag.atom_count();
    let mut round_of: Vec<usize> = vec![usize::MAX; n];
    for (r, round) in schedule.rounds.iter().enumerate() {
        if round.is_empty() {
            return Err(ValidationError::new(
                Artifact::Schedule,
                Invariant::EmptyRound,
                format!("schedule/round {r}"),
                "round contains no atoms".to_string(),
            ));
        }
        if round.len() > engines {
            return Err(ValidationError::new(
                Artifact::Schedule,
                Invariant::RoundOversized,
                format!("schedule/round {r}"),
                format!("{} atoms > {engines} engines", round.len()),
            ));
        }
        for &id in round {
            let i = id.index();
            if i >= n {
                return Err(ValidationError::new(
                    Artifact::Schedule,
                    Invariant::AtomUnscheduled,
                    format!("schedule/round {r}/atom{}", id.0),
                    format!("atom id out of range (dag has {n} atoms)"),
                ));
            }
            if done.get(i).copied().unwrap_or(false) {
                return Err(ValidationError::new(
                    Artifact::Schedule,
                    Invariant::CompletedAtomScheduled,
                    format!("schedule/round {r}/atom{}", id.0),
                    "atom already completed before this plan".to_string(),
                ));
            }
            if round_of[i] != usize::MAX {
                return Err(ValidationError::new(
                    Artifact::Schedule,
                    Invariant::AtomDoubleScheduled,
                    format!("schedule/round {r}/atom{}", id.0),
                    format!("also scheduled in round {}", round_of[i]),
                ));
            }
            round_of[i] = r;
        }
    }
    for (i, &in_round) in round_of.iter().enumerate() {
        let pending = !done.get(i).copied().unwrap_or(false);
        if pending && in_round == usize::MAX {
            return Err(ValidationError::new(
                Artifact::Schedule,
                Invariant::AtomUnscheduled,
                format!("schedule/atom{i}"),
                "pending atom never scheduled".to_string(),
            ));
        }
    }
    for (r, round) in schedule.rounds.iter().enumerate() {
        for &id in round {
            for (pred, _) in dag.preds(id) {
                let p = pred.index();
                if done.get(p).copied().unwrap_or(false) {
                    continue;
                }
                if round_of[p] >= r {
                    return Err(ValidationError::new(
                        Artifact::Schedule,
                        Invariant::DependencyOrder,
                        format!("schedule/round {r}/atom{}", id.0),
                        format!(
                            "predecessor atom{} is in round {} (needs < {r})",
                            pred.0, round_of[p]
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Sec. IV-C mapping legality: per round each engine used at most once,
/// engines in-mesh and alive, every pending atom mapped exactly once, and
/// cross-round dependency order preserved. Works standalone (baselines
/// build mappings without a `Schedule`); when a schedule is present the
/// mapping's rounds must agree with it atom-for-atom.
pub fn check_mapping(
    dag: &AtomicDag,
    mapped: &[Vec<(AtomId, usize)>],
    schedule: Option<&Schedule>,
    done: &[bool],
    dead: &[usize],
    engines: usize,
) -> Result<(), ValidationError> {
    let n = dag.atom_count();
    let mut round_of: Vec<usize> = vec![usize::MAX; n];
    let mut engine_round: Vec<usize> = vec![usize::MAX; engines];
    for (r, round) in mapped.iter().enumerate() {
        for &(id, engine) in round {
            let i = id.index();
            if engine >= engines {
                return Err(ValidationError::new(
                    Artifact::Mapping,
                    Invariant::EngineOutOfRange,
                    format!("mapping/round {r}/atom{}", id.0),
                    format!("engine {engine} outside mesh of {engines}"),
                ));
            }
            if dead.contains(&engine) {
                return Err(ValidationError::new(
                    Artifact::Mapping,
                    Invariant::DeadEngine,
                    format!("mapping/round {r}/atom{}", id.0),
                    format!("engine {engine} is marked dead"),
                ));
            }
            if engine_round[engine] == r {
                return Err(ValidationError::new(
                    Artifact::Mapping,
                    Invariant::DuplicateEngine,
                    format!("mapping/round {r}/engine{engine}"),
                    "two atoms share one engine in one round".to_string(),
                ));
            }
            engine_round[engine] = r;
            if i >= n {
                return Err(ValidationError::new(
                    Artifact::Mapping,
                    Invariant::AtomUnscheduled,
                    format!("mapping/round {r}/atom{}", id.0),
                    format!("atom id out of range (dag has {n} atoms)"),
                ));
            }
            if done.get(i).copied().unwrap_or(false) {
                return Err(ValidationError::new(
                    Artifact::Mapping,
                    Invariant::CompletedAtomScheduled,
                    format!("mapping/round {r}/atom{}", id.0),
                    "atom already completed before this plan".to_string(),
                ));
            }
            if round_of[i] != usize::MAX {
                return Err(ValidationError::new(
                    Artifact::Mapping,
                    Invariant::AtomDoubleScheduled,
                    format!("mapping/round {r}/atom{}", id.0),
                    format!("also mapped in round {}", round_of[i]),
                ));
            }
            round_of[i] = r;
        }
    }
    for (i, &in_round) in round_of.iter().enumerate() {
        let pending = !done.get(i).copied().unwrap_or(false);
        if pending && in_round == usize::MAX {
            return Err(ValidationError::new(
                Artifact::Mapping,
                Invariant::AtomUnscheduled,
                format!("mapping/atom{i}"),
                "pending atom never mapped".to_string(),
            ));
        }
    }
    for (r, round) in mapped.iter().enumerate() {
        for &(id, _) in round {
            for (pred, _) in dag.preds(id) {
                let p = pred.index();
                if done.get(p).copied().unwrap_or(false) {
                    continue;
                }
                if round_of[p] >= r {
                    return Err(ValidationError::new(
                        Artifact::Mapping,
                        Invariant::DependencyOrder,
                        format!("mapping/round {r}/atom{}", id.0),
                        format!(
                            "predecessor atom{} is in round {} (needs < {r})",
                            pred.0, round_of[p]
                        ),
                    ));
                }
            }
        }
    }
    if let Some(schedule) = schedule {
        if mapped.len() != schedule.rounds.len() {
            return Err(ValidationError::new(
                Artifact::Mapping,
                Invariant::RoundMismatch,
                "mapping".to_string(),
                format!(
                    "{} mapped rounds vs {} scheduled rounds",
                    mapped.len(),
                    schedule.rounds.len()
                ),
            ));
        }
        for (r, (m, s)) in mapped.iter().zip(&schedule.rounds).enumerate() {
            let mut ma: Vec<u32> = m.iter().map(|&(id, _)| id.0).collect();
            let mut sa: Vec<u32> = s.iter().map(|id| id.0).collect();
            ma.sort_unstable();
            sa.sort_unstable();
            if ma != sa {
                return Err(ValidationError::new(
                    Artifact::Mapping,
                    Invariant::RoundMismatch,
                    format!("mapping/round {r}"),
                    "mapped atoms differ from scheduled atoms".to_string(),
                ));
            }
        }
    }
    Ok(())
}

/// Program-level admission: the IR's own rules (`Program::validate`, the
/// same check the simulator runs, operand over-reads included), plus
/// conservation against the DAG when available — task count equals pending
/// atoms, MACs conserved.
///
/// Buffer capacity is deliberately *not* enforced: the simulator legally
/// spills oversized outputs to DRAM (Alg. 3's eviction handles
/// over-capacity residents), so a static capacity bound would reject legal
/// plans.
pub fn check_program(
    program: &Program,
    engines: usize,
    dag_info: Option<(&AtomicDag, &[bool])>,
) -> Result<(), ValidationError> {
    if let Err(e) = program.validate(engines) {
        return Err(ValidationError::new(
            Artifact::Program,
            Invariant::ProgramRule,
            "program".to_string(),
            e.to_string(),
        ));
    }
    if let Some((dag, done)) = dag_info {
        let pending = (0..dag.atom_count())
            .filter(|&i| !done.get(i).copied().unwrap_or(false))
            .count();
        if program.tasks().len() != dag.atom_count() || program.pending_tasks() != pending {
            return Err(ValidationError::new(
                Artifact::Program,
                Invariant::TaskCount,
                "program/tasks".to_string(),
                format!(
                    "{} tasks ({} pending) vs {} atoms ({pending} pending)",
                    program.tasks().len(),
                    program.pending_tasks(),
                    dag.atom_count()
                ),
            ));
        }
        let dag_macs: u64 = (0..dag.atom_count())
            .filter(|&i| !done.get(i).copied().unwrap_or(false))
            .map(|i| dag.atom(AtomId(ad_util::cast::u32_from_usize(i))).cost.macs)
            .sum();
        if program.total_macs() != dag_macs {
            return Err(ValidationError::new(
                Artifact::Program,
                Invariant::MacConservation,
                "program/macs".to_string(),
                format!(
                    "program carries {} MACs, dag pending {dag_macs}",
                    program.total_macs()
                ),
            ));
        }
    }
    Ok(())
}

/// Stats-level admission: ratios in range, energy finite and non-negative,
/// per-engine busy cycles bounded by total cycles, degradation counters
/// mutually consistent, and (when the program is at hand) task/round/MAC
/// totals conserved through simulation.
pub fn check_stats(stats: &SimStats, program: Option<&Program>) -> Result<(), ValidationError> {
    const EPS: f64 = 1e-6;
    let ratios = [
        ("pe_utilization", stats.pe_utilization),
        ("compute_utilization", stats.compute_utilization),
        ("onchip_reuse_ratio", stats.onchip_reuse_ratio),
    ];
    for (name, v) in ratios {
        if !v.is_finite() || !(0.0..=1.0 + EPS).contains(&v) {
            return Err(ValidationError::new(
                Artifact::SimStats,
                Invariant::RatioRange,
                format!("stats/{name}"),
                format!("{v} outside [0, 1]"),
            ));
        }
    }
    let energies = [
        ("compute_pj", stats.energy.compute_pj),
        ("noc_pj", stats.energy.noc_pj),
        ("dram_pj", stats.energy.dram_pj),
        ("static_pj", stats.energy.static_pj),
    ];
    for (name, v) in energies {
        if !v.is_finite() || v < 0.0 {
            return Err(ValidationError::new(
                Artifact::SimStats,
                Invariant::NonFiniteEnergy,
                format!("stats/energy/{name}"),
                format!("{v} is negative or non-finite"),
            ));
        }
    }
    let derate = stats.degradation.hbm_derate;
    if !derate.is_finite() || !(0.0..=1.0 + EPS).contains(&derate) {
        return Err(ValidationError::new(
            Artifact::SimStats,
            Invariant::RatioRange,
            "stats/degradation/hbm_derate".to_string(),
            format!("{derate} outside [0, 1]"),
        ));
    }
    for (e, &busy) in stats.engine_busy_cycles.iter().enumerate() {
        if busy > stats.total_cycles {
            return Err(ValidationError::new(
                Artifact::SimStats,
                Invariant::CycleConservation,
                format!("stats/engine{e}"),
                format!("busy {busy} cycles > total {}", stats.total_cycles),
            ));
        }
    }
    let deg = &stats.degradation;
    if deg.lost_tasks > u64::from(ad_util::cast::u32_from_usize(stats.tasks)) + deg.rerun_tasks {
        return Err(ValidationError::new(
            Artifact::SimStats,
            Invariant::CounterConservation,
            "stats/degradation/lost_tasks".to_string(),
            format!(
                "lost {} tasks but only {} executed (+{} reruns)",
                deg.lost_tasks, stats.tasks, deg.rerun_tasks
            ),
        ));
    }
    if let Some(program) = program {
        if stats.tasks != program.pending_tasks() {
            return Err(ValidationError::new(
                Artifact::SimStats,
                Invariant::TaskCount,
                "stats/tasks".to_string(),
                format!(
                    "{} simulated vs {} pending in program",
                    stats.tasks,
                    program.pending_tasks()
                ),
            ));
        }
        if stats.rounds != program.rounds().len() {
            return Err(ValidationError::new(
                Artifact::SimStats,
                Invariant::TaskCount,
                "stats/rounds".to_string(),
                format!(
                    "{} simulated vs {} in program",
                    stats.rounds,
                    program.rounds().len()
                ),
            ));
        }
        if stats.total_macs != program.total_macs() {
            return Err(ValidationError::new(
                Artifact::SimStats,
                Invariant::MacConservation,
                "stats/total_macs".to_string(),
                format!(
                    "{} simulated vs {} in program",
                    stats.total_macs,
                    program.total_macs()
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PlanContext};
    use crate::OptimizerConfig;
    use dnn_graph::models;

    fn planned_ctx(graph: &Graph) -> PlanContext<'_> {
        let cfg = OptimizerConfig::fast_test();
        let mut ctx = PlanContext::new(graph, cfg);
        Pipeline::standard(Some(24), None)
            .run(&mut ctx)
            .expect("pipeline");
        ctx
    }

    #[test]
    fn clean_plan_admits() {
        let g = models::tiny_cnn();
        let mut ctx = planned_ctx(&g);
        ctx.validated = 0;
        assert_eq!(admit(&mut ctx), Ok(()));
        // All artifact bits set after a full audit.
        assert_eq!(
            ctx.validated,
            VALIDATED_DAG | VALIDATED_SCHED | VALIDATED_MAP | VALIDATED_PROG | VALIDATED_STATS
        );
    }

    #[test]
    fn corrupted_schedule_is_rejected_with_typed_invariant() {
        let g = models::tiny_cnn();
        let ctx = planned_ctx(&g);
        let dag = ctx.dag.as_ref().expect("dag");
        let mut schedule = ctx.schedule.clone().expect("schedule");

        // Duplicate the first atom into the last round: double-scheduled.
        let first = schedule.rounds[0][0];
        schedule.rounds.last_mut().expect("rounds").push(first);
        let err =
            check_schedule(dag, &schedule, &ctx.done, ctx.cfg.engines()).expect_err("must reject");
        assert_eq!(err.artifact, Artifact::Schedule);
        assert_eq!(err.invariant, Invariant::AtomDoubleScheduled);

        // Drop an atom entirely: unscheduled.
        let mut schedule = ctx.schedule.clone().expect("schedule");
        schedule.rounds[0].remove(0);
        if schedule.rounds[0].is_empty() {
            schedule.rounds.remove(0);
        }
        let err =
            check_schedule(dag, &schedule, &ctx.done, ctx.cfg.engines()).expect_err("must reject");
        assert!(matches!(
            err.invariant,
            Invariant::AtomUnscheduled | Invariant::DependencyOrder
        ));

        // Oversize a round past the engine count.
        let mut schedule = ctx.schedule.clone().expect("schedule");
        let all: Vec<_> = schedule.rounds.concat();
        schedule.rounds = vec![all];
        let err = check_schedule(dag, &schedule, &ctx.done, 1).expect_err("must reject");
        assert_eq!(err.invariant, Invariant::RoundOversized);
    }

    #[test]
    fn corrupted_mapping_is_rejected_with_typed_invariant() {
        let g = models::tiny_cnn();
        let ctx = planned_ctx(&g);
        let dag = ctx.dag.as_ref().expect("dag");
        let engines = ctx.cfg.engines();

        // Same engine twice in one round.
        let mut mapped = ctx.mapped.clone().expect("mapped");
        if mapped[0].len() >= 2 {
            mapped[0][1].1 = mapped[0][0].1;
        } else {
            let (id, _) = mapped[1][0];
            let e = mapped[0][0].1;
            mapped[0].push((id, e));
            mapped[1].remove(0);
        }
        let err =
            check_mapping(dag, &mapped, None, &ctx.done, &[], engines).expect_err("must reject");
        assert_eq!(err.artifact, Artifact::Mapping);
        assert!(matches!(
            err.invariant,
            Invariant::DuplicateEngine | Invariant::DependencyOrder | Invariant::EmptyRound
        ));

        // Engine beyond the mesh.
        let mut mapped = ctx.mapped.clone().expect("mapped");
        mapped[0][0].1 = engines + 7;
        let err =
            check_mapping(dag, &mapped, None, &ctx.done, &[], engines).expect_err("must reject");
        assert_eq!(err.invariant, Invariant::EngineOutOfRange);

        // Engine on the dead list.
        let mapped = ctx.mapped.clone().expect("mapped");
        let dead = vec![mapped[0][0].1];
        let err =
            check_mapping(dag, &mapped, None, &ctx.done, &dead, engines).expect_err("must reject");
        assert_eq!(err.invariant, Invariant::DeadEngine);

        // Mapping disagreeing with the schedule.
        let schedule = ctx.schedule.as_ref().expect("schedule");
        let mut mapped = ctx.mapped.clone().expect("mapped");
        mapped.last_mut().expect("rounds").clear();
        let err = check_mapping(dag, &mapped, Some(schedule), &ctx.done, &[], engines)
            .expect_err("must reject");
        assert!(matches!(
            err.invariant,
            Invariant::RoundMismatch | Invariant::AtomUnscheduled
        ));
    }

    #[test]
    fn corrupted_dag_overlap_is_rejected() {
        let g = models::tiny_cnn();
        let ctx = planned_ctx(&g);
        let dag = ctx.dag.as_ref().expect("dag");
        // The real DAG passes...
        check_dag(dag, Some(&g), None).expect("clean dag");
        // ...and fails against a graph whose outputs don't match.
        let other = models::tiny_branchy();
        assert!(check_dag(dag, Some(&other), None).is_err());
    }

    #[test]
    fn overlapping_atoms_with_matching_coverage_are_rejected() {
        let g = models::tiny_cnn();
        let ctx = planned_ctx(&g);
        let mut dag = ctx.dag.clone().expect("dag");
        // Every layer of a generated DAG is a grid, so the fast proof
        // accepts it without the pairwise scan.
        for layer in 0..dag.layer_count() {
            let lid = dnn_graph::LayerId(ad_util::cast::u32_from_usize(layer));
            let tiles: Vec<AtomCoords> = dag
                .layer_atoms(0, lid)
                .iter()
                .map(|&id| dag.atom(id).coords)
                .collect();
            assert!(grid_disjoint(&tiles), "layer {layer} is not a grid");
        }
        // Move an atom onto a later atom of the same shape: the layer's
        // element count still matches, so only the overlap check can fail.
        let (layer, a, b) = (0..dag.layer_count())
            .find_map(|layer| {
                let lid = dnn_graph::LayerId(ad_util::cast::u32_from_usize(layer));
                let ids = dag.layer_atoms(0, lid);
                let dims = |id: AtomId| {
                    let c = dag.atom(id).coords;
                    (c.h.len(), c.w.len(), c.c.len())
                };
                ids.iter().enumerate().find_map(|(i, &a)| {
                    ids[i + 1..]
                        .iter()
                        .find(|&&b| dims(a) == dims(b))
                        .map(|&b| (layer, a, b))
                })
            })
            .expect("some layer has two atoms of one shape");
        *dag.coords_mut(a) = dag.atom(b).coords;
        let err = check_dag(&dag, Some(&g), None).expect_err("must reject");
        assert_eq!(err.invariant, Invariant::TilingOverlap);
        assert_eq!(
            err.path,
            format!("dag/b0/layer{layer}/atom{}+atom{}", a.0, b.0)
        );
    }

    #[test]
    fn stats_checker_rejects_out_of_range_ratio() {
        let g = models::tiny_cnn();
        let ctx = planned_ctx(&g);
        let mut stats = ctx.stats.clone().expect("stats");
        check_stats(&stats, ctx.program.as_ref()).expect("clean stats");
        stats.pe_utilization = 1.5;
        let err = check_stats(&stats, None).expect_err("must reject");
        assert_eq!(err.invariant, Invariant::RatioRange);

        let mut stats = ctx.stats.clone().expect("stats");
        stats.energy.noc_pj = f64::NAN;
        let err = check_stats(&stats, None).expect_err("must reject");
        assert_eq!(err.invariant, Invariant::NonFiniteEnergy);

        let mut stats = ctx.stats.clone().expect("stats");
        stats.tasks += 1;
        let err = check_stats(&stats, ctx.program.as_ref()).expect_err("must reject");
        assert_eq!(err.invariant, Invariant::TaskCount);
    }

    #[test]
    fn budget_outcome_display_and_default() {
        assert_eq!(BudgetOutcome::default(), BudgetOutcome::Completed);
        assert_eq!(BudgetOutcome::Completed.to_string(), "completed");
        assert_eq!(
            BudgetOutcome::Truncated { stage: "schedule" }.to_string(),
            "truncated@schedule"
        );
        assert!(PlanBudget::unlimited() == PlanBudget::default());
    }
}
