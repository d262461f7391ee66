//! Fault recovery: re-planning a partially executed atomic DAG onto the
//! surviving engines.
//!
//! The simulator ([`Simulator::run_faulted`]) absorbs what it can — link
//! failures reroute, HBM derates serialize, an engine death is survivable
//! while the dead engine owes no tasks and held no datum's last copy. When
//! a death *is* fatal it stops at the round barrier and hands back a
//! [`FailureReport`](accel_sim::FailureReport). This module is the layer
//! above that report: it marks the surviving results done in a shared
//! [`PlanContext`], retires the dead engine, and repairs the plan through a
//! **degradation ladder** ([`LadderRung`]) instead of always replanning
//! from scratch:
//!
//! 1. [`LadderRung::ReuseSuffix`] — filter the prior plan's rounds by the
//!    updated `done` mask, patch atoms orphaned by the dead engine onto
//!    survivors in place ([`Mapper::patch_round`]), and spill round
//!    overflow (a full-width round no longer fits the shrunken mesh) into
//!    minimal inserted rounds. O(pending atoms); no search at all.
//! 2. [`LadderRung::ScopedReplan`] — reuse the prior rounds up to the first
//!    one touched by the perturbation, then DP-reschedule only the suffix
//!    and map it onto the survivors.
//! 3. [`LadderRung::FullReplan`] — the optimizer's own [`Pipeline::replan`]
//!    stage suffix (schedule → map → lower) over the whole remainder.
//!
//! The rungs are built from the pipeline's own parts: rung 3 is a stage
//! list, and rungs 1–2 place atoms with the same survivor mapper as
//! [`MapStage`] and lower through the same lowering as [`LowerStage`].
//! A rung whose mapping overflows the surviving mesh escalates to the next.
//! The rungs audit nothing: [`run_with_recovery`] admits every attempt's
//! plan ([`validate::admit`]) before simulating it, and a violation is a
//! bug returned as [`PipelineError::Validation`], never repaired by another
//! rung. The rungs trade plan *quality*, never validity. Rung choice is
//! driven by the perturbation size alone, never by the wall clock, so a
//! re-plan is a function of the context it repairs. Statistics of every
//! attempt, including the wasted partial runs, are merged so
//! latency/energy overheads are honest.

use std::collections::{BTreeSet, VecDeque};
use std::time::Instant; // ad-lint: allow(d2) — reporting-only replan and rung wall time

use accel_sim::{
    DegradationStats, FaultEvent, FaultKind, FaultPlan, FaultedOutcome, SimError, SimStats,
    Simulator,
};

use crate::atomic_dag::{AtomId, AtomicDag};
use crate::error::PipelineError;
use crate::lower::lower_remaining;
use crate::mapping::Mapper;
use crate::optimizer::OptimizerConfig;
use crate::pipeline::{Pipeline, PlanContext, StageReport};
use crate::scheduler::{Schedule, Scheduler, SchedulerConfig};
use crate::validate;

/// Recovery policy for fault-injected runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Upper bound on total run attempts (initial run + retries); `0`
    /// means unbounded, and `1` never re-plans: the first fatal engine
    /// failure is returned as a typed [`SimError::EngineFailed`]. Recovery
    /// converges regardless — every retry retires at least one engine — so
    /// the bound only caps worst-case work.
    pub max_attempts: usize,
    /// When `true` (the default), retries repair the prior plan through the
    /// degradation ladder ([`LadderRung`]); when `false`, every retry is a
    /// cold [`Pipeline::replan`] (the pre-ladder behavior, kept as the
    /// reference control of A/B measurements).
    pub incremental: bool,
}

impl RecoveryConfig {
    /// Re-plan on failure, as many times as the mesh can absorb.
    pub fn auto() -> Self {
        Self {
            max_attempts: 0,
            incremental: true,
        }
    }

    /// Fail fast: surface the first fatal engine failure as an error (a
    /// one-attempt budget).
    pub fn disabled() -> Self {
        Self {
            max_attempts: 1,
            ..Self::auto()
        }
    }

    /// Like [`RecoveryConfig::auto`] but replanning cold on every retry.
    pub fn cold() -> Self {
        Self {
            incremental: false,
            ..Self::auto()
        }
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self::auto()
    }
}

/// One rung of the recovery degradation ladder, cheapest first. See the
/// module docs for what each rung does; [`replan_attempt`] walks them in
/// order, escalating when a rung is inapplicable or its mapping overflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderRung {
    /// Reuse the prior plan's pending rounds, patching orphans in place.
    ReuseSuffix,
    /// Reuse the untouched prefix, DP-reschedule the perturbed suffix.
    ScopedReplan,
    /// Cold `schedule → map → lower` over the whole remainder.
    FullReplan,
}

impl LadderRung {
    /// Stable lowercase name (JSON keys, report labels).
    pub fn name(self) -> &'static str {
        match self {
            Self::ReuseSuffix => "reuse-suffix",
            Self::ScopedReplan => "scoped-replan",
            Self::FullReplan => "full-replan",
        }
    }
}

impl std::fmt::Display for LadderRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of a (possibly multi-attempt) fault-injected run.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Statistics merged over every attempt — wasted partial executions
    /// included — with [`SimStats::degradation`] describing the faults and
    /// the recovery work.
    pub stats: SimStats,
    /// Number of simulator runs (1 = no fatal failure).
    pub attempts: usize,
    /// Engines retired by fatal failures, in failure order.
    pub failed_engines: Vec<usize>,
    /// Per-attempt degradation counters, in attempt order (one entry per
    /// simulator run, the last being the completing attempt). The merged
    /// [`RecoveryOutcome::stats`] sums the event counters across attempts —
    /// each loss/reroute event happens in exactly one attempt, so
    /// `stats.degradation.lost_tasks == Σ attempt_degradation[i].lost_tasks`
    /// and likewise for `rerouted_transfers` (pinned by a conservation
    /// test). Structural counts (`engine_failures`, `dead_links`,
    /// `remap_rounds`, `rerun_tasks`) are instead rebuilt from the final
    /// attempt plus the retired-engine list, because persistent faults
    /// re-fire in every retry and summing them would double-count.
    pub attempt_degradation: Vec<DegradationStats>,
    /// Ladder rung used by each *retry* replan, in attempt order
    /// (`rungs.len() == attempts - 1`; empty when no failure occurred).
    pub rungs: Vec<LadderRung>,
}

/// Side-channel account of a recovery run that survives even the error
/// paths ([`run_with_recovery_traced`]): how far recovery got, which ladder
/// rungs it used, and the wall time of every replan. Wall times are
/// reporting-only and excluded from [`RecoveryOutcome`]'s equality.
#[derive(Debug, Clone, Default)]
pub struct RecoveryTrace {
    /// Simulator runs started (≥ 1 once planning succeeded).
    pub attempts: usize,
    /// Ladder rung of each retry replan, in order.
    pub rungs: Vec<LadderRung>,
    /// Wall time of each attempt's planning work (initial plan included),
    /// in milliseconds. Reporting-only: nondeterministic by nature.
    pub replan_wall_ms: Vec<f64>,
    /// Per-attempt degradation counters — unlike
    /// [`RecoveryOutcome::attempt_degradation`] this includes the final
    /// failing attempt when recovery errors out.
    pub attempt_degradation: Vec<DegradationStats>,
    /// Statistics merged over every attempt observed so far: the completed
    /// total on success, the partial account (failing attempt included) on
    /// the exhaustion/disabled error paths, `None` only when planning or
    /// simulation itself errored before producing stats.
    pub partial: Option<SimStats>,
}

/// Schedules, maps and simulates `dag` under the fault plan, re-planning
/// onto surviving engines whenever a fatal engine failure stops a run.
///
/// The original plan is carried across attempts: events that had not yet
/// fired continue on the same wall-clock timeline (shifted by the cycles
/// already consumed), and persistent faults that *had* fired — dead links,
/// HBM derates, engine deaths the run absorbed gracefully — are re-applied
/// at cycle 0 of the retry. Engines already retired by recovery are dropped
/// from retry plans (the mapper never assigns to them).
///
/// # Errors
///
/// - [`PipelineError::Sim`] wrapping [`SimError::EngineFailed`] when
///   recovery is disabled (or its attempt budget is exhausted) and an
///   engine failure is fatal;
/// - [`PipelineError::Schedule`] /
///   [`PipelineError::Mapping`] when the surviving mesh cannot hold the
///   remainder (e.g. every engine dead);
/// - [`PipelineError::Validation`] when an attempt's plan fails admission
///   (a planner bug: every attempt is audited before it is simulated);
/// - any error [`Simulator::run_faulted`] itself reports (malformed plans,
///   disconnected transfers with no DRAM fallback).
pub fn run_with_recovery(
    dag: &AtomicDag,
    cfg: &OptimizerConfig,
    plan: &FaultPlan,
    recovery: &RecoveryConfig,
) -> Result<RecoveryOutcome, PipelineError> {
    run_with_recovery_traced(dag, cfg, plan, recovery).1
}

/// Like [`run_with_recovery`], additionally returning a [`RecoveryTrace`]
/// that survives the error paths: when recovery is exhausted mid-workload
/// the trace still carries the merged partial statistics and the per-attempt
/// degradation counters accumulated so far (the chaos-soak harness and the
/// exhaustion tests consume exactly this).
pub fn run_with_recovery_traced(
    dag: &AtomicDag,
    cfg: &OptimizerConfig,
    plan: &FaultPlan,
    recovery: &RecoveryConfig,
) -> (RecoveryTrace, Result<RecoveryOutcome, PipelineError>) {
    let mut trace = RecoveryTrace::default();
    let result = run_recovery_inner(dag, cfg, plan, recovery, &mut trace);
    (trace, result)
}

fn run_recovery_inner(
    dag: &AtomicDag,
    cfg: &OptimizerConfig,
    plan: &FaultPlan,
    recovery: &RecoveryConfig,
    trace: &mut RecoveryTrace,
) -> Result<RecoveryOutcome, PipelineError> {
    let n = dag.atom_count();
    let sim = Simulator::new(cfg.sim);
    // One shared context repaired (or re-planned) per attempt: the `done`
    // mask and the dead-engine list persist across attempts, the plan
    // artifacts reset.
    let mut ctx = PlanContext::for_dag(dag.clone(), *cfg);
    ctx.done = vec![false; n];
    let mut merged: Option<SimStats> = None;
    let mut attempts = 0usize;
    let mut remap_rounds = 0u64;
    let mut elapsed = 0u64;
    // The failed attempt's mapped rounds: the reuse/scoped rungs repair
    // these instead of searching from scratch.
    let mut prior: Option<Vec<Vec<(AtomId, usize)>>> = None;

    loop {
        attempts += 1;
        trace.attempts = attempts;
        let t0 = Instant::now(); // ad-lint: allow(d2) — reporting-only replan wall time
        if attempts == 1 {
            ctx.reset_plan();
            Pipeline::replan().run(&mut ctx)?;
        } else {
            let rung = if recovery.incremental {
                replan_attempt(&mut ctx, prior.as_deref())?
            } else {
                ctx.reset_plan();
                Pipeline::replan().run(&mut ctx)?;
                LadderRung::FullReplan
            };
            trace.rungs.push(rung);
            remap_rounds += ctx.require_schedule("recovery")?.len() as u64;
        }
        trace.replan_wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        validate::admit(&mut ctx)?;
        let program = ctx.require_program("recovery")?;

        match sim.run_faulted(program, &attempt_plan(plan, elapsed, &ctx.dead_engines))? {
            FaultedOutcome::Completed(stats) => {
                let final_deg = stats.degradation;
                trace.attempt_degradation.push(final_deg);
                let mut total = match merged.take() {
                    Some(m) => m.merge(&stats),
                    None => stats,
                };
                // Merging sums per-attempt counters, but persistent faults
                // are re-injected into every retry; rebuild the structural
                // counts from the final attempt + the retired-engine list.
                total.degradation.engine_failures =
                    ctx.dead_engines.len() as u64 + final_deg.engine_failures;
                total.degradation.dead_links = final_deg.dead_links;
                total.degradation.remap_rounds = remap_rounds;
                total.degradation.rerun_tasks = (total.tasks as u64).saturating_sub(n as u64);
                trace.partial = Some(total.clone());
                return Ok(RecoveryOutcome {
                    stats: total,
                    attempts,
                    failed_engines: ctx.dead_engines,
                    attempt_degradation: trace.attempt_degradation.clone(),
                    rungs: trace.rungs.clone(),
                });
            }
            FaultedOutcome::Failed(report) => {
                trace.attempt_degradation.push(report.partial.degradation);
                let exhausted = recovery.max_attempts != 0 && attempts >= recovery.max_attempts;
                if exhausted || ctx.dead_engines.contains(&report.engine) {
                    // The run is abandoned, but its partial account is not:
                    // merge the failing attempt so the trace conserves the
                    // event counters accumulated so far.
                    let mut partial = match merged.take() {
                        Some(m) => m.merge(&report.partial),
                        None => report.partial.clone(),
                    };
                    partial.degradation.engine_failures =
                        ctx.dead_engines.len() as u64 + report.partial.degradation.engine_failures;
                    partial.degradation.remap_rounds = remap_rounds;
                    trace.partial = Some(partial);
                    return Err(PipelineError::Sim(SimError::EngineFailed {
                        engine: report.engine,
                        cycle: report.cycle,
                        round: report.round,
                    }));
                }
                let lost: BTreeSet<_> = report.lost.iter().copied().collect();
                // Task ids are atom ids.
                for t in &report.completed {
                    if !lost.contains(t) {
                        ctx.done[t.index()] = true;
                    }
                }
                elapsed += report.cycle;
                prior = ctx.mapped.take();
                ctx.dead_engines.push(report.engine);
                merged = Some(match merged.take() {
                    Some(m) => m.merge(&report.partial),
                    None => report.partial,
                });
            }
        }
    }
}

/// No prior engine: [`Mapper::patch_round`] treats the sentinel as an
/// orphan and reassigns it to the cheapest free survivor.
const NO_PRIOR: usize = usize::MAX;

/// Pending atoms are "mostly undisturbed" when at most a quarter of them
/// lost their engine; beyond that, in-place patching degrades occupancy
/// enough that the scoped DP rung wins.
const REUSE_ORPHAN_DENOM: usize = 4;

/// One replan attempt through the degradation ladder. On entry `ctx` holds
/// the updated `done` mask and dead-engine list; `prior` is the failed
/// attempt's mapped rounds (when available). On success the context holds
/// a complete, unaudited schedule/mapping/program for the pending
/// remainder, and the rung that produced it is returned; admitting it is
/// the caller's business ([`run_with_recovery`] does).
///
/// Rung selection: with a prior plan whose orphaned-atom fraction is small
/// the [`LadderRung::ReuseSuffix`] patch is tried first,
/// otherwise [`LadderRung::ScopedReplan`]; a rung whose mapping overflows
/// escalates to the next; the full replan's failure is final.
///
/// # Errors
///
/// Anything the pipeline stages report, except that a
/// [`PipelineError::Mapping`] from a repair rung escalates down the ladder.
pub fn replan_attempt(
    ctx: &mut PlanContext<'_>,
    prior: Option<&[Vec<(AtomId, usize)>]>,
) -> Result<LadderRung, PipelineError> {
    // The prior rounds restricted to atoms still pending, empty rounds
    // dropped: what every repair rung starts from.
    let pending: Vec<Vec<(AtomId, usize)>> = prior
        .unwrap_or_default()
        .iter()
        .map(|round| {
            round
                .iter()
                .filter(|&&(a, _)| !ctx.done.get(a.index()).copied().unwrap_or(false))
                .copied()
                .collect::<Vec<_>>()
        })
        .filter(|round| !round.is_empty())
        .collect();
    if !pending.is_empty() {
        let (atoms, orphans) = perturbation_size(ctx, &pending);
        if orphans * REUSE_ORPHAN_DENOM <= atoms {
            ctx.reset_plan();
            match reuse_suffix(ctx, &pending) {
                Ok(()) => return Ok(LadderRung::ReuseSuffix),
                Err(PipelineError::Mapping(_)) => {}
                Err(e) => return Err(e),
            }
        }
        ctx.reset_plan();
        match scoped_replan(ctx, &pending) {
            Ok(()) => return Ok(LadderRung::ScopedReplan),
            Err(PipelineError::Mapping(_)) => {}
            Err(e) => return Err(e),
        }
    }
    ctx.reset_plan();
    Pipeline::replan().run(ctx)?;
    Ok(LadderRung::FullReplan)
}

/// Whether a prior placement on engine `e` lost its engine (retired, or
/// outside the configured mesh).
fn orphaned(ctx: &PlanContext<'_>, e: usize) -> bool {
    e >= ctx.cfg.engines() || ctx.dead_engines.contains(&e)
}

/// `(pending atoms, orphaned pending atoms)` of the pending prior rounds.
fn perturbation_size(ctx: &PlanContext<'_>, pending: &[Vec<(AtomId, usize)>]) -> (usize, usize) {
    let atoms = pending.iter().map(Vec::len).sum();
    let orphans = pending
        .iter()
        .flatten()
        .filter(|&&(_, e)| orphaned(ctx, e))
        .count();
    (atoms, orphans)
}

/// Patches one repaired round through the mapper and records it in both the
/// schedule and the mapped rounds.
fn push_patched(
    mapper: &mut Mapper,
    dag: &AtomicDag,
    pairs: &[(AtomId, usize)],
    sched: &mut Vec<Vec<AtomId>>,
    mapped: &mut Vec<Vec<(AtomId, usize)>>,
) -> Result<(), PipelineError> {
    let placed = mapper.patch_round(dag, pairs)?;
    sched.push(placed.iter().map(|&(a, _)| a).collect());
    mapped.push(placed);
    Ok(())
}

/// The shared epilogue of the repair rungs: lowers the repaired rounds,
/// installs schedule, mapping and program, and records the rung's report
/// (timed from `started`).
fn install(
    ctx: &mut PlanContext<'_>,
    stage: &'static str,
    started: Instant, // ad-lint: allow(d2) — reporting-only rung wall time
    rounds: Vec<Vec<AtomId>>,
    mapped: Vec<Vec<(AtomId, usize)>>,
    summary: String,
) -> Result<(), PipelineError> {
    let program = lower_remaining(
        ctx.require_dag(stage)?,
        &mapped,
        ctx.dram_outputs,
        &ctx.done,
    );
    ctx.schedule = Some(Schedule { rounds });
    ctx.mapped = Some(mapped);
    ctx.program = Some(program);
    let mut report = StageReport::new(stage, summary);
    report.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    ctx.reports.push(report);
    Ok(())
}

/// Rung 1: reuse every pending round of the prior plan in order, patch
/// orphans onto survivors in place, and resolve capacity overflow (a
/// full-width round on a now-smaller mesh) by carrying the overflowing
/// atoms forward — topped up into later slack or emitted as minimal spill
/// rounds right before the first round that depends on them. Dependency
/// order is preserved by construction: a pending atom only ever moves
/// *later* than its prior round, and never past a round containing one of
/// its successors.
fn reuse_suffix(
    ctx: &mut PlanContext<'_>,
    pending: &[Vec<(AtomId, usize)>],
) -> Result<(), PipelineError> {
    const STAGE: &str = "replan:reuse-suffix";
    let t0 = Instant::now(); // ad-lint: allow(d2) — reporting-only rung wall time
    let alive = ctx.alive_engines();
    let dag = ctx.require_dag(STAGE)?;
    let mut mapper = ctx.survivor_mapper();
    // Round-membership stamps for the carried-atom successor checks.
    let mut stamp: Vec<usize> = vec![usize::MAX; dag.atom_count()];
    let mut carry: VecDeque<AtomId> = VecDeque::new();
    let mut sched: Vec<Vec<AtomId>> = Vec::with_capacity(pending.len());
    let mut mapped: Vec<Vec<(AtomId, usize)>> = Vec::with_capacity(pending.len());
    let mut spills = 0usize;

    for (seq, round) in pending.iter().enumerate() {
        let mut pairs = round.clone();
        for &(a, _) in &pairs {
            stamp[a.index()] = seq;
        }
        // A carried atom whose successor sits in this round must run first:
        // flush the whole carry as spill rounds ahead of it. (Chunks of
        // `alive`; carried atoms' predecessors are all in rounds already
        // emitted, their successors in this round or later.)
        let blocked = carry
            .iter()
            .any(|&c| dag.succs(c).iter().any(|s| stamp[s.index()] == seq));
        if blocked {
            while !carry.is_empty() {
                let take = carry.len().min(alive.max(1));
                let chunk: Vec<(AtomId, usize)> =
                    carry.drain(..take).map(|a| (a, NO_PRIOR)).collect();
                spills += 1;
                push_patched(&mut mapper, dag, &chunk, &mut sched, &mut mapped)?;
            }
        }
        // Capacity overflow: defer orphans (their engine is gone anyway)
        // until the round fits the surviving mesh.
        if pairs.len() > alive {
            let mut overflow = pairs.len() - alive;
            pairs.retain(|&(a, e)| {
                if overflow > 0 && orphaned(ctx, e) {
                    overflow -= 1;
                    carry.push_back(a);
                    false
                } else {
                    true
                }
            });
            // Defensive: a prior plan wider than the surviving mesh minus
            // its orphans (impossible for plans this module produced, but
            // `prior` is caller-supplied) sheds from the back.
            while pairs.len() > alive {
                if let Some((a, _)) = pairs.pop() {
                    carry.push_back(a);
                }
            }
        } else {
            // Slack: absorb carried atoms into this round's free engines
            // (safe — had any carried atom a successor here, the flush
            // above would have emptied the carry).
            while pairs.len() < alive {
                match carry.pop_front() {
                    Some(c) => pairs.push((c, NO_PRIOR)),
                    None => break,
                }
            }
        }
        push_patched(&mut mapper, dag, &pairs, &mut sched, &mut mapped)?;
    }
    while !carry.is_empty() {
        let take = carry.len().min(alive.max(1));
        let chunk: Vec<(AtomId, usize)> = carry.drain(..take).map(|a| (a, NO_PRIOR)).collect();
        spills += 1;
        push_patched(&mut mapper, dag, &chunk, &mut sched, &mut mapped)?;
    }

    let summary = format!(
        "reused {} rounds (+{spills} spill) onto {alive} engines",
        pending.len()
    );
    install(ctx, STAGE, t0, sched, mapped, summary)
}

/// Rung 2: reuse (and patch) the prior rounds up to the first one touched
/// by the perturbation — an orphaned atom or an over-capacity width — then
/// DP-reschedule only the remaining atoms and map the new suffix continuing
/// from the replayed mapper state.
fn scoped_replan(
    ctx: &mut PlanContext<'_>,
    pending: &[Vec<(AtomId, usize)>],
) -> Result<(), PipelineError> {
    const STAGE: &str = "replan:scoped";
    let t0 = Instant::now(); // ad-lint: allow(d2) — reporting-only rung wall time
    let alive = ctx.alive_engines();
    let dag = ctx.require_dag(STAGE)?;
    let split = pending
        .iter()
        .position(|round| round.len() > alive || round.iter().any(|&(_, e)| orphaned(ctx, e)))
        .unwrap_or(pending.len());

    let mut mapper = ctx.survivor_mapper();
    let mut sched: Vec<Vec<AtomId>> = Vec::with_capacity(pending.len());
    let mut mapped: Vec<Vec<(AtomId, usize)>> = Vec::with_capacity(pending.len());
    let mut done2 = ctx.done.clone();
    done2.resize(dag.atom_count(), false);
    for round in &pending[..split] {
        push_patched(&mut mapper, dag, round, &mut sched, &mut mapped)?;
        for &(a, _) in round {
            done2[a.index()] = true;
        }
    }

    // DP-reschedule everything past the splice point.
    let (suffix, _work) = Scheduler::new(
        dag,
        SchedulerConfig {
            engines: alive,
            mode: ctx.cfg.schedule_mode,
        },
    )
    .with_budget(ctx.cfg.budget.dp_expansions)
    .schedule_remaining_budgeted(&done2)?;
    let rescheduled = suffix.len();
    for round in suffix.rounds {
        mapped.push(mapper.map_round(dag, &round)?);
        sched.push(round);
    }

    let summary = format!("reused {split} rounds, rescheduled {rescheduled} onto {alive} engines");
    install(ctx, STAGE, t0, sched, mapped, summary)
}

/// The fault plan as seen by a retry attempt that starts `elapsed` cycles
/// into the original timeline: unfired events shift left, already-fired
/// persistent faults saturate to cycle 0 (they are still broken), and
/// engine deaths already handled by recovery are dropped.
fn attempt_plan(plan: &FaultPlan, elapsed: u64, dead: &[usize]) -> FaultPlan {
    if elapsed == 0 && dead.is_empty() {
        return plan.clone();
    }
    let mut p = FaultPlan::none();
    for e in plan.events() {
        if let FaultKind::EngineFail { engine } = e.kind {
            if dead.contains(&engine) {
                continue;
            }
        }
        p = p.with_event(FaultEvent {
            cycle: e.cycle.saturating_sub(elapsed),
            kind: e.kind,
        });
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::FaultRates;
    use dnn_graph::models;

    fn dag_and_cfg() -> (AtomicDag, OptimizerConfig) {
        let cfg = OptimizerConfig::fast_test();
        let g = models::tiny_branchy();
        let (_, dag) = crate::Optimizer::new(cfg).build_dag(&g);
        (dag, cfg)
    }

    /// The ladder repairs a prior plan's placement, never its legality: a
    /// prior plan with its rounds reversed (every consumer before its
    /// producer) comes back from the reuse rung as it was, and admission —
    /// not another rung — reports the violated invariant.
    #[test]
    fn a_broken_prior_plan_is_reported_not_repaired() {
        let (dag, cfg) = dag_and_cfg();
        let mut ctx = PlanContext::for_dag(dag, cfg);
        Pipeline::replan().run(&mut ctx).unwrap();
        let mut prior = ctx.mapped.take().unwrap();
        assert!(prior.len() > 1, "the reversal must reorder something");
        prior.reverse();
        ctx.reset_plan();
        let rung = replan_attempt(&mut ctx, Some(&prior)).unwrap();
        assert_eq!(rung, LadderRung::ReuseSuffix);
        let err = validate::admit(&mut ctx).unwrap_err();
        assert_eq!(err.invariant, validate::Invariant::DependencyOrder, "{err}");
    }

    #[test]
    fn healthy_plan_is_a_plain_run() {
        let (dag, cfg) = dag_and_cfg();
        let out =
            run_with_recovery(&dag, &cfg, &FaultPlan::none(), &RecoveryConfig::auto()).unwrap();
        assert_eq!(out.attempts, 1);
        assert!(out.failed_engines.is_empty());
        assert!(out.rungs.is_empty());
        assert!(out.stats.degradation.is_healthy());
        assert_eq!(out.stats.tasks, dag.atom_count());
    }

    #[test]
    fn fatal_engine_death_recovers_and_accounts_reruns() {
        let (dag, cfg) = dag_and_cfg();
        // Kill engine 0 mid-run: cycle chosen inside the healthy makespan.
        let healthy =
            run_with_recovery(&dag, &cfg, &FaultPlan::none(), &RecoveryConfig::auto()).unwrap();
        let plan = FaultPlan::engine_fail(0, healthy.stats.total_cycles / 2);
        let out = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto()).unwrap();
        assert!(
            out.attempts >= 2,
            "mid-run death of a mapped engine must be fatal once"
        );
        assert_eq!(out.failed_engines, vec![0]);
        assert_eq!(out.rungs.len(), out.attempts - 1);
        assert_eq!(out.stats.degradation.engine_failures, 1);
        assert!(out.stats.degradation.remap_rounds > 0);
        assert!(out.stats.total_cycles > healthy.stats.total_cycles);
        // Every atom ran at least once; reruns are the surplus.
        assert_eq!(
            out.stats.tasks as u64,
            dag.atom_count() as u64 + out.stats.degradation.rerun_tasks
        );
    }

    #[test]
    fn incremental_and_cold_recovery_agree_on_accounting() {
        // The ladder changes plan *quality*, never the conservation laws:
        // both modes run every atom at least once and account each rerun.
        let (dag, cfg) = dag_and_cfg();
        let healthy =
            run_with_recovery(&dag, &cfg, &FaultPlan::none(), &RecoveryConfig::auto()).unwrap();
        let plan = FaultPlan::engine_fail(0, healthy.stats.total_cycles / 2);
        for rc in [RecoveryConfig::auto(), RecoveryConfig::cold()] {
            let out = run_with_recovery(&dag, &cfg, &plan, &rc).unwrap();
            assert_eq!(
                out.stats.tasks as u64,
                dag.atom_count() as u64 + out.stats.degradation.rerun_tasks,
                "incremental={}",
                rc.incremental
            );
            assert_eq!(out.failed_engines, vec![0]);
        }
    }

    #[test]
    fn recovery_disabled_returns_typed_error() {
        let (dag, cfg) = dag_and_cfg();
        let plan = FaultPlan::engine_fail(0, 0);
        let err = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::disabled()).unwrap_err();
        assert!(
            matches!(
                err,
                PipelineError::Sim(SimError::EngineFailed { engine: 0, .. })
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn attempt_budget_is_respected() {
        let (dag, cfg) = dag_and_cfg();
        let plan = FaultPlan::engine_fail(0, 0);
        let tight = RecoveryConfig {
            max_attempts: 1,
            incremental: true,
        };
        let err = run_with_recovery(&dag, &cfg, &plan, &tight).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Sim(SimError::EngineFailed { .. })
        ));
    }

    #[test]
    fn exhaustion_keeps_partial_accounting() {
        // Kill engines faster than a 2-attempt budget can absorb: the typed
        // error must surface *and* the trace must still carry the merged
        // partial statistics with conserved event counters.
        let (dag, cfg) = dag_and_cfg();
        let healthy =
            run_with_recovery(&dag, &cfg, &FaultPlan::none(), &RecoveryConfig::auto()).unwrap();
        let mid = healthy.stats.total_cycles / 2;
        let plan = FaultPlan::engine_fail(0, mid)
            .with_event(FaultEvent {
                cycle: mid,
                kind: FaultKind::EngineFail { engine: 1 },
            })
            .with_event(FaultEvent {
                cycle: mid,
                kind: FaultKind::EngineFail { engine: 2 },
            });
        let tight = RecoveryConfig {
            max_attempts: 2,
            incremental: true,
        };
        let (trace, result) = run_with_recovery_traced(&dag, &cfg, &plan, &tight);
        let err = result.unwrap_err();
        assert!(
            matches!(err, PipelineError::Sim(SimError::EngineFailed { .. })),
            "got {err:?}"
        );
        assert_eq!(trace.attempts, 2, "budget must stop the third attempt");
        assert_eq!(
            trace.attempt_degradation.len(),
            trace.attempts,
            "the failing attempt's degradation must be recorded too"
        );
        let partial = trace.partial.expect("partial stats survive the error");
        assert_eq!(
            partial.degradation.lost_tasks,
            trace
                .attempt_degradation
                .iter()
                .map(|d| d.lost_tasks)
                .sum::<u64>(),
            "lost_tasks drift on the error path"
        );
        assert_eq!(
            partial.degradation.rerouted_transfers,
            trace
                .attempt_degradation
                .iter()
                .map(|d| d.rerouted_transfers)
                .sum::<u64>(),
            "rerouted_transfers drift on the error path"
        );
        assert!(partial.tasks > 0, "partial attempts executed work");
    }

    #[test]
    fn same_round_compound_fault_recovers_deterministically() {
        // An engine death and a link drop landing at the identical cycle
        // (hence the identical round boundary) must produce one
        // deterministic recovery order: the simulator applies the events in
        // plan order at the barrier, recovery retires the engine, and the
        // dead link persists into every retry.
        let (dag, cfg) = dag_and_cfg();
        let healthy =
            run_with_recovery(&dag, &cfg, &FaultPlan::none(), &RecoveryConfig::auto()).unwrap();
        let mid = healthy.stats.total_cycles / 2;
        let plan = FaultPlan::none()
            .with_event(FaultEvent {
                cycle: mid,
                kind: FaultKind::EngineFail { engine: 0 },
            })
            .with_event(FaultEvent {
                cycle: mid,
                kind: FaultKind::LinkFail { a: 1, b: 2 },
            });
        let a = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto()).unwrap();
        let b = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto()).unwrap();
        assert_eq!(a, b, "same-round compound fault recovery diverged");
        assert_eq!(a.failed_engines, vec![0]);
        assert_eq!(
            a.stats.degradation.dead_links, 1,
            "the link drop must persist through recovery"
        );
        assert_eq!(
            a.stats.tasks as u64,
            dag.atom_count() as u64 + a.stats.degradation.rerun_tasks
        );
    }

    #[test]
    fn recovery_counters_conserve_across_attempts() {
        // The merged outcome must be an exact accounting of the per-attempt
        // runs: every event counter (losses, reroutes) summed exactly once,
        // the derate the worst seen, and one degradation record per attempt.
        let (dag, cfg) = dag_and_cfg();
        let healthy =
            run_with_recovery(&dag, &cfg, &FaultPlan::none(), &RecoveryConfig::auto()).unwrap();
        assert_eq!(healthy.attempt_degradation.len(), 1);
        assert!(healthy.attempt_degradation[0].is_healthy());

        let plan = FaultPlan::seeded(
            0xFEED,
            &cfg.sim.mesh,
            healthy.stats.total_cycles,
            &FaultRates {
                engine_fail_prob: 0.3,
                ..FaultRates::uniform(0.15)
            },
        )
        .unwrap();
        let out = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto()).unwrap();
        assert_eq!(out.attempt_degradation.len(), out.attempts);
        let deg = &out.stats.degradation;
        let sum = |f: fn(&DegradationStats) -> u64| -> u64 {
            out.attempt_degradation.iter().map(f).sum()
        };
        // Event counters: each loss/reroute happened in exactly one attempt.
        assert_eq!(deg.lost_tasks, sum(|d| d.lost_tasks), "lost_tasks drift");
        assert_eq!(
            deg.rerouted_transfers,
            sum(|d| d.rerouted_transfers),
            "rerouted_transfers drift"
        );
        // The merged derate is the worst any attempt saw.
        let worst = out
            .attempt_degradation
            .iter()
            .map(|d| d.hbm_derate)
            .fold(1.0f64, f64::min);
        assert_eq!(deg.hbm_derate, worst);
        // Structural counts are rebuilt, not summed: retired engines appear
        // once each no matter how many retries re-observed them.
        assert_eq!(
            deg.engine_failures,
            out.failed_engines.len() as u64
                + out
                    .attempt_degradation
                    .last()
                    .map_or(0, |d| d.engine_failures)
        );
        // Lost work is counted exactly once: every executed task is either
        // the single required run of an atom or an accounted rerun.
        assert_eq!(
            out.stats.tasks as u64,
            dag.atom_count() as u64 + out.stats.degradation.rerun_tasks
        );
    }

    #[test]
    fn multi_fault_seeded_plan_still_completes() {
        let (dag, cfg) = dag_and_cfg();
        let plan = FaultPlan::seeded(
            0xDEAD,
            &cfg.sim.mesh,
            200_000,
            &FaultRates {
                engine_fail_prob: 0.2,
                ..FaultRates::uniform(0.1)
            },
        )
        .unwrap();
        assert!(!plan.is_empty());
        let a = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto()).unwrap();
        let b = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto()).unwrap();
        assert_eq!(a, b, "recovery must be deterministic for a fixed plan");
        assert_eq!(
            a.stats.tasks as u64,
            dag.atom_count() as u64 + a.stats.degradation.rerun_tasks
        );
    }
}
