//! The staged planning pipeline: a small IR ([`PlanContext`]) threaded
//! through composable [`Stage`]s.
//!
//! The paper's framework is explicitly staged (Fig. 4): atom generation →
//! atomic-DAG scheduling → atom–engine mapping, then lowering and
//! simulation. This module makes that structure a first-class object.
//! A [`PlanContext`] accumulates the artifacts (graph, DAG, schedule,
//! per-round engine assignment, lowered program, simulated statistics) and
//! every stage is a `Stage` implementation that consumes the artifacts of
//! its predecessors and deposits its own. [`Pipeline`] composes a stage
//! list, times each stage and collects a [`StageReport`] per stage.
//!
//! Everything runs through this machinery: [`crate::Optimizer::optimize`]
//! calls [`atomgen::generate`] once per candidate granularity target, then
//! runs the judging pipeline (DAG construction followed by the
//! [`Pipeline::evaluate`] suffix) once per distinct atomization; every
//! baseline in [`crate::baselines`] is a different stage list over the same
//! context (a planning stage of its own followed by the shared
//! [`LowerStage`] and [`SimulateStage`]); and the fault-recovery ladder
//! re-runs the shared [`ScheduleStage`] → [`MapStage`] → [`LowerStage`]
//! suffix over the surviving engines, its repair rungs reusing the same
//! survivor mapper. A stage that runs before its prerequisites returns the
//! typed [`PipelineError::StageOrder`] instead of panicking.
//!
//! Stage wall-times are host-side *reporting only*: they are measured
//! around the stage call, never feed back into any planning decision, and
//! are excluded from the determinism-pinned [`SimStats`] serialization.

use std::time::Instant; // ad-lint: allow(d2) — reporting-only stage timing

use accel_sim::{BoundedOutcome, Program, SimStats, Simulator};
use dnn_graph::Graph;

use crate::atomgen::{self, CandidateTable, GenReport};
use crate::atomic_dag::{AtomId, AtomicDag};
use crate::error::PipelineError;
use crate::exec::Exec;
use crate::lower::lower_remaining;
use crate::mapping::Mapper;
use crate::optimizer::OptimizerConfig;
use crate::scheduler::{Schedule, ScheduleMode, Scheduler, SchedulerConfig};
use crate::validate::{self, BudgetOutcome};

/// Wall-time and a one-line summary of one executed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name (`"atomgen"`, `"schedule"`, …).
    pub stage: &'static str,
    /// Host-side wall time of the stage in milliseconds (reporting only —
    /// never an input to planning).
    pub wall_ms: f64,
    /// One-line, human-readable summary of what the stage produced.
    pub summary: String,
    /// Whether this stage's search ran to completion or hit a
    /// [`crate::PlanBudget`] cap.
    pub budget: BudgetOutcome,
}

impl StageReport {
    /// A report with the given name and summary; [`Pipeline::run`] fills in
    /// the wall time after the stage returns.
    pub fn new(stage: &'static str, summary: String) -> Self {
        Self {
            stage,
            wall_ms: 0.0,
            summary,
            budget: BudgetOutcome::Completed,
        }
    }
}

/// The accumulating planning state: every artifact a stage can consume or
/// produce, plus the reports of the stages run so far.
///
/// Artifacts are `Option`s filled in pipeline order; a stage that finds a
/// prerequisite missing fails with [`PipelineError::StageOrder`]. The
/// `done` mask and `dead_engines` list support re-planning a partially
/// executed DAG (the fault-recovery path): stages schedule, map and lower
/// only the unfinished remainder onto the surviving engines.
#[derive(Debug, Clone)]
pub struct PlanContext<'g> {
    /// The workload, when planning starts from a DNN graph. Recovery-style
    /// contexts built from a pre-atomized DAG have no graph.
    pub graph: Option<&'g Graph>,
    /// Platform + strategy configuration. Stages may refine it (e.g. the
    /// Rammer baseline switches the simulated eviction policy).
    pub cfg: OptimizerConfig,
    /// Atoms already executed (empty = none): scheduling, lowering skip
    /// them and treat their outputs as DRAM-resident.
    pub done: Vec<bool>,
    /// Engines retired by fault recovery; the mapper never assigns to them.
    pub dead_engines: Vec<usize>,
    /// Atom-generation report (produced by [`AtomGenStage`]).
    pub gen_report: Option<GenReport>,
    /// The atomic DAG (produced by [`AtomGenStage`] or a baseline plan
    /// stage, or pre-seeded via [`PlanContext::for_dag`]).
    pub dag: Option<AtomicDag>,
    /// Round schedule (produced by [`ScheduleStage`]).
    pub schedule: Option<Schedule>,
    /// Per-round `(atom, engine)` assignment (produced by [`MapStage`] or
    /// directly by baseline plan stages that fuse scheduling and mapping).
    pub mapped: Option<Vec<Vec<(AtomId, usize)>>>,
    /// Whether the plan sends every output straight to DRAM ([`LowerStage`]
    /// input; CNN-P's plan stage sets it).
    pub dram_outputs: bool,
    /// The lowered program (produced by [`LowerStage`]).
    pub program: Option<Program>,
    /// Simulation statistics (produced by [`SimulateStage`]).
    pub stats: Option<SimStats>,
    /// Reports of every stage run on this context, in execution order.
    pub reports: Vec<StageReport>,
    /// Bitmask of artifacts already audited by [`crate::validate::admit`]
    /// (see the `VALIDATED_*` bits in [`crate::validate`]); cleared for
    /// re-plannable artifacts by [`PlanContext::reset_plan`].
    pub validated: u8,
    /// The request's execution context: the worker pool stages fan out
    /// through and the cost-oracle interner candidate DAGs share. The
    /// constructors give each context its own, sized from
    /// [`OptimizerConfig::parallelism`]; [`crate::Optimizer::optimize`]
    /// hands every candidate a clone of the request's one.
    pub exec: Exec,
}

impl<'g> PlanContext<'g> {
    /// A fresh context for planning `graph` under `cfg`.
    pub fn new(graph: &'g Graph, cfg: OptimizerConfig) -> Self {
        Self {
            graph: Some(graph),
            ..Self::empty(cfg)
        }
    }

    /// A context seeded with a pre-built atomic DAG (no graph): the
    /// fault-recovery path re-plans an existing DAG without re-atomizing.
    pub fn for_dag(dag: AtomicDag, cfg: OptimizerConfig) -> Self {
        Self {
            dag: Some(dag),
            ..Self::empty(cfg)
        }
    }

    /// The field initializer both constructors share: no graph, no
    /// artifacts, an execution context sized from `cfg.parallelism`.
    fn empty(cfg: OptimizerConfig) -> Self {
        Self {
            graph: None,
            cfg,
            done: Vec::new(),
            dead_engines: Vec::new(),
            gen_report: None,
            dag: None,
            schedule: None,
            mapped: None,
            dram_outputs: false,
            program: None,
            stats: None,
            reports: Vec::new(),
            validated: 0,
            exec: Exec::with_threads(cfg.parallelism),
        }
    }

    /// Engines still available for planning (configured minus retired).
    pub fn alive_engines(&self) -> usize {
        self.cfg.engines().saturating_sub(self.dead_engines.len())
    }

    /// A mapper over the configured mesh with every retired engine killed:
    /// the one [`MapStage`] and the recovery rungs place atoms with.
    pub(crate) fn survivor_mapper(&self) -> Mapper {
        let mut mapper = Mapper::new(self.cfg.sim.mesh, self.cfg.mapping);
        for &e in &self.dead_engines {
            mapper.kill_engine(e);
        }
        mapper
    }

    /// Clears the re-plannable artifacts (schedule, mapping, program,
    /// stats) while keeping the DAG, `done` mask and dead-engine list —
    /// the reset between fault-recovery attempts.
    pub fn reset_plan(&mut self) {
        self.schedule = None;
        self.mapped = None;
        self.program = None;
        self.stats = None;
        self.validated &= !validate::PLAN_BITS;
    }

    /// The graph, or [`PipelineError::StageOrder`] naming `stage`.
    pub fn require_graph(&self, stage: &'static str) -> Result<&'g Graph, PipelineError> {
        self.graph.ok_or(PipelineError::StageOrder {
            stage,
            missing: "graph",
        })
    }

    /// The DAG, or [`PipelineError::StageOrder`] naming `stage`.
    pub fn require_dag(&self, stage: &'static str) -> Result<&AtomicDag, PipelineError> {
        self.dag.as_ref().ok_or(PipelineError::StageOrder {
            stage,
            missing: "dag",
        })
    }

    /// The schedule, or [`PipelineError::StageOrder`] naming `stage`.
    pub fn require_schedule(&self, stage: &'static str) -> Result<&Schedule, PipelineError> {
        self.schedule.as_ref().ok_or(PipelineError::StageOrder {
            stage,
            missing: "schedule",
        })
    }

    /// The mapped rounds, or [`PipelineError::StageOrder`] naming `stage`.
    pub fn require_mapped(
        &self,
        stage: &'static str,
    ) -> Result<&Vec<Vec<(AtomId, usize)>>, PipelineError> {
        self.mapped.as_ref().ok_or(PipelineError::StageOrder {
            stage,
            missing: "mapped rounds",
        })
    }

    /// The program, or [`PipelineError::StageOrder`] naming `stage`.
    pub fn require_program(&self, stage: &'static str) -> Result<&Program, PipelineError> {
        self.program.as_ref().ok_or(PipelineError::StageOrder {
            stage,
            missing: "program",
        })
    }
}

/// One stage of the planning pipeline.
pub trait Stage {
    /// Stable stage name, used in reports and stage-order diagnostics.
    fn name(&self) -> &'static str;
    /// Consumes prerequisites from `ctx`, deposits this stage's artifacts
    /// and returns a report (the pipeline fills in the wall time).
    ///
    /// # Errors
    ///
    /// [`PipelineError::StageOrder`] when a prerequisite artifact is
    /// missing, plus whatever the underlying stage logic reports.
    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError>;
}

/// A composed list of stages, run in order over one [`PlanContext`].
pub struct Pipeline {
    stages: Vec<Box<dyn Stage>>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.stages.iter().map(|s| s.name()))
            .finish()
    }
}

impl Pipeline {
    /// Composes a pipeline from a stage list.
    pub fn new(stages: Vec<Box<dyn Stage>>) -> Self {
        Self { stages }
    }

    /// The canonical atomic-dataflow pipeline of Fig. 4: atom generation →
    /// DAG scheduling → atom–engine mapping → lowering → simulation.
    /// `target` overrides the generator's granularity target and `mode`
    /// the scheduling mode (both default to the context's config).
    pub fn standard(target: Option<usize>, mode: Option<ScheduleMode>) -> Self {
        let mut pipeline = Self::evaluate(mode);
        pipeline.stages.insert(0, Box::new(AtomGenStage { target }));
        pipeline
    }

    /// The judging suffix of [`Pipeline::standard`]: scheduling → mapping
    /// → lowering → simulation of the context's existing DAG. `mode`
    /// overrides the scheduling mode.
    pub fn evaluate(mode: Option<ScheduleMode>) -> Self {
        Self::new(vec![
            Box::new(ScheduleStage { mode }),
            Box::new(MapStage),
            Box::new(LowerStage),
            Box::new(SimulateStage),
        ])
    }

    /// The layer-order refinement of [`crate::Optimizer::optimize`]: the
    /// [`Pipeline::evaluate`] suffix under [`ScheduleMode::LayerOrder`],
    /// whose simulation stops once the plan cannot finish below `bound`
    /// cycles ([`Simulator::run_within`]) and then leaves no statistics.
    pub(crate) fn refine(bound: u64) -> Self {
        Self::new(vec![
            Box::new(ScheduleStage {
                mode: Some(ScheduleMode::LayerOrder),
            }),
            Box::new(MapStage),
            Box::new(LowerStage),
            Box::new(SimulateWithin(bound)),
        ])
    }

    /// [`Pipeline::standard`] for a context whose atoms are already
    /// generated: DAG construction from its `gen_report`, then the
    /// [`Pipeline::evaluate`] suffix.
    pub(crate) fn judge() -> Self {
        let mut pipeline = Self::evaluate(None);
        pipeline.stages.insert(0, Box::new(AtomDagStage));
        pipeline
    }

    /// The re-planning suffix used between fault-recovery attempts:
    /// scheduling → mapping → lowering of the unfinished remainder (the
    /// faulted simulation itself is driven by the recovery loop).
    pub fn replan() -> Self {
        Self::new(vec![
            Box::new(ScheduleStage { mode: None }),
            Box::new(MapStage),
            Box::new(LowerStage),
        ])
    }

    /// Stage names, in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Runs every stage in order, appending one [`StageReport`] per stage
    /// to `ctx.reports`. Audits nothing: admission is the business of the
    /// code that hands the plan out ([`Pipeline::execute`] and the
    /// optimizer, see [`crate::validate`]).
    ///
    /// # Errors
    ///
    /// The first failing stage's error, including
    /// [`PipelineError::StageOrder`] for malformed stage lists.
    pub fn run(&self, ctx: &mut PlanContext<'_>) -> Result<(), PipelineError> {
        for stage in &self.stages {
            let t0 = Instant::now(); // ad-lint: allow(d2) — reporting only
            let mut report = stage.run(ctx)?;
            report.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            ctx.reports.push(report);
        }
        Ok(())
    }

    /// Builds a fresh context for `graph`, runs the pipeline, admits the
    /// plan ([`validate::admit`]) and returns the simulated statistics
    /// plus the per-stage reports.
    ///
    /// # Errors
    ///
    /// Everything [`Pipeline::run`] reports; [`PipelineError::Validation`]
    /// when the plan fails admission; a [`PipelineError::StageOrder`] if
    /// the stage list never produced statistics.
    pub fn execute(
        &self,
        graph: &Graph,
        cfg: &OptimizerConfig,
    ) -> Result<PlanOutcome, PipelineError> {
        let mut ctx = PlanContext::new(graph, *cfg);
        self.run(&mut ctx)?;
        validate::admit(&mut ctx)?;
        let stats = ctx.stats.take().ok_or(PipelineError::StageOrder {
            stage: "execute",
            missing: "stats",
        })?;
        Ok(PlanOutcome {
            stats,
            reports: ctx.reports,
        })
    }
}

/// What [`Pipeline::execute`] hands back: the simulated statistics and the
/// per-stage reports (wall times + summaries).
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// Simulated statistics of the planned workload.
    pub stats: SimStats,
    /// One report per executed stage, in order.
    pub reports: Vec<StageReport>,
}

/// Renders stage reports as a compact single line, e.g.
/// `atomgen 12.3ms (96 atoms, 1210 operands, S=5108, E=0.0132) | schedule 4.1ms (7 rounds, occ 0.86)`.
pub fn format_reports(reports: &[StageReport]) -> String {
    reports
        .iter()
        .map(|r| format!("{} {:.1}ms ({})", r.stage, r.wall_ms, r.summary))
        .collect::<Vec<_>>()
        .join(" | ")
}

// ---------------------------------------------------------------------------
// Shared stages
// ---------------------------------------------------------------------------

/// Atom generation + DAG construction (paper Sec. IV-A / Alg. 1).
///
/// Consumes: graph. Produces: `gen_report`, `dag`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AtomGenStage {
    /// Granularity target override (`target_atoms_per_layer`); `None`
    /// keeps the context's configured target.
    pub target: Option<usize>,
}

impl Stage for AtomGenStage {
    fn name(&self) -> &'static str {
        "atomgen"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        let graph = ctx.require_graph(self.name())?;
        let gen_cfg = ctx.cfg.atomgen_config(self.target);
        let table = CandidateTable::build(
            graph,
            &gen_cfg,
            &ctx.cfg.sim.engine,
            ctx.cfg.dataflow,
            &ctx.exec,
        );
        ctx.gen_report = Some(atomgen::generate(graph, &table, &gen_cfg));
        AtomDagStage.run(ctx)
    }
}

/// The DAG-building half of [`AtomGenStage`], for a context whose
/// `gen_report` is already generated: [`crate::Optimizer::optimize`]
/// anneals every granularity target first and builds DAGs only for the
/// distinct spec vectors. Reports under the `atomgen` name, like
/// [`AtomGenStage`].
///
/// Consumes: graph, `gen_report`. Produces: `dag`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AtomDagStage;

impl Stage for AtomDagStage {
    fn name(&self) -> &'static str {
        "atomgen"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        let graph = ctx.require_graph(self.name())?;
        let report = ctx.gen_report.as_ref().ok_or(PipelineError::StageOrder {
            stage: self.name(),
            missing: "gen report",
        })?;
        let dag = AtomicDag::build_interned(
            graph,
            &report.specs,
            ctx.cfg.batch,
            &ctx.cfg.sim.engine,
            ctx.cfg.dataflow,
            ctx.exec.interner(),
        );
        let summary = format!(
            "{} atoms, {} operands, S={:.0}, E={:.4}",
            dag.atom_count(),
            dag.task_table().operand_count(),
            report.unified_cycle,
            report.variance
        );
        ctx.dag = Some(dag);
        Ok(StageReport::new(self.name(), summary))
    }
}

/// Atomic-DAG round scheduling (paper Sec. IV-B / Alg. 2), restricted to
/// the atoms not marked `done` and to the surviving engine count.
///
/// Consumes: `dag`. Produces: `schedule`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScheduleStage {
    /// Scheduling-mode override; `None` keeps the context's configured
    /// mode.
    pub mode: Option<ScheduleMode>,
}

impl Stage for ScheduleStage {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        let engines = ctx.alive_engines();
        let mode = self.mode.unwrap_or(ctx.cfg.schedule_mode);
        let dag = ctx.require_dag(self.name())?;
        let (sched, work) = Scheduler::new(dag, SchedulerConfig { engines, mode })
            .with_budget(ctx.cfg.budget.dp_expansions)
            .schedule_remaining_budgeted(&ctx.done)?;
        let summary = format!(
            "{} rounds, occupancy {:.2}, {} nodes, {} memo hits, {} applies",
            sched.len(),
            sched.occupancy(engines),
            work.nodes,
            work.memo_hits,
            work.applies
        );
        ctx.schedule = Some(sched);
        let mut report = StageReport::new(self.name(), summary);
        if work.truncated {
            report.budget = BudgetOutcome::Truncated { stage: self.name() };
        }
        Ok(report)
    }
}

/// Atom–engine mapping (paper Sec. IV-C): assigns each scheduled round's
/// atoms to mesh engines, skipping engines retired by recovery.
///
/// Consumes: `dag`, `schedule`. Produces: `mapped`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapStage;

impl Stage for MapStage {
    fn name(&self) -> &'static str {
        "map"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        let sched = ctx.require_schedule(self.name())?;
        let dag = ctx.require_dag(self.name())?;
        let mut mapper = ctx.survivor_mapper();
        let mapped = sched
            .rounds
            .iter()
            .map(|r| mapper.map_round(dag, r))
            .collect::<Result<Vec<_>, _>>()?;
        let summary = format!(
            "{} rounds onto {} engines",
            mapped.len(),
            ctx.alive_engines()
        );
        ctx.mapped = Some(mapped);
        Ok(StageReport::new(self.name(), summary))
    }
}

/// Lowering to the simulator IR ([`accel_sim::Program`]) over the DAG's
/// shared task table; completed atoms are the program's done tasks, whose
/// outputs the simulator reads from DRAM.
///
/// Consumes: `dag`, `mapped`, `dram_outputs`. Produces: `program`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowerStage;

impl Stage for LowerStage {
    fn name(&self) -> &'static str {
        "lower"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        let mapped = ctx.require_mapped(self.name())?;
        let dag = ctx.require_dag(self.name())?;
        let program = lower_remaining(dag, mapped, ctx.dram_outputs, &ctx.done);
        let pending = dag.atom_count() - ctx.done.iter().filter(|d| **d).count();
        let summary = format!("{} tasks in {} rounds", pending, mapped.len());
        ctx.program = Some(program);
        Ok(StageReport::new(self.name(), summary))
    }
}

/// Event-driven simulation of the lowered program.
///
/// Consumes: `program` (and the context's `cfg.sim`). Produces: `stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulateStage;

impl Stage for SimulateStage {
    fn name(&self) -> &'static str {
        "simulate"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        SimulateWithin(u64::MAX).run(ctx)
    }
}

/// [`SimulateStage`] with a cycle bound: the simulation stops at the first
/// round barrier where it can no longer finish below the bound
/// ([`Simulator::run_within`]); a stopped run leaves no statistics and its
/// report names the round it stopped at. `u64::MAX` never stops.
///
/// Consumes: `program`. Produces: `stats` (unless stopped).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimulateWithin(pub(crate) u64);

impl Stage for SimulateWithin {
    fn name(&self) -> &'static str {
        "simulate"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        let program = ctx.require_program(self.name())?;
        let summary = match Simulator::new(ctx.cfg.sim).run_within(program, self.0)? {
            BoundedOutcome::Completed(stats) => {
                let summary = stats.summary();
                ctx.stats = Some(*stats);
                summary
            }
            BoundedOutcome::Stopped(stop) => {
                ctx.stats = None;
                format!(
                    "stopped at round {}/{}: ≥ {} judged",
                    stop.round, stop.rounds, stop.bound
                )
            }
        };
        Ok(StageReport::new(self.name(), summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_graph::models;

    #[test]
    fn standard_pipeline_produces_stats_and_reports() {
        let g = models::tiny_branchy();
        let cfg = OptimizerConfig::fast_test();
        let out = Pipeline::standard(None, None).execute(&g, &cfg).unwrap();
        assert!(out.stats.total_cycles > 0);
        let names: Vec<&str> = out.reports.iter().map(|r| r.stage).collect();
        assert_eq!(
            names,
            vec!["atomgen", "schedule", "map", "lower", "simulate"]
        );
        for r in &out.reports {
            assert!(r.wall_ms >= 0.0);
            assert!(!r.summary.is_empty(), "{} has no summary", r.stage);
        }
        let line = format_reports(&out.reports);
        assert!(line.contains("atomgen") && line.contains("simulate"));
    }

    #[test]
    fn mapping_before_scheduling_is_a_typed_stage_order_error() {
        let g = models::tiny_branchy();
        let cfg = OptimizerConfig::fast_test();
        let pipe = Pipeline::new(vec![
            Box::new(AtomGenStage::default()),
            Box::new(MapStage), // out of order: no schedule yet
            Box::new(ScheduleStage::default()),
        ]);
        let mut ctx = PlanContext::new(&g, cfg);
        let err = pipe.run(&mut ctx).unwrap_err();
        assert_eq!(
            err,
            PipelineError::StageOrder {
                stage: "map",
                missing: "schedule",
            }
        );
        assert!(err.to_string().contains("`map`"));
        // The atomgen report was still collected before the failure.
        assert_eq!(ctx.reports.len(), 1);
    }

    #[test]
    fn every_stage_reports_its_missing_prerequisite() {
        let g = models::tiny_branchy();
        let cfg = OptimizerConfig::fast_test();
        for (stage, missing) in [
            (Box::new(ScheduleStage::default()) as Box<dyn Stage>, "dag"),
            (Box::new(LowerStage), "mapped rounds"),
            (Box::new(SimulateStage), "program"),
        ] {
            let mut ctx = PlanContext::new(&g, cfg);
            let err = Pipeline::new(vec![stage]).run(&mut ctx).unwrap_err();
            assert!(
                matches!(err, PipelineError::StageOrder { missing: m, .. } if m == missing),
                "got {err:?}"
            );
        }
        // A DAG-seeded context with no graph rejects atom generation.
        let (_, dag) = crate::Optimizer::new(cfg).build_dag(&g);
        let mut ctx = PlanContext::for_dag(dag, cfg);
        let err = Pipeline::new(vec![Box::new(AtomGenStage::default())])
            .run(&mut ctx)
            .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::StageOrder {
                stage: "atomgen",
                missing: "graph",
            }
        ));
    }

    #[test]
    fn replan_suffix_matches_schedule_and_map() {
        let g = models::tiny_branchy();
        let cfg = OptimizerConfig::fast_test();
        let (_, dag) = crate::Optimizer::new(cfg).build_dag(&g);
        let mut ctx = PlanContext::for_dag(dag, cfg);
        Pipeline::replan().run(&mut ctx).unwrap();
        assert!(ctx.program.is_some());
        assert_eq!(ctx.reports.len(), 3);
        assert_eq!(
            Pipeline::replan().stage_names(),
            vec!["schedule", "map", "lower"]
        );
    }
}
