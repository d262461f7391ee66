//! The end-to-end atomic-dataflow optimization pipeline (paper Fig. 4) and
//! the [`Strategy`] dispatcher used by the experiment harness.

use std::time::Instant; // ad-lint: allow(d2) — reporting-only timing

use accel_sim::{Program, SimConfig, SimStats};
use ad_util::WorkerPool;
use dnn_graph::Graph;
use engine_model::{Dataflow, HardwareConfig};

use crate::atomgen::{self, AtomGenConfig, CandidateTable, GenReport};
use crate::atomic_dag::AtomicDag;
use crate::baselines;
use crate::error::PipelineError;
use crate::exec::Exec;
use crate::mapping::{Mapper, MappingAlgo};
use crate::pipeline::{Pipeline, PlanContext, PlanOutcome, StageReport};
use crate::scheduler::{Schedule, ScheduleMode, Scheduler, SchedulerConfig};
use crate::validate::{self, BudgetOutcome, PlanBudget};

/// Configuration of the full pipeline. Also consumed by the baselines so
/// that every strategy sees the identical platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// System model (engines, mesh, HBM, buffering policy).
    pub sim: SimConfig,
    /// Single-engine spatial mapping strategy.
    pub dataflow: Dataflow,
    /// Batch size (all samples gathered into one atomic DAG).
    pub batch: usize,
    /// Atom-generation stage configuration.
    pub atomgen: AtomGenConfig,
    /// Scheduling search mode.
    pub schedule_mode: ScheduleMode,
    /// Mapping-stage placement algorithm.
    pub mapping: MappingAlgo,
    /// Atom-granularity scales explored by the iterative optimizing loop of
    /// Fig. 4(b): each entry seeds the generator's `target_atoms_per_layer`,
    /// the rest of the pipeline runs once per distinct atomization, and the
    /// cheapest simulated solution is kept. Zero entries are skipped.
    pub search_targets: [usize; 3],
    /// Worker threads for the candidate search (granularity-scale
    /// pipelines, SA chains, baseline sub-searches). Purely an *execution*
    /// knob: the candidate set is fixed by the configuration and reductions
    /// always visit candidates in index order, so every value of this field
    /// produces byte-identical results (1 = fully sequential, the default).
    pub parallelism: usize,
    /// Anytime-planning budget (SA and DP iteration caps); the default is
    /// unlimited.
    pub budget: PlanBudget,
}

impl OptimizerConfig {
    /// The paper's evaluation setup: 8×8 engines, KC-Partition, batch 1,
    /// SA atom generation, DP scheduling, optimized mapping, Alg. 3
    /// buffering.
    pub fn paper_default() -> Self {
        Self {
            sim: SimConfig::paper_default(),
            dataflow: Dataflow::KcPartition,
            batch: 1,
            atomgen: AtomGenConfig::default(),
            schedule_mode: ScheduleMode::Dp {
                lookahead: 2,
                branch: 3,
            },
            mapping: MappingAlgo::default(),
            search_targets: [24, 64, 160],
            parallelism: 1,
            budget: PlanBudget::unlimited(),
        }
    }

    /// A small, fast configuration for unit tests and doctests: 4×4 engines
    /// and a short SA budget. Equivalent to
    /// `for_hardware(&HardwareConfig::fast_test()) + with_fast_search()`.
    pub fn fast_test() -> Self {
        let mut cfg = Self::paper_default();
        cfg.sim.mesh = noc_model::MeshConfig::grid(4, 4);
        cfg.with_fast_search()
    }

    /// Builds the paper-default planning configuration against an explicit
    /// machine description instead of the hard-coded paper platform. This
    /// is the bridge between declarative [`HardwareConfig`] files and the
    /// simulator's typed configs (`engine-model` is pure data and cannot
    /// depend on `noc-model`/`mem-model`; this crate can).
    ///
    /// # Errors
    ///
    /// [`engine_model::ConfigError::Degenerate`] or
    /// [`engine_model::ConfigError::TooLarge`] from
    /// [`HardwareConfig::validate`] — the conversion refuses machines the
    /// planner would divide by zero on or overflow on.
    pub fn for_hardware(hw: &HardwareConfig) -> Result<Self, engine_model::ConfigError> {
        hw.validate()?;
        let mut cfg = Self::paper_default();
        cfg.sim = SimConfig {
            engine: hw.engine_config(),
            mesh: noc_model::MeshConfig {
                cols: hw.mesh_cols,
                rows: hw.mesh_rows,
                link_bytes_per_cycle: hw.link_bytes_per_cycle,
                hop_latency: hw.hop_latency,
                energy_pj_per_byte_hop: hw.noc_energy_pj_per_byte_hop,
            },
            hbm: mem_model::HbmConfig {
                capacity_bytes: hw.hbm_capacity_bytes,
                peak_bytes_per_cycle: hw.hbm_bytes_per_cycle,
                access_latency_cycles: hw.hbm_access_latency_cycles,
                energy_pj_per_byte: hw.hbm_energy_pj_per_byte,
                channels: hw.hbm_channels,
            },
            ..cfg.sim
        };
        Ok(cfg)
    }

    /// Returns a copy with the short search knobs used by tests, CI smoke
    /// runs and the daemon's `--fast` mode: 60 SA iterations, shallow DP
    /// lookahead and a single granularity target.
    pub fn with_fast_search(mut self) -> Self {
        if let crate::atomgen::AtomGenMode::Sa(ref mut p) = self.atomgen.mode {
            p.max_iters = 60;
        }
        self.schedule_mode = ScheduleMode::Dp {
            lookahead: 1,
            branch: 2,
        };
        self.search_targets = [32, 0, 0];
        self
    }

    /// Returns a copy with a different batch size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Returns a copy with a different dataflow.
    pub fn with_dataflow(mut self, dataflow: Dataflow) -> Self {
        self.dataflow = dataflow;
        self
    }

    /// Returns a copy with a different worker-thread count for the
    /// candidate search (results are identical for every value).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Returns a copy running `chains` independent SA chains per atom
    /// generation (see [`crate::SaParams::chains`]). Unlike
    /// [`OptimizerConfig::with_parallelism`], this changes the *search*
    /// itself — more chains explore more of the annealing space and the
    /// minimum-variance chain wins — so it honestly enters the plan
    /// fingerprint. No-op for non-SA generation modes.
    pub fn with_sa_chains(mut self, chains: usize) -> Self {
        if let crate::atomgen::AtomGenMode::Sa(ref mut p) = self.atomgen.mode {
            p.chains = chains.max(1);
        }
        self
    }

    /// Returns a copy with a different planning budget.
    pub fn with_budget(mut self, budget: PlanBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Number of engines in the configured mesh.
    pub fn engines(&self) -> usize {
        self.sim.engines()
    }

    /// The atom-generation configuration every planning path runs: the
    /// configured generator with the mesh's engine count filled in, and
    /// `target` (when given) as the granularity target.
    pub fn atomgen_config(&self, target: Option<usize>) -> AtomGenConfig {
        let mut cfg = self.atomgen;
        cfg.engines = self.engines();
        if let Some(t) = target {
            cfg.target_atoms_per_layer = t;
        }
        cfg
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Everything produced by one optimization run.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// The lowered, mapped program.
    pub program: Program,
    /// Simulation statistics of the final solution.
    pub stats: SimStats,
    /// Atom-generation report (specs, variance, convergence history).
    pub gen_report: GenReport,
    /// Number of scheduling rounds.
    pub rounds: usize,
    /// Number of atoms in the DAG.
    pub atoms: usize,
    /// Mean engine occupancy of the schedule.
    pub occupancy: f64,
    /// Per-stage wall times and summaries of the winning candidate's
    /// pipeline run; when the layer-order refinement lost, its rows follow
    /// (reporting only — never an input to planning).
    pub stage_reports: Vec<StageReport>,
    /// Whether the search completed within its [`PlanBudget`] or was
    /// truncated (best-so-far plan).
    pub budget: BudgetOutcome,
}

/// Drives atom generation → DAG scheduling → atom–engine mapping →
/// simulation (the iterative optimizing process of Fig. 4(b)).
#[derive(Debug, Clone)]
pub struct Optimizer {
    cfg: OptimizerConfig,
    /// Shared persistent worker pool ([`Optimizer::with_pool`]); `None`
    /// gives each run a pool of its own (see [`Optimizer::exec`]).
    pool: Option<std::sync::Arc<WorkerPool>>,
    /// Simulates the layer-order refinement to its end instead of stopping
    /// once it cannot win, so tests can compare the two.
    #[cfg(test)]
    reference: bool,
}

impl Optimizer {
    /// Creates an optimizer with the given configuration.
    pub fn new(cfg: OptimizerConfig) -> Self {
        Self {
            cfg,
            pool: None,
            #[cfg(test)]
            reference: false,
        }
    }

    /// Runs every fan-out of this optimizer on `pool` instead of a
    /// run-local one — long-lived callers (the serve daemon) share one pool
    /// across requests so a busy process never exceeds its thread budget.
    /// The pool's thread count governs execution; results stay
    /// byte-identical for any pool.
    pub fn with_pool(mut self, pool: std::sync::Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.cfg
    }

    /// The execution context of one run: the injected pool, or a pool of
    /// [`OptimizerConfig::parallelism`] runners. Execution-only — never
    /// affects planned bytes.
    fn exec(&self) -> Exec {
        match &self.pool {
            Some(p) => Exec::new(p.clone()),
            None => Exec::with_threads(self.cfg.parallelism),
        }
    }

    /// Runs atom generation and DAG construction only (used by experiments
    /// that study the generation stage, e.g. Fig. 5).
    pub fn build_dag(&self, graph: &Graph) -> (GenReport, AtomicDag) {
        let gen_cfg = self.cfg.atomgen_config(None);
        let exec = self.exec();
        let table = CandidateTable::build(
            graph,
            &gen_cfg,
            &self.cfg.sim.engine,
            self.cfg.dataflow,
            &exec,
        );
        let report = atomgen::generate(graph, &table, &gen_cfg, None, &exec);
        let dag = AtomicDag::build(
            graph,
            &report.specs,
            self.cfg.batch,
            &self.cfg.sim.engine,
            self.cfg.dataflow,
        );
        (report, dag)
    }

    /// Schedules and maps a pre-built DAG, returning the schedule and the
    /// per-round engine assignment.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::ScheduleError`] and [`crate::MappingError`] from
    /// the two stages.
    #[allow(clippy::type_complexity)]
    pub fn schedule_and_map(
        &self,
        dag: &AtomicDag,
    ) -> Result<(Schedule, Vec<Vec<(crate::atomic_dag::AtomId, usize)>>), PipelineError> {
        let sched = Scheduler::new(
            dag,
            SchedulerConfig {
                engines: self.cfg.engines(),
                mode: self.cfg.schedule_mode,
            },
        )
        .schedule()?;
        let mut mapper = Mapper::new(self.cfg.sim.mesh, self.cfg.mapping);
        let mapped = sched
            .rounds
            .iter()
            .map(|r| mapper.map_round(dag, r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((sched, mapped))
    }

    /// Runs the full pipeline on `graph`: the iterative optimizing process
    /// of Fig. 4(b) — atoms are generated at every candidate granularity
    /// from one candidate table, each distinct atomization is built into a
    /// DAG, scheduled, mapped and evaluated once, and the minimum-cost
    /// solution (refined under layer order when DP scheduling is on) is
    /// admitted ([`validate::admit`]) and returned. DESIGN.md §10 gives the
    /// soundness argument.
    ///
    /// # Errors
    ///
    /// Propagates a [`PipelineError`] from any stage: scheduling, mapping,
    /// or simulation of an inconsistent lowered schedule; and
    /// [`PipelineError::Validation`] when the returned plan fails
    /// admission. The last two are bugs, not user errors — surfaced rather
    /// than panicked for diagnosability.
    pub fn optimize(&self, graph: &Graph) -> Result<OptimizeResult, PipelineError> {
        let mut targets: Vec<usize> = self
            .cfg
            .search_targets
            .iter()
            .copied()
            .filter(|&t| t != 0)
            .collect();
        // All targets zero: plan once at the configured default, unrefined.
        let refine =
            !targets.is_empty() && matches!(self.cfg.schedule_mode, ScheduleMode::Dp { .. });
        if targets.is_empty() {
            targets.push(self.cfg.atomgen.target_atoms_per_layer);
        }
        // Every fan-out runs on the request's worker pool (nested SA chain
        // fan-outs reuse it, so live threads stay bounded by its size), and
        // the candidates share one cost-oracle interner — atom costs are
        // pure functions of (layer, extent), so each extent is evaluated
        // once across the search.
        let exec = self.exec();

        // Phase 1: one candidate table for the request (it does not depend
        // on the granularity target), then SA per target.
        let table = CandidateTable::build(
            graph,
            &self.cfg.atomgen_config(None),
            &self.cfg.sim.engine,
            self.cfg.dataflow,
            &exec,
        );
        let generated = exec.map(targets.len(), |i| {
            let started = Instant::now(); // ad-lint: allow(d2) — reporting only
            let report = atomgen::generate(
                graph,
                &table,
                &self.cfg.atomgen_config(Some(targets[i])),
                self.cfg.budget.sa_iter_cap(),
                &exec,
            );
            (report, started.elapsed().as_secs_f64() * 1e3)
        });
        // Judging never reads the table; free it before the DAGs exist.
        drop(table);
        // Phase 2: build and judge each distinct spec vector once. The DAG
        // and every later stage are deterministic functions of (specs,
        // config, mode, budget), so a candidate whose specs equal an earlier
        // one's would simulate to the same cycles — and the earliest-index
        // tie-break below never picks it.
        let distinct: Vec<usize> = (0..generated.len())
            .filter(|&i| (0..i).all(|j| generated[j].0.specs != generated[i].0.specs))
            .collect();
        let judged = exec.map(distinct.len(), |k| {
            let (report, sa_ms) = &generated[distinct[k]];
            let mut ctx = PlanContext::new(graph, self.cfg);
            ctx.exec = exec.clone();
            ctx.gen_report = Some(report.clone());
            let outcome = Pipeline::judge().run(&mut ctx);
            // The atomgen row covers this target's annealing too.
            if let Some(row) = ctx.reports.first_mut() {
                row.wall_ms += sa_ms;
            }
            outcome.map(|()| ctx)
        });
        // Reduce in index order: strictly cheaper wins, so the earliest
        // index breaks ties and the result is byte-identical for every
        // thread count.
        let mut best: Option<PlanContext<'_>> = None;
        for outcome in judged {
            let ctx = outcome?;
            if best.as_ref().is_none_or(|b| cycles(&ctx) < cycles(b)) {
                best = Some(ctx);
            }
        }
        let mut ctx = best.ok_or(PipelineError::StageOrder {
            stage: "optimize",
            missing: "candidate",
        })?;
        // Phase 3: layer-topological ordering is itself a point in Alg. 2's
        // search space; when DP search is enabled, evaluate it on the
        // winner's DAG and keep whichever the simulator prefers. Only a
        // strictly cheaper plan wins, so its simulation stops once it can
        // no longer finish below the judged cycles and leaves no stats.
        if refine {
            let judged_cycles = cycles(&ctx);
            let bound = judged_cycles;
            #[cfg(test)]
            let bound = if self.reference { u64::MAX } else { bound };
            let schedule = ctx.schedule.take();
            let mapped = ctx.mapped.take();
            let program = ctx.program.take();
            let stats = ctx.stats.take();
            let reports = std::mem::take(&mut ctx.reports);
            // The refined plan's reports start with the winner's atomgen
            // report, so an atomgen truncation still sets its budget.
            ctx.reports.extend(reports.first().cloned());
            Pipeline::refine(bound).run(&mut ctx)?;
            if cycles(&ctx) >= judged_cycles {
                // The kept plan's rows come first, the refinement's follow.
                let refined = std::mem::replace(&mut ctx.reports, reports);
                ctx.reports.extend(refined.into_iter().skip(1));
                (ctx.schedule, ctx.mapped, ctx.program, ctx.stats) =
                    (schedule, mapped, program, stats);
            }
        }
        // The plan handed out is audited once, whichever pass produced it.
        validate::admit(&mut ctx)?;
        self.finish(&mut ctx)
    }

    /// Packages the admitted winner's context as an [`OptimizeResult`].
    fn finish(&self, ctx: &mut PlanContext<'_>) -> Result<OptimizeResult, PipelineError> {
        let missing = |m: &'static str| PipelineError::StageOrder {
            stage: "optimize",
            missing: m,
        };
        let gen_report = ctx
            .gen_report
            .clone()
            .ok_or_else(|| missing("gen report"))?;
        let atoms = ctx.require_dag("optimize")?.atom_count();
        let sched = ctx.schedule.take().ok_or_else(|| missing("schedule"))?;
        let program = ctx.program.take().ok_or_else(|| missing("program"))?;
        let stats = ctx.stats.take().ok_or_else(|| missing("stats"))?;
        let stage_reports = std::mem::take(&mut ctx.reports);
        // The run's budget outcome is the first truncation any stage hit.
        let budget = stage_reports
            .iter()
            .map(|r| r.budget)
            .find(BudgetOutcome::is_truncated)
            .unwrap_or(BudgetOutcome::Completed);
        Ok(OptimizeResult {
            occupancy: sched.occupancy(self.cfg.engines()),
            rounds: sched.len(),
            atoms,
            program,
            stats,
            gen_report,
            stage_reports,
            budget,
        })
    }
}

/// Simulated cycles of a judged context (`u64::MAX` before simulation).
fn cycles(ctx: &PlanContext<'_>) -> u64 {
    ctx.stats.as_ref().map_or(u64::MAX, |s| s.total_cycles)
}

/// The workload-orchestration strategies compared throughout the paper's
/// evaluation (Sec. V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Atomic dataflow (this paper).
    AtomicDataflow,
    /// Layer-Sequential: one layer at a time, evenly partitioned across all
    /// engines (batch-enhanced per Sec. V-A).
    LayerSequential,
    /// CNN-Partition (Shen et al., ISCA'17): fixed CLP regions, batch
    /// pipelining, all ifmaps/ofmaps through DRAM.
    CnnPartition,
    /// Inter-layer pipelining (Tangram, ASPLOS'19) with ALLO-style
    /// fine-grained chunk pipelining.
    IlPipe,
    /// Rammer-style rTask co-scheduling (OSDI'20): uniform tasks, greedy
    /// packing, locality-oblivious placement.
    Rammer,
    /// Perfect-utilization, zero-memory-delay roofline.
    Ideal,
}

impl Strategy {
    /// All strategies in the paper's plotting order.
    pub const ALL: [Strategy; 6] = [
        Strategy::LayerSequential,
        Strategy::CnnPartition,
        Strategy::IlPipe,
        Strategy::Rammer,
        Strategy::AtomicDataflow,
        Strategy::Ideal,
    ];

    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::AtomicDataflow => "AD",
            Strategy::LayerSequential => "LS",
            Strategy::CnnPartition => "CNN-P",
            Strategy::IlPipe => "IL-Pipe",
            Strategy::Rammer => "Rammer",
            Strategy::Ideal => "Ideal",
        }
    }

    /// Runs this strategy on `graph` under `cfg` and returns the simulated
    /// statistics.
    ///
    /// # Errors
    ///
    /// Propagates a [`PipelineError`] from the strategy implementations
    /// (schedule-integrity failures are bugs if they ever fire).
    pub fn run(&self, graph: &Graph, cfg: &OptimizerConfig) -> Result<SimStats, PipelineError> {
        Ok(self.run_detailed(graph, cfg)?.stats)
    }

    /// Like [`Strategy::run`], but also returns the per-stage wall times
    /// and summaries of the strategy's pipeline (for the winning candidate,
    /// where the strategy searches over candidates).
    ///
    /// # Errors
    ///
    /// Same as [`Strategy::run`].
    pub fn run_detailed(
        &self,
        graph: &Graph,
        cfg: &OptimizerConfig,
    ) -> Result<PlanOutcome, PipelineError> {
        match self {
            Strategy::AtomicDataflow => {
                let r = Optimizer::new(*cfg).optimize(graph)?;
                Ok(PlanOutcome {
                    stats: r.stats,
                    reports: r.stage_reports,
                })
            }
            Strategy::LayerSequential => baselines::ls::pipeline().execute(graph, cfg),
            Strategy::CnnPartition => baselines::cnn_p::search(graph, cfg),
            Strategy::IlPipe => baselines::il_pipe::pipeline().execute(graph, cfg),
            Strategy::Rammer => baselines::rammer::pipeline().execute(graph, cfg),
            Strategy::Ideal => baselines::ideal::pipeline().execute(graph, cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_graph::models;

    #[test]
    fn optimize_tiny_network() {
        let g = models::tiny_branchy();
        let r = Optimizer::new(OptimizerConfig::fast_test())
            .optimize(&g)
            .unwrap();
        assert!(r.stats.total_cycles > 0);
        assert!(r.atoms > 0);
        assert!(r.rounds > 0);
        assert!(r.occupancy > 0.0 && r.occupancy <= 1.0);
        assert_eq!(r.program.total_macs(), r.stats.total_macs);
    }

    #[test]
    fn batching_is_no_worse_than_serial_samples() {
        let g = models::tiny_branchy();
        let cfg = OptimizerConfig::fast_test();
        let one = Optimizer::new(cfg).optimize(&g).unwrap();
        let two = Optimizer::new(cfg.with_batch(2)).optimize(&g).unwrap();
        // tiny_branchy nearly fills the 16-engine test mesh at batch 1, so
        // batch-level parallelism has little room here; the invariant is
        // that gathering two samples in one DAG never loses to running them
        // back-to-back (beyond scheduling noise).
        assert!(
            two.stats.total_cycles <= 2 * one.stats.total_cycles * 21 / 20,
            "batch2 {} vs 2x batch1 {}",
            two.stats.total_cycles,
            2 * one.stats.total_cycles
        );
        assert_eq!(two.stats.total_macs, 2 * one.stats.total_macs);
    }

    /// The planning configurations the refinement oracle runs under:
    /// `configs/paper_8x8.json` (KC-P, full search) at batch 1, and
    /// `configs/edge_4x4.json` with the fast search at each of `edge_batches`.
    fn oracle_configs(edge_batches: &[usize]) -> Vec<(String, OptimizerConfig)> {
        let load = |file: &str| {
            let path = format!("{}/../../configs/{file}", env!("CARGO_MANIFEST_DIR"));
            let hw = engine_model::HardwareConfig::load(&path).unwrap();
            OptimizerConfig::for_hardware(&hw).unwrap()
        };
        let mut cfgs = vec![(
            "paper_8x8 b1".to_string(),
            load("paper_8x8.json").with_dataflow(Dataflow::KcPartition),
        )];
        let edge = load("edge_4x4.json").with_fast_search();
        for &b in edge_batches {
            cfgs.push((format!("edge_4x4 fast b{b}"), edge.with_batch(b)));
        }
        cfgs
    }

    /// Optimizes `g` with the bounded layer-order refinement and with the
    /// reference that simulates it to its end, and demands the same plan:
    /// equal statistics, program, specs, rounds, atoms, occupancy and
    /// budget, which is everything a plan's bytes hold. Then simulates the
    /// layer-order plan in full and checks, one cycle above its cycles, that
    /// no round barrier's floor exceeds the run. Returns whether the
    /// production refinement stopped early.
    fn assert_matches_full_refinement(name: &str, g: &Graph, cfg: OptimizerConfig) -> bool {
        let r = Optimizer::new(cfg).optimize(g).unwrap();
        let want = Optimizer {
            reference: true,
            ..Optimizer::new(cfg)
        }
        .optimize(g)
        .unwrap();
        assert_eq!(
            r.stats.to_json().to_compact(),
            want.stats.to_json().to_compact(),
            "{name}: statistics"
        );
        assert_eq!(r.program.rounds(), want.program.rounds(), "{name}: program");
        assert_eq!(r.gen_report.specs, want.gen_report.specs, "{name}: specs");
        assert_eq!(
            (r.rounds, r.atoms, r.occupancy.to_bits(), r.budget),
            (
                want.rounds,
                want.atoms,
                want.occupancy.to_bits(),
                want.budget
            ),
            "{name}: plan detail"
        );

        // The refinement of the winner's atomization, simulated in full.
        let mut ctx = PlanContext::new(g, cfg);
        ctx.gen_report = Some(r.gen_report.clone());
        Pipeline::new(vec![Box::new(crate::pipeline::AtomDagStage)])
            .run(&mut ctx)
            .unwrap();
        Pipeline::refine(u64::MAX).run(&mut ctx).unwrap();
        let (program, lo) = (ctx.program.unwrap(), ctx.stats.unwrap());
        let sim = accel_sim::Simulator::new(cfg.sim);
        assert_eq!(
            sim.run_within(&program, lo.total_cycles + 1).unwrap(),
            accel_sim::BoundedOutcome::Completed(Box::new(lo.clone())),
            "{name}: a round floor exceeds the layer-order run's {} cycles",
            lo.total_cycles
        );

        let stopped = r
            .stage_reports
            .iter()
            .any(|s| s.stage == "simulate" && s.summary.starts_with("stopped at round"));
        if stopped {
            assert!(
                lo.total_cycles >= r.stats.total_cycles,
                "{name}: stopped a refinement that wins ({} < {})",
                lo.total_cycles,
                r.stats.total_cycles
            );
        }
        stopped
    }

    #[test]
    fn bounded_refinement_matches_the_full_refinement() {
        let mut stops = 0;
        for g in [models::tiny_cnn(), models::tiny_branchy()] {
            for (label, cfg) in oracle_configs(&[1, 4, 8]) {
                let name = format!("{} {label}", g.name());
                stops += usize::from(assert_matches_full_refinement(&name, &g, cfg));
            }
        }
        assert!(stops > 0, "no refinement stopped early");
    }

    #[test]
    #[ignore = "zoo-wide refinement oracle; run in release with --ignored"]
    fn bounded_refinement_matches_the_full_refinement_on_every_zoo_graph() {
        let mut stops = 0;
        for g in models::all_paper_workloads() {
            for (label, cfg) in oracle_configs(&[1, 4, 8]) {
                let name = format!("{} {label}", g.name());
                stops += usize::from(assert_matches_full_refinement(&name, &g, cfg));
            }
        }
        assert!(stops > 0, "no refinement stopped early");
    }

    #[test]
    fn strategy_labels_unique() {
        let labels: std::collections::BTreeSet<&str> =
            Strategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Strategy::ALL.len());
    }
}
