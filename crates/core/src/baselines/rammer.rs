//! Rammer-style baseline (Ma et al., OSDI'20), as characterized in the
//! paper's related-work discussion: rTasks are co-scheduled to boost
//! utilization, but the system "does not discuss how the rTasks are
//! generated, nor does it consider spatial data reuse, inter-array
//! communication, engine resources partitioning, and layer fusion".
//!
//! Accordingly: uniform (non-balanced) task generation, FIFO ready-queue
//! packing with no priority rules, slot-order (locality-oblivious)
//! placement, and FIFO buffer eviction instead of Alg. 3.

use std::collections::VecDeque;

use ad_util::cast::u32_from_usize;

use accel_sim::EvictionKind;

use crate::atomic_dag::AtomId;
use crate::error::PipelineError;
use crate::pipeline::{LowerStage, Pipeline, PlanContext, SimulateStage, Stage, StageReport};

/// Rammer as a stage list over the shared machinery: plan → lower →
/// simulate (the plan stage switches the simulated eviction policy to
/// FIFO, so the shared [`SimulateStage`] needs no special casing).
pub fn pipeline() -> Pipeline {
    Pipeline::new(vec![
        Box::new(RammerPlanStage),
        Box::new(LowerStage),
        Box::new(SimulateStage),
    ])
}

/// The Rammer planning stage: uniform rTask generation, FIFO ready-queue
/// packing, slot-order placement, and the FIFO-eviction configuration
/// refinement.
///
/// Consumes: graph. Produces: `dag`, `mapped`, and sets
/// `cfg.sim.eviction = FIFO`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RammerPlanStage;

impl Stage for RammerPlanStage {
    fn name(&self) -> &'static str {
        "rammer-plan"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        let graph = ctx.require_graph(self.name())?;
        let cfg = &ctx.cfg;
        let n = cfg.engines();
        // Fixed-granularity rTasks: every layer split into ≈ N uniform
        // pieces.
        let dag = super::naive_dag(graph, cfg.batch.max(1), &cfg.sim.engine, cfg.dataflow, n);

        // FIFO topological packing: take up to N ready tasks per round, in
        // plain discovery order.
        let mut indegree: Vec<u32> = (0..dag.atom_count())
            .map(|i| u32_from_usize(dag.preds(AtomId(u32_from_usize(i))).len()))
            .collect();
        let mut queue: VecDeque<AtomId> = (0..u32_from_usize(dag.atom_count()))
            .map(AtomId)
            .filter(|a| indegree[a.index()] == 0)
            .collect();

        let zig = cfg.sim.mesh.zigzag_order();
        let mut rounds: Vec<Vec<(AtomId, usize)>> = Vec::new();
        let mut scheduled = 0usize;
        while scheduled < dag.atom_count() {
            let take = queue.len().min(n);
            let mut round = Vec::with_capacity(take);
            for &engine in zig.iter().take(take) {
                let Some(a) = queue.pop_front() else { break };
                round.push((a, engine));
            }
            scheduled += round.len();
            for (a, _) in &round {
                for &s in dag.succs(*a) {
                    indegree[s.index()] -= 1;
                    if indegree[s.index()] == 0 {
                        queue.push_back(s);
                    }
                }
            }
            assert!(!round.is_empty(), "live-lock in rammer packing");
            rounds.push(round);
        }

        // No Alg. 3 buffering: Rammer evicts FIFO.
        ctx.cfg.sim.eviction = EvictionKind::Fifo;
        let summary = format!("{} rTasks in {} rounds", dag.atom_count(), rounds.len());
        ctx.dag = Some(dag);
        ctx.mapped = Some(rounds);
        Ok(StageReport::new(self.name(), summary))
    }
}

#[cfg(test)]
mod tests {
    use crate::{OptimizerConfig, Strategy};
    use dnn_graph::models;

    #[test]
    fn rammer_runs_and_schedules_everything() {
        let g = models::tiny_branchy();
        let mut cfg = OptimizerConfig::fast_test();
        cfg.sim.mesh = noc_model::MeshConfig::grid(4, 4);
        let s = Strategy::Rammer.run(&g, &cfg).unwrap();
        assert!(s.total_cycles > 0);
        assert_eq!(s.total_macs, g.layers().map(|l| l.macs()).sum::<u64>());
    }

    #[test]
    fn rammer_packs_rounds_at_least_as_tightly_as_ls() {
        // Co-scheduling ready tasks can only reduce the number of rounds
        // relative to strict layer-sequential execution. (Wall-clock may
        // still differ either way at toy scale: Rammer's placement is
        // locality-oblivious by design.)
        let g = models::tiny_branchy();
        let mut cfg = OptimizerConfig::fast_test();
        cfg.sim.mesh = noc_model::MeshConfig::grid(4, 4);
        let rammer = Strategy::Rammer.run(&g, &cfg).unwrap();
        let ls = Strategy::LayerSequential.run(&g, &cfg).unwrap();
        assert!(
            rammer.rounds <= ls.rounds,
            "rammer rounds {} > ls rounds {}",
            rammer.rounds,
            ls.rounds
        );
        assert!(
            rammer.total_cycles <= 2 * ls.total_cycles,
            "rammer {} way above ls {}",
            rammer.total_cycles,
            ls.total_cycles
        );
    }
}
