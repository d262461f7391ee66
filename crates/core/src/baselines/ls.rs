//! Layer-Sequential (LS) baseline: process DNN layers one at a time, each
//! evenly partitioned across all on-chip engines (Sec. II-B / Fig. 2).
//!
//! Per Sec. V-A the naive method is enhanced for batch processing by
//! simultaneously mapping multiple input samples: with batch `B` on `N`
//! engines, `k = min(B, N)` samples are co-scheduled and each sample's layer
//! is split into `N / k` partitions, which keeps per-engine sub-tasks larger
//! than a 1-sample `N`-way split would.

use dnn_graph::Graph;

use crate::atomic_dag::AtomId;
use crate::error::PipelineError;
use crate::optimizer::OptimizerConfig;
use crate::pipeline::{LowerStage, Pipeline, PlanContext, SimulateStage, Stage, StageReport};

/// The LS planning stage: builds the naive N-way DAG and the
/// layer-sequential wave mapping (fused scheduling + placement, since LS
/// has no search in either).
///
/// Consumes: graph. Produces: `dag`, `mapped`.
#[derive(Debug, Clone, Copy, Default)]
pub struct LsPlanStage;

impl Stage for LsPlanStage {
    fn name(&self) -> &'static str {
        "ls-plan"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        let graph = ctx.require_graph(self.name())?;
        let n = ctx.cfg.engines();
        let batch = ctx.cfg.batch.max(1);

        // Naive N-way even partitioning of every layer (Sec. II-B); the
        // batch enhancement of Sec. V-A pools all samples' partitions of a
        // layer so no wave slot is left empty — the tile size itself stays
        // naive.
        let dag = super::naive_dag(graph, batch, &ctx.cfg.sim.engine, ctx.cfg.dataflow, n);

        let zig = ctx.cfg.sim.mesh.zigzag_order();
        let mut rounds: Vec<Vec<(AtomId, usize)>> = Vec::new();
        for lid in graph.topo_order() {
            if graph.layer(lid).op().is_input() {
                continue;
            }
            let mut pool: Vec<AtomId> = Vec::new();
            for b in 0..batch {
                pool.extend_from_slice(dag.layer_atoms(b, lid));
            }
            for wave in pool.chunks(n) {
                rounds.push(wave.iter().enumerate().map(|(i, a)| (*a, zig[i])).collect());
            }
        }

        let summary = format!("{} atoms in {} waves", dag.atom_count(), rounds.len());
        ctx.dag = Some(dag);
        ctx.mapped = Some(rounds);
        Ok(StageReport::new(self.name(), summary))
    }
}

/// LS as a stage list over the shared machinery: plan → lower → simulate.
pub fn pipeline() -> Pipeline {
    Pipeline::new(vec![
        Box::new(LsPlanStage),
        Box::new(LowerStage),
        Box::new(SimulateStage),
    ])
}

/// The Fig. 2 experiment: per-layer PE utilization of LS with each layer
/// evenly partitioned across all `N` engines (communication delay excluded).
/// Returns `(layer_name, utilization)` for every array (CONV/FC) layer.
pub fn layer_utilizations(graph: &Graph, cfg: &OptimizerConfig) -> Vec<(String, f64)> {
    let n = cfg.engines();
    let dag = super::naive_dag(graph, 1, &cfg.sim.engine, cfg.dataflow, n);
    graph
        .layers()
        .filter(|l| l.is_array_op())
        .map(|l| {
            let atoms = dag.layer_atoms(0, l.id());
            // Layer utilization = layer MACs / (N * PEs * slowest partition),
            // i.e. all engines run in parallel, synchronized by the slowest.
            let slowest = atoms
                .iter()
                .map(|a| dag.atom(*a).cost.cycles)
                .max()
                .unwrap_or(1)
                .max(1);
            let waves = atoms.len().div_ceil(n) as u64;
            let util = l.macs() as f64
                / (slowest as f64 * waves as f64 * n as f64 * cfg.sim.engine.pe_count() as f64);
            (l.name().to_string(), util.min(1.0))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;
    use dnn_graph::models;

    fn cfg() -> OptimizerConfig {
        let mut c = OptimizerConfig::fast_test();
        c.sim.mesh = noc_model::MeshConfig::grid(4, 4);
        c
    }

    #[test]
    fn ls_runs_tiny_network() {
        let g = models::tiny_cnn();
        let s = Strategy::LayerSequential.run(&g, &cfg()).unwrap();
        assert!(s.total_cycles > 0);
        assert_eq!(s.total_macs, g.layers().map(|l| l.macs()).sum::<u64>());
    }

    #[test]
    fn ls_batch_enhancement_beats_serial_samples() {
        let g = models::tiny_cnn();
        let c1 = cfg();
        let s1 = Strategy::LayerSequential.run(&g, &c1).unwrap();
        let s4 = Strategy::LayerSequential
            .run(&g, &c1.with_batch(4))
            .unwrap();
        assert!(
            s4.total_cycles < 4 * s1.total_cycles,
            "batched LS {} vs 4x single {}",
            s4.total_cycles,
            4 * s1.total_cycles
        );
    }

    #[test]
    fn layer_utilizations_cover_array_layers() {
        let g = models::tiny_cnn();
        let utils = layer_utilizations(&g, &cfg());
        let array = g.layers().filter(|l| l.is_array_op()).count();
        assert_eq!(utils.len(), array);
        for (name, u) in &utils {
            assert!(*u > 0.0 && *u <= 1.0, "{name}: {u}");
        }
    }

    #[test]
    fn small_layers_underutilize_when_oversplit() {
        // 1x1x10-output FC split across 16 engines cannot use them all.
        let g = models::tiny_cnn();
        let utils = layer_utilizations(&g, &cfg());
        let fc = utils.iter().find(|(n, _)| n == "fc").unwrap();
        assert!(fc.1 < 0.2, "fc util = {}", fc.1);
    }
}
