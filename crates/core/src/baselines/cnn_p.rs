//! CNN-Partition (CNN-P) baseline (Shen et al., ISCA'17; paper Sec. II-B,
//! Fig. 3(a)).
//!
//! On-chip engines are clustered into `K` fixed *convolutional layer
//! processors* (CLPs); each CLP is bound to a contiguous range of DNN
//! layers, balanced by MAC count. Batched samples are pipelined in layer
//! granularity: at step `s`, CLP `c` processes its layer range for sample
//! `s − c`. Because multiple layers with various shapes share one fixed
//! CLP, every ifmap/ofmap moves through off-chip memory, and each step is
//! synchronized by the slowest CLP — the two structural weaknesses the
//! paper calls out. The plan stage sets [`PlanContext::dram_outputs`], so
//! the lowered program sends every output to DRAM while sharing the DAG's
//! task table like every other plan.
//!
//! With `batch == 1` no pipelining is possible and CNN-P degenerates to LS
//! (Sec. V-B: "CNN-P cannot pipeline layers among CLPs, and its mapping
//! strategy is the same with LS").

use ad_util::WorkerPool;
use dnn_graph::{Graph, LayerId};

use crate::atomic_dag::AtomId;
use crate::error::PipelineError;
use crate::optimizer::OptimizerConfig;
use crate::pipeline::{
    LowerStage, Pipeline, PlanContext, PlanOutcome, SimulateStage, Stage, StageReport,
};

/// Plans and simulates CNN-P on `graph` under `cfg`, auto-selecting the
/// CLP count among `{2, 4, 8}` by simulated cycles (the original work
/// explores partitions offline too), and returns the winning candidate's
/// statistics and stage reports. The CLP candidates are evaluated on a
/// pool of [`OptimizerConfig::parallelism`] runners; the reduction visits
/// them in fixed index order, so the winner is thread-count independent.
/// [`crate::Strategy::CnnPartition`] runs this.
///
/// # Errors
///
/// Propagates schedule-integrity errors (a bug if it fires).
pub fn search(graph: &Graph, cfg: &OptimizerConfig) -> Result<PlanOutcome, PipelineError> {
    if cfg.batch <= 1 {
        return super::ls::pipeline().execute(graph, cfg);
    }
    let compute_layers = graph
        .topo_order()
        .into_iter()
        .filter(|l| !graph.layer(*l).op().is_input())
        .count();
    let ks: Vec<usize> = [2usize, 4, 8]
        .into_iter()
        .filter(|&k| k <= cfg.engines() && k <= compute_layers && k <= cfg.batch)
        .collect();
    let candidates =
        WorkerPool::new(cfg.parallelism).map(ks.len(), |i| pipeline(ks[i]).execute(graph, cfg));
    let mut best: Option<PlanOutcome> = None;
    for candidate in candidates {
        let candidate = candidate?;
        if best
            .as_ref()
            .is_none_or(|b| candidate.stats.total_cycles < b.stats.total_cycles)
        {
            best = Some(candidate);
        }
    }
    match best {
        Some(s) => Ok(s),
        None => super::ls::pipeline().execute(graph, cfg),
    }
}

/// CNN-P with exactly `k` CLPs as a stage list: plan → lower → simulate.
pub fn pipeline(k: usize) -> Pipeline {
    Pipeline::new(vec![
        Box::new(CnnPPlanStage { k }),
        Box::new(LowerStage),
        Box::new(SimulateStage),
    ])
}

/// The CNN-P planning stage for a fixed CLP count: fixed engine spans,
/// MAC-balanced contiguous layer ranges, batch pipelining, and the
/// everything-through-DRAM lowering rule.
///
/// Consumes: graph. Produces: `dag`, `mapped`, `dram_outputs` (all ofmaps
/// to DRAM).
#[derive(Debug, Clone, Copy)]
pub struct CnnPPlanStage {
    /// Number of convolutional layer processors.
    pub k: usize,
}

impl Stage for CnnPPlanStage {
    fn name(&self) -> &'static str {
        "cnn-p-plan"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        let graph = ctx.require_graph(self.name())?;
        let k = self.k;
        let n = ctx.cfg.engines();
        let batch = ctx.cfg.batch.max(1);
        let zig = ctx.cfg.sim.mesh.zigzag_order();
        let cfg = &ctx.cfg;

        // Contiguous engine spans along the zig-zag enumeration: CLP regions
        // are spatially compact.
        let base = n / k;
        let mut spans: Vec<&[usize]> = Vec::with_capacity(k);
        let mut off = 0;
        for c in 0..k {
            let extra = usize::from(c < n % k);
            spans.push(&zig[off..off + base + extra]);
            off += base + extra;
        }

        // Contiguous layer ranges balanced by MACs.
        let layers: Vec<LayerId> = graph
            .topo_order()
            .into_iter()
            .filter(|l| !graph.layer(*l).op().is_input())
            .collect();
        let total_macs: u64 = layers.iter().map(|l| graph.layer(*l).macs().max(1)).sum();
        let mut clp_of = vec![0usize; graph.layer_count()];
        let mut acc = 0u64;
        let mut clp = 0usize;
        for (i, lid) in layers.iter().enumerate() {
            clp_of[lid.index()] = clp;
            acc += graph.layer(*lid).macs().max(1);
            // Cut when this CLP reached its share, keeping enough layers for the
            // remaining CLPs.
            let remaining_layers = layers.len() - i - 1;
            let remaining_clps = k - clp - 1;
            if clp + 1 < k
                && acc * k as u64 >= total_macs * (clp as u64 + 1)
                && remaining_layers >= remaining_clps
            {
                clp += 1;
            }
        }

        // Each layer is split across its CLP's engines.
        let dag = super::uniform_dag(graph, batch, &cfg.sim.engine, cfg.dataflow, |l| {
            spans[clp_of[l.id().index()]].len()
        });

        // Pipeline steps: CLP c handles sample (s - c) at step s. Within a
        // step, each CLP runs its layer range sequentially in engine-sized
        // waves; waves of different CLPs are interleaved into shared rounds.
        let mut rounds: Vec<Vec<(AtomId, usize)>> = Vec::new();
        for s in 0..(batch + k - 1) {
            // Per-CLP wave lists for this step.
            let mut clp_waves: Vec<Vec<Vec<(AtomId, usize)>>> = Vec::with_capacity(k);
            for (c, span) in spans.iter().enumerate() {
                let mut waves: Vec<Vec<(AtomId, usize)>> = Vec::new();
                let Some(sample) = s.checked_sub(c) else {
                    clp_waves.push(waves);
                    continue;
                };
                if sample >= batch {
                    clp_waves.push(waves);
                    continue;
                }
                for lid in &layers {
                    if clp_of[lid.index()] != c {
                        continue;
                    }
                    for wave in dag.layer_atoms(sample, *lid).chunks(span.len()) {
                        waves.push(
                            wave.iter()
                                .enumerate()
                                .map(|(i, a)| (*a, span[i]))
                                .collect(),
                        );
                    }
                }
                clp_waves.push(waves);
            }
            let depth = clp_waves.iter().map(Vec::len).max().unwrap_or(0);
            for j in 0..depth {
                let mut round = Vec::new();
                for waves in &clp_waves {
                    if let Some(w) = waves.get(j) {
                        round.extend_from_slice(w);
                    }
                }
                if !round.is_empty() {
                    rounds.push(round);
                }
            }
        }

        // Every ifmap/ofmap goes through DRAM (Sec. II-B).
        ctx.dram_outputs = true;
        let summary = format!(
            "{} CLPs, {} atoms in {} rounds",
            k,
            dag.atom_count(),
            rounds.len()
        );
        ctx.dag = Some(dag);
        ctx.mapped = Some(rounds);
        Ok(StageReport::new(self.name(), summary))
    }
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

    /// CNN-P with exactly `k` CLPs.
    fn clps(g: &Graph, c: &OptimizerConfig, k: usize) -> accel_sim::SimStats {
        pipeline(k).execute(g, c).unwrap().stats
    }

    #[test]
    fn cnn_p_batch1_equals_ls() {
        let g = models::tiny_cnn();
        let c = cfg();
        let cp = Strategy::CnnPartition.run(&g, &c).unwrap();
        let ls = Strategy::LayerSequential.run(&g, &c).unwrap();
        assert_eq!(cp.total_cycles, ls.total_cycles);
    }

    #[test]
    fn cnn_p_pipelines_batches() {
        let g = models::tiny_cnn();
        let c = cfg().with_batch(4);
        let s = clps(&g, &c, 2);
        assert!(s.total_cycles > 0);
        let expected_macs = g.layers().map(|l| l.macs()).sum::<u64>() * 4;
        assert_eq!(s.total_macs, expected_macs);
    }

    #[test]
    fn cnn_p_forces_offchip_traffic() {
        let g = models::tiny_cnn();
        let c = cfg().with_batch(4);
        let cp = clps(&g, &c, 2);
        let ls = Strategy::LayerSequential.run(&g, &c).unwrap();
        assert!(
            cp.dram_write_bytes > ls.dram_write_bytes,
            "cnn-p writes {} <= ls writes {}",
            cp.dram_write_bytes,
            ls.dram_write_bytes
        );
        assert!(
            cp.onchip_reuse_ratio < ls.onchip_reuse_ratio,
            "cnn-p reuse {} >= ls reuse {}",
            cp.onchip_reuse_ratio,
            ls.onchip_reuse_ratio
        );
    }

    #[test]
    fn cnn_p_pipelining_amortizes_with_batch() {
        // Steps grow as (batch + K - 1), not batch × K: quadrupling the
        // batch must take well under 4x the cycles.
        let g = models::tiny_cnn();
        let s2 = clps(&g, &cfg().with_batch(2), 2);
        let s8 = clps(&g, &cfg().with_batch(8), 2);
        assert!(
            s8.total_cycles < 4 * s2.total_cycles,
            "batch8 {} vs 4x batch2 {}",
            s8.total_cycles,
            4 * s2.total_cycles
        );
    }
}
