//! Inter-Layer Pipelining (IL-Pipe) baseline (Tangram, ASPLOS'19; paper
//! Sec. II-B, Fig. 3(b)), enhanced with ALLO-style fine-grained pipelining
//! per Sec. V-A.
//!
//! Consecutive layers form *segments*; within a segment every layer gets a
//! contiguous engine region sized proportionally to its MACs, and data
//! flows chunk-by-chunk between adjacent regions over the NoC. Chunks are
//! pipelined: layer `j` nominally runs chunk `c` at step `c + 2j` (the +2
//! skew guarantees the producer halo is complete). A legalization pass
//! delays chunks whose dependencies are not yet satisfied — this covers
//! whole-tensor consumers (FC, global pooling) and stride mismatches while
//! preserving the pipeline-fill/drain behaviour that costs IL-Pipe its
//! utilization. Segment boundaries spill to DRAM (regions are re-allocated
//! between segments).

use dnn_graph::LayerId;

use crate::atomic_dag::AtomId;
use crate::error::PipelineError;
use crate::pipeline::{LowerStage, Pipeline, PlanContext, SimulateStage, Stage, StageReport};

/// Chunks each layer is split into along the pipeline (ALLO granularity).
/// Pipeline fill/drain costs ≈ `2·m/P` of one sample per segment, so chunks
/// must outnumber the segment's stage count.
const PIPELINE_CHUNKS: usize = 4;

/// Maximum layers per segment. Tangram keeps segments short (a handful of
/// consecutive layers); long segments explode the fill/drain skew.
const MAX_SEGMENT_LAYERS: usize = 8;

/// IL-Pipe as a stage list over the shared machinery: plan → lower →
/// simulate.
pub fn pipeline() -> Pipeline {
    Pipeline::new(vec![
        Box::new(IlPipePlanStage),
        Box::new(LowerStage),
        Box::new(SimulateStage),
    ])
}

/// The IL-Pipe planning stage: segment formation, proportional region
/// allocation, chunk-pipelined schedule with legalization.
///
/// Consumes: graph. Produces: `dag`, `mapped`.
#[derive(Debug, Clone, Copy, Default)]
pub struct IlPipePlanStage;

impl Stage for IlPipePlanStage {
    fn name(&self) -> &'static str {
        "il-pipe-plan"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        let graph = ctx.require_graph(self.name())?;
        let cfg = &ctx.cfg;
        let n = cfg.engines();
        let batch = cfg.batch.max(1);
        let zig = cfg.sim.mesh.zigzag_order();

        let layers: Vec<LayerId> = graph
            .topo_order()
            .into_iter()
            .filter(|l| !graph.layer(*l).op().is_input())
            .collect();

        // --- Segment formation: consecutive layers while weights fit on-chip
        // and every layer can get an engine.
        let weight_budget = cfg.sim.engine.buffer_bytes * n as u64 / 2;
        let mut segments: Vec<Vec<LayerId>> = Vec::new();
        let mut cur: Vec<LayerId> = Vec::new();
        let mut cur_weights = 0u64;
        for lid in &layers {
            let w = graph.layer(*lid).weight_bytes();
            if !cur.is_empty()
                && (cur.len() >= MAX_SEGMENT_LAYERS.min(n) || cur_weights + w > weight_budget)
            {
                segments.push(std::mem::take(&mut cur));
                cur_weights = 0;
            }
            cur.push(*lid);
            cur_weights += w;
        }
        if !cur.is_empty() {
            segments.push(cur);
        }

        // --- Region allocation per segment: engines proportional to each
        // layer's engine-time (MACs on the array; vector ops weighted by the
        // PE-to-vector-lane throughput ratio), ≥ 1 each.
        let vector_weight = (cfg.sim.engine.pe_count() / cfg.sim.engine.vector_lanes as u64).max(1);
        let time_weight = |l: &LayerId| -> u64 {
            let layer = graph.layer(*l);
            layer.macs().max(layer.vector_ops() * vector_weight).max(1)
        };
        // Dense table: layer ids index contiguously (input layers keep an
        // empty region and are never atomized).
        let mut region_of: Vec<Vec<usize>> = vec![Vec::new(); graph.layer_count()];
        for seg in &segments {
            let total: u64 = seg.iter().map(time_weight).sum();
            let mut sizes: Vec<usize> = seg
                .iter()
                .map(|l| (((time_weight(l) as u128 * n as u128) / total as u128) as usize).max(1))
                .collect();
            // Fix the sum to exactly n.
            loop {
                let sum: usize = sizes.iter().sum();
                if sum == n {
                    break;
                }
                if sum > n {
                    // Shrink the largest shrinkable region.
                    let i = (0..sizes.len()).max_by_key(|i| sizes[*i]).unwrap_or(0);
                    assert!(
                        sizes[i] > 1,
                        "cannot fit {} layers on {} engines",
                        seg.len(),
                        n
                    );
                    sizes[i] -= 1;
                } else {
                    // Grow the region of the most compute-heavy layer.
                    let i = (0..sizes.len())
                        .max_by_key(|i| time_weight(&seg[*i]) / sizes[*i] as u64)
                        .unwrap_or(0);
                    sizes[i] += 1;
                }
            }
            let mut off = 0;
            for (l, sz) in seg.iter().zip(&sizes) {
                region_of[l.index()] = zig[off..off + sz].to_vec();
                off += sz;
            }
        }

        // --- Atomization: each layer split into region_size × PIPELINE_CHUNKS
        // tiles so one chunk occupies the whole region.
        let dag = super::uniform_dag(graph, batch, &cfg.sim.engine, cfg.dataflow, |l| {
            region_of[l.id().index()].len() * PIPELINE_CHUNKS
        });

        // --- Pipelined schedule with legalization. Atom ids are dense, so
        // the step of each scheduled atom lives in a flat table
        // (`UNSCHEDULED` = not yet placed); steps are small integers, so the
        // step → round bucket table is a Vec grown on demand.
        const UNSCHEDULED: usize = usize::MAX;
        let mut atom_step: Vec<usize> = vec![UNSCHEDULED; dag.atom_count()];
        let mut rounds_by_step: Vec<Vec<(AtomId, usize)>> = Vec::new();
        let mut base_step = 0usize;

        for seg in &segments {
            let mut seg_max_step = base_step;
            for (j, lid) in seg.iter().enumerate() {
                let region = &region_of[lid.index()];
                let mut prev_chunk_step: Option<usize> = None;
                for b in 0..batch {
                    let atoms = dag.layer_atoms(b, *lid);
                    let chunks_per_sample = atoms.len().div_ceil(region.len());
                    for (ci, chunk) in atoms.chunks(region.len()).enumerate() {
                        let c_global = b * chunks_per_sample + ci;
                        let nominal = base_step + c_global + j;
                        let mut step = nominal;
                        if let Some(p) = prev_chunk_step {
                            step = step.max(p + 1);
                        }
                        for a in chunk {
                            for (p, _) in dag.preds(*a) {
                                let ps = atom_step[p.index()];
                                if ps != UNSCHEDULED {
                                    step = step.max(ps + 1);
                                }
                            }
                        }
                        prev_chunk_step = Some(step);
                        seg_max_step = seg_max_step.max(step);
                        if step >= rounds_by_step.len() {
                            rounds_by_step.resize_with(step + 1, Vec::new);
                        }
                        let entry = &mut rounds_by_step[step];
                        for (i, a) in chunk.iter().enumerate() {
                            atom_step[a.index()] = step;
                            entry.push((*a, region[i]));
                        }
                    }
                }
            }
            base_step = seg_max_step + 1;
        }

        // Index order *is* ascending step order; legalization can leave a
        // step empty (every chunk delayed past its nominal slot), and the
        // round list carries only populated steps.
        let rounds: Vec<Vec<(AtomId, usize)>> = rounds_by_step
            .into_iter()
            .filter(|r| !r.is_empty())
            .collect();

        // Segment-boundary tensors stay in the distributed buffers and are
        // pulled by the next segment's regions over the NoC; the buffering
        // policy spills them only under pressure (Tangram's design goal is
        // precisely to avoid off-chip round-trips): the default buffered
        // lowering already expresses that, so the stage leaves
        // `ctx.dram_outputs` unset.
        let summary = format!(
            "{} segments, {} atoms in {} rounds",
            segments.len(),
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
    use crate::{OptimizerConfig, Strategy};
    use dnn_graph::models;

    fn cfg() -> OptimizerConfig {
        let mut c = OptimizerConfig::fast_test();
        c.sim.mesh = noc_model::MeshConfig::grid(4, 4);
        c
    }

    #[test]
    fn il_pipe_runs_and_covers_all_macs() {
        let g = models::tiny_cnn();
        let s = Strategy::IlPipe.run(&g, &cfg()).unwrap();
        assert_eq!(s.total_macs, g.layers().map(|l| l.macs()).sum::<u64>());
    }

    #[test]
    fn il_pipe_reuses_onchip_more_than_cnn_p() {
        // IL-Pipe's design goal (Sec. II-B): eliminate CNN-P's redundant
        // off-chip accesses by streaming between adjacent regions.
        let g = models::tiny_cnn();
        let c = cfg().with_batch(4);
        let il = Strategy::IlPipe.run(&g, &c).unwrap();
        let cp = super::super::cnn_p::pipeline(2)
            .execute(&g, &c)
            .unwrap()
            .stats;
        assert!(
            il.dram_read_bytes < cp.dram_read_bytes,
            "il {} vs cnn-p {}",
            il.dram_read_bytes,
            cp.dram_read_bytes
        );
    }

    #[test]
    fn il_pipe_handles_branching_graphs() {
        let g = models::tiny_branchy();
        let s = Strategy::IlPipe.run(&g, &cfg().with_batch(2)).unwrap();
        assert!(s.total_cycles > 0);
    }

    #[test]
    fn pipeline_fill_causes_underutilization_at_batch_1() {
        // With one sample the pipeline never fills: utilization must be
        // clearly below AD's.
        let g = models::tiny_cnn();
        let c = cfg();
        let il = Strategy::IlPipe.run(&g, &c).unwrap();
        let ad = crate::Optimizer::new(c).optimize(&g).unwrap().stats;
        assert!(
            ad.pe_utilization > il.pe_utilization,
            "ad {} <= il {}",
            ad.pe_utilization,
            il.pe_utilization
        );
    }

    #[test]
    fn il_pipe_respects_segment_weight_budget() {
        // VGG's conv blocks are weight-heavy; IL-Pipe must still produce a
        // valid program (the segment rule splits before weights overflow the
        // aggregate buffer budget).
        let g = dnn_graph::models::vgg19();
        let mut c = crate::optimizer::OptimizerConfig::paper_default();
        c.sim.mesh = noc_model::MeshConfig::grid(4, 4);
        let s = Strategy::IlPipe.run(&g, &c).unwrap();
        assert_eq!(s.total_macs, g.layers().map(|l| l.macs()).sum::<u64>());
    }

    #[test]
    fn batch_streaming_amortizes_fill() {
        // Per-sample cost must shrink as the pipeline fills.
        let g = models::tiny_cnn();
        let c = cfg();
        let b1 = Strategy::IlPipe.run(&g, &c).unwrap().total_cycles;
        let b6 = Strategy::IlPipe
            .run(&g, &c.with_batch(6))
            .unwrap()
            .total_cycles;
        assert!(
            (b6 as f64 / 6.0) < b1 as f64 * 0.8,
            "per-sample {} vs fill-bound {}",
            b6 / 6,
            b1
        );
    }
}
