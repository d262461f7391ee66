//! The "Ideal" roofline of Sec. V-B: perfect hardware utilization and zero
//! memory delay. No program is simulated — the bound is analytic.

use accel_sim::{DegradationStats, EnergyBreakdown, SimStats};
use dnn_graph::Graph;

use crate::error::PipelineError;
use crate::optimizer::OptimizerConfig;
use crate::pipeline::{Pipeline, PlanContext, Stage, StageReport};

/// Ideal as a (single-stage) list over the shared machinery: the analytic
/// bound needs no lowering or simulation.
pub fn pipeline() -> Pipeline {
    Pipeline::new(vec![Box::new(IdealStage)])
}

/// The analytic roofline stage.
///
/// Consumes: graph. Produces: `stats` directly — no DAG, schedule, or
/// program.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealStage;

impl Stage for IdealStage {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        let graph = ctx.require_graph(self.name())?;
        let stats = run(graph, &ctx.cfg);
        let summary = stats.summary();
        ctx.stats = Some(stats);
        Ok(StageReport::new(self.name(), summary))
    }
}

/// Computes the ideal-execution statistics for `graph` under `cfg`:
/// every MAC executes at full array occupancy, every vector op at full
/// vector-unit occupancy, and data movement is free.
pub fn run(graph: &Graph, cfg: &OptimizerConfig) -> SimStats {
    let engine_count = cfg.engines();
    let engines = engine_count as u64;
    let pes = cfg.sim.engine.pe_count();
    let batch = cfg.batch.max(1) as u64;
    let macs: u64 = graph.layers().map(|l| l.macs()).sum::<u64>() * batch;
    let vops: u64 = graph.layers().map(|l| l.vector_ops()).sum::<u64>() * batch;

    let mac_cycles = macs.div_ceil(engines * pes);
    let vec_cycles = vops.div_ceil(engines * cfg.sim.engine.vector_lanes as u64);
    let total_cycles = (mac_cycles + vec_cycles).max(1);

    let compute_pj = macs as f64 * cfg.sim.engine.energy.mac_pj;
    SimStats {
        total_cycles,
        rounds: 0,
        tasks: 0,
        engine_busy_cycles: vec![total_cycles; engine_count],
        engine_blocked_cycles: vec![0; engine_count],
        total_macs: macs,
        pe_utilization: macs as f64 / (total_cycles * engines * pes) as f64,
        compute_utilization: 1.0,
        noc_blocked_cycles: 0,
        dram_blocked_cycles: 0,
        noc_overhead: 0.0,
        dram_read_bytes: 0,
        dram_write_bytes: 0,
        onchip_served_bytes: 0,
        dram_served_bytes: 0,
        onchip_reuse_ratio: 1.0,
        noc_bytes: 0,
        noc_byte_hops: 0,
        energy: EnergyBreakdown {
            compute_pj,
            noc_pj: 0.0,
            dram_pj: 0.0,
            static_pj: engines as f64
                * cfg
                    .sim
                    .engine
                    .energy
                    .static_pj(total_cycles, cfg.sim.engine.freq_mhz),
        },
        degradation: DegradationStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_graph::models;

    #[test]
    fn ideal_is_a_lower_bound_for_ad() {
        let g = models::tiny_branchy();
        let cfg = OptimizerConfig::fast_test();
        let ideal = run(&g, &cfg);
        let ad = crate::Optimizer::new(cfg).optimize(&g).unwrap().stats;
        assert!(ideal.total_cycles <= ad.total_cycles);
        assert!(ideal.pe_utilization >= ad.pe_utilization * 0.99);
    }

    #[test]
    fn ideal_scales_with_batch() {
        let g = models::tiny_cnn();
        let cfg = OptimizerConfig::fast_test();
        let b1 = run(&g, &cfg);
        let b4 = run(&g, &cfg.with_batch(4));
        let r = b4.total_cycles as f64 / b1.total_cycles as f64;
        assert!((3.0..=4.5).contains(&r), "scale ratio = {r}");
    }
}
