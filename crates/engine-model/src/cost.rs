use crate::config::{Dataflow, EngineConfig};
use crate::task::ConvTask;

use dnn_graph::BYTES_PER_ELEM;

/// Result of analytically evaluating a [`ConvTask`] on one engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Execution cycles on the PE array (compute only; no NoC/DRAM delay —
    /// those are the simulator's job).
    pub cycles: u64,
    /// MAC operations performed.
    pub macs: u64,
    /// PE utilization: `macs / (cycles · PE_x · PE_y)` ∈ (0, 1].
    pub utilization: f64,
    /// Input-feature-map bytes the task consumes.
    pub ifmap_bytes: u64,
    /// Weight bytes the task consumes.
    pub weight_bytes: u64,
    /// Output bytes the task produces.
    pub ofmap_bytes: u64,
    /// On-engine energy in picojoules: MACs plus SRAM traffic
    /// (static energy is added by the system simulator, which knows
    /// wall-clock time).
    pub energy_pj: f64,
}

/// Pipeline ramp (fill/drain) cycles charged once per spatial tile pass.
fn ramp(cfg: &EngineConfig) -> u64 {
    (cfg.pe_x + cfg.pe_y) as u64
}

/// Analytical cycle/energy model. See crate docs for the modeling choices.
pub(crate) fn estimate(cfg: &EngineConfig, task: &ConvTask, dataflow: Dataflow) -> CostEstimate {
    let macs = task.macs();
    let ifmap_bytes = task.ifmap_elems() * BYTES_PER_ELEM;
    let weight_bytes = task.weight_elems() * BYTES_PER_ELEM;
    let ofmap_bytes = task.ofmap_elems() * BYTES_PER_ELEM;

    // Effective dataflow: YX has no spatial loops to unroll for 1x1 output
    // tiles, so FC-shaped tasks use channel-parallel mapping either way.
    let df = if task.is_vector_shaped() {
        Dataflow::KcPartition
    } else {
        dataflow
    };

    let (tiles, steps_per_tile, ifmap_repeat, weight_repeat) = match df {
        Dataflow::KcPartition => {
            let ci_g = (task.ci / task.groups).max(1);
            let co_g = (task.co / task.groups).max(1);
            if task.groups > 1 && ci_g == 1 {
                // Depthwise: channels unrolled along PE columns, kernel
                // positions along PE rows (documented special mapping —
                // a literal KC unroll would leave all but one row idle).
                let tiles = div_ceil(task.co, cfg.pe_y) as u64
                    * div_ceil(task.kh * task.kw, cfg.pe_x) as u64;
                (tiles, (task.ho * task.wo) as u64, 1u64, 1u64)
            } else {
                // Dense / grouped: C_i rows × C_o columns spatial, groups and
                // output pixels and kernel positions temporal.
                let tiles = task.groups as u64
                    * div_ceil(ci_g, cfg.pe_x) as u64
                    * div_ceil(co_g, cfg.pe_y) as u64;
                let steps = (task.ho * task.wo * task.kh * task.kw) as u64;
                // ifmap is re-streamed once per output-channel tile; weights
                // are stationary.
                let ifmap_repeat = div_ceil(co_g, cfg.pe_y) as u64;
                (tiles, steps, ifmap_repeat, 1u64)
            }
        }
        Dataflow::YxPartition => {
            let ci_g = (task.ci / task.groups).max(1);
            let tiles = div_ceil(task.ho, cfg.pe_x) as u64 * div_ceil(task.wo, cfg.pe_y) as u64;
            // Each PE owns one output pixel; temporal loops run over kernel
            // positions, input channels (per group) and output channels.
            let steps = (task.kh * task.kw) as u64 * ci_g as u64 * task.co as u64;
            // Neighbor-passing reuses the ifmap spatially; weights are
            // re-broadcast on every spatial tile pass.
            (tiles, steps, 1u64, tiles)
        }
    };

    // Each tile pass pays a full pipeline refill (loading the next weight /
    // operand tile into the array and draining accumulators): `ramp` cycles.
    // Long passes amortize it; tiny passes are dominated by it. This is the
    // "tensor shape threshold" effect of Sec. II-B: sub-tasks below a shape
    // threshold cannot keep the PE array covered, which is what makes naive
    // layer-splitting across many engines inefficient (Fig. 2).
    let r = ramp(cfg);
    let cycles = tiles * (steps_per_tile + r) + r;
    // In f64: `cycles · PE` can exceed u64 on a huge array, and the
    // product is only ever used as this ratio's denominator.
    let pe = cfg.pe_count();
    let utilization = if cycles == 0 {
        0.0
    } else {
        macs as f64 / (cycles as f64 * pe as f64)
    };

    let e = &cfg.energy;
    let sram_reads = (ifmap_bytes * ifmap_repeat + weight_bytes * weight_repeat) as f64;
    let energy_pj = macs as f64 * e.mac_pj
        + sram_reads * e.sram_read_pj_per_byte
        + ofmap_bytes as f64 * e.sram_write_pj_per_byte;

    CostEstimate {
        cycles,
        macs,
        utilization,
        ifmap_bytes,
        weight_bytes,
        ofmap_bytes,
        energy_pj,
    }
}

fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EngineConfig {
        EngineConfig::paper_default()
    }

    #[test]
    fn kc_perfect_fit_high_utilization() {
        // ci=64=16*4, co=32=16*2: spatial dims divisible by the array.
        let t = ConvTask::conv(28, 28, 64, 32, 3, 3, 1);
        let c = cfg().estimate(&t, Dataflow::KcPartition);
        assert!(c.utilization > 0.9, "util = {}", c.utilization);
    }

    #[test]
    fn kc_misfit_utilization_cliff() {
        // ci=17: one extra input channel forces a second row-tile pass that
        // uses 1/16 of the rows.
        let fit = ConvTask::conv(28, 28, 16, 16, 3, 3, 1);
        let misfit = ConvTask::conv(28, 28, 17, 16, 3, 3, 1);
        let cf = cfg().estimate(&fit, Dataflow::KcPartition);
        let cm = cfg().estimate(&misfit, Dataflow::KcPartition);
        assert!(
            cm.utilization < 0.62 * cf.utilization,
            "{} vs {}",
            cm.utilization,
            cf.utilization
        );
    }

    #[test]
    fn yx_likes_large_fmaps() {
        let big = ConvTask::conv(32, 32, 64, 64, 3, 3, 1);
        let small = ConvTask::conv(7, 7, 64, 64, 3, 3, 1);
        let cb = cfg().estimate(&big, Dataflow::YxPartition);
        let cs = cfg().estimate(&small, Dataflow::YxPartition);
        assert!(cb.utilization > 0.9, "big fmap util = {}", cb.utilization);
        // 7x7 of a 16x16 array: at most 49/256 PEs active.
        assert!(
            cs.utilization < 0.25,
            "small fmap util = {}",
            cs.utilization
        );
    }

    #[test]
    fn fc_falls_back_to_channel_mapping_under_yx() {
        let t = ConvTask::fc(2048, 1024);
        let kc = cfg().estimate(&t, Dataflow::KcPartition);
        let yx = cfg().estimate(&t, Dataflow::YxPartition);
        assert_eq!(kc.cycles, yx.cycles);
        // FC has a single temporal step per weight tile: utilization is
        // dominated by the per-tile refill — FC layers are memory-bound on
        // systolic arrays (cf. the paper's low LS utilization on FC-heavy
        // VGG). Still far better than the 1/PE_count of a literal YX unroll.
        assert!(kc.utilization > 0.02, "fc util = {}", kc.utilization);
    }

    #[test]
    fn depthwise_special_mapping_is_not_pathological() {
        let t = ConvTask::depthwise(28, 28, 192, 3, 1);
        let c = cfg().estimate(&t, Dataflow::KcPartition);
        // A literal KC unroll would give 1/256; the kernel-position mapping
        // should do far better.
        assert!(c.utilization > 0.2, "dw util = {}", c.utilization);
    }

    #[test]
    fn cycles_scale_linearly_in_output_pixels() {
        let t1 = ConvTask::conv(14, 14, 64, 64, 3, 3, 1);
        let t2 = ConvTask::conv(28, 28, 64, 64, 3, 3, 1);
        let c1 = cfg().estimate(&t1, Dataflow::KcPartition);
        let c2 = cfg().estimate(&t2, Dataflow::KcPartition);
        let ratio = c2.cycles as f64 / c1.cycles as f64;
        assert!((ratio - 4.0).abs() < 0.2, "ratio = {ratio}");
    }

    #[test]
    fn energy_components_positive_and_scale() {
        let t = ConvTask::conv(14, 14, 64, 64, 3, 3, 1);
        let c = cfg().estimate(&t, Dataflow::KcPartition);
        assert!(c.energy_pj > c.macs as f64 * cfg().energy.mac_pj);
        let t2 = ConvTask::conv(14, 14, 64, 128, 3, 3, 1);
        let c2 = cfg().estimate(&t2, Dataflow::KcPartition);
        assert!(c2.energy_pj > c.energy_pj);
    }

    #[test]
    fn utilization_never_exceeds_one() {
        for (ho, wo, ci, co, k) in [
            (1, 1, 16, 16, 1),
            (16, 16, 16, 16, 1),
            (33, 7, 48, 96, 3),
            (224, 224, 3, 64, 7),
        ] {
            for df in Dataflow::ALL {
                let t = ConvTask::conv(ho, wo, ci, co, k, k, 1);
                let c = cfg().estimate(&t, df);
                assert!(
                    c.utilization <= 1.0 + 1e-9,
                    "{t:?} {df:?} -> {}",
                    c.utilization
                );
                assert!(c.cycles > 0);
            }
        }
    }
}
