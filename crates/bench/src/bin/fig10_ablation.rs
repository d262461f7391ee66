//! Fig. 10: per-stage performance improvements of atomic dataflow.
//!
//! Stages are enabled cumulatively on top of the LS baseline and each
//! step's speedup is attributed to the stage that was just enabled:
//!
//! 1. **atom generation** (SA-sized atoms replacing naive even partitions,
//!    still executed in strict layer order with zig-zag placement and FIFO
//!    buffering);
//! 2. **graph-level DAG scheduling** (Alg. 2 DP ordering);
//! 3. **on-chip data reuse** (Sec. IV-C affinity mapping + Alg. 3
//!    buffering) — the full AD pipeline.
//!
//! Reproduction target (paper): DP 1.17–1.42×, SA 1.06–1.21×, reuse
//! 1.07–1.17×. Known deviation (see `EXPERIMENTS.md`): in our analytical
//! cost model the generation stage captures most of the end-to-end gain,
//! because its wall-estimate term quantizes per-layer atom counts to engine
//! multiples — which also makes plain layer-order packing near-optimal — and
//! the multi-channel HBM model hides much of the traffic the reuse stage
//! saves in the paper's setup.

use accel_sim::EvictionKind;
use ad_bench::{Table, Workloads};
use atomic_dataflow::mapping::MappingAlgo;
use atomic_dataflow::{Optimizer, OptimizerConfig, ScheduleMode, Strategy};
use engine_model::Dataflow;

fn run(cfg: OptimizerConfig, g: &dnn_graph::Graph) -> u64 {
    Optimizer::new(cfg)
        .optimize(g)
        .expect("valid schedule")
        .stats
        .total_cycles
}

fn main() {
    let w = Workloads::from_args();
    let batch = w.batch_override.unwrap_or(1);

    let mut table = Table::new(
        format!("Fig. 10 — cumulative per-stage improvement over LS, batch={batch}, KC-P"),
        &[
            "workload",
            "LS (cyc)",
            "+atoms",
            "+DAG sched",
            "+reuse (=AD)",
            "total",
        ],
    );
    for (name, graph) in &w.list {
        let base = ad_bench::harness::paper_config(Dataflow::KcPartition, batch);
        let ls = Strategy::LayerSequential
            .run(graph, &base)
            .expect("valid")
            .total_cycles;

        // Stage 1: SA atoms, layer order, no reuse machinery.
        let mut s1 = base;
        s1.schedule_mode = ScheduleMode::LayerOrder;
        s1.mapping = MappingAlgo::ZigzagIdentity;
        s1.sim.eviction = EvictionKind::Fifo;
        let c1 = run(s1, graph);

        // Stage 2: + DP DAG scheduling.
        let mut s2 = s1;
        s2.schedule_mode = base.schedule_mode;
        let c2 = run(s2, graph);

        // Stage 3: + mapping & Alg. 3 buffering = full AD.
        let c3 = run(base, graph);

        eprintln!("  [{name}] LS {ls} | +atoms {c1} | +sched {c2} | AD {c3}");
        table.add_row(vec![
            name.clone(),
            ls.to_string(),
            format!("{:.2}x", ls as f64 / c1 as f64),
            format!("{:.2}x", c1 as f64 / c2 as f64),
            format!("{:.2}x", c2 as f64 / c3 as f64),
            format!("{:.2}x", ls as f64 / c3 as f64),
        ]);
    }
    table.print();
}
