//! Quickstart: optimize one network with atomic dataflow and inspect the
//! result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

// Examples are demonstration CLIs: they abort loudly by design
// (ad-lint rule P1 exempts example paths for the same reason).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::cast_possible_truncation
)]

use ad_repro::prelude::*;

fn main() {
    // 1. Pick a workload from the model zoo (or build your own `Graph`).
    let net = models::resnet50();
    println!("workload: {} — {}", net.name(), net.stats());

    // 2. Configure the platform: the paper's 8×8-engine accelerator with
    //    16×16-PE engines, 128 KB buffers, 2D-mesh NoC and HBM.
    let cfg = OptimizerConfig::paper_default();
    println!(
        "platform: {} engines x {} PEs, {} KB buffers, {} dataflow",
        cfg.engines(),
        cfg.sim.engine.pe_count(),
        cfg.sim.engine.buffer_bytes / 1024,
        cfg.dataflow.label()
    );

    // 3. Run the three-stage pipeline: SA atom generation -> DP atomic-DAG
    //    scheduling -> atom-engine mapping, evaluated on the event-driven
    //    simulator (the paper's Fig. 4 flow).
    let result = Optimizer::new(cfg)
        .optimize(&net)
        .expect("optimization succeeds");

    println!("\natomic dataflow solution:");
    println!("  atoms          : {}", result.atoms);
    println!("  rounds         : {}", result.rounds);
    println!("  occupancy      : {:.1}%", result.occupancy * 100.0);
    println!("  unified cycle S: {:.0}", result.gen_report.unified_cycle);
    println!("  cycle variance : {:.4}", result.gen_report.variance);

    let s = &result.stats;
    println!("\nsimulated execution:");
    println!(
        "  latency        : {:.3} ms",
        s.latency_ms(cfg.sim.engine.freq_mhz)
    );
    println!("  PE utilization : {:.1}%", s.pe_utilization * 100.0);
    println!("  on-chip reuse  : {:.1}%", s.onchip_reuse_ratio * 100.0);
    println!(
        "  DRAM traffic   : {:.1} MB",
        (s.dram_read_bytes + s.dram_write_bytes) as f64 / 1e6
    );
    println!("  energy         : {:.2} mJ", s.energy.total_mj());

    // 4. Compare against the Layer-Sequential baseline on the same platform.
    let ls = Strategy::LayerSequential
        .run(&net, &cfg)
        .expect("baseline succeeds");
    println!(
        "\nvs Layer-Sequential: {:.3} ms -> AD is {:.2}x faster",
        ls.latency_ms(cfg.sim.engine.freq_mhz),
        ls.total_cycles as f64 / s.total_cycles as f64
    );
}
