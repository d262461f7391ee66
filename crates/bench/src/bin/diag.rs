//! Developer diagnostics: full simulator statistics per strategy.
//! Not part of the paper reproduction; used to debug result shapes.

use ad_bench::Workloads;
use atomic_dataflow::{request, Optimizer, PlanRequest, Strategy};
use engine_model::Dataflow;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let w = Workloads::from_arg_slice_with(&args, &["--yx", "--bigbuf"]);
    let batch = w.batch_override.unwrap_or(1);
    for (name, graph) in &w.list {
        let df = if args.iter().any(|a| a == "--yx") {
            Dataflow::YxPartition
        } else {
            Dataflow::KcPartition
        };
        let mut cfg = ad_bench::harness::paper_config(df, batch);
        if args.iter().any(|a| a == "--bigbuf") {
            cfg.sim.engine.buffer_bytes = 1 << 20;
        }
        println!("=== {name} (batch {batch}) ===");
        for s in [
            Strategy::LayerSequential,
            Strategy::Rammer,
            Strategy::IlPipe,
            Strategy::AtomicDataflow,
        ] {
            let t = std::time::Instant::now();
            let stats = request::plan(&PlanRequest::new(graph, cfg).with_strategy(s))
                .expect("valid schedule")
                .stats;
            println!(
                "{:8} | cyc {:>12} | util {:5.1}% | cu {:5.1}% | nocB {:>10} | dramB {:>10} | rd {:>8.1}MB wr {:>8.1}MB | reuse {:5.1}% | rounds {:>6} | {:.1}s",
                s.label(),
                stats.total_cycles,
                stats.pe_utilization * 100.0,
                stats.compute_utilization * 100.0,
                stats.noc_blocked_cycles,
                stats.dram_blocked_cycles,
                stats.dram_read_bytes as f64 / 1e6,
                stats.dram_write_bytes as f64 / 1e6,
                stats.onchip_reuse_ratio * 100.0,
                stats.rounds,
                t.elapsed().as_secs_f64(),
            );
        }
        // AD internals.
        let opt = Optimizer::new(cfg);
        let r = opt.optimize(graph).unwrap();
        println!(
            "AD detail: atoms {} rounds {} occupancy {:.2} genVar {:.4} S {:.0}",
            r.atoms, r.rounds, r.occupancy, r.gen_report.variance, r.gen_report.unified_cycle
        );
        for t in [12usize, 24, 48, 64, 96, 160] {
            let mut c = ad_bench::harness::paper_config(df, batch);
            c.search_targets = [t, 0, 0];
            let r = Optimizer::new(c).optimize(graph).unwrap();
            println!(
                "  target {:>3}: cycles {:>9} atoms {:>6} rounds {:>5} occ {:.2} cu {:.1}% S {:.0}",
                t,
                r.stats.total_cycles,
                r.atoms,
                r.rounds,
                r.occupancy,
                r.stats.compute_utilization * 100.0,
                r.gen_report.unified_cycle
            );
        }
    }
}
