//! Fault sweep: latency and energy overhead vs per-component fault rate,
//! for atomic dataflow's remap-based recovery against restart-only
//! baselines (LS, CNN-P).
//!
//! For each fault rate `p` a deterministic [`FaultPlan`] is drawn per seed:
//! every engine and every mesh link fails independently with probability
//! `p` at a uniform cycle within the healthy makespan, and the HBM stack
//! derates to half bandwidth with the same probability. AD runs the real
//! recovery path (`run_with_recovery`: reroute / derate absorbed in place,
//! fatal engine deaths re-rounded and re-mapped onto the survivors). LS and
//! CNN-P bind every engine, so an engine death aborts the inference; their
//! degraded cost comes from the documented restart model
//! ([`ad_bench::restart_after_faults`]).
//!
//! Reproduction target: AD's overhead grows roughly with the share of work
//! lost per failure (a few re-planned rounds), while restart-only baselines
//! pay the full aborted prefix plus a slowed re-run — the gap widens with
//! the fault rate.

use accel_sim::{FaultPlan, FaultRates};
use ad_bench::{FaultRecord, Table, Workloads};
use atomic_dataflow::{
    run_with_recovery, AtomGenMode, Optimizer, RecoveryConfig, ScheduleMode, Strategy,
};
use engine_model::Dataflow;

/// Per-component failure probabilities swept.
const RATES: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];
/// Plans drawn per rate; reported numbers are means over seeds.
const SEEDS: [u64; 3] = [0x0AD1, 0x0AD2, 0x0AD3];

fn main() {
    // Default to a two-workload sweep (the full 8-workload set is slow and
    // adds no qualitative information here); any explicit selection wins.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if !args
        .iter()
        .any(|a| a.starts_with("--workloads=") || a == "--quick")
    {
        args.push("--workloads=resnet50,vgg19".to_string());
    }
    let w = Workloads::from_arg_slice(&args);
    let batch = w.batch_override.unwrap_or(1);
    let mut cfg = ad_bench::harness::paper_config(Dataflow::KcPartition, batch);
    // The sweep re-schedules the remainder after every fatal failure across
    // rates × seeds; uniform atomization + greedy rounds keep one binary run
    // cheap while exercising the identical recovery machinery.
    cfg.atomgen.mode = AtomGenMode::Uniform { parts: 8 };
    cfg.schedule_mode = ScheduleMode::PriorityGreedy;

    let mut records: Vec<FaultRecord> = Vec::new();
    let mut table = Table::new(
        format!(
            "Fault sweep — mean latency overhead (and energy overhead) vs fault rate, \
             batch={batch}, 8x8 KC-P"
        ),
        &[
            "workload", "strategy", "p=0", "p=0.01", "p=0.02", "p=0.05", "p=0.10",
        ],
    );

    for (name, graph) in &w.list {
        let (_, dag) = Optimizer::new(cfg).build_dag(graph);
        let ad_healthy = run_with_recovery(&dag, &cfg, &FaultPlan::none(), &RecoveryConfig::auto())
            .expect("healthy AD run");
        let ls_healthy = Strategy::LayerSequential
            .run(graph, &cfg)
            .expect("healthy LS run");
        let cp_healthy = Strategy::CnnPartition
            .run(graph, &cfg)
            .expect("healthy CNN-P run");

        let mut rows: Vec<Vec<String>> = ["AD", "LS", "CNN-P"]
            .iter()
            .map(|s| vec![name.clone(), s.to_string()])
            .collect();

        for rate in RATES {
            let rates = FaultRates {
                engine_fail_prob: rate,
                link_fail_prob: rate,
                hbm_derate_prob: rate,
                hbm_derate_factor: 0.5,
            };
            // (latency overhead, energy overhead) accumulators per strategy.
            let mut acc = [[0.0f64; 2]; 3];
            let mut ok = [0usize; 3];
            for seed in SEEDS {
                let plan =
                    FaultPlan::seeded(seed, &cfg.sim.mesh, ad_healthy.stats.total_cycles, &rates)
                        .expect("sweep rates are in range");

                match run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto()) {
                    Ok(out) => {
                        let rec = ad_record(name, rate, seed, &ad_healthy, &out);
                        acc[0][0] += rec.latency_overhead;
                        acc[0][1] += rec.energy_overhead;
                        ok[0] += 1;
                        records.push(rec);
                    }
                    // High link rates can sever every path to a surviving
                    // copy; report the hole instead of averaging over it.
                    Err(e) => eprintln!("  [{name} p={rate} seed={seed:#x}] AD unrecoverable: {e}"),
                }

                for (i, healthy) in [(1usize, &ls_healthy), (2, &cp_healthy)] {
                    let strategy = if i == 1 { "LS" } else { "CNN-P" };
                    let bplan =
                        FaultPlan::seeded(seed, &cfg.sim.mesh, healthy.total_cycles, &rates)
                            .expect("sweep rates are in range");
                    let (cycles, energy_mj) =
                        ad_bench::restart_after_faults(healthy, &bplan, cfg.engines());
                    let lat = cycles as f64 / healthy.total_cycles as f64 - 1.0;
                    let en = energy_mj / healthy.energy.total_mj() - 1.0;
                    acc[i][0] += lat;
                    acc[i][1] += en;
                    ok[i] += 1;
                    records.push(FaultRecord {
                        workload: name.clone(),
                        strategy: strategy.into(),
                        fault_rate: rate,
                        seed,
                        cycles,
                        healthy_cycles: healthy.total_cycles,
                        latency_overhead: lat,
                        energy_mj,
                        energy_overhead: en,
                        engine_failures: bplan
                            .events()
                            .iter()
                            .filter(|e| matches!(e.kind, accel_sim::FaultKind::EngineFail { .. }))
                            .count() as u64,
                        dead_links: 0,
                        lost_tasks: 0,
                        rerun_tasks: 0,
                        remap_rounds: 0,
                        attempts: 1,
                    });
                }
            }
            for (i, row) in rows.iter_mut().enumerate() {
                row.push(if ok[i] == 0 {
                    "n/a".into()
                } else {
                    format!(
                        "{:+.1}% ({:+.1}%)",
                        100.0 * acc[i][0] / ok[i] as f64,
                        100.0 * acc[i][1] / ok[i] as f64
                    )
                });
            }
        }
        for row in rows {
            table.add_row(row);
        }
    }
    table.print();

    if let Some(path) = &w.json_path {
        let body = ad_util::Json::Arr(records.iter().map(FaultRecord::to_json).collect());
        if let Err(e) = std::fs::write(path, body.to_pretty()) {
            eprintln!("failed to write {path}: {e}");
        } else {
            eprintln!("wrote {} records to {path}", records.len());
        }
    }
}

/// Builds the AD record for one recovered run.
fn ad_record(
    name: &str,
    rate: f64,
    seed: u64,
    healthy: &atomic_dataflow::RecoveryOutcome,
    out: &atomic_dataflow::RecoveryOutcome,
) -> FaultRecord {
    let d = &out.stats.degradation;
    FaultRecord {
        workload: name.to_string(),
        strategy: "AD".into(),
        fault_rate: rate,
        seed,
        cycles: out.stats.total_cycles,
        healthy_cycles: healthy.stats.total_cycles,
        latency_overhead: out.stats.total_cycles as f64 / healthy.stats.total_cycles as f64 - 1.0,
        energy_mj: out.stats.energy.total_mj(),
        energy_overhead: out.stats.energy.total_mj() / healthy.stats.energy.total_mj() - 1.0,
        engine_failures: d.engine_failures,
        dead_links: d.dead_links,
        lost_tasks: d.lost_tasks,
        rerun_tasks: d.rerun_tasks,
        remap_rounds: d.remap_rounds,
        attempts: out.attempts as u64,
    }
}
