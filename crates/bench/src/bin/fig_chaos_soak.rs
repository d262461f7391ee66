//! Chaos soak: seeded multi-fault timelines against the recovery ladder.
//!
//! Where `fig_fault_sweep` measures *overhead* under independent per-
//! component fault rates, this harness hammers *correctness*: for each
//! workload it draws [`ChaosProfile`]-shaped fault plans — bursts of
//! overlapping engine deaths, link drops and HBM derates landing in the
//! same or adjacent rounds, plus transient derate-then-restore pairs — and
//! runs the full incremental recovery path on every seed, asserting on
//! each run that
//!
//! - counters conserve: every executed task is the single required run of
//!   an atom or an accounted rerun, and the merged lost/rerouted counters
//!   equal the per-attempt sums (the exactly-once accounting law);
//! - the ladder accounts one rung per retry (`rungs.len() == attempts-1`)
//!   and retires each engine exactly once;
//! - the same seeds replayed under [`RecoveryConfig::cold`] (full replan
//!   every retry) also conserve, giving a per-seed replan-speedup
//!   distribution for the incremental ladder.
//!
//! Runs whose mesh damage is unrecoverable (e.g. every path to a surviving
//! copy severed) are counted, their partial accounting checked via
//! [`run_with_recovery_traced`], and excluded from the timing distribution.
//!
//! Output: a per-workload table (recovered/unrecovered seeds, rung
//! occupancy, attempt counts, replan-time medians, speedup) and a
//! `chaos_soak/v1` JSON summary via `--json=`.
//!
//! Flags: the shared harness set (`--workloads=`, `--fast`, `--par=N`,
//! `--json=`) plus `--seeds=N` (default 50) and
//! `--chaos=soak|mild` (default `soak`). Seed-level work is data-parallel
//! and deterministic at any `--par`.

use std::time::Instant;

use accel_sim::{ChaosProfile, FaultPlan};
use ad_bench::{Table, Workloads};
use ad_util::Json;
use atomic_dataflow::{
    run_with_recovery, run_with_recovery_traced, AtomGenMode, LadderRung, Optimizer,
    RecoveryConfig, RecoveryTrace,
};
use engine_model::Dataflow;

/// Ladder rungs in display order.
const RUNGS: [LadderRung; 3] = [
    LadderRung::ReuseSuffix,
    LadderRung::ScopedReplan,
    LadderRung::FullReplan,
];

/// Per-seed soak result (one recovery mode).
struct SeedRun {
    recovered: bool,
    attempts: usize,
    rungs: Vec<LadderRung>,
    /// Retry replan wall times (the initial plan is excluded).
    retry_ms: Vec<f64>,
    /// Conservation violations found in this run (descriptions).
    violations: Vec<String>,
}

/// Per-seed outcome: the incremental ladder and the cold control.
struct SeedOutcome {
    seed: u64,
    incremental: SeedRun,
    cold: SeedRun,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seeds = 50u64;
    let mut profile_name = "soak".to_string();
    for a in &args {
        if let Some(v) = a.strip_prefix("--seeds=") {
            seeds = v.parse().expect("--seeds=N takes an integer");
        } else if let Some(v) = a.strip_prefix("--chaos=") {
            profile_name = v.to_string();
        }
    }
    let mut args = args;
    if !args
        .iter()
        .any(|a| a.starts_with("--workloads=") || a == "--quick" || a == "--fast")
    {
        args.push("--workloads=resnet50,vgg19".to_string());
    }
    let w = Workloads::from_arg_slice_with(&args, &["--seeds=", "--chaos="]);
    let (workloads, cfg) = if w.fast {
        // Smoke shape: tiny models, the small platform, a handful of seeds.
        seeds = seeds.min(6);
        let list = vec![
            (
                "tiny_branchy".to_string(),
                dnn_graph::models::tiny_branchy(),
            ),
            ("tiny_cnn".to_string(), dnn_graph::models::tiny_cnn()),
        ];
        (list, w.config(Dataflow::KcPartition, 1))
    } else {
        let mut cfg = w.config(Dataflow::KcPartition, w.batch_override.unwrap_or(1));
        // The soak replans after every fatality across seeds × workloads;
        // uniform atomization keeps one binary run affordable while driving
        // the identical recovery machinery (same trick as fig_fault_sweep).
        cfg.atomgen.mode = AtomGenMode::Uniform { parts: 8 };
        (w.list.clone(), cfg)
    };
    let profile = match profile_name.as_str() {
        "soak" => ChaosProfile::soak(&cfg.sim.mesh),
        "mild" => ChaosProfile::mild(),
        other => panic!("unknown --chaos profile `{other}` (want soak|mild)"),
    };
    let pool = ad_util::WorkerPool::new(w.parallelism.unwrap_or(1));

    let mut table = Table::new(
        format!(
            "Chaos soak — {seeds} seeds/workload, profile={profile_name}, \
             {} engines",
            cfg.engines()
        ),
        &[
            "workload",
            "recovered",
            "attempts",
            "reuse/scoped/full",
            "incr ms",
            "cold ms",
            "speedup",
        ],
    );
    let mut summaries: Vec<Json> = Vec::new();
    let mut total_violations = 0usize;

    for (name, graph) in &workloads {
        let (_, dag) = Optimizer::new(cfg).build_dag(graph);
        let atoms = dag.atom_count();
        let healthy = run_with_recovery(&dag, &cfg, &FaultPlan::none(), &RecoveryConfig::auto())
            .expect("healthy run");
        let horizon = healthy.stats.total_cycles;

        let outcomes: Vec<SeedOutcome> = pool.map(seeds as usize, |i| {
            let seed = 0xC4A0_5000 + i as u64;
            let plan = FaultPlan::chaos(seed, &cfg.sim.mesh, horizon, &profile)
                .expect("chaos profile parameters are valid");
            SeedOutcome {
                seed,
                incremental: soak_one(&dag, &cfg, &plan, &RecoveryConfig::auto(), atoms),
                cold: soak_one(&dag, &cfg, &plan, &RecoveryConfig::cold(), atoms),
            }
        });

        // Aggregation (sequential, deterministic at any --par).
        let mut recovered = 0usize;
        let mut unrecovered = 0usize;
        let mut attempts_total = 0usize;
        let mut occupancy = [0usize; 3];
        let mut incr_ms: Vec<f64> = Vec::new();
        let mut cold_ms: Vec<f64> = Vec::new();
        let mut speedups: Vec<f64> = Vec::new();
        for o in &outcomes {
            for (mode, run) in [("incremental", &o.incremental), ("cold", &o.cold)] {
                for v in &run.violations {
                    eprintln!("[{name} seed={:#x} {mode}] VIOLATION: {v}", o.seed);
                    total_violations += 1;
                }
            }
            if o.incremental.recovered {
                recovered += 1;
            } else {
                unrecovered += 1;
            }
            attempts_total += o.incremental.attempts;
            for r in &o.incremental.rungs {
                occupancy[RUNGS.iter().position(|x| x == r).expect("known rung")] += 1;
            }
            if o.incremental.recovered && !o.incremental.retry_ms.is_empty() {
                let i: f64 = o.incremental.retry_ms.iter().sum();
                incr_ms.push(i);
                if o.cold.recovered && !o.cold.retry_ms.is_empty() {
                    let c: f64 = o.cold.retry_ms.iter().sum();
                    cold_ms.push(c);
                    speedups.push(c / i);
                }
            }
        }

        let med_incr = median(&mut incr_ms);
        let med_cold = median(&mut cold_ms);
        let med_speedup = median(&mut speedups);
        table.add_row(vec![
            name.clone(),
            format!("{recovered}/{}", recovered + unrecovered),
            format!("{attempts_total}"),
            format!("{}/{}/{}", occupancy[0], occupancy[1], occupancy[2]),
            format!("{med_incr:.2}"),
            format!("{med_cold:.2}"),
            format!("{med_speedup:.1}x"),
        ]);

        summaries.push(Json::Obj(vec![
            ("workload".into(), Json::Str(name.clone())),
            ("atoms".into(), Json::Num(atoms as f64)),
            ("seeds".into(), Json::Num(seeds as f64)),
            ("recovered".into(), Json::Num(recovered as f64)),
            ("unrecovered".into(), Json::Num(unrecovered as f64)),
            ("attempts".into(), Json::Num(attempts_total as f64)),
            (
                "rung_occupancy".into(),
                Json::Obj(
                    RUNGS
                        .iter()
                        .zip(occupancy)
                        .map(|(r, n)| (r.name().to_string(), Json::Num(n as f64)))
                        .collect(),
                ),
            ),
            ("incremental_ms_median".into(), Json::Num(med_incr)),
            ("cold_ms_median".into(), Json::Num(med_cold)),
            ("replan_speedup_median".into(), Json::Num(med_speedup)),
        ]));
    }

    table.print();

    if let Some(path) = &w.json_path {
        let body = Json::Obj(vec![
            ("schema".into(), Json::Str("chaos_soak/v1".into())),
            ("profile".into(), Json::Str(profile_name)),
            ("violations".into(), Json::Num(total_violations as f64)),
            ("workloads".into(), Json::Arr(summaries)),
        ]);
        match std::fs::write(path, body.to_pretty()) {
            Ok(()) => eprintln!("wrote soak summary to {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }

    assert_eq!(
        total_violations, 0,
        "chaos soak found conservation violations (see stderr)"
    );
}

/// Runs one seed under one recovery mode and audits its accounting.
fn soak_one(
    dag: &atomic_dataflow::AtomicDag,
    cfg: &atomic_dataflow::OptimizerConfig,
    plan: &FaultPlan,
    rc: &RecoveryConfig,
    atoms: usize,
) -> SeedRun {
    let t0 = Instant::now();
    let (trace, result) = run_with_recovery_traced(dag, cfg, plan, rc);
    let _total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut violations = Vec::new();
    let recovered = match result {
        Ok(out) => {
            audit_conserved(&out.stats, &out.attempt_degradation, atoms, &mut violations);
            if out.rungs.len() != out.attempts - 1 {
                violations.push(format!(
                    "ladder accounted {} rungs for {} attempts",
                    out.rungs.len(),
                    out.attempts
                ));
            }
            let mut engines = out.failed_engines.clone();
            engines.sort_unstable();
            engines.dedup();
            if engines.len() != out.failed_engines.len() {
                violations.push(format!("engine retired twice: {:?}", out.failed_engines));
            }
            true
        }
        Err(_) => {
            // Unrecoverable damage: the partial account must still conserve
            // the event counters accumulated before the run was abandoned.
            if let Some(partial) = &trace.partial {
                audit_partial(partial, &trace, &mut violations);
            }
            false
        }
    };
    SeedRun {
        recovered,
        attempts: trace.attempts,
        rungs: trace.rungs.clone(),
        retry_ms: trace.replan_wall_ms.iter().skip(1).copied().collect(),
        violations,
    }
}

/// Exactly-once accounting for a completed run.
fn audit_conserved(
    stats: &accel_sim::SimStats,
    per_attempt: &[accel_sim::DegradationStats],
    atoms: usize,
    violations: &mut Vec<String>,
) {
    let d = &stats.degradation;
    if stats.tasks as u64 != atoms as u64 + d.rerun_tasks {
        violations.push(format!(
            "task conservation: executed {} != {atoms} atoms + {} reruns",
            stats.tasks, d.rerun_tasks
        ));
    }
    let lost: u64 = per_attempt.iter().map(|a| a.lost_tasks).sum();
    if d.lost_tasks != lost {
        violations.push(format!(
            "lost_tasks merged {} != per-attempt sum {lost}",
            d.lost_tasks
        ));
    }
    let rerouted: u64 = per_attempt.iter().map(|a| a.rerouted_transfers).sum();
    if d.rerouted_transfers != rerouted {
        violations.push(format!(
            "rerouted_transfers merged {} != per-attempt sum {rerouted}",
            d.rerouted_transfers
        ));
    }
}

/// Accounting audit for an abandoned (unrecoverable) run's partial stats.
fn audit_partial(
    partial: &accel_sim::SimStats,
    trace: &RecoveryTrace,
    violations: &mut Vec<String>,
) {
    let d = &partial.degradation;
    let lost: u64 = trace.attempt_degradation.iter().map(|a| a.lost_tasks).sum();
    if d.lost_tasks != lost {
        violations.push(format!(
            "partial lost_tasks merged {} != per-attempt sum {lost}",
            d.lost_tasks
        ));
    }
    let rerouted: u64 = trace
        .attempt_degradation
        .iter()
        .map(|a| a.rerouted_transfers)
        .sum();
    if d.rerouted_transfers != rerouted {
        violations.push(format!(
            "partial rerouted_transfers merged {} != per-attempt sum {rerouted}",
            d.rerouted_transfers
        ));
    }
}

/// Median of an unsorted sample (0.0 when empty; reporting-only).
fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
    xs[xs.len() / 2]
}
