//! Plain wall-clock timing for the pipeline stages and substrate crates.
//!
//! Replaces the earlier Criterion benches with a dependency-free harness:
//! each scenario runs a warmup pass plus `--iters=N` (N ≥ 1, default 5) timed
//! passes and reports min/mean milliseconds; `--pipeline` or `--substrates`
//! runs only that half. An unknown flag, or an `--iters=` value that does
//! not parse, panics naming the flag. Paper-scale numbers come from the
//! experiment binaries (`src/bin/fig*.rs`).

use std::num::NonZeroUsize;
use std::time::Instant;

use accel_sim::Simulator;
use ad_bench::harness::flag_value;
use atomic_dataflow::atomgen::{
    self, AtomGenConfig, AtomGenMode, CandidateTable, GaParams, SaParams,
};
use atomic_dataflow::{
    lower_to_program, request, Exec, Optimizer, OptimizerConfig, PlanRequest, ScheduleMode,
    Scheduler, SchedulerConfig, Strategy,
};
use dnn_graph::models;
use engine_model::{ConvTask, Dataflow, HardwareConfig};
use mem_model::HbmModel;
use noc_model::TrafficTracker;

fn time<R>(label: &str, iters: usize, mut f: impl FnMut() -> R) {
    let _ = f(); // warmup
    let mut samples_ms = Vec::with_capacity(iters);
    for _ in 0..iters {
        let start = Instant::now();
        let _ = f();
        samples_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let min = samples_ms.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean = samples_ms.iter().sum::<f64>() / samples_ms.len() as f64;
    println!("{label:<40} min {min:>10.3} ms   mean {mean:>10.3} ms   ({iters} iters)");
}

fn small_cfg() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::for_hardware(&HardwareConfig::fast_test())
        .expect("built-in fast-test hardware config is valid");
    if let AtomGenMode::Sa(ref mut p) = cfg.atomgen.mode {
        p.max_iters = 100;
    }
    cfg.search_targets = [32, 0, 0];
    cfg
}

fn bench_pipeline(iters: usize) {
    let g = models::resnet50();
    let engine = HardwareConfig::paper_default().engine_config();
    let build = |cfg: &AtomGenConfig| {
        CandidateTable::build(&g, cfg, &engine, Dataflow::KcPartition, &Exec::default())
    };
    time("atomgen/table_resnet50", iters, || {
        build(&AtomGenConfig::default())
    });
    let table = build(&AtomGenConfig::default());
    let sa = AtomGenConfig {
        mode: AtomGenMode::Sa(SaParams {
            max_iters: 100,
            ..SaParams::default()
        }),
        ..AtomGenConfig::default()
    };
    time("atomgen/sa_resnet50", iters, || {
        atomgen::generate(&g, &table, &sa, None, &Exec::default())
    });
    let ga = AtomGenConfig {
        mode: AtomGenMode::Ga(GaParams {
            generations: 50,
            ..GaParams::default()
        }),
        ..AtomGenConfig::default()
    };
    time("atomgen/ga_resnet50", iters, || {
        atomgen::generate(&g, &table, &ga, None, &Exec::default())
    });

    let cfg = small_cfg();
    let (_, dag) = Optimizer::new(cfg).build_dag(&g);
    for (label, mode) in [
        ("scheduler/greedy", ScheduleMode::PriorityGreedy),
        (
            "scheduler/dp_l2b3",
            ScheduleMode::Dp {
                lookahead: 2,
                branch: 3,
            },
        ),
        ("scheduler/layer_order", ScheduleMode::LayerOrder),
    ] {
        time(label, iters, || {
            Scheduler::new(&dag, SchedulerConfig { engines: 16, mode }).schedule()
        });
    }

    let opt = Optimizer::new(cfg);
    let (_, dag) = opt.build_dag(&g);
    let (_, mapped) = opt.schedule_and_map(&dag).expect("pipeline stages succeed");
    let program = lower_to_program(&dag, &mapped);
    println!("simulator program: {} tasks", program.tasks().len());
    let sim = Simulator::new(cfg.sim);
    time("simulator/resnet50_run", iters, || {
        sim.run(&program).expect("valid program")
    });

    let g = models::tiny_branchy();
    let cfg = OptimizerConfig::for_hardware(&HardwareConfig::fast_test())
        .expect("built-in fast-test hardware config is valid")
        .with_fast_search();
    for s in [
        Strategy::LayerSequential,
        Strategy::IlPipe,
        Strategy::AtomicDataflow,
    ] {
        time(&format!("strategies_tiny/{}", s.label()), iters, || {
            request::plan(&PlanRequest::new(&g, cfg).with_strategy(s)).expect("valid schedule")
        });
    }
}

fn bench_substrates(iters: usize) {
    let sim = OptimizerConfig::for_hardware(&HardwareConfig::paper_default())
        .expect("built-in paper hardware config is valid")
        .sim;
    let cfg = sim.engine;
    let tasks = [
        ("engine/conv3x3", ConvTask::conv(14, 14, 256, 64, 3, 3, 1)),
        ("engine/conv1x1", ConvTask::conv(28, 28, 512, 128, 1, 1, 1)),
        ("engine/depthwise", ConvTask::depthwise(28, 28, 192, 5, 1)),
        ("engine/fc", ConvTask::fc(25088, 4096)),
    ];
    for (label, task) in &tasks {
        time(label, iters, || cfg.estimate(task, Dataflow::KcPartition));
    }

    let mesh = sim.mesh;
    time("noc/hops_all_pairs_8x8", iters, || {
        let mut acc = 0u64;
        for i in 0..64 {
            for j in 0..64 {
                acc += mesh.hops(i, j);
            }
        }
        acc
    });
    time("noc/traffic_record_1k", iters, || {
        let mut t = TrafficTracker::new(mesh);
        for i in 0..1000u64 {
            t.record(4096, mesh.hops((i % 64) as usize, ((i * 7) % 64) as usize));
        }
        t.total_byte_hops()
    });

    time("hbm/mixed_10k_requests", iters, || {
        let mut m = HbmModel::new(sim.hbm);
        let mut done = 0u64;
        for i in 0..10_000u64 {
            done = m.read(i * 3, if i % 10 == 0 { 64 * 1024 } else { 2048 });
        }
        done
    });

    time("model_zoo/resnet50", iters, models::resnet50);
    time("model_zoo/inception_v3", iters, models::inception_v3);
    time("model_zoo/nasnet", iters, models::nasnet);
}

/// `(iters, only_substrates, only_pipeline)` from the flags `--iters=N`,
/// `--substrates` and `--pipeline`.
///
/// # Panics
///
/// Panics naming the flag on an unknown flag or an `--iters=` value that
/// does not parse.
fn parse_args(args: &[String]) -> (usize, bool, bool) {
    let mut parsed = (5, false, false);
    for a in args {
        if let Some(v) = a.strip_prefix("--iters=") {
            parsed.0 = flag_value::<NonZeroUsize>("--iters=", v).get();
        } else if a == "--substrates" {
            parsed.1 = true;
        } else if a == "--pipeline" {
            parsed.2 = true;
        } else {
            panic!("unknown flag `{a}`");
        }
    }
    parsed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (iters, only_substrates, only_pipeline) = parse_args(&args);
    if !only_substrates {
        bench_pipeline(iters);
    }
    if !only_pipeline {
        bench_substrates(iters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse() {
        let args = ["--iters=2", "--pipeline"].map(String::from);
        assert_eq!(parse_args(&args), (2, false, true));
        assert_eq!(parse_args(&[]), (5, false, false));
    }

    #[test]
    #[should_panic(expected = "bad value for --iters=x")]
    fn unparseable_iters_rejected() {
        parse_args(&["--iters=x".to_string()]);
    }

    #[test]
    #[should_panic(expected = "bad value for --iters=0")]
    fn zero_iters_rejected() {
        parse_args(&["--iters=0".to_string()]);
    }
}
