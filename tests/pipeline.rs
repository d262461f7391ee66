//! Staged-pipeline integration suite.
//!
//! Two properties of the planning pipeline are pinned here, at workspace
//! level, across real workloads:
//!
//! 1. **Parallelism is invisible.** `OptimizerConfig::parallelism` is an
//!    execution knob: the candidate set (search targets, CLP variants) is fixed by the configuration and reduced in index order,
//!    so any thread count serializes to byte-identical statistics.
//! 2. **Stage order is typed.** Running a stage before its producer is a
//!    [`PipelineError::StageOrder`] naming both the stage and the missing
//!    artifact — never a panic, never a silent empty plan.

use ad_repro::prelude::*;
use atomic_dataflow::pipeline::{MapStage, SimulateStage};

/// A configuration that exercises the optimizer's parallel site: three
/// search targets for its candidate sweep.
fn searchy_cfg() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::fast_test();
    cfg.search_targets = [16, 32, 48];
    cfg
}

fn optimize_json(cfg: OptimizerConfig, g: &Graph) -> Result<String, PipelineError> {
    Ok(Optimizer::new(cfg)
        .optimize(g)?
        .stats
        .to_json()
        .to_compact())
}

/// tiny_branchy: full SA + DP search, three targets, at
/// parallelism 1 vs 4 — byte-identical statistics.
#[test]
fn parallel_candidate_search_is_byte_identical_tiny_branchy() {
    let g = models::tiny_branchy();
    let cfg = searchy_cfg().with_batch(2);
    let seq = optimize_json(cfg.with_parallelism(1), &g).unwrap();
    let par = optimize_json(cfg.with_parallelism(4), &g).unwrap();
    assert_eq!(seq, par, "parallelism must not leak into the plan");
}

/// ResNet-50 under a cheaper search mode (greedy rounds, trimmed SA):
/// the same parallelism-invisibility property on a real network.
#[test]
fn parallel_candidate_search_is_byte_identical_resnet() {
    let g = models::resnet50();
    let mut cfg = searchy_cfg();
    cfg.schedule_mode = ScheduleMode::PriorityGreedy;
    if let AtomGenMode::Sa(ref mut p) = cfg.atomgen.mode {
        p.max_iters = 20;
    }
    let seq = optimize_json(cfg.with_parallelism(1), &g).unwrap();
    let par = optimize_json(cfg.with_parallelism(4), &g).unwrap();
    assert_eq!(seq, par, "parallelism must not leak into the plan");
}

/// Every strategy routed through [`Strategy::run_detailed`] reports its
/// stages, and parallelism stays invisible through that entry point too
/// (CNN-P's CLP sweep is its parallel site).
#[test]
fn strategies_report_stages_and_ignore_parallelism() {
    let g = models::tiny_branchy();
    let cfg = OptimizerConfig::fast_test().with_batch(2);
    for s in [
        Strategy::LayerSequential,
        Strategy::CnnPartition,
        Strategy::IlPipe,
        Strategy::Rammer,
        Strategy::AtomicDataflow,
        Strategy::Ideal,
    ] {
        let a = s.run_detailed(&g, &cfg.with_parallelism(1)).unwrap();
        let b = s.run_detailed(&g, &cfg.with_parallelism(4)).unwrap();
        assert_eq!(
            a.stats.to_json().to_compact(),
            b.stats.to_json().to_compact(),
            "{s:?} diverged under parallelism"
        );
        assert!(!a.reports.is_empty(), "{s:?} produced no stage reports");
        let names: Vec<&str> = a.reports.iter().map(|r| r.stage).collect();
        let expected_last = if s == Strategy::Ideal {
            "ideal"
        } else {
            "simulate"
        };
        assert_eq!(names.last().copied(), Some(expected_last), "{s:?}");
    }
}

/// Running the mapper before the scheduler is a typed stage-order error
/// that names the offending stage and the artifact it was missing.
#[test]
fn stage_order_violation_is_a_typed_error() {
    let g = models::tiny_cnn();
    let cfg = OptimizerConfig::fast_test();
    let err = Pipeline::new(vec![Box::new(MapStage), Box::new(SimulateStage)])
        .execute(&g, &cfg)
        .unwrap_err();
    assert_eq!(
        err,
        PipelineError::StageOrder {
            stage: "map",
            missing: "schedule",
        }
    );
    let msg = err.to_string();
    assert!(msg.contains("`map`"), "unhelpful message: {msg}");
    assert!(msg.contains("`schedule`"), "unhelpful message: {msg}");
}
