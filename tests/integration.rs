//! Cross-crate integration tests: every strategy, end to end, on real (if
//! small) configurations — graph construction → atomization → scheduling →
//! mapping → lowering → simulation.

use ad_repro::prelude::*;
use atomic_dataflow::{lower_to_program, Optimizer};

fn small_cfg() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::fast_test();
    cfg.sim.mesh = MeshConfig::grid(4, 4);
    cfg
}

/// Every strategy must execute every MAC of the workload exactly once.
#[test]
fn all_strategies_conserve_macs() {
    for name in ["tiny_cnn", "tiny_branchy"] {
        let g = models::by_name(name).unwrap();
        let expect: u64 = g.layers().map(|l| l.macs()).sum();
        for batch in [1usize, 3] {
            let cfg = small_cfg().with_batch(batch);
            for s in [
                Strategy::LayerSequential,
                Strategy::CnnPartition,
                Strategy::IlPipe,
                Strategy::Rammer,
                Strategy::AtomicDataflow,
            ] {
                let stats = s.run(&g, &cfg).unwrap();
                assert_eq!(
                    stats.total_macs,
                    expect * batch as u64,
                    "{name} batch {batch} strategy {}",
                    s.label()
                );
            }
        }
    }
}

/// The whole pipeline is deterministic: same config, same result.
#[test]
fn optimization_is_deterministic() {
    let g = models::tiny_branchy();
    let cfg = small_cfg();
    let a = Optimizer::new(cfg).optimize(&g).unwrap();
    let b = Optimizer::new(cfg).optimize(&g).unwrap();
    assert_eq!(a.stats.total_cycles, b.stats.total_cycles);
    assert_eq!(a.atoms, b.atoms);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.stats.dram_read_bytes, b.stats.dram_read_bytes);
}

/// Both dataflows work end to end and report sane utilizations.
#[test]
fn both_dataflows_supported() {
    let g = models::tiny_cnn();
    for df in Dataflow::ALL {
        let cfg = small_cfg().with_dataflow(df);
        let r = Optimizer::new(cfg).optimize(&g).unwrap();
        assert!(r.stats.total_cycles > 0, "{df:?}");
        assert!(r.stats.pe_utilization > 0.0 && r.stats.pe_utilization <= 1.0);
        assert!(r.stats.compute_utilization <= 1.0 + 1e-9);
    }
}

/// The ideal bound really is a lower bound for every strategy.
#[test]
fn ideal_lower_bounds_everything() {
    let g = models::tiny_branchy();
    let cfg = small_cfg();
    let ideal = Strategy::Ideal.run(&g, &cfg).unwrap().total_cycles;
    for s in [
        Strategy::LayerSequential,
        Strategy::CnnPartition,
        Strategy::IlPipe,
        Strategy::Rammer,
        Strategy::AtomicDataflow,
    ] {
        let c = s.run(&g, &cfg).unwrap().total_cycles;
        assert!(
            c >= ideal,
            "{} ({c}) beat the ideal bound ({ideal})",
            s.label()
        );
    }
}

/// Lowered AD programs pass the simulator's schedule validation for every
/// paper workload class (linear, residual, branching, NAS, SE).
#[test]
fn lowered_programs_validate_for_every_topology_class() {
    for name in ["tiny_cnn", "tiny_branchy"] {
        let g = models::by_name(name).unwrap();
        let cfg = small_cfg().with_batch(2);
        let opt = Optimizer::new(cfg);
        let (_, dag) = opt.build_dag(&g);
        let (sched, mapped) = opt.schedule_and_map(&dag).unwrap();
        assert_eq!(sched.len(), mapped.len());
        let p = lower_to_program(&dag, &mapped);
        assert!(p.validate(cfg.engines()).is_ok(), "{name}");
    }
}

/// Energy accounting is internally consistent: components sum to the total
/// and scale with batch.
#[test]
fn energy_components_consistent() {
    let g = models::tiny_cnn();
    let cfg = small_cfg();
    let r1 = Strategy::AtomicDataflow.run(&g, &cfg).unwrap();
    let e = &r1.energy;
    let sum = e.compute_pj + e.noc_pj + e.dram_pj + e.static_pj;
    assert!((sum - e.total_pj()).abs() < 1e-6);
    assert!(e.compute_pj > 0.0);
    assert!(e.static_pj > 0.0);

    let r4 = Strategy::AtomicDataflow
        .run(&g, &cfg.with_batch(4))
        .unwrap();
    assert!(
        r4.energy.compute_pj > 3.0 * e.compute_pj,
        "compute energy must scale with batch"
    );
}

/// Bigger on-chip buffers never make AD slower on a memory-pressured
/// configuration (Fig. 13's monotone trend).
#[test]
fn larger_buffers_do_not_hurt() {
    let g = models::tiny_branchy();
    let mut small = small_cfg().with_batch(2);
    small.sim.engine = small.sim.engine.with_buffer_bytes(8 * 1024);
    let mut large = small;
    large.sim.engine = large.sim.engine.with_buffer_bytes(512 * 1024);

    let c_small = Optimizer::new(small)
        .optimize(&g)
        .unwrap()
        .stats
        .total_cycles;
    let c_large = Optimizer::new(large)
        .optimize(&g)
        .unwrap()
        .stats
        .total_cycles;
    assert!(
        c_large <= c_small * 11 / 10,
        "512KB ({c_large}) much slower than 8KB ({c_small})"
    );
}

/// CNN-P moves strictly more data off-chip than AD (its structural
/// handicap per Sec. II-B).
#[test]
fn cnn_p_offchip_traffic_exceeds_ad() {
    let g = models::tiny_cnn();
    let cfg = small_cfg().with_batch(4);
    let cp = Strategy::CnnPartition.run(&g, &cfg).unwrap();
    let ad = Strategy::AtomicDataflow.run(&g, &cfg).unwrap();
    let total = |s: &SimStats| s.dram_read_bytes + s.dram_write_bytes;
    assert!(
        total(&cp) > total(&ad),
        "cnn-p {} <= ad {}",
        total(&cp),
        total(&ad)
    );
}

/// Acceptance scenario for the fault subsystem: engine 0 dies mid-run on an
/// 8×8 mesh running ResNet. With recovery enabled the run completes by
/// remapping the remainder onto the 63 survivors — degradation counters
/// populated, bit-identical across two runs. With recovery disabled the
/// same scenario is a typed error, never a panic.
#[test]
fn engine_death_on_resnet_recovers_via_remap() {
    use atomic_dataflow::{run_with_recovery, AtomGenMode, PipelineError, RecoveryConfig};

    let g = models::resnet50();
    let mut cfg = OptimizerConfig::paper_default(); // 8×8 mesh
                                                    // Uniform atomization + greedy rounds keep the test cheap and exercise
                                                    // the identical recovery machinery.
    cfg.atomgen.mode = AtomGenMode::Uniform { parts: 4 };
    cfg.schedule_mode = ScheduleMode::PriorityGreedy;
    let (_, dag) = Optimizer::new(cfg).build_dag(&g);

    let healthy =
        run_with_recovery(&dag, &cfg, &FaultPlan::none(), &RecoveryConfig::auto()).unwrap();
    assert!(healthy.stats.degradation.is_healthy());
    let plan = FaultPlan::engine_fail(0, healthy.stats.total_cycles / 2);

    let a = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto()).unwrap();
    let b = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto()).unwrap();
    assert_eq!(a, b, "recovery must replay identically for the same plan");
    assert_eq!(a.failed_engines, vec![0]);
    assert!(
        a.attempts >= 2,
        "a mid-run death of engine 0 must force a re-plan"
    );

    let d = &a.stats.degradation;
    assert_eq!(d.engine_failures, 1);
    assert!(d.remap_rounds > 0, "re-planned rounds must be counted");
    assert!(
        d.lost_tasks > 0,
        "the failed round's in-flight work is lost"
    );
    // Every MAC executed at least once; reruns can only add.
    assert!(a.stats.total_macs >= dag.total_macs());
    assert!(
        a.stats.total_cycles > healthy.stats.total_cycles,
        "recovery is not free: {} vs healthy {}",
        a.stats.total_cycles,
        healthy.stats.total_cycles
    );

    let err = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::disabled()).unwrap_err();
    assert!(
        matches!(
            err,
            PipelineError::Sim(SimError::EngineFailed { engine: 0, .. })
        ),
        "recovery off must yield a typed engine failure, got {err:?}"
    );
}

/// The full 8-workload model zoo builds, validates, and atomizes under the
/// paper configuration (DAG construction only — full optimization of the
/// giants lives in the experiment binaries).
#[test]
fn model_zoo_atomizes() {
    for name in ["vgg19", "resnet50", "inception_v3", "efficientnet"] {
        let g = models::by_name(name).unwrap();
        let cfg = OptimizerConfig::paper_default();
        let (report, dag) = Optimizer::new(cfg).build_dag(&g);
        assert!(dag.atom_count() > 0, "{name}");
        assert_eq!(dag.total_macs(), g.layers().map(|l| l.macs()).sum::<u64>());
        assert!(report.variance.is_finite());
    }
}
