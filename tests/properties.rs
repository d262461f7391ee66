//! Property-style tests on the core data structures and invariants:
//! tiling geometry, mesh routing, HBM timing, buffer accounting, schedule
//! validity and cost-model monotonicity.
//!
//! Each property is exercised over a seeded loop of randomized cases
//! (`ad_util::Rng64`), so failures reproduce exactly from the printed case
//! parameters without an external property-testing framework.

use ad_repro::prelude::*;
use ad_util::Rng64;
use atomic_dataflow::atom::{AtomCoords, AtomSpec};
use atomic_dataflow::{AtomicDag, Scheduler, SchedulerConfig};
use dnn_graph::TensorShape;
use engine_model::ConvTask;
use mem_model::{HbmConfig, HbmModel};

const CASES: usize = 48;

/// Any tile spec partitions any output tensor exactly: tiles are
/// disjoint and cover every element.
#[test]
fn tiling_is_exact_partition() {
    let mut rng = Rng64::new(0x7111);
    for case in 0..CASES {
        let (h, w, c) = (
            rng.range_usize(1, 64),
            rng.range_usize(1, 64),
            rng.range_usize(1, 512),
        );
        let (th, tw, tc) = (
            rng.range_usize(1, 64),
            rng.range_usize(1, 64),
            rng.range_usize(1, 512),
        );
        let out = TensorShape::new(h, w, c);
        let spec = AtomSpec { th, tw, tc }.clamped(out);
        let tiles = spec.tiles(out);
        assert_eq!(
            tiles.len(),
            spec.count(out),
            "case {case}: {out:?} {spec:?}"
        );
        let covered: u64 = tiles.iter().map(AtomCoords::elements).sum();
        assert_eq!(covered, out.elements(), "case {case}: {out:?} {spec:?}");
        for (i, a) in tiles.iter().enumerate() {
            for b in tiles.iter().skip(i + 1) {
                assert_eq!(a.overlap_elements(b), 0, "case {case}: {out:?} {spec:?}");
            }
        }
    }
}

/// Mesh hop counts form a metric: symmetric, zero on the diagonal,
/// triangle inequality; XY routes have length hops+1.
#[test]
fn mesh_hops_are_a_metric() {
    let mut rng = Rng64::new(0x7112);
    for _ in 0..12 {
        let (cols, rows) = (rng.range_usize(1, 9), rng.range_usize(1, 9));
        let m = MeshConfig::grid(cols, rows);
        let n = m.engines();
        for a in 0..n {
            assert_eq!(m.hops(a, a), 0);
            for b in 0..n {
                assert_eq!(m.hops(a, b), m.hops(b, a));
                assert_eq!(m.route(a, b).len() as u64, m.hops(a, b) + 1);
                for v in 0..n {
                    assert!(m.hops(a, b) <= m.hops(a, v) + m.hops(v, b));
                }
            }
        }
    }
}

/// HBM completions never travel back in time, and total traffic equals
/// the sum of request sizes.
#[test]
fn hbm_time_is_monotone() {
    let mut rng = Rng64::new(0x7113);
    for case in 0..CASES {
        let mut m = HbmModel::new(HbmConfig::paper_default());
        let mut total = 0u64;
        let n = rng.range_usize(1, 50);
        for _ in 0..n {
            let now = rng.next_u64() % 10_000;
            let bytes = 1 + rng.next_u64() % 99_999;
            let done = m.read(now, bytes);
            assert!(
                done >= now + m.config().access_latency_cycles,
                "case {case}"
            );
            total += bytes;
        }
        assert_eq!(m.read_bytes(), total, "case {case}");
    }
}

/// The engine cost model never reports more MACs per cycle than the
/// array has PEs, and cycles grow monotonically with output channels.
#[test]
fn cost_model_respects_roofline() {
    let mut rng = Rng64::new(0x7114);
    let cfg = engine_model::EngineConfig::paper_default();
    for case in 0..CASES {
        let (ho, wo) = (rng.range_usize(1, 64), rng.range_usize(1, 64));
        let (ci, co) = (rng.range_usize(1, 512), rng.range_usize(1, 512));
        let k = rng.range_usize(1, 6);
        for df in Dataflow::ALL {
            let t = ConvTask::conv(ho, wo, ci, co, k, k, 1);
            let e = cfg.estimate(&t, df);
            assert!(
                e.utilization <= 1.0 + 1e-9,
                "case {case} {df:?}: {}",
                e.utilization
            );
            assert!(e.cycles > 0, "case {case} {df:?}");
            let bigger = ConvTask::conv(ho, wo, ci, co + 16, k, k, 1);
            assert!(
                cfg.estimate(&bigger, df).cycles >= e.cycles,
                "case {case} {df:?}"
            );
        }
    }
}

/// Atomic DAGs from random tilings of the branchy test network are
/// always schedulable into dependency-respecting rounds, for any engine
/// count and batch.
#[test]
fn random_tilings_schedule_validly() {
    let mut rng = Rng64::new(0x7115);
    let g = models::tiny_branchy();
    for case in 0..24 {
        let (tile, tc) = (rng.range_usize(1, 40), rng.range_usize(1, 64));
        let engines = rng.range_usize(1, 24);
        let batch = rng.range_usize(1, 4);
        let specs: Vec<AtomSpec> = g
            .layers()
            .map(|l| {
                AtomSpec {
                    th: tile,
                    tw: tile,
                    tc,
                }
                .clamped(l.out_shape())
            })
            .collect();
        let dag = AtomicDag::build(
            &g,
            &specs,
            batch,
            &engine_model::EngineConfig::paper_default(),
            Dataflow::KcPartition,
        );
        let sched = Scheduler::new(&dag, SchedulerConfig::greedy(engines))
            .schedule()
            .expect("greedy schedule succeeds");

        let mut done = vec![false; dag.atom_count()];
        let mut seen = 0usize;
        for round in &sched.rounds {
            assert!(round.len() <= engines, "case {case}");
            for a in round {
                for (p, _) in dag.preds(*a) {
                    assert!(done[p.index()], "case {case}: dependency violated");
                }
            }
            for a in round {
                assert!(!done[a.index()], "case {case}: atom scheduled twice");
                done[a.index()] = true;
                seen += 1;
            }
        }
        assert_eq!(seen, dag.atom_count(), "case {case}");
    }
}

/// Simulated wall-clock is bounded below by the slowest single atom and
/// by total-compute/engines, for random atomizations.
#[test]
fn sim_time_lower_bounds_hold() {
    let mut rng = Rng64::new(0x7116);
    let g = models::tiny_cnn();
    let ecfg = engine_model::EngineConfig::paper_default();
    for case in 0..12 {
        let tile = rng.range_usize(4, 40);
        let engines_side = rng.range_usize(2, 5);
        let specs: Vec<AtomSpec> = g
            .layers()
            .map(|l| {
                AtomSpec {
                    th: tile,
                    tw: tile,
                    tc: 1 << 20,
                }
                .clamped(l.out_shape())
            })
            .collect();
        let dag = AtomicDag::build(&g, &specs, 1, &ecfg, Dataflow::KcPartition);
        let n = engines_side * engines_side;
        let sched = Scheduler::new(&dag, SchedulerConfig::greedy(n))
            .schedule()
            .expect("greedy schedule succeeds");

        let mut sim_cfg = SimConfig::paper_default();
        sim_cfg.mesh = MeshConfig::grid(engines_side, engines_side);
        let mut mapper = atomic_dataflow::Mapper::new(sim_cfg.mesh, Default::default());
        let mapped: Vec<_> = sched
            .rounds
            .iter()
            .map(|r| mapper.map_round(&dag, r).expect("round fits the mesh"))
            .collect();
        let p = atomic_dataflow::lower_to_program(&dag, &mapped);
        let stats = Simulator::new(sim_cfg).run(&p).unwrap();

        let slowest = dag.atoms().iter().map(|a| a.cost.cycles).max().unwrap_or(0);
        assert!(stats.total_cycles >= slowest, "case {case}");
        assert!(
            stats.total_cycles >= dag.total_compute_cycles() / n as u64,
            "case {case}"
        );
    }
}

/// Edge-byte conservation: for every atom, the bytes pulled from
/// producer atoms plus external (input) bytes exactly equal the volume
/// of its receptive-field window over each producer — the atomic DAG
/// neither loses nor duplicates input data.
#[test]
fn atomic_dag_edges_conserve_input_volume() {
    use atomic_dataflow::atom::input_window;
    use dnn_graph::OpKind;

    let mut rng = Rng64::new(0x7117);
    let g = models::tiny_branchy();
    for case in 0..24 {
        let (th, tw) = (rng.range_usize(2, 24), rng.range_usize(2, 24));
        let tc = rng.range_usize(4, 64);
        let specs: Vec<AtomSpec> = g
            .layers()
            .map(|l| AtomSpec { th, tw, tc }.clamped(l.out_shape()))
            .collect();
        let dag = AtomicDag::build(
            &g,
            &specs,
            1,
            &engine_model::EngineConfig::paper_default(),
            Dataflow::KcPartition,
        );
        for (i, atom) in dag.atoms().iter().enumerate() {
            let id = atomic_dataflow::AtomId(ad_util::cast::u32_from_usize(i));
            let layer = g.layer(atom.layer);
            // Only check ops with a single producer and channel-complete
            // reads (dense conv): the window volume is exact there.
            let is_dense_conv = matches!(layer.op(), OpKind::Conv(p) if p.groups == 1);
            if !is_dense_conv || g.preds(atom.layer).len() != 1 {
                continue;
            }
            let (h, w) = input_window(layer, atom.coords.h, atom.coords.w);
            let needed = h.len() as u64 * w.len() as u64 * layer.in_shape().c as u64;
            let from_edges: u64 = dag.preds(id).iter().map(|(_, b)| b).sum();
            let from_input: u64 = dag
                .externals(id)
                .filter(|(d, _)| d.0 >> 62 == 1) // network-input datums
                .map(|(_, b)| b)
                .sum();
            assert_eq!(
                from_edges + from_input,
                needed,
                "case {case}: layer {} atom {:?}",
                layer.name(),
                atom.coords
            );
        }
    }
}

/// Differential admission check over seeded adversarial graphs: the
/// independent validator must pass every strategy — the full planner and
/// all five baselines — on 50 random graphs with prime extents, odd
/// channel counts and skip-leaf funnels. Every strategy admits the plan it
/// returns, in every build, so a plain successful run is the check. A
/// rejection here means either a planner bug or a validator bug; both are
/// worth failing loudly.
#[test]
fn adversarial_graphs_pass_admission_in_every_strategy() {
    for seed in 0..50u64 {
        let g = models::random(&models::RandomGraphConfig::seeded(seed));
        let cfg = OptimizerConfig::fast_test();
        let opt = Optimizer::new(cfg)
            .optimize(&g)
            .unwrap_or_else(|e| panic!("seed {seed}: planner rejected: {e}"));
        assert!(opt.stats.tasks > 0, "seed {seed}");
        for strategy in [
            Strategy::LayerSequential,
            Strategy::CnnPartition,
            Strategy::IlPipe,
            Strategy::Rammer,
        ] {
            strategy
                .run(&g, &cfg)
                .unwrap_or_else(|e| panic!("seed {seed}: {} rejected: {e}", strategy.label()));
        }
        let ideal = Strategy::Ideal.run(&g, &cfg).unwrap();
        assert!(ideal.total_cycles > 0, "seed {seed}");
    }
}

/// Differential recovery check on adversarial graphs: an early engine
/// death forces a replan, and the replanned run — whose every attempt
/// `run_with_recovery` admits before simulating it, in every build — must
/// complete with exact task conservation on every seeded graph.
#[test]
fn recovery_replans_admit_on_adversarial_graphs() {
    for seed in 0..50u64 {
        let g = models::random(&models::RandomGraphConfig::seeded(seed));
        let cfg = OptimizerConfig::fast_test();
        let (_, dag) = Optimizer::new(cfg).build_dag(&g);
        let plan = FaultPlan::engine_fail(0, 1);
        let out = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto())
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        assert!(out.attempts >= 2, "seed {seed}: death must force a replan");
        assert_eq!(out.failed_engines, vec![0], "seed {seed}");
        assert_eq!(
            out.stats.tasks as u64,
            dag.atom_count() as u64 + out.stats.degradation.rerun_tasks,
            "seed {seed}: rerun accounting drifted"
        );
        assert_eq!(
            out.attempt_degradation.len(),
            out.attempts,
            "seed {seed}: per-attempt counters missing"
        );
    }
}

/// Weight externals are consistent: every atom of the same layer and
/// channel tile references the same weight datum with the same size.
#[test]
fn weight_slices_are_consistent() {
    let mut rng = Rng64::new(0x7118);
    let g = models::tiny_cnn();
    for case in 0..24 {
        let tc = rng.range_usize(8, 64);
        let specs: Vec<AtomSpec> = g
            .layers()
            .map(|l| AtomSpec { th: 8, tw: 8, tc }.clamped(l.out_shape()))
            .collect();
        let dag = AtomicDag::build(
            &g,
            &specs,
            2,
            &engine_model::EngineConfig::paper_default(),
            Dataflow::KcPartition,
        );
        let mut sizes: std::collections::HashMap<u64, u64> = Default::default();
        for (i, _) in dag.atoms().iter().enumerate() {
            for (d, b) in dag.externals(atomic_dataflow::AtomId(ad_util::cast::u32_from_usize(i))) {
                if d.0 >> 62 == 0 {
                    let prev = sizes.insert(d.0, b);
                    if let Some(prev) = prev {
                        assert_eq!(prev, b, "case {case}: weight datum {} size mismatch", d.0);
                    }
                }
            }
        }
    }
}
