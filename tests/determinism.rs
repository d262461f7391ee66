//! Determinism regression suite (ad-lint rule D2's runtime counterpart).
//!
//! The planning pipeline (SA atom generation → DP scheduling → affinity
//! mapping → simulation) is specified to be a pure function of the workload,
//! the configuration and the RNG seed. Historically, hash-map iteration
//! order leaked into tie-breaking decisions (scheduler ready pools, mapper
//! residency scans, IL-Pipe round assembly), so two runs of the same seed
//! could produce different — though individually valid — schedules. These
//! tests pin the ordered-container fix: every statistic of two
//! identically-seeded runs must match to the last byte of its JSON
//! serialization.

use std::time::Instant;

use ad_repro::prelude::*;
use atomic_dataflow::{replan_attempt, run_with_recovery, LadderRung};

/// Two full optimizer runs with the same seed must serialize to
/// byte-identical statistics.
#[test]
fn optimizer_is_deterministic_across_runs() {
    let g = models::tiny_branchy();
    let cfg = OptimizerConfig::fast_test().with_batch(2);
    let a = Optimizer::new(cfg).optimize(&g).unwrap();
    let b = Optimizer::new(cfg).optimize(&g).unwrap();
    assert_eq!(
        a.stats.to_json().to_compact(),
        b.stats.to_json().to_compact(),
        "identically-seeded optimizer runs diverged"
    );
    // The schedules themselves must agree too, not just the aggregates.
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.atoms, b.atoms);
    assert_eq!(a.program.rounds(), b.program.rounds());
}

/// The IL-Pipe baseline assembled its rounds from a hash map keyed by
/// pipeline step; this pins the ordered-container fix.
#[test]
fn il_pipe_baseline_is_deterministic_across_runs() {
    let g = models::tiny_cnn();
    let mut cfg = OptimizerConfig::fast_test().with_batch(3);
    cfg.sim.mesh = MeshConfig::grid(4, 4);
    let a = Strategy::IlPipe.run(&g, &cfg).unwrap();
    let b = Strategy::IlPipe.run(&g, &cfg).unwrap();
    assert_eq!(a.to_json().to_compact(), b.to_json().to_compact());
}

/// Threaded candidate search is an execution detail: the same seed at
/// `parallelism = 4` must serialize byte-identically to the sequential
/// run, schedules included.
#[test]
fn optimizer_is_deterministic_across_thread_counts() {
    let g = models::tiny_branchy();
    let cfg = OptimizerConfig::fast_test().with_batch(2);
    let a = Optimizer::new(cfg.with_parallelism(1))
        .optimize(&g)
        .unwrap();
    let b = Optimizer::new(cfg.with_parallelism(4))
        .optimize(&g)
        .unwrap();
    assert_eq!(
        a.stats.to_json().to_compact(),
        b.stats.to_json().to_compact(),
        "thread count leaked into the statistics"
    );
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.atoms, b.atoms);
    assert_eq!(a.program.rounds(), b.program.rounds());
}

/// Phase 2 judges each distinct candidate on the pool. With two search
/// targets that atomize differently, every thread count must return the
/// serial plan: the fan-out and its index-order reduction change nothing.
#[test]
fn multi_candidate_search_is_deterministic_across_thread_counts() {
    let g = models::tiny_branchy();
    let mut cfg = OptimizerConfig::fast_test().with_batch(2);
    let specs_at = |target: usize| {
        let mut one = cfg;
        one.search_targets = [target, 0, 0];
        Optimizer::new(one).optimize(&g).unwrap().gen_report.specs
    };
    assert_ne!(
        specs_at(32),
        specs_at(64),
        "the targets must be distinct candidates"
    );
    cfg.search_targets = [32, 64, 0];
    let serial = Optimizer::new(cfg.with_parallelism(1))
        .optimize(&g)
        .unwrap();
    for threads in [2, 3, 4, 16] {
        let r = Optimizer::new(cfg.with_parallelism(threads))
            .optimize(&g)
            .unwrap();
        assert_eq!(
            r.stats.to_json().to_compact(),
            serial.stats.to_json().to_compact(),
            "{threads} threads leaked into the statistics"
        );
        assert_eq!(
            r.gen_report.specs, serial.gen_report.specs,
            "{threads} threads"
        );
        assert_eq!(r.rounds, serial.rounds, "{threads} threads");
        assert_eq!(r.atoms, serial.atoms, "{threads} threads");
        assert_eq!(
            r.program.rounds(),
            serial.program.rounds(),
            "{threads} threads"
        );
    }
}

/// Anytime planning under a tight budget: a ResNet-50 plan cut short by
/// iteration caps must still pass admission, report the
/// truncation, and — because the caps count iterations, never wall-clock —
/// serialize byte-identically across reruns.
#[test]
fn tight_budget_resnet50_is_deterministic_and_truncated() {
    let g = models::resnet50();
    let cfg = OptimizerConfig::fast_test().with_budget(
        PlanBudget::unlimited()
            .with_sa_iters(5)
            .with_dp_expansions(1_000),
    );
    let a = Optimizer::new(cfg).optimize(&g).unwrap();
    let b = Optimizer::new(cfg).optimize(&g).unwrap();
    assert!(
        a.budget.is_truncated(),
        "a 5-iteration SA cap on ResNet-50 must truncate, got {}",
        a.budget
    );
    assert_eq!(
        a.stats.to_json().to_compact(),
        b.stats.to_json().to_compact(),
        "budgeted reruns diverged"
    );
    assert_eq!(a.budget, b.budget);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.atoms, b.atoms);
}

/// Deep-graph determinism at scale: a ResNet-1001 plan searched with
/// multiple independent SA chains must serialize byte-identically at
/// parallelism 1, 4 and 16 — the worker pool and chain-level fan-out
/// distribute the work, never change it.
/// The iteration budget (an honest part of the search configuration,
/// identical at every thread count) keeps the debug-mode runtime sane.
#[test]
fn deep_graph_multi_chain_optimizer_is_byte_identical_across_parallelism() {
    let g = models::resnet1001();
    let cfg = OptimizerConfig::fast_test().with_sa_chains(4).with_budget(
        PlanBudget::unlimited()
            .with_sa_iters(20)
            .with_dp_expansions(20_000),
    );
    let runs: Vec<_> = [1usize, 4, 16]
        .iter()
        .map(|&p| {
            Optimizer::new(cfg.with_parallelism(p))
                .optimize(&g)
                .unwrap()
        })
        .collect();
    let (a, rest) = runs.split_first().unwrap();
    for (b, p) in rest.iter().zip([4usize, 16]) {
        assert_eq!(
            a.stats.to_json().to_compact(),
            b.stats.to_json().to_compact(),
            "parallelism {p} leaked into the deep-graph statistics"
        );
        assert_eq!(a.rounds, b.rounds, "parallelism {p} changed the schedule");
        assert_eq!(a.atoms, b.atoms, "parallelism {p} changed the atoms");
        assert_eq!(a.program.rounds(), b.program.rounds());
    }
}

/// The same pin under a *tight* [`PlanBudget`]: anytime truncation points
/// are iteration counts, never wall clock, so a deep-graph plan cut short
/// mid-search is still byte-identical at any thread count — and still
/// passes admission.
#[test]
fn deep_graph_tight_budget_is_byte_identical_across_parallelism() {
    let g = models::resnet1001();
    let cfg = OptimizerConfig::fast_test().with_sa_chains(4).with_budget(
        PlanBudget::unlimited()
            .with_sa_iters(5)
            .with_dp_expansions(1_000),
    );
    let runs: Vec<_> = [1usize, 4, 16]
        .iter()
        .map(|&p| {
            Optimizer::new(cfg.with_parallelism(p))
                .optimize(&g)
                .unwrap()
        })
        .collect();
    // The deep graph's many identical layers let SA hit its epsilon within
    // the cap, so the outcome may legitimately be `completed` — what is
    // pinned is that the budget *accounting* and every artifact agree at
    // every thread count, truncated or not.
    let (a, rest) = runs.split_first().unwrap();
    for (b, p) in rest.iter().zip([4usize, 16]) {
        assert_eq!(a.budget, b.budget, "parallelism {p} changed the outcome");
        assert_eq!(
            a.stats.to_json().to_compact(),
            b.stats.to_json().to_compact(),
            "parallelism {p} leaked into the budgeted statistics"
        );
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.atoms, b.atoms);
    }
}

/// A plan of the reference candidate loop below.
struct ReferencePlan {
    stats: SimStats,
    specs: Vec<atomic_dataflow::AtomSpec>,
    rounds: usize,
    program: Program,
    budget: BudgetOutcome,
    refine_won: bool,
}

/// The candidate search spelled out the long way: one cold
/// [`Pipeline::standard`] per non-zero target, strictly cheaper wins
/// (earliest index on ties), then a cold `LayerOrder` pipeline at the
/// winning target when the schedule mode is DP. `Optimizer::optimize`
/// judges each distinct atomization once and refines on the winner's DAG;
/// it must land on exactly this plan.
#[allow(clippy::unwrap_used)]
fn reference_optimize(g: &Graph, cfg: OptimizerConfig) -> ReferencePlan {
    let run = |target: usize, mode: ScheduleMode| {
        let mut ctx = PlanContext::new(g, cfg);
        Pipeline::standard(Some(target), Some(mode))
            .run(&mut ctx)
            .unwrap();
        ReferencePlan {
            budget: ctx
                .reports
                .iter()
                .map(|r| r.budget)
                .find(BudgetOutcome::is_truncated)
                .unwrap_or(BudgetOutcome::Completed),
            stats: ctx.stats.unwrap(),
            specs: ctx.gen_report.unwrap().specs,
            rounds: ctx.schedule.unwrap().len(),
            program: ctx.program.unwrap(),
            refine_won: false,
        }
    };
    let mut best: Option<(usize, ReferencePlan)> = None;
    for &t in cfg.search_targets.iter().filter(|&&t| t != 0) {
        let c = run(t, cfg.schedule_mode);
        if best
            .as_ref()
            .is_none_or(|(_, b)| c.stats.total_cycles < b.stats.total_cycles)
        {
            best = Some((t, c));
        }
    }
    let (target, mut best) = best.unwrap();
    if matches!(cfg.schedule_mode, ScheduleMode::Dp { .. }) {
        let lo = run(target, ScheduleMode::LayerOrder);
        if lo.stats.total_cycles < best.stats.total_cycles {
            best = ReferencePlan {
                refine_won: true,
                ..lo
            };
        }
    }
    best
}

/// Runs both loops on `g` and demands the same plan; returns whether the
/// layer-order refinement won.
#[allow(clippy::unwrap_used)]
fn assert_matches_reference(name: &str, g: &Graph, cfg: OptimizerConfig) -> bool {
    let reference = reference_optimize(g, cfg);
    let r = Optimizer::new(cfg).optimize(g).unwrap();
    assert_eq!(
        r.stats.to_json().to_compact(),
        reference.stats.to_json().to_compact(),
        "{name}: statistics diverged from the reference loop"
    );
    assert_eq!(r.gen_report.specs, reference.specs, "{name}: specs");
    assert_eq!(r.rounds, reference.rounds, "{name}: rounds");
    assert_eq!(
        r.program.rounds(),
        reference.program.rounds(),
        "{name}: program rounds"
    );
    assert_eq!(r.budget, reference.budget, "{name}: budget outcome");
    assert_eq!(r.stage_reports[0].stage, "atomgen", "{name}: stage reports");
    reference.refine_won
}

/// Search knobs that force a duplicate atomization (two equal targets).
fn duplicate_forcing_config() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::fast_test();
    cfg.search_targets = [32, 32, 64];
    cfg
}

/// Deduplicated candidate judging is a pure speedup: the optimizer
/// returns the reference loop's plan on the hand-written graphs and ten
/// random ones, with and without a tight SA budget.
#[test]
fn candidate_search_matches_the_reference_loop() {
    let cfg = duplicate_forcing_config();
    let tight = cfg.with_budget(PlanBudget::unlimited().with_sa_iters(5));
    let mut cases = vec![
        ("tiny_branchy".to_string(), models::tiny_branchy()),
        ("tiny_cnn".to_string(), models::tiny_cnn()),
    ];
    for seed in 0..10 {
        let g = models::random(&models::RandomGraphConfig::seeded(seed));
        cases.push((format!("random seed {seed}"), g));
    }
    for (name, g) in &cases {
        assert_matches_reference(name, g, cfg);
        assert_matches_reference(&format!("{name}, 5 SA iterations"), g, tight);
    }
}

/// The refinement reuses the winner's DAG instead of re-running atomgen,
/// so its plan must still carry the winner's atomgen truncation: random
/// seed 3 under a 5-iteration SA cap is a case where `LayerOrder` wins
/// *and* atomgen was cut short.
#[test]
fn layer_order_refinement_keeps_the_atomgen_budget_outcome() {
    let g = models::random(&models::RandomGraphConfig::seeded(3));
    let cfg = duplicate_forcing_config();
    assert!(
        assert_matches_reference("random seed 3", &g, cfg),
        "LayerOrder must win this case"
    );
    let tight = cfg.with_budget(PlanBudget::unlimited().with_sa_iters(5));
    assert!(
        assert_matches_reference("random seed 3, 5 SA iterations", &g, tight),
        "LayerOrder must win this case"
    );
    let r = Optimizer::new(tight).optimize(&g).unwrap();
    assert_eq!(r.budget, BudgetOutcome::Truncated { stage: "atomgen" });
}

/// Recovery replans after an injected engine failure; the replan path
/// (schedule_remaining + remapping onto survivors) must be reproducible.
#[test]
fn fault_recovery_is_deterministic_across_runs() {
    let g = models::tiny_cnn();
    let cfg = OptimizerConfig::fast_test();
    let (_, dag) = Optimizer::new(cfg).build_dag(&g);
    let healthy = run_with_recovery(&dag, &cfg, &FaultPlan::none(), &RecoveryConfig::auto())
        .unwrap()
        .stats;
    let plan = FaultPlan::engine_fail(3, healthy.total_cycles / 2);
    let a = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto()).unwrap();
    let b = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto()).unwrap();
    assert_eq!(
        a.stats.to_json().to_compact(),
        b.stats.to_json().to_compact(),
        "identically-seeded recovery runs diverged"
    );
}

/// Builds a ResNet-50 planning context carrying a healthy prior plan, a
/// 60 %-done mask (in prior round order — the shape a mid-run failure
/// leaves) and the given engines retired.
#[allow(clippy::type_complexity, clippy::unwrap_used)]
fn perturbed_resnet50(
    cfg: OptimizerConfig,
) -> (
    atomic_dataflow::AtomicDag,
    Vec<Vec<(atomic_dataflow::AtomId, usize)>>,
    Vec<bool>,
) {
    let g = models::resnet50();
    let (_, dag) = Optimizer::new(cfg).build_dag(&g);
    let n = dag.atom_count();
    let mut ctx = PlanContext::for_dag(dag.clone(), cfg);
    ctx.done = vec![false; n];
    Pipeline::replan().run(&mut ctx).unwrap();
    let prior = ctx.mapped.clone().unwrap();

    let mut done = vec![false; n];
    let mut marked = 0;
    'outer: for round in &prior {
        for &(a, _) in round {
            if marked >= n * 6 / 10 {
                break 'outer;
            }
            done[a.index()] = true;
            marked += 1;
        }
    }
    (dag, prior, done)
}

// ---------------------------------------------------------------------------
// Golden recovery pins. `tests/golden/replan_*.json` hold, per ladder rung,
// stable fingerprints of the repaired schedule, mapping and program rounds
// plus the simulated statistics of the repaired program;
// `recovery_tiny_branchy_chaos.json` holds one whole `run_with_recovery`
// outcome. They were recorded before the ladder was rebuilt from the
// pipeline's own stages and must keep reproducing exactly.

/// Stable fingerprint of a list of rounds, `item` hashing one entry.
fn rounds_fingerprint<T>(rounds: &[Vec<T>], item: impl Fn(&mut ad_util::FpHasher, &T)) -> String {
    let mut h = ad_util::FpHasher::new();
    h.write_usize(rounds.len());
    for round in rounds {
        h.write_usize(round.len());
        for x in round {
            item(&mut h, x);
        }
    }
    h.finish().to_string()
}

/// Runs one ladder attempt over [`perturbed_resnet50`] with `dead` engines
/// retired (`prior = false` withholds the prior plan), asserts the rung it
/// lands on, and compares its admitted artifacts with `golden`.
#[allow(clippy::unwrap_used)]
fn assert_rung_golden(dead: &[usize], prior: bool, rung: LadderRung, golden: &str) {
    let cfg = OptimizerConfig::fast_test();
    let (dag, prior_rounds, done) = perturbed_resnet50(cfg);
    let mut ctx = PlanContext::for_dag(dag, cfg);
    ctx.done = done;
    ctx.dead_engines = dead.to_vec();
    let got = replan_attempt(&mut ctx, prior.then_some(prior_rounds.as_slice())).unwrap();
    assert_eq!(got, rung, "wrong rung under test");
    assert_pin_golden(&mut ctx, rung, golden);
}

/// Admits the repaired plan in `ctx` (the ladder's rungs audit nothing
/// themselves) and compares it with the `golden` pin of `rung`.
#[allow(clippy::unwrap_used)]
fn assert_pin_golden(ctx: &mut PlanContext<'_>, rung: LadderRung, golden: &str) {
    atomic_dataflow::validate::admit(ctx).unwrap();
    let cfg = ctx.cfg;
    let program = ctx.program.as_ref().unwrap();
    let stats = Simulator::new(cfg.sim).run(program).unwrap();
    let pin = ad_util::Json::Obj(vec![
        ("rung".into(), rung.name().into()),
        (
            "schedule".into(),
            rounds_fingerprint(&ctx.schedule.as_ref().unwrap().rounds, |h, a| {
                h.write_usize(a.index())
            })
            .into(),
        ),
        (
            "mapping".into(),
            rounds_fingerprint(ctx.mapped.as_ref().unwrap(), |h, &(a, e)| {
                h.write_usize(a.index());
                h.write_usize(e);
            })
            .into(),
        ),
        (
            "program".into(),
            rounds_fingerprint(program.rounds(), |h, &(t, e)| {
                h.write_u64(u64::from(t.0));
                h.write_usize(e);
            })
            .into(),
        ),
        ("stats".into(), stats.to_json()),
    ]);
    assert_eq!(
        pin.to_pretty(),
        golden.trim_end(),
        "{rung}: repaired plan drifted from the golden pin"
    );
}

#[test]
fn golden_replan_reuse_suffix_one_dead_engine() {
    assert_rung_golden(
        &[3],
        true,
        LadderRung::ReuseSuffix,
        include_str!("golden/replan_reuse_suffix.json"),
    );
}

/// Five dead engines push the orphan fraction past the in-place patch, so
/// the ladder lands on the scoped DP replan of the perturbed suffix.
#[test]
fn golden_replan_scoped_five_dead_engines() {
    assert_rung_golden(
        &[0, 1, 2, 3, 4],
        true,
        LadderRung::ScopedReplan,
        include_str!("golden/replan_scoped.json"),
    );
}

/// Without a prior plan there is nothing to repair: the ladder replans the
/// whole remainder.
#[test]
fn golden_replan_full_without_prior() {
    assert_rung_golden(
        &[3],
        false,
        LadderRung::FullReplan,
        include_str!("golden/replan_full.json"),
    );
}

/// One whole fault-injected run: `tiny_branchy` on 8×8 under the paper's
/// DP shape (lookahead 2, branch 3), hit by a seeded chaos plan whose two
/// retries both take the scoped DP rung.
#[test]
fn golden_recovery_tiny_branchy_chaos_scoped_twice() {
    let mut cfg = OptimizerConfig::fast_test();
    cfg.sim.mesh = MeshConfig::grid(8, 8);
    cfg.schedule_mode = ScheduleMode::Dp {
        lookahead: 2,
        branch: 3,
    };
    let (_, dag) = Optimizer::new(cfg).build_dag(&models::tiny_branchy());
    let healthy = run_with_recovery(&dag, &cfg, &FaultPlan::none(), &RecoveryConfig::auto())
        .unwrap()
        .stats;
    let profile = accel_sim::ChaosProfile::soak(&cfg.sim.mesh);
    let plan = FaultPlan::chaos(9, &cfg.sim.mesh, healthy.total_cycles, &profile).unwrap();
    let out = run_with_recovery(&dag, &cfg, &plan, &RecoveryConfig::auto()).unwrap();
    assert_eq!(
        out.rungs,
        vec![LadderRung::ScopedReplan, LadderRung::ScopedReplan],
        "wrong rungs under test"
    );

    let degradation = |d: &DegradationStats| {
        ad_util::Json::Obj(vec![
            ("engine_failures".into(), d.engine_failures.into()),
            ("dead_links".into(), d.dead_links.into()),
            ("hbm_derate".into(), d.hbm_derate.into()),
            ("lost_tasks".into(), d.lost_tasks.into()),
            ("rerouted_transfers".into(), d.rerouted_transfers.into()),
        ])
    };
    let pin = ad_util::Json::Obj(vec![
        ("attempts".into(), out.attempts.into()),
        (
            "failed_engines".into(),
            ad_util::Json::Arr(out.failed_engines.iter().map(|&e| e.into()).collect()),
        ),
        (
            "rungs".into(),
            ad_util::Json::Arr(out.rungs.iter().map(|r| r.name().into()).collect()),
        ),
        (
            "attempt_degradation".into(),
            ad_util::Json::Arr(out.attempt_degradation.iter().map(degradation).collect()),
        ),
        ("stats".into(), out.stats.to_json()),
    ]);
    assert_eq!(
        pin.to_pretty(),
        include_str!("golden/recovery_tiny_branchy_chaos.json").trim_end(),
        "recovery outcome drifted from the golden pin"
    );
}

/// The pinned headline of the recovery ladder: repairing a
/// single-engine-death ResNet-50 plan through the incremental rung must be
/// at least an order of magnitude faster than the cold full replan it
/// replaces. Timing compares the replan work itself: neither the pipeline
/// nor a rung admits its plan (admission is an identical additive cost on
/// both sides, and is run once on the result below). Both sides take the
/// minimum of five runs so scheduler noise cannot fake a regression in
/// either direction.
#[test]
fn incremental_replan_is_order_of_magnitude_faster_than_cold() {
    let mut cfg = OptimizerConfig::fast_test();
    cfg.sim.mesh = MeshConfig::grid(8, 8);
    let dead = [3usize];
    let (dag, prior, done) = perturbed_resnet50(cfg);

    let iters = 5;
    let mut cold_ms = f64::MAX;
    for _ in 0..iters {
        let mut ctx = PlanContext::for_dag(dag.clone(), cfg);
        ctx.done = done.clone();
        ctx.dead_engines = dead.to_vec();
        let t0 = Instant::now();
        Pipeline::replan().run(&mut ctx).unwrap();
        cold_ms = cold_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    let mut warm_ms = f64::MAX;
    let mut last = None;
    for _ in 0..iters {
        let mut ctx = PlanContext::for_dag(dag.clone(), cfg);
        ctx.done = done.clone();
        ctx.dead_engines = dead.to_vec();
        let t0 = Instant::now();
        let rung = replan_attempt(&mut ctx, Some(&prior)).unwrap();
        warm_ms = warm_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(rung, LadderRung::ReuseSuffix, "wrong rung under test");
        last = Some(ctx);
    }

    let speedup = cold_ms / warm_ms;
    assert!(
        speedup >= 10.0,
        "incremental replan must be >=10x faster than cold \
         (cold {cold_ms:.2}ms / warm {warm_ms:.2}ms = {speedup:.1}x)"
    );

    // The speed does not come from skipping the auditor: the incremental
    // artifacts still pass admission.
    let mut ctx = last.unwrap();
    atomic_dataflow::validate::admit(&mut ctx).expect("incremental replan artifacts must admit");
}

// ---------------------------------------------------------------------------
// Golden simulator pins. The JSON files under `tests/golden/` are literal
// `SimStats` values, each recorded before the simulator rewrite it guards:
// the table-driven residency bookkeeping (copy bitset, nearest-first probe,
// next-use cursor) and the slot-indexed buffers with stamped eviction pins
// (the 64 KiB-buffer and Inception-v3 pins). Every run below must keep
// reproducing them exactly.

/// Plans `g` once with the standard pipeline on a `mesh`-sized fast-test
/// machine; returns the simulator config, the lowered program and its
/// simulated statistics.
#[allow(clippy::unwrap_used)]
fn golden_plan(g: &Graph, mesh: MeshConfig) -> (SimConfig, Program, SimStats) {
    let mut cfg = OptimizerConfig::fast_test();
    cfg.sim.mesh = mesh;
    let mut ctx = PlanContext::new(g, cfg);
    Pipeline::standard(None, None).run(&mut ctx).unwrap();
    (cfg.sim, ctx.program.unwrap(), ctx.stats.unwrap())
}

fn assert_golden(stats: &SimStats, golden: &str, name: &str) {
    assert_eq!(
        stats.to_json().to_pretty(),
        golden.trim_end(),
        "{name}: simulated statistics drifted from the golden pin"
    );
}

#[test]
fn golden_sim_stats_tiny_branchy_8x8_with_and_without_a_dead_link() {
    let (sim, program, stats) = golden_plan(&models::tiny_branchy(), MeshConfig::grid(8, 8));
    assert_golden(
        &stats,
        include_str!("golden/sim_tiny_branchy_8x8.json"),
        "tiny_branchy 8x8",
    );

    // A dead link in the middle of the mesh: transfers crossing it detour.
    let plan = FaultPlan::none().with_event(accel_sim::FaultEvent {
        cycle: 0,
        kind: FaultKind::LinkFail { a: 27, b: 28 },
    });
    match Simulator::new(sim).run_faulted(&program, &plan).unwrap() {
        accel_sim::FaultedOutcome::Completed(s) => {
            assert_eq!(s.degradation.rerouted_transfers, 14);
            assert_golden(
                &s,
                include_str!("golden/sim_tiny_branchy_8x8_dead_link.json"),
                "tiny_branchy 8x8, link 27-28 dead",
            );
        }
        accel_sim::FaultedOutcome::Failed(r) => panic!("a dead link is survivable: {r:?}"),
    }
}

#[test]
fn golden_sim_stats_resnet50_8x8_with_an_engine_death() {
    let (sim, program, stats) = golden_plan(&models::resnet50(), MeshConfig::grid(8, 8));
    assert_golden(
        &stats,
        include_str!("golden/sim_resnet50_8x8.json"),
        "resnet50 8x8",
    );

    let plan = FaultPlan::engine_fail(9, stats.total_cycles / 2);
    match Simulator::new(sim).run_faulted(&program, &plan).unwrap() {
        accel_sim::FaultedOutcome::Failed(r) => {
            assert_eq!((r.engine, r.cycle, r.round), (9, 196_223, 56));
            assert_eq!(r.lost, vec![accel_sim::TaskId(3555)]);
            let before: Vec<_> = program.rounds()[..56]
                .iter()
                .flatten()
                .map(|&(t, _)| t)
                .collect();
            assert_eq!(r.completed.len(), 3568);
            assert_eq!(
                r.completed, before,
                "completed = every task of rounds 0..56"
            );
            assert_golden(
                &r.partial,
                include_str!("golden/sim_resnet50_8x8_engine9_death_partial.json"),
                "resnet50 8x8, engine 9 dies mid-run",
            );
        }
        accel_sim::FaultedOutcome::Completed(_) => panic!("engine 9 still had work"),
    }
}

/// 81 engines: the per-datum copy set spans two 64-bit words.
#[test]
fn golden_sim_stats_resnet50_9x9() {
    let (_, program, stats) = golden_plan(&models::resnet50(), MeshConfig::grid(9, 9));
    assert!(
        program.rounds().iter().flatten().any(|&(_, e)| e >= 64),
        "the pin must place work on engines past the first bitset word"
    );
    assert_golden(
        &stats,
        include_str!("golden/sim_resnet50_9x9.json"),
        "resnet50 9x9",
    );
}

/// ResNet-50 on 8×8 with the engine buffer halved to 64 KiB, once per
/// eviction policy. Victim scans run ≈ 33 000 times per run there, 4–5× as
/// often as at the default 128 KiB, so the pins hold thousands of decisions
/// of each policy's victim order.
#[test]
fn golden_sim_stats_resnet50_8x8_64k_buffer_under_each_eviction_kind() {
    let (sim, program, _) = golden_plan(&models::resnet50(), MeshConfig::grid(8, 8));
    for (kind, golden) in [
        (
            EvictionKind::InvalidOccupation,
            include_str!("golden/sim_resnet50_8x8_buf64k_invalid_occupation.json"),
        ),
        (
            EvictionKind::Fifo,
            include_str!("golden/sim_resnet50_8x8_buf64k_fifo.json"),
        ),
    ] {
        let mut cfg = sim;
        cfg.engine = cfg.engine.with_buffer_bytes(64 * 1024);
        cfg.eviction = kind;
        let stats = Simulator::new(cfg).run(&program).unwrap();
        assert_golden(&stats, golden, &format!("resnet50 8x8, 64 KiB, {kind:?}"));
    }
}

#[test]
fn golden_sim_stats_inception_v3_8x8() {
    let (_, _, stats) = golden_plan(&models::inception_v3(), MeshConfig::grid(8, 8));
    assert_golden(
        &stats,
        include_str!("golden/sim_inception_v3_8x8.json"),
        "inception_v3 8x8",
    );
}

/// CNN-P at batch 4: the CLP-count search, the batch-pipelined rounds and
/// the every-ofmap-through-DRAM lowering, on an 8×8 mesh and on the 4×4
/// fast-test mesh.
#[test]
fn golden_sim_stats_cnn_p_batch4() {
    let mut cfg = OptimizerConfig::fast_test().with_batch(4);
    cfg.sim.mesh = MeshConfig::grid(8, 8);
    let stats = Strategy::CnnPartition
        .run(&models::tiny_branchy(), &cfg)
        .unwrap();
    assert_golden(
        &stats,
        include_str!("golden/sim_cnn_p_tiny_branchy_8x8_b4.json"),
        "CNN-P tiny_branchy 8x8 batch 4",
    );
    let stats = Strategy::CnnPartition
        .run(
            &models::resnet50(),
            &OptimizerConfig::fast_test().with_batch(4),
        )
        .unwrap();
    assert_golden(
        &stats,
        include_str!("golden/sim_cnn_p_resnet50_4x4_b4.json"),
        "CNN-P resnet50 4x4 batch 4",
    );
}
