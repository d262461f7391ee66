//! Fig. 5: atomic tensor generation quality.
//!
//! (a) Histogram of atom execution cycles after SA-based generation: the
//!     cycles should concentrate around the unified-cycle state `S`.
//! (b) Convergence of the normalized variance for SA vs GA: SA converges
//!     faster and reaches a lower variance.

use ad_bench::{Table, Workloads};
use atomic_dataflow::atomgen::{
    self, AtomGenConfig, AtomGenMode, CandidateTable, GaParams, SaParams,
};
use atomic_dataflow::Exec;
use engine_model::{Dataflow, HardwareConfig};

fn main() {
    let mut w = Workloads::from_args();
    if std::env::args().len() <= 1 {
        w = Workloads::from_arg_slice(&[
            "--workloads=resnet50,inception_v3,nasnet,efficientnet".to_string()
        ]);
    }
    let engine = HardwareConfig::paper_default().engine_config();
    // The candidate table depends on neither the search mode nor the SA
    // hyper-parameters, so SA and GA read the same one.
    let candidates = |graph| {
        CandidateTable::build(
            graph,
            &AtomGenConfig::default(),
            &engine,
            Dataflow::KcPartition,
            &Exec::default(),
        )
    };

    // ---- (a) cycle histograms under SA.
    let mut table = Table::new(
        "Fig. 5(a) — atom execution-cycle distribution after SA",
        &[
            "workload",
            "S (cycles)",
            "norm. Var",
            "within ±25% of S",
            "atoms",
        ],
    );
    for (name, graph) in &w.list {
        let cfg = AtomGenConfig::default();
        let rep = atomgen::generate(graph, &candidates(graph), &cfg);
        let total_atoms: usize = rep.layer_cycles.iter().map(|(_, n)| n).sum();
        let near: usize = rep
            .layer_cycles
            .iter()
            .filter(|(c, _)| {
                (*c as f64) > 0.75 * rep.unified_cycle && (*c as f64) < 1.25 * rep.unified_cycle
            })
            .map(|(_, n)| n)
            .sum();
        table.add_row(vec![
            name.clone(),
            format!("{:.0}", rep.unified_cycle),
            format!("{:.4}", rep.variance),
            format!("{:.1}%", near as f64 / total_atoms as f64 * 100.0),
            total_atoms.to_string(),
        ]);

        // Compact histogram over cycles/S ratio.
        let mut hist = [0usize; 8];
        for (c, n) in &rep.layer_cycles {
            let ratio = *c as f64 / rep.unified_cycle;
            let bin = ((ratio * 2.0) as usize).min(7); // 0.5-wide bins
            hist[bin] += n;
        }
        eprintln!("  {name}: atoms per cycles/S bin (width 0.5): {hist:?}");
    }
    table.print();

    // ---- (b) SA vs GA convergence on the first workload.
    let (name, graph) = &w.list[0];
    let iters = 200usize;
    let table = candidates(graph);
    let run = |mode| {
        let cfg = AtomGenConfig {
            mode,
            ..AtomGenConfig::default()
        };
        atomgen::generate(graph, &table, &cfg)
    };
    let sa = run(AtomGenMode::Sa(SaParams {
        max_iters: iters,
        epsilon: 0.0,
        ..SaParams::default()
    }));
    let ga = run(AtomGenMode::Ga(GaParams {
        generations: iters,
        ..GaParams::default()
    }));

    let mut conv = Table::new(
        format!("Fig. 5(b) — SA vs GA convergence on {name} (normalized Var)"),
        &["iteration", "SA", "GA"],
    );
    for it in (0..=iters).step_by(iters / 10) {
        let sa_e = sa
            .history
            .get(it)
            .or(sa.history.last())
            .copied()
            .unwrap_or(0.0);
        let ga_e = ga
            .history
            .get(it)
            .or(ga.history.last())
            .copied()
            .unwrap_or(0.0);
        conv.add_row(vec![
            it.to_string(),
            format!("{sa_e:.4}"),
            format!("{ga_e:.4}"),
        ]);
    }
    conv.print();
    let sa_final = *sa.history.last().unwrap();
    let ga_final = *ga.history.last().unwrap();
    println!(
        "\nSA final Var = {:.4}, GA final Var = {:.4} -> SA {} (paper: SA converges quicker and stops lower)",
        sa_final,
        ga_final,
        if sa_final <= ga_final { "lower (matches paper)" } else { "HIGHER (mismatch)" }
    );
}
