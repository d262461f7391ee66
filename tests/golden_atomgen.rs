//! Golden atom-generation pins.
//!
//! The JSON files `tests/golden/atomgen_*.json` are literal [`GenReport`]
//! summaries recorded before the SA hot loop's argmin was rewritten
//! (collapsed equal-cycles runs, outward scan, non-array layers resolved
//! once) and before the candidate table became a per-request value. Every
//! run below must keep reproducing them bit for bit: the chosen specs, the
//! final `S` and `E` as IEEE-754 bit patterns, the convergence history
//! (length and a digest of its bits) and the truncation flag.

use ad_repro::prelude::*;
use ad_util::{FpHasher, Json};
use atomic_dataflow::atomgen::{self, CandidateTable, GenReport};
use atomic_dataflow::Exec;

/// A pin's text: everything about a report that the optimizer consumes or
/// that shows the search took the same path.
fn pin(case: &str, r: &GenReport) -> Json {
    let mut history = FpHasher::new();
    for e in &r.history {
        history.write_u64(e.to_bits());
    }
    Json::Obj(vec![
        ("case".into(), Json::from(case)),
        (
            "unified_cycle_bits".into(),
            Json::from(format!("{:016x}", r.unified_cycle.to_bits())),
        ),
        (
            "variance_bits".into(),
            Json::from(format!("{:016x}", r.variance.to_bits())),
        ),
        ("history_len".into(), Json::from(r.history.len())),
        (
            "history_bits".into(),
            Json::from(history.finish().to_string()),
        ),
        ("truncated".into(), Json::Bool(r.truncated)),
        (
            "specs".into(),
            Json::Arr(
                r.specs
                    .iter()
                    .map(|s| Json::from(format!("{}x{}x{}", s.th, s.tw, s.tc)))
                    .collect(),
            ),
        ),
    ])
}

/// Generates atoms for `g` on the paper machine exactly as the optimizer
/// does for one granularity target: one candidate table, then the SA run.
fn generate(
    g: &Graph,
    table: &CandidateTable,
    target: usize,
    sa_iters: Option<usize>,
) -> GenReport {
    let cfg = OptimizerConfig::paper_default().atomgen_config(Some(target));
    atomgen::generate(g, table, &cfg, sa_iters, &Exec::default())
}

fn table(g: &Graph) -> CandidateTable {
    let cfg = OptimizerConfig::paper_default();
    CandidateTable::build(
        g,
        &cfg.atomgen_config(None),
        &cfg.sim.engine,
        cfg.dataflow,
        &Exec::default(),
    )
}

fn assert_pins(cases: Vec<Json>, golden: &str, name: &str) {
    assert_eq!(
        Json::Arr(cases).to_pretty(),
        golden.trim_end(),
        "{name}: atom generation drifted from the golden pin"
    );
}

#[test]
fn golden_atomgen_resnet50_targets_and_sa_budget() {
    let g = models::resnet50();
    let table = table(&g);
    let mut cases: Vec<Json> = [24, 64, 160]
        .into_iter()
        .map(|t| pin(&format!("target {t}"), &generate(&g, &table, t, None)))
        .collect();
    let capped = generate(&g, &table, 64, Some(5));
    assert!(capped.truncated);
    cases.push(pin("target 64, 5 SA iterations", &capped));
    assert_pins(
        cases,
        include_str!("golden/atomgen_resnet50.json"),
        "resnet50",
    );
}

#[test]
fn golden_atomgen_inception_v3_targets() {
    let g = models::inception_v3();
    let table = table(&g);
    let cases = [24, 64, 160]
        .into_iter()
        .map(|t| pin(&format!("target {t}"), &generate(&g, &table, t, None)))
        .collect();
    assert_pins(
        cases,
        include_str!("golden/atomgen_inception_v3.json"),
        "inception_v3",
    );
}
