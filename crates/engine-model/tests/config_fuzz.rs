//! Seeded mutational fuzzing of [`HardwareConfig::from_json_text`].
//!
//! Hardware configs are untrusted input: the serving daemon accepts them
//! inline in a request. Every mutant of the shipped `configs/*.json` files
//! must either be refused with a typed [`ConfigError`] or describe a
//! machine the cost model can price: every whole layer of `tiny_cnn`,
//! under both dataflows, without a panic (tier-1 runs the dev profile, so
//! an arithmetic overflow is a panic here).

use std::panic::{catch_unwind, AssertUnwindSafe};

use ad_util::{Json, Rng64};
use dnn_graph::models;
use engine_model::{ConvTask, Dataflow, HardwareConfig};

const SEED_FILES: [&str; 2] = [
    include_str!("../../../configs/paper_8x8.json"),
    include_str!("../../../configs/edge_4x4.json"),
];

/// Hand-picked cases run before the random ones: the PE array whose
/// `cycles · PE` product overflowed u64, the largest accepted machine, and
/// the smallest one.
const CORPUS: [&str; 3] = [
    r#"{"mesh_cols": 2, "mesh_rows": 2, "pe_x": 100000000, "pe_y": 100000000}"#,
    r#"{"mesh_cols": 64, "mesh_rows": 64, "link_bytes_per_cycle": 1048576,
        "hop_latency": 65536, "pe_x": 4096, "pe_y": 4096,
        "buffer_bytes": 1099511627776, "freq_mhz": 1000000, "vector_lanes": 65536,
        "hbm_capacity_bytes": 1125899906842624, "hbm_bytes_per_cycle": 1048576,
        "hbm_access_latency_cycles": 65536, "hbm_channels": 1024}"#,
    r#"{"mesh_cols": 1, "mesh_rows": 1, "link_bytes_per_cycle": 1, "hop_latency": 0,
        "pe_x": 1, "pe_y": 1, "buffer_bytes": 1, "freq_mhz": 1, "vector_lanes": 1,
        "hbm_capacity_bytes": 1, "hbm_bytes_per_cycle": 1,
        "hbm_access_latency_cycles": 0, "hbm_channels": 1}"#,
];

/// Values a numeric field is set to: the edges of every integer width the
/// config fields are parsed into, plus a power of two.
fn edge_value(rng: &mut Rng64) -> Json {
    match rng.below(6) {
        0 => Json::Num(0.0),
        1 => Json::Num(1.0),
        2 => Json::Num(2f64.powi(i32::try_from(rng.below(64)).unwrap_or(0))),
        3 => Json::Num(u64::MAX as f64),
        4 => Json::Num(1e8),
        _ => Json::Num(2f64.powi(i32::try_from(rng.below(64)).unwrap_or(0)) - 1.0),
    }
}

/// A value of the wrong JSON type (or a number no field accepts).
fn wrong_type(rng: &mut Rng64) -> Json {
    match rng.below(6) {
        0 => Json::Str("8".into()),
        1 => Json::Bool(true),
        2 => Json::Null,
        3 => Json::Arr(vec![Json::Num(8.0)]),
        4 => Json::Num(-1.0),
        _ => Json::Num(0.5),
    }
}

/// Applies one structural mutation to `members` (or to the nested
/// `energy` object's members).
fn mutate(members: &mut Vec<(String, Json)>, rng: &mut Rng64) {
    if members.is_empty() {
        members.push(("mesh_cols".into(), edge_value(rng)));
        return;
    }
    let i = rng.below(members.len());
    if let Json::Obj(inner) = &mut members[i].1 {
        if rng.chance(0.5) {
            return mutate(inner, rng);
        }
    }
    match rng.below(3) {
        0 => {
            members.remove(i);
        }
        1 => members[i].1 = edge_value(rng),
        _ => members[i].1 = wrong_type(rng),
    }
}

/// The `case`-th fuzz input: a corpus entry, or a seed file with one to
/// three mutations, sometimes truncated mid-document.
fn fuzz_input(case: usize, rng: &mut Rng64) -> String {
    if let Some(text) = CORPUS.get(case) {
        return (*text).to_string();
    }
    let seed = SEED_FILES[rng.below(SEED_FILES.len())];
    let Ok(Json::Obj(mut members)) = Json::parse(seed) else {
        panic!("seed config files must parse as objects");
    };
    for _ in 0..=rng.below(3) {
        mutate(&mut members, rng);
    }
    let text = Json::Obj(members).to_pretty();
    if rng.chance(0.15) {
        let cut = rng.below(text.len());
        return text[..cut].to_string();
    }
    text
}

/// Prices every whole layer of `tiny_cnn` on one engine of `hw`.
fn cost_tiny_cnn(hw: &HardwareConfig) -> u64 {
    let engine = hw.engine_config();
    let g = models::tiny_cnn();
    let mut cycles = 0u64;
    for layer in g.layers() {
        for dataflow in Dataflow::ALL {
            cycles = cycles.saturating_add(match ConvTask::from_layer(layer) {
                Some(task) => engine.estimate(&task, dataflow).cycles,
                None => engine.vector_cycles(layer.out_shape().elements()),
            });
        }
    }
    cycles
}

/// Runs the corpus and then `cases` random mutants from `seed`; both
/// outcomes must each cover at least a sixth of the cases.
fn fuzz(seed: u64, cases: usize) {
    let mut rng = Rng64::new(seed);
    let (mut refused, mut priced) = (0, 0);
    for case in 0..cases {
        let text = fuzz_input(case, &mut rng);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            HardwareConfig::from_json_text(&text).map(|hw| cost_tiny_cnn(&hw))
        }));
        match outcome {
            Ok(Ok(cycles)) => {
                assert!(cycles > 0, "case {case} priced to zero cycles:\n{text}");
                priced += 1;
            }
            Ok(Err(err)) => {
                assert!(!err.to_string().is_empty());
                refused += 1;
            }
            Err(_) => panic!("case {case} panicked:\n{text}"),
        }
    }
    // Both outcomes must be exercised for the run to mean anything.
    assert!(
        refused >= cases / 6 && priced >= cases / 6,
        "refused {refused}, priced {priced}"
    );
}

#[test]
fn mutated_configs_are_refused_or_priced_without_panicking() {
    fuzz(0x0c0f_f1e5, 240);
}

/// The long variant, run in CI: `cargo test --release -p engine-model -- --ignored`.
#[test]
#[ignore = "long fuzz run; CI runs it in release"]
fn mutated_configs_are_refused_or_priced_without_panicking_long() {
    fuzz(0x10f6_c0f6, 20_000);
}

#[test]
fn the_overflowing_pe_array_is_refused_by_name() {
    let err = HardwareConfig::from_json_text(CORPUS[0]).unwrap_err();
    assert_eq!(
        err,
        engine_model::ConfigError::TooLarge {
            field: "pe_x",
            max: 4096
        }
    );
    // The largest accepted machine still prices every layer.
    let hw = HardwareConfig::from_json_text(CORPUS[1]).unwrap();
    assert!(cost_tiny_cnn(&hw) > 0);
}
