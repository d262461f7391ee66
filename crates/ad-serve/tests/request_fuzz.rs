//! Seeded mutational fuzzing of the daemon's request decoding.
//!
//! `Json::parse` has its own fuzzer; this one starts past it. Each case
//! takes a well-formed `plan` request and mutates what the daemon decodes
//! from it — the type or value of `batch`, a `budget` field, `strategy`,
//! `fast`, the inline `hw` object or one of its fields — then
//! hands the line to [`handle_line`]. The reply must be one JSON object
//! carrying `ok`; a refusal must carry an `error` string. A panic fails the
//! test and names the line.
//!
//! Planning stays cheap: the corpus plans tiny models, the server forces
//! fast search, and every value that decodes as valid is small (a mutant
//! batch is at most 3, a valid mutant mesh side at most 64).

use std::panic::{catch_unwind, AssertUnwindSafe};

use ad_serve::{handle_line, PlanStore, ServerConfig};
use ad_util::{Json, Rng64};
use atomic_dataflow::MAX_BATCH;
use engine_model::HardwareConfig;

/// Well-formed requests the mutations start from.
#[allow(clippy::expect_used)] // test helper; clippy only auto-exempts #[test] fns
fn corpus() -> Vec<Json> {
    let hw = HardwareConfig::fast_test().to_json();
    let text = [
        r#"{"op":"plan","model":"tiny_cnn"}"#.to_string(),
        r#"{"op":"plan","model":"tiny_branchy","batch":2,"strategy":"AD"}"#
            .to_string(),
        r#"{"op":"plan","model":"tiny_cnn","strategy":"LS","fast":true,"budget":{"sa_iters":5,"dp_expansions":200}}"#
            .to_string(),
        format!(
            r#"{{"op":"plan","model":"tiny_branchy","strategy":"IL-Pipe","hw":{}}}"#,
            hw.to_compact()
        ),
        format!(
            r#"{{"op":"plan","model":"tiny_cnn","batch":3,"strategy":"CNN-P","hw":{}}}"#,
            hw.to_compact()
        ),
    ];
    text.iter()
        .map(|t| Json::parse(t).expect("corpus requests are valid JSON"))
        .collect()
}

/// Replacement values: every JSON type, numbers at and past each decoder's
/// edges, and strings naming real and unreal settings.
fn value_pool() -> Vec<Json> {
    let mut pool = vec![
        Json::Null,
        Json::Bool(true),
        Json::Bool(false),
        Json::Arr(vec![]),
        Json::Arr(vec![Json::Num(1.0)]),
        Json::Obj(vec![]),
        Json::Obj(vec![("x".into(), Json::Num(1.0))]),
    ];
    for n in [
        0.0,
        1.0,
        2.0,
        3.0,
        -1.0,
        0.5,
        1e300,
        -1e300,
        64.0,
        65.0,
        4096.0,
        65_535.0,
        65_536.0,
        4_294_967_296.0,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        18_446_744_073_709_551_615.0,
    ] {
        pool.push(Json::Num(n));
    }
    for s in [
        "", "1", "AD", "LS", "CNN-P", "IL-Pipe", "Rammer", "Ideal", "ad", "deny", "warn", "off",
        "DENY", "plan", "stats", "tiny_cnn", "alexnet",
    ] {
        pool.push(Json::Str(s.into()));
    }
    pool
}

/// Whether `v` would decode as a valid batch too large to plan cheaply.
/// Batches past [`MAX_BATCH`] stay in: they must be refused. (Valid mesh
/// sides end at 64, so `hw` needs no such filter.)
fn too_costly(key: &str, v: &Json) -> bool {
    key == "batch"
        && v.as_u64()
            .is_some_and(|n| (4..=MAX_BATCH as u64).contains(&n))
}

fn members(v: &mut Json) -> Option<&mut Vec<(String, Json)>> {
    match v {
        Json::Obj(m) => Some(m),
        _ => None,
    }
}

/// Applies one structural mutation to the decoded fields of `req`.
fn mutate(req: &mut Json, pool: &[Json], rng: &mut Rng64) {
    const FIELDS: [&str; 7] = ["batch", "budget", "strategy", "fast", "hw", "model", "op"];
    let Some(top) = members(req) else { return };
    let field = FIELDS[rng.below(FIELDS.len())];
    let pick = |rng: &mut Rng64, key: &str| loop {
        let v = pool[rng.below(pool.len())].clone();
        if !too_costly(key, &v) {
            break v;
        }
    };
    match rng.below(4) {
        // Drop the field.
        0 => top.retain(|(k, _)| k != field),
        // Add an unknown field beside it.
        1 => top.push((format!("{field}_x"), pick(rng, ""))),
        // Mutate one member of an object-valued field (budget, hw).
        2 if matches!(field, "budget" | "hw") => {
            if !top.iter().any(|(k, _)| k == field) {
                top.push((field.to_string(), Json::Obj(vec![])));
            }
            let Some((_, slot)) = top.iter_mut().find(|(k, _)| k == field) else {
                return;
            };
            let Some(inner) = members(slot) else {
                *slot = pick(rng, field);
                return;
            };
            let keys: Vec<String> = if field == "budget" {
                ["sa_iters", "dp_expansions", "deadline_ms", "sa_iterz"]
                    .map(String::from)
                    .to_vec()
            } else {
                let mut k: Vec<String> = HardwareConfig::fast_test()
                    .to_json()
                    .as_object()
                    .map(|m| m.iter().map(|(k, _)| k.clone()).collect())
                    .unwrap_or_default();
                k.push("mesh_colz".into());
                k
            };
            let key = keys[rng.below(keys.len())].clone();
            let v = pick(rng, &key);
            match inner.iter_mut().find(|(k, _)| *k == key) {
                Some((_, old)) => *old = v,
                None => inner.push((key, v)),
            }
        }
        // Replace the field's value (changing its type or range).
        _ => {
            let v = pick(rng, field);
            match top.iter_mut().find(|(k, _)| k == field) {
                Some((_, old)) => *old = v,
                None => top.push((field.to_string(), v)),
            }
        }
    }
}

/// Byte damage on the serialized line: a flipped byte or a truncation.
fn damage(line: &str, rng: &mut Rng64) -> String {
    let mut bytes = line.as_bytes().to_vec();
    if rng.chance(0.5) {
        bytes.truncate(rng.below(bytes.len()));
    } else {
        let at = rng.below(bytes.len());
        bytes[at] ^= 1 << rng.below(8);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn run_cases(seed: u64, cases: usize) {
    let corpus = corpus();
    let pool = value_pool();
    let sc = ServerConfig {
        base_hw: HardwareConfig::fast_test(),
        fast: true,
        ..ServerConfig::default()
    };
    let store = PlanStore::new(16);
    let mut rng = Rng64::new(seed);
    let mut refused = 0usize;
    for case in 0..cases {
        let mut req = corpus[rng.below(corpus.len())].clone();
        for _ in 0..=rng.below(3) {
            mutate(&mut req, &pool, &mut rng);
        }
        let mut line = req.to_compact();
        if rng.chance(0.1) {
            line = damage(&line, &mut rng);
        }
        let reply = catch_unwind(AssertUnwindSafe(|| handle_line(&line, &store, &sc)))
            .unwrap_or_else(|_| panic!("case {case} (seed {seed}) panicked: {line}"));
        let doc = Json::parse(reply.text())
            .unwrap_or_else(|e| panic!("case {case}: reply is not JSON ({e}): {line}"));
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => {
                refused += 1;
                assert!(
                    doc.get("error").and_then(Json::as_str).is_some(),
                    "case {case}: a refusal must name its error: {line} -> {}",
                    reply.text()
                );
            }
            None => panic!("case {case}: reply carries no `ok`: {}", reply.text()),
        }
    }
    // The mutations must reach both outcomes, or the fuzzer tests nothing.
    assert!(
        refused > 0 && refused < cases,
        "{refused} of {cases} refused"
    );
}

#[test]
fn mutated_requests_reply_or_refuse() {
    run_cases(0x5E4E_F022, 600);
}

#[test]
#[ignore = "long fuzz run; CI runs it in release"]
fn mutated_requests_reply_or_refuse_long() {
    run_cases(0xD00D_F022, 20_000);
}
