//! Per-rule fixture tests for the workspace linter.
//!
//! Every rule gets a planted violation (positive), an equivalent clean
//! construct (negative), and an `ad-lint: allow(...)` suppression check,
//! plus path-scoping and masking fixtures. The final test lints the real
//! workspace and demands zero findings — the same gate CI enforces with
//! `ad-lint --deny`.

use std::path::Path;

use ad_lint::{lint_file, lint_workspace, to_json, Diagnostic, Rule};

/// A source path inside the planning/sim scope (D1 + C1 + D2 + P1 apply).
const CORE_LIB: &str = "crates/core/src/mapping.rs";
/// A model-crate path outside the planning scope (D2 + P1 apply).
const MODEL_LIB: &str = "crates/engine-model/src/lib.rs";
/// A library path outside every determinism scope (only P1 applies).
const GRAPH_LIB: &str = "crates/dnn-graph/src/graph.rs";

fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_flags_hash_containers_in_planning_crates() {
    let src = "use std::collections::HashMap;\n\
               use std::collections::HashSet;\n";
    let diags = lint_file(CORE_LIB, src);
    assert_eq!(
        rules_of(&diags),
        vec![Rule::HashContainer, Rule::HashContainer]
    );
    assert_eq!(diags[0].line, 1);
    assert_eq!(diags[1].line, 2);
    assert_eq!(diags[0].file, CORE_LIB);
}

#[test]
fn d1_applies_inside_test_modules_too() {
    // Hash-ordered assertions are as non-reproducible as hash-ordered
    // planning, so D1 — unlike every other rule — reaches into test code.
    let src = "#[cfg(test)]\n\
               mod tests {\n\
               \x20   use std::collections::HashSet;\n\
               }\n";
    let diags = lint_file(CORE_LIB, src);
    assert_eq!(rules_of(&diags), vec![Rule::HashContainer]);
    assert_eq!(diags[0].line, 3);
}

#[test]
fn d1_ignores_btree_and_out_of_scope_crates() {
    let clean = "use std::collections::BTreeMap;\nuse std::collections::BTreeSet;\n";
    assert!(lint_file(CORE_LIB, clean).is_empty());
    // dnn-graph is not a planning crate; hashing its layer names is fine.
    let hashy = "use std::collections::HashMap;\n";
    assert!(lint_file(GRAPH_LIB, hashy).is_empty());
}

#[test]
fn d1_dense_table_convention_fixture() {
    // The dense-table convention (DESIGN.md §11): dense-id keys index a
    // flat Vec, sparse keys (bit-packed DataIds, ad-hoc sets) keep BTree
    // containers — both pass D1 without any allow comment. Only hash
    // containers are findings, and the diagnostic points at the convention.
    let dense = "struct T { step_of_atom: Vec<usize>, ext_rank: BTreeMap<u64, u32> }\n";
    assert!(lint_file(CORE_LIB, dense).is_empty());
    let diags = lint_file(CORE_LIB, "use std::collections::HashMap;\n");
    assert_eq!(rules_of(&diags), vec![Rule::HashContainer]);
    assert!(
        diags[0].message.contains("DESIGN.md §11"),
        "diagnostic should cite the dense-table convention: {}",
        diags[0].message
    );
}

#[test]
fn d1_respects_identifier_boundaries() {
    // `HashMapLike` / `MyHashSet` are different identifiers, not the type.
    let src = "struct HashMapLike;\ntype MyHashSet = ();\n";
    assert!(lint_file(CORE_LIB, src).is_empty());
}

#[test]
fn d1_allow_comment_suppresses() {
    let src = "use std::collections::HashMap; // ad-lint: allow(hash-container)\n";
    assert!(lint_file(CORE_LIB, src).is_empty());
    // Codes work too, case-insensitively.
    let src = "use std::collections::HashMap; // ad-lint: allow(D1)\n";
    assert!(lint_file(CORE_LIB, src).is_empty());
    // An unrelated allow does not.
    let src = "use std::collections::HashMap; // ad-lint: allow(panic)\n";
    assert_eq!(
        rules_of(&lint_file(CORE_LIB, src)),
        vec![Rule::HashContainer]
    );
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_flags_entropy_and_wall_clock_in_model_crates() {
    let src = "fn seed() { let r = thread_rng(); }\n\
               fn t0() -> Instant { Instant::now() }\n\
               fn t1() { let _ = SystemTime::now(); }\n\
               fn s() { let g = StdRng::from_entropy(); }\n";
    let diags = lint_file(MODEL_LIB, src);
    assert_eq!(diags.len(), 4);
    assert!(diags.iter().all(|d| d.rule == Rule::Nondeterminism));
    assert_eq!(
        diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![1, 2, 3, 4]
    );
}

#[test]
fn d2_does_not_reach_test_code_or_unscoped_crates() {
    let src = "fn t() { let _ = Instant::now(); }\n";
    // Integration tests of a model crate may time things.
    assert!(lint_file("crates/core/tests/perf.rs", src).is_empty());
    // #[cfg(test)] blocks are blanked for D2.
    let gated = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = Instant::now(); }\n}\n";
    assert!(lint_file(MODEL_LIB, gated).is_empty());
    // dnn-graph has no cost model; the rule does not apply there.
    assert!(lint_file(GRAPH_LIB, src).is_empty());
}

#[test]
fn d2_allow_comment_suppresses() {
    let src = "fn t0() -> Instant { Instant::now() } // ad-lint: allow(nondeterminism)\n";
    assert!(lint_file(MODEL_LIB, src).is_empty());
}

// ---------------------------------------------------------------- D3

#[test]
fn d3_flags_detached_spawns_in_model_crates() {
    let src = "fn a() { std::thread::spawn(|| {}); }\n\
               fn b() { thread::spawn(worker); }\n";
    let diags = lint_file(MODEL_LIB, src);
    assert_eq!(
        rules_of(&diags),
        vec![Rule::UnscopedThread, Rule::UnscopedThread]
    );
    assert_eq!(diags[0].line, 1);
    assert!(diags[0].message.contains("ad_util::WorkerPool"));
}

#[test]
fn d3_sanctions_scoped_spawns_and_unscoped_crates() {
    // The workspace idiom: workers spawned on a scope handle and joined
    // before the scope returns.
    let scoped = "fn a() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
    assert!(lint_file(CORE_LIB, scoped).is_empty());
    // dnn-graph is outside the model scope.
    let detached = "fn a() { std::thread::spawn(|| {}); }\n";
    assert!(lint_file(GRAPH_LIB, detached).is_empty());
    // Test code may detach (e.g. watchdog timers).
    assert!(lint_file("crates/core/tests/stress.rs", detached).is_empty());
    let gated = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
    assert!(lint_file(MODEL_LIB, gated).is_empty());
}

#[test]
fn d3_allow_comment_suppresses() {
    let src = "fn a() { std::thread::spawn(|| {}); } // ad-lint: allow(unscoped-thread)\n";
    assert!(lint_file(MODEL_LIB, src).is_empty());
    let src = "fn a() { std::thread::spawn(|| {}); } // ad-lint: allow(D3)\n";
    assert!(lint_file(MODEL_LIB, src).is_empty());
}

#[test]
fn d3_flags_thread_builder_spawns() {
    // `thread::Builder` is `thread::spawn` with a name: still detached.
    let src = "fn a() { std::thread::Builder::new().spawn(|| {}); }\n\
               fn b() { thread::Builder::new().name(n).spawn(w); }\n";
    let diags = lint_file(MODEL_LIB, src);
    assert_eq!(
        rules_of(&diags),
        vec![Rule::UnscopedThread, Rule::UnscopedThread]
    );
    assert!(diags[0].message.contains("WorkerPool"));
}

/// The worker-pool idiom: `Builder` spawns sanctioned by an allow-comment
/// naming the join point — exactly the shape `ad_util::par` uses.
#[test]
fn d3_sanctions_the_worker_pool_builder_idiom() {
    let pool = "fn spawn_workers() {\n    \
                std::thread::Builder::new() // ad-lint: allow(d3) — joined in Drop\n        \
                .name(String::from(\"ad-worker\"))\n        \
                .spawn(move || worker_loop(&shared)) // ad-lint: allow(d3) — joined in Drop\n        \
                .ok();\n}\n";
    assert!(lint_file(MODEL_LIB, pool).is_empty());
    // Without the justification the same code is a finding.
    let bare = pool.replace(" // ad-lint: allow(d3) — joined in Drop", "");
    assert_eq!(
        rules_of(&lint_file(MODEL_LIB, &bare)),
        vec![Rule::UnscopedThread]
    );
}

/// The shipped pool implementation itself must lint clean: its two
/// `Builder` lines carry allow-comments, and nothing else in the module
/// trips D3.
#[test]
fn d3_passes_the_shipped_worker_pool_source() {
    let src = include_str!("../../util/src/par.rs");
    let d3: Vec<_> = lint_file("crates/util/src/par.rs", src)
        .into_iter()
        .filter(|d| d.rule == Rule::UnscopedThread)
        .collect();
    assert!(d3.is_empty(), "pool source trips D3: {d3:?}");
}

// ---------------------------------------------------------------- D4

#[test]
fn d4_flags_unbounded_channels_in_serving_crates() {
    // Both the construction and the import are findings: flagging the
    // `use` means a later bare `channel()` call cannot dodge the rule.
    let src = "use std::sync::mpsc::channel;\n\
               fn a() { let (tx, rx) = std::sync::mpsc::channel::<u64>(); }\n";
    let diags = lint_file(SERVE_LIB, src);
    assert_eq!(
        rules_of(&diags),
        vec![Rule::UnboundedChannel, Rule::UnboundedChannel]
    );
    assert_eq!(diags[0].line, 1);
    assert!(diags[1].message.contains("BoundedQueue"));
    // `util` hosts the queue/pool primitives the serving path is built
    // from, so it is in scope too — and so is the daemon binary (D4 is
    // not a P1-style bin exemption: an unbounded accept queue in main.rs
    // is exactly the bug the rule exists for).
    let one = "fn a() { let (tx, rx) = mpsc::channel(); }\n";
    assert_eq!(
        rules_of(&lint_file("crates/util/src/par.rs", one)),
        vec![Rule::UnboundedChannel]
    );
    assert_eq!(
        rules_of(&lint_file(SERVE_BIN, one)),
        vec![Rule::UnboundedChannel]
    );
}

#[test]
fn d4_sanctions_bounded_channels_and_unscoped_crates() {
    // The bounded twin applies backpressure; it is the sanctioned shape.
    let bounded = "fn a() { let (tx, rx) = std::sync::mpsc::sync_channel::<u64>(4); }\n";
    assert!(lint_file(SERVE_LIB, bounded).is_empty());
    // Unrelated `channel` identifiers are not the std constructor.
    let other = "fn a(noc_channel: usize) { let mpsc_channels = noc_channel; }\n";
    assert!(lint_file(SERVE_LIB, other).is_empty());
    // dnn-graph is outside the serving scope.
    let unbounded = "fn a() { let (tx, rx) = std::sync::mpsc::channel::<u64>(); }\n";
    assert!(lint_file(GRAPH_LIB, unbounded).is_empty());
    // Test code may use unbounded channels as harness plumbing.
    assert!(lint_file("crates/ad-serve/tests/serve.rs", unbounded).is_empty());
    let gated =
        "#[cfg(test)]\nmod tests {\n    fn t() { let _ = std::sync::mpsc::channel::<u8>(); }\n}\n";
    assert!(lint_file(SERVE_LIB, gated).is_empty());
}

#[test]
fn d4_allow_comment_suppresses() {
    let src = "fn a() { let (tx, rx) = mpsc::channel(); } \
               // ad-lint: allow(d4) — drained synchronously before return\n";
    assert!(lint_file(SERVE_LIB, src).is_empty());
    let src = "fn a() { let (tx, rx) = mpsc::channel(); } \
               // ad-lint: allow(unbounded-channel) — drained synchronously\n";
    assert!(lint_file(SERVE_LIB, src).is_empty());
    // An unrelated allow does not excuse it.
    let src = "fn a() { let (tx, rx) = mpsc::channel(); } // ad-lint: allow(d3)\n";
    assert_eq!(
        rules_of(&lint_file(SERVE_LIB, src)),
        vec![Rule::UnboundedChannel]
    );
}

/// The shipped `BoundedQueue` source mentions `mpsc::channel()` in its
/// module docs (explaining why it is *not* used); prose must never trip
/// the rule.
#[test]
fn d4_passes_the_shipped_bounded_queue_source() {
    let src = include_str!("../../util/src/queue.rs");
    let d4: Vec<_> = lint_file("crates/util/src/queue.rs", src)
        .into_iter()
        .filter(|d| d.rule == Rule::UnboundedChannel)
        .collect();
    assert!(d4.is_empty(), "queue source trips D4: {d4:?}");
}

// ---------------------------------------------------------------- P1

#[test]
fn p1_flags_every_panicking_shortcut() {
    let src = "fn a(x: Option<u32>) -> u32 { x.unwrap() }\n\
               fn b(x: Option<u32>) -> u32 { x.expect(\"present\") }\n\
               fn c() { panic!(\"boom\"); }\n\
               fn d() { unreachable!(); }\n\
               fn e() { todo!(); }\n\
               fn f() { unimplemented!(); }\n";
    let diags = lint_file(GRAPH_LIB, src);
    assert_eq!(diags.len(), 6);
    assert!(diags.iter().all(|d| d.rule == Rule::Panic));
    assert_eq!(
        diags.iter().map(|d| d.line).collect::<Vec<_>>(),
        vec![1, 2, 3, 4, 5, 6]
    );
}

#[test]
fn p1_sanctions_asserts_and_non_panicking_unwraps() {
    let src = "fn a(v: usize) { assert!(v < 10, \"contract\"); }\n\
               fn b(v: usize) { debug_assert!(v < 10); }\n\
               fn c(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n\
               fn d(x: Option<u32>) -> u32 { x.unwrap_or_default() }\n\
               fn e(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 1) }\n";
    assert!(lint_file(GRAPH_LIB, src).is_empty());
}

#[test]
fn p1_exempts_tests_bins_and_the_bench_crate() {
    let src = "fn a(x: Option<u32>) -> u32 { x.unwrap() }\n";
    for rel in [
        "crates/core/tests/integration.rs",
        "crates/core/benches/mapping.rs",
        "crates/core/examples/demo.rs",
        "crates/core/src/bin/tool.rs",
        "crates/ad-lint/src/main.rs",
        "crates/core/build.rs",
        "crates/bench/src/lib.rs",
    ] {
        assert!(lint_file(rel, src).is_empty(), "{rel} should be P1-exempt");
    }
    // ...but library code of any other crate, including the root package,
    // is in scope.
    assert_eq!(rules_of(&lint_file("src/lib.rs", src)), vec![Rule::Panic]);
}

#[test]
fn p1_skips_cfg_test_modules() {
    let src = "pub fn lib() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() { super::lib(); Some(1).unwrap(); }\n\
               }\n";
    assert!(lint_file(GRAPH_LIB, src).is_empty());
}

#[test]
fn p1_allow_comment_suppresses_trailing_and_preceding() {
    let trailing = "fn a(x: Option<u32>) -> u32 { x.unwrap() } // ad-lint: allow(panic)\n";
    assert!(lint_file(GRAPH_LIB, trailing).is_empty());
    // A directive on its own line covers the next code line (rustfmt can
    // reflow trailing comments, so the standalone form must work too).
    let preceding = "// ad-lint: allow(panic)\n\
                     fn a(x: Option<u32>) -> u32 { x.unwrap() }\n";
    assert!(lint_file(GRAPH_LIB, preceding).is_empty());
    // The carried directive covers only that next line.
    let two = "// ad-lint: allow(panic)\n\
               fn a(x: Option<u32>) -> u32 { x.unwrap() }\n\
               fn b(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let diags = lint_file(GRAPH_LIB, two);
    assert_eq!(rules_of(&diags), vec![Rule::Panic]);
    assert_eq!(diags[0].line, 3);
}

// ---------------------------------------------------------------- C1

#[test]
fn c1_flags_narrowing_casts_in_planning_crates() {
    let src = "fn a(v: usize) -> u32 { v as u32 }\n\
               fn b(v: u64) -> u16 { v as u16 }\n\
               fn c(v: i64) -> i32 { v as i32 }\n\
               fn d(v: u32) -> u8 { v as u8 }\n";
    let diags = lint_file(CORE_LIB, src);
    assert_eq!(diags.len(), 4);
    assert!(diags.iter().all(|d| d.rule == Rule::LossyCast));
    assert!(diags[0].message.contains("as u32"));
}

#[test]
fn c1_ignores_widening_casts_use_aliases_and_unscoped_crates() {
    let widening = "fn a(v: u32) -> u64 { v as u64 }\n\
                    fn b(v: u32) -> usize { v as usize }\n\
                    fn c(v: u32) -> f64 { v as f64 }\n";
    assert!(lint_file(CORE_LIB, widening).is_empty());
    // `use x as y` renames, it never casts.
    let alias = "use crate::table as u32_table;\n";
    assert!(lint_file(CORE_LIB, alias).is_empty());
    // dnn-graph is out of C1 scope.
    let narrow = "fn a(v: usize) -> u32 { v as u32 }\n";
    assert!(lint_file(GRAPH_LIB, narrow).is_empty());
    // Test code of planning crates may truncate in fixtures.
    assert!(lint_file("crates/core/tests/fixtures.rs", narrow).is_empty());
}

#[test]
fn c1_allow_comment_suppresses() {
    let src = "fn a(v: usize) -> u32 { v as u32 } // ad-lint: allow(lossy-cast)\n";
    assert!(lint_file(CORE_LIB, src).is_empty());
}

#[test]
fn p1_covers_the_plan_admission_module() {
    // The admission layer (crates/core/src/validate.rs) must reject bad
    // plans with typed errors, never by panicking: an assert!/panic! on a
    // plan invariant would turn a rejected candidate into a crashed
    // search. A panic in its library code is a finding...
    const VALIDATE: &str = "crates/core/src/validate.rs";
    let panicky = "fn check(rounds: usize, engines: usize) {\n\
                   \x20   assert!(rounds <= engines);\n\
                   \x20   if rounds == 0 { panic!(\"empty round\"); }\n\
                   }\n";
    let diags = lint_file(VALIDATE, panicky);
    assert_eq!(
        rules_of(&diags),
        vec![Rule::Panic],
        "panic! in the validator must be flagged (assert! is sanctioned)"
    );
    // ...while the sanctioned shape — returning a typed ValidationError —
    // is clean.
    let clean = "fn check(rounds: usize, engines: usize) -> Result<(), ValidationError> {\n\
                 \x20   if rounds > engines {\n\
                 \x20       return Err(ValidationError::new(\n\
                 \x20           Artifact::Schedule,\n\
                 \x20           Invariant::RoundOversized,\n\
                 \x20           format!(\"schedule/round0\"),\n\
                 \x20           format!(\"{rounds} atoms on {engines} engines\"),\n\
                 \x20       ));\n\
                 \x20   }\n\
                 \x20   Ok(())\n\
                 }\n";
    assert!(lint_file(VALIDATE, clean).is_empty());
    // The validator sits in the planning scope, so the determinism rules
    // reach it too: hash containers and wall-clock reads are findings.
    assert_eq!(
        rules_of(&lint_file(VALIDATE, "use std::collections::HashMap;\n")),
        vec![Rule::HashContainer]
    );
    assert_eq!(
        rules_of(&lint_file(
            VALIDATE,
            "fn t0() -> Instant { Instant::now() }\n"
        )),
        vec![Rule::Nondeterminism]
    );
}

// ------------------------------------------------------- masking & allow

#[test]
fn strings_and_comments_are_not_code() {
    let src = "// HashMap in a comment, x.unwrap() too\n\
               /* thread_rng() in a block comment */\n\
               const DOC: &str = \"HashMap and Instant::now() and v as u32\";\n\
               const RAW: &str = r#\"panic! unreachable! .unwrap()\"#;\n";
    assert!(lint_file(CORE_LIB, src).is_empty());
}

#[test]
fn allow_all_and_multi_rule_lists() {
    let src = "use std::collections::HashMap; // ad-lint: allow(all)\n";
    assert!(lint_file(CORE_LIB, src).is_empty());
    let src = "fn a(m: &HashMap<u32, u32>) -> u32 { m.len() as u32 } \
               // ad-lint: allow(hash-container, lossy-cast)\n";
    assert!(lint_file(CORE_LIB, src).is_empty());
    // One listed rule does not excuse the other.
    let src = "fn a(m: &HashMap<u32, u32>) -> u32 { m.len() as u32 } \
               // ad-lint: allow(lossy-cast)\n";
    assert_eq!(
        rules_of(&lint_file(CORE_LIB, src)),
        vec![Rule::HashContainer]
    );
}

#[test]
fn rule_parsing_accepts_slugs_and_codes() {
    for (name, rule) in [
        ("hash-container", Rule::HashContainer),
        ("d1", Rule::HashContainer),
        ("D2", Rule::Nondeterminism),
        ("unscoped-thread", Rule::UnscopedThread),
        ("D3", Rule::UnscopedThread),
        ("unbounded-channel", Rule::UnboundedChannel),
        ("D4", Rule::UnboundedChannel),
        ("panic", Rule::Panic),
        ("P1", Rule::Panic),
        ("lossy-cast", Rule::LossyCast),
        ("C1", Rule::LossyCast),
    ] {
        assert_eq!(Rule::parse(name), Some(rule), "{name}");
    }
    assert_eq!(Rule::parse("no-such-rule"), None);
}

// ------------------------------------------------------- ad-serve scope

/// The serving daemon's library sources.
const SERVE_LIB: &str = "crates/ad-serve/src/lib.rs";
/// The daemon binary: P1/C1-exempt like all bins, but still in D2/D3 scope.
const SERVE_BIN: &str = "crates/ad-serve/src/main.rs";

/// `ad-serve` is a planning crate: its cache serves byte-pinned plan
/// payloads, so hash-ordered containers are as dangerous there as in the
/// planner itself.
#[test]
fn ad_serve_is_in_planning_scope() {
    let diags = lint_file(SERVE_LIB, "use std::collections::HashMap;\n");
    assert_eq!(rules_of(&diags), vec![Rule::HashContainer]);
    assert!(lint_file(SERVE_LIB, "use std::collections::BTreeMap;\n").is_empty());
    let diags = lint_file(SERVE_LIB, "fn f(x: u64) -> u32 { x as u32 }\n");
    assert_eq!(rules_of(&diags), vec![Rule::LossyCast]);
}

/// The LRU stamp must be a logical tick: a wall-clock read in either the
/// library or the daemon binary makes eviction — and so which later
/// requests are hits — timing-dependent.
#[test]
fn ad_serve_is_in_determinism_scope_including_its_binary() {
    let src = "use std::time::Instant;\n";
    assert_eq!(
        rules_of(&lint_file(SERVE_LIB, src)),
        vec![Rule::Nondeterminism]
    );
    assert_eq!(
        rules_of(&lint_file(SERVE_BIN, src)),
        vec![Rule::Nondeterminism]
    );
    let spawned = "fn f() { std::thread::spawn(|| {}); }\n";
    assert_eq!(
        rules_of(&lint_file(SERVE_LIB, spawned)),
        vec![Rule::UnscopedThread]
    );
}

/// P1 still scopes per target: the serving library is panic-free, the
/// binary may abort loudly.
#[test]
fn ad_serve_library_is_panic_free_but_binary_is_exempt() {
    let src = "fn f() { None::<u8>.unwrap(); }\n";
    assert_eq!(rules_of(&lint_file(SERVE_LIB, src)), vec![Rule::Panic]);
    assert!(lint_file(SERVE_BIN, src).is_empty());
}

// ---------------------------------------------------------------- output

#[test]
fn json_output_is_escaped_and_structured() {
    let src = "fn a() { panic!(\"boom\"); }\n";
    let diags = lint_file(GRAPH_LIB, src);
    let json = to_json(&diags);
    assert!(json.starts_with('['));
    assert!(json.contains("\"rule\":\"panic\""));
    assert!(json.contains("\"code\":\"P1\""));
    assert!(json.contains("\"line\":1"));
    // The snippet's interior quotes must arrive escaped.
    assert!(json.contains("panic!(\\\"boom\\\")"));
    assert_eq!(to_json(&[]), "[]");
}

#[test]
fn diagnostics_render_as_file_line_rule() {
    let src = "use std::collections::HashMap;\n";
    let d = &lint_file(CORE_LIB, src)[0];
    let line = d.to_string();
    assert!(line.starts_with("crates/core/src/mapping.rs:1: [D1(hash-container)]"));
}

// ---------------------------------------------------------- self-check

/// The workspace itself must be clean — the same invariant CI enforces
/// with `cargo run -p ad-lint -- --deny`.
#[test]
fn workspace_self_check_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let diags = lint_workspace(&root).expect("workspace sources are readable");
    assert!(
        diags.is_empty(),
        "ad-lint found {} violation(s) in the workspace:\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
