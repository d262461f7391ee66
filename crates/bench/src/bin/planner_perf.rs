//! Tracked perf baseline for the planning pipeline (`planner_perf/v2`).
//!
//! Runs the full atomic-dataflow planner over a thread-count sweep on two
//! workloads — ResNet-50 (the paper's headline network, single SA chain)
//! and ResNet-1001 (a deep graph where chain-level SA parallelism has
//! enough independent work to win, 8 chains) — each on one persistent
//! [`ad_util::WorkerPool`] per thread level, reused across every timed
//! pass exactly as the serve daemon reuses its pool across requests. The
//! measurements go to `BENCH_planner.json` so every perf PR has a
//! trajectory to compare against.
//!
//! Two assertions run inside the harness itself:
//!
//! * **Byte identity** — the plan payload and `total_cycles` of every
//!   thread level must equal the serial run's, per workload. Threads are
//!   an execution knob, never a search knob; a mismatch exits non-zero.
//! * **Anti-inversion** (`--check-inversion`) — the highest thread level's
//!   total wall time must not regress past `1.25×` serial. Parallelism
//!   that loses to serial is the regression this PR exists to fix; CI
//!   fails on it. (The tolerance absorbs scheduler noise on starved
//!   runners — CI containers often expose a single core.)
//!
//! Flags:
//!
//! * `--fast` — CI mode: `fast_test` configuration (4×4 mesh, short SA,
//!   two search targets, so the sweep reaches the candidate fan-out)
//!   instead of paper scale; seconds, not minutes.
//! * `--threads=1,8` — comma-separated thread counts to sweep (default
//!   `1,2,4,8,16`; `--fast` default `1,8`).
//! * `--iters=N` — timed passes per thread level, N ≥ 1 (default 3 paper / 1
//!   fast); the *minimum* total wall time is recorded.
//! * `--out=PATH` — output path (default `BENCH_planner.json`).
//! * `--check-inversion` — exit non-zero if the highest thread level's
//!   total regresses past serial (see above).
//! * `--set-baseline` — additionally record this run as the `baseline`
//!   entry. Without it, a pre-existing v2 `baseline` in the output file is
//!   carried forward, so post-optimization runs keep the pre-optimization
//!   reference they are measured against.
//!
//! An unknown flag, or a value that does not parse, panics naming the flag.
//!
//! Before overwriting, the harness reads the committed output file and
//! prints each run's delta against the matching committed run (same
//! workload, same thread count) — the drift between `BENCH_planner.json`
//! and prose claims elsewhere is visible at regeneration time instead of
//! accumulating silently. After writing, it re-reads and validates its own
//! output (every run must carry the five standard stages with finite,
//! non-negative wall times, and every workload its peak resident set) and
//! exits non-zero on malformed output.
//!
//! Memory: after each workload's sweep the harness reads the process's
//! peak resident set (`VmHWM` in `/proc/self/status`, Linux only) into the
//! workload's `peak_rss_mib`. Workloads run smallest first, so each reading
//! is that workload's own peak.

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Instant;

use ad_bench::harness::flag_value;
use ad_util::{Json, WorkerPool};
use atomic_dataflow::pipeline::StageReport;
use atomic_dataflow::{
    replan_attempt, request, LadderRung, Optimizer, OptimizerConfig, Pipeline, PlanContext,
    PlanRequest,
};
use dnn_graph::models;
use engine_model::HardwareConfig;

const STAGES: [&str; 5] = ["atomgen", "schedule", "map", "lower", "simulate"];

/// Tolerated ratio of highest-thread-level total to serial total before
/// `--check-inversion` fails the run.
const INVERSION_TOLERANCE: f64 = 1.25;

/// One workload of the sweep: a model plus its SA chain count.
struct Workload {
    model: &'static str,
    graph: dnn_graph::Graph,
    /// Independent SA chains per layer — the unit of intra-stage
    /// parallelism. Part of the search configuration (it changes the
    /// config fingerprint), so it is fixed per workload, never derived
    /// from the thread count.
    sa_chains: usize,
}

struct RunRecord {
    threads: usize,
    total_ms: f64,
    total_cycles: u64,
    plan: String,
    stages: Vec<StageReport>,
}

/// Minimum-of-`iters` timing of one (workload, thread count) cell. All
/// passes share one persistent pool, so pool reuse across requests — the
/// daemon's steady state — is what gets measured.
fn measure(g: &dnn_graph::Graph, cfg: OptimizerConfig, threads: usize, iters: usize) -> RunRecord {
    let pool = Arc::new(WorkerPool::new(threads));
    let mut best: Option<RunRecord> = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let req = PlanRequest::new(g, cfg).with_pool(pool.clone());
        let out = request::plan(&req).expect("planner runs");
        let total_ms = t0.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|b| total_ms < b.total_ms) {
            best = Some(RunRecord {
                threads,
                total_ms,
                total_cycles: out.stats.total_cycles,
                plan: out.plan,
                stages: out.reports,
            });
        }
    }
    best.expect("at least one timed pass")
}

fn run_to_json(r: &RunRecord) -> Json {
    Json::Obj(vec![
        ("threads".into(), Json::Num(r.threads as f64)),
        ("total_wall_ms".into(), Json::Num(r.total_ms)),
        (
            "stages".into(),
            Json::Arr(
                r.stages
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("stage".into(), Json::Str(s.stage.into())),
                            ("wall_ms".into(), Json::Num(s.wall_ms)),
                            ("summary".into(), Json::Str(s.summary.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Replan tracking: cold full replan vs the incremental ladder's reuse
/// rung on the canonical recovery scenario (mid-run single engine death,
/// 60 % of the plan executed). Minimum over `iters` passes each.
struct ReplanRecord {
    cold_ms: f64,
    incremental_ms: f64,
    rung: LadderRung,
}

fn measure_replan(g: &dnn_graph::Graph, cfg: OptimizerConfig, iters: usize) -> ReplanRecord {
    let (_, dag) = Optimizer::new(cfg).build_dag(g);
    let n = dag.atom_count();
    let mut ctx = PlanContext::for_dag(dag.clone(), cfg);
    ctx.done = vec![false; n];
    Pipeline::replan().run(&mut ctx).expect("healthy plan");
    let prior = ctx.mapped.clone().expect("mapped rounds");

    // Mark 60 % done in prior round order — the shape a mid-run failure
    // leaves — and retire one engine.
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
    let dead = vec![3usize];

    let mut cold_ms = f64::MAX;
    let mut incremental_ms = f64::MAX;
    let mut rung = None;
    for _ in 0..iters {
        let mut c = PlanContext::for_dag(dag.clone(), cfg);
        c.done = done.clone();
        c.dead_engines = dead.clone();
        let t0 = Instant::now();
        Pipeline::replan().run(&mut c).expect("cold replan");
        cold_ms = cold_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        let mut c = PlanContext::for_dag(dag.clone(), cfg);
        c.done = done.clone();
        c.dead_engines = dead.clone();
        let t0 = Instant::now();
        let r = replan_attempt(&mut c, Some(&prior)).expect("incremental replan");
        incremental_ms = incremental_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        rung = Some(r);
    }
    ReplanRecord {
        cold_ms,
        incremental_ms,
        rung: rung.expect("at least one timed pass"),
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kib / 1024.0)
}

/// The committed run matching (`model`, `threads`), if the pre-existing
/// output file carries one at the v2 schema.
fn committed_total_ms(committed: Option<&Json>, model: &str, threads: usize) -> Option<f64> {
    let doc = committed?;
    if doc.get("schema").and_then(Json::as_str) != Some("planner_perf/v2") {
        return None;
    }
    let workloads = doc.get("workloads").and_then(Json::as_array)?;
    let w = workloads
        .iter()
        .find(|w| w.get("model").and_then(Json::as_str) == Some(model))?;
    w.get("runs")
        .and_then(Json::as_array)?
        .iter()
        .find(|r| r.get("threads").and_then(Json::as_usize) == Some(threads))?
        .get("total_wall_ms")
        .and_then(Json::as_f64)
}

/// Every workload's every run must carry each standard stage with a
/// finite, non-negative wall time. Returns a description of the first
/// malformation found.
fn validate(doc: &Json) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some("planner_perf/v2") {
        return Err("schema is not planner_perf/v2".into());
    }
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("missing `workloads` array")?;
    if workloads.is_empty() {
        return Err("empty `workloads` array".into());
    }
    for w in workloads {
        w.get("model")
            .and_then(Json::as_str)
            .ok_or("workload missing `model`")?;
        w.get("sa_chains")
            .and_then(Json::as_usize)
            .ok_or("workload missing `sa_chains`")?;
        w.get("total_cycles")
            .and_then(Json::as_u64)
            .ok_or("workload missing `total_cycles`")?;
        let rss = w
            .get("peak_rss_mib")
            .and_then(Json::as_f64)
            .ok_or("workload missing `peak_rss_mib`")?;
        if !rss.is_finite() || rss <= 0.0 {
            return Err(format!("malformed peak_rss_mib {rss}"));
        }
        let runs = w
            .get("runs")
            .and_then(Json::as_array)
            .ok_or("workload missing `runs` array")?;
        if runs.is_empty() {
            return Err("empty `runs` array".into());
        }
        for run in runs {
            run.get("threads")
                .and_then(Json::as_usize)
                .ok_or("run missing `threads`")?;
            let total = run
                .get("total_wall_ms")
                .and_then(Json::as_f64)
                .ok_or("run missing `total_wall_ms`")?;
            if !total.is_finite() || total < 0.0 {
                return Err(format!("non-finite total_wall_ms {total}"));
            }
            let stages = run
                .get("stages")
                .and_then(Json::as_array)
                .ok_or("run missing `stages`")?;
            for want in STAGES {
                let stage = stages
                    .iter()
                    .find(|s| s.get("stage").and_then(Json::as_str) == Some(want))
                    .ok_or_else(|| format!("stage `{want}` missing from run"))?;
                let ms = stage
                    .get("wall_ms")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("stage `{want}` missing `wall_ms`"))?;
                if !ms.is_finite() || ms < 0.0 {
                    return Err(format!("stage `{want}` has malformed wall_ms {ms}"));
                }
            }
        }
    }
    let replan = doc.get("replan").ok_or("missing `replan` record")?;
    for key in ["cold_ms", "incremental_ms", "speedup"] {
        let v = replan
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("replan record missing `{key}`"))?;
        if !v.is_finite() || v < 0.0 {
            return Err(format!("replan `{key}` malformed: {v}"));
        }
    }
    replan
        .get("rung")
        .and_then(Json::as_str)
        .ok_or("replan record missing `rung`")?;
    Ok(())
}

/// The command line (see the module docs).
struct Args {
    fast: bool,
    set_baseline: bool,
    check_inversion: bool,
    out_path: String,
    iters: usize,
    threads: Vec<usize>,
}

impl Args {
    /// Parses the flags after the program name.
    ///
    /// # Panics
    ///
    /// Panics naming the flag on an unknown flag or a value that does not
    /// parse (one bad entry of `--threads=` included).
    fn parse(args: &[String]) -> Self {
        let fast = args.iter().any(|a| a == "--fast");
        let mut parsed = Self {
            fast,
            set_baseline: false,
            check_inversion: false,
            out_path: "BENCH_planner.json".to_string(),
            iters: if fast { 1 } else { 3 },
            threads: if fast {
                vec![1, 8]
            } else {
                vec![1, 2, 4, 8, 16]
            },
        };
        for a in args {
            if a == "--fast" {
            } else if a == "--set-baseline" {
                parsed.set_baseline = true;
            } else if a == "--check-inversion" {
                parsed.check_inversion = true;
            } else if let Some(v) = a.strip_prefix("--out=") {
                parsed.out_path = v.to_string();
            } else if let Some(v) = a.strip_prefix("--iters=") {
                parsed.iters = flag_value::<NonZeroUsize>("--iters=", v).get();
            } else if let Some(v) = a.strip_prefix("--threads=") {
                parsed.threads = v
                    .split(',')
                    .map(|t| flag_value("--threads=", t.trim()))
                    .collect();
            } else {
                panic!("unknown flag `{a}`");
            }
        }
        parsed
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        fast,
        set_baseline,
        check_inversion,
        out_path,
        iters,
        threads,
    } = Args::parse(&args);

    let base_cfg = if fast {
        let mut cfg = OptimizerConfig::for_hardware(&HardwareConfig::fast_test())
            .expect("built-in fast-test hardware config is valid")
            .with_fast_search();
        // Two targets, so the thread sweep covers phase 2's fan-out.
        cfg.search_targets = [32, 64, 0];
        cfg
    } else {
        OptimizerConfig::for_hardware(&HardwareConfig::paper_default())
            .expect("built-in paper hardware config is valid")
    };

    // ResNet-50 is the headline single-chain workload; ResNet-1001 is the
    // deep graph whose multi-chain SA search gives every thread level
    // enough independent work (8 chains is a search-quality choice — it
    // enters the config fingerprint and is identical at every thread
    // count).
    let workloads = [
        Workload {
            model: "resnet50",
            graph: models::resnet50(),
            sa_chains: 1,
        },
        Workload {
            model: "resnet1001",
            graph: models::resnet1001(),
            sa_chains: 8,
        },
    ];

    let committed = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|text| Json::parse(&text).ok());

    let mut workloads_json = Vec::new();
    let mut inversion_failures = Vec::new();
    let mut serial_totals = Vec::new();
    for w in &workloads {
        let cfg = base_cfg.with_sa_chains(w.sa_chains);
        println!("{} (sa_chains {}):", w.model, w.sa_chains);
        let mut runs: Vec<RunRecord> = Vec::new();
        for &t in &threads {
            let rec = measure(&w.graph, cfg.with_parallelism(t), t, iters);
            let delta = committed_total_ms(committed.as_ref(), w.model, t)
                .map(|base| format!(" ({:+.1}% vs committed)", (rec.total_ms / base - 1.0) * 1e2))
                .unwrap_or_default();
            println!(
                "  threads {t}: total {:.1} ms, {} cycles{delta}",
                rec.total_ms, rec.total_cycles
            );
            println!(
                "    {}",
                atomic_dataflow::pipeline::format_reports(&rec.stages)
            );
            if let Some(first) = runs.first() {
                // Threads are execution-only: any thread level must
                // reproduce the serial plan bytes exactly.
                if rec.plan != first.plan || rec.total_cycles != first.total_cycles {
                    eprintln!(
                        "determinism violation: {} at {t} threads diverges from serial \
                         ({} vs {} cycles)",
                        w.model, rec.total_cycles, first.total_cycles
                    );
                    std::process::exit(1);
                }
            }
            runs.push(rec);
        }
        let serial = runs.first().expect("at least one thread level");
        let widest = runs.last().expect("at least one thread level");
        serial_totals.push(serial.total_ms);
        if runs.len() > 1 {
            println!(
                "  speedup at {} threads: {:.2}x over serial",
                widest.threads,
                serial.total_ms / widest.total_ms
            );
            if widest.total_ms > serial.total_ms * INVERSION_TOLERANCE {
                inversion_failures.push(format!(
                    "{}: {} threads took {:.1} ms vs {:.1} ms serial (> {INVERSION_TOLERANCE}x)",
                    w.model, widest.threads, widest.total_ms, serial.total_ms
                ));
            }
        }
        let rss = peak_rss_mib();
        match rss {
            Some(mib) => println!("  peak RSS {mib:.1} MiB"),
            None => eprintln!("  peak RSS unavailable (no VmHWM in /proc/self/status)"),
        }
        workloads_json.push(Json::Obj(vec![
            ("model".into(), Json::Str(w.model.into())),
            ("sa_chains".into(), Json::Num(w.sa_chains as f64)),
            ("total_cycles".into(), Json::Num(serial.total_cycles as f64)),
            ("peak_rss_mib".into(), rss.map_or(Json::Null, Json::Num)),
            (
                "runs".into(),
                Json::Arr(runs.iter().map(run_to_json).collect()),
            ),
        ]));
    }

    let replan = measure_replan(&workloads[0].graph, base_cfg, iters);
    let replan_speedup = replan.cold_ms / replan.incremental_ms;
    println!(
        "replan (engine death @60%): cold {:.2} ms, incremental {:.2} ms ({}) — {replan_speedup:.1}x",
        replan.cold_ms, replan.incremental_ms, replan.rung
    );

    let workloads_json = Json::Arr(workloads_json);
    // Carry forward the recorded baseline unless this run (re)sets it.
    // Only a v2 baseline is meaningful; a v1 one is silently dropped.
    let baseline = if set_baseline {
        Some(workloads_json.clone())
    } else {
        committed.as_ref().and_then(|doc| {
            if doc.get("schema").and_then(Json::as_str) == Some("planner_perf/v2") {
                doc.get("baseline").cloned()
            } else {
                None
            }
        })
    };

    let mut doc = vec![
        ("schema".into(), Json::Str("planner_perf/v2".into())),
        (
            "config".into(),
            Json::Str(if fast { "fast_test" } else { "paper_default" }.into()),
        ),
        ("iters".into(), Json::Num(iters as f64)),
        ("workloads".into(), workloads_json),
        (
            "replan".into(),
            Json::Obj(vec![
                ("scenario".into(), Json::Str("engine3-death-60pct".into())),
                ("model".into(), Json::Str("resnet50".into())),
                ("cold_ms".into(), Json::Num(replan.cold_ms)),
                ("incremental_ms".into(), Json::Num(replan.incremental_ms)),
                ("speedup".into(), Json::Num(replan_speedup)),
                ("rung".into(), Json::Str(replan.rung.name().into())),
            ]),
        ),
    ];
    if let Some(base) = baseline {
        // Headline: end-to-end serial planning wall time on the first
        // workload, baseline over current.
        let base_serial = base.as_array().and_then(|ws| {
            ws.first()?
                .get("runs")
                .and_then(Json::as_array)?
                .first()?
                .get("total_wall_ms")
                .and_then(Json::as_f64)
        });
        if let (Some(base_ms), Some(cur)) = (base_serial, serial_totals.first()) {
            doc.push((
                "speedup_vs_baseline_serial".into(),
                Json::Num(base_ms / cur),
            ));
        }
        doc.push(("baseline".into(), base));
    }
    let doc = Json::Obj(doc);
    let text = doc.to_pretty();
    std::fs::write(&out_path, format!("{text}\n")).expect("write perf json");
    println!("wrote {out_path}");

    let reread = std::fs::read_to_string(&out_path).expect("re-read perf json");
    let parsed = Json::parse(&reread).expect("perf json parses");
    if let Err(why) = validate(&parsed) {
        eprintln!("malformed perf record: {why}");
        std::process::exit(1);
    }
    println!("stage timings and peak RSS validated");

    if check_inversion && !inversion_failures.is_empty() {
        for f in &inversion_failures {
            eprintln!("parallel inversion: {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn ci_flags_parse() {
        let a = parse(&[
            "--fast",
            "--iters=3",
            "--threads=1,8",
            "--check-inversion",
            "--out=planner_perf_ci.json",
        ]);
        assert!(a.fast && a.check_inversion && !a.set_baseline);
        assert_eq!((a.iters, a.threads), (3, vec![1, 8]));
        assert_eq!(a.out_path, "planner_perf_ci.json");
    }

    #[test]
    #[should_panic(expected = "bad value for --iters=x")]
    fn unparseable_iters_rejected() {
        parse(&["--iters=x"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag `--thread=1,8`")]
    fn misspelt_threads_rejected() {
        parse(&["--thread=1,8"]);
    }

    #[test]
    #[should_panic(expected = "bad value for --threads=x")]
    fn bad_thread_count_rejected() {
        parse(&["--threads=1,x"]);
    }
}
