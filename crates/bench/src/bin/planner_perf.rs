//! Tracked perf baseline for the planning pipeline (`planner_perf/v2`).
//!
//! Runs the full atomic-dataflow planner at each of a few thread levels on
//! three workloads — ResNet-50 (the paper's headline network),
//! `resnet50_b8_edge` (ResNet-50 at batch 8 on `configs/edge_4x4.json`
//! with the fast search: the shape of the serving benchmark's heaviest
//! planning misses, where buffers bind and the layer-order refinement
//! loses) and ResNet-1001 (the deep graph) — each on one persistent
//! [`ad_util::WorkerPool`] per thread level, reused across every timed
//! pass exactly as the serve daemon reuses its pool across requests. The
//! measurements go to `BENCH_planner.json` so every perf PR has a
//! trajectory to compare against. Passes are interleaved: pass *i* of
//! every (workload, thread level) cell runs before pass *i + 1* of any
//! cell, so host drift over the minutes a sweep takes spreads over every
//! cell instead of landing on whichever cells ran last. A run's `stages`
//! are the returned plan's; when the layer-order refinement lost, its own
//! rows follow, and its `simulate` row names the round where it stopped.
//!
//! Two assertions run inside the harness itself:
//!
//! * **Byte identity** — the plan payload and `total_cycles` of every
//!   thread level must equal the serial run's, per workload. Threads are
//!   an execution knob, never a search knob; a mismatch exits non-zero.
//! * **Anti-inversion** (`--check-inversion`) — the highest thread level's
//!   total wall time must not regress past `1.25×` serial. Parallelism
//!   that loses to serial is a regression; CI fails on it. (The tolerance
//!   absorbs scheduler noise on starved runners — CI containers often
//!   expose a single core.)
//!
//! Flags:
//!
//! * `--fast` — CI mode: `fast_test` configuration (4×4 mesh, short SA,
//!   two search targets, so the sweep reaches the candidate fan-out)
//!   instead of paper scale, and no batch-8 edge workload (its one search
//!   target leaves a thread sweep nothing to run in parallel); seconds,
//!   not minutes.
//! * `--threads=1,8` — comma-separated thread counts to run (default `1`
//!   and the host's available parallelism, once each).
//! * `--iters=N` — timed passes per thread level, N ≥ 1 (default 3 paper / 1
//!   fast); each run records the *minimum* total wall time
//!   (`total_wall_ms`, with the stages of that pass) and the median
//!   (`median_wall_ms`).
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
//! Memory: after each workload's serial cell of the first pass the harness
//! reads the process's peak resident set (`VmHWM` in `/proc/self/status`,
//! Linux only) into the workload's `peak_rss_mib`. Workloads run smallest
//! first and the serial cell runs before any other cell of its workload,
//! so each reading is that workload's own serial peak: no multi-thread
//! cell, whose live allocations vary with how its threads interleave, has
//! run yet.

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

/// One workload of the sweep: a model and its planning configuration.
struct Workload {
    /// Row key in the output file.
    name: &'static str,
    model: &'static str,
    graph: dnn_graph::Graph,
    /// What `cfg` is, for the output file.
    config: &'static str,
    cfg: OptimizerConfig,
}

struct RunRecord {
    threads: usize,
    total_ms: f64,
    /// Median total wall time over the cell's passes.
    median_ms: f64,
    total_cycles: u64,
    plan: String,
    stages: Vec<StageReport>,
}

/// One (workload, thread count) cell while its passes accumulate.
struct Cell {
    workload: usize,
    threads: usize,
    /// The fastest pass so far; its `median_ms` is filled in at the end.
    best: Option<RunRecord>,
    times: Vec<f64>,
}

impl Cell {
    /// Times one planning request on `pool`, the thread level's persistent
    /// pool, so pool reuse across requests (the daemon's steady state) is
    /// what gets measured.
    fn pass(&mut self, g: &dnn_graph::Graph, cfg: OptimizerConfig, pool: &Arc<WorkerPool>) {
        let t0 = Instant::now();
        let req = PlanRequest::new(g, cfg).with_pool(pool.clone());
        let out = request::plan(&req).expect("planner runs");
        let total_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.times.push(total_ms);
        if self.best.as_ref().is_none_or(|b| total_ms < b.total_ms) {
            self.best = Some(RunRecord {
                threads: self.threads,
                total_ms,
                median_ms: total_ms,
                total_cycles: out.stats.total_cycles,
                plan: out.plan,
                stages: out.reports,
            });
        }
    }

    fn finish(self) -> RunRecord {
        let mut rec = self.best.expect("at least one timed pass");
        rec.median_ms = median(self.times);
        rec
    }
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    (xs[(n - 1) / 2] + xs[n / 2]) / 2.0
}

fn run_to_json(r: &RunRecord) -> Json {
    Json::Obj(vec![
        ("threads".into(), Json::Num(r.threads as f64)),
        ("total_wall_ms".into(), Json::Num(r.total_ms)),
        ("median_wall_ms".into(), Json::Num(r.median_ms)),
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

/// The committed run matching (`name`, `threads`), if the pre-existing
/// output file carries one at the v2 schema. A row without a `name` is
/// keyed by its `model`.
fn committed_total_ms(committed: Option<&Json>, name: &str, threads: usize) -> Option<f64> {
    let doc = committed?;
    if doc.get("schema").and_then(Json::as_str) != Some("planner_perf/v2") {
        return None;
    }
    let workloads = doc.get("workloads").and_then(Json::as_array)?;
    let w = workloads.iter().find(|w| {
        w.get("name")
            .or_else(|| w.get("model"))
            .and_then(Json::as_str)
            == Some(name)
    })?;
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
            let median = run
                .get("median_wall_ms")
                .and_then(Json::as_f64)
                .ok_or("run missing `median_wall_ms`")?;
            if !median.is_finite() || median < total {
                return Err(format!("median_wall_ms {median} below minimum {total}"));
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
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let mut threads = vec![1, nproc];
        threads.dedup();
        let mut parsed = Self {
            fast,
            set_baseline: false,
            check_inversion: false,
            out_path: "BENCH_planner.json".to_string(),
            iters: if fast { 1 } else { 3 },
            threads,
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

    let base_name = if fast { "fast_test" } else { "paper_default" };
    // ResNet-50 is the headline workload; ResNet-50 at batch 8 on the edge
    // machine is a heavy miss of the serving benchmark's mix; ResNet-1001
    // is the deep graph. Smallest peak memory first, so each workload's RSS
    // reading is its own.
    let mut workloads = vec![
        Workload {
            name: "resnet50",
            model: "resnet50",
            graph: models::resnet50(),
            config: base_name,
            cfg: base_cfg,
        },
        Workload {
            name: "resnet1001",
            model: "resnet1001",
            graph: models::resnet1001(),
            config: base_name,
            cfg: base_cfg,
        },
    ];
    if !fast {
        let edge_hw = HardwareConfig::load(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../configs/edge_4x4.json"
        ))
        .expect("configs/edge_4x4.json loads");
        let edge_b8 = OptimizerConfig::for_hardware(&edge_hw)
            .expect("configs/edge_4x4.json is valid")
            .with_fast_search()
            .with_batch(8);
        workloads.insert(
            1,
            Workload {
                name: "resnet50_b8_edge",
                model: "resnet50",
                graph: models::resnet50(),
                config: "edge_4x4.json fast batch 8",
                cfg: edge_b8,
            },
        );
    }

    let committed = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|text| Json::parse(&text).ok());

    let pools: Vec<Arc<WorkerPool>> = threads
        .iter()
        .map(|&t| Arc::new(WorkerPool::new(t)))
        .collect();
    let mut cells: Vec<Cell> = (0..workloads.len())
        .flat_map(|wi| {
            threads.iter().map(move |&t| Cell {
                workload: wi,
                threads: t,
                best: None,
                times: Vec::new(),
            })
        })
        .collect();
    let mut rss_of: Vec<Option<f64>> = vec![None; workloads.len()];
    for pass in 0..iters {
        println!("pass {}/{iters}", pass + 1);
        for (ci, cell) in cells.iter_mut().enumerate() {
            let ti = ci % threads.len();
            let w = &workloads[cell.workload];
            cell.pass(&w.graph, w.cfg.with_parallelism(cell.threads), &pools[ti]);
            if pass == 0 && ti == 0 {
                rss_of[cell.workload] = peak_rss_mib();
            }
        }
    }
    let mut cells = cells.into_iter();

    let mut workloads_json = Vec::new();
    let mut inversion_failures = Vec::new();
    let mut serial_totals = Vec::new();
    for (w, rss) in workloads.iter().zip(rss_of) {
        println!("{} ({}):", w.name, w.config);
        let mut runs: Vec<RunRecord> = Vec::new();
        for rec in cells.by_ref().take(threads.len()).map(Cell::finish) {
            let t = rec.threads;
            let delta = committed_total_ms(committed.as_ref(), w.name, t)
                .map(|base| format!(" ({:+.1}% vs committed)", (rec.total_ms / base - 1.0) * 1e2))
                .unwrap_or_default();
            println!(
                "  threads {t}: total {:.1} ms (median {:.1}), {} cycles{delta}",
                rec.total_ms, rec.median_ms, rec.total_cycles
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
                        w.name, rec.total_cycles, first.total_cycles
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
                    w.name, widest.threads, widest.total_ms, serial.total_ms
                ));
            }
        }
        match rss {
            Some(mib) => println!("  peak RSS {mib:.1} MiB"),
            None => eprintln!("  peak RSS unavailable (no VmHWM in /proc/self/status)"),
        }
        workloads_json.push(Json::Obj(vec![
            ("name".into(), Json::Str(w.name.into())),
            ("model".into(), Json::Str(w.model.into())),
            ("config".into(), Json::Str(w.config.into())),
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
        ("config".into(), Json::Str(base_name.into())),
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
    fn default_threads_are_serial_and_nproc_once_each() {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let want = if nproc == 1 { vec![1] } else { vec![1, nproc] };
        assert_eq!(parse(&[]).threads, want);
        assert_eq!(parse(&["--fast"]).threads, want);
    }

    #[test]
    fn median_of_odd_and_even_pass_counts() {
        assert_eq!(median(vec![3.0]), 3.0);
        assert_eq!(median(vec![9.0, 1.0, 4.0]), 4.0);
        assert_eq!(median(vec![9.0, 1.0, 4.0, 2.0]), 3.0);
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
