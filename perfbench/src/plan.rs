//! The planning workloads: cold `request::plan` calls on one network, and
//! the traced replay of the optimizer's candidate loop from public API.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accel_sim::{Program, SimStats};
use ad_util::WorkerPool;
use atomic_dataflow::pipeline::{AtomGenStage, LowerStage, MapStage, ScheduleStage, SimulateStage};
use atomic_dataflow::{
    admit, config_fingerprint, request, AtomGenMode, AtomSpec, AtomicDag, GenReport,
    OptimizerConfig, Pipeline, PlanContext, PlanRequest, Schedule, ScheduleMode, Stage, Strategy,
};
use dnn_graph::Graph;
use engine_model::HardwareConfig;

use crate::stats::{median, percentile, Metric};
use crate::trace::{Traced, Tracer};
use crate::{repo_path, Args, Report, SETUP_REPS};

/// Hardware of the planning workloads: the paper's 8×8 machine.
const HW_FILE: &str = "configs/paper_8x8.json";
/// Share of a traced run spent on stage replays; the rest serves the
/// workload's request through the daemon layers.
const TRACE_REPLAY_SHARE: f64 = 0.8;
/// Cache hits the traced run sends after the workload's one cold miss.
const PROBE_HITS: usize = 24;
/// Safety cap on the serving probe; it normally ends after its requests.
const PROBE_CAP: Duration = Duration::from_secs(60);

/// Everything a planning request needs before it can be sent.
struct Planner {
    graph: Graph,
    cfg: OptimizerConfig,
    pool: Arc<WorkerPool>,
}

/// Builds the graph, loads the hardware file and spawns the worker pool of
/// `nproc` threads. The seed becomes the SA seed.
fn setup(model: &str, seed: u64) -> Result<Planner, String> {
    let graph = dnn_graph::models::by_name(model).ok_or(format!("unknown model `{model}`"))?;
    let hw = HardwareConfig::load(&repo_path(HW_FILE)).map_err(|e| e.to_string())?;
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut cfg = OptimizerConfig::for_hardware(&hw)
        .map_err(|e| e.to_string())?
        .with_parallelism(threads);
    if let AtomGenMode::Sa(ref mut p) = cfg.atomgen.mode {
        p.seed = seed;
    }
    Ok(Planner {
        graph,
        cfg,
        pool: Arc::new(WorkerPool::new(threads)),
    })
}

/// [`setup`], timed into `samples`; the caller drops the result outside
/// the timed span.
fn timed_setup(model: &str, seed: u64, samples: &mut Vec<f64>) -> Result<Planner, String> {
    let t = Instant::now();
    let p = setup(model, seed)?;
    samples.push(t.elapsed().as_secs_f64());
    Ok(p)
}

fn plan_once(
    graph: &Graph,
    cfg: OptimizerConfig,
    pool: &Arc<WorkerPool>,
) -> Result<(request::PlanResponse, f64), String> {
    let t = Instant::now();
    let resp = request::plan(&PlanRequest::new(graph, cfg).with_pool(pool.clone()))
        .map_err(|e| e.to_string())?;
    Ok((resp, t.elapsed().as_secs_f64() * 1e3))
}

/// Untraced run: one cold planning request at a time until the time is up.
pub fn untraced(model: &str, args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let p = timed_setup(model, args.seed, &mut setup_s)?;
    for _ in 1..SETUP_REPS {
        drop(timed_setup(model, args.seed, &mut setup_s)?);
    }

    let mut report = Report::default();
    let mut ms = Vec::new();
    let mut first: Option<(String, u64)> = None;
    let mut identical = true;
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(args.seconds) {
        report.attempted += 1;
        match plan_once(&p.graph, p.cfg, &p.pool) {
            Ok((resp, dt)) => {
                ms.push(dt);
                match &first {
                    None => first = Some((resp.plan, resp.stats.total_cycles)),
                    Some((plan, _)) => identical &= *plan == resp.plan,
                }
            }
            Err(e) => {
                eprintln!("perfbench: planning failed: {e}");
                report.failed += 1;
            }
        }
        // One more set-up between requests, so set-up samples span the
        // whole run like the request samples do.
        drop(timed_setup(model, args.seed, &mut setup_s)?);
    }
    let elapsed = start.elapsed().as_secs_f64();
    report.check("plan payload bytes identical across requests", identical);
    let (_, cycles) = first.ok_or("no planning request succeeded")?;

    let n = ms.len();
    let p50 = median(&ms).ok_or("no samples")?;
    report.metric(Metric::new("p50_ms", p50, "ms", n));
    report.metric(Metric::new("miss_p50_ms", p50, "ms", n));
    report.metric(Metric::new("rps", n as f64 / elapsed, "1/s", n));
    report.metric(Metric::new("plan_cycles", cycles as f64, "cycles", 1));
    report.metric(Metric::new(
        "setup_s",
        median(&setup_s).ok_or("no set-up")?,
        "s",
        setup_s.len(),
    ));
    report.note(tail_note("plan", &ms, 0.90));
    Ok(report)
}

/// "plan p90 412.1 ms (n=103)" or why the tail is withheld.
pub fn tail_note(what: &str, xs: &[f64], p: f64) -> String {
    let pct = (p * 100.0).round();
    match percentile(xs, p) {
        Some(v) => format!("{what} p{pct} {v:.3} ms (n={})", xs.len()),
        None => format!(
            "{what} p{pct} withheld: fewer than {} of {} samples lie beyond it",
            crate::stats::MIN_BEYOND,
            xs.len()
        ),
    }
}

/// Traced run: alternate an untraced `request::plan` with a traced replay
/// of the same request, then serve the request through the daemon layers.
pub fn traced(model: &'static str, args: &Args, work: &std::path::Path) -> Result<Report, String> {
    let p = setup(model, args.seed)?;
    let tracer = Tracer::new(Instant::now());
    let budget = Duration::from_secs_f64(args.seconds as f64 * TRACE_REPLAY_SHARE);
    let mut report = Report::default();
    stage_trace(
        std::slice::from_ref(&(&p.graph, p.cfg)),
        &p.pool,
        &tracer,
        budget,
        &mut report,
    )?;
    let key = crate::serve::Key {
        model,
        batch: 1,
        strategy: "AD",
    };
    let line = crate::serve::request_line(&key, &crate::serve::compact_hw(HW_FILE)?, false);
    crate::serve::probe(
        work,
        &[line],
        &|_| 0,
        1,
        crate::serve::Limit {
            duration: PROBE_CAP,
            max_requests: Some(1 + PROBE_HITS),
        },
        &tracer,
        &mut report,
    )?;
    report.trace = Some(tracer);
    Ok(report)
}

/// Replays every case (round-robin, at least once each, then until
/// `budget` has passed), alternating with untraced `request::plan` calls,
/// and adds the per-layer metrics (medians over replays) to `report`.
pub fn stage_trace(
    cases: &[(&Graph, OptimizerConfig)],
    pool: &Arc<WorkerPool>,
    tracer: &Tracer,
    budget: Duration,
    report: &mut Report,
) -> Result<(), String> {
    let start = Instant::now();
    let mut untraced_ms = Vec::new();
    let mut replay_ms = Vec::new();
    let mut per_replay: BTreeMap<&'static str, (Vec<f64>, &'static str)> = BTreeMap::new();
    let (mut winners_match, mut admitted) = (true, true);
    let mut i = 0;
    while i < cases.len() || start.elapsed() < budget {
        let (graph, cfg) = cases[i % cases.len()];
        i += 1;
        report.attempted += 2;
        let (resp, dt) = plan_once(graph, cfg, pool)?;
        untraced_ms.push(dt);
        let mut rep = replay(graph, cfg, tracer)?;
        replay_ms.push(rep.request_ms(tracer));
        let (cycles, specs) = rep.winner()?;
        winners_match &= resp.stats.total_cycles == cycles
            && resp.detail.as_ref().map(|d| d.specs.as_slice()) == Some(specs);
        admitted &= rep.admit_all();
        for (name, v, unit) in rep.metrics(tracer)? {
            per_replay
                .entry(name)
                .or_insert((Vec::new(), unit))
                .0
                .push(v);
        }
    }
    report.check(
        "replay winner equals request::plan (cycles + specs)",
        winners_match,
    );
    report.check("every replayed candidate passes admission", admitted);
    for (name, (vs, unit)) in &per_replay {
        let value = median(vs).unwrap_or(0.0);
        report.metric(Metric::new(*name, value, unit, vs.len()));
    }
    let ratio = median(&replay_ms).unwrap_or(0.0) / median(&untraced_ms).unwrap_or(f64::NAN);
    report.metric(Metric::new(
        "trace.replay_ratio",
        ratio,
        "ratio",
        replay_ms.len(),
    ));
    Ok(())
}

/// One candidate pipeline of a replay, with its context kept for the
/// admission audit after timing ends.
struct CandidateRun<'g> {
    target: usize,
    ctx: PlanContext<'g>,
    span: usize,
}

impl CandidateRun<'_> {
    /// Every artifact a completed standard pipeline leaves in its context.
    fn artifacts(
        &self,
    ) -> Result<(&GenReport, &AtomicDag, &Schedule, &Program, &SimStats), String> {
        let c = &self.ctx;
        match (&c.gen_report, &c.dag, &c.schedule, &c.program, &c.stats) {
            (Some(g), Some(d), Some(s), Some(p), Some(st)) => Ok((g, d, s, p, st)),
            _ => Err("a candidate pipeline left an artifact unset".into()),
        }
    }

    fn cycles(&self) -> Result<u64, String> {
        Ok(self.artifacts()?.4.total_cycles)
    }
}

/// A traced replay of one planning request.
pub struct Replay<'g> {
    request_span: usize,
    fingerprint_span: usize,
    cands: Vec<CandidateRun<'g>>,
    /// Candidates `0..targets` are the search targets; one more, if
    /// present, is the layer-order refinement.
    targets: usize,
    winner: usize,
    refine_won: bool,
}

/// Mirrors `Optimizer::optimize`: one standard pipeline per non-zero
/// search target, the strictly cheapest (earliest on ties) wins, then a
/// `LayerOrder` refinement at the winning target when the schedule mode is
/// DP. Each stage records a span under its candidate, each candidate under
/// the request.
pub fn replay<'g>(
    graph: &'g Graph,
    cfg: OptimizerConfig,
    tracer: &Tracer,
) -> Result<Replay<'g>, String> {
    let request_span = tracer.open("request", None);
    let fingerprint_span = tracer.open("fingerprint", Some(request_span));
    std::hint::black_box((
        graph.canonical_fingerprint(),
        config_fingerprint(&cfg, Strategy::AtomicDataflow),
    ));
    tracer.close(fingerprint_span);

    let targets: Vec<usize> = cfg.search_targets.into_iter().filter(|&t| t != 0).collect();
    if targets.is_empty() {
        return Err("the replay needs at least one non-zero search target".into());
    }
    let mut cands = Vec::new();
    for (i, &t) in targets.iter().enumerate() {
        let label = format!("cand{i}");
        cands.push(candidate(
            graph,
            cfg,
            t,
            cfg.schedule_mode,
            &label,
            request_span,
            tracer,
        )?);
    }
    let mut winner = 0;
    for i in 1..cands.len() {
        if cands[i].cycles()? < cands[winner].cycles()? {
            winner = i;
        }
    }
    let mut refine_won = false;
    if matches!(cfg.schedule_mode, ScheduleMode::Dp { .. }) {
        let target = cands[winner].target;
        let lo = candidate(
            graph,
            cfg,
            target,
            ScheduleMode::LayerOrder,
            "refine",
            request_span,
            tracer,
        )?;
        refine_won = lo.cycles()? < cands[winner].cycles()?;
        cands.push(lo);
        if refine_won {
            winner = cands.len() - 1;
        }
    }
    tracer.close(request_span);
    Ok(Replay {
        request_span,
        fingerprint_span,
        cands,
        targets: targets.len(),
        winner,
        refine_won,
    })
}

fn candidate<'g>(
    graph: &'g Graph,
    cfg: OptimizerConfig,
    target: usize,
    mode: ScheduleMode,
    label: &str,
    parent: usize,
    tracer: &Tracer,
) -> Result<CandidateRun<'g>, String> {
    let span = tracer.open(label, Some(parent));
    let stages: Vec<Box<dyn Stage>> = vec![
        Box::new(AtomGenStage {
            target: Some(target),
        }),
        Box::new(ScheduleStage { mode: Some(mode) }),
        Box::new(MapStage),
        Box::new(LowerStage),
        Box::new(SimulateStage),
    ];
    let traced = stages
        .into_iter()
        .map(|inner| {
            Box::new(Traced {
                inner,
                tracer: tracer.clone(),
                parent: span,
            }) as Box<dyn Stage>
        })
        .collect();
    let mut ctx = PlanContext::new(graph, cfg);
    let out = Pipeline::new(traced).run(&mut ctx);
    tracer.close(span);
    out.map_err(|e| format!("{label}: {e}"))?;
    Ok(CandidateRun { target, ctx, span })
}

impl Replay<'_> {
    /// Wall time of the whole replayed request.
    pub fn request_ms(&self, tracer: &Tracer) -> f64 {
        tracer.span(self.request_span).map_or(0.0, |s| s.ms())
    }

    /// Simulated cycles and per-layer specs of the winning candidate.
    pub fn winner(&self) -> Result<(u64, &[AtomSpec]), String> {
        let (gen, .., stats) = self.cands[self.winner].artifacts()?;
        Ok((stats.total_cycles, &gen.specs))
    }

    /// Audits every candidate's artifacts with the plan validator (what
    /// `ValidateMode::Deny` enforces); runs after the request span closed,
    /// so it never counts toward the timed work.
    pub fn admit_all(&mut self) -> bool {
        let mut ok = true;
        for c in &mut self.cands {
            if let Err(e) = admit(&mut c.ctx) {
                eprintln!("perfbench: candidate failed admission: {e}");
                ok = false;
            }
        }
        ok
    }

    /// Per-layer measurements of this replay: stage times and counts summed
    /// over every candidate pipeline, model statistics of the winner.
    /// Each entry is (name, value, unit).
    pub fn metrics(
        &self,
        tracer: &Tracer,
    ) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let request_ms = self.request_ms(tracer);
        let fingerprint_ms = tracer.span(self.fingerprint_span).map_or(0.0, |s| s.ms());
        let span_ms = |id: usize| tracer.span(id).map_or(0.0, |s| s.ms());
        // Target candidates: the first one exists on every workload; the
        // slowest one bounds the search when candidates run in parallel.
        let cand_ms: Vec<f64> = self.cands[..self.targets]
            .iter()
            .map(|c| span_ms(c.span))
            .collect();
        let refine_ms = self
            .cands
            .get(self.targets)
            .map_or(0.0, |c| span_ms(c.span));
        let mut stage_ms: BTreeMap<String, f64> = BTreeMap::new();
        let (mut atoms, mut sa_iters, mut rounds, mut lowered, mut simulated) = (0, 0, 0, 0, 0);
        let mut distinct: Vec<&[AtomSpec]> = Vec::new();
        for c in &self.cands {
            for s in tracer.children(c.span) {
                *stage_ms.entry(s.name).or_default() += s.ms();
            }
            let (gen, dag, sched, program, stats) = c.artifacts()?;
            atoms += dag.atom_count();
            sa_iters += gen.history.len();
            rounds += sched.len();
            lowered += program.tasks().len();
            simulated += stats.tasks;
            if !distinct.contains(&gen.specs.as_slice()) {
                distinct.push(&gen.specs);
            }
        }
        let stage = |name: &str| stage_ms.get(name).copied().unwrap_or(0.0);
        let covered = fingerprint_ms + stage_ms.values().sum::<f64>();
        let (.., w) = self.cands[self.winner].artifacts()?;
        let n = self.cands.len() as f64;
        Ok(vec![
            ("request.fingerprint_ms", fingerprint_ms, "ms"),
            ("optimizer.candidates", n, "count"),
            (
                "optimizer.distinct_candidates",
                distinct.len() as f64,
                "count",
            ),
            ("optimizer.useful_ratio", distinct.len() as f64 / n, "ratio"),
            ("optimizer.cand0.ms", cand_ms[0], "ms"),
            (
                "optimizer.cand_max.ms",
                cand_ms.iter().copied().fold(0.0, f64::max),
                "ms",
            ),
            ("optimizer.refine.ms", refine_ms, "ms"),
            (
                "optimizer.refine_won",
                f64::from(u8::from(self.refine_won)),
                "count",
            ),
            ("atomgen.ms", stage("atomgen"), "ms"),
            ("atomgen.atoms", atoms as f64, "count"),
            ("atomgen.sa_iters", sa_iters as f64, "count"),
            ("scheduler.ms", stage("schedule"), "ms"),
            ("scheduler.rounds", rounds as f64, "count"),
            ("mapping.ms", stage("map"), "ms"),
            ("lower.ms", stage("lower"), "ms"),
            ("lower.tasks", lowered as f64, "count"),
            ("sim.ms", stage("simulate"), "ms"),
            ("sim.tasks", simulated as f64, "count"),
            (
                "sim.ns_per_task",
                stage("simulate") * 1e6 / simulated.max(1) as f64,
                "ns",
            ),
            ("engine.pe_util", w.pe_utilization, "ratio"),
            ("noc.byte_hops", w.noc_byte_hops as f64, "byte-hops"),
            ("noc.blocked_cycles", w.noc_blocked_cycles as f64, "cycles"),
            (
                "hbm.bytes",
                (w.dram_read_bytes + w.dram_write_bytes) as f64,
                "bytes",
            ),
            ("hbm.blocked_cycles", w.dram_blocked_cycles as f64, "cycles"),
            ("buffer.onchip_reuse", w.onchip_reuse_ratio, "ratio"),
            (
                "trace.coverage",
                covered / request_ms.max(f64::MIN_POSITIVE),
                "ratio",
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_equals_request_plan_on_tiny_branchy() {
        let graph = dnn_graph::models::tiny_branchy();
        let cfg = OptimizerConfig::fast_test();
        let resp = request::plan(&PlanRequest::new(&graph, cfg)).expect("plan");
        let tracer = Tracer::new(Instant::now());
        let mut rep = replay(&graph, cfg, &tracer).expect("replay");
        let (cycles, specs) = rep.winner().expect("winner");
        assert_eq!(cycles, resp.stats.total_cycles);
        assert_eq!(
            Some(specs),
            resp.detail.as_ref().map(|d| d.specs.as_slice())
        );
        assert!(rep.admit_all());
        let m: BTreeMap<_, _> = rep
            .metrics(&tracer)
            .expect("metrics")
            .into_iter()
            .map(|(name, v, _)| (name, v))
            .collect();
        // fast_test plans one target plus the layer-order refinement.
        assert_eq!(m["optimizer.candidates"], 2.0);
        assert!(m["trace.coverage"] > 0.5 && m["trace.coverage"] <= 1.0);
        assert!(m["sim.tasks"] > 0.0);
    }
}
