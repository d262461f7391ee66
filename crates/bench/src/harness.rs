//! Shared experiment plumbing: workload/CLI selection, strategy runners and
//! machine-readable result records.

use std::time::Instant;

use accel_sim::{FaultKind, FaultPlan, SimStats};
use ad_util::Json;
use atomic_dataflow::{
    baselines, request, OptimizerConfig, PlanBudget, PlanRequest, StageReport, Strategy,
};
use dnn_graph::{models, Graph};
use engine_model::{Dataflow, HardwareConfig};

/// One measured data point, serializable for post-processing.
#[derive(Debug, Clone)]
pub struct ExpRecord {
    /// Workload name.
    pub workload: String,
    /// Strategy label (`"AD"`, `"LS"`, …).
    pub strategy: String,
    /// Dataflow label (`"KC-P"` / `"YX-P"`).
    pub dataflow: String,
    /// Batch size simulated.
    pub batch: usize,
    /// Wall-clock accelerator cycles.
    pub cycles: u64,
    /// Latency in milliseconds at the configured frequency.
    pub latency_ms: f64,
    /// Inferences per second.
    pub fps: f64,
    /// Whole-chip PE utilization.
    pub pe_utilization: f64,
    /// Compute-only PE utilization (Table II metric).
    pub compute_utilization: f64,
    /// NoC overhead fraction (Table II).
    pub noc_overhead: f64,
    /// On-chip data-reuse ratio (Table II).
    pub onchip_reuse: f64,
    /// DRAM traffic in bytes (reads + writes).
    pub dram_bytes: u64,
    /// Total energy in millijoules, with its breakdown.
    pub energy_mj: f64,
    /// Energy components in millijoules: compute, NoC, DRAM, static.
    pub energy_parts_mj: [f64; 4],
    /// Host-side search/simulation time in seconds.
    pub search_secs: f64,
    /// Planning-budget outcome: `"completed"`, or `"truncated@<stage>"`
    /// when an iteration cap cut the search short
    /// ([`atomic_dataflow::BudgetOutcome`]).
    pub budget: String,
    /// Per-stage wall times and summaries of the strategy's planning
    /// pipeline (the winning candidate where the strategy searches).
    pub stages: Vec<StageReport>,
}

impl ExpRecord {
    /// The record as a JSON object (for `--json=` dumps).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::from(self.workload.as_str())),
            ("strategy".into(), Json::from(self.strategy.as_str())),
            ("dataflow".into(), Json::from(self.dataflow.as_str())),
            ("batch".into(), Json::from(self.batch)),
            ("cycles".into(), Json::from(self.cycles)),
            ("latency_ms".into(), Json::from(self.latency_ms)),
            ("fps".into(), Json::from(self.fps)),
            ("pe_utilization".into(), Json::from(self.pe_utilization)),
            (
                "compute_utilization".into(),
                Json::from(self.compute_utilization),
            ),
            ("noc_overhead".into(), Json::from(self.noc_overhead)),
            ("onchip_reuse".into(), Json::from(self.onchip_reuse)),
            ("dram_bytes".into(), Json::from(self.dram_bytes)),
            ("energy_mj".into(), Json::from(self.energy_mj)),
            (
                "energy_parts_mj".into(),
                Json::Arr(
                    self.energy_parts_mj
                        .iter()
                        .map(|&v| Json::from(v))
                        .collect(),
                ),
            ),
            ("search_secs".into(), Json::from(self.search_secs)),
            ("budget".into(), Json::from(self.budget.as_str())),
            (
                "stages".into(),
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("stage".into(), Json::from(s.stage)),
                                ("wall_ms".into(), Json::from(s.wall_ms)),
                                ("summary".into(), Json::from(s.summary.as_str())),
                                ("budget".into(), Json::from(s.budget.to_string())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The stage reports as one compact printable line.
    pub fn stage_line(&self) -> String {
        atomic_dataflow::pipeline::format_reports(&self.stages)
    }
}

/// Runs one strategy on one workload and collects the record.
///
/// # Panics
///
/// Panics on schedule-integrity errors (bugs in the strategy
/// implementations — surfaced loudly in experiments).
pub fn run_strategy(
    strategy: Strategy,
    name: &str,
    graph: &Graph,
    cfg: &OptimizerConfig,
) -> ExpRecord {
    let start = Instant::now();
    let response = request::plan(&PlanRequest::new(graph, *cfg).with_strategy(strategy))
        .expect("strategy produced an invalid schedule");
    let secs = start.elapsed().as_secs_f64();
    let budget = response.budget.to_string();
    let stats = response.stats;
    let freq = cfg.sim.engine.freq_mhz;
    let e = &stats.energy;
    ExpRecord {
        workload: name.to_string(),
        strategy: strategy.label().to_string(),
        dataflow: cfg.dataflow.label().to_string(),
        batch: cfg.batch,
        cycles: stats.total_cycles,
        latency_ms: stats.latency_ms(freq),
        fps: stats.throughput_fps(freq, cfg.batch.max(1)),
        pe_utilization: stats.pe_utilization,
        compute_utilization: stats.compute_utilization,
        noc_overhead: stats.noc_overhead,
        onchip_reuse: stats.onchip_reuse_ratio,
        dram_bytes: stats.dram_read_bytes + stats.dram_write_bytes,
        energy_mj: e.total_mj(),
        energy_parts_mj: [
            e.compute_pj / 1e9,
            e.noc_pj / 1e9,
            e.dram_pj / 1e9,
            e.static_pj / 1e9,
        ],
        search_secs: secs,
        budget,
        stages: response.reports,
    }
}

/// One fault-sweep data point (`fig_fault_sweep`): a strategy's degraded
/// execution under a seeded fault plan, relative to its own healthy run.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// Workload name.
    pub workload: String,
    /// Strategy label (`"AD"`, `"LS"`, `"CNN-P"`).
    pub strategy: String,
    /// Per-component failure probability of the plan.
    pub fault_rate: f64,
    /// Plan seed.
    pub seed: u64,
    /// Degraded wall-clock cycles (all attempts included).
    pub cycles: u64,
    /// Fault-free wall-clock cycles.
    pub healthy_cycles: u64,
    /// `cycles / healthy_cycles - 1`.
    pub latency_overhead: f64,
    /// Degraded total energy in millijoules.
    pub energy_mj: f64,
    /// `energy / healthy_energy - 1`.
    pub energy_overhead: f64,
    /// Engines lost to the plan.
    pub engine_failures: u64,
    /// Mesh links lost to the plan.
    pub dead_links: u64,
    /// Task results lost in flight or with dead buffers.
    pub lost_tasks: u64,
    /// Tasks the recovery path re-executed.
    pub rerun_tasks: u64,
    /// Rounds re-planned onto survivors.
    pub remap_rounds: u64,
    /// Simulator runs needed (1 = absorbed without re-planning).
    pub attempts: u64,
}

impl FaultRecord {
    /// The record as a JSON object (for `--json=` dumps).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::from(self.workload.as_str())),
            ("strategy".into(), Json::from(self.strategy.as_str())),
            ("fault_rate".into(), Json::from(self.fault_rate)),
            ("seed".into(), Json::from(self.seed)),
            ("cycles".into(), Json::from(self.cycles)),
            ("healthy_cycles".into(), Json::from(self.healthy_cycles)),
            ("latency_overhead".into(), Json::from(self.latency_overhead)),
            ("energy_mj".into(), Json::from(self.energy_mj)),
            ("energy_overhead".into(), Json::from(self.energy_overhead)),
            ("engine_failures".into(), Json::from(self.engine_failures)),
            ("dead_links".into(), Json::from(self.dead_links)),
            ("lost_tasks".into(), Json::from(self.lost_tasks)),
            ("rerun_tasks".into(), Json::from(self.rerun_tasks)),
            ("remap_rounds".into(), Json::from(self.remap_rounds)),
            ("attempts".into(), Json::from(self.attempts)),
        ])
    }
}

/// Degraded latency/energy of a *restart-only* strategy (LS, CNN-P) under
/// `plan`. These baselines bind every engine, so they cannot remap around a
/// dead engine; the standard operational response is to abort and restart
/// the inference on the survivors. The model charges, for each engine death
/// in cycle order, the cycles the aborted attempt had accumulated, then runs
/// the workload once more slowed by the lost compute share
/// (`engines / alive`). Link failures and HBM derates are ignored here —
/// second-order next to a full restart. Energy scales with total cycles
/// (compute is re-done, static power burns for the whole wall clock).
///
/// Returns `(total_cycles, total_energy_mj)`.
pub fn restart_after_faults(healthy: &SimStats, plan: &FaultPlan, engines: usize) -> (u64, f64) {
    let mut now = 0u64; // absolute time; attempts run back to back
    let mut alive = engines;
    let mut makespan = healthy.total_cycles;
    let mut deaths: Vec<u64> = plan
        .events()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::EngineFail { .. }))
        .map(|e| e.cycle)
        .collect();
    deaths.sort_unstable();
    for cycle in deaths {
        if alive <= 1 {
            break; // nothing left to restart on
        }
        if cycle >= now + makespan {
            break; // the workload completed before this death
        }
        now = cycle; // everything since the last restart is wasted
        alive -= 1;
        makespan = healthy.total_cycles * engines as u64 / alive as u64;
    }
    let total = now + makespan;
    let energy_mj = healthy.energy.total_mj() * total as f64 / healthy.total_cycles.max(1) as f64;
    (total, energy_mj)
}

/// The Fig. 2 helper (kept here so binaries share one import path).
pub fn ls_layer_utilizations(graph: &Graph, cfg: &OptimizerConfig) -> Vec<(String, f64)> {
    baselines::ls::layer_utilizations(graph, cfg)
}

/// Workload selection from the command line.
///
/// Flags understood by every experiment binary:
/// - `--workloads=a,b,c` — subset by name (see [`models::PAPER_WORKLOADS`]);
/// - `--quick` — the four mid-size workloads (fast smoke run);
/// - `--fast` — use the small fast-test platform and short search knobs
///   instead of the paper platform (CI smoke runs);
/// - `--hw=PATH` — load the machine description from a
///   [`HardwareConfig`] JSON file instead of the built-in paper platform
///   (`--fast` then only shortens the search, not the machine);
/// - `--par=N` — worker threads for the candidate search (results are
///   byte-identical for every value);
/// - `--batch=N` — override the experiment's default batch size;
/// - `--json=PATH` — also dump records as JSON;
/// - `--sa-budget=N` — cap simulated-annealing iterations per chain;
/// - `--dp-budget=N` — cap DP scheduling expansions.
///
/// An unknown flag, or a value that does not parse, panics with a message
/// naming the flag, as an unknown workload name does, so a mistyped flag
/// never runs on a default.
#[derive(Debug, Clone)]
pub struct Workloads {
    /// Selected `(name, graph)` pairs.
    pub list: Vec<(String, Graph)>,
    /// Batch override, if any.
    pub batch_override: Option<usize>,
    /// JSON dump path, if any.
    pub json_path: Option<String>,
    /// Run on the small fast-test platform instead of the paper's.
    pub fast: bool,
    /// Hardware-config file (`--hw=PATH`), if any.
    pub hw_path: Option<String>,
    /// Candidate-search worker threads, if overridden.
    pub parallelism: Option<usize>,
    /// Planning budget assembled from `--sa-budget` / `--dp-budget`
    /// (unlimited when none given).
    pub budget: PlanBudget,
}

impl Workloads {
    /// Parses `std::env::args` and builds the selected workloads.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_arg_slice(&args)
    }

    /// Parses an explicit argument slice (testable).
    pub fn from_arg_slice(args: &[String]) -> Self {
        Self::from_arg_slice_with(args, &[])
    }

    /// [`Workloads::from_arg_slice`] for a binary that reads flags of its
    /// own: each `own` name is skipped here, matched exactly or, when it
    /// ends in `=`, as a prefix.
    pub fn from_arg_slice_with(args: &[String], own: &[&str]) -> Self {
        let mut names: Option<Vec<String>> = None;
        let mut batch_override = None;
        let mut json_path = None;
        let mut fast = false;
        let mut hw_path = None;
        let mut parallelism = None;
        let mut budget = PlanBudget::unlimited();
        for a in args {
            if let Some(v) = a.strip_prefix("--workloads=") {
                names = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            } else if a == "--quick" {
                names = Some(
                    ["vgg19", "resnet50", "inception_v3", "efficientnet"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                );
            } else if a == "--fast" {
                fast = true;
            } else if let Some(v) = a.strip_prefix("--hw=") {
                hw_path = Some(v.to_string());
            } else if let Some(v) = a.strip_prefix("--par=") {
                parallelism = Some(flag_value("--par=", v));
            } else if let Some(v) = a.strip_prefix("--batch=") {
                batch_override = Some(flag_value("--batch=", v));
            } else if let Some(v) = a.strip_prefix("--json=") {
                json_path = Some(v.to_string());
            } else if let Some(v) = a.strip_prefix("--sa-budget=") {
                budget = budget.with_sa_iters(flag_value("--sa-budget=", v));
            } else if let Some(v) = a.strip_prefix("--dp-budget=") {
                budget = budget.with_dp_expansions(flag_value("--dp-budget=", v));
            } else if !own
                .iter()
                .any(|o| a == o || (o.ends_with('=') && a.starts_with(o)))
            {
                panic!("unknown flag `{a}`");
            }
        }
        let names = names.unwrap_or_else(|| {
            models::PAPER_WORKLOADS
                .iter()
                .map(|s| s.to_string())
                .collect()
        });
        let list = names
            .into_iter()
            .map(|n| {
                let g = models::by_name(&n).unwrap_or_else(|| panic!("unknown workload `{n}`"));
                (n, g)
            })
            .collect();
        Self {
            list,
            batch_override,
            json_path,
            fast,
            hw_path,
            parallelism,
            budget,
        }
    }

    /// The machine description selected by the flags: the `--hw=PATH` file
    /// when given, otherwise the built-in paper platform (its 4×4 variant
    /// under `--fast`).
    ///
    /// # Panics
    ///
    /// Panics with the typed [`engine_model::ConfigError`] message when the
    /// `--hw=` file is unreadable, malformed or degenerate (experiments
    /// fail loudly on bad platform descriptions).
    pub fn hardware(&self) -> HardwareConfig {
        match &self.hw_path {
            Some(path) => HardwareConfig::load(path).unwrap_or_else(|e| panic!("--hw={path}: {e}")),
            None if self.fast => HardwareConfig::fast_test(),
            None => HardwareConfig::paper_default(),
        }
    }

    /// The platform configuration selected by the flags: the
    /// [`Workloads::hardware`] machine with the given dataflow, batch, the
    /// fast search knobs under `--fast`, and any `--par=` override applied.
    pub fn config(&self, dataflow: Dataflow, batch: usize) -> OptimizerConfig {
        let hw = self.hardware();
        let base = OptimizerConfig::for_hardware(&hw)
            .unwrap_or_else(|e| panic!("invalid hardware config: {e}"));
        let base = if self.fast {
            base.with_fast_search()
        } else {
            base
        };
        base.with_dataflow(dataflow)
            .with_batch(batch)
            .with_parallelism(self.parallelism.unwrap_or(1))
            .with_budget(self.budget)
    }

    /// Default batch size for throughput experiments on this workload: the
    /// paper's 20, reduced for the three giant NAS/1001-layer networks to
    /// keep the atomic DAG within the session compute budget (documented in
    /// `EXPERIMENTS.md`; Fig. 12 shows batch size does not change trends).
    pub fn default_throughput_batch(name: &str) -> usize {
        match name {
            "resnet1001" | "nasnet" | "pnasnet" => 4,
            _ => 20,
        }
    }

    /// Writes records to the `--json=` path when given.
    pub fn dump_json(&self, records: &[ExpRecord]) {
        if let Some(path) = &self.json_path {
            let body = Json::Arr(records.iter().map(ExpRecord::to_json).collect()).to_pretty();
            if let Err(e) = std::fs::write(path, body) {
                eprintln!("failed to write {path}: {e}");
            } else {
                eprintln!("wrote {} records to {path}", records.len());
            }
        }
    }
}

/// The value `v` of flag `flag` (spelled as typed, e.g. `--par=`).
///
/// # Panics
///
/// Panics with a message naming the flag when `v` does not parse.
pub fn flag_value<T: std::str::FromStr>(flag: &str, v: &str) -> T
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .unwrap_or_else(|e| panic!("bad value for {flag}{v}: {e}"))
}

/// Paper-default configuration for a given dataflow and batch, resolved
/// through the declarative [`HardwareConfig`] path like every other config.
///
/// # Panics
///
/// Never in practice: the built-in paper platform always validates.
pub fn paper_config(dataflow: Dataflow, batch: usize) -> OptimizerConfig {
    OptimizerConfig::for_hardware(&HardwareConfig::paper_default())
        .expect("built-in paper hardware config is valid")
        .with_dataflow(dataflow)
        .with_batch(batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let w = Workloads::from_arg_slice(&[
            "--workloads=resnet50,vgg19".into(),
            "--batch=4".into(),
            "--json=/tmp/x.json".into(),
        ]);
        assert_eq!(w.list.len(), 2);
        assert_eq!(w.list[0].0, "resnet50");
        assert_eq!(w.batch_override, Some(4));
        assert_eq!(w.json_path.as_deref(), Some("/tmp/x.json"));
    }

    #[test]
    fn budget_flags_parse() {
        let w = Workloads::from_arg_slice(&[
            "--workloads=resnet50".into(),
            "--sa-budget=5".into(),
            "--dp-budget=1000".into(),
        ]);
        assert_eq!(w.budget.sa_iters, Some(5));
        assert_eq!(w.budget.dp_expansions, Some(1000));
        let cfg = w.config(Dataflow::KcPartition, 1);
        assert_eq!(cfg.budget, w.budget);

        // Unlimited when absent.
        let w = Workloads::from_arg_slice(&[]);
        assert_eq!(w.budget, PlanBudget::unlimited());
    }

    /// Every value-taking flag rejects a value that does not parse, and
    /// an unknown flag is rejected, naming the flag, instead of running on
    /// a default.
    #[test]
    fn unparseable_flag_values_are_rejected_by_name() {
        let cases: [&[&str]; 10] = [
            &["--par=two"],
            &["--batch=-1"],
            &["--sa-budget=many"],
            &["--dp-budget=1e3"],
            &["--validate=deny"],
            &["--validate"],
            &["--deadline-ms=250"],
            &["--sa_budget=5"],
            &["--worker=2"],
            &["--yx"],
        ];
        for case in cases {
            let mut args = vec!["--workloads=tiny_cnn".to_string()];
            args.extend(case.iter().map(|a| a.to_string()));
            let err = std::panic::catch_unwind(|| Workloads::from_arg_slice(&args))
                .expect_err(&case.join(" "));
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.contains(&case.join(" ")), "{case:?}: `{msg}`");
        }
    }

    /// A binary's own flags pass the harness; a value flag's name admits
    /// neither the bare switch nor the reverse.
    #[test]
    fn own_flags_pass_the_harness() {
        let args = ["--workloads=tiny_cnn", "--yx", "--seeds=3"].map(String::from);
        let w = Workloads::from_arg_slice_with(&args, &["--yx", "--seeds="]);
        assert_eq!(w.list.len(), 1);
        for (bad, own) in [("--seeds", "--seeds="), ("--yx=1", "--yx")] {
            let args = vec![bad.to_string()];
            let err = std::panic::catch_unwind(|| Workloads::from_arg_slice_with(&args, &[own]))
                .expect_err(bad);
            assert_eq!(
                err.downcast_ref::<String>(),
                Some(&format!("unknown flag `{bad}`"))
            );
        }
    }

    #[test]
    fn quick_set() {
        let w = Workloads::from_arg_slice(&["--quick".into()]);
        assert_eq!(w.list.len(), 4);
    }

    #[test]
    fn default_batches() {
        assert_eq!(Workloads::default_throughput_batch("resnet50"), 20);
        assert_eq!(Workloads::default_throughput_batch("nasnet"), 4);
    }

    #[test]
    fn restart_model_charges_wasted_attempts() {
        let g = models::tiny_cnn();
        let cfg = OptimizerConfig::fast_test();
        let healthy = Strategy::LayerSequential.run(&g, &cfg).unwrap();
        let n = cfg.engines();

        // No deaths: degraded == healthy.
        let (c0, e0) = restart_after_faults(&healthy, &FaultPlan::none(), n);
        assert_eq!(c0, healthy.total_cycles);
        assert!((e0 - healthy.energy.total_mj()).abs() < 1e-12);

        // One mid-run death: wasted half + a full run slowed by N/(N-1).
        let half = healthy.total_cycles / 2;
        let plan = FaultPlan::engine_fail(3, half);
        let (c1, e1) = restart_after_faults(&healthy, &plan, n);
        assert_eq!(c1, half + healthy.total_cycles * n as u64 / (n as u64 - 1));
        assert!(e1 > healthy.energy.total_mj());

        // A death after completion never interrupts.
        let late = FaultPlan::engine_fail(3, healthy.total_cycles * 10);
        let (c2, _) = restart_after_faults(&healthy, &late, n);
        assert_eq!(c2, healthy.total_cycles);
    }

    #[test]
    fn fault_record_serializes() {
        let r = FaultRecord {
            workload: "resnet50".into(),
            strategy: "AD".into(),
            fault_rate: 0.05,
            seed: 7,
            cycles: 1100,
            healthy_cycles: 1000,
            latency_overhead: 0.1,
            energy_mj: 2.2,
            energy_overhead: 0.1,
            engine_failures: 1,
            dead_links: 2,
            lost_tasks: 3,
            rerun_tasks: 3,
            remap_rounds: 4,
            attempts: 2,
        };
        let s = r.to_json().to_pretty();
        for key in ["fault_rate", "latency_overhead", "remap_rounds", "attempts"] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn record_from_tiny_run() {
        let g = models::tiny_cnn();
        let cfg = OptimizerConfig::fast_test();
        let r = run_strategy(Strategy::LayerSequential, "tiny_cnn", &g, &cfg);
        assert_eq!(r.strategy, "LS");
        assert!(r.cycles > 0);
        assert!(r.latency_ms > 0.0);
        assert!(r.energy_mj > 0.0);
    }
}
