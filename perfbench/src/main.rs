//! The repository benchmark: end-to-end planning and serving metrics, and a
//! separate traced run that attributes time to each layer.
//!
//! ```text
//! perfbench --workload <plan_resnet50|plan_inception_v3|serve_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it list
//! every check and metric (with unit and sample count) for people. The
//! process exits non-zero when an output check fails. See README.md.

mod plan;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

use stats::Metric;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 31;

/// Root of the repository the benchmark was built from.
const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
/// Where runs keep their scratch stores and write their spans.
const OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// A path inside the repository.
pub fn repo_path(rel: &str) -> String {
    format!("{REPO}/{rel}")
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Vec<(String, bool)>,
    pub notes: Vec<String>,
    pub trace: Option<Tracer>,
}

impl Report {
    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let mut report = match (args.workload.as_str(), args.trace) {
        ("plan_resnet50", false) => plan::untraced("resnet50", args)?,
        ("plan_resnet50", true) => plan::traced("resnet50", args, work)?,
        ("plan_inception_v3", false) => plan::untraced("inception_v3", args)?,
        ("plan_inception_v3", true) => plan::traced("inception_v3", args, work)?,
        ("serve_mix", false) => serve::untraced(args, work)?,
        ("serve_mix", true) => serve::traced(args, work)?,
        (other, _) => return Err(format!("unknown workload `{other}`")),
    };
    if !args.trace {
        let ok = report.attempted - report.failed;
        let ok_ratio = ok as f64 / report.attempted.max(1) as f64;
        let n = usize::try_from(report.attempted).unwrap_or(usize::MAX);
        report.metric(Metric::new("ok_ratio", ok_ratio, "ratio", n));
        report.metric(Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB", 1));
    }
    Ok(report)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(OUT).join(format!("tmp-{}", std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (what, ok) in &report.checks {
        println!("  check  {:4} {what}", if *ok { "ok" } else { "FAIL" });
    }
    for m in &report.metrics {
        println!(
            "  metric {:32} {:>16.6} {:10} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for n in &report.notes {
        println!("  note   {n}");
    }
    if let Some(tracer) = &report.trace {
        let path =
            PathBuf::from(OUT).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(OUT)
            .and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
        match written {
            Ok(()) => println!("  spans  {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}
