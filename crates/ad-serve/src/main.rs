//! CLI front end for the plan-serving daemon.
//!
//! ```text
//! ad-serve [--addr=HOST:PORT] [--workers=N] [--capacity=N]
//!          [--cache-dir=PATH] [--deadline-ms=N] [--max-queue=N]
//!          [--hw=PATH] [--fast] [--summary=PATH] [--smoke]
//! ```
//!
//! * `--addr=` — listen address (default `127.0.0.1:7474`; port `0` picks a
//!   free port, printed on startup).
//! * `--workers=` — connection worker threads (default 4).
//! * `--capacity=` — plan-cache entries before LRU eviction (default 128).
//! * `--cache-dir=` — persist the plan cache in this directory (snapshot +
//!   WAL, DESIGN.md §16); a restart recovers every fully-written entry
//!   byte-identically. Without it the cache is memory-only.
//! * `--deadline-ms=` — default admission deadline: a request that waited
//!   longer than this before planning could start is refused with a typed
//!   `deadline_exceeded` line (requests may override per-request).
//! * `--max-queue=` — bound on accepted-but-unstarted connections
//!   (default 64); beyond it new connections get a typed `overloaded`
//!   refusal instead of queueing unboundedly.
//! * `--hw=` — hardware config file for requests without an inline `hw`
//!   object (default: the paper's 8×8 machine).
//! * `--fast` — apply the fast search configuration to every request.
//! * `--summary=` — write a cache-counter JSON summary on shutdown.
//! * `--smoke` — CI self-test: serve on a loopback port, submit the same
//!   ResNet-50 request twice plus a batch-2 request, then persist the
//!   cache, restart the store from disk, and exit non-zero unless the
//!   batch-2 miss equals an in-process `request::plan` of the same request
//!   and the recovered entry serves a byte-identical cache hit.
//!
//! An unknown flag, or a numeric flag whose value does not parse, is an
//! error: the daemon names the flag and exits with status 2 instead of
//! running on the default.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

use ad_serve::{serve, write_line, PlanStore, ServerConfig};
use ad_util::Json;
use atomic_dataflow::{request, OptimizerConfig, PlanRequest};
use dnn_graph::models;
use engine_model::HardwareConfig;

/// Flags that take a `=value`.
const VALUE_FLAGS: [&str; 8] = [
    "--addr=",
    "--workers=",
    "--capacity=",
    "--cache-dir=",
    "--deadline-ms=",
    "--max-queue=",
    "--hw=",
    "--summary=",
];
/// Flags that take no value.
const SWITCHES: [&str; 2] = ["--fast", "--smoke"];

/// The first argument that is neither a switch nor a value flag.
fn unknown_flag(args: &[String]) -> Option<&str> {
    args.iter()
        .map(String::as_str)
        .find(|a| !SWITCHES.contains(a) && !VALUE_FLAGS.iter().any(|p| a.starts_with(p)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(a) = unknown_flag(&args) {
        eprintln!("ad-serve: unknown flag `{a}`");
        std::process::exit(2);
    }
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |prefix: &str| {
        args.iter()
            .find_map(|a| a.strip_prefix(prefix))
            .map(str::to_string)
    };

    let addr = opt("--addr=").unwrap_or_else(|| "127.0.0.1:7474".to_string());
    let workers = num_flag(&args, "--workers=").unwrap_or(4);
    let capacity = num_flag(&args, "--capacity=").unwrap_or(128);
    let cache_dir = opt("--cache-dir=").map(PathBuf::from);
    let deadline_ms = num_flag(&args, "--deadline-ms=");
    let max_queue = num_flag(&args, "--max-queue=").unwrap_or(64);
    let summary = opt("--summary=");
    let base_hw = match opt("--hw=") {
        Some(path) => match HardwareConfig::load(&path) {
            Ok(hw) => hw,
            Err(e) => {
                eprintln!("ad-serve: {e}");
                std::process::exit(2);
            }
        },
        None => HardwareConfig::paper_default(),
    };
    let sc = ServerConfig {
        base_hw,
        fast: flag("--fast"),
        workers,
        deadline_ms,
        max_queue,
    };

    if flag("--smoke") {
        std::process::exit(run_smoke(capacity, &sc, summary.as_deref()));
    }

    let store = open_store(capacity, cache_dir.as_deref());
    let listener = TcpListener::bind(&addr).expect("bind listen address");
    println!(
        "ad-serve listening on {} ({} workers, capacity {}, queue bound {})",
        listener.local_addr().expect("local addr"),
        sc.workers,
        capacity,
        sc.max_queue,
    );
    if let Some(ps) = store.persist_stats() {
        println!(
            "ad-serve: recovered {} cached plans ({} torn, {} corrupt records dropped)",
            store.stats().entries,
            ps.torn_records,
            ps.corrupt_records
        );
    }
    serve(&listener, &store, &sc).expect("serve loop");

    let stats = store.stats();
    if let Some(path) = summary {
        write_summary(&path, &stats.to_json(), true, &[]);
    }
    println!(
        "ad-serve: shut down ({} hits / {} misses / {} evictions)",
        stats.hits, stats.misses, stats.evictions
    );
}

/// The value of the numeric flag `prefix` (e.g. `--workers=`), or `None`
/// when absent. A value that does not parse names the flag on stderr and
/// exits with status 2.
fn num_flag<T: std::str::FromStr>(args: &[String], prefix: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let v = args.iter().find_map(|a| a.strip_prefix(prefix))?;
    match v.parse() {
        Ok(n) => Some(n),
        Err(e) => {
            eprintln!("ad-serve: bad value for {prefix}{v}: {e}");
            std::process::exit(2);
        }
    }
}

/// Opens the plan store, persistent when a cache directory was given.
fn open_store(capacity: usize, cache_dir: Option<&std::path::Path>) -> PlanStore {
    match cache_dir {
        None => PlanStore::new(capacity),
        Some(dir) => match PlanStore::open(capacity, dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ad-serve: cannot open cache dir {}: {e}", dir.display());
                std::process::exit(2);
            }
        },
    }
}

/// One request line over an open connection; returns the parsed response.
fn roundtrip(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> Json {
    write_line(conn, req.to_owned()).expect("send request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    Json::parse(&line).expect("response parses")
}

/// The CI self-test: cold plan, byte-identical cache hit, a batch-2 miss
/// checked against an in-process plan, counter check, then a persist →
/// restart → recovered-hit round trip. Returns the process exit code.
fn run_smoke(capacity: usize, sc: &ServerConfig, summary: Option<&str>) -> i32 {
    // Smoke always uses the fast search configuration: CI budget, and the
    // cache semantics under test do not depend on search scale.
    let sc = ServerConfig { fast: true, ..*sc };
    let cache_dir = std::env::temp_dir().join(format!("ad-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let store = PlanStore::open(capacity, &cache_dir).expect("open smoke cache dir");

    let mut failures: Vec<String> = Vec::new();
    let mut check = |what: &str, ok: bool| {
        println!("  [{}] {what}", if ok { "ok" } else { "FAIL" });
        if !ok {
            failures.push(what.to_string());
        }
    };

    let cold_plan = serve_smoke_phase(&store, &sc, &mut check);

    // Persist → restart: drop the first store (as a crash would), reopen
    // from the same directory, and demand a byte-identical recovered hit.
    drop(store);
    let store = PlanStore::open(capacity, &cache_dir).expect("reopen smoke cache dir");
    let recovered = store.persist_stats().expect("persistent store");
    check(
        "restart recovers cached entries",
        store.stats().entries >= 2,
    );
    check(
        "recovery is clean (no torn/corrupt)",
        recovered.is_clean_load(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::scope(|s| {
        let server = s.spawn(|| serve(&listener, &store, &sc));
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
        let r = roundtrip(
            &mut conn,
            &mut reader,
            "{\"op\":\"plan\",\"model\":\"resnet50\"}",
        );
        check(
            "recovered entry serves as a cache hit",
            r.get("cached").and_then(Json::as_bool) == Some(true),
        );
        check(
            "recovered hit is byte-identical to the pre-restart plan",
            r.get("plan").map(|p| p.to_compact()) == cold_plan,
        );
        let bye = roundtrip(&mut conn, &mut reader, "{\"op\":\"shutdown\"}");
        check(
            "post-restart shutdown acknowledged",
            bye.get("ok").and_then(Json::as_bool) == Some(true),
        );
        server.join().expect("server thread").expect("serve loop");
    });

    let ok = failures.is_empty();
    if let Some(path) = summary {
        write_summary(path, &store.stats().to_json(), ok, &failures);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    println!(
        "ad-serve smoke: {}",
        if ok { "all checks passed" } else { "FAILED" }
    );
    i32::from(!ok)
}

/// First smoke phase (pre-restart): cold plan, byte-identical hit, a
/// batch-2 miss equal to `request::plan` of the same request, counters,
/// graceful shutdown. Returns the cold plan payload for the post-restart
/// byte-identity check.
fn serve_smoke_phase(
    store: &PlanStore,
    sc: &ServerConfig,
    check: &mut impl FnMut(&str, bool),
) -> Option<String> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    println!("ad-serve smoke: serving on {addr}");

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(&listener, store, sc));
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
        let req = "{\"op\":\"plan\",\"model\":\"resnet50\"}";

        let r1 = roundtrip(&mut conn, &mut reader, req);
        check(
            "cold request succeeds",
            r1.get("ok").and_then(Json::as_bool) == Some(true),
        );
        check(
            "cold request is not a cache hit",
            r1.get("cached").and_then(Json::as_bool) == Some(false),
        );

        let r2 = roundtrip(&mut conn, &mut reader, req);
        check(
            "second identical request is a cache hit",
            r2.get("cached").and_then(Json::as_bool) == Some(true),
        );
        let plan1 = r1.get("plan").map(|p| p.to_compact());
        let plan2 = r2.get("plan").map(|p| p.to_compact());
        check(
            "cache hit returns byte-identical plan payload",
            plan1.is_some() && plan1 == plan2,
        );

        let r3 = roundtrip(
            &mut conn,
            &mut reader,
            "{\"op\":\"plan\",\"model\":\"resnet50\",\"batch\":2}",
        );
        check(
            "batch-2 request plans fresh",
            r3.get("cached").and_then(Json::as_bool) == Some(false),
        );
        let cfg = OptimizerConfig::for_hardware(&sc.base_hw)
            .expect("smoke hardware config is valid")
            .with_fast_search()
            .with_batch(2);
        let direct = request::plan(&PlanRequest::new(&models::resnet50(), cfg))
            .expect("in-process batch-2 plan");
        check(
            "batch-2 miss equals request::plan of the same request",
            r3.get("plan").map(|p| p.to_compact())
                == Json::parse(&direct.plan).ok().map(|p| p.to_compact()),
        );

        let st = roundtrip(&mut conn, &mut reader, "{\"op\":\"stats\"}");
        let hits = st
            .get("stats")
            .and_then(|s| s.get("hits"))
            .and_then(Json::as_u64);
        let misses = st
            .get("stats")
            .and_then(|s| s.get("misses"))
            .and_then(Json::as_u64);
        check(
            "counters: 1 hit, 2 misses",
            hits == Some(1) && misses == Some(2),
        );
        let wal = st
            .get("stats")
            .and_then(|s| s.get("persist"))
            .and_then(|p| p.get("wal_records"))
            .and_then(Json::as_u64);
        check("both plans were appended to the WAL", wal == Some(2));

        let bye = roundtrip(&mut conn, &mut reader, "{\"op\":\"shutdown\"}");
        check(
            "shutdown acknowledged",
            bye.get("ok").and_then(Json::as_bool) == Some(true),
        );
        server.join().expect("server thread").expect("serve loop");
        plan1
    })
}

fn write_summary(path: &str, stats: &Json, ok: bool, failures: &[String]) {
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("ad_serve_summary/v1".into())),
        ("ok".into(), Json::Bool(ok)),
        (
            "failures".into(),
            Json::Arr(failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("stats".into(), stats.clone()),
    ]);
    match std::fs::write(path, format!("{}\n", doc.to_pretty())) {
        Ok(()) => println!("ad-serve: wrote summary to {path}"),
        Err(e) => eprintln!("ad-serve: failed to write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_named() {
        assert_eq!(
            unknown_flag(&args(&[
                "--addr=127.0.0.1:0",
                "--workers=2",
                "--deadline-ms=250",
                "--fast",
                "--smoke",
                "--summary=s.json",
            ])),
            None
        );
        for bad in ["--worker=2", "--sa_budget=5", "--fast=1", "smoke"] {
            let list = args(&["--fast", bad, "--workers=2"]);
            assert_eq!(unknown_flag(&list), Some(bad));
        }
    }
}
