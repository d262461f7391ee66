//! The serving workload: the `ad-serve` daemon in-process on a loopback
//! listener, driven by a closed loop of client connections replaying a
//! seeded request stream.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ad_serve::{handle_line_pooled, serve, PlanStore, ServerConfig};
use ad_util::{FpHasher, Json, Rng64, WorkerPool};
use atomic_dataflow::OptimizerConfig;
use engine_model::HardwareConfig;

use crate::plan::{stage_trace, tail_note};
use crate::stats::{geomean, median, Metric};
use crate::trace::Tracer;
use crate::{repo_path, Args, Report, SETUP_REPS};

/// Hardware inlined into every request of the mix.
const HW_FILE: &str = "configs/edge_4x4.json";
/// Networks of the mix, cheapest first.
const MODELS: [&str; 6] = [
    "tiny_cnn",
    "tiny_branchy",
    "vgg19",
    "efficientnet",
    "resnet50",
    "inception_v3",
];
const MAX_BATCH: usize = 8;
const STRATEGIES: [&str; 2] = ["AD", "LS"];
/// Plan-cache entries: half the key count, so the mix evicts.
pub const CAPACITY: usize = 48;
/// Client connections of the closed loop (one per CPU of the reference
/// two-CPU host).
const CLIENTS: usize = 2;
/// Daemon connection workers.
const WORKERS: usize = 2;
/// Zipf exponent of key popularity after the cold fill.
const ZIPF_S: f64 = 1.0;
/// Share of a traced run spent on the TCP phase of the probe.
const TRACE_TCP_SHARE: f64 = 0.5;
/// Share of a traced run spent replaying planning stages of the mix.
const TRACE_STAGE_SHARE: f64 = 0.1;

/// One cacheable request of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    pub model: &'static str,
    pub batch: usize,
    pub strategy: &'static str,
}

/// Every key of the mix in popularity-rank order. Batch-major, so every
/// model and both strategies sit at every popularity level.
pub fn universe() -> Vec<Key> {
    let mut keys = Vec::new();
    for batch in 1..=MAX_BATCH {
        for strategy in STRATEGIES {
            for model in MODELS {
                keys.push(Key {
                    model,
                    batch,
                    strategy,
                });
            }
        }
    }
    keys
}

/// The protocol line of `key` with `hw` (compact JSON) inline.
pub fn request_line(key: &Key, hw: &str, fast: bool) -> String {
    format!(
        "{{\"op\":\"plan\",\"model\":\"{}\",\"batch\":{},\"strategy\":\"{}\",\"fast\":{fast},\"hw\":{hw}}}",
        key.model, key.batch, key.strategy
    )
}

/// A hardware file of the repository as compact JSON.
pub fn compact_hw(file: &str) -> Result<String, String> {
    let path = repo_path(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    Ok(Json::parse(&text)
        .map_err(|e| format!("{path}: {e}"))?
        .to_compact())
}

/// The seeded request stream: which key request `i` asks for.
pub struct Stream {
    salt: u64,
    cdf: Vec<f64>,
}

impl Stream {
    pub fn new(seed: u64, keys: usize) -> Self {
        let weights: Vec<f64> = (1..=keys).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self {
            salt: Rng64::new(seed).next_u64(),
            cdf,
        }
    }

    /// The first requests touch every key once in rank order (a cold
    /// fill); each later one is an independent Zipf draw. Request `i` is a
    /// pure function of the seed and `i`, so concurrent clients can take
    /// indices in any order and still replay the same stream.
    pub fn key_at(&self, i: usize) -> usize {
        let keys = self.cdf.len();
        if i < keys {
            return i;
        }
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        let u = Rng64::new(self.salt.wrapping_add((i as u64).wrapping_mul(GOLDEN))).next_f64();
        self.cdf.partition_point(|&c| c <= u).min(keys - 1)
    }
}

/// How long a load phase runs.
#[derive(Debug, Clone, Copy)]
pub struct Limit {
    pub duration: Duration,
    pub max_requests: Option<usize>,
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub index: usize,
    pub key: usize,
    pub ms: f64,
    pub ok: bool,
    pub cached: bool,
    /// Fingerprint of the raw plan bytes of the response.
    pub plan_fp: u64,
    pub cycles: Option<u64>,
}

fn parse_sample(index: usize, key: usize, ms: f64, line: &str) -> Sample {
    let line = line.trim_end();
    let doc = Json::parse(line).ok();
    let flag = |name: &str| {
        doc.as_ref()
            .and_then(|d| d.get(name))
            .and_then(Json::as_bool)
            == Some(true)
    };
    // The plan is spliced in verbatim as the last member: hash its raw
    // bytes, not a re-serialization.
    let plan = line
        .find(",\"plan\":")
        .and_then(|p| line.get(p + 8..line.len().saturating_sub(1)))
        .unwrap_or("");
    let mut h = FpHasher::new();
    h.write_str(plan);
    let cycles = doc
        .as_ref()
        .and_then(|d| d.get("plan"))
        .and_then(|p| p.get("stats"))
        .and_then(|s| s.get("total_cycles"))
        .and_then(Json::as_u64);
    Sample {
        index,
        key,
        ms,
        ok: flag("ok"),
        cached: flag("cached"),
        plan_fp: h.finish().0,
        cycles,
    }
}

/// What one daemon session measured.
struct Load {
    samples: Vec<Sample>,
    attempted: u64,
    elapsed_s: f64,
    /// The `stats` op payload at the end of the session.
    stats: Json,
    /// Bytes of snapshot + WAL left in the cache directory.
    store_bytes: u64,
}

type Pick<'a> = &'a (dyn Fn(usize) -> usize + Sync);

fn server_config() -> ServerConfig {
    ServerConfig {
        base_hw: HardwareConfig::paper_default(),
        fast: false,
        workers: WORKERS,
        deadline_ms: None,
        max_queue: 64,
    }
}

/// Opens a persistent store in `dir`, serves it on a loopback port and
/// connects `clients` connections; set-up time runs from `t0` to the last
/// connect. With a `limit` the clients then run the closed loop. The
/// daemon is always shut down and joined before this returns.
fn session(
    t0: Instant,
    dir: &Path,
    lines: &[String],
    pick: Pick<'_>,
    clients: usize,
    limit: Option<Limit>,
) -> Result<(f64, Option<Load>), String> {
    let store = PlanStore::open(CAPACITY, dir).map_err(|e| format!("open store: {e}"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let sc = server_config();
    let (setup_s, load, stats) = std::thread::scope(|s| {
        let server = s.spawn(|| serve(&listener, &store, &sc));
        let body = (|| {
            let conns = (0..clients)
                .map(|_| connect(addr))
                .collect::<Result<Vec<_>, _>>()?;
            let setup_s = t0.elapsed().as_secs_f64();
            let load = match limit {
                Some(l) => Some(drive(conns, lines, pick, l)?),
                None => None,
            };
            Ok::<_, String>((setup_s, load))
        })();
        // Every client connection is closed by now, so a worker is free
        // for the control connection, which also stops the daemon.
        let stats = control(addr);
        let served = server.join();
        let (setup_s, load) = body?;
        match served {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("serve loop: {e}")),
            Err(_) => return Err("serve loop panicked".to_string()),
        }
        Ok((setup_s, load, stats?))
    })?;
    drop(store);
    let load = load.map(|(samples, attempted, elapsed_s)| Load {
        samples,
        attempted,
        elapsed_s,
        stats,
        store_bytes: dir_bytes(dir),
    });
    Ok((setup_s, load))
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let c = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    c.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(c)
}

/// Reads the daemon's counters, then shuts it down.
fn control(addr: SocketAddr) -> Result<Json, String> {
    let mut conn = connect(addr)?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let mut ask = |req: &str| -> Result<Json, String> {
        conn.write_all(format!("{req}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| e.to_string())?;
        Json::parse(&line).map_err(|e| format!("control response: {e}"))
    };
    let stats = ask("{\"op\":\"stats\"}")?;
    ask("{\"op\":\"shutdown\"}")?;
    stats
        .get("stats")
        .cloned()
        .ok_or("stats response without counters".to_string())
}

/// The closed loop: each client sends its next request only after the
/// previous response arrived. Requests go out as one write each.
fn drive(
    conns: Vec<TcpStream>,
    lines: &[String],
    pick: Pick<'_>,
    limit: Limit,
) -> Result<(Vec<Sample>, u64, f64), String> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|c| s.spawn(|| client(c, &next, start, lines, pick, limit)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut attempted = 0;
    for (s, a) in per_client {
        samples.extend(s);
        attempted += a;
    }
    samples.sort_by_key(|s| s.index);
    Ok((samples, attempted, elapsed_s))
}

fn client(
    conn: TcpStream,
    next: &AtomicUsize,
    start: Instant,
    lines: &[String],
    pick: Pick<'_>,
    limit: Limit,
) -> Result<(Vec<Sample>, u64), String> {
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let mut writer = conn;
    let mut samples = Vec::new();
    let mut attempted = 0;
    let mut out = Vec::new();
    let mut resp = String::new();
    while start.elapsed() < limit.duration {
        let i = next.fetch_add(1, Ordering::SeqCst);
        if limit.max_requests.is_some_and(|m| i >= m) {
            break;
        }
        let key = pick(i);
        out.clear();
        out.extend_from_slice(lines[key].as_bytes());
        out.push(b'\n');
        resp.clear();
        attempted += 1;
        let t = Instant::now();
        writer.write_all(&out).map_err(|e| format!("send: {e}"))?;
        let n = reader
            .read_line(&mut resp)
            .map_err(|e| format!("receive: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        samples.push(parse_sample(i, key, ms, &resp));
    }
    Ok((samples, attempted))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(|e| e.ok()?.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// Every request answered `ok`.
fn all_ok(samples: &[Sample]) -> bool {
    samples.iter().all(|s| s.ok)
}

/// Every hit returns plan bytes some miss of the same key returned (a key
/// re-planned after eviction may legitimately differ from its first plan).
fn hits_match_misses(samples: &[Sample]) -> bool {
    let mut planned: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.ok && !s.cached) {
        planned.entry(s.key).or_default().push(s.plan_fp);
    }
    samples.iter().filter(|s| s.ok && s.cached).all(|s| {
        planned
            .get(&s.key)
            .is_some_and(|fps| fps.contains(&s.plan_fp))
    })
}

fn counter(stats: &Json, path: &[&str]) -> u64 {
    let mut v = Some(stats);
    for p in path {
        v = v.and_then(|x| x.get(p));
    }
    v.and_then(Json::as_u64).unwrap_or(0)
}

struct Split {
    all: Vec<f64>,
    hits: Vec<f64>,
    misses: Vec<f64>,
}

fn split(samples: &[Sample]) -> Split {
    let ok = samples.iter().filter(|s| s.ok);
    Split {
        all: ok.clone().map(|s| s.ms).collect(),
        hits: ok.clone().filter(|s| s.cached).map(|s| s.ms).collect(),
        misses: ok.filter(|s| !s.cached).map(|s| s.ms).collect(),
    }
}

/// Checks shared by every TCP session: all `ok`, hits byte-identical to a
/// miss of their key, and the daemon's counters equal the client's tally.
fn check_session(load: &Load, report: &mut Report) {
    let sp = split(&load.samples);
    report.failed += load.attempted - sp.all.len() as u64;
    report.check("every response is ok:true", all_ok(&load.samples));
    report.check(
        "every hit is byte-identical to a miss of its key",
        hits_match_misses(&load.samples),
    );
    report.check(
        "stats hits + misses equal the client's tallies",
        counter(&load.stats, &["hits"]) == sp.hits.len() as u64
            && counter(&load.stats, &["misses"]) == sp.misses.len() as u64,
    );
}

fn mix() -> Result<(Vec<Key>, Vec<String>), String> {
    let hw = compact_hw(HW_FILE)?;
    let keys = universe();
    let lines = keys.iter().map(|k| request_line(k, &hw, true)).collect();
    Ok((keys, lines))
}

/// Untraced run of the mix.
pub fn untraced(args: &Args, work: &Path) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut load = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (keys, lines) = mix()?;
        let stream = Stream::new(args.seed, keys.len());
        // The load runs in the last session: sessions after it set up
        // measurably slower, which would split the samples into two groups.
        let limit = (rep + 1 == SETUP_REPS).then_some(Limit {
            duration: Duration::from_secs(args.seconds),
            max_requests: None,
        });
        let dir = work.join(format!("store-{rep}"));
        let (s, l) = session(t0, &dir, &lines, &|i| stream.key_at(i), CLIENTS, limit)?;
        setup_s.push(s);
        load = l.or(load);
    }
    let load = load.ok_or("the load phase did not run")?;

    let mut report = Report {
        attempted: load.attempted,
        ..Report::default()
    };
    check_session(&load, &mut report);
    let sp = split(&load.samples);
    let mut first_cycles: BTreeMap<usize, f64> = BTreeMap::new();
    for s in load.samples.iter().filter(|s| s.ok && !s.cached) {
        if let Some(c) = s.cycles {
            first_cycles.entry(s.key).or_insert(c as f64);
        }
    }
    let cycles: Vec<f64> = first_cycles.into_values().collect();
    let n = sp.all.len();
    report.metric(Metric::new(
        "p50_ms",
        median(&sp.all).ok_or("no samples")?,
        "ms",
        n,
    ));
    report.metric(Metric::new(
        "miss_p50_ms",
        median(&sp.misses).ok_or("no misses")?,
        "ms",
        sp.misses.len(),
    ));
    report.metric(Metric::new("rps", n as f64 / load.elapsed_s, "1/s", n));
    report.metric(Metric::new(
        "plan_cycles",
        geomean(&cycles).ok_or("no plan cycles")?,
        "cycles",
        cycles.len(),
    ));
    report.metric(Metric::new(
        "setup_s",
        median(&setup_s).ok_or("no set-up")?,
        "s",
        setup_s.len(),
    ));
    report.note(format!(
        "hit p50 {:.3} ms (n={})",
        median(&sp.hits).unwrap_or(f64::NAN),
        sp.hits.len()
    ));
    report.note(tail_note("hit", &sp.hits, 0.99));
    report.note(tail_note("miss", &sp.misses, 0.90));
    report.note(format!("daemon counters: {}", load.stats.to_compact()));
    Ok(report)
}

/// Traced run of the mix: the TCP probe over the seeded stream, then
/// stage replays of the mix's batch-1 atomic-dataflow keys.
pub fn traced(args: &Args, work: &Path) -> Result<Report, String> {
    let tracer = Tracer::new(Instant::now());
    let (keys, lines) = mix()?;
    let stream = Stream::new(args.seed, keys.len());
    let mut report = Report::default();
    probe(
        work,
        &lines,
        &|i| stream.key_at(i),
        CLIENTS,
        Limit {
            duration: Duration::from_secs_f64(args.seconds as f64 * TRACE_TCP_SHARE),
            max_requests: None,
        },
        &tracer,
        &mut report,
    )?;
    let hw = HardwareConfig::load(&repo_path(HW_FILE)).map_err(|e| e.to_string())?;
    let base = OptimizerConfig::for_hardware(&hw)
        .map_err(|e| e.to_string())?
        .with_fast_search()
        .with_parallelism(WORKERS + 1);
    let graphs = keys
        .iter()
        .filter(|k| k.batch == 1 && k.strategy == "AD")
        .map(|k| dnn_graph::models::by_name(k.model).ok_or(format!("unknown model {}", k.model)))
        .collect::<Result<Vec<_>, _>>()?;
    let cases: Vec<_> = graphs.iter().map(|g| (g, base)).collect();
    let pool = Arc::new(WorkerPool::new(WORKERS + 1));
    let budget = Duration::from_secs_f64(args.seconds as f64 * TRACE_STAGE_SHARE);
    stage_trace(&cases, &pool, &tracer, budget, &mut report)?;
    report.trace = Some(tracer);
    Ok(report)
}

/// Serves `lines` twice: over TCP through a daemon session (client
/// latency, daemon counters), then in-process through
/// `handle_line_pooled` for the same requests against a fresh store
/// (handler time, spans). Adds the serving layers' metrics to `report`.
pub fn probe(
    work: &Path,
    lines: &[String],
    pick: Pick<'_>,
    clients: usize,
    limit: Limit,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let dir = work.join("probe-tcp");
    let (_, load) = session(Instant::now(), &dir, lines, pick, clients, Some(limit))?;
    let load = load.ok_or("the probe's load phase did not run")?;
    report.attempted += load.attempted;
    check_session(&load, report);
    let tcp = split(&load.samples);

    // Clients take indices in order, so the TCP phase sent exactly
    // requests 0..attempted; the handler replay sends the same ones.
    let n = usize::try_from(load.attempted).map_err(|e| e.to_string())?;
    let handled = handler_replay(&work.join("probe-handler"), lines, pick, n, tracer)?;
    report.attempted += n as u64;
    report.failed += handled.iter().filter(|s| !s.ok).count() as u64;
    report.check("every handler reply is ok:true", all_ok(&handled));
    report.check(
        "every handler hit is byte-identical to a miss of its key",
        hits_match_misses(&handled),
    );
    let h = split(&handled);
    let handler_hit = median(&h.hits).unwrap_or(0.0);
    let st = &load.stats;
    let (hits, misses) = (counter(st, &["hits"]), counter(st, &["misses"]));
    let refused: u64 = ["refused_overloaded", "refused_deadline", "refused_shutdown"]
        .iter()
        .map(|k| counter(st, &["admission", k]))
        .sum();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    for m in [
        Metric::new("serve.handler_hit_ms", handler_hit, "ms", h.hits.len()),
        Metric::new(
            "serve.handler_miss_ms",
            median(&h.misses).unwrap_or(0.0),
            "ms",
            h.misses.len(),
        ),
        Metric::new(
            "serve.transport_hit_ms",
            median(&tcp.hits).unwrap_or(0.0) - handler_hit,
            "ms",
            tcp.hits.len(),
        ),
        Metric::new(
            "store.hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
            tcp.all.len(),
        ),
        Metric::new(
            "store.warm_start_ratio",
            ratio(counter(st, &["warm_starts"]), misses),
            "ratio",
            tcp.misses.len(),
        ),
        Metric::new(
            "store.evictions",
            counter(st, &["evictions"]) as f64,
            "count",
            1,
        ),
        Metric::new(
            "persist.wal_records",
            counter(st, &["persist", "wal_records"]) as f64,
            "count",
            1,
        ),
        Metric::new(
            "persist.compactions",
            counter(st, &["persist", "compactions"]) as f64,
            "count",
            1,
        ),
        Metric::new("persist.bytes", load.store_bytes as f64, "bytes", 1),
        Metric::new("admission.refused", refused as f64, "count", 1),
    ] {
        report.metric(m);
    }
    Ok(())
}

/// Sends requests `0..n` straight to the protocol handler, one at a time,
/// with a span around each call.
fn handler_replay(
    dir: &Path,
    lines: &[String],
    pick: Pick<'_>,
    n: usize,
    tracer: &Tracer,
) -> Result<Vec<Sample>, String> {
    let store = PlanStore::open(CAPACITY, dir).map_err(|e| format!("open store: {e}"))?;
    let sc = server_config();
    let pool = Arc::new(WorkerPool::new(WORKERS + 1));
    let root = tracer.open("serve.replay", None);
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let key = pick(i);
        let span = tracer.open("serve.handle", Some(root));
        let t = Instant::now();
        let reply = handle_line_pooled(&lines[key], &store, &sc, Some(&pool));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.close(span);
        samples.push(parse_sample(i, key, ms, reply.text()));
    }
    tracer.close(root);
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_per_seed() {
        let keys = universe().len();
        let lines = |seed: u64| -> Vec<usize> {
            let s = Stream::new(seed, keys);
            (0..2000).map(|i| s.key_at(i)).collect()
        };
        assert_eq!(lines(11), lines(11));
        assert_ne!(lines(11), lines(12));
        // The cold fill touches every key once, in rank order.
        assert_eq!(lines(11)[..keys], (0..keys).collect::<Vec<_>>()[..]);
        assert!(lines(11).iter().all(|&k| k < keys));
        // Byte-identical request lines for the same seed.
        let hw = compact_hw(HW_FILE).expect("hw file");
        let u = universe();
        let text = |seed: u64| -> String {
            let s = Stream::new(seed, keys);
            (0..500)
                .map(|i| request_line(&u[s.key_at(i)], &hw, true))
                .collect()
        };
        assert_eq!(text(3), text(3));
    }

    #[test]
    fn popular_keys_dominate_after_the_fill() {
        let keys = universe().len();
        let s = Stream::new(5, keys);
        let draws: Vec<usize> = (keys..keys + 10_000).map(|i| s.key_at(i)).collect();
        let top = draws.iter().filter(|&&k| k < CAPACITY).count();
        assert!(top > 8_000, "top-{CAPACITY} share {top}/10000");
        assert!(draws.iter().any(|&k| k >= CAPACITY));
    }

    #[test]
    fn samples_hash_raw_plan_bytes() {
        let a = parse_sample(
            0,
            0,
            1.0,
            "{\"ok\":true,\"cached\":false,\"plan\":{\"stats\":{\"total_cycles\":7}}}\n",
        );
        let b = parse_sample(
            1,
            0,
            1.0,
            "{\"ok\":true,\"cached\":true,\"plan\":{\"stats\":{\"total_cycles\":7}}}",
        );
        assert!(a.ok && !a.cached && b.cached);
        assert_eq!(a.cycles, Some(7));
        assert_eq!(a.plan_fp, b.plan_fp);
        assert!(hits_match_misses(&[a.clone(), b.clone()]));
        let c = Sample { plan_fp: 1, ..b };
        assert!(!hits_match_misses(&[a, c]));
    }
}
