//! Serve chaos: seeded crash/restart and overload chaos against the
//! `ad-serve` daemon itself.
//!
//! Where `fig_chaos_soak` hammers the *recovery ladder* under hardware
//! fault timelines, this harness hammers the *serving-resilience layer*
//! (DESIGN.md §16): the crash-safe plan cache and the deadline/overload
//! admission edge. Two audited chaos phases, each fully seeded:
//!
//! 1. **Crash/restart cycles.** A daemon with a persistent cache serves a
//!    seeded request mix over real TCP, then "crashes" (the store is
//!    dropped with no graceful close). Between cycles the seed may tear
//!    bytes off the WAL tail (a crash mid-append) or flip a byte inside it
//!    (silent disk corruption). The audits:
//!    - **zero corrupted hits** — every response served from the cache is
//!      byte-identical to the response that populated that key;
//!    - **zero changed re-plans** — a miss on a key planned before (its
//!      record evicted, torn or flipped) returns that key's first bytes,
//!      because a plan depends only on its request;
//!    - injected damage is *counted* (torn/corrupt records in the
//!      recovery stats), never served;
//!    - a clean restart recovers with no defects at all.
//! 2. **Slow clients + burst load.** A single-worker daemon with a small
//!    bounded queue is pinned by a slow client (connects, sends nothing),
//!    then hit with a connection burst carrying seeded deadlines. The
//!    audits:
//!    - **refusal, not timeout** — every connection hears exactly one
//!      typed line (`overloaded`, `deadline_exceeded`, or a served plan)
//!      within the read timeout; nothing hangs;
//!    - queue depth stays within the configured bound (refusal counts
//!      prove the excess was shed at the edge);
//!    - the daemon still shuts down gracefully afterwards.
//!
//! Output: a per-phase table and a `serve_chaos/v1` JSON summary via
//! `--json=`. The process exits non-zero on any audit violation.
//!
//! Flags: `--fast` (CI smoke shape: fewer seeds/cycles/requests),
//! `--seeds=N` (default 3), `--cycles=N` (restart cycles per seed,
//! default 5), `--json=PATH`. The daemon admits every plan it serves, so
//! an invariant violation while chaos runs fails the request loudly. An
//! unknown flag or a value that does not parse panics naming the flag
//! before anything runs.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use ad_bench::harness::flag_value;
use ad_bench::Table;
use ad_serve::{serve, write_line, PlanStore, ServerConfig};
use ad_util::{Json, Rng64};
use engine_model::HardwareConfig;

/// Read timeout after which a silent connection counts as a violation
/// (the daemon's contract is refuse-or-serve, never hang).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Request mix drawn from in phase 1 (model, max batch).
const MODELS: [(&str, usize); 2] = [("tiny_cnn", 3), ("tiny_branchy", 2)];

#[derive(Default)]
struct Totals {
    requests: u64,
    hits: u64,
    corrupted_hits: u64,
    changed_replans: u64,
    recovered_entries: u64,
    torn_records: u64,
    corrupt_records: u64,
    tears_injected: u64,
    flips_injected: u64,
    refused_overloaded: u64,
    refused_deadline: u64,
    served_after_queue: u64,
    timeouts: u64,
    violations: Vec<String>,
}

/// The command line (see the module docs).
struct Args {
    fast: bool,
    seeds: u64,
    cycles: u64,
    json_path: Option<String>,
}

impl Args {
    /// Parses the flags after the program name.
    ///
    /// # Panics
    ///
    /// Panics naming the flag on an unknown flag or a value that does not
    /// parse.
    fn parse(args: &[String]) -> Self {
        let fast = args.iter().any(|a| a == "--fast");
        let mut parsed = Self {
            fast,
            seeds: if fast { 2 } else { 3 },
            cycles: if fast { 3 } else { 5 },
            json_path: None,
        };
        for a in args {
            if a == "--fast" {
            } else if let Some(v) = a.strip_prefix("--seeds=") {
                parsed.seeds = flag_value("--seeds=", v);
            } else if let Some(v) = a.strip_prefix("--cycles=") {
                parsed.cycles = flag_value("--cycles=", v);
            } else if let Some(v) = a.strip_prefix("--json=") {
                parsed.json_path = Some(v.to_string());
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
        seeds,
        cycles,
        json_path,
    } = Args::parse(&args);
    let requests_per_cycle = if fast { 6 } else { 10 };
    let burst = if fast { 6 } else { 8 };

    let mut totals = Totals::default();
    for s in 0..seeds {
        let seed = 0x5E1F_C4A0 + s;
        crash_restart_cycles(seed, cycles, requests_per_cycle, &mut totals);
        overload_burst(seed, burst, &mut totals);
    }

    let mut table = Table::new(
        format!("Serve chaos — {seeds} seeds, {cycles} restart cycles each"),
        &["audit", "count"],
    );
    table.add_row(vec!["plan requests".into(), totals.requests.to_string()]);
    table.add_row(vec!["cache hits".into(), totals.hits.to_string()]);
    table.add_row(vec![
        "corrupted hits (must be 0)".into(),
        totals.corrupted_hits.to_string(),
    ]);
    table.add_row(vec![
        "re-plans with changed bytes (must be 0)".into(),
        totals.changed_replans.to_string(),
    ]);
    table.add_row(vec![
        "entries recovered across restarts".into(),
        totals.recovered_entries.to_string(),
    ]);
    table.add_row(vec![
        format!(
            "torn records dropped ({} tears injected)",
            totals.tears_injected
        ),
        totals.torn_records.to_string(),
    ]);
    table.add_row(vec![
        format!(
            "corrupt records dropped ({} flips injected)",
            totals.flips_injected
        ),
        totals.corrupt_records.to_string(),
    ]);
    table.add_row(vec![
        "overloaded refusals".into(),
        totals.refused_overloaded.to_string(),
    ]);
    table.add_row(vec![
        "deadline refusals".into(),
        totals.refused_deadline.to_string(),
    ]);
    table.add_row(vec![
        "served after queueing".into(),
        totals.served_after_queue.to_string(),
    ]);
    table.add_row(vec![
        "client timeouts (must be 0)".into(),
        totals.timeouts.to_string(),
    ]);
    table.add_row(vec![
        "violations".into(),
        totals.violations.len().to_string(),
    ]);
    table.print();
    for v in &totals.violations {
        eprintln!("VIOLATION: {v}");
    }

    if let Some(path) = &json_path {
        let body = Json::Obj(vec![
            ("schema".into(), Json::Str("serve_chaos/v1".into())),
            ("seeds".into(), Json::from(seeds)),
            ("cycles".into(), Json::from(cycles)),
            ("requests".into(), Json::from(totals.requests)),
            ("hits".into(), Json::from(totals.hits)),
            ("corrupted_hits".into(), Json::from(totals.corrupted_hits)),
            ("changed_replans".into(), Json::from(totals.changed_replans)),
            (
                "recovered_entries".into(),
                Json::from(totals.recovered_entries),
            ),
            ("torn_records".into(), Json::from(totals.torn_records)),
            ("corrupt_records".into(), Json::from(totals.corrupt_records)),
            ("tears_injected".into(), Json::from(totals.tears_injected)),
            ("flips_injected".into(), Json::from(totals.flips_injected)),
            (
                "refused_overloaded".into(),
                Json::from(totals.refused_overloaded),
            ),
            (
                "refused_deadline".into(),
                Json::from(totals.refused_deadline),
            ),
            (
                "served_after_queue".into(),
                Json::from(totals.served_after_queue),
            ),
            ("timeouts".into(), Json::from(totals.timeouts)),
            (
                "violations".into(),
                Json::Arr(
                    totals
                        .violations
                        .iter()
                        .map(|v| Json::Str(v.clone()))
                        .collect(),
                ),
            ),
        ]);
        match std::fs::write(path, body.to_pretty()) {
            Ok(()) => eprintln!("wrote serve-chaos summary to {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }

    assert!(
        totals.violations.is_empty(),
        "serve chaos found {} audit violations (see stderr)",
        totals.violations.len()
    );
}

/// The daemon settings both phases share: the small fast-test machine and
/// fast search (chaos exercises the serving layer, not search scale).
fn chaos_server_config(workers: usize, max_queue: usize) -> ServerConfig {
    ServerConfig {
        base_hw: HardwareConfig::fast_test(),
        fast: true,
        workers,
        deadline_ms: None,
        max_queue,
    }
}

/// A scratch cache directory unique to this process and seed.
fn scratch_dir(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ad-serve-chaos-{}-{seed:#x}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One line over `conn`; `None` when the read timed out or the line does
/// not parse (both audit violations at the call sites).
fn request_line(
    conn: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    req: &str,
) -> Option<Json> {
    write_line(conn, req.to_owned()).ok()?;
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    Json::parse(&line).ok()
}

/// Phase 1: crash/restart cycles with seeded torn-tail and bit-flip
/// injection between restarts.
fn crash_restart_cycles(seed: u64, cycles: u64, requests_per_cycle: u64, totals: &mut Totals) {
    let mut rng = Rng64::new(seed);
    let dir = scratch_dir(seed);
    let sc = chaos_server_config(2, 8);
    // Byte-identity ledger: request line → the plan bytes that first
    // populated its cache key. Hits and re-plans (after the key's record
    // was torn off the WAL) must both return exactly these bytes.
    let mut expected: BTreeMap<String, String> = BTreeMap::new();
    let mut torn_records = 0u64;
    let mut corrupt_records = 0u64;
    let mut tears_injected = 0u64;
    let mut flips_injected = 0u64;

    for cycle in 0..cycles {
        let store = match PlanStore::open(64, &dir) {
            Ok(s) => s,
            Err(e) => {
                totals
                    .violations
                    .push(format!("seed {seed:#x} cycle {cycle}: open failed: {e}"));
                return;
            }
        };
        if cycle > 0 {
            let ps = store.persist_stats().expect("persistent store");
            totals.recovered_entries += ps.recovered as u64;
            torn_records += ps.torn_records;
            corrupt_records += ps.corrupt_records;
        }

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        std::thread::scope(|s| {
            let server = s.spawn(|| serve(&listener, &store, &sc));
            let mut conn = TcpStream::connect(addr).expect("connect");
            conn.set_read_timeout(Some(READ_TIMEOUT)).expect("timeout");
            let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));

            for _ in 0..requests_per_cycle {
                let (model, max_batch) = MODELS[rng.below(MODELS.len())];
                let batch = 1 + rng.below(max_batch);
                let req = format!("{{\"op\":\"plan\",\"model\":\"{model}\",\"batch\":{batch}}}");
                totals.requests += 1;
                let Some(resp) = request_line(&mut conn, &mut reader, &req) else {
                    totals.timeouts += 1;
                    totals.violations.push(format!(
                        "seed {seed:#x} cycle {cycle}: no response to {req}"
                    ));
                    continue;
                };
                if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                    totals.violations.push(format!(
                        "seed {seed:#x} cycle {cycle}: {req} failed: {resp:?}"
                    ));
                    continue;
                }
                let plan = resp.get("plan").map(|p| p.to_compact()).unwrap_or_default();
                if resp.get("cached").and_then(Json::as_bool) == Some(true) {
                    totals.hits += 1;
                    // The audit this harness exists for: a hit — in
                    // particular one recovered across a crash — must be
                    // byte-identical to the response that created the key.
                    match expected.get(&req) {
                        Some(want) if *want == plan => {}
                        Some(_) => {
                            totals.corrupted_hits += 1;
                            totals.violations.push(format!(
                                "seed {seed:#x} cycle {cycle}: CORRUPTED HIT for {req}"
                            ));
                        }
                        None => {
                            totals.violations.push(format!(
                                "seed {seed:#x} cycle {cycle}: hit for never-planned {req}"
                            ));
                        }
                    }
                } else {
                    match expected.get(&req) {
                        None => {
                            expected.insert(req, plan);
                        }
                        Some(want) if *want == plan => {}
                        Some(_) => {
                            totals.changed_replans += 1;
                            totals.violations.push(format!(
                                "seed {seed:#x} cycle {cycle}: RE-PLAN CHANGED BYTES for {req}"
                            ));
                        }
                    }
                }
            }

            let bye = request_line(&mut conn, &mut reader, "{\"op\":\"shutdown\"}");
            if bye.and_then(|b| b.get("ok").and_then(Json::as_bool)) != Some(true) {
                totals.violations.push(format!(
                    "seed {seed:#x} cycle {cycle}: shutdown not acknowledged"
                ));
            }
            server.join().expect("server thread").expect("serve loop");
        });

        // Crash: the store is dropped with no graceful close, then the
        // seed may damage the WAL the way a crash or a disk would.
        drop(store);
        let damage = rng.below(3); // 0 = clean restart
        if damage == 1 && tear_wal_tail(&dir, &mut rng) {
            tears_injected += 1;
        } else if damage == 2 && flip_wal_byte(&dir, &mut rng) {
            flips_injected += 1;
        }
    }

    // Final audit reopen, so damage injected after the last serving cycle
    // is still inspected.
    match PlanStore::open(64, &dir) {
        Ok(store) => {
            let ps = store.persist_stats().expect("persistent store");
            totals.recovered_entries += ps.recovered as u64;
            torn_records += ps.torn_records;
            corrupt_records += ps.corrupt_records;
        }
        Err(e) => totals
            .violations
            .push(format!("seed {seed:#x}: final audit open failed: {e}")),
    }

    // Injected damage must have been detected and counted, never absorbed
    // silently: a tear always tears ≥ 1 record, and a bit flip lands under
    // a checksum, so it defects ≥ 1 record as torn or corrupt.
    if torn_records < tears_injected
        || torn_records + corrupt_records < tears_injected + flips_injected
    {
        totals.violations.push(format!(
            "seed {seed:#x}: injected {tears_injected} tears / {flips_injected} flips \
             but recovery counted {torn_records} torn / {corrupt_records} corrupt"
        ));
    }
    totals.torn_records += torn_records;
    totals.corrupt_records += corrupt_records;
    totals.tears_injected += tears_injected;
    totals.flips_injected += flips_injected;
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chops 1–7 bytes off the WAL tail (a crash mid-append). Returns whether
/// anything was torn (an empty WAL is left alone).
fn tear_wal_tail(dir: &Path, rng: &mut Rng64) -> bool {
    let wal = dir.join("plans.wal");
    let Ok(meta) = std::fs::metadata(&wal) else {
        return false;
    };
    if meta.len() < 13 {
        return false; // empty or sub-record WAL: nothing to tear
    }
    let cut = 1 + rng.below(7) as u64;
    let Ok(f) = std::fs::OpenOptions::new().write(true).open(&wal) else {
        return false;
    };
    f.set_len(meta.len() - cut).is_ok()
}

/// Flips one bit somewhere in the WAL body (silent disk corruption).
/// Returns whether a byte was flipped.
fn flip_wal_byte(dir: &Path, rng: &mut Rng64) -> bool {
    let wal = dir.join("plans.wal");
    let Ok(mut buf) = std::fs::read(&wal) else {
        return false;
    };
    if buf.is_empty() {
        return false;
    }
    let pos = rng.below(buf.len());
    buf[pos] ^= 1 << rng.below(8);
    std::fs::write(&wal, &buf).is_ok()
}

/// Phase 2: a slow client pins the single worker, a burst overflows the
/// bounded queue, and seeded deadlines split the queued survivors into
/// served and refused — all audited as refuse-or-serve, never hang.
fn overload_burst(seed: u64, burst: usize, totals: &mut Totals) {
    let mut rng = Rng64::new(seed ^ 0xB0_0B57);
    let store = PlanStore::new(16);
    let max_queue = 2;
    let sc = chaos_server_config(1, max_queue);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");

    let mut refused_overloaded = 0u64;
    let mut refused_deadline = 0u64;
    let mut served_after_queue = 0u64;

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(&listener, &store, &sc));

        // The slow client: accepted first, so the FIFO queue hands it to
        // the only worker before anything else — which then parks reading
        // a connection that never speaks, for the whole burst.
        let slow = TcpStream::connect(addr).expect("connect slow client");

        // The burst: every connection sends one plan line with a seeded
        // deadline; the queue holds `max_queue`, the rest must be shed.
        let mut clients = Vec::new();
        for _ in 0..burst {
            let mut conn = TcpStream::connect(addr).expect("connect burst client");
            conn.set_read_timeout(Some(READ_TIMEOUT)).expect("timeout");
            let deadline_ms = if rng.chance(0.5) { 0 } else { 60_000 };
            let req =
                format!("{{\"op\":\"plan\",\"model\":\"tiny_cnn\",\"deadline_ms\":{deadline_ms}}}");
            write_line(&mut conn, req).expect("send burst request");
            totals.requests += 1;
            clients.push(conn);
        }

        // Give the burst's zero-deadline clocks time to age, then release
        // the worker so the queue drains.
        std::thread::sleep(Duration::from_millis(10));
        drop(slow);

        for (i, conn) in clients.into_iter().enumerate() {
            let mut reader = BufReader::new(conn);
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => {
                    totals.timeouts += 1;
                    totals.violations.push(format!(
                        "seed {seed:#x}: burst client {i} timed out instead of being refused"
                    ));
                    continue;
                }
            }
            let Ok(doc) = Json::parse(&line) else {
                totals.violations.push(format!(
                    "seed {seed:#x}: burst client {i} got unparseable {line:?}"
                ));
                continue;
            };
            match doc.get("refused").and_then(Json::as_str) {
                Some("overloaded") => refused_overloaded += 1,
                Some("deadline_exceeded") => refused_deadline += 1,
                Some(other) => totals.violations.push(format!(
                    "seed {seed:#x}: burst client {i} got unexpected refusal `{other}`"
                )),
                None => {
                    if doc.get("ok").and_then(Json::as_bool) == Some(true) {
                        served_after_queue += 1;
                    } else {
                        totals.violations.push(format!(
                            "seed {seed:#x}: burst client {i} got error line {line:?}"
                        ));
                    }
                }
            }
        }

        // The queue bound held: at most `max_queue` burst clients were
        // queued (plus possibly the slow client for an instant), so at
        // least `burst - max_queue` were shed at the edge.
        if (refused_overloaded as usize) < burst.saturating_sub(max_queue + 1) {
            totals.violations.push(format!(
                "seed {seed:#x}: only {refused_overloaded} overload refusals for a \
                 burst of {burst} over a queue of {max_queue}"
            ));
        }

        // Still healthy: a fresh connection shuts the daemon down.
        let mut conn = TcpStream::connect(addr).expect("connect for shutdown");
        conn.set_read_timeout(Some(READ_TIMEOUT)).expect("timeout");
        let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
        let bye = request_line(&mut conn, &mut reader, "{\"op\":\"shutdown\"}");
        if bye.and_then(|b| b.get("ok").and_then(Json::as_bool)) != Some(true) {
            totals.violations.push(format!(
                "seed {seed:#x}: post-burst shutdown not acknowledged"
            ));
        }
        server.join().expect("server thread").expect("serve loop");
    });

    totals.refused_overloaded += refused_overloaded;
    totals.refused_deadline += refused_deadline;
    totals.served_after_queue += served_after_queue;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        Args::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn ci_flags_parse() {
        let a = parse(&["--fast", "--json=serve_chaos_ci.json"]);
        assert!(a.fast);
        assert_eq!((a.seeds, a.cycles), (2, 3));
        assert_eq!(a.json_path.as_deref(), Some("serve_chaos_ci.json"));
    }

    #[test]
    #[should_panic(expected = "unknown flag `--seed=3`")]
    fn misspelt_seeds_rejected() {
        parse(&["--seed=3"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag `--validate`")]
    fn retired_validate_flag_rejected() {
        parse(&["--validate", "deny"]);
    }
}
