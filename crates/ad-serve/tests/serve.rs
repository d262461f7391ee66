//! End-to-end tests of the plan-serving layer: cache-hit byte identity
//! against the real pipeline, plans independent of the store's history,
//! and a full daemon round trip over TCP.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use ad_serve::{serve, write_line, PlanStore, ServerConfig, MAX_REQUEST_BYTES};
use ad_util::Json;
use atomic_dataflow::{request, OptimizerConfig, PlanRequest, Strategy};
use dnn_graph::models;
use engine_model::HardwareConfig;

#[allow(clippy::expect_used)] // test helper; clippy only auto-exempts #[test] fns
fn fast_cfg() -> OptimizerConfig {
    OptimizerConfig::for_hardware(&HardwareConfig::fast_test())
        .expect("built-in fast-test hardware config is valid")
        .with_fast_search()
}

/// A cache hit must return the cold response's plan payload byte-for-byte,
/// without re-running any pipeline stage (the miss counter stays at 1).
#[test]
fn cache_hit_is_byte_identical_to_cold_plan() {
    let store = PlanStore::new(8);
    let g = models::tiny_branchy();
    let cfg = fast_cfg();

    let cold = store
        .get_or_plan(&g, cfg, Strategy::AtomicDataflow)
        .expect("cold plan succeeds");
    assert!(!cold.cached);

    let hit = store
        .get_or_plan(&g, cfg, Strategy::AtomicDataflow)
        .expect("cache hit succeeds");
    assert!(hit.cached);
    assert_eq!(cold.plan, hit.plan, "hit must be byte-identical to cold");
    assert_eq!(cold.graph_fp, hit.graph_fp);
    assert_eq!(cold.config_fp, hit.config_fp);

    let stats = store.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
}

/// Different strategies at the same graph/hardware are distinct cache keys.
#[test]
fn strategies_do_not_collide_in_the_cache() {
    let store = PlanStore::new(8);
    let g = models::tiny_branchy();
    let cfg = fast_cfg();

    let ad = store
        .get_or_plan(&g, cfg, Strategy::AtomicDataflow)
        .expect("AD plans");
    let ls = store
        .get_or_plan(&g, cfg, Strategy::LayerSequential)
        .expect("LS plans");
    assert_ne!(ad.config_fp, ls.config_fp);
    assert!(!ls.cached, "a new strategy must not hit the AD entry");
    assert_eq!(store.stats().misses, 2);
}

/// A served plan depends only on its request: a store that planned the
/// same graph at batches 1–3 first returns, for batch 4, exactly the bytes
/// a fresh store and an in-process `request::plan` return.
#[test]
fn served_plan_does_not_depend_on_store_history() {
    let hw = HardwareConfig::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../configs/edge_4x4.json"
    ))
    .expect("edge config loads");
    let cfg = |batch: usize| {
        OptimizerConfig::for_hardware(&hw)
            .expect("edge config is valid")
            .with_fast_search()
            .with_batch(batch)
    };
    let g = models::tiny_branchy();

    let a = PlanStore::new(8);
    for batch in 1..=3 {
        a.get_or_plan(&g, cfg(batch), Strategy::AtomicDataflow)
            .expect("history plan succeeds");
    }
    let after_history = a
        .get_or_plan(&g, cfg(4), Strategy::AtomicDataflow)
        .expect("batch-4 plan after history succeeds");
    let fresh = PlanStore::new(8)
        .get_or_plan(&g, cfg(4), Strategy::AtomicDataflow)
        .expect("batch-4 plan on a fresh store succeeds");
    let direct = request::plan(&PlanRequest::new(&g, cfg(4))).expect("request::plan succeeds");

    assert!(!after_history.cached && !fresh.cached);
    assert_eq!(fresh.plan, direct.plan, "fresh store");
    assert_eq!(after_history.plan, direct.plan, "store with history");
}

#[allow(clippy::expect_used)] // test helper; clippy only auto-exempts #[test] fns
fn roundtrip(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str) -> Json {
    write_line(conn, req.to_owned()).expect("send request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    Json::parse(&line).expect("response parses")
}

/// Full daemon round trip: plan twice over TCP, assert the second response
/// is a cache hit carrying an identical plan document, then shut down and
/// join the server (no thread outlives `serve`).
#[test]
fn daemon_serves_cache_hits_over_tcp() {
    let store = PlanStore::new(8);
    let sc = ServerConfig {
        base_hw: HardwareConfig::fast_test(),
        fast: true,
        workers: 2,
        ..ServerConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(&listener, &store, &sc));
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));

        let req = "{\"op\":\"plan\",\"model\":\"tiny_branchy\"}";
        let r1 = roundtrip(&mut conn, &mut reader, req);
        assert_eq!(r1.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(r1.get("cached").and_then(Json::as_bool), Some(false));

        let r2 = roundtrip(&mut conn, &mut reader, req);
        assert_eq!(r2.get("cached").and_then(Json::as_bool), Some(true));
        let p1 = r1.get("plan").expect("cold plan document").to_compact();
        let p2 = r2.get("plan").expect("hit plan document").to_compact();
        assert_eq!(p1, p2, "hit must carry the identical plan document");

        let st = roundtrip(&mut conn, &mut reader, "{\"op\":\"stats\"}");
        let stats = st.get("stats").expect("stats payload");
        assert_eq!(stats.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("misses").and_then(Json::as_u64), Some(1));

        let bye = roundtrip(&mut conn, &mut reader, "{\"op\":\"shutdown\"}");
        assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
        server
            .join()
            .expect("server thread")
            .expect("serve loop exits cleanly");
    });
}

/// Threads of this process, per the kernel (`/proc/self/task` has one
/// entry per live thread).
#[cfg(target_os = "linux")]
fn os_thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// The daemon's thread budget is fixed at startup: the accept loop plus
/// `workers` pool runners, shared between connection handling and every
/// request's planning fan-out. A sequence of planning misses must not grow
/// the process thread count past that budget — a busy daemon never spawns
/// threads per request.
#[test]
#[cfg(target_os = "linux")]
fn daemon_thread_count_stays_bounded_across_planning_misses() {
    let store = PlanStore::new(8);
    let sc = ServerConfig {
        base_hw: HardwareConfig::fast_test(),
        fast: true,
        workers: 2,
        ..ServerConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let before = os_thread_count();

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(&listener, &store, &sc));
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));

        // The server thread itself plus the pool's `workers` spawned
        // runners (the accept loop occupies the pool's caller slot).
        let budget = before + 1 + sc.workers;
        for batch in 1..=4 {
            let req = format!("{{\"op\":\"plan\",\"model\":\"tiny_cnn\",\"batch\":{batch}}}");
            let r = roundtrip(&mut conn, &mut reader, &req);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{req}");
            assert_eq!(
                r.get("cached").and_then(Json::as_bool),
                Some(false),
                "each batch is a new cache key: the daemon must have planned"
            );
            let now = os_thread_count();
            assert!(
                now <= budget,
                "thread count {now} exceeds budget {budget} after a planning miss"
            );
        }
        assert_eq!(store.stats().misses, 4);

        let bye = roundtrip(&mut conn, &mut reader, "{\"op\":\"shutdown\"}");
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        server
            .join()
            .expect("server thread")
            .expect("serve loop exits cleanly");
    });
}

/// Overload shedding, deadline admission, and graceful drain, exercised
/// deterministically with a single worker:
///
/// 1. Connection A occupies the only worker (it stays open after a
///    round trip, so the worker is parked reading its next line).
/// 2. B, D, F queue up (bound 3) with their request lines pre-written:
///    B carries `deadline_ms: 0`, D a shutdown, F an ordinary plan.
/// 3. C arrives with the queue full → typed `overloaded` refusal.
/// 4. Closing A releases the worker: B has aged past its zero deadline in
///    the queue → typed `deadline_exceeded` refusal (not a timeout —
///    the client hears back immediately). D's shutdown is honored.
/// 5. F was still queued when shutdown began → typed `shutting_down`
///    refusal; nothing is served after the drain starts.
#[test]
fn daemon_sheds_overload_and_drains_with_typed_refusals() {
    let store = PlanStore::new(8);
    let sc = ServerConfig {
        base_hw: HardwareConfig::fast_test(),
        fast: true,
        workers: 1,
        max_queue: 3,
        ..ServerConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");

    let refused = |doc: &Json| {
        doc.get("refused")
            .and_then(Json::as_str)
            .map(str::to_string)
    };

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(&listener, &store, &sc));

        // A: one planned request, then hold the connection (and worker).
        let mut a = TcpStream::connect(addr).expect("connect A");
        let mut a_reader = BufReader::new(a.try_clone().expect("clone A"));
        let r = roundtrip(
            &mut a,
            &mut a_reader,
            "{\"op\":\"plan\",\"model\":\"tiny_cnn\"}",
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));

        // B, D, F fill the queue in order (the accept loop is serial, so
        // connect order is queue order). Their lines sit in the socket
        // buffers until the worker frees up.
        let mut b = TcpStream::connect(addr).expect("connect B");
        write_line(
            &mut b,
            r#"{"op":"plan","model":"tiny_cnn","deadline_ms":0}"#.to_owned(),
        )
        .expect("send B");
        let mut d = TcpStream::connect(addr).expect("connect D");
        write_line(&mut d, r#"{"op":"shutdown"}"#.to_owned()).expect("send D");
        let mut f = TcpStream::connect(addr).expect("connect F");
        write_line(&mut f, r#"{"op":"plan","model":"tiny_cnn"}"#.to_owned()).expect("send F");

        // C: the queue is full, so the accept loop refuses immediately —
        // C hears a typed `overloaded` line within its deadline, not a
        // timeout.
        let c = TcpStream::connect(addr).expect("connect C");
        let mut line = String::new();
        BufReader::new(c).read_line(&mut line).expect("read C");
        let doc = Json::parse(&line).expect("C refusal parses");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(refused(&doc), Some("overloaded".into()));

        // Let B's accept-time clock age past its zero deadline, then free
        // the worker.
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(a_reader);
        drop(a);

        // B queued longer than its deadline allowed: typed refusal that
        // names how long it actually waited.
        let mut line = String::new();
        let mut b_reader = BufReader::new(b.try_clone().expect("clone B"));
        b_reader.read_line(&mut line).expect("read B");
        let doc = Json::parse(&line).expect("B refusal parses");
        assert_eq!(refused(&doc), Some("deadline_exceeded".into()));
        drop(b_reader);
        drop(b);

        // D's shutdown is in flight when the drain starts: it completes.
        let mut line = String::new();
        BufReader::new(d).read_line(&mut line).expect("read D");
        let doc = Json::parse(&line).expect("D response parses");
        assert_eq!(doc.get("shutdown").and_then(Json::as_bool), Some(true));

        // F was queued behind the shutdown: refused, never served.
        let mut line = String::new();
        BufReader::new(f).read_line(&mut line).expect("read F");
        let doc = Json::parse(&line).expect("F refusal parses");
        assert_eq!(refused(&doc), Some("shutting_down".into()));

        server
            .join()
            .expect("server thread")
            .expect("serve loop exits cleanly");
    });

    // Only A's request ever reached the planner.
    assert_eq!(store.stats().misses, 1);
}

/// Malformed requests get an `ok:false` error line and never touch the
/// planner; the connection stays usable afterwards.
#[test]
fn daemon_reports_errors_without_dropping_the_connection() {
    let store = PlanStore::new(8);
    let sc = ServerConfig {
        base_hw: HardwareConfig::fast_test(),
        fast: true,
        workers: 1,
        ..ServerConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(&listener, &store, &sc));
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));

        let bad = roundtrip(
            &mut conn,
            &mut reader,
            "{\"op\":\"plan\",\"model\":\"alexnet\"}",
        );
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
        assert!(bad.get("error").and_then(Json::as_str).is_some());
        assert_eq!(store.stats().misses, 0, "bad requests must not plan");

        let good = roundtrip(
            &mut conn,
            &mut reader,
            "{\"op\":\"plan\",\"model\":\"tiny_cnn\"}",
        );
        assert_eq!(good.get("ok").and_then(Json::as_bool), Some(true));

        let bye = roundtrip(&mut conn, &mut reader, "{\"op\":\"shutdown\"}");
        assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
        server
            .join()
            .expect("server thread")
            .expect("serve loop exits cleanly");
    });
}

/// One line the daemon cannot afford never takes it down: a request
/// nested 20 000 levels deep gets a bad-JSON error on a connection that
/// stays usable, and a line past `MAX_REQUEST_BYTES` gets a typed
/// `line_too_long` refusal before its connection is closed. The daemon
/// answers `stats` on a fresh connection afterwards.
#[test]
fn daemon_survives_deep_and_over_long_request_lines() {
    let store = PlanStore::new(8);
    let sc = ServerConfig {
        base_hw: HardwareConfig::fast_test(),
        fast: true,
        workers: 2,
        ..ServerConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");

    std::thread::scope(|s| {
        let server = s.spawn(|| serve(&listener, &store, &sc));
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));

        let deep = roundtrip(&mut conn, &mut reader, &"[".repeat(20_000));
        assert_eq!(deep.get("ok").and_then(Json::as_bool), Some(false));
        let st = roundtrip(&mut conn, &mut reader, "{\"op\":\"stats\"}");
        assert_eq!(st.get("ok").and_then(Json::as_bool), Some(true));

        // One byte past the bound, sent without a newline: the daemon
        // refuses once it has read exactly the bound plus one byte.
        conn.write_all(" ".repeat(MAX_REQUEST_BYTES + 1).as_bytes())
            .expect("send over-long line");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read refusal");
        let long = Json::parse(&line).expect("refusal parses");
        assert_eq!(long.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            long.get("refused").and_then(Json::as_str),
            Some("line_too_long")
        );
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).expect("read after refusal"),
            0,
            "the daemon closes the connection after the refusal"
        );

        let mut conn = TcpStream::connect(addr).expect("reconnect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));
        let st = roundtrip(&mut conn, &mut reader, "{\"op\":\"stats\"}");
        assert_eq!(st.get("ok").and_then(Json::as_bool), Some(true));
        let bye = roundtrip(&mut conn, &mut reader, "{\"op\":\"shutdown\"}");
        assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
        server
            .join()
            .expect("server thread")
            .expect("serve loop exits cleanly");
    });
}

/// A cache hit is answered in well under a millisecond, so its round trip
/// over loopback must not wait on the peer's delayed ACK (≈ 40 ms on
/// Linux): every line goes out in one write and accepted sockets are
/// `TCP_NODELAY`. Linux acknowledges at once during a connection's first
/// exchanges (quick-ACK), which hides the stall, so the timed hits follow
/// 30 untimed ones on the same connection.
#[test]
fn served_hits_do_not_wait_for_a_delayed_ack() {
    let store = PlanStore::new(8);
    let sc = ServerConfig {
        base_hw: HardwareConfig::fast_test(),
        fast: true,
        workers: 1,
        ..ServerConfig::default()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");

    // Assertions wait until the daemon has been shut down and joined: a
    // panic inside the scope would leave `serve` running and hang the test.
    let (ok, mut ms) = std::thread::scope(|s| {
        let server = s.spawn(|| serve(&listener, &store, &sc));
        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone stream"));

        let req = "{\"op\":\"plan\",\"model\":\"tiny_cnn\"}";
        let mut ok = true;
        let mut hit = || {
            let t0 = std::time::Instant::now();
            let r = roundtrip(&mut conn, &mut reader, req);
            ok &= r.get("ok").and_then(Json::as_bool) == Some(true);
            t0.elapsed().as_secs_f64() * 1e3
        };
        hit(); // the miss
        for _ in 0..30 {
            hit();
        }
        let ms: Vec<f64> = (0..50).map(|_| hit()).collect();

        let bye = roundtrip(&mut conn, &mut reader, "{\"op\":\"shutdown\"}");
        ok &= bye.get("shutdown").and_then(Json::as_bool) == Some(true);
        server
            .join()
            .expect("server thread")
            .expect("serve loop exits cleanly");
        (ok, ms)
    });
    assert!(ok, "every request and the shutdown were answered ok");
    assert_eq!(store.stats().misses, 1, "every timed request was a hit");
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    assert!(
        median < 10.0,
        "median hit round trip {median:.2} ms: a line waited on a delayed ACK"
    );
}
