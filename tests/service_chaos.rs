//! Chaos tests for the serving tier: concurrent clients against a server
//! whose every connection runs through the deterministic network fault
//! injector, plus the self-defence behaviors — brownout, idle/oversize
//! eviction, and SIGTERM drain-then-cancel.
//!
//! Every test here serializes on one lock: the SIGTERM tests flip a
//! *process-global* signal latch that would stop every other test's
//! server if they ran on parallel test threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use mwsj_core::mapreduce::{FaultPlan, NetFaultPlan};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinRun};
use mwsj_geom::Rect;
use mwsj_query::Query;
use mwsj_server::json::{self, Json};
use mwsj_server::source::load_source;
use mwsj_server::{signal, Client, Server, ServerConfig};

/// The space every test server uses (the `ServerConfig` default).
const EXTENT: f64 = 100_000.0;

/// Serializes the whole suite (see module docs). Poisoning is harmless —
/// the lock carries no data.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    signal::reset(); // a prior test's latch must not stop this one's server
    guard
}

fn start(config: ServerConfig) -> (String, thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// Stops a server whose connections may be fault-injected: keeps sending
/// `shutdown` on fresh connections until the accept loop exits.
fn stop_resilient(addr: &str, handle: thread::JoinHandle<()>) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !handle.is_finished() {
        if let Ok(mut c) = Client::connect(addr) {
            let _ = c.request("{\"op\":\"shutdown\"}");
        }
        assert!(Instant::now() < deadline, "server did not stop");
        thread::sleep(Duration::from_millis(50));
    }
    handle.join().expect("server thread");
}

/// Retrieves `stats` through injected faults: keeps asking on fresh
/// connections until an intact `ok` reply arrives.
fn stats_resilient(addr: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let reply = Client::connect(addr)
            .and_then(|mut c| c.request("{\"op\":\"stats\"}"))
            .ok()
            .and_then(|text| json::parse(&text).ok());
        if let Some(stats) = reply.filter(|s| s.get("ok").and_then(Json::as_bool) == Some(true)) {
            return stats;
        }
        assert!(Instant::now() < deadline, "no intact stats reply");
        thread::sleep(Duration::from_millis(20));
    }
}

fn query_line(query: &str, data: &[(&str, &str)], extra: &str) -> String {
    let bindings: Vec<String> = data
        .iter()
        .map(|(name, spec)| format!("\"{name}\":\"{spec}\""))
        .collect();
    format!(
        "{{\"op\":\"query\",\"query\":\"{query}\",\"data\":{{{}}}{extra}}}",
        bindings.join(",")
    )
}

fn tuples_of(doc: &Json) -> Vec<Vec<u32>> {
    doc.get("tuples")
        .and_then(Json::as_arr)
        .expect("tuples array")
        .iter()
        .map(|t| {
            t.as_arr()
                .expect("tuple")
                .iter()
                .map(|v| {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let id = v.as_f64().expect("id") as u32;
                    id
                })
                .collect()
        })
        .collect()
}

/// Ground truth: the same query run directly on a private cluster with
/// the service's space and grid.
fn direct(query: &str, specs: &[&str]) -> (Vec<Vec<u32>>, u64) {
    let q = Query::parse(query).expect("query");
    let datasets: Vec<Vec<Rect>> = specs
        .iter()
        .map(|s| load_source(s).expect("load"))
        .collect();
    let refs: Vec<&[Rect]> = datasets.iter().map(Vec::as_slice).collect();
    let cluster = Cluster::new(ClusterConfig::for_space((0.0, EXTENT), (0.0, EXTENT), 8));
    let out = cluster
        .submit(&JoinRun::new(&q, &refs).algorithm(Algorithm::ControlledReplicate))
        .expect("direct join");
    (out.tuples, out.tuple_count)
}

const A: &str = "synthetic:n=800,seed=11,extent=5000,lmax=300";
const B: &str = "synthetic:n=800,seed=12,extent=5000,lmax=300";
const C: &str = "synthetic:n=800,seed=13,extent=5000,lmax=300";

/// The tentpole assertion: under a pinned network-fault seed, concurrent
/// clients either become casualties (typed error, timeout, dead
/// connection) or *survivors* — and every survivor's response is
/// byte-identical to a direct `Cluster::submit` of its query. Afterwards
/// no scheduler slot may be leaked.
#[test]
fn chaos_survivors_get_byte_identical_results_and_no_slots_leak() {
    let _guard = serial();
    let queries: [(&str, [&str; 2]); 2] = [
        ("A ov B", [A, B]),
        ("A ov B", [B, C]), // same shape, different data
    ];
    let expected: Vec<(Vec<Vec<u32>>, u64)> =
        queries.iter().map(|(q, specs)| direct(q, specs)).collect();
    assert!(expected.iter().all(|(_, n)| *n > 0));

    let (addr, h) = start(
        ServerConfig::default()
            .with_slots(4)
            .with_admission(8, 8)
            .with_net_faults(NetFaultPlan::chaos(4242, 0.04)),
    );

    let survivors = AtomicUsize::new(0);
    let casualties = AtomicUsize::new(0);
    let mismatches = AtomicUsize::new(0);
    thread::scope(|scope| {
        for client_id in 0..8usize {
            let (query, specs) = &queries[client_id % queries.len()];
            let (want_tuples, want_count) = &expected[client_id % queries.len()];
            let addr = addr.clone();
            let line = query_line(
                query,
                &[("A", specs[0]), ("B", specs[1])],
                ",\"algorithm\":\"crep\"",
            );
            let survivors = &survivors;
            let casualties = &casualties;
            let mismatches = &mismatches;
            scope.spawn(move || {
                // Each attempt uses a fresh connection: a torn frame or
                // injected disconnect kills the old one for good.
                for _ in 0..6 {
                    let Ok(mut c) = Client::connect(&addr) else {
                        continue;
                    };
                    let Ok(text) = c.request(&line) else {
                        continue;
                    };
                    let Ok(doc) = json::parse(&text) else {
                        // A response mangled in flight would show up here —
                        // but corruption is inbound-only by design, so a
                        // parse failure is a real bug.
                        mismatches.fetch_add(1, Ordering::Relaxed);
                        return;
                    };
                    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
                        // Typed error (e.g. a corrupted request byte made
                        // it a bad_request, or admission shed it). Retry.
                        continue;
                    }
                    let count = doc.get("tuple_count").and_then(Json::as_f64);
                    #[allow(clippy::cast_precision_loss)]
                    let count_ok = count == Some(*want_count as f64);
                    if tuples_of(&doc) == *want_tuples && count_ok {
                        survivors.fetch_add(1, Ordering::Relaxed);
                    } else {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                    return;
                }
                casualties.fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "every ok-response must be byte-identical to the direct run"
    );
    assert!(
        survivors.load(Ordering::Relaxed) >= 1,
        "a 4% fault rate with 6 attempts must leave survivors \
         ({} casualties)",
        casualties.load(Ordering::Relaxed)
    );

    // No leaked scheduler slots: casualties' cancelled runs and injected
    // disconnects must all hand their slots back.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = stats_resilient(&addr);
        let slots = stats.get("slots").and_then(Json::as_f64).expect("slots");
        let available = stats
            .get("slots_available")
            .and_then(Json::as_f64)
            .expect("slots_available");
        if available == slots {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "scheduler slots leaked under chaos: {stats:?}"
        );
        thread::sleep(Duration::from_millis(50));
    }
    stop_resilient(&addr, h);
}

/// A deliberately heavy request that occupies the join slot for a while.
fn heavy_line(extra: &str) -> String {
    query_line(
        "X ov Y and Y ov Z",
        &[
            ("X", "synthetic:n=300000,seed=31,lmax=250"),
            ("Y", "synthetic:n=300000,seed=32,lmax=250"),
            ("Z", "synthetic:n=300000,seed=33,lmax=250"),
        ],
        extra,
    )
}

/// Brownout: once admission sheds, the service keeps serving cache hits
/// but sheds further misses *immediately* — bounding miss latency while
/// overloaded instead of queueing them behind a saturated engine.
#[test]
fn brownout_serves_cache_hits_and_sheds_misses_fast() {
    let _guard = serial();
    let (addr, h) = start(
        ServerConfig::default()
            .with_slots(2)
            .with_admission(1, 0)
            .with_brownout_window(Duration::from_secs(10)),
    );

    // Prime the cache, and pre-generate the heavy datasets (the 1 ms
    // deadline kills that join immediately).
    let hit_line = query_line("A ov B", &[("A", A), ("B", B)], "");
    {
        let mut c = Client::connect(&addr).expect("connect");
        let warm = c.request(&hit_line).expect("prime cache");
        assert!(warm.contains("\"ok\":true"));
        let _ = c.request(&heavy_line(",\"deadline_ms\":1"));
    }

    // Occupy the only admission slot.
    let occupant = thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::connect(&addr).expect("occupant connect");
            c.request(&heavy_line(",\"algorithm\":\"crep\",\"deadline_ms\":8000"))
                .expect("occupant response")
        }
    });
    thread::sleep(Duration::from_millis(300));

    let mut c = Client::connect(&addr).expect("connect");
    // First miss is shed by the full queue — this arms the brownout.
    let miss_line = query_line("B ov C", &[("B", B), ("C", C)], "");
    let first = json::parse(&c.request(&miss_line).expect("shed response")).unwrap();
    assert_eq!(
        first.get("error").and_then(Json::as_str),
        Some("overloaded")
    );

    // In brownout: misses shed fast, hits still serve.
    for _ in 0..3 {
        let t0 = Instant::now();
        let doc = json::parse(&c.request(&miss_line).expect("brownout response")).unwrap();
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("overloaded"));
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "brownout sheds must not wait on the engine"
        );
    }
    let hit = json::parse(&c.request(&hit_line).expect("hit response")).unwrap();
    assert_eq!(hit.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));

    let stats = json::parse(&c.request("{\"op\":\"stats\"}").expect("stats")).unwrap();
    assert!(
        stats
            .get("brownout_sheds")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 3.0,
        "brownout sheds must be counted separately: {stats:?}"
    );
    assert_eq!(stats.get("brownout").and_then(Json::as_bool), Some(true));

    occupant.join().expect("occupant thread");
    stop_resilient(&addr, h);
}

/// SIGTERM drain, the happy path: a request in flight when the signal
/// lands still gets its complete `ok` response, then the server exits.
#[test]
fn sigterm_drains_in_flight_requests_to_completion() {
    let _guard = serial();
    let (addr, h) = start(ServerConfig::default().with_drain_deadline(Duration::from_secs(60)));

    // A query heavy enough to still be running when SIGTERM lands.
    let in_flight = thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.request(&query_line(
                "X ov Y",
                &[
                    ("X", "synthetic:n=150000,seed=41,lmax=250"),
                    ("Y", "synthetic:n=150000,seed=42,lmax=250"),
                ],
                "",
            ))
            .expect("in-flight response")
        }
    });
    thread::sleep(Duration::from_millis(150));
    signal::request_shutdown(); // what the SIGTERM handler does

    let response = in_flight.join().expect("in-flight thread");
    let doc = json::parse(&response).expect("in-flight json");
    assert_eq!(
        doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "a request in flight during drain must complete: {response}"
    );

    let deadline = Instant::now() + Duration::from_secs(30);
    while !h.is_finished() {
        assert!(Instant::now() < deadline, "server did not exit after drain");
        thread::sleep(Duration::from_millis(20));
    }
    h.join().expect("clean exit");
    signal::reset();
}

/// SIGTERM drain, the deadline path: a join still running at the drain
/// deadline is cancelled through the engine's token and the client gets a
/// typed `cancelled` response — not a hung connection.
///
/// The join is held, not assumed slow: it is pinned to a shuffle
/// algorithm, and every task attempt of the server's engine straggles,
/// sleeping out at least a tenth of `straggler_delay`
/// (`FaultInjector::straggler_delay`) — 600 ms, past the 400 ms + 100 ms
/// at which the deadline fires — and an attempt is only over when that
/// sleep is. However fast joins get, this one outlives the deadline.
#[test]
fn short_drain_deadline_cancels_stragglers_with_typed_errors() {
    let _guard = serial();
    let mut hold = FaultPlan::none();
    hold.straggler_rate = 1.0;
    hold.straggler_delay = Duration::from_secs(6);
    let (addr, h) = start(
        ServerConfig::default()
            .with_slots(4)
            .with_drain_deadline(Duration::from_millis(100))
            .with_engine_faults(hold),
    );

    let straggler = thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::connect(&addr).expect("connect");
            let line = query_line("A ov B", &[("A", A), ("B", B)], ",\"algorithm\":\"crep\"");
            c.request(&line).expect("straggler response")
        }
    });
    thread::sleep(Duration::from_millis(400)); // join is now in flight
    signal::request_shutdown();

    let response = straggler.join().expect("straggler thread");
    let doc = json::parse(&response).expect("straggler json");
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("error").and_then(Json::as_str),
        Some("cancelled"),
        "drain-deadline cancellation must be typed: {response}"
    );

    let deadline = Instant::now() + Duration::from_secs(30);
    while !h.is_finished() {
        assert!(Instant::now() < deadline, "server did not exit");
        thread::sleep(Duration::from_millis(20));
    }
    h.join().expect("clean exit");
    signal::reset();
}

/// The slow-loris defences: an oversized request line is rejected with a
/// typed error and the connection closed; a connection trickling bytes
/// (or idle) past the idle timeout is evicted.
#[test]
fn oversized_lines_and_idle_connections_are_evicted() {
    let _guard = serial();
    let (addr, h) = start(
        ServerConfig::default()
            .with_max_request_line(256)
            .with_idle_timeout(Duration::from_millis(300)),
    );

    // Oversized line: typed rejection, then the connection is closed.
    {
        use std::io::{BufRead as _, BufReader, Write as _};
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        let long = format!("{}\n", "x".repeat(4096));
        stream.write_all(long.as_bytes()).expect("send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("rejection line");
        let doc = json::parse(line.trim_end()).expect("rejection json");
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("bad_request"),
            "{line}"
        );
        // Closed: the next read sees EOF.
        line.clear();
        assert_eq!(reader.read_line(&mut line).expect("eof"), 0);
    }

    // Slow loris: half a request line, then silence. The server evicts.
    {
        use std::io::{Read as _, Write as _};
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream.write_all(b"{\"op\":\"sta").expect("send prefix");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut sink = [0u8; 16];
        let n = stream.read(&mut sink).expect("eviction closes the socket");
        assert_eq!(n, 0, "evicted connection must be closed, got data");
    }

    let mut c = Client::connect(&addr).expect("connect");
    let stats = json::parse(&c.request("{\"op\":\"stats\"}").expect("stats")).unwrap();
    assert!(
        stats.get("evicted").and_then(Json::as_f64).unwrap_or(0.0) >= 2.0,
        "both defences must count evictions: {stats:?}"
    );
    stop_resilient(&addr, h);
}

/// Pipelining under chaos: connections that batch several requests
/// back-to-back through the fault injector either die (typed client
/// error, torn line, EOF) or get responses that are byte-identical to
/// the clean direct run — and always in request order. A response line
/// that arrives complete but fails to parse, or parses to the wrong
/// tuples, is a mismatch: corruption is inbound-only by design, so the
/// server must never emit a garbled survivor.
#[test]
fn pipelined_chaos_survivors_stay_byte_identical() {
    use std::io::{BufRead as _, BufReader, Write as _};

    let _guard = serial();
    let (want_tuples, want_count) = direct("A ov B", &[A, B]);
    assert!(want_count > 0);

    let (addr, h) = start(
        ServerConfig::default()
            .with_slots(4)
            .with_admission(8, 16)
            .with_net_faults(NetFaultPlan::chaos(9091, 0.03)),
    );

    let line = query_line("A ov B", &[("A", A), ("B", B)], ",\"algorithm\":\"crep\"");
    let survivors = AtomicUsize::new(0);
    let mismatches = AtomicUsize::new(0);
    thread::scope(|scope| {
        for _conn in 0..6usize {
            let addr = addr.clone();
            let line = &line;
            let want_tuples = &want_tuples;
            let survivors = &survivors;
            let mismatches = &mismatches;
            scope.spawn(move || {
                let Ok(mut stream) = std::net::TcpStream::connect(&addr) else {
                    return; // casualty at connect
                };
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
                // The whole pipeline in one write, no reads in between.
                let batch = format!("{line}\n").repeat(4);
                if stream.write_all(batch.as_bytes()).is_err() {
                    return; // casualty mid-send
                }
                let mut reader = BufReader::new(stream);
                for _ in 0..4 {
                    let mut text = String::new();
                    match reader.read_line(&mut text) {
                        Ok(0) | Err(_) => return,                 // EOF / timeout: casualty
                        Ok(_) if !text.ends_with('\n') => return, // torn line
                        Ok(_) => {}
                    }
                    let Ok(doc) = json::parse(text.trim_end()) else {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                        return;
                    };
                    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
                        // Typed error (a corrupted request byte, a shed):
                        // a casualty for this slot, but later pipelined
                        // responses may still arrive — keep reading.
                        continue;
                    }
                    let count = doc.get("tuple_count").and_then(Json::as_f64);
                    #[allow(clippy::cast_precision_loss)]
                    let count_ok = count == Some(want_count as f64);
                    if tuples_of(&doc) == *want_tuples && count_ok {
                        survivors.fetch_add(1, Ordering::Relaxed);
                    } else {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "an intact pipelined response must match the clean direct run"
    );
    assert!(
        survivors.load(Ordering::Relaxed) >= 1,
        "a 3% fault rate across 6x4 pipelined requests must leave survivors"
    );
    stop_resilient(&addr, h);
}
