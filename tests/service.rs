//! End-to-end tests of the query service: wire protocol, result cache,
//! admission control, cancellation and shutdown — all against a real
//! TCP server on a loopback port, checked for byte-identity with direct
//! [`Cluster::submit`] runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use mwsj_core::partition::Grid;
use mwsj_core::store::StoreBuilder;
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinRun};
use mwsj_geom::Rect;
use mwsj_query::Query;
use mwsj_server::json::{self, Json};
use mwsj_server::source::load_source;
use mwsj_server::{Client, Server, ServerConfig};

/// The space every test server uses (the `ServerConfig` default).
const EXTENT: f64 = 100_000.0;

fn start(config: ServerConfig) -> (String, thread::JoinHandle<()>) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn stop(addr: &str, handle: thread::JoinHandle<()>) {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    c.request("{\"op\":\"shutdown\"}").expect("shutdown");
    handle.join().expect("server thread");
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

fn response(client: &mut Client, line: &str) -> Json {
    let text = client.request(line).expect("request");
    json::parse(&text).expect("well-formed response")
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

/// Runs the same query directly on a private cluster with the service's
/// space and grid — the ground truth the served result must match.
fn direct(query: &str, specs: &[&str], algorithm: Algorithm) -> (Vec<Vec<u32>>, u64) {
    let q = Query::parse(query).expect("query");
    let datasets: Vec<Vec<Rect>> = specs
        .iter()
        .map(|s| load_source(s).expect("load"))
        .collect();
    let refs: Vec<&[Rect]> = datasets.iter().map(Vec::as_slice).collect();
    let cluster = Cluster::new(ClusterConfig::for_space((0.0, EXTENT), (0.0, EXTENT), 8));
    let out = cluster
        .submit(&JoinRun::new(&q, &refs).algorithm(algorithm))
        .expect("direct join");
    (out.tuples, out.tuple_count)
}

const A: &str = "synthetic:n=800,seed=11,extent=5000,lmax=300";
const B: &str = "synthetic:n=800,seed=12,extent=5000,lmax=300";
const C: &str = "synthetic:n=800,seed=13,extent=5000,lmax=300";

#[test]
fn served_query_is_byte_identical_to_direct_submit() {
    let (addr, h) = start(ServerConfig::default());
    let mut c = Client::connect(&addr).expect("connect");

    let doc = response(
        &mut c,
        &query_line("A ov B and B ov C", &[("A", A), ("B", B), ("C", C)], ""),
    );
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(doc.get("cached").and_then(Json::as_bool), Some(false));

    let (want, want_count) = direct(
        "A ov B and B ov C",
        &[A, B, C],
        Algorithm::ControlledReplicate,
    );
    assert!(want_count > 0, "test query must produce tuples");
    assert_eq!(tuples_of(&doc), want);
    assert_eq!(
        doc.get("tuple_count").and_then(Json::as_f64),
        Some(want_count as f64)
    );

    // A differently-spelled equivalent query: positions reordered, one
    // conjunct flipped. Served from cache, yet byte-identical to a direct
    // run of *that* spelling (ids in C, B, A position order).
    let flipped = response(
        &mut c,
        &query_line("C ov B and A ov B", &[("C", C), ("B", B), ("A", A)], ""),
    );
    assert_eq!(flipped.get("cached").and_then(Json::as_bool), Some(true));
    let (want_flipped, _) = direct(
        "C ov B and A ov B",
        &[C, B, A],
        Algorithm::ControlledReplicate,
    );
    assert_eq!(tuples_of(&flipped), want_flipped);
    assert_eq!(
        doc.get("counters").expect("counters"),
        flipped.get("counters").expect("counters"),
        "a cache hit replays the original run's counters"
    );
    stop(&addr, h);

    // Pinned map-side, over the generator specs and over `store:` files
    // ingested from them, tuples and count-only. Nothing is cached: a
    // store shares its spec's fingerprint, so a cache would replay the
    // spec's reply instead of running over the store.
    let grid = Grid::square((0.0, EXTENT), (0.0, EXTENT), 8);
    let stores: Vec<String> = [A, B, C]
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let path = std::env::temp_dir().join(format!(
                "mwsj-service-{}-direct-{i}.store",
                std::process::id()
            ));
            let rects = load_source(spec).expect("load");
            StoreBuilder::new(&grid)
                .write(&rects, &path)
                .expect("ingest");
            format!("store:{}", path.display())
        })
        .collect();
    let (addr, h) = start(ServerConfig::default().with_cache_bytes(0));
    let mut c = Client::connect(&addr).expect("connect");
    let q = "A ov B and B within 150 of C";
    let (want, want_count) = direct(q, &[A, B, C], Algorithm::ControlledReplicate);
    assert!(want_count > 0, "test query must produce tuples");
    for specs in [[A, B, C], [&*stores[0], &*stores[1], &*stores[2]]] {
        let data = [("A", specs[0]), ("B", specs[1]), ("C", specs[2])];
        for count_only in [false, true] {
            let extra = format!(",\"algorithm\":\"map-side\",\"count_only\":{count_only}");
            let doc = response(&mut c, &query_line(q, &data, &extra));
            assert_eq!(
                doc.get("algorithm").and_then(Json::as_str),
                Some("map-side")
            );
            assert_eq!(
                doc.get("tuple_count").and_then(Json::as_f64),
                Some(want_count as f64)
            );
            let want = if count_only { &[][..] } else { &want[..] };
            assert_eq!(tuples_of(&doc), want, "{specs:?}, count_only {count_only}");
        }
    }
    stop(&addr, h);
    for store in &stores {
        std::fs::remove_file(store.strip_prefix("store:").expect("a store spec")).ok();
    }
}

/// A `store:` file ingested on another grid of the service space is
/// rebuilt on the service grid from the open that read it, and answers as
/// its spec does: the same tuples and the same dataset fingerprint.
#[test]
fn a_store_on_another_grid_answers_as_its_spec() {
    let grid = Grid::square((0.0, EXTENT), (0.0, EXTENT), 5);
    let stores: Vec<String> = [A, B]
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let path = std::env::temp_dir().join(format!(
                "mwsj-service-{}-regrid-{i}.store",
                std::process::id()
            ));
            StoreBuilder::new(&grid)
                .write(&load_source(spec).expect("load"), &path)
                .expect("ingest");
            format!("store:{}", path.display())
        })
        .collect();
    // No cache: the store shares its spec's fingerprint, so a cache would
    // replay the spec's reply instead of running over the rebuilt store.
    let (addr, h) = start(ServerConfig::default().with_cache_bytes(0));
    let mut c = Client::connect(&addr).expect("connect");
    let (want, want_count) = direct("A ov B", &[A, B], Algorithm::ControlledReplicate);
    assert!(want_count > 0, "test query must produce tuples");
    let replies: Vec<Json> = [[A, B], [&*stores[0], &*stores[1]]]
        .iter()
        .map(|specs| {
            let data = [("A", specs[0]), ("B", specs[1])];
            let doc = response(
                &mut c,
                &query_line("A ov B", &data, ",\"algorithm\":\"map-side\""),
            );
            assert_eq!(
                doc.get("ok").and_then(Json::as_bool),
                Some(true),
                "{specs:?}"
            );
            assert_eq!(tuples_of(&doc), want, "{specs:?}");
            doc
        })
        .collect();
    let fingerprint = |doc: &Json| {
        doc.get("fingerprint")
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    assert!(fingerprint(&replies[0]).is_some());
    assert_eq!(fingerprint(&replies[1]), fingerprint(&replies[0]));
    stop(&addr, h);
    for store in &stores {
        std::fs::remove_file(store.strip_prefix("store:").expect("a store spec")).ok();
    }
}

#[test]
fn repeated_query_hits_the_cache_and_counts_in_stats() {
    let (addr, h) = start(ServerConfig::default());
    let mut c = Client::connect(&addr).expect("connect");
    let line = query_line("A ov B", &[("A", A), ("B", B)], "");

    let first = response(&mut c, &line);
    let second = response(&mut c, &line);
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(tuples_of(&first), tuples_of(&second));
    assert_eq!(
        first.get("fingerprint").and_then(Json::as_str),
        second.get("fingerprint").and_then(Json::as_str)
    );

    // A different seed changes the dataset fingerprint: clean miss.
    let other = response(
        &mut c,
        &query_line(
            "A ov B",
            &[
                ("A", A),
                ("B", "synthetic:n=800,seed=99,extent=5000,lmax=300"),
            ],
            "",
        ),
    );
    assert_eq!(other.get("cached").and_then(Json::as_bool), Some(false));
    assert_ne!(
        first.get("fingerprint").and_then(Json::as_str),
        other.get("fingerprint").and_then(Json::as_str)
    );

    let stats = response(&mut c, "{\"op\":\"stats\"}");
    assert_eq!(stats.get("queries").and_then(Json::as_f64), Some(3.0));
    assert_eq!(
        stats.get("served_from_cache").and_then(Json::as_f64),
        Some(1.0)
    );
    let cache = stats.get("cache").expect("cache stats");
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cache.get("entries").and_then(Json::as_f64), Some(2.0));

    stop(&addr, h);
}

/// The cache must never key on `"auto"`: the server resolves the planner's
/// choice *before* building the cache key, so an auto query and its
/// manually pinned twin share one entry — and every response reports the
/// concrete algorithm that (originally) ran.
#[test]
fn auto_and_pinned_twin_share_one_cache_entry() {
    let (addr, h) = start(ServerConfig::default());
    let mut c = Client::connect(&addr).expect("connect");
    let data = [("A", A), ("B", B), ("C", C)];

    // `explain` names the planner's choice without executing anything.
    let plan = response(
        &mut c,
        &query_line("A ov B and B ov C", &data, "")
            .replace("\"op\":\"query\"", "\"op\":\"explain\""),
    );
    assert_eq!(plan.get("ok").and_then(Json::as_bool), Some(true));
    let chosen = plan
        .get("plan")
        .and_then(|p| p.get("algorithm"))
        .and_then(Json::as_str)
        .expect("plan algorithm")
        .to_string();
    assert_ne!(chosen, "auto");

    // An auto query reports that same concrete algorithm…
    let auto = response(&mut c, &query_line("A ov B and B ov C", &data, ""));
    assert_eq!(auto.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(
        auto.get("algorithm").and_then(Json::as_str),
        Some(chosen.as_str())
    );

    // …and pinning it explicitly hits the entry the auto run populated.
    let pinned = response(
        &mut c,
        &query_line(
            "A ov B and B ov C",
            &data,
            &format!(",\"algorithm\":\"{chosen}\""),
        ),
    );
    assert_eq!(pinned.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        pinned.get("algorithm").and_then(Json::as_str),
        Some(chosen.as_str())
    );
    assert_eq!(tuples_of(&auto), tuples_of(&pinned));

    // Spelling `"auto"` explicitly is the same key too.
    let spelled = response(
        &mut c,
        &query_line("A ov B and B ov C", &data, ",\"algorithm\":\"auto\""),
    );
    assert_eq!(spelled.get("cached").and_then(Json::as_bool), Some(true));

    let stats = response(&mut c, "{\"op\":\"stats\"}");
    let cache = stats.get("cache").expect("cache stats");
    assert_eq!(cache.get("entries").and_then(Json::as_f64), Some(1.0));
    assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(2.0));

    stop(&addr, h);
}

#[test]
fn count_only_mode_is_cached_separately() {
    let (addr, h) = start(ServerConfig::default());
    let mut c = Client::connect(&addr).expect("connect");

    let counted = response(
        &mut c,
        &query_line("A ov B", &[("A", A), ("B", B)], ",\"count_only\":true"),
    );
    assert_eq!(counted.get("cached").and_then(Json::as_bool), Some(false));
    assert!(tuples_of(&counted).is_empty());
    let (_, want_count) = direct("A ov B", &[A, B], Algorithm::ControlledReplicate);
    assert_eq!(
        counted.get("tuple_count").and_then(Json::as_f64),
        Some(want_count as f64)
    );

    // The canonical variant of the spelling hits the count-only entry…
    let variant = response(
        &mut c,
        &query_line("B ov A", &[("B", B), ("A", A)], ",\"count_only\":true"),
    );
    assert_eq!(variant.get("cached").and_then(Json::as_bool), Some(true));

    // …but a materializing request must not be served from it.
    let materialized = response(&mut c, &query_line("A ov B", &[("A", A), ("B", B)], ""));
    assert_eq!(
        materialized.get("cached").and_then(Json::as_bool),
        Some(false)
    );
    assert!(!tuples_of(&materialized).is_empty());

    stop(&addr, h);
}

#[test]
fn eight_concurrent_clients_get_solo_counters() {
    let queries: Vec<Vec<(String, String)>> = (0..8)
        .map(|i| {
            let a = format!("synthetic:n=400,seed={},extent=5000,lmax=250", 100 + 2 * i);
            let b = format!("synthetic:n=400,seed={},extent=5000,lmax=250", 101 + 2 * i);
            vec![("A".to_string(), a), ("B".to_string(), b)]
        })
        .collect();
    let line = |i: usize| {
        let refs: Vec<(&str, &str)> = queries[i]
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        query_line("A ov B", &refs, ",\"algorithm\":\"crep\"")
    };

    // Solo pass: each query alone on its own server.
    let mut solo = Vec::new();
    for i in 0..8 {
        let (addr, h) = start(ServerConfig::default());
        let mut c = Client::connect(&addr).expect("connect");
        let doc = response(&mut c, &line(i));
        assert_eq!(
            doc.get("ok").and_then(Json::as_bool),
            Some(true),
            "solo {i}"
        );
        solo.push(doc);
        stop(&addr, h);
    }

    // Concurrent pass: all eight at once on one shared, slot-constrained
    // server, queueing behind the fair-share scheduler.
    let (addr, h) = start(ServerConfig::default().with_slots(4).with_admission(8, 8));
    let mismatches = AtomicUsize::new(0);
    thread::scope(|scope| {
        for (i, solo_doc) in solo.iter().enumerate() {
            let addr = addr.clone();
            let line = line(i);
            let mismatches = &mismatches;
            scope.spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                let doc = response(&mut c, &line);
                let same_counters = doc.get("counters").expect("counters")
                    == solo_doc.get("counters").expect("counters");
                let same_tuples = tuples_of(&doc) == tuples_of(solo_doc);
                if !(same_counters && same_tuples) {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "every concurrent run must report counters and tuples identical to its solo run"
    );
    stop(&addr, h);
}

/// A deliberately heavy request: three large relations under C-Rep.
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

#[test]
fn disconnecting_client_cancels_its_run_without_disturbing_others() {
    let (addr, h) = start(ServerConfig::default().with_slots(4));

    // Pre-warm the heavy datasets (a 1 ms deadline kills the join right
    // away) so the run below spends its slot time joining, not loading.
    {
        let mut warm = Client::connect(&addr).expect("connect");
        let _ = warm.request(&heavy_line(",\"deadline_ms\":1"));
    }

    // Send the heavy query, then vanish without reading the response.
    let stream = std::net::TcpStream::connect(&addr).expect("connect raw");
    {
        use std::io::Write as _;
        let mut w = &stream;
        w.write_all(heavy_line(",\"algorithm\":\"crep\"").as_bytes())
            .expect("send");
        w.write_all(b"\n").expect("send");
        w.flush().expect("flush");
    }
    thread::sleep(Duration::from_millis(200)); // let the join start
    drop(stream); // client disconnects mid-run

    // The server must notice, cancel the run and free its slots; other
    // clients keep being served meanwhile.
    let mut c = Client::connect(&addr).expect("connect");
    let ok = response(&mut c, &query_line("A ov B", &[("A", A), ("B", B)], ""));
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = response(&mut c, "{\"op\":\"stats\"}");
        let cancelled = stats.get("cancelled").and_then(Json::as_f64).unwrap_or(0.0);
        // >= 2 because the warm-up's deadline cancel also counts.
        if cancelled >= 2.0 {
            let slots = stats.get("slots").and_then(Json::as_f64).expect("slots");
            let available = stats
                .get("slots_available")
                .and_then(Json::as_f64)
                .expect("available");
            assert_eq!(slots, 4.0);
            assert_eq!(available, slots, "cancelled run must release all its slots");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "run was never cancelled: {stats:?}"
        );
        thread::sleep(Duration::from_millis(50));
    }
    stop(&addr, h);
}

#[test]
fn saturated_service_sheds_with_a_typed_error() {
    let (addr, h) = start(ServerConfig::default().with_slots(2).with_admission(1, 0));

    // Pre-warm the heavy datasets so admission isn't held during generation.
    {
        let mut warm = Client::connect(&addr).expect("connect");
        let _ = warm.request(&heavy_line(",\"deadline_ms\":1"));
    }
    let mut occupant = Client::connect(&addr).expect("connect");
    let occupant_thread = thread::spawn(move || {
        // Bounded by the deadline, so the test always terminates.
        occupant
            .request(&heavy_line(",\"algorithm\":\"crep\",\"deadline_ms\":4000"))
            .expect("occupant response")
    });
    thread::sleep(Duration::from_millis(300)); // occupant now holds the only join slot

    let mut c = Client::connect(&addr).expect("connect");
    let shed = response(&mut c, &query_line("A ov B", &[("A", A), ("B", B)], ""));
    assert_eq!(shed.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(shed.get("error").and_then(Json::as_str), Some("overloaded"));

    let occupant_response = occupant_thread.join().expect("occupant thread");
    let occupant_doc = json::parse(&occupant_response).expect("occupant json");
    // The occupant either finished or hit its deadline — both legal.
    if occupant_doc.get("ok").and_then(Json::as_bool) == Some(false) {
        assert_eq!(
            occupant_doc.get("error").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
    }

    let stats = response(&mut c, "{\"op\":\"stats\"}");
    assert!(stats.get("shed").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);

    stop(&addr, h);
}

#[test]
fn malformed_and_unsatisfiable_requests_get_typed_errors() {
    let (addr, h) = start(ServerConfig::default());
    let mut c = Client::connect(&addr).expect("connect");

    let bad_lines: Vec<String> = vec![
        "this is not json".to_string(),
        "{\"op\":\"transmogrify\"}".to_string(),
        "{\"op\":\"query\",\"query\":\"A ov\",\"data\":{\"A\":\"x\"}}".to_string(),
        // Binding for a relation the query never mentions.
        query_line("A ov B", &[("A", A), ("B", B), ("Z", C)], ""),
        // Missing binding for B.
        query_line("A ov B", &[("A", A)], ""),
        // Dataset outside the service space.
        query_line(
            "A ov B",
            &[("A", A), ("B", "synthetic:n=10,seed=1,extent=900000")],
            "",
        ),
    ];
    for line in &bad_lines {
        let doc = response(&mut c, line);
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{line}");
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("bad_request"),
            "{line}"
        );
    }

    stop(&addr, h);
}

/// Dataset specs the generators cannot sample (an empty or non-finite
/// range) used to panic the worker: the completion was never pushed and
/// the client waited forever. They are rejected where they enter.
#[test]
fn unsampleable_dataset_specs_are_bad_requests_not_hangs() {
    let (addr, h) = start(ServerConfig::default());
    // The client's default 30 s read timeout is the hang detector.
    let mut c = Client::connect(&addr).expect("connect");

    let bad_specs = [
        "synthetic:n=10,extent=-5",
        "synthetic:n=10,lmax=-1",
        "synthetic:n=10,extent=nan",
        "california:n=0",
        // Bounded before the generator sizes its buffer (3.2 TB here).
        "synthetic:n=100000000000",
        "california:n=100000000000",
    ];
    for spec in bad_specs {
        let doc = response(
            &mut c,
            &query_line("A ov B", &[("A", spec), ("B", "synthetic:n=10")], ""),
        );
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("bad_request"),
            "{spec}"
        );
    }

    let stats = response(&mut c, "{\"op\":\"stats\"}");
    assert_eq!(
        stats.get("errors").and_then(Json::as_f64),
        Some(bad_specs.len() as f64)
    );
    let ok = response(&mut c, &query_line("A ov B", &[("A", A), ("B", B)], ""));
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));

    stop(&addr, h);
}

#[test]
fn shutdown_op_stops_the_server_cleanly() {
    let (addr, h) = start(ServerConfig::default());
    let mut c = Client::connect(&addr).expect("connect");
    let ok = response(&mut c, &query_line("A ov B", &[("A", A), ("B", B)], ""));
    assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));

    let bye = response(&mut c, "{\"op\":\"shutdown\"}");
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));

    let deadline = Instant::now() + Duration::from_secs(10);
    while !h.is_finished() {
        assert!(Instant::now() < deadline, "server did not stop");
        thread::sleep(Duration::from_millis(20));
    }
    h.join().expect("clean exit");
}
