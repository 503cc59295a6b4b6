//! Sharded-serving equivalence: a server running `--shards N` must
//! answer map-side queries byte-identically to a single-node server over
//! the same data — same tuples, same logical counters, same fingerprint —
//! including count-only runs, longer chains, generator-spec bindings,
//! and under injected network chaos.

use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use mwsj_core::mapreduce::NetFaultPlan;
use mwsj_core::partition::Grid;
use mwsj_core::store::StoreBuilder;
use mwsj_server::json::{self, Json};
use mwsj_server::source::load_source;
use mwsj_server::{Client, ClientConfig, Server, ServerConfig};

/// The space every test server uses (the `ServerConfig` default).
const EXTENT: f64 = 100_000.0;

const A: &str = "synthetic:n=800,seed=11,extent=5000,lmax=300";
const B: &str = "synthetic:n=800,seed=12,extent=5000,lmax=300";
const C: &str = "synthetic:n=800,seed=13,extent=5000,lmax=300";

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

/// Ingests a synthetic source into an on-disk store on the service grid,
/// returning its path (unique per test + relation).
fn ingest(test: &str, name: &str, spec: &str) -> PathBuf {
    let rects = load_source(spec).expect("load source");
    let grid = Grid::square((0.0, EXTENT), (0.0, EXTENT), 8);
    let path = std::env::temp_dir().join(format!(
        "mwsj-shards-{}-{test}-{name}.store",
        std::process::id()
    ));
    StoreBuilder::new(&grid)
        .write(&rects, &path)
        .expect("ingest store");
    path
}

fn query_line(query: &str, data: &[(&str, String)], extra: &str) -> String {
    let bindings: Vec<String> = data
        .iter()
        .map(|(name, spec)| format!("\"{name}\":\"{spec}\""))
        .collect();
    format!(
        "{{\"op\":\"query\",\"query\":\"{query}\",\"data\":{{{}}}{extra}}}",
        bindings.join(",")
    )
}

/// Strips the serving artifacts (the physical wall clock and the
/// cache-hit flag), leaving every logical byte: `ok`, `algorithm`,
/// `tuple_count`, `tuples`, `counters` and `fingerprint` — the
/// "byte-identical" contract of sharded serving.
fn logical_bytes(response: &str) -> String {
    let response =
        response
            .replacen(",\"cached\":true", "", 1)
            .replacen(",\"cached\":false", "", 1);
    let cut = response
        .find(",\"wall_ms\":")
        .expect("response has wall_ms");
    let tail = response[cut..]
        .find(",\"fingerprint\":")
        .map(|i| &response[cut + i..])
        .expect("response has fingerprint");
    format!("{}{}", &response[..cut], tail)
}

/// Runs one query on both servers and asserts logical byte-identity.
fn assert_identical(single_addr: &str, sharded_addr: &str, line: &str) {
    let mut single = Client::connect(single_addr).expect("single connect");
    let mut sharded = Client::connect(sharded_addr).expect("sharded connect");
    let single_text = single.request(line).expect("single response");
    let sharded_text = sharded.request(line).expect("sharded response");
    let single_doc = json::parse(&single_text).expect("single json");
    assert_eq!(
        single_doc.get("ok").and_then(Json::as_bool),
        Some(true),
        "single-node run must succeed: {single_text}"
    );
    assert_eq!(
        single_doc.get("algorithm").and_then(Json::as_str),
        Some("map-side"),
        "stored bindings must take the map-side path: {single_text}"
    );
    assert_eq!(
        logical_bytes(&single_text),
        logical_bytes(&sharded_text),
        "sharded response must be byte-identical outside wall_ms"
    );
}

#[test]
fn sharded_serving_is_byte_identical_to_single_node() {
    let store_a = ingest("pair", "a", A);
    let store_b = ingest("pair", "b", B);
    let data: Vec<(&str, String)> = vec![
        ("A", format!("store:{}", store_a.display())),
        ("B", format!("store:{}", store_b.display())),
    ];

    let (single_addr, single_h) = start(ServerConfig::default());
    let (sharded_addr, sharded_h) = start(ServerConfig::default().with_shards(4));

    // Materializing and count-only, and a within predicate: each pair of
    // responses must agree byte-for-byte outside the wall clock.
    for extra in ["", ",\"count_only\":true"] {
        assert_identical(
            &single_addr,
            &sharded_addr,
            &query_line("A ov B", &data, extra),
        );
        assert_identical(
            &single_addr,
            &sharded_addr,
            &query_line("A within 200 of B", &data, extra),
        );
    }

    // The sharded server reports its shard count.
    let mut c = Client::connect(&sharded_addr).expect("connect");
    let stats = json::parse(&c.request("{\"op\":\"stats\"}").expect("stats")).expect("json");
    assert_eq!(stats.get("shards").and_then(Json::as_f64), Some(4.0));

    stop(&single_addr, single_h);
    stop(&sharded_addr, sharded_h);
    std::fs::remove_file(store_a).ok();
    std::fs::remove_file(store_b).ok();
}

#[test]
fn three_relation_chain_shards_identically() {
    let store_a = ingest("chain", "a", A);
    let store_b = ingest("chain", "b", B);
    let store_c = ingest("chain", "c", C);
    let data: Vec<(&str, String)> = vec![
        ("A", format!("store:{}", store_a.display())),
        ("B", format!("store:{}", store_b.display())),
        ("C", format!("store:{}", store_c.display())),
    ];

    let (single_addr, single_h) = start(ServerConfig::default());
    // A shard count that does not divide the 64 cells evenly.
    let (sharded_addr, sharded_h) = start(ServerConfig::default().with_shards(7));

    assert_identical(
        &single_addr,
        &sharded_addr,
        &query_line("A ov B and B within 150 of C", &data, ""),
    );
    assert_identical(
        &single_addr,
        &sharded_addr,
        &query_line(
            "A ov B and B within 150 of C",
            &data,
            ",\"count_only\":true",
        ),
    );

    stop(&single_addr, single_h);
    stop(&sharded_addr, sharded_h);
    for p in [store_a, store_b, store_c] {
        std::fs::remove_file(p).ok();
    }
}

/// Every binding is a store on the service grid, so map-side serves
/// generator specs too — and scatters them like `store:` bindings.
#[test]
fn synthetic_bindings_shard_identically() {
    let data: Vec<(&str, String)> = vec![
        ("A", A.to_string()),
        ("B", B.to_string()),
        ("C", C.to_string()),
    ];
    let (single_addr, single_h) = start(ServerConfig::default());
    let (sharded_addr, sharded_h) = start(ServerConfig::default().with_shards(3));

    for extra in ["", ",\"count_only\":true"] {
        let extra = format!(",\"algorithm\":\"map-side\"{extra}");
        assert_identical(
            &single_addr,
            &sharded_addr,
            &query_line("A ov B and B within 150 of C", &data, &extra),
        );
    }

    stop(&single_addr, single_h);
    stop(&sharded_addr, sharded_h);
}

/// Sharded serving under injected network chaos: survivors (responses
/// that arrive intact) stay byte-identical to the clean single-node
/// answer; everything else is a typed error or a dead connection, never
/// a silently wrong result.
#[test]
fn sharded_chaos_survivors_match_the_clean_single_node_answer() {
    let store_a = ingest("chaos", "a", A);
    let store_b = ingest("chaos", "b", B);
    let data: Vec<(&str, String)> = vec![
        ("A", format!("store:{}", store_a.display())),
        ("B", format!("store:{}", store_b.display())),
    ];
    let line = query_line("A ov B", &data, "");

    let (single_addr, single_h) = start(ServerConfig::default());
    let clean = {
        let mut c = Client::connect(&single_addr).expect("connect");
        logical_bytes(&c.request(&line).expect("clean response"))
    };

    let (chaos_addr, chaos_h) = start(
        ServerConfig::default()
            .with_shards(4)
            .with_net_faults(NetFaultPlan::chaos(7001, 0.04)),
    );

    let mut survivors = 0usize;
    for seed in 0..12u64 {
        let config = ClientConfig::default()
            .with_read_timeout(Duration::from_secs(30))
            .with_seed(seed);
        let Ok(mut c) = Client::with_config(&chaos_addr, config) else {
            continue;
        };
        let Ok(text) = c.request(&line) else {
            continue; // casualty: typed client error or dead connection
        };
        let doc = json::parse(&text).expect("intact responses parse");
        if doc.get("ok").and_then(Json::as_bool) != Some(true) {
            continue; // casualty: a corrupted request byte, shed, etc.
        }
        assert_eq!(
            logical_bytes(&text),
            clean,
            "chaos survivor must match the clean single-node answer"
        );
        survivors += 1;
    }
    assert!(
        survivors >= 1,
        "a 4% fault rate over 12 attempts must leave survivors"
    );

    stop(&single_addr, single_h);
    // The chaos server's shutdown may need several tries.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !chaos_h.is_finished() {
        if let Ok(mut c) = Client::connect(&chaos_addr) {
            let _ = c.request("{\"op\":\"shutdown\"}");
        }
        assert!(std::time::Instant::now() < deadline, "server did not stop");
        thread::sleep(Duration::from_millis(50));
    }
    chaos_h.join().expect("server thread");
    std::fs::remove_file(store_a).ok();
    std::fs::remove_file(store_b).ok();
}
