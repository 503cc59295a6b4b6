//! The threading rule, counted: the thread that submits is the first
//! worker and nothing spawns per unit of work, so the number of OS threads
//! in the process is bounded by a constant whatever is thrown at it.
//!
//! Threads are counted in `/proc/self/task` by a sampler that runs
//! throughout, which is why this file is Linux-only and holds a single
//! test: a second one starting beside it would move the count.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;

use mwsj_core::mapreduce::EngineConfig;
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinRun, StoredRun};
use mwsj_geom::Rect;
use mwsj_query::Query;
use mwsj_server::json::{self, Json};
use mwsj_server::source::load_source;
use mwsj_server::{Server, ServerConfig};

const A: &str = "synthetic:n=400,seed=41,extent=5000,lmax=250";
const B: &str = "synthetic:n=400,seed=42,extent=5000,lmax=250";
const CONNECTIONS: usize = 64;
const PIPELINED: usize = 16;
const STATS: usize = 1_000;
const MAX_INFLIGHT: usize = 2;
const SLOTS: usize = 2;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Counts the process's threads in a loop on a thread of its own.
#[derive(Default)]
struct Sampler {
    /// `(window, peak, samples)`: a count taken in one window is never
    /// credited to the next.
    state: Mutex<(u64, usize, usize)>,
    stop: AtomicBool,
}

/// Stops the sampler when the test leaves its scope, also by a failed
/// assertion — the scope joins the sampler before it lets the panic out.
struct StopOnDrop<'a>(&'a Sampler);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::SeqCst);
    }
}

impl Sampler {
    fn run(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            let window = self.state.lock().unwrap().0;
            let count = threads();
            let mut state = self.state.lock().unwrap();
            if state.0 == window {
                state.1 = state.1.max(count);
                state.2 += 1;
            }
        }
    }

    /// The peak and the number of samples taken while `during` ran.
    fn watch<T>(&self, during: impl FnOnce() -> T) -> (T, usize, usize) {
        {
            let mut state = self.state.lock().unwrap();
            *state = (state.0 + 1, 0, 0);
        }
        let out = during();
        let (_, peak, samples) = *self.state.lock().unwrap();
        (out, peak, samples)
    }
}

/// The i-th pipelined request of every connection: the same two datasets
/// at a distance that grows with `i`, so the replies tell the positions
/// apart.
fn miss_line(i: usize) -> String {
    format!(
        "{{\"op\":\"query\",\"query\":\"A ra({}) B\",\"data\":{{\"A\":\"{A}\",\"B\":\"{B}\"}},\
         \"algorithm\":\"crep-l\",\"count_only\":true}}",
        40 * (i + 1)
    )
}

fn read_reply(reader: &mut impl BufRead) -> Json {
    let mut line = String::new();
    reader.read_line(&mut line).expect("response line");
    assert!(line.ends_with('\n'), "complete response line: {line}");
    json::parse(line.trim_end()).expect("response json")
}

fn number(doc: &Json, field: &str) -> u64 {
    doc.get(field)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("`{field}` in {doc:?}")) as u64
}

#[test]
fn threads_are_bounded_by_a_constant_from_socket_to_reducer() {
    let sampler = Sampler::default();
    thread::scope(|scope| {
        let (running_tx, running_rx) = mpsc::channel();
        let sampler = &sampler;
        scope.spawn(move || {
            running_tx.send(()).expect("test is listening");
            sampler.run();
        });
        running_rx.recv().expect("sampler started");
        let _stop = StopOnDrop(sampler);
        // This thread, the sampler and the harness's own.
        let baseline = threads();
        a_pipelined_flood_creates_no_thread_per_request(sampler, baseline);
        a_map_side_run_beside_a_saturating_job_brings_no_helper(sampler, baseline);
    });
}

/// 64 connections each pipelining 16 misses, and one pipelining 1 000
/// `stats`, against two workers with two queue places: every request is
/// answered in its place with its result or a typed `overloaded`, and the
/// process never holds more than the loop thread, the workers and one
/// engine helper per slot.
fn a_pipelined_flood_creates_no_thread_per_request(sampler: &Sampler, baseline: usize) {
    // What position `i` answers when it is not shed — strictly growing.
    let datasets = [A, B].map(|spec| load_source(spec).expect("load"));
    let relations: [&[Rect]; 2] = [&datasets[0], &datasets[1]];
    let direct = Cluster::new(ClusterConfig::for_space(
        (0.0, 100_000.0),
        (0.0, 100_000.0),
        8,
    ));
    let expected: Vec<u64> = (0..PIPELINED)
        .map(|i| {
            let query = Query::parse(&format!("A ra({}) B", 40 * (i + 1))).expect("query");
            let run = JoinRun::new(&query, &relations)
                .algorithm(Algorithm::ControlledReplicateLimit)
                .counting();
            direct.submit(&run).expect("direct join").tuple_count
        })
        .collect();
    assert!(expected.windows(2).all(|w| w[0] < w[1]), "{expected:?}");

    // No result cache: the same sixteen requests miss on every connection.
    let config = ServerConfig::default()
        .with_slots(SLOTS)
        .with_admission(MAX_INFLIGHT, 2)
        .with_cache_bytes(0);
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();

    let ((overloaded, stats), peak, _) = sampler.watch(|| {
        let serving = thread::spawn(move || server.run().expect("server run"));
        let batch: String = (0..PIPELINED).map(|i| miss_line(i) + "\n").collect();
        let mut streams: Vec<TcpStream> = (0..CONNECTIONS)
            .map(|_| {
                let mut stream = TcpStream::connect(&addr).expect("connect");
                stream.write_all(batch.as_bytes()).expect("write batch");
                stream
            })
            .collect();
        let mut control = TcpStream::connect(&addr).expect("connect");
        control
            .write_all("{\"op\":\"stats\"}\n".repeat(STATS).as_bytes())
            .expect("write stats");

        let mut overloaded = 0u64;
        for stream in &mut streams {
            let mut reader = BufReader::new(stream);
            for (i, &count) in expected.iter().enumerate() {
                let doc = read_reply(&mut reader);
                match doc.get("error").and_then(Json::as_str) {
                    Some("overloaded") => overloaded += 1,
                    None => assert_eq!(number(&doc, "tuple_count"), count, "position {i}"),
                    Some(other) => panic!("position {i} answered `{other}`: {doc:?}"),
                }
            }
        }
        let mut reader = BufReader::new(control.try_clone().expect("clone"));
        for _ in 0..STATS {
            assert!(read_reply(&mut reader).get("queries").is_some());
        }
        // Everything is answered: what the server counted is final.
        control
            .write_all(b"{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n")
            .expect("write");
        let stats = read_reply(&mut reader);
        read_reply(&mut reader);
        serving.join().expect("server thread");
        (overloaded, stats)
    });

    let answered = (CONNECTIONS * PIPELINED) as u64 - overloaded;
    assert!(overloaded > 0 && answered > 0, "{overloaded} shed");
    assert_eq!(number(&stats, "shed"), overloaded);
    assert_eq!(number(&stats, "queries"), answered);
    assert_eq!(number(&stats, "errors"), 0);
    assert_eq!(number(&stats, "workers"), MAX_INFLIGHT as u64);
    assert_eq!((number(&stats, "busy"), number(&stats, "queued")), (0, 0));
    assert!(number(&stats, "answered_inline") >= STATS as u64);
    // The loop thread, the workers, and one engine helper per slot.
    let bound = baseline + MAX_INFLIGHT + SLOTS + 1;
    assert!(
        (baseline + 1 + MAX_INFLIGHT..=bound).contains(&peak),
        "{peak} threads at the peak, {baseline} before, at most {bound} allowed"
    );
}

/// Beside a job that holds every slot but one, a map-side run is its
/// caller and nobody else — while the same run alone takes the pool.
fn a_map_side_run_beside_a_saturating_job_brings_no_helper(sampler: &Sampler, baseline: usize) {
    let engine = EngineConfig::default().with_slots(4);
    let cluster = Cluster::new(
        ClusterConfig::for_space((0.0, 5_000.0), (0.0, 5_000.0), 8).with_engine(engine),
    );
    let builder = StoreBuilder::new(cluster.grid());
    let stores: Vec<StoredDataset> = [A, B]
        .iter()
        .map(|spec| {
            let bytes = builder
                .build(&load_source(spec).expect("load"))
                .expect("build");
            StoredDataset::from_bytes(&bytes).expect("open")
        })
        .collect();
    let stores: Vec<&StoredDataset> = stores.iter().collect();
    let query = Query::parse("A ra(300) B").expect("query");
    let run = StoredRun::new(&query, &stores).algorithm(Algorithm::MapSide);
    let lone = cluster.submit_stored(&run).expect("lone run").tuples;
    assert!(!lone.is_empty());

    let scheduler = cluster.engine().scheduler();
    let _blocker = scheduler.register(u64::MAX, 0, 1);
    for _ in 0..3 {
        let _waited = scheduler.acquire(u64::MAX);
    }
    let (mut peak, mut samples) = (0, 0);
    while samples < 50 {
        let (beside, peak_now, samples_now) =
            sampler.watch(|| cluster.submit_stored(&run).expect("run beside").tuples);
        assert!(beside == lone);
        peak = peak.max(peak_now);
        samples += samples_now;
    }
    for _ in 0..3 {
        scheduler.release(u64::MAX);
    }
    assert_eq!(peak, baseline, "a saturated map-side run started a thread");
}
