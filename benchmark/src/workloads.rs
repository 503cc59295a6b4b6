//! The four closed-loop workloads and the loop that drives them.
//!
//! All four share one seeded dataset family — `SyntheticConfig::
//! paper_default(20_000, seed_i)` over `[0, 10_000]²`, the Table 2
//! nI=20000 row at scale 0.01 — and one query, Q2. They differ in which
//! layers sit on the blocking path (see README.md): each optimisation of
//! one layer has a workload that exercises it and one that bypasses it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

use mwsj_core::geom::Rect;
use mwsj_core::query::Query;
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinRun, StoredRun};
use mwsj_datagen::SyntheticConfig;
use mwsj_server::json::{self, Json};
use mwsj_server::{Client, Server, ServerConfig};

use crate::trace::{SpanLog, ROOT};

pub const NAMES: [&str; 4] = ["q2_shuffle", "q2_mapside", "serve_hot", "serve_cold"];
pub const Q2: &str = "R1 ov R2 and R2 ov R3";
/// Rectangles per relation: Table 2's nI = 2 000 000 at scale 0.01.
pub const N: usize = 20_000;
/// `100_000 × sqrt(0.01)`: the paper's space shrunk to keep its density.
pub const EXTENT: f64 = 10_000.0;
/// Side bound of the `serve_hot` relations, chosen so a Q2 answer
/// carries 5 000–10 000 tuples (the default 100 gives ~93 000).
pub const HOT_LMAX: f64 = 53.0;
const HOT_POOL: usize = 4;
const COLD_STORES: usize = 6;
/// 24 results of ~3.3 MB are 4.8 × the 16 MiB cache, and 24 requests
/// pass between two uses of one entry while the cache holds 5: the LRU
/// never hits.
const COLD_POOL: usize = 24;

/// Generator threads: one per core, at most four.
pub fn clients() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// An 8×8-reducer cluster over the benchmark space, as `Server::bind`
/// builds its own from `ServerConfig { extent: EXTENT, grid: 8 }`.
pub fn cluster() -> Cluster {
    Cluster::new(ClusterConfig::for_space((0.0, EXTENT), (0.0, EXTENT), 8))
}

/// The seed of relation `i` under benchmark seed `seed`.
pub fn relation_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i)
}

pub fn relation(seed: u64, i: u64) -> Vec<Rect> {
    let mut cfg = SyntheticConfig::paper_default(N, relation_seed(seed, i));
    cfg.x_range = (0.0, EXTENT);
    cfg.y_range = (0.0, EXTENT);
    cfg.generate()
}

pub fn q2() -> Query {
    Query::parse(Q2).expect("Q2 parses")
}

/// The three relations the batch workloads and the layer probes join.
pub fn relations(seed: u64) -> [Vec<Rect>; 3] {
    [relation(seed, 0), relation(seed, 1), relation(seed, 2)]
}

/// Tuple count of Q2 over three relations by the given route.
pub fn count(cluster: &Cluster, query: &Query, rels: [&[Rect]; 3], algorithm: Algorithm) -> u64 {
    cluster
        .submit(&JoinRun::new(query, &rels).algorithm(algorithm).counting())
        .unwrap_or_else(|e| panic!("reference join failed: {e}"))
        .tuple_count
}

/// The tuple count every op of `name` must return, computed by a second
/// route: the batch workloads by the 2-way cascade (one count — the two
/// run the same relations, so they must also agree with each other),
/// each served pool entry by an in-process C-Rep-L join over the same
/// generated relations. The orchestrating process computes these and
/// hands them to the measuring ones, whose memory and set-up time then
/// hold the workload and nothing of the check.
pub fn expected(name: &str, seed: u64) -> Vec<u64> {
    let (cluster, query) = (cluster(), q2());
    match name {
        "q2_shuffle" | "q2_mapside" => {
            let rels = relations(seed);
            let rels = [&rels[0][..], &rels[1], &rels[2]];
            vec![count(&cluster, &query, rels, Algorithm::TwoWayCascade)]
        }
        "serve_hot" => (0..HOT_POOL as u64)
            .map(|q| {
                // The relations exactly as the server will generate them.
                let rels: Vec<Vec<Rect>> = hot_specs(seed, q)
                    .iter()
                    .map(|s| mwsj_server::source::load_source(s).expect("synthetic spec"))
                    .collect();
                let rels = [&rels[0][..], &rels[1], &rels[2]];
                count(&cluster, &query, rels, Algorithm::ControlledReplicateLimit)
            })
            .collect(),
        "serve_cold" => {
            let rels: Vec<Vec<Rect>> = (0..COLD_STORES as u64).map(|i| relation(seed, i)).collect();
            cold_triples(seed)
                .iter()
                .map(|&[a, b, c]| {
                    let rels = [&rels[a][..], &rels[b], &rels[c]];
                    count(&cluster, &query, rels, Algorithm::ControlledReplicateLimit)
                })
                .collect()
        }
        other => panic!("unknown workload `{other}`"),
    }
}

/// One closed-loop caller: runs op number `i`, recording spans, and
/// returns the bytes the op moved through a shuffle, a file or a socket
/// — or fails the op when its result does not verify.
pub type Caller<'a> = Box<dyn FnMut(u64, &mut SpanLog) -> Result<u64, String> + Send + 'a>;

/// Cumulative counters of the `stats` op.
#[derive(Clone, Copy, Default, Debug)]
pub struct ServerCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub shed: u64,
    pub errors: u64,
}

impl ServerCounters {
    pub fn since(self, before: Self) -> Self {
        Self {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            shed: self.shed - before.shed,
            errors: self.errors - before.errors,
        }
    }
}

pub trait Workload: Sync {
    fn clients(&self) -> usize {
        1
    }
    /// Fixed-count warm-up, charged to set-up.
    fn warmup_ops(&self) -> u64;
    fn caller(&self) -> Caller<'_>;
    /// The served program's own counters (`None` for a library workload).
    fn server_counters(&self) -> Option<ServerCounters> {
        None
    }
    /// Whether the window ran the workload its name says.
    fn check_window(&self, _delta: ServerCounters, _ops: u64) -> Result<(), String> {
        Ok(())
    }
    fn shutdown(&mut self) {}
}

/// Sets a workload up; `expected` is what [`expected`] returned for it.
pub fn setup(name: &str, seed: u64, dir: &Path, expected: &[u64]) -> Box<dyn Workload> {
    match name {
        "q2_shuffle" => Box::new(Q2Shuffle {
            cluster: cluster(),
            query: q2(),
            rels: relations(seed),
            expected: expected[0],
        }),
        "q2_mapside" => Box::new(Q2Mapside::setup(seed, dir, expected[0])),
        "serve_hot" => Box::new(Serve::hot(seed, expected)),
        "serve_cold" => Box::new(Serve::cold(seed, dir, expected)),
        other => panic!("unknown workload `{other}`"),
    }
}

/// Q2 under C-Rep-L over three in-memory relations: two engine jobs,
/// marking and the reducer kernel on the blocking path. (Pinned, not
/// `auto`, which flips to the 2× slower cascade on some seeds; see
/// README.md.)
struct Q2Shuffle {
    cluster: Cluster,
    query: Query,
    rels: [Vec<Rect>; 3],
    expected: u64,
}

impl Workload for Q2Shuffle {
    fn warmup_ops(&self) -> u64 {
        20
    }

    fn caller(&self) -> Caller<'_> {
        Box::new(move |op, log| {
            log.time("op", op, ROOT, |log, me| {
                let rels: [&[Rect]; 3] = [&self.rels[0], &self.rels[1], &self.rels[2]];
                let run = JoinRun::new(&self.query, &rels)
                    .algorithm(Algorithm::ControlledReplicateLimit)
                    .counting();
                let output = log
                    .time("core.submit", op, me, |_, _| self.cluster.submit(&run))
                    .map_err(|e| e.to_string())?;
                verify_count(output.tuple_count, self.expected)?;
                Ok(moved_bytes(&output.report))
            })
        })
    }
}

/// The same three relations, ingested in set-up; each op opens the
/// three stores from disk and joins map-side. Store and kernel do all
/// the work; planner and engine do none.
struct Q2Mapside {
    cluster: Cluster,
    query: Query,
    paths: Vec<PathBuf>,
    /// Bytes of the three store files, which every op reads.
    store_bytes: u64,
    expected: u64,
}

impl Q2Mapside {
    fn setup(seed: u64, dir: &Path, expected: u64) -> Self {
        let cluster = cluster();
        let paths = ingest(&cluster, &relations(seed), dir);
        let store_bytes = paths
            .iter()
            .map(|p| std::fs::metadata(p).expect("store file").len())
            .sum();
        Self {
            cluster,
            query: q2(),
            paths,
            store_bytes,
            expected,
        }
    }
}

impl Workload for Q2Mapside {
    fn warmup_ops(&self) -> u64 {
        20
    }

    fn caller(&self) -> Caller<'_> {
        Box::new(move |op, log| {
            log.time("op", op, ROOT, |log, me| {
                let mut stores = Vec::with_capacity(self.paths.len());
                for path in &self.paths {
                    let store = log
                        .time("store.open", op, me, |_, _| StoredDataset::open(path))
                        .map_err(|e| e.to_string())?;
                    stores.push(store);
                }
                let refs: Vec<&StoredDataset> = stores.iter().collect();
                let run = StoredRun::new(&self.query, &refs)
                    .algorithm(Algorithm::MapSide)
                    .counting();
                let output = log
                    .time("core.submit_stored", op, me, |_, _| {
                        self.cluster.submit_stored(&run)
                    })
                    .map_err(|e| e.to_string())?;
                verify_count(output.tuple_count, self.expected)?;
                Ok(self.store_bytes + moved_bytes(&output.report))
            })
        })
    }
}

/// What a join moved between tasks: shuffle bytes plus DFS traffic.
fn moved_bytes(report: &mwsj_core::mapreduce::MetricsReport) -> u64 {
    report.total_shuffle_bytes() + report.dfs_read_bytes + report.dfs_write_bytes
}

fn verify_count(got: u64, expected: u64) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("tuple count {got}, expected {expected}"))
    }
}

/// Ingests each relation as `dir/s<i>.store` on the cluster's grid.
pub fn ingest(cluster: &Cluster, rels: &[Vec<Rect>], dir: &Path) -> Vec<PathBuf> {
    let builder = StoreBuilder::new(cluster.grid());
    rels.iter()
        .enumerate()
        .map(|(i, rel)| {
            let path = dir.join(format!("s{i}.store"));
            builder.write(rel, &path).expect("ingest");
            path
        })
        .collect()
}

/// The server on a thread of this process plus a pool of default-shaped
/// Q2 request lines with their expected tuple counts. `hot` cycles four
/// queries whose results fit the result cache (every measured request a
/// hit); cold cycles more mounted-store queries than the cache can hold
/// (every request a miss that joins, inserts and evicts).
pub struct Serve {
    addr: String,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    pool: Vec<(String, u64)>,
    hot: bool,
}

impl Serve {
    fn boot() -> (String, JoinHandle<std::io::Result<()>>) {
        let mut config = ServerConfig::default().with_admission(clients(), clients());
        config.extent = EXTENT;
        let server = Server::bind(config).expect("bind loopback");
        let addr = server.local_addr().expect("local addr").to_string();
        (addr, std::thread::spawn(move || server.run()))
    }

    pub fn hot(seed: u64, expected: &[u64]) -> Self {
        let (addr, thread) = Self::boot();
        let pool = (0..HOT_POOL as u64)
            .zip(expected)
            .map(|(q, &count)| (query_line(&hot_specs(seed, q)), count))
            .collect();
        let serve = Self {
            addr,
            thread: Some(thread),
            pool,
            hot: true,
        };
        // One pass loads the datasets and fills the cache; everything
        // after it must hit.
        let mut caller = serve.caller();
        let mut log = SpanLog::new(false, Instant::now());
        for op in 0..HOT_POOL as u64 {
            caller(op, &mut log).expect("priming request");
        }
        drop(caller);
        serve
    }

    fn cold(seed: u64, dir: &Path, expected: &[u64]) -> Self {
        let rels: Vec<Vec<Rect>> = (0..COLD_STORES as u64).map(|i| relation(seed, i)).collect();
        let paths = ingest(&cluster(), &rels, dir);
        let pool = cold_triples(seed)
            .iter()
            .zip(expected)
            .map(|(triple, &count)| {
                let specs = triple.map(|i| format!("store:{}", paths[i].display()));
                (query_line(&specs), count)
            })
            .collect();
        let (addr, thread) = Self::boot();
        Self {
            addr,
            thread: Some(thread),
            pool,
            hot: false,
        }
    }

    pub fn connect(&self) -> Client {
        Client::connect(&self.addr).expect("connect to the benchmark's own server")
    }

    pub fn pool(&self) -> &[(String, u64)] {
        &self.pool
    }
}

/// The three `synthetic:` bindings of hot pool entry `q`.
fn hot_specs(seed: u64, q: u64) -> [String; 3] {
    [0, 1, 2].map(|r| {
        format!(
            "synthetic:n={N},seed={},extent={EXTENT},lmax={HOT_LMAX}",
            relation_seed(seed, 3 * q + r)
        )
    })
}

/// The cold pool: `COLD_POOL` ordered triples of distinct stores, in
/// the seed's order.
fn cold_triples(seed: u64) -> Vec<[usize; 3]> {
    let mut triples = Vec::new();
    for a in 0..COLD_STORES {
        for b in 0..COLD_STORES {
            for c in 0..COLD_STORES {
                if a != b && b != c && a != c {
                    triples.push([a, b, c]);
                }
            }
        }
    }
    shuffle(&mut triples, seed);
    triples.truncate(COLD_POOL);
    triples
}

/// A request as a client that sets nothing writes it: no `algorithm`
/// (so `auto`), no `count_only` (so the tuples come back).
fn query_line(specs: &[String]) -> String {
    format!(
        "{{\"op\":\"query\",\"query\":\"{Q2}\",\"data\":{{\"R1\":\"{}\",\"R2\":\"{}\",\"R3\":\"{}\"}}}}",
        specs[0], specs[1], specs[2]
    )
}

/// Fisher–Yates under splitmix64, so the pool order is the seed's.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// A served op passes only with `"ok":true`, the expected `tuple_count`
/// and that many tuples in the reply.
pub fn verify_response(text: &str, expected: u64) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("unparseable response: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "server refused: {}",
            text.chars().take(200).collect::<String>()
        ));
    }
    let count = doc.get("tuple_count").and_then(Json::as_f64);
    let tuples = doc.get("tuples").and_then(Json::as_arr).map(<[Json]>::len);
    if count != Some(expected as f64) || tuples != Some(expected as usize) {
        return Err(format!(
            "tuple_count {count:?} with {tuples:?} tuples, expected {expected}"
        ));
    }
    Ok(())
}

impl Workload for Serve {
    fn clients(&self) -> usize {
        clients()
    }

    fn warmup_ops(&self) -> u64 {
        if self.hot {
            200
        } else {
            // One pool cycle: mounts every store and takes the cache
            // through filling up into its steady, evicting state. (A
            // miss costs ten times a hit, so 200 of them would outlast
            // the window.)
            COLD_POOL as u64
        }
    }

    fn caller(&self) -> Caller<'_> {
        let mut client = self.connect();
        Box::new(move |op, log| {
            let (line, expected) = &self.pool[op as usize % self.pool.len()];
            log.time("op", op, ROOT, |log, me| {
                let text = log
                    .time("client.request", op, me, |_, _| client.request(line))
                    .map_err(|e| e.to_string())?;
                log.time("client.verify", op, me, |_, _| {
                    verify_response(&text, *expected)
                })?;
                // The request and the reply, each with its newline.
                Ok((line.len() + text.len() + 2) as u64)
            })
        })
    }

    fn server_counters(&self) -> Option<ServerCounters> {
        let text = self
            .connect()
            .request("{\"op\":\"stats\"}")
            .expect("stats op");
        let doc = json::parse(&text).expect("stats json");
        let num = |v: Option<&Json>| v.and_then(Json::as_f64).expect("stats field") as u64;
        let cache = doc.get("cache");
        Some(ServerCounters {
            hits: num(cache.and_then(|c| c.get("hits"))),
            misses: num(cache.and_then(|c| c.get("misses"))),
            evictions: num(cache.and_then(|c| c.get("evictions"))),
            shed: num(doc.get("shed")),
            errors: num(doc.get("errors")),
        })
    }

    fn check_window(&self, d: ServerCounters, ops: u64) -> Result<(), String> {
        let as_named = if self.hot {
            d.hits == ops && d.misses == 0 && d.evictions == 0
        } else {
            d.hits == 0 && d.misses == ops && d.evictions > 0
        };
        if as_named && d.shed == 0 && d.errors == 0 {
            Ok(())
        } else {
            Err(format!(
                "window of {ops} ops was not the workload its name says: {d:?}"
            ))
        }
    }

    fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.connect()
                .request("{\"op\":\"shutdown\"}")
                .expect("shutdown op");
            thread
                .join()
                .expect("server thread panicked")
                .expect("server run");
        }
    }
}

pub struct Sample {
    /// Seconds from the window's start to the op's start.
    pub start_s: f64,
    pub ms: f64,
    /// Bytes the op moved through a shuffle, a file or a socket.
    pub bytes: u64,
}

pub struct Window {
    pub samples: Vec<Sample>,
    pub failed: u64,
    pub first_error: Option<String>,
    pub elapsed_s: f64,
    pub cpu_ms: f64,
    pub logs: Vec<SpanLog>,
}

impl Window {
    /// Ops attempted: the verified ones plus the failed ones.
    pub fn ops(&self) -> u64 {
        self.samples.len() as u64 + self.failed
    }
}

pub enum Limit {
    Ops(u64),
    Seconds(f64),
}

/// Runs the closed loop: every caller takes the next op number from
/// `next` (so the pool is cycled in one fixed order whatever the client
/// count), waits for its reply, and repeats until the limit. All ops of
/// the window are kept — no trimming, no best-of. With `spans_from`
/// set the callers record spans, timed from that instant.
pub fn run(
    workload: &dyn Workload,
    next: &AtomicU64,
    limit: &Limit,
    spans_from: Option<Instant>,
) -> Window {
    let first = next.load(Ordering::SeqCst);
    let start = Instant::now();
    let cpu0 = cpu_ms();
    let mut callers: Vec<Caller<'_>> = (0..workload.clients()).map(|_| workload.caller()).collect();
    let per_caller: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                scope.spawn(move || {
                    let mut log = SpanLog::new(spans_from.is_some(), spans_from.unwrap_or(start));
                    let mut samples = Vec::new();
                    let mut errors = Vec::new();
                    loop {
                        let op = next.fetch_add(1, Ordering::SeqCst);
                        let begun = Instant::now();
                        let done = match limit {
                            Limit::Ops(n) => op >= first + n,
                            Limit::Seconds(s) => (begun - start).as_secs_f64() >= *s,
                        };
                        if done {
                            break;
                        }
                        match caller(op, &mut log) {
                            Ok(bytes) => samples.push(Sample {
                                start_s: (begun - start).as_secs_f64(),
                                ms: begun.elapsed().as_secs_f64() * 1e3,
                                bytes,
                            }),
                            Err(e) => errors.push(e),
                        }
                    }
                    (samples, errors, log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    if let Limit::Ops(n) = limit {
        next.store(first + n, Ordering::SeqCst);
    }
    let mut window = Window {
        samples: Vec::new(),
        failed: 0,
        first_error: None,
        elapsed_s,
        cpu_ms: cpu_ms() - cpu0,
        logs: Vec::new(),
    };
    for (samples, errors, log) in per_caller {
        window.samples.extend(samples);
        window.failed += errors.len() as u64;
        window.first_error = window.first_error.or(errors.into_iter().next());
        window.logs.push(log);
    }
    window
        .samples
        .sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
    window
}

/// CPU time (utime + stime, milliseconds) of this process so far, from
/// `/proc/self/stat` (ticks of 1/100 s).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the fields after its closing
    // parenthesis start at the third of the line, so utime and stime
    // (14th, 15th) sit at 11 and 12 here.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks = after.split_whitespace().skip(11).take(2);
    ticks.filter_map(|v| v.parse::<f64>().ok()).sum::<f64>() * 10.0
}

/// Resets `VmHWM` to the current resident set, so that what
/// [`peak_rss_mb`] reads later is the peak since this call. (Where the
/// kernel refuses, the peak stays that of the whole process.)
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("peak RSS not reset, so it includes set-up: {e}");
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
