//! A concurrent query service for multi-way spatial joins.
//!
//! `mwsj-server` turns the library's [`Cluster`] into a long-running
//! network service: a single-threaded readiness event loop (the
//! `event` module, built on [`mwsj_net`]'s epoll-backed poller) holds every
//! connection, speaking either the line-delimited JSON protocol (see
//! [`protocol`]) or a length-prefixed binary framing, told apart by the
//! first byte of each connection — with full request pipelining in both.
//!
//! One threading rule runs from the socket to the reducer: *the thread
//! that submits is the first worker, and nothing spawns per unit of
//! work*. The loop thread answers what needs no load and no join —
//! `stats`, malformed requests, sheds, an `explain` and a request whose
//! result is cached, over registered datasets (a plan reads statistics
//! the stores folded at open, O(cells)). The rest are jobs for the
//! [`ServerConfig::max_inflight`] threads of the `pool` module, each the
//! first worker of every engine phase and map-side cell queue under it,
//! on one shared engine whose fair-share slot scheduler arbitrates.
//!
//! The service adds layers the paper's batch experiments do not need
//! but any deployment does:
//!
//! * **Admission control** — the worker pool *is* the admission queue:
//!   `max_inflight` workers with at most `max_queue` requests waiting
//!   behind them. The loop thread sheds what does not fit with a typed
//!   `overloaded` error at dispatch — no thread is created or parked for
//!   a request that will be refused.
//! * **A result cache** — keyed by the *canonical* query form
//!   ([`mwsj_query::Query::canonical`]) and the
//!   fingerprints ([`mwsj_core::store::dataset_fingerprint`]) of the
//!   bound datasets, so differently-spelled equivalent queries
//!   share entries and any data change misses cleanly (see [`cache`]).
//! * **Cancellation** — a client that disconnects mid-query has its run
//!   cancelled at the next task boundary, releasing its slots to the
//!   other tenants; deadlines propagate into the engine the same way.
//!
//! Every dataset a request binds is registered once, by spec, as a store
//! on the service grid: a `store:PATH` ingested on that grid is mounted as
//! it lies, anything else is built into one when first bound. So there is
//! one binding kind from the socket to the map input, and map-side serves
//! every query.
//!
//! ```text
//! $ mwsj serve --addr 127.0.0.1:7878 --slots 8 --cache-bytes 16777216
//! $ mwsj query --connect 127.0.0.1:7878 --query "R1 ov R2" \
//!       --data R1=synthetic:n=1000,seed=1 --data R2=synthetic:n=1000,seed=2
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
mod event;
mod pool;
pub mod protocol;
pub mod signal;
pub mod source;

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mwsj_core::mapreduce::{
    json_escape, CancelToken, EngineConfig, FaultPlan, JobErrorKind, JobMetrics, NetFaultPlan,
};
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, JoinError, JoinOutput, StoredRun};
use mwsj_query::Query;

use cache::{CacheKey, CachedResult, ResultCache};
use protocol::{ErrorCode, ExplainRequest, QueryRequest, Request};

pub use client::{Client, ClientConfig, ClientError, Proto};
pub use mwsj_core::mapreduce::json;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Engine worker slots shared by all concurrent queries (0 = auto).
    pub slots: usize,
    /// Result-cache byte budget (0 disables caching).
    pub cache_bytes: usize,
    /// Worker threads: requests executing concurrently (beside what the
    /// loop thread answers itself) before requests queue.
    pub max_inflight: usize,
    /// Requests waiting for a worker before shedding.
    pub max_queue: usize,
    /// Reducer grid side (the paper's 8×8 default).
    pub grid: u32,
    /// The service space is `[0, extent]²`; every dataset must fit.
    pub extent: f64,
    /// Deterministic network faults injected into every connection
    /// (`None` = a clean network).
    pub net_fault: Option<NetFaultPlan>,
    /// Engine-level fault plan (task failures, stragglers, spill
    /// corruption) shared by every query's jobs.
    pub engine_faults: Option<FaultPlan>,
    /// Connections idle (or stuck mid-request-line) longer than this are
    /// evicted — the slow-loris defence.
    pub idle_timeout: Duration,
    /// Request lines longer than this are rejected and the connection
    /// closed — bounds per-connection memory.
    pub max_request_line: usize,
    /// On shutdown, in-flight queries get this long to finish before
    /// their runs are cancelled.
    pub drain_deadline: Duration,
    /// After admission sheds a request, the service stays in *brownout*
    /// for this long: cache hits are still served, cache misses are shed
    /// immediately instead of queueing — bounding tail latency while
    /// overloaded.
    pub brownout_window: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            slots: 0,
            cache_bytes: 16 << 20,
            max_inflight: 4,
            max_queue: 16,
            grid: 8,
            extent: 100_000.0,
            net_fault: None,
            engine_faults: None,
            idle_timeout: Duration::from_secs(30),
            max_request_line: 1 << 20,
            drain_deadline: Duration::from_secs(5),
            brownout_window: Duration::from_secs(2),
        }
    }
}

impl ServerConfig {
    /// Sets the shared engine slot count.
    #[must_use]
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Sets the result-cache byte budget.
    #[must_use]
    pub fn with_cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Sets the admission limits.
    #[must_use]
    pub fn with_admission(mut self, max_inflight: usize, max_queue: usize) -> Self {
        self.max_inflight = max_inflight.max(1);
        self.max_queue = max_queue;
        self
    }

    /// Injects deterministic network faults into every connection.
    #[must_use]
    pub fn with_net_faults(mut self, plan: NetFaultPlan) -> Self {
        plan.validate();
        self.net_fault = Some(plan);
        self
    }

    /// Injects engine-level faults (task failures, stragglers, spill
    /// corruption) into every query's jobs.
    #[must_use]
    pub fn with_engine_faults(mut self, plan: FaultPlan) -> Self {
        plan.validate();
        self.engine_faults = Some(plan);
        self
    }

    /// Sets the idle-connection eviction timeout.
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the shutdown drain deadline.
    #[must_use]
    pub fn with_drain_deadline(mut self, deadline: Duration) -> Self {
        self.drain_deadline = deadline;
        self
    }

    /// Sets the brownout window entered after a shed.
    #[must_use]
    pub fn with_brownout_window(mut self, window: Duration) -> Self {
        self.brownout_window = window;
        self
    }

    /// Bounds the accepted request-line length.
    #[must_use]
    pub fn with_max_request_line(mut self, bytes: usize) -> Self {
        self.max_request_line = bytes.max(64);
        self
    }
}

/// Monotonic service counters (all successful/failed request outcomes).
#[derive(Default)]
struct ServiceStats {
    /// Query requests answered with a result.
    queries: AtomicU64,
    /// Of those, answered from the result cache.
    served_from_cache: AtomicU64,
    /// Runs cancelled (client disconnect, explicit cancel or deadline).
    cancelled: AtomicU64,
    /// Requests shed by admission control.
    shed: AtomicU64,
    /// Of those, shed fast because the service was in brownout.
    brownout_sheds: AtomicU64,
    /// Connections evicted by the idle timeout (slow-loris defence) or
    /// the request-line length bound.
    evicted: AtomicU64,
    /// Other failed requests (bad requests, failed joins).
    errors: AtomicU64,
    /// Requests the loop thread answered itself, sheds aside.
    answered_inline: AtomicU64,
    /// Busy workers and queued requests, as the loop thread last saw its
    /// pool (gauges, not counters).
    pool_load: (AtomicU64, AtomicU64),
}

/// One name's slot: empty until its first load succeeds. A load runs
/// under the slot's lock, so clients racing to first-touch one name wait
/// for the one load instead of each holding a copy of their own.
type Slot<V> = Arc<parking_lot::Mutex<Option<V>>>;

/// Loaded resources by name. The outer lock guards the map only, never a
/// load: a request whose resources are all registered must not wait behind
/// another request's first load of something else.
struct Registry<V>(parking_lot::Mutex<HashMap<String, Slot<V>>>);

impl<V: Clone> Registry<V> {
    fn new() -> Self {
        Self(parking_lot::Mutex::new(HashMap::new()))
    }

    /// The registered value, or the result of `load` registered under
    /// `name`, and whether this call ran the load. `load` runs at most
    /// once at a time per name and, once it has succeeded, never again; a
    /// failed load registers nothing, so the next request for the name
    /// tries afresh.
    fn get_or_load(
        &self,
        name: &str,
        load: impl FnOnce() -> Result<V, String>,
    ) -> Result<(V, bool), String> {
        let slot = {
            let mut map = self.0.lock();
            match map.get(name) {
                Some(slot) => Arc::clone(slot),
                None => Arc::clone(map.entry(name.to_string()).or_default()),
            }
        };
        let mut slot = slot.lock();
        if let Some(hit) = &*slot {
            return Ok((hit.clone(), false));
        }
        let loaded = load()?;
        *slot = Some(loaded.clone());
        Ok((loaded, true))
    }

    /// The registered value, if it can be read without waiting — all the
    /// loop thread may ask: a name mid-load holds its slot's lock and
    /// reads as absent.
    fn peek(&self, name: &str) -> Option<V> {
        let slot = Arc::clone(self.0.lock().get(name)?);
        let registered = slot.try_lock()?.clone();
        registered
    }
}

struct Inner {
    config: ServerConfig,
    cluster: Cluster,
    cache: ResultCache,
    /// Every bound dataset by source spec, as a store on the service grid:
    /// each query joins straight off these.
    datasets: Registry<Arc<StoredDataset>>,
    stats: ServiceStats,
    stop: AtomicBool,
    /// Brownout lease: while `Instant::now()` is before this, whatever
    /// the loop thread cannot answer itself is shed without queueing.
    brownout_until: parking_lot::Mutex<Option<Instant>>,
}

impl Inner {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    fn brownout_active(&self) -> bool {
        self.brownout_until
            .lock()
            .is_some_and(|until| Instant::now() < until)
    }

    /// Publishes the pool's load for the `stats` op.
    fn publish_load(&self, pool: &pool::Pool<event::Completion>) {
        let (busy, queued) = pool.load();
        self.stats.pool_load.0.store(busy as u64, Ordering::Relaxed);
        self.stats
            .pool_load
            .1
            .store(queued as u64, Ordering::Relaxed);
    }

    /// Extends the brownout lease after an overload event.
    fn note_overload(&self) {
        *self.brownout_until.lock() = Some(Instant::now() + self.config.brownout_window);
    }

    /// The store a spec binds, loaded on first use, and the wall the load
    /// took — zero unless this call ran it, so a load is charged to the one
    /// query that paid for it (see [`mwsj_core::StoredRun::open_wall`]).
    /// A `store:PATH` on the service grid is mounted as it lies; any other
    /// spec is loaded once — a store on another grid is materialized from
    /// the one open that read it — and built into a store on the service
    /// grid, whose builder rejects a rectangle outside the service space.
    /// Every store carries the DFS-recipe fingerprint of its input-order
    /// records ([`mwsj_core::store::dataset_fingerprint`]), so every spec
    /// of the same data shares plans and cache entries.
    fn dataset(&self, spec: &str) -> Result<(Arc<StoredDataset>, Duration), String> {
        let t0 = Instant::now();
        let (store, loaded) = self.datasets.get_or_load(spec, || {
            let grid = self.cluster.grid();
            let rects = match spec.strip_prefix("store:") {
                Some(path) => {
                    let stored = StoredDataset::open(std::path::Path::new(path))
                        .map_err(|e| format!("opening store `{path}`: {e}"))?;
                    if stored.grid() == grid {
                        return Ok(Arc::new(stored));
                    }
                    stored.materialize()
                }
                None => source::load_source(spec)?,
            };
            let bytes = StoreBuilder::new(grid).build(&rects).map_err(|e| {
                let extent = self.config.extent;
                format!("dataset `{spec}` does not fit the service space [0, {extent}]^2: {e}")
            })?;
            // The input records go before the decode makes their copy.
            drop(rects);
            let built = StoredDataset::from_bytes(&bytes).map_err(|e| e.to_string())?;
            Ok(Arc::new(built))
        })?;
        Ok((store, if loaded { t0.elapsed() } else { Duration::ZERO }))
    }
}

/// The TCP service. [`Server::bind`] it, then [`Server::run`] the accept
/// loop (typically on a dedicated thread); `run` returns after a
/// `shutdown` op or a termination signal, once in-flight requests have
/// drained.
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds the listen socket and builds the shared cluster.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        // A config written as a struct literal skips `with_admission`'s clamp.
        let config = ServerConfig {
            max_inflight: config.max_inflight.max(1),
            ..config
        };
        let space = (0.0, config.extent);
        let mut engine = EngineConfig::default().with_slots(config.slots);
        engine.fault_plan = config.engine_faults.clone();
        let cluster =
            Cluster::new(ClusterConfig::for_space(space, space, config.grid).with_engine(engine));
        let inner = Arc::new(Inner {
            cache: ResultCache::new(config.cache_bytes),
            datasets: Registry::new(),
            stats: ServiceStats::default(),
            stop: AtomicBool::new(false),
            brownout_until: parking_lot::Mutex::new(None),
            cluster,
            config,
        });
        Ok(Server { listener, inner })
    }

    /// The bound address (useful with a `:0` config).
    ///
    /// # Errors
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the event loop until shutdown is requested (a `shutdown`
    /// protocol op, or `SIGTERM`/`SIGINT` once
    /// [`signal::install_handlers`] is in place), then *drains*: no new
    /// connections are accepted, in-flight requests get up to
    /// [`ServerConfig::drain_deadline`] to finish and flush, and
    /// whatever is still running afterwards is cancelled through the
    /// engine's cancellation tokens before the loop exits.
    ///
    /// # Errors
    /// Propagates event-loop I/O failures (not per-connection ones).
    pub fn run(self) -> std::io::Result<()> {
        event::run(&self.listener, &self.inner)
    }
}

/// Answers one parsed request with its one-line JSON response. A worker
/// brings the cancel token the loop fires if the client disconnects or the
/// drain deadline passes mid-run, and always answers. The loop thread asks
/// first, with no `worker` token: it only peeks — no load, no plan, no
/// join, no lock it could wait on — and at the first miss gives the
/// request up (`None`) to a worker, who runs this same path from the top.
fn answer(
    inner: &Inner,
    request: &Result<Request, String>,
    worker: Option<&CancelToken>,
) -> Option<String> {
    match request {
        Err(msg) => Some(fail(inner, ErrorCode::BadRequest, msg)),
        Ok(Request::Stats) => Some(stats_response(inner)),
        Ok(Request::Shutdown) => {
            inner.stop.store(true, Ordering::SeqCst);
            Some("{\"ok\":true,\"stopping\":true}".to_string())
        }
        Ok(Request::Query(q)) => handle_query(inner, q, worker),
        Ok(Request::Explain(e)) => handle_explain(inner, e, worker.is_none()),
    }
}

/// Counts a failed request and renders its typed error.
fn fail(inner: &Inner, code: ErrorCode, msg: &str) -> String {
    inner.stats.errors.fetch_add(1, Ordering::Relaxed);
    protocol::error_response(code, msg)
}

/// A parsed and bound query: the canonical form, the stores bound to its
/// canonical relation positions, their fingerprints, and the
/// requester-order permutation.
struct BoundQuery {
    canonical: Query,
    stores: Vec<Arc<StoredDataset>>,
    /// The wall of the loads this bind ran, charged to this query.
    open_wall: Duration,
    fingerprints: Vec<u64>,
    combined_fingerprint: u64,
    /// Requester position i reads canonical position perm[i].
    perm: Vec<usize>,
}

impl BoundQuery {
    fn refs(&self) -> Vec<&StoredDataset> {
        self.stores.iter().map(Arc::as_ref).collect()
    }
}

// The query path is six stages, one function each:
// bind → resolve → lookup → admit → run → render.
// A result-cache hit leaves after lookup, so everything it pays — parse,
// bind, the plan, the cache get, the response render — is proportional to
// the request, the grid and the reply, never to the datasets; the loop
// thread runs those three stages itself, as peeks. `admit` is its
// step between that attempt and a worker's run of the whole path.

/// Stage 1 — bind: parses a query and binds a dataset to every canonical
/// relation position. Shared by the `query` and `explain` operations.
/// With `peek`, binds only what is registered already: `Ok(None)` when a
/// dataset would have to be loaded.
fn bind_query(
    inner: &Inner,
    query_text: &str,
    data: &[(String, String)],
    peek: bool,
) -> Result<Option<BoundQuery>, String> {
    let query = Query::parse(query_text).map_err(|e| format!("bad query: {e}"))?;
    let canonical = query.canonical();
    let requested_names: Vec<&str> = query.relations().map(|r| query.name(r)).collect();
    let canonical_names: Vec<String> = canonical
        .relations()
        .map(|r| canonical.name(r).to_string())
        .collect();
    for (name, _) in data {
        if !canonical_names.contains(name) {
            return Err(format!(
                "data binding `{name}` does not appear in the query"
            ));
        }
    }
    let mut specs: Vec<&str> = Vec::with_capacity(canonical_names.len());
    for name in &canonical_names {
        let (_, spec) = data
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("no data binding for relation `{name}`"))?;
        specs.push(spec);
    }

    let mut stores = Vec::with_capacity(specs.len());
    let mut open_wall = Duration::ZERO;
    for spec in specs {
        let (store, opened_in) = if peek {
            let Some(store) = inner.datasets.peek(spec) else {
                return Ok(None);
            };
            (store, Duration::ZERO)
        } else {
            inner.dataset(spec)?
        };
        open_wall += opened_in;
        stores.push(store);
    }
    let fingerprints: Vec<u64> = stores.iter().map(|s| s.fingerprint()).collect();
    let combined_fingerprint = mwsj_core::combine_fingerprints(&fingerprints);
    let perm: Vec<usize> = requested_names
        .iter()
        .map(|n| {
            canonical_names
                .iter()
                .position(|c| c == n)
                .expect("canonicalization preserves relation names")
        })
        .collect();
    Ok(Some(BoundQuery {
        canonical,
        stores,
        open_wall,
        fingerprints,
        combined_fingerprint,
        perm,
    }))
}

/// Answers an `explain` request: binds the datasets and returns the
/// costed plan without executing anything.
fn handle_explain(inner: &Inner, e: &ExplainRequest, peek: bool) -> Option<String> {
    let bound = match bind_query(inner, &e.query, &e.data, peek).transpose()? {
        Ok(bound) => bound,
        Err(msg) => return Some(fail(inner, ErrorCode::BadRequest, &msg)),
    };
    Some(format!(
        "{{\"ok\":true,\"plan\":{},\"fingerprint\":\"{:016x}\"}}",
        inner
            .cluster
            .plan_stored(&bound.canonical, &bound.refs())
            .to_json(),
        bound.combined_fingerprint
    ))
}

/// Stage 2 — resolve: the concrete algorithm the request runs under.
/// `auto` becomes the optimizer's choice *before* the cache key is
/// formed: the key must never contain `"auto"`, so an auto query and its
/// manually-pinned twin share one cache entry. The plan is deterministic,
/// so resolving here and pinning the run keeps the key and the execution
/// consistent. A pinned request never plans.
fn resolve(inner: &Inner, bound: &BoundQuery, requested: Algorithm) -> Algorithm {
    match requested {
        Algorithm::Auto => {
            (inner.cluster)
                .plan_stored(&bound.canonical, &bound.refs())
                .algorithm
        }
        pinned => pinned,
    }
}

/// Stage 3 — lookup: a result-cache hit, counted as a served query. A
/// peek that finds nothing leaves the miss for the worker to count.
fn lookup(inner: &Inner, key: &CacheKey, peek: bool) -> Option<Arc<CachedResult>> {
    let hit = if peek {
        inner.cache.peek(key)
    } else {
        inner.cache.get(key)
    }?;
    inner.stats.queries.fetch_add(1, Ordering::Relaxed);
    inner
        .stats
        .served_from_cache
        .fetch_add(1, Ordering::Relaxed);
    Some(hit)
}

/// Stage 4 — admit, on the loop thread: a worker (or a place in the queue
/// behind them) for a request the loop could not answer itself, or the
/// `overloaded` response that sheds it.
fn admit(
    inner: &Inner,
    pool: &mut pool::Pool<event::Completion>,
    job: pool::Job<event::Completion>,
) -> Result<(), String> {
    // Brownout: while the overload lease is live, work for the pool is
    // shed immediately rather than queued behind a saturated engine
    // (cache hits never get here and still serve).
    if inner.brownout_active() {
        inner.stats.shed.fetch_add(1, Ordering::Relaxed);
        inner.stats.brownout_sheds.fetch_add(1, Ordering::Relaxed);
        inner.note_overload();
        return Err(protocol::error_response(
            ErrorCode::Overloaded,
            "service in brownout: cache misses are shed while overloaded",
        ));
    }
    let admitted = pool.submit(job).map_err(|_| {
        inner.stats.shed.fetch_add(1, Ordering::Relaxed);
        inner.note_overload();
        let (busy, queued) = pool.load();
        let msg = format!("service at capacity: {busy} requests running, {queued} queued");
        protocol::error_response(ErrorCode::Overloaded, &msg)
    });
    inner.publish_load(pool);
    admitted
}

/// Stage 5 — run: the join itself, one [`Cluster::submit_stored`] run on
/// the calling worker.
fn run(
    inner: &Inner,
    bound: &BoundQuery,
    q: &QueryRequest,
    algorithm: Algorithm,
    cancel: &CancelToken,
) -> Result<JoinOutput, JoinError> {
    let refs = bound.refs();
    let run = StoredRun::new(&bound.canonical, &refs)
        .open_wall(bound.open_wall)
        .algorithm(algorithm)
        .count_only(q.count_only)
        .cancel(cancel.clone())
        .priority(q.priority)
        .share(q.share);
    let run = match q.deadline_ms {
        Some(ms) => run.deadline(Duration::from_millis(ms)),
        None => run,
    };
    inner.cluster.submit_stored(&run)
}

/// Stage 6 — render: caches a finished run and renders it in the
/// requester's relation order, or maps a failed one to its typed error.
fn render(
    inner: &Inner,
    outcome: Result<JoinOutput, JoinError>,
    key: CacheKey,
    bound: &BoundQuery,
    started: Instant,
) -> String {
    match outcome {
        Ok(output) => {
            let value = CachedResult {
                tuples: output.tuples,
                tuple_count: output.tuple_count,
                counters: counters_json(&output.report.jobs),
                algorithm: output.algorithm.to_string(),
            };
            let cached = inner.cache.insert(key, value);
            inner.stats.queries.fetch_add(1, Ordering::Relaxed);
            protocol::query_response(
                false,
                &cached,
                &bound.perm,
                bound.combined_fingerprint,
                started.elapsed(),
            )
        }
        Err(JoinError::Job(e)) => {
            if let JobErrorKind::Cancelled { deadline_exceeded } = e.kind {
                inner.stats.cancelled.fetch_add(1, Ordering::Relaxed);
                let code = if deadline_exceeded {
                    ErrorCode::DeadlineExceeded
                } else {
                    ErrorCode::Cancelled
                };
                protocol::error_response(code, &e.to_string())
            } else {
                fail(inner, ErrorCode::JoinFailed, &e.to_string())
            }
        }
        Err(JoinError::InvalidInput(msg)) => fail(inner, ErrorCode::BadRequest, &msg),
        Err(e) => fail(inner, ErrorCode::JoinFailed, &e.to_string()),
    }
}

/// Executes a query request on the calling thread: end to end on a
/// worker, up to the first miss on the loop thread (see [`answer`]).
fn handle_query(inner: &Inner, q: &QueryRequest, worker: Option<&CancelToken>) -> Option<String> {
    let started = Instant::now();
    let peek = worker.is_none();
    let bound = match bind_query(inner, &q.query, &q.data, peek).transpose()? {
        Ok(bound) => bound,
        Err(msg) => return Some(fail(inner, ErrorCode::BadRequest, &msg)),
    };
    let algorithm = resolve(inner, &bound, q.algorithm);
    let key = CacheKey {
        query: bound.canonical.to_string(),
        fingerprints: bound.fingerprints.clone(),
        algorithm: algorithm.to_string(),
        count_only: q.count_only,
    };
    if let Some(hit) = lookup(inner, &key, peek) {
        return Some(protocol::query_response(
            true,
            &hit,
            &bound.perm,
            bound.combined_fingerprint,
            started.elapsed(),
        ));
    }
    let outcome = run(inner, &bound, q, algorithm, worker?);
    Some(render(inner, outcome, key, &bound, started))
}

/// The logical (concurrency-invariant) per-job counters of a run.
fn counters_json(jobs: &[JobMetrics]) -> String {
    let mut out = String::from("[");
    for (i, j) in jobs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"job\":\"{}\",\"map_input_records\":{},\"map_output_records\":{},\"shuffle_bytes\":{},\"reduce_input_groups\":{},\"reduce_input_records\":{},\"reduce_output_records\":{},\"spill_runs\":{},\"retries\":{},\"corrupt_runs\":{},\"input_fingerprint\":\"{:016x}\"}}",
            json_escape(&j.job_name),
            j.map_input_records,
            j.map_output_records,
            j.shuffle_bytes,
            j.reduce_input_groups,
            j.reduce_input_records,
            j.reduce_output_records,
            j.spill_runs,
            j.retries,
            j.corrupt_runs,
            j.input_fingerprint,
        ));
    }
    out.push(']');
    out
}

/// Renders the `stats` response.
fn stats_response(inner: &Inner) -> String {
    let c = inner.cache.stats();
    let sched = inner.cluster.engine().scheduler();
    format!(
        "{{\"ok\":true,\"queries\":{},\"served_from_cache\":{},\"cancelled\":{},\"shed\":{},\"brownout_sheds\":{},\"evicted\":{},\"errors\":{},\"brownout\":{},\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"bytes\":{},\"entries\":{}}},\"slots\":{},\"slots_available\":{},\"workers\":{},\"busy\":{},\"queued\":{},\"answered_inline\":{}}}",
        inner.stats.queries.load(Ordering::Relaxed),
        inner.stats.served_from_cache.load(Ordering::Relaxed),
        inner.stats.cancelled.load(Ordering::Relaxed),
        inner.stats.shed.load(Ordering::Relaxed),
        inner.stats.brownout_sheds.load(Ordering::Relaxed),
        inner.stats.evicted.load(Ordering::Relaxed),
        inner.stats.errors.load(Ordering::Relaxed),
        inner.brownout_active(),
        c.hits,
        c.misses,
        c.evictions,
        c.bytes,
        c.entries,
        sched.slots(),
        sched.available(),
        inner.config.max_inflight,
        inner.stats.pool_load.0.load(Ordering::Relaxed),
        inner.stats.pool_load.1.load(Ordering::Relaxed),
        inner.stats.answered_inline.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    const A: &str = "synthetic:n=300,seed=1,extent=5000,lmax=300";
    const B: &str = "synthetic:n=300,seed=2,extent=5000,lmax=300";
    const C: &str = "synthetic:n=300,seed=3,extent=5000,lmax=300";

    fn service() -> Arc<Inner> {
        Server::bind(ServerConfig::default()).expect("bind").inner
    }

    /// The reply a worker gives.
    fn ask(inner: &Inner, line: &str) -> String {
        let worker = CancelToken::new();
        answer(inner, &protocol::parse_request(line), Some(&worker))
            .expect("a worker always answers")
    }

    /// The reply the loop thread gives, if it can.
    fn peek(inner: &Inner, line: &str) -> Option<String> {
        answer(inner, &protocol::parse_request(line), None)
    }

    fn request(op: &str, query: &str, data: &[(&str, &str)], extra: &str) -> String {
        let bindings: Vec<String> = data
            .iter()
            .map(|(name, spec)| format!("\"{name}\":\"{spec}\""))
            .collect();
        format!(
            "{{\"op\":\"{op}\",\"query\":\"{query}\",\"data\":{{{}}}{extra}}}",
            bindings.join(",")
        )
    }

    /// Ingests `spec` on the service grid; the file is unique per test.
    fn ingest(inner: &Inner, test: &str, spec: &str) -> String {
        let rects = source::load_source(spec).expect("load source");
        let path = std::env::temp_dir().join(format!(
            "mwsj-server-unit-{}-{test}-{}.store",
            std::process::id(),
            mwsj_core::store::dataset_fingerprint(&rects)
        ));
        mwsj_core::store::StoreBuilder::new(inner.cluster.grid())
            .write(&rects, &path)
            .expect("ingest store");
        format!("store:{}", path.display())
    }

    fn remove(store_specs: &[String]) {
        for spec in store_specs {
            let _ = std::fs::remove_file(spec.strip_prefix("store:").expect("a store spec"));
        }
    }

    #[test]
    fn registry_hit_does_not_wait_behind_another_names_load() {
        let registry: Registry<u32> = Registry::new();
        registry.get_or_load("a", || Ok(1)).unwrap();
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (hit_tx, hit_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let registry = &registry;
            scope.spawn(move || {
                registry.get_or_load("b", || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(2)
                })
            });
            // `b`'s load is now running and stays running until released.
            started_rx.recv().unwrap();
            scope.spawn(move || {
                let hit = registry.get_or_load("a", || unreachable!("`a` is registered"));
                hit_tx.send(hit).unwrap();
            });
            // A hit that waited for `b` would hang here; the timeout only
            // turns that hang into a failure.
            let hit = hit_rx.recv_timeout(Duration::from_secs(30));
            release_tx.send(()).unwrap();
            assert_eq!(
                hit,
                Ok(Ok((1, false))),
                "the hit on `a` waited behind `b`'s load"
            );
        });
        assert_eq!(
            registry.get_or_load("b", || unreachable!("`b` is registered")),
            Ok((2, false))
        );
    }

    #[test]
    fn racing_first_loads_register_one_copy() {
        const CLIENTS: usize = 8;
        let registry: Registry<u32> = Registry::new();
        let loads = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(CLIENTS);
        std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        registry.get_or_load("a", || {
                            loads.fetch_add(1, Ordering::SeqCst);
                            // Held open so the other clients arrive mid-load;
                            // only a registry that let them load too needs it.
                            std::thread::sleep(Duration::from_millis(50));
                            Ok(7)
                        })
                    })
                })
                .collect();
            // Every client gets the value; the one that loaded it says so.
            let mut loaded = 0;
            for client in clients {
                let (value, this_call_loaded) = client.join().unwrap().unwrap();
                assert_eq!(value, 7);
                loaded += usize::from(this_call_loaded);
            }
            assert_eq!(loaded, 1);
        });
        assert_eq!(loads.load(Ordering::SeqCst), 1, "one load per name");

        // A failed load is not cached: the next request loads afresh.
        assert_eq!(
            registry.get_or_load("b", || Err("unreadable".to_string())),
            Err("unreadable".to_string())
        );
        assert_eq!(registry.get_or_load("b", || Ok(2)), Ok((2, true)));
    }

    /// A load's wall is charged to the query whose bind ran it, and to no
    /// other: a second bind of the same spec — a worker's or a peek —
    /// carries zero, as does the second position of a self-join.
    #[test]
    fn an_open_wall_is_charged_to_the_bind_that_loaded() {
        let inner = service();
        let stores = [ingest(&inner, "charge", A)];
        for spec in [A, stores[0].as_str()] {
            let data = [
                ("A".to_string(), spec.to_string()),
                ("B".to_string(), spec.to_string()),
            ];
            let bind = |peek| {
                bind_query(&inner, "A ov B", &data, peek)
                    .expect("bind")
                    .map(|b| b.open_wall)
            };
            assert_eq!(bind(true), None, "{spec}: nothing is registered yet");
            let first = bind(false).expect("a worker binds");
            assert!(first > Duration::ZERO, "{spec}: the load took no time");
            assert_eq!(bind(false), Some(Duration::ZERO), "{spec}");
            assert_eq!(bind(true), Some(Duration::ZERO), "{spec}");
        }
        remove(&stores);
    }

    /// The loop thread's attempt: a cached request or an `explain` over
    /// registered names is answered while other names are mid-load;
    /// anything else is handed on without waiting for a load and without
    /// counting the miss the worker will count.
    #[test]
    fn the_loop_answers_hits_beside_running_loads_and_counts_no_miss_twice() {
        let inner = service();
        let ab = [("A", A), ("B", B)];
        let hit = request("query", "A ov B", &ab, "");
        assert_eq!(peek(&inner, &hit), None, "nothing is registered yet");
        assert!(ask(&inner, &hit).contains("\"cached\":false"));
        let counted = |inner: &Inner| {
            let cache = inner.cache.stats();
            (cache.hits, cache.misses)
        };
        assert_eq!(counted(&inner), (0, 1));

        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (peeked_tx, peeked_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let inner = &inner;
            scope.spawn(move || {
                inner.datasets.get_or_load(C, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Err("released".to_string())
                })
            });
            // `C`'s load is now running and stays running until released.
            started_rx.recv().unwrap();
            scope.spawn(move || {
                let bc = [("B", B), ("C", C)];
                let swapped = request("explain", "A ov B", &[("A", B), ("B", A)], "");
                let peeks = [
                    peek(inner, &hit),
                    peek(inner, &request("explain", "A ov B", &ab, "")),
                    peek(inner, &request("query", "B ov C", &bc, "")),
                    peek(
                        inner,
                        &request("query", "A ov B", &ab, ",\"count_only\":true"),
                    ),
                    peek(inner, &swapped),
                ];
                peeked_tx.send(peeks).unwrap();
            });
            // A peek that waited for `C` would hang here; the timeout only
            // turns that hang into a failure.
            let peeks = peeked_rx.recv_timeout(Duration::from_secs(30));
            release_tx.send(()).unwrap();
            let [hit, explained, mid_load, uncached, swapped] =
                peeks.expect("a peek waited behind `C`'s load");
            assert!(hit.expect("a cached result").contains("\"cached\":true"));
            for explained in [explained, swapped] {
                assert!(explained.expect("a plan").contains("\"plan\":"));
            }
            assert_eq!([mid_load, uncached], [None, None]);
        });
        // One cache hit, and not one miss more.
        assert_eq!(counted(&inner), (1, 1));
        assert_eq!(inner.stats.errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn synthetic_fingerprint_is_pinned_and_the_stored_twin_shares_the_entry() {
        let inner = service();
        let (store, _) = inner.dataset(A).expect("load");
        // Every reply's `"fingerprint"` and every cache key derive from it.
        assert_eq!(store.fingerprint(), 0x9ff1_de65_df7c_228d);

        let stores = [ingest(&inner, "twin", A), ingest(&inner, "twin", B)];
        let pinned = ",\"algorithm\":\"crep-l\"";
        let first = ask(
            &inner,
            &request("query", "A ov B", &[("A", A), ("B", B)], pinned),
        );
        assert!(first.contains("\"cached\":false"), "{first}");
        let twin = ask(
            &inner,
            &request(
                "query",
                "A ov B",
                &[("A", &stores[0]), ("B", &stores[1])],
                pinned,
            ),
        );
        assert!(twin.contains("\"cached\":true"), "{twin}");
        remove(&stores);
    }

    #[test]
    fn explain_is_byte_identical_to_a_fresh_plan() {
        let inner = service();
        let q2 = "A ov B and B ov C";
        let abc = [("A", A), ("B", B), ("C", C)];
        let cold = ask(&inner, &request("explain", q2, &abc, ""));
        let warm = ask(&inner, &request("explain", q2, &abc, ""));
        assert_eq!(cold, warm);
        // What `explain` answers is what the planner says, and a
        // differently-spelled query plans its canonical form.
        let bound = bind_query(
            &inner,
            q2,
            &abc.map(|(n, s)| (n.to_string(), s.to_string())),
            true,
        )
        .expect("bind")
        .expect("every dataset is registered");
        let fresh = (inner.cluster)
            .plan_stored(&bound.canonical, &bound.refs())
            .to_json();
        assert!(warm.contains(&fresh), "{warm} vs {fresh}");
        let respelled = ask(&inner, &request("explain", "C ov B and B ov A", &abc, ""));
        assert_eq!(respelled, warm);

        // Another query over the same datasets, and the same query over a
        // re-seeded dataset, are different plans.
        let cycle = ask(
            &inner,
            &request("explain", "A ov B and B ov C and A ov C", &abc, ""),
        );
        assert_ne!(cycle, warm);
        let reseeded = "synthetic:n=300,seed=4,extent=5000,lmax=300";
        let reseeded = ask(
            &inner,
            &request("explain", q2, &[("A", A), ("B", B), ("C", reseeded)], ""),
        );
        assert_ne!(reseeded, warm);
        let stats = ask(&inner, "{\"op\":\"stats\"}");
        assert!(!stats.contains("\"plans\""), "{stats}");
    }

    /// Every binding is a store on the service grid, so a generator spec
    /// and the store ingested from it are one dataset: one plan, one
    /// cached result, one reply.
    #[test]
    fn a_spec_and_the_store_ingested_from_it_share_one_plan_and_one_result() {
        let inner = service();
        let stores = [ingest(&inner, "alias", A), ingest(&inner, "alias", B)];
        let spec_data = [("A", A), ("B", B)];
        let store_data = [("A", stores[0].as_str()), ("B", stores[1].as_str())];
        let explained = [&spec_data, &store_data]
            .map(|data| ask(&inner, &request("explain", "A ov B", data, "")));
        assert_eq!(explained[0], explained[1]);
        assert!(
            explained[0].contains("\"algorithm\":\"map-side\""),
            "{}",
            explained[0]
        );
        // The stores are registered now; no bind reads their files again.
        remove(&stores);

        let answered = [&spec_data, &store_data]
            .map(|data| ask(&inner, &request("query", "A ov B", data, "")));
        assert!(answered[0].contains("\"cached\":false"), "{}", answered[0]);
        assert!(answered[1].contains("\"cached\":true"), "{}", answered[1]);
        let logical = |reply: &str| {
            let reply = reply.replacen("\"cached\":false", "", 1);
            let reply = reply.replacen("\"cached\":true", "", 1);
            let at = reply.find(",\"wall_ms\":").expect("wall_ms");
            let end = at + reply[at + 1..].find(',').expect("a field after wall_ms") + 1;
            format!("{}{}", &reply[..at], &reply[end..])
        };
        assert_eq!(logical(&answered[0]), logical(&answered[1]));
        let cache = inner.cache.stats();
        assert_eq!((cache.hits, cache.misses, cache.entries), (1, 1, 1));
    }
}
