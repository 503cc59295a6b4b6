//! `mwsj` — run multi-way spatial joins on the simulated map-reduce
//! cluster from the command line.
//!
//! ```text
//! mwsj run --query "R1 ov R2 and R2 ov R3" \
//!          --data R1=synthetic:n=10000,seed=1,extent=20000 \
//!          --data R2=synthetic:n=10000,seed=2,extent=20000 \
//!          --data R3=synthetic:n=10000,seed=3,extent=20000 \
//!          [--algorithm auto] [--grid 8] [--count-only] [--plan] [--out results.csv]
//!
//! mwsj explain --query "R1 ov R2 and R2 ov R3" --data R1=... --data R2=... --data R3=...
//!
//! mwsj serve --addr 127.0.0.1:7878 --slots 8 --cache-bytes 16777216
//! mwsj query --connect 127.0.0.1:7878 --query "R1 ov R2" \
//!          --data R1=synthetic:n=1000,seed=1 --data R2=synthetic:n=1000,seed=2
//!
//! mwsj gen  --source california:n=20000,seed=7 --out roads.csv
//! mwsj ann  --outer a.csv --inner b.csv [--grid 8]
//! mwsj stats --source roads.csv
//! ```

mod args;

use mwsj_server::source as data;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use args::Args;
use mwsj_core::mapreduce::{json_escape, validate_json, EngineConfig, FaultPlan, TraceSink};
use mwsj_core::partition::Grid;
use mwsj_core::store::{StoreBuilder, StoredDataset};
use mwsj_core::{Algorithm, Cluster, ClusterConfig, StoredRun};
use mwsj_datagen::CaliforniaStats;
use mwsj_geom::Rect;
use mwsj_query::Query;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    // `--help` after any subcommand asks for the usage, not for a run.
    if args.flag("help") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let result = match args.command.as_deref() {
        Some("run") => cmd_run(&args),
        Some("explain") => cmd_explain(&args),
        Some("serve") => cmd_serve(&args),
        Some("query") => cmd_query(&args),
        Some("ingest") => cmd_ingest(&args),
        Some("gen") => cmd_gen(&args),
        Some("ann") => cmd_ann(&args),
        Some("stats") => cmd_stats(&args),
        Some("trace-check") => cmd_trace_check(&args),
        Some("help") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`; try `mwsj help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::FAILURE
}

const HELP: &str = "\
mwsj — multi-way spatial joins on a simulated map-reduce cluster

USAGE:
  mwsj run   --query Q --data NAME=SOURCE [--data ...] [options]
  mwsj explain --query Q --data NAME=SOURCE [--data ...] [--grid N | --connect HOST:PORT]
  mwsj serve --addr HOST:PORT [serve options]
  mwsj query --connect HOST:PORT --query Q --data NAME=SOURCE [--data ...]
  mwsj ingest --source SOURCE --out FILE.store [--grid N] [--extent E]
  mwsj gen   --source SOURCE --out FILE.csv
  mwsj ann   --outer SOURCE --inner SOURCE [--grid N] [--k K]
  mwsj stats --source SOURCE
  mwsj trace-check --file FILE
  mwsj help

QUERIES  (see the library docs for the full grammar)
  \"R1 overlaps R2 and R2 within 100 of R3\"
  \"county contains city and city ov river\"

SOURCES
  file.csv                                  CSV rows: x,y,l,b
  synthetic:n=10000,seed=1,extent=100000,lmax=100[,bmax=..]
  california:n=20000,seed=2013[,full]
  store:file.store                          `mwsj ingest` output
  `run`, `explain` and `serve` bind every source as a store on one grid
  (stores on that grid as they are), so map-side joins any of them

RUN OPTIONS
  --algorithm auto|cascade|allrep|crep|crep-l|hypercube|map-side
                  (default auto: the cost-based optimizer picks;
                  `mwsj explain` shows why)
  --grid N        reducer grid side, N x N cells (default 8; stores that are
                  every binding keep their own grid)
  --count-only    count result tuples without materializing them
  --plan          reorder the cascade's joins by estimated selectivity
  --out FILE      write result tuples as CSV ids

INGEST OPTIONS  (partition + index a dataset into an on-disk store)
  --source SOURCE any source above; --out FILE.store the store to write
  --grid N        partition grid side (default 8; must match the grid the
                  store is later queried on)
  --extent E      the store space is [0, E]^2 (default 100000, matching
                  `mwsj serve`; every rectangle must fit)

EXPLAIN  (print the optimizer's costed plan as JSON, without executing)
  --grid N            reducer grid side for a local plan (default 8)
  --connect HOST:PORT ask a running `mwsj serve` instead (uses its grid)

SERVE OPTIONS  (a concurrent query service; line-JSON or binary framing)
  --addr HOST:PORT    listen address (default 127.0.0.1:7878; :0 picks a port)
  --slots N           engine worker slots shared by all queries (default auto)
  --cache-bytes N     result-cache budget in bytes (default 16 MiB; 0 disables)
  --no-cache          disable the result cache (same as --cache-bytes 0)
  --grid N            reducer grid side (default 8)
  --extent E          service space is [0, E]^2 (default 100000)
  --max-inflight N    worker threads: requests running before queueing (default 4)
  --max-queue N       queued requests before shedding `overloaded` (default 16)
  --net-fault-rate P  inject each network fault kind (torn frame, stall,
                      disconnect, corrupt byte, slow loris) into every
                      connection with probability P per I/O op (default 0)
  --net-fault-seed N  seed for the deterministic network faults (default 0)
  --drain-deadline-ms N  on shutdown, let in-flight queries finish for up
                      to N ms before cancelling them (default 5000)
  The wire protocol is sniffed per connection from its first byte: 0xB1
  opens length-prefixed binary framing, anything else is line JSON.

QUERY OPTIONS  (submit to a running `mwsj serve`)
  --connect HOST:PORT server address (required)
  --proto line|binary client wire protocol (default line)
  --algorithm NAME    as in run (default auto)
  --count-only        count tuples without materializing them
  --deadline-ms N     cancel the run past this wall-clock budget
  --priority N / --share N   scheduler priority and fair-share weight
  --stats             print service statistics instead of running a query
  --shutdown          stop the server instead of running a query

FAULT INJECTION  (run and ann; results are identical to fault-free runs)
  --fault-rate P      fail each task attempt and DFS read with probability P
  --straggler-rate P  delay attempts with probability P, racing speculative copies
  --fault-seed N      seed for the deterministic fault decisions (default 0)

TRACING  (run and ann; recording does not perturb the metric counters)
  --trace-out FILE    record spans for every job/phase/task attempt, write to FILE
  --trace-format F    chrome (default; load FILE in chrome://tracing) or jsonl
  trace-check         validate a written trace file (whole-document or JSON-lines)
";

/// Builds the engine config from the `--fault-*` flags; no flags means a
/// fault-free engine.
fn parse_engine_config(args: &Args) -> Result<EngineConfig, String> {
    let rate: f64 = args.get_parsed_or("fault-rate", 0.0)?;
    let straggler: f64 = args.get_parsed_or("straggler-rate", 0.0)?;
    let seed: u64 = args.get_parsed_or("fault-seed", 0u64)?;
    for (name, p) in [("fault-rate", rate), ("straggler-rate", straggler)] {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("--{name} must be a probability in [0, 1], got {p}"));
        }
    }
    let mut config = EngineConfig::default();
    if rate > 0.0 || straggler > 0.0 || args.get("fault-seed")?.is_some() {
        config.fault_plan = Some(FaultPlan::chaos(seed, rate, straggler));
        eprintln!("faults    : rate {rate}, stragglers {straggler}, seed {seed}");
    }
    Ok(config)
}

/// The `--trace-out` / `--trace-format` pair: a recording sink plus where
/// and how to flush it after the run.
struct TraceSpec {
    sink: TraceSink,
    path: String,
    format: String,
}

/// Parses the tracing flags; `None` when tracing is off.
fn parse_trace_args(args: &Args) -> Result<Option<TraceSpec>, String> {
    let Some(path) = args.get("trace-out")? else {
        if args.get("trace-format")?.is_some() {
            return Err("--trace-format requires --trace-out".into());
        }
        return Ok(None);
    };
    let format = args.get("trace-format")?.unwrap_or("chrome");
    if !["chrome", "jsonl"].contains(&format) {
        return Err(format!(
            "--trace-format must be `chrome` or `jsonl`, got `{format}`"
        ));
    }
    Ok(Some(TraceSpec {
        sink: TraceSink::recording(),
        path: path.to_string(),
        format: format.to_string(),
    }))
}

impl TraceSpec {
    /// Exports the recorded events in the chosen format and writes the file.
    fn write(&self) -> Result<(), String> {
        let body = match self.format.as_str() {
            "jsonl" => self.sink.to_jsonl(),
            _ => self.sink.to_chrome_trace(),
        };
        std::fs::write(&self.path, &body).map_err(|e| format!("writing {}: {e}", self.path))?;
        eprintln!(
            "trace     : {} events -> {} ({})",
            self.sink.len(),
            self.path,
            self.format
        );
        Ok(())
    }
}

fn cmd_trace_check(args: &Args) -> Result<(), String> {
    args.check_known(&["file"])?;
    let path = args.require("file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    // A chrome trace is one JSON document; an event log is JSON lines.
    if validate_json(text.trim()).is_ok() {
        println!("{path}: valid JSON document");
        return Ok(());
    }
    let mut records = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_json(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        records += 1;
    }
    println!("{path}: valid JSON lines ({records} records)");
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    args.check_known(&[
        "addr",
        "slots",
        "cache-bytes",
        "no-cache",
        "grid",
        "extent",
        "max-inflight",
        "max-queue",
        "net-fault-rate",
        "net-fault-seed",
        "drain-deadline-ms",
    ])?;
    if args.flag("no-cache") && args.get("cache-bytes")?.is_some() {
        return Err("--no-cache and --cache-bytes are mutually exclusive".into());
    }
    let cache_bytes = if args.flag("no-cache") {
        0
    } else {
        args.get_parsed_or("cache-bytes", 16usize << 20)?
    };
    let mut config = mwsj_server::ServerConfig {
        addr: args.get("addr")?.unwrap_or("127.0.0.1:7878").to_string(),
        slots: args.get_parsed_or("slots", 0usize)?,
        cache_bytes,
        max_inflight: args.get_parsed_or("max-inflight", 4usize)?,
        max_queue: args.get_parsed_or("max-queue", 16usize)?,
        grid: args.get_parsed_or("grid", 8u32)?,
        extent: args.get_parsed_or("extent", 100_000.0f64)?,
        ..mwsj_server::ServerConfig::default()
    };
    let net_fault_rate: f64 = args.get_parsed_or("net-fault-rate", 0.0f64)?;
    if !(0.0..=1.0).contains(&net_fault_rate) {
        return Err(format!(
            "--net-fault-rate must be in [0, 1], got {net_fault_rate}"
        ));
    }
    if net_fault_rate > 0.0 {
        let seed: u64 = args.get_parsed_or("net-fault-seed", 0u64)?;
        config = config.with_net_faults(mwsj_core::mapreduce::NetFaultPlan::chaos(
            seed,
            net_fault_rate,
        ));
    }
    config.drain_deadline =
        std::time::Duration::from_millis(args.get_parsed_or("drain-deadline-ms", 5_000u64)?);
    mwsj_server::signal::install_handlers();
    let server = mwsj_server::Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!("serving on {addr} (SIGTERM or the `shutdown` op stops it)");
    server.run().map_err(|e| format!("server: {e}"))
}

fn cmd_query(args: &Args) -> Result<(), String> {
    use mwsj_server::json::{self, Json};
    use std::io::Write as _;

    args.check_known(&[
        "connect",
        "query",
        "data",
        "algorithm",
        "count-only",
        "deadline-ms",
        "priority",
        "share",
        "stats",
        "shutdown",
        "proto",
    ])?;
    let addr = args.require("connect")?;
    let proto = match args.get("proto")?.unwrap_or("line") {
        "line" => mwsj_server::Proto::Line,
        "binary" => mwsj_server::Proto::Binary,
        other => return Err(format!("--proto must be `line` or `binary`, got `{other}`")),
    };
    let client_config = mwsj_server::ClientConfig::default().with_proto(proto);
    let mut client = mwsj_server::Client::with_config(addr, client_config)
        .map_err(|e| format!("connecting {addr}: {e}"))?;

    if args.flag("stats") || args.flag("shutdown") {
        let op = if args.flag("shutdown") {
            "shutdown"
        } else {
            "stats"
        };
        let resp = client
            .request(&format!("{{\"op\":\"{op}\"}}"))
            .map_err(|e| e.to_string())?;
        println!("{resp}");
        return Ok(());
    }

    let query = args.require("query")?;
    // Validate the algorithm name client-side for a friendlier error.
    let algorithm = args.get("algorithm")?.unwrap_or("auto");
    algorithm.parse::<Algorithm>()?;
    let mut request = format!(
        "{{\"op\":\"query\",\"query\":\"{}\",\"data\":{{{}}},\"algorithm\":\"{algorithm}\"",
        json_escape(query),
        data_json(args)?
    );
    if args.flag("count-only") {
        request.push_str(",\"count_only\":true");
    }
    if let Some(ms) = args.get("deadline-ms")? {
        let ms: u64 = ms.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
        request.push_str(&format!(",\"deadline_ms\":{ms}"));
    }
    let priority: i32 = args.get_parsed_or("priority", 0i32)?;
    let share: u32 = args.get_parsed_or("share", 1u32)?;
    request.push_str(&format!(",\"priority\":{priority},\"share\":{share}}}"));

    let resp = client.request(&request).map_err(|e| e.to_string())?;
    let doc = json::parse(&resp).map_err(|e| format!("bad response `{resp}`: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = doc.get("error").and_then(Json::as_str).unwrap_or("error");
        let message = doc.get("message").and_then(Json::as_str).unwrap_or(&resp);
        return Err(format!("{code}: {message}"));
    }
    let count = doc.get("tuple_count").and_then(Json::as_f64).unwrap_or(0.0);
    let cached = doc.get("cached").and_then(Json::as_bool).unwrap_or(false);
    let wall = doc.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
    eprintln!("tuples    : {count}");
    if let Some(chosen) = doc.get("algorithm").and_then(Json::as_str) {
        eprintln!("algorithm : {chosen}");
    }
    eprintln!("cached    : {cached}");
    eprintln!("wall_ms   : {wall:.3}");
    if let Some(fp) = doc.get("fingerprint").and_then(Json::as_str) {
        eprintln!("fingerprint: {fp}");
    }
    // Tuples go to stdout as deterministic CSV, one per line.
    let tuples = doc.get("tuples").and_then(Json::as_arr).unwrap_or(&[]);
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    write_csv(&mut out, tuples)
        .and_then(|()| out.flush())
        .map_err(|e| format!("writing tuples: {e}"))
}

/// Writes each tuple of a reply as one CSV line of its ids.
fn write_csv(
    out: &mut impl std::io::Write,
    tuples: &[mwsj_server::json::Json],
) -> std::io::Result<()> {
    for tuple in tuples {
        let ids = tuple
            .as_arr()
            .unwrap_or(&[])
            .iter()
            .filter_map(|id| id.as_f64());
        for (i, id) in ids.enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(out, "{id}")?;
        }
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// The `(NAME, SOURCE)` halves of every `--data` binding.
fn data_bindings(args: &Args) -> Result<Vec<(&str, &str)>, String> {
    args.get_all("data")
        .iter()
        .map(|spec| {
            spec.split_once('=')
                .ok_or_else(|| format!("`{spec}` is not NAME=SOURCE"))
        })
        .collect()
}

/// The `--data` bindings as the members of a request's `data` object.
fn data_json(args: &Args) -> Result<String, String> {
    let members: Vec<String> = data_bindings(args)?
        .iter()
        .map(|(name, source)| format!("\"{}\":\"{}\"", json_escape(name), json_escape(source)))
        .collect();
    Ok(members.join(","))
}

/// The one binder behind `run` and `explain`: one store per relation
/// position, co-partitioned on one grid, and the wall their opens or
/// builds took (charged to the run's `open_wall`). When every `--data`
/// source is a `store:PATH` they are opened in place and their own grid is
/// the cluster's; otherwise every source is loaded (a store materialized)
/// and built into a store on the datasets' bounding space and `--grid`.
fn bind(args: &Args, query: &Query) -> Result<(Cluster, Vec<StoredDataset>, Duration), String> {
    fn by_position<T>(
        query: &Query,
        sources: &[(&str, &str)],
        load: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut by_name = std::collections::BTreeMap::new();
        for (name, source) in sources {
            by_name.insert(*name, load(source)?);
        }
        query
            .relations()
            .map(|pos| {
                let name = query.name(pos);
                by_name
                    .remove(name)
                    .ok_or_else(|| format!("no --data binding for relation `{name}`"))
            })
            .collect()
    }

    let sources = data_bindings(args)?;
    let paths: Option<Vec<(&str, &str)>> = sources
        .iter()
        .map(|(name, source)| Some((*name, source.strip_prefix("store:")?)))
        .collect();
    let (stores, open_wall) = match paths.filter(|paths| !paths.is_empty()) {
        Some(paths) => {
            let t0 = Instant::now();
            let stores = by_position(query, &paths, |path| {
                StoredDataset::open(std::path::Path::new(path))
                    .map_err(|e| format!("opening store `{path}`: {e}"))
            })?;
            let open_wall = t0.elapsed();
            if stores.iter().any(|s| s.grid() != stores[0].grid()) {
                return Err(
                    "stores were ingested on different grids; re-ingest with matching \
                     --grid and --extent so they are co-partitioned"
                        .into(),
                );
            }
            if args.get("grid")?.is_some() {
                eprintln!("note      : --grid is ignored for stores (their own grid is used)");
            }
            (stores, open_wall)
        }
        None => {
            let datasets = by_position(query, &sources, data::load_source)?;
            let slices: Vec<&[Rect]> = datasets.iter().map(Vec::as_slice).collect();
            let (x_range, y_range) = data::bounding_space(&slices);
            let grid = Grid::square(x_range, y_range, args.get_parsed_or("grid", 8u32)?);
            let t0 = Instant::now();
            let builder = StoreBuilder::new(&grid);
            let stores = (datasets.iter())
                .map(|rects| StoredDataset::from_bytes(&builder.build(rects)?))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            (stores, t0.elapsed())
        }
    };
    let grid = stores[0].grid();
    let cluster = Cluster::new(ClusterConfig {
        x_range: grid.x_range(),
        y_range: grid.y_range(),
        grid_cols: grid.cols(),
        grid_rows: grid.rows(),
        engine: parse_engine_config(args)?,
    });
    Ok((cluster, stores, open_wall))
}

fn cmd_run(args: &Args) -> Result<(), String> {
    args.check_known(&[
        "query",
        "data",
        "algorithm",
        "grid",
        "count-only",
        "plan",
        "out",
        "fault-rate",
        "straggler-rate",
        "fault-seed",
        "trace-out",
        "trace-format",
    ])?;
    let query_text = args.require("query")?;
    let mut query = Query::parse(query_text).map_err(|e| format!("query: {e}"))?;
    let algorithm: Algorithm = args.get("algorithm")?.unwrap_or("auto").parse()?;
    let trace = parse_trace_args(args)?;
    let sink = trace
        .as_ref()
        .map_or_else(TraceSink::disabled, |t| t.sink.clone());
    let (cluster, stores, open_wall) = bind(args, &query)?;
    eprintln!(
        "stores    : {} relations, {} records, opened in {open_wall:?}",
        stores.len(),
        stores.iter().map(|s| s.record_count()).sum::<u64>()
    );
    let stores: Vec<&StoredDataset> = stores.iter().collect();
    if args.flag("plan") {
        query = cluster.cascade_order_stored(&query, &stores);
        eprintln!("planned order: {query}");
    }
    let run = StoredRun::new(&query, &stores)
        .algorithm(algorithm)
        .count_only(args.flag("count-only"))
        .open_wall(open_wall)
        .trace(sink);
    let t0 = Instant::now();
    let output = cluster.submit_stored(&run);
    let wall = t0.elapsed();
    let output = output.map_err(|e| format!("join failed: {e}"))?;
    finish_run(args, &query, algorithm, &output, &cluster, wall, &trace)
}

/// Prints the run summary and writes `--out`.
fn finish_run(
    args: &Args,
    query: &Query,
    requested: Algorithm,
    output: &mwsj_core::JoinOutput,
    cluster: &Cluster,
    wall: Duration,
    trace: &Option<TraceSpec>,
) -> Result<(), String> {
    let grid = cluster.grid();
    let ((x0, x1), (y0, y1)) = (grid.x_range(), grid.y_range());
    let (cols, rows) = (grid.cols(), grid.rows());
    eprintln!("query     : {query}");
    if requested == Algorithm::Auto {
        eprintln!("algorithm : {} (picked by auto)", output.algorithm.name());
    } else {
        eprintln!("algorithm : {}", output.algorithm.name());
    }
    eprintln!("space     : [{x0:.1}, {x1:.1}] x [{y0:.1}, {y1:.1}], {cols}x{rows} reducers");
    eprintln!("tuples    : {}", output.len());
    eprintln!(
        "replicated: {} rectangles ({} copies)",
        output.stats.rectangles_replicated, output.stats.rectangles_after_replication
    );
    eprint!("{}", output.report.phase_table());
    for job in &output.report.jobs {
        if job.retries > 0 || job.speculative_launched > 0 {
            eprintln!(
                "faults in {}: {} map + {} reduce attempt failures, {} retries, {} speculative ({} won)",
                job.job_name,
                job.map_task_failures,
                job.reduce_task_failures,
                job.retries,
                job.speculative_launched,
                job.speculative_won
            );
        }
    }
    eprintln!("wall      : {wall:?}");
    if let Some(t) = trace {
        t.write()?;
    }

    if let Some(path) = args.get("out")? {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?,
        );
        let names: Vec<&str> = query.relations().map(|r| query.name(r)).collect();
        writeln!(f, "# {}", names.join(",")).map_err(|e| e.to_string())?;
        for tuple in &output.tuples {
            let ids: Vec<String> = tuple.iter().map(u32::to_string).collect();
            writeln!(f, "{}", ids.join(",")).map_err(|e| e.to_string())?;
        }
        eprintln!("wrote {} tuples to {path}", output.tuples.len());
    }
    Ok(())
}

/// Partitions a dataset into an on-disk store (see `mwsj_core::store`):
/// rectangles are homed to grid cells, each cell is one run sorted by
/// `min_x`, and every section is checksummed.
fn cmd_ingest(args: &Args) -> Result<(), String> {
    args.check_known(&["source", "out", "grid", "extent"])?;
    let source = args.require("source")?;
    let out = args.require("out")?;
    let side: u32 = args.get_parsed_or("grid", 8u32)?;
    let extent: f64 = args.get_parsed_or("extent", 100_000.0f64)?;
    if !extent.is_finite() || extent <= 0.0 {
        return Err(format!("--extent must be positive, got {extent}"));
    }
    if side == 0 {
        return Err("--grid must be at least 1".into());
    }
    let rects = data::load_source(source)?;
    let grid = Grid::square((0.0, extent), (0.0, extent), side);
    let t0 = std::time::Instant::now();
    mwsj_core::store::StoreBuilder::new(&grid)
        .write(&rects, std::path::Path::new(out))
        .map_err(|e| format!("ingest: {e}"))?;
    let wall = t0.elapsed();
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    eprintln!("records   : {}", rects.len());
    eprintln!("space     : [0, {extent:.1}]^2, {side}x{side} cells");
    eprintln!(
        "fingerprint: {:016x}",
        mwsj_core::store::dataset_fingerprint(&rects)
    );
    eprintln!("wrote {bytes} bytes to {out} in {wall:?}");
    Ok(())
}

/// Prints the optimizer's costed plan for a query without executing it.
/// With `--connect` the plan comes from a running server (its grid and
/// extent); otherwise it is computed locally as `mwsj run` would.
fn cmd_explain(args: &Args) -> Result<(), String> {
    args.check_known(&["query", "data", "grid", "connect"])?;
    let query_text = args.require("query")?;

    if let Some(addr) = args.get("connect")? {
        let mut client =
            mwsj_server::Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        let request = format!(
            "{{\"op\":\"explain\",\"query\":\"{}\",\"data\":{{{}}}}}",
            json_escape(query_text),
            data_json(args)?
        );
        let resp = client.request(&request).map_err(|e| e.to_string())?;
        println!("{resp}");
        return Ok(());
    }

    let query = Query::parse(query_text).map_err(|e| format!("query: {e}"))?;
    let (cluster, stores, _) = bind(args, &query)?;
    let plan = cluster.plan_stored(&query, &stores.iter().collect::<Vec<_>>());
    println!("{}", plan.to_json());
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    args.check_known(&["source", "out"])?;
    let source = args.require("source")?;
    let out = args.require("out")?;
    let rects = data::load_source(source)?;
    mwsj_datagen::io::save_rects(out, &rects).map_err(|e| e.to_string())?;
    eprintln!("wrote {} rectangles to {out}", rects.len());
    Ok(())
}

fn cmd_ann(args: &Args) -> Result<(), String> {
    args.check_known(&[
        "outer",
        "inner",
        "grid",
        "out",
        "k",
        "fault-rate",
        "straggler-rate",
        "fault-seed",
        "trace-out",
        "trace-format",
    ])?;
    let outer = data::load_source(args.require("outer")?)?;
    let inner = data::load_source(args.require("inner")?)?;
    let grid: u32 = args.get_parsed_or("grid", 8u32)?;
    let k: usize = args.get_parsed_or("k", 1usize)?;
    let trace = parse_trace_args(args)?;
    let (x_range, y_range) = data::bounding_space(&[&outer, &inner]);
    let mut engine = parse_engine_config(args)?;
    if let Some(t) = &trace {
        // The nearest-neighbor rounds run directly on the engine, so the
        // sink attaches engine-wide rather than per run.
        engine = engine.with_trace(t.sink.clone());
    }
    let cluster = Cluster::new(ClusterConfig {
        x_range,
        y_range,
        grid_cols: grid,
        grid_rows: grid,
        engine,
    });
    let t0 = std::time::Instant::now();
    let result: Vec<mwsj_core::ann::NearestNeighbor> =
        mwsj_core::ann::try_knn_join(&cluster, &outer, &inner, k)
            .map_err(|e| format!("nearest-neighbor join failed: {e}"))?
            .concat();
    eprintln!("{} nearest neighbors in {:?}", result.len(), t0.elapsed());
    if let Some(t) = &trace {
        t.write()?;
    }
    if let Some(path) = args.get("out")? {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?,
        );
        writeln!(f, "# outer,inner,distance").map_err(|e| e.to_string())?;
        for nn in &result {
            writeln!(f, "{},{},{}", nn.outer, nn.inner, nn.distance).map_err(|e| e.to_string())?;
        }
    } else {
        for nn in result.iter().take(10) {
            println!(
                "outer {} -> inner {} (distance {:.3})",
                nn.outer, nn.inner, nn.distance
            );
        }
        if result.len() > 10 {
            println!(
                "... and {} more (use --out FILE for all)",
                result.len() - 10
            );
        }
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    args.check_known(&["source"])?;
    let rects = data::load_source(args.require("source")?)?;
    if rects.is_empty() {
        println!("empty dataset");
        return Ok(());
    }
    let s = CaliforniaStats::of(&rects);
    let ((x0, x1), (y0, y1)) = data::bounding_space(&[&rects]);
    println!("rectangles          : {}", rects.len());
    println!("extent              : [{x0:.1}, {x1:.1}] x [{y0:.1}, {y1:.1}]");
    println!(
        "mean length/breadth : {:.2} / {:.2}",
        s.mean_length, s.mean_breadth
    );
    println!(
        "max length/breadth  : {:.2} / {:.2}",
        s.max_length, s.max_breadth
    );
    println!("min side            : {:.2}", s.min_side);
    println!(
        "both sides < 100    : {:.2}%   < 1000: {:.2}%",
        s.frac_both_under_100 * 100.0,
        s.frac_both_under_1000 * 100.0
    );
    Ok(())
}
