//! The repo benchmark: four closed-loop workloads, three end-to-end
//! metrics, and a per-layer ledger. See README.md beside this crate.
//!
//! ```text
//! mwsj-benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! mwsj-benchmark [--seed N] [--seconds S]                        every workload, end to end then traced
//! mwsj-benchmark --selfcheck K [--runs R]                        K sets of R end-to-end runs per workload
//! ```
//!
//! A run never measures in the process that was started. That process
//! computes the tuple counts the ops must return (by a second route)
//! and spawns fresh child processes of this binary (`--child`), each of
//! which sets the workload up from nothing, warms it up with a fixed
//! number of ops and measures one window — so a child's memory and
//! set-up time hold the workload and nothing of the check. An
//! end-to-end run splits its seconds over `PROCESSES` such children, so
//! peak RSS and `setup_s` get several independent samples per run.

mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::AtomicU64;
use std::time::Instant;

use mwsj_server::json::{self, Json};

use stats::{json_array, mean, median, percentile, quartiles, spread};
use workloads::{Limit, Window};

/// Fresh processes per end-to-end run. Ten, because the peak RSS of one
/// process depends on its draw of relations and on which of two or
/// three heap layouts it ends up in (README.md): single processes differ
/// by 5–8 %, the mean of ten by 3–4 % over ten seeds.
const PROCESSES: usize = 10;
/// Slice medians printed per process, so an in-run drift is visible.
const SLICES: usize = 3;
/// The seed runs use when none is given, and the one kept aside for
/// checking a later claim on inputs it was not developed on.
const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 2013;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// What `BENCHMARK.json` declares: the one place names, units, bounds
/// and the run length are written down.
struct Spec {
    run_seconds: f64,
    workloads: Vec<String>,
    /// `(name, unit, bound)`
    end_to_end: Vec<(String, String, f64)>,
    /// `(name, unit)`
    per_layer: Vec<(String, String)>,
}

impl Spec {
    fn load() -> Self {
        let path = manifest_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect("list").to_vec();
        let text_of = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .expect("string field")
                .to_string()
        };
        Self {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("run_seconds"),
            workloads: list("workloads")
                .iter()
                .map(|w| text_of(w, "name"))
                .collect(),
            end_to_end: list("end_to_end")
                .iter()
                .map(|m| {
                    let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                    (text_of(m, "name"), text_of(m, "unit"), bound)
                })
                .collect(),
            per_layer: list("per_layer")
                .iter()
                .map(|m| (text_of(m, "name"), text_of(m, "unit")))
                .collect(),
        }
    }
}

struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        Some(self.0.get(at + 1).unwrap_or_else(|| usage(name)))
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value(name)
            .map(|v| v.parse().unwrap_or_else(|_| usage(name)))
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn usage(at: &str) -> ! {
    eprintln!(
        "bad or missing value for `{at}`\n\
         usage: mwsj-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
         [--selfcheck K [--runs R]]\n\
         workloads: {}",
        workloads::NAMES.join(" ")
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let born = Instant::now();
    let args = Args(std::env::args().skip(1).collect());
    let seed = args.number("--seed").unwrap_or(DEFAULT_SEED);
    let traced = match args.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => usage("--trace"),
    };
    if args.flag("--child") {
        let name = args
            .value("--workload")
            .unwrap_or_else(|| usage("--workload"));
        let seconds = args
            .number("--seconds")
            .unwrap_or_else(|| usage("--seconds"));
        let expected: Vec<u64> = args
            .value("--expect")
            .unwrap_or_else(|| usage("--expect"))
            .split(',')
            .map(|v| v.parse().unwrap_or_else(|_| usage("--expect")))
            .collect();
        child(born, name, seed, seconds, traced, &expected);
        return ExitCode::SUCCESS;
    }

    let spec = Spec::load();
    assert_eq!(
        spec.workloads,
        workloads::NAMES,
        "BENCHMARK.json and the code name different workloads"
    );
    let seconds = args.number("--seconds").unwrap_or(spec.run_seconds);
    if let Some(name) = args.value("--workload") {
        if !workloads::NAMES.contains(&name) {
            usage("--workload");
        }
        print_env(seed, seconds);
        let run = measure(&spec, name, seed, seconds, traced);
        eprint!("{}", run.table(&spec, name, traced));
        println!("{}", run.result_line(&spec, traced));
        return run.exit_code();
    }
    if let Some(sets) = args.number::<usize>("--selfcheck") {
        let runs = args.number("--runs").unwrap_or(10);
        return selfcheck(&spec, sets, runs, seconds);
    }
    print_env(seed, seconds);
    let mut code = ExitCode::SUCCESS;
    for name in workloads::NAMES {
        for traced in [false, true] {
            let run = measure(&spec, name, seed, seconds, traced);
            print!("{}", run.table(&spec, name, traced));
            if !run.correct {
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

fn print_env(seed: u64, seconds: f64) {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(manifest_dir())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    eprintln!(
        "env: nproc={} clients={} processes_per_run={PROCESSES} run_seconds={seconds} seed={seed} \
         (default {DEFAULT_SEED}, held out {HELD_OUT_SEED}) commit={} rustc={}",
        workloads::nproc(),
        workloads::clients(),
        tool("git", &["rev-parse", "--short", "HEAD"]),
        tool("rustc", &["--version"]),
    );
}

// ───────────────────────── child: one process, one window ─────────────────────────

/// Removes the per-process scratch directory on every exit path.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = manifest_dir()
            .join("out")
            .join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch directory under benchmark/out");
        Self(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The three timings of a latency sample and its window length. They
/// are per-layer metrics, not end-to-end ones: on a shared box they move
/// with the machine by more than any bound (README.md, NOISE.md).
const TIMINGS: [&str; 3] = ["lat_p50_ms", "lat_p90_ms", "ops_per_s"];

fn timing(lat_ms: &[f64], window_s: f64) -> Vec<(&'static str, f64)> {
    let values = [
        median(lat_ms),
        percentile(lat_ms, 0.9),
        lat_ms.len() as f64 / window_s,
    ];
    TIMINGS.into_iter().zip(values).collect()
}

fn child(born: Instant, name: &str, seed: u64, seconds: f64, traced: bool, expected: &[u64]) {
    let scratch = Scratch::new();
    let mut workload = workloads::setup(name, seed, &scratch.0, expected);
    // Peak RSS from here on: the workload's ops, not the generation and
    // ingest of its inputs.
    workloads::reset_peak_rss();
    let next = AtomicU64::new(0);
    let warm = workloads::run(&*workload, &next, &Limit::Ops(workload.warmup_ops()), None);
    let setup_s = born.elapsed().as_secs_f64();

    // An end-to-end run measures one window. A traced run alternates
    // untraced and traced windows (so a drift falls on both alike) and
    // spends the rest of its seconds on the layer probes.
    let plan: &[(bool, f64)] = if traced {
        &[(false, 0.2), (true, 0.15), (false, 0.2), (true, 0.15)]
    } else {
        &[(false, 1.0)]
    };
    let before = workload.server_counters().unwrap_or_default();
    let windows: Vec<(bool, Window)> = plan
        .iter()
        .map(|&(spans, share)| {
            let limit = Limit::Seconds(seconds * share);
            (
                spans,
                workloads::run(&*workload, &next, &limit, spans.then_some(born)),
            )
        })
        .collect();
    let delta = workload.server_counters().unwrap_or_default().since(before);
    let ops: u64 = windows.iter().map(|(_, w)| w.ops()).sum();
    let failed = warm.failed + windows.iter().map(|(_, w)| w.failed).sum::<u64>();
    let check = workload.check_window(delta, ops);
    workload.shutdown();
    let rss_mb = workloads::peak_rss_mb();

    let first_error = std::iter::once(&warm)
        .chain(windows.iter().map(|(_, w)| w))
        .find_map(|w| w.first_error.clone())
        .or(check.err());
    let mut out = format!(
        "{{\"setup_s\":{setup_s},\"attempted\":{ops},\"failed\":{failed},\"error\":{}",
        first_error.map_or("null".to_string(), |e| format!(
            "\"{}\"",
            mwsj_core::mapreduce::json_escape(&e)
        )),
    );
    let of_kind = |spans: bool| windows.iter().filter(move |(s, _)| *s == spans);
    let lat = |spans: bool| -> Vec<f64> {
        of_kind(spans)
            .flat_map(|(_, w)| w.samples.iter().map(|s| s.ms))
            .collect()
    };
    if traced {
        let plain_s: f64 = of_kind(false).map(|(_, w)| w.elapsed_s).sum();
        let mut layers: probes::Layers = timing(&lat(false), plain_s)
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        let p50_plain = layers[0].1;
        let p50_spans = median(&lat(true));
        let spans: Vec<&Window> = of_kind(true).map(|(_, w)| w).collect();
        let logs: Vec<&trace::SpanLog> = spans.iter().flat_map(|w| &w.logs).collect();
        let cpu_ms: f64 = spans.iter().map(|w| w.cpu_ms).sum();
        let span_ops: u64 = spans.iter().map(|w| w.ops()).sum();
        layers.extend(probes::run(seed, &scratch.0, seconds * 0.3));
        layers.push((
            "trace.overhead_pct".to_string(),
            (p50_spans / p50_plain - 1.0) * 100.0,
        ));
        layers.push((
            "proc.cpu_ms_per_op".to_string(),
            cpu_ms / span_ops.max(1) as f64,
        ));
        let layer = |n: &str| layers.iter().find(|(k, _)| k == n).expect("probe ran").1;
        let accounted: f64 = blocking_path(name)
            .iter()
            .map(|(n, times)| layer(n) * times)
            .sum();
        layers.push((
            "ledger.accounted_pct".to_string(),
            accounted / p50_spans * 100.0,
        ));
        for (n, v) in [
            ("server.cache_hits", delta.hits),
            ("server.cache_misses", delta.misses),
            ("server.cache_evictions", delta.evictions),
            ("server.shed", delta.shed),
            ("server.errors", delta.errors),
        ] {
            layers.push((n.to_string(), v as f64));
        }
        let file = manifest_dir()
            .join("out")
            .join(format!("trace-{name}.json"));
        std::fs::write(&file, trace::to_json(name, &logs)).expect("span file");
        eprintln!("spans: {}", file.display());
        for (span, (count, total, own)) in trace::self_times(&logs) {
            eprintln!("  {span:<20} n={count:<6} median {total:.3} ms, self {own:.3} ms");
        }
        let items: Vec<String> = layers.iter().map(|(n, v)| format!("\"{n}\":{v}")).collect();
        out.push_str(&format!(",\"layers\":{{{}}}", items.join(",")));
    } else {
        let window = &windows[0].1;
        let starts: Vec<f64> = window.samples.iter().map(|s| s.start_s).collect();
        let io_bytes: u64 = window.samples.iter().map(|s| s.bytes).sum();
        out.push_str(&format!(
            ",\"window_s\":{},\"rss_mb\":{rss_mb},\"io_bytes\":{io_bytes},\"lat_ms\":{},\"start_s\":{}",
            window.elapsed_s,
            json_array(&lat(false)),
            json_array(&starts),
        ));
    }
    println!("{out}}}");
}

/// The layer timings on a workload's blocking path, with how many times
/// an op pays each (milliseconds after the factor). Their sum over the
/// traced `lat_p50_ms` is `ledger.accounted_pct`.
fn blocking_path(workload: &str) -> &'static [(&'static str, f64)] {
    const US: f64 = 1e-3;
    match workload {
        "q2_shuffle" => &[
            ("mapreduce.map_ms", 1.0),
            ("mapreduce.shuffle_ms", 1.0),
            ("mapreduce.merge_ms", 1.0),
            ("mapreduce.reduce_ms", 1.0),
        ],
        "q2_mapside" => &[("store.open_ms", 3.0), ("core.mapside.join_ms", 1.0)],
        "serve_hot" => &[
            ("server.stats_rtt_us", US),
            ("server.parse_request_us", US),
            ("query.parse_us", US),
            ("core.plan_ms", 1.0),
            ("server.cache_get_us", US),
            ("server.render_ms", 1.0),
            ("server.json_parse_ms", 1.0),
        ],
        "serve_cold" => &[
            ("server.stats_rtt_us", US),
            ("server.parse_request_us", US),
            ("query.parse_us", US),
            ("core.plan_stored_ms", 1.0),
            ("core.mapside.materialize_ms", 1.0),
            ("server.cache_insert_us", US),
            ("server.render_cold_ms", 1.0),
            ("server.json_parse_cold_ms", 1.0),
        ],
        _ => &[],
    }
}

// ───────────────────────── parent: spawn, gather, report ─────────────────────────

fn spawn_child(name: &str, seed: u64, seconds: f64, traced: bool, expected: &[u64]) -> Json {
    let exe = std::env::current_exe().expect("own executable path");
    let expected: Vec<String> = expected.iter().map(u64::to_string).collect();
    let output = Command::new(exe)
        .args(["--child", "--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--expect", &expected.join(",")])
        .stderr(Stdio::inherit())
        .output()
        .expect("spawning the workload process");
    assert!(
        output.status.success(),
        "workload process for {name} ended with {}",
        output.status
    );
    let text = String::from_utf8(output.stdout).expect("utf-8 report");
    json::parse(text.lines().last().expect("a report line")).expect("report parses")
}

struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Metric name → value: the end-to-end set, or the per-layer set.
    metrics: Vec<(String, f64)>,
    /// End to end only: the timings of the pooled sample (shown beside
    /// the metrics, not among them) and the per-process slice medians.
    timing: Vec<(&'static str, f64)>,
    samples: usize,
    slice_p50_ms: Vec<f64>,
    setup_s: Vec<f64>,
    rss_mb: Vec<f64>,
}

fn measure(spec: &Spec, name: &str, seed: u64, seconds: f64, traced: bool) -> Run {
    let num = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_f64).expect("number");
    let list = |doc: &Json, key: &str| -> Vec<f64> {
        let items = doc.get(key).and_then(Json::as_arr).expect("array");
        items.iter().map(|v| v.as_f64().expect("number")).collect()
    };
    let note_error = |doc: &Json| {
        if let Some(e) = doc.get("error").and_then(Json::as_str) {
            eprintln!("{name}: FAILED: {e}");
        }
    };

    // The batch workloads join one draw of three relations, and a third
    // of the draws need 12 % more memory than the rest; so each process
    // of a run gets a draw of its own and the run reports their mean.
    // The served workloads cycle a pool of 4 or 24 draws already and
    // keep one pool per run.
    let draw = |process: usize| {
        if name.starts_with("q2_") {
            seed.wrapping_mul(PROCESSES as u64) + process as u64
        } else {
            seed
        }
    };
    let mut expected = workloads::expected(name, draw(0));
    if traced {
        let doc = spawn_child(name, draw(0), seconds, true, &expected);
        note_error(&doc);
        let layers = doc.get("layers").and_then(Json::as_obj).expect("layers");
        let metrics: Vec<(String, f64)> = spec
            .per_layer
            .iter()
            .map(|(n, _)| {
                let value = layers.iter().find(|(k, _)| k == n);
                let value = value.unwrap_or_else(|| panic!("no probe measures `{n}`"));
                (n.clone(), value.1.as_f64().expect("number"))
            })
            .collect();
        assert_eq!(
            metrics.len(),
            layers.len(),
            "a probe measures something BENCHMARK.json does not list"
        );
        let (attempted, failed) = (num(&doc, "attempted") as u64, num(&doc, "failed") as u64);
        return Run {
            correct: failed == 0 && attempted > 0 && doc.get("error") == Some(&Json::Null),
            attempted,
            failed,
            metrics,
            timing: Vec::new(),
            samples: 0,
            slice_p50_ms: Vec::new(),
            setup_s: vec![num(&doc, "setup_s")],
            rss_mb: Vec::new(),
        };
    }

    let each_s = seconds / PROCESSES as f64;
    let (mut lat, mut slices, mut setup, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let (mut window_s, mut io_bytes) = (0.0, 0.0);
    for process in 0..PROCESSES {
        if process > 0 && draw(process) != draw(process - 1) {
            expected = workloads::expected(name, draw(process));
        }
        let doc = spawn_child(name, draw(process), each_s, false, &expected);
        note_error(&doc);
        correct &= doc.get("error") == Some(&Json::Null);
        attempted += num(&doc, "attempted") as u64;
        failed += num(&doc, "failed") as u64;
        window_s += num(&doc, "window_s");
        io_bytes += num(&doc, "io_bytes");
        setup.push(num(&doc, "setup_s"));
        rss.push(num(&doc, "rss_mb"));
        let (ms, start_s) = (list(&doc, "lat_ms"), list(&doc, "start_s"));
        for k in 0..SLICES {
            let (lo, hi) = (
                each_s * k as f64 / SLICES as f64,
                each_s * (k + 1) as f64 / SLICES as f64,
            );
            let inside: Vec<f64> = ms
                .iter()
                .zip(&start_s)
                .filter(|(_, &s)| s >= lo && s < hi)
                .map(|(&m, _)| m)
                .collect();
            slices.push(median(&inside));
        }
        lat.extend(ms);
    }
    // Memory as the processes' mean (a median would flip between their
    // heap layouts), set-up as their median, bytes moved over every
    // verified op of every process.
    let metrics = vec![
        ("peak_rss_mb".to_string(), mean(&rss)),
        (
            "io_kb_per_op".to_string(),
            io_bytes / 1024.0 / lat.len().max(1) as f64,
        ),
        ("setup_s".to_string(), median(&setup)),
    ];
    assert!(
        metrics
            .iter()
            .map(|(n, _)| n)
            .eq(spec.end_to_end.iter().map(|(n, _, _)| n)),
        "BENCHMARK.json and the code name different end-to-end metrics"
    );
    Run {
        correct: correct && failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        timing: timing(&lat, window_s),
        samples: lat.len(),
        slice_p50_ms: slices,
        setup_s: setup,
        rss_mb: rss,
    }
}

impl Run {
    fn exit_code(&self) -> ExitCode {
        if self.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    fn units<'a>(&self, spec: &'a Spec, traced: bool) -> Vec<&'a str> {
        if traced {
            spec.per_layer.iter().map(|(_, u)| u.as_str()).collect()
        } else {
            spec.end_to_end.iter().map(|(_, u, _)| u.as_str()).collect()
        }
    }

    /// The contract's result: one JSON object, last line of stdout.
    fn result_line(&self, spec: &Spec, traced: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .zip(self.units(spec, traced))
            .map(|((n, v), unit)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Every metric by name with its unit, for a reader.
    fn table(&self, spec: &Spec, name: &str, traced: bool) -> String {
        let kind = if traced { "per layer" } else { "end to end" };
        let mut out = format!(
            "── {name} ({kind}): {} ops attempted, {} failed, {}\n",
            self.attempted,
            self.failed,
            if self.correct {
                "verified"
            } else {
                "NOT CORRECT"
            }
        );
        for ((n, v), unit) in self.metrics.iter().zip(self.units(spec, traced)) {
            out.push_str(&format!("  {n:<36} {v:>16.4} {unit}\n"));
        }
        if !traced {
            let (q1, q3) = quartiles(&self.slice_p50_ms);
            out.push_str(&format!(
                "  {PROCESSES} processes: peak RSS {:.1?} MB, set-ups {:.3?} s\n  \
                 timing, for the reader (per-layer metrics, not gated): {:?} over {} samples;\n  \
                 p50 of the {} slices ({SLICES} per process): Q1 {q1:.3}  median {:.3}  Q3 {q3:.3} ms\n",
                self.rss_mb,
                self.setup_s,
                self.timing,
                self.samples,
                self.slice_p50_ms.len(),
                median(&self.slice_p50_ms),
            ));
        }
        out
    }
}

// ───────────────────────── selfcheck: does the benchmark repeat? ─────────────────────────

/// Runs `sets` sets of `runs` end-to-end runs per workload (run `i` of
/// every set uses seed `i + 1`, as the acceptance procedure varies
/// seeds) and prints, as markdown, each set's median and spread per
/// metric × workload and the largest disagreement between set medians
/// against the metric's bound. The timings of the same runs follow as
/// context rows: they are why timing is not an end-to-end metric here.
fn selfcheck(spec: &Spec, sets: usize, runs: usize, seconds: f64) -> ExitCode {
    print_env(DEFAULT_SEED, seconds);
    // (set, workload, metric, value) of every run.
    let mut values: Vec<(usize, &str, String, f64)> = Vec::new();
    let mut all_correct = true;
    for set in 0..sets {
        for name in workloads::NAMES {
            for i in 0..runs {
                let run = measure(spec, name, i as u64 + 1, seconds, false);
                all_correct &= run.correct;
                eprintln!(
                    "set {} {name} seed {}: {:?} {:?}",
                    set + 1,
                    i + 1,
                    run.metrics,
                    run.timing
                );
                for (metric, v) in &run.metrics {
                    values.push((set, name, metric.clone(), *v));
                }
                for (metric, v) in &run.timing {
                    values.push((set, name, metric.to_string(), *v));
                }
            }
        }
    }
    println!(
        "`--selfcheck {sets} --runs {runs}`, {seconds} s per run, nproc {}, every op verified: {all_correct}\n",
        workloads::nproc()
    );
    println!("| workload | metric | set medians | set spreads (IQR ÷ median) | largest disagreement | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    let mut steady = true;
    let mut rows: Vec<(&str, Option<f64>)> = spec
        .end_to_end
        .iter()
        .map(|(m, _, b)| (m.as_str(), Some(*b)))
        .collect();
    rows.extend(TIMINGS.map(|m| (m, None)));
    let join = |v: &[f64], scale: f64, digits: usize| {
        let items: Vec<String> = v
            .iter()
            .map(|x| format!("{:.digits$}", x * scale))
            .collect();
        items.join(" / ")
    };
    for name in workloads::NAMES {
        for &(metric, bound) in &rows {
            let of_set = |set: usize| -> Vec<f64> {
                let mine = values
                    .iter()
                    .filter(|(s, w, m, _)| (*s, *w, m.as_str()) == (set, name, metric));
                mine.map(|(_, _, _, v)| *v).collect()
            };
            let medians: Vec<f64> = (0..sets).map(|s| median(&of_set(s))).collect();
            let spreads: Vec<f64> = (0..sets).map(|s| spread(&of_set(s))).collect();
            let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = medians.iter().copied().fold(0.0, f64::max);
            let disagreement = (hi - lo) / lo;
            let widest = spreads.iter().copied().fold(0.0, f64::max);
            // A metric answers for the disagreement of its medians and,
            // except setup_s, for its spread; a timing for neither.
            let (bound_text, verdict) = match bound {
                None => (String::new(), "not gated (per-layer)"),
                Some(b) if disagreement > b || (metric != "setup_s" && widest > b) => {
                    steady = false;
                    (format!("{:.0} %", b * 100.0), "ABOVE THE BOUND")
                }
                Some(b) if disagreement > b / 2.0 || (metric != "setup_s" && widest > b / 2.0) => {
                    (format!("{:.0} %", b * 100.0), "above half the bound")
                }
                Some(b) => (format!("{:.0} %", b * 100.0), "ok"),
            };
            println!(
                "| {name} | {metric} | {} | {} % | {:.2} % | {bound_text} | {verdict} |",
                join(&medians, 1.0, 3),
                join(&spreads, 100.0, 2),
                disagreement * 100.0,
            );
        }
    }
    if all_correct && steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
