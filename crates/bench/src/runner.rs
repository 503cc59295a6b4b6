//! The one loop behind every spec: generate, measure each algorithm
//! column, print the row, record it, check the count rules.

use mwsj_core::{Algorithm, Cluster, ClusterConfig};
use mwsj_datagen::{bernoulli_sample, enlarge_all, CaliforniaConfig, SyntheticConfig};
use mwsj_geom::Rect;
use mwsj_mapreduce::{EngineConfig, FaultPlan};
use mwsj_query::Query;

use crate::specs::{Input, Param, Spec, SPECS};
use crate::{fmt_times, measure, nproc, BenchLog, Measured};

/// What a bench invocation fixes for every spec it runs — read from the
/// environment and the command line once, in the target's `main`.
#[derive(Debug, Clone)]
pub struct Settings {
    /// `MWSJ_SCALE`.
    pub scale: f64,
    /// `MWSJ_BENCH_REPS`.
    pub reps: usize,
    /// The chaos plan of the fault flags, if any.
    pub faults: Option<FaultPlan>,
}

/// One spec's finished run.
pub struct SpecRun {
    /// The printed table, stamp and header included — what goes between
    /// the spec's markers in EXPERIMENTS.md.
    pub block: String,
    /// Every run's records, for `BENCH_<spec>.json`.
    pub log: BenchLog,
    /// Count rules that failed, each naming its spec and row. Empty on a
    /// healthy run; timings are never a rule.
    pub violations: Vec<String>,
}

/// The runs of one row, in column order; an algorithm the spec's cut-off
/// skipped is absent.
pub type Cells = [(Algorithm, Measured)];

/// Reads a bench command line: positional spec names (none selects all of
/// [`SPECS`]) and the fault flags `--fault-rate P`, `--straggler-rate P`,
/// `--fault-seed N`, any of which asks for a chaos plan. Other flags
/// (cargo's `--bench`) are the harness's and skipped.
///
/// # Errors
/// Names the argument that is no spec, and lists the ones that are.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(Vec<&'static Spec>, Option<FaultPlan>), String> {
    const FAULT_FLAGS: [&str; 3] = ["--fault-seed", "--fault-rate", "--straggler-rate"];
    let mut args = args.into_iter();
    let (mut chosen, mut fault) = (Vec::new(), [None; 3]);
    while let Some(arg) = args.next() {
        if let Some(i) = FAULT_FLAGS.iter().position(|f| *f == arg) {
            fault[i] = args.next().and_then(|v| v.parse::<f64>().ok());
        } else if !arg.starts_with("--") {
            chosen.push(SPECS.iter().find(|s| s.name == arg).ok_or_else(|| {
                let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
                format!("no spec named `{arg}`; specs: {}", names.join(" "))
            })?);
        }
    }
    if chosen.is_empty() {
        chosen = SPECS.iter().collect();
    }
    let [seed, rate, stragglers] = fault.map(|v| v.unwrap_or(0.0));
    let plan = fault.iter().any(Option::is_some);
    Ok((
        chosen,
        plan.then(|| FaultPlan::chaos(seed as u64, rate, stragglers)),
    ))
}

/// Scales a paper dataset size (given in millions).
fn scaled_count(millions: f64, s: f64) -> usize {
    (millions * 1e6 * s).round().max(1.0) as usize
}

/// One row's relations (three, or one bound to all three positions of a
/// self-join) and the `(x, y)` extent of their space. `s` scales sizes
/// linearly and the uniform space by `sqrt(s)`, preserving density; the
/// road generator shrinks its own space to the count it is given.
fn generate(spec: &Spec, s: f64, row: usize, value: f64) -> (Vec<Vec<Rect>>, (f64, f64)) {
    match spec.input {
        Input::Uniform(millions, seeds) => {
            let extent = 100_000.0 * s.sqrt();
            let (n, reseed) = match spec.param {
                Param::Size => (scaled_count(millions * value, s), row as u64),
                _ => (scaled_count(millions, s), 0),
            };
            let relations = seeds.map(|seed| {
                let mut cfg = SyntheticConfig::paper_default(n, seed + reseed);
                if spec.param == Param::MaxSide {
                    cfg = cfg.with_max_sides(value, value);
                }
                cfg.x_range = (0.0, extent);
                cfg.y_range = (0.0, extent);
                cfg.generate()
            });
            (relations.into(), (extent, extent))
        }
        Input::Roads(sample_seed) => {
            let cfg = CaliforniaConfig::scaled_to(scaled_count(2.0, s), 2013);
            let space = (cfg.x_extent(), cfg.y_extent());
            let mut roads = cfg.generate();
            if let Some(seed) = sample_seed {
                roads = bernoulli_sample(&roads, 0.5, seed);
            }
            if spec.param == Param::Enlarge {
                let bounds = Rect::new(0.0, space.1, space.0, space.1);
                roads = enlarge_all(&roads, value, &bounds);
            }
            (vec![roads], space)
        }
    }
}

/// The paper's column name of an algorithm.
fn column(a: Algorithm) -> &'static str {
    a.name().trim_start_matches("2-way ")
}

fn cell(cells: &Cells, a: Algorithm) -> Option<&Measured> {
    cells.iter().find(|(b, _)| *b == a).map(|(_, m)| m)
}

/// The count rules of one row — every "✔" EXPERIMENTS.md used to state in
/// prose, over exact counts only. `all_rep_after` is All-Rep's
/// after-replication count when it was computed instead of run.
#[must_use]
pub fn check_row(cells: &Cells, all_rep_after: Option<u64>) -> Vec<String> {
    use Algorithm::{AllReplicate, ControlledReplicate, ControlledReplicateLimit, Hypercube};
    let mut failed = Vec::new();

    if let Some(((first, m0), rest)) = cells.split_first() {
        let want = m0.output.tuple_count;
        for (a, m) in rest.iter().filter(|(_, m)| m.output.tuple_count != want) {
            let (a, first, got) = (column(*a), column(*first), m.output.tuple_count);
            failed.push(format!("{a} counts {got} tuples, {first} counts {want}"));
        }
    }

    let after = |a| cell(cells, a).map(|m| m.output.stats.rectangles_after_replication);
    let chain = [
        (AllReplicate, after(AllReplicate).or(all_rep_after)),
        (ControlledReplicate, after(ControlledReplicate)),
        (ControlledReplicateLimit, after(ControlledReplicateLimit)),
    ];
    let present: Vec<(&str, u64)> = chain
        .into_iter()
        .filter_map(|(a, n)| Some((column(a), n?)))
        .collect();
    for pair in present.windows(2) {
        let ((more, m), (fewer, f)) = (pair[0], pair[1]);
        if m < f {
            failed.push(format!(
                "after replication {more} has {m} rectangles, {fewer} has {f}"
            ));
        }
    }

    if let (Some(c), Some(l)) = (
        cell(cells, ControlledReplicate),
        cell(cells, ControlledReplicateLimit),
    ) {
        let counts = |m: &Measured| {
            let (report, stats) = (&m.output.report, &m.output.stats);
            (
                stats.rectangles_replicated,
                report.dfs_read_bytes,
                report.dfs_write_bytes,
            )
        };
        if counts(c) != counts(l) {
            failed.push(format!(
                "(marked, DFS read, DFS written) is {:?} under C-Rep, {:?} under C-Rep-L",
                counts(c),
                counts(l)
            ));
        }
    }

    for a in [AllReplicate, Hypercube] {
        if let Some(dfs) = cell(cells, a).map(Measured::dfs_bytes).filter(|&b| b != 0) {
            failed.push(format!("{} moved {dfs} DFS bytes", column(a)));
        }
    }
    failed
}

/// Runs one spec: prints its table to stdout as the rows finish and
/// returns the same text with the records and the rule violations.
#[must_use]
pub fn run_spec(spec: &Spec, settings: &Settings) -> SpecRun {
    let s = settings.scale * spec.extra_scale;
    let mut engine = EngineConfig::default();
    engine.fault_plan.clone_from(&settings.faults);

    let mut block = String::new();
    let mut emit = |line: String| {
        println!("{line}");
        block.push_str(&line);
        block.push('\n');
    };
    let mut log = BenchLog::stamped(spec.name, settings.scale, settings.reps);
    let mut violations = Vec::new();
    // (tuples, DFS bytes) of the cascade on the row above.
    let mut cascade_above: Option<(u64, u64)> = None;

    for (row, &value) in spec.values.iter().enumerate() {
        let (data, space) = generate(spec, s, row, value);
        let relations: Vec<&[Rect]> = (0..3).map(|i| data[i % data.len()].as_slice()).collect();
        let side = match spec.param {
            Param::Grid => value as u32,
            _ => 8,
        };
        let cluster = Cluster::new(
            ClusterConfig::for_space((0.0, space.0), (0.0, space.1), side)
                .with_engine(engine.clone()),
        );
        let query = Query::parse(&spec.query.replace("{d}", &value.to_string()))
            .expect("spec queries parse");
        let n = relations[0].len();
        let label = match spec.param {
            Param::Size => n.to_string(),
            Param::Grid => format!("{value}x{value}"),
            _ => value.to_string(),
        };

        let cut = |a| matches!(spec.cutoff, Some((c, rows)) if c == a && row >= rows);
        let cells: Vec<(Algorithm, Measured)> = spec
            .algorithms
            .iter()
            .filter(|&&a| !cut(a))
            .map(|&a| (a, measure(&cluster, &query, &relations, a, settings.reps)))
            .collect();
        // A cut-off All-Rep's counts need no run: every rectangle, to its
        // full 4th quadrant (the paper reports these for timed-out rows).
        let all_rep_after = cut(Algorithm::AllReplicate).then(|| {
            let rects = relations.iter().flat_map(|r| r.iter());
            rects
                .map(|r| cluster.grid().fourth_quadrant_cells(r).len() as u64)
                .sum()
        });

        let json_row = format!("{}={label}", spec.param.header());
        for (a, m) in &cells {
            log.record(&json_row, *a, m);
        }
        let mut failed = check_row(&cells, all_rep_after);
        if let Some(m) = cell(&cells, Algorithm::TwoWayCascade) {
            let here = (m.output.tuple_count, m.dfs_bytes());
            if let Some(above) = cascade_above.replace(here) {
                if (here.0 > above.0) != (here.1 > above.1) {
                    failed.push(format!(
                        "Cascade's (tuples, DFS bytes) go {above:?} -> {here:?}: not together"
                    ));
                }
            }
        }
        let place = format!("{} row {json_row}", spec.name);
        violations.extend(failed.into_iter().map(|f| format!("{place}: {f}")));

        let (headers, values): (Vec<String>, Vec<String>) =
            columns(spec, label, &cells, all_rep_after, s)
                .into_iter()
                .unzip();
        if row == 0 {
            let faults = settings.faults.as_ref().map_or_else(String::new, |p| {
                let (rate, stragglers) = (p.map_failure_rate, p.straggler_rate);
                format!(", faults {rate}/{stragglers}/{}", p.seed)
            });
            emit(format!("=== {}: {} ===", spec.name, spec.caption));
            emit(format!(
                "MWSJ_SCALE = {} (x{} for this table), nproc = {}, reps = {}{faults}",
                settings.scale,
                spec.extra_scale,
                nproc(),
                settings.reps
            ));
            emit(format!(
                "first row: nI = {n}, space [0,{:.0}]x[0,{:.0}]\n",
                space.0, space.1
            ));
            let header = headers.join(" | ");
            emit(format!("{header}\n{}", "-".repeat(header.len())));
        }
        emit(values.join(" | "));
    }

    for v in &violations {
        eprintln!("count rule failed: {v}");
    }
    SpecRun {
        block,
        log,
        violations,
    }
}

/// One printed row as `(header, cell)` pairs: label, tuples, one time per
/// algorithm, one "# Recs Replicated (after replication)" column per
/// algorithm the paper gives one, then the derived columns — reducer skew
/// on a grid sweep, the planner's choice against the best pinned wall when
/// `Auto` is a column.
fn columns(
    spec: &Spec,
    label: String,
    cells: &Cells,
    all_rep_after: Option<u64>,
    s: f64,
) -> Vec<(String, String)> {
    use Algorithm::{AllReplicate, Auto, ControlledReplicate, ControlledReplicateLimit};
    let (_, first) = cells.first().expect("a row runs at least one algorithm");
    let mut out = vec![
        (spec.param.header().to_string(), label),
        ("tuples".to_string(), first.output.tuple_count.to_string()),
    ];
    for &a in spec.algorithms {
        let time = cell(cells, a).map(|m| fmt_times(m, s));
        out.push((
            format!("t {}", column(a)),
            time.unwrap_or_else(|| "> cut-off".to_string()),
        ));
    }
    let replicating = [AllReplicate, ControlledReplicate, ControlledReplicateLimit];
    for &a in spec.algorithms.iter().filter(|a| replicating.contains(a)) {
        let (marked, after) = cell(cells, a).map_or_else(
            || {
                let after = all_rep_after.expect("computed for every cut-off row");
                (first.input_records, after)
            },
            |m| {
                let stats = &m.output.stats;
                (
                    stats.rectangles_replicated,
                    stats.rectangles_after_replication,
                )
            },
        );
        out.push((
            format!("#Recs {}", column(a)),
            format!("{marked} ({after})"),
        ));
    }
    if spec.param == Param::Grid {
        let crep = cell(cells, ControlledReplicate).expect("the grid sweep runs C-Rep");
        out.push((
            "max/mean reducer load".to_string(),
            format!("{:.2}", crep.reducer_skew()),
        ));
    }
    if let Some(auto) = cell(cells, Auto) {
        let pinned = cells.iter().filter(|(a, _)| *a != Auto);
        let (best, best_run) = pinned
            .min_by_key(|(_, m)| m.wall)
            .expect("a pinned column beside Auto");
        let ratio = auto.wall.as_secs_f64() / best_run.wall.as_secs_f64();
        out.push((
            "chosen".to_string(),
            auto.output.algorithm.name().to_string(),
        ));
        out.push(("best pinned".to_string(), best.name().to_string()));
        out.push(("auto/best".to_string(), format!("{ratio:.2}x")));
    }
    out
}

/// Replaces what stands between `<!-- measured:NAME -->` and
/// `<!-- /measured:NAME -->` in `doc` with `block` in a code fence. Text
/// outside the markers is returned byte for byte.
///
/// # Errors
/// Names the marker that is missing or never closed.
pub fn splice(doc: &str, name: &str, block: &str) -> Result<String, String> {
    let open = format!("<!-- measured:{name} -->");
    let close = format!("<!-- /measured:{name} -->");
    let start = doc
        .find(&open)
        .ok_or_else(|| format!("no `{open}` marker"))?
        + open.len();
    let len = doc[start..]
        .find(&close)
        .ok_or_else(|| format!("`{open}` is never closed by `{close}`"))?;
    let (before, after) = (&doc[..start], &doc[start + len..]);
    Ok(format!("{before}\n```\n{block}```\n{after}"))
}
