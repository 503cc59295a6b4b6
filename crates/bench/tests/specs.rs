//! Every spec of the evaluation, run small: the table comes out with the
//! rows and columns its spec declares and passes the count rules; the
//! command line selects specs by name; the EXPERIMENTS.md splice touches
//! nothing outside its markers.

use mwsj_bench::runner::{parse_args, run_spec, splice, Settings};
use mwsj_bench::specs::{Param, SPECS};
use mwsj_core::Algorithm;

/// A scale at which the heaviest spec (Table 4's road self-join) finishes
/// in a few seconds unoptimized: 1 000 roads, 500-2 500 uniform rectangles.
const TEST_SCALE: f64 = 0.0005;

#[test]
fn every_spec_yields_its_table_and_passes_the_count_rules() {
    let settings = Settings {
        scale: TEST_SCALE,
        reps: 1,
        faults: None,
    };
    for spec in SPECS {
        let run = run_spec(spec, &settings);
        assert_eq!(run.violations, Vec::<String>::new(), "{}", spec.name);

        // Five header lines (title, stamp, inputs, blank, columns), a rule,
        // then one line per swept value.
        let lines: Vec<&str> = run.block.lines().collect();
        assert_eq!(lines.len(), 6 + spec.values.len(), "{}", run.block);
        let with_recs_column = [
            Algorithm::AllReplicate,
            Algorithm::ControlledReplicate,
            Algorithm::ControlledReplicateLimit,
        ];
        let replicating = spec
            .algorithms
            .iter()
            .filter(|a| with_recs_column.contains(a))
            .count();
        let derived = match (spec.param, spec.algorithms.contains(&Algorithm::Auto)) {
            (Param::Grid, _) => 1,
            (_, true) => 3,
            _ => 0,
        };
        let width = 2 + spec.algorithms.len() + replicating + derived;
        for line in lines[4..5].iter().chain(&lines[6..]) {
            assert_eq!(line.split(" | ").count(), width, "{}: {line}", spec.name);
        }

        // One run record per measured cell, each with the communication
        // figures, in a document the repo's own JSON reader accepts.
        let cut: usize = spec
            .cutoff
            .map_or(0, |(_, rows)| spec.values.len().saturating_sub(rows));
        let json = run.log.to_json();
        let doc = mwsj_mapreduce::json::parse(&json).expect("well-formed BENCH json");
        let records = doc
            .get("records")
            .and_then(|r| r.as_arr())
            .expect("records");
        let runs: Vec<_> = records.iter().filter(|r| r.get("run").is_some()).collect();
        assert_eq!(
            runs.len(),
            spec.values.len() * spec.algorithms.len() - cut,
            "{}",
            spec.name
        );
        for r in runs {
            for key in ["tuples", "after_replication", "r", "q", "reducer_skew"] {
                assert!(r.get(key).and_then(|v| v.as_f64()).is_some(), "{key}");
            }
        }
        assert_eq!(doc.get("scale").and_then(|v| v.as_f64()), Some(TEST_SCALE));
    }
}

#[test]
fn positional_names_select_specs_and_fault_flags_make_a_plan() {
    let args = |list: &[&str]| list.iter().map(ToString::to_string).collect::<Vec<_>>();

    let (all, plan) = parse_args(args(&["--bench"])).unwrap();
    assert_eq!(all.len(), SPECS.len());
    assert!(plan.is_none());

    let (two, plan) = parse_args(args(&[
        "table6",
        "--fault-rate",
        "0.05",
        "--fault-seed",
        "7",
        "opt",
        "--bench",
    ]))
    .unwrap();
    let names: Vec<&str> = two.iter().map(|s| s.name).collect();
    assert_eq!(names, ["table6", "opt"]);
    let plan = plan.expect("fault flags given");
    assert_eq!((plan.seed, plan.map_failure_rate), (7, 0.05));

    let err = parse_args(args(&["table10"])).unwrap_err();
    assert!(err.contains("table10") && err.contains("table9"), "{err}");
}

const DOC: &str = "# Title\n\nprose before\n\n<!-- measured:table2 -->\nstale\n\
                   <!-- /measured:table2 -->\n\nbetween\n\n<!-- measured:opt -->\n\
                   <!-- /measured:opt -->\ntail without newline";

#[test]
fn splice_replaces_only_what_stands_between_its_markers() {
    let once = splice(DOC, "table2", "a | b\n1 | 2\n").unwrap();
    assert!(once.contains("<!-- measured:table2 -->\n```\na | b\n1 | 2\n```\n<!-- /measured:"));
    assert!(!once.contains("stale"));
    assert_eq!(splice(&once, "table2", "a | b\n1 | 2\n").unwrap(), once);

    // Outside the markers nothing moves, whatever the block was or becomes.
    let open = "<!-- measured:table2 -->";
    let close = "<!-- /measured:table2 -->";
    let outside = |doc: &str| {
        let (before, rest) = doc.split_once(open).unwrap();
        let (_, after) = rest.split_once(close).unwrap();
        (before.to_string(), after.to_string())
    };
    assert_eq!(outside(&once), outside(DOC));
    let other = splice(&once, "opt", "x\n").unwrap();
    assert_eq!(outside(&other).0, outside(DOC).0);
    assert!(other.ends_with("```\nx\n```\n<!-- /measured:opt -->\ntail without newline"));
}

#[test]
fn splice_names_a_missing_or_unclosed_marker() {
    let missing = splice(DOC, "table7", "x\n").unwrap_err();
    assert!(missing.contains("<!-- measured:table7 -->"), "{missing}");

    let unclosed = DOC.replace("<!-- /measured:opt -->", "");
    let err = splice(&unclosed, "opt", "x\n").unwrap_err();
    assert!(err.contains("<!-- /measured:opt -->"), "{err}");
    // A later spec's closing marker must not close an earlier one.
    let crossed = DOC.replace("<!-- /measured:table2 -->", "");
    assert!(splice(&crossed, "table2", "x\n").is_err());
}
