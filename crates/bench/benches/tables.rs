//! `cargo bench -p mwsj-bench --bench tables [-- SPEC... [fault flags]]` —
//! runs the named specs (default: all of Tables 2-9, the grid ablation and
//! the optimizer check), writes each one's `BENCH_<spec>.json` and measured
//! block in EXPERIMENTS.md, and exits non-zero when a count rule failed.

use mwsj_bench::runner::{parse_args, run_spec, splice, Settings};
use mwsj_bench::{bench_reps, scale, workspace_root};

fn main() {
    let die = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2)
    };
    let (specs, faults) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| die(e));
    let settings = Settings {
        scale: scale(),
        reps: bench_reps(),
        faults,
    };
    let doc_path = workspace_root().join("EXPERIMENTS.md");
    let mut violations = Vec::new();
    for spec in specs {
        let run = run_spec(spec, &settings);
        println!();
        run.log.write().expect("writing the bench log");
        let doc = std::fs::read_to_string(&doc_path).expect("reading EXPERIMENTS.md");
        let doc = splice(&doc, spec.name, &run.block)
            .unwrap_or_else(|e| die(format!("{}: {e}", doc_path.display())));
        std::fs::write(&doc_path, doc).expect("writing EXPERIMENTS.md");
        violations.extend(run.violations);
    }
    if !violations.is_empty() {
        eprintln!("{} count rule(s) failed (listed above)", violations.len());
        std::process::exit(1);
    }
}
