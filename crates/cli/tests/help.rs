//! `--help` prints the usage and succeeds, whatever subcommand it follows.

use std::process::Command;

#[test]
fn help_after_any_subcommand_prints_the_usage_and_succeeds() {
    for args in [
        &["--help"][..],
        &["help"],
        &["run", "--help"],
        &["explain", "--help"],
        &["run", "--query", "A ov B", "--help"],
        &["serve", "--help"],
        &["query", "--help"],
        &["ingest", "--help"],
        &["gen", "--help"],
        &["ann", "--help"],
        &["stats", "--help"],
        &["trace-check", "--help"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mwsj"))
            .args(args)
            .output()
            .expect("the mwsj binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {out:?}");
        assert!(stdout.contains("USAGE:"), "{args:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?}: {out:?}");
    }
}
