//! CLI-surface tests for the `churn` binary: one smoke per `--scenario`
//! value, the seed-reproducibility contract of the adaptive trajectory, and
//! a string-contains check that `--help` documents every flag and telemetry
//! column (keeps the docs from drifting as columns are added).

use std::process::{Command, Output};

fn churn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_churn"))
        .args(args)
        .output()
        .expect("churn binary runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = churn(args);
    assert!(
        out.status.success(),
        "churn {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

const SMOKE: &[&str] = &["--hosts", "20", "--steps", "2", "--runs", "20"];

fn smoke(extra: &[&str]) -> String {
    let mut args = SMOKE.to_vec();
    args.extend_from_slice(extra);
    stdout_of(&args)
}

#[test]
fn scenario_fat_tree_smokes() {
    let out = smoke(&["--scenario", "fat-tree"]);
    assert!(out.contains("fat-tree"), "names the family:\n{out}");
    assert!(
        out.contains("mttc resolve"),
        "prints the MTTC table:\n{out}"
    );
}

#[test]
fn scenario_fat_tree_composes_with_shards() {
    let out = smoke(&["--scenario", "fat-tree", "--shards", "2"]);
    assert!(out.contains("zone shards"), "sharded header:\n{out}");
    assert!(out.contains("fat-tree"), "names the family:\n{out}");
}

#[test]
fn scenario_scale_free_smokes() {
    let out = smoke(&["--scenario", "scale-free"]);
    assert!(out.contains("scale-free"), "names the family:\n{out}");
    assert!(
        out.contains("mttc resolve"),
        "prints the MTTC table:\n{out}"
    );
}

#[test]
fn scenario_enterprise_smokes() {
    let out = smoke(&["--scenario", "enterprise", "--shards", "2"]);
    assert!(
        out.contains("tiered enterprise"),
        "names the family:\n{out}"
    );
    assert!(out.contains("zone shards"), "sharded header:\n{out}");
}

#[test]
fn scenario_adaptive_reports_defender_lag_and_reproduces() {
    let first = smoke(&["--scenario", "adaptive"]);
    for needle in [
        "defender-lag",
        "trajectory:",
        "all finite",
        "entry",
        "target",
        "cluster",
    ] {
        assert!(first.contains(needle), "{needle:?} missing from:\n{first}");
    }
    let trajectory = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.starts_with("trajectory:"))
            .map(str::to_owned)
            .collect()
    };
    let t1 = trajectory(&first);
    assert_eq!(t1.len(), 2, "one trajectory line per step:\n{first}");
    // The acceptance contract: the same command line reproduces the same
    // MTTC + defender-lag trajectory, byte for byte.
    let second = smoke(&["--scenario", "adaptive"]);
    assert_eq!(t1, trajectory(&second), "trajectory is seed-stable");
    for line in &t1 {
        assert!(
            !line.contains("NaN") && !line.contains("inf"),
            "defender-lag must stay finite: {line}"
        );
    }
}

#[test]
fn scenario_cve_feed_smokes() {
    let out = smoke(&["--scenario", "cve-feed"]);
    for needle in ["advisory", "family", "quarantines", "CVE-feed churn"] {
        assert!(out.contains(needle), "{needle:?} missing from:\n{out}");
    }
}

/// Runs `churn` on bad input and returns its stderr, checking it exits
/// with `status` and a `churn: ` message, not a panic.
fn rejected(args: &[&str], status: i32) -> String {
    let out = churn(args);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(status), "churn {args:?}:\n{err}");
    assert!(err.starts_with("churn: "), "churn {args:?}:\n{err}");
    assert!(!err.contains("panicked"), "churn {args:?}:\n{err}");
    err
}

#[test]
fn unknown_scenario_is_rejected() {
    let err = rejected(&["--scenario", "nope"], 2);
    assert!(
        err.contains("unknown --scenario"),
        "names the error:\n{err}"
    );
}

#[test]
fn unknown_solver_is_rejected() {
    // The solver name is checked before the journal is read, so no
    // recording is needed.
    let err = rejected(&["--replay", "x.log", "--solver", "bp"], 2);
    assert!(
        err.contains("unknown --solver \"bp\" (trws, icm, ils, exhaustive, exact)"),
        "names the error and the accepted solvers:\n{err}"
    );
}

#[test]
fn unreadable_journal_is_rejected() {
    let err = rejected(&["--replay", "no-such.log"], 1);
    assert!(err.contains("no-such.log"), "names the file:\n{err}");
}

#[test]
fn help_documents_every_flag_and_column() {
    let help = stdout_of(&["--help"]);
    // Every flag the parser understands.
    for flag in [
        "--steps",
        "--hosts",
        "--batch",
        "--shards",
        "--runs",
        "--scenario",
        "--serve",
        "--readers",
        "--journal",
        "--replay",
        "--solver",
        "--full",
        "--help",
    ] {
        assert!(help.contains(flag), "flag {flag} undocumented");
    }
    // Every scenario value.
    for scenario in [
        "fat-tree",
        "scale-free",
        "enterprise",
        "adaptive",
        "cve-feed",
    ] {
        assert!(help.contains(scenario), "scenario {scenario} undocumented");
    }
    // Every telemetry column across the printed modes.
    for column in [
        // sequential/batched
        "step",
        "deltas",
        "touched",
        "frontier",
        "swept",
        "changed",
        "obj carry",
        "obj resolve",
        "mttc carry",
        "mttc resolve",
        "gain",
        "model edit",
        "model rebuild",
        "solve",
        // sharded extras
        "shards",
        "rounds",
        "gap",
        "flips",
        "shard solve",
        "coord",
        // adaptive extras
        "entry",
        "target",
        "cluster",
        "clusters",
        "lag",
        "defender-lag",
        "trajectory:",
        // cve-feed extras
        "advisory",
        "family",
        "quarantines",
        // replay mode
        "revision",
        "rec resolve",
        "rep resolve",
        "drift",
    ] {
        assert!(help.contains(column), "column {column:?} undocumented");
    }
}
