//! Golden tests for the paper reproductions: each table/figure binary runs
//! as a subprocess and its stdout is compared with the output recorded in
//! `tests/data/`.
//!
//! `fig1`, `fig4`, `table1`, `table2_3`, `table5` and `table6` are
//! deterministic and print no timings, so they are compared byte for byte.
//! `ablation` prints a wall-clock `seconds` column, and `TextTable` pads
//! every column to its widest cell, so its output is compared cell by
//! cell: rows split on runs of two or more spaces, the dashed rules are
//! skipped, and the cells under a `seconds` header are masked.
//!
//! To re-record after an intended output change, run the binary in
//! release mode (`cargo run --release -q -p bench --bin <name>`) and
//! redirect stdout into its golden file, then say in the change log which
//! lines moved and why.

use std::process::Command;

fn stdout_of(exe: &str) -> String {
    let out = Command::new(exe).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{exe} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Byte-for-byte comparison, reporting the first differing line.
fn assert_identical(exe: &str, golden: &str) {
    let got = stdout_of(exe);
    if got == golden {
        return;
    }
    let (line, (want, have)) = golden
        .lines()
        .chain(std::iter::repeat("<end of output>"))
        .zip(got.lines().chain(std::iter::repeat("<end of output>")))
        .enumerate()
        .find(|(_, (w, h))| w != h)
        .expect("outputs differ, so some line differs");
    panic!(
        "{exe} drifted from its golden at line {}:\n  golden: {want:?}\n  output: {have:?}\n\nfull output:\n{got}",
        line + 1
    );
}

#[test]
fn fig1_matches_its_golden() {
    assert_identical(env!("CARGO_BIN_EXE_fig1"), include_str!("data/fig1.txt"));
}

#[test]
fn fig4_matches_its_golden() {
    assert_identical(env!("CARGO_BIN_EXE_fig4"), include_str!("data/fig4.txt"));
}

#[test]
fn table1_matches_its_golden() {
    assert_identical(
        env!("CARGO_BIN_EXE_table1"),
        include_str!("data/table1.txt"),
    );
}

#[test]
fn table2_3_matches_its_golden() {
    assert_identical(
        env!("CARGO_BIN_EXE_table2_3"),
        include_str!("data/table2_3.txt"),
    );
}

#[test]
fn table5_matches_its_golden() {
    assert_identical(
        env!("CARGO_BIN_EXE_table5"),
        include_str!("data/table5.txt"),
    );
}

#[test]
fn table6_matches_its_golden() {
    assert_identical(
        env!("CARGO_BIN_EXE_table6"),
        include_str!("data/table6.txt"),
    );
}

const MASKED: &str = "<seconds>";

/// The cells of every line but the dashed rules, with each table's
/// `seconds` column masked. A table starts at a header row naming
/// `seconds` and ends at the next blank line.
fn cells(text: &str) -> Vec<Vec<&str>> {
    let mut seconds = None;
    let mut rows = Vec::new();
    for line in text.lines() {
        if !line.is_empty() && line.chars().all(|c| c == '-') {
            continue;
        }
        let mut row: Vec<&str> = line
            .split("  ")
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .collect();
        if row.is_empty() {
            seconds = None;
        } else if let Some(col) = row.iter().position(|&c| c == "seconds") {
            seconds = Some(col);
        } else if let Some(cell) = seconds.and_then(|col| row.get_mut(col)) {
            *cell = MASKED;
        }
        rows.push(row);
    }
    rows
}

#[test]
fn ablation_matches_its_golden_outside_the_timing_column() {
    let got = stdout_of(env!("CARGO_BIN_EXE_ablation"));
    let want = cells(include_str!("data/ablation.txt"));
    let have = cells(&got);
    assert_eq!(
        have, want,
        "ablation drifted from its golden outside the seconds column\n\nfull output:\n{got}"
    );
    assert!(
        have.iter().flatten().any(|&c| c == MASKED),
        "no seconds cell was masked: the table layout changed\n\nfull output:\n{got}"
    );
}
