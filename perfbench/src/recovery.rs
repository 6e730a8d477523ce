//! Recovery: the in-process equality check and the fresh-process timing.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use ics_diversity::journal::{read_records, DEFAULT_SNAPSHOT_EVERY};
use ics_diversity::{recover, Journal};
use netmodel::assignment::Assignment;
use netmodel::catalog::{Catalog, ProductSimilarity};
use netmodel::constraints::ConstraintSet;
use netmodel::journal::{Preamble, SnapshotRecord, FORMAT_VERSION};
use netmodel::network::Network;

/// Creates a journal at `path` whose snapshot holds `network` and
/// `assignment`, with the engines' default compaction cadence.
pub fn create_journal(
    path: &Path,
    catalog: &Catalog,
    similarity: &ProductSimilarity,
    network: &Network,
    assignment: Option<&Assignment>,
) -> Result<Journal, String> {
    let preamble = Preamble {
        format: FORMAT_VERSION,
        catalog: catalog.clone(),
        similarity: similarity.clone(),
        constraints: ConstraintSet::new(),
    };
    let snapshot = SnapshotRecord {
        revision: network.revision(),
        network: network.clone(),
        assignment: assignment.cloned(),
    };
    Journal::create(path, &preamble, snapshot, Some(DEFAULT_SNAPSHOT_EVERY))
        .map_err(|e| e.to_string())
}

/// Recovers the journal at `path` and checks the result equals the live
/// engine's network and assignment.
pub fn check_recovery(
    path: &Path,
    network: &Network,
    assignment: &Assignment,
) -> Result<(), String> {
    let recovered = recover(path).map_err(|e| format!("recover: {e}"))?;
    if recovered.network() != network {
        return Err("recovered network differs from the live engine's".into());
    }
    if recovered.assignment() != Some(assignment) {
        return Err("recovered assignment differs from the live engine's".into());
    }
    Ok(())
}

/// Recovery timings from a fresh process, in seconds.
#[derive(Debug, Default)]
pub struct RecoveryTimes {
    /// Whole `recover` calls.
    pub recover: Vec<f64>,
    /// `read_records` calls alone (the read and decode part of recovery).
    pub read: Vec<f64>,
}

/// Times recoveries of `path`, each followed by a bare read, in a fresh
/// process of this benchmark, and waits for it: at least `repeat`, more
/// while they fit in [`RECOVERY_BUDGET`], at most [`MAX_RECOVERIES`].
pub fn time_in_fresh_process(path: &Path, repeat: usize) -> Result<RecoveryTimes, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("recover")
        .arg(path)
        .arg(repeat.to_string())
        .output()
        .map_err(|e| format!("spawning the recovery process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "recovery process failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let mut times = RecoveryTimes::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut words = line.split_whitespace();
        let target = match words.next() {
            Some("recover_s") => &mut times.recover,
            Some("read_s") => &mut times.read,
            _ => continue,
        };
        for w in words {
            target.push(w.parse().map_err(|_| format!("bad timing {w:?}"))?);
        }
    }
    if times.recover.len() < repeat {
        return Err("recovery process reported no timings".into());
    }
    Ok(times)
}

/// Wall time the fresh process spends on recoveries beyond the minimum
/// count: small journals recover in milliseconds, and more of them steady
/// the median.
const RECOVERY_BUDGET: Duration = Duration::from_millis(1500);

/// Cap on recoveries per fresh process.
const MAX_RECOVERIES: usize = 200;

/// The fresh process's side: `recover PATH REPEAT`.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let [path, repeat] = args else {
        return Err("usage: perfbench recover PATH REPEAT".into());
    };
    let path = Path::new(path);
    let repeat: usize = repeat.parse().map_err(|_| "REPEAT must be a count")?;
    let mut recover_s = Vec::with_capacity(repeat);
    let mut read_s = Vec::new();
    let started = Instant::now();
    while recover_s.len() < repeat
        || (started.elapsed() < RECOVERY_BUDGET && recover_s.len() < MAX_RECOVERIES)
    {
        let t = Instant::now();
        let engine = recover(path).map_err(|e| e.to_string())?;
        recover_s.push(t.elapsed().as_secs_f64());
        drop(engine);
        let t = Instant::now();
        let read = read_records(path).map_err(|e| e.to_string())?;
        read_s.push(t.elapsed().as_secs_f64());
        drop(read);
    }
    let line = |name: &str, v: &[f64]| {
        let words: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
        format!("{name} {}", words.join(" "))
    };
    println!("{}", line("recover_s", &recover_s));
    println!("{}", line("read_s", &read_s));
    Ok(())
}
