//! The traced run's span recorder and its replay pass.
//!
//! Spans are recorded in memory around the benchmark's calls into each
//! layer and written out when the run ends. A layer whose wall is measured
//! apart from its parent's span gets a span laid out inside the parent,
//! back to back with its siblings from the parent's start in pipeline
//! order, marked `laid_out`. These are the layers that run only inside
//! another layer's call, whose walls the program reports (the cache
//! refresh and the solve inside `apply_batch`, a shard's local step and the
//! coordination inside the sharded `apply_batch`), and the delta layer,
//! timed on a benchmark-owned copy of the network doing the same clone and
//! `apply_all` the engine does.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::{Duration, Instant};

use ics_diversity::{DiversityEngine, Journal, ReassignmentReport, ShardedEngine};
use netmodel::assignment::Assignment;
use netmodel::catalog::Catalog;
use netmodel::delta::NetworkDelta;
use netmodel::journal::SnapshotRecord;
use netmodel::network::Network;
use netmodel::topology::GeneratedNetwork;

use crate::recovery::create_journal;
use perfbench::stream::is_structural;

/// How far a span's children may outlast the span itself in one burst, as
/// a share of its duration, before the burst counts as failed. Laid-out
/// children are measured apart from their parent: the delta layer's copy
/// stages on its own network, and on a 2-core Xeon VM its staging outlasted
/// the sharded engine's own by up to a quarter of the step in a few bursts
/// in 1,000. More than this means a layer timed on other work.
pub const OVERRUN_MARGIN: f64 = 0.5;

/// How often the delta layer's staging is timed again, at most, when a
/// burst's children overrun its step: the copy's timing, the one taken
/// apart from the engine, can catch a pause of the host alone.
const RETIMES: usize = 3;

/// Whether children that took `children` overrun a parent that took
/// `parent`.
pub fn overruns(children: Duration, parent: Duration) -> bool {
    children.as_secs_f64() > (1.0 + OVERRUN_MARGIN) * parent.as_secs_f64()
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub pass: &'static str,
    pub burst: u32,
    pub layer: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub laid_out: bool,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// In-memory span store.
#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Records a measured span and returns its id.
    pub fn span(
        &mut self,
        pass: &'static str,
        burst: usize,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            pass,
            burst: burst as u32,
            layer,
            start,
            end,
            parent,
            laid_out: false,
        });
        self.spans.len() - 1
    }

    /// Records a span of a wall measured apart from its parent, laid out
    /// from `start`; returns its end, where the next sibling starts.
    pub fn laid_out(
        &mut self,
        pass: &'static str,
        burst: usize,
        layer: &'static str,
        start: Instant,
        wall: Duration,
        parent: usize,
    ) -> Instant {
        let end = start + wall;
        self.spans.push(Span {
            pass,
            burst: burst as u32,
            layer,
            start,
            end,
            parent: Some(parent),
            laid_out: true,
        });
        end
    }

    /// Children's total duration of every span.
    fn children(&self) -> Vec<Duration> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.duration();
            }
        }
        children
    }

    /// Per layer of `pass`: (durations, self times) in microseconds, one
    /// entry per span of a burst numbered `from_burst` or later. A self
    /// time is the span's duration minus its children's, and is negative
    /// where the children outlast the span.
    pub fn by_layer(
        &self,
        pass: &str,
        from_burst: usize,
    ) -> BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut out: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(self.children()) {
            if span.pass != pass || (span.burst as usize) < from_burst {
                continue;
            }
            let entry = out.entry(span.layer).or_default();
            entry.0.push(us(span.duration()));
            entry.1.push(us(span.duration()) - us(children));
        }
        out
    }

    /// Spans of bursts numbered `from_burst` or later whose children
    /// outlast them by more than [`OVERRUN_MARGIN`].
    pub fn overruns(&self, from_burst: usize) -> Vec<&Span> {
        self.spans
            .iter()
            .zip(self.children())
            .filter(|(span, children)| {
                span.burst as usize >= from_burst && overruns(*children, span.duration())
            })
            .map(|(span, _)| span)
            .collect()
    }

    /// Writes every span as one JSON object per line, times in
    /// nanoseconds since `origin`.
    pub fn write(&self, path: &Path, origin: Instant) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"pass\": \"{}\", \"burst\": {}, \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"laid_out\": {}}}",
                s.pass,
                s.burst,
                s.layer,
                ns(s.start),
                ns(s.end),
                s.laid_out
            )?;
        }
        out.flush()
    }
}

/// Per-burst counts of the replay pass (the layers' own telemetry).
#[derive(Debug, Default)]
pub struct Counts {
    pub deltas: Vec<f64>,
    pub structural: u64,
    pub total_deltas: u64,
    pub hosts_refiltered: Vec<f64>,
    pub potentials_computed: Vec<f64>,
    pub potentials_reused: Vec<f64>,
    pub edited: u64,
    pub swept_vars: Vec<f64>,
    pub iterations: Vec<f64>,
    pub localized: u64,
    pub rounds: Vec<f64>,
    pub light: u64,
    pub strong: u64,
    pub boundary_flips: Vec<f64>,
    pub journal_bytes: Vec<f64>,
    pub compactions: u64,
    pub bursts: u64,
}

impl Counts {
    fn engine_report(&mut self, r: &ReassignmentReport) {
        self.hosts_refiltered
            .push(r.rebuild.hosts_refiltered as f64);
        self.potentials_computed
            .push(r.rebuild.potentials_computed as f64);
        self.potentials_reused
            .push(r.rebuild.potentials_reused as f64);
        self.edited += u64::from(r.rebuild.edited);
        self.swept_vars.push(r.swept_vars as f64);
        self.iterations.push(r.iterations as f64);
        self.localized += u64::from(r.localized);
    }
}

/// What a replay measured besides its spans.
#[derive(Debug, Default)]
pub struct Replay {
    pub counts: Counts,
    /// Cold solve wall of the solver (the slowest shard's when sharded).
    pub cold_solve_s: f64,
    /// Cold solve coordination wall (sharded only).
    pub cold_coord_s: f64,
    /// Certified gap of the cold solve (sharded only; 0 without one).
    pub cold_gap: f64,
}

/// A journal the benchmark owns, fed the same deltas, revision and
/// assignment the engine's own journal would be.
pub struct OwnedJournal {
    journal: Journal,
    path: std::path::PathBuf,
}

impl OwnedJournal {
    pub fn create(
        path: &Path,
        g: &GeneratedNetwork,
        network: &Network,
        assignment: Option<&Assignment>,
    ) -> Result<OwnedJournal, String> {
        Ok(OwnedJournal {
            journal: create_journal(path, &g.catalog, &g.similarity, network, assignment)?,
            path: path.to_path_buf(),
        })
    }

    fn len(&self) -> u64 {
        std::fs::metadata(&self.path).map_or(0, |m| m.len())
    }

    /// Appends one batch (and a compacting snapshot when due), recording
    /// top-level `journal.append` and `journal.compact` spans.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        tracer: &mut Tracer,
        pass: &'static str,
        burst: usize,
        deltas: &[NetworkDelta],
        network: &Network,
        assignment: Option<&Assignment>,
        counts: &mut Counts,
    ) -> Result<(), String> {
        let before = self.len();
        let t0 = Instant::now();
        self.journal
            .append_batch(deltas, network.revision(), assignment)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        tracer.span(pass, burst, "journal.append", t0, t1, None);
        counts
            .journal_bytes
            .push(self.len().saturating_sub(before) as f64);
        if self.journal.snapshot_due() {
            let t0 = Instant::now();
            let snapshot = SnapshotRecord {
                revision: network.revision(),
                network: network.clone(),
                assignment: assignment.cloned(),
            };
            self.journal
                .append_snapshot(snapshot)
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            tracer.span(pass, burst, "journal.compact", t0, t1, None);
            counts.compactions += 1;
        }
        Ok(())
    }
}

/// The benchmark-owned copy the delta layer is timed on.
struct DeltaCopy<'a> {
    network: Network,
    catalog: &'a Catalog,
}

/// Walls of one staging: the clone (zero when staged in place) and the
/// `apply_all`.
#[derive(Debug, Clone, Copy)]
struct Staging {
    clone: Duration,
    apply: Duration,
}

impl DeltaCopy<'_> {
    /// Times staging `deltas` the way the engine does: a clone, unless the
    /// engine stages them `in_place`, then `apply_all`. Returns the staged
    /// network.
    fn time(&self, deltas: &[NetworkDelta], in_place: bool) -> (Network, Staging) {
        let c0 = Instant::now();
        let mut staged = self.network.clone();
        let c1 = Instant::now();
        staged
            .apply_all(deltas, self.catalog)
            .expect("the stream applies to its staged network");
        let a1 = Instant::now();
        let clone = if in_place { Duration::ZERO } else { c1 - c0 };
        (
            staged,
            Staging {
                clone,
                apply: a1 - c1,
            },
        )
    }

    /// Stages `deltas` on the copy after the engine staged them in a step
    /// that took `step`, whose `other` children took `other`. While the
    /// staging and those children overrun the step, the staging is timed
    /// again, at most [`RETIMES`] times, keeping the fastest wall of each
    /// part.
    fn stage(
        &mut self,
        deltas: &[NetworkDelta],
        in_place: bool,
        step: Duration,
        other: Duration,
    ) -> Staging {
        let (staged, mut staging) = self.time(deltas, in_place);
        for _ in 0..RETIMES {
            if !overruns(staging.clone + staging.apply + other, step) {
                break;
            }
            let (_, again) = self.time(deltas, in_place);
            staging.clone = staging.clone.min(again.clone);
            staging.apply = staging.apply.min(again.apply);
        }
        self.network = staged;
        staging
    }
}

fn count_deltas(counts: &mut Counts, burst: &[NetworkDelta]) {
    counts.bursts += 1;
    counts.deltas.push(burst.len() as f64);
    counts.total_deltas += burst.len() as u64;
    counts.structural += burst.iter().filter(|d| is_structural(d)).count() as u64;
}

/// Replays `bursts` on a bare single engine: `engine.step` spans with the
/// delta, cache and solve layers under them, plus the owned journal's
/// spans when `journal` is given.
pub fn replay_single(
    g: &GeneratedNetwork,
    bursts: &[Vec<NetworkDelta>],
    journal: Option<&Path>,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    const PASS: &str = "replay";
    let mut engine =
        DiversityEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
    let cold = engine.solve().map_err(|e| e.to_string())?;
    let mut out = Replay {
        cold_solve_s: cold.solve_wall.as_secs_f64(),
        ..Replay::default()
    };
    let mut owned = match journal {
        Some(path) => Some(OwnedJournal::create(
            path,
            g,
            engine.network(),
            engine.assignment(),
        )?),
        None => None,
    };
    let mut copy = DeltaCopy {
        network: g.network.clone(),
        catalog: &g.catalog,
    };
    for (b, burst) in bursts.iter().enumerate() {
        count_deltas(&mut out.counts, burst);
        let s0 = Instant::now();
        let report = engine
            .apply_batch(burst)
            .map_err(|e| format!("replay burst {b}: {e}"))?;
        let s1 = Instant::now();
        let solve = report.rebuild_wall + report.solve_wall;
        let staging = copy.stage(burst, false, s1 - s0, solve);
        let step = tracer.span(PASS, b, "engine.step", s0, s1, None);
        let next = tracer.laid_out(PASS, b, "delta.clone", s0, staging.clone, step);
        let next = tracer.laid_out(PASS, b, "delta.apply", next, staging.apply, step);
        let next = tracer.laid_out(PASS, b, "cache.refresh", next, report.rebuild_wall, step);
        tracer.laid_out(PASS, b, "mrf.solve", next, report.solve_wall, step);
        out.counts.engine_report(&report);
        if let Some(owned) = owned.as_mut() {
            owned.record(
                tracer,
                PASS,
                b,
                burst,
                engine.network(),
                engine.assignment(),
                &mut out.counts,
            )?;
        }
    }
    Ok(out)
}

/// Replays `bursts` on a bare sharded engine as pass `pass`: `shard.step`
/// spans with the master's delta staging, the slowest touched shard's
/// local step (with its cache and solve layers) and the coordination
/// under them, plus the owned journal's spans when `journal` is given.
pub fn replay_sharded(
    g: &GeneratedNetwork,
    bursts: &[Vec<NetworkDelta>],
    journal: Option<&Path>,
    pass: &'static str,
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let mut engine = ShardedEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
    let cold = engine.solve().map_err(|e| e.to_string())?;
    let mut out = Replay {
        cold_solve_s: cold
            .shard_reports
            .iter()
            .flatten()
            .map(|r| r.solve_wall.as_secs_f64())
            .fold(0.0, f64::max),
        cold_coord_s: cold.coordination_wall.as_secs_f64(),
        cold_gap: cold.certified_gap().unwrap_or(0.0),
        ..Replay::default()
    };
    let mut owned = match journal {
        Some(path) => Some(OwnedJournal::create(
            path,
            g,
            engine.network(),
            engine.assignment(),
        )?),
        None => None,
    };
    let mut copy = DeltaCopy {
        network: g.network.clone(),
        catalog: &g.catalog,
    };
    for (b, burst) in bursts.iter().enumerate() {
        count_deltas(&mut out.counts, burst);
        // The sharded engine stages slot-only bursts in place on its master.
        let slot_only = !burst.iter().any(is_structural);
        let s0 = Instant::now();
        let report = engine
            .apply_batch(burst)
            .map_err(|e| format!("replay burst {b}: {e}"))?;
        let s1 = Instant::now();
        let slowest = report
            .shard_reports
            .iter()
            .zip(&report.per_shard_solve)
            .filter_map(|(r, wall)| r.as_ref().map(|r| (r, *wall)))
            .max_by_key(|(_, wall)| *wall);
        let local = slowest.map_or(Duration::ZERO, |(_, wall)| wall);
        let staging = copy.stage(burst, slot_only, s1 - s0, local + report.coordination_wall);
        let step = tracer.span(pass, b, "shard.step", s0, s1, None);
        let mut next = s0;
        if !slot_only {
            next = tracer.laid_out(pass, b, "delta.clone", next, staging.clone, step);
        }
        next = tracer.laid_out(pass, b, "delta.apply", next, staging.apply, step);
        if let Some((local, wall)) = slowest {
            let local_span = tracer.spans.len();
            let end = tracer.laid_out(pass, b, "engine.step", next, wall, step);
            let inner = tracer.laid_out(
                pass,
                b,
                "cache.refresh",
                next,
                local.rebuild_wall,
                local_span,
            );
            tracer.laid_out(pass, b, "mrf.solve", inner, local.solve_wall, local_span);
            next = end;
            out.counts.engine_report(local);
        }
        tracer.laid_out(pass, b, "shard.coord", next, report.coordination_wall, step);
        out.counts.rounds.push(report.rounds as f64);
        out.counts.boundary_flips.push(report.boundary_flips as f64);
        if report.dual_bound.is_some() {
            out.counts.strong += 1;
        } else if report.rounds > 0 {
            out.counts.light += 1;
        }
        if let Some(owned) = owned.as_mut() {
            owned.record(
                tracer,
                pass,
                b,
                burst,
                engine.network(),
                engine.assignment(),
                &mut out.counts,
            )?;
        }
    }
    Ok(out)
}

/// Cost of recording one span, measured by recording `n` of them.
pub fn span_cost(n: usize) -> Duration {
    let mut tracer = Tracer::default();
    let t = Instant::now();
    for i in 0..n {
        let a = Instant::now();
        let b = Instant::now();
        std::hint::black_box(tracer.span("calibration", i, "calibration", a, b, None));
    }
    t.elapsed() / n.max(1) as u32
}
