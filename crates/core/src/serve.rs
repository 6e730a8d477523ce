//! Concurrent serving front-end: a single-writer absorption loop behind
//! epoch-versioned snapshots ([`crate::snapshot`]).
//!
//! The engines ([`DiversityEngine`], [`ShardedEngine`]) are deliberately
//! single-threaded mutators: absorbing a delta burst rebuilds model state
//! in place and re-solves. A deployment, though, answers *"what runs on
//! host h?"* from many threads while churn keeps arriving. This module
//! splits the two roles:
//!
//! ```text
//!  submit(burst) ──► bounded queue ──► writer thread ──► engine core
//!   Accepted /        (depth cap,      recv + drain:     one apply_batch
//!   Coalesced /        backpressure)   queued bursts     per cycle
//!   Rejected                           merge into ONE
//!                                      coalesced batch
//!                                            │ publish after success
//!                                            ▼
//!                        SnapshotCell (Arc swap + atomic epoch)
//!                                            ▲ lock-free reads
//!                        SnapshotReader · SnapshotReader · …
//! ```
//!
//! * **Writes** go through [`ServingEngine::submit`]: a bounded
//!   [`std::sync::mpsc`] queue with an explicit delta-depth cap. The
//!   return value is the backpressure contract —
//!   [`Enqueue::Accepted`] (queue was idle), [`Enqueue::Coalesced`]
//!   (joined deltas already waiting: the writer will merge them into one
//!   `apply_batch`), or [`Enqueue::Rejected`] (cap exceeded; the caller
//!   must retry or shed load). Nothing ever blocks the submitter.
//! * **The writer thread** drains everything queued since its last cycle
//!   and absorbs it as *one* transactional batch — a write burst costs
//!   one model refresh and one warm re-solve no matter how many
//!   submissions it spanned. A rejected batch (validation failure,
//!   infeasibility) leaves the engine untouched and is recorded in
//!   [`ServingStats`] with the owning shard when the core is sharded
//!   ([`Error::ShardRejected`]); serving continues at the old revision.
//! * **Reads** never touch the writer: each successful absorb publishes
//!   an immutable [`Snapshot`] into a shared [`SnapshotCell`], and
//!   readers clone the `Arc` lock-free, detecting staleness by epoch and
//!   revision instead of waiting.
//! * **MTTC telemetry** (optional, [`MttcProbe`]) runs on a dedicated
//!   helper thread: on sampled publications the writer hands it cloned
//!   state — including the carried pre-re-solve assignment, so snapshots
//!   can report the [`crate::churn::MttcGain`] of re-optimizing — and
//!   attaches the latest *completed* estimate to the snapshot being
//!   published. Absorption latency never includes a simulation.
//!
//! Shutdown is explicit and lossless: [`ServingEngine::shutdown`] drains
//! the queue, absorbs what remains, and hands back the engine core plus a
//! [`DrainReport`] naming the last published epoch and revision.
//!
//! ```
//! use ics_diversity::serve::{Enqueue, ServingEngine};
//! use ics_diversity::DiversityEngine;
//! use netmodel::delta::NetworkDelta;
//! use netmodel::topology::{generate, RandomNetworkConfig, TopologyKind};
//! use netmodel::HostId;
//! use std::time::Duration;
//!
//! let g = generate(
//!     &RandomNetworkConfig {
//!         hosts: 8,
//!         mean_degree: 2,
//!         services: 1,
//!         products_per_service: 3,
//!         vendors_per_service: 2,
//!         topology: TopologyKind::Random,
//!     },
//!     7,
//! );
//! let engine = DiversityEngine::new(g.network, g.catalog, g.similarity);
//! let serving = ServingEngine::start(engine).expect("initial solve");
//!
//! // Readers are cheap clones; reads are lock-free against absorption.
//! let mut reader = serving.reader();
//! let before = reader.current();
//! assert_eq!(before.epoch(), 1);
//! assert!(!before.products_at(HostId(0)).is_empty());
//!
//! // Submit a structural delta; the writer absorbs and publishes.
//! let enq = serving.submit(vec![NetworkDelta::remove_host(HostId(7))]);
//! assert!(matches!(enq, Enqueue::Accepted { .. } | Enqueue::Coalesced { .. }));
//! assert!(serving.wait_for_revision(1, Duration::from_secs(30)));
//! let after = reader.current();
//! assert!(after.epoch() > before.epoch());
//! assert!(after.products_at(HostId(7)).is_empty());
//!
//! let (_core, report) = serving.shutdown();
//! assert_eq!(report.last_revision, 1);
//! ```

use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use netmodel::assignment::Assignment;
use netmodel::catalog::{Catalog, ProductSimilarity};
use netmodel::delta::NetworkDelta;
use netmodel::network::Network;
use sim::mttc::{estimate_mttc, MttcEstimate, MttcOptions};
use sim::scenario::Scenario;

use crate::engine::{DiversityEngine, ReassignmentReport};
use crate::journal::Journal;
use crate::shard::{ShardReport, ShardedEngine};
use crate::snapshot::{Snapshot, SnapshotCell, SnapshotReader};
use crate::{Error, Result};

/// Default cap on queued (not yet absorbed) deltas. Deep enough that a
/// churn burst coalesces instead of bouncing, shallow enough that a stuck
/// writer surfaces as [`Enqueue::Rejected`] rather than unbounded memory.
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// The one engine surface: either a single [`DiversityEngine`] or a
/// [`ShardedEngine`], behind one solve/absorb/journal interface. A
/// [`ServingEngine`]'s writer thread drives it, and so do the churn replay
/// ([`crate::churn::run_churn`]) and the `churn` binary.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // moved twice per serving lifetime (into and out of the writer thread); boxing would tax every absorb's accessor instead
pub enum WriterCore {
    /// A single-network incremental engine.
    Single(DiversityEngine),
    /// A zone-sharded engine with boundary coordination.
    Sharded(ShardedEngine),
}

/// What one [`WriterCore`] step did: the driven engine's own report.
#[derive(Debug, Clone)]
pub enum EngineReport {
    /// A [`DiversityEngine`] step.
    Single(ReassignmentReport),
    /// A [`ShardedEngine`] step.
    Sharded(ShardReport),
}

impl EngineReport {
    /// The network revision the step reached.
    pub fn revision(&self) -> u64 {
        match self {
            EngineReport::Single(r) => r.revision,
            EngineReport::Sharded(r) => r.revision,
        }
    }

    /// The objective after the step.
    pub fn objective(&self) -> f64 {
        match self {
            EngineReport::Single(r) => r.objective_after,
            EngineReport::Sharded(r) => r.objective,
        }
    }

    /// The objective of the carried-forward assignment (`None` on a cold
    /// solve).
    pub fn objective_before(&self) -> Option<f64> {
        match self {
            EngineReport::Single(r) => r.objective_before,
            EngineReport::Sharded(r) => r.objective_before,
        }
    }

    /// How much the step improved on carrying the old assignment forward
    /// (`None` on a cold solve).
    pub fn improvement(&self) -> Option<f64> {
        self.objective_before().map(|b| b - self.objective())
    }

    /// The carried-forward (pre-re-solve) assignment, when the step had
    /// one.
    pub fn carried(&self) -> Option<&Assignment> {
        match self {
            EngineReport::Single(r) => r.carried.as_ref(),
            EngineReport::Sharded(r) => r.carried.as_ref(),
        }
    }

    /// The carried-forward assignment, moved out of the report.
    fn into_carried(self) -> Option<Assignment> {
        match self {
            EngineReport::Single(r) => r.carried,
            EngineReport::Sharded(r) => r.carried,
        }
    }

    /// Solver variables the step's re-solves swept: the single engine's
    /// swept region, or the sum over the shards' local re-solves
    /// (coordination rounds are not counted).
    pub fn swept_vars(&self) -> usize {
        match self {
            EngineReport::Single(r) => r.swept_vars,
            EngineReport::Sharded(r) => {
                r.shard_reports.iter().flatten().map(|s| s.swept_vars).sum()
            }
        }
    }

    /// Wall-clock time of the step's re-solve: rebuild plus solve for the
    /// single engine, the whole step (parallel shard solves plus
    /// coordination) for the sharded one.
    pub fn resolve_wall(&self) -> Duration {
        match self {
            EngineReport::Single(r) => r.rebuild_wall + r.solve_wall,
            EngineReport::Sharded(r) => r.total_wall,
        }
    }
}

impl fmt::Display for EngineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineReport::Single(r) => r.fmt(f),
            EngineReport::Sharded(r) => r.fmt(f),
        }
    }
}

impl WriterCore {
    /// Solves (or re-solves) the current revision — see
    /// [`DiversityEngine::solve`] and [`ShardedEngine::solve`].
    ///
    /// # Errors
    ///
    /// Whatever the engine's solve returns.
    pub fn solve(&mut self) -> Result<EngineReport> {
        match self {
            WriterCore::Single(engine) => engine.solve().map(EngineReport::Single),
            WriterCore::Sharded(engine) => engine.solve().map(EngineReport::Sharded),
        }
    }

    /// Absorbs a delta burst as one transactional batch — see
    /// [`DiversityEngine::apply_batch`] and [`ShardedEngine::apply_batch`].
    ///
    /// # Errors
    ///
    /// Whatever the engine's `apply_batch` returns.
    pub fn apply_batch(&mut self, deltas: &[NetworkDelta]) -> Result<EngineReport> {
        match self {
            WriterCore::Single(engine) => engine.apply_batch(deltas).map(EngineReport::Single),
            WriterCore::Sharded(engine) => engine.apply_batch(deltas).map(EngineReport::Sharded),
        }
    }

    /// Attaches a write-ahead journal — see
    /// [`DiversityEngine::with_journal_cadence`].
    ///
    /// # Errors
    ///
    /// [`Error::Model`] wrapping [`netmodel::Error::Journal`] on I/O
    /// failure.
    pub fn with_journal_cadence(
        self,
        path: impl AsRef<Path>,
        snapshot_every: Option<usize>,
    ) -> Result<WriterCore> {
        Ok(match self {
            WriterCore::Single(e) => {
                WriterCore::Single(e.with_journal_cadence(path, snapshot_every)?)
            }
            WriterCore::Sharded(e) => {
                WriterCore::Sharded(e.with_journal_cadence(path, snapshot_every)?)
            }
        })
    }

    /// Appends a mark record to the attached journal, if any — see
    /// [`DiversityEngine::journal_mark`].
    ///
    /// # Errors
    ///
    /// [`Error::Model`] wrapping [`netmodel::Error::Journal`] on I/O
    /// failure.
    pub fn journal_mark(&mut self, label: &str, fields: &[(&str, f64)]) -> Result<()> {
        match self {
            WriterCore::Single(engine) => engine.journal_mark(label, fields),
            WriterCore::Sharded(engine) => engine.journal_mark(label, fields),
        }
    }

    /// The attached journal, if any — see [`DiversityEngine::journal`].
    pub fn journal(&self) -> Option<&Journal> {
        match self {
            WriterCore::Single(engine) => engine.journal(),
            WriterCore::Sharded(engine) => engine.journal(),
        }
    }

    /// Waits for the journal's in-flight periodic compaction, if any —
    /// see [`DiversityEngine::wait_for_compaction`].
    pub fn wait_for_compaction(&mut self) {
        match self {
            WriterCore::Single(engine) => engine.wait_for_compaction(),
            WriterCore::Sharded(engine) => engine.wait_for_compaction(),
        }
    }

    /// The core's (master) network at its current revision.
    pub fn network(&self) -> &Network {
        match self {
            WriterCore::Single(engine) => engine.network(),
            WriterCore::Sharded(engine) => engine.network(),
        }
    }

    /// The product catalog.
    pub fn catalog(&self) -> &Catalog {
        match self {
            WriterCore::Single(engine) => engine.catalog(),
            WriterCore::Sharded(engine) => engine.catalog(),
        }
    }

    /// The similarity matrix.
    pub fn similarity(&self) -> &ProductSimilarity {
        match self {
            WriterCore::Single(engine) => engine.similarity(),
            WriterCore::Sharded(engine) => engine.similarity(),
        }
    }

    /// The core's current revision (deltas ever applied).
    pub fn revision(&self) -> u64 {
        match self {
            WriterCore::Single(engine) => engine.revision(),
            WriterCore::Sharded(engine) => engine.revision(),
        }
    }

    /// The current assignment (`None` before the first solve).
    pub fn assignment(&self) -> Option<&Assignment> {
        match self {
            WriterCore::Single(engine) => engine.assignment(),
            WriterCore::Sharded(engine) => engine.assignment(),
        }
    }
}

impl From<DiversityEngine> for WriterCore {
    fn from(engine: DiversityEngine) -> WriterCore {
        WriterCore::Single(engine)
    }
}

impl From<ShardedEngine> for WriterCore {
    fn from(engine: ShardedEngine) -> WriterCore {
        WriterCore::Sharded(engine)
    }
}

/// What [`ServingEngine::submit`] did with a burst — the backpressure
/// contract. Every variant carries the queue depth (queued deltas) after
/// the call so callers can pace themselves before hitting the cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// The queue was idle: this burst starts the writer's next cycle.
    Accepted {
        /// Queued deltas after this submission.
        depth: usize,
    },
    /// Deltas were already waiting: the writer will drain this burst
    /// together with them into **one** `apply_batch`.
    Coalesced {
        /// Queued deltas after this submission.
        depth: usize,
    },
    /// Admitting the burst would exceed the depth cap. Nothing was
    /// queued; the caller must retry later or shed the burst.
    Rejected {
        /// Queued deltas at the time of rejection.
        depth: usize,
        /// The configured cap ([`ServingConfig::queue_cap`]).
        cap: usize,
    },
}

/// Periodic MTTC telemetry attached to published snapshots
/// ([`Snapshot::mttc`]).
///
/// Estimation is Monte-Carlo simulation — orders of magnitude slower than
/// absorbing a delta burst — so it runs on a dedicated helper thread, never
/// on the writer. On every sampled publication the writer hands the helper
/// a probe job (network + assignment clones, plus the carried pre-re-solve
/// assignment when the absorb had one) and attaches the *latest completed*
/// result to the snapshot it is about to publish. Telemetry therefore
/// trails absorption: a snapshot's [`Snapshot::mttc_epoch`] names the epoch
/// the estimate actually describes. If the helper is still busy when the
/// next sampled publication comes due, that epoch's probe is skipped
/// ([`ServingStats::probes_dropped`]) — the freshest state wins, queues
/// never build up.
#[derive(Debug, Clone)]
pub struct MttcProbe {
    /// The attack scenario to estimate against.
    pub scenario: Scenario,
    /// Simulation options (runs, seed, threads).
    pub options: MttcOptions,
    /// Sample every `every`-th publication (the initial snapshot is always
    /// sampled, synchronously — there is no earlier publication for it to
    /// lag behind; `0` is treated as `1`: every publication).
    pub every: u64,
}

/// Configuration for [`ServingEngine::start_with`].
#[derive(Debug, Clone, Default)]
pub struct ServingConfig {
    /// Cap on queued deltas (`0`: use [`DEFAULT_QUEUE_CAP`]).
    pub queue_cap: usize,
    /// Optional MTTC telemetry probe (`None`: snapshots carry no MTTC —
    /// estimation is orders of magnitude slower than absorption).
    pub mttc: Option<MttcProbe>,
    /// Start with absorption gated: submissions queue (and coalesce) but
    /// nothing is absorbed until [`ServingEngine::resume`]. For staged
    /// bring-up and deterministic burst tests.
    pub paused: bool,
}

/// A burst the writer could not absorb, with the shard attribution the
/// engines provide ([`Error::ShardRejected`]).
#[derive(Debug, Clone)]
pub struct Rejection {
    /// The shard that rejected the burst (`None`: single-engine cores,
    /// cross-shard deltas, and non-validation failures).
    pub shard: Option<usize>,
    /// Index of the failing delta within the *coalesced* batch, when the
    /// failure names one.
    pub index: Option<usize>,
    /// Size of the coalesced batch that was rejected.
    pub burst: usize,
    /// The engine error, verbatim.
    pub error: Error,
}

/// Counters describing a serving engine's lifetime, snapshot-consistent
/// under [`ServingEngine::stats`].
#[derive(Debug, Clone, Default)]
pub struct ServingStats {
    /// Successful [`ServingEngine::submit`] calls (accepted + coalesced).
    pub submissions: u64,
    /// Deltas admitted to the queue.
    pub deltas_submitted: u64,
    /// Submissions that joined already-queued deltas
    /// ([`Enqueue::Coalesced`]).
    pub coalesced_submissions: u64,
    /// Submissions refused at the cap ([`Enqueue::Rejected`]).
    pub rejected_submissions: u64,
    /// Snapshots published (including the initial solve).
    pub publications: u64,
    /// `apply_batch` calls the writer made. `batches_absorbed <
    /// submissions` is coalescing at work.
    pub batches_absorbed: u64,
    /// Deltas absorbed across all batches.
    pub deltas_absorbed: u64,
    /// Coalesced batches the engine rejected (engine state untouched).
    pub bursts_rejected: u64,
    /// MTTC probe jobs handed to the helper thread (including the initial
    /// synchronous sample).
    pub probes_scheduled: u64,
    /// Sampled publications whose probe was skipped because the helper was
    /// still simulating an earlier epoch.
    pub probes_dropped: u64,
    /// The most recent rejected burst, attributed.
    pub last_rejection: Option<Rejection>,
    /// Periodic journal compactions that failed, forwarded from
    /// [`Journal::compaction_failures`]. Each left the journal file as it
    /// was and is retried at the next commit; the bursts stay absorbed
    /// and published.
    pub compaction_failures: u64,
    /// The error of the most recent failed compaction.
    pub last_compaction_error: Option<String>,
}

/// What [`ServingEngine::shutdown`] drained and where serving stopped.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Epoch of the last published snapshot.
    pub last_epoch: u64,
    /// Network revision of the last published snapshot — everything
    /// absorbed before shutdown is visible at this revision.
    pub last_revision: u64,
    /// Final lifetime counters.
    pub stats: ServingStats,
}

enum Msg {
    Deltas(Vec<NetworkDelta>),
    Shutdown,
}

/// Pause gate for the writer thread (see [`ServingConfig::paused`]).
#[derive(Debug)]
struct Gate {
    paused: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new(paused: bool) -> Gate {
        Gate {
            paused: Mutex::new(paused),
            cv: Condvar::new(),
        }
    }

    fn set(&self, paused: bool) {
        *self.paused.lock().expect("gate lock poisoned") = paused;
        self.cv.notify_all();
    }

    fn wait_until_open(&self) {
        let mut paused = self.paused.lock().expect("gate lock poisoned");
        while *paused {
            paused = self.cv.wait(paused).expect("gate lock poisoned");
        }
    }
}

/// The serving front-end: one writer thread absorbing coalesced bursts
/// into a [`WriterCore`], many lock-free snapshot readers. See the module
/// docs for the full data flow.
#[derive(Debug)]
pub struct ServingEngine {
    tx: Sender<Msg>,
    depth: Arc<AtomicUsize>,
    queue_cap: usize,
    cell: Arc<SnapshotCell>,
    stats: Arc<Mutex<ServingStats>>,
    gate: Arc<Gate>,
    writer: Option<JoinHandle<WriterCore>>,
    /// The MTTC helper thread (see [`MttcProbe`]); exits once the writer
    /// hangs up its job channel.
    probe: Option<JoinHandle<()>>,
}

impl ServingEngine {
    /// Starts serving `core` with [`ServingConfig::default`]: runs the
    /// initial solve on the calling thread (warm, if the core was already
    /// solved), publishes epoch 1, then spawns the writer thread.
    ///
    /// # Errors
    ///
    /// Whatever the core's solve returns ([`Error::Infeasible`], …); no
    /// thread is spawned on failure and the core is dropped with the
    /// error.
    pub fn start(core: impl Into<WriterCore>) -> Result<ServingEngine> {
        ServingEngine::start_with(core, ServingConfig::default())
    }

    /// [`ServingEngine::start`] with explicit queue depth, MTTC probe and
    /// pause state.
    ///
    /// # Errors
    ///
    /// See [`ServingEngine::start`].
    pub fn start_with(core: impl Into<WriterCore>, config: ServingConfig) -> Result<ServingEngine> {
        let mut core = core.into();
        let solve_start = Instant::now();
        let initial = core.solve()?;
        let mttc = initial_mttc(&core, config.mttc.as_ref());
        let snapshot = Snapshot {
            epoch: 1,
            revision: initial.revision(),
            topology_revision: core.network().topology_revision(),
            assignment: core
                .assignment()
                .cloned()
                .expect("a successful solve leaves an assignment"),
            objective: initial.objective(),
            deltas_in_batch: 0,
            deltas_absorbed: 0,
            absorb_wall: solve_start.elapsed(),
            mttc_epoch: mttc.is_some().then_some(1),
            mttc,
            mttc_carried: None,
            published: Instant::now(),
        };
        let cell = Arc::new(SnapshotCell::new(snapshot));
        let depth = Arc::new(AtomicUsize::new(0));
        let stats = Arc::new(Mutex::new(ServingStats {
            publications: 1,
            probes_scheduled: u64::from(config.mttc.is_some()),
            ..ServingStats::default()
        }));
        let gate = Arc::new(Gate::new(config.paused));
        let probe_slot = Arc::new(Mutex::new(None));
        let (probe_tx, probe) = match config.mttc.clone() {
            Some(probe) => {
                let (ptx, prx) = mpsc::sync_channel(1);
                let slot = Arc::clone(&probe_slot);
                let handle = thread::Builder::new()
                    .name("serving-mttc".into())
                    .spawn(move || probe_loop(&probe, &prx, &slot))
                    .expect("spawning the serving mttc thread");
                (Some(ptx), Some(handle))
            }
            None => (None, None),
        };
        let (tx, rx) = mpsc::channel();
        let ctx = WriterCtx {
            cell: Arc::clone(&cell),
            depth: Arc::clone(&depth),
            stats: Arc::clone(&stats),
            gate: Arc::clone(&gate),
            mttc: config.mttc,
            probe_tx,
            probe_slot,
        };
        let writer = thread::Builder::new()
            .name("serving-writer".into())
            .spawn(move || writer_loop(core, &rx, &ctx))
            .expect("spawning the serving writer thread");
        Ok(ServingEngine {
            tx,
            depth,
            queue_cap: if config.queue_cap == 0 {
                DEFAULT_QUEUE_CAP
            } else {
                config.queue_cap
            },
            cell,
            stats,
            gate,
            writer: Some(writer),
            probe,
        })
    }

    /// A new read handle over the published snapshots. Readers are `Send`
    /// and independent: hand one to each query thread.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::new(Arc::clone(&self.cell))
    }

    /// The latest published snapshot (an uncached load; hot paths should
    /// hold a [`SnapshotReader`]).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// Epoch of the latest published snapshot. Wait-free.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Deltas currently queued (admitted, not yet drained by the writer).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Acquire)
    }

    /// The configured queue depth cap.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Submits a burst of deltas for absorption. Never blocks: the burst
    /// is either admitted whole (and will be absorbed in one
    /// transactional batch, possibly coalesced with other queued
    /// submissions) or rejected whole at the depth cap.
    ///
    /// The `Accepted`/`Coalesced` distinction is best-effort — it reflects
    /// whether deltas were queued at the instant of admission — but
    /// `Coalesced` guarantees the queue was non-empty, so this burst
    /// *will* share an `apply_batch` with at least one earlier submission
    /// unless the writer drains between the two admissions.
    ///
    /// An empty burst is a no-op reported as `Accepted`.
    pub fn submit(&self, deltas: Vec<NetworkDelta>) -> Enqueue {
        let n = deltas.len();
        if n == 0 {
            return Enqueue::Accepted {
                depth: self.queue_depth(),
            };
        }
        // Reserve depth first so concurrent submitters cannot overshoot
        // the cap between check and enqueue.
        let mut depth = self.depth.load(Ordering::Acquire);
        loop {
            if depth + n > self.queue_cap {
                self.stats_mut(|s| s.rejected_submissions += 1);
                return Enqueue::Rejected {
                    depth,
                    cap: self.queue_cap,
                };
            }
            match self
                .depth
                .compare_exchange(depth, depth + n, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => break,
                Err(current) => depth = current,
            }
        }
        self.tx
            .send(Msg::Deltas(deltas))
            .expect("writer thread alive while the serving engine exists");
        let coalesced = depth > 0;
        self.stats_mut(|s| {
            s.submissions += 1;
            s.deltas_submitted += n as u64;
            if coalesced {
                s.coalesced_submissions += 1;
            }
        });
        if coalesced {
            Enqueue::Coalesced { depth: depth + n }
        } else {
            Enqueue::Accepted { depth: n }
        }
    }

    /// Gates absorption: queued and newly submitted bursts accumulate
    /// (and will coalesce) until [`ServingEngine::resume`]. Reads are
    /// unaffected. Best-effort for a cycle already past the gate.
    pub fn pause(&self) {
        self.gate.set(true);
    }

    /// Reopens the gate after [`ServingEngine::pause`] (or a paused
    /// start). Everything queued while paused is absorbed as one batch.
    pub fn resume(&self) {
        self.gate.set(false);
    }

    /// A consistent copy of the lifetime counters.
    pub fn stats(&self) -> ServingStats {
        self.stats.lock().expect("stats lock poisoned").clone()
    }

    /// Blocks (polling) until a snapshot with `epoch >= epoch` is
    /// published or `timeout` elapses; `true` on success. A test and
    /// bring-up convenience — the serving read path itself never waits.
    pub fn wait_for_epoch(&self, epoch: u64, timeout: Duration) -> bool {
        self.wait_until(timeout, |cell| cell.epoch() >= epoch)
    }

    /// Blocks (polling) until a snapshot with `revision >= revision` is
    /// published or `timeout` elapses; `true` on success.
    pub fn wait_for_revision(&self, revision: u64, timeout: Duration) -> bool {
        self.wait_until(timeout, |cell| cell.load().revision() >= revision)
    }

    /// Stops the writer: drains the queue (everything already admitted is
    /// absorbed), joins the thread, and returns the engine core together
    /// with a [`DrainReport`]. A paused engine is resumed so the drain
    /// can complete.
    pub fn shutdown(mut self) -> (WriterCore, DrainReport) {
        let _ = self.tx.send(Msg::Shutdown);
        self.gate.set(false);
        let core = self
            .writer
            .take()
            .expect("shutdown consumes the engine; the writer is present")
            .join()
            .expect("serving writer thread panicked");
        // Joining the writer dropped its probe sender; the helper's recv
        // fails and it exits (an in-flight estimate finishes unobserved).
        if let Some(probe) = self.probe.take() {
            let _ = probe.join();
        }
        let last = self.cell.load();
        let report = DrainReport {
            last_epoch: last.epoch(),
            last_revision: last.revision(),
            stats: self.stats(),
        };
        (core, report)
    }

    fn wait_until(&self, timeout: Duration, done: impl Fn(&SnapshotCell) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if done(&self.cell) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_micros(200));
        }
    }

    fn stats_mut(&self, update: impl FnOnce(&mut ServingStats)) {
        update(&mut self.stats.lock().expect("stats lock poisoned"));
    }
}

impl Drop for ServingEngine {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            let _ = self.tx.send(Msg::Shutdown);
            self.gate.set(false);
            let _ = writer.join();
        }
        if let Some(probe) = self.probe.take() {
            let _ = probe.join();
        }
    }
}

struct WriterCtx {
    cell: Arc<SnapshotCell>,
    depth: Arc<AtomicUsize>,
    stats: Arc<Mutex<ServingStats>>,
    gate: Arc<Gate>,
    mttc: Option<MttcProbe>,
    /// Capacity-1 channel to the MTTC helper thread; `try_send` keeps the
    /// writer non-blocking (a busy helper drops the job, counted in
    /// [`ServingStats::probes_dropped`]).
    probe_tx: Option<mpsc::SyncSender<ProbeJob>>,
    /// Latest completed probe result, parked by the helper for the writer
    /// to attach to its next publication.
    probe_slot: Arc<Mutex<Option<ProbeResult>>>,
}

/// Everything one MTTC estimation needs, cloned out of the core so the
/// simulation runs against a stable copy while the writer keeps absorbing.
struct ProbeJob {
    epoch: u64,
    network: Network,
    similarity: ProductSimilarity,
    assignment: Assignment,
    carried: Option<Assignment>,
}

/// A completed probe: estimates for the re-optimized and (when the probed
/// absorb had one) carried assignment at `epoch`.
struct ProbeResult {
    epoch: u64,
    mttc: MttcEstimate,
    mttc_carried: Option<MttcEstimate>,
}

/// The MTTC helper thread: simulate each job as it arrives, park the
/// result for the writer, exit when the writer hangs up.
fn probe_loop(probe: &MttcProbe, rx: &Receiver<ProbeJob>, slot: &Mutex<Option<ProbeResult>>) {
    while let Ok(job) = rx.recv() {
        let mttc = estimate_mttc(
            &job.network,
            &job.assignment,
            &job.similarity,
            &probe.scenario,
            &probe.options,
        );
        let mttc_carried = job.carried.as_ref().map(|carried| {
            estimate_mttc(
                &job.network,
                carried,
                &job.similarity,
                &probe.scenario,
                &probe.options,
            )
        });
        *slot.lock().expect("probe slot poisoned") = Some(ProbeResult {
            epoch: job.epoch,
            mttc,
            mttc_carried,
        });
    }
}

/// Drains every message currently queued into `burst`; `true` if a
/// shutdown request was encountered (after which the burst is still
/// absorbed — shutdown is a drain, not an abort).
fn drain_queued(rx: &Receiver<Msg>, burst: &mut Vec<NetworkDelta>) -> bool {
    loop {
        match rx.try_recv() {
            Ok(Msg::Deltas(deltas)) => burst.extend(deltas),
            Ok(Msg::Shutdown) => return true,
            Err(TryRecvError::Empty) => return false,
            Err(TryRecvError::Disconnected) => return true,
        }
    }
}

fn writer_loop(mut core: WriterCore, rx: &Receiver<Msg>, ctx: &WriterCtx) -> WriterCore {
    let mut epoch = ctx.cell.epoch();
    let mut absorbed_total: u64 = 0;
    let mut failures_seen = 0;
    while let Ok(Msg::Deltas(mut burst)) = rx.recv() {
        // Coalesce: everything queued behind the first message joins the
        // same batch. The gate sits between the two drains so bursts
        // submitted while paused are also merged before absorption.
        let mut shutdown = drain_queued(rx, &mut burst);
        if !shutdown {
            ctx.gate.wait_until_open();
            shutdown = drain_queued(rx, &mut burst);
        }
        ctx.depth.fetch_sub(burst.len(), Ordering::AcqRel);
        let absorb_start = Instant::now();
        match core.apply_batch(&burst) {
            Ok(report) => {
                epoch += 1;
                let (revision, objective) = (report.revision(), report.objective());
                absorbed_total += burst.len() as u64;
                // Chunk-pointer copies: the snapshot (and a probe job)
                // share the engine's rows instead of copying the table.
                let assignment = core
                    .assignment()
                    .cloned()
                    .expect("a successful absorb leaves an assignment");
                // Hand this epoch to the MTTC helper (non-blocking; a
                // busy helper means the job is dropped) and attach the
                // freshest completed estimate to the snapshot below.
                let mut scheduled = false;
                let mut dropped = false;
                if let (Some(probe), Some(ptx)) = (ctx.mttc.as_ref(), ctx.probe_tx.as_ref()) {
                    if epoch.is_multiple_of(probe.every.max(1)) {
                        let job = ProbeJob {
                            epoch,
                            network: core.network().clone(),
                            similarity: core.similarity().clone(),
                            assignment: assignment.clone(),
                            carried: report.into_carried(),
                        };
                        match ptx.try_send(job) {
                            Ok(()) => scheduled = true,
                            Err(_) => dropped = true,
                        }
                    }
                }
                let (mttc, mttc_carried, mttc_epoch) =
                    match ctx.probe_slot.lock().expect("probe slot poisoned").take() {
                        Some(r) => (Some(r.mttc), r.mttc_carried, Some(r.epoch)),
                        None => (None, None, None),
                    };
                ctx.cell.publish(Snapshot {
                    epoch,
                    revision,
                    topology_revision: core.network().topology_revision(),
                    assignment,
                    objective,
                    deltas_in_batch: burst.len(),
                    deltas_absorbed: absorbed_total,
                    absorb_wall: absorb_start.elapsed(),
                    mttc,
                    mttc_carried,
                    mttc_epoch,
                    published: Instant::now(),
                });
                let mut stats = ctx.stats.lock().expect("stats lock poisoned");
                stats.publications += 1;
                stats.batches_absorbed += 1;
                stats.deltas_absorbed += burst.len() as u64;
                stats.probes_scheduled += u64::from(scheduled);
                stats.probes_dropped += u64::from(dropped);
            }
            Err(error) => {
                let (shard, index) = attribute(&error);
                let mut stats = ctx.stats.lock().expect("stats lock poisoned");
                stats.bursts_rejected += 1;
                stats.last_rejection = Some(Rejection {
                    shard,
                    index,
                    burst: burst.len(),
                    error,
                });
            }
        }
        forward_compaction_failures(&core, &ctx.stats, &mut failures_seen);
        if shutdown {
            break;
        }
    }
    core.wait_for_compaction();
    forward_compaction_failures(&core, &ctx.stats, &mut failures_seen);
    core
}

/// Copies the journal's compaction failures into the serving stats when
/// it counted one since `seen`.
fn forward_compaction_failures(core: &WriterCore, stats: &Mutex<ServingStats>, seen: &mut u64) {
    let Some(journal) = core.journal() else {
        return;
    };
    if journal.compaction_failures() != *seen {
        *seen = journal.compaction_failures();
        let mut stats = stats.lock().expect("stats lock poisoned");
        stats.compaction_failures = *seen;
        stats.last_compaction_error = journal.last_compaction_error().map(str::to_owned);
    }
}

/// Shard/index attribution of an absorb failure, for
/// [`Rejection`]. Sharded cores surface [`Error::ShardRejected`]; single
/// cores surface [`netmodel::Error::BatchRejected`] with no shard.
fn attribute(error: &Error) -> (Option<usize>, Option<usize>) {
    match error {
        Error::ShardRejected { shard, index, .. } => (*shard, Some(*index)),
        Error::Model(netmodel::Error::BatchRejected { index, .. }) => (None, Some(*index)),
        _ => (None, None),
    }
}

/// The initial snapshot's MTTC sample. Epoch 1 is always sampled and is
/// computed synchronously on the starting thread: there is no earlier
/// publication for it to lag behind, and callers get a fully-populated
/// first snapshot to baseline against.
fn initial_mttc(core: &WriterCore, probe: Option<&MttcProbe>) -> Option<MttcEstimate> {
    let probe = probe?;
    let assignment = core.assignment()?;
    Some(estimate_mttc(
        core.network(),
        assignment,
        core.similarity(),
        &probe.scenario,
        &probe.options,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::topology::{generate, GeneratedNetwork, RandomNetworkConfig, TopologyKind};
    use netmodel::{HostId, ProductId, ServiceId};

    fn fixture(hosts: usize, seed: u64) -> GeneratedNetwork {
        generate(
            &RandomNetworkConfig {
                hosts,
                mean_degree: 2,
                services: 1,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            seed,
        )
    }

    fn single(hosts: usize, seed: u64) -> DiversityEngine {
        let g = fixture(hosts, seed);
        DiversityEngine::new(g.network, g.catalog, g.similarity)
    }

    const LONG: Duration = Duration::from_secs(60);

    #[test]
    fn paused_submissions_coalesce_into_one_batch() {
        let serving = ServingEngine::start_with(
            single(10, 3),
            ServingConfig {
                paused: true,
                ..ServingConfig::default()
            },
        )
        .expect("initial solve");
        assert_eq!(serving.epoch(), 1);
        let first = serving.submit(vec![NetworkDelta::remove_host(HostId(9))]);
        assert!(matches!(first, Enqueue::Accepted { depth: 1 }), "{first:?}");
        for host in [8u32, 7] {
            let enq = serving.submit(vec![NetworkDelta::remove_host(HostId(host))]);
            assert!(matches!(enq, Enqueue::Coalesced { .. }), "{enq:?}");
        }
        serving.resume();
        assert!(serving.wait_for_revision(3, LONG));
        let snapshot = serving.snapshot();
        assert_eq!(snapshot.epoch(), 2, "one publication for the whole burst");
        assert_eq!(snapshot.deltas_in_batch(), 3, "burst merged into one batch");
        let (_core, report) = serving.shutdown();
        assert_eq!(report.last_revision, 3);
        assert_eq!(report.stats.submissions, 3);
        assert_eq!(report.stats.coalesced_submissions, 2);
        assert_eq!(
            report.stats.batches_absorbed, 1,
            "three submissions, ONE apply_batch"
        );
        assert_eq!(report.stats.deltas_absorbed, 3);
    }

    #[test]
    fn depth_cap_rejects_whole_bursts() {
        let serving = ServingEngine::start_with(
            single(10, 5),
            ServingConfig {
                queue_cap: 2,
                paused: true,
                ..ServingConfig::default()
            },
        )
        .expect("initial solve");
        assert_eq!(serving.queue_cap(), 2);
        let ok = serving.submit(vec![
            NetworkDelta::remove_host(HostId(9)),
            NetworkDelta::remove_host(HostId(8)),
        ]);
        assert!(matches!(ok, Enqueue::Accepted { depth: 2 }), "{ok:?}");
        let rejected = serving.submit(vec![NetworkDelta::remove_host(HostId(7))]);
        assert_eq!(rejected, Enqueue::Rejected { depth: 2, cap: 2 });
        // Shutdown drains the admitted burst even though the engine never
        // resumed explicitly.
        let (core, report) = serving.shutdown();
        assert_eq!(report.last_revision, 2, "admitted deltas were absorbed");
        assert_eq!(core.revision(), 2);
        assert_eq!(report.stats.rejected_submissions, 1);
        assert_eq!(report.stats.deltas_absorbed, 2);
    }

    #[test]
    fn rejected_bursts_leave_serving_at_the_old_revision() {
        let serving = ServingEngine::start(single(8, 7)).expect("initial solve");
        let bad = NetworkDelta::fix_slot(HostId(0), ServiceId(0), ProductId(999));
        serving.submit(vec![NetworkDelta::remove_host(HostId(7)), bad]);
        let deadline = Instant::now() + LONG;
        while serving.stats().bursts_rejected == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_micros(200));
        }
        let stats = serving.stats();
        assert_eq!(stats.bursts_rejected, 1);
        let rejection = stats.last_rejection.expect("rejection recorded");
        assert_eq!(rejection.shard, None, "single core: no shard to blame");
        assert_eq!(rejection.index, Some(1), "the bad delta, not the burst");
        assert_eq!(rejection.burst, 2);
        // The failed burst is transactional: nothing was published.
        let snapshot = serving.snapshot();
        assert_eq!((snapshot.epoch(), snapshot.revision()), (1, 0));
        // Serving continues: a valid burst still absorbs.
        serving.submit(vec![NetworkDelta::remove_host(HostId(7))]);
        assert!(serving.wait_for_revision(1, LONG));
        let (_core, report) = serving.shutdown();
        assert_eq!(report.last_revision, 1);
        assert_eq!(report.stats.bursts_rejected, 1);
    }

    #[test]
    fn a_failed_compaction_still_publishes_its_burst_and_is_counted() {
        let dir = std::env::temp_dir().join(format!("ics-serve-compaction-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("journal directory");
        let engine = single(8, 7)
            .with_journal_cadence(dir.join("journal.log"), Some(1))
            .expect("journal attaches");
        let serving = ServingEngine::start(engine).expect("initial solve");
        // The burst's record still lands (the append handle stays open),
        // but its compaction cannot create a temp file.
        std::fs::remove_dir_all(&dir).expect("directory removed");
        serving.submit(vec![NetworkDelta::remove_host(HostId(7))]);
        assert!(serving.wait_for_revision(1, LONG), "the burst is published");
        let (core, report) = serving.shutdown();
        assert_eq!(report.stats.bursts_rejected, 0);
        assert_eq!(report.stats.batches_absorbed, 1);
        assert_eq!(report.stats.compaction_failures, 1);
        let error = report.stats.last_compaction_error.expect("error kept");
        assert!(error.contains("compact-tmp"), "{error}");
        assert_eq!(core.journal().map(Journal::compaction_failures), Some(1));
    }

    #[test]
    fn sharded_core_attributes_rejections_to_their_shard() {
        use netmodel::topology::{generate_zoned, ZonedNetworkConfig};
        let g = generate_zoned(
            &ZonedNetworkConfig {
                zones: 2,
                hosts_per_zone: 6,
                gateway_links: 1,
                mean_degree: 2,
                services: 1,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            13,
        );
        let engine = ShardedEngine::new(g.network, g.catalog, g.similarity);
        let serving = ServingEngine::start(engine).expect("initial solve");
        let bad = NetworkDelta::fix_slot(HostId(2), ServiceId(0), ProductId(999));
        serving.submit(vec![bad]);
        let deadline = Instant::now() + LONG;
        while serving.stats().bursts_rejected == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_micros(200));
        }
        let rejection = serving.stats().last_rejection.expect("rejection recorded");
        assert_eq!(rejection.shard, Some(0), "host 2 lives in zone 0's shard");
        assert!(matches!(
            rejection.error,
            Error::ShardRejected { shard: Some(0), .. }
        ));
        let (_core, report) = serving.shutdown();
        assert_eq!(report.last_revision, 0);
    }

    #[test]
    fn readers_see_monotone_epochs_and_revisions() {
        let serving = ServingEngine::start(single(12, 9)).expect("initial solve");
        let mut reader = serving.reader();
        let mut last = (0u64, 0u64);
        for host in (6..12u32).rev() {
            serving.submit(vec![NetworkDelta::remove_host(HostId(host))]);
        }
        assert!(serving.wait_for_revision(6, LONG));
        for _ in 0..64 {
            let snapshot = reader.current();
            let now = (snapshot.epoch(), snapshot.revision());
            assert!(now >= last, "snapshots went backwards: {last:?} -> {now:?}");
            last = now;
        }
        assert!(last.1 >= 6);
        let (_core, report) = serving.shutdown();
        assert!(report.stats.publications >= 2);
        assert!(report.stats.batches_absorbed <= 6);
    }

    #[test]
    fn mttc_probe_attaches_telemetry_to_later_snapshots() {
        let scenario = Scenario::new(HostId(0), HostId(3));
        let serving = ServingEngine::start_with(
            single(10, 21),
            ServingConfig {
                mttc: Some(MttcProbe {
                    scenario,
                    options: MttcOptions {
                        runs: 16,
                        ..MttcOptions::default()
                    },
                    every: 1,
                }),
                ..ServingConfig::default()
            },
        )
        .expect("initial solve");
        // Epoch 1 is sampled synchronously; no carried assignment exists
        // on a cold solve, so there is no gain to classify yet.
        let initial = serving.snapshot();
        let mttc = initial.mttc().expect("initial snapshot is sampled");
        assert_eq!(mttc.runs(), 16);
        assert_eq!(initial.mttc_epoch(), Some(1));
        assert!(initial.mttc_carried().is_none());
        assert!(initial.mttc_gain().is_none());
        // Estimation is asynchronous: an absorbed epoch's telemetry rides
        // a *later* snapshot. Keep absorbing single deltas until a probe
        // of some post-initial epoch has been attached.
        let deadline = Instant::now() + LONG;
        let mut revision = 0;
        let probed = loop {
            let snapshot = serving.snapshot();
            if snapshot.mttc_epoch().is_some_and(|e| e > 1) {
                break snapshot;
            }
            assert!(Instant::now() < deadline, "no async probe surfaced");
            revision += 1;
            serving.submit(vec![NetworkDelta::remove_host(HostId(
                10 - revision as u32,
            ))]);
            assert!(serving.wait_for_revision(revision, LONG));
            thread::sleep(Duration::from_millis(1));
        };
        let probed_epoch = probed.mttc_epoch().expect("probed snapshot");
        assert!(
            probed_epoch < probed.epoch() || probed.epoch() > 1,
            "telemetry describes an absorbed epoch"
        );
        // Warm absorbs carry the pre-re-solve assignment, so the probe
        // reports both sides and the snapshot can classify the gain.
        assert_eq!(probed.mttc().expect("reopt estimate").runs(), 16);
        assert!(probed.mttc_carried().is_some(), "warm steps carry");
        assert!(probed.mttc_gain().is_some());
        let (_core, report) = serving.shutdown();
        assert!(report.stats.probes_scheduled >= 2, "initial + async probes");
    }
}
