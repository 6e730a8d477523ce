//! Epoch-versioned, immutable engine snapshots — the read side of the
//! serving split ([`crate::serve`]).
//!
//! A [`Snapshot`] is everything a query needs from the engine at one
//! committed revision: the assignment (per-host product slots), the
//! objective, optional MTTC telemetry, and the revision counters that
//! let a reader *detect* staleness instead of blocking on the writer.
//! Snapshots are immutable and shared by `Arc`: publishing a new one never
//! mutates, copies or invalidates the one a reader is holding.
//!
//! # The cell: swap under readers, never block them on absorption
//!
//! [`SnapshotCell`] is the single shared slot the writer publishes into.
//! Its contract is the serving layer's acceptance bar: **a read never
//! waits for delta absorption.** The writer absorbs a burst entirely on
//! its own state and only then swaps the `Arc` pointer, holding the slot's
//! write lock for the duration of a pointer swap — nanoseconds, and never
//! while solving or while freeing the snapshot it replaced. A wait-free
//! `AtomicU64` epoch published alongside lets [`SnapshotReader`] skip
//! even the brief read lock in the steady state: while the epoch is
//! unchanged, `current()` is one Acquire load and a compare, and it lends
//! the reader's cached `Arc` instead of cloning it, so a read writes no
//! shared memory. It pays one uncontended read-lock acquisition and one
//! `Arc` clone exactly when a fresh snapshot exists to fetch.
//!
//! Epochs are *publication* counters (1, 2, 3, … from the first solve);
//! revisions are the underlying network's delta counters. Both are
//! monotone, so a reader can order any two snapshots it ever observed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use netmodel::assignment::Assignment;
use netmodel::{HostId, ProductId};
use sim::mttc::MttcEstimate;

use crate::churn::{classify_gain, MttcGain};

/// An immutable view of the engine at one committed revision.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) epoch: u64,
    pub(crate) revision: u64,
    pub(crate) topology_revision: u64,
    pub(crate) assignment: Assignment,
    pub(crate) objective: f64,
    pub(crate) deltas_in_batch: usize,
    pub(crate) deltas_absorbed: u64,
    pub(crate) absorb_wall: Duration,
    pub(crate) mttc: Option<MttcEstimate>,
    pub(crate) mttc_carried: Option<MttcEstimate>,
    pub(crate) mttc_epoch: Option<u64>,
    pub(crate) published: Instant,
}

impl Snapshot {
    /// The publication counter: 1 for the initial solve, +1 per publish.
    /// Monotone across everything a reader will ever observe from one
    /// serving engine.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The network revision (deltas ever applied) this snapshot reflects.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The network's structural revision
    /// ([`netmodel::network::Network::topology_revision`]) at this
    /// snapshot — lets a reader tell graph changes from slot-only churn.
    pub fn topology_revision(&self) -> u64 {
        self.topology_revision
    }

    /// The full assignment at this revision.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The per-slot products at `host` (empty for removed or out-of-range
    /// hosts) — the common point query, answered without touching the
    /// writer.
    pub fn products_at(&self, host: HostId) -> &[ProductId] {
        self.assignment.products_at(host)
    }

    /// The global objective of [`Snapshot::assignment`].
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Number of deltas the absorb that published this snapshot applied in
    /// its one `apply_batch` call (0 for the initial solve). Under burst
    /// coalescing this is the *merged* burst size — the queue's proof that
    /// queued submissions were absorbed together.
    pub fn deltas_in_batch(&self) -> usize {
        self.deltas_in_batch
    }

    /// Total deltas absorbed by the serving engine up to and including
    /// this snapshot.
    pub fn deltas_absorbed(&self) -> u64 {
        self.deltas_absorbed
    }

    /// Wall-clock time of the absorb (or initial solve) that produced this
    /// snapshot.
    pub fn absorb_wall(&self) -> Duration {
        self.absorb_wall
    }

    /// MTTC telemetry of the served (re-optimized) assignment, when the
    /// serving engine was configured with an [`crate::serve::MttcProbe`]
    /// and a probe result was ready at this publication. Probes run on a
    /// helper thread so absorption never waits on simulation; the estimate
    /// therefore describes the state at [`Snapshot::mttc_epoch`], which
    /// may trail this snapshot's own epoch.
    pub fn mttc(&self) -> Option<&MttcEstimate> {
        self.mttc.as_ref()
    }

    /// MTTC telemetry of the *carried* assignment at the probed epoch —
    /// what the deployment would have kept running had it not
    /// re-optimized. `None` when the probed absorb had nothing to carry
    /// (the initial solve) or no probe result was attached.
    pub fn mttc_carried(&self) -> Option<&MttcEstimate> {
        self.mttc_carried.as_ref()
    }

    /// The epoch whose post-absorb state the attached MTTC telemetry
    /// describes (`None` when no telemetry is attached). Always `<=`
    /// [`Snapshot::epoch`]; the lag is the price of keeping the
    /// simulation off the writer thread.
    pub fn mttc_epoch(&self) -> Option<u64> {
        self.mttc_epoch
    }

    /// Censoring-aware MTTC effect of re-optimizing versus carrying the
    /// old assignment at the probed epoch (see [`MttcGain`]). `None`
    /// unless both the carried and re-optimized estimates are attached.
    pub fn mttc_gain(&self) -> Option<MttcGain> {
        Some(classify_gain(
            self.mttc_carried.as_ref()?,
            self.mttc.as_ref()?,
        ))
    }

    /// How long ago this snapshot was published.
    pub fn age(&self) -> Duration {
        self.published.elapsed()
    }
}

/// The one shared slot the writer publishes [`Snapshot`]s into (module
/// docs: the write lock is only ever held for the pointer swap).
#[derive(Debug)]
pub struct SnapshotCell {
    epoch: AtomicU64,
    slot: RwLock<Arc<Snapshot>>,
}

impl SnapshotCell {
    pub(crate) fn new(initial: Snapshot) -> SnapshotCell {
        let epoch = initial.epoch;
        SnapshotCell {
            epoch: AtomicU64::new(epoch),
            slot: RwLock::new(Arc::new(initial)),
        }
    }

    /// The epoch of the latest published snapshot. Wait-free.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the latest published snapshot handle. Takes the slot's read
    /// lock for the duration of an `Arc` clone, an atomic increment of a
    /// count every reader shares; on hot read paths prefer a
    /// [`SnapshotReader`], which pays both only when the epoch moves.
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.slot.read().expect("snapshot lock poisoned"))
    }

    /// Publishes `snapshot`, making it the value every subsequent
    /// [`SnapshotCell::load`] returns. Called only by the writer; the
    /// write lock is held for the pointer swap alone — the replaced
    /// snapshot is dropped (and, when no reader still holds it, freed)
    /// after the lock is released.
    pub(crate) fn publish(&self, snapshot: Snapshot) {
        let epoch = snapshot.epoch;
        // The guard is a temporary of this statement: the lock is released
        // before `replaced` is dropped below.
        let replaced = std::mem::replace(
            &mut *self.slot.write().expect("snapshot lock poisoned"),
            Arc::new(snapshot),
        );
        self.epoch.store(epoch, Ordering::Release);
        drop(replaced);
    }
}

/// A per-thread read handle: caches the last loaded snapshot and re-loads
/// only when the cell's epoch says a newer one exists, so the steady-state
/// read is one wait-free atomic load that lends the cached handle.
///
/// To keep a snapshot across later reads, clone the handle
/// (`Arc::clone(reader.current())`): the reader drops its own handle on
/// the old snapshot at the refresh that replaces it.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    cell: Arc<SnapshotCell>,
    cached: Arc<Snapshot>,
}

impl SnapshotReader {
    pub(crate) fn new(cell: Arc<SnapshotCell>) -> SnapshotReader {
        let cached = cell.load();
        SnapshotReader { cell, cached }
    }

    /// The latest snapshot, refreshing the local cache if a newer epoch
    /// was published. Never blocks on delta absorption (module docs).
    ///
    /// Returns a borrow of the reader's own handle, so the steady-state
    /// read writes no shared memory. The borrow cannot outlive the next
    /// `current()`; clone it to keep the snapshot longer (type docs).
    pub fn current(&mut self) -> &Arc<Snapshot> {
        if self.cell.epoch() != self.cached.epoch {
            self.cached = self.cell.load();
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64, revision: u64) -> Snapshot {
        Snapshot {
            epoch,
            revision,
            topology_revision: 0,
            assignment: Assignment::from_slots(vec![vec![ProductId(0)]]),
            objective: 0.0,
            deltas_in_batch: 0,
            deltas_absorbed: 0,
            absorb_wall: Duration::ZERO,
            mttc: None,
            mttc_carried: None,
            mttc_epoch: None,
            published: Instant::now(),
        }
    }

    #[test]
    fn reader_caches_until_a_new_epoch() {
        let cell = Arc::new(SnapshotCell::new(snap(1, 0)));
        let mut reader = SnapshotReader::new(Arc::clone(&cell));
        let first = Arc::clone(reader.current());
        assert_eq!(first.epoch(), 1);
        assert!(
            Arc::ptr_eq(reader.current(), &first),
            "an unchanged epoch reuses the cached handle"
        );
        cell.publish(snap(2, 3));
        let fresh = reader.current();
        assert_eq!((fresh.epoch(), fresh.revision()), (2, 3));
        assert!(Arc::ptr_eq(fresh, &cell.load()));
    }

    #[test]
    fn a_read_lends_the_readers_handle() {
        let cell = Arc::new(SnapshotCell::new(snap(1, 0)));
        let mut reader = SnapshotReader::new(Arc::clone(&cell));
        let held = reader.current();
        // The cell's handle and the reader's: the read took no third one.
        assert_eq!(Arc::strong_count(held), 2);
    }

    #[test]
    fn a_refresh_releases_the_old_snapshot() {
        let cell = Arc::new(SnapshotCell::new(snap(1, 0)));
        let mut reader = SnapshotReader::new(Arc::clone(&cell));
        let old = Arc::clone(reader.current());
        cell.publish(snap(2, 4));
        assert_eq!(Arc::strong_count(&old), 2, "the reader still holds it");
        assert_eq!(reader.current().epoch(), 2);
        assert_eq!(Arc::strong_count(&old), 1, "only the test's clone is left");
    }

    #[test]
    fn old_snapshots_survive_publication() {
        let cell = Arc::new(SnapshotCell::new(snap(1, 0)));
        let held = cell.load();
        cell.publish(snap(2, 5));
        assert_eq!(held.epoch(), 1, "a held Arc is immutable");
        assert_eq!(cell.load().epoch(), 2);
    }
}
