//! Durable engines: the write-ahead delta journal and crash recovery.
//!
//! [`netmodel::journal`] owns the on-disk record codec (checksummed,
//! line-delimited JSON records); this module owns the *engine side* of
//! persistence:
//!
//! * [`Journal`] — the append-only writer an engine attaches via
//!   [`DiversityEngine::with_journal`] / [`ShardedEngine::with_journal`].
//!   Attaching writes the preamble (catalog, similarity, constraints) and a
//!   genesis snapshot; every committed `apply_batch` then appends one batch
//!   record *post-commit* (on the serving writer thread, off the read
//!   path), and every successful `solve` appends a snapshot so the
//!   post-solve assignment is recoverable. A batch record carries only the
//!   rows that differ from the assignment of the last record that landed,
//!   which the journal keeps as a clone sharing chunks with the engine's
//!   table, so finding them skips every chunk the batch left alone. Both
//!   engines drive the same hook — `Journal::commit_batch` and
//!   `Journal::commit_snapshot`, which borrow the committed network and
//!   assignment — so the journal sees a sharded deployment exactly as it
//!   sees a single engine.
//! * **Snapshot cadence and compaction** — every
//!   [`DEFAULT_SNAPSHOT_EVERY`] batches (configurable) the journal
//!   *compacts*: the file is atomically rewritten as preamble + a snapshot
//!   of the committed state + the records appended since that snapshot
//!   was taken, dropping the replayed prefix so the log stays bounded
//!   under indefinite churn. A cadence of `None` disables periodic
//!   snapshots and compaction — the full history is kept, which is what
//!   the churn harness's record mode wants (a replayable artifact).
//! * **Compaction off the writer** — encoding, writing and syncing a
//!   snapshot costs O(network), ~18 ms at 10k hosts, so the periodic
//!   compaction runs on a helper thread, in the manner of checkpointing a
//!   memory-resident database while transactions continue (Salem &
//!   Garcia-Molina, ICDE 1989). At the due batch the writer hands it
//!   chunk-sharing clones of the committed network and of the assignment
//!   (a pointer copy per chunk, a few µs at 10k hosts), and from then on
//!   copies every line it appends to the live file into an in-memory
//!   tail. The helper encodes the snapshot in slices
//!   ([`netmodel::journal::snapshot_line_sliced`]), yielding the
//!   processor between them so the writer never waits behind it, writes
//!   and syncs the temp file, then — holding the lock the writer's appends
//!   take — appends the tail, renames the temp file over the journal and
//!   makes its handle the append handle; it syncs the directory after
//!   releasing the lock. At most one compaction is in flight: while one
//!   runs, due batches only append, so the file can hold about twice the
//!   cadence in batches. A compaction that fails or panics removes its
//!   temp file, leaves the journal file as it was, is counted
//!   ([`Journal::compaction_failures`]) and is retried at the next
//!   commit; the commit that started it has already succeeded. The
//!   snapshot an explicit solve writes stays synchronous, after any
//!   in-flight compaction finishes: the file does not yet hold that
//!   solve's assignment, and the next batch record is taken against it.
//! * [`recover`] — load the last snapshot, replay the journal tail's
//!   deltas at the network level, and patch each batch's changed rows into
//!   the running assignment. Replay is exact — batch records carry the
//!   committed rows precisely so recovery never has to re-run a solver
//!   whose answer could drift. Damaged tails (torn writes, bit flips) are
//!   detected by the per-record checksums and truncated at the last valid
//!   record; recovery only fails when no valid preamble + snapshot prefix
//!   survives.
//! * [`recover_with`] — [`recover`] plus a reconfiguration hook for the
//!   returned engine; [`Checkpoint`] — the one lookup of a journal's
//!   preamble and last snapshot behind both recovery and `churn --replay`,
//!   whose exact mode replays the tail like recovery does and whose
//!   what-if mode re-solves it from [`Checkpoint::engine_at_snapshot`]
//!   under any solver.
//!
//! Durability contract: each record is flushed to the OS after the append,
//! so it survives a crash or kill of the process. Records are not fsynced
//! (that cost is deliberately not paid on the hot path), so a power loss
//! or OS crash can drop the unsynced tail; recovery then lands on the last
//! record that reached the disk. At every instant the file at the journal
//! path holds every flushed record: before a compaction's swap it is the
//! old file, after it the new one, which carries the tail appended while
//! the compaction ran. Compaction is atomic and durable in the sense of
//! Pillai et al. (OSDI 2014): it syncs the rewrite, renames it over the
//! journal and then syncs the directory, so a crash mid-compaction leaves
//! either the old or the new file, never a mix, and a completed
//! compaction survives a power loss (the tail records it carries stay
//! flush-only, like every record). Dropping a [`Journal`] — and so an
//! engine, or a `ServingEngine` at shutdown — waits for its in-flight
//! compaction and leaves no temp file.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use netmodel::assignment::Assignment;
use netmodel::catalog::{Catalog, ProductSimilarity};
use netmodel::constraints::ConstraintSet;
use netmodel::delta::NetworkDelta;
use netmodel::journal::{
    batch_line, read_tolerant, snapshot_line, snapshot_line_sliced, BatchRecord, JournalRead,
    MarkRecord, Preamble, Record, SnapshotRecord, FORMAT_VERSION,
};
use netmodel::network::Network;

use crate::engine::DiversityEngine;
#[cfg(doc)]
use crate::shard::ShardedEngine;
use crate::{Error, Result};

/// Default number of committed batches between periodic snapshots (and the
/// log compaction each one triggers).
pub const DEFAULT_SNAPSHOT_EVERY: usize = 32;

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> netmodel::Error {
    netmodel::Error::Journal(format!("{what} {}: {e}", path.display()))
}

fn journal_err(message: String) -> Error {
    Error::Model(netmodel::Error::Journal(message))
}

/// The append-only journal writer attached to an engine.
///
/// Created by the engine builders ([`DiversityEngine::with_journal`]),
/// which write the preamble and genesis snapshot; the engine then drives
/// [`Journal::append_batch`] / [`Journal::append_snapshot`] from its commit
/// points through one crate-internal hook shared by both engines.
///
/// Dropping a journal waits for its in-flight compaction, if any.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// The append handle, shared with an in-flight compaction, which swaps
    /// in the rewritten file's handle under this lock.
    live: Arc<Mutex<Live>>,
    /// The encoded preamble line, kept so compaction can rewrite the file
    /// head without re-borrowing the engine's catalog state.
    preamble_line: Arc<str>,
    seq: u64,
    snapshot_every: Option<usize>,
    batches_since_snapshot: usize,
    /// The assignment of the last record that landed (written and
    /// flushed): the base the next batch record's changed rows are taken
    /// against, and the one replay will have reached at that point.
    landed: Option<Assignment>,
    /// The periodic compaction running on its helper thread, if any.
    compaction: Option<InFlight>,
    compaction_failures: u64,
    last_compaction_error: Option<String>,
    /// Test hook the helper runs between syncing its rewrite and swapping
    /// it in, to hold it there or make it panic.
    #[cfg(test)]
    before_swap: Option<BeforeSwap>,
}

#[cfg(test)]
#[derive(Clone)]
struct BeforeSwap(Arc<dyn Fn() + Send + Sync>);

#[cfg(test)]
impl std::fmt::Debug for BeforeSwap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("BeforeSwap")
    }
}

/// What the writer and a background compaction share: the handle records
/// are appended to and, while a compaction is in flight, a copy of every
/// line appended since its snapshot was taken.
#[derive(Debug)]
struct Live {
    file: File,
    tail: Option<Vec<u8>>,
}

/// A periodic compaction on its helper thread.
#[derive(Debug)]
struct InFlight {
    handle: JoinHandle<netmodel::Result<()>>,
    /// Batches its snapshot covers: the cadence gets them back if it
    /// fails, so the next commit retries.
    covered: usize,
}

impl Journal {
    /// Creates (truncating) a journal at `path`, writing the preamble and a
    /// genesis snapshot. `snapshot_every` is the compaction cadence in
    /// batches; `None` keeps the full history (no periodic snapshots, no
    /// compaction).
    ///
    /// # Errors
    ///
    /// [`netmodel::Error::Journal`] on I/O failure.
    pub fn create(
        path: impl AsRef<Path>,
        preamble: &Preamble,
        snapshot: SnapshotRecord,
        snapshot_every: Option<usize>,
    ) -> netmodel::Result<Journal> {
        let preamble_line = Record::Preamble(preamble.clone()).to_line();
        let landed = snapshot.assignment.clone();
        let snapshot_line = Record::Snapshot(snapshot).to_line();
        Journal::create_lines(path, preamble_line, &snapshot_line, landed, snapshot_every)
    }

    /// [`Journal::create`] from encoded preamble and snapshot lines; the
    /// snapshot holds `landed`.
    fn create_lines(
        path: impl AsRef<Path>,
        preamble_line: String,
        snapshot_line: &str,
        landed: Option<Assignment>,
        snapshot_every: Option<usize>,
    ) -> netmodel::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::create(&path).map_err(|e| io_err("create", &path, &e))?;
        file.write_all(preamble_line.as_bytes())
            .and_then(|()| file.write_all(snapshot_line.as_bytes()))
            .and_then(|()| file.flush())
            .map_err(|e| io_err("write", &path, &e))?;
        Ok(Journal {
            path,
            live: Arc::new(Mutex::new(Live { file, tail: None })),
            preamble_line: preamble_line.into(),
            seq: 0,
            snapshot_every,
            batches_since_snapshot: 0,
            landed,
            compaction: None,
            compaction_failures: 0,
            last_compaction_error: None,
            #[cfg(test)]
            before_swap: None,
        })
    }

    /// Attaches a journal at `path` to an engine's committed state: the
    /// preamble records the problem, the genesis snapshot `network` and
    /// `assignment`.
    pub(crate) fn attach(
        path: impl AsRef<Path>,
        catalog: &Catalog,
        similarity: &ProductSimilarity,
        constraints: &ConstraintSet,
        network: &Network,
        assignment: Option<&Assignment>,
        snapshot_every: Option<usize>,
    ) -> Result<Journal> {
        let preamble = Record::Preamble(Preamble {
            format: FORMAT_VERSION,
            catalog: catalog.clone(),
            similarity: similarity.clone(),
            constraints: constraints.clone(),
        });
        let snapshot = snapshot_line(network, assignment);
        Journal::create_lines(
            path,
            preamble.to_line(),
            &snapshot,
            assignment.cloned(),
            snapshot_every,
        )
        .map_err(Error::Model)
    }

    /// Journals one committed batch and, when the cadence says a snapshot
    /// is due and no compaction is in flight, hands the compaction to a
    /// helper thread (module docs). Called post-commit: an I/O failure of
    /// the batch record surfaces as an error, but the in-memory commit
    /// stands — the engine is ahead of its journal, not corrupted. A
    /// failed compaction does not fail the commit: it is counted
    /// ([`Journal::compaction_failures`]) and retried at the next commit.
    pub(crate) fn commit_batch(
        &mut self,
        deltas: &[NetworkDelta],
        network: &Network,
        assignment: Option<&Assignment>,
    ) -> Result<()> {
        self.append_batch(deltas, network.revision(), assignment)
            .map_err(Error::Model)?;
        if self
            .compaction
            .as_ref()
            .is_some_and(|c| c.handle.is_finished())
        {
            self.wait_for_compaction();
        }
        if self.compaction.is_none() && self.snapshot_due() {
            self.start_compaction(network);
        }
        Ok(())
    }

    /// Journals a full snapshot of the committed state, synchronously,
    /// after any in-flight compaction finishes. Engines call this after
    /// every explicit solve: replay applies batches through `apply_batch`,
    /// whose warm path starts from the last assignment — so the post-solve
    /// assignment must be on disk for a recovered engine to re-solve
    /// identically, before the next batch record is taken against it.
    pub(crate) fn commit_snapshot(
        &mut self,
        network: &Network,
        assignment: Option<&Assignment>,
    ) -> Result<()> {
        self.wait_for_compaction();
        self.write_snapshot(&snapshot_line(network, assignment), assignment.cloned())
            .map_err(Error::Model)
    }

    /// Journals an application mark (see [`DiversityEngine::journal_mark`]).
    pub(crate) fn mark(&mut self, label: &str, fields: &[(&str, f64)]) -> Result<()> {
        self.append_mark(MarkRecord::new(label, fields))
            .map_err(Error::Model)
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The next batch sequence number (monotone across compactions).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Periodic compactions that failed (or panicked) so far, each leaving
    /// the journal file as it was. Counted once the journal has seen the
    /// compaction finish: at a later commit, or at
    /// [`Journal::wait_for_compaction`].
    pub fn compaction_failures(&self) -> u64 {
        self.compaction_failures
    }

    /// The error of the most recent failed compaction.
    pub fn last_compaction_error(&self) -> Option<&str> {
        self.last_compaction_error.as_deref()
    }

    /// Waits for the in-flight periodic compaction, if any, and counts it
    /// if it failed. Once this returns, the file holds no record the
    /// compaction still has to carry over and no temp file is left.
    pub fn wait_for_compaction(&mut self) {
        let Some(InFlight { handle, covered }) = self.compaction.take() else {
            return;
        };
        let outcome = handle.join().unwrap_or_else(|panic| {
            let cause = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("unknown cause");
            Err(netmodel::Error::Journal(format!(
                "compaction panicked: {cause}"
            )))
        });
        if let Err(e) = outcome {
            self.compaction_failed(covered, &e);
        }
    }

    /// Counts a compaction that failed, drops the tail it would have
    /// carried over and gives the cadence back the batches its snapshot
    /// covered, so the next commit retries.
    fn compaction_failed(&mut self, covered: usize, error: &netmodel::Error) {
        self.live().tail = None;
        self.batches_since_snapshot += covered;
        self.compaction_failures += 1;
        self.last_compaction_error = Some(error.to_string());
    }

    fn live(&self) -> MutexGuard<'_, Live> {
        lock(&self.live)
    }

    fn append_line(&mut self, line: &str) -> netmodel::Result<()> {
        let mut live = self.live();
        live.file
            .write_all(line.as_bytes())
            .and_then(|()| live.file.flush())
            .map_err(|e| io_err("append to", &self.path, &e))?;
        if let Some(tail) = live.tail.as_mut() {
            tail.extend_from_slice(line.as_bytes());
        }
        Ok(())
    }

    /// Appends one committed batch record and returns its sequence number.
    /// The record carries `assignment`'s length and the rows that differ
    /// from the assignment of the last record that landed; `assignment`
    /// becomes that base once the record is written and flushed.
    ///
    /// # Errors
    ///
    /// [`netmodel::Error::Journal`] on I/O failure.
    pub fn append_batch(
        &mut self,
        deltas: &[NetworkDelta],
        revision: u64,
        assignment: Option<&Assignment>,
    ) -> netmodel::Result<u64> {
        let seq = self.seq;
        let line = batch_line(seq, revision, deltas, self.landed.as_ref(), assignment);
        self.append_line(&line)?;
        self.landed = assignment.cloned();
        self.seq += 1;
        self.batches_since_snapshot += 1;
        Ok(seq)
    }

    /// Appends an application mark record (ignored by engine recovery).
    ///
    /// # Errors
    ///
    /// [`netmodel::Error::Journal`] on I/O failure.
    pub fn append_mark(&mut self, mark: MarkRecord) -> netmodel::Result<()> {
        let line = Record::Mark(mark).to_line();
        self.append_line(&line)
    }

    /// Whether the snapshot cadence says the next commit point should write
    /// a snapshot (and compact).
    pub fn snapshot_due(&self) -> bool {
        matches!(self.snapshot_every, Some(n) if n > 0 && self.batches_since_snapshot >= n)
    }

    /// Writes a full snapshot, synchronously, after any in-flight
    /// compaction finishes. With a periodic cadence configured this also
    /// *compacts*: the file is atomically rewritten as preamble + this
    /// snapshot (temp file, sync, rename, directory sync), dropping the
    /// journal prefix the snapshot supersedes. Without a cadence the
    /// snapshot is appended in place and history is kept. The cadence
    /// restarts only once the snapshot is on disk, so a failed compaction
    /// is retried at the next batch.
    ///
    /// # Errors
    ///
    /// [`netmodel::Error::Journal`] on I/O failure.
    pub fn append_snapshot(&mut self, snapshot: SnapshotRecord) -> netmodel::Result<()> {
        self.wait_for_compaction();
        let landed = snapshot.assignment.clone();
        self.write_snapshot(&Record::Snapshot(snapshot).to_line(), landed)
    }

    /// [`Journal::append_snapshot`] of an encoded snapshot line holding
    /// `assignment`; no compaction is in flight.
    fn write_snapshot(
        &mut self,
        line: &str,
        assignment: Option<Assignment>,
    ) -> netmodel::Result<()> {
        if self.snapshot_every.is_none() {
            self.append_line(line)?;
        } else {
            self.compaction().rewrite(line)?;
        }
        self.batches_since_snapshot = 0;
        self.landed = assignment;
        Ok(())
    }

    /// Hands the compaction of the committed state to a helper thread:
    /// the writer pays for chunk-sharing clones of `network` and of the
    /// landed assignment, and from here on copies each appended line into
    /// the tail the helper carries over.
    fn start_compaction(&mut self, network: &Network) {
        let network = network.clone();
        let assignment = self.landed.clone();
        let job = Compaction {
            #[cfg(test)]
            before_swap: self.before_swap.clone(),
            ..self.compaction()
        };
        self.live().tail = Some(Vec::new());
        let covered = std::mem::take(&mut self.batches_since_snapshot);
        let spawned = thread::Builder::new()
            .name("journal-compaction".into())
            .spawn(move || {
                let line = snapshot_line_sliced(&network, assignment.as_ref(), thread::yield_now);
                drop((network, assignment));
                job.rewrite(&line)
            });
        match spawned {
            Ok(handle) => self.compaction = Some(InFlight { handle, covered }),
            Err(e) => {
                let error = io_err("spawn the compaction of", &self.path, &e);
                self.compaction_failed(covered, &error);
            }
        }
    }

    fn compaction(&self) -> Compaction {
        Compaction {
            path: self.path.clone(),
            live: Arc::clone(&self.live),
            preamble_line: Arc::clone(&self.preamble_line),
            #[cfg(test)]
            before_swap: None,
        }
    }

    /// Test hook: `hook` runs in every later periodic compaction between
    /// its temp-file sync and its swap.
    #[cfg(test)]
    pub(crate) fn before_swap(&mut self, hook: impl Fn() + Send + Sync + 'static) {
        self.before_swap = Some(BeforeSwap(Arc::new(hook)));
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.wait_for_compaction();
    }
}

/// Locks the shared append side. A compaction that panicked while holding
/// the lock left it consistent — it swaps the handle last, in one
/// assignment — so a poisoned lock is taken over, not propagated.
fn lock(live: &Mutex<Live>) -> MutexGuard<'_, Live> {
    live.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything a compaction needs of its journal, owned, so it can run on
/// a helper thread.
struct Compaction {
    path: PathBuf,
    live: Arc<Mutex<Live>>,
    preamble_line: Arc<str>,
    #[cfg(test)]
    before_swap: Option<BeforeSwap>,
}

impl Compaction {
    /// Rewrites the journal as preamble + `snapshot` + the tail appended
    /// since the snapshot was taken, atomically and durably: the temp file
    /// is synced; then, holding the append lock, the tail is appended, the
    /// temp file renamed over the journal and its handle made the append
    /// handle; the old handle is closed and the directory synced after the
    /// lock is released, so the rename itself survives a power loss. On
    /// any failure (or a panic) the temp file is removed and the journal
    /// file is left as it was.
    fn rewrite(self, snapshot: &str) -> netmodel::Result<()> {
        let mut tmp = TempFile {
            path: self.path.with_extension("compact-tmp"),
            renamed: false,
        };
        let mut out = File::create(&tmp.path).map_err(|e| io_err("create", &tmp.path, &e))?;
        out.write_all(self.preamble_line.as_bytes())
            .and_then(|()| out.write_all(snapshot.as_bytes()))
            .and_then(|()| out.sync_all())
            .map_err(|e| io_err("write", &tmp.path, &e))?;
        #[cfg(test)]
        if let Some(BeforeSwap(hook)) = &self.before_swap {
            hook();
        }
        let replaced = {
            let mut live = lock(&self.live);
            let tail = live.tail.take().unwrap_or_default();
            out.write_all(&tail)
                .map_err(|e| io_err("write", &tmp.path, &e))?;
            std::fs::rename(&tmp.path, &self.path)
                .map_err(|e| io_err("rename over", &self.path, &e))?;
            tmp.renamed = true;
            std::mem::replace(&mut live.file, out)
        };
        // Closing the replaced file, now unlinked, frees its blocks: about
        // 1–5 ms at 10k hosts, paid with the appends unblocked.
        drop(replaced);
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("sync directory", dir, &e))
    }
}

/// A compaction's temp file, removed on drop — on failure and on unwinding
/// alike — unless it was renamed over the journal.
struct TempFile {
    path: PathBuf,
    renamed: bool,
}

impl Drop for TempFile {
    fn drop(&mut self) {
        if !self.renamed {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Reads a journal file tolerantly: the longest checksum-valid record
/// prefix plus where (and why) reading stopped, if it did.
///
/// # Errors
///
/// [`Error::Model`] wrapping [`netmodel::Error::Journal`] if the file
/// cannot be read at all. Damaged tails are *not* errors here — they are
/// reported via [`JournalRead::corruption`].
pub fn read_records(path: impl AsRef<Path>) -> Result<JournalRead> {
    let path = path.as_ref();
    let data = std::fs::read(path).map_err(|e| Error::Model(io_err("read", path, &e)))?;
    Ok(read_tolerant(&data))
}

/// How a recovery went: what was read, what was replayed, what was lost.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Checksum-valid records accepted from the file.
    pub records: usize,
    /// The revision of the snapshot recovery started from.
    pub snapshot_revision: u64,
    /// Batch records replayed after that snapshot.
    pub batches_replayed: usize,
    /// Why the valid prefix ended before the end of the file, if it did
    /// (torn tail, checksum mismatch, decode failure).
    pub corruption: Option<String>,
    /// Byte length of the valid prefix (the recoverable part of the file).
    pub valid_len: usize,
}

/// A recovered engine plus the [`RecoveryReport`] describing the recovery.
#[derive(Debug)]
pub struct Recovered {
    /// The engine, rebuilt from snapshot + journal-tail replay.
    pub engine: DiversityEngine,
    /// What the recovery read, replayed and (possibly) truncated.
    pub report: RecoveryReport,
}

/// Recovers a [`DiversityEngine`] from a journal: preamble + last snapshot,
/// then replay of the batch tail. Corrupt or torn trailing records are
/// truncated at the last checksum-valid record.
///
/// # Errors
///
/// See [`recover_with`].
pub fn recover(path: impl AsRef<Path>) -> Result<DiversityEngine> {
    recover_with(path, |e| e).map(|r| r.engine)
}

/// [`recover`], with a reconfiguration hook applied to the recovered
/// engine (different solver, budget, locality) before it is handed back.
///
/// Replay is *exact*, not a re-solve: each batch record carries both its
/// deltas and the rows the re-solve changed, so recovery applies the
/// deltas at the network level and patches in the recorded rows
/// ([`Checkpoint::replay`]). (A re-solve could legitimately land in a
/// different local optimum — the warm refiner's sweep order depends on
/// incremental cache layout the journal does not capture.) Re-solving
/// replay — running a recorded window under a different solver and diffing
/// the result — is the churn harness's `--replay` mode, built on
/// [`Checkpoint::engine_at_snapshot`].
///
/// # Errors
///
/// * [`Error::Model`] wrapping [`netmodel::Error::Journal`] — unreadable
///   file, no valid preamble or snapshot in the valid prefix, or a replayed
///   revision that contradicts the recorded one.
/// * [`Error::Model`] for a recorded delta the network rejects.
pub fn recover_with(
    path: impl AsRef<Path>,
    configure: impl FnOnce(DiversityEngine) -> DiversityEngine,
) -> Result<Recovered> {
    let read = read_records(path)?;
    let checkpoint = Checkpoint::find(&read.records)?;
    let mut batches_replayed = 0;
    let (network, assignment) = checkpoint.replay(|_, _, _| batches_replayed += 1)?;
    let snapshot_revision = checkpoint.snapshot.revision;
    let engine = checkpoint.engine(network, assignment, configure);
    Ok(Recovered {
        engine,
        report: RecoveryReport {
            records: read.records.len(),
            snapshot_revision,
            batches_replayed,
            corruption: read.corruption,
            valid_len: read.valid_len,
        },
    })
}

/// A journal's recovery point: its preamble, its last snapshot, and the
/// records committed after that snapshot. The one lookup behind
/// [`recover_with`] and the churn harness's replay.
#[derive(Debug, Clone, Copy)]
pub struct Checkpoint<'a> {
    /// The recorded problem: catalog, similarity, constraints.
    pub preamble: &'a Preamble,
    /// The last snapshot of the valid prefix.
    pub snapshot: &'a SnapshotRecord,
    /// Every record after that snapshot: batches, and marks replay skips.
    pub tail: &'a [Record],
}

impl<'a> Checkpoint<'a> {
    /// Finds the preamble and the last snapshot of `records` (a valid
    /// prefix, as [`read_records`] returns it).
    ///
    /// # Errors
    ///
    /// [`Error::Model`] wrapping [`netmodel::Error::Journal`] when the
    /// records hold no preamble-first prefix or no snapshot.
    pub fn find(records: &'a [Record]) -> Result<Checkpoint<'a>> {
        let Some(Record::Preamble(preamble)) = records.first() else {
            return Err(journal_err("journal has no valid preamble record".into()));
        };
        let last = records
            .iter()
            .enumerate()
            .rev()
            .find_map(|(at, r)| match r {
                Record::Snapshot(snapshot) => Some((at, snapshot)),
                _ => None,
            });
        let Some((at, snapshot)) = last else {
            return Err(journal_err("journal has no valid snapshot record".into()));
        };
        Ok(Checkpoint {
            preamble,
            snapshot,
            tail: &records[at + 1..],
        })
    }

    /// The batch records after the snapshot, in commit order.
    pub fn batches(&self) -> impl Iterator<Item = &'a BatchRecord> {
        self.tail.iter().filter_map(|r| match r {
            Record::Batch(batch) => Some(batch),
            _ => None,
        })
    }

    /// Replays the batches exactly: each one's deltas at the network level,
    /// checked against the revision it recorded ([`check_revision`]), then
    /// its changed rows patched into the running assignment. `visit` sees
    /// every batch with the state it reached; the final state is returned.
    ///
    /// # Errors
    ///
    /// See [`recover_with`]; also a batch whose committed table does not
    /// have one row per host of the replayed network.
    pub fn replay(
        &self,
        mut visit: impl FnMut(&BatchRecord, &Network, Option<&Assignment>),
    ) -> Result<(Network, Option<Assignment>)> {
        let mut network = self.snapshot.network.clone();
        let mut assignment = self.snapshot.assignment.clone();
        for batch in self.batches() {
            network
                .apply_all(&batch.deltas, &self.preamble.catalog)
                .map_err(Error::Model)?;
            check_revision(batch, network.revision())?;
            match &batch.assignment {
                Some(rows) if rows.len != network.host_count() => {
                    return Err(journal_err(format!(
                        "replay diverged: batch seq {} recorded {} assignment rows for {} hosts",
                        batch.seq,
                        rows.len,
                        network.host_count()
                    )));
                }
                Some(rows) => rows.apply_to(assignment.get_or_insert_with(Assignment::default)),
                None => assignment = None,
            }
            visit(batch, &network, assignment.as_ref());
        }
        Ok((network, assignment))
    }

    /// A configured engine positioned at the snapshot, its tail not
    /// replayed — the churn replay's what-if mode re-solves the tail
    /// itself.
    pub fn engine_at_snapshot(
        &self,
        configure: impl FnOnce(DiversityEngine) -> DiversityEngine,
    ) -> DiversityEngine {
        let (network, assignment) = (&self.snapshot.network, &self.snapshot.assignment);
        self.engine(network.clone(), assignment.clone(), configure)
    }

    fn engine(
        &self,
        network: Network,
        assignment: Option<Assignment>,
        configure: impl FnOnce(DiversityEngine) -> DiversityEngine,
    ) -> DiversityEngine {
        let engine = DiversityEngine::new(
            network,
            self.preamble.catalog.clone(),
            self.preamble.similarity.clone(),
        )
        .with_constraints(self.preamble.constraints.clone());
        let mut engine = configure(engine);
        if let Some(assignment) = assignment {
            engine.set_assignment(assignment);
        }
        engine
    }
}

/// Errors unless replaying `batch` reached the revision it recorded.
///
/// # Errors
///
/// [`Error::Model`] wrapping [`netmodel::Error::Journal`] naming the batch
/// and both revisions.
pub fn check_revision(batch: &BatchRecord, reached: u64) -> Result<()> {
    if reached == batch.revision {
        return Ok(());
    }
    Err(journal_err(format!(
        "replay diverged: batch seq {} recorded revision {}, replay reached {reached}",
        batch.seq, batch.revision
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::journal::Record;
    use netmodel::topology::{generate, RandomNetworkConfig, TopologyKind};

    fn tmp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("ics-journal-{tag}-{}-{n}.log", std::process::id()))
    }

    fn small_engine() -> DiversityEngine {
        let g = generate(
            &RandomNetworkConfig {
                hosts: 8,
                mean_degree: 3,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            5,
        );
        DiversityEngine::new(g.network, g.catalog, g.similarity)
    }

    #[test]
    fn journaled_engine_recovers_exactly() {
        let path = tmp_path("recover");
        let mut engine = small_engine().with_journal(&path).unwrap();
        engine.solve().unwrap();
        let os = engine.catalog().service_by_name("service0").unwrap();
        let host = netmodel::HostId(2);
        let product = engine
            .network()
            .host(host)
            .unwrap()
            .candidates_for(os)
            .unwrap()[0];
        engine
            .apply(&netmodel::delta::NetworkDelta::fix_slot(host, os, product))
            .unwrap();
        engine
            .apply(&netmodel::delta::NetworkDelta::remove_host(
                netmodel::HostId(7),
            ))
            .unwrap();

        let recovered = recover(&path).unwrap();
        assert_eq!(recovered.network(), engine.network());
        assert_eq!(recovered.revision(), engine.revision());
        let live = engine
            .assignment()
            .unwrap()
            .total_edge_similarity(engine.network(), engine.similarity());
        let back = recovered
            .assignment()
            .unwrap()
            .total_edge_similarity(recovered.network(), recovered.similarity());
        assert!(
            (live - back).abs() <= 1e-9,
            "objective drifted: {live} vs {back}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Pins host `step % 4`'s first service to its first candidate.
    fn fix(engine: &mut DiversityEngine, step: u32) {
        let os = engine.catalog().service_by_name("service0").unwrap();
        let host = netmodel::HostId(step % 4);
        let product = engine
            .network()
            .host(host)
            .unwrap()
            .candidates_for(os)
            .unwrap()[0];
        engine
            .apply(&netmodel::delta::NetworkDelta::fix_slot(host, os, product))
            .unwrap();
    }

    fn assert_recovers_to(path: &Path, network: &Network, assignment: Option<&Assignment>) {
        let recovered = recover(path).unwrap();
        assert_eq!(recovered.network(), network);
        assert_eq!(recovered.assignment(), assignment);
    }

    #[test]
    fn compaction_bounds_the_log_and_preserves_state() {
        let path = tmp_path("compact");
        // Cadence 2: every other batch rewrites the file to preamble +
        // snapshot, so record count stays bounded while state accrues.
        let mut engine = small_engine().with_journal_cadence(&path, Some(2)).unwrap();
        engine.solve().unwrap();
        for step in 0..6 {
            fix(&mut engine, step);
            // Each compaction lands before the next commit, so none is
            // skipped for running late.
            engine.wait_for_compaction();
        }
        let read = read_records(&path).unwrap();
        assert!(read.corruption.is_none());
        // Bounded: preamble + snapshot + at most (cadence) trailing batches.
        assert!(
            read.records.len() <= 2 + 2,
            "compaction left {} records",
            read.records.len()
        );
        let recovered = recover(&path).unwrap();
        assert_eq!(recovered.network(), engine.network());
        assert_eq!(recovered.revision(), engine.revision());
        std::fs::remove_file(&path).ok();
    }

    /// A compaction held between its temp-file sync and its swap: the live
    /// file keeps recovering to the live state while commits go on, the
    /// swapped file holds preamble, snapshot and every record appended in
    /// between, and dropping the engine mid-compaction waits for it and
    /// leaves no temp file.
    #[test]
    fn compaction_swaps_in_the_records_appended_while_it_ran() {
        let path = tmp_path("swap");
        let tmp = path.with_extension("compact-tmp");
        let mut engine = small_engine().with_journal_cadence(&path, Some(2)).unwrap();
        engine.solve().unwrap();
        // The helper meets the test at `gate` twice: once it has synced
        // its rewrite, and once the test lets it swap.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let held = Arc::clone(&gate);
        engine.journal_mut().unwrap().before_swap(move || {
            held.wait();
            held.wait();
        });
        fix(&mut engine, 0);
        fix(&mut engine, 1);
        let snapshot_state = (engine.network().clone(), engine.assignment().cloned());
        gate.wait();
        assert!(tmp.exists(), "the helper synced its rewrite");
        for step in 2..5 {
            fix(&mut engine, step);
            assert_recovers_to(&path, engine.network(), engine.assignment());
        }
        let before = read_records(&path).unwrap().records;
        // Preamble, post-solve snapshot, batches 0..=4: nothing swapped yet.
        assert_eq!(before.len(), 7);
        gate.wait();
        engine.wait_for_compaction();
        assert!(!tmp.exists());
        let after = read_records(&path).unwrap().records;
        assert_eq!(after.len(), 5);
        assert_eq!(after[0], before[0]);
        let Record::Snapshot(snapshot) = &after[1] else {
            panic!("record 1 is {:?}", after[1]);
        };
        assert_eq!(snapshot.network, snapshot_state.0);
        assert_eq!(snapshot.assignment, snapshot_state.1);
        assert_eq!(after[2..], before[4..]);
        assert_recovers_to(&path, engine.network(), engine.assignment());
        assert_eq!(engine.journal().unwrap().compaction_failures(), 0);

        // Batch 5 finds the held-back batches 2..=4 due: a new compaction
        // starts and holds.
        fix(&mut engine, 5);
        let live_state = (engine.network().clone(), engine.assignment().cloned());
        gate.wait();
        let release = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            gate.wait();
        });
        drop(engine);
        release.join().unwrap();
        assert!(!tmp.exists(), "dropping the engine left {}", tmp.display());
        assert_recovers_to(&path, &live_state.0, live_state.1.as_ref());
        assert_eq!(read_records(&path).unwrap().records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    /// A compaction that panics before its swap removes its temp file,
    /// leaves the journal file as it was, is counted, and is retried at
    /// the next commit.
    #[test]
    fn a_panicking_compaction_leaves_the_file_and_is_retried() {
        let path = tmp_path("panic");
        let tmp = path.with_extension("compact-tmp");
        let mut engine = small_engine().with_journal_cadence(&path, Some(2)).unwrap();
        engine.solve().unwrap();
        engine
            .journal_mut()
            .unwrap()
            .before_swap(|| panic!("injected before the swap"));
        fix(&mut engine, 0);
        fix(&mut engine, 1);
        engine.wait_for_compaction();
        let journal = engine.journal().unwrap();
        assert_eq!(journal.compaction_failures(), 1);
        let error = journal.last_compaction_error().unwrap();
        assert!(error.contains("injected before the swap"), "{error}");
        assert!(!tmp.exists());
        // Preamble, post-solve snapshot, batches 0 and 1.
        assert_eq!(read_records(&path).unwrap().records.len(), 4);
        assert_recovers_to(&path, engine.network(), engine.assignment());

        engine.journal_mut().unwrap().before_swap(|| {});
        fix(&mut engine, 2);
        engine.wait_for_compaction();
        assert_eq!(engine.journal().unwrap().compaction_failures(), 1);
        assert_eq!(read_records(&path).unwrap().records.len(), 2);
        assert_recovers_to(&path, engine.network(), engine.assignment());
        drop(engine);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_without_preamble_is_an_error() {
        let path = tmp_path("empty");
        std::fs::write(&path, b"").unwrap();
        assert!(recover(&path).is_err());
        std::fs::write(&path, b"garbage\n").unwrap();
        assert!(recover(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
