//! The timed loop: one load-generator thread driving a `ServingEngine`
//! with exactly one burst outstanding, so the writer never coalesces.

use std::hint::black_box;
use std::thread;
use std::time::{Duration, Instant};

use ics_diversity::serve::{Enqueue, ServingEngine};
use ics_diversity::SnapshotReader;
use netmodel::delta::NetworkDelta;
use netmodel::HostId;
use perfbench::stats::windowed_rate;

/// Reads per timed block: read latency is a block's time over this.
const READ_BLOCK: u32 = 128;

/// Timed bursts per throughput window: the journal's compaction cadence,
/// so on `journal-10k` every full window holds one compaction.
const WINDOW_BURSTS: usize = 32;

/// A burst that is not visible after this long counts as failed.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(60);

/// How the generator waits for the snapshot carrying its burst.
#[derive(Debug, Clone, Copy)]
pub enum ReadMode {
    /// Sleep this long between checks, timing one block of reads per check.
    Poll(Duration),
    /// Read continuously in timed blocks until the burst is visible.
    Spin,
}

/// One burst as the generator saw it.
#[derive(Debug, Clone)]
pub struct BurstSample {
    /// Position of the burst in the stream.
    pub burst: usize,
    /// Deltas in the burst.
    pub deltas: usize,
    /// Just before `submit`.
    pub submitted: Instant,
    /// `submit` returned.
    pub accepted: Instant,
    /// The publish instant of the snapshot carrying the burst.
    pub published: Instant,
    /// When the generator observed that snapshot.
    pub observed: Instant,
    /// The writer's absorb wall for the burst's batch.
    pub absorb: Duration,
    /// Whether the burst counts towards the timed metrics.
    pub timed: bool,
}

impl BurstSample {
    /// Submit → visible: from just before `submit` to the publish instant.
    pub fn visible(&self) -> Duration {
        self.published.saturating_duration_since(self.submitted)
    }
}

/// Everything the loop measured.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Bursts that became visible, in order.
    pub samples: Vec<BurstSample>,
    /// Nanoseconds per block of [`READ_BLOCK`] reads, timed bursts only.
    pub read_blocks: Vec<u32>,
    /// Reads made during timed bursts.
    pub reads: u64,
    /// Wall time of the timed bursts: first timed submit to last visible.
    pub wall: Duration,
    /// Deltas submitted, warm-up included.
    pub submitted_deltas: u64,
    /// Bursts that failed a check, with the reason.
    pub failures: Vec<String>,
}

impl LoopOutcome {
    /// Deltas made visible per second: the median over consecutive
    /// windows of [`WINDOW_BURSTS`] timed bursts of a window's deltas over
    /// its wall, from its first submit to the generator seeing its last
    /// burst. A median, unlike the deltas over the whole loop's wall, does
    /// not move with a stall of the host that hits a few windows.
    pub fn deltas_per_s(&self) -> f64 {
        let Some(first) = self.samples.iter().find(|s| s.timed) else {
            return 0.0;
        };
        let at = |t: Instant| t.saturating_duration_since(first.submitted).as_secs_f64();
        let items: Vec<(f64, f64, f64)> = self
            .samples
            .iter()
            .filter(|s| s.timed)
            .map(|s| (s.deltas as f64, at(s.submitted), at(s.observed)))
            .collect();
        windowed_rate(&items, WINDOW_BURSTS)
    }

    /// Nanoseconds per read in each timed block.
    pub fn read_ns(&self) -> Vec<f64> {
        self.read_blocks
            .iter()
            .map(|&ns| f64::from(ns) / f64::from(READ_BLOCK))
            .collect()
    }
}

/// [`READ_BLOCK`] reads of the current snapshot, cycling through hosts.
fn read_block(reader: &mut SnapshotReader, host: &mut u32, hosts: u32) {
    for _ in 0..READ_BLOCK {
        let snapshot = reader.current();
        black_box(snapshot.products_at(HostId(*host)));
        *host = (*host + 1) % hosts;
    }
}

/// Runs the closed loop over `bursts`; the first `warmup` are untimed.
pub fn run_loop(
    serving: &ServingEngine,
    bursts: Vec<Vec<NetworkDelta>>,
    warmup: usize,
    hosts: u32,
    mode: ReadMode,
) -> LoopOutcome {
    let mut reader = serving.reader();
    let mut revision = reader.current().revision();
    let mut out = LoopOutcome::default();
    let mut host = 0u32;
    let mut loop_start = None;
    for (i, burst) in bursts.into_iter().enumerate() {
        let timed = i >= warmup;
        let deltas = burst.len();
        let expected = revision + deltas as u64;
        let submitted = Instant::now();
        if timed && loop_start.is_none() {
            loop_start = Some(submitted);
        }
        let enqueued = serving.submit(burst);
        let accepted = Instant::now();
        out.submitted_deltas += deltas as u64;
        if !matches!(enqueued, Enqueue::Accepted { .. }) {
            out.failures
                .push(format!("burst {i}: submit returned {enqueued:?}"));
            continue;
        }
        revision = expected;
        loop {
            // Check before reading: after a poll's sleep the check is the
            // first read to see a new snapshot, and it pays for dropping
            // the previous one, so timed blocks measure the steady read
            // path. Spinning readers pay that drop inside a block.
            let snapshot = reader.current();
            if snapshot.revision() >= expected {
                let age = snapshot.age();
                let observed = Instant::now();
                if snapshot.revision() != expected || snapshot.deltas_in_batch() != deltas {
                    out.failures.push(format!(
                        "burst {i}: visible at revision {} with {} deltas, expected revision {expected} with {deltas}",
                        snapshot.revision(),
                        snapshot.deltas_in_batch()
                    ));
                    revision = snapshot.revision();
                    break;
                }
                out.samples.push(BurstSample {
                    burst: i,
                    deltas,
                    submitted,
                    accepted,
                    published: observed.checked_sub(age).unwrap_or(observed),
                    observed,
                    absorb: snapshot.absorb_wall(),
                    timed,
                });
                if timed {
                    out.wall = observed - loop_start.expect("set at the first timed burst");
                }
                break;
            }
            drop(snapshot);
            if accepted.elapsed() > VISIBLE_TIMEOUT {
                out.failures
                    .push(format!("burst {i}: not visible after {VISIBLE_TIMEOUT:?}"));
                break;
            }
            if let ReadMode::Poll(_) = mode {
                // After a sleep the hosts' rows are cold in this core's
                // caches: read them once untimed, so the timed block
                // measures the read path rather than the wake-up.
                let first = host;
                read_block(&mut reader, &mut host, hosts);
                host = first;
            }
            let block = Instant::now();
            read_block(&mut reader, &mut host, hosts);
            if timed {
                let ns = block.elapsed().as_nanos();
                out.read_blocks.push(u32::try_from(ns).unwrap_or(u32::MAX));
                out.reads += u64::from(READ_BLOCK);
            }
            if let ReadMode::Poll(interval) = mode {
                thread::sleep(interval);
            }
        }
    }
    out
}
