//! The three workloads: instance, stream, engine and read pattern of each.

use std::path::Path;
use std::time::Duration;

use ics_diversity::serve::ServingEngine;
use ics_diversity::{DiversityEngine, ShardedEngine};
use netmodel::topology::GeneratedNetwork;

use crate::serve::ReadMode;
use perfbench::stream::{random_instance, slot_stream, zone_stream, zoned_instance, Stream};

/// Bursts submitted before timing starts: the first refinements after a
/// cold solve sweep far more than the steady serving path does.
pub const WARMUP_BURSTS: usize = 16;

/// Seed of every workload's instance (the one `benches/sharded.rs` uses).
const INSTANCE_SEED: u64 = 777;

/// How often the load generator of the 10k workloads checks for the
/// snapshot carrying its burst. The visible latency is taken from the
/// snapshot's publish instant, so this interval never enters it.
const POLL: Duration = Duration::from_micros(200);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single engine with its journal attached, 10k zoned hosts.
    Journal10k,
    /// Sharded engine, same instance and stream, no journal.
    Sharded10k,
    /// Single engine, 960 random hosts, slot-only bursts, continuous reads.
    Reads960,
}

/// Which engine a workload serves from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Single,
    Sharded,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "journal-10k" => Some(Workload::Journal10k),
            "sharded-10k" => Some(Workload::Sharded10k),
            "reads-960" => Some(Workload::Reads960),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Journal10k => "journal-10k",
            Workload::Sharded10k => "sharded-10k",
            Workload::Reads960 => "reads-960",
        }
    }

    pub fn engine(self) -> EngineKind {
        match self {
            Workload::Sharded10k => EngineKind::Sharded,
            Workload::Journal10k | Workload::Reads960 => EngineKind::Single,
        }
    }

    pub fn journaled(self) -> bool {
        self == Workload::Journal10k
    }

    /// Timed bursts per second of `--seconds`: the stream length is fixed
    /// by the arguments, never by how fast the host happens to run, so
    /// every run of a seed does identical work. Calibrated so the timed
    /// loop takes about `--seconds` on a 2-core Xeon VM.
    fn bursts_per_second(self) -> f64 {
        match self {
            Workload::Journal10k => 30.0,
            Workload::Sharded10k => 50.0,
            Workload::Reads960 => 480.0,
        }
    }

    /// Stream length for a run of `seconds`: warm-up plus timed bursts.
    pub fn bursts(self, seconds: u64) -> usize {
        WARMUP_BURSTS + (seconds as f64 * self.bursts_per_second()).ceil() as usize
    }

    /// Engine set-ups per run; `setup_s` is their median.
    pub fn setups(self) -> usize {
        match self {
            Workload::Journal10k => 5,
            Workload::Sharded10k => 3,
            Workload::Reads960 => 61,
        }
    }

    pub fn read_mode(self) -> ReadMode {
        match self {
            Workload::Reads960 => ReadMode::Spin,
            Workload::Journal10k | Workload::Sharded10k => ReadMode::Poll(POLL),
        }
    }

    /// The workload's instance. It is the same for every seed: the
    /// generated similarity matrix and topology set the solver's work, and
    /// drawing them per seed moved `similarity_ratio` and the per-burst
    /// step cost by ±15% between seeds. Seeds vary the burst stream.
    pub fn instance(self) -> GeneratedNetwork {
        match self {
            Workload::Journal10k | Workload::Sharded10k => zoned_instance(8, 1250, INSTANCE_SEED),
            Workload::Reads960 => random_instance(960, INSTANCE_SEED),
        }
    }

    pub fn stream(self, g: &GeneratedNetwork, bursts: usize, seed: u64) -> Stream {
        match self {
            Workload::Journal10k | Workload::Sharded10k => zone_stream(g, bursts, seed),
            Workload::Reads960 => slot_stream(g, bursts, seed),
        }
    }

    /// Builds the workload's engine on `g`, attaches the journal at
    /// `journal` when the workload has one, and starts serving: returns
    /// once epoch 1 is published. This is what `setup_s` times.
    pub fn start(self, g: GeneratedNetwork, journal: &Path) -> Result<ServingEngine, String> {
        let started = match self.engine() {
            EngineKind::Sharded => {
                ServingEngine::start(ShardedEngine::new(g.network, g.catalog, g.similarity))
            }
            EngineKind::Single => {
                let engine = DiversityEngine::new(g.network, g.catalog, g.similarity);
                let engine = if self.journaled() {
                    engine.with_journal(journal).map_err(|e| e.to_string())?
                } else {
                    engine
                };
                ServingEngine::start(engine)
            }
        };
        started.map_err(|e| e.to_string())
    }
}
