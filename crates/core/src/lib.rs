//! # ics-diversity
//!
//! Optimal network diversification for ICS resilience — a faithful, fully
//! self-contained reproduction of the DSN 2020 paper *"Scalable Approach to
//! Enhancing ICS Resilience by Network Diversity"* (Li, Feng, Hankin).
//!
//! Given a network of hosts, the services each host must run, the candidate
//! products for each service, and the pairwise **vulnerability similarity**
//! of products (Jaccard overlap of their CVE sets, crate `nvd`), this
//! crate computes the product assignment that minimizes a zero-day worm's
//! ability to propagate — optionally subject to real-world configuration
//! constraints (legacy hosts, mandated products, (un)desirable product
//! combinations) — and evaluates the result with the paper's two
//! instruments: the BN-based diversity metric `dbn` (crate [`bayesnet`])
//! and simulated mean-time-to-compromise (crate [`sim`]).
//!
//! * [`energy`] — translates a network + constraints into the discrete
//!   pairwise MRF of paper Eq. 1 (one variable per (host, service) slot).
//! * [`cache`] — the incremental form of that translation:
//!   [`cache::EnergyCache`] retains filtered domains, interned candidate
//!   sets and shared potential matrices across network revisions, rebuilding
//!   only what a [`netmodel::delta::NetworkDelta`] touched.
//! * [`engine`] — [`DiversityEngine`], the long-lived serving facade:
//!   `apply(delta)` mutates the network, refreshes the cached model, and
//!   warm-starts the re-solve from the previous MAP assignment, returning a
//!   [`ReassignmentReport`] (changed hosts, objective before/after, solver
//!   telemetry).
//! * [`shard`] — [`ShardedEngine`], the zone-sharded form of the engine:
//!   one `DiversityEngine` per zone, delta bursts routed to their owning
//!   shard(s), cross-shard links reconciled by a monotone
//!   boundary-coordination loop (freeze neighbors' boundary labels, fold
//!   them into unaries, solve locally in parallel, splice back only on
//!   improvement).
//! * [`serve`] — the one engine surface and the concurrent serving
//!   front-end. [`WriterCore`] holds either engine behind one
//!   solve/absorb/journal interface whose steps return the engine's own
//!   report as an [`EngineReport`]; every layer above the engines drives
//!   it. [`ServingEngine`] puts a `WriterCore` behind a single writer
//!   thread and epoch-versioned immutable [`snapshot::Snapshot`]s. Write
//!   bursts enter a bounded queue with explicit backpressure
//!   ([`serve::Enqueue`]) and coalesce into one `apply_batch`; readers
//!   clone the current snapshot lock-free and detect staleness by revision
//!   instead of blocking on absorption.
//! * [`churn`] — the dynamic-churn scenario: one function,
//!   [`churn::run_churn`], replays bursts from a random, adaptive-attacker
//!   or CVE-feed source ([`churn::Bursts`]) through either engine and
//!   measures MTTC before/after each re-optimization, plus defender-lag.
//! * [`journal`] — durability: a write-ahead delta journal with periodic
//!   snapshots and log compaction ([`DiversityEngine::with_journal`]),
//!   written through one hook both engines share, and [`recover`] — last
//!   snapshot + checksummed journal-tail replay, with corrupt or torn
//!   trailing records truncated at the last valid one.
//! * [`optimizer`] — the solver facade, built on the open
//!   [`mrf::MapSolver`] trait: TRW-S (default), ICM, ILS, exact
//!   elimination with a *recorded* fallback, brute force, or any
//!   user-supplied `MapSolver`. Runs accept wall-clock
//!   budgets, cancellation flags and progress callbacks
//!   ([`mrf::SolveControl`]), chain refinement stages, and report
//!   telemetry (solver name, wall time, fallback cause).
//! * [`evaluate`] — `dbn` and MTTC reports for any assignment.
//! * [`metrics`] — the complementary diversity metrics of the framework the
//!   paper adapts: effective richness and least attacking effort.
//! * [`scalability`] — the timing harness behind the paper's Tables VII–IX.
//! * [`report`] — plain-text tables for the reproduction binaries.
//!
//! # Quick start
//!
//! ```
//! use ics_diversity::optimizer::DiversityOptimizer;
//! use netmodel::casestudy::CaseStudy;
//!
//! # fn main() -> Result<(), ics_diversity::Error> {
//! let cs = CaseStudy::build();
//! let optimizer = DiversityOptimizer::new();
//! // The unconstrained optimal assignment α̂ of paper Fig. 4(a):
//! let optimal = optimizer.optimize(&cs.network, &cs.similarity)?;
//! // Constrained optimum α̂C1 (host constraints of §VII-B):
//! let constrained =
//!     optimizer.optimize_constrained(&cs.network, &cs.similarity, &cs.constraints_c1())?;
//! assert!(constrained.assignment().total_edge_similarity(&cs.network, &cs.similarity)
//!     >= optimal.assignment().total_edge_similarity(&cs.network, &cs.similarity) - 1e-9);
//! # Ok(())
//! # }
//! ```
//!
//! # Budgeted solves
//!
//! ```
//! use std::time::Duration;
//! use ics_diversity::optimizer::{DiversityOptimizer, SolverKind};
//! use netmodel::casestudy::CaseStudy;
//!
//! # fn main() -> Result<(), ics_diversity::Error> {
//! let cs = CaseStudy::build();
//! // Exact elimination under a 250 ms budget, falling back to TRW-S if the
//! // treewidth or the budget runs out; telemetry says which solver ran,
//! // how long it took and why any fallback fired.
//! let solved = DiversityOptimizer::new()
//!     .with_solver(SolverKind::Exact(Default::default()))
//!     .with_time_budget(Duration::from_millis(250))
//!     .optimize(&cs.network, &cs.similarity)?;
//! assert!(solved.solver_name().starts_with("exact"));
//! assert!(solved.assignment().validate(&cs.network).is_ok());
//! # Ok(())
//! # }
//! ```
//!
//! # Incremental serving: absorb a delta
//!
//! ```
//! use ics_diversity::engine::DiversityEngine;
//! use netmodel::delta::NetworkDelta;
//! use netmodel::topology::{generate, RandomNetworkConfig, TopologyKind};
//!
//! # fn main() -> Result<(), ics_diversity::Error> {
//! let g = generate(
//!     &RandomNetworkConfig {
//!         hosts: 12,
//!         mean_degree: 3,
//!         services: 2,
//!         products_per_service: 3,
//!         vendors_per_service: 2,
//!         topology: TopologyKind::Random,
//!     },
//!     7,
//! );
//! let mut engine = DiversityEngine::new(g.network, g.catalog, g.similarity);
//! engine.solve()?;
//!
//! // A product mandate arrives: one delta, one incremental step — the
//! // cache refilters only the touched host and the re-solve warm-starts
//! // from the previous MAP assignment.
//! let os = engine.catalog().service_by_name("service0").unwrap();
//! let host = netmodel::HostId(3);
//! let product = engine.network().host(host).unwrap().candidates_for(os).unwrap()[0];
//! let report = engine.apply(&NetworkDelta::fix_slot(host, os, product))?;
//! assert!(report.warm_started);
//! assert_eq!(report.rebuild.hosts_refiltered, 1);
//! assert!(report.improvement().unwrap() >= -1e-9);
//! assert_eq!(engine.assignment().unwrap().products_at(host)[0], product);
//! # Ok(())
//! # }
//! ```
//!
//! # Concurrent serving: snapshots under write bursts
//!
//! ```
//! use ics_diversity::serve::ServingEngine;
//! use ics_diversity::DiversityEngine;
//! use netmodel::delta::NetworkDelta;
//! use netmodel::topology::{generate, RandomNetworkConfig, TopologyKind};
//! use netmodel::HostId;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), ics_diversity::Error> {
//! let g = generate(
//!     &RandomNetworkConfig {
//!         hosts: 10,
//!         mean_degree: 2,
//!         services: 1,
//!         products_per_service: 3,
//!         vendors_per_service: 2,
//!         topology: TopologyKind::Random,
//!     },
//!     11,
//! );
//! let serving = ServingEngine::start(DiversityEngine::new(g.network, g.catalog, g.similarity))?;
//! let mut reader = serving.reader(); // one per query thread; reads never block
//! serving.submit(vec![NetworkDelta::remove_host(HostId(9))]);
//! assert!(serving.wait_for_revision(1, Duration::from_secs(30)));
//! assert!(reader.current().products_at(HostId(9)).is_empty());
//! let (_engine, report) = serving.shutdown();
//! assert_eq!(report.last_revision, 1);
//! # Ok(())
//! # }
//! ```
//!
//! # Sharded serving: one engine per zone
//!
//! ```
//! use ics_diversity::shard::ShardedEngine;
//! use netmodel::delta::NetworkDelta;
//! use netmodel::topology::{generate_zoned, TopologyKind, ZonedNetworkConfig};
//!
//! # fn main() -> Result<(), ics_diversity::Error> {
//! let g = generate_zoned(
//!     &ZonedNetworkConfig {
//!         zones: 2,
//!         hosts_per_zone: 8,
//!         gateway_links: 1,
//!         mean_degree: 3,
//!         services: 2,
//!         products_per_service: 3,
//!         vendors_per_service: 2,
//!         topology: TopologyKind::Random,
//!     },
//!     3,
//! );
//! let mut engine = ShardedEngine::new(g.network, g.catalog, g.similarity);
//! let cold = engine.solve()?;
//! assert_eq!(engine.shard_count(), 2);
//!
//! // A burst confined to zone 0 pays only shard 0's rebuild + re-solve.
//! let os = engine.catalog().service_by_name("service0").unwrap();
//! let host = netmodel::HostId(2);
//! let product = engine.network().host(host).unwrap().candidates_for(os).unwrap()[0];
//! let report = engine.apply(&NetworkDelta::fix_slot(host, os, product))?;
//! assert_eq!(report.shards_touched, vec![0]);
//! assert!(report.shard_reports[1].is_none(), "zone 1 did no work");
//! // Re-optimizing never loses to carrying the old assignment forward.
//! assert!(report.improvement().unwrap() >= -1e-9);
//! # let _ = cold;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod churn;
pub mod energy;
pub mod engine;
pub mod evaluate;
pub mod journal;
pub mod metrics;
pub mod optimizer;
pub mod report;
pub mod scalability;
pub mod serve;
pub mod shard;
pub mod snapshot;

mod error;

pub use engine::{DiversityEngine, ReassignmentReport};
pub use error::Error;
pub use journal::{recover, recover_with, Journal, Recovered, RecoveryReport};
pub use optimizer::{DiversityOptimizer, OptimizedAssignment, SolverKind};
pub use serve::{
    DrainReport, EngineReport, Enqueue, ServingConfig, ServingEngine, ServingStats, WriterCore,
};
pub use shard::{ShardReport, ShardedEngine};
pub use snapshot::{Snapshot, SnapshotReader};

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, Error>;
