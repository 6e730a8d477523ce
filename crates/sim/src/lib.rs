//! Agent-based malware-propagation simulation and mean-time-to-compromise.
//!
//! Section VII-C2 of the DSN 2020 paper *"Scalable Approach to Enhancing ICS
//! Resilience by Network Diversity"* evaluates diversified deployments with
//! a NetLogo simulation: a worm starts at an entry host and, tick by tick,
//! attempts to spread to neighbors using the zero-day exploits the attacker
//! holds (one per service type); the per-attempt success probability is
//! driven by the vulnerability similarity of the products facing each other
//! across the edge. The **mean time to compromise (MTTC)** of a target host
//! over many runs measures the resilience an assignment provides.
//!
//! This crate is a native replacement for that NetLogo model:
//!
//! * [`scenario`] — what is being simulated: entry, target, attack model
//!   parameters, tick budget.
//! * [`attacker`] — exploit-selection strategies: the paper's
//!   *sophisticated* attacker (reconnaissance first, always picks the
//!   highest-success exploit) and a *uniform* attacker ("evenly choose one")
//!   as used by the BN evaluation.
//! * [`engine`] — the seeded, deterministic tick loop with optional event
//!   traces.
//! * [`mttc`] — batched MTTC estimation, parallelized across threads.
//!
//! # Quick start
//!
//! ```
//! use netmodel::topology::{generate, RandomNetworkConfig, TopologyKind};
//! use netmodel::strategies::mono_assignment;
//! use netmodel::HostId;
//! use sim::mttc::{estimate_mttc, MttcOptions};
//! use sim::scenario::Scenario;
//!
//! let g = generate(&RandomNetworkConfig {
//!     hosts: 12, mean_degree: 3, services: 2, products_per_service: 3,
//!     vendors_per_service: 2, topology: TopologyKind::Random,
//! }, 7);
//! let scenario = Scenario::new(HostId(0), HostId(11));
//! let assignment = mono_assignment(&g.network);
//! let est = estimate_mttc(
//!     &g.network, &assignment, &g.similarity, &scenario,
//!     &MttcOptions { runs: 200, ..MttcOptions::default() },
//! );
//! assert!(est.mean_ticks().unwrap() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod attacker;
pub mod engine;
pub mod mttc;
pub mod scenario;
