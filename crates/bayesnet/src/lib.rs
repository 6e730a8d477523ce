//! Discrete Bayesian networks with exact inference, and the attack-BN
//! diversity metric of the DSN 2020 paper *"Scalable Approach to Enhancing
//! ICS Resilience by Network Diversity"* (Section VI).
//!
//! The paper evaluates a product assignment by building a Bayesian network
//! over the hosts of the network: the entry host is compromised with
//! probability 1, every other host is compromised via noisy-OR over its
//! attack edges, and the per-edge infection rate is derived from the
//! vulnerability similarity of the products facing each other across the
//! edge. The diversity metric is `dbn = P'(target) / P(target)` — the
//! compromise probability of the target *without* similarity information
//! divided by the probability *with* it (Definition 6).
//!
//! Modules:
//!
//! * [`graph`] — the generic BN: nodes, parents, tabular and noisy-OR CPTs,
//!   cycle detection.
//! * [`factor`] — discrete factors with product / marginalization / evidence
//!   reduction.
//! * [`ve`] — exact inference by variable elimination (min-fill ordering).
//! * [`sampling`] — forward sampling and likelihood weighting, used to
//!   cross-validate the exact engine.
//! * [`attack`] — construction of the attack BN from a diversified network
//!   and the [`attack::DiversityMetric`] (`dbn`).
//!
//! # Quick start: the classic sprinkler network
//!
//! ```
//! use bayesnet::graph::{BayesNet, Cpt};
//! use bayesnet::ve::VariableElimination;
//!
//! # fn main() -> Result<(), bayesnet::Error> {
//! let mut bn = BayesNet::new();
//! let rain = bn.add_node("rain", 2, vec![], Cpt::tabular(vec![0.8, 0.2]))?;
//! let sprinkler = bn.add_node(
//!     "sprinkler", 2, vec![rain],
//!     Cpt::tabular(vec![0.6, 0.4, 0.99, 0.01]),
//! )?;
//! let wet = bn.add_node(
//!     "wet", 2, vec![sprinkler, rain],
//!     Cpt::tabular(vec![1.0, 0.0, 0.2, 0.8, 0.1, 0.9, 0.01, 0.99]),
//! )?;
//! let ve = VariableElimination::new(&bn);
//! let p_wet = ve.query(wet, &[])?;
//! assert!(p_wet[1] > 0.0 && p_wet[1] < 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod attack;
pub mod factor;
pub mod graph;
pub mod sampling;
pub mod ve;

mod error;

pub use error::Error;
pub use graph::NodeId;

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, Error>;
