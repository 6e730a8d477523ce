//! The network / service / product model of the diversity-assignment problem.
//!
//! This crate implements Section IV of the DSN 2020 paper *"Scalable
//! Approach to Enhancing ICS Resilience by Network Diversity"*: a network
//! `N = ⟨H, L, S, P⟩` of hosts and undirected links, where every host runs a
//! set of services and each service must be provided by exactly one product
//! chosen from a host-specific candidate set.
//!
//! * [`catalog`] — the global universe of services and products, and the
//!   per-product-pair vulnerability similarity (imported from an
//!   [`nvd::similarity::SimilarityTable`]).
//! * [`network`] — hosts, per-host service instances with candidate product
//!   sets, undirected links (CSR adjacency) and validation.
//! * [`assignment`] — the assignment `α : H × S → P` (paper Definition 3)
//!   with diversity statistics.
//! * [`constraints`] — local/global configuration constraints (Definition 4)
//!   and fixed-product (legacy host) constraints, with satisfaction checks.
//! * [`delta`] — validated, revision-counted network mutations
//!   ([`delta::NetworkDelta`]) for long-lived services whose networks churn.
//! * [`journal`] — the on-disk record codec for the write-ahead delta
//!   journal: hand-rolled JSON records with per-record CRC-32 checksums,
//!   a tolerant reader that truncates at the last valid record, and full
//!   snapshot/batch/preamble encodings for crash recovery and replay.
//! * [`partition`] — zone-aware sharding: group hosts by zone label,
//!   classify cross-zone links, compute the boundary host set, and extract
//!   per-zone sub-networks for sharded engines.
//! * [`topology`] — seeded random network generators used by the scalability
//!   analysis (Section VIII), including zoned instances
//!   ([`topology::generate_zoned`]) for sharding workloads.
//! * [`casestudy`] — the Stuxnet-inspired IT/OT converged ICS of Section VII
//!   (Fig. 3 topology, Table IV product catalogue, constraint sets C1/C2).
//! * [`strategies`] — baseline assignments: homogeneous `α_m` and uniformly
//!   random `α_r` (Table V/VI baselines).
//!
//! # Quick start
//!
//! ```
//! use netmodel::catalog::Catalog;
//! use netmodel::network::NetworkBuilder;
//!
//! # fn main() -> Result<(), netmodel::Error> {
//! let mut catalog = Catalog::new();
//! let web = catalog.add_service("web_browser");
//! let ie = catalog.add_product("IE10", web)?;
//! let chrome = catalog.add_product("Chrome50", web)?;
//!
//! let mut builder = NetworkBuilder::new();
//! let a = builder.add_host("a");
//! let b = builder.add_host("b");
//! builder.add_service(a, web, vec![ie, chrome])?;
//! builder.add_service(b, web, vec![ie, chrome])?;
//! builder.add_link(a, b)?;
//! let network = builder.build(&catalog)?;
//! assert_eq!(network.host_count(), 2);
//! assert_eq!(network.link_count(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! # Evolving a built network with delta batches
//!
//! A built network is structurally stable, not frozen: validated
//! [`delta::NetworkDelta`] mutations evolve it in place, and
//! [`network::Network::apply_batch`] absorbs a whole burst atomically —
//! every delta is validated against the state after its predecessors, and a
//! failing delta rolls the entire batch back:
//!
//! ```
//! use netmodel::catalog::Catalog;
//! use netmodel::delta::NetworkDelta;
//! use netmodel::network::NetworkBuilder;
//!
//! # fn main() -> Result<(), netmodel::Error> {
//! let mut catalog = Catalog::new();
//! let web = catalog.add_service("web_browser");
//! let ie = catalog.add_product("IE10", web)?;
//! let chrome = catalog.add_product("Chrome50", web)?;
//!
//! let mut builder = NetworkBuilder::new();
//! let a = builder.add_host("a");
//! builder.add_service(a, web, vec![ie, chrome])?;
//! let mut network = builder.build(&catalog)?;
//!
//! // One atomic burst: add a host, link it to `a`, mandate its browser.
//! let effect = network.apply_batch(
//!     &[
//!         NetworkDelta::add_host("b", vec![(web, vec![ie, chrome])], vec![a]),
//!         NetworkDelta::fix_slot(a, web, chrome),
//!     ],
//!     &catalog,
//! )?;
//! assert_eq!(effect.applied, 2);
//! assert_eq!(network.revision(), 2);
//! assert_eq!(network.link_count(), 1);
//!
//! // A batch with an invalid delta is rejected whole: revision unchanged.
//! let err = network
//!     .apply_batch(&[NetworkDelta::add_link(a, a)], &catalog)
//!     .unwrap_err();
//! assert!(matches!(err, netmodel::Error::BatchRejected { index: 0, .. }));
//! assert_eq!(network.revision(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod assignment;
pub mod casestudy;
pub mod catalog;
pub mod constraints;
pub mod delta;
pub mod journal;
pub mod network;
pub mod partition;
pub mod strategies;
pub mod topology;

mod error;
mod ids;

pub use error::Error;
pub use ids::{HostId, ProductId, ServiceId};

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, Error>;
