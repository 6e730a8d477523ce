//! Discrete pairwise Markov Random Fields and anytime MAP solvers.
//!
//! Section V of the DSN 2020 paper *"Scalable Approach to Enhancing ICS
//! Resilience by Network Diversity"* casts optimal product assignment as MAP
//! inference in a discrete pairwise MRF, minimized with the sequential
//! tree-reweighted message passing algorithm (**TRW-S**, Kolmogorov). This
//! crate is a self-contained implementation of that machinery, unified
//! behind one open interface:
//!
//! * [`solver`] — the [`MapSolver`] trait every solver implements:
//!   `solve(&model, &SolveControl)` with a wall-clock deadline honored at
//!   iteration granularity with anytime (best-so-far) semantics. Also home to
//!   [`solver::ExactFallback`], which composes exact elimination with an
//!   approximate fallback and records *why* the fallback fired.
//! * [`model`] — the energy function: variables with finite label sets,
//!   per-variable unary costs, and pairwise potentials on edges. Potentials
//!   are *shared*: thousands of edges can reference one cost matrix, which
//!   is what keeps 6000-host × 25-service instances (several million MRF
//!   edges) in memory. Models are **mutable with stable variable handles**
//!   (tombstones + free lists): incremental pipelines edit variables and
//!   factors in place after a localized change instead of reassembling the
//!   whole model — see the module docs and the example below.
//! * [`trws`] — sequential tree-reweighted message passing with a certified
//!   lower bound; exact on trees, state-of-the-art approximate on loopy
//!   graphs. The paper (§V-C) names loopy BP only as an alternative. On
//!   the diversity energy BP stopped at its unary-argmin start, so this
//!   crate has none (see the README's "Deviations from the paper").
//! * [`icm`] — iterated conditional modes, a fast greedy baseline and the
//!   warm-start refiner other solvers build on.
//! * [`ils`] — iterated local search, the refinement stage that closes the
//!   primal gap the message-passing decode leaves on frustrated energies.
//! * [`projection`] — projecting a stale labeling onto a rebuilt model, the
//!   safe warm-start path for incremental re-solves.
//! * [`local`] — frontier-restricted refinement
//!   ([`MapSolver::refine_local`]): masked sweeps around a localized
//!   change that leave a sealed set of variables alone, expanding while
//!   labels keep flipping, with a full-sweep fallback. Exposes
//!   [`condition_submodel`], the freeze-and-fold mechanism shard
//!   coordinators build on.
//! * [`elimination`] — exact MAP by min-sum bucket elimination, feasible
//!   whenever the instance's treewidth is small (the ICS case study is).
//! * [`exhaustive`] — brute force, the test oracle for small instances.
//! * [`solution`] — the decoded labeling with energy and bound diagnostics.
//! * [`order`] — the shared hot-loop substrate: [`SolveScratch`] (flat
//!   SoA message arena, precomputed edge-slot offsets, monotone-chain
//!   ordering; warm re-solves allocate nothing).
//!
//! Every solver runs on the calling thread; this crate spawns none. Callers
//! that want parallelism run independent solves on threads they own.
//!
//! # Quick start
//!
//! ```
//! use mrf::model::MrfModel;
//! use mrf::solver::{MapSolver, SolveControl};
//! use mrf::trws::Trws;
//!
//! # fn main() -> Result<(), mrf::Error> {
//! // Two variables with two labels each; disagreeing labels are cheaper.
//! let mut model = MrfModel::new();
//! let x = model.add_var(2)?;
//! let y = model.add_var(2)?;
//! model.add_pairwise_dense(x, y, vec![1.0, 0.0, 0.0, 1.0])?; // cost(xa, xb)
//!
//! let solution = Trws::default().solve(&model, &SolveControl::new());
//! assert_ne!(solution.labels()[0], solution.labels()[1]);
//! assert_eq!(solution.energy(), 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Budgets
//!
//! ```
//! use std::time::Duration;
//! use mrf::model::MrfModel;
//! use mrf::solver::{ExactFallback, MapSolver, SolveControl};
//!
//! # fn main() -> Result<(), mrf::Error> {
//! let mut model = MrfModel::new();
//! let vars: Vec<_> = (0..10).map(|_| model.add_var(3)).collect::<Result<_, _>>()?;
//! for w in vars.windows(2) {
//!     model.add_pairwise_dense(w[0], w[1], vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])?;
//! }
//!
//! // Exact elimination under a 100 ms budget. A chain has treewidth one,
//! // so elimination certifies the optimum and the TRW-S fallback never
//! // fires.
//! let ctl = SolveControl::new().with_budget(Duration::from_millis(100));
//! let solver = ExactFallback::default();
//! let solution = solver.solve(&model, &ctl);
//! assert_eq!(solution.energy(), 0.0);
//! assert!(solver.fallback_cause().is_none());
//! # Ok(())
//! # }
//! ```
//!
//! # Mutable models: build, mutate, re-solve
//!
//! A model is built and edited through one API: [`MrfModel`]'s
//! `add_var` / `remove_var` / `set_unary` / `add_pairwise` /
//! `remove_pairwise` mutators, whose handles stay stable across mutations
//! of *other* variables (removal tombstones a slot; a free list recycles
//! it). Solvers sweep live variables only, and the previous solution
//! remains a valid warm start because labeling arity is the slot count:
//!
//! ```
//! use mrf::model::MrfModel;
//! use mrf::solver::{MapSolver, SolveControl};
//! use mrf::trws::Trws;
//!
//! # fn main() -> Result<(), mrf::Error> {
//! // Build: a 3-chain preferring disagreement along each edge.
//! let mut model = MrfModel::new();
//! let vars: Vec<_> = (0..3).map(|_| model.add_var(2)).collect::<Result<_, _>>()?;
//! for w in vars.windows(2) {
//!     model.add_pairwise_dense(w[0], w[1], vec![1.0, 0.0, 0.0, 1.0])?;
//! }
//! let ctl = SolveControl::new();
//! let first = Trws::default().solve(&model, &ctl);
//! assert_eq!(first.energy(), 0.0);
//!
//! // Mutate: drop the middle variable (its edges go with it), grow a new
//! // one linked to both survivors. Handles of untouched variables — and
//! // their labels in `first` — stay valid; the tombstoned slot is reused.
//! model.remove_var(vars[1])?;
//! let fresh = model.add_var(2)?;
//! assert_eq!(fresh, vars[1]);
//! model.add_pairwise_dense(vars[0], fresh, vec![1.0, 0.0, 0.0, 1.0])?;
//! model.add_pairwise_dense(fresh, vars[2], vec![1.0, 0.0, 0.0, 1.0])?;
//! model.set_unary(fresh, vec![0.0, 0.1])?;
//!
//! // Re-solve warm from the previous labeling.
//! let second = Trws::default().refine(&model, first.labels().to_vec(), &ctl);
//! assert_eq!(second.energy(), 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod elimination;
pub mod exhaustive;
pub mod icm;
pub mod ils;
pub mod local;
pub mod model;
pub mod order;
pub mod projection;
pub mod solution;
pub mod solver;
pub mod trws;

mod error;

pub use error::Error;
pub use local::{condition_submodel, LocalRefine, Start};
pub use model::{EdgeId, MrfModel, PotentialId, UnaryOverlay, VarId};
pub use order::SolveScratch;
pub use solution::Solution;
pub use solver::{ExactFallback, MapSolver, SolveControl};

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, Error>;
