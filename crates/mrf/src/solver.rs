//! The [`MapSolver`] trait: one uniform, budgeted API over every MAP
//! solver in this crate.
//!
//! Historically each solver exposed its own `solve` method and callers
//! dispatched by hand; scaling work (sharding, async serving) needs an
//! *open* interface instead. The contract is:
//!
//! * **Anytime semantics** — [`MapSolver::solve`] always returns a complete,
//!   in-domain labeling. If the [`SolveControl`] deadline passes, the
//!   solver stops at the next iteration boundary and returns its
//!   best-so-far labeling with `converged() == false`.
//! * **Budgets** — [`SolveControl`] carries an optional wall-clock deadline
//!   checked at iteration granularity.
//! * **Warm starts** — [`MapSolver::refine`] improves a given labeling over
//!   the whole model; [`MapSolver::refine_local`] is the one warm re-solve
//!   an incremental caller makes: a carried start labeling with its
//!   energy, the frontier around a change, the variables to leave alone,
//!   and a reusable scratch, all in one call (see [`crate::local`]).
//!
//! Solvers run on the calling thread. The trait is `Send + Sync` so that
//! callers can own solvers on threads of their own (a serving writer, one
//! scoped thread per shard).
//!
//! [`ExactFallback`] composes the exact eliminator with an approximate
//! fallback and *records why* the fallback fired instead of swallowing the
//! error — the telemetry surfaced by `ics_diversity`'s optimizer.

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::elimination::{Elimination, EliminationOptions};
use crate::icm::{Icm, IcmOptions};
use crate::local::{refine_unsealed, LocalRefine, Start};
use crate::model::{MrfModel, VarId};
use crate::order::SolveScratch;
use crate::solution::Solution;
use crate::trws::Trws;

/// A solve's optional wall-clock deadline, honored by every solver at
/// iteration granularity. A default control never stops a solver.
///
/// ```
/// use std::time::Duration;
/// use mrf::model::MrfModel;
/// use mrf::solver::{MapSolver, SolveControl};
/// use mrf::trws::Trws;
///
/// # fn main() -> Result<(), mrf::Error> {
/// let mut model = MrfModel::new();
/// let x = model.add_var(2)?;
/// let y = model.add_var(2)?;
/// model.add_pairwise_dense(x, y, vec![1.0, 0.0, 0.0, 1.0])?;
///
/// let ctl = SolveControl::new().with_budget(Duration::from_millis(50));
/// let solution = Trws::default().solve(&model, &ctl);
/// assert_ne!(solution.labels()[0], solution.labels()[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolveControl {
    deadline: Option<Instant>,
}

impl SolveControl {
    /// An unbounded control: no deadline.
    pub fn new() -> SolveControl {
        SolveControl::default()
    }

    /// Sets an absolute wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> SolveControl {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline `budget` from now.
    pub fn with_budget(self, budget: Duration) -> SolveControl {
        self.with_deadline(Instant::now() + budget)
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left until the deadline (`None` when unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The one check solvers make at each iteration boundary: whether the
    /// deadline has passed.
    pub fn should_stop(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// The uniform interface over every MAP solver.
///
/// Implementations must honor [`SolveControl`] at iteration granularity and
/// return their best-so-far labeling when stopped early (anytime
/// semantics); `solve` never panics because of a deadline.
pub trait MapSolver: Send + Sync {
    /// A short human-readable name for telemetry (e.g. `"trws"`).
    fn name(&self) -> String;

    /// Runs the solver on `model` under `ctl`, returning the best labeling
    /// found. Must return a complete, in-domain labeling even when stopped
    /// at the first iteration boundary.
    fn solve(&self, model: &MrfModel, ctl: &SolveControl) -> Solution;

    /// [`MapSolver::solve`] with a caller-owned [`SolveScratch`]: solvers
    /// that sweep through prepared structure (TRW-S) reuse the
    /// scratch's allocations across repeated solves — the
    /// engine's warm re-solve pattern. The scratch is re-prepared for
    /// `model` internally; any previous contents are irrelevant. The
    /// default ignores the scratch.
    fn solve_with(
        &self,
        model: &MrfModel,
        ctl: &SolveControl,
        scratch: &mut SolveScratch,
    ) -> Solution {
        let _ = scratch;
        self.solve(model, ctl)
    }

    /// Improves a caller-supplied labeling, returning a solution whose
    /// energy is no worse than `start`'s. The default runs a fresh
    /// [`MapSolver::solve`] and keeps the better of the two (the start on
    /// a tie); local-search solvers override it to genuinely warm-start.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `start` has the wrong arity or
    /// out-of-range labels.
    fn refine(&self, model: &MrfModel, start: Vec<usize>, ctl: &SolveControl) -> Solution {
        assert_eq!(start.len(), model.var_count(), "labeling arity mismatch");
        let fresh = self.solve(model, ctl);
        keep_better(model, start, fresh)
    }

    /// The warm re-solve: improves `start` while restricting sweeps to the
    /// *frontier* — the variables a localized model change can plausibly
    /// have affected (a k-hop ball around the change) — and never moving
    /// the `sealed` variables, which keep their start labels whatever
    /// happens. The active region expands through flipped variables'
    /// neighbors and falls back to a full sweep when it stops being local
    /// (see [`crate::local`]). A frontier holding every live variable asks
    /// for the whole model. Returns the solution plus locality telemetry
    /// ([`LocalRefine`]).
    ///
    /// `start.energy` is `model.energy(&start.labels)`, which an
    /// incremental caller already carries: solvers that track their energy
    /// by accepted moves return it plus those moves' deltas instead of
    /// re-evaluating the model. Solvers that sweep prepared structure reuse
    /// `scratch` as in [`MapSolver::solve_with`].
    ///
    /// The energy contract matches [`MapSolver::refine`]: never worse than
    /// the start. The default ignores the frontier and the scratch: with
    /// nothing sealed it runs a full `refine`, otherwise it conditions the
    /// model on the sealed variables' start labels
    /// ([`crate::local::condition_submodel`]) and refines the rest in full —
    /// always correct, never local. [`crate::icm::Icm`] and
    /// [`crate::trws::Trws`] override it with genuinely masked sweeps.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `start` has the wrong arity or
    /// out-of-range labels (project stale labelings first, e.g. via
    /// [`crate::projection::project_labels`]).
    fn refine_local(
        &self,
        model: &MrfModel,
        start: Start,
        frontier: &[VarId],
        sealed: &[VarId],
        ctl: &SolveControl,
        scratch: &mut SolveScratch,
    ) -> LocalRefine {
        let _ = (frontier, scratch);
        if sealed.is_empty() {
            let live = model.live_var_count();
            LocalRefine::full(self.refine(model, start.labels, ctl), live)
        } else {
            refine_unsealed(self, model, start.labels, sealed, ctl)
        }
    }

    /// If the most recent [`MapSolver::solve`] on this instance had to fall
    /// back from an exact method, the human-readable cause. `None` for
    /// solvers without a fallback stage (the default).
    fn fallback_cause(&self) -> Option<String> {
        None
    }
}

/// Exact elimination with a recorded, queryable fallback.
///
/// Runs [`Elimination`] first; when the instance's treewidth exceeds the
/// table cap (or the budget runs out mid-elimination), runs the fallback
/// solver instead and records the cause, retrievable via
/// [`MapSolver::fallback_cause`]. This replaces the old silent
/// `unwrap_or_else(|_| Trws::default().solve(..))` pattern.
pub struct ExactFallback {
    exact: Elimination,
    fallback: Box<dyn MapSolver>,
    cause: Mutex<Option<String>>,
}

impl fmt::Debug for ExactFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExactFallback")
            .field("fallback", &self.fallback.name())
            .field("cause", &self.fallback_cause())
            .finish()
    }
}

impl Default for ExactFallback {
    fn default() -> ExactFallback {
        ExactFallback::new(EliminationOptions::default())
    }
}

impl ExactFallback {
    /// Exact elimination with the default TRW-S fallback.
    pub fn new(options: EliminationOptions) -> ExactFallback {
        ExactFallback::with_fallback(options, Box::new(Trws::default()))
    }

    /// Exact elimination with a custom fallback solver.
    pub fn with_fallback(
        options: EliminationOptions,
        fallback: Box<dyn MapSolver>,
    ) -> ExactFallback {
        ExactFallback {
            exact: Elimination::new(options),
            fallback,
            cause: Mutex::new(None),
        }
    }
}

impl MapSolver for ExactFallback {
    fn name(&self) -> String {
        format!("exact\u{2192}{}", self.fallback.name())
    }

    fn solve(&self, model: &MrfModel, ctl: &SolveControl) -> Solution {
        *self.cause.lock().expect("fallback cause lock") = None;
        match self.exact.solve_exact(model, ctl) {
            Ok(solution) => solution,
            Err(err) => {
                *self.cause.lock().expect("fallback cause lock") = Some(err.to_string());
                self.fallback.solve(model, ctl)
            }
        }
    }

    fn fallback_cause(&self) -> Option<String> {
        self.cause.lock().expect("fallback cause lock").clone()
    }
}

/// Relative energy difference [`keep_better`] treats as rounding: two
/// labelings of equal energy can price a few ulps apart when their terms
/// sum in a different order.
const TIE_TOLERANCE: f64 = 1e-12;

/// [`MapSolver::refine`]'s keep-the-better rule: `fresh` only if it is
/// lower than `start` by more than rounding, both priced by the same
/// [`MrfModel::energy`]; otherwise `start` with `fresh`'s bound and
/// iteration count, not converged. A tie keeps the start, so a re-solve
/// that finds nothing better moves no label.
pub(crate) fn keep_better(model: &MrfModel, start: Vec<usize>, fresh: Solution) -> Solution {
    let start_energy = model.energy(&start);
    let fresh_energy = model.energy(fresh.labels());
    if fresh_energy < start_energy - TIE_TOLERANCE * start_energy.abs().max(1.0) {
        fresh
    } else {
        Solution::new(
            start,
            start_energy,
            fresh.lower_bound(),
            fresh.iterations(),
            false,
        )
    }
}

/// Clamps a labeling into the model's domains (defensive helper used by
/// solvers when seeding descent from arbitrary starts).
pub(crate) fn descent_start(model: &MrfModel) -> Vec<usize> {
    model.unary_argmin()
}

/// A budget-respecting greedy descent used as the universal "best effort
/// under a blown budget" path: a single bounded ICM from the unary argmin.
pub(crate) fn best_effort(model: &MrfModel, ctl: &SolveControl) -> Solution {
    let start = descent_start(model);
    let descended = Icm::new(IcmOptions { max_sweeps: 4 }).solve_from(model, start, ctl);
    Solution::new(
        descended.labels().to_vec(),
        descended.energy(),
        None,
        descended.iterations(),
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_var_model() -> MrfModel {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(2).unwrap();
        m.add_pairwise_dense(x, y, vec![1.0, 0.0, 0.0, 1.0])
            .unwrap();
        m
    }

    #[test]
    fn default_control_never_stops() {
        let ctl = SolveControl::new();
        assert!(!ctl.should_stop());
        assert!(ctl.remaining().is_none());
        assert!(ctl.deadline().is_none());
    }

    #[test]
    fn expired_deadline_stops() {
        let ctl = SolveControl::new().with_budget(Duration::from_secs(0));
        assert!(ctl.should_stop());
        assert_eq!(ctl.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn default_refine_keeps_better_start() {
        // A start that is already optimal must not be replaced by something
        // worse, whatever the solver does.
        let model = two_var_model();
        let ctl = SolveControl::new();
        let refined = Trws::default().refine(&model, vec![0, 1], &ctl);
        assert_eq!(refined.energy(), 0.0);
    }

    #[test]
    fn keep_better_keeps_the_start_on_a_tie() {
        // Both disagreeing labelings cost 0: a fresh solution at the same
        // energy must not replace the start, whatever energy it reports.
        let model = two_var_model();
        let fresh = Solution::new(vec![1, 0], -1e-15, Some(0.0), 3, true);
        let kept = keep_better(&model, vec![0, 1], fresh);
        assert_eq!(kept.labels(), &[0, 1]);
        assert_eq!(kept.energy(), 0.0);
        assert_eq!(kept.lower_bound(), Some(0.0));
        assert_eq!(kept.iterations(), 3);

        // Equal energies that round apart: [0, 0] prices at 0.1 + 0.2 =
        // 0.30000000000000004 and [1, 1] at 0.3 + 0.0 = 0.3.
        let mut model = MrfModel::new();
        let x = model.add_var(2).unwrap();
        let y = model.add_var(2).unwrap();
        model.set_unary(x, vec![0.1, 0.3]).unwrap();
        model.set_unary(y, vec![0.2, 0.0]).unwrap();
        assert!(model.energy(&[1, 1]) < model.energy(&[0, 0]));
        let fresh = Solution::new(vec![1, 1], model.energy(&[1, 1]), None, 1, true);
        assert_eq!(keep_better(&model, vec![0, 0], fresh).labels(), &[0, 0]);

        // A genuinely lower fresh labeling still wins.
        let fresh = Solution::new(vec![0, 1], model.energy(&[0, 1]), None, 1, true);
        assert_eq!(keep_better(&model, vec![0, 0], fresh).labels(), &[0, 1]);
    }

    #[test]
    fn exact_fallback_records_cause_only_when_firing() {
        let model = two_var_model();
        let ctl = SolveControl::new();
        let solver = ExactFallback::default();
        let solution = solver.solve(&model, &ctl);
        assert_eq!(solution.energy(), 0.0);
        assert!(
            solver.fallback_cause().is_none(),
            "no fallback on a tiny model"
        );

        // A 14-clique with 3 labels blows a tiny table cap.
        let mut clique = MrfModel::new();
        let vars: Vec<_> = (0..14).map(|_| clique.add_var(3).unwrap()).collect();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                clique
                    .add_pairwise_dense(vars[i], vars[j], vec![0.5; 9])
                    .unwrap();
            }
        }
        let capped = ExactFallback::new(EliminationOptions {
            max_table_entries: 100,
        });
        let solution = capped.solve(&clique, &ctl);
        assert_eq!(solution.labels().len(), 14);
        let cause = capped.fallback_cause().expect("fallback must fire");
        assert!(
            cause.contains("cap"),
            "cause should explain the limit: {cause}"
        );

        // A later clean solve clears the recorded cause.
        capped.solve(&model, &ctl);
        assert!(capped.fallback_cause().is_none());
    }

    #[test]
    fn trait_objects_compose() {
        let solvers: Vec<Box<dyn MapSolver>> = vec![
            Box::new(Trws::default()),
            Box::new(Icm::default()),
            Box::new(ExactFallback::default()),
        ];
        let model = two_var_model();
        let ctl = SolveControl::new();
        for solver in &solvers {
            let s = solver.solve(&model, &ctl);
            assert_eq!(s.energy(), 0.0, "{} failed", solver.name());
        }
    }
}
