//! Brute-force MAP solver — the test oracle.
//!
//! Enumerates the full labeling space; only usable for tiny models, which is
//! exactly its job: certifying that the message-passing solvers find true
//! optima on instances small enough to check.

use crate::model::MrfModel;
use crate::solution::Solution;
use crate::solver::{MapSolver, SolveControl};

/// Default cap on the number of labelings [`Exhaustive`] will enumerate.
pub const DEFAULT_LIMIT: f64 = 2e7;

/// The brute-force solver.
#[derive(Debug, Clone)]
pub struct Exhaustive {
    limit: f64,
}

impl Default for Exhaustive {
    fn default() -> Exhaustive {
        Exhaustive {
            limit: DEFAULT_LIMIT,
        }
    }
}

impl Exhaustive {
    /// Creates a solver with the default search-space cap.
    pub fn new() -> Exhaustive {
        Exhaustive::default()
    }

    /// Creates a solver willing to enumerate up to `limit` labelings.
    pub fn with_limit(limit: f64) -> Exhaustive {
        Exhaustive { limit }
    }
}

/// The deadline is polled every this many evaluated labelings.
const CHECK_EVERY: u64 = 4096;

impl MapSolver for Exhaustive {
    fn name(&self) -> String {
        "exhaustive".to_string()
    }

    /// Finds the global optimum by enumeration. Honors the control's
    /// deadline every `CHECK_EVERY` labelings, returning the best labeling
    /// seen so far (uncertified, `converged() == false`) when stopped
    /// early.
    ///
    /// # Panics
    ///
    /// Panics if the labeling space exceeds the configured limit — this
    /// solver is the test oracle; do not run it on large instances.
    fn solve(&self, model: &MrfModel, ctl: &SolveControl) -> Solution {
        let space = model.search_space();
        assert!(
            space <= self.limit,
            "search space {space:.3e} exceeds exhaustive limit {:.3e}",
            self.limit
        );
        let n = model.var_count();
        if n == 0 {
            return Solution::new(Vec::new(), 0.0, Some(0.0), 0, true);
        }
        let mut current = vec![0usize; n];
        let mut best = current.clone();
        let mut best_energy = model.energy(&current);
        let mut evaluated = 1u64;
        let mut stopped = false;
        'outer: loop {
            if evaluated.is_multiple_of(CHECK_EVERY) && ctl.should_stop() {
                stopped = true;
                break 'outer;
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                current[i] += 1;
                if current[i] < model.labels(crate::VarId(i)) {
                    break;
                }
                current[i] = 0;
                i += 1;
                if i == n {
                    break 'outer;
                }
            }
            let e = model.energy(&current);
            evaluated += 1;
            if e < best_energy {
                best_energy = e;
                best = current.clone();
            }
        }
        let bound = (!stopped).then_some(best_energy);
        Solution::new(best, best_energy, bound, 1, !stopped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> SolveControl {
        SolveControl::new()
    }

    #[test]
    fn finds_global_optimum() {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(2).unwrap();
        m.set_unary(x, vec![0.0, 0.2]).unwrap();
        m.set_unary(y, vec![0.0, 0.2]).unwrap();
        // Strong disagreement preference overrides the unary pull to (0, 0).
        m.add_pairwise_dense(x, y, vec![5.0, 0.0, 0.0, 5.0])
            .unwrap();
        let s = Exhaustive::new().solve(&m, &ctl());
        assert_eq!(s.energy(), 0.2);
        assert_ne!(s.labels()[0], s.labels()[1]);
        assert_eq!(s.lower_bound(), Some(0.2));
    }

    #[test]
    fn empty_model() {
        let s = Exhaustive::new().solve(&MrfModel::new(), &ctl());
        assert_eq!(s.energy(), 0.0);
    }

    #[test]
    fn enumerates_heterogeneous_domains() {
        let mut m = MrfModel::new();
        let x = m.add_var(3).unwrap();
        let y = m.add_var(4).unwrap();
        m.set_unary(x, vec![2.0, 1.0, 3.0]).unwrap();
        m.set_unary(y, vec![5.0, 4.0, 0.5, 6.0]).unwrap();
        let s = Exhaustive::new().solve(&m, &ctl());
        assert_eq!(s.labels(), &[1, 2]);
        assert_eq!(s.energy(), 1.5);
    }

    #[test]
    #[should_panic(expected = "exceeds exhaustive limit")]
    fn refuses_huge_spaces() {
        let mut m = MrfModel::new();
        for _ in 0..40 {
            m.add_var(4).unwrap();
        }
        Exhaustive::new().solve(&m, &ctl());
    }

    #[test]
    fn custom_limit() {
        let mut m = MrfModel::new();
        m.add_var(2).unwrap();
        m.add_var(2).unwrap();
        let s = Exhaustive::with_limit(4.0).solve(&m, &ctl());
        assert_eq!(s.labels().len(), 2);
    }

    #[test]
    fn every_solver_agrees_on_a_tombstoned_model() {
        // Mutate a model (leaving a tombstoned slot mid-array) and check
        // that the whole solver suite lands on the same optimum as brute
        // force — tombstones must be invisible to sweeps, message passing,
        // elimination and the enumeration odometer alike.
        use crate::model::MrfModel;

        let mut m = MrfModel::new();
        let vars: Vec<_> = (0..5).map(|_| m.add_var(2).unwrap()).collect();
        for w in vars.windows(2) {
            m.add_pairwise_dense(w[0], w[1], vec![1.0, 0.0, 0.0, 1.0])
                .unwrap();
        }
        m.set_unary(vars[0], vec![0.0, 5.0]).unwrap();
        m.remove_var(vars[2]).unwrap();
        // Re-bridge the gap the removal left: v1 — v3 prefer disagreement
        // too, so the chain stays solvable by greedy descent.
        m.add_pairwise_dense(vars[1], vars[3], vec![1.0, 0.0, 0.0, 1.0])
            .unwrap();
        assert_eq!(m.live_var_count(), 4);

        let opt = Exhaustive::new().solve(&m, &ctl());
        // Alternating labels along the chain v0—v1—v3—v4 cost nothing.
        assert_eq!(opt.energy(), 0.0);
        let solvers: Vec<Box<dyn crate::solver::MapSolver>> = vec![
            Box::new(crate::trws::Trws::default()),
            Box::new(crate::icm::Icm::default()),
            Box::new(crate::ils::Ils::default()),
            Box::new(crate::elimination::Elimination::default()),
        ];
        for solver in &solvers {
            let s = solver.solve(&m, &ctl());
            assert_eq!(s.labels().len(), m.var_count(), "{}", solver.name());
            assert_eq!(s.energy(), opt.energy(), "{} missed", solver.name());
        }
    }
}
