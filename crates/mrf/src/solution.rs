//! Decoded MAP solutions and their diagnostics.

use serde::{Deserialize, Serialize};

/// The result of running a solver: a complete labeling plus diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    labels: Vec<usize>,
    energy: f64,
    lower_bound: Option<f64>,
    iterations: usize,
    converged: bool,
}

impl Solution {
    /// Assembles a solution record.
    pub fn new(
        labels: Vec<usize>,
        energy: f64,
        lower_bound: Option<f64>,
        iterations: usize,
        converged: bool,
    ) -> Solution {
        Solution {
            labels,
            energy,
            lower_bound,
            iterations,
            converged,
        }
    }

    /// The decoded label per variable.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Consumes the solution, returning its labeling without a copy.
    pub fn into_labels(self) -> Vec<usize> {
        self.labels
    }

    /// The energy of the decoded labeling.
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// A certified lower bound on the optimal energy, if the solver provides
    /// one (TRW-S and elimination do; ICM and ILS do not).
    pub fn lower_bound(&self) -> Option<f64> {
        self.lower_bound
    }

    /// The optimality gap `energy - lower_bound`, if a bound is available.
    /// A gap of (numerically) zero certifies global optimality.
    pub fn gap(&self) -> Option<f64> {
        self.lower_bound.map(|lb| self.energy - lb)
    }

    /// Whether the gap certifies optimality within `tol`.
    pub fn is_certified_optimal(&self, tol: f64) -> bool {
        self.gap().is_some_and(|g| g.abs() <= tol)
    }

    /// Iterations the solver ran.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the solver reached its convergence criterion (as opposed to
    /// its iteration cap).
    pub fn converged(&self) -> bool {
        self.converged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_and_certification() {
        let s = Solution::new(vec![0, 1], 5.0, Some(5.0), 3, true);
        assert_eq!(s.gap(), Some(0.0));
        assert!(s.is_certified_optimal(1e-9));
        let loose = Solution::new(vec![0, 1], 5.0, Some(4.0), 3, true);
        assert_eq!(loose.gap(), Some(1.0));
        assert!(!loose.is_certified_optimal(1e-9));
        let none = Solution::new(vec![0], 5.0, None, 1, false);
        assert_eq!(none.gap(), None);
        assert!(!none.is_certified_optimal(1e-9));
    }

    #[test]
    fn accessors() {
        let s = Solution::new(vec![2, 0, 1], 1.5, None, 7, false);
        assert_eq!(s.labels(), &[2, 0, 1]);
        assert_eq!(s.energy(), 1.5);
        assert_eq!(s.iterations(), 7);
        assert!(!s.converged());
    }
}
