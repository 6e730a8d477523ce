//! Iterated local search (ILS) refinement.
//!
//! Message passing solves the *dual* tightly, but on frustrated energies
//! (e.g. a clique that cannot be properly "colored" by the available
//! products) the decoded labeling can sit in a local optimum that no
//! single-variable move escapes. ILS is the classic remedy: repeatedly
//! *kick* the incumbent (re-randomize a small fraction of variables),
//! descend with ICM, and keep the result only if it improves. Deterministic
//! per seed.

use crate::icm::{Icm, IcmOptions};
use crate::model::{MrfModel, VarId};
use crate::solution::Solution;
use crate::solver::{MapSolver, SolveControl};

/// Options controlling an ILS refinement run.
#[derive(Debug, Clone, PartialEq)]
pub struct IlsOptions {
    /// Number of kick-and-descend rounds.
    pub kicks: usize,
    /// Fraction of variables re-randomized per kick (at least one).
    pub kick_fraction: f64,
    /// ICM sweeps per descent.
    pub sweeps: usize,
    /// Accept equal-energy results (within `1e-12`), letting the search walk
    /// plateaus of co-optimal labelings instead of stopping at the first one
    /// found. Which co-optimum the walk ends on is seed-controlled.
    pub plateau: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IlsOptions {
    fn default() -> IlsOptions {
        IlsOptions {
            kicks: 100,
            kick_fraction: 0.1,
            sweeps: 20,
            plateau: true,
            seed: 0x115,
        }
    }
}

/// A tiny deterministic RNG (SplitMix64), keeping this crate free of
/// runtime dependencies; statistical quality is ample for kick selection.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `[0, n)`; modulo bias is irrelevant here.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The ILS refiner.
#[derive(Debug, Clone, Default)]
pub struct Ils {
    options: IlsOptions,
}

impl Ils {
    /// Creates a refiner with the given options.
    pub fn new(options: IlsOptions) -> Ils {
        Ils { options }
    }
}

impl MapSolver for Ils {
    fn name(&self) -> String {
        "ils".to_string()
    }

    /// Runs ILS from the unary-argmin labeling.
    fn solve(&self, model: &MrfModel, ctl: &SolveControl) -> Solution {
        self.refine(model, model.unary_argmin(), ctl)
    }

    /// Refines `start`, returning a labeling with energy ≤ the start's.
    /// Honors the control's deadline at kick granularity; a stopped run
    /// reports `converged() == false`.
    ///
    /// # Panics
    ///
    /// Panics if `start` has the wrong arity or out-of-range labels.
    fn refine(&self, model: &MrfModel, start: Vec<usize>, ctl: &SolveControl) -> Solution {
        assert_eq!(start.len(), model.var_count(), "labeling arity mismatch");
        let live: Vec<VarId> = model.live_vars().collect();
        if live.is_empty() {
            let energy = model.energy(&start);
            return Solution::new(start, energy, None, 0, true);
        }
        let icm = Icm::new(IcmOptions {
            max_sweeps: self.options.sweeps,
        });
        let mut rng = SplitMix64::new(self.options.seed);
        let start_energy = model.energy(&start);
        let descended = icm.solve_from(model, start.clone(), ctl);
        // ICM cannot worsen its start (and under an expired budget returns
        // it unchanged); the guard keeps the anytime contract robust against
        // floating-point re-summation drift.
        let (mut best, mut best_energy) = if descended.energy() <= start_energy {
            (descended.labels().to_vec(), descended.energy())
        } else {
            (start, start_energy)
        };
        let n = live.len();
        let kick_size = ((n as f64 * self.options.kick_fraction).ceil() as usize).clamp(1, n);
        let mut kicks_run = 0usize;
        let mut stopped = false;
        for _ in 0..self.options.kicks {
            if ctl.should_stop() {
                stopped = true;
                break;
            }
            kicks_run += 1;
            let mut candidate = best.clone();
            for _ in 0..kick_size {
                let v = live[rng.below(n)];
                let labels = model.labels(v);
                candidate[v.0] = rng.below(labels);
            }
            let descended = icm.solve_from(model, candidate, ctl);
            let accept = if self.options.plateau {
                descended.energy() <= best_energy + 1e-12
            } else {
                descended.energy() < best_energy
            };
            if accept {
                best_energy = best_energy.min(descended.energy());
                best = descended.labels().to_vec();
            }
        }
        Solution::new(best, best_energy, None, kicks_run, !stopped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Exhaustive;

    /// The frustrated instance ICM alone cannot solve (see icm.rs tests).
    fn frustrated() -> MrfModel {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(2).unwrap();
        m.set_unary(x, vec![0.0, 0.4]).unwrap();
        m.set_unary(y, vec![0.0, 0.4]).unwrap();
        m.add_pairwise_dense(x, y, vec![1.0, 1.1, 1.1, 0.0])
            .unwrap();
        m
    }

    #[test]
    fn escapes_the_icm_trap() {
        let m = frustrated();
        let opt = Exhaustive::new().solve(&m, &SolveControl::new());
        let refined = Ils::default().refine(&m, vec![0, 0], &SolveControl::new());
        assert_eq!(refined.energy(), opt.energy());
        assert_eq!(refined.labels(), &[1, 1]);
    }

    #[test]
    fn never_worse_than_start() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let mut m = MrfModel::new();
            let vars: Vec<_> = (0..10).map(|_| m.add_var(3).unwrap()).collect();
            for &v in &vars {
                m.set_unary(v, (0..3).map(|_| rng.gen_range(0.0..2.0)).collect())
                    .unwrap();
            }
            for i in 0..10 {
                m.add_pairwise_dense(
                    vars[i],
                    vars[(i + 1) % 10],
                    (0..9).map(|_| rng.gen_range(0.0..2.0)).collect(),
                )
                .unwrap();
            }
            let start: Vec<usize> = (0..10).map(|_| rng.gen_range(0..3)).collect();
            let start_energy = m.energy(&start);
            let refined = Ils::default().refine(&m, start, &SolveControl::new());
            assert!(refined.energy() <= start_energy + 1e-12);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let m = frustrated();
        let a = Ils::default().refine(&m, vec![0, 0], &SolveControl::new());
        let b = Ils::default().refine(&m, vec![0, 0], &SolveControl::new());
        assert_eq!(a, b);
    }

    #[test]
    fn finds_global_optimum_on_small_frustrated_cliques() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            // K4 with 3 labels and Potts-like costs: the pigeonhole forces
            // one agreeing edge; ILS must find an optimal placement.
            let mut m = MrfModel::new();
            let vars: Vec<_> = (0..4).map(|_| m.add_var(3).unwrap()).collect();
            for i in 0..4 {
                for j in (i + 1)..4 {
                    let mut costs = vec![0.0; 9];
                    for l in 0..3 {
                        costs[l * 3 + l] = rng.gen_range(0.5..1.5);
                    }
                    m.add_pairwise_dense(vars[i], vars[j], costs).unwrap();
                }
            }
            let opt = Exhaustive::new().solve(&m, &SolveControl::new());
            // Two-variable kicks: escaping a frustrated K4 coloring needs
            // coordinated moves a single re-randomized variable cannot make.
            let ils = Ils::new(IlsOptions {
                kicks: 200,
                kick_fraction: 0.5,
                ..IlsOptions::default()
            });
            let refined = ils.refine(&m, vec![0; 4], &SolveControl::new());
            assert!(
                (refined.energy() - opt.energy()).abs() < 1e-9,
                "ils {} vs optimum {}",
                refined.energy(),
                opt.energy()
            );
        }
    }

    #[test]
    fn empty_model() {
        let m = MrfModel::new();
        let s = Ils::default().refine(&m, vec![], &SolveControl::new());
        assert_eq!(s.energy(), 0.0);
    }
}
