//! Exact MAP by min-sum bucket (variable) elimination.
//!
//! Eliminates variables one by one in a greedy min-degree order: all cost
//! tables mentioning the variable are summed into one, the variable is
//! minimized out (recording argmins for back-substitution), and the reduced
//! table joins the pool. For a graph of induced width `w` the cost is
//! `O(n · L^(w+1))` — exponential in the treewidth but *exact*, which makes
//! this the solver of choice for structured instances like the paper's ICS
//! case study (sparse zone rings bridged by a few firewall links), where
//! message passing leaves an integrality gap.
//!
//! The eliminator refuses instances whose intermediate tables would exceed
//! a configurable cap, so callers can fall back to TRW-S.

use std::collections::BTreeSet;

use crate::model::{MrfModel, VarId};
use crate::solution::Solution;
use crate::solver::{best_effort, MapSolver, SolveControl};
use crate::{Error, Result};

/// Options for the exact eliminator.
#[derive(Debug, Clone, PartialEq)]
pub struct EliminationOptions {
    /// Maximum number of entries any intermediate table may reach. The
    /// default (16M) corresponds to induced width ≈ 12 at 4 labels.
    pub max_table_entries: usize,
}

impl Default for EliminationOptions {
    fn default() -> EliminationOptions {
        EliminationOptions {
            max_table_entries: 16_000_000,
        }
    }
}

/// The exact min-sum eliminator.
#[derive(Debug, Clone, Default)]
pub struct Elimination {
    options: EliminationOptions,
}

/// A cost table over a sorted scope of variables (row-major, last variable
/// fastest).
#[derive(Debug, Clone)]
struct CostTable {
    scope: Vec<usize>,
    cards: Vec<usize>,
    costs: Vec<f64>,
}

impl CostTable {
    fn index_of(&self, assignment: &[usize]) -> usize {
        let mut idx = 0;
        for (v, c) in assignment.iter().zip(&self.cards) {
            idx = idx * c + v;
        }
        idx
    }
}

/// Record kept per eliminated variable for back-substitution.
struct EliminationRecord {
    var: usize,
    scope: Vec<usize>,
    cards: Vec<usize>,
    argmin: Vec<u32>,
}

impl Elimination {
    /// Creates an eliminator with the given options.
    pub fn new(options: EliminationOptions) -> Elimination {
        Elimination { options }
    }

    /// Solves `model` to global optimality, with the error surface exposed.
    ///
    /// # Errors
    ///
    /// * [`Error::TreewidthExceeded`] — an intermediate table would exceed
    ///   the configured cap; the model is untouched and the caller can fall
    ///   back to an approximate solver.
    /// * [`Error::Interrupted`] — the control's deadline passed
    ///   mid-elimination (checked once per eliminated variable).
    ///   Elimination has no meaningful partial labeling, so this surfaces
    ///   as an error rather than a degraded solution; the [`MapSolver`]
    ///   impl and [`crate::solver::ExactFallback`] translate it into a
    ///   best-effort fallback.
    pub fn solve_exact(&self, model: &MrfModel, ctl: &SolveControl) -> Result<Solution> {
        let n = model.var_count();
        if model.live_var_count() == 0 {
            let labels = vec![0usize; n];
            let energy = model.energy(&labels);
            return Ok(Solution::new(labels, energy, Some(energy), 0, true));
        }
        // Initial tables: unaries and pairwise potentials (live slots only;
        // tombstones carry no cost and keep label 0 in the output).
        let mut tables: Vec<CostTable> = Vec::with_capacity(n + model.edge_count());
        for v in model.live_vars() {
            tables.push(CostTable {
                scope: vec![v.0],
                cards: vec![model.labels(v)],
                costs: model.unary(v).to_vec(),
            });
        }
        for (_, e) in model.live_edges() {
            let (a, b) = (e.a().0, e.b().0);
            let (la, lb) = (model.labels(e.a()), model.labels(e.b()));
            let mut costs = Vec::with_capacity(la * lb);
            // Scope must be sorted: (a, b) with a < b holds by construction.
            for xa in 0..la {
                for xb in 0..lb {
                    costs.push(model.edge_cost(e, xa, xb));
                }
            }
            tables.push(CostTable {
                scope: vec![a, b],
                cards: vec![la, lb],
                costs,
            });
        }

        let mut records: Vec<EliminationRecord> = Vec::with_capacity(n);
        let mut remaining: BTreeSet<usize> = model.live_vars().map(|v| v.0).collect();
        let mut constant = 0.0f64;

        while let Some(var) = pick_min_degree(&tables, &remaining) {
            if ctl.should_stop() {
                return Err(Error::Interrupted);
            }
            remaining.remove(&var);
            let (mentioning, rest): (Vec<CostTable>, Vec<CostTable>) =
                tables.into_iter().partition(|t| t.scope.contains(&var));
            tables = rest;
            // Combined scope minus the eliminated variable, sorted.
            let mut scope: Vec<usize> = mentioning
                .iter()
                .flat_map(|t| t.scope.iter().copied())
                .filter(|&v| v != var)
                .collect();
            scope.sort_unstable();
            scope.dedup();
            let cards: Vec<usize> = scope.iter().map(|&v| model.labels(VarId(v))).collect();
            let out_size: usize = cards.iter().product();
            let var_card = model.labels(VarId(var));
            if out_size.saturating_mul(var_card) > self.options.max_table_entries {
                return Err(Error::TreewidthExceeded {
                    entries: out_size.saturating_mul(var_card),
                    limit: self.options.max_table_entries,
                });
            }
            let mut costs = vec![f64::INFINITY; out_size];
            let mut argmin = vec![0u32; out_size];
            // Enumerate the reduced scope; for each configuration minimize
            // over the eliminated variable.
            let mut assignment = vec![0usize; scope.len()];
            let mut sub_assignments: Vec<Vec<usize>> = mentioning
                .iter()
                .map(|t| vec![0usize; t.scope.len()])
                .collect();
            // Positions of each table's scope vars within (scope + var).
            for out_idx in 0..out_size {
                // Decode out_idx into `assignment` (row-major).
                let mut rem = out_idx;
                for pos in (0..scope.len()).rev() {
                    assignment[pos] = rem % cards[pos];
                    rem /= cards[pos];
                }
                let mut best = f64::INFINITY;
                let mut best_label = 0u32;
                for xv in 0..var_card {
                    let mut total = 0.0;
                    for (t, sub) in mentioning.iter().zip(&mut sub_assignments) {
                        for (pos, &sv) in t.scope.iter().enumerate() {
                            sub[pos] = if sv == var {
                                xv
                            } else {
                                assignment[scope.binary_search(&sv).expect("scoped var")]
                            };
                        }
                        total += t.costs[t.index_of(sub)];
                    }
                    if total < best {
                        best = total;
                        best_label = xv as u32;
                    }
                }
                costs[out_idx] = best;
                argmin[out_idx] = best_label;
            }
            records.push(EliminationRecord {
                var,
                scope: scope.clone(),
                cards: cards.clone(),
                argmin,
            });
            if scope.is_empty() {
                constant += costs[0];
            } else {
                tables.push(CostTable {
                    scope,
                    cards,
                    costs,
                });
            }
        }
        // Any leftover empty-scope tables contribute constants.
        for t in &tables {
            debug_assert!(t.scope.is_empty());
            constant += t.costs.first().copied().unwrap_or(0.0);
        }

        // Back-substitution in reverse elimination order.
        let mut labels = vec![0usize; n];
        for rec in records.iter().rev() {
            let mut idx = 0usize;
            for (&sv, &c) in rec.scope.iter().zip(&rec.cards) {
                idx = idx * c + labels[sv];
            }
            labels[rec.var] = rec.argmin[idx] as usize;
        }
        let energy = model.energy(&labels);
        debug_assert!(
            (energy - constant).abs() < 1e-6 * energy.abs().max(1.0),
            "back-substituted energy {energy} disagrees with eliminated optimum {constant}"
        );
        Ok(Solution::new(labels, energy, Some(constant), 1, true))
    }
}

impl MapSolver for Elimination {
    fn name(&self) -> String {
        "elimination".to_string()
    }

    /// Exact elimination with a silent best-effort degradation: when the
    /// treewidth cap or the budget is hit, a bounded greedy descent from the
    /// unary argmin is returned (`converged() == false`, no bound). Use
    /// [`Elimination::solve_exact`] for the error surface, or
    /// [`crate::solver::ExactFallback`] to both fall back *and* record why.
    fn solve(&self, model: &MrfModel, ctl: &SolveControl) -> Solution {
        match self.solve_exact(model, ctl) {
            Ok(solution) => solution,
            Err(_) => best_effort(model, ctl),
        }
    }
}

/// Greedy min-degree: the remaining variable co-occurring with the fewest
/// other remaining variables.
fn pick_min_degree(tables: &[CostTable], remaining: &BTreeSet<usize>) -> Option<usize> {
    let mut best: Option<(usize, usize)> = None;
    for &v in remaining {
        let mut neighbors: BTreeSet<usize> = BTreeSet::new();
        for t in tables {
            if t.scope.contains(&v) {
                neighbors.extend(t.scope.iter().copied().filter(|&w| w != v));
            }
        }
        let d = neighbors.len();
        match best {
            Some((_, bd)) if bd <= d => {}
            _ => best = Some((v, d)),
        }
    }
    best.map(|(v, _)| v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Exhaustive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctl() -> SolveControl {
        SolveControl::new()
    }

    fn solve(model: &MrfModel) -> Solution {
        Elimination::default()
            .solve_exact(model, &ctl())
            .expect("within cap")
    }

    #[test]
    fn empty_and_single() {
        let s = solve(&MrfModel::new());
        assert_eq!(s.energy(), 0.0);
        let mut m = MrfModel::new();
        let x = m.add_var(3).unwrap();
        m.set_unary(x, vec![2.0, 1.0, 3.0]).unwrap();
        let s = solve(&m);
        assert_eq!(s.labels(), &[1]);
        assert_eq!(s.energy(), 1.0);
        assert!(s.is_certified_optimal(1e-12));
    }

    #[test]
    fn matches_exhaustive_on_random_loopy_graphs() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..12 {
            let mut m = MrfModel::new();
            let n = 8;
            let vars: Vec<_> = (0..n).map(|_| m.add_var(3).unwrap()).collect();
            for &v in &vars {
                m.set_unary(v, (0..3).map(|_| rng.gen_range(-2.0..2.0)).collect())
                    .unwrap();
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.4) {
                        m.add_pairwise_dense(
                            vars[i],
                            vars[j],
                            (0..9).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                        )
                        .unwrap();
                    }
                }
            }
            let exact = solve(&m);
            let brute = Exhaustive::new().solve(&m, &ctl());
            assert!(
                (exact.energy() - brute.energy()).abs() < 1e-9,
                "trial {trial}: elimination {} vs brute {}",
                exact.energy(),
                brute.energy()
            );
        }
    }

    #[test]
    fn solves_disconnected_components() {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(2).unwrap();
        let z = m.add_var(2).unwrap();
        m.set_unary(x, vec![1.0, 0.0]).unwrap();
        m.set_unary(z, vec![0.0, 1.0]).unwrap();
        m.add_pairwise_dense(x, y, vec![0.0, 1.0, 1.0, 0.0])
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.labels(), &[1, 1, 0]);
        assert_eq!(s.energy(), 0.0);
    }

    #[test]
    fn handles_parallel_edges() {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(2).unwrap();
        m.add_pairwise_dense(x, y, vec![1.0, 0.0, 0.0, 1.0])
            .unwrap();
        m.add_pairwise_dense(x, y, vec![0.0, 0.5, 0.5, 0.0])
            .unwrap();
        let s = solve(&m);
        // Disagreeing: 0 + 0.5; agreeing: 1 + 0 -> disagree wins at 0.5.
        assert_eq!(s.energy(), 0.5);
    }

    #[test]
    fn treewidth_cap_is_enforced() {
        // A clique over 12 four-label variables exceeds a tiny cap.
        let mut m = MrfModel::new();
        let vars: Vec<_> = (0..12).map(|_| m.add_var(4).unwrap()).collect();
        for i in 0..12 {
            for j in (i + 1)..12 {
                m.add_pairwise_dense(vars[i], vars[j], vec![0.0; 16])
                    .unwrap();
            }
        }
        let err = Elimination::new(EliminationOptions {
            max_table_entries: 1000,
        })
        .solve_exact(&m, &ctl())
        .unwrap_err();
        assert!(matches!(err, Error::TreewidthExceeded { .. }));
    }

    #[test]
    fn certifies_optimality() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = MrfModel::new();
        let vars: Vec<_> = (0..10).map(|_| m.add_var(2).unwrap()).collect();
        for w in vars.windows(2) {
            m.add_pairwise_dense(
                w[0],
                w[1],
                (0..4).map(|_| rng.gen_range(0.0..1.0)).collect(),
            )
            .unwrap();
        }
        let s = solve(&m);
        assert!(s.is_certified_optimal(1e-9));
    }
}
