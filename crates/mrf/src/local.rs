//! Frontier-restricted refinement: re-solve only the region a change can
//! plausibly reach.
//!
//! After a localized model change (one host's domain, one link), the
//! previous MAP labeling is near-optimal everywhere except around the
//! change. [`MapSolver::refine_local`] exploits that: the caller supplies
//! the [`Start`] (the previous labeling and its energy), a *frontier* — the
//! variables inside a k-hop ball around the change — and a *seal*, the
//! variables that must keep their start labels. The solver restricts its
//! sweeps to the active region the unsealed frontier seeds, **expanding**
//! the region through a variable's neighbors whenever the variable flips
//! label (a flip can propagate pressure one hop further), and **falling
//! back to a full sweep** when the active region stops being local (it
//! grows past half the model — at that point masked bookkeeping costs more
//! than it saves).
//!
//! Two real implementations exist:
//!
//! * **ICM** sweeps the active set directly with the same coordinate
//!   descent as [`crate::icm::Icm::solve_from`], activating neighbors of
//!   every flipped variable and revisiting only variables whose
//!   neighborhood changed (see [`crate::icm`]). The seal is a mask on the
//!   same sweep.
//! * **TRW-S** runs message passing on a *conditioned submodel*: active
//!   variables keep their domains, edges to inactive variables fold into
//!   unaries at the inactive side's current label, and the sub-solution is
//!   spliced back (kept only if it improves the full-model energy).
//!   Boundary flips expand the region and the conditioning repeats. A
//!   frontier holding every live variable asks for the whole model, and
//!   gets a full solve.
//!
//! Every other solver inherits the default [`MapSolver::refine_local`],
//! which ignores the frontier: a full [`MapSolver::refine`] when nothing is
//! sealed — the conservative, always-correct behavior — and otherwise a
//! full refine of the submodel the seal leaves free, which TRW-S runs for
//! a seal too.
//!
//! The conditioning step itself — freeze a set of variables at given
//! labels, fold the frozen edges into the unaries of the free side, and get
//! a submodel whose energy differences equal the full model's — is exposed
//! as [`condition_submodel`] for callers that orchestrate partial solves
//! themselves (the sharded engine's boundary coordination in
//! `ics-diversity` is built on it).

use crate::model::{MrfModel, VarId};
use crate::solution::Solution;
use crate::solver::{MapSolver, SolveControl};

/// Where a [`MapSolver::refine_local`] starts: a labeling and its energy.
/// An incremental caller carries both across steps, so a localized
/// refinement never evaluates the whole model.
#[derive(Debug, Clone, PartialEq)]
pub struct Start {
    /// One label per variable slot.
    pub labels: Vec<usize>,
    /// `model.energy(&labels)`.
    pub energy: f64,
}

/// The outcome of a frontier-restricted refinement
/// ([`MapSolver::refine_local`]): the solution plus the
/// locality telemetry serving layers surface as "did the sweep stay local".
#[derive(Debug, Clone, PartialEq)]
pub struct LocalRefine {
    /// The refined solution. Its energy is never worse than the start
    /// labeling's (same contract as [`MapSolver::refine`]).
    pub solution: Solution,
    /// Variables inside the final active region (equals the model's
    /// variable count when the refinement fell back to a full sweep).
    pub swept_vars: usize,
    /// How many times the active region expanded beyond the initial
    /// frontier ball.
    pub expansions: usize,
    /// Whether the refinement abandoned locality and swept the full model.
    pub full_sweep: bool,
}

impl LocalRefine {
    /// Wraps a full-model refinement outcome (the default-impl and fallback
    /// path).
    pub fn full(solution: Solution, var_count: usize) -> LocalRefine {
        LocalRefine {
            solution,
            swept_vars: var_count,
            expansions: 0,
            full_sweep: true,
        }
    }

    /// The empty-frontier outcome: nothing to sweep, `start` returned
    /// unchanged as a converged solution at the caller's `start_energy`.
    pub fn noop(start: Vec<usize>, start_energy: f64) -> LocalRefine {
        LocalRefine {
            solution: Solution::new(start, start_energy, None, 0, true),
            swept_vars: 0,
            expansions: 0,
            full_sweep: false,
        }
    }
}

/// The mutable active-region state shared by the masked refiners: a dense
/// membership mask plus the expansion counters the telemetry reports.
pub(crate) struct ActiveRegion {
    pub(crate) mask: Vec<bool>,
    pub(crate) count: usize,
    pub(crate) expansions: usize,
}

impl ActiveRegion {
    /// Seeds the region with the frontier ball less the variables
    /// `sealed` marks (a slot mask; empty when nothing is sealed).
    /// Out-of-range and tombstoned frontier entries are ignored — they can
    /// only come from a stale caller and there is nothing local to sweep
    /// for them.
    pub(crate) fn new(model: &MrfModel, frontier: &[VarId], sealed: &[bool]) -> ActiveRegion {
        let mut mask = vec![false; model.var_count()];
        let mut count = 0;
        for &v in frontier {
            if !model.is_live(v) || sealed.get(v.0).copied().unwrap_or(false) {
                continue;
            }
            if !mask[v.0] {
                mask[v.0] = true;
                count += 1;
            }
        }
        ActiveRegion {
            mask,
            count,
            expansions: 0,
        }
    }

    /// Activates every neighbor of `v`; returns how many were new.
    pub(crate) fn activate_neighbors(&mut self, model: &MrfModel, v: usize) -> usize {
        let mut added = 0;
        for &eidx in model.incident_edges(VarId(v)) {
            let e = model.edges()[eidx as usize];
            let other = if e.a().0 == v { e.b().0 } else { e.a().0 };
            if !self.mask[other] {
                self.mask[other] = true;
                self.count += 1;
                added += 1;
            }
        }
        added
    }

    /// Whether the region has grown past the point where locality pays:
    /// more than half the model active means a masked sweep does nearly
    /// the work of a full one while still risking further expansions.
    /// (Measured against the slot count; a fragmented model trips slightly
    /// later, which only errs on the side of staying local.)
    pub(crate) fn should_fall_back(&self) -> bool {
        2 * self.count > self.mask.len()
    }
}

/// The default [`MapSolver::refine_local`] under a seal: conditions the
/// model on the `sealed` variables' start labels ([`condition_submodel`]),
/// refines the free submodel in full with [`MapSolver::refine`], and
/// splices the result back, so the sealed variables keep their labels.
pub(crate) fn refine_unsealed<S: MapSolver + ?Sized>(
    solver: &S,
    model: &MrfModel,
    mut labels: Vec<usize>,
    sealed: &[VarId],
    ctl: &SolveControl,
) -> LocalRefine {
    assert_eq!(labels.len(), model.var_count(), "labeling arity mismatch");
    let mut active = vec![true; model.var_count()];
    for v in sealed {
        if let Some(a) = active.get_mut(v.0) {
            *a = false;
        }
    }
    let (sub, map) = condition_submodel(model, &labels, &active);
    let sub_start: Vec<usize> = map.iter().map(|&v| labels[v]).collect();
    let refined = solver.refine(&sub, sub_start, ctl);
    for (i, &orig) in map.iter().enumerate() {
        labels[orig] = refined.labels()[i];
    }
    let energy = model.energy(&labels);
    LocalRefine {
        solution: Solution::new(
            labels,
            energy,
            None,
            refined.iterations(),
            refined.converged(),
        ),
        swept_vars: map.len(),
        expansions: 0,
        full_sweep: true,
    }
}

/// Builds the submodel conditioned on `labels` outside `active`: one
/// variable per active variable (same label count, ascending original
/// order), unaries augmented with the pairwise cost against each inactive
/// neighbor's current label, and a dense edge per original edge whose
/// endpoints are both active. Returns the submodel and the map from
/// sub-variable index to original variable index.
///
/// For any labeling `x` that agrees with `labels` outside `active`,
/// `E_full(x) = E_sub(x|active) + C` for a constant `C` (the inactive
/// unaries and inactive-inactive edges) — so minimizing the submodel
/// minimizes the full model over the active coordinates.
///
/// This is the boundary-freezing mechanism behind the TRW-S
/// [`MapSolver::refine_local`] implementation, exposed for
/// callers that coordinate partial solves themselves — e.g. a shard
/// coordinator that freezes the neighboring shards' boundary labels, solves
/// its own region, and splices the result back (keeping it only if the full
/// energy improved).
///
/// # Panics
///
/// Panics (in debug builds) if `labels` or `active` do not match the
/// model's variable count, and for out-of-range labels at inactive
/// variables adjacent to active ones.
///
/// ```
/// use mrf::local::condition_submodel;
/// use mrf::model::MrfModel;
///
/// # fn main() -> Result<(), mrf::Error> {
/// // A 3-chain: x0 — x1 — x2, each edge preferring agreement.
/// let mut model = MrfModel::new();
/// let vars: Vec<_> = (0..3).map(|_| model.add_var(2)).collect::<Result<_, _>>()?;
/// for w in vars.windows(2) {
///     model.add_pairwise_dense(w[0], w[1], vec![0.0, 1.0, 1.0, 0.0])?;
/// }
///
/// // Freeze x0 = 1 and x2 = 1; condition the middle variable on them.
/// let labels = vec![1, 0, 1];
/// let active = vec![false, true, false];
/// let (sub, map) = condition_submodel(&model, &labels, &active);
/// assert_eq!(map, vec![1]);
/// assert_eq!(sub.var_count(), 1);
/// // Disagreeing with both frozen neighbors costs 2, agreeing costs 0 —
/// // the frozen edges were folded into x1's unary.
/// assert_eq!(sub.unary(mrf::VarId(0)), &[2.0, 0.0]);
/// // Energy differences transfer exactly: E_full(x) - E_sub(x|active) is
/// // constant over labelings agreeing with `labels` outside `active`.
/// let e_sub = |l: usize| sub.energy(&[l]);
/// let e_full = |l: usize| model.energy(&[1, l, 1]);
/// assert_eq!(e_full(1) - e_full(0), e_sub(1) - e_sub(0));
/// # Ok(())
/// # }
/// ```
pub fn condition_submodel(
    model: &MrfModel,
    labels: &[usize],
    active: &[bool],
) -> (MrfModel, Vec<usize>) {
    debug_assert_eq!(labels.len(), model.var_count());
    debug_assert_eq!(active.len(), model.var_count());
    let mut sub_index = vec![usize::MAX; model.var_count()];
    let mut map = Vec::new();
    let mut sub = MrfModel::new();
    for i in 0..model.var_count() {
        // Tombstoned slots are conditioned out like inactive variables;
        // they contribute no energy at any label.
        if !active[i] || !model.is_live(VarId(i)) {
            continue;
        }
        sub_index[i] = map.len();
        map.push(i);
        let v = sub
            .add_var(model.labels(VarId(i)))
            .expect("a live variable has labels");
        let mut unary = model.unary(VarId(i)).to_vec();
        for &eidx in model.incident_edges(VarId(i)) {
            let e = model.edges()[eidx as usize];
            let (other, i_is_a) = if e.a().0 == i {
                (e.b().0, true)
            } else {
                (e.a().0, false)
            };
            if active[other] {
                continue; // becomes a sub-edge below
            }
            let xo = labels[other];
            for (x, u) in unary.iter_mut().enumerate() {
                *u += if i_is_a {
                    model.edge_cost(&e, x, xo)
                } else {
                    model.edge_cost(&e, xo, x)
                };
            }
        }
        sub.set_unary(v, unary)
            .expect("fresh variable accepts its own arity");
    }
    for e in model.edges() {
        if !e.is_live() {
            continue;
        }
        let (a, b) = (e.a().0, e.b().0);
        if !active[a] || !active[b] {
            continue;
        }
        let (la, lb) = (model.labels(e.a()), model.labels(e.b()));
        let mut costs = Vec::with_capacity(la * lb);
        for xa in 0..la {
            for xb in 0..lb {
                costs.push(model.edge_cost(e, xa, xb));
            }
        }
        sub.add_pairwise_dense(VarId(sub_index[a]), VarId(sub_index[b]), costs)
            .expect("active endpoints were added in order");
    }
    (sub, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icm::Icm;
    use crate::order::SolveScratch;
    use crate::trws::Trws;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctl() -> SolveControl {
        SolveControl::new()
    }

    /// `solver.refine_local` from `start` (energy evaluated) with a fresh
    /// scratch.
    fn refine(
        solver: &dyn MapSolver,
        m: &MrfModel,
        start: &[usize],
        frontier: &[VarId],
        sealed: &[VarId],
    ) -> LocalRefine {
        let start = Start {
            labels: start.to_vec(),
            energy: m.energy(start),
        };
        solver.refine_local(m, start, frontier, sealed, &ctl(), &mut SolveScratch::new())
    }

    /// An attractive (Potts) chain whose optimum is all-ones: var 0 is
    /// strongly biased to 1, every other variable weakly so, and adjacent
    /// variables pay 1.0 for disagreeing. From an all-zeros start each flip
    /// *strictly* improves its successor's conditional energy, so a
    /// correction wave propagates one hop per activation — the expansion
    /// workload (strict, so greedy descent cannot stall on a tie).
    fn biased_chain(n: usize) -> MrfModel {
        let mut m = MrfModel::new();
        let vars: Vec<_> = (0..n).map(|_| m.add_var(2).unwrap()).collect();
        m.set_unary(vars[0], vec![10.0, 0.0]).unwrap();
        for &v in &vars[1..] {
            m.set_unary(v, vec![0.1, 0.0]).unwrap();
        }
        for w in vars.windows(2) {
            m.add_pairwise_dense(w[0], w[1], vec![0.0, 1.0, 1.0, 0.0])
                .unwrap();
        }
        m
    }

    #[test]
    fn conditioned_submodel_preserves_energy_differences() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = MrfModel::new();
        let vars: Vec<_> = (0..8).map(|_| m.add_var(3).unwrap()).collect();
        for &v in &vars {
            m.set_unary(v, (0..3).map(|_| rng.gen_range(0.0..2.0)).collect())
                .unwrap();
        }
        for i in 0..8 {
            m.add_pairwise_dense(
                vars[i],
                vars[(i + 1) % 8],
                (0..9).map(|_| rng.gen_range(0.0..2.0)).collect(),
            )
            .unwrap();
        }
        let labels: Vec<usize> = (0..8).map(|_| rng.gen_range(0..3)).collect();
        let mut active = vec![false; 8];
        for i in [2usize, 3, 4] {
            active[i] = true;
        }
        let (sub, map) = condition_submodel(&m, &labels, &active);
        assert_eq!(map, vec![2, 3, 4]);
        assert_eq!(sub.var_count(), 3);
        // E_full and E_sub must differ by the same constant for any two
        // labelings that agree outside the active set.
        let sub_labels_a: Vec<usize> = map.iter().map(|&i| labels[i]).collect();
        let mut labels_b = labels.clone();
        labels_b[3] = (labels[3] + 1) % 3;
        let sub_labels_b: Vec<usize> = map.iter().map(|&i| labels_b[i]).collect();
        let diff_full = m.energy(&labels_b) - m.energy(&labels);
        let diff_sub = sub.energy(&sub_labels_b) - sub.energy(&sub_labels_a);
        assert!((diff_full - diff_sub).abs() < 1e-12);
    }

    #[test]
    fn icm_local_expands_until_the_wave_settles() {
        // Start from all-zeros (bad: var 0 pays the 10.0 bias and every
        // variable its weak bias). Frontier = var 0 only; fixing it flips
        // var 1, which flips var 2, … the expansion must carry the wave
        // (and, the wave covering the whole chain, eventually hand off to
        // the full-sweep fallback).
        let n = 12;
        let m = biased_chain(n);
        let start = vec![0usize; n];
        let out = refine(&Icm::default(), &m, &start, &[VarId(0)], &[]);
        assert!(out.solution.energy() < m.energy(&start));
        assert_eq!(out.solution.energy(), 0.0, "optimum is all-ones");
        assert!(out.expansions > 0, "the wave must have expanded the region");
        assert!(out.solution.labels().iter().all(|&l| l == 1));
    }

    #[test]
    fn icm_local_stays_local_when_the_change_is_contained() {
        // A long chain that is already optimal except at the far end: the
        // active region must not grow to cover the model.
        let n = 40;
        let m = biased_chain(n);
        let mut start = vec![1usize; n];
        start[n - 1] = 0; // one local defect
        let out = refine(&Icm::default(), &m, &start, &[VarId(n - 1)], &[]);
        assert_eq!(out.solution.energy(), 0.0);
        assert!(!out.full_sweep);
        assert!(
            out.swept_vars < n / 2,
            "swept {} of {} vars for a one-variable defect",
            out.swept_vars,
            n
        );
    }

    #[test]
    fn local_refiners_never_return_worse_than_start() {
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..10 {
            let mut m = MrfModel::new();
            let n = 10;
            let vars: Vec<_> = (0..n).map(|_| m.add_var(3).unwrap()).collect();
            for &v in &vars {
                m.set_unary(v, (0..3).map(|_| rng.gen_range(0.0..2.0)).collect())
                    .unwrap();
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.3) {
                        m.add_pairwise_dense(
                            vars[i],
                            vars[j],
                            (0..9).map(|_| rng.gen_range(0.0..2.0)).collect(),
                        )
                        .unwrap();
                    }
                }
            }
            let start: Vec<usize> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            let start_energy = m.energy(&start);
            let frontier = [VarId(rng.gen_range(0..n))];
            for solver in [&Icm::default() as &dyn MapSolver, &Trws::default()] {
                let out = refine(solver, &m, &start, &frontier, &[]);
                assert!(
                    out.solution.energy() <= start_energy + 1e-12,
                    "trial {trial}: {} worsened the start",
                    solver.name()
                );
                assert_eq!(out.solution.labels().len(), n);
            }
        }
    }

    #[test]
    fn oversized_frontier_falls_back_to_a_full_sweep() {
        let n = 6;
        let m = biased_chain(n);
        let frontier: Vec<VarId> = (0..n).map(VarId).collect();
        let start = vec![0usize; n];
        let out = refine(&Icm::default(), &m, &start, &frontier, &[]);
        assert!(out.full_sweep);
        assert_eq!(out.swept_vars, n);
        assert_eq!(out.solution.energy(), 0.0);
    }

    #[test]
    fn trws_local_fixes_a_defect_through_conditioning() {
        let n = 30;
        let m = biased_chain(n);
        let mut start = vec![1usize; n];
        start[14] = 0; // defect mid-chain
        let out = refine(&Trws::default(), &m, &start, &[VarId(14)], &[]);
        assert_eq!(out.solution.energy(), 0.0);
        assert!(!out.full_sweep, "a mid-chain defect must be fixed locally");
        assert!(out.swept_vars < n);
    }

    #[test]
    fn trws_whole_model_frontier_is_a_full_refine() {
        // Seven of twelve slots tombstoned: the past-half rule alone would
        // keep a frontier of every live variable local.
        let n = 12;
        let mut m = biased_chain(n);
        for v in 0..7 {
            m.remove_var(VarId(v)).unwrap();
        }
        let live: Vec<VarId> = m.live_vars().collect();
        let start = vec![0usize; n];
        let out = refine(&Trws::default(), &m, &start, &live, &[]);
        assert!(out.full_sweep);
        assert_eq!(out.swept_vars, live.len());
        assert_eq!(out.solution, Trws::default().refine(&m, start, &ctl()));
    }

    #[test]
    fn empty_frontier_is_a_no_op() {
        let m = biased_chain(5);
        let start = vec![0usize; 5];
        let out = refine(&Icm::default(), &m, &start, &[], &[]);
        assert_eq!(out.solution.labels(), &start[..]);
        assert_eq!(out.swept_vars, 0);
        assert!(!out.full_sweep);
    }

    #[test]
    fn sealed_variables_never_move() {
        // The all-ones wave from var 0 must stop dead at the sealed var 6:
        // everything before it flips, everything at and after it stays.
        let n = 12;
        let m = biased_chain(n);
        let start = vec![0usize; n];
        for solver in [&Icm::default() as &dyn MapSolver, &Trws::default()] {
            let out = refine(solver, &m, &start, &[VarId(0)], &[VarId(6)]);
            assert_eq!(
                out.solution.labels()[6],
                0,
                "{}: sealed variable moved",
                solver.name()
            );
            assert!(
                out.solution.energy() <= m.energy(&start) + 1e-12,
                "{}: energy contract broken",
                solver.name()
            );
            // The wave reached the seal from the left...
            assert!(out.solution.labels()[..6].iter().all(|&l| l == 1));
            // ...and could not jump it: var 7 pays 1.0 to disagree with the
            // frozen var 6 but only saves its 0.1 bias, so it stays 0.
            assert!(out.solution.labels()[7..].iter().all(|&l| l == 0));
        }
    }

    #[test]
    fn sealed_refinement_survives_the_widening_fallback() {
        // An oversized frontier forces the ICM override onto its widened
        // (all-unsealed) path immediately; the seal must still hold.
        let n = 8;
        let m = biased_chain(n);
        let frontier: Vec<VarId> = (0..n).map(VarId).collect();
        let start = vec![0usize; n];
        let out = refine(&Icm::default(), &m, &start, &frontier, &[VarId(3)]);
        assert!(out.full_sweep);
        assert_eq!(out.swept_vars, n - 1, "everything but the sealed var");
        assert_eq!(out.solution.labels()[3], 0);
        assert!(out.solution.labels()[..3].iter().all(|&l| l == 1));
    }

    #[test]
    fn empty_seal_matches_refine_local() {
        // A one-variable defect at the far end of a long chain, and a seal
        // at the other end that the correction never reaches: the sealed
        // descent matches the unsealed one step for step.
        let n = 40;
        let m = biased_chain(n);
        let mut start = vec![1usize; n];
        start[n - 1] = 0;
        let unsealed = refine(&Icm::default(), &m, &start, &[VarId(n - 1)], &[]);
        let sealed = refine(&Icm::default(), &m, &start, &[VarId(n - 1)], &[VarId(0)]);
        assert!(!unsealed.full_sweep);
        assert_eq!(unsealed.solution.energy(), 0.0);
        assert_eq!(sealed, unsealed);
    }
}
