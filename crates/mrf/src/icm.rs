//! Iterated conditional modes — the greedy coordinate-descent baseline.
//!
//! Sweeps variables repeatedly, setting each to the label minimizing its
//! local energy given all neighbors. Monotonically decreases energy and
//! terminates at a local optimum; fast but easily trapped, which is exactly
//! why it is a useful contrast to TRW-S in the ablation benchmarks.
//!
//! A full sweep visits the live variables in ascending slot order on the
//! calling thread. TRW-S polishes each decode with the same move through
//! its prepared [`crate::order::SolveScratch`] tables (`fast_sweeps`),
//! which read contiguous potential rows instead of the model's edge list.
//!
//! The frontier-restricted sweep ([`MapSolver::refine_local`]) visits a
//! *worklist*, not the whole active region: a variable is queued when it
//! enters the region and whenever a neighbor flips, and each sweep drains
//! the queue in ascending slot order, a variable queued behind the cursor
//! waiting for the next sweep. The skipped visits are exactly the ones
//! that cannot flip: a variable's conditional costs depend only on its
//! neighbors' labels, so with none of them moved since its last visit it
//! would find its own label (or a non-improving one) again. Labels, flips,
//! sweep counts and region telemetry are therefore those of the full
//! masked sweep, at a fraction of the evaluations. The returned energy is
//! the caller's start energy plus the accepted flips' deltas, so a
//! localized refinement never evaluates the whole model.
//!
//! Sealed variables are a mask on the same sweep: never queued, never
//! activated. The one difference a seal makes is the past-half rule. With
//! nothing sealed, a region past half the variable slots hands off to a
//! full [`Icm::solve_from`]; with a seal, a region past half the live
//! unsealed variables widens to all of them and the masked sweep goes on,
//! so the seal survives the fallback.

use crate::local::{ActiveRegion, LocalRefine, Start};
use crate::model::{MrfModel, VarId};
use crate::order::{SolveScratch, Tables};
use crate::solution::Solution;
use crate::solver::{MapSolver, SolveControl};

/// Fills `cost[..labels(i)]` with variable `i`'s conditional energies given
/// `labels` and returns the argmin — the one ICM move, shared by the full
/// and the frontier-restricted sweep.
fn conditional_argmin(model: &MrfModel, labels: &[usize], i: usize, cost: &mut [f64]) -> usize {
    let v = VarId(i);
    let l = model.labels(v);
    cost[..l].copy_from_slice(model.unary(v));
    for &eidx in model.incident_edges(v) {
        let e = model.edges()[eidx as usize];
        if e.a().0 == i {
            let xb = labels[e.b().0];
            for (xa, c) in cost[..l].iter_mut().enumerate() {
                *c += model.edge_cost(&e, xa, xb);
            }
        } else {
            let xa = labels[e.a().0];
            for (xb, c) in cost[..l].iter_mut().enumerate() {
                *c += model.edge_cost(&e, xa, xb);
            }
        }
    }
    cost[..l]
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(x, _)| x)
        .unwrap_or(0)
}

/// One ICM move on variable `i` through the resolved tables: fill the
/// conditional cost from contiguous potential rows (no transpose branch)
/// and flip to the argmin if strictly better — the fast-path twin of
/// [`conditional_argmin`].
fn table_move(
    model: &MrfModel,
    t: &Tables<'_>,
    pot: &[f64],
    labels: &mut [usize],
    i: usize,
    cost: &mut [f64],
) -> bool {
    let cost = &mut cost[..t.labels(i)];
    cost.copy_from_slice(model.unary(VarId(i)));
    for &e in t.fwd(i) {
        let e = e as usize;
        let la = t.edge_la[e] as usize;
        let xb = labels[t.edge_b[e] as usize];
        let row = &pot[t.pot_ba[e] as usize + xb * la..][..la];
        for (c, &p) in cost.iter_mut().zip(row) {
            *c += p;
        }
    }
    for &e in t.bwd(i) {
        let e = e as usize;
        let lb = t.edge_lb[e] as usize;
        let xa = labels[t.edge_a[e] as usize];
        let row = &pot[t.pot_ab[e] as usize + xa * lb..][..lb];
        for (c, &p) in cost.iter_mut().zip(row) {
            *c += p;
        }
    }
    let mut best = 0usize;
    for x in 1..cost.len() {
        if cost[x] < cost[best] {
            best = x;
        }
    }
    let cur = labels[i];
    if best != cur && cost[best] < cost[cur] {
        labels[i] = best;
        true
    } else {
        false
    }
}

/// In-place slot-order ICM sweeps through the resolved tables — the
/// zero-allocation descent TRW-S uses to polish each decode. Returns
/// `(sweeps, converged)`.
pub(crate) fn fast_sweeps(
    model: &MrfModel,
    t: &Tables<'_>,
    pot: &[f64],
    labels: &mut [usize],
    cost: &mut [f64],
    max_sweeps: usize,
    ctl: &SolveControl,
) -> (usize, bool) {
    let mut sweeps = 0usize;
    for sweep in 0..max_sweeps {
        if ctl.should_stop() {
            return (sweeps, false);
        }
        sweeps = sweep + 1;
        let mut changed = false;
        for &iu in t.order {
            changed |= table_move(model, t, pot, labels, iu as usize, cost);
        }
        if !changed {
            return (sweeps, true);
        }
    }
    (sweeps, false)
}

/// Options controlling an ICM run.
#[derive(Debug, Clone, PartialEq)]
pub struct IcmOptions {
    /// Maximum number of full sweeps.
    pub max_sweeps: usize,
}

impl Default for IcmOptions {
    fn default() -> IcmOptions {
        IcmOptions { max_sweeps: 100 }
    }
}

/// The ICM solver.
#[derive(Debug, Clone, Default)]
pub struct Icm {
    options: IcmOptions,
}

impl Icm {
    /// Creates a solver with the given options.
    pub fn new(options: IcmOptions) -> Icm {
        Icm { options }
    }

    /// Runs ICM from a caller-supplied initial labeling, honoring the
    /// control's deadline at sweep granularity (the start labeling is
    /// returned unchanged if the budget is already spent).
    ///
    /// # Panics
    ///
    /// Panics if `labels` has the wrong arity or out-of-range labels.
    pub fn solve_from(
        &self,
        model: &MrfModel,
        mut labels: Vec<usize>,
        ctl: &SolveControl,
    ) -> Solution {
        assert_eq!(labels.len(), model.var_count(), "labeling arity mismatch");
        let n = model.var_count();
        if n == 0 {
            return Solution::new(labels, 0.0, None, 0, true);
        }
        let mut cost = vec![0.0f64; model.max_labels()];
        let mut sweeps = 0usize;
        let mut converged = false;
        for sweep in 0..self.options.max_sweeps {
            if ctl.should_stop() {
                break;
            }
            sweeps = sweep + 1;
            let mut changed = false;
            for i in 0..n {
                if !model.is_live(VarId(i)) {
                    continue;
                }
                let best = conditional_argmin(model, &labels, i, &mut cost);
                if best != labels[i] && cost[best] < cost[labels[i]] {
                    labels[i] = best;
                    changed = true;
                }
            }
            if !changed {
                converged = true;
                break;
            }
        }
        let energy = model.energy(&labels);
        Solution::new(labels, energy, None, sweeps, converged)
    }

    /// Masked coordinate descent from `start` over the active region the
    /// unsealed `frontier` variables seed, activating every flipped
    /// variable's unsealed neighbors, under the past-half rule of the
    /// module docs. Each sweep visits, in ascending slot order, only the
    /// queued variables, and the returned energy is `start.energy` plus the
    /// accepted flips' deltas — no pass over the whole model unless the
    /// hand-off fires.
    fn local_descent(
        &self,
        model: &MrfModel,
        start: Start,
        frontier: &[VarId],
        sealed: &[VarId],
        ctl: &SolveControl,
    ) -> LocalRefine {
        assert_eq!(
            start.labels.len(),
            model.var_count(),
            "labeling arity mismatch"
        );
        let n = model.var_count();
        let mut seal = vec![false; if sealed.is_empty() { 0 } else { n }];
        for v in sealed {
            if let Some(s) = seal.get_mut(v.0) {
                *s = true;
            }
        }
        // The region stops being local past half of `limit` variables.
        let limit = if seal.is_empty() {
            n
        } else {
            (0..n)
                .filter(|&i| !seal[i] && model.is_live(VarId(i)))
                .count()
        };
        let mut d = LocalDescent::new(model, frontier, &seal, start);
        if d.region.count == 0 {
            return LocalRefine::noop(d.labels, d.energy);
        }
        let mut full_sweep = 2 * d.region.count > limit;
        if full_sweep {
            if seal.is_empty() {
                return d.hand_off(self, model, ctl);
            }
            d.widen(model, &seal, limit);
        }
        let mut sweeps = 0usize;
        let mut converged = false;
        for sweep in 0..self.options.max_sweeps {
            if ctl.should_stop() {
                break;
            }
            sweeps = sweep + 1;
            let mut changed = false;
            let mut at = 0;
            while let Some(i) = d.work.take_from(at) {
                at = i + 1;
                let Some(added) = d.visit(model, i, &seal) else {
                    continue;
                };
                changed = true;
                if added == 0 {
                    continue;
                }
                d.region.expansions += 1;
                if 2 * d.region.count > limit {
                    // The wave stopped being local.
                    if seal.is_empty() {
                        return d.hand_off(self, model, ctl);
                    }
                    full_sweep = true;
                    d.widen(model, &seal, limit);
                }
            }
            if !changed {
                converged = true;
                break;
            }
        }
        d.finish(sweeps, converged, full_sweep)
    }
}

impl MapSolver for Icm {
    fn name(&self) -> String {
        "icm".to_string()
    }

    /// Runs ICM from the unary-argmin labeling.
    fn solve(&self, model: &MrfModel, ctl: &SolveControl) -> Solution {
        self.solve_from(model, model.unary_argmin(), ctl)
    }

    /// ICM genuinely warm-starts: descends from `start` directly.
    fn refine(&self, model: &MrfModel, start: Vec<usize>, ctl: &SolveControl) -> Solution {
        self.solve_from(model, start, ctl)
    }

    /// Masked coordinate descent over the active region (module docs). No
    /// submodel is built — the seal is just a mask on the in-place sweep,
    /// which is what makes pinned warm re-solves as cheap as unpinned
    /// ones. The sweep needs no prepared structure and ignores the scratch.
    fn refine_local(
        &self,
        model: &MrfModel,
        start: Start,
        frontier: &[VarId],
        sealed: &[VarId],
        ctl: &SolveControl,
        _scratch: &mut SolveScratch,
    ) -> LocalRefine {
        self.local_descent(model, start, frontier, sealed, ctl)
    }
}

/// The variables a masked sweep still has to visit: those whose
/// neighborhood changed since their last visit (module docs). A bitset
/// over variable slots, drained in ascending slot order.
struct Worklist {
    words: Vec<u64>,
}

impl Worklist {
    fn new(var_count: usize) -> Worklist {
        Worklist {
            words: vec![0; var_count.div_ceil(64)],
        }
    }

    fn mark(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes and returns the lowest marked slot at or after `from`.
    fn take_from(&mut self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut bits = *self.words.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                self.words[w] &= !(1 << (i % 64));
                return Some(i);
            }
            w += 1;
            bits = *self.words.get(w)?;
        }
    }
}

/// The state of one masked local descent: the active region, the worklist,
/// and the labeling with its energy carried as the start energy plus the
/// accepted flips' deltas.
struct LocalDescent {
    region: ActiveRegion,
    work: Worklist,
    labels: Vec<usize>,
    energy: f64,
    cost: Vec<f64>,
}

impl LocalDescent {
    /// Starts from `start` with every unsealed live `frontier` variable
    /// active and queued.
    fn new(model: &MrfModel, frontier: &[VarId], sealed: &[bool], start: Start) -> LocalDescent {
        let region = ActiveRegion::new(model, frontier, sealed);
        let mut work = Worklist::new(model.var_count());
        for &v in frontier {
            if region.mask.get(v.0) == Some(&true) {
                work.mark(v.0);
            }
        }
        LocalDescent {
            region,
            work,
            labels: start.labels,
            energy: start.energy,
            cost: vec![0.0f64; model.max_labels()],
        }
    }

    /// One ICM move on `i`: flips it to its conditional argmin when that is
    /// strictly better, then queues every unsealed neighbor for a revisit
    /// and activates those outside the region. Returns how many neighbors
    /// were newly activated, or `None` when `i` kept its label.
    fn visit(&mut self, model: &MrfModel, i: usize, sealed: &[bool]) -> Option<usize> {
        let best = conditional_argmin(model, &self.labels, i, &mut self.cost);
        let cur = self.labels[i];
        let improves = best != cur && self.cost[best] < self.cost[cur];
        if !improves {
            return None;
        }
        self.energy += self.cost[best] - self.cost[cur];
        self.labels[i] = best;
        let mut added = 0;
        for &eidx in model.incident_edges(VarId(i)) {
            let e = model.edges()[eidx as usize];
            let other = if e.a().0 == i { e.b().0 } else { e.a().0 };
            if sealed.get(other).copied().unwrap_or(false) {
                continue;
            }
            if !self.region.mask[other] {
                self.region.mask[other] = true;
                self.region.count += 1;
                added += 1;
            }
            self.work.mark(other);
        }
        Some(added)
    }

    /// Activates (and queues) every live unsealed variable outside the
    /// region — the sealed descent's past-half-the-model fallback.
    fn widen(&mut self, model: &MrfModel, sealed: &[bool], unsealed_total: usize) {
        for (v, active) in self.region.mask.iter_mut().enumerate() {
            if !*active && !sealed[v] && model.is_live(VarId(v)) {
                *active = true;
                self.work.mark(v);
            }
        }
        self.region.count = unsealed_total;
    }

    /// Finishes with an unmasked [`Icm::solve_from`] from where the
    /// descent got to — the unsealed past-half fallback.
    fn hand_off(self, icm: &Icm, model: &MrfModel, ctl: &SolveControl) -> LocalRefine {
        LocalRefine {
            solution: icm.solve_from(model, self.labels, ctl),
            swept_vars: model.live_var_count(),
            expansions: self.region.expansions,
            full_sweep: true,
        }
    }

    fn finish(self, sweeps: usize, converged: bool, full_sweep: bool) -> LocalRefine {
        LocalRefine {
            solution: Solution::new(self.labels, self.energy, None, sweeps, converged),
            swept_vars: self.region.count,
            expansions: self.region.expansions,
            full_sweep,
        }
    }
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

    #[test]
    fn single_variable() {
        let mut m = MrfModel::new();
        let x = m.add_var(3).unwrap();
        m.set_unary(x, vec![2.0, 0.0, 1.0]).unwrap();
        let s = Icm::default().solve(&m, &ctl());
        assert_eq!(s.labels(), &[1]);
        assert!(s.converged());
    }

    #[test]
    fn energy_never_increases_relative_to_start() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
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
            let start = m.unary_argmin();
            let start_energy = m.energy(&start);
            let s = Icm::default().solve_from(&m, start, &ctl());
            assert!(s.energy() <= start_energy + 1e-12);
        }
    }

    #[test]
    fn optimal_on_independent_variables() {
        let mut m = MrfModel::new();
        for i in 0..5 {
            let v = m.add_var(4).unwrap();
            m.set_unary(v, (0..4).map(|l| ((l + i) % 4) as f64).collect())
                .unwrap();
        }
        let s = Icm::default().solve(&m, &ctl());
        let opt = Exhaustive::new().solve(&m, &ctl());
        assert_eq!(s.energy(), opt.energy());
    }

    #[test]
    fn respects_strong_pairwise_preferences() {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(2).unwrap();
        m.set_unary(x, vec![0.0, 0.1]).unwrap();
        m.set_unary(y, vec![0.0, 0.1]).unwrap();
        m.add_pairwise_dense(x, y, vec![10.0, 0.0, 0.0, 10.0])
            .unwrap();
        let s = Icm::default().solve(&m, &ctl());
        assert_ne!(s.labels()[0], s.labels()[1]);
    }

    #[test]
    fn can_get_stuck_in_local_optimum() {
        // Frustrated symmetric start: from the all-zeros unary argmin, no
        // single flip improves, though the optimum flips both variables.
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(2).unwrap();
        m.set_unary(x, vec![0.0, 0.4]).unwrap();
        m.set_unary(y, vec![0.0, 0.4]).unwrap();
        // (0,0) -> 1.0; flipping one -> 1.4+0.0... choose costs so single
        // flips are worse but the double flip wins.
        m.add_pairwise_dense(x, y, vec![1.0, 1.1, 1.1, 0.0])
            .unwrap();
        let s = Icm::default().solve(&m, &ctl());
        let opt = Exhaustive::new().solve(&m, &ctl());
        assert_eq!(opt.labels(), &[1, 1]);
        assert!(s.energy() >= opt.energy());
        assert_eq!(s.labels(), &[0, 0], "ICM should be trapped by design here");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_panics() {
        let mut m = MrfModel::new();
        m.add_var(2).unwrap();
        Icm::default().solve_from(&m, vec![], &ctl());
    }
}
