//! Sequential tree-reweighted message passing (TRW-S).
//!
//! Implements Kolmogorov's TRW-S with the monotonic-chain decomposition
//! implied by the variable order: edges are oriented from lower to higher
//! index, each node `i` uses the weight `γ_i = 1 / max(n_i⁺, n_i⁻)` (its
//! forward/backward edge counts), and messages are updated in a forward
//! sweep over forward edges then a backward sweep over backward edges.
//!
//! Every backward sweep also yields the **TRW lower bound** on the optimal
//! energy, computed the way Kolmogorov's reference implementation does: the
//! normalization constant subtracted from each backward message is
//! accumulated, and every node adds the leftover share of its
//! reparameterized unary `(1 − n_i⁻·γ_i)·min_x θ̂_i(x)` — the mass belonging
//! to monotonic chains that terminate at the node. On tree-structured models
//! the bound meets the decoded energy, certifying global optimality — the
//! basis of this crate's solver-validation tests.
//!
//! Labelings are decoded with the conditioned forward sweep Kolmogorov
//! recommends: node `i` picks the label minimizing its unary cost plus
//! pairwise costs to already-decoded lower neighbors plus incoming messages
//! from higher neighbors.
//!
//! The passes run over a [`crate::order::SolveScratch`]: one flat message
//! arena (forward messages first, in sweep order), CSR forward/backward
//! edge lists, and per-orientation resolved potential tables, so the hot
//! loops are branch-free linear walks and a warm re-solve allocates
//! nothing.

use std::collections::VecDeque;

use crate::icm::fast_sweeps;
use crate::local::{condition_submodel, refine_unsealed, ActiveRegion, LocalRefine, Start};
use crate::model::{MrfModel, VarId};
use crate::order::{energy_fast, SolveScratch, Tables};
use crate::solution::Solution;
use crate::solver::{keep_better, MapSolver, SolveControl};

/// Options controlling a TRW-S run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrwsOptions {
    /// Maximum number of forward+backward iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the lower-bound improvement and on the
    /// optimality gap.
    pub tolerance: f64,
    /// Number of consecutive low-improvement iterations required to declare
    /// convergence.
    pub patience: usize,
    /// ICM sweeps applied to each decoded labeling. Message passing solves
    /// the *dual* — on tie-heavy energies (constant unaries, symmetric
    /// similarity costs) the raw decode can be far from the primal optimum
    /// even at a tight bound, and a short local descent closes that gap.
    /// 0 disables polishing.
    pub polish_sweeps: usize,
}

impl Default for TrwsOptions {
    fn default() -> TrwsOptions {
        TrwsOptions {
            max_iterations: 100,
            tolerance: 1e-9,
            patience: 3,
            polish_sweeps: 8,
        }
    }
}

/// The TRW-S solver.
#[derive(Debug, Clone, Default)]
pub struct Trws {
    options: TrwsOptions,
}

impl Trws {
    /// Creates a solver with the given options.
    pub fn new(options: TrwsOptions) -> Trws {
        Trws { options }
    }
}

impl MapSolver for Trws {
    fn name(&self) -> String {
        "trws".to_string()
    }

    /// Runs TRW-S on `model` and returns the best labeling found, its
    /// energy, and the tightest certified lower bound. Honors the control's
    /// deadline at iteration granularity, returning the best labeling seen
    /// so far (the unary argmin if stopped before the first pass
    /// completes).
    fn solve(&self, model: &MrfModel, ctl: &SolveControl) -> Solution {
        let mut scratch = SolveScratch::new();
        self.solve_with(model, ctl, &mut scratch)
    }

    /// [`MapSolver::solve`] over a caller-owned scratch: a warm re-solve
    /// with a previously-used scratch performs no allocation.
    fn solve_with(
        &self,
        model: &MrfModel,
        ctl: &SolveControl,
        scratch: &mut SolveScratch,
    ) -> Solution {
        if model.var_count() == 0 {
            return Solution::new(Vec::new(), 0.0, Some(0.0), 0, true);
        }
        scratch.prepare(model);
        let p = scratch.parts();
        run(
            &self.options,
            model,
            &p.t,
            p.arena,
            p.pot,
            p.theta,
            p.mins,
            p.labels_buf,
            p.decoded,
            p.queue,
            ctl,
        )
    }

    /// Message passing on a *conditioned submodel*: active variables keep
    /// their domains, edges to the frozen outside fold into unaries at the
    /// outside's current label, and the sub-solution is spliced back only
    /// if it improves the full-model energy. Variables flipped at the
    /// region boundary expand the region and the conditioning repeats;
    /// past half the model the refinement falls back to a full solve over
    /// `scratch` (see [`crate::local`]), and so does a frontier holding
    /// every live variable. A seal takes the default path: the sealed
    /// variables are conditioned out and the rest is refined in full.
    ///
    /// No lower bound is reported: the submodel's bound conditions on the
    /// frozen exterior and does not bound the full model's optimum.
    fn refine_local(
        &self,
        model: &MrfModel,
        start: Start,
        frontier: &[VarId],
        sealed: &[VarId],
        ctl: &SolveControl,
        scratch: &mut SolveScratch,
    ) -> LocalRefine {
        if !sealed.is_empty() {
            return refine_unsealed(self, model, start.labels, sealed, ctl);
        }
        assert_eq!(
            start.labels.len(),
            model.var_count(),
            "labeling arity mismatch"
        );
        let mut region = ActiveRegion::new(model, frontier, &[]);
        if region.count == 0 {
            return LocalRefine::noop(start.labels, start.energy);
        }
        let live = model.live_var_count();
        let Start {
            mut labels,
            mut energy,
        } = start;
        if region.count == live {
            let fresh = self.solve_with(model, ctl, scratch);
            return LocalRefine::full(keep_better(model, labels, fresh), live);
        }
        let mut iterations = 0usize;
        let mut converged = false;
        // Each round re-conditions on the expanded region; the region is
        // monotone, so the loop is bounded by the expansion count anyway —
        // the cap only guards pathological flip/unflip cycling.
        const MAX_ROUNDS: usize = 16;
        for _ in 0..MAX_ROUNDS {
            if region.should_fall_back() {
                let fresh = self.solve_with(model, ctl, scratch);
                return LocalRefine {
                    solution: keep_better(model, labels, fresh),
                    swept_vars: live,
                    expansions: region.expansions,
                    full_sweep: true,
                };
            }
            if ctl.should_stop() {
                break;
            }
            let (sub, map) = condition_submodel(model, &labels, &region.mask);
            let sub_solution = self.solve_with(&sub, ctl, scratch);
            iterations += sub_solution.iterations();
            let mut candidate = labels.clone();
            for (si, &fi) in map.iter().enumerate() {
                candidate[fi] = sub_solution.labels()[si];
            }
            let candidate_energy = model.energy(&candidate);
            if candidate_energy >= energy {
                converged = sub_solution.converged();
                break;
            }
            let flipped: Vec<usize> = map
                .iter()
                .copied()
                .filter(|&fi| candidate[fi] != labels[fi])
                .collect();
            labels = candidate;
            energy = candidate_energy;
            let mut added = 0;
            for &v in &flipped {
                added += region.activate_neighbors(model, v);
            }
            if added == 0 {
                converged = sub_solution.converged();
                break;
            }
            region.expansions += 1;
        }
        LocalRefine {
            solution: Solution::new(labels, energy, None, iterations, converged),
            swept_vars: region.count,
            expansions: region.expansions,
            full_sweep: false,
        }
    }
}

/// The solve loop over a prepared scratch.
#[allow(clippy::too_many_arguments)]
fn run(
    options: &TrwsOptions,
    model: &MrfModel,
    t: &Tables<'_>,
    arena: &mut [f64],
    pot: &[f64],
    theta: &mut [f64],
    mins: &mut [f64],
    labels_buf: &mut Vec<usize>,
    decoded: &mut Vec<bool>,
    queue: &mut VecDeque<u32>,
    ctl: &SolveControl,
) -> Solution {
    let mut best_labels = model.unary_argmin();
    let mut best_energy = model.energy(&best_labels);
    let mut best_bound = f64::NEG_INFINITY;
    let mut stall = 0usize;
    let mut iterations = 0usize;
    let mut converged = false;
    for iter in 0..options.max_iterations {
        if ctl.should_stop() {
            break;
        }
        iterations = iter + 1;
        forward_pass(model, t, arena, pot, theta, mins);
        let bound = backward_pass(model, t, arena, pot, theta, mins);
        // `theta` doubles as the decode's cost buffer, `mins` as the
        // polish's — both are free between passes.
        decode(model, t, arena, pot, labels_buf, decoded, queue, theta);
        if options.polish_sweeps > 0 {
            fast_sweeps(model, t, pot, labels_buf, mins, options.polish_sweeps, ctl);
        }
        let energy = energy_fast(model, t, pot, labels_buf);
        if energy < best_energy {
            best_energy = energy;
            best_labels.clear();
            best_labels.extend_from_slice(labels_buf);
        }
        let improvement = bound - best_bound;
        if bound > best_bound {
            best_bound = bound;
        }
        // Converged: the gap certifies optimality, or the bound stopped
        // improving for `patience` iterations.
        if (best_energy - best_bound).abs() <= options.tolerance {
            converged = true;
            break;
        }
        if improvement.abs() <= options.tolerance * best_bound.abs().max(1.0) {
            stall += 1;
            if stall >= options.patience {
                converged = true;
                break;
            }
        } else {
            stall = 0;
        }
    }
    let bound = best_bound.is_finite().then_some(best_bound);
    // Per-iteration comparisons use `energy_fast` (resolved-table
    // summation order); the reported energy is recomputed canonically so
    // it is bit-identical to `model.energy(labels)` for callers that
    // re-derive it.
    let energy = model.energy(&best_labels);
    Solution::new(best_labels, energy, bound, iterations, converged)
}

/// `θ̂_i = unary_i + Σ incoming messages`, written into `theta[..L]`;
/// returns `L`. Incoming messages to `i` are the backward (`b → a`)
/// messages of its forward edges and the forward (`a → b`) messages of its
/// backward edges — both defined over `i`'s labels.
#[inline]
fn theta_hat(
    model: &MrfModel,
    t: &Tables<'_>,
    to_b: &[f64],
    to_a: &[f64],
    i: usize,
    theta: &mut [f64],
) -> usize {
    let l = t.labels(i);
    theta[..l].copy_from_slice(model.unary(VarId(i)));
    for &e in t.fwd(i) {
        let inc = t.off_to_a[e as usize] as usize;
        for (s, m) in theta[..l].iter_mut().zip(&to_a[inc..inc + l]) {
            *s += m;
        }
    }
    for &e in t.bwd(i) {
        let inc = t.off_to_b[e as usize] as usize;
        for (s, m) in theta[..l].iter_mut().zip(&to_b[inc..inc + l]) {
            *s += m;
        }
    }
    l
}

/// Forward sweep: every variable in order updates the `a → b` messages of
/// its forward edges.
fn forward_pass(
    model: &MrfModel,
    t: &Tables<'_>,
    arena: &mut [f64],
    pot: &[f64],
    theta: &mut [f64],
    mins: &mut [f64],
) {
    let (to_b, to_a) = arena.split_at_mut(t.split);
    for &iu in t.order {
        let i = iu as usize;
        let l = theta_hat(model, t, to_b, to_a, i, theta);
        let gamma = t.gamma[i];
        for &e in t.fwd(i) {
            let e = e as usize;
            let lb = t.edge_lb[e] as usize;
            let inc = t.off_to_a[e] as usize;
            let row0 = t.pot_ab[e] as usize;
            // base(xa) = γ θ̂(xa) − m_{b→a}(xa)
            // m_{a→b}(xb) = min_xa base(xa) + cost(xa, xb), then normalize.
            mins[..lb].fill(f64::INFINITY);
            for xa in 0..l {
                let base = gamma * theta[xa] - to_a[inc + xa];
                let row = &pot[row0 + xa * lb..row0 + (xa + 1) * lb];
                for (m, &c) in mins[..lb].iter_mut().zip(row) {
                    let v = base + c;
                    if v < *m {
                        *m = v;
                    }
                }
            }
            let mut low = f64::INFINITY;
            for &m in &mins[..lb] {
                if m < low {
                    low = m;
                }
            }
            let out = &mut to_b[t.off_to_b[e] as usize..][..lb];
            for (o, &m) in out.iter_mut().zip(&mins[..lb]) {
                *o = m - low;
            }
        }
    }
}

/// Backward sweep over backward edges; returns the TRW lower bound (module
/// docs): the sum of backward-message normalization constants plus, per
/// node, the leftover chain mass `(1 − n⁻·γ)·min θ̂`.
fn backward_pass(
    model: &MrfModel,
    t: &Tables<'_>,
    arena: &mut [f64],
    pot: &[f64],
    theta: &mut [f64],
    mins: &mut [f64],
) -> f64 {
    let (to_b, to_a) = arena.split_at_mut(t.split);
    let mut bound = 0.0;
    for &iu in t.order.iter().rev() {
        let i = iu as usize;
        let l = theta_hat(model, t, to_b, to_a, i, theta);
        let gamma = t.gamma[i];
        // Chains that terminate at this node keep their share of θ̂.
        let leftover = 1.0 - t.n_backward[i] as f64 * gamma;
        if leftover > 1e-15 {
            let mut min_theta = f64::INFINITY;
            for &s in &theta[..l] {
                if s < min_theta {
                    min_theta = s;
                }
            }
            bound += leftover * min_theta;
        }
        for &e in t.bwd(i) {
            let e = e as usize;
            let la = t.edge_la[e] as usize;
            let inc = t.off_to_b[e] as usize;
            let row0 = t.pot_ba[e] as usize;
            mins[..la].fill(f64::INFINITY);
            for xb in 0..l {
                let base = gamma * theta[xb] - to_b[inc + xb];
                let row = &pot[row0 + xb * la..row0 + (xb + 1) * la];
                for (m, &c) in mins[..la].iter_mut().zip(row) {
                    let v = base + c;
                    if v < *m {
                        *m = v;
                    }
                }
            }
            let mut low = f64::INFINITY;
            for &m in &mins[..la] {
                if m < low {
                    low = m;
                }
            }
            bound += low;
            let out = &mut to_a[t.off_to_a[e] as usize..][..la];
            for (o, &m) in out.iter_mut().zip(&mins[..la]) {
                *o = m - low;
            }
        }
    }
    bound
}

/// Conditioned decode in BFS order: each variable is labelled to minimize
/// its unary cost plus pairwise costs to *all already-decoded* neighbors
/// plus incoming messages from the undecoded ones. BFS order (instead of
/// raw index order) matters on tie-heavy energies: with flat unaries the
/// decode is a greedy coloring, and greedy coloring along a traversal tree
/// resolves cycles that index order miscolors.
#[allow(clippy::too_many_arguments)]
fn decode(
    model: &MrfModel,
    t: &Tables<'_>,
    arena: &[f64],
    pot: &[f64],
    labels: &mut Vec<usize>,
    decoded: &mut Vec<bool>,
    queue: &mut VecDeque<u32>,
    cost: &mut [f64],
) {
    let (to_b, to_a) = arena.split_at(t.split);
    labels.clear();
    labels.resize(t.n, 0);
    decoded.clear();
    decoded.resize(t.n, false);
    queue.clear();
    for &root in t.order {
        if decoded[root as usize] {
            continue;
        }
        queue.push_back(root);
        decoded[root as usize] = true;
        while let Some(iu) = queue.pop_front() {
            let i = iu as usize;
            let l = t.labels(i);
            cost[..l].copy_from_slice(model.unary(VarId(i)));
            for &e in t.fwd(i) {
                let e = e as usize;
                let other = t.edge_b[e] as usize;
                // `decoded[other]` is set when `other` is labelled *or*
                // queued; only trust the label once actually assigned —
                // queued-but-unlabelled entries hold `usize::MAX`.
                if decoded[other] && labels[other] != usize::MAX {
                    let xo = labels[other];
                    let row = &pot[t.pot_ba[e] as usize + xo * l..][..l];
                    for (c, &p) in cost[..l].iter_mut().zip(row) {
                        *c += p;
                    }
                } else {
                    let m = &to_a[t.off_to_a[e] as usize..][..l];
                    for (c, m) in cost[..l].iter_mut().zip(m) {
                        *c += m;
                    }
                }
                if !decoded[other] {
                    decoded[other] = true;
                    labels[other] = usize::MAX;
                    queue.push_back(other as u32);
                }
            }
            for &e in t.bwd(i) {
                let e = e as usize;
                let other = t.edge_a[e] as usize;
                if decoded[other] && labels[other] != usize::MAX {
                    let xo = labels[other];
                    let row = &pot[t.pot_ab[e] as usize + xo * l..][..l];
                    for (c, &p) in cost[..l].iter_mut().zip(row) {
                        *c += p;
                    }
                } else {
                    let m = &to_b[t.off_to_b[e] as usize..][..l];
                    for (c, m) in cost[..l].iter_mut().zip(m) {
                        *c += m;
                    }
                }
                if !decoded[other] {
                    decoded[other] = true;
                    labels[other] = usize::MAX;
                    queue.push_back(other as u32);
                }
            }
            let mut best = 0usize;
            let mut best_cost = f64::INFINITY;
            for (x, &c) in cost[..l].iter().enumerate() {
                if c < best_cost {
                    best_cost = c;
                    best = x;
                }
            }
            labels[i] = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Exhaustive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn solve(model: &MrfModel) -> Solution {
        Trws::new(TrwsOptions::default()).solve(model, &SolveControl::new())
    }

    fn brute(model: &MrfModel) -> Solution {
        Exhaustive::new().solve(model, &SolveControl::new())
    }

    #[test]
    fn empty_model() {
        let s = solve(&MrfModel::new());
        assert!(s.labels().is_empty());
        assert_eq!(s.energy(), 0.0);
        assert!(s.converged());
    }

    #[test]
    fn single_variable_picks_unary_minimum() {
        let mut m = MrfModel::new();
        let x = m.add_var(4).unwrap();
        m.set_unary(x, vec![3.0, 0.5, 2.0, 1.0]).unwrap();
        let s = solve(&m);
        assert_eq!(s.labels(), &[1]);
        assert_eq!(s.energy(), 0.5);
        assert!(s.is_certified_optimal(1e-9));
    }

    #[test]
    fn antiferromagnetic_pair() {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(2).unwrap();
        m.add_pairwise_dense(x, y, vec![1.0, 0.0, 0.0, 1.0])
            .unwrap();
        let s = solve(&m);
        assert_ne!(s.labels()[0], s.labels()[1]);
        assert_eq!(s.energy(), 0.0);
        assert!(s.is_certified_optimal(1e-9));
    }

    #[test]
    fn chain_matches_exhaustive() {
        // TRW-S is exact on chains.
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..10 {
            let mut m = MrfModel::new();
            let vars: Vec<_> = (0..6).map(|_| m.add_var(3).unwrap()).collect();
            for &v in &vars {
                m.set_unary(v, (0..3).map(|_| rng.gen_range(0.0..4.0)).collect())
                    .unwrap();
            }
            for w in vars.windows(2) {
                m.add_pairwise_dense(
                    w[0],
                    w[1],
                    (0..9).map(|_| rng.gen_range(0.0..4.0)).collect(),
                )
                .unwrap();
            }
            let s = solve(&m);
            let opt = brute(&m);
            assert!(
                (s.energy() - opt.energy()).abs() < 1e-7,
                "trial {trial}: trws {} vs exhaustive {}",
                s.energy(),
                opt.energy()
            );
            assert!(
                s.is_certified_optimal(1e-6),
                "trial {trial}: gap {:?}",
                s.gap()
            );
        }
    }

    #[test]
    fn tree_matches_exhaustive() {
        let mut rng = StdRng::seed_from_u64(23);
        for trial in 0..10 {
            let mut m = MrfModel::new();
            let vars: Vec<_> = (0..9).map(|_| m.add_var(2).unwrap()).collect();
            for &v in &vars {
                m.set_unary(v, (0..2).map(|_| rng.gen_range(-2.0..2.0)).collect())
                    .unwrap();
            }
            // Balanced binary tree edges.
            for i in 1..vars.len() {
                m.add_pairwise_dense(
                    vars[(i - 1) / 2],
                    vars[i],
                    (0..4).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                )
                .unwrap();
            }
            let s = solve(&m);
            let opt = brute(&m);
            assert!(
                (s.energy() - opt.energy()).abs() < 1e-7,
                "trial {trial}: trws {} vs exhaustive {}",
                s.energy(),
                opt.energy()
            );
        }
    }

    #[test]
    fn lower_bound_never_exceeds_optimum_on_loopy_graphs() {
        let mut rng = StdRng::seed_from_u64(37);
        for trial in 0..10 {
            let mut m = MrfModel::new();
            let n = 6;
            let vars: Vec<_> = (0..n).map(|_| m.add_var(3).unwrap()).collect();
            for &v in &vars {
                m.set_unary(v, (0..3).map(|_| rng.gen_range(0.0..3.0)).collect())
                    .unwrap();
            }
            // Ring plus a chord: loopy.
            for i in 0..n {
                m.add_pairwise_dense(
                    vars[i],
                    vars[(i + 1) % n],
                    (0..9).map(|_| rng.gen_range(0.0..3.0)).collect(),
                )
                .unwrap();
            }
            m.add_pairwise_dense(
                vars[0],
                vars[3],
                (0..9).map(|_| rng.gen_range(0.0..3.0)).collect(),
            )
            .unwrap();
            let s = solve(&m);
            let opt = brute(&m);
            let lb = s.lower_bound().unwrap();
            assert!(
                lb <= opt.energy() + 1e-7,
                "trial {trial}: bound {lb} exceeds optimum {}",
                opt.energy()
            );
            assert!(s.energy() >= opt.energy() - 1e-9);
            // TRW-S should be near-optimal on these small instances.
            assert!(
                s.energy() - opt.energy() < 0.75,
                "trial {trial}: energy {} far from optimum {}",
                s.energy(),
                opt.energy()
            );
        }
    }

    #[test]
    fn potts_grid_prefers_agreement_with_strong_coupling() {
        // 3x3 grid Potts model with strong attractive coupling and a single
        // biased corner: all variables should align with the bias.
        let mut m = MrfModel::new();
        let vars: Vec<_> = (0..9).map(|_| m.add_var(3).unwrap()).collect();
        m.set_unary(vars[0], vec![0.0, 5.0, 5.0]).unwrap();
        // Potts: 0 if equal, 2 otherwise.
        let mut potts = vec![2.0; 9];
        for l in 0..3 {
            potts[l * 3 + l] = 0.0;
        }
        let pot = m.add_potential(3, 3, potts).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    m.add_pairwise(vars[r * 3 + c], vars[r * 3 + c + 1], pot)
                        .unwrap();
                }
                if r + 1 < 3 {
                    m.add_pairwise(vars[r * 3 + c], vars[(r + 1) * 3 + c], pot)
                        .unwrap();
                }
            }
        }
        let s = solve(&m);
        assert_eq!(s.labels(), &[0; 9]);
        assert!(s.is_certified_optimal(1e-6));
    }

    #[test]
    fn hard_constraints_are_respected() {
        // Variable y is forbidden (BIG cost) from label 0 when x takes its
        // otherwise-optimal label 1.
        const BIG: f64 = 1e6;
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(2).unwrap();
        m.set_unary(x, vec![1.0, 0.0]).unwrap();
        m.set_unary(y, vec![0.0, 0.3]).unwrap();
        m.add_pairwise_dense(x, y, vec![0.0, 0.0, BIG, 0.0])
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.labels(), &[1, 1]);
        assert!((s.energy() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn disconnected_components_solved_independently() {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(2).unwrap();
        let z = m.add_var(2).unwrap();
        let w = m.add_var(2).unwrap();
        m.set_unary(x, vec![0.0, 1.0]).unwrap();
        m.set_unary(w, vec![1.0, 0.0]).unwrap();
        m.add_pairwise_dense(x, y, vec![0.0, 1.0, 1.0, 0.0])
            .unwrap();
        m.add_pairwise_dense(z, w, vec![0.0, 1.0, 1.0, 0.0])
            .unwrap();
        let s = solve(&m);
        assert_eq!(s.labels(), &[0, 0, 1, 1]);
        assert!(s.is_certified_optimal(1e-9));
    }

    #[test]
    fn random_loopy_graphs_close_to_exhaustive() {
        let mut rng = StdRng::seed_from_u64(101);
        for trial in 0..8 {
            let mut m = MrfModel::new();
            let n = 7;
            let vars: Vec<_> = (0..n).map(|_| m.add_var(2).unwrap()).collect();
            for &v in &vars {
                m.set_unary(v, vec![rng.gen_range(0.0..2.0), rng.gen_range(0.0..2.0)])
                    .unwrap();
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.45) {
                        m.add_pairwise_dense(
                            vars[i],
                            vars[j],
                            (0..4).map(|_| rng.gen_range(0.0..1.5)).collect(),
                        )
                        .unwrap();
                    }
                }
            }
            let s = solve(&m);
            let opt = brute(&m);
            let rel = (s.energy() - opt.energy()) / opt.energy().abs().max(1.0);
            assert!(
                rel < 0.15,
                "trial {trial}: energy {} too far above optimum {}",
                s.energy(),
                opt.energy()
            );
        }
    }

    #[test]
    fn iteration_cap_is_respected() {
        let mut m = MrfModel::new();
        let vars: Vec<_> = (0..20).map(|_| m.add_var(3).unwrap()).collect();
        for i in 0..20 {
            m.add_pairwise_dense(vars[i], vars[(i + 1) % 20], vec![0.5; 9])
                .unwrap();
        }
        let s = Trws::new(TrwsOptions {
            max_iterations: 2,
            ..TrwsOptions::default()
        })
        .solve(&m, &SolveControl::new());
        assert!(s.iterations() <= 2);
    }
}
