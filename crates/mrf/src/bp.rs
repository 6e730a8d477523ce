//! Loopy min-sum belief propagation, chromatic Gauss-Seidel schedule.
//!
//! The baseline the paper contrasts TRW-S against. Messages live in the
//! [`crate::order::SolveScratch`] arena and are updated **in place**,
//! variable by variable: each visit recomputes the variable's belief from
//! the freshest incoming messages and rewrites all of its outgoing
//! messages. A sweep visits the variables color class by color class
//! (greedy coloring, [`crate::color::ColorClasses`]), ascending slot inside
//! each class, on the calling thread. The coloring fixes the visit order
//! and nothing more.
//!
//! Gauss-Seidel propagation is strictly fresher than the synchronous
//! schedule this module used to implement — information crosses several
//! hops per sweep instead of one — and damping engages adaptively on the
//! loopy energies where min-sum oscillates (see [`BpOptions::damping`]).
//! Unlike TRW-S it provides no lower bound.

use crate::model::{MrfModel, VarId};
use crate::order::{SolveScratch, Tables};
use crate::solution::Solution;
use crate::solver::{MapSolver, SolveControl};

/// Options controlling a BP run.
#[derive(Debug, Clone, PartialEq)]
pub struct BpOptions {
    /// Maximum number of full sweeps.
    pub max_iterations: usize,
    /// Convergence tolerance on the largest message change per sweep.
    pub tolerance: f64,
    /// Damping factor in `[0, 1)`: new = (1−d)·update + d·old. Engaged
    /// *adaptively*: sweeps run undamped until the per-sweep residual
    /// stops decreasing (the oscillation signature), then `damping`
    /// applies for the rest of the run. The Gauss-Seidel schedule rarely
    /// oscillates, so most runs never pay for damping. 0 disables.
    pub damping: f64,
}

impl Default for BpOptions {
    fn default() -> BpOptions {
        BpOptions {
            max_iterations: 100,
            tolerance: 1e-9,
            damping: 0.3,
        }
    }
}

/// The loopy min-sum BP solver.
#[derive(Debug, Clone, Default)]
pub struct Bp {
    options: BpOptions,
}

impl Bp {
    /// Creates a solver with the given options.
    pub fn new(options: BpOptions) -> Bp {
        Bp { options }
    }
}

impl MapSolver for Bp {
    fn name(&self) -> String {
        "bp".to_string()
    }

    /// Runs BP on `model`, decoding by per-variable belief minimization.
    /// Honors the control's deadline/cancellation at sweep granularity; an
    /// early stop decodes the current messages (the unary argmin when
    /// stopped before the first sweep).
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
            return Solution::new(Vec::new(), 0.0, None, 0, true);
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
            ctl,
        )
    }
}

/// The sweep loop over a prepared scratch.
#[allow(clippy::too_many_arguments)]
fn run(
    options: &BpOptions,
    model: &MrfModel,
    t: &Tables<'_>,
    arena: &mut [f64],
    pot: &[f64],
    theta: &mut [f64],
    mins: &mut [f64],
    labels_buf: &mut Vec<usize>,
    ctl: &SolveControl,
) -> Solution {
    let damping_ceiling = options.damping.clamp(0.0, 0.999);
    let mut iterations = 0usize;
    let mut converged = false;
    // Adaptive damping: undamped sweeps converge fastest when the
    // Gauss-Seidel residual contracts, which is the common case; a
    // non-decreasing residual is the oscillation signature, and from
    // that point on the configured damping applies.
    let mut damping = 0.0f64;
    let mut prev_delta = f64::INFINITY;
    for iter in 0..options.max_iterations {
        if ctl.should_stop() {
            break;
        }
        iterations = iter + 1;
        let mut delta = 0.0f64;
        for k in 0..t.colors.class_count() {
            for &iu in t.colors.class(k) {
                let d = update_var(model, t, pot, arena, iu as usize, theta, mins, damping);
                delta = delta.max(d);
            }
        }
        if ctl.has_progress() {
            // Decoding is O(labels); only pay for it when someone watches.
            decode(model, t, arena, labels_buf, theta);
            ctl.report(iterations, model.energy(labels_buf), None);
        }
        if delta <= options.tolerance {
            converged = true;
            break;
        }
        if delta >= prev_delta {
            damping = damping_ceiling;
        }
        prev_delta = delta;
    }
    decode(model, t, arena, labels_buf, theta);
    let energy = model.energy(labels_buf);
    Solution::new(labels_buf.clone(), energy, None, iterations, converged)
}

/// One Gauss-Seidel visit: recompute variable `i`'s belief and rewrite all
/// of its outgoing messages in place; returns the largest message change.
/// Each incoming message, potential table and outgoing message is sliced
/// once per edge, so the per-label loops index nothing.
#[allow(clippy::too_many_arguments)]
fn update_var(
    model: &MrfModel,
    t: &Tables<'_>,
    pot: &[f64],
    arena: &mut [f64],
    i: usize,
    theta: &mut [f64],
    mins: &mut [f64],
    damping: f64,
) -> f64 {
    let l = t.labels(i);
    let theta = &mut theta[..l];
    // Belief numerator: unary + every incoming message, freshest values.
    theta.copy_from_slice(model.unary(VarId(i)));
    for &e in t.fwd(i) {
        let inc = t.split + t.off_to_a[e as usize] as usize;
        for (s, &m) in theta.iter_mut().zip(&arena[inc..inc + l]) {
            *s += m;
        }
    }
    for &e in t.bwd(i) {
        let inc = t.off_to_b[e as usize] as usize;
        for (s, &m) in theta.iter_mut().zip(&arena[inc..inc + l]) {
            *s += m;
        }
    }
    let mut delta = 0.0f64;
    // Outgoing message per edge: exclude that neighbor's own message.
    for &e in t.fwd(i) {
        let e = e as usize;
        let lb = t.edge_lb[e] as usize;
        let inc = t.split + t.off_to_a[e] as usize;
        let table = &pot[t.pot_ab[e] as usize..][..l * lb];
        let mins = &mut mins[..lb];
        min_out(theta, &arena[inc..inc + l], table, mins);
        let out = t.off_to_b[e] as usize;
        delta = delta.max(write_damped(&mut arena[out..out + lb], mins, damping));
    }
    for &e in t.bwd(i) {
        let e = e as usize;
        let la = t.edge_la[e] as usize;
        let inc = t.off_to_b[e] as usize;
        let table = &pot[t.pot_ba[e] as usize..][..l * la];
        let mins = &mut mins[..la];
        min_out(theta, &arena[inc..inc + l], table, mins);
        let out = t.split + t.off_to_a[e] as usize;
        delta = delta.max(write_damped(&mut arena[out..out + la], mins, damping));
    }
    delta
}

/// The min-sum message body: `mins[y] = min_x (theta[x] − incoming[x] +
/// table[x][y])`, with `table` row-major over the sender's labels.
fn min_out(theta: &[f64], incoming: &[f64], table: &[f64], mins: &mut [f64]) {
    mins.fill(f64::INFINITY);
    for ((&th, &m_in), row) in theta
        .iter()
        .zip(incoming)
        .zip(table.chunks_exact(mins.len()))
    {
        let base = th - m_in;
        for (m, &c) in mins.iter_mut().zip(row) {
            let v = base + c;
            if v < *m {
                *m = v;
            }
        }
    }
}

/// Normalizes `mins` (subtract its minimum), damps against the old
/// message in `out`, writes the result back, and returns the largest
/// per-label change.
fn write_damped(out: &mut [f64], mins: &[f64], damping: f64) -> f64 {
    let mut low = f64::INFINITY;
    for &m in mins {
        if m < low {
            low = m;
        }
    }
    if !low.is_finite() {
        low = 0.0;
    }
    let mut delta = 0.0f64;
    for (cell, &m) in out.iter_mut().zip(mins) {
        let old = *cell;
        let new = (1.0 - damping) * (m - low) + damping * old;
        delta = delta.max((new - old).abs());
        *cell = new;
    }
    delta
}

/// Decode: `x_i = argmin (unary + Σ incoming)`, first minimum on ties.
fn decode(
    model: &MrfModel,
    t: &Tables<'_>,
    arena: &[f64],
    labels: &mut Vec<usize>,
    theta: &mut [f64],
) {
    let (to_b, to_a) = arena.split_at(t.split);
    labels.clear();
    labels.resize(t.n, 0);
    for &iu in t.order {
        let i = iu as usize;
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
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for (x, &c) in theta[..l].iter().enumerate() {
            if c < best_cost {
                best_cost = c;
                best = x;
            }
        }
        labels[i] = best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::Exhaustive;
    use crate::model::MrfBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctl() -> SolveControl {
        SolveControl::new()
    }

    fn solve(model: &MrfModel) -> Solution {
        Bp::new(BpOptions::default()).solve(model, &ctl())
    }

    #[test]
    fn empty_and_single() {
        let s = solve(&MrfBuilder::new().build());
        assert!(s.labels().is_empty());
        let mut b = MrfBuilder::new();
        let x = b.add_variable(3);
        b.set_unary(x, vec![1.0, 0.0, 2.0]).unwrap();
        let s = solve(&b.build());
        assert_eq!(s.labels(), &[1]);
    }

    #[test]
    fn exact_on_chains() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let mut b = MrfBuilder::new();
            let vars: Vec<_> = (0..5).map(|_| b.add_variable(3)).collect();
            for &v in &vars {
                b.set_unary(v, (0..3).map(|_| rng.gen_range(0.0..3.0)).collect())
                    .unwrap();
            }
            for w in vars.windows(2) {
                b.add_edge_dense(
                    w[0],
                    w[1],
                    (0..9).map(|_| rng.gen_range(0.0..3.0)).collect(),
                )
                .unwrap();
            }
            let m = b.build();
            let s = solve(&m);
            let opt = Exhaustive::new().solve(&m, &ctl());
            assert!((s.energy() - opt.energy()).abs() < 1e-6);
            assert!(s.converged());
        }
    }

    #[test]
    fn near_optimal_on_small_loopy_graphs() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut total_gap = 0.0;
        for _ in 0..8 {
            let mut b = MrfBuilder::new();
            let n = 6;
            let vars: Vec<_> = (0..n).map(|_| b.add_variable(2)).collect();
            for &v in &vars {
                b.set_unary(v, vec![rng.gen_range(0.0..2.0), rng.gen_range(0.0..2.0)])
                    .unwrap();
            }
            for i in 0..n {
                b.add_edge_dense(
                    vars[i],
                    vars[(i + 1) % n],
                    (0..4).map(|_| rng.gen_range(0.0..1.0)).collect(),
                )
                .unwrap();
            }
            let m = b.build();
            let s = solve(&m);
            let opt = Exhaustive::new().solve(&m, &ctl());
            total_gap += s.energy() - opt.energy();
        }
        assert!(
            total_gap < 1.0,
            "BP total excess energy {total_gap} too large"
        );
    }

    #[test]
    fn damping_tames_oscillation() {
        // A frustrated triangle (all edges prefer disagreement) makes
        // undamped synchronous BP oscillate; the Gauss-Seidel schedule
        // already breaks the lock-step, and damping plus a small
        // symmetry-breaking unary keeps it settled on an optimum.
        let mut b = MrfBuilder::new();
        let vars: Vec<_> = (0..3).map(|_| b.add_variable(2)).collect();
        b.set_unary(vars[0], vec![0.0, 0.01]).unwrap();
        b.set_unary(vars[1], vec![0.01, 0.0]).unwrap();
        for i in 0..3 {
            b.add_edge_dense(vars[i], vars[(i + 1) % 3], vec![1.0, 0.0, 0.0, 1.0])
                .unwrap();
        }
        let m = b.build();
        let damped = Bp::new(BpOptions {
            damping: 0.5,
            max_iterations: 500,
            ..BpOptions::default()
        })
        .solve(&m, &ctl());
        // One edge must agree in any labeling: optimum is 1.0 (+0.0 unary).
        let opt = Exhaustive::new().solve(&m, &ctl());
        assert!(
            damped.energy() <= opt.energy() + 0.02,
            "damped BP energy {} vs optimum {}",
            damped.energy(),
            opt.energy()
        );
    }
}
