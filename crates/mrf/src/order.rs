//! Reusable per-solve structure: monotone-chain ordering, CSR edge lists,
//! resolved potential tables and a flat message arena.
//!
//! The message-passing solvers used to rebuild all of this — and allocate
//! per-edge message vectors — on every `solve` call, which dominated the
//! warm re-solve path the engine actually exercises. [`SolveScratch`]
//! hoists the structure into one reusable object:
//!
//! * **Ordering**: live variables ascending by
//!   slot — the monotone-chain order TRW-S sweeps (edges are normalized
//!   `a < b`, so slot order orients every edge forward).
//! * **CSR edge lists**: per variable, the forward edges (variable is `a`)
//!   and backward edges (variable is `b`) as flat index ranges — replacing
//!   the `incident`-list filter branch in every sweep.
//! * **Resolved potentials**: each distinct potential is materialized as
//!   two contiguous row-major tables, one per orientation, so every kernel
//!   reads cost rows sequentially instead of calling
//!   [`MrfModel::edge_cost`]'s indirect, branch-per-lookup path.
//! * **Message arena**: a single flat `f64` buffer; all forward (`a → b`)
//!   messages first, laid out in forward sweep order, then all backward
//!   messages in backward sweep order — so a TRW-S pass is one
//!   `split_at_mut` and two linear walks.
//!
//! [`SolveScratch::prepare`] recomputes everything from the model (edge
//! slots recycle under churn, so nothing is fingerprinted or trusted
//! stale) but only reuses `Vec` capacity — a warm re-solve on a
//! same-shaped model performs no allocation.

use std::collections::VecDeque;

use crate::model::{MrfModel, VarId};

/// Read-only view of the prepared structure, passed into solver kernels
/// alongside the mutable workspace (see [`SolveScratch::parts`]).
pub(crate) struct Tables<'a> {
    /// Variable slot count (including tombstones).
    pub n: usize,
    /// Live variable slots, ascending — the sweep order.
    pub order: &'a [u32],
    /// Label CSR per variable slot, length `n + 1`.
    pub var_off: &'a [u32],
    /// CSR starts of forward edges (variable is `a`), length `n + 1`.
    pub fwd_start: &'a [u32],
    /// Edge slots of forward edges.
    pub fwd_edges: &'a [u32],
    /// CSR starts of backward edges (variable is `b`), length `n + 1`.
    pub bwd_start: &'a [u32],
    /// Edge slots of backward edges.
    pub bwd_edges: &'a [u32],
    /// Per edge slot: endpoint `a`.
    pub edge_a: &'a [u32],
    /// Per edge slot: endpoint `b`.
    pub edge_b: &'a [u32],
    /// Per edge slot: `a`'s label count.
    pub edge_la: &'a [u32],
    /// Per edge slot: `b`'s label count.
    pub edge_lb: &'a [u32],
    /// Per edge slot: offset of the a-rows table (`[xa * lb + xb]`).
    pub pot_ab: &'a [u32],
    /// Per edge slot: offset of the b-rows table (`[xb * la + xa]`).
    pub pot_ba: &'a [u32],
    /// Per edge slot: arena offset of the `a → b` message (absolute,
    /// `< split`).
    pub off_to_b: &'a [u32],
    /// Per edge slot: arena offset of the `b → a` message, relative to
    /// `split`.
    pub off_to_a: &'a [u32],
    /// Boundary between the forward and backward message halves.
    pub split: usize,
    /// TRW-S node weight `γ_i = 1 / max(n_i⁺, n_i⁻)` per variable slot.
    pub gamma: &'a [f64],
    /// Backward edge count per variable slot.
    pub n_backward: &'a [u32],
}

impl Tables<'_> {
    /// Label count of variable slot `i`.
    #[inline]
    pub fn labels(&self, i: usize) -> usize {
        (self.var_off[i + 1] - self.var_off[i]) as usize
    }

    /// Forward edge slots of variable `i`.
    #[inline]
    pub fn fwd(&self, i: usize) -> &[u32] {
        &self.fwd_edges[self.fwd_start[i] as usize..self.fwd_start[i + 1] as usize]
    }

    /// Backward edge slots of variable `i`.
    #[inline]
    pub fn bwd(&self, i: usize) -> &[u32] {
        &self.bwd_edges[self.bwd_start[i] as usize..self.bwd_start[i + 1] as usize]
    }
}

/// The mutable workspace split out alongside [`Tables`].
pub(crate) struct Parts<'a> {
    /// The read-only structure.
    pub t: Tables<'a>,
    /// The f64 message arena (`[..split]` forward, `[split..]` backward).
    pub arena: &'a mut Vec<f64>,
    /// Resolved potential tables.
    pub pot: &'a [f64],
    /// θ̂ / belief buffer, `max_labels` long.
    pub theta: &'a mut Vec<f64>,
    /// Min-accumulator / conditional-cost buffer, `max_labels` long.
    pub mins: &'a mut Vec<f64>,
    /// Reusable labeling buffer (decode target).
    pub labels_buf: &'a mut Vec<usize>,
    /// Reusable decode visited flags.
    pub decoded: &'a mut Vec<bool>,
    /// Reusable decode BFS queue.
    pub queue: &'a mut VecDeque<u32>,
}

/// Reusable solver structure + workspace (module docs). One instance per
/// engine (or per thread): a solve borrows it mutably, so concurrent
/// solvers each need their own.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    n: usize,
    order: Vec<u32>,
    var_off: Vec<u32>,
    fwd_start: Vec<u32>,
    fwd_edges: Vec<u32>,
    bwd_start: Vec<u32>,
    bwd_edges: Vec<u32>,
    edge_a: Vec<u32>,
    edge_b: Vec<u32>,
    edge_la: Vec<u32>,
    edge_lb: Vec<u32>,
    pot_ab: Vec<u32>,
    pot_ba: Vec<u32>,
    off_to_b: Vec<u32>,
    off_to_a: Vec<u32>,
    split: usize,
    pot_resolved: Vec<(u32, u32)>,
    pot_data: Vec<f64>,
    gamma: Vec<f64>,
    n_backward: Vec<u32>,
    max_labels: usize,
    cursor: Vec<u32>,
    arena: Vec<f64>,
    theta: Vec<f64>,
    mins: Vec<f64>,
    labels_buf: Vec<usize>,
    decoded: Vec<bool>,
    queue: VecDeque<u32>,
}

impl SolveScratch {
    /// An empty scratch; [`SolveScratch::prepare`] sizes it to a model.
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }

    /// Rebuilds every table for `model`, reusing allocations, and zeroes
    /// the message arena. Called at the top of each scratch-aware solve:
    /// slots recycle under churn, so the structure is never trusted stale.
    pub fn prepare(&mut self, model: &MrfModel) {
        let n = model.var_count();
        self.n = n;
        self.max_labels = model.max_labels();

        self.order.clear();
        self.order.extend(model.live_vars().map(|v| v.0 as u32));

        self.var_off.clear();
        self.var_off.reserve(n + 1);
        self.var_off.push(0);
        let mut total_labels = 0u32;
        for i in 0..n {
            total_labels += model.labels(VarId(i)) as u32;
            self.var_off.push(total_labels);
        }

        // Forward/backward CSR over live edges.
        self.fwd_start.clear();
        self.fwd_start.resize(n + 1, 0);
        self.bwd_start.clear();
        self.bwd_start.resize(n + 1, 0);
        let mut live = 0usize;
        for (_, e) in model.live_edges() {
            self.fwd_start[e.a().0 + 1] += 1;
            self.bwd_start[e.b().0 + 1] += 1;
            live += 1;
        }
        for i in 1..=n {
            self.fwd_start[i] += self.fwd_start[i - 1];
            self.bwd_start[i] += self.bwd_start[i - 1];
        }
        self.fwd_edges.clear();
        self.fwd_edges.resize(live, 0);
        self.bwd_edges.clear();
        self.bwd_edges.resize(live, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.fwd_start[..n]);
        for (eidx, e) in model.live_edges() {
            let c = &mut self.cursor[e.a().0];
            self.fwd_edges[*c as usize] = eidx as u32;
            *c += 1;
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.bwd_start[..n]);
        for (eidx, e) in model.live_edges() {
            let c = &mut self.cursor[e.b().0];
            self.bwd_edges[*c as usize] = eidx as u32;
            *c += 1;
        }

        // Resolved potential tables, one pair per distinct potential:
        // pot_ab rows index a's labels, pot_ba rows index b's labels, both
        // row-major and contiguous. Transposed edges just swap which table
        // plays which role.
        let slots = model.edge_slots();
        self.edge_a.clear();
        self.edge_a.resize(slots, 0);
        self.edge_b.clear();
        self.edge_b.resize(slots, 0);
        self.edge_la.clear();
        self.edge_la.resize(slots, 0);
        self.edge_lb.clear();
        self.edge_lb.resize(slots, 0);
        self.pot_ab.clear();
        self.pot_ab.resize(slots, 0);
        self.pot_ba.clear();
        self.pot_ba.resize(slots, 0);
        self.pot_resolved.clear();
        self.pot_data.clear();
        for (eidx, e) in model.live_edges() {
            let pi = e.potential_index();
            if pi >= self.pot_resolved.len() {
                self.pot_resolved.resize(pi + 1, (u32::MAX, u32::MAX));
            }
            if self.pot_resolved[pi].0 == u32::MAX {
                let p = model.potential(pi);
                let (rows, cols) = p.shape();
                let p_off = self.pot_data.len() as u32;
                for y in 0..rows {
                    for x in 0..cols {
                        self.pot_data.push(p.cost(y, x));
                    }
                }
                let pt_off = self.pot_data.len() as u32;
                for x in 0..cols {
                    for y in 0..rows {
                        self.pot_data.push(p.cost(y, x));
                    }
                }
                self.pot_resolved[pi] = (p_off, pt_off);
            }
            let (p_off, pt_off) = self.pot_resolved[pi];
            self.edge_a[eidx] = e.a().0 as u32;
            self.edge_b[eidx] = e.b().0 as u32;
            self.edge_la[eidx] = model.labels(e.a()) as u32;
            self.edge_lb[eidx] = model.labels(e.b()) as u32;
            if e.is_transposed() {
                self.pot_ab[eidx] = pt_off;
                self.pot_ba[eidx] = p_off;
            } else {
                self.pot_ab[eidx] = p_off;
                self.pot_ba[eidx] = pt_off;
            }
        }

        // Arena layout: forward messages in forward sweep order, then
        // backward messages in backward sweep order.
        self.off_to_b.clear();
        self.off_to_b.resize(slots, 0);
        self.off_to_a.clear();
        self.off_to_a.resize(slots, 0);
        let mut cum = 0u32;
        for &iu in &self.order {
            let i = iu as usize;
            for k in self.fwd_start[i]..self.fwd_start[i + 1] {
                let e = self.fwd_edges[k as usize] as usize;
                self.off_to_b[e] = cum;
                cum += self.edge_lb[e];
            }
        }
        self.split = cum as usize;
        let mut cum = 0u32;
        for &iu in self.order.iter().rev() {
            let i = iu as usize;
            for k in self.bwd_start[i]..self.bwd_start[i + 1] {
                let e = self.bwd_edges[k as usize] as usize;
                self.off_to_a[e] = cum;
                cum += self.edge_la[e];
            }
        }
        let arena_len = self.split + cum as usize;
        self.arena.clear();
        self.arena.resize(arena_len, 0.0);

        // TRW-S node weights.
        self.gamma.clear();
        self.gamma.reserve(n);
        self.n_backward.clear();
        self.n_backward.reserve(n);
        for i in 0..n {
            let nf = (self.fwd_start[i + 1] - self.fwd_start[i]) as usize;
            let nb = (self.bwd_start[i + 1] - self.bwd_start[i]) as usize;
            self.gamma.push(1.0 / nf.max(nb).max(1) as f64);
            self.n_backward.push(nb as u32);
        }

        self.theta.clear();
        self.theta.resize(self.max_labels, 0.0);
        self.mins.clear();
        self.mins.resize(self.max_labels, 0.0);
    }

    /// Splits the scratch into the read-only tables and the mutable
    /// workspace (field-disjoint borrows).
    pub(crate) fn parts(&mut self) -> Parts<'_> {
        Parts {
            t: Tables {
                n: self.n,
                order: &self.order,
                var_off: &self.var_off,
                fwd_start: &self.fwd_start,
                fwd_edges: &self.fwd_edges,
                bwd_start: &self.bwd_start,
                bwd_edges: &self.bwd_edges,
                edge_a: &self.edge_a,
                edge_b: &self.edge_b,
                edge_la: &self.edge_la,
                edge_lb: &self.edge_lb,
                pot_ab: &self.pot_ab,
                pot_ba: &self.pot_ba,
                off_to_b: &self.off_to_b,
                off_to_a: &self.off_to_a,
                split: self.split,
                gamma: &self.gamma,
                n_backward: &self.n_backward,
            },
            arena: &mut self.arena,
            pot: &self.pot_data,
            theta: &mut self.theta,
            mins: &mut self.mins,
            labels_buf: &mut self.labels_buf,
            decoded: &mut self.decoded,
            queue: &mut self.queue,
        }
    }
}

/// Full-model energy through the resolved tables: identical terms to
/// [`MrfModel::energy`] (unary at live slots + every live edge once via
/// its owner's forward list), summed in table order.
pub(crate) fn energy_fast(model: &MrfModel, t: &Tables<'_>, pot: &[f64], labels: &[usize]) -> f64 {
    debug_assert_eq!(labels.len(), t.n);
    let mut total = 0.0;
    for &iu in t.order {
        let i = iu as usize;
        total += model.unary(VarId(i))[labels[i]];
        for &e in t.fwd(i) {
            let e = e as usize;
            let lb = t.edge_lb[e] as usize;
            let xb = labels[t.edge_b[e] as usize];
            total += pot[t.pot_ab[e] as usize + labels[i] * lb + xb];
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MrfBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn resolved_tables_match_edge_cost() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut b = MrfBuilder::new();
        let vars: Vec<_> = (0..8).map(|i| b.add_variable(2 + (i % 3))).collect();
        for i in 0..8 {
            for j in (i + 1)..8 {
                if rng.gen_bool(0.5) {
                    let (la, lb) = (2 + (i % 3), 2 + (j % 3));
                    // Randomly flip endpoint order to exercise transposed
                    // potentials.
                    if rng.gen_bool(0.5) {
                        b.add_edge_dense(
                            vars[i],
                            vars[j],
                            (0..la * lb).map(|_| rng.gen_range(0.0..3.0)).collect(),
                        )
                        .unwrap();
                    } else {
                        b.add_edge_dense(
                            vars[j],
                            vars[i],
                            (0..la * lb).map(|_| rng.gen_range(0.0..3.0)).collect(),
                        )
                        .unwrap();
                    }
                }
            }
        }
        let m = b.build();
        let mut s = SolveScratch::new();
        s.prepare(&m);
        let p = s.parts();
        for (eidx, e) in m.live_edges() {
            let la = m.labels(e.a());
            let lb = m.labels(e.b());
            assert_eq!(p.t.edge_la[eidx] as usize, la);
            assert_eq!(p.t.edge_lb[eidx] as usize, lb);
            for xa in 0..la {
                for xb in 0..lb {
                    let want = m.edge_cost(e, xa, xb);
                    let ab = p.pot[p.t.pot_ab[eidx] as usize + xa * lb + xb];
                    let ba = p.pot[p.t.pot_ba[eidx] as usize + xb * la + xa];
                    assert_eq!(ab, want, "pot_ab mismatch on edge {eidx}");
                    assert_eq!(ba, want, "pot_ba mismatch on edge {eidx}");
                }
            }
        }
    }

    #[test]
    fn arena_offsets_are_disjoint_and_cover() {
        let mut b = MrfBuilder::new();
        let vars: Vec<_> = (0..6).map(|_| b.add_variable(3)).collect();
        for i in 0..6 {
            b.add_edge_dense(vars[i], vars[(i + 1) % 6], vec![0.0; 9])
                .unwrap();
        }
        let m = b.build();
        let mut s = SolveScratch::new();
        s.prepare(&m);
        let p = s.parts();
        let mut seen = vec![false; p.arena.len()];
        for (eidx, _) in m.live_edges() {
            let lb = p.t.edge_lb[eidx] as usize;
            let la = p.t.edge_la[eidx] as usize;
            for k in 0..lb {
                let at = p.t.off_to_b[eidx] as usize + k;
                assert!(at < p.t.split && !seen[at]);
                seen[at] = true;
            }
            for k in 0..la {
                let at = p.t.split + p.t.off_to_a[eidx] as usize + k;
                assert!(!seen[at]);
                seen[at] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "arena has unowned cells");
    }

    #[test]
    fn energy_fast_matches_model_energy() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut b = MrfBuilder::new();
        let vars: Vec<_> = (0..10).map(|_| b.add_variable(3)).collect();
        for &v in &vars {
            b.set_unary(v, (0..3).map(|_| rng.gen_range(-2.0..2.0)).collect())
                .unwrap();
        }
        for i in 0..10 {
            for j in (i + 1)..10 {
                if rng.gen_bool(0.4) {
                    b.add_edge_dense(
                        vars[i],
                        vars[j],
                        (0..9).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    )
                    .unwrap();
                }
            }
        }
        let m = b.build();
        let mut s = SolveScratch::new();
        s.prepare(&m);
        let p = s.parts();
        for _ in 0..5 {
            let labels: Vec<usize> = (0..10).map(|_| rng.gen_range(0..3)).collect();
            let want = m.energy(&labels);
            let got = energy_fast(&m, &p.t, p.pot, &labels);
            assert!((want - got).abs() < 1e-9, "{want} vs {got}");
        }
    }

    #[test]
    fn prepare_reuses_capacity_after_churn() {
        let mut m = {
            let mut b = MrfBuilder::new();
            let vars: Vec<_> = (0..12).map(|_| b.add_variable(2)).collect();
            for i in 0..12 {
                b.add_edge_dense(vars[i], vars[(i + 1) % 12], vec![0.0; 4])
                    .unwrap();
            }
            b.build()
        };
        let mut s = SolveScratch::new();
        s.prepare(&m);
        let cap = s.arena.capacity();
        // Remove a variable; prepare again must shrink lengths without
        // growing capacity.
        m.remove_var(VarId(3)).unwrap();
        s.prepare(&m);
        assert_eq!(s.arena.capacity(), cap);
        assert_eq!(s.order.len(), 11);
        // Dead slot is excluded everywhere.
        assert_eq!(s.fwd_start[3], s.fwd_start[4]);
        assert_eq!(s.bwd_start[3], s.bwd_start[4]);
    }
}
