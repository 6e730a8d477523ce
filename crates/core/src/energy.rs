//! Translation of the diversification problem into a pairwise MRF
//! (paper Eq. 1).
//!
//! One MRF variable per *free* (host, service) slot, labels = the slot's
//! candidate products after constraint-driven domain filtering:
//!
//! * **Unary cost** (paper §V-A): the constant product preference
//!   `Prconst` (0.01) for every label, plus — for slots whose linked
//!   counterpart is fixed (legacy hosts, mandated products) — the
//!   folded-in pairwise similarity against the fixed product. Folding
//!   keeps the model small: a fixed slot never becomes a variable.
//! * **Pairwise cost** (paper §V-B): for every link and every shared
//!   service, the vulnerability similarity `sim(p, q)` between the
//!   candidate products. Cost matrices are *shared* across edges with
//!   identical candidate sets, which keeps large instances in memory.
//! * **Constraints** (paper §V-A): fixed products restrict domains;
//!   conditional combination constraints become intra-host pairwise
//!   potentials with a large finite cost (1e6, standing in for the
//!   paper's `∞`), after a domain-filtering fixpoint resolves every
//!   combination with an already-fixed side.
//!
//! Both costs are fixed by the paper's energy, so they are constants, not
//! settings.

use std::sync::Arc;

use mrf::model::{MrfModel, VarId};

use netmodel::assignment::Assignment;
use netmodel::catalog::ProductSimilarity;
use netmodel::constraints::ConstraintSet;
use netmodel::network::Network;
use netmodel::{HostId, ProductId};

use crate::cache::EnergyCache;
use crate::Result;

/// The paper's `Prconst`: a small constant unary cost expressing "no
/// specific preference amongst available products".
pub(crate) const PREFERENCE_COST: f64 = 0.01;

/// The large finite cost standing in for the paper's `∞` on undesirable
/// combinations (finite to keep message arithmetic well-behaved).
pub(crate) const CONSTRAINT_COST: f64 = 1e6;

/// How one (host, service) slot maps into the MRF.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotBinding {
    /// The slot has exactly one feasible product; it is not a variable.
    Fixed(ProductId),
    /// The slot is a free variable with the given candidate labels.
    Variable {
        /// The MRF variable.
        var: VarId,
        /// Label → product mapping. Shared with the energy cache's domain
        /// interner, so rebuilds reference-count instead of deep-cloning
        /// one candidate list per free slot.
        candidates: Arc<Vec<ProductId>>,
    },
}

/// The constructed energy: MRF model plus the slot bindings to decode
/// solutions back into assignments.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    model: MrfModel,
    slots: Vec<Vec<SlotBinding>>,
    /// The host owning each variable slot (stale at tombstoned slots): the
    /// inverse of `slots`, so a flipped variable names the one product row
    /// it changes.
    owners: Vec<HostId>,
    base_energy: f64,
}

impl EnergyModel {
    /// Assembles a model from its parts (used by [`EnergyCache`] rebuilds).
    pub(crate) fn from_parts(
        model: MrfModel,
        slots: Vec<Vec<SlotBinding>>,
        base_energy: f64,
    ) -> EnergyModel {
        let mut owners = vec![HostId(u32::MAX); model.var_count()];
        for (host, row) in slots.iter().enumerate() {
            for binding in row {
                if let SlotBinding::Variable { var, .. } = binding {
                    owners[var.0] = HostId(host as u32);
                }
            }
        }
        EnergyModel {
            model,
            slots,
            owners,
            base_energy,
        }
    }

    /// The underlying MRF.
    pub fn model(&self) -> &MrfModel {
        &self.model
    }

    /// Mutable access to the underlying MRF alone (crate-internal): the
    /// dual-decomposition coordinator applies multiplier overlays to
    /// boundary unaries in place — slot bindings and base energy are
    /// untouched, so this narrower borrow keeps them provably consistent.
    pub(crate) fn model_mut(&mut self) -> &mut MrfModel {
        &mut self.model
    }

    /// Mutable access for [`EnergyCache`]'s in-place edits: the model, the
    /// slot bindings, the variable owners and the fixed–fixed base energy,
    /// borrowed together so an edit can keep all four consistent.
    pub(crate) fn parts_mut(
        &mut self,
    ) -> (
        &mut MrfModel,
        &mut Vec<Vec<SlotBinding>>,
        &mut Vec<HostId>,
        &mut f64,
    ) {
        (
            &mut self.model,
            &mut self.slots,
            &mut self.owners,
            &mut self.base_energy,
        )
    }

    /// The binding of each (host, slot index).
    pub fn slots(&self) -> &[Vec<SlotBinding>] {
        &self.slots
    }

    /// The host whose slot variable `v` binds (meaningless for a tombstoned
    /// slot).
    pub(crate) fn owner(&self, v: VarId) -> HostId {
        self.owners[v.0]
    }

    /// Pairwise energy between slots that are both fixed — constant across
    /// all labelings, excluded from the MRF but part of the true objective.
    pub fn base_energy(&self) -> f64 {
        self.base_energy
    }

    /// Decodes an MRF labeling into a product assignment.
    ///
    /// # Panics
    ///
    /// Panics if `labels` does not match the model's arity (solver output
    /// always does).
    pub fn decode(&self, labels: &[usize]) -> Assignment {
        Assignment::from_slots(
            (0..self.slots.len())
                .map(|host| self.decode_host(labels, HostId(host as u32)))
                .collect(),
        )
    }

    /// Decodes one host's product row (empty for a host past the model).
    pub(crate) fn decode_host(&self, labels: &[usize], host: HostId) -> Vec<ProductId> {
        self.slots.get(host.index()).map_or_else(Vec::new, |row| {
            row.iter()
                .map(|binding| match binding {
                    SlotBinding::Fixed(p) => *p,
                    SlotBinding::Variable { var, candidates } => candidates[labels[var.0]],
                })
                .collect()
        })
    }
}

/// Builds the MRF energy for `network` under `constraints` from scratch.
///
/// This is the one-shot form of [`EnergyCache`]: construction happens in
/// stages — per-host constraint-driven domain filtering, variable layout,
/// similarity edges with interned-domain potential sharing, constraint
/// edges — and the cache keeps those stages' products across network
/// revisions. Batch callers get the same model without holding the state.
///
/// # Errors
///
/// * [`crate::Error::Infeasible`] — constraint filtering empties a slot's
///   domain.
/// * [`crate::Error::Mrf`] — internal model construction failure (never
///   expected for validated networks).
pub fn build_energy(
    network: &Network,
    similarity: &ProductSimilarity,
    constraints: &ConstraintSet,
) -> Result<EnergyModel> {
    EnergyCache::new(network, similarity, constraints).map(EnergyCache::into_model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;
    use netmodel::catalog::Catalog;
    use netmodel::constraints::{Constraint, Scope};
    use netmodel::network::NetworkBuilder;
    use netmodel::{HostId, ServiceId};

    /// 3-host line; two services; host 2's OS is legacy-fixed.
    fn fixture() -> (Network, Catalog, ProductSimilarity) {
        let mut c = Catalog::new();
        let os = c.add_service("os");
        let wb = c.add_service("wb");
        let win = c.add_product("win", os).unwrap();
        let lin = c.add_product("lin", os).unwrap();
        let ie = c.add_product("ie", wb).unwrap();
        let ch = c.add_product("ch", wb).unwrap();
        let mut b = NetworkBuilder::new();
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1");
        let h2 = b.add_host("h2");
        b.add_service(h0, os, vec![win, lin]).unwrap();
        b.add_service(h0, wb, vec![ie, ch]).unwrap();
        b.add_service(h1, os, vec![win, lin]).unwrap();
        b.add_service(h1, wb, vec![ie, ch]).unwrap();
        b.add_service(h2, os, vec![win]).unwrap(); // legacy
        b.add_link(h0, h1).unwrap();
        b.add_link(h1, h2).unwrap();
        let net = b.build(&c).unwrap();
        let mut vals = vec![0.0; 16];
        for i in 0..4 {
            vals[i * 4 + i] = 1.0;
        }
        vals[win.index() * 4 + lin.index()] = 0.3;
        vals[lin.index() * 4 + win.index()] = 0.3;
        vals[ie.index() * 4 + ch.index()] = 0.2;
        vals[ch.index() * 4 + ie.index()] = 0.2;
        (net, c, ProductSimilarity::from_dense(4, vals))
    }

    fn ids(
        c: &Catalog,
    ) -> (
        ServiceId,
        ServiceId,
        ProductId,
        ProductId,
        ProductId,
        ProductId,
    ) {
        (
            c.service_by_name("os").unwrap(),
            c.service_by_name("wb").unwrap(),
            c.product_by_name("win").unwrap(),
            c.product_by_name("lin").unwrap(),
            c.product_by_name("ie").unwrap(),
            c.product_by_name("ch").unwrap(),
        )
    }

    #[test]
    fn variable_and_fixed_slot_layout() {
        let (net, _, sim) = fixture();
        let e = build_energy(&net, &sim, &ConstraintSet::new()).unwrap();
        // 4 free slots (h0 os/wb, h1 os/wb); h2 os is fixed.
        assert_eq!(e.model().var_count(), 4);
        assert!(matches!(e.slots()[2][0], SlotBinding::Fixed(_)));
        // h0-h1 shares two services -> 2 MRF edges.
        assert_eq!(e.model().edge_count(), 2);
        // h1-h2 os edge was folded into h1's unary, not an MRF edge.
        assert_eq!(e.base_energy(), 0.0);
    }

    #[test]
    fn decode_round_trip_is_valid() {
        let (net, _, sim) = fixture();
        let e = build_energy(&net, &sim, &ConstraintSet::new()).unwrap();
        let labels = vec![0usize; e.model().var_count()];
        let a = e.decode(&labels);
        a.validate(&net).unwrap();
    }

    #[test]
    fn folded_unary_matches_similarity() {
        // h1's OS unary must carry sim(candidate, win) from the fixed h2.
        let (net, c, sim) = fixture();
        let (_, _, win, lin, _, _) = ids(&c);
        let e = build_energy(&net, &sim, &ConstraintSet::new()).unwrap();
        let SlotBinding::Variable { var, candidates } = &e.slots()[1][0] else {
            panic!("h1 os should be free");
        };
        let unary = e.model().unary(*var);
        let win_label = candidates.iter().position(|&p| p == win).unwrap();
        let lin_label = candidates.iter().position(|&p| p == lin).unwrap();
        // Prconst + sim(win, win)=1 vs Prconst + sim(lin, win)=0.3.
        assert!((unary[win_label] - 1.01).abs() < 1e-12);
        assert!((unary[lin_label] - 0.31).abs() < 1e-12);
    }

    #[test]
    fn fix_constraint_restricts_domain() {
        let (net, c, sim) = fixture();
        let (os, _, _, lin, _, _) = ids(&c);
        let mut cs = ConstraintSet::new();
        cs.push(Constraint::fix(HostId(0), os, lin));
        let e = build_energy(&net, &sim, &cs).unwrap();
        assert_eq!(e.model().var_count(), 3);
        assert_eq!(e.slots()[0][0], SlotBinding::Fixed(lin));
    }

    #[test]
    fn infeasible_fix_is_reported() {
        let (net, c, sim) = fixture();
        let (os, _, _, lin, _, _) = ids(&c);
        let mut cs = ConstraintSet::new();
        // h2 can only run win; fixing lin empties the domain.
        cs.push(Constraint::fix(HostId(2), os, lin));
        let err = build_energy(&net, &sim, &cs).unwrap_err();
        assert!(matches!(err, Error::Infeasible { .. }));
    }

    #[test]
    fn forbid_with_fixed_trigger_filters_domain() {
        let (net, c, sim) = fixture();
        let (os, wb, win, _, ie, ch) = ids(&c);
        let mut cs = ConstraintSet::new();
        cs.push(Constraint::fix(HostId(0), os, win));
        // win is now certain at h0; forbidding (win, ie) must remove ie.
        cs.push(Constraint::forbid_combination(
            Scope::Host(HostId(0)),
            (os, win),
            (wb, ie),
        ));
        let e = build_energy(&net, &sim, &cs).unwrap();
        assert_eq!(e.slots()[0][1], SlotBinding::Fixed(ch));
    }

    #[test]
    fn require_chain_propagates_through_fixpoint() {
        let (net, c, sim) = fixture();
        let (os, wb, win, _, ie, _) = ids(&c);
        let mut cs = ConstraintSet::new();
        cs.push(Constraint::fix(HostId(0), os, win));
        cs.push(Constraint::require_combination(
            Scope::Host(HostId(0)),
            (os, win),
            (wb, ie),
        ));
        let e = build_energy(&net, &sim, &cs).unwrap();
        assert_eq!(e.slots()[0][1], SlotBinding::Fixed(ie));
    }

    #[test]
    fn free_combination_becomes_penalty_edge() {
        let (net, c, sim) = fixture();
        let (os, wb, _, lin, ie, _) = ids(&c);
        let mut cs = ConstraintSet::new();
        cs.push(Constraint::forbid_combination(
            Scope::All,
            (os, lin),
            (wb, ie),
        ));
        let e = build_energy(&net, &sim, &cs).unwrap();
        // Two extra intra-host edges (h0 and h1; h2 has no browser).
        assert_eq!(e.model().edge_count(), 4);
        // Energy of a violating labeling includes the BIG cost: set h0 to
        // (lin, ie) and everything else to label 0.
        let SlotBinding::Variable { candidates: ca, .. } = &e.slots()[0][0] else {
            panic!()
        };
        let SlotBinding::Variable { candidates: cb, .. } = &e.slots()[0][1] else {
            panic!()
        };
        let lin_label = ca.iter().position(|&p| p == lin).unwrap();
        let ie_label = cb.iter().position(|&p| p == ie).unwrap();
        let mut labels = vec![0usize; e.model().var_count()];
        labels[0] = lin_label;
        labels[1] = ie_label;
        assert!(e.model().energy(&labels) >= 1e6);
    }

    #[test]
    fn potentials_are_shared_across_edges() {
        // A triangle of identical hosts: all three inter-host OS edges reuse
        // one potential (observable via memory layout: edge_count 3 but the
        // model builds; sharing itself is internal, so assert per-edge costs
        // are consistent instead).
        let mut c = Catalog::new();
        let os = c.add_service("os");
        let p0 = c.add_product("a", os).unwrap();
        let p1 = c.add_product("b", os).unwrap();
        let mut b = NetworkBuilder::new();
        let hs: Vec<HostId> = (0..3).map(|i| b.add_host(&format!("h{i}"))).collect();
        for &h in &hs {
            b.add_service(h, os, vec![p0, p1]).unwrap();
        }
        b.add_link(hs[0], hs[1]).unwrap();
        b.add_link(hs[1], hs[2]).unwrap();
        b.add_link(hs[0], hs[2]).unwrap();
        let net = b.build(&c).unwrap();
        let sim = ProductSimilarity::from_dense(2, vec![1.0, 0.4, 0.4, 1.0]);
        let e = build_energy(&net, &sim, &ConstraintSet::new()).unwrap();
        assert_eq!(e.model().edge_count(), 3);
        for edge in e.model().edges() {
            assert_eq!(e.model().edge_cost(edge, 0, 0), 1.0);
            assert_eq!(e.model().edge_cost(edge, 0, 1), 0.4);
        }
    }

    #[test]
    fn energy_matches_manual_computation() {
        let (net, c, sim) = fixture();
        let (_, _, win, lin, ie, ch) = ids(&c);
        let e = build_energy(&net, &sim, &ConstraintSet::new()).unwrap();
        // Assignment: h0=(win, ie), h1=(lin, ch), h2=(win).
        let mut labels = vec![0usize; 4];
        let find = |slot: &SlotBinding, p: ProductId| -> (VarId, usize) {
            let SlotBinding::Variable { var, candidates } = slot else {
                panic!()
            };
            (*var, candidates.iter().position(|&q| q == p).unwrap())
        };
        for (slot, product) in [
            (&e.slots()[0][0], win),
            (&e.slots()[0][1], ie),
            (&e.slots()[1][0], lin),
            (&e.slots()[1][1], ch),
        ] {
            let (var, label) = find(slot, product);
            labels[var.0] = label;
        }
        let mrf_energy = e.model().energy(&labels) + e.base_energy();
        // Manual: 4×Prconst + edge(h0,h1): sim(win,lin)+sim(ie,ch) = 0.5
        //         + folded edge(h1,h2): sim(lin,win) = 0.3.
        assert!((mrf_energy - (0.04 + 0.5 + 0.3)).abs() < 1e-9);
        // And the decoded assignment's edge similarity agrees (minus Prconst).
        let a = e.decode(&labels);
        assert!((a.total_edge_similarity(&net, &sim) - 0.8).abs() < 1e-12);
    }
}
