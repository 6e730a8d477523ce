//! Incremental energy construction: edit only what a delta touched.
//!
//! [`crate::energy::build_energy`] translates a network into a pairwise MRF
//! from scratch. A long-lived service applying a stream of
//! [`netmodel::delta::NetworkDelta`]s would waste almost all of that work —
//! after a single-host change, 99% of the filtered domains, every shared
//! potential matrix, *and every MRF variable and edge* are unchanged.
//! [`EnergyCache`] is the stateful form of the same translation:
//!
//! * **Domain filtering is per-host and cached.** Constraint-driven domain
//!   filtering (Fix restriction + the conditional-combination fixpoint) only
//!   ever reads one host's slots, so the cache refilters exactly the hosts
//!   whose [`netmodel::network::Network::host_revision`] moved since the
//!   last refresh.
//! * **Domains are interned.** Each distinct candidate list gets a
//!   [`DomainId`]; slots reference domains by id. This also fixes the
//!   original `build_energy` hot-path sin of keying the potential cache on
//!   freshly allocated `(Vec<u16>, Vec<u16>)` pairs per edge.
//! * **Potential matrices persist across revisions.** The `O(L²)`
//!   similarity-lookup cost matrices are cached by `(DomainId, DomainId)`
//!   and survive rebuilds; a refresh only recomputes matrices for domain
//!   pairs it has never seen.
//! * **The MRF is edited in place, factor by factor.** `mrf`'s
//!   [`mrf::model::MrfModel`] keeps stable variable handles across
//!   mutations (tombstones + free lists), so a refresh re-derives only the
//!   factors of paper Eq. 1 that changed. Its units are the slot and the
//!   link:
//!   - a slot is *rebound* when its interned [`DomainId`] changed, or its
//!     host was added or removed. Only a rebound slot's variable is
//!     removed and, if the slot is still free, re-created with its unary,
//!     its similarity edges and its combination-constraint edges; the
//!     fixed–fixed base terms of its links are re-derived with it;
//!   - a link is *changed* when it was added or removed since the last
//!     refresh. The cache keeps the neighbour lists its model was built
//!     from and diffs them against the network only at hosts whose
//!     [`netmodel::network::Network::link_revision`] moved. A changed
//!     link's edges between kept variables and its fixed–fixed base terms
//!     are re-derived;
//!   - a kept variable's unary is *refolded* only when a fixed partner's
//!     contribution to it changed: a neighbour's slot on the same service
//!     was rebound and is `Fixed` before or after, or a changed link's
//!     partner slot on that service is `Fixed`.
//!
//!   Every other variable keeps its [`mrf::VarId`], including every
//!   variable of a host whose links changed but whose domains did not;
//!   that is also what keeps warm-start seeds valid across revisions. The
//!   model work is `O(degree)` per rebound slot, per changed link and per
//!   host whose links moved, instead of the `O(V + E)` linear reassembly.
//!   Handed the labeling its caller carries, an edit also prices the
//!   factors it rewrites at those labels before anything moves (an `Edit`
//!   record), so the engine can carry the labeling's energy across the
//!   edit without evaluating the model.
//!
//! Hinted and un-hinted refreshes of a *synced* cache take the same edit
//! path: a hint ([`netmodel::delta::BatchEffect::touched`]) names the hosts
//! to look at, and without one the cache finds them by diffing the per-host
//! domain and link revision counters
//! ([`netmodel::network::Network::host_revision`] /
//! [`netmodel::network::Network::link_revision`]). Only refreshes with no
//! synced model to edit — a cold build or a constraint change —
//! reassemble linearly, as does any refresh once the edited model's
//! fragmentation crosses [`mrf::model::MrfModel::should_compact`]'s
//! threshold: the rebuild doubles as the compaction, restoring a dense
//! model. The expensive part of reacting to a delta — the re-solve — is
//! warm-started by [`crate::engine::DiversityEngine`] from the previous
//! MAP assignment either way.

use std::collections::HashMap;
use std::sync::Arc;

use mrf::model::{EdgeId, MrfModel, PotentialId, VarId};

use netmodel::catalog::ProductSimilarity;
use netmodel::constraints::{ConstraintSet, Scope};
use netmodel::network::Network;
use netmodel::{HostId, ProductId, ServiceId};

use crate::energy::{EnergyModel, SlotBinding, CONSTRAINT_COST, PREFERENCE_COST};
use crate::{Error, Result};

/// Handle to an interned candidate domain (a distinct `Vec<ProductId>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(u32);

/// Interns candidate lists so equal domains share one id and one allocation.
#[derive(Debug, Default)]
struct DomainInterner {
    by_key: HashMap<Vec<ProductId>, DomainId>,
    domains: Vec<Arc<Vec<ProductId>>>,
    /// Slots referencing each domain. An entry at 0 is dead: compaction
    /// evicts it once dead entries outnumber live ones.
    refs: Vec<u32>,
    /// Domains with a nonzero reference count.
    live: usize,
}

impl DomainInterner {
    fn intern(&mut self, domain: Vec<ProductId>) -> DomainId {
        if let Some(&id) = self.by_key.get(&domain) {
            return id;
        }
        let id = DomainId(self.domains.len() as u32);
        self.domains.push(Arc::new(domain.clone()));
        self.refs.push(0);
        self.by_key.insert(domain, id);
        id
    }

    fn resolve(&self, id: DomainId) -> &Arc<Vec<ProductId>> {
        &self.domains[id.0 as usize]
    }

    /// Counts one more slot referencing `id`.
    fn retain(&mut self, id: DomainId) {
        let refs = &mut self.refs[id.0 as usize];
        if *refs == 0 {
            self.live += 1;
        }
        *refs += 1;
    }

    /// Counts one slot fewer referencing `id`.
    fn release(&mut self, id: DomainId) {
        let refs = &mut self.refs[id.0 as usize];
        *refs -= 1;
        if *refs == 0 {
            self.live -= 1;
        }
    }
}

/// One service instance of one host: `(host, slot index)`.
pub(crate) type Slot = (HostId, usize);

/// What an in-place edit rewrote, recorded when the refresh is handed the
/// labeling it must carry ([`EnergyCache::refresh_carrying`]): the rebound
/// slots and the variables they gave up, the kept variables whose unaries
/// were refolded, the kept variable pairs of the changed links (module
/// docs), and the energy the rewritten factors held at the carried labels.
/// The engine re-seeds the rebound slots' variables and prices the same
/// factors again ([`Edit::scope_energy`]) to carry its objective across the
/// edit without evaluating the whole model.
#[derive(Debug)]
pub(crate) struct Edit {
    /// The rebound slots, ascending: their variables were removed and,
    /// where the slot is still free, re-created (a new host's for the first
    /// time; a removed host keeps none).
    pub(crate) rebound: Vec<Slot>,
    /// The hosts owning a rebound slot, ascending: the only rows whose
    /// products the edit can move.
    pub(crate) hosts: Vec<HostId>,
    /// The variables the rebound slots gave up.
    pub(crate) removed: Vec<VarId>,
    /// Kept free slots whose unaries the edit refolded, ascending.
    refolded: Vec<Slot>,
    /// The kept variable pairs of the changed links, one per shared free
    /// service: the edit removed their edge (a removed link) or added it
    /// (an added link).
    linked: Vec<(VarId, VarId)>,
    /// [`Edit::scope_energy`] before the edit, at the carried labels.
    pub(crate) retracted: f64,
}

impl Edit {
    /// The MRF energy of the factors this edit rewrites, under `labels`:
    /// the unaries of the rebound and refolded slots, every edge incident
    /// to a rebound slot's variable, and the edge between each pair in
    /// [`Edit::linked`] where `energy` has one, each counted once. Every
    /// other factor is the same object at the same labels before and after
    /// the edit, so the MRF energy moves by exactly this scope's energy
    /// after the edit minus [`Edit::retracted`] (the base energy is the
    /// model's own, re-derived by the edit). The one statement of what an
    /// in-place edit changes; [`EnergyCache::edit`] is its implementation.
    pub(crate) fn scope_energy(&self, energy: &EnergyModel, labels: &[usize]) -> f64 {
        let model = energy.model();
        let var = |&(h, k): &Slot| match energy.slots().get(h.index())?.get(k)? {
            SlotBinding::Variable { var, .. } => Some(*var),
            SlotBinding::Fixed(_) => None,
        };
        let mut rebound: Vec<VarId> = self.rebound.iter().filter_map(var).collect();
        rebound.sort_unstable();
        let mut total = 0.0;
        for v in rebound
            .iter()
            .copied()
            .chain(self.refolded.iter().filter_map(var))
        {
            total += model.unary(v)[labels[v.0]];
        }
        for &v in &rebound {
            for &eidx in model.incident_edges(v) {
                let e = &model.edges()[eidx as usize];
                let other = if e.a() == v { e.b() } else { e.a() };
                if other < v && rebound.binary_search(&other).is_ok() {
                    continue; // counted from `other`, a rebound variable too
                }
                total += model.edge_cost(e, labels[e.a().0], labels[e.b().0]);
            }
        }
        for &(a, b) in &self.linked {
            if let Some(e) = edge_between(model, a, b) {
                let e = &model.edges()[e.0];
                total += model.edge_cost(e, labels[e.a().0], labels[e.b().0]);
            }
        }
        total
    }
}

/// The edge joining variables `a` and `b`, if any.
fn edge_between(model: &MrfModel, a: VarId, b: VarId) -> Option<EdgeId> {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    model
        .incident_edges(lo)
        .iter()
        .map(|&eidx| EdgeId(eidx as usize))
        .find(|e| {
            let edge = &model.edges()[e.0];
            edge.a() == lo && edge.b() == hi
        })
}

/// What one [`EnergyCache::refresh`] did, for telemetry and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebuildStats {
    /// Whether the model changed at all (false: cache was current).
    pub rebuilt: bool,
    /// Whether the change was applied as an in-place model *edit* (only
    /// touched hosts' variables and incident factors moved) rather than a
    /// linear reassembly. Always false when `rebuilt` is false.
    pub edited: bool,
    /// Hosts whose domains were refiltered (0 on a pure structural change).
    pub hosts_refiltered: usize,
    /// Shared potential matrices computed fresh this refresh.
    pub potentials_computed: usize,
    /// Shared potential matrices served from the cross-revision cache.
    pub potentials_reused: usize,
    /// Live free variables in the refreshed model.
    pub variables: usize,
    /// Live edges in the refreshed model.
    pub edges: usize,
}

/// Constraint-driven domain filtering for one host: Fix restriction plus
/// the conditional-combination fixpoint. Host-local by construction — both
/// services of a combination constraint live on the same host — which is
/// what makes per-host incremental refiltering exact.
pub(crate) fn filter_host_domains(
    network: &Network,
    host_id: HostId,
    constraints: &ConstraintSet,
) -> Result<Vec<Vec<ProductId>>> {
    let host = network.host(host_id).map_err(Error::Model)?;
    let mut domains: Vec<Vec<ProductId>> = host
        .services()
        .iter()
        .map(|inst| constraints.restrict_candidates(host_id, inst.service(), inst.candidates()))
        .collect();
    loop {
        let mut changed = false;
        for c in constraints.iter() {
            let Some(comb) = c.as_combination() else {
                continue;
            };
            match comb.scope {
                Scope::Host(h) if h != host_id => continue,
                _ => {}
            }
            let (Some(sm), Some(sn)) = (
                host.service_slot(comb.if_service),
                host.service_slot(comb.then_service),
            ) else {
                continue; // vacuous at hosts missing either service
            };
            let other = comb.other;
            let trigger_fixed = domains[sm] == vec![comb.if_product];
            let trigger_possible = domains[sm].contains(&comb.if_product);
            if comb.is_forbid {
                // If the trigger is certain, the forbidden product goes.
                if trigger_fixed && domains[sn].contains(&other) {
                    domains[sn].retain(|&p| p != other);
                    changed = true;
                }
                // If the forbidden product is certain, the trigger goes.
                if domains[sn] == vec![other] && trigger_possible {
                    domains[sm].retain(|&p| p != comb.if_product);
                    changed = true;
                }
            } else {
                // Require: trigger certain -> then-slot collapses to `other`.
                if trigger_fixed && domains[sn] != vec![other] {
                    domains[sn].retain(|&p| p == other);
                    changed = true;
                }
                // `other` impossible -> the trigger is impossible.
                if !domains[sn].contains(&other) && trigger_possible {
                    domains[sm].retain(|&p| p != comb.if_product);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (slot, inst) in host.services().iter().enumerate() {
        if domains[slot].is_empty() {
            return Err(Error::Infeasible {
                host: host_id,
                service: inst.service(),
            });
        }
    }
    Ok(domains)
}

/// A stateful, revision-aware energy builder (module docs).
#[derive(Debug)]
pub struct EnergyCache {
    constraints: ConstraintSet,
    interner: DomainInterner,
    /// Cross-revision cost-matrix cache, keyed by interned domain pair in
    /// `(row, column)` orientation.
    costs: HashMap<(DomainId, DomainId), Arc<Vec<f64>>>,
    /// Filtered, interned domain per (host, slot).
    domains: Vec<Vec<DomainId>>,
    /// Per-host revision the cached domains correspond to.
    host_revisions: Vec<u64>,
    /// Per-host *link* revision the cached model's incident factors
    /// correspond to ([`Network::link_revision`]). Diffing it against the
    /// network recovers the hosts whose neighborhoods moved, which is what
    /// lets an un-hinted refresh derive a complete touched set instead of
    /// reassembling, and what tells an edit where to diff `adjacency`.
    link_revisions: Vec<u64>,
    /// The sorted neighbour list of each host that the cached model was
    /// built from: an edit finds the added and removed links by diffing a
    /// host's list against [`Network::neighbors`] where its link revision
    /// moved.
    adjacency: Vec<Vec<HostId>>,
    /// The service of each slot, per host. A removed host keeps the list
    /// it ran, so an edit can still pair its slots with its former
    /// neighbours' when it retracts their factors.
    services: Vec<Vec<ServiceId>>,
    /// Network revision the cached *model* corresponds to; `None` forces a
    /// rebuild at the next refresh.
    synced: Option<u64>,
    model: EnergyModel,
    /// Domain pair → potential registered in the *current* model. Valid as
    /// long as the model lives (its potential ids are append-only); cleared
    /// on every reassembly and on interner compaction.
    registered: HashMap<(DomainId, DomainId), PotentialId>,
}

impl EnergyCache {
    /// Builds the cache (and the initial model) for `network`.
    ///
    /// # Errors
    ///
    /// * [`Error::Infeasible`] — constraint filtering empties a slot's
    ///   domain.
    /// * [`Error::Mrf`] — internal model construction failure (never
    ///   expected for validated networks).
    pub fn new(
        network: &Network,
        similarity: &ProductSimilarity,
        constraints: &ConstraintSet,
    ) -> Result<EnergyCache> {
        let mut cache = EnergyCache::deferred(constraints);
        cache.refresh(network, similarity)?;
        Ok(cache)
    }

    /// A cache with no model built yet: the first [`EnergyCache::refresh`]
    /// does the full build. Lets callers layer configuration (the
    /// constraints) without paying for a build they would immediately
    /// invalidate.
    pub fn deferred(constraints: &ConstraintSet) -> EnergyCache {
        EnergyCache {
            constraints: constraints.clone(),
            interner: DomainInterner::default(),
            costs: HashMap::new(),
            domains: Vec::new(),
            host_revisions: Vec::new(),
            link_revisions: Vec::new(),
            adjacency: Vec::new(),
            services: Vec::new(),
            synced: None,
            model: EnergyModel::from_parts(MrfModel::new(), Vec::new(), 0.0),
            registered: HashMap::new(),
        }
    }

    /// The energy model for the last refreshed network revision.
    pub fn model(&self) -> &EnergyModel {
        &self.model
    }

    /// Consumes the cache, returning the current model.
    pub fn into_model(self) -> EnergyModel {
        self.model
    }

    /// Mutable access to the cached model (crate-internal): the sharded
    /// coordinator's dual-decomposition loop overlays multiplier addons on
    /// boundary unaries and reverts them bitwise before the cache sees
    /// another refresh, so cached revision bookkeeping stays valid.
    pub(crate) fn model_mut(&mut self) -> &mut EnergyModel {
        &mut self.model
    }

    /// The constraint set the cached domains were filtered under.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// The cache's memory-footprint drivers: `(interned domains, cached
    /// cost matrices)`. Compaction (automatic during refresh) keeps both
    /// proportional to the domains the current revision references, so a
    /// long-lived engine absorbing domain-churning deltas does not grow
    /// without bound.
    pub fn footprint(&self) -> (usize, usize) {
        (self.interner.domains.len(), self.costs.len())
    }

    /// Drops interner entries and cost matrices no longer referenced by any
    /// slot, remapping the live domain ids. Called by refresh once dead
    /// entries dominate; a delta stream cycling candidate sets otherwise
    /// accretes every domain ever seen for the process lifetime.
    fn compact(&mut self) {
        let mut interner = DomainInterner::default();
        let mut remap: HashMap<DomainId, DomainId> = HashMap::new();
        for row in &mut self.domains {
            for id in row.iter_mut() {
                let new_id = match remap.get(id) {
                    Some(&n) => n,
                    None => {
                        let n = interner.intern(self.interner.resolve(*id).as_ref().clone());
                        remap.insert(*id, n);
                        n
                    }
                };
                interner.retain(new_id);
                *id = new_id;
            }
        }
        let old_costs = std::mem::take(&mut self.costs);
        for ((a, b), costs) in old_costs {
            if let (Some(&na), Some(&nb)) = (remap.get(&a), remap.get(&b)) {
                self.costs.insert((na, nb), costs);
            }
        }
        self.interner = interner;
        // The registered map is keyed by the old domain ids; the next
        // refresh reassembles and repopulates it.
        self.registered.clear();
    }

    /// Replaces the constraint set. All domains are refiltered at the next
    /// [`EnergyCache::refresh`] (constraints are not host-diffable).
    pub fn set_constraints(&mut self, constraints: &ConstraintSet) {
        self.constraints = constraints.clone();
        self.host_revisions.clear();
        self.link_revisions.clear();
        self.domains.clear();
        self.interner.refs.fill(0);
        self.interner.live = 0;
        self.synced = None;
    }

    /// Brings the cached model up to `network.revision()`: refilters the
    /// domains of hosts whose revision moved, then edits the synced model
    /// in place, or reassembles the MRF from the cached domains and cost
    /// matrices when there is no synced model to edit or it needs a
    /// compaction ([`EnergyCache::refresh_hinted`] says when). A no-op when
    /// already current.
    ///
    /// Transactional with respect to failure: an [`Error::Infeasible`]
    /// domain leaves the previously cached model intact.
    ///
    /// # Errors
    ///
    /// See [`EnergyCache::new`].
    pub fn refresh(
        &mut self,
        network: &Network,
        similarity: &ProductSimilarity,
    ) -> Result<RebuildStats> {
        self.refresh_hinted(network, similarity, None)
    }

    /// [`EnergyCache::refresh`] with a *touched-set fast path*: when the
    /// caller knows exactly which hosts a delta batch touched (a merged
    /// [`netmodel::delta::BatchEffect::touched`] set), the per-host
    /// revision scan is restricted to those hosts. Hinted or not, a synced
    /// cache **edits its model in place** at the granularity of the slot
    /// and the link (module docs): only the variables of slots whose
    /// interned domain changed are re-created, only the edges and base
    /// terms of those slots and of added or removed links are re-derived,
    /// and only the unaries whose fixed-partner contributions changed are
    /// refolded. Every other variable keeps its id (see [`mrf::model`]'s
    /// stability contract).
    ///
    /// Correctness requires the hint to cover every host whose revision
    /// moved *and* every endpoint of a changed link since the last refresh
    /// — which `touched` sets do by construction. Without a hint the same
    /// set is *derived* by diffing the per-host domain and link revision
    /// counters ([`Network::host_revision`] /
    /// [`Network::link_revision`]) against the cache; the hint merely saves
    /// that `O(hosts)` counter scan. The hint is ignored (full scan +
    /// reassembly) while the cache has no synced model, e.g. after
    /// [`EnergyCache::set_constraints`], and the refresh reassembles instead
    /// of editing when the edited model's fragmentation crosses the
    /// compaction threshold ([`mrf::model::MrfModel::should_compact`]).
    ///
    /// # Errors
    ///
    /// See [`EnergyCache::new`].
    pub fn refresh_hinted(
        &mut self,
        network: &Network,
        similarity: &ProductSimilarity,
        changed: Option<&[HostId]>,
    ) -> Result<RebuildStats> {
        self.refresh_carrying(network, similarity, changed, None)
            .map(|(stats, _)| stats)
    }

    /// [`EnergyCache::refresh_hinted`] for a caller carrying a labeling of
    /// the current model (`labels`, one entry per variable slot): an
    /// in-place edit also returns its [`Edit`] record, priced at those
    /// labels before anything moves. `None` for the record means the
    /// refresh was a no-op, reassembled (renumbering every variable), or
    /// had no labels to price.
    ///
    /// # Errors
    ///
    /// See [`EnergyCache::new`]; an [`Error::Infeasible`] leaves the cache
    /// as it was.
    pub(crate) fn refresh_carrying(
        &mut self,
        network: &Network,
        similarity: &ProductSimilarity,
        changed: Option<&[HostId]>,
        labels: Option<&[usize]>,
    ) -> Result<(RebuildStats, Option<Edit>)> {
        if self.synced == Some(network.revision()) {
            let stats = RebuildStats {
                rebuilt: false,
                variables: self.model.model().live_var_count(),
                edges: self.model.model().edge_count(),
                ..RebuildStats::default()
            };
            return Ok((stats, None));
        }
        // With a synced model the refresh is incremental even without a
        // caller hint: diffing the per-host domain *and* link revision
        // counters recovers exactly the hosts a hint would have named
        // (slot deltas bump `host_revision`, structural deltas bump
        // `link_revision` at every affected host), so the derived set is a
        // complete touched set and the in-place edit path stays open.
        let hinted = self.synced.is_some();
        let mut scan: Vec<HostId> = match changed {
            Some(hint) if hinted => hint.to_vec(),
            None if hinted => self.revised_hosts(network),
            _ => network.iter_hosts().map(|(id, _)| id).collect(),
        };
        scan.sort_unstable();
        scan.dedup();
        // Refilter changed hosts into a scratch list first so an infeasible
        // host cannot leave half-committed domains behind.
        let mut refiltered: Vec<(HostId, Vec<DomainId>)> = Vec::new();
        for &host_id in &scan {
            let current = network.host_revision(host_id);
            if self.host_revisions.get(host_id.index()) == Some(&current) {
                continue;
            }
            let domains = filter_host_domains(network, host_id, &self.constraints)?;
            let interned = domains
                .into_iter()
                .map(|d| self.interner.intern(d))
                .collect();
            refiltered.push((host_id, interned));
        }
        let hosts_refiltered = refiltered.len();
        let hosts = network.host_count();
        if self.domains.len() < hosts {
            self.domains.resize(hosts, Vec::new());
            self.host_revisions.resize(hosts, u64::MAX);
            self.link_revisions.resize(hosts, u64::MAX);
            self.adjacency.resize(hosts, Vec::new());
            self.services.resize(hosts, Vec::new());
        }
        // Commit the new domains, noting the rebound slots (module docs):
        // a slot whose domain id changed, or every slot of a host that
        // gained or lost its services (added or removed).
        let mut rebound: Vec<Slot> = Vec::new();
        for (h, interned) in refiltered {
            let i = h.index();
            for &id in &self.domains[i] {
                self.interner.release(id);
            }
            for &id in &interned {
                self.interner.retain(id);
            }
            let old = std::mem::replace(&mut self.domains[i], interned);
            let new = &self.domains[i];
            if old.len() == new.len() {
                rebound.extend((0..new.len()).filter(|&k| old[k] != new[k]).map(|k| (h, k)));
            } else {
                rebound.extend((0..old.len().max(new.len())).map(|k| (h, k)));
            }
            let host = network.host(h).map_err(Error::Model)?;
            if !host.is_removed() {
                let services = &mut self.services[i];
                services.clear();
                services.extend(host.services().iter().map(|inst| inst.service()));
            }
            self.host_revisions[i] = network.host_revision(h);
        }
        // Evict dead interner entries (domains no slot references anymore)
        // once they outnumber the live set. Compaction remaps domain ids,
        // so the refresh that runs it must reassemble.
        let live = self.interner.live;
        debug_assert_eq!(
            live,
            self.domains
                .iter()
                .flatten()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            "domain reference counts drifted from the slots"
        );
        let mut reassemble = !hinted;
        if self.interner.domains.len() >= 64 && self.interner.domains.len() > 2 * live {
            self.compact();
            reassemble = true;
        }
        // A shrinking model accretes tombstones and dead potentials; past
        // the threshold the reassembly doubles as the compaction.
        if self.model.model().should_compact() {
            reassemble = true;
        }
        let (potentials_computed, potentials_reused, edit) = if reassemble {
            let (c, r) = self.rebuild(network, similarity)?;
            (c, r, None)
        } else {
            let (c, r, edit) = self.edit(network, similarity, &scan, rebound, labels)?;
            (c, r, Some(edit))
        };
        let edited = edit.is_some();
        for &h in &scan {
            self.link_revisions[h.index()] = network.link_revision(h);
        }
        self.synced = Some(network.revision());
        let stats = RebuildStats {
            rebuilt: true,
            edited,
            hosts_refiltered,
            potentials_computed,
            potentials_reused,
            variables: self.model.model().live_var_count(),
            edges: self.model.model().edge_count(),
        };
        Ok((stats, edit.filter(|_| labels.is_some())))
    }

    /// The hosts whose cached state is behind `network`: the domain
    /// revision ([`Network::host_revision`]) or the incidence revision
    /// ([`Network::link_revision`]) moved since the last refresh. Because
    /// every delta variant bumps one of the two counters at every host it
    /// can affect, this is a complete touched set — the un-hinted
    /// equivalent of a caller-supplied
    /// [`netmodel::delta::BatchEffect::touched`] hint.
    fn revised_hosts(&self, network: &Network) -> Vec<HostId> {
        (0..network.host_count())
            .map(|i| HostId(i as u32))
            .filter(|&h| {
                let i = h.index();
                self.host_revisions.get(i) != Some(&network.host_revision(h))
                    || self.link_revisions.get(i) != Some(&network.link_revision(h))
            })
            .collect()
    }

    /// Looks up (or computes, caches and registers) the shared potential
    /// for a variable–variable domain pair, bumping the compute/reuse
    /// counters. Shared by the reassembly and the in-place edit.
    #[allow(clippy::too_many_arguments)]
    fn shared_potential(
        interner: &DomainInterner,
        costs: &mut HashMap<(DomainId, DomainId), Arc<Vec<f64>>>,
        registered: &mut HashMap<(DomainId, DomainId), PotentialId>,
        similarity: &ProductSimilarity,
        key: (DomainId, DomainId),
        mut register: impl FnMut(usize, usize, Vec<f64>) -> Result<PotentialId>,
        computed: &mut usize,
        reused: &mut usize,
    ) -> Result<PotentialId> {
        if let Some(&p) = registered.get(&key) {
            return Ok(p);
        }
        let ca = interner.resolve(key.0);
        let cb = interner.resolve(key.1);
        let matrix = match costs.get(&key) {
            Some(matrix) => {
                *reused += 1;
                Arc::clone(matrix)
            }
            None => {
                *computed += 1;
                let mut matrix = Vec::with_capacity(ca.len() * cb.len());
                for &pa in ca.iter() {
                    for &pb in cb.iter() {
                        matrix.push(similarity.get(pa, pb));
                    }
                }
                let matrix = Arc::new(matrix);
                costs.insert(key, Arc::clone(&matrix));
                matrix
            }
        };
        let p = register(ca.len(), cb.len(), matrix.as_ref().clone())?;
        registered.insert(key, p);
        Ok(p)
    }

    /// The intra-host combination-constraint cost matrix for a pair of free
    /// slots, or `None` when the constraint is vacuous there.
    fn combination_costs(
        comb: &netmodel::constraints::Combination,
        ca: &[ProductId],
        cb: &[ProductId],
    ) -> Option<Vec<f64>> {
        let trigger = ca.iter().position(|&p| p == comb.if_product)?;
        let mut matrix = vec![0.0; ca.len() * cb.len()];
        for (j, &pb) in cb.iter().enumerate() {
            let violates = if comb.is_forbid {
                pb == comb.other
            } else {
                pb != comb.other
            };
            if violates {
                matrix[trigger * cb.len() + j] = CONSTRAINT_COST;
            }
        }
        Some(matrix)
    }

    /// Reassembles the MRF from cached domains and cost matrices (steps 3-5
    /// of the original monolithic `build_energy`) and re-derives the edit
    /// bookkeeping (registered potentials, neighbour lists) along the way.
    /// Also the compaction path: the produced model is dense.
    fn rebuild(
        &mut self,
        network: &Network,
        similarity: &ProductSimilarity,
    ) -> Result<(usize, usize)> {
        self.registered.clear();
        for (host_id, _) in network.iter_hosts() {
            let list = &mut self.adjacency[host_id.index()];
            list.clear();
            list.extend_from_slice(network.neighbors(host_id));
        }
        // --- Variables. -----------------------------------------------------
        let mut model = MrfModel::new();
        let mut slots: Vec<Vec<SlotBinding>> = Vec::with_capacity(network.host_count());
        for (host_id, host) in network.iter_hosts() {
            let mut host_slots = Vec::with_capacity(host.services().len());
            for &did in &self.domains[host_id.index()] {
                let domain = self.interner.resolve(did);
                if domain.len() == 1 {
                    host_slots.push(SlotBinding::Fixed(domain[0]));
                } else {
                    let var = model.add_var(domain.len())?;
                    model.set_unary(var, vec![PREFERENCE_COST; domain.len()])?;
                    host_slots.push(SlotBinding::Variable {
                        var,
                        candidates: Arc::clone(domain),
                    });
                }
            }
            slots.push(host_slots);
        }

        // --- Inter-host similarity edges (paper Eq. 3). ---------------------
        let mut base_energy = 0.0;
        let mut computed = 0usize;
        let mut reused = 0usize;
        for &(a, b) in network.links() {
            let host_a = network.host(a).expect("validated network");
            let host_b = network.host(b).expect("validated network");
            let mut link_fixed = 0.0;
            let mut any_fixed = false;
            for (slot_a, inst) in host_a.services().iter().enumerate() {
                let Some(slot_b) = host_b.service_slot(inst.service()) else {
                    continue;
                };
                match (&slots[a.index()][slot_a], &slots[b.index()][slot_b]) {
                    (SlotBinding::Fixed(pa), SlotBinding::Fixed(pb)) => {
                        link_fixed += similarity.get(*pa, *pb);
                        any_fixed = true;
                    }
                    (SlotBinding::Fixed(pa), SlotBinding::Variable { var, candidates }) => {
                        for (label, &pb) in candidates.iter().enumerate() {
                            model.add_unary(*var, label, similarity.get(*pa, pb))?;
                        }
                    }
                    (SlotBinding::Variable { var, candidates }, SlotBinding::Fixed(pb)) => {
                        for (label, &pa) in candidates.iter().enumerate() {
                            model.add_unary(*var, label, similarity.get(pa, *pb))?;
                        }
                    }
                    (
                        SlotBinding::Variable { var: va, .. },
                        SlotBinding::Variable { var: vb, .. },
                    ) => {
                        let key = (
                            self.domains[a.index()][slot_a],
                            self.domains[b.index()][slot_b],
                        );
                        let pot = EnergyCache::shared_potential(
                            &self.interner,
                            &mut self.costs,
                            &mut self.registered,
                            similarity,
                            key,
                            |rows, cols, matrix| Ok(model.add_potential(rows, cols, matrix)?),
                            &mut computed,
                            &mut reused,
                        )?;
                        model.add_pairwise(*va, *vb, pot)?;
                    }
                }
            }
            if any_fixed {
                base_energy += link_fixed;
            }
        }

        // --- Intra-host combination constraints on two free slots. ----------
        for c in self.constraints.iter() {
            let Some(comb) = c.as_combination() else {
                continue;
            };
            let hosts: Vec<HostId> = match comb.scope {
                Scope::Host(h) => vec![h],
                Scope::All => network.iter_hosts().map(|(id, _)| id).collect(),
            };
            for h in hosts {
                let Ok(host) = network.host(h) else { continue };
                let (Some(sm), Some(sn)) = (
                    host.service_slot(comb.if_service),
                    host.service_slot(comb.then_service),
                ) else {
                    continue;
                };
                let (
                    SlotBinding::Variable {
                        var: va,
                        candidates: ca,
                    },
                    SlotBinding::Variable {
                        var: vb,
                        candidates: cb,
                    },
                ) = (&slots[h.index()][sm], &slots[h.index()][sn])
                else {
                    continue; // fixed sides were resolved by the fixpoint
                };
                let Some(matrix) = EnergyCache::combination_costs(&comb, ca, cb) else {
                    continue; // trigger filtered out: vacuous
                };
                model.add_pairwise_dense(*va, *vb, matrix)?;
            }
        }

        self.model = EnergyModel::from_parts(model, slots, base_energy);
        Ok((computed, reused))
    }

    /// Edits the cached model in place (module docs), once the refresh has
    /// committed the new domains of the refiltered `scan` hosts and noted
    /// their `rebound` slots (ascending):
    ///
    /// 1. lists the factor pairs that can have changed and plans the
    ///    [`Edit`]: the kept unaries to refold and the kept variable pairs
    ///    that changed links join. With `labels`, the edit is priced here,
    ///    before anything moves;
    /// 2. retracts the pairs' old fixed–fixed base terms and the removed
    ///    links' edges;
    /// 3. removes the rebound slots' variables (their incident edges go with
    ///    them), re-binds the slots from the committed domains and updates
    ///    the moved neighbour lists;
    /// 4. adds the pairs' new base terms and edges, and folds the unaries of
    ///    the new and the refolded variables;
    /// 5. re-adds the combination-constraint edges at rebound slots.
    fn edit(
        &mut self,
        network: &Network,
        similarity: &ProductSimilarity,
        scan: &[HostId],
        rebound: Vec<Slot>,
        labels: Option<&[usize]>,
    ) -> Result<(usize, usize, Edit)> {
        debug_assert!(
            rebound.windows(2).all(|w| w[0] < w[1]),
            "rebound slots ascend"
        );
        let mut edit = Edit {
            rebound,
            hosts: Vec::new(),
            removed: Vec::new(),
            refolded: Vec::new(),
            linked: Vec::new(),
            retracted: 0.0,
        };
        let is_rebound = |slot: Slot| edit.rebound.binary_search(&slot).is_ok();
        let services = &self.services;
        let slot_of = |h: HostId, s: ServiceId| services[h.index()].iter().position(|&x| x == s);

        // 1. The factor pairs that can have changed: two linked slots on one
        //    service, lower host first, with whether their link existed
        //    before the edit and exists after it. They are a rebound slot's
        //    pairs with its old and new neighbours (a pair of two rebound
        //    slots once, from its lower host) and the pairs of the links
        //    added or removed, diffed where a host's link revision moved
        //    (each link once, from its lower host).
        let mut pairs: Vec<(Slot, Slot, bool, bool)> = Vec::new();
        for &(g, j) in &edit.rebound {
            let s = services[g.index()][j];
            merge_sorted(
                &self.adjacency[g.index()],
                network.neighbors(g),
                |h, before, after| match slot_of(h, s) {
                    Some(k) if g < h => pairs.push(((g, j), (h, k), before, after)),
                    Some(k) if !is_rebound((h, k)) => pairs.push(((h, k), (g, j), before, after)),
                    _ => {}
                },
            );
        }
        let mut link_dirty = Vec::new();
        for &h in scan {
            if self.link_revisions[h.index()] == network.link_revision(h) {
                continue;
            }
            link_dirty.push(h);
            merge_sorted(
                &self.adjacency[h.index()],
                network.neighbors(h),
                |g, before, after| {
                    if before == after || g < h {
                        return;
                    }
                    for (i, &s) in services[h.index()].iter().enumerate() {
                        match slot_of(g, s) {
                            Some(k) if !is_rebound((h, i)) && !is_rebound((g, k)) => {
                                pairs.push(((h, i), (g, k), before, after));
                            }
                            _ => {}
                        }
                    }
                },
            );
        }
        // The plan, read off the model before it moves.
        let old = self.model.slots();
        for &(g, j) in &edit.rebound {
            if edit.hosts.last() != Some(&g) {
                edit.hosts.push(g);
            }
            if let Some(SlotBinding::Variable { var, .. }) = binding(old, (g, j)) {
                edit.removed.push(*var);
            }
        }
        let kept_var = |slot: Slot| match binding(old, slot) {
            Some(SlotBinding::Variable { var, .. }) if !is_rebound(slot) => Some(*var),
            _ => None,
        };
        let fixed_before = |slot: Slot| matches!(binding(old, slot), Some(SlotBinding::Fixed(_)));
        let fixed_after = |(h, k): Slot| {
            if is_rebound((h, k)) {
                let domain = self.domains[h.index()].get(k);
                domain.is_some_and(|&d| self.interner.resolve(d).len() == 1)
            } else {
                fixed_before((h, k))
            }
        };
        // A fixed slot folds into its partner's unary while their link
        // exists, so a kept variable is refolded when its partner is fixed
        // on either side of the edit.
        let folds = |slot: Slot, before: bool, after: bool| {
            (before && fixed_before(slot)) || (after && fixed_after(slot))
        };
        for &(a, b, before, after) in &pairs {
            match (kept_var(a), kept_var(b)) {
                (Some(va), Some(vb)) => edit.linked.push((va, vb)),
                (Some(_), None) if folds(b, before, after) => edit.refolded.push(a),
                (None, Some(_)) if folds(a, before, after) => edit.refolded.push(b),
                _ => {}
            }
        }
        edit.refolded.sort_unstable();
        edit.refolded.dedup();
        if let Some(labels) = labels {
            debug_assert_eq!(labels.len(), self.model.model().var_count());
            edit.retracted = edit.scope_energy(&self.model, labels);
        }

        let (model, slots, owners, base_energy) = self.model.parts_mut();
        if slots.len() < network.host_count() {
            slots.resize(network.host_count(), Vec::new());
        }

        // 2. Retract the old base terms and the removed links' edges.
        for &(a, b, before, after) in &pairs {
            if !before {
                continue;
            }
            match (binding(slots, a), binding(slots, b)) {
                (Some(&SlotBinding::Fixed(p)), Some(&SlotBinding::Fixed(q))) => {
                    *base_energy -= similarity.get(p, q);
                }
                (
                    Some(&SlotBinding::Variable { var: va, .. }),
                    Some(&SlotBinding::Variable { var: vb, .. }),
                ) if !after => {
                    if let Some(e) = edge_between(model, va, vb) {
                        model.remove_pairwise(e).map_err(Error::Mrf)?;
                    }
                }
                _ => {}
            }
        }

        // 3. Re-bind the rebound slots (a removed host keeps none) and
        //    bring the moved neighbour lists up to date.
        for &v in &edit.removed {
            model.remove_var(v).map_err(Error::Mrf)?;
        }
        for &h in &edit.hosts {
            slots[h.index()].truncate(self.domains[h.index()].len());
        }
        for &(h, k) in &edit.rebound {
            let Some(&did) = self.domains[h.index()].get(k) else {
                continue;
            };
            let domain = self.interner.resolve(did);
            let binding = if domain.len() == 1 {
                SlotBinding::Fixed(domain[0])
            } else {
                let var = model.add_var(domain.len()).map_err(Error::Mrf)?;
                if owners.len() <= var.0 {
                    owners.resize(var.0 + 1, HostId(u32::MAX));
                }
                owners[var.0] = h;
                SlotBinding::Variable {
                    var,
                    candidates: Arc::clone(domain),
                }
            };
            let row = &mut slots[h.index()];
            if k < row.len() {
                row[k] = binding;
            } else {
                row.push(binding); // a new host's slots arrive in order
            }
        }
        for &h in &link_dirty {
            let list = &mut self.adjacency[h.index()];
            list.clear();
            list.extend_from_slice(network.neighbors(h));
        }

        // 4. The new base terms, edges and unaries.
        let slots: &[Vec<SlotBinding>] = slots;
        let mut computed = 0usize;
        let mut reused = 0usize;
        for &(a, b, _, after) in &pairs {
            if !after {
                continue;
            }
            match (binding(slots, a), binding(slots, b)) {
                (Some(&SlotBinding::Fixed(p)), Some(&SlotBinding::Fixed(q))) => {
                    *base_energy += similarity.get(p, q);
                }
                (
                    Some(&SlotBinding::Variable { var: va, .. }),
                    Some(&SlotBinding::Variable { var: vb, .. }),
                ) => {
                    let key = (
                        self.domains[a.0.index()][a.1],
                        self.domains[b.0.index()][b.1],
                    );
                    let pot = EnergyCache::shared_potential(
                        &self.interner,
                        &mut self.costs,
                        &mut self.registered,
                        similarity,
                        key,
                        |rows, cols, matrix| {
                            model.add_potential(rows, cols, matrix).map_err(Error::Mrf)
                        },
                        &mut computed,
                        &mut reused,
                    )?;
                    model.add_pairwise(va, vb, pot).map_err(Error::Mrf)?;
                }
                _ => {}
            }
        }
        // A free slot's unary: the preference cost plus the similarity to
        // each fixed neighbour slot on its service, summed in ascending
        // neighbour order with the lower host's product first, as the
        // reassembly sums them.
        for &(h, k) in edit.rebound.iter().chain(&edit.refolded) {
            let Some(SlotBinding::Variable { var, candidates }) = binding(slots, (h, k)) else {
                continue;
            };
            let s = services[h.index()][k];
            let mut unary = vec![PREFERENCE_COST; candidates.len()];
            for &g in network.neighbors(h) {
                let Some(&SlotBinding::Fixed(p)) =
                    slot_of(g, s).and_then(|l| binding(slots, (g, l)))
                else {
                    continue;
                };
                for (label, &c) in candidates.iter().enumerate() {
                    unary[label] += if h < g {
                        similarity.get(c, p)
                    } else {
                        similarity.get(p, c)
                    };
                }
            }
            model.set_unary(*var, unary).map_err(Error::Mrf)?;
        }

        // 5. Combination-constraint edges at rebound slots (the kept ones
        //    between two kept variables never moved).
        for c in self.constraints.iter() {
            let Some(comb) = c.as_combination() else {
                continue;
            };
            let hosts: &[HostId] = match comb.scope {
                Scope::Host(h) => match edit.hosts.binary_search(&h) {
                    Ok(at) => &edit.hosts[at..=at],
                    Err(_) => &[],
                },
                Scope::All => &edit.hosts,
            };
            for &h in hosts {
                let Ok(host) = network.host(h) else { continue };
                let (Some(sm), Some(sn)) = (
                    host.service_slot(comb.if_service),
                    host.service_slot(comb.then_service),
                ) else {
                    continue;
                };
                if !is_rebound((h, sm)) && !is_rebound((h, sn)) {
                    continue;
                }
                let (
                    Some(SlotBinding::Variable {
                        var: va,
                        candidates: ca,
                    }),
                    Some(SlotBinding::Variable {
                        var: vb,
                        candidates: cb,
                    }),
                ) = (binding(slots, (h, sm)), binding(slots, (h, sn)))
                else {
                    continue; // fixed sides were resolved by the fixpoint
                };
                let Some(matrix) = EnergyCache::combination_costs(&comb, ca, cb) else {
                    continue; // trigger filtered out: vacuous
                };
                model
                    .add_pairwise_dense(*va, *vb, matrix)
                    .map_err(Error::Mrf)?;
            }
        }

        Ok((computed, reused, edit))
    }
}

/// The binding of `slot` in `slots`, if the host has that slot.
fn binding(slots: &[Vec<SlotBinding>], (h, k): Slot) -> Option<&SlotBinding> {
    slots.get(h.index())?.get(k)
}

/// Walks two ascending neighbour lists together, calling `visit(host,
/// before, after)` once for each host in either: whether it is in `old`
/// and whether it is in `new`.
fn merge_sorted(old: &[HostId], new: &[HostId], mut visit: impl FnMut(HostId, bool, bool)) {
    let (mut i, mut j) = (0, 0);
    loop {
        match (old.get(i), new.get(j)) {
            (Some(&o), Some(&n)) if o == n => {
                visit(o, true, true);
                i += 1;
                j += 1;
            }
            (Some(&o), Some(&n)) if o < n => {
                visit(o, true, false);
                i += 1;
            }
            (Some(&o), None) => {
                visit(o, true, false);
                i += 1;
            }
            (_, Some(&n)) => {
                visit(n, false, true);
                j += 1;
            }
            (None, None) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::catalog::Catalog;
    use netmodel::constraints::Constraint;
    use netmodel::delta::NetworkDelta;
    use netmodel::network::NetworkBuilder;

    fn instance(hosts: usize) -> (Network, Catalog, ProductSimilarity) {
        let mut c = Catalog::new();
        let os = c.add_service("os");
        let products: Vec<_> = (0..3)
            .map(|i| c.add_product(&format!("p{i}"), os).unwrap())
            .collect();
        let mut b = NetworkBuilder::new();
        let ids: Vec<HostId> = (0..hosts).map(|i| b.add_host(&format!("h{i}"))).collect();
        for &h in &ids {
            b.add_service(h, os, products.clone()).unwrap();
        }
        for w in ids.windows(2) {
            b.add_link(w[0], w[1]).unwrap();
        }
        let net = b.build(&c).unwrap();
        let mut vals = vec![0.0; 9];
        for i in 0..3 {
            for j in 0..3 {
                vals[i * 3 + j] = if i == j { 1.0 } else { 0.1 * (i + j) as f64 };
            }
        }
        (net, c, ProductSimilarity::from_dense(3, vals))
    }

    /// Semantic equivalence of two energy models that may disagree on
    /// variable *ids* (the edit path recycles slots; scratch assembly is
    /// dense): same binding structure and candidates per slot, same live
    /// counts, and identical objectives for random slot assignments encoded
    /// through each model's own variables.
    fn assert_equivalent(a: &EnergyModel, b: &EnergyModel) {
        assert_eq!(a.slots().len(), b.slots().len(), "host count");
        for (host, (ra, rb)) in a.slots().iter().zip(b.slots().iter()).enumerate() {
            assert_eq!(ra.len(), rb.len(), "slot count at host {host}");
            for (slot, (ba, bb)) in ra.iter().zip(rb.iter()).enumerate() {
                match (ba, bb) {
                    (SlotBinding::Fixed(pa), SlotBinding::Fixed(pb)) => {
                        assert_eq!(pa, pb, "fixed product at ({host}, {slot})")
                    }
                    (
                        SlotBinding::Variable { candidates: ca, .. },
                        SlotBinding::Variable { candidates: cb, .. },
                    ) => assert_eq!(ca, cb, "candidates at ({host}, {slot})"),
                    _ => panic!("binding kind mismatch at ({host}, {slot}): {ba:?} vs {bb:?}"),
                }
            }
        }
        assert_eq!(a.model().live_var_count(), b.model().live_var_count());
        assert_eq!(a.model().edge_count(), b.model().edge_count());
        assert!((a.base_energy() - b.base_energy()).abs() < 1e-9);
        let encode = |m: &EnergyModel, pick: &dyn Fn(usize, usize) -> usize| {
            let mut labels = vec![0usize; m.model().var_count()];
            for (host, row) in m.slots().iter().enumerate() {
                for (slot, binding) in row.iter().enumerate() {
                    if let SlotBinding::Variable { var, candidates } = binding {
                        labels[var.0] = pick(host, slot) % candidates.len();
                    }
                }
            }
            labels
        };
        for trial in 0..5usize {
            let pick = move |host: usize, slot: usize| host.wrapping_mul(31) + slot + trial * 7;
            let ea = a.model().energy(&encode(a, &pick)) + a.base_energy();
            let eb = b.model().energy(&encode(b, &pick)) + b.base_energy();
            assert!(
                (ea - eb).abs() < 1e-9,
                "objective mismatch on trial {trial}: {ea} vs {eb}"
            );
        }
    }

    /// A 6-host ring running `services` services on every host, each slot
    /// free over its service's three products.
    fn ring(services: usize) -> (Network, Catalog, ProductSimilarity) {
        let mut c = Catalog::new();
        let mut offered = Vec::new();
        for s in 0..services {
            let service = c.add_service(&format!("s{s}"));
            let products: Vec<_> = (0..3)
                .map(|i| c.add_product(&format!("s{s}p{i}"), service).unwrap())
                .collect();
            offered.push((service, products));
        }
        let mut b = NetworkBuilder::new();
        let ids: Vec<HostId> = (0..6).map(|i| b.add_host(&format!("h{i}"))).collect();
        for &h in &ids {
            for (service, products) in &offered {
                b.add_service(h, *service, products.clone()).unwrap();
            }
        }
        for i in 0..6 {
            b.add_link(ids[i], ids[(i + 1) % 6]).unwrap();
        }
        let net = b.build(&c).unwrap();
        let n = c.product_count();
        let vals = (0..n * n)
            .map(|x| {
                if x / n == x % n {
                    1.0
                } else {
                    0.05 * ((x / n + 2 * (x % n)) % 7) as f64
                }
            })
            .collect();
        (net, c, ProductSimilarity::from_dense(n, vals))
    }

    /// Absorbs `delta` through a carrying refresh at all-zero labels,
    /// checks the edit's pricing against whole-model evaluations and the
    /// edited model against a scratch build, and returns the edit record.
    fn carried_edit(
        cache: &mut EnergyCache,
        net: &mut Network,
        c: &Catalog,
        sim: &ProductSimilarity,
        delta: NetworkDelta,
    ) -> Edit {
        let labels = vec![0usize; cache.model().model().var_count()];
        let before = cache.model().model().energy(&labels);
        let effect = net.apply_delta(&delta, c).unwrap();
        let (stats, edit) = cache
            .refresh_carrying(net, sim, Some(&effect.touched), Some(&labels))
            .unwrap();
        assert!(stats.edited, "a synced cache edits in place");
        let edit = edit.expect("a carrying edit returns its record");
        // New variables start at label 0 too, so the carried labels are
        // all zeros at the new arity.
        let labels = vec![0usize; cache.model().model().var_count()];
        let after = cache.model().model().energy(&labels);
        let carried = before + edit.scope_energy(cache.model(), &labels) - edit.retracted;
        assert!(
            (carried - after).abs() < 1e-9,
            "priced {carried} vs evaluated {after}"
        );
        let scratch = crate::energy::build_energy(net, sim, &ConstraintSet::new()).unwrap();
        assert_equivalent(cache.model(), &scratch);
        edit
    }

    #[test]
    fn add_link_between_unchanged_hosts_keeps_their_variables() {
        let (mut net, c, sim) = ring(2);
        let s1 = c.service_by_name("s1").unwrap();
        let fixed = c.product_by_name("s1p2").unwrap();
        let mut cache = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        carried_edit(
            &mut cache,
            &mut net,
            &c,
            &sim,
            NetworkDelta::fix_slot(HostId(3), s1, fixed),
        );
        let slots = cache.model().slots().to_vec();
        let edges = cache.model().model().edge_count();
        // Hosts 0 and 3 share two services: s0 free on both, s1 fixed at 3.
        let edit = carried_edit(
            &mut cache,
            &mut net,
            &c,
            &sim,
            NetworkDelta::add_link(HostId(0), HostId(3)),
        );
        assert!(edit.rebound.is_empty() && edit.removed.is_empty() && edit.hosts.is_empty());
        assert_eq!(
            cache.model().slots(),
            &slots[..],
            "every variable keeps its id"
        );
        assert_eq!(
            cache.model().model().edge_count(),
            edges + 1,
            "one edge for the one shared free service"
        );
        assert_eq!(edit.linked.len(), 1);
        assert_eq!(
            edit.refolded,
            vec![(HostId(0), 1)],
            "host 0's s1 unary folds the fixed partner in"
        );
    }

    #[test]
    fn fix_slot_on_a_four_service_host_rebinds_only_that_slot() {
        let (mut net, c, sim) = ring(4);
        let s2 = c.service_by_name("s2").unwrap();
        let product = c.product_by_name("s2p1").unwrap();
        let mut cache = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        let before = cache.model().slots().to_vec();
        let edit = carried_edit(
            &mut cache,
            &mut net,
            &c,
            &sim,
            NetworkDelta::fix_slot(HostId(2), s2, product),
        );
        assert_eq!(edit.rebound, vec![(HostId(2), 2)]);
        assert_eq!(edit.hosts, vec![HostId(2)]);
        assert_eq!(
            edit.removed.len(),
            1,
            "only the fixed slot gave up its variable"
        );
        assert_eq!(cache.model().slots()[2][2], SlotBinding::Fixed(product));
        for (host, (old_row, new_row)) in before.iter().zip(cache.model().slots()).enumerate() {
            for (slot, (old, new)) in old_row.iter().zip(new_row).enumerate() {
                if (host, slot) != (2, 2) {
                    assert_eq!(old, new, "slot ({host}, {slot}) must keep its variable");
                }
            }
        }
        assert_eq!(
            edit.refolded,
            vec![(HostId(1), 2), (HostId(3), 2)],
            "the neighbours' s2 unaries fold the new fixed product"
        );
    }

    #[test]
    fn remove_host_refolds_neighbours_only_for_its_fixed_slots() {
        let (mut net, c, sim) = ring(2);
        let mut cache = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        let before = cache.model().slots().to_vec();
        let edit = carried_edit(
            &mut cache,
            &mut net,
            &c,
            &sim,
            NetworkDelta::remove_host(HostId(2)),
        );
        assert_eq!(edit.rebound, vec![(HostId(2), 0), (HostId(2), 1)]);
        assert_eq!(edit.removed.len(), 2);
        assert!(
            edit.refolded.is_empty(),
            "no fixed slot left, so no neighbour's unary changed"
        );
        assert!(cache.model().slots()[2].is_empty());
        for host in [0, 1, 3, 4, 5] {
            assert_eq!(before[host], cache.model().slots()[host]);
        }
        // A removed fixed slot takes its folded terms with it.
        let s0 = c.service_by_name("s0").unwrap();
        let product = c.product_by_name("s0p0").unwrap();
        carried_edit(
            &mut cache,
            &mut net,
            &c,
            &sim,
            NetworkDelta::fix_slot(HostId(4), s0, product),
        );
        let edit = carried_edit(
            &mut cache,
            &mut net,
            &c,
            &sim,
            NetworkDelta::remove_host(HostId(4)),
        );
        assert_eq!(edit.refolded, vec![(HostId(3), 0), (HostId(5), 0)]);
    }

    #[test]
    fn refresh_is_idempotent_and_cheap_when_current() {
        let (net, _, sim) = instance(6);
        let mut cache = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        let stats = cache.refresh(&net, &sim).unwrap();
        assert!(!stats.rebuilt);
        assert!(!stats.edited);
        assert_eq!(stats.hosts_refiltered, 0);
        assert_eq!(stats.variables, 6);
    }

    #[test]
    fn delta_refilters_only_touched_hosts_and_reuses_potentials() {
        let (mut net, c, sim) = instance(8);
        let mut cache = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        let os = c.service_by_name("os").unwrap();
        let p0 = c.product_by_name("p0").unwrap();
        net.apply_delta(&NetworkDelta::fix_slot(HostId(3), os, p0), &c)
            .unwrap();
        let stats = cache.refresh(&net, &sim).unwrap();
        assert!(stats.rebuilt);
        assert!(
            stats.edited,
            "un-hinted refreshes of a synced cache derive the touched set and edit"
        );
        assert_eq!(stats.hosts_refiltered, 1, "only the fixed host refilters");
        assert_eq!(
            stats.potentials_computed, 0,
            "the full-domain matrix is cached from the initial build"
        );
        assert_eq!(
            stats.potentials_reused, 0,
            "the fixed host's links fold into neighbor unaries — no pairwise potentials"
        );
        assert_eq!(stats.variables, 7);
        // The fixed slot folded into its neighbors' unaries.
        assert_eq!(cache.model().slots()[3][0], SlotBinding::Fixed(p0));
    }

    #[test]
    fn hinted_refresh_edits_in_place_and_matches_full_scan() {
        let (mut net, c, sim) = instance(8);
        let mut hinted = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        let mut full = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        let os = c.service_by_name("os").unwrap();
        let p0 = c.product_by_name("p0").unwrap();
        let p1 = c.product_by_name("p1").unwrap();
        let effect = net
            .apply_batch(
                &[
                    NetworkDelta::fix_slot(HostId(2), os, p0),
                    NetworkDelta::fix_slot(HostId(5), os, p1),
                    NetworkDelta::add_host("h8", vec![(os, vec![p0, p1])], vec![HostId(0)]),
                ],
                &c,
            )
            .unwrap();
        let stats = hinted
            .refresh_hinted(&net, &sim, Some(&effect.touched))
            .unwrap();
        assert_eq!(stats.hosts_refiltered, 3, "two fixes + the new host");
        assert!(stats.edited, "hinted refreshes edit the model in place");
        full.refresh(&net, &sim).unwrap();
        assert_equivalent(hinted.model(), full.model());
    }

    #[test]
    fn unhinted_structural_refresh_edits_in_place_and_matches_scratch() {
        let (mut net, c, sim) = instance(8);
        let mut cache = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        let os = c.service_by_name("os").unwrap();
        let p0 = c.product_by_name("p0").unwrap();
        // A burst mixing every structural variant with a slot change —
        // applied with NO hint: the cache must recover the touched set
        // from the revision counters alone.
        net.apply_batch(
            &[
                NetworkDelta::add_link(HostId(0), HostId(5)),
                NetworkDelta::fix_slot(HostId(2), os, p0),
                NetworkDelta::remove_host(HostId(6)),
                NetworkDelta::add_host("h8", vec![(os, vec![p0])], vec![HostId(1)]),
                NetworkDelta::remove_link(HostId(3), HostId(4)),
            ],
            &c,
        )
        .unwrap();
        let stats = cache.refresh(&net, &sim).unwrap();
        assert!(
            stats.edited,
            "structural changes must not force a reassembly"
        );
        let scratch = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        assert_equivalent(cache.model(), scratch.model());
        // And the counters are resynced: the next refresh is a no-op.
        let again = cache.refresh(&net, &sim).unwrap();
        assert!(!again.rebuilt);
    }

    #[test]
    fn edit_path_keeps_untouched_variable_ids_stable() {
        let (mut net, c, sim) = instance(8);
        let mut cache = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        let before: Vec<_> = cache.model().slots().to_vec();
        let os = c.service_by_name("os").unwrap();
        let p0 = c.product_by_name("p0").unwrap();
        let effect = net
            .apply_delta(&NetworkDelta::fix_slot(HostId(3), os, p0), &c)
            .unwrap();
        cache
            .refresh_hinted(&net, &sim, Some(&effect.touched))
            .unwrap();
        for (host, (old_row, new_row)) in
            before.iter().zip(cache.model().slots().iter()).enumerate()
        {
            if host == 3 {
                continue; // the touched host legitimately re-derives
            }
            assert_eq!(old_row, new_row, "host {host} bindings must not move");
        }
    }

    #[test]
    fn edit_path_tracks_a_delta_stream_against_scratch() {
        let (mut net, c, sim) = instance(6);
        let mut cache = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        let os = c.service_by_name("os").unwrap();
        let p1 = c.product_by_name("p1").unwrap();
        for delta in [
            NetworkDelta::add_link(HostId(0), HostId(3)),
            NetworkDelta::fix_slot(HostId(2), os, p1),
            NetworkDelta::remove_host(HostId(5)),
            NetworkDelta::add_host("h6", vec![(os, vec![p1])], vec![HostId(0)]),
            NetworkDelta::remove_link(HostId(0), HostId(3)),
            NetworkDelta::unfix_slot(HostId(2), os, vec![p1, c.product_by_name("p0").unwrap()]),
        ] {
            let effect = net.apply_delta(&delta, &c).unwrap();
            let stats = cache
                .refresh_hinted(&net, &sim, Some(&effect.touched))
                .unwrap();
            assert!(stats.edited, "after {delta}");
            let scratch = crate::energy::build_energy(&net, &sim, &ConstraintSet::new()).unwrap();
            assert_equivalent(cache.model(), &scratch);
        }
    }

    #[test]
    fn matches_scratch_build_after_deltas() {
        let (mut net, c, sim) = instance(6);
        let mut cache = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        let os = c.service_by_name("os").unwrap();
        let p1 = c.product_by_name("p1").unwrap();
        for delta in [
            NetworkDelta::add_link(HostId(0), HostId(3)),
            NetworkDelta::fix_slot(HostId(2), os, p1),
            NetworkDelta::remove_host(HostId(5)),
            NetworkDelta::add_host("h6", vec![(os, vec![p1])], vec![HostId(0)]),
        ] {
            net.apply_delta(&delta, &c).unwrap();
            cache.refresh(&net, &sim).unwrap();
            let scratch = crate::energy::build_energy(&net, &sim, &ConstraintSet::new()).unwrap();
            // The un-hinted refresh edits in place (recycled variable ids),
            // so the comparison is semantic, not id-exact.
            assert_equivalent(cache.model(), &scratch);
        }
    }

    #[test]
    fn infeasible_refresh_keeps_previous_model() {
        let (mut net, c, sim) = instance(4);
        let os = c.service_by_name("os").unwrap();
        let p0 = c.product_by_name("p0").unwrap();
        let p1 = c.product_by_name("p1").unwrap();
        let mut constraints = ConstraintSet::new();
        constraints.push(Constraint::fix(HostId(1), os, p0));
        let mut cache = EnergyCache::new(&net, &sim, &constraints).unwrap();
        let vars_before = cache.model().model().live_var_count();
        // Narrow host 1 to p1 only: the Fix(p0) constraint empties the domain.
        let effect = net
            .apply_delta(&NetworkDelta::unfix_slot(HostId(1), os, vec![p1]), &c)
            .unwrap();
        // Both the hinted (edit) and un-hinted (reassembly) paths must leave
        // the previous model intact.
        let err = cache
            .refresh_hinted(&net, &sim, Some(&effect.touched))
            .unwrap_err();
        assert!(matches!(err, Error::Infeasible { .. }));
        assert_eq!(cache.model().model().live_var_count(), vars_before);
        let err = cache.refresh(&net, &sim).unwrap_err();
        assert!(matches!(err, Error::Infeasible { .. }));
        assert_eq!(cache.model().model().live_var_count(), vars_before);
    }

    #[test]
    fn domain_churn_does_not_grow_the_cache_without_bound() {
        // One service with 8 products; cycle one host's candidate set
        // through many distinct subsets. Every subset is a new domain, so
        // without compaction the interner would hold all ~150 of them.
        let mut c = Catalog::new();
        let os = c.add_service("os");
        let products: Vec<_> = (0..8)
            .map(|i| c.add_product(&format!("p{i}"), os).unwrap())
            .collect();
        let mut b = NetworkBuilder::new();
        let ids: Vec<HostId> = (0..4).map(|i| b.add_host(&format!("h{i}"))).collect();
        for &h in &ids {
            b.add_service(h, os, products.clone()).unwrap();
        }
        b.add_link(ids[0], ids[1]).unwrap();
        b.add_link(ids[1], ids[2]).unwrap();
        b.add_link(ids[2], ids[3]).unwrap();
        let mut net = b.build(&c).unwrap();
        let sim = ProductSimilarity::uniform(&c, 0.3);
        let mut cache = EnergyCache::new(&net, &sim, &ConstraintSet::new()).unwrap();
        let mut peak = 0usize;
        for i in 0..150u32 {
            // A distinct 2-3 product subset per revision.
            let subset: Vec<_> = (0..8)
                .filter(|bit| (i + 7) & (1 << bit) != 0)
                .map(|bit| products[bit as usize])
                .take(3)
                .collect();
            let subset = if subset.len() < 2 {
                products[..2].to_vec()
            } else {
                subset
            };
            let effect = net
                .apply_delta(&NetworkDelta::unfix_slot(ids[0], os, subset), &c)
                .unwrap();
            // Alternate the hinted (edit) and un-hinted (reassembly) paths;
            // compaction has to stay sound through both.
            if i % 2 == 0 {
                cache
                    .refresh_hinted(&net, &sim, Some(&effect.touched))
                    .unwrap();
            } else {
                cache.refresh(&net, &sim).unwrap();
            }
            peak = peak.max(cache.footprint().0);
        }
        assert!(
            peak < 100,
            "interner grew to {peak} entries; compaction failed"
        );
        // Compaction must not corrupt the model: compare against scratch.
        let scratch = crate::energy::build_energy(&net, &sim, &ConstraintSet::new()).unwrap();
        assert_equivalent(cache.model(), &scratch);
    }
}
