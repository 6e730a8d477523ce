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
//!   pairs it has never seen. [`EnergyCache::invalidate_similarity_pair`]
//!   drops exactly the matrices a single similarity update touched.
//! * **The MRF is edited in place.** `mrf`'s [`mrf::model::MrfModel`] keeps stable
//!   variable handles across mutations (tombstones + free lists), so a
//!   *hinted* refresh ([`EnergyCache::refresh_hinted`]) removes and
//!   re-creates only the touched hosts' variables and incident factors,
//!   refreshes the folded unaries of their direct neighbors, and adjusts
//!   the fixed–fixed base energy by the affected links — `O(touched ·
//!   degree)` model-maintenance work instead of the old `O(V + E)` linear
//!   reassembly, which ROADMAP had flagged as the dominant cost of
//!   `apply_batch` on large networks. Untouched hosts' variables keep
//!   their [`mrf::VarId`]s, which is also what keeps warm-start seeds
//!   valid across revisions. Handed the labeling its caller carries, an
//!   edit also prices the factors it rewrites at those labels before
//!   anything moves (an `Edit` record), so the engine can carry the
//!   labeling's energy across the edit without evaluating the model.
//!
//! Un-hinted refreshes of a *synced* cache derive the touched set
//! themselves by diffing the per-host domain and link revision counters
//! ([`netmodel::network::Network::host_revision`] /
//! [`netmodel::network::Network::link_revision`]) and take the same edit
//! path. Only refreshes with no synced model to edit — a cold build, a
//! constraint or parameter change, a similarity invalidation — reassemble
//! linearly, as does any refresh once the edited model's fragmentation
//! crosses [`mrf::model::MrfModel::should_compact`]'s threshold — the
//! rebuild doubles as the compaction, restoring a dense model. The expensive part of reacting to
//! a delta — the re-solve — is warm-started by
//! [`crate::engine::DiversityEngine`] from the previous MAP assignment
//! either way.

use std::collections::HashMap;
use std::sync::Arc;

use mrf::model::{MrfBuilder, PotentialId, VarId};

use netmodel::catalog::ProductSimilarity;
use netmodel::constraints::{ConstraintSet, Scope};
use netmodel::network::Network;
use netmodel::{HostId, ProductId};

use crate::energy::{EnergyModel, EnergyParams, SlotBinding};
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

/// What an in-place edit rewrote, recorded when the refresh is handed the
/// labeling it must carry ([`EnergyCache::refresh_carrying`]): the
/// re-bound hosts, the variables they gave up, and the energy the rewritten
/// factors held at the carried labels. The engine re-seeds the re-bound
/// variables and prices the same factors again ([`Edit::scope_energy`]) to
/// carry its objective across the edit without evaluating the whole model.
#[derive(Debug)]
pub(crate) struct Edit {
    /// The re-bound hosts, ascending: their variables were removed and
    /// re-created (a new host's for the first time; a removed host keeps
    /// none).
    pub(crate) hosts: Vec<HostId>,
    /// The re-bound hosts and their direct neighbors: every host whose free
    /// slots' unaries the edit recomputed.
    unary_hosts: Vec<HostId>,
    /// The variables the edit removed: the re-bound hosts' previous ones.
    pub(crate) removed: Vec<VarId>,
    /// [`Edit::scope_energy`] before the edit, at the carried labels.
    pub(crate) retracted: f64,
}

impl Edit {
    /// The MRF energy of the factors this edit rewrites, under `labels`:
    /// the unaries of every free slot on [`Edit::unary_hosts`] and every
    /// edge incident to a re-bound host's variables (once each). Every other
    /// factor is the same object at the same labels before and after the
    /// edit, so the MRF energy moves by exactly this scope's energy after
    /// the edit minus [`Edit::retracted`] (the base energy is the model's
    /// own, re-derived by the edit). The one statement of what an in-place
    /// edit changes; the edit's steps 2–6 are its implementation.
    pub(crate) fn scope_energy(&self, energy: &EnergyModel, labels: &[usize]) -> f64 {
        let model = energy.model();
        let vars = |h: HostId| {
            energy
                .slots()
                .get(h.index())
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .filter_map(|binding| match binding {
                    SlotBinding::Variable { var, .. } => Some(*var),
                    SlotBinding::Fixed(_) => None,
                })
        };
        let mut total = 0.0;
        for &h in &self.unary_hosts {
            for v in vars(h) {
                total += model.unary(v)[labels[v.0]];
            }
        }
        for &h in &self.hosts {
            for v in vars(h) {
                for &eidx in model.incident_edges(v) {
                    let e = &model.edges()[eidx as usize];
                    let other = if e.a() == v { e.b() } else { e.a() };
                    if other.0 < v.0 && self.hosts.binary_search(&energy.owner(other)).is_ok() {
                        continue; // counted from `other`, a re-bound variable too
                    }
                    total += model.edge_cost(e, labels[e.a().0], labels[e.b().0]);
                }
            }
        }
        total
    }
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
    params: EnergyParams,
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
    /// reassembling.
    link_revisions: Vec<u64>,
    /// Network revision the cached *model* corresponds to; `None` forces a
    /// rebuild at the next refresh.
    synced: Option<u64>,
    model: EnergyModel,
    /// Domain pair → potential registered in the *current* model. Valid as
    /// long as the model lives (its potential ids are append-only); cleared
    /// on every reassembly and on interner compaction.
    registered: HashMap<(DomainId, DomainId), PotentialId>,
    /// Per-link fixed–fixed similarity sums currently folded into the base
    /// energy, keyed with `a < b` — what an in-place edit subtracts before
    /// re-deriving the touched links.
    fixed_pairs: HashMap<(HostId, HostId), f64>,
    /// Partner index over `fixed_pairs` so an edit finds a host's entries
    /// without scanning the map.
    fixed_adj: HashMap<HostId, Vec<HostId>>,
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
        params: EnergyParams,
    ) -> Result<EnergyCache> {
        let mut cache = EnergyCache::deferred(constraints, params);
        cache.refresh(network, similarity)?;
        Ok(cache)
    }

    /// A cache with no model built yet: the first [`EnergyCache::refresh`]
    /// does the full build. Lets callers layer configuration
    /// (constraints, params) without paying for a build they would
    /// immediately invalidate.
    pub fn deferred(constraints: &ConstraintSet, params: EnergyParams) -> EnergyCache {
        EnergyCache {
            params,
            constraints: constraints.clone(),
            interner: DomainInterner::default(),
            costs: HashMap::new(),
            domains: Vec::new(),
            host_revisions: Vec::new(),
            link_revisions: Vec::new(),
            synced: None,
            model: EnergyModel::from_parts(MrfBuilder::new().build(), Vec::new(), 0.0),
            registered: HashMap::new(),
            fixed_pairs: HashMap::new(),
            fixed_adj: HashMap::new(),
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

    /// The energy parameters in use.
    pub fn params(&self) -> EnergyParams {
        self.params
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

    /// Drops all cached cost matrices, forcing them to be recomputed at the
    /// next refresh. Call after bulk-mutating pairwise similarities in
    /// place (e.g. a whole CVE-feed refresh) — cached matrices would
    /// silently keep the old values otherwise. Domains are unaffected. For
    /// a *single* pair update, [`EnergyCache::invalidate_similarity_pair`]
    /// drops only the affected matrices.
    pub fn invalidate_similarity(&mut self) {
        self.costs.clear();
        self.synced = None;
    }

    /// Invalidates exactly the cached cost matrices that reference the
    /// product pair `(a, b)` — the matrices whose row domain contains one
    /// product and whose column domain contains the other — and forces a
    /// reassembly at the next refresh (folded unaries and fixed–fixed base
    /// terms involving the pair must be recomputed too, and those live in
    /// the model, not the matrix cache). Every *untouched* matrix survives
    /// and is reused by that reassembly. Returns the number of matrices
    /// dropped.
    pub fn invalidate_similarity_pair(&mut self, a: ProductId, b: ProductId) -> usize {
        let affected: Vec<(DomainId, DomainId)> = self
            .costs
            .keys()
            .filter(|(da, db)| {
                let ca = self.interner.resolve(*da);
                let cb = self.interner.resolve(*db);
                (ca.contains(&a) && cb.contains(&b)) || (ca.contains(&b) && cb.contains(&a))
            })
            .copied()
            .collect();
        for key in &affected {
            self.costs.remove(key);
        }
        self.synced = None;
        affected.len()
    }

    /// Brings the cached model up to `network.revision()`: refilters the
    /// domains of hosts whose revision moved, then reassembles the MRF with
    /// cached domains and cost matrices. A no-op when already current.
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
    /// revision scan is restricted to those hosts **and the model is edited
    /// in place** — only the touched hosts' variables and incident factors
    /// are re-derived, their neighbors' folded unaries refreshed, and the
    /// fixed–fixed base energy adjusted by the affected links. Untouched
    /// variables keep their ids (see [`mrf::model`]'s stability contract).
    ///
    /// Correctness requires the hint to cover every host whose revision
    /// moved *and* every endpoint of a changed link since the last refresh
    /// — which `touched` sets do by construction. Without a hint the same
    /// set is *derived* by diffing the per-host domain and link revision
    /// counters ([`Network::host_revision`] /
    /// [`Network::link_revision`]) against the cache, so un-hinted
    /// refreshes with structural changes ride the edit path too; the hint
    /// merely saves the `O(hosts)` counter scan. The hint is ignored (full
    /// scan + reassembly) while the cache has no synced model, e.g. after
    /// [`EnergyCache::set_constraints`], and the edit falls back to
    /// reassembly when the edited model's fragmentation crosses the
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
        // Refilter changed hosts into a scratch list first so an infeasible
        // host cannot leave half-committed domains behind.
        let scan: Vec<HostId> = match changed {
            Some(hint) if hinted => hint.to_vec(),
            None if hinted => self.revised_hosts(network),
            _ => network.iter_hosts().map(|(id, _)| id).collect(),
        };
        let mut refiltered: Vec<(usize, Vec<DomainId>)> = Vec::new();
        for &host_id in &scan {
            let i = host_id.index();
            let current = network.host_revision(host_id);
            if self.host_revisions.get(i) == Some(&current) {
                continue;
            }
            let domains = filter_host_domains(network, host_id, &self.constraints)?;
            let interned = domains
                .into_iter()
                .map(|d| self.interner.intern(d))
                .collect();
            refiltered.push((i, interned));
        }
        let hosts_refiltered = refiltered.len();
        if self.domains.len() < network.host_count() {
            self.domains.resize(network.host_count(), Vec::new());
            self.host_revisions.resize(network.host_count(), u64::MAX);
        }
        if self.link_revisions.len() < network.host_count() {
            self.link_revisions.resize(network.host_count(), u64::MAX);
        }
        for (i, interned) in refiltered {
            for &id in &self.domains[i] {
                self.interner.release(id);
            }
            for &id in &interned {
                self.interner.retain(id);
            }
            self.domains[i] = interned;
            self.host_revisions[i] = network.host_revision(HostId(i as u32));
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
            let mut dirty: Vec<HostId> = scan.clone();
            dirty.sort_unstable();
            dirty.dedup();
            let (c, r, edit) = self.edit(network, similarity, dirty, labels)?;
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
        params: &EnergyParams,
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
                matrix[trigger * cb.len() + j] = params.constraint_cost;
            }
        }
        Some(matrix)
    }

    /// Reassembles the MRF from cached domains and cost matrices (steps 3-5
    /// of the original monolithic `build_energy`) and re-derives the edit
    /// bookkeeping (registered potentials, fixed-pair base terms) along the
    /// way. Also the compaction path: the produced model is dense.
    fn rebuild(
        &mut self,
        network: &Network,
        similarity: &ProductSimilarity,
    ) -> Result<(usize, usize)> {
        self.registered.clear();
        self.fixed_pairs.clear();
        self.fixed_adj.clear();
        // --- Variables. -----------------------------------------------------
        let mut builder = MrfBuilder::new();
        let mut slots: Vec<Vec<SlotBinding>> = Vec::with_capacity(network.host_count());
        for (host_id, host) in network.iter_hosts() {
            let mut host_slots = Vec::with_capacity(host.services().len());
            for &did in &self.domains[host_id.index()] {
                let domain = self.interner.resolve(did);
                if domain.len() == 1 {
                    host_slots.push(SlotBinding::Fixed(domain[0]));
                } else {
                    let var = builder.add_variable(domain.len());
                    builder.set_unary(var, vec![self.params.preference_cost; domain.len()])?;
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
                            builder.add_unary(*var, label, similarity.get(*pa, pb))?;
                        }
                    }
                    (SlotBinding::Variable { var, candidates }, SlotBinding::Fixed(pb)) => {
                        for (label, &pa) in candidates.iter().enumerate() {
                            builder.add_unary(*var, label, similarity.get(pa, *pb))?;
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
                            |rows, cols, matrix| Ok(builder.add_potential(rows, cols, matrix)?),
                            &mut computed,
                            &mut reused,
                        )?;
                        builder.add_edge(*va, *vb, pot)?;
                    }
                }
            }
            if any_fixed {
                base_energy += link_fixed;
                self.fixed_pairs.insert((a, b), link_fixed);
                self.fixed_adj.entry(a).or_default().push(b);
                self.fixed_adj.entry(b).or_default().push(a);
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
                let Some(matrix) = EnergyCache::combination_costs(&self.params, &comb, ca, cb)
                else {
                    continue; // trigger filtered out: vacuous
                };
                builder.add_edge_dense(*va, *vb, matrix)?;
            }
        }

        self.model = EnergyModel::from_parts(builder.build(), slots, base_energy);
        Ok((computed, reused))
    }

    /// Edits the cached model in place for a touched-host set (module
    /// docs): per dirty host, removes its variables (their incident edges
    /// go with them), re-derives its slot bindings from the committed
    /// domains, recomputes the folded unaries of the host and its direct
    /// neighbors, re-adds the similarity edges and fixed–fixed base terms
    /// of every link incident to the dirty set, and re-adds the dirty
    /// hosts' combination-constraint edges. `O(touched · degree)` model
    /// work; everything else keeps its variable ids. With `labels` the
    /// returned [`Edit`] is priced at them before anything moves.
    fn edit(
        &mut self,
        network: &Network,
        similarity: &ProductSimilarity,
        dirty: Vec<HostId>,
        labels: Option<&[usize]>,
    ) -> Result<(usize, usize, Edit)> {
        let params = self.params;
        let mut dirty_mask = vec![false; network.host_count()];
        for &h in &dirty {
            dirty_mask[h.index()] = true;
        }
        // The hosts whose unaries step 4 recomputes: every dirty host and
        // each direct neighbor of one. The folded contributions from fixed
        // neighbors are the only unary terms that can have changed, and
        // they never reach further than one hop.
        let mut unary_mask = dirty_mask.clone();
        let mut unary_hosts = dirty.clone();
        for &h in &dirty {
            for &g in network.neighbors(h) {
                if !unary_mask[g.index()] {
                    unary_mask[g.index()] = true;
                    unary_hosts.push(g);
                }
            }
        }
        let mut edit = Edit {
            hosts: dirty,
            unary_hosts,
            removed: Vec::new(),
            retracted: 0.0,
        };
        if let Some(labels) = labels {
            debug_assert_eq!(labels.len(), self.model.model().var_count());
            edit.retracted = edit.scope_energy(&self.model, labels);
        }
        let dirty = &edit.hosts;
        let (model, slots, owners, base_energy) = self.model.parts_mut();
        if slots.len() < network.host_count() {
            slots.resize(network.host_count(), Vec::new());
        }

        // 1. Retract the fixed–fixed base terms of every link that touched
        //    a dirty host at the previous revision (removed links' endpoints
        //    are always in the dirty set, so the partner index covers them).
        for &h in dirty {
            for g in self.fixed_adj.remove(&h).unwrap_or_default() {
                let key = if h < g { (h, g) } else { (g, h) };
                if let Some(v) = self.fixed_pairs.remove(&key) {
                    *base_energy -= v;
                }
                if let Some(list) = self.fixed_adj.get_mut(&g) {
                    list.retain(|&x| x != h);
                }
            }
        }

        // 2. Remove the dirty hosts' variables; incident edges (similarity
        //    and constraint alike, including edges into clean neighbors) go
        //    with them.
        for &h in dirty {
            for binding in &slots[h.index()] {
                if let SlotBinding::Variable { var, .. } = binding {
                    model.remove_var(*var).map_err(Error::Mrf)?;
                    edit.removed.push(*var);
                }
            }
            slots[h.index()].clear();
        }

        // 3. Re-derive the dirty hosts' slot bindings from the committed
        //    domains (removed hosts have none and stay empty).
        for &h in dirty {
            let host_domains = &self.domains[h.index()];
            let mut host_slots = Vec::with_capacity(host_domains.len());
            for &did in host_domains {
                let domain = self.interner.resolve(did);
                if domain.len() == 1 {
                    host_slots.push(SlotBinding::Fixed(domain[0]));
                } else {
                    let var = model.add_var(domain.len()).map_err(Error::Mrf)?;
                    if owners.len() <= var.0 {
                        owners.resize(var.0 + 1, HostId(u32::MAX));
                    }
                    owners[var.0] = h;
                    host_slots.push(SlotBinding::Variable {
                        var,
                        candidates: Arc::clone(domain),
                    });
                }
            }
            slots[h.index()] = host_slots;
        }

        // 4. Recompute the unaries of every free slot on a dirty host or a
        //    direct neighbor of one.
        for &h in &edit.unary_hosts {
            let host = network.host(h).map_err(Error::Model)?;
            // One accumulator per free slot, so each neighbor's record is
            // read once for all of them (in the same neighbor order).
            let mut free: Vec<_> = slots[h.index()]
                .iter()
                .enumerate()
                .filter_map(|(slot, binding)| match binding {
                    SlotBinding::Variable { var, candidates } => Some((
                        *var,
                        host.services()[slot].service(),
                        candidates,
                        vec![params.preference_cost; candidates.len()],
                    )),
                    SlotBinding::Fixed(_) => None,
                })
                .collect();
            if free.is_empty() {
                continue;
            }
            for &g in network.neighbors(h) {
                let peer = network.host(g).map_err(Error::Model)?;
                for (_, service, candidates, unary) in &mut free {
                    let Some(slot_g) = peer.service_slot(*service) else {
                        continue;
                    };
                    let SlotBinding::Fixed(p) = slots[g.index()][slot_g] else {
                        continue;
                    };
                    // Match the reassembly's (lower host, higher host)
                    // similarity orientation exactly.
                    if h < g {
                        for (label, &cand) in candidates.iter().enumerate() {
                            unary[label] += similarity.get(cand, p);
                        }
                    } else {
                        for (label, &cand) in candidates.iter().enumerate() {
                            unary[label] += similarity.get(p, cand);
                        }
                    }
                }
            }
            for (var, _, _, unary) in free {
                model.set_unary(var, unary).map_err(Error::Mrf)?;
            }
        }

        // 5. Similarity edges and fixed–fixed base terms for every link
        //    incident to the dirty set (each link once).
        let mut computed = 0usize;
        let mut reused = 0usize;
        for &h in dirty {
            for &g in network.neighbors(h) {
                if dirty_mask[g.index()] && g < h {
                    continue; // both dirty: the lower id owns the link
                }
                let (a, b) = if h < g { (h, g) } else { (g, h) };
                let host_a = network.host(a).map_err(Error::Model)?;
                let host_b = network.host(b).map_err(Error::Model)?;
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
                        (SlotBinding::Fixed(_), SlotBinding::Variable { .. })
                        | (SlotBinding::Variable { .. }, SlotBinding::Fixed(_)) => {
                            // Folded into the variable side by step 4.
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
                                |rows, cols, matrix| {
                                    model.add_potential(rows, cols, matrix).map_err(Error::Mrf)
                                },
                                &mut computed,
                                &mut reused,
                            )?;
                            model.add_pairwise(*va, *vb, pot).map_err(Error::Mrf)?;
                        }
                    }
                }
                if any_fixed {
                    *base_energy += link_fixed;
                    self.fixed_pairs.insert((a, b), link_fixed);
                    self.fixed_adj.entry(a).or_default().push(b);
                    self.fixed_adj.entry(b).or_default().push(a);
                }
            }
        }

        // 6. Combination-constraint edges of the dirty hosts (they were
        //    removed with the hosts' variables in step 2).
        for c in self.constraints.iter() {
            let Some(comb) = c.as_combination() else {
                continue;
            };
            let hosts: Vec<HostId> = match comb.scope {
                Scope::Host(h) if dirty_mask.get(h.index()).copied().unwrap_or(false) => {
                    vec![h]
                }
                Scope::Host(_) => Vec::new(),
                Scope::All => dirty.clone(),
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
                let Some(matrix) = EnergyCache::combination_costs(&params, &comb, ca, cb) else {
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

    #[test]
    fn refresh_is_idempotent_and_cheap_when_current() {
        let (net, _, sim) = instance(6);
        let mut cache =
            EnergyCache::new(&net, &sim, &ConstraintSet::new(), EnergyParams::default()).unwrap();
        let stats = cache.refresh(&net, &sim).unwrap();
        assert!(!stats.rebuilt);
        assert!(!stats.edited);
        assert_eq!(stats.hosts_refiltered, 0);
        assert_eq!(stats.variables, 6);
    }

    #[test]
    fn delta_refilters_only_touched_hosts_and_reuses_potentials() {
        let (mut net, c, sim) = instance(8);
        let mut cache =
            EnergyCache::new(&net, &sim, &ConstraintSet::new(), EnergyParams::default()).unwrap();
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
        let mut hinted =
            EnergyCache::new(&net, &sim, &ConstraintSet::new(), EnergyParams::default()).unwrap();
        let mut full =
            EnergyCache::new(&net, &sim, &ConstraintSet::new(), EnergyParams::default()).unwrap();
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
        let mut cache =
            EnergyCache::new(&net, &sim, &ConstraintSet::new(), EnergyParams::default()).unwrap();
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
        let scratch =
            EnergyCache::new(&net, &sim, &ConstraintSet::new(), EnergyParams::default()).unwrap();
        assert_equivalent(cache.model(), scratch.model());
        // And the counters are resynced: the next refresh is a no-op.
        let again = cache.refresh(&net, &sim).unwrap();
        assert!(!again.rebuilt);
    }

    #[test]
    fn edit_path_keeps_untouched_variable_ids_stable() {
        let (mut net, c, sim) = instance(8);
        let mut cache =
            EnergyCache::new(&net, &sim, &ConstraintSet::new(), EnergyParams::default()).unwrap();
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
        let mut cache =
            EnergyCache::new(&net, &sim, &ConstraintSet::new(), EnergyParams::default()).unwrap();
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
            let scratch = crate::energy::build_energy(
                &net,
                &sim,
                &ConstraintSet::new(),
                EnergyParams::default(),
            )
            .unwrap();
            assert_equivalent(cache.model(), &scratch);
        }
    }

    #[test]
    fn matches_scratch_build_after_deltas() {
        let (mut net, c, sim) = instance(6);
        let mut cache =
            EnergyCache::new(&net, &sim, &ConstraintSet::new(), EnergyParams::default()).unwrap();
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
            let scratch = crate::energy::build_energy(
                &net,
                &sim,
                &ConstraintSet::new(),
                EnergyParams::default(),
            )
            .unwrap();
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
        let mut cache =
            EnergyCache::new(&net, &sim, &constraints, EnergyParams::default()).unwrap();
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
        let mut cache =
            EnergyCache::new(&net, &sim, &ConstraintSet::new(), EnergyParams::default()).unwrap();
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
        let scratch =
            crate::energy::build_energy(&net, &sim, &ConstraintSet::new(), EnergyParams::default())
                .unwrap();
        assert_equivalent(cache.model(), &scratch);
    }

    #[test]
    fn similarity_invalidation_recomputes_matrices() {
        let (net, _, mut sim) = instance(5);
        let mut cache =
            EnergyCache::new(&net, &sim, &ConstraintSet::new(), EnergyParams::default()).unwrap();
        sim.set(ProductId(0), ProductId(1), 0.9);
        cache.invalidate_similarity();
        let stats = cache.refresh(&net, &sim).unwrap();
        assert!(stats.rebuilt);
        assert_eq!(stats.potentials_reused, 0);
        assert!(stats.potentials_computed >= 1);
        let scratch =
            crate::energy::build_energy(&net, &sim, &ConstraintSet::new(), EnergyParams::default())
                .unwrap();
        let labels = vec![0usize, 1, 0, 1, 0];
        assert!(
            (cache.model().model().energy(&labels) - scratch.model().energy(&labels)).abs() < 1e-12
        );
    }

    #[test]
    fn pair_invalidation_drops_only_affected_matrices() {
        // Two services with disjoint product sets: updating an OS pair must
        // not touch the browser matrices.
        let mut c = Catalog::new();
        let os = c.add_service("os");
        let wb = c.add_service("wb");
        let os_products: Vec<_> = (0..3)
            .map(|i| c.add_product(&format!("os{i}"), os).unwrap())
            .collect();
        let wb_products: Vec<_> = (0..3)
            .map(|i| c.add_product(&format!("wb{i}"), wb).unwrap())
            .collect();
        let mut b = NetworkBuilder::new();
        let ids: Vec<HostId> = (0..4).map(|i| b.add_host(&format!("h{i}"))).collect();
        for &h in &ids {
            b.add_service(h, os, os_products.clone()).unwrap();
            b.add_service(h, wb, wb_products.clone()).unwrap();
        }
        for w in ids.windows(2) {
            b.add_link(w[0], w[1]).unwrap();
        }
        let net = b.build(&c).unwrap();
        let mut sim = ProductSimilarity::uniform(&c, 0.4);
        let mut cache =
            EnergyCache::new(&net, &sim, &ConstraintSet::new(), EnergyParams::default()).unwrap();
        let matrices_before = cache.footprint().1;
        assert!(matrices_before >= 2, "one matrix per service domain");

        sim.set(os_products[0], os_products[1], 0.95);
        cache.invalidate_similarity_pair(os_products[0], os_products[1]);
        let stats = cache.refresh(&net, &sim).unwrap();
        assert!(stats.rebuilt);
        assert_eq!(
            stats.potentials_computed, 1,
            "only the OS matrix is recomputed"
        );
        assert!(
            stats.potentials_reused >= 1,
            "the browser matrix survives the pair invalidation"
        );
        let scratch =
            crate::energy::build_energy(&net, &sim, &ConstraintSet::new(), EnergyParams::default())
                .unwrap();
        assert_equivalent(cache.model(), &scratch);
    }
}
