//! Validated, revision-counted network mutations for dynamic deployments.
//!
//! The paper's pipeline is batch: build a network, solve once. A long-lived
//! diversity service instead sees a *stream of changes* — hosts join and
//! leave, links are re-cabled, products get mandated by policy or released
//! into catalogs. [`NetworkDelta`] is the vocabulary of those changes and
//! [`Network::apply_delta`] their transactional application:
//!
//! * **Validation first.** A delta is fully validated against the network
//!   and catalog before anything is mutated; a failed apply leaves the
//!   network exactly as it was.
//! * **Stable host ids.** Removing a host *tombstones* it (services cleared,
//!   links dropped, [`crate::network::Host::is_removed`] set) instead of
//!   reindexing, so assignments, caches and reports indexed by [`HostId`]
//!   survive churn.
//! * **Revision counters.** Every applied delta bumps
//!   [`Network::revision`]; deltas that change a host's *model
//!   contribution* (its services or candidate domains) also bump that
//!   host's [`Network::host_revision`]. Downstream caches (e.g. the energy
//!   cache in `ics-diversity`) diff host revisions to rebuild only what a
//!   change actually touched.
//!
//! [`random_delta`] generates valid deltas against the network's current
//! state — the driver behind churn simulations and equivalence property
//! tests.

use std::fmt;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::catalog::Catalog;
use crate::network::{Host, Network, ServiceInstance};
use crate::{Error, HostId, ProductId, Result, ServiceId};

/// One validated mutation of a [`Network`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetworkDelta {
    /// Adds a host with its service instances and initial links.
    AddHost {
        /// Host name (uniqueness is not required, matching the builder).
        name: String,
        /// Optional zone label.
        zone: Option<String>,
        /// Service instances: `(service, candidate products)` pairs.
        services: Vec<(ServiceId, Vec<ProductId>)>,
        /// Existing hosts to link the new host to.
        links: Vec<HostId>,
    },
    /// Tombstones a host: clears its services and drops its links.
    RemoveHost {
        /// The host to remove.
        host: HostId,
    },
    /// Adds an undirected link between two existing hosts.
    AddLink {
        /// One endpoint.
        a: HostId,
        /// The other endpoint.
        b: HostId,
    },
    /// Removes an existing undirected link.
    RemoveLink {
        /// One endpoint.
        a: HostId,
        /// The other endpoint.
        b: HostId,
    },
    /// Pins a slot to one of its current candidates (a product mandate or a
    /// host turning legacy).
    FixSlot {
        /// The host.
        host: HostId,
        /// The service whose slot is pinned.
        service: ServiceId,
        /// The mandated product (must be a current candidate).
        product: ProductId,
    },
    /// Replaces a slot's candidate set (lifting a mandate, or re-planning a
    /// slot around newly cataloged products).
    UnfixSlot {
        /// The host.
        host: HostId,
        /// The service whose slot is re-opened.
        service: ServiceId,
        /// The new candidate set (non-empty, all providing `service`).
        candidates: Vec<ProductId>,
    },
    /// Appends newly available products to a slot's candidate set (catalog
    /// extension reaching a host).
    ExtendCandidates {
        /// The host.
        host: HostId,
        /// The service whose slot grows.
        service: ServiceId,
        /// Products to append (must provide `service`, must be new to the
        /// slot).
        products: Vec<ProductId>,
    },
}

impl NetworkDelta {
    /// Builds an [`NetworkDelta::AddHost`] without a zone label.
    pub fn add_host(
        name: &str,
        services: Vec<(ServiceId, Vec<ProductId>)>,
        links: Vec<HostId>,
    ) -> NetworkDelta {
        NetworkDelta::AddHost {
            name: name.to_owned(),
            zone: None,
            services,
            links,
        }
    }

    /// Builds an [`NetworkDelta::RemoveHost`].
    pub fn remove_host(host: HostId) -> NetworkDelta {
        NetworkDelta::RemoveHost { host }
    }

    /// Builds an [`NetworkDelta::AddLink`].
    pub fn add_link(a: HostId, b: HostId) -> NetworkDelta {
        NetworkDelta::AddLink { a, b }
    }

    /// Builds an [`NetworkDelta::RemoveLink`].
    pub fn remove_link(a: HostId, b: HostId) -> NetworkDelta {
        NetworkDelta::RemoveLink { a, b }
    }

    /// Builds an [`NetworkDelta::FixSlot`].
    pub fn fix_slot(host: HostId, service: ServiceId, product: ProductId) -> NetworkDelta {
        NetworkDelta::FixSlot {
            host,
            service,
            product,
        }
    }

    /// Builds an [`NetworkDelta::UnfixSlot`].
    pub fn unfix_slot(
        host: HostId,
        service: ServiceId,
        candidates: Vec<ProductId>,
    ) -> NetworkDelta {
        NetworkDelta::UnfixSlot {
            host,
            service,
            candidates,
        }
    }

    /// Builds an [`NetworkDelta::ExtendCandidates`].
    pub fn extend_candidates(
        host: HostId,
        service: ServiceId,
        products: Vec<ProductId>,
    ) -> NetworkDelta {
        NetworkDelta::ExtendCandidates {
            host,
            service,
            products,
        }
    }

    /// A short kind label for telemetry (`"add-host"`, `"fix-slot"`, ...).
    pub fn kind(&self) -> &'static str {
        match self {
            NetworkDelta::AddHost { .. } => "add-host",
            NetworkDelta::RemoveHost { .. } => "remove-host",
            NetworkDelta::AddLink { .. } => "add-link",
            NetworkDelta::RemoveLink { .. } => "remove-link",
            NetworkDelta::FixSlot { .. } => "fix-slot",
            NetworkDelta::UnfixSlot { .. } => "unfix-slot",
            NetworkDelta::ExtendCandidates { .. } => "extend-candidates",
        }
    }
}

impl fmt::Display for NetworkDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkDelta::AddHost {
                name,
                services,
                links,
                ..
            } => write!(
                f,
                "add-host {name:?} ({} services, {} links)",
                services.len(),
                links.len()
            ),
            NetworkDelta::RemoveHost { host } => write!(f, "remove-host {host}"),
            NetworkDelta::AddLink { a, b } => write!(f, "add-link {a}-{b}"),
            NetworkDelta::RemoveLink { a, b } => write!(f, "remove-link {a}-{b}"),
            NetworkDelta::FixSlot {
                host,
                service,
                product,
            } => write!(f, "fix-slot {host}/{service} := {product}"),
            NetworkDelta::UnfixSlot {
                host,
                service,
                candidates,
            } => write!(
                f,
                "unfix-slot {host}/{service} ({} candidates)",
                candidates.len()
            ),
            NetworkDelta::ExtendCandidates {
                host,
                service,
                products,
            } => write!(
                f,
                "extend-candidates {host}/{service} (+{})",
                products.len()
            ),
        }
    }
}

/// What an applied delta touched — the contract between the mutation layer
/// and incremental model caches.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaEffect {
    /// The network revision *after* the delta.
    pub revision: u64,
    /// Hosts whose model contribution (domains, incident edges or folded
    /// unaries) may have changed: the mutated hosts plus link peers.
    pub touched: Vec<HostId>,
    /// The id of a host created by [`NetworkDelta::AddHost`].
    pub added_host: Option<HostId>,
    /// Whether the host/link structure changed (vs. a domain-only change).
    pub topology_changed: bool,
}

/// The merged effect of a successfully applied delta *batch* — what one
/// [`Network::apply_batch`] call did, in the same vocabulary downstream
/// caches consume for single deltas ([`DeltaEffect`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEffect {
    /// The network revision after the whole batch.
    pub revision: u64,
    /// Union of the per-delta [`DeltaEffect::touched`] sets, deduplicated
    /// and sorted.
    pub touched: Vec<HostId>,
    /// Hosts created by the batch's [`NetworkDelta::AddHost`] deltas, in
    /// application order.
    pub added_hosts: Vec<HostId>,
    /// Whether any delta changed the host/link structure.
    pub topology_changed: bool,
    /// Number of deltas applied (the batch length).
    pub applied: usize,
}

impl BatchEffect {
    /// Folds one more delta's effect into the running batch effect.
    fn absorb(&mut self, effect: DeltaEffect) {
        self.revision = effect.revision;
        self.touched.extend(effect.touched);
        self.added_hosts.extend(effect.added_host);
        self.topology_changed |= effect.topology_changed;
        self.applied += 1;
    }
}

impl Network {
    fn live_host(&self, id: HostId) -> Result<&Host> {
        let host = self.host(id)?;
        if host.removed {
            return Err(Error::RemovedHost(id));
        }
        Ok(host)
    }

    /// Validates candidate products for `service` against `catalog`.
    fn check_candidates(
        catalog: &Catalog,
        service: ServiceId,
        candidates: &[ProductId],
    ) -> Result<()> {
        for &p in candidates {
            let product = catalog.product(p)?;
            if product.service() != service {
                return Err(Error::ServiceMismatch {
                    product: p,
                    provides: product.service(),
                    requested: service,
                });
            }
        }
        Ok(())
    }

    /// Applies one delta transactionally: the delta is validated in full
    /// first, and a failed application leaves the network untouched.
    ///
    /// On success the network revision is bumped (see
    /// [`DeltaEffect::revision`]) and, for domain-affecting deltas, the
    /// touched hosts' revisions as well. Structural deltas additionally
    /// bump [`Network::topology_revision`] and the
    /// [`Network::link_revision`] of every host whose incident links moved
    /// (both endpoints of a link mutation; a removed or added host and its
    /// peers) — so the two per-host counters jointly cover every host a
    /// delta can affect.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownHost`] / [`Error::RemovedHost`] — a referenced host
    ///   does not exist or was tombstoned.
    /// * [`Error::SelfLoop`] / [`Error::DuplicateLink`] /
    ///   [`Error::UnknownLink`] — invalid link mutations.
    /// * [`Error::UnknownService`] / [`Error::UnknownProduct`] /
    ///   [`Error::ServiceMismatch`] — a service instance references ids
    ///   outside `catalog` or products of the wrong service.
    /// * [`Error::AbsentService`] — a slot delta targets a service the host
    ///   does not run; [`Error::DuplicateService`] — `AddHost` declares a
    ///   service twice.
    /// * [`Error::EmptyCandidates`] — a slot would end up with no
    ///   candidates; [`Error::NotACandidate`] — `FixSlot` mandates a product
    ///   outside the slot's current candidates;
    ///   [`Error::DuplicateCandidate`] — `ExtendCandidates` re-adds an
    ///   existing candidate.
    pub fn apply_delta(&mut self, delta: &NetworkDelta, catalog: &Catalog) -> Result<DeltaEffect> {
        match delta {
            NetworkDelta::AddHost {
                name,
                zone,
                services,
                links,
            } => {
                let new_id = HostId(self.host_count() as u32);
                for (i, (service, candidates)) in services.iter().enumerate() {
                    catalog.service(*service)?;
                    if candidates.is_empty() {
                        return Err(Error::EmptyCandidates {
                            host: new_id,
                            service: *service,
                        });
                    }
                    if services[..i].iter().any(|(s, _)| s == service) {
                        return Err(Error::DuplicateService {
                            host: new_id,
                            service: *service,
                        });
                    }
                    Network::check_candidates(catalog, *service, candidates)?;
                }
                for (i, &peer) in links.iter().enumerate() {
                    self.live_host(peer)?;
                    if links[..i].contains(&peer) {
                        return Err(Error::DuplicateLink(peer, new_id));
                    }
                }
                self.revision += 1;
                self.topology_revision += 1;
                self.push_host(Host {
                    name: name.clone(),
                    zone: zone.clone(),
                    services: services
                        .iter()
                        .map(|(service, candidates)| ServiceInstance {
                            service: *service,
                            candidates: candidates.clone(),
                        })
                        .collect(),
                    removed: false,
                });
                for &peer in links {
                    self.link(peer, new_id);
                }
                let mut touched = vec![new_id];
                touched.extend_from_slice(links);
                Ok(DeltaEffect {
                    revision: self.revision,
                    touched,
                    added_host: Some(new_id),
                    topology_changed: true,
                })
            }
            NetworkDelta::RemoveHost { host } => {
                self.live_host(*host)?;
                self.revision += 1;
                self.topology_revision += 1;
                let h = self.host_mut(*host);
                h.services.clear();
                h.removed = true;
                let former = self.detach(*host);
                let mut touched = vec![*host];
                touched.extend(former);
                Ok(DeltaEffect {
                    revision: self.revision,
                    touched,
                    added_host: None,
                    topology_changed: true,
                })
            }
            NetworkDelta::AddLink { a, b } => {
                self.live_host(*a)?;
                self.live_host(*b)?;
                if a == b {
                    return Err(Error::SelfLoop(*a));
                }
                if self.linked(*a, *b) {
                    let key = if a < b { (*a, *b) } else { (*b, *a) };
                    return Err(Error::DuplicateLink(key.0, key.1));
                }
                self.revision += 1;
                self.topology_revision += 1;
                self.link(*a, *b);
                Ok(DeltaEffect {
                    revision: self.revision,
                    touched: vec![*a, *b],
                    added_host: None,
                    topology_changed: true,
                })
            }
            NetworkDelta::RemoveLink { a, b } => {
                // `live_host`, not `host`: links to tombstoned hosts are
                // unrepresentable (RemoveHost drops them, AddLink refuses
                // them), so a RemoveLink naming a removed endpoint is a
                // stale-feed error worth surfacing as such instead of the
                // misleading UnknownLink.
                self.live_host(*a)?;
                self.live_host(*b)?;
                if !self.linked(*a, *b) {
                    let key = if a < b { (*a, *b) } else { (*b, *a) };
                    return Err(Error::UnknownLink(key.0, key.1));
                }
                self.revision += 1;
                self.topology_revision += 1;
                self.unlink(*a, *b);
                Ok(DeltaEffect {
                    revision: self.revision,
                    touched: vec![*a, *b],
                    added_host: None,
                    topology_changed: true,
                })
            }
            NetworkDelta::FixSlot {
                host,
                service,
                product,
            } => {
                let h = self.live_host(*host)?;
                let slot = h.service_slot(*service).ok_or(Error::AbsentService {
                    host: *host,
                    service: *service,
                })?;
                if !h.services[slot].candidates.contains(product) {
                    return Err(Error::NotACandidate {
                        host: *host,
                        service: *service,
                        product: *product,
                    });
                }
                self.revision += 1;
                self.host_mut(*host).services[slot].candidates = vec![*product];
                Ok(DeltaEffect {
                    revision: self.revision,
                    touched: vec![*host],
                    added_host: None,
                    topology_changed: false,
                })
            }
            NetworkDelta::UnfixSlot {
                host,
                service,
                candidates,
            } => {
                let h = self.live_host(*host)?;
                let slot = h.service_slot(*service).ok_or(Error::AbsentService {
                    host: *host,
                    service: *service,
                })?;
                if candidates.is_empty() {
                    return Err(Error::EmptyCandidates {
                        host: *host,
                        service: *service,
                    });
                }
                for (i, p) in candidates.iter().enumerate() {
                    if candidates[..i].contains(p) {
                        return Err(Error::DuplicateCandidate {
                            host: *host,
                            service: *service,
                            product: *p,
                        });
                    }
                }
                Network::check_candidates(catalog, *service, candidates)?;
                self.revision += 1;
                self.host_mut(*host).services[slot].candidates = candidates.clone();
                Ok(DeltaEffect {
                    revision: self.revision,
                    touched: vec![*host],
                    added_host: None,
                    topology_changed: false,
                })
            }
            NetworkDelta::ExtendCandidates {
                host,
                service,
                products,
            } => {
                let h = self.live_host(*host)?;
                let slot = h.service_slot(*service).ok_or(Error::AbsentService {
                    host: *host,
                    service: *service,
                })?;
                if products.is_empty() {
                    return Err(Error::EmptyCandidates {
                        host: *host,
                        service: *service,
                    });
                }
                Network::check_candidates(catalog, *service, products)?;
                for (i, p) in products.iter().enumerate() {
                    if h.services[slot].candidates.contains(p) || products[..i].contains(p) {
                        return Err(Error::DuplicateCandidate {
                            host: *host,
                            service: *service,
                            product: *p,
                        });
                    }
                }
                self.revision += 1;
                self.host_mut(*host).services[slot]
                    .candidates
                    .extend_from_slice(products);
                Ok(DeltaEffect {
                    revision: self.revision,
                    touched: vec![*host],
                    added_host: None,
                    topology_changed: false,
                })
            }
        }
    }

    /// Applies a whole batch of deltas transactionally: every delta is
    /// validated (against the network state after its predecessors) and
    /// applied on a *staged copy*; only a fully valid batch is committed.
    /// A rejected batch leaves the network untouched — unlike a sequential
    /// loop over [`Network::apply_delta`], which commits the prefix before
    /// the failing delta.
    ///
    /// An empty batch is a no-op (`revision` unchanged, nothing touched).
    ///
    /// # Errors
    ///
    /// [`Error::BatchRejected`] wrapping the failing delta's index and its
    /// validation error (see [`Network::apply_delta`] for the causes).
    pub fn apply_batch(
        &mut self,
        deltas: &[NetworkDelta],
        catalog: &Catalog,
    ) -> Result<BatchEffect> {
        if deltas.is_empty() {
            return Ok(BatchEffect {
                revision: self.revision,
                touched: Vec::new(),
                added_hosts: Vec::new(),
                topology_changed: false,
                applied: 0,
            });
        }
        let mut staged = self.clone();
        let merged = staged.apply_all(deltas, catalog)?;
        *self = staged;
        Ok(merged)
    }

    /// Applies `deltas` in order, merging their effects, **committing the
    /// valid prefix**: a rejected delta leaves its predecessors applied.
    /// This is the streaming building block — callers wanting all-or-nothing
    /// semantics use [`Network::apply_batch`], which runs this on a staged
    /// copy (the incremental engine stages its own copy and calls this
    /// directly to avoid staging twice).
    ///
    /// # Errors
    ///
    /// [`Error::BatchRejected`] wrapping the failing delta's index and its
    /// validation error; the network then holds revision
    /// `initial + index`.
    pub fn apply_all(&mut self, deltas: &[NetworkDelta], catalog: &Catalog) -> Result<BatchEffect> {
        let mut merged = BatchEffect {
            revision: self.revision,
            touched: Vec::new(),
            added_hosts: Vec::new(),
            topology_changed: false,
            applied: 0,
        };
        for (index, delta) in deltas.iter().enumerate() {
            match self.apply_delta(delta, catalog) {
                Ok(effect) => merged.absorb(effect),
                Err(cause) => {
                    return Err(Error::BatchRejected {
                        index,
                        cause: Box::new(cause),
                    })
                }
            }
        }
        merged.touched.sort_unstable();
        merged.touched.dedup();
        Ok(merged)
    }
}

/// Draws a random delta that is valid for the network's *current* state.
///
/// Hosts listed in `protect` are never removed (keep simulation entry and
/// target hosts alive through a churn stream). The generator prefers the
/// cheaper, more frequent operations (link flips, slot mandates) and falls
/// back to `AddHost` — which is always valid — when a drawn category has no
/// applicable target.
pub fn random_delta(
    network: &Network,
    catalog: &Catalog,
    rng: &mut StdRng,
    protect: &[HostId],
) -> NetworkDelta {
    let active: Vec<HostId> = network
        .iter_hosts()
        .filter(|(_, h)| !h.is_removed())
        .map(|(id, _)| id)
        .collect();
    for _ in 0..32 {
        // Without a live host, only AddHost is valid — skip straight to it.
        if active.is_empty() {
            break;
        }
        match rng.gen_range(0u32..12) {
            // Link churn: the most frequent real-world event.
            0..=2 => {
                if active.len() >= 2 {
                    for _ in 0..8 {
                        let a = active[rng.gen_range(0..active.len())];
                        let b = active[rng.gen_range(0..active.len())];
                        if a != b && !network.linked(a, b) {
                            return NetworkDelta::add_link(a, b);
                        }
                    }
                }
            }
            3..=4 => {
                if !network.links().is_empty() {
                    let (a, b) = network.links()[rng.gen_range(0..network.link_count())];
                    return NetworkDelta::remove_link(a, b);
                }
            }
            // Product mandates arriving and being lifted.
            5..=6 => {
                for _ in 0..8 {
                    let h = active[rng.gen_range(0..active.len())];
                    let host = network.host(h).expect("active host");
                    if host.services().is_empty() {
                        continue;
                    }
                    let slot = rng.gen_range(0..host.services().len());
                    let inst = &host.services()[slot];
                    if inst.candidates().len() >= 2 {
                        let p = inst.candidates()[rng.gen_range(0..inst.candidates().len())];
                        return NetworkDelta::fix_slot(h, inst.service(), p);
                    }
                }
            }
            7..=8 => {
                for _ in 0..8 {
                    let h = active[rng.gen_range(0..active.len())];
                    let host = network.host(h).expect("active host");
                    if host.services().is_empty() {
                        continue;
                    }
                    let slot = rng.gen_range(0..host.services().len());
                    let service = host.services()[slot].service();
                    let full = catalog.products_of(service);
                    if full.len() > host.services()[slot].candidates().len() {
                        return NetworkDelta::unfix_slot(h, service, full.to_vec());
                    }
                }
            }
            // Catalog products reaching a slot that does not offer them yet.
            9 => {
                for _ in 0..8 {
                    let h = active[rng.gen_range(0..active.len())];
                    let host = network.host(h).expect("active host");
                    if host.services().is_empty() {
                        continue;
                    }
                    let slot = rng.gen_range(0..host.services().len());
                    let inst = &host.services()[slot];
                    let missing: Vec<ProductId> = catalog
                        .products_of(inst.service())
                        .iter()
                        .copied()
                        .filter(|p| !inst.candidates().contains(p))
                        .collect();
                    if !missing.is_empty() {
                        let p = missing[rng.gen_range(0..missing.len())];
                        return NetworkDelta::extend_candidates(h, inst.service(), vec![p]);
                    }
                }
            }
            // Host churn: rarer, structurally heavier.
            10 => {
                let removable: Vec<HostId> = active
                    .iter()
                    .copied()
                    .filter(|h| !protect.contains(h))
                    .collect();
                if !removable.is_empty() && active.len() > protect.len() + 1 {
                    return NetworkDelta::remove_host(removable[rng.gen_range(0..removable.len())]);
                }
            }
            _ => break, // fall through to AddHost
        }
    }
    // AddHost: always valid. Run every catalog service with full candidates
    // and link to up to three random active hosts.
    let services: Vec<(ServiceId, Vec<ProductId>)> = catalog
        .iter_services()
        .map(|(sid, _)| (sid, catalog.products_of(sid).to_vec()))
        .filter(|(_, ps)| !ps.is_empty())
        .collect();
    let mut links = Vec::new();
    if !active.is_empty() {
        for _ in 0..rng.gen_range(1usize..=3) {
            let peer = active[rng.gen_range(0..active.len())];
            if !links.contains(&peer) {
                links.push(peer);
            }
        }
    }
    NetworkDelta::add_host(&format!("dyn{}", network.revision()), services, links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use rand::SeedableRng;

    fn fixture() -> (Network, Catalog) {
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
        for &h in &[h0, h1, h2] {
            b.add_service(h, os, vec![win, lin]).unwrap();
        }
        b.add_service(h0, wb, vec![ie, ch]).unwrap();
        b.add_service(h1, wb, vec![ie, ch]).unwrap();
        b.add_link(h0, h1).unwrap();
        b.add_link(h1, h2).unwrap();
        (b.build(&c).unwrap(), c)
    }

    fn sid(c: &Catalog, n: &str) -> ServiceId {
        c.service_by_name(n).unwrap()
    }

    fn pid(c: &Catalog, n: &str) -> ProductId {
        c.product_by_name(n).unwrap()
    }

    #[test]
    fn add_host_links_and_revisions() {
        let (mut net, c) = fixture();
        assert_eq!(net.revision(), 0);
        let delta = NetworkDelta::add_host(
            "h3",
            vec![(sid(&c, "os"), vec![pid(&c, "win"), pid(&c, "lin")])],
            vec![HostId(0), HostId(2)],
        );
        let effect = net.apply_delta(&delta, &c).unwrap();
        assert_eq!(effect.added_host, Some(HostId(3)));
        assert_eq!(effect.revision, 1);
        assert!(effect.topology_changed);
        assert_eq!(net.host_count(), 4);
        assert!(net.linked(HostId(3), HostId(0)));
        assert!(net.linked(HostId(3), HostId(2)));
        assert_eq!(net.host_revision(HostId(3)), 1);
        assert_eq!(net.host_revision(HostId(0)), 0, "peer domains unchanged");
        // CSR stays symmetric after the in-place edits.
        for (id, _) in net.iter_hosts() {
            for &nb in net.neighbors(id) {
                assert!(net.neighbors(nb).contains(&id));
            }
        }
    }

    #[test]
    fn topology_and_link_revisions_track_structural_deltas() {
        let (mut net, c) = fixture();
        assert_eq!(net.topology_revision(), 0);
        for h in 0..3u32 {
            assert_eq!(net.link_revision(HostId(h)), 0);
        }
        // Slot deltas leave every structural counter alone.
        let os = sid(&c, "os");
        net.apply_delta(&NetworkDelta::fix_slot(HostId(0), os, pid(&c, "win")), &c)
            .unwrap();
        assert_eq!(net.topology_revision(), 0);
        assert_eq!(net.link_revision(HostId(0)), 0);
        // AddLink bumps exactly its two endpoints.
        net.apply_delta(&NetworkDelta::add_link(HostId(0), HostId(2)), &c)
            .unwrap();
        assert_eq!(net.topology_revision(), 1);
        assert_eq!(net.link_revision(HostId(0)), 2);
        assert_eq!(net.link_revision(HostId(2)), 2);
        assert_eq!(net.link_revision(HostId(1)), 0, "bystander untouched");
        // RemoveLink likewise.
        net.apply_delta(&NetworkDelta::remove_link(HostId(2), HostId(0)), &c)
            .unwrap();
        assert_eq!(net.topology_revision(), 2);
        assert_eq!(net.link_revision(HostId(0)), 3);
        // AddHost bumps the new host and its peers.
        net.apply_delta(
            &NetworkDelta::add_host("h3", vec![(os, vec![pid(&c, "lin")])], vec![HostId(1)]),
            &c,
        )
        .unwrap();
        assert_eq!(net.topology_revision(), 3);
        assert_eq!(net.link_revision(HostId(3)), 4);
        assert_eq!(net.link_revision(HostId(1)), 4);
        assert_eq!(net.host_revision(HostId(1)), 0, "peer domains unchanged");
        // RemoveHost bumps the tombstone and every former neighbor.
        net.apply_delta(&NetworkDelta::remove_host(HostId(1)), &c)
            .unwrap();
        assert_eq!(net.topology_revision(), 4);
        assert_eq!(net.link_revision(HostId(1)), 5);
        assert_eq!(net.link_revision(HostId(0)), 5, "former neighbor");
        assert_eq!(net.link_revision(HostId(3)), 5, "former neighbor");
        assert_eq!(net.link_revision(HostId(2)), 5, "former neighbor via 1-2");
    }

    #[test]
    fn add_host_validates_services_and_links() {
        let (mut net, c) = fixture();
        let os = sid(&c, "os");
        let bad_service = NetworkDelta::add_host("x", vec![(ServiceId(9), vec![])], vec![]);
        assert!(matches!(
            net.apply_delta(&bad_service, &c),
            Err(Error::UnknownService(_))
        ));
        let no_candidates = NetworkDelta::add_host("x", vec![(os, vec![])], vec![]);
        assert!(matches!(
            net.apply_delta(&no_candidates, &c),
            Err(Error::EmptyCandidates { .. })
        ));
        let wrong_product = NetworkDelta::add_host("x", vec![(os, vec![pid(&c, "ie")])], vec![]);
        assert!(matches!(
            net.apply_delta(&wrong_product, &c),
            Err(Error::ServiceMismatch { .. })
        ));
        let dup_service = NetworkDelta::add_host(
            "x",
            vec![(os, vec![pid(&c, "win")]), (os, vec![pid(&c, "lin")])],
            vec![],
        );
        assert!(matches!(
            net.apply_delta(&dup_service, &c),
            Err(Error::DuplicateService { .. })
        ));
        let bad_link = NetworkDelta::add_host("x", vec![], vec![HostId(9)]);
        assert!(matches!(
            net.apply_delta(&bad_link, &c),
            Err(Error::UnknownHost(_))
        ));
        // Nothing was mutated by the failed applications.
        assert_eq!(net.revision(), 0);
        assert_eq!(net.host_count(), 3);
    }

    #[test]
    fn remove_host_tombstones() {
        let (mut net, c) = fixture();
        let effect = net
            .apply_delta(&NetworkDelta::remove_host(HostId(1)), &c)
            .unwrap();
        assert!(effect.touched.contains(&HostId(0)), "former neighbor");
        assert!(effect.touched.contains(&HostId(2)), "former neighbor");
        assert_eq!(net.host_count(), 3, "ids stay stable");
        assert_eq!(net.active_host_count(), 2);
        let h1 = net.host(HostId(1)).unwrap();
        assert!(h1.is_removed());
        assert!(h1.services().is_empty());
        assert_eq!(net.link_count(), 0);
        assert_eq!(net.degree(HostId(0)), 0);
        // Double removal and deltas against the tombstone are rejected.
        assert!(matches!(
            net.apply_delta(&NetworkDelta::remove_host(HostId(1)), &c),
            Err(Error::RemovedHost(_))
        ));
        assert!(matches!(
            net.apply_delta(&NetworkDelta::add_link(HostId(0), HostId(1)), &c),
            Err(Error::RemovedHost(_))
        ));
    }

    #[test]
    fn link_add_remove_round_trip() {
        let (mut net, c) = fixture();
        assert!(matches!(
            net.apply_delta(&NetworkDelta::add_link(HostId(0), HostId(1)), &c),
            Err(Error::DuplicateLink(..))
        ));
        assert!(matches!(
            net.apply_delta(&NetworkDelta::add_link(HostId(0), HostId(0)), &c),
            Err(Error::SelfLoop(_))
        ));
        net.apply_delta(&NetworkDelta::add_link(HostId(2), HostId(0)), &c)
            .unwrap();
        assert!(net.linked(HostId(0), HostId(2)));
        // Removal accepts either endpoint order.
        net.apply_delta(&NetworkDelta::remove_link(HostId(2), HostId(0)), &c)
            .unwrap();
        assert!(!net.linked(HostId(0), HostId(2)));
        assert!(matches!(
            net.apply_delta(&NetworkDelta::remove_link(HostId(0), HostId(2)), &c),
            Err(Error::UnknownLink(..))
        ));
        assert_eq!(net.revision(), 2);
    }

    #[test]
    fn fix_unfix_extend_slot() {
        let (mut net, c) = fixture();
        let os = sid(&c, "os");
        let win = pid(&c, "win");
        net.apply_delta(&NetworkDelta::fix_slot(HostId(0), os, win), &c)
            .unwrap();
        assert_eq!(
            net.host(HostId(0)).unwrap().candidates_for(os),
            Some(&[win][..])
        );
        assert_eq!(net.host_revision(HostId(0)), 1);
        // Fixing to a product outside the (now singleton) domain fails.
        assert!(matches!(
            net.apply_delta(&NetworkDelta::fix_slot(HostId(0), os, pid(&c, "lin")), &c),
            Err(Error::NotACandidate { .. })
        ));
        // Unfix restores a validated candidate set.
        let full = vec![win, pid(&c, "lin")];
        net.apply_delta(&NetworkDelta::unfix_slot(HostId(0), os, full.clone()), &c)
            .unwrap();
        assert_eq!(
            net.host(HostId(0)).unwrap().candidates_for(os),
            Some(&full[..])
        );
        // h2 runs no browser: slot deltas are rejected.
        let wb = sid(&c, "wb");
        assert!(matches!(
            net.apply_delta(&NetworkDelta::fix_slot(HostId(2), wb, pid(&c, "ie")), &c),
            Err(Error::AbsentService { .. })
        ));
        // Extend rejects existing candidates and accepts new ones.
        assert!(matches!(
            net.apply_delta(
                &NetworkDelta::extend_candidates(HostId(0), os, vec![win]),
                &c
            ),
            Err(Error::DuplicateCandidate { .. })
        ));
        let mut c2 = c.clone();
        let vx = c2.add_product("vx", os).unwrap();
        net.apply_delta(
            &NetworkDelta::extend_candidates(HostId(0), os, vec![vx]),
            &c2,
        )
        .unwrap();
        assert!(net
            .host(HostId(0))
            .unwrap()
            .candidates_for(os)
            .unwrap()
            .contains(&vx));
    }

    #[test]
    fn remove_link_rejects_tombstoned_endpoints() {
        let (mut net, c) = fixture();
        net.apply_delta(&NetworkDelta::remove_host(HostId(1)), &c)
            .unwrap();
        // Links to the tombstone are unrepresentable; naming one in a
        // RemoveLink must surface the removed endpoint, either order.
        for delta in [
            NetworkDelta::remove_link(HostId(0), HostId(1)),
            NetworkDelta::remove_link(HostId(1), HostId(0)),
        ] {
            assert!(matches!(
                net.apply_delta(&delta, &c),
                Err(Error::RemovedHost(HostId(1)))
            ));
        }
        // Sanity: no link involving the tombstone survived the removal.
        assert!(net
            .links()
            .iter()
            .all(|&(a, b)| a != HostId(1) && b != HostId(1)));
    }

    #[test]
    fn apply_batch_merges_effects() {
        let (mut net, c) = fixture();
        let os = sid(&c, "os");
        let win = pid(&c, "win");
        let effect = net
            .apply_batch(
                &[
                    NetworkDelta::fix_slot(HostId(0), os, win),
                    NetworkDelta::add_link(HostId(0), HostId(2)),
                    NetworkDelta::add_host("h3", vec![(os, vec![win])], vec![HostId(2)]),
                ],
                &c,
            )
            .unwrap();
        assert_eq!(effect.applied, 3);
        assert_eq!(effect.revision, 3);
        assert_eq!(net.revision(), 3);
        assert!(effect.topology_changed);
        assert_eq!(effect.added_hosts, vec![HostId(3)]);
        assert_eq!(
            effect.touched,
            vec![HostId(0), HostId(2), HostId(3)],
            "touched is the deduplicated, sorted union"
        );
        assert!(net.linked(HostId(0), HostId(2)));
        assert!(net.linked(HostId(2), HostId(3)));
    }

    #[test]
    fn apply_batch_validates_against_the_staged_state() {
        let (mut net, c) = fixture();
        // The second delta is only valid because the first added the host.
        net.apply_batch(
            &[
                NetworkDelta::add_host("h3", vec![], vec![]),
                NetworkDelta::add_link(HostId(0), HostId(3)),
            ],
            &c,
        )
        .unwrap();
        assert!(net.linked(HostId(0), HostId(3)));
    }

    #[test]
    fn rejected_batch_leaves_the_network_untouched() {
        let (mut net, c) = fixture();
        let os = sid(&c, "os");
        let win = pid(&c, "win");
        let before = net.clone();
        let err = net
            .apply_batch(
                &[
                    NetworkDelta::fix_slot(HostId(0), os, win),
                    NetworkDelta::add_link(HostId(1), HostId(1)), // self-loop
                ],
                &c,
            )
            .unwrap_err();
        let Error::BatchRejected { index, cause } = err else {
            panic!("expected BatchRejected");
        };
        assert_eq!(index, 1);
        assert!(matches!(*cause, Error::SelfLoop(HostId(1))));
        assert_eq!(net, before, "all-or-nothing: the valid prefix rolled back");
        // An empty batch is a committed no-op.
        let effect = net.apply_batch(&[], &c).unwrap();
        assert_eq!(effect.applied, 0);
        assert_eq!(effect.revision, 0);
        assert_eq!(net.revision(), 0);
    }

    #[test]
    fn staging_on_a_clone_copies_only_the_mutated_host_records() {
        use crate::network::CHUNK_HOSTS;
        use crate::topology::{generate, RandomNetworkConfig, TopologyKind};
        use std::collections::BTreeSet;
        // 40 chunks, so a burst leaves most of them alone.
        let g = generate(
            &RandomNetworkConfig {
                hosts: 40 * CHUNK_HOSTS,
                mean_degree: 4,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            5,
        );
        let original = g.network;
        // `Debug` renders every record by value: a deep image of the state.
        let image = format!("{original:?}");
        let mut shadow = original.clone();
        let mut rng = StdRng::seed_from_u64(2);
        // Every host whose chunk a delta edits: its endpoints, a removed
        // host's former peers, an added host and its peers.
        let mut touched = BTreeSet::new();
        let mut burst: Vec<NetworkDelta> = (0..40)
            .map(|_| {
                let delta = random_delta(&shadow, &g.catalog, &mut rng, &[]);
                let effect = shadow.apply_delta(&delta, &g.catalog).unwrap();
                touched.extend(effect.touched);
                delta
            })
            .collect();
        // Random draws on a network this large rarely hit a fixed slot
        // again: close the burst with one slot's fix, extension and unfix.
        let (host, _) = shadow
            .iter_hosts()
            .find(|(_, h)| !h.is_removed() && !h.services().is_empty())
            .expect("a live host");
        let service = shadow.host(host).unwrap().services()[0].service();
        let products = g.catalog.products_of(service);
        for delta in [
            NetworkDelta::fix_slot(host, service, products[0]),
            NetworkDelta::extend_candidates(host, service, vec![products[1]]),
            NetworkDelta::unfix_slot(host, service, products.to_vec()),
        ] {
            let effect = shadow.apply_delta(&delta, &g.catalog).unwrap();
            touched.extend(effect.touched);
            burst.push(delta);
        }
        let mut kinds: Vec<&str> = burst.iter().map(NetworkDelta::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 7, "a burst of every kind: {kinds:?}");
        // Link deltas rewire hosts without touching their records.
        let mutated: Vec<HostId> = burst
            .iter()
            .filter_map(|d| match d {
                NetworkDelta::RemoveHost { host }
                | NetworkDelta::FixSlot { host, .. }
                | NetworkDelta::UnfixSlot { host, .. }
                | NetworkDelta::ExtendCandidates { host, .. } => Some(*host),
                _ => None,
            })
            .collect();
        let edited: BTreeSet<usize> = touched.iter().map(|h| h.index() / CHUNK_HOSTS).collect();

        let mut staged = original.clone();
        staged.apply_all(&burst, &g.catalog).unwrap();
        assert_eq!(staged, shadow);
        assert!(
            !edited.is_empty() && edited.len() < 40,
            "the burst edits some chunks and leaves others shared"
        );
        for i in 0..original.host_count() {
            let id = HostId(i as u32);
            let (chunk, record) = original.sharing(&staged, id);
            assert_eq!(
                chunk,
                !edited.contains(&(i / CHUNK_HOSTS)),
                "host {i}'s chunk"
            );
            assert_eq!(record, !mutated.contains(&id), "host {i}'s record");
        }
        assert_eq!(format!("{original:?}"), image, "the original is unchanged");
    }

    #[test]
    fn random_delta_on_a_hostless_network_falls_back_to_add_host() {
        let (_, c) = fixture();
        let mut net = NetworkBuilder::new().build(&c).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for step in 0..5 {
            let delta = random_delta(&net, &c, &mut rng, &[]);
            if step == 0 {
                // No live hosts: every draw must fall back to AddHost
                // instead of panicking on an empty choice pool.
                assert!(matches!(delta, NetworkDelta::AddHost { .. }));
            }
            net.apply_delta(&delta, &c).unwrap();
        }
        assert!(net.active_host_count() >= 1);
    }

    #[test]
    fn random_deltas_always_apply() {
        let (mut net, c) = fixture();
        let mut rng = StdRng::seed_from_u64(7);
        let protect = [HostId(0)];
        for step in 0..200 {
            let delta = random_delta(&net, &c, &mut rng, &protect);
            net.apply_delta(&delta, &c)
                .unwrap_or_else(|e| panic!("step {step}: {delta} failed: {e}"));
            assert!(
                !net.host(HostId(0)).unwrap().is_removed(),
                "protected host must survive"
            );
        }
        assert_eq!(net.revision(), 200);
    }
}
