//! Zone-aware partitioning: split one network into per-zone shards plus an
//! explicit boundary set.
//!
//! The paper's case study is already zoned — a Corporate sub-network and a
//! Control sub-network joined by a handful of firewall-mediated links — and
//! production deployments are too. A sharded serving layer exploits that
//! shape: each zone becomes a *shard* that can absorb deltas and re-solve
//! independently, and only the **boundary hosts** — the endpoints of
//! cross-zone links — need coordination between shards.
//!
//! This module is the vocabulary for that split:
//!
//! * [`partition_by_zone`] groups hosts by their zone label (hosts without
//!   a label form one implicit "unzoned" shard) and classifies every link
//!   as intra-shard or **cross-shard**; a host is *boundary* iff it has at
//!   least one cross-shard link.
//! * [`extract_shard`] materializes one shard as a standalone [`Network`]
//!   — the induced subgraph on the shard's hosts, with local host ids and
//!   a mapping back to the parent's ids — ready to feed a per-shard engine.
//!
//! The partition is a **maintained structure**, not a recompute: it is
//! derived once ([`partition_by_zone`], O(V+E)) and then *patched* in step
//! with the delta stream ([`crate::delta::NetworkDelta`]) through the
//! mutators — [`ZonePartition::add_host`], [`ZonePartition::add_link`],
//! [`ZonePartition::remove_link`] and [`ZonePartition::remove_host`] — each
//! O(touched·degree) or better. Per-host cross-link counts make boundary
//! maintenance exact: adding a cross-zone link *promotes* both endpoints
//! into the boundary set, removing a host's last one *demotes* it, and
//! tombstoned hosts (no links by construction) are never boundary. A
//! maintained partition equals the from-scratch recompute after any valid
//! delta stream (the equivalence is proptest-pinned in
//! `tests/tests/sharded.rs`).
//!
//! Zones have a **lifecycle**: [`ZonePartition::add_host`] naming a zone no
//! shard owns creates a new shard on the spot (first-appearance order is
//! preserved), and [`ZonePartition::live_members`] reports when a zone has
//! drained to tombstones so a serving layer can retire its engine. Retired
//! shards keep their positional slot — shard indices stay stable and every
//! host id remains resolvable — and revive when a host joins the zone
//! again.
//!
//! ```
//! use netmodel::catalog::Catalog;
//! use netmodel::network::NetworkBuilder;
//! use netmodel::partition::partition_by_zone;
//!
//! # fn main() -> Result<(), netmodel::Error> {
//! let mut catalog = Catalog::new();
//! let os = catalog.add_service("os");
//! let p = catalog.add_product("p0", os)?;
//!
//! let mut b = NetworkBuilder::new();
//! let c1 = b.add_host_in_zone("c1", "Corporate");
//! let c2 = b.add_host_in_zone("c2", "Corporate");
//! let s1 = b.add_host_in_zone("s1", "Control");
//! for h in [c1, c2, s1] {
//!     b.add_service(h, os, vec![p])?;
//! }
//! b.add_link(c1, c2)?; // intra-zone
//! b.add_link(c2, s1)?; // cross-zone: c2 and s1 become boundary hosts
//! let network = b.build(&catalog)?;
//!
//! let mut partition = partition_by_zone(&network);
//! assert_eq!(partition.shard_count(), 2);
//! assert_eq!(partition.cross_links(), &[(c2, s1)]);
//! assert!(!partition.is_boundary(c1));
//! assert!(partition.is_boundary(c2) && partition.is_boundary(s1));
//!
//! // Maintained, not recomputed: patch it in step with the delta stream.
//! partition.add_link(c1, s1); // cross-zone: promotes c1
//! assert!(partition.is_boundary(c1));
//! partition.remove_link(c1, s1); // last cross link: demotes c1 again
//! assert!(!partition.is_boundary(c1));
//! assert_eq!(partition.live_members(0), 2);
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use crate::network::Network;
use crate::HostId;

/// One shard of a [`ZonePartition`]: a zone label and its member hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneShard {
    /// The zone label shared by every member (`None`: the implicit shard of
    /// hosts built without a zone).
    pub zone: Option<String>,
    /// Member hosts in ascending id order, including tombstoned ones (their
    /// ids must stay resolvable across shard extractions).
    pub members: Vec<HostId>,
}

impl ZoneShard {
    /// The zone label as display text (`"(unzoned)"` for the implicit
    /// shard).
    pub fn zone_name(&self) -> &str {
        self.zone.as_deref().unwrap_or("(unzoned)")
    }

    /// Member hosts that are not tombstoned.
    pub fn active_members<'a>(&'a self, network: &'a Network) -> impl Iterator<Item = HostId> + 'a {
        self.members.iter().copied().filter(|&h| {
            network
                .host(h)
                .map(|host| !host.is_removed())
                .unwrap_or(false)
        })
    }
}

/// The zone decomposition of a network: shards, host→shard ownership,
/// cross-shard links and the boundary host set (module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZonePartition {
    shards: Vec<ZoneShard>,
    /// Owning shard per host id (total: every host belongs to exactly one
    /// shard, tombstones included — the zone label survives removal).
    shard_of: Vec<usize>,
    /// Links whose endpoints live in different shards, ascending (`a < b`
    /// within each pair) — the canonical order incremental maintenance
    /// preserves by sorted insertion.
    cross_links: Vec<(HostId, HostId)>,
    /// Hosts with at least one cross-shard link, ascending, deduplicated.
    boundary: Vec<HostId>,
    /// Cross-shard links incident to each host — the promote/demote
    /// counter: a host is boundary iff its count is nonzero.
    cross_count: Vec<u32>,
    /// Non-tombstoned members per shard — zero means the zone has drained
    /// and its engine can be retired.
    live: Vec<usize>,
}

/// Groups `network`'s hosts into per-zone shards and classifies every link
/// (module docs). Shard order is the order zones first appear by host id,
/// so equal networks produce equal partitions.
pub fn partition_by_zone(network: &Network) -> ZonePartition {
    let mut shards: Vec<ZoneShard> = Vec::new();
    let mut shard_of = Vec::with_capacity(network.host_count());
    let mut live: Vec<usize> = Vec::new();
    for (id, host) in network.iter_hosts() {
        let zone = host.zone();
        let shard = match shards.iter().position(|s| s.zone.as_deref() == zone) {
            Some(i) => i,
            None => {
                shards.push(ZoneShard {
                    zone: zone.map(str::to_owned),
                    members: Vec::new(),
                });
                live.push(0);
                shards.len() - 1
            }
        };
        shards[shard].members.push(id);
        shard_of.push(shard);
        if !host.is_removed() {
            live[shard] += 1;
        }
    }
    let mut cross_links = Vec::new();
    let mut cross_count = vec![0u32; network.host_count()];
    for &(a, b) in network.links() {
        if shard_of[a.index()] != shard_of[b.index()] {
            cross_links.push(ordered(a, b));
            cross_count[a.index()] += 1;
            cross_count[b.index()] += 1;
        }
    }
    cross_links.sort_unstable();
    let boundary = cross_count
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, _)| HostId(i as u32))
        .collect();
    ZonePartition {
        shards,
        shard_of,
        cross_links,
        boundary,
        cross_count,
        live,
    }
}

/// Canonical cross-link key: the lower host id first.
fn ordered(a: HostId, b: HostId) -> (HostId, HostId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

impl ZonePartition {
    /// Number of shards (distinct zone labels; ≥ 1 for non-empty networks).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in first-appearance order.
    pub fn shards(&self) -> &[ZoneShard] {
        &self.shards
    }

    /// The shard owning `host` (`None` for out-of-range ids).
    pub fn shard_of(&self, host: HostId) -> Option<usize> {
        self.shard_of.get(host.index()).copied()
    }

    /// The shard whose zone label equals `zone` (`None` both for unknown
    /// labels and when passed `None` but no unzoned shard exists).
    pub fn shard_of_zone(&self, zone: Option<&str>) -> Option<usize> {
        self.shards.iter().position(|s| s.zone.as_deref() == zone)
    }

    /// Links whose endpoints live in different shards (`a < b` order, the
    /// order they appear in [`Network::links`]).
    pub fn cross_links(&self) -> &[(HostId, HostId)] {
        &self.cross_links
    }

    /// The boundary set: every host with at least one cross-shard link,
    /// ascending. Hosts with only intra-shard links — and tombstoned hosts,
    /// which have no links at all — are never in it.
    pub fn boundary(&self) -> &[HostId] {
        &self.boundary
    }

    /// Whether `host` has at least one cross-shard link.
    pub fn is_boundary(&self, host: HostId) -> bool {
        self.boundary.binary_search(&host).is_ok()
    }

    /// The boundary hosts owned by one shard, ascending.
    pub fn boundary_of_shard(&self, shard: usize) -> impl Iterator<Item = HostId> + '_ {
        self.boundary
            .iter()
            .copied()
            .filter(move |&h| self.shard_of[h.index()] == shard)
    }

    /// Non-tombstoned members of one shard. Zero means the zone has
    /// drained: every member is a tombstone and the shard's engine can be
    /// retired (the shard slot itself stays — ids remain resolvable and the
    /// zone revives on the next [`ZonePartition::add_host`] naming it).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn live_members(&self, shard: usize) -> usize {
        self.live[shard]
    }

    /// Records a newly appended host (zone lifecycle, module docs): the
    /// host joins the shard owning `zone`, creating that shard on the spot
    /// when no shard owns the label yet. Returns the owning shard index and
    /// whether it was created by this call.
    ///
    /// Host ids are dense and append-only ([`crate::delta::NetworkDelta`]
    /// never reuses ids), so `host` must be the next unseen id.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not exactly the next host id.
    pub fn add_host(&mut self, host: HostId, zone: Option<&str>) -> (usize, bool) {
        assert_eq!(
            host.index(),
            self.shard_of.len(),
            "hosts are appended densely"
        );
        let (shard, created) = match self.shards.iter().position(|s| s.zone.as_deref() == zone) {
            Some(i) => (i, false),
            None => {
                self.shards.push(ZoneShard {
                    zone: zone.map(str::to_owned),
                    members: Vec::new(),
                });
                self.live.push(0);
                (self.shards.len() - 1, true)
            }
        };
        self.shards[shard].members.push(host);
        self.shard_of.push(shard);
        self.cross_count.push(0);
        self.live[shard] += 1;
        (shard, created)
    }

    /// Records a new link: a no-op for intra-shard links; a cross-shard
    /// link is inserted at its sorted position and *promotes* both
    /// endpoints' boundary status. O(cross links) worst case for the
    /// insertion, O(log) for the classification.
    pub fn add_link(&mut self, a: HostId, b: HostId) {
        if self.shard_of[a.index()] == self.shard_of[b.index()] {
            return;
        }
        let key = ordered(a, b);
        if let Err(pos) = self.cross_links.binary_search(&key) {
            self.cross_links.insert(pos, key);
            self.promote(a);
            self.promote(b);
        }
    }

    /// Records a removed link: the cross-shard case *demotes* an endpoint
    /// out of the boundary when this was its last cross link.
    pub fn remove_link(&mut self, a: HostId, b: HostId) {
        if self.shard_of[a.index()] == self.shard_of[b.index()] {
            return;
        }
        let key = ordered(a, b);
        if let Ok(pos) = self.cross_links.binary_search(&key) {
            self.cross_links.remove(pos);
            self.demote(a);
            self.demote(b);
        }
    }

    /// Records a tombstoned host: its cross links vanish with it (host
    /// removal drops all links), demoting peers that lose their last cross
    /// link, and its shard's live-member count drops. Returns the remaining
    /// live members of the owning shard — `0` signals the zone drained.
    pub fn remove_host(&mut self, host: HostId) -> usize {
        let shard = self.shard_of[host.index()];
        if self.cross_count[host.index()] > 0 {
            let incident: Vec<(HostId, HostId)> = self
                .cross_links
                .iter()
                .copied()
                .filter(|&(a, b)| a == host || b == host)
                .collect();
            for (a, b) in incident {
                let pos = self
                    .cross_links
                    .binary_search(&(a, b))
                    .expect("incident cross link is present");
                self.cross_links.remove(pos);
                self.demote(a);
                self.demote(b);
            }
        }
        self.live[shard] -= 1;
        self.live[shard]
    }

    fn promote(&mut self, h: HostId) {
        self.cross_count[h.index()] += 1;
        if self.cross_count[h.index()] == 1 {
            let pos = self
                .boundary
                .binary_search(&h)
                .expect_err("a zero-count host is not boundary");
            self.boundary.insert(pos, h);
        }
    }

    fn demote(&mut self, h: HostId) {
        self.cross_count[h.index()] -= 1;
        if self.cross_count[h.index()] == 0 {
            if let Ok(pos) = self.boundary.binary_search(&h) {
                self.boundary.remove(pos);
            }
        }
    }
}

/// One shard materialized as a standalone network: the induced subgraph on
/// the shard's member hosts, with dense local ids.
#[derive(Debug, Clone)]
pub struct ShardView {
    /// The extracted sub-network. Cross-shard links are *not* present — a
    /// shard-local model knows nothing about other shards; the caller
    /// accounts for cross-links separately (that is the boundary
    /// coordination problem).
    pub network: Network,
    /// Local host id → parent host id (index = local id).
    pub to_global: Vec<HostId>,
}

impl ShardView {
    /// The local id of a parent host, if it belongs to this shard.
    pub fn local_of(&self, global: HostId) -> Option<HostId> {
        self.to_global
            .iter()
            .position(|&g| g == global)
            .map(|i| HostId(i as u32))
    }
}

/// Extracts the induced sub-network on `members` (module docs): the listed
/// hosts keep their name, zone, services and tombstone flag under new dense
/// local ids, sharing the parent's host records until either side mutates
/// one; only links with *both* endpoints in `members` survive. The
/// extracted network starts at revision 0 with fresh per-host revisions —
/// it is a new network as far as downstream caches are concerned.
///
/// # Panics
///
/// Panics if a member id is out of range for `network`.
pub fn extract_shard(network: &Network, members: &[HostId]) -> ShardView {
    let mut to_local = vec![u32::MAX; network.host_count()];
    let mut hosts = Vec::with_capacity(members.len());
    for (local, &global) in members.iter().enumerate() {
        let host = network
            .record(global)
            .expect("shard member must exist in the parent network");
        to_local[global.index()] = local as u32;
        hosts.push(Arc::clone(host));
    }
    // Each induced link once, from its lower local endpoint.
    let mut links = Vec::new();
    for (la, &global) in members.iter().enumerate() {
        for &peer in network.neighbors(global) {
            let lb = to_local[peer.index()];
            if lb != u32::MAX && la < lb as usize {
                links.push((HostId(la as u32), HostId(lb)));
            }
        }
    }
    links.sort_unstable();
    let n = hosts.len();
    ShardView {
        network: Network::from_parts(hosts, links, 0, vec![0; n], 0, vec![0; n]),
        to_global: members.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::delta::NetworkDelta;
    use crate::network::NetworkBuilder;
    use crate::{ProductId, ServiceId};

    /// Two 3-host zones joined by one cross link (h2–h3), plus an unzoned
    /// straggler linked into zone B.
    fn fixture() -> (Network, Catalog, ServiceId, Vec<ProductId>) {
        let mut c = Catalog::new();
        let os = c.add_service("os");
        let ps = vec![
            c.add_product("p0", os).unwrap(),
            c.add_product("p1", os).unwrap(),
        ];
        let mut b = NetworkBuilder::new();
        for i in 0..3 {
            b.add_host_in_zone(&format!("a{i}"), "A");
        }
        for i in 0..3 {
            b.add_host_in_zone(&format!("b{i}"), "B");
        }
        b.add_host("stray");
        for h in 0..7 {
            b.add_service(HostId(h), os, ps.clone()).unwrap();
        }
        // Intra-zone lines.
        b.add_link(HostId(0), HostId(1)).unwrap();
        b.add_link(HostId(1), HostId(2)).unwrap();
        b.add_link(HostId(3), HostId(4)).unwrap();
        b.add_link(HostId(4), HostId(5)).unwrap();
        // Cross links: A↔B gateway and the stray into B.
        b.add_link(HostId(2), HostId(3)).unwrap();
        b.add_link(HostId(5), HostId(6)).unwrap();
        (b.build(&c).unwrap(), c, os, ps)
    }

    #[test]
    fn partition_groups_by_zone_and_classifies_links() {
        let (net, ..) = fixture();
        let p = partition_by_zone(&net);
        assert_eq!(p.shard_count(), 3);
        assert_eq!(p.shards()[0].zone.as_deref(), Some("A"));
        assert_eq!(p.shards()[1].zone.as_deref(), Some("B"));
        assert_eq!(p.shards()[2].zone, None);
        assert_eq!(p.shards()[2].zone_name(), "(unzoned)");
        assert_eq!(p.shards()[0].members, vec![HostId(0), HostId(1), HostId(2)]);
        assert_eq!(p.shard_of(HostId(4)), Some(1));
        assert_eq!(p.shard_of(HostId(9)), None);
        assert_eq!(p.shard_of_zone(Some("A")), Some(0));
        assert_eq!(p.shard_of_zone(None), Some(2));
        assert_eq!(p.shard_of_zone(Some("C")), None);
        assert_eq!(
            p.cross_links(),
            &[(HostId(2), HostId(3)), (HostId(5), HostId(6))]
        );
        assert_eq!(p.boundary(), &[HostId(2), HostId(3), HostId(5), HostId(6)]);
        assert_eq!(
            p.boundary_of_shard(1).collect::<Vec<_>>(),
            vec![HostId(3), HostId(5)]
        );
    }

    #[test]
    fn intra_zone_only_hosts_are_never_boundary() {
        let (net, ..) = fixture();
        let p = partition_by_zone(&net);
        for h in [0u32, 1, 4] {
            assert!(
                !p.is_boundary(HostId(h)),
                "host {h} has only intra-zone links"
            );
        }
    }

    #[test]
    fn cross_zone_link_promotes_and_demotes_both_endpoints() {
        let (mut net, c, ..) = fixture();
        // h0 (zone A) and h4 (zone B) start with intra-zone links only.
        assert!(!partition_by_zone(&net).is_boundary(HostId(0)));
        assert!(!partition_by_zone(&net).is_boundary(HostId(4)));

        net.apply_delta(&NetworkDelta::add_link(HostId(0), HostId(4)), &c)
            .unwrap();
        let promoted = partition_by_zone(&net);
        assert!(promoted.is_boundary(HostId(0)), "new cross link promotes a");
        assert!(promoted.is_boundary(HostId(4)), "new cross link promotes b");
        assert!(promoted.cross_links().contains(&(HostId(0), HostId(4))));

        net.apply_delta(&NetworkDelta::remove_link(HostId(0), HostId(4)), &c)
            .unwrap();
        let demoted = partition_by_zone(&net);
        assert!(!demoted.is_boundary(HostId(0)), "removal demotes a");
        assert!(!demoted.is_boundary(HostId(4)), "removal demotes b");
        assert_eq!(demoted, partition_by_zone(&fixture().0));
    }

    #[test]
    fn tombstoned_hosts_keep_their_shard_but_leave_the_boundary() {
        let (mut net, c, ..) = fixture();
        // h2 is a boundary host of zone A; removing it drops its links.
        net.apply_delta(&NetworkDelta::remove_host(HostId(2)), &c)
            .unwrap();
        let p = partition_by_zone(&net);
        assert_eq!(p.shard_of(HostId(2)), Some(0), "zone label survives");
        assert!(!p.is_boundary(HostId(2)), "no links, no boundary");
        assert!(
            !p.is_boundary(HostId(3)),
            "peer lost its only cross link too"
        );
        assert_eq!(p.cross_links(), &[(HostId(5), HostId(6))]);
    }

    #[test]
    fn incremental_maintenance_equals_scratch_recompute() {
        let (mut net, c, os, ps) = fixture();
        let mut p = partition_by_zone(&net);
        let deltas = [
            NetworkDelta::add_link(HostId(0), HostId(4)), // cross A↔B
            NetworkDelta::add_link(HostId(0), HostId(2)), // intra A
            NetworkDelta::AddHost {
                name: "c0".into(),
                zone: Some("C".into()),
                services: vec![(os, ps.clone())],
                links: vec![HostId(1), HostId(6)],
            },
            NetworkDelta::remove_link(HostId(0), HostId(4)),
            NetworkDelta::remove_host(HostId(2)), // boundary host of A
            NetworkDelta::AddHost {
                name: "n1".into(),
                zone: None,
                services: vec![(os, ps.clone())],
                links: vec![HostId(6)],
            },
        ];
        for delta in &deltas {
            net.apply_delta(delta, &c).unwrap();
            match delta {
                NetworkDelta::AddHost { zone, links, .. } => {
                    let id = HostId(net.host_count() as u32 - 1);
                    p.add_host(id, zone.as_deref());
                    for &peer in links {
                        p.add_link(id, peer);
                    }
                }
                NetworkDelta::AddLink { a, b } => p.add_link(*a, *b),
                NetworkDelta::RemoveLink { a, b } => p.remove_link(*a, *b),
                NetworkDelta::RemoveHost { host } => {
                    p.remove_host(*host);
                }
                _ => {}
            }
            assert_eq!(p, partition_by_zone(&net), "diverged after {delta}");
        }
    }

    #[test]
    fn add_host_creates_and_revives_zones() {
        let (mut net, c, os, ps) = fixture();
        let mut p = partition_by_zone(&net);
        assert_eq!(p.shard_count(), 3);
        assert_eq!(p.live_members(0), 3);

        // First host naming a fresh zone creates its shard.
        net.apply_delta(
            &NetworkDelta::AddHost {
                name: "d0".into(),
                zone: Some("D".into()),
                services: vec![(os, ps.clone())],
                links: vec![],
            },
            &c,
        )
        .unwrap();
        let (shard, created) = p.add_host(HostId(7), Some("D"));
        assert!(created);
        assert_eq!(shard, 3);
        assert_eq!(p.shard_of_zone(Some("D")), Some(3));
        assert_eq!(p.live_members(3), 1);

        // Draining the zone reports zero live members; the slot stays.
        net.apply_delta(&NetworkDelta::remove_host(HostId(7)), &c)
            .unwrap();
        assert_eq!(p.remove_host(HostId(7)), 0);
        assert_eq!(p.shard_count(), 4, "drained shards keep their slot");
        assert_eq!(p.shard_of(HostId(7)), Some(3));
        assert_eq!(p, partition_by_zone(&net));

        // A later host naming the zone revives it — no new shard.
        net.apply_delta(
            &NetworkDelta::AddHost {
                name: "d1".into(),
                zone: Some("D".into()),
                services: vec![(os, ps)],
                links: vec![],
            },
            &c,
        )
        .unwrap();
        let (shard, created) = p.add_host(HostId(8), Some("D"));
        assert!(!created, "drained zones revive in place");
        assert_eq!(shard, 3);
        assert_eq!(p.live_members(3), 1);
        assert_eq!(p, partition_by_zone(&net));
    }

    #[test]
    fn extraction_induces_the_subgraph_with_local_ids() {
        let (net, ..) = fixture();
        let p = partition_by_zone(&net);
        let view = extract_shard(&net, &p.shards()[1].members);
        assert_eq!(view.network.host_count(), 3);
        assert_eq!(view.to_global, vec![HostId(3), HostId(4), HostId(5)]);
        assert_eq!(view.local_of(HostId(4)), Some(HostId(1)));
        assert_eq!(view.local_of(HostId(0)), None);
        // Only the intra-zone B line survives; cross links are dropped.
        assert_eq!(
            view.network.links(),
            &[(HostId(0), HostId(1)), (HostId(1), HostId(2))]
        );
        assert_eq!(view.network.host(HostId(0)).unwrap().name(), "b0");
        assert_eq!(view.network.host(HostId(0)).unwrap().zone(), Some("B"));
        assert_eq!(view.network.revision(), 0);
        // The extracted network is a valid, evolvable network.
        for (id, _) in view.network.iter_hosts() {
            for &n in view.network.neighbors(id) {
                assert!(view.network.neighbors(n).contains(&id));
            }
        }
    }

    #[test]
    fn extraction_preserves_tombstones() {
        let (mut net, c, ..) = fixture();
        net.apply_delta(&NetworkDelta::remove_host(HostId(4)), &c)
            .unwrap();
        let p = partition_by_zone(&net);
        let view = extract_shard(&net, &p.shards()[1].members);
        assert_eq!(view.network.host_count(), 3, "tombstones keep their slot");
        assert!(view.network.host(HostId(1)).unwrap().is_removed());
        assert_eq!(view.network.active_host_count(), 2);
        assert_eq!(
            p.shards()[1].active_members(&net).collect::<Vec<_>>(),
            vec![HostId(3), HostId(5)]
        );
    }
}
