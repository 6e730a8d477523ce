//! Hosts, links and the network graph (paper Definition 2).
//!
//! A [`Network`] is an undirected graph of hosts. Every host runs a list of
//! *service instances*; each instance carries the host-specific candidate
//! product set `p(s)` from which exactly one product must be chosen. Hosts
//! with a single candidate per service model the paper's grey "legacy"
//! hosts that cannot be diversified.
//!
//! Networks are built through [`NetworkBuilder`] and validated at
//! [`NetworkBuilder::build`]; adjacency is stored in CSR form for
//! cache-friendly traversal by the optimizer, the Bayesian-network
//! constructor and the simulator.
//!
//! A built network is *structurally stable* rather than frozen: a long-lived
//! service evolves it through validated [`crate::delta::NetworkDelta`]
//! mutations (applied via [`Network::apply_delta`]), which keep host ids
//! stable (removal tombstones a host instead of reindexing) and bump
//! per-host and network-wide revision counters so downstream caches can
//! rebuild only what a change actually touched.
//!
//! Both representations are built for cheap staging on a clone. Host
//! records are shared copy-on-write: a clone copies one pointer per host,
//! and a delta copies only the records it mutates, so a staged clone, its
//! original and any shard extracted from either share every untouched
//! host. Structural deltas edit the CSR arrays in place (a binary-search
//! insert or removal in the affected segments, then a shift of the later
//! offsets; a host removal compacts all its entries in one pass). Segments
//! stay ascending, so the arrays equal a from-scratch rebuild. Staging a
//! burst thus costs O(touched hosts) record copies plus memmoves of the
//! flat link, offset and neighbor arrays, not O(V + E) allocations.

use std::collections::BTreeSet;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::catalog::Catalog;
use crate::{Error, HostId, ProductId, Result, ServiceId};

/// One service instance at a host: the service and its candidate products.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceInstance {
    pub(crate) service: ServiceId,
    pub(crate) candidates: Vec<ProductId>,
}

impl ServiceInstance {
    /// The service provided.
    pub fn service(&self) -> ServiceId {
        self.service
    }

    /// The candidate products this host may choose from (non-empty).
    pub fn candidates(&self) -> &[ProductId] {
        &self.candidates
    }

    /// Whether the host has no diversification freedom for this service.
    pub fn is_fixed(&self) -> bool {
        self.candidates.len() == 1
    }
}

/// A host: name, optional zone label and its service instances.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Host {
    pub(crate) name: String,
    pub(crate) zone: Option<String>,
    pub(crate) services: Vec<ServiceInstance>,
    /// Tombstone flag: removed hosts keep their id (so downstream indexing
    /// stays valid) but carry no services and no links.
    pub(crate) removed: bool,
}

impl Host {
    /// The host name (e.g. `"c1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The zone label, if any (e.g. `"Corporate"`).
    pub fn zone(&self) -> Option<&str> {
        self.zone.as_deref()
    }

    /// The service instances running at this host, in declaration order.
    pub fn services(&self) -> &[ServiceInstance] {
        &self.services
    }

    /// The position of `service` in this host's service list.
    pub fn service_slot(&self, service: ServiceId) -> Option<usize> {
        self.services.iter().position(|s| s.service == service)
    }

    /// The candidate products for `service` at this host, if the host runs it.
    pub fn candidates_for(&self, service: ServiceId) -> Option<&[ProductId]> {
        self.service_slot(service)
            .map(|i| self.services[i].candidates())
    }

    /// Whether the host was removed by a [`crate::delta::NetworkDelta`].
    /// Removed hosts keep their id but run no services and have no links.
    pub fn is_removed(&self) -> bool {
        self.removed
    }
}

/// A validated network, evolvable through [`Network::apply_delta`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    /// Host records, shared copy-on-write between clones (module docs).
    pub(crate) hosts: Vec<Arc<Host>>,
    /// Undirected links, kept sorted with `a < b`.
    pub(crate) links: Vec<(HostId, HostId)>,
    // CSR adjacency: host `i`'s neighbors, ascending, are
    // `neighbors[offsets[i]..offsets[i + 1]]`.
    pub(crate) offsets: Vec<u32>,
    pub(crate) neighbors: Vec<HostId>,
    /// Total number of deltas ever applied.
    pub(crate) revision: u64,
    /// Per-host revision: the network revision at which the host's *model
    /// contribution* (services, candidate domains, existence) last changed.
    /// Link-only changes do not bump it.
    pub(crate) host_revisions: Vec<u64>,
    /// Number of structural (host/link) deltas ever applied. Stays put
    /// across slot-only churn, so a cache can tell "domains moved" from
    /// "the graph moved" without diffing the link list.
    pub(crate) topology_revision: u64,
    /// Per-host *incidence* revision: the network revision at which the
    /// host's link neighborhood last changed (a link added or removed at
    /// the host, including via `AddHost`/`RemoveHost`). The structural
    /// complement of `host_revisions`: together the two counters identify
    /// every host an un-hinted incremental refresh must re-derive.
    pub(crate) link_revisions: Vec<u64>,
}

impl Network {
    /// Number of hosts ever added, including removed (tombstoned) ones.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of hosts that are not removed.
    pub fn active_host_count(&self) -> usize {
        self.hosts.iter().filter(|h| !h.removed).count()
    }

    /// The number of deltas applied to this network since it was built.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The network revision at which `id`'s services or candidate domains
    /// last changed (0 for untouched hosts).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn host_revision(&self, id: HostId) -> u64 {
        self.host_revisions[id.index()]
    }

    /// The number of *structural* deltas (host or link mutations) applied
    /// since the network was built. Slot deltas leave it untouched, so
    /// `topology_revision` moving is exactly the "graph changed" signal
    /// the [`DeltaEffect::topology_changed`](crate::delta::DeltaEffect)
    /// flag gives per delta, available after the fact.
    pub fn topology_revision(&self) -> u64 {
        self.topology_revision
    }

    /// The network revision at which `id`'s link neighborhood last changed
    /// (0 for hosts whose incident links never moved).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link_revision(&self, id: HostId) -> u64 {
        self.link_revisions[id.index()]
    }

    /// Builds the CSR adjacency from `self.links` (construction only;
    /// deltas edit it in place). Sorted links give ascending segments.
    pub(crate) fn rebuild_adjacency(&mut self) {
        let n = self.hosts.len();
        let mut degree = vec![0u32; n];
        for (a, b) in &self.links {
            degree[a.index()] += 1;
            degree[b.index()] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut neighbors = vec![HostId(0); offsets[n] as usize];
        let mut cursor = offsets[..n].to_vec();
        for &(a, b) in &self.links {
            neighbors[cursor[a.index()] as usize] = b;
            cursor[a.index()] += 1;
            neighbors[cursor[b.index()] as usize] = a;
            cursor[b.index()] += 1;
        }
        self.offsets = offsets;
        self.neighbors = neighbors;
    }

    /// Inserts `peer` into `host`'s CSR segment at its sorted position.
    fn adjacency_insert(&mut self, host: HostId, peer: HostId) {
        let at = self.offsets[host.index()] as usize
            + self.neighbors(host).partition_point(|&n| n < peer);
        self.neighbors.insert(at, peer);
        for offset in &mut self.offsets[host.index() + 1..] {
            *offset += 1;
        }
    }

    /// Removes `peer` from `host`'s CSR segment.
    fn adjacency_remove(&mut self, host: HostId, peer: HostId) {
        let at = self.offsets[host.index()] as usize
            + self
                .neighbors(host)
                .binary_search(&peer)
                .expect("CSR segments mirror the link list");
        self.neighbors.remove(at);
        for offset in &mut self.offsets[host.index() + 1..] {
            *offset -= 1;
        }
    }

    /// Adds the `a`–`b` link to the link list and both CSR segments.
    pub(crate) fn link(&mut self, a: HostId, b: HostId) {
        let key = if a < b { (a, b) } else { (b, a) };
        if let Err(pos) = self.links.binary_search(&key) {
            self.links.insert(pos, key);
            self.adjacency_insert(a, b);
            self.adjacency_insert(b, a);
        }
    }

    /// Removes the `a`–`b` link, found at `pos` in the link list, from the
    /// list and both CSR segments.
    pub(crate) fn unlink(&mut self, pos: usize, a: HostId, b: HostId) {
        self.links.remove(pos);
        self.adjacency_remove(a, b);
        self.adjacency_remove(b, a);
    }

    /// Drops every link of `host`: from the link list, from its peers'
    /// CSR segments and its own, compacting the later segments in one pass.
    pub(crate) fn detach(&mut self, host: HostId) {
        self.links.retain(|&(a, b)| a != host && b != host);
        let n = self.hosts.len();
        // Segments below both `host` and its lowest peer are untouched.
        let first = self.neighbors(host).first().map_or(host, |&p| p.min(host));
        let mut write = self.offsets[first.index()] as usize;
        for i in first.index()..n {
            let (start, end) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
            self.offsets[i] = write as u32;
            if i == host.index() {
                continue;
            }
            for read in start..end {
                let peer = self.neighbors[read];
                if peer != host {
                    self.neighbors[write] = peer;
                    write += 1;
                }
            }
        }
        self.offsets[n] = write as u32;
        self.neighbors.truncate(write);
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Looks up a host.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownHost`] for out-of-range ids.
    pub fn host(&self, id: HostId) -> Result<&Host> {
        self.hosts
            .get(id.index())
            .map(|h| &**h)
            .ok_or(Error::UnknownHost(id))
    }

    /// Finds a host id by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.hosts
            .iter()
            .position(|h| h.name == name)
            .map(|i| HostId(i as u32))
    }

    /// Iterates over `(id, host)` pairs.
    pub fn iter_hosts(&self) -> impl Iterator<Item = (HostId, &Host)> {
        self.hosts
            .iter()
            .enumerate()
            .map(|(i, h)| (HostId(i as u32), &**h))
    }

    /// The undirected links, each reported once with `a < b`.
    pub fn links(&self) -> &[(HostId, HostId)] {
        &self.links
    }

    /// The neighbors of a host.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn neighbors(&self, id: HostId) -> &[HostId] {
        let i = id.index();
        assert!(i < self.hosts.len(), "host id out of range");
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The degree of a host.
    pub fn degree(&self, id: HostId) -> usize {
        self.neighbors(id).len()
    }

    /// Mean degree over all hosts (0 for an empty network).
    pub fn mean_degree(&self) -> f64 {
        if self.hosts.is_empty() {
            0.0
        } else {
            2.0 * self.links.len() as f64 / self.hosts.len() as f64
        }
    }

    /// Total number of (host, service) decision slots.
    pub fn slot_count(&self) -> usize {
        self.hosts.iter().map(|h| h.services.len()).sum()
    }

    /// Whether `a` and `b` are directly linked.
    pub fn linked(&self, a: HostId, b: HostId) -> bool {
        self.neighbors(a).contains(&b)
    }

    /// Hosts reachable from `start` (including `start`), by BFS. Used by the
    /// attack-BN construction and as a sanity check on generated topologies.
    pub fn reachable_from(&self, start: HostId) -> Vec<HostId> {
        let mut seen = vec![false; self.hosts.len()];
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start.index()] = true;
        let mut out = Vec::new();
        while let Some(h) = queue.pop_front() {
            out.push(h);
            for &n in self.neighbors(h) {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    queue.push_back(n);
                }
            }
        }
        out
    }
}

/// Incremental builder for [`Network`].
#[derive(Debug, Clone, Default)]
pub struct NetworkBuilder {
    hosts: Vec<Host>,
    links: BTreeSet<(HostId, HostId)>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> NetworkBuilder {
        NetworkBuilder::default()
    }

    /// Adds a host and returns its id.
    pub fn add_host(&mut self, name: &str) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(Host {
            name: name.to_owned(),
            zone: None,
            services: Vec::new(),
            removed: false,
        });
        id
    }

    /// Adds a host with a zone label and returns its id.
    pub fn add_host_in_zone(&mut self, name: &str, zone: &str) -> HostId {
        let id = self.add_host(name);
        self.hosts[id.index()].zone = Some(zone.to_owned());
        id
    }

    /// Declares that `host` runs `service`, choosing among `candidates`.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownHost`] — `host` was not added to this builder.
    /// * [`Error::EmptyCandidates`] — `candidates` is empty.
    /// * [`Error::DuplicateService`] — the host already runs `service`.
    pub fn add_service(
        &mut self,
        host: HostId,
        service: ServiceId,
        candidates: Vec<ProductId>,
    ) -> Result<()> {
        let h = self
            .hosts
            .get_mut(host.index())
            .ok_or(Error::UnknownHost(host))?;
        if candidates.is_empty() {
            return Err(Error::EmptyCandidates { host, service });
        }
        if h.services.iter().any(|s| s.service == service) {
            return Err(Error::DuplicateService { host, service });
        }
        h.services.push(ServiceInstance {
            service,
            candidates,
        });
        Ok(())
    }

    /// Adds an undirected link.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownHost`] — an endpoint was not added to this builder.
    /// * [`Error::SelfLoop`] — `a == b`.
    /// * [`Error::DuplicateLink`] — the link already exists.
    pub fn add_link(&mut self, a: HostId, b: HostId) -> Result<()> {
        if a.index() >= self.hosts.len() {
            return Err(Error::UnknownHost(a));
        }
        if b.index() >= self.hosts.len() {
            return Err(Error::UnknownHost(b));
        }
        if a == b {
            return Err(Error::SelfLoop(a));
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if !self.links.insert(key) {
            return Err(Error::DuplicateLink(key.0, key.1));
        }
        Ok(())
    }

    /// Number of hosts added so far.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Validates against `catalog` and freezes the network.
    ///
    /// # Errors
    ///
    /// * [`Error::UnknownService`] / [`Error::UnknownProduct`] — a service
    ///   instance references ids outside the catalog.
    /// * [`Error::ServiceMismatch`] — a candidate product does not provide
    ///   the service it was registered under.
    pub fn build(self, catalog: &Catalog) -> Result<Network> {
        for (i, host) in self.hosts.iter().enumerate() {
            let host_id = HostId(i as u32);
            for inst in &host.services {
                catalog.service(inst.service)?;
                for &p in &inst.candidates {
                    let product = catalog.product(p)?;
                    if product.service() != inst.service {
                        return Err(Error::ServiceMismatch {
                            product: p,
                            provides: product.service(),
                            requested: inst.service,
                        });
                    }
                }
                let _ = host_id; // errors above carry product/service context
            }
        }
        // CSR adjacency from the deduplicated (sorted) link set.
        let n = self.hosts.len();
        let mut network = Network {
            hosts: self.hosts.into_iter().map(Arc::new).collect(),
            links: self.links.into_iter().collect(),
            offsets: Vec::new(),
            neighbors: Vec::new(),
            revision: 0,
            host_revisions: vec![0; n],
            topology_revision: 0,
            link_revisions: vec![0; n],
        };
        network.rebuild_adjacency();
        Ok(network)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> (Catalog, ServiceId, Vec<ProductId>) {
        let mut c = Catalog::new();
        let s = c.add_service("svc");
        let p0 = c.add_product("p0", s).unwrap();
        let p1 = c.add_product("p1", s).unwrap();
        (c, s, vec![p0, p1])
    }

    fn line_network(n: usize) -> (Network, Catalog) {
        let (c, s, ps) = catalog();
        let mut b = NetworkBuilder::new();
        let hosts: Vec<HostId> = (0..n).map(|i| b.add_host(&format!("h{i}"))).collect();
        for &h in &hosts {
            b.add_service(h, s, ps.clone()).unwrap();
        }
        for w in hosts.windows(2) {
            b.add_link(w[0], w[1]).unwrap();
        }
        (b.build(&c).unwrap(), c)
    }

    #[test]
    fn build_line() {
        let (net, _) = line_network(4);
        assert_eq!(net.host_count(), 4);
        assert_eq!(net.link_count(), 3);
        assert_eq!(net.degree(HostId(0)), 1);
        assert_eq!(net.degree(HostId(1)), 2);
        assert!(net.linked(HostId(0), HostId(1)));
        assert!(!net.linked(HostId(0), HostId(2)));
        assert_eq!(net.mean_degree(), 1.5);
        assert_eq!(net.slot_count(), 4);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let (net, _) = line_network(5);
        for (id, _) in net.iter_hosts() {
            for &n in net.neighbors(id) {
                assert!(net.neighbors(n).contains(&id));
            }
        }
    }

    #[test]
    fn self_loop_rejected() {
        let (c, s, ps) = catalog();
        let mut b = NetworkBuilder::new();
        let h = b.add_host("h");
        b.add_service(h, s, ps).unwrap();
        assert!(matches!(b.add_link(h, h), Err(Error::SelfLoop(_))));
        let _ = c;
    }

    #[test]
    fn duplicate_link_rejected_in_both_directions() {
        let (_, _, _) = catalog();
        let mut b = NetworkBuilder::new();
        let a = b.add_host("a");
        let z = b.add_host("z");
        b.add_link(a, z).unwrap();
        assert!(matches!(b.add_link(z, a), Err(Error::DuplicateLink(..))));
    }

    #[test]
    fn unknown_host_in_link() {
        let mut b = NetworkBuilder::new();
        let a = b.add_host("a");
        assert!(matches!(
            b.add_link(a, HostId(9)),
            Err(Error::UnknownHost(_))
        ));
    }

    #[test]
    fn empty_candidates_rejected() {
        let (_, s, _) = catalog();
        let mut b = NetworkBuilder::new();
        let h = b.add_host("h");
        assert!(matches!(
            b.add_service(h, s, vec![]),
            Err(Error::EmptyCandidates { .. })
        ));
    }

    #[test]
    fn duplicate_service_rejected() {
        let (_, s, ps) = catalog();
        let mut b = NetworkBuilder::new();
        let h = b.add_host("h");
        b.add_service(h, s, ps.clone()).unwrap();
        assert!(matches!(
            b.add_service(h, s, ps),
            Err(Error::DuplicateService { .. })
        ));
    }

    #[test]
    fn build_validates_product_service_binding() {
        let mut c = Catalog::new();
        let s1 = c.add_service("s1");
        let s2 = c.add_service("s2");
        let p = c.add_product("p", s1).unwrap();
        let mut b = NetworkBuilder::new();
        let h = b.add_host("h");
        b.add_service(h, s2, vec![p]).unwrap();
        assert!(matches!(b.build(&c), Err(Error::ServiceMismatch { .. })));
    }

    #[test]
    fn build_validates_catalog_membership() {
        let (c, _, _) = catalog();
        let mut b = NetworkBuilder::new();
        let h = b.add_host("h");
        b.add_service(h, ServiceId(5), vec![ProductId(0)]).unwrap();
        assert!(matches!(b.build(&c), Err(Error::UnknownService(_))));
    }

    #[test]
    fn zones_and_name_lookup() {
        let (c, s, ps) = catalog();
        let mut b = NetworkBuilder::new();
        let h = b.add_host_in_zone("scada1", "Control");
        b.add_service(h, s, ps).unwrap();
        let net = b.build(&c).unwrap();
        assert_eq!(net.host_by_name("scada1"), Some(h));
        assert_eq!(net.host_by_name("nope"), None);
        assert_eq!(net.host(h).unwrap().zone(), Some("Control"));
    }

    #[test]
    fn fixed_service_detection() {
        let (c, s, ps) = catalog();
        let mut b = NetworkBuilder::new();
        let h = b.add_host("legacy");
        b.add_service(h, s, vec![ps[0]]).unwrap();
        let net = b.build(&c).unwrap();
        assert!(net.host(h).unwrap().services()[0].is_fixed());
        assert_eq!(net.host(h).unwrap().candidates_for(s), Some(&ps[..1]));
    }

    #[test]
    fn reachability() {
        let (net, _) = line_network(4);
        assert_eq!(net.reachable_from(HostId(0)).len(), 4);
        // Disconnected host.
        let (c, s, ps) = catalog();
        let mut b = NetworkBuilder::new();
        let a = b.add_host("a");
        let z = b.add_host("z");
        b.add_service(a, s, ps.clone()).unwrap();
        b.add_service(z, s, ps).unwrap();
        let net = b.build(&c).unwrap();
        assert_eq!(net.reachable_from(a), vec![a]);
    }
}
