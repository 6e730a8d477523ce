//! Hosts, links and the network graph (paper Definition 2).
//!
//! A [`Network`] is an undirected graph of hosts. Every host runs a list of
//! *service instances*; each instance carries the host-specific candidate
//! product set `p(s)` from which exactly one product must be chosen. Hosts
//! with a single candidate per service model the paper's grey "legacy"
//! hosts that cannot be diversified.
//!
//! Networks are built through [`NetworkBuilder`] and validated at
//! [`NetworkBuilder::build`]; each host's neighbors are kept ascending in a
//! compressed (CSR) segment for cache-friendly traversal by the optimizer,
//! the Bayesian-network constructor and the simulator.
//!
//! A built network is *structurally stable* rather than frozen: a long-lived
//! service evolves it through validated [`crate::delta::NetworkDelta`]
//! mutations (applied via [`Network::apply_delta`]), which keep host ids
//! stable (removal tombstones a host instead of reindexing) and bump
//! per-host and network-wide revision counters so downstream caches can
//! rebuild only what a change actually touched.
//!
//! The storage is built for cheap staging on a clone: a copy-on-write
//! vector of 32-host chunks behind `Arc`, each holding its hosts' records,
//! their neighbor segments as one chunk-local CSR allocation and their two
//! revision counters — a one-level persistent vector updated by path
//! copying (Driscoll, Sarnak, Sleator & Tarjan, "Making Data Structures
//! Persistent", JCSS 1989), the layout [`crate::assignment::Assignment`]
//! uses too. A clone copies one pointer per chunk; an edit copies the one
//! chunk it touches, and only while a clone still shares it; host records
//! are shared copy-on-write as well, so a record no delta mutates stays
//! shared even inside a copied chunk. A link delta is a sorted insert or
//! removal in its two endpoints' segments, a host removal edits its own
//! and its peers' chunks, and a host addition appends to the last chunk.
//! Staging a burst on a clone, and dropping the network it replaces, thus
//! costs one pointer per chunk plus the chunks the burst touches, not
//! O(V + E). Segments stay ascending, so a staged network equals a
//! from-scratch build of the same hosts and links.
//!
//! [`Network::links`] is derived: it is materialised from the segments on
//! the first call after a link changed and shared by clones until the
//! next link change; a built or decoded network starts with it in hand.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

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

/// Hosts per chunk of a [`Network`]: the unit a clone shares and an edit
/// copies. Staging bursts of 8 random deltas on a clone of a 10,000-host
/// zoned network (~80,000 links) and committing it took a median of 35 µs
/// a burst at 16 hosts a chunk, 40 µs at 32, 49 µs at 64, 70 µs at 128 and
/// 102 µs at 256, against 787 µs for flat per-host arrays (400 bursts a
/// run, 3–8 runs a size, 2-vCPU Xeon VM). Smaller chunks copy less per
/// edit but give a clone, and the drop of the network a commit replaces,
/// more pointers to count, a part that grows with the host count; 32
/// stays within 5 µs of the best at this size and halves that part
/// against 16.
pub(crate) const CHUNK_HOSTS: usize = 32;

/// Up to [`CHUNK_HOSTS`] consecutive hosts: their records, their neighbor
/// segments and their revision counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Chunk {
    /// Host records, shared copy-on-write between chunk copies.
    hosts: Vec<Arc<Host>>,
    /// Chunk-local CSR adjacency: host `i`'s neighbors, ascending, are
    /// `neighbors[ends[i]..ends[i + 1]]`; `ends` starts at 0 and has one
    /// entry more than `hosts`.
    ends: Vec<u32>,
    neighbors: Vec<HostId>,
    /// Per host: the network revision at which its *model contribution*
    /// (services, candidate domains, existence) last changed. Link-only
    /// changes do not bump it.
    host_revisions: Vec<u64>,
    /// Per host: the network revision at which its link neighborhood last
    /// changed (a link added or removed at the host, including via
    /// `AddHost`/`RemoveHost`). The structural complement of
    /// `host_revisions`: together the two counters identify every host an
    /// un-hinted incremental refresh must re-derive.
    link_revisions: Vec<u64>,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk {
            hosts: Vec::new(),
            ends: vec![0],
            neighbors: Vec::new(),
            host_revisions: Vec::new(),
            link_revisions: Vec::new(),
        }
    }

    fn segment(&self, at: usize) -> &[HostId] {
        &self.neighbors[self.ends[at] as usize..self.ends[at + 1] as usize]
    }

    /// Inserts `peer` into host `at`'s segment at its sorted position.
    fn insert_neighbor(&mut self, at: usize, peer: HostId) {
        let pos = self.ends[at] as usize + self.segment(at).partition_point(|&n| n < peer);
        self.neighbors.insert(pos, peer);
        for end in &mut self.ends[at + 1..] {
            *end += 1;
        }
    }

    /// Removes `peer` from host `at`'s segment.
    fn remove_neighbor(&mut self, at: usize, peer: HostId) {
        let pos = self.ends[at] as usize
            + self
                .segment(at)
                .binary_search(&peer)
                .expect("segments mirror each other");
        self.neighbors.remove(pos);
        for end in &mut self.ends[at + 1..] {
            *end -= 1;
        }
    }

    /// Empties host `at`'s segment, returning its former neighbors.
    fn take_neighbors(&mut self, at: usize) -> Vec<HostId> {
        let (start, end) = (self.ends[at] as usize, self.ends[at + 1] as usize);
        let former: Vec<HostId> = self.neighbors.drain(start..end).collect();
        for e in &mut self.ends[at + 1..] {
            *e -= former.len() as u32;
        }
        former
    }
}

/// A validated network, evolvable through [`Network::apply_delta`].
#[derive(Clone, Serialize, Deserialize)]
pub struct Network {
    /// `host_count().div_ceil(CHUNK_HOSTS)` chunks, all full but the last,
    /// shared copy-on-write between clones (module docs).
    chunks: Vec<Arc<Chunk>>,
    /// Number of undirected links.
    link_count: usize,
    /// Total number of deltas ever applied.
    pub(crate) revision: u64,
    /// Number of structural (host/link) deltas ever applied. Stays put
    /// across slot-only churn, so a cache can tell "domains moved" from
    /// "the graph moved" without diffing the link list.
    pub(crate) topology_revision: u64,
    /// The ascending link list, derived from the segments on demand and
    /// dropped by every link edit.
    #[serde(skip)]
    links: OnceLock<Arc<[(HostId, HostId)]>>,
}

/// Equality of the logical content; the derived link list is not compared.
impl PartialEq for Network {
    fn eq(&self, other: &Network) -> bool {
        self.chunks == other.chunks
            && self.revision == other.revision
            && self.topology_revision == other.topology_revision
    }
}

/// The logical content; the derived link list is not shown.
impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("chunks", &self.chunks)
            .field("revision", &self.revision)
            .field("topology_revision", &self.topology_revision)
            .finish_non_exhaustive()
    }
}

impl Network {
    /// Assembles a network from its parts: `links` strictly ascending with
    /// `a < b` and in range, one revision of each kind per host. The link
    /// list is kept as the derived [`Network::links`].
    pub(crate) fn from_parts(
        hosts: Vec<Arc<Host>>,
        links: Vec<(HostId, HostId)>,
        revision: u64,
        host_revisions: Vec<u64>,
        topology_revision: u64,
        link_revisions: Vec<u64>,
    ) -> Network {
        let n = hosts.len();
        debug_assert!(host_revisions.len() == n && link_revisions.len() == n);
        debug_assert!(links.windows(2).all(|w| w[0] < w[1]));
        let mut degree = vec![0u32; n];
        for (a, b) in &links {
            degree[a.index()] += 1;
            degree[b.index()] += 1;
        }
        let mut hosts = hosts.into_iter();
        let mut chunks: Vec<Chunk> = (0..n)
            .step_by(CHUNK_HOSTS)
            .map(|lo| {
                let hi = (lo + CHUNK_HOSTS).min(n);
                let mut chunk = Chunk::new();
                for &d in &degree[lo..hi] {
                    chunk.ends.push(chunk.ends[chunk.ends.len() - 1] + d);
                }
                chunk.neighbors = vec![HostId(0); chunk.ends[hi - lo] as usize];
                chunk.hosts = hosts.by_ref().take(hi - lo).collect();
                chunk.host_revisions = host_revisions[lo..hi].to_vec();
                chunk.link_revisions = link_revisions[lo..hi].to_vec();
                chunk
            })
            .collect();
        // Sorted links fill every segment in ascending order: a host's lower
        // peers arrive (as `a`) before its own block of higher ones.
        let mut cursor: Vec<u32> = chunks
            .iter()
            .flat_map(|c| c.ends[..c.hosts.len()].iter().copied())
            .collect();
        for &(a, b) in &links {
            for (host, peer) in [(a, b), (b, a)] {
                let i = host.index();
                chunks[i / CHUNK_HOSTS].neighbors[cursor[i] as usize] = peer;
                cursor[i] += 1;
            }
        }
        Network {
            chunks: chunks.into_iter().map(Arc::new).collect(),
            link_count: links.len(),
            revision,
            topology_revision,
            links: OnceLock::from(Arc::from(links)),
        }
    }

    /// Number of hosts ever added, including removed (tombstoned) ones.
    pub fn host_count(&self) -> usize {
        self.chunks.last().map_or(0, |last| {
            (self.chunks.len() - 1) * CHUNK_HOSTS + last.hosts.len()
        })
    }

    /// Number of hosts that are not removed.
    pub fn active_host_count(&self) -> usize {
        self.iter_hosts().filter(|(_, h)| !h.removed).count()
    }

    /// The number of deltas applied to this network since it was built.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The chunk holding `id` and the host's place in it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    fn locate(&self, id: HostId) -> (&Chunk, usize) {
        let i = id.index();
        assert!(i < self.host_count(), "host id out of range");
        (&self.chunks[i / CHUNK_HOSTS], i % CHUNK_HOSTS)
    }

    /// [`Network::locate`] for an edit: copies the chunk first if a clone
    /// still shares it (module docs).
    fn locate_mut(&mut self, id: HostId) -> (&mut Chunk, usize) {
        let i = id.index();
        assert!(i < self.host_count(), "host id out of range");
        (
            Arc::make_mut(&mut self.chunks[i / CHUNK_HOSTS]),
            i % CHUNK_HOSTS,
        )
    }

    /// The network revision at which `id`'s services or candidate domains
    /// last changed (0 for untouched hosts).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn host_revision(&self, id: HostId) -> u64 {
        let (chunk, at) = self.locate(id);
        chunk.host_revisions[at]
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
        let (chunk, at) = self.locate(id);
        chunk.link_revisions[at]
    }

    /// The shared record of `id`, if it exists.
    pub(crate) fn record(&self, id: HostId) -> Option<&Arc<Host>> {
        let i = id.index();
        self.chunks.get(i / CHUNK_HOSTS)?.hosts.get(i % CHUNK_HOSTS)
    }

    /// The record of `id` for mutation, copied first if a clone still
    /// shares it; stamps the host's revision with the current network
    /// revision.
    pub(crate) fn host_mut(&mut self, id: HostId) -> &mut Host {
        let revision = self.revision;
        let (chunk, at) = self.locate_mut(id);
        chunk.host_revisions[at] = revision;
        Arc::make_mut(&mut chunk.hosts[at])
    }

    /// Appends `host`, linkless, with both its revisions at the current
    /// network revision.
    pub(crate) fn push_host(&mut self, host: Host) {
        if self
            .chunks
            .last()
            .is_none_or(|last| last.hosts.len() == CHUNK_HOSTS)
        {
            self.chunks.push(Arc::new(Chunk::new()));
        }
        let chunk = Arc::make_mut(self.chunks.last_mut().expect("a chunk with room"));
        chunk.hosts.push(Arc::new(host));
        chunk.ends.push(chunk.neighbors.len() as u32);
        chunk.host_revisions.push(self.revision);
        chunk.link_revisions.push(self.revision);
    }

    /// Adds the (absent) `a`–`b` link to both segments and stamps both
    /// endpoints' link revisions.
    pub(crate) fn link(&mut self, a: HostId, b: HostId) {
        debug_assert!(!self.linked(a, b), "link {a}-{b} already exists");
        let revision = self.revision;
        for (host, peer) in [(a, b), (b, a)] {
            let (chunk, at) = self.locate_mut(host);
            chunk.insert_neighbor(at, peer);
            chunk.link_revisions[at] = revision;
        }
        self.link_count += 1;
        self.links.take();
    }

    /// Removes the (existing) `a`–`b` link from both segments and stamps
    /// both endpoints' link revisions.
    pub(crate) fn unlink(&mut self, a: HostId, b: HostId) {
        let revision = self.revision;
        for (host, peer) in [(a, b), (b, a)] {
            let (chunk, at) = self.locate_mut(host);
            chunk.remove_neighbor(at, peer);
            chunk.link_revisions[at] = revision;
        }
        self.link_count -= 1;
        self.links.take();
    }

    /// Drops every link of `host`, stamps its and its former peers' link
    /// revisions, and returns the former peers.
    pub(crate) fn detach(&mut self, host: HostId) -> Vec<HostId> {
        let revision = self.revision;
        let (chunk, at) = self.locate_mut(host);
        let former = chunk.take_neighbors(at);
        chunk.link_revisions[at] = revision;
        for &peer in &former {
            let (chunk, at) = self.locate_mut(peer);
            chunk.remove_neighbor(at, host);
            chunk.link_revisions[at] = revision;
        }
        if !former.is_empty() {
            self.link_count -= former.len();
            self.links.take();
        }
        former
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// Looks up a host.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownHost`] for out-of-range ids.
    pub fn host(&self, id: HostId) -> Result<&Host> {
        self.record(id).map(|h| &**h).ok_or(Error::UnknownHost(id))
    }

    /// Finds a host id by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        self.iter_hosts()
            .find(|(_, h)| h.name == name)
            .map(|(id, _)| id)
    }

    /// Iterates over `(id, host)` pairs.
    pub fn iter_hosts(&self) -> impl Iterator<Item = (HostId, &Host)> {
        self.chunks
            .iter()
            .flat_map(|chunk| &chunk.hosts)
            .enumerate()
            .map(|(i, h)| (HostId(i as u32), &**h))
    }

    /// The undirected links, each reported once with `a < b`, ascending.
    /// Derived from the neighbor segments on the first call after a link
    /// changed (module docs).
    pub fn links(&self) -> &[(HostId, HostId)] {
        self.links.get_or_init(|| {
            let mut links = Vec::with_capacity(self.link_count);
            links.extend(self.link_pairs());
            links.into()
        })
    }

    /// The links in [`Network::links`]' order, walked off the segments.
    pub(crate) fn link_pairs(&self) -> impl Iterator<Item = (HostId, HostId)> + '_ {
        (0..self.host_count() as u32)
            .map(HostId)
            .flat_map(move |a| {
                let peers = self.neighbors(a);
                peers[peers.partition_point(|&b| b < a)..]
                    .iter()
                    .map(move |&b| (a, b))
            })
    }

    /// The neighbors of a host, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn neighbors(&self, id: HostId) -> &[HostId] {
        let (chunk, at) = self.locate(id);
        chunk.segment(at)
    }

    /// The degree of a host.
    pub fn degree(&self, id: HostId) -> usize {
        self.neighbors(id).len()
    }

    /// Mean degree over all hosts (0 for an empty network).
    pub fn mean_degree(&self) -> f64 {
        match self.host_count() {
            0 => 0.0,
            n => 2.0 * self.link_count as f64 / n as f64,
        }
    }

    /// Total number of (host, service) decision slots.
    pub fn slot_count(&self) -> usize {
        self.iter_hosts().map(|(_, h)| h.services.len()).sum()
    }

    /// Whether `a` and `b` are directly linked.
    pub fn linked(&self, a: HostId, b: HostId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Hosts reachable from `start` (including `start`), by BFS. Used by the
    /// attack-BN construction and as a sanity check on generated topologies.
    pub fn reachable_from(&self, start: HostId) -> Vec<HostId> {
        let mut seen = vec![false; self.host_count()];
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

#[cfg(test)]
impl Network {
    /// Whether `id`'s chunk, and its record, are the very allocations
    /// `other` holds for it.
    pub(crate) fn sharing(&self, other: &Network, id: HostId) -> (bool, bool) {
        let ((mine, at), (theirs, _)) = (self.locate(id), other.locate(id));
        (
            std::ptr::eq(mine, theirs),
            Arc::ptr_eq(&mine.hosts[at], &theirs.hosts[at]),
        )
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
        // The link set iterates sorted and deduplicated.
        let n = self.hosts.len();
        Ok(Network::from_parts(
            self.hosts.into_iter().map(Arc::new).collect(),
            self.links.into_iter().collect(),
            0,
            vec![0; n],
            0,
            vec![0; n],
        ))
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
