//! Workload instances and burst streams.
//!
//! Everything a run feeds the engine is generated here from the run's seed
//! before any timing starts, so the engine receives only finished bursts
//! and every run of one seed does identical work. Each stream is drawn
//! against a shadow copy of the network that every drawn delta is applied
//! to, so each delta is valid for the state its predecessors leave.

use netmodel::catalog::Catalog;
use netmodel::delta::NetworkDelta;
use netmodel::network::Network;
use netmodel::topology::{
    generate, generate_zoned, GeneratedNetwork, RandomNetworkConfig, TopologyKind,
    ZonedNetworkConfig,
};
use netmodel::HostId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mean burst size: bursts are Poisson(8), at least one delta.
pub const MEAN_BURST: f64 = 8.0;

/// Kinds of delta a stream draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    AddLink,
    RemoveLink,
    FixSlot,
    UnfixSlot,
    AddHost,
    RemoveHost,
}

/// The zone stream's mix: the weights of `netmodel::delta::random_delta`,
/// the repository's churn model (out of its 12: link add 3, link remove 2,
/// fix 2, unfix 2, candidate extension 1, host remove 1, host add 1),
/// without candidate extension.
const ZONE_MIX: [(Kind, u32); 6] = [
    (Kind::AddLink, 3),
    (Kind::RemoveLink, 2),
    (Kind::FixSlot, 2),
    (Kind::UnfixSlot, 2),
    (Kind::AddHost, 1),
    (Kind::RemoveHost, 1),
];

/// Share of its slots the slot-only stream keeps fixed: about the share
/// the zone stream's fixes leave at the end of a `journal-10k` run (2.3%).
/// Drawn at `random_delta`'s equal fix and unfix weights, a slot-only
/// stream as long as `reads-960`'s instead fixes half its slots, and its
/// final similarity then moved by 15% between seeds.
pub const SLOT_FIXED_SHARE: f64 = 0.02;

/// Draws per kind before the kind is drawn again, as in `random_delta`.
const TRIES: usize = 8;

/// Salt separating the stream's random draws from the instance's.
const STREAM_SALT: u64 = 0x5EED_0FB0_A575_ED00;

/// A zoned instance of `zones` zones of `hosts_per_zone` hosts, in the
/// shape of `benches/sharded.rs`: mean degree 16, 2 gateway links per
/// adjacent zone pair, 4 services × 4 products.
pub fn zoned_instance(zones: usize, hosts_per_zone: usize, seed: u64) -> GeneratedNetwork {
    generate_zoned(
        &ZonedNetworkConfig {
            zones,
            hosts_per_zone,
            gateway_links: 2,
            mean_degree: 16,
            services: 4,
            products_per_service: 4,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        seed,
    )
}

/// An unzoned random instance of `hosts` hosts, mean degree 8, 4×4 products.
pub fn random_instance(hosts: usize, seed: u64) -> GeneratedNetwork {
    generate(
        &RandomNetworkConfig {
            hosts,
            mean_degree: 8,
            services: 4,
            products_per_service: 4,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        seed,
    )
}

/// A generated burst stream plus the network it leaves behind.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The bursts, in submission order.
    pub bursts: Vec<Vec<NetworkDelta>>,
    /// The shadow network after every burst was applied: what the engine's
    /// network must equal after absorbing the whole stream.
    pub final_network: Network,
}

impl Stream {
    /// Total deltas across all bursts.
    pub fn delta_count(&self) -> usize {
        self.bursts.iter().map(Vec::len).sum()
    }
}

/// Poisson(`mean`) by inversion of the running product, at least 1.
fn burst_size(rng: &mut StdRng, mean: f64) -> usize {
    let limit = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= limit {
            break;
        }
        k += 1;
    }
    k.max(1)
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

fn draw_kind(rng: &mut StdRng, mix: &[(Kind, u32)]) -> Kind {
    let total: u32 = mix.iter().map(|&(_, w)| w).sum();
    let mut r = rng.gen_range(0..total);
    for &(kind, weight) in mix {
        if r < weight {
            return kind;
        }
        r -= weight;
    }
    unreachable!("r is below the total weight")
}

/// Zone index of every host, parsed from the `"zone{z}"` labels
/// `generate_zoned` writes.
fn zone_indices(network: &Network) -> Vec<usize> {
    network
        .iter_hosts()
        .map(|(_, h)| {
            h.zone()
                .and_then(|z| z.strip_prefix("zone"))
                .and_then(|z| z.parse().ok())
                .expect("zoned instances label every host zone{z}")
        })
        .collect()
}

/// Hosts with at least one cross-zone link: the gateways, never removed.
pub fn gateway_hosts(network: &Network) -> Vec<bool> {
    let zone = zone_indices(network);
    let mut gateway = vec![false; network.host_count()];
    for &(a, b) in network.links() {
        if zone[a.index()] != zone[b.index()] {
            gateway[a.index()] = true;
            gateway[b.index()] = true;
        }
    }
    gateway
}

/// Generator state shared by both streams: the shadow network plus the
/// live hosts of each group (a zone, or the whole network for the
/// slot-only stream). Each kind is drawn as `random_delta` draws it, with
/// hosts and links taken from one group only.
struct Shadow<'a> {
    network: Network,
    catalog: &'a Catalog,
    /// Group of every host, by host id.
    group: Vec<usize>,
    live: Vec<Vec<HostId>>,
    /// Hosts never removed.
    protected: Vec<bool>,
    /// Fixes drawn minus unfixes drawn. Generated hosts start with full
    /// candidate lists, so in a stream that removes no host these are all
    /// the fixed slots.
    fixed: usize,
}

impl Shadow<'_> {
    fn new<'a>(g: &'a GeneratedNetwork, group: Vec<usize>, protected: Vec<bool>) -> Shadow<'a> {
        let mut live = vec![Vec::new(); group.iter().max().map_or(0, |z| z + 1)];
        for (id, host) in g.network.iter_hosts() {
            if !host.is_removed() {
                live[group[id.index()]].push(id);
            }
        }
        Shadow {
            network: g.network.clone(),
            catalog: &g.catalog,
            group,
            live,
            protected,
            fixed: 0,
        }
    }

    /// A burst of `size` deltas inside `group`, of kinds drawn by `kind`,
    /// applied to the shadow network.
    fn burst(
        &mut self,
        rng: &mut StdRng,
        group: usize,
        size: usize,
        kind: impl Fn(&mut StdRng, &Self) -> Kind,
    ) -> Vec<NetworkDelta> {
        let mut burst = Vec::with_capacity(size);
        while burst.len() < size {
            let kind = kind(rng, self);
            let Some(delta) = self.draw(rng, group, kind) else {
                continue;
            };
            let effect = self
                .network
                .apply_delta(&delta, self.catalog)
                .expect("drawn deltas are valid for the shadow network");
            match &delta {
                NetworkDelta::AddHost { .. } => {
                    self.live[group].push(effect.added_host.expect("AddHost adds a host"));
                    self.group.push(group);
                    self.protected.push(false);
                }
                NetworkDelta::RemoveHost { host } => self.live[group].retain(|h| h != host),
                NetworkDelta::FixSlot { .. } => self.fixed += 1,
                NetworkDelta::UnfixSlot { .. } => self.fixed -= 1,
                _ => {}
            }
            burst.push(delta);
        }
        burst
    }

    /// One delta of `kind` inside `group`, or `None` when the draws find
    /// none (the kind is then drawn again).
    fn draw(&self, rng: &mut StdRng, group: usize, kind: Kind) -> Option<NetworkDelta> {
        let live = &self.live[group];
        match kind {
            Kind::AddLink => (0..TRIES).find_map(|_| {
                let (a, b) = (pick(rng, live), pick(rng, live));
                (a != b && !self.network.linked(a, b)).then(|| NetworkDelta::add_link(a, b))
            }),
            // A uniform link of the network, kept when it lies inside the
            // group: uniform over the group's links.
            Kind::RemoveLink => (0..TRIES * self.live.len()).find_map(|_| {
                let (a, b) = pick(rng, self.network.links());
                (self.group[a.index()] == group && self.group[b.index()] == group)
                    .then(|| NetworkDelta::remove_link(a, b))
            }),
            Kind::FixSlot => (0..TRIES).find_map(|_| {
                let h = pick(rng, live);
                let services = self.network.host(h).ok()?.services();
                if services.is_empty() {
                    return None;
                }
                let slot = &services[rng.gen_range(0..services.len())];
                (slot.candidates().len() >= 2).then(|| {
                    NetworkDelta::fix_slot(h, slot.service(), pick(rng, slot.candidates()))
                })
            }),
            Kind::UnfixSlot => (0..TRIES).find_map(|_| {
                let h = pick(rng, live);
                let services = self.network.host(h).ok()?.services();
                if services.is_empty() {
                    return None;
                }
                let slot = &services[rng.gen_range(0..services.len())];
                let full = self.catalog.products_of(slot.service());
                (full.len() > slot.candidates().len())
                    .then(|| NetworkDelta::unfix_slot(h, slot.service(), full.to_vec()))
            }),
            // Every catalog service with its full product list, linked to
            // one to three live hosts of the group.
            Kind::AddHost => {
                let mut links = Vec::new();
                for _ in 0..rng.gen_range(1usize..=3) {
                    let peer = pick(rng, live);
                    if !links.contains(&peer) {
                        links.push(peer);
                    }
                }
                Some(NetworkDelta::AddHost {
                    name: format!("dyn{}", self.network.revision()),
                    zone: Some(format!("zone{group}")),
                    services: self
                        .catalog
                        .iter_services()
                        .map(|(s, _)| (s, self.catalog.products_of(s).to_vec()))
                        .filter(|(_, products)| !products.is_empty())
                        .collect(),
                    links,
                })
            }
            Kind::RemoveHost => (live.len() > 1)
                .then(|| {
                    (0..TRIES).find_map(|_| {
                        let h = pick(rng, live);
                        (!self.protected[h.index()]).then(|| NetworkDelta::remove_host(h))
                    })
                })
                .flatten(),
        }
    }
}

/// The zone-confined stream of `journal-10k` and `sharded-10k`: burst `i`
/// stays inside zone `i mod zones` and draws from [`ZONE_MIX`]. Gateway
/// hosts are never removed and cross-zone links are never touched, so the
/// cross structure of a sharded engine never changes.
pub fn zone_stream(g: &GeneratedNetwork, bursts: usize, seed: u64) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed ^ STREAM_SALT);
    let mut shadow = Shadow::new(g, zone_indices(&g.network), gateway_hosts(&g.network));
    let zones = shadow.live.len();
    let out = (0..bursts)
        .map(|i| {
            let size = burst_size(&mut rng, MEAN_BURST);
            shadow.burst(&mut rng, i % zones, size, |rng, _| {
                draw_kind(rng, &ZONE_MIX)
            })
        })
        .collect();
    Stream {
        bursts: out,
        final_network: shadow.network,
    }
}

/// The slot-only stream of `reads-960`: fix/unfix deltas on random hosts
/// across the whole network, no structural change. Each delta is a fix
/// while fewer than [`SLOT_FIXED_SHARE`] of the slots are fixed, else an
/// unfix, so once there the stream alternates the two, as `random_delta`'s
/// equal weights would on average.
pub fn slot_stream(g: &GeneratedNetwork, bursts: usize, seed: u64) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed ^ STREAM_SALT);
    let hosts = g.network.host_count();
    let target = SLOT_FIXED_SHARE * g.network.slot_count() as f64;
    let mut shadow = Shadow::new(g, vec![0; hosts], vec![true; hosts]);
    let out = (0..bursts)
        .map(|_| {
            let size = burst_size(&mut rng, MEAN_BURST);
            shadow.burst(&mut rng, 0, size, |_, s| {
                if (s.fixed as f64) < target {
                    Kind::FixSlot
                } else {
                    Kind::UnfixSlot
                }
            })
        })
        .collect();
    Stream {
        bursts: out,
        final_network: shadow.network,
    }
}

/// Whether a delta changes the host/link structure.
pub fn is_structural(delta: &NetworkDelta) -> bool {
    matches!(
        delta,
        NetworkDelta::AddHost { .. }
            | NetworkDelta::RemoveHost { .. }
            | NetworkDelta::AddLink { .. }
            | NetworkDelta::RemoveLink { .. }
    )
}
