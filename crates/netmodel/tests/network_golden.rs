//! Pins a network's observables bit for bit after a seeded delta stream.
//!
//! Everything a caller can read off a [`Network`] — the link list in order,
//! every neighbor list, both per-host revision counters and the network-wide
//! counts — is folded into one FNV-1a digest. The digests below were recorded
//! on the flat-array representation; a change of storage layout must
//! reproduce them exactly. Seeded streams (the serving benchmark's among
//! them) index `links()` by position, so its order is part of what is pinned.

use rand::rngs::StdRng;
use rand::SeedableRng;

use netmodel::delta::{random_delta, NetworkDelta};
use netmodel::journal::{read_strict, Record, SnapshotRecord};
use netmodel::network::Network;
use netmodel::topology::{generate_zoned, GeneratedNetwork, TopologyKind, ZonedNetworkConfig};
use netmodel::HostId;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// The digest of every observable of `net`.
fn digest(net: &Network) -> u64 {
    let mut h = Fnv::new();
    h.u64(net.links().len() as u64);
    for &(a, b) in net.links() {
        h.u64(u64::from(a.0) << 32 | u64::from(b.0));
    }
    for i in 0..net.host_count() {
        let id = HostId(i as u32);
        let neighbors = net.neighbors(id);
        h.u64(neighbors.len() as u64);
        for n in neighbors {
            h.u64(u64::from(n.0));
        }
        h.u64(net.host_revision(id));
        h.u64(net.link_revision(id));
    }
    h.u64(net.revision());
    h.u64(net.topology_revision());
    h.u64(net.link_count() as u64);
    h.u64(net.active_host_count() as u64);
    h.u64(net.slot_count() as u64);
    h.0
}

/// Four zones of 500 hosts, mean degree 8: about 8,000 links.
fn instance() -> GeneratedNetwork {
    generate_zoned(
        &ZonedNetworkConfig {
            zones: 4,
            hosts_per_zone: 500,
            gateway_links: 2,
            mean_degree: 8,
            services: 3,
            products_per_service: 4,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        2025,
    )
}

const DELTAS: usize = 400;
const BURST: usize = 8;

/// The seeded stream: each delta drawn against the state its predecessors
/// leave, applied one at a time. Returns the deltas, the per-burst digests
/// and the final network.
fn stream(g: &GeneratedNetwork) -> (Vec<NetworkDelta>, Vec<u64>, Network) {
    let mut net = g.network.clone();
    let mut rng = StdRng::seed_from_u64(77);
    let mut deltas = Vec::with_capacity(DELTAS);
    let mut digests = Vec::new();
    for i in 0..DELTAS {
        let delta = random_delta(&net, &g.catalog, &mut rng, &[]);
        net.apply_delta(&delta, &g.catalog)
            .unwrap_or_else(|e| panic!("delta {i} ({delta}) failed: {e}"));
        deltas.push(delta);
        if (i + 1) % BURST == 0 {
            digests.push(digest(&net));
        }
    }
    (deltas, digests, net)
}

/// The digest of the per-burst digests.
fn trajectory(digests: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &d in digests {
        h.u64(d);
    }
    h.0
}

const INITIAL: u64 = 0x0fa3_9918_6aeb_d567;
const FINAL: u64 = 0xb63a_0cb9_e950_d845;
const TRAJECTORY: u64 = 0xfbeb_91e9_62b6_d512;

#[test]
fn one_delta_at_a_time() {
    let g = instance();
    assert_eq!(digest(&g.network), INITIAL, "the generated instance");
    let before = g.network.clone();
    let (deltas, digests, net) = stream(&g);
    let count = |kind: &str| deltas.iter().filter(|d| d.kind() == kind).count();
    for kind in ["add-host", "remove-host", "add-link", "remove-link"] {
        assert!(count(kind) > 0, "the stream draws {kind}");
    }
    assert_eq!(digest(&net), FINAL, "after {DELTAS} deltas");
    assert_eq!(trajectory(&digests), TRAJECTORY, "after every burst");
    assert_eq!(g.network, before, "the generator's copy is untouched");
    assert_eq!(digest(&g.network), INITIAL);
}

#[test]
fn batched_bursts() {
    let g = instance();
    let (deltas, _, _) = stream(&g);
    let mut net = g.network.clone();
    let mut digests = Vec::new();
    for burst in deltas.chunks(BURST) {
        net.apply_batch(burst, &g.catalog).expect("a valid burst");
        digests.push(digest(&net));
    }
    assert_eq!(digest(&net), FINAL);
    assert_eq!(trajectory(&digests), TRAJECTORY);
}

#[test]
fn journal_round_trip() {
    let g = instance();
    let (_, _, net) = stream(&g);
    let record = Record::Snapshot(SnapshotRecord {
        revision: net.revision(),
        network: net.clone(),
        assignment: None,
    });
    let read = read_strict(record.to_line().as_bytes()).expect("a fresh record reads back");
    let [Record::Snapshot(ref snapshot)] = read[..] else {
        panic!("expected one snapshot record");
    };
    assert_eq!(snapshot.network, net);
    assert_eq!(digest(&snapshot.network), FINAL);
}
