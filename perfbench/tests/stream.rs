//! The benchmark's inputs: determinism and validity of instances and
//! burst streams.

use netmodel::delta::NetworkDelta;
use netmodel::journal::{BatchRecord, Preamble, Record, SnapshotRecord, FORMAT_VERSION};
use netmodel::network::Network;
use netmodel::topology::GeneratedNetwork;
use netmodel::HostId;
use perfbench::stream::{
    gateway_hosts, is_structural, random_instance, slot_stream, zone_stream, zoned_instance,
    Stream, SLOT_FIXED_SHARE,
};

/// The instance and stream as bytes, through the journal's record codec.
fn encode(g: &GeneratedNetwork, stream: &Stream) -> Vec<u8> {
    let mut out = Record::Preamble(Preamble {
        format: FORMAT_VERSION,
        catalog: g.catalog.clone(),
        similarity: g.similarity.clone(),
        constraints: Default::default(),
    })
    .to_line();
    out.push_str(
        &Record::Snapshot(SnapshotRecord {
            revision: g.network.revision(),
            network: g.network.clone(),
            assignment: None,
        })
        .to_line(),
    );
    for (seq, burst) in stream.bursts.iter().enumerate() {
        out.push_str(
            &Record::Batch(BatchRecord {
                seq: seq as u64,
                revision: 0,
                deltas: burst.clone(),
                assignment: None,
            })
            .to_line(),
        );
    }
    out.into_bytes()
}

/// Applies every burst all-or-nothing to a staged copy, as the engines
/// do, and returns the network the stream leaves.
fn apply_staged(g: &GeneratedNetwork, stream: &Stream) -> Network {
    let mut network = g.network.clone();
    for (i, burst) in stream.bursts.iter().enumerate() {
        assert!(!burst.is_empty(), "burst {i} is empty");
        let mut staged = network.clone();
        if let Err(e) = staged.apply_all(burst, &g.catalog) {
            panic!("burst {i} does not apply to its staged network: {e}");
        }
        network = staged;
    }
    network
}

fn zone_of(network: &Network, host: HostId) -> String {
    network
        .host(host)
        .expect("host exists")
        .zone()
        .expect("zoned hosts carry a label")
        .to_owned()
}

fn cross_links(network: &Network) -> Vec<(HostId, HostId)> {
    network
        .links()
        .iter()
        .copied()
        .filter(|&(a, b)| zone_of(network, a) != zone_of(network, b))
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_instance_and_stream() {
    let g = zoned_instance(4, 150, 7);
    let again = zoned_instance(4, 150, 7);
    let a = encode(&g, &zone_stream(&g, 120, 7));
    assert_eq!(a, encode(&again, &zone_stream(&again, 120, 7)));
    let other = zoned_instance(4, 150, 8);
    assert_ne!(a, encode(&other, &zone_stream(&other, 120, 8)));

    let r = random_instance(120, 7);
    let again = random_instance(120, 7);
    assert_eq!(
        encode(&r, &slot_stream(&r, 120, 7)),
        encode(&again, &slot_stream(&again, 120, 7))
    );
}

#[test]
fn every_burst_applies_to_its_staged_network() {
    let g = zoned_instance(4, 150, 3);
    let stream = zone_stream(&g, 300, 3);
    assert_eq!(apply_staged(&g, &stream), stream.final_network);

    let r = random_instance(120, 3);
    let stream = slot_stream(&r, 300, 3);
    assert_eq!(apply_staged(&r, &stream), stream.final_network);
}

#[test]
fn zone_stream_stays_inside_its_zone_and_spares_the_gateways() {
    let zones = 4;
    let g = zoned_instance(zones, 150, 5);
    let gateway = gateway_hosts(&g.network);
    assert!(gateway.iter().any(|&b| b), "the instance has gateways");
    let stream = zone_stream(&g, 400, 5);
    let mut network = g.network.clone();
    let mut kinds = std::collections::BTreeSet::new();
    for (i, burst) in stream.bursts.iter().enumerate() {
        let zone = format!("zone{}", i % zones);
        for delta in burst {
            kinds.insert(delta.kind());
            let hosts: Vec<HostId> = match delta {
                NetworkDelta::AddLink { a, b } | NetworkDelta::RemoveLink { a, b } => vec![*a, *b],
                NetworkDelta::FixSlot { host, .. } | NetworkDelta::UnfixSlot { host, .. } => {
                    vec![*host]
                }
                NetworkDelta::RemoveHost { host } => {
                    let is_gateway = gateway.get(host.index()).copied().unwrap_or(false);
                    assert!(!is_gateway, "burst {i} removes gateway {host}");
                    vec![*host]
                }
                NetworkDelta::AddHost {
                    zone: label, links, ..
                } => {
                    assert_eq!(label.as_deref(), Some(zone.as_str()), "burst {i}");
                    links.clone()
                }
                NetworkDelta::ExtendCandidates { .. } => panic!("not drawn by the stream"),
            };
            for host in hosts {
                assert_eq!(zone_of(&network, host), zone, "burst {i}: {delta}");
            }
            network
                .apply_delta(delta, &g.catalog)
                .expect("the stream is valid");
        }
    }
    assert_eq!(cross_links(&g.network), cross_links(&network));
    for kind in [
        "add-link",
        "remove-link",
        "fix-slot",
        "unfix-slot",
        "add-host",
        "remove-host",
    ] {
        assert!(kinds.contains(kind), "the stream draws {kind}");
    }
}

#[test]
fn reads_stream_is_slot_only() {
    let g = random_instance(200, 9);
    let stream = slot_stream(&g, 300, 9);
    for burst in &stream.bursts {
        for delta in burst {
            assert!(
                matches!(
                    delta,
                    NetworkDelta::FixSlot { .. } | NetworkDelta::UnfixSlot { .. }
                ),
                "{delta}"
            );
        }
    }
    assert_eq!(
        stream.final_network.topology_revision(),
        g.network.topology_revision()
    );
    let fixed = stream
        .final_network
        .iter_hosts()
        .flat_map(|(_, h)| h.services())
        .filter(|slot| slot.candidates().len() == 1)
        .count() as f64;
    let target = SLOT_FIXED_SHARE * g.network.slot_count() as f64;
    assert!(
        (fixed - target).abs() <= 1.0,
        "{fixed} slots fixed, target {target}"
    );
}

#[test]
fn bursts_are_poisson_eight_and_the_zone_stream_draws_random_delta_weights() {
    let g = zoned_instance(4, 150, 11);
    let stream = zone_stream(&g, 1000, 11);
    let mean = stream.delta_count() as f64 / stream.bursts.len() as f64;
    assert!((7.5..8.5).contains(&mean), "mean burst {mean}");
    let mut count = std::collections::BTreeMap::new();
    for delta in stream.bursts.iter().flatten() {
        *count.entry(delta.kind()).or_insert(0usize) += 1;
    }
    // Kinds that find a delta at nearly every draw come in
    // `random_delta`'s proportions 3:2:2:1:1. An unfix needs a fixed slot,
    // so unfixes trail fixes.
    let unit = (count["add-host"] + count["remove-host"]) as f64 / 2.0;
    for (kind, weight) in [
        ("add-link", 3.0),
        ("remove-link", 2.0),
        ("fix-slot", 2.0),
        ("add-host", 1.0),
        ("remove-host", 1.0),
    ] {
        let ratio = count[kind] as f64 / (weight * unit);
        assert!((0.85..1.15).contains(&ratio), "{kind}: {count:?}");
    }
    assert!(count["unfix-slot"] < count["fix-slot"], "{count:?}");
    let structural = stream
        .bursts
        .iter()
        .flatten()
        .filter(|d| is_structural(d))
        .count();
    assert_eq!(
        structural,
        count["add-link"] + count["remove-link"] + count["add-host"] + count["remove-host"]
    );
}

#[test]
fn the_10k_workload_shape_streams_validly() {
    let g = zoned_instance(8, 1250, 1);
    assert_eq!(g.network.host_count(), 10_000);
    let stream = zone_stream(&g, 40, 1);
    assert_eq!(apply_staged(&g, &stream), stream.final_network);
    assert_eq!(cross_links(&g.network), cross_links(&stream.final_network));
}
