//! Property-based tests for the network model.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use netmodel::assignment::Assignment;
use netmodel::constraints::{Constraint, ConstraintSet, Scope};
use netmodel::delta::{random_delta, NetworkDelta};
use netmodel::journal::{read_strict, Record, SnapshotRecord};
use netmodel::network::{Network, NetworkBuilder};
use netmodel::partition::partition_by_zone;
use netmodel::strategies::{mono_assignment, random_assignment};
use netmodel::topology::{
    generate, generate_fat_tree, generate_scale_free, generate_tiered_enterprise, generate_zoned,
    FatTreeConfig, GeneratedNetwork, RandomNetworkConfig, ScaleFreeConfig, TieredEnterpriseConfig,
    TopologyKind, ZonedNetworkConfig,
};
use netmodel::{HostId, ProductId};

/// Every host reachable from host 0 (tier 0 / the hub in the structured
/// families), and the basic structural soundness the random-generator test
/// checks too.
fn assert_connected_from_zero(g: &GeneratedNetwork) {
    let reachable = g.network.reachable_from(HostId(0));
    assert_eq!(
        reachable.len(),
        g.network.host_count(),
        "family generators produce connected networks"
    );
    for (id, _) in g.network.iter_hosts() {
        for &nb in g.network.neighbors(id) {
            assert_ne!(nb, id, "self loop");
            assert!(
                g.network.neighbors(nb).contains(&id),
                "asymmetric adjacency"
            );
        }
    }
}

/// `net` after a journal snapshot round trip. The decoder rebuilds the CSR
/// adjacency from the link list, so equality pins the in-place CSR edits
/// of the delta layer to a from-scratch rebuild, entry for entry.
fn journal_round_trip(net: &Network) -> Network {
    let record = Record::Snapshot(SnapshotRecord {
        revision: net.revision(),
        network: net.clone(),
        assignment: None,
    });
    match read_strict(record.to_line().as_bytes()).expect("a fresh record reads back")[..] {
        [Record::Snapshot(ref snapshot)] => snapshot.network.clone(),
        ref other => panic!("expected one snapshot record, got {other:?}"),
    }
}

/// Everything a caller can read off `net`, by value.
fn observables(net: &Network) -> String {
    let hosts: Vec<_> = net
        .iter_hosts()
        .map(|(id, h)| {
            (
                h.clone(),
                net.neighbors(id).to_vec(),
                net.host_revision(id),
                net.link_revision(id),
            )
        })
        .collect();
    format!(
        "{hosts:?} {:?} r{} t{} l{} a{} s{}",
        net.links(),
        net.revision(),
        net.topology_revision(),
        net.link_count(),
        net.active_host_count(),
        net.slot_count()
    )
}

/// A `NetworkBuilder` build of `net`'s hosts (names, zones, services) and
/// links; tombstones come back as live hosts without services.
fn rebuild(net: &Network, catalog: &netmodel::catalog::Catalog) -> Network {
    let mut b = NetworkBuilder::new();
    for (_, host) in net.iter_hosts() {
        let id = match host.zone() {
            Some(zone) => b.add_host_in_zone(host.name(), zone),
            None => b.add_host(host.name()),
        };
        for inst in host.services() {
            b.add_service(id, inst.service(), inst.candidates().to_vec())
                .expect("a valid service");
        }
    }
    for &(x, y) in net.links() {
        b.add_link(x, y).expect("a valid link");
    }
    b.build(catalog).expect("a valid network")
}

/// Replays a random topology-delta stream against `g`, maintaining the
/// zone partition incrementally and asserting it matches the from-scratch
/// `partition_by_zone` after every delta (the same invariant
/// `incremental_partition_tracks_scratch_recompute` pins on the random
/// zoned generator, here exercised on the structured families).
fn assert_partition_tracks_stream(g: GeneratedNetwork, seed: u64, steps: usize) {
    let mut net = g.network;
    let (service, _) = g.catalog.iter_services().next().expect("generated catalog");
    let products = g.catalog.products_of(service).to_vec();
    let mut partition = partition_by_zone(&net);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AFE);
    let mut fresh_zones = 0usize;
    for _ in 0..steps {
        let live: Vec<HostId> = net
            .iter_hosts()
            .filter(|(_, h)| !h.is_removed())
            .map(|(id, _)| id)
            .collect();
        let delta = match rng.gen_range(0..4u32) {
            0 => {
                let zone = match rng.gen_range(0..3u32) {
                    0 if !live.is_empty() => {
                        let anchor = live[rng.gen_range(0..live.len())];
                        net.host(anchor).unwrap().zone().map(str::to_owned)
                    }
                    1 => {
                        fresh_zones += 1;
                        Some(format!("zone-fresh{fresh_zones}"))
                    }
                    _ => None,
                };
                let mut links: Vec<HostId> = if live.is_empty() {
                    Vec::new()
                } else {
                    (0..rng.gen_range(0..3usize))
                        .map(|_| live[rng.gen_range(0..live.len())])
                        .collect()
                };
                links.sort_unstable();
                links.dedup();
                NetworkDelta::AddHost {
                    name: format!("g{}", net.host_count()),
                    zone,
                    services: vec![(service, products.clone())],
                    links,
                }
            }
            1 if live.len() >= 2 => {
                let a = live[rng.gen_range(0..live.len())];
                let b = live[rng.gen_range(0..live.len())];
                if a == b || net.linked(a, b) {
                    continue;
                }
                NetworkDelta::add_link(a, b)
            }
            2 if net.link_count() > 0 => {
                let links = net.links();
                let (a, b) = links[rng.gen_range(0..links.len())];
                NetworkDelta::remove_link(a, b)
            }
            3 if !live.is_empty() => NetworkDelta::remove_host(live[rng.gen_range(0..live.len())]),
            _ => continue,
        };
        net.apply_delta(&delta, &g.catalog)
            .expect("delta is valid by construction");
        match &delta {
            NetworkDelta::AddHost { zone, links, .. } => {
                let id = HostId(net.host_count() as u32 - 1);
                partition.add_host(id, zone.as_deref());
                for &peer in links {
                    partition.add_link(id, peer);
                }
            }
            NetworkDelta::AddLink { a, b } => partition.add_link(*a, *b),
            NetworkDelta::RemoveLink { a, b } => partition.remove_link(*a, *b),
            NetworkDelta::RemoveHost { host } => {
                partition.remove_host(*host);
            }
            _ => unreachable!("only topology deltas are generated"),
        }
        assert_eq!(partition, partition_by_zone(&net), "diverged after {delta}");
    }
}

fn arb_config() -> impl Strategy<Value = RandomNetworkConfig> {
    (
        2usize..25,
        1usize..6,
        1usize..4,
        2usize..5,
        prop_oneof![
            Just(TopologyKind::Random),
            Just(TopologyKind::ScaleFree),
            Just(TopologyKind::Ring),
            Just(TopologyKind::Tree)
        ],
    )
        .prop_map(
            |(hosts, degree, services, products, topology)| RandomNetworkConfig {
                hosts,
                mean_degree: degree,
                services,
                products_per_service: products,
                vendors_per_service: 2,
                topology,
            },
        )
}

proptest! {
    /// Generated networks are structurally sound: symmetric adjacency, no
    /// self loops, degree sums to twice the link count.
    #[test]
    fn generated_networks_are_sound(config in arb_config(), seed in 0u64..500) {
        let g = generate(&config, seed);
        let mut degree_sum = 0usize;
        for (id, _) in g.network.iter_hosts() {
            degree_sum += g.network.degree(id);
            for &nb in g.network.neighbors(id) {
                prop_assert_ne!(nb, id, "self loop");
                prop_assert!(g.network.neighbors(nb).contains(&id), "asymmetric adjacency");
            }
        }
        prop_assert_eq!(degree_sum, 2 * g.network.link_count());
    }

    /// Baseline assignments always validate, and edge similarity is
    /// symmetric and non-negative for any of them.
    #[test]
    fn baseline_assignments_validate(config in arb_config(), seed in 0u64..500) {
        let g = generate(&config, seed);
        for a in [mono_assignment(&g.network), random_assignment(&g.network, seed)] {
            prop_assert!(a.validate(&g.network).is_ok());
            let total = a.total_edge_similarity(&g.network, &g.similarity);
            prop_assert!(total >= 0.0);
            for &(x, y) in g.network.links() {
                let xy = a.edge_similarity(&g.network, &g.similarity, x, y);
                let yx = a.edge_similarity(&g.network, &g.similarity, y, x);
                prop_assert!((xy - yx).abs() < 1e-12);
            }
        }
    }

    /// A `Fix` constraint is satisfied exactly by assignments that chose
    /// the pinned product, and `restrict_candidates` reflects it.
    #[test]
    fn fix_constraints_are_consistent(config in arb_config(), seed in 0u64..500) {
        let g = generate(&config, seed);
        let a = random_assignment(&g.network, seed);
        let host = HostId((seed as usize % g.network.host_count()) as u32);
        let inst = &g.network.host(host).unwrap().services()[0];
        let pinned = inst.candidates()[0];
        let mut set = ConstraintSet::new();
        set.push(Constraint::fix(host, inst.service(), pinned));
        let satisfied = a.product_for(&g.network, host, inst.service()) == Some(pinned);
        prop_assert_eq!(set.is_satisfied(&g.network, &a), satisfied);
        let restricted = set.restrict_candidates(host, inst.service(), inst.candidates());
        prop_assert_eq!(restricted, vec![pinned]);
    }

    /// Global forbid constraints report exactly the violating hosts.
    #[test]
    fn forbid_constraints_count_violations(config in arb_config(), seed in 0u64..500) {
        let g = generate(&config, seed);
        let a = mono_assignment(&g.network);
        // Forbid the combination mono actually deploys at service 0/0 if
        // the host runs only one service, use it for both roles (vacuous
        // when services coincide is fine: the check is self-consistency).
        let s0 = g.catalog.iter_services().next().unwrap().0;
        let p0 = a.product_for(&g.network, HostId(0), s0);
        prop_assume!(p0.is_some());
        let p0 = p0.unwrap();
        let forbid = Constraint::forbid_combination(Scope::All, (s0, p0), (s0, p0));
        let violations = forbid.violations(&g.network, &a);
        // Every host running service 0 with product p0 violates.
        let expected: Vec<HostId> = g
            .network
            .iter_hosts()
            .filter(|(id, _)| a.product_for(&g.network, *id, s0) == Some(p0))
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(violations, expected);
    }

    /// Product histograms account for every slot.
    #[test]
    fn histogram_mass_equals_slots(config in arb_config(), seed in 0u64..500) {
        let g = generate(&config, seed);
        let a = random_assignment(&g.network, seed ^ 0xABCD);
        let hist = a.product_histogram();
        let mass: usize = hist.values().sum();
        prop_assert_eq!(mass, g.network.slot_count());
        for &p in hist.keys() {
            prop_assert!(p.index() < g.catalog.product_count());
        }
        let _ = ProductId(0);
    }

    /// Incremental partition maintenance ≡ from-scratch `partition_by_zone`
    /// after an arbitrary topology delta stream: hosts joining existing,
    /// fresh and anonymous zones, cross/intra links appearing and vanishing,
    /// hosts tombstoned (zones draining included). `ZonePartition`'s
    /// equality covers membership, live counts, the boundary set and the
    /// cross-link classification at once, and is checked after *every*
    /// delta, not just at the end.
    #[test]
    fn incremental_partition_tracks_scratch_recompute(
        zones in 2usize..5,
        hosts_per_zone in 2usize..6,
        seed in 0u64..500,
        steps in 5usize..40,
    ) {
        let g = generate_zoned(
            &ZonedNetworkConfig {
                zones,
                hosts_per_zone,
                gateway_links: 2,
                mean_degree: 3,
                services: 1,
                products_per_service: 2,
                vendors_per_service: 1,
                topology: TopologyKind::Random,
            },
            seed,
        );
        let mut net = g.network;
        let service = g.catalog.service_by_name("service0").expect("generated");
        let products = g.catalog.products_of(service).to_vec();
        let mut partition = partition_by_zone(&net);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5AFE);
        let mut fresh_zones = 0usize;
        for _ in 0..steps {
            let live: Vec<HostId> = net
                .iter_hosts()
                .filter(|(_, h)| !h.is_removed())
                .map(|(id, _)| id)
                .collect();
            let delta = match rng.gen_range(0..4u32) {
                0 => {
                    // A host joining an existing zone, a freshly opened
                    // zone, or no zone at all, with 0–2 links to live hosts.
                    let zone = match rng.gen_range(0..3u32) {
                        0 if !live.is_empty() => {
                            let anchor = live[rng.gen_range(0..live.len())];
                            net.host(anchor).unwrap().zone().map(str::to_owned)
                        }
                        1 => {
                            fresh_zones += 1;
                            Some(format!("zone-fresh{fresh_zones}"))
                        }
                        _ => None,
                    };
                    let mut links: Vec<HostId> = if live.is_empty() {
                        Vec::new()
                    } else {
                        (0..rng.gen_range(0..3usize))
                            .map(|_| live[rng.gen_range(0..live.len())])
                            .collect()
                    };
                    links.sort_unstable();
                    links.dedup();
                    NetworkDelta::AddHost {
                        name: format!("g{}", net.host_count()),
                        zone,
                        services: vec![(service, products.clone())],
                        links,
                    }
                }
                1 if live.len() >= 2 => {
                    let a = live[rng.gen_range(0..live.len())];
                    let b = live[rng.gen_range(0..live.len())];
                    if a == b || net.linked(a, b) {
                        continue;
                    }
                    NetworkDelta::add_link(a, b)
                }
                2 if net.link_count() > 0 => {
                    let links = net.links();
                    let (a, b) = links[rng.gen_range(0..links.len())];
                    NetworkDelta::remove_link(a, b)
                }
                3 if !live.is_empty() => {
                    NetworkDelta::remove_host(live[rng.gen_range(0..live.len())])
                }
                _ => continue,
            };
            net.apply_delta(&delta, &g.catalog).expect("delta is valid by construction");
            match &delta {
                NetworkDelta::AddHost { zone, links, .. } => {
                    let id = HostId(net.host_count() as u32 - 1);
                    partition.add_host(id, zone.as_deref());
                    for &peer in links {
                        partition.add_link(id, peer);
                    }
                }
                NetworkDelta::AddLink { a, b } => partition.add_link(*a, *b),
                NetworkDelta::RemoveLink { a, b } => partition.remove_link(*a, *b),
                NetworkDelta::RemoveHost { host } => {
                    partition.remove_host(*host);
                }
                _ => unreachable!("only topology deltas are generated"),
            }
            prop_assert_eq!(&partition, &partition_by_zone(&net), "diverged after {}", delta);
            prop_assert_eq!(&journal_round_trip(&net), &net, "CSR differs from a rebuild after {}", delta);
        }
    }

    /// Fat-tree generation is deterministic (same seed ⇒ identical network,
    /// catalog and similarity), connected from the core tier, and the
    /// incremental zone partition tracks the scratch recompute under an
    /// arbitrary delta stream on top of it.
    #[test]
    fn fat_tree_generator_is_pinned(
        pods in 1usize..4,
        core_hosts in 1usize..4,
        hosts_per_edge in 1usize..4,
        seed in 0u64..200,
        steps in 5usize..25,
    ) {
        let config = FatTreeConfig {
            pods,
            core_hosts,
            agg_per_pod: 2,
            edge_per_pod: 2,
            hosts_per_edge,
            services: 2,
            products_per_service: 3,
            vendors_per_service: 2,
        };
        let g = generate_fat_tree(&config, seed);
        let again = generate_fat_tree(&config, seed);
        prop_assert_eq!(&g.network, &again.network, "same seed, same network");
        prop_assert_eq!(&g.catalog, &again.catalog, "same seed, same catalog");
        prop_assert_eq!(&g.similarity, &again.similarity, "same seed, same similarity");
        prop_assert_eq!(g.network.host_count(), config.total_hosts());
        assert_connected_from_zero(&g);
        assert_partition_tracks_stream(g, seed, steps);
    }

    /// Scale-free generation is deterministic, connected from the hub-side
    /// path seed, and the incremental zone partition tracks the scratch
    /// recompute under a delta stream.
    #[test]
    fn scale_free_generator_is_pinned(
        hosts in 4usize..40,
        edges_per_host in 1usize..4,
        zones in 1usize..5,
        seed in 0u64..200,
        steps in 5usize..25,
    ) {
        let config = ScaleFreeConfig {
            hosts,
            edges_per_host,
            attachment_exponent: 1.0,
            zones,
            services: 2,
            products_per_service: 3,
            vendors_per_service: 2,
        };
        let g = generate_scale_free(&config, seed);
        let again = generate_scale_free(&config, seed);
        prop_assert_eq!(&g.network, &again.network, "same seed, same network");
        prop_assert_eq!(&g.catalog, &again.catalog, "same seed, same catalog");
        prop_assert_eq!(&g.similarity, &again.similarity, "same seed, same similarity");
        prop_assert_eq!(g.network.host_count(), hosts);
        assert_connected_from_zero(&g);
        assert_partition_tracks_stream(g, seed, steps);
    }

    /// Degree-distribution sanity for the scale-free family: growing the
    /// network under the same seed only extends the generation (the first
    /// `n` hosts wire identically), so the max degree is monotone in `n` —
    /// and over a 4× span preferential attachment actually grows the hub.
    #[test]
    fn scale_free_max_degree_grows_with_n(n in 16usize..32, seed in 0u64..200) {
        let max_degree = |hosts: usize| {
            let g = generate_scale_free(
                &ScaleFreeConfig {
                    hosts,
                    attachment_exponent: 1.5,
                    ..ScaleFreeConfig::default()
                },
                seed,
            );
            (0..g.network.host_count())
                .map(|i| g.network.degree(HostId(i as u32)))
                .max()
                .unwrap()
        };
        let (small, mid, large) = (max_degree(n), max_degree(2 * n), max_degree(4 * n));
        prop_assert!(small <= mid && mid <= large, "monotone: {small} ≤ {mid} ≤ {large}");
        prop_assert!(large > small, "the hub grows over a 4× span: {small} → {large}");
    }

    /// Tiered-enterprise generation is deterministic, connected from the
    /// DMZ perimeter, and the incremental zone partition tracks the scratch
    /// recompute under a delta stream.
    #[test]
    fn tiered_enterprise_generator_is_pinned(
        dmz_hosts in 1usize..4,
        internal_zones in 1usize..4,
        hosts_per_internal in 2usize..7,
        server_hosts in 1usize..5,
        seed in 0u64..200,
        steps in 5usize..25,
    ) {
        let config = TieredEnterpriseConfig {
            dmz_hosts,
            internal_zones,
            hosts_per_internal,
            server_hosts,
            spoke_links: 2,
            services: 2,
            products_per_service: 3,
            vendors_per_service: 2,
        };
        let g = generate_tiered_enterprise(&config, seed);
        let again = generate_tiered_enterprise(&config, seed);
        prop_assert_eq!(&g.network, &again.network, "same seed, same network");
        prop_assert_eq!(&g.catalog, &again.catalog, "same seed, same catalog");
        prop_assert_eq!(&g.similarity, &again.similarity, "same seed, same similarity");
        prop_assert_eq!(g.network.host_count(), config.total_hosts());
        assert_connected_from_zero(&g);
        assert_partition_tracks_stream(g, seed, steps);
    }

    /// Bursts staged on a clone, as the engine stages them, over networks
    /// of up to five 32-host chunks: the original keeps every observable,
    /// and the staged network equals the one its deltas built one at a
    /// time, its own journal round trip, and a `NetworkBuilder` rebuild of
    /// its hosts and links (`links()` and every `neighbors()` included).
    #[test]
    fn staged_bursts_equal_a_rebuild(
        hosts in 1usize..160,
        seed in 0u64..500,
        bursts in proptest::collection::vec(1usize..12, 1..6),
    ) {
        let g = generate(
            &RandomNetworkConfig {
                hosts,
                mean_degree: 4,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            seed,
        );
        let mut net = g.network;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC10E);
        for len in bursts {
            let mut shadow = net.clone();
            let burst: Vec<NetworkDelta> = (0..len)
                .map(|_| {
                    let delta = random_delta(&shadow, &g.catalog, &mut rng, &[]);
                    shadow.apply_delta(&delta, &g.catalog).expect("a drawn delta applies");
                    delta
                })
                .collect();
            let before = observables(&net);
            let mut staged = net.clone();
            staged.apply_all(&burst, &g.catalog).expect("a drawn burst applies");
            prop_assert_eq!(observables(&net), before, "the original moved");
            prop_assert_eq!(&staged, &shadow);
            prop_assert_eq!(&journal_round_trip(&staged), &staged);
            let rebuilt = rebuild(&staged, &g.catalog);
            prop_assert_eq!(rebuilt.links(), staged.links());
            for (id, host) in staged.iter_hosts() {
                prop_assert_eq!(rebuilt.neighbors(id), staged.neighbors(id));
                let twin = rebuilt.host(id).expect("same host count");
                prop_assert_eq!(
                    (twin.name(), twin.zone(), twin.services()),
                    (host.name(), host.zone(), host.services())
                );
            }
            prop_assert_eq!(rebuilt.host_count(), staged.host_count());
            net = staged;
        }
    }

    /// The chunked copy-on-write `Assignment` behaves as the plain
    /// `Vec<Vec<ProductId>>` it replaced under random `set_row`, `resize`
    /// and `clone` sequences spanning several chunks: row reads, length and
    /// `==` agree with the model; a write to a clone never shows in the
    /// tables it was cloned from; and the chunk-skipping `changed_rows`
    /// against every earlier clone equals the naive full-row diff.
    #[test]
    fn chunked_assignment_matches_a_row_table(
        start in proptest::collection::vec(arb_row(), 0..200),
        ops in proptest::collection::vec(
            (0u32..8, 0usize..400, arb_row()),
            0..60,
        ),
    ) {
        let mut model = start.clone();
        let mut table = Assignment::from_slots(start);
        let mut kept: Vec<(Assignment, Vec<Vec<ProductId>>)> = Vec::new();
        for (op, at, row) in ops {
            match op {
                0 => kept.push((table.clone(), model.clone())),
                1 => {
                    table.resize(at);
                    model.resize(at, Vec::new());
                }
                _ if model.is_empty() => {}
                _ => {
                    let host = at % model.len();
                    table.set_row(HostId(host as u32), &row);
                    model[host] = row;
                }
            }
            prop_assert_eq!(table.host_rows(), model.len());
            for host in 0..model.len() + 70 {
                let expected = model.get(host).map_or(&[][..], Vec::as_slice);
                prop_assert_eq!(table.products_at(HostId(host as u32)), expected);
            }
            prop_assert!(table.rows().eq(model.iter().map(Vec::as_slice)));
            prop_assert_eq!(&table, &Assignment::from_slots(model.clone()));
            for (old, old_model) in &kept {
                prop_assert_eq!(old, &Assignment::from_slots(old_model.clone()));
                prop_assert_eq!(table == *old, model == *old_model);
                let naive: Vec<(HostId, &[ProductId])> = model
                    .iter()
                    .enumerate()
                    .filter(|(h, row)| old_model.get(*h).map_or(&[][..], Vec::as_slice) != row.as_slice())
                    .map(|(h, row)| (HostId(h as u32), row.as_slice()))
                    .collect();
                let chunked: Vec<(HostId, &[ProductId])> = table.changed_rows(old).collect();
                prop_assert_eq!(chunked, naive);
            }
        }
    }
}

/// A host row: up to four products.
fn arb_row() -> impl Strategy<Value = Vec<ProductId>> {
    proptest::collection::vec((0u16..6).prop_map(ProductId), 0..4)
}
