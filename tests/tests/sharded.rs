//! Property tests for the sharded engine: for any zoned instance and any
//! valid delta stream, the sharded fixpoint must (a) keep the exact
//! objective-decomposition identity — the reported objective equals the
//! full single-network model's energy on the composed assignment — (b)
//! never lose to carrying the old assignment forward, (c) keep shard
//! sub-networks consistent with the master, and (d) never let a burst
//! confined to one zone mutate another shard's network. A deterministic
//! §VIII-size check pins the sharded-vs-single objective gap under 1%.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ics_diversity::energy::{build_energy, SlotBinding};
use ics_diversity::engine::DiversityEngine;
use ics_diversity::shard::ShardedEngine;
use netmodel::assignment::Assignment;
use netmodel::constraints::ConstraintSet;
use netmodel::delta::{random_delta, NetworkDelta};
use netmodel::partition::partition_by_zone;
use netmodel::topology::{generate_zoned, GeneratedNetwork, TopologyKind, ZonedNetworkConfig};
use netmodel::HostId;

fn arb_config() -> impl Strategy<Value = ZonedNetworkConfig> {
    (2usize..4, 3usize..9, 1usize..3, 1usize..3, 2usize..4).prop_map(
        |(zones, hosts_per_zone, gateways, services, products)| ZonedNetworkConfig {
            zones,
            hosts_per_zone,
            gateway_links: gateways,
            mean_degree: 3,
            services,
            products_per_service: products,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
    )
}

/// A delta stream valid in order from `g.network`. `AddHost` deltas roam
/// freely over the zone lifecycle — an existing zone, a freshly named one
/// (the router creates its shard on the spot), or no zone at all: shards
/// are dynamic, so the stream needs no owner-pinning workaround.
fn valid_zoned_stream(g: &GeneratedNetwork, seed: u64, steps: usize) -> Vec<NetworkDelta> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = g.network.clone();
    let zones: Vec<String> = {
        let p = partition_by_zone(&g.network);
        p.shards()
            .iter()
            .map(|s| s.zone.clone().expect("generated networks label every host"))
            .collect()
    };
    let mut deltas = Vec::with_capacity(steps);
    let mut fresh = 0usize;
    for _ in 0..steps {
        let mut delta = random_delta(&scratch, &g.catalog, &mut rng, &[HostId(0)]);
        if let NetworkDelta::AddHost { zone, .. } = &mut delta {
            *zone = match rng.gen_range(0..4u32) {
                0 => {
                    fresh += 1;
                    Some(format!("zone-fresh{fresh}"))
                }
                1 => None,
                _ => Some(zones[rng.gen_range(0..zones.len())].clone()),
            };
        }
        scratch
            .apply_delta(&delta, &g.catalog)
            .expect("generated deltas are valid");
        deltas.push(delta);
    }
    deltas
}

/// The full single-network model's objective of `assignment` — the
/// reference the sharded decomposition must reproduce exactly.
fn full_model_objective(g_like: &ShardedEngine, assignment: &Assignment) -> f64 {
    let energy = build_energy(g_like.network(), g_like.similarity(), &ConstraintSet::new())
        .expect("unconstrained instances are feasible");
    let mut labels = vec![0usize; energy.model().var_count()];
    for (host, host_slots) in energy.slots().iter().enumerate() {
        let row = assignment.products_at(HostId(host as u32));
        for (slot, binding) in host_slots.iter().enumerate() {
            if let SlotBinding::Variable { var, candidates } = binding {
                labels[var.0] = candidates
                    .iter()
                    .position(|p| Some(p) == row.get(slot))
                    .expect("assignment products are candidates");
            }
        }
    }
    energy.model().energy(&labels) + energy.base_energy()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid zoned delta stream: the sharded engine stays consistent
    /// with a reference network, its reported objective satisfies the
    /// decomposition identity at every step, and every step improves on
    /// carrying the previous assignment forward.
    #[test]
    fn sharded_stream_keeps_the_objective_identity(
        config in arb_config(),
        net_seed in 0u64..100,
        delta_seed in 0u64..100,
        steps in 1usize..8,
    ) {
        let g = generate_zoned(&config, net_seed);
        let deltas = valid_zoned_stream(&g, delta_seed, steps);
        let mut engine =
            ShardedEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
        engine.solve().expect("cold solve");

        let mut reference = g.network.clone();
        for (i, delta) in deltas.iter().enumerate() {
            reference.apply_delta(delta, &g.catalog).expect("valid stream");
            let report = engine.apply(delta)
                .unwrap_or_else(|e| panic!("step {i} ({delta}): {e}"));
            prop_assert!(report.improvement().expect("warm step") >= -1e-9,
                "step {} regressed on carrying forward", i);
            // The master mirrors a plain sequential application.
            prop_assert_eq!(engine.network(), &reference);
            // Decomposition identity: reported objective == full model.
            let assignment = engine.assignment().expect("solved").clone();
            assignment.validate(engine.network()).expect("valid assignment");
            let full = full_model_objective(&engine, &assignment);
            prop_assert!((full - report.objective).abs() < 1e-9,
                "step {}: decomposition broke: full {} vs reported {}",
                i, full, report.objective);
            // Shard sub-networks stay consistent with the master: hosts
            // and links are conserved across the decomposition.
            let active_sum: usize = (0..engine.shard_count())
                .map(|s| engine.shard_network(s).active_host_count())
                .sum();
            prop_assert_eq!(active_sum, engine.network().active_host_count());
            let link_sum: usize = (0..engine.shard_count())
                .map(|s| engine.shard_network(s).link_count())
                .sum();
            prop_assert_eq!(
                link_sum + engine.partition().cross_links().len(),
                engine.network().link_count()
            );
        }
    }

    /// A burst routed to one zone never mutates any other shard's
    /// sub-network: not its revision, not its hosts, not its links.
    #[test]
    fn zone_confined_burst_never_mutates_other_shards(
        config in arb_config(),
        net_seed in 0u64..100,
        delta_seed in 0u64..100,
        burst in 1usize..6,
    ) {
        let g = generate_zoned(&config, net_seed);
        let mut engine =
            ShardedEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
        engine.solve().expect("cold solve");

        // Slot deltas confined to zone 0's hosts, each generated against
        // the state after its predecessors so the burst is always valid.
        let mut rng = StdRng::seed_from_u64(delta_seed);
        let zone0: Vec<HostId> = (0..config.hosts_per_zone as u32).map(HostId).collect();
        let mut scratch = engine.network().clone();
        let mut deltas = Vec::new();
        for _ in 0..burst {
            let host = zone0[rng.gen_range(0..zone0.len())];
            let h = scratch.host(host).expect("zone-0 host");
            let slot = rng.gen_range(0..h.services().len());
            let inst = &h.services()[slot];
            let service = inst.service();
            let delta = if inst.candidates().len() > 1 && rng.gen_bool(0.5) {
                let p = inst.candidates()[rng.gen_range(0..inst.candidates().len())];
                NetworkDelta::fix_slot(host, service, p)
            } else {
                NetworkDelta::unfix_slot(host, service, g.catalog.products_of(service).to_vec())
            };
            scratch
                .apply_delta(&delta, &g.catalog)
                .expect("slot delta valid against its staging state");
            deltas.push(delta);
        }

        let others: Vec<_> = (1..engine.shard_count())
            .map(|s| engine.shard_network(s).clone())
            .collect();
        let report = engine.apply_batch(&deltas).expect("confined burst applies");
        prop_assert!(report.shards_touched.iter().all(|&s| s == 0),
            "burst leaked outside shard 0: {:?}", report.shards_touched);
        for (i, before) in others.iter().enumerate() {
            let s = i + 1;
            prop_assert_eq!(engine.shard_network(s), before,
                "shard {} interior was mutated by a zone-0 burst", s);
            prop_assert!(report.shard_reports[s].is_none());
        }
        engine
            .assignment()
            .expect("solved")
            .validate(engine.network())
            .expect("valid assignment");
    }
}

/// The §VIII-size acceptance check: on a 240-host, 2-zone instance the
/// sharded fixpoint objective is within 1% of the single-engine solve
/// (it is usually *equal or better*, since both end in local optima of the
/// same model).
#[test]
fn sharded_objective_within_one_percent_of_single_engine_at_scale() {
    for (zones, seed) in [(2usize, 7u64), (2, 21), (4, 7)] {
        let g = generate_zoned(
            &ZonedNetworkConfig {
                zones,
                hosts_per_zone: 240 / zones,
                gateway_links: 2,
                mean_degree: 8,
                services: 4,
                products_per_service: 4,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            seed,
        );
        let mut sharded =
            ShardedEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
        let mut single = DiversityEngine::new(g.network, g.catalog, g.similarity);
        let sharded_report = sharded.solve().expect("sharded solve");
        let single_report = single.solve().expect("single solve");
        let gap = (sharded_report.objective - single_report.objective_after)
            / single_report.objective_after.abs().max(1e-9);
        assert!(
            gap < 0.01,
            "{zones} zones seed {seed}: sharded {:.4} vs single {:.4} (gap {:.2}%)",
            sharded_report.objective,
            single_report.objective_after,
            100.0 * gap
        );
        // And the identity holds at scale too.
        let full = full_model_objective(&sharded, sharded.assignment().expect("solved"));
        assert!((full - sharded_report.objective).abs() < 1e-9);
    }
}
