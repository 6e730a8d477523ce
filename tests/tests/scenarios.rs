//! Cross-crate property tests for the adversarial scenario suite: the
//! adaptive attacker loop is deterministic under a fixed seed (identical
//! MTTC trajectory and defender-lag across two runs), `CveFeed` bursts are
//! always valid on the topology they were generated for (`apply_batch`
//! never rejects one), and all three structured topology families solve
//! end-to-end through both `DiversityEngine` and `ShardedEngine`.

use proptest::prelude::*;

use ics_diversity::churn::{
    run_churn, Bursts, ChurnConfig, ChurnMode, CveFeed, CveFeedConfig, Drawn,
};
use ics_diversity::engine::DiversityEngine;
use ics_diversity::shard::ShardedEngine;
use ics_diversity::WriterCore;
use netmodel::topology::{
    generate, generate_fat_tree, generate_scale_free, generate_tiered_enterprise, FatTreeConfig,
    GeneratedNetwork, RandomNetworkConfig, ScaleFreeConfig, TieredEnterpriseConfig, TopologyKind,
};
use netmodel::HostId;
use sim::mttc::MttcOptions;

/// A small instance of each topology family, dialed by a proptest-drawn
/// size knob — the shapes `CveFeed` must stay valid on.
fn family_instance(family: usize, size: usize, seed: u64) -> GeneratedNetwork {
    match family % 4 {
        0 => generate(
            &RandomNetworkConfig {
                hosts: 6 + size,
                mean_degree: 4,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            seed,
        ),
        1 => generate_fat_tree(
            &FatTreeConfig {
                pods: 2,
                core_hosts: 2,
                agg_per_pod: 1,
                edge_per_pod: 2,
                hosts_per_edge: 1 + size / 4,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
            },
            seed,
        ),
        2 => generate_scale_free(
            &ScaleFreeConfig {
                hosts: 6 + size,
                edges_per_host: 2,
                attachment_exponent: 1.0,
                zones: 3,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
            },
            seed,
        ),
        _ => generate_tiered_enterprise(
            &TieredEnterpriseConfig {
                dmz_hosts: 2,
                internal_zones: 2,
                hosts_per_internal: 2 + size / 4,
                server_hosts: 2,
                spoke_links: 2,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
            },
            seed,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The adversary-in-the-loop replay is fully deterministic for a fixed
    /// seed: two fresh engines on the same instance produce the identical
    /// attack trajectory — entry/target picks, cluster census, MTTC means
    /// and the defender-lag column — and every defender-lag is finite.
    #[test]
    fn adaptive_loop_is_deterministic(
        hosts in 10usize..24,
        seed in 0u64..200,
        steps in 2usize..5,
    ) {
        let make = || {
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
            WriterCore::Single(DiversityEngine::new(g.network, g.catalog, g.similarity))
        };
        let config = ChurnConfig {
            steps,
            seed,
            mode: ChurnMode::Batched { mean_burst: 2.0 },
            mttc: MttcOptions { runs: 20, ..MttcOptions::default() },
            ..ChurnConfig::default()
        };
        let first = run_churn(&mut make(), &mut Bursts::Adaptive, &config).expect("replay runs");
        let second = run_churn(&mut make(), &mut Bursts::Adaptive, &config).expect("replay runs");
        prop_assert_eq!(first.len(), steps);
        prop_assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            prop_assert_eq!(a.entry, b.entry, "step {} entry", a.step);
            prop_assert_eq!(a.target, b.target, "step {} target", a.step);
            prop_assert!(matches!(a.drawn, Drawn::Recon { .. }), "step {} census", a.step);
            prop_assert_eq!(&a.drawn, &b.drawn, "step {} census", a.step);
            prop_assert_eq!(&a.deltas, &b.deltas, "step {} burst", a.step);
            prop_assert_eq!(a.mttc_before.mean_ticks(), b.mttc_before.mean_ticks());
            prop_assert_eq!(a.mttc_after.mean_ticks(), b.mttc_after.mean_ticks());
            prop_assert_eq!(a.lag_ticks, b.lag_ticks, "SweptWork lag is deterministic");
            prop_assert_eq!(a.defender_lag, b.defender_lag);
            prop_assert!(a.defender_lag.is_finite(), "defender-lag must be finite");
            prop_assert!(a.defender_lag >= 0.0, "defender-lag is a forfeited gain");
        }
    }

    /// `CveFeed` bursts are valid on the network they were generated for —
    /// `apply_batch` (all-or-nothing, staged) never rejects one — across
    /// all four topology shapes and as the network evolves burst over
    /// burst.
    #[test]
    fn cve_feed_bursts_never_reject(
        family in 0usize..4,
        size in 0usize..16,
        seed in 0u64..200,
        bursts in 1usize..10,
    ) {
        let g = family_instance(family, size, seed);
        let mut network = g.network;
        let mut feed = CveFeed::new(CveFeedConfig::default(), seed ^ 0xC5E);
        let protect = [HostId(0)];
        for round in 0..bursts {
            let burst = feed.next_burst(&network, &g.catalog, &g.similarity, &protect);
            prop_assert!(!burst.deltas.is_empty(), "a burst carries at least one delta");
            prop_assert!(burst.family.contains(&burst.advisory));
            let effect = network.apply_batch(&burst.deltas, &g.catalog);
            prop_assert!(
                effect.is_ok(),
                "burst {} rejected on family {}: {:?}",
                round,
                family,
                effect.err()
            );
        }
    }
}

/// Every structured family solves end-to-end through the single-network
/// engine *and* the zone-sharded engine on its default configuration, and
/// both committed assignments validate against the generated network.
#[test]
fn families_solve_through_both_engines() {
    let families: [(&str, GeneratedNetwork); 3] = [
        ("fat-tree", generate_fat_tree(&FatTreeConfig::default(), 7)),
        (
            "scale-free",
            generate_scale_free(
                &ScaleFreeConfig {
                    hosts: 48,
                    ..ScaleFreeConfig::default()
                },
                7,
            ),
        ),
        (
            "enterprise",
            generate_tiered_enterprise(
                &TieredEnterpriseConfig {
                    hosts_per_internal: 5,
                    ..TieredEnterpriseConfig::default()
                },
                7,
            ),
        ),
    ];
    for (name, g) in families {
        let mut single =
            DiversityEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
        single
            .solve()
            .unwrap_or_else(|e| panic!("{name} solves through DiversityEngine: {e}"));
        single
            .assignment()
            .expect("solved")
            .validate(single.network())
            .unwrap_or_else(|e| panic!("{name} single assignment validates: {e}"));

        let mut sharded = ShardedEngine::new(g.network.clone(), g.catalog, g.similarity);
        assert!(
            sharded.partition().shards().len() > 1,
            "{name} zone labels give the sharded engine real shards"
        );
        sharded
            .solve()
            .unwrap_or_else(|e| panic!("{name} solves through ShardedEngine: {e}"));
        sharded
            .assignment()
            .expect("solved")
            .validate(sharded.network())
            .unwrap_or_else(|e| panic!("{name} sharded assignment validates: {e}"));
    }
}
