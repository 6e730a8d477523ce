//! Golden outputs of the engines' warm steps.
//!
//! Seeded delta streams run through three setups: a default
//! `DiversityEngine` (ICM warm refiner), the same engine with a TRW-S
//! refiner, and a two-zone `ShardedEngine`, which pins its boundary hosts
//! against local re-solves. The single-engine streams cover localized
//! bursts, a warm `solve()` that touches nothing, and a small shrinking
//! stream that leaves the model more than half tombstoned yet under the
//! 32-dead-slot compaction floor, so a whole-model re-solve runs on a
//! fragmented model. The sharded stream covers bursts confined to one
//! zone and bursts that cross the zone boundary.
//!
//! For every step the test pins an FNV-1a digest of the committed rows,
//! each re-solve's `localized` flag and `swept_vars` exactly, and the
//! objective to within 1e-9 relative. A refactor of the warm re-solve
//! path must leave all of them as they are.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ics_diversity::engine::{DiversityEngine, ReassignmentReport};
use ics_diversity::shard::{ShardReport, ShardedEngine};
use mrf::solver::MapSolver;
use mrf::trws::Trws;
use netmodel::assignment::Assignment;
use netmodel::catalog::Catalog;
use netmodel::delta::{random_delta, NetworkDelta};
use netmodel::network::Network;
use netmodel::topology::{
    generate, generate_zoned, RandomNetworkConfig, TopologyKind, ZonedNetworkConfig,
};
use netmodel::HostId;

/// One pinned step: the committed rows' digest, `(shard, localized,
/// swept_vars)` of each re-solve (shard 0 for the single engine), and the
/// objective.
type Golden = (u64, &'static [(usize, bool, usize)], f64);

/// What a step actually did, in the shape of [`Golden`].
#[derive(Debug)]
struct Observed {
    rows: u64,
    solves: Vec<(usize, bool, usize)>,
    objective: f64,
}

/// FNV-1a over every row of the assignment: the row length, then each
/// product id, all as eight little-endian bytes.
fn digest(assignment: &Assignment) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for row in assignment.rows() {
        eat(row.len() as u64);
        for p in row {
            eat(u64::from(p.0));
        }
    }
    h
}

fn observe(engine: &DiversityEngine, report: &ReassignmentReport) -> Observed {
    Observed {
        rows: digest(engine.assignment().expect("a step committed rows")),
        solves: vec![(0, report.localized, report.swept_vars)],
        objective: report.objective_after,
    }
}

fn observe_sharded(engine: &ShardedEngine, report: &ShardReport) -> Observed {
    Observed {
        rows: digest(engine.assignment().expect("a step committed rows")),
        solves: report
            .shard_reports
            .iter()
            .enumerate()
            .filter_map(|(s, r)| r.as_ref().map(|r| (s, r.localized, r.swept_vars)))
            .collect(),
        objective: report.objective,
    }
}

/// Compares a run against its pinned steps; on a mismatch the message
/// carries the whole observed table, ready to paste.
fn check(name: &str, got: &[Observed], want: &[Golden]) {
    let table: String = got
        .iter()
        .map(|o| {
            format!(
                "        ({:#018x}, &{:?}, {:?}),\n",
                o.rows, o.solves, o.objective
            )
        })
        .collect();
    assert_eq!(
        got.len(),
        want.len(),
        "{name}: step count; observed\n{table}"
    );
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.rows == w.0
            && g.solves == w.1
            && (g.objective - w.2).abs() <= 1e-9 * w.2.abs().max(1.0);
        assert!(
            same,
            "{name}: step {i} moved ({g:?} vs {w:?}); observed\n{table}"
        );
    }
}

/// A burst of one to four random deltas, valid in order from `network`.
fn random_burst(network: &Network, catalog: &Catalog, rng: &mut StdRng) -> Vec<NetworkDelta> {
    let mut scratch = network.clone();
    (0..rng.gen_range(1..5))
        .map(|_| {
            let delta = random_delta(&scratch, catalog, rng, &[HostId(0)]);
            scratch
                .apply_delta(&delta, catalog)
                .expect("generated deltas are valid");
            delta
        })
        .collect()
}

/// The single-engine streams through an engine built by `make`: a
/// 150-host network taking twelve random bursts and then a warm `solve()`
/// that touches nothing, then a 24-host ring shrunk to 10 hosts, re-solved
/// warm with nothing touched, mandated on two hosts and re-solved again.
fn single_engine_run(make: impl Fn(DiversityEngine) -> DiversityEngine) -> Vec<Observed> {
    let mut out = Vec::new();

    let g = generate(
        &RandomNetworkConfig {
            hosts: 150,
            mean_degree: 4,
            services: 2,
            products_per_service: 3,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        2001,
    );
    let mut eng = make(DiversityEngine::new(g.network, g.catalog, g.similarity));
    let report = eng.solve().expect("cold solve");
    out.push(observe(&eng, &report));
    let mut rng = StdRng::seed_from_u64(2002);
    for _ in 0..12 {
        let burst = random_burst(eng.network(), eng.catalog(), &mut rng);
        let report = eng.apply_batch(&burst).expect("valid burst applies");
        assert!(report.warm_started);
        out.push(observe(&eng, &report));
    }
    let report = eng.solve().expect("warm solve");
    assert!(report.touched.is_empty());
    out.push(observe(&eng, &report));

    // One service per host on a ring: one variable slot and two edges per
    // host, so removing 14 of 24 hosts leaves 14 dead variable slots of 24
    // (more than half) and at most 24 dead edges, both under the
    // 32-dead-slot floor below which the model is never compacted.
    let g = generate(
        &RandomNetworkConfig {
            hosts: 24,
            mean_degree: 2,
            services: 1,
            products_per_service: 3,
            vendors_per_service: 2,
            topology: TopologyKind::Ring,
        },
        2003,
    );
    let mut eng = make(DiversityEngine::new(g.network, g.catalog, g.similarity));
    let report = eng.solve().expect("cold solve");
    assert_eq!(report.rebuild.variables, 24);
    out.push(observe(&eng, &report));
    for h in [1u32, 3, 5, 8, 10, 12, 13, 15, 17, 19, 20, 21, 22, 23] {
        let report = eng
            .apply(&NetworkDelta::remove_host(HostId(h)))
            .expect("removal applies");
        assert!(report.rebuild.edited, "the shrinking model was reassembled");
        out.push(observe(&eng, &report));
    }
    let report = eng.solve().expect("warm solve");
    assert_eq!(report.rebuild.variables, 10, "10 live of 24 variable slots");
    out.push(observe(&eng, &report));
    let service = eng.catalog().service_by_name("service0").expect("service");
    let products = eng.catalog().products_of(service).to_vec();
    let mandates = [
        NetworkDelta::fix_slot(HostId(6), service, products[0]),
        NetworkDelta::fix_slot(HostId(16), service, products[1]),
    ];
    let report = eng.apply_batch(&mandates).expect("mandates apply");
    assert!(report.rebuild.edited);
    out.push(observe(&eng, &report));
    let report = eng.solve().expect("warm solve");
    out.push(observe(&eng, &report));
    out
}

/// The sharded stream: two 60-host zones joined by six gateway links,
/// six bursts confined to one zone (alternating), four bursts that cross
/// the boundary, and a warm `solve()` that touches nothing.
fn sharded_run() -> Vec<Observed> {
    let g = generate_zoned(
        &ZonedNetworkConfig {
            zones: 2,
            hosts_per_zone: 60,
            gateway_links: 6,
            mean_degree: 4,
            services: 2,
            products_per_service: 3,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        2004,
    );
    let zone_hosts = |zone: &str| -> Vec<HostId> {
        g.network
            .iter_hosts()
            .filter(|(_, h)| h.zone() == Some(zone))
            .map(|(id, _)| id)
            .collect()
    };
    let zones = [zone_hosts("zone0"), zone_hosts("zone1")];
    let mut eng = ShardedEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
    let mut out = Vec::new();
    let report = eng.solve().expect("cold solve");
    out.push(observe_sharded(&eng, &report));

    let mut rng = StdRng::seed_from_u64(2005);
    // A mandate (or its lifting) on a random slot of a random zone host.
    let mandate = |rng: &mut StdRng, zone: &[HostId]| {
        let host = zone[rng.gen_range(0..zone.len())];
        let slot: usize = rng.gen_range(0..2);
        let service = g.network.host(host).expect("host").services()[slot].service();
        let products = g.catalog.products_of(service);
        if rng.gen_bool(0.7) {
            NetworkDelta::fix_slot(host, service, products[rng.gen_range(0..products.len())])
        } else {
            NetworkDelta::unfix_slot(host, service, products.to_vec())
        }
    };
    for step in 0..6 {
        let zone = &zones[step % 2];
        let burst: Vec<NetworkDelta> = (0..3).map(|_| mandate(&mut rng, zone)).collect();
        let report = eng.apply_batch(&burst).expect("confined burst applies");
        assert_eq!(
            report.shards_touched.len(),
            1,
            "the burst stays in one zone"
        );
        out.push(observe_sharded(&eng, &report));
    }
    for _ in 0..4 {
        let a = zones[0][rng.gen_range(0..zones[0].len())];
        let b = zones[1][rng.gen_range(0..zones[1].len())];
        let link = if eng.network().linked(a, b) {
            NetworkDelta::remove_link(a, b)
        } else {
            NetworkDelta::add_link(a, b)
        };
        let burst = vec![
            link,
            mandate(&mut rng, &zones[0]),
            mandate(&mut rng, &zones[1]),
        ];
        let report = eng.apply_batch(&burst).expect("cross-zone burst applies");
        out.push(observe_sharded(&eng, &report));
    }
    let report = eng.solve().expect("warm solve");
    out.push(observe_sharded(&eng, &report));
    out
}

#[test]
fn default_engine_warm_steps_are_pinned() {
    check(
        "icm",
        &single_engine_run(|e| e),
        &[
            (0x2ded7b44fbc5a423, &[(0, false, 300)], 83.97264536473006),
            (0x2ded7b44fbc5a423, &[(0, true, 33)], 83.84275763703992),
            (0x64b32662d4f9cc66, &[(0, true, 45)], 85.91416303569034),
            (0x64b32662d4f9cc66, &[(0, true, 38)], 85.69042051995707),
            (0xf990c0e21b0c0de7, &[(0, true, 59)], 86.75081377815854),
            (0xf990c0e21b0c0de7, &[(0, true, 34)], 86.75081377815854),
            (0xe4795ba74efde726, &[(0, true, 86)], 85.71003833840156),
            (0xcb9069c8a8141843, &[(0, true, 12)], 86.722390324643),
            (0x342c78345617c122, &[(0, true, 49)], 84.57851714972664),
            (0x7d0004c894f3e5e1, &[(0, true, 80)], 87.39815760914546),
            (0x26a193c5c7324982, &[(0, true, 71)], 87.10086009469865),
            (0x35717356ac758783, &[(0, true, 27)], 86.72722985127525),
            (0x35717356ac758783, &[(0, true, 30)], 86.8743790343371),
            (0x35717356ac758783, &[(0, false, 299)], 86.87437903433717),
            (0x68bba1c56b8a5e25, &[(0, false, 24)], 0.38591120140672286),
            (0xe0986333a377a385, &[(0, true, 4)], 0.3637519346228293),
            (0x01955dc2d7ac6f05, &[(0, true, 3)], 0.3415926678389357),
            (0x186f03a6a8d36865, &[(0, true, 3)], 0.31943340105504214),
            (0xbdebd2b1cd79fdc4, &[(0, true, 4)], 0.29727413427114857),
            (0xae8595eac6c2af65, &[(0, true, 3)], 0.275114867487255),
            (0x27e2f55fa83554c4, &[(0, true, 3)], 0.2529556007033614),
            (0xd67cf5319721cc44, &[(0, true, 2)], 0.23687596731141464),
            (0x5e13739b01e841a4, &[(0, true, 3)], 0.21471670052752106),
            (0x3a3b00f1f908cd24, &[(0, true, 3)], 0.1925574337436275),
            (0x8aaa7deb0712f684, &[(0, true, 3)], 0.17039816695973392),
            (0xea66df96e296fe05, &[(0, true, 2)], 0.15431853356778713),
            (0x51e3cfa57d965765, &[(0, true, 2)], 0.13823890017584034),
            (0xa17d6c86ee0bfaa4, &[(0, true, 2)], 0.12215926678389355),
            (0x7f65f1f9b9f08404, &[(0, true, 1)], 0.10607963339194676),
            (0x7f65f1f9b9f08404, &[(0, false, 10)], 0.10607963339194677),
            (0x515cf7c7cecd0ea5, &[(0, true, 1)], 0.08607963339194677),
            (0x515cf7c7cecd0ea5, &[(0, false, 8)], 0.08607963339194677),
        ],
    );
}

#[test]
fn trws_refiner_warm_steps_are_pinned() {
    let trws = |e: DiversityEngine| e.with_refiner(Box::new(Trws::default()) as Box<dyn MapSolver>);
    check(
        "trws",
        &single_engine_run(trws),
        &[
            (0x2ded7b44fbc5a423, &[(0, false, 300)], 83.97264536473006),
            (0x3e5f972e793cd184, &[(0, true, 41)], 82.42410929586467),
            (0xe24b712f0d07ed23, &[(0, true, 61)], 83.48213838125481),
            (0xc544b17ed08ddf47, &[(0, true, 59)], 81.32550754039158),
            (0x4db513fb3d58bc62, &[(0, true, 64)], 81.48999574367761),
            (0x2aeedd884e81d445, &[(0, true, 38)], 82.33156873643055),
            (0x2130d7e2706fb702, &[(0, true, 80)], 81.36170326147239),
            (0x6a406950e49eb962, &[(0, true, 11)], 81.44164712531747),
            (0xdd33c7236dd2d7e6, &[(0, true, 53)], 78.41569703220522),
            (0x3f8fe6737f06b9a7, &[(0, true, 105)], 79.05903025996804),
            (0x23c4a7df85e01c03, &[(0, true, 65)], 80.20832336510625),
            (0x7a1d175050f61384, &[(0, true, 28)], 79.9936806262131),
            (0xbf6456d0ec1c1a07, &[(0, true, 32)], 80.6338503083198),
            (0xbf6456d0ec1c1a07, &[(0, false, 299)], 80.6338503083198),
            (0x68bba1c56b8a5e25, &[(0, false, 24)], 0.38591120140672286),
            (0xe0986333a377a385, &[(0, true, 4)], 0.3637519346228293),
            (0x01955dc2d7ac6f05, &[(0, true, 3)], 0.34159266783893566),
            (0x186f03a6a8d36865, &[(0, true, 3)], 0.3194334010550421),
            (0xbdebd2b1cd79fdc4, &[(0, true, 4)], 0.2972741342711485),
            (0xae8595eac6c2af65, &[(0, true, 3)], 0.27511486748725494),
            (0x27e2f55fa83554c4, &[(0, true, 3)], 0.25295560070336137),
            (0xd67cf5319721cc44, &[(0, true, 2)], 0.23687596731141458),
            (0x5e13739b01e841a4, &[(0, true, 3)], 0.214716700527521),
            (0x3a3b00f1f908cd24, &[(0, true, 3)], 0.19255743374362744),
            (0x8aaa7deb0712f684, &[(0, true, 3)], 0.17039816695973387),
            (0xea66df96e296fe05, &[(0, true, 2)], 0.15431853356778708),
            (0x51e3cfa57d965765, &[(0, true, 2)], 0.13823890017584028),
            (0xa17d6c86ee0bfaa4, &[(0, true, 2)], 0.1221592667838935),
            (0x7f65f1f9b9f08404, &[(0, true, 1)], 0.1060796333919467),
            (0xa26f258dd968ede4, &[(0, false, 10)], 0.10607963339194677),
            (0x74662b5bee457885, &[(0, true, 1)], 0.08607963339194677),
            (0x74662b5bee457885, &[(0, false, 8)], 0.08607963339194677),
        ],
    );
}

#[test]
fn sharded_warm_steps_are_pinned() {
    check(
        "sharded",
        &sharded_run(),
        &[
            (
                0x9e4315d76f68f185,
                &[(0, false, 120), (1, false, 120)],
                64.8671212233674,
            ),
            (0x5eb1a08bffe0cba4, &[(0, true, 16)], 67.76508588444185),
            (0x1d0812c94bfac064, &[(1, true, 21)], 68.08737164197231),
            (0x9f3bb5492fc4e327, &[(0, true, 26)], 70.32028784691457),
            (0x4a6cd7ea6af591e7, &[(1, true, 21)], 70.3081097018395),
            (0x0fe84001aa5a9186, &[(0, true, 23)], 71.21560832115522),
            (0x9814311c086454a7, &[(1, true, 27)], 73.15139503627614),
            (
                0x9bc11e2f00fb5d24,
                &[(0, true, 9), (1, true, 13)],
                69.83617464977783,
            ),
            (
                0x65f5807e5a8f45a0,
                &[(0, true, 5), (1, true, 18)],
                69.88205830291551,
            ),
            (
                0xc3f4dc6a42863aa6,
                &[(0, true, 12), (1, true, 11)],
                72.4055366026248,
            ),
            (
                0xcd2e0bb354e13f26,
                &[(0, true, 9), (1, true, 20)],
                72.7463972694993,
            ),
            (
                0xcd2e0bb354e13f26,
                &[(0, false, 94), (1, false, 92)],
                72.7463972694993,
            ),
        ],
    );
}
