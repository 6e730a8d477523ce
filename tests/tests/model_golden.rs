//! Golden digests of assembled energy models.
//!
//! Each case assembles an [`EnergyModel`] and pins an FNV-1a digest of
//! everything the public accessors show: per variable slot its label count
//! and unary bits, per live edge its slot, endpoints and every cost's
//! bits, every incidence list in order, the base energy's bits, and the
//! slot bindings. A change to how the MRF is assembled (the scratch
//! build, the cache's in-place edit, or its compacting reassembly) must
//! leave every digest as it is, bit for bit.
//!
//! The cases: the case study under C1 and under C2; the 960-host random
//! instance of the serving benchmark's `reads-960` workload; a cache after
//! a seeded burst stream with host removals, so tombstones and recycled
//! slots are pinned; and that cache shrunk by host removals until its
//! model asks for compaction, then refreshed once more, which must
//! reassemble it dense.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ics_diversity::cache::EnergyCache;
use ics_diversity::energy::{build_energy, EnergyModel, SlotBinding};
use mrf::VarId;
use netmodel::casestudy::CaseStudy;
use netmodel::catalog::ProductSimilarity;
use netmodel::constraints::ConstraintSet;
use netmodel::delta::{random_delta, NetworkDelta};
use netmodel::network::Network;
use netmodel::topology::{generate, RandomNetworkConfig, TopologyKind};
use netmodel::HostId;

/// FNV-1a over a stream of `u64`s, each fed as eight little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The digest of every part of `energy` the public accessors expose.
fn digest(energy: &EnergyModel) -> u64 {
    let model = energy.model();
    let mut h = Fnv::new();
    h.eat(model.var_count() as u64);
    for v in 0..model.var_count() {
        h.eat(model.labels(VarId(v)) as u64);
        for u in model.unary(VarId(v)) {
            h.eat(u.to_bits());
        }
    }
    h.eat(model.edge_slots() as u64);
    for (slot, edge) in model.live_edges() {
        h.eat(slot as u64);
        h.eat(edge.a().0 as u64);
        h.eat(edge.b().0 as u64);
        for la in 0..model.labels(edge.a()) {
            for lb in 0..model.labels(edge.b()) {
                h.eat(model.edge_cost(edge, la, lb).to_bits());
            }
        }
    }
    for v in 0..model.var_count() {
        let incident = model.incident_edges(VarId(v));
        h.eat(incident.len() as u64);
        for &e in incident {
            h.eat(u64::from(e));
        }
    }
    h.eat(energy.base_energy().to_bits());
    h.eat(energy.slots().len() as u64);
    for row in energy.slots() {
        h.eat(row.len() as u64);
        for binding in row {
            match binding {
                SlotBinding::Fixed(p) => {
                    h.eat(0);
                    h.eat(u64::from(p.0));
                }
                SlotBinding::Variable { var, candidates } => {
                    h.eat(1);
                    h.eat(var.0 as u64);
                    h.eat(candidates.len() as u64);
                    for p in candidates.iter() {
                        h.eat(u64::from(p.0));
                    }
                }
            }
        }
    }
    h.0
}

/// A cache built for `network` under `constraints`.
fn cache_for(
    network: &Network,
    similarity: &ProductSimilarity,
    constraints: &ConstraintSet,
) -> EnergyCache {
    EnergyCache::new(network, similarity, constraints).expect("feasible instance")
}

/// The scratch build of `network` under `constraints`.
fn scratch(
    network: &Network,
    similarity: &ProductSimilarity,
    constraints: &ConstraintSet,
) -> EnergyModel {
    build_energy(network, similarity, constraints).expect("feasible instance")
}

#[test]
fn case_study_models_are_pinned() {
    let cs = CaseStudy::build();
    for (name, constraints, golden) in [
        ("c1", cs.constraints_c1(), 0x0ef5_d0eb_7e31_ddbcu64),
        ("c2", cs.constraints_c2(), 0x0db0_d245_cd6b_6e07),
    ] {
        let energy = scratch(&cs.network, &cs.similarity, &constraints);
        assert_eq!(
            digest(&energy),
            golden,
            "case study under {name}: {:#018x}",
            digest(&energy)
        );
    }
}

#[test]
fn reads_960_model_is_pinned() {
    let g = generate(
        &RandomNetworkConfig {
            hosts: 960,
            mean_degree: 8,
            services: 4,
            products_per_service: 4,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        777,
    );
    let energy = scratch(&g.network, &g.similarity, &ConstraintSet::new());
    assert_eq!(energy.model().live_var_count(), energy.model().var_count());
    assert_eq!(
        digest(&energy),
        0xb276_cdcd_3796_1361,
        "reads-960: {:#018x}",
        digest(&energy)
    );
}

#[test]
fn edited_and_compacted_cache_models_are_pinned() {
    let g = generate(
        &RandomNetworkConfig {
            hosts: 48,
            mean_degree: 4,
            services: 3,
            products_per_service: 3,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        2027,
    );
    let mut net = g.network.clone();
    let mut cache = cache_for(&net, &g.similarity, &ConstraintSet::new());
    let mut rng = StdRng::seed_from_u64(91);
    let (mut edits, mut removals) = (0, 0);
    for _ in 0..30 {
        let len = rng.gen_range(1usize..=6);
        let mut staged = net.clone();
        let burst: Vec<NetworkDelta> = (0..len)
            .map(|_| {
                let delta = random_delta(&staged, &g.catalog, &mut rng, &[HostId(0)]);
                staged.apply_delta(&delta, &g.catalog).expect("valid delta");
                delta
            })
            .collect();
        removals += burst
            .iter()
            .filter(|d| matches!(d, NetworkDelta::RemoveHost { .. }))
            .count();
        let effect = net.apply_batch(&burst, &g.catalog).expect("valid burst");
        let stats = cache
            .refresh_hinted(&net, &g.similarity, Some(&effect.touched))
            .expect("unconstrained refreshes are feasible");
        edits += usize::from(stats.edited);
    }
    assert!(
        edits > 0 && removals > 0,
        "{edits} edits, {removals} removals"
    );
    let model = cache.model().model();
    assert!(
        model.live_var_count() < model.var_count(),
        "the stream leaves tombstones"
    );
    assert_eq!(
        digest(cache.model()),
        0x4573_2287_0d6c_535c,
        "edited cache: {:#018x}",
        digest(cache.model())
    );

    // Shrink one host removal per refresh until the model asks for
    // compaction; the refresh after that must reassemble, dense.
    let mut live: Vec<HostId> = net
        .iter_hosts()
        .filter(|(h, host)| *h != HostId(0) && !host.is_removed())
        .map(|(h, _)| h)
        .collect();
    let mut remove_next = |net: &mut Network, cache: &mut EnergyCache| {
        let host = live.pop().expect("a removable host is left");
        let effect = net
            .apply_delta(&NetworkDelta::remove_host(host), &g.catalog)
            .expect("live host");
        cache
            .refresh_hinted(net, &g.similarity, Some(&effect.touched))
            .expect("removals are feasible")
    };
    while !cache.model().model().should_compact() {
        let stats = remove_next(&mut net, &mut cache);
        assert!(stats.rebuilt && stats.edited, "a shrinking cache edits");
    }
    let stats = remove_next(&mut net, &mut cache);
    assert!(stats.rebuilt && !stats.edited, "the compacting refresh");
    let model = cache.model().model();
    assert_eq!(model.var_count(), model.live_var_count());
    assert_eq!(model.edge_slots(), model.edge_count());
    assert!(!model.should_compact());
    assert_eq!(
        digest(cache.model()),
        0x2d53_333f_b924_e811,
        "compacted cache: {:#018x}",
        digest(cache.model())
    );
}
