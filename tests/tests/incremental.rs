//! Property tests for the incremental pipeline: a cache that absorbed an
//! arbitrary delta stream must be indistinguishable from a scratch build,
//! and an engine carrying its labeling across steps must match the full
//! derivation at every step.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ics_diversity::cache::EnergyCache;
use ics_diversity::energy::{build_energy, EnergyModel};
use ics_diversity::engine::{DiversityEngine, ReassignmentReport};
use ics_diversity::shard::ShardedEngine;
use ics_diversity::Error;
use netmodel::catalog::Catalog;
use netmodel::constraints::{Constraint, ConstraintSet, Scope};
use netmodel::delta::{random_delta, NetworkDelta};
use netmodel::network::Network;
use netmodel::topology::{
    generate, generate_zoned, GeneratedNetwork, RandomNetworkConfig, TopologyKind,
    ZonedNetworkConfig,
};
use netmodel::{HostId, ServiceId};

/// Structural + energetic equivalence of two models. The incremental model
/// edits in place and recycles variable ids, so the comparison is semantic:
/// same binding structure and candidates per slot, same live counts, and
/// matching energies for random slot assignments encoded through each
/// model's own variable ids.
fn assert_models_match(
    incremental: &EnergyModel,
    scratch: &EnergyModel,
    rng: &mut StdRng,
) -> Result<(), TestCaseError> {
    use ics_diversity::energy::SlotBinding;
    prop_assert_eq!(incremental.slots().len(), scratch.slots().len());
    for (ra, rb) in incremental.slots().iter().zip(scratch.slots().iter()) {
        prop_assert_eq!(ra.len(), rb.len());
        for (ba, bb) in ra.iter().zip(rb.iter()) {
            match (ba, bb) {
                (SlotBinding::Fixed(pa), SlotBinding::Fixed(pb)) => prop_assert_eq!(pa, pb),
                (
                    SlotBinding::Variable { candidates: ca, .. },
                    SlotBinding::Variable { candidates: cb, .. },
                ) => prop_assert_eq!(ca, cb),
                _ => {
                    return Err(TestCaseError::Fail(format!(
                        "binding kind mismatch: {ba:?} vs {bb:?}"
                    )))
                }
            }
        }
    }
    prop_assert_eq!(
        incremental.model().live_var_count(),
        scratch.model().live_var_count()
    );
    prop_assert_eq!(
        incremental.model().edge_count(),
        scratch.model().edge_count()
    );
    prop_assert!((incremental.base_energy() - scratch.base_energy()).abs() < 1e-12);
    // Random slot assignments, encoded per model through its own slots so
    // differing variable ids cannot skew the comparison.
    let encode = |m: &EnergyModel, picks: &[Vec<usize>]| {
        let mut labels = vec![0usize; m.model().var_count()];
        for (host, row) in m.slots().iter().enumerate() {
            for (slot, binding) in row.iter().enumerate() {
                if let SlotBinding::Variable { var, candidates } = binding {
                    labels[var.0] = picks[host][slot] % candidates.len();
                }
            }
        }
        labels
    };
    for _ in 0..8 {
        let picks: Vec<Vec<usize>> = incremental
            .slots()
            .iter()
            .map(|row| row.iter().map(|_| rng.gen_range(0..64usize)).collect())
            .collect();
        let a =
            incremental.model().energy(&encode(incremental, &picks)) + incremental.base_energy();
        let b = scratch.model().energy(&encode(scratch, &picks)) + scratch.base_energy();
        // Relative tolerance: the two models sum identical terms in
        // different orders, and constraint penalties push totals to ~1e7.
        prop_assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "energy mismatch: {} vs {}",
            a,
            b
        );
    }
    Ok(())
}

/// A small random constraint set over the generated catalog: one Fix plus a
/// forbid and a require combination (needs ≥ 2 services to be non-vacuous).
fn random_constraints(g: &GeneratedNetwork, rng: &mut StdRng) -> ConstraintSet {
    let pick = |s: ServiceId, rng: &mut StdRng| {
        let ps = g.catalog.products_of(s);
        ps[rng.gen_range(0..ps.len())]
    };
    let s0 = ServiceId(0);
    let mut set = ConstraintSet::new();
    let host = HostId(rng.gen_range(0..g.network.host_count() as u32));
    set.push(Constraint::fix(host, s0, pick(s0, rng)));
    if g.catalog.service_count() >= 2 {
        let s1 = ServiceId(1);
        set.push(Constraint::forbid_combination(
            Scope::All,
            (s0, pick(s0, rng)),
            (s1, pick(s1, rng)),
        ));
        let h = HostId(rng.gen_range(0..g.network.host_count() as u32));
        set.push(Constraint::require_combination(
            Scope::Host(h),
            (s1, pick(s1, rng)),
            (s0, pick(s0, rng)),
        ));
    }
    set
}

/// A burst of one to four random deltas (every kind `random_delta` draws),
/// valid in order from `network`; `protect`ed hosts are never removed.
fn random_burst(
    network: &Network,
    catalog: &Catalog,
    rng: &mut StdRng,
    protect: &[HostId],
) -> Vec<NetworkDelta> {
    let mut scratch = network.clone();
    (0..rng.gen_range(1..5))
        .map(|_| {
            let delta = random_delta(&scratch, catalog, rng, protect);
            scratch
                .apply_delta(&delta, catalog)
                .expect("generated deltas are valid");
            delta
        })
        .collect()
}

/// Which step kinds a stream drove the engine through.
#[derive(Debug, Default)]
struct Paths {
    /// A warm step after an in-place edit: the carried path.
    edited: bool,
    /// A warm step after a reassembling refresh: the full derivation.
    reassembled: bool,
    infeasible: bool,
    unsatisfiable: bool,
}

impl Paths {
    /// Records one step's outcome; only the two constraint errors a
    /// constrained stream legitimately produces are accepted.
    fn absorb(
        &mut self,
        step: ics_diversity::Result<ReassignmentReport>,
    ) -> Result<(), TestCaseError> {
        match step {
            Ok(report) => {
                if report.warm_started && report.rebuild.rebuilt {
                    if report.rebuild.edited {
                        self.edited = true;
                    } else {
                        self.reassembled = true;
                    }
                }
                Ok(())
            }
            Err(Error::Infeasible { .. }) => {
                self.infeasible = true;
                Ok(())
            }
            Err(Error::UnsatisfiableConstraints { .. }) => {
                self.unsatisfiable = true;
                Ok(())
            }
            Err(e) => Err(TestCaseError::Fail(format!("unexpected step error: {e}"))),
        }
    }

    fn stream(
        &mut self,
        engine: &mut DiversityEngine,
        rng: &mut StdRng,
        bursts: usize,
        protect: &[HostId],
    ) -> Result<(), TestCaseError> {
        for _ in 0..bursts {
            let burst = random_burst(engine.network(), engine.catalog(), rng, protect);
            self.absorb(engine.apply_batch(&burst))?;
        }
        Ok(())
    }
}

fn arb_config() -> impl Strategy<Value = RandomNetworkConfig> {
    (2usize..16, 1usize..5, 1usize..4, 2usize..5).prop_map(|(hosts, degree, services, products)| {
        RandomNetworkConfig {
            hosts,
            mean_degree: degree,
            services,
            products_per_service: products,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random delta sequence pushed through `EnergyCache::refresh`
    /// yields a model whose structure and energies match a from-scratch
    /// `build_energy` on the resulting network.
    #[test]
    fn cache_matches_scratch_after_any_delta_sequence(
        config in arb_config(),
        net_seed in 0u64..200,
        delta_seed in 0u64..200,
        steps in 1usize..12,
    ) {
        let g = generate(&config, net_seed);
        let mut network = g.network;
        let constraints = ConstraintSet::new();
        let mut cache = EnergyCache::new(&network, &g.similarity, &constraints)
            .expect("generated instances are feasible");
        let mut rng = StdRng::seed_from_u64(delta_seed);
        for _ in 0..steps {
            let delta = random_delta(&network, &g.catalog, &mut rng, &[]);
            network.apply_delta(&delta, &g.catalog).expect("generated deltas are valid");
            cache.refresh(&network, &g.similarity).expect("unconstrained refresh succeeds");
        }
        let scratch = build_energy(&network, &g.similarity, &constraints)
            .expect("scratch build succeeds");
        assert_models_match(cache.model(), &scratch, &mut rng)?;
    }

    /// The same equivalence under a non-trivial constraint set — covering
    /// the per-host rewrite of the old global constraint-filtering
    /// fixpoint. Constraints can make a revision (or the initial build)
    /// infeasible; cache and scratch must then *agree* on infeasibility.
    #[test]
    fn cache_matches_scratch_under_constraints(
        config in arb_config(),
        net_seed in 0u64..120,
        delta_seed in 0u64..120,
        steps in 1usize..10,
    ) {
        let g = generate(&config, net_seed);
        let mut rng = StdRng::seed_from_u64(delta_seed ^ 0xC0FFEE);
        let constraints = random_constraints(&g, &mut rng);
        let mut network = g.network.clone();
        let cache = EnergyCache::new(&network, &g.similarity, &constraints);
        let mut cache = match (cache, build_energy(&network, &g.similarity, &constraints)) {
            (Ok(cache), Ok(scratch)) => {
                assert_models_match(cache.model(), &scratch, &mut rng)?;
                cache
            }
            (Err(_), Err(_)) => return Ok(()), // agree: infeasible instance
            (c, s) => {
                return Err(TestCaseError::Fail(format!(
                    "feasibility disagreement at build: cache {:?} vs scratch {:?}",
                    c.map(|_| ()), s.map(|_| ())
                )));
            }
        };
        for _ in 0..steps {
            let delta = random_delta(&network, &g.catalog, &mut rng, &[]);
            network.apply_delta(&delta, &g.catalog).expect("generated deltas are valid");
            let refreshed = cache.refresh(&network, &g.similarity);
            let scratch = build_energy(&network, &g.similarity, &constraints);
            match (refreshed, scratch) {
                (Ok(_), Ok(scratch)) => assert_models_match(cache.model(), &scratch, &mut rng)?,
                // Both sides reject the revision: the (kept) cached model
                // stays at the previous revision; stop the sequence here.
                (Err(_), Err(_)) => return Ok(()),
                (c, s) => {
                    return Err(TestCaseError::Fail(format!(
                        "feasibility disagreement after {delta}: cache {:?} vs scratch {:?}",
                        c.map(|_| ()), s.map(|_| ())
                    )));
                }
            }
        }
    }

    /// The engine's warm re-solve never does worse than carrying the old
    /// assignment forward, and its assignments always validate.
    #[test]
    fn engine_resolve_dominates_carrying_forward(
        config in arb_config(),
        net_seed in 0u64..100,
        delta_seed in 0u64..100,
        steps in 1usize..8,
    ) {
        let g = generate(&config, net_seed);
        let mut engine = DiversityEngine::new(g.network, g.catalog, g.similarity);
        engine.solve().expect("cold solve succeeds");
        let mut rng = StdRng::seed_from_u64(delta_seed);
        for _ in 0..steps {
            let delta = random_delta(engine.network(), engine.catalog(), &mut rng, &[HostId(0)]);
            let report = engine.apply(&delta).expect("unconstrained deltas apply");
            prop_assert!(report.warm_started);
            prop_assert!(report.improvement().expect("warm step") >= -1e-9);
            engine
                .assignment()
                .expect("solved")
                .validate(engine.network())
                .expect("assignment is valid");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// In debug builds every engine step audits its carried state against
    /// the full derivation: start labels, carried and final objectives,
    /// both assignments and the changed hosts. This drives a constrained
    /// engine through bursts of every delta kind, an `Infeasible` and an
    /// `UnsatisfiableConstraints` step, a reconfiguration, and a shrink
    /// that trips compaction (a reassembling refresh), then a sharded
    /// engine through pinned warm steps and coordinator write-backs — and
    /// requires both refresh kinds to have occurred.
    #[test]
    fn carried_steps_match_the_full_derivation(
        net_seed in 0u64..200,
        delta_seed in 0u64..200,
        bursts in 3usize..8,
    ) {
        let g = generate(
            &RandomNetworkConfig {
                hosts: 48,
                mean_degree: 3,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            net_seed,
        );
        let mut rng = StdRng::seed_from_u64(delta_seed);
        let (s0, s1) = (ServiceId(0), ServiceId(1));
        let products = |s: ServiceId| g.catalog.products_of(s).to_vec();
        let candidates = |net: &Network, h: HostId| {
            net.host(h).expect("live host").candidates_for(s0).expect("runs s0").to_vec()
        };
        let (fixed, doomed) = (HostId(1), HostId(2));
        let p_fixed = candidates(&g.network, fixed)[0];
        let mut base = ConstraintSet::new();
        base.push(Constraint::fix(fixed, s0, p_fixed));
        base.push(Constraint::forbid_combination(
            Scope::All,
            (s0, products(s0)[rng.gen_range(0..3usize)]),
            (s1, products(s1)[rng.gen_range(0..3usize)]),
        ));
        base.push(Constraint::require_combination(
            Scope::Host(HostId(rng.gen_range(3..48u32))),
            (s1, products(s1)[rng.gen_range(0..3usize)]),
            (s0, products(s0)[rng.gen_range(0..3usize)]),
        ));
        let mut engine = DiversityEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone())
            .with_constraints(base.clone());
        let protect = [fixed, doomed];
        let mut paths = Paths::default();
        prop_assume!(engine.solve().is_ok());
        paths.stream(&mut engine, &mut rng, bursts, &protect)?;

        // Contradict the fixed host's mandate: Infeasible, nothing moves,
        // and the carried labeling stays valid for the next step.
        let other = *products(s0).iter().find(|&&p| p != p_fixed).expect("three products");
        let revision = engine.revision();
        let step = engine.apply(&NetworkDelta::unfix_slot(fixed, s0, vec![other]));
        let infeasible = matches!(step, Err(Error::Infeasible { .. }));
        prop_assert!(infeasible, "contradicting the mandate must be infeasible");
        paths.absorb(step)?;
        prop_assert_eq!(engine.revision(), revision);
        paths.stream(&mut engine, &mut rng, bursts, &protect)?;

        // Mandate a product on the doomed host, then remove the host: the
        // re-solve cannot satisfy the mandate. Dropping it recovers cold.
        let mut doomed_set = base.clone();
        doomed_set.push(Constraint::fix(doomed, s0, candidates(engine.network(), doomed)[0]));
        engine = engine.with_constraints(doomed_set);
        paths.absorb(engine.solve())?;
        paths.stream(&mut engine, &mut rng, 1, &protect)?;
        let step = engine.apply(&NetworkDelta::remove_host(doomed));
        let unsatisfiable = matches!(step, Err(Error::UnsatisfiableConstraints { .. }));
        prop_assert!(unsatisfiable, "removing a mandated host must be unsatisfiable");
        paths.absorb(step)?;
        prop_assert!(engine.assignment().is_none());
        engine = engine.with_constraints(base);
        paths.absorb(engine.solve())?;
        paths.stream(&mut engine, &mut rng, bursts, &protect)?;

        // Shrink until a refresh reassembles the fragmented model, then
        // carry on from the renumbered variables.
        while !paths.reassembled {
            let live: Vec<HostId> = engine
                .network()
                .iter_hosts()
                .filter(|(id, h)| !h.is_removed() && !protect.contains(id))
                .map(|(id, _)| id)
                .collect();
            prop_assert!(live.len() >= 3, "ran out of hosts before compaction");
            let burst: Vec<NetworkDelta> = live[..3]
                .iter()
                .map(|&h| NetworkDelta::remove_host(h))
                .collect();
            paths.absorb(engine.apply_batch(&burst))?;
        }
        paths.stream(&mut engine, &mut rng, bursts, &protect)?;
        prop_assert!(paths.edited && paths.infeasible && paths.unsatisfiable, "{:?}", paths);

        // Sharded: pinned shard engines take the sealed sweep, and
        // coordinator write-backs reset a shard's carried labeling.
        let z = generate_zoned(
            &ZonedNetworkConfig {
                zones: 2,
                hosts_per_zone: 6,
                gateway_links: 2,
                mean_degree: 3,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            net_seed,
        );
        let mut sharded = ShardedEngine::new(z.network, z.catalog, z.similarity);
        sharded.solve().expect("cold sharded solve");
        for _ in 0..bursts {
            let burst = random_burst(sharded.network(), sharded.catalog(), &mut rng, &[HostId(0)]);
            sharded.apply_batch(&burst).expect("unconstrained bursts apply");
            sharded
                .assignment()
                .expect("solved")
                .validate(sharded.network())
                .expect("assignment is valid");
        }
    }
}
