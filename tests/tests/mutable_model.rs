//! Property tests for the mutable MRF and the in-place energy-cache edit:
//! any random sequence of model edits — one delta per refresh or whole
//! bursts of them, unconstrained or under combination and fix
//! constraints — must be indistinguishable from a scratch-assembled
//! model — same energy function (≤1e-9 divergence on random labelings,
//! relative 1e-12 where constraint costs enter), same exact MAP — and
//! edits addressed at tombstoned handles must error without corrupting the
//! model. Bursts that cancel themselves must leave every kept variable
//! where it was.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ics_diversity::cache::EnergyCache;
use ics_diversity::energy::{build_energy, EnergyModel, SlotBinding};
use ics_diversity::Error;
use mrf::model::MrfModel;
use mrf::solver::{ExactFallback, MapSolver, SolveControl};
use mrf::VarId;
use netmodel::constraints::{Constraint, ConstraintSet, Scope};
use netmodel::delta::{random_delta, NetworkDelta};
use netmodel::network::Network;
use netmodel::topology::{generate, GeneratedNetwork, RandomNetworkConfig, TopologyKind};
use netmodel::HostId;

/// The objective tolerance for unconstrained models: absolute.
fn absolute(_objective: f64) -> f64 {
    1e-9
}

/// The objective tolerance for constrained models, relative: a violated
/// combination adds its 1e6 cost, and two sums of the same terms in a
/// different order differ by a few ulps of that magnitude.
fn relative(objective: f64) -> f64 {
    1e-12 * objective.abs().max(1.0)
}

/// Semantic equivalence of an edited energy model and a scratch-assembled
/// one. The two may disagree on variable *ids* (edits recycle tombstoned
/// slots; scratch assembly is dense), so the comparison goes through the
/// slot bindings: identical binding structure and candidate lists, equal
/// live counts and base energy, and — for random per-slot product picks
/// encoded through each model's own variables — objectives within
/// `tolerance` of the scratch objective.
fn assert_equivalent(
    edited: &EnergyModel,
    scratch: &EnergyModel,
    rng: &mut StdRng,
    tolerance: fn(f64) -> f64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(edited.slots().len(), scratch.slots().len());
    for (host, (ra, rb)) in edited
        .slots()
        .iter()
        .zip(scratch.slots().iter())
        .enumerate()
    {
        prop_assert_eq!(ra.len(), rb.len(), "slot count at host {}", host);
        for (slot, (ba, bb)) in ra.iter().zip(rb.iter()).enumerate() {
            match (ba, bb) {
                (SlotBinding::Fixed(pa), SlotBinding::Fixed(pb)) => {
                    prop_assert_eq!(pa, pb, "fixed product at ({}, {})", host, slot)
                }
                (
                    SlotBinding::Variable { candidates: ca, .. },
                    SlotBinding::Variable { candidates: cb, .. },
                ) => prop_assert_eq!(ca, cb, "candidates at ({}, {})", host, slot),
                _ => {
                    return Err(TestCaseError::Fail(format!(
                        "binding kind mismatch at ({host}, {slot})"
                    )))
                }
            }
        }
    }
    prop_assert_eq!(
        edited.model().live_var_count(),
        scratch.model().live_var_count()
    );
    prop_assert_eq!(edited.model().edge_count(), scratch.model().edge_count());
    prop_assert!((edited.base_energy() - scratch.base_energy()).abs() < 1e-9);
    for _ in 0..8 {
        let mut labels_e = vec![0usize; edited.model().var_count()];
        let mut labels_s = vec![0usize; scratch.model().var_count()];
        for (host, (ra, rb)) in edited
            .slots()
            .iter()
            .zip(scratch.slots().iter())
            .enumerate()
        {
            let _ = host;
            for (ba, bb) in ra.iter().zip(rb.iter()) {
                if let (
                    SlotBinding::Variable {
                        var: va,
                        candidates,
                    },
                    SlotBinding::Variable { var: vb, .. },
                ) = (ba, bb)
                {
                    let pick = rng.gen_range(0..candidates.len());
                    labels_e[va.0] = pick;
                    labels_s[vb.0] = pick;
                }
            }
        }
        let oe = edited.model().energy(&labels_e) + edited.base_energy();
        let os = scratch.model().energy(&labels_s) + scratch.base_energy();
        prop_assert!(
            (oe - os).abs() < tolerance(os),
            "objective mismatch: edited {} vs scratch {}",
            oe,
            os
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole equivalence: a cache absorbing an arbitrary delta
    /// stream through hinted (in-place edit) refreshes is indistinguishable
    /// from a scratch `build_energy` on the final network — same objective
    /// for any assignment, and the same MAP under a fixed exact solver.
    #[test]
    fn edit_stream_equals_scratch_assembly(
        hosts in 3usize..10,
        degree in 1usize..4,
        services in 1usize..3,
        products in 2usize..4,
        net_seed in 0u64..100,
        delta_seed in 0u64..100,
        steps in 1usize..12,
    ) {
        let g = generate(
            &RandomNetworkConfig {
                hosts,
                mean_degree: degree,
                services,
                products_per_service: products,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            net_seed,
        );
        let mut rng = StdRng::seed_from_u64(delta_seed);
        let mut check_rng = StdRng::seed_from_u64(delta_seed ^ 0x5EED);
        let mut net = g.network.clone();
        let mut cache = EnergyCache::new(
            &net,
            &g.similarity,
            &ConstraintSet::new()
        )
        .expect("unconstrained instances are feasible");
        let mut edited_any = false;
        for _ in 0..steps {
            let delta = random_delta(&net, &g.catalog, &mut rng, &[HostId(0)]);
            let effect = net.apply_delta(&delta, &g.catalog).expect("valid delta");
            let stats = cache
                .refresh_hinted(&net, &g.similarity, Some(&effect.touched))
                .expect("feasible refresh");
            prop_assert!(stats.rebuilt);
            edited_any |= stats.edited;
            let scratch = build_energy(
                &net,
                &g.similarity,
                &ConstraintSet::new()
            )
            .expect("scratch build");
            assert_equivalent(cache.model(), &scratch, &mut check_rng, absolute)?;
            // Same MAP under a fixed exact solver: the energy functions are
            // identical up to variable ids, so the exact optima coincide.
            let ctl = SolveControl::new();
            let solver = ExactFallback::default();
            let map_edited = solver.solve(cache.model().model(), &ctl).energy()
                + cache.model().base_energy();
            let map_scratch =
                solver.solve(scratch.model(), &ctl).energy() + scratch.base_energy();
            prop_assert!(
                (map_edited - map_scratch).abs() < 1e-9,
                "MAP mismatch: edited {} vs scratch {}",
                map_edited,
                map_scratch
            );
        }
        prop_assert!(edited_any, "the stream must exercise the edit path");
    }

    /// The same equivalence when a whole burst of 2–8 deltas is absorbed
    /// by one hinted refresh with the burst's merged `touched` set: later
    /// deltas may undo or build on earlier ones (a link added then removed,
    /// a slot fixed and then its host removed), and the one edit must still
    /// land on the scratch model. With two services or more the input can
    /// be constrained: an all-host forbid combination, a one-host require
    /// combination and a fix at host 0, so the edit re-derives the
    /// combination edges at rebound slots. A burst the constraints make
    /// infeasible is rejected: the network is restored, and the cache it
    /// left must equal the scratch build of that network.
    #[test]
    fn burst_edits_equal_scratch_assembly(
        hosts in 3usize..12,
        degree in 1usize..4,
        services in 1usize..4,
        products in 2usize..4,
        net_seed in 0u64..100,
        delta_seed in 0u64..100,
        bursts in 1usize..6,
        constrained in any::<bool>(),
    ) {
        let g = generate(
            &RandomNetworkConfig {
                hosts,
                mean_degree: degree,
                services,
                products_per_service: products,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            net_seed,
        );
        let mut rng = StdRng::seed_from_u64(delta_seed);
        let mut check_rng = StdRng::seed_from_u64(delta_seed ^ 0xB0257);
        let mut constraints = ConstraintSet::new();
        let mut tolerance: fn(f64) -> f64 = absolute;
        if constrained && services >= 2 {
            let ids: Vec<_> = g.catalog.iter_services().map(|(s, _)| s).collect();
            let product = |s: usize, p: usize| g.catalog.products_of(ids[s])[p];
            constraints.push(Constraint::forbid_combination(
                Scope::All,
                (ids[0], product(0, 0)),
                (ids[1], product(1, 0)),
            ));
            constraints.push(Constraint::require_combination(
                Scope::Host(HostId(rng.gen_range(0..hosts) as u32)),
                (ids[1], product(1, 1)),
                (ids[0], product(0, 1)),
            ));
            constraints.push(Constraint::fix(
                HostId(0),
                ids[services - 1],
                product(services - 1, rng.gen_range(0..products)),
            ));
            tolerance = relative;
        }
        let mut net = g.network.clone();
        let mut cache = EnergyCache::new(&net, &g.similarity, &constraints)
            .expect("fresh instances are feasible");
        for _ in 0..bursts {
            let len = rng.gen_range(2usize..=8);
            let mut staged = net.clone();
            let burst: Vec<NetworkDelta> = (0..len)
                .map(|_| {
                    let delta = random_delta(&staged, &g.catalog, &mut rng, &[HostId(0)]);
                    staged.apply_delta(&delta, &g.catalog).expect("valid delta");
                    delta
                })
                .collect();
            let before = net.clone();
            let effect = net.apply_batch(&burst, &g.catalog).expect("valid burst");
            match cache.refresh_hinted(&net, &g.similarity, Some(&effect.touched)) {
                Ok(stats) => prop_assert!(stats.rebuilt),
                Err(Error::Infeasible { .. }) if !constraints.is_empty() => net = before,
                Err(err) => return Err(TestCaseError::Fail(format!("refresh: {err}"))),
            }
            let scratch = build_energy(&net, &g.similarity, &constraints)
                .expect("scratch build");
            assert_equivalent(cache.model(), &scratch, &mut check_rng, tolerance)?;
        }
    }

    /// Raw model-level churn: random interleavings of add/remove variable
    /// and edge mutations agree with a freshly assembled model of the same
    /// final structure, and mutations addressed at tombstoned handles error
    /// without corrupting anything.
    #[test]
    fn random_model_edits_match_fresh_assembly(seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = MrfModel::new();
        // Logical state: live vars (handle, labels, unary) and live edges
        // (handle, endpoints, dense costs).
        let mut vars: Vec<(VarId, usize, Vec<f64>)> = Vec::new();
        let mut edges: Vec<(mrf::EdgeId, VarId, VarId, Vec<f64>)> = Vec::new();
        for _ in 0..40 {
            match rng.gen_range(0u32..10) {
                // Add a variable with random arity and unary costs.
                0..=3 => {
                    let labels = rng.gen_range(1usize..4);
                    let unary: Vec<f64> =
                        (0..labels).map(|_| rng.gen_range(-2.0..2.0)).collect();
                    let v = model.add_var(labels).expect("non-empty domain");
                    model.set_unary(v, unary.clone()).expect("fresh var");
                    vars.push((v, labels, unary));
                }
                // Remove a random live variable; its edges go with it.
                4..=5 if !vars.is_empty() => {
                    let idx = rng.gen_range(0..vars.len());
                    let (v, ..) = vars.remove(idx);
                    model.remove_var(v).expect("live var");
                    edges.retain(|(_, a, b, _)| *a != v && *b != v);
                    // A second removal must error and change nothing.
                    let snapshot = model.clone();
                    prop_assert!(model.remove_var(v).is_err());
                    prop_assert!(model.set_unary(v, vec![0.0]).is_err());
                    prop_assert!(model.add_unary(v, 0, 1.0).is_err());
                    if let Some((other, ..)) = vars.first() {
                        prop_assert!(model.add_pairwise_dense(v, *other, vec![0.0]).is_err());
                    }
                    prop_assert_eq!(&model, &snapshot, "failed edits must not corrupt");
                }
                // Add an edge between two random live variables.
                6..=8 if vars.len() >= 2 => {
                    let i = rng.gen_range(0..vars.len());
                    let mut j = rng.gen_range(0..vars.len());
                    if i == j {
                        j = (j + 1) % vars.len();
                    }
                    let (a, la, _) = vars[i].clone();
                    let (b, lb, _) = vars[j].clone();
                    let costs: Vec<f64> =
                        (0..la * lb).map(|_| rng.gen_range(0.0..2.0)).collect();
                    let e = model.add_pairwise_dense(a, b, costs.clone()).expect("live endpoints");
                    edges.push((e, a, b, costs));
                }
                // Remove a random live edge.
                _ if !edges.is_empty() => {
                    let idx = rng.gen_range(0..edges.len());
                    let (e, ..) = edges.remove(idx);
                    model.remove_pairwise(e).expect("live edge");
                    prop_assert!(model.remove_pairwise(e).is_err(), "double removal errors");
                }
                _ => {}
            }
        }
        prop_assert_eq!(model.live_var_count(), vars.len());
        prop_assert_eq!(model.edge_count(), edges.len());

        // Assemble the same final structure from scratch.
        let mut fresh = MrfModel::new();
        let mut remap = std::collections::HashMap::new();
        for (v, labels, unary) in &vars {
            let nv = fresh.add_var(*labels).expect("non-empty");
            fresh.set_unary(nv, unary.clone()).expect("fresh var");
            remap.insert(*v, nv);
        }
        for (_, a, b, costs) in &edges {
            fresh
                .add_pairwise_dense(remap[a], remap[b], costs.clone())
                .expect("live endpoints");
        }

        // Identical energies over random labelings...
        for _ in 0..10 {
            let mut labels_m = vec![0usize; model.var_count()];
            let mut labels_f = vec![0usize; fresh.var_count()];
            for (v, arity, _) in &vars {
                let pick = rng.gen_range(0..*arity);
                labels_m[v.0] = pick;
                labels_f[remap[v].0] = pick;
            }
            let em = model.energy(&labels_m);
            let ef = fresh.energy(&labels_f);
            prop_assert!((em - ef).abs() < 1e-9, "energy {} vs {}", em, ef);
        }
        // ...and the same exact MAP.
        let ctl = SolveControl::new();
        let solver = ExactFallback::default();
        let map_m = solver.solve(&model, &ctl).energy();
        let map_f = solver.solve(&fresh, &ctl).energy();
        prop_assert!((map_m - map_f).abs() < 1e-9, "MAP {} vs {}", map_m, map_f);
    }
}

/// A 6-host ring with two services on every host and every slot free,
/// with its cache built.
fn line_instance() -> (GeneratedNetwork, EnergyCache) {
    let g = generate(
        &RandomNetworkConfig {
            hosts: 6,
            mean_degree: 2,
            services: 2,
            products_per_service: 3,
            vendors_per_service: 2,
            topology: TopologyKind::Ring,
        },
        7,
    );
    let cache = EnergyCache::new(&g.network, &g.similarity, &ConstraintSet::new())
        .expect("unconstrained instances are feasible");
    (g, cache)
}

/// Absorbs `burst` through one hinted refresh, checks the edited model
/// against a scratch build, and returns the model's slot bindings before
/// and after.
fn absorb_burst(
    g: &GeneratedNetwork,
    net: &mut Network,
    cache: &mut EnergyCache,
    burst: &[NetworkDelta],
) -> (Vec<Vec<SlotBinding>>, Vec<Vec<SlotBinding>>) {
    let before = cache.model().slots().to_vec();
    let effect = net.apply_batch(burst, &g.catalog).expect("valid burst");
    let stats = cache
        .refresh_hinted(net, &g.similarity, Some(&effect.touched))
        .expect("feasible refresh");
    assert!(stats.edited, "a synced cache edits in place");
    let scratch = build_energy(net, &g.similarity, &ConstraintSet::new()).expect("scratch build");
    let mut rng = StdRng::seed_from_u64(11);
    assert_equivalent(cache.model(), &scratch, &mut rng, absolute)
        .expect("edited model equals scratch");
    (before, cache.model().slots().to_vec())
}

#[test]
fn burst_adding_and_removing_a_link_keeps_every_variable() {
    let (g, mut cache) = line_instance();
    let mut net = g.network.clone();
    let (a, b) = (HostId(0), HostId(4));
    assert!(!net.linked(a, b));
    let edges = cache.model().model().edge_count();
    let (before, after) = absorb_burst(
        &g,
        &mut net,
        &mut cache,
        &[
            NetworkDelta::add_link(a, b),
            NetworkDelta::remove_link(a, b),
        ],
    );
    assert_eq!(before, after, "no slot was rebound");
    assert_eq!(cache.model().model().edge_count(), edges);
}

#[test]
fn burst_adding_and_removing_a_host_keeps_every_variable() {
    let (g, mut cache) = line_instance();
    let mut net = g.network.clone();
    let services: Vec<_> = net
        .host(HostId(2))
        .unwrap()
        .services()
        .iter()
        .map(|inst| (inst.service(), inst.candidates().to_vec()))
        .collect();
    let new_host = HostId(net.host_count() as u32);
    let (before, after) = absorb_burst(
        &g,
        &mut net,
        &mut cache,
        &[
            NetworkDelta::add_host("transient", services, vec![HostId(2), HostId(3)]),
            NetworkDelta::remove_host(new_host),
        ],
    );
    assert_eq!(
        &after[..before.len()],
        &before[..],
        "no old slot was rebound"
    );
    assert!(
        after[new_host.index()].is_empty(),
        "the removed host has no slots"
    );
}

#[test]
fn burst_fixing_and_unfixing_a_slot_to_its_candidates_keeps_every_variable() {
    let (g, mut cache) = line_instance();
    let mut net = g.network.clone();
    let host = HostId(3);
    let inst = net.host(host).unwrap().services()[1].clone();
    let (before, after) = absorb_burst(
        &g,
        &mut net,
        &mut cache,
        &[
            NetworkDelta::fix_slot(host, inst.service(), inst.candidates()[0]),
            NetworkDelta::unfix_slot(host, inst.service(), inst.candidates().to_vec()),
        ],
    );
    assert_eq!(
        before, after,
        "the domain id did not change: nothing rebound"
    );
}

#[test]
fn burst_removing_a_host_right_after_linking_it_matches_scratch() {
    let (g, mut cache) = line_instance();
    let mut net = g.network.clone();
    let (kept, doomed) = (HostId(0), HostId(3));
    assert!(!net.linked(kept, doomed));
    let (before, after) = absorb_burst(
        &g,
        &mut net,
        &mut cache,
        &[
            NetworkDelta::add_link(kept, doomed),
            NetworkDelta::remove_host(doomed),
        ],
    );
    assert!(after[doomed.index()].is_empty());
    assert_eq!(
        after[kept.index()],
        before[kept.index()],
        "the kept host keeps its variables"
    );
}
