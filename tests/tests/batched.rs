//! Property tests for batched delta absorption: for any valid delta
//! sequence, `apply_batch(all)` must be indistinguishable — in final
//! network state, feasibility verdict, and (up to refinement tolerance)
//! objective — from applying the deltas one by one, and from rebuilding a
//! `DiversityOptimizer` from scratch on the final network. Including
//! batches that fail mid-validation: those must be all-or-nothing.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ics_diversity::engine::DiversityEngine;
use ics_diversity::optimizer::{DiversityOptimizer, SolverKind};
use ics_diversity::Error;
use mrf::elimination::EliminationOptions;
use mrf::solver::ExactFallback;
use netmodel::delta::{random_delta, NetworkDelta};
use netmodel::network::Network;
use netmodel::topology::{generate, GeneratedNetwork, RandomNetworkConfig, TopologyKind};
use netmodel::HostId;

fn arb_config() -> impl Strategy<Value = RandomNetworkConfig> {
    // Sparse enough that exact elimination always fits its table cap: the
    // MRF decomposes per service, so each component has at most
    // `hosts + steps` variables at `products` labels with mean degree ≤ 3.
    (3usize..12, 1usize..4, 1usize..4, 2usize..5).prop_map(|(hosts, degree, services, products)| {
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

/// A delta stream that is valid when applied in order from `g.network`
/// (each delta generated against the state after its predecessors).
fn valid_stream(g: &GeneratedNetwork, seed: u64, steps: usize) -> Vec<NetworkDelta> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = g.network.clone();
    let mut deltas = Vec::with_capacity(steps);
    for _ in 0..steps {
        let delta = random_delta(&scratch, &g.catalog, &mut rng, &[HostId(0)]);
        scratch
            .apply_delta(&delta, &g.catalog)
            .expect("generated deltas are valid");
        deltas.push(delta);
    }
    deltas
}

fn final_network(g: &GeneratedNetwork, deltas: &[NetworkDelta]) -> Network {
    let mut net = g.network.clone();
    for delta in deltas {
        net.apply_delta(delta, &g.catalog).expect("valid stream");
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With an *exact* full-model refiner (elimination, which ignores the
    /// frontier), `apply_batch(all)`, sequential `apply`s, and a scratch
    /// `DiversityOptimizer` build on the final network agree exactly on the
    /// final network state and on the objective. The solver must be exact
    /// for the objective comparison: the engines optimize the in-place
    /// *edited* model, whose recycled variable ordering approximate sweeps
    /// are sensitive to, while the scratch optimizer sees a densely
    /// assembled one — the energy functions are identical, so exact optima
    /// coincide where approximate decodes may not.
    #[test]
    fn batch_equals_sequential_equals_scratch(
        config in arb_config(),
        net_seed in 0u64..150,
        delta_seed in 0u64..150,
        steps in 1usize..10,
    ) {
        let g = generate(&config, net_seed);
        let deltas = valid_stream(&g, delta_seed, steps);

        let make_engine = || {
            DiversityEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone())
                .with_solver(SolverKind::Exact(EliminationOptions::default()))
                .with_refiner(Box::new(ExactFallback::default()))
        };
        let mut batched = make_engine();
        batched.solve().expect("cold solve");
        let batch_report = batched.apply_batch(&deltas).expect("valid batch applies");
        prop_assert_eq!(batch_report.deltas_applied, steps);
        prop_assert!(batch_report.warm_started);
        prop_assert!(batch_report.improvement().expect("warm step") >= -1e-9);

        let mut sequential = make_engine();
        sequential.solve().expect("cold solve");
        let mut seq_report = None;
        for delta in &deltas {
            seq_report = Some(sequential.apply(delta).expect("valid delta applies"));
        }
        let seq_report = seq_report.expect("at least one step");

        // Identical final network state (hosts, links, revisions).
        prop_assert_eq!(batched.network(), sequential.network());
        prop_assert_eq!(batched.revision(), steps as u64);
        prop_assert_eq!(sequential.revision(), steps as u64);

        // Identical feasibility verdict vs. scratch, and objectives within
        // refinement tolerance of the scratch cold solve.
        let net = final_network(&g, &deltas);
        prop_assert_eq!(batched.network(), &net);
        let scratch = DiversityOptimizer::new()
            .with_solver(SolverKind::Exact(EliminationOptions::default()))
            .with_refinement(None)
            .optimize(&net, &g.similarity)
            .expect("unconstrained instances are feasible");
        prop_assert!(
            (batch_report.objective_after - scratch.objective()).abs() <= 1e-6,
            "batch {} vs scratch {}",
            batch_report.objective_after,
            scratch.objective()
        );
        prop_assert!(
            (seq_report.objective_after - scratch.objective()).abs() <= 1e-6,
            "sequential {} vs scratch {}",
            seq_report.objective_after,
            scratch.objective()
        );
        batched
            .assignment()
            .expect("solved")
            .validate(batched.network())
            .expect("batch assignment is valid");
        sequential
            .assignment()
            .expect("solved")
            .validate(sequential.network())
            .expect("sequential assignment is valid");
    }

    /// The default engine (ICM refiner, localized re-solve) absorbing the
    /// stream as one batch stays sound: same final network as sequential,
    /// never worse than carrying forward, valid assignments, coherent
    /// locality telemetry.
    #[test]
    fn localized_batch_path_is_sound(
        config in arb_config(),
        net_seed in 0u64..150,
        delta_seed in 0u64..150,
        steps in 1usize..10,
    ) {
        let g = generate(&config, net_seed);
        let deltas = valid_stream(&g, delta_seed, steps);

        let mut batched =
            DiversityEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
        batched.solve().expect("cold solve");
        let report = batched.apply_batch(&deltas).expect("valid batch applies");
        prop_assert!(report.improvement().expect("warm step") >= -1e-9);
        prop_assert_eq!(report.revision, steps as u64);
        prop_assert!(report.swept_vars <= report.rebuild.variables);
        prop_assert!(report.frontier_hosts <= batched.network().active_host_count());
        batched
            .assignment()
            .expect("solved")
            .validate(batched.network())
            .expect("assignment is valid");
        prop_assert_eq!(batched.network(), &final_network(&g, &deltas));
    }

    /// A batch with an invalid delta anywhere in it is all-or-nothing: the
    /// engine is left exactly as it was, and the reported index and cause
    /// match what a sequential replay observes at its failing step.
    #[test]
    fn failing_batch_is_all_or_nothing_and_verdicts_agree(
        config in arb_config(),
        net_seed in 0u64..150,
        delta_seed in 0u64..150,
        prefix in 0usize..8,
    ) {
        let g = generate(&config, net_seed);
        let mut deltas = valid_stream(&g, delta_seed, prefix);
        // Host 0 is protected from removal, so a self-loop on it is a
        // guaranteed-invalid delta whatever the prefix did.
        deltas.push(NetworkDelta::add_link(HostId(0), HostId(0)));

        let mut batched =
            DiversityEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
        batched.solve().expect("cold solve");
        let assignment_before = batched.assignment().expect("solved").clone();
        let err = batched.apply_batch(&deltas).expect_err("batch must fail");
        let Error::Model(netmodel::Error::BatchRejected { index, cause }) = err else {
            return Err(TestCaseError::Fail("unexpected error shape".to_owned()));
        };
        prop_assert_eq!(index, prefix, "the injected delta is the one rejected");
        prop_assert_eq!(*cause, netmodel::Error::SelfLoop(HostId(0)));
        prop_assert_eq!(batched.revision(), 0, "all-or-nothing: nothing committed");
        prop_assert_eq!(batched.network(), &g.network);
        prop_assert_eq!(batched.assignment(), Some(&assignment_before));

        // The sequential replay fails at the same index with the same cause
        // — but has committed the prefix (the semantics the batch fixes).
        let mut sequential =
            DiversityEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
        sequential.solve().expect("cold solve");
        let mut seq_err = None;
        for (i, delta) in deltas.iter().enumerate() {
            match sequential.apply(delta) {
                Ok(_) => prop_assert!(i < prefix, "only the prefix may apply"),
                Err(e) => {
                    prop_assert_eq!(i, prefix);
                    seq_err = Some(e);
                    break;
                }
            }
        }
        match seq_err.expect("sequential replay must fail too") {
            Error::Model(m) => prop_assert_eq!(m, netmodel::Error::SelfLoop(HostId(0))),
            other => return Err(TestCaseError::Fail(format!("unexpected error {other}"))),
        }
        prop_assert_eq!(sequential.revision(), prefix as u64, "prefix committed");

        // The batched engine remains serviceable: the valid prefix alone
        // still applies.
        if prefix > 0 {
            let report = batched.apply_batch(&deltas[..prefix]).expect("valid prefix");
            prop_assert_eq!(report.deltas_applied, prefix);
            prop_assert_eq!(batched.network(), sequential.network());
        }
    }
}
