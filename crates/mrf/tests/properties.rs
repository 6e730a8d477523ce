//! Property-based tests for the MRF solvers: random small models, checked
//! against the brute-force oracle.

use proptest::prelude::*;

use mrf::bp::{Bp, BpOptions};
use mrf::elimination::Elimination;
use mrf::exhaustive::Exhaustive;
use mrf::icm::{Icm, IcmOptions};
use mrf::ils::Ils;
use mrf::model::{MrfBuilder, MrfModel};
use mrf::solver::{MapSolver, SolveControl};
use mrf::trws::{Trws, TrwsOptions};

/// A random model with ≤7 variables of 2–3 labels and random edges —
/// small enough for the exhaustive oracle.
fn arb_model() -> impl Strategy<Value = MrfModel> {
    (
        2usize..7,
        proptest::collection::vec(0.0f64..3.0, 7 * 3),
        proptest::collection::vec(0.0f64..2.0, 21 * 9),
        proptest::collection::vec(any::<bool>(), 21),
        proptest::collection::vec(2usize..4, 7),
    )
        .prop_map(|(n, unaries, pairwise, edge_mask, cards)| {
            let mut b = MrfBuilder::new();
            let vars: Vec<_> = (0..n).map(|i| b.add_variable(cards[i])).collect();
            for (i, &v) in vars.iter().enumerate() {
                let costs = unaries[i * 3..i * 3 + cards[i]].to_vec();
                b.set_unary(v, costs).unwrap();
            }
            let mut k = 0usize;
            for i in 0..n {
                for j in (i + 1)..n {
                    if edge_mask[k % edge_mask.len()] {
                        let need = cards[i] * cards[j];
                        let costs = pairwise[k * 9..k * 9 + need].to_vec();
                        b.add_edge_dense(vars[i], vars[j], costs).unwrap();
                    }
                    k += 1;
                }
            }
            b.build()
        })
}

/// A random tree-structured model: every variable past the first attaches
/// to a random earlier parent, so elimination is exact and min-sum BP must
/// converge to the optimum.
fn arb_tree_model() -> impl Strategy<Value = MrfModel> {
    (
        2usize..8,
        proptest::collection::vec(0.0f64..3.0, 8 * 3),
        proptest::collection::vec(0.0f64..2.0, 8 * 9),
        proptest::collection::vec(2usize..4, 8),
        proptest::collection::vec(0usize..8, 8),
    )
        .prop_map(|(n, unaries, pairwise, cards, parents)| {
            let mut b = MrfBuilder::new();
            let vars: Vec<_> = (0..n).map(|i| b.add_variable(cards[i])).collect();
            for (i, &v) in vars.iter().enumerate() {
                b.set_unary(v, unaries[i * 3..i * 3 + cards[i]].to_vec())
                    .unwrap();
            }
            for i in 1..n {
                let p = parents[i] % i;
                let need = cards[p] * cards[i];
                let costs = pairwise[i * 9..i * 9 + need].to_vec();
                b.add_edge_dense(vars[p], vars[i], costs).unwrap();
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bucket elimination is exact: always equals the brute-force optimum.
    #[test]
    fn elimination_is_exact(model in arb_model()) {
        let exact = Elimination::default().solve_exact(&model, &SolveControl::new()).unwrap();
        let brute = Exhaustive::new().solve(&model, &SolveControl::new());
        prop_assert!((exact.energy() - brute.energy()).abs() < 1e-9,
            "elimination {} vs brute {}", exact.energy(), brute.energy());
        prop_assert!(exact.is_certified_optimal(1e-9));
    }

    /// The TRW-S lower bound never exceeds the true optimum, and its
    /// decoded energy never beats it.
    #[test]
    fn trws_bound_brackets_the_optimum(model in arb_model()) {
        let brute = Exhaustive::new().solve(&model, &SolveControl::new());
        let s = Trws::new(TrwsOptions::default()).solve(&model, &SolveControl::new());
        prop_assert!(s.lower_bound().unwrap() <= brute.energy() + 1e-7,
            "bound {} exceeds optimum {}", s.lower_bound().unwrap(), brute.energy());
        prop_assert!(s.energy() >= brute.energy() - 1e-9);
        // Energy evaluation must agree with the labels returned.
        prop_assert!((model.energy(s.labels()) - s.energy()).abs() < 1e-9);
    }

    /// ICM monotonically improves any starting labeling.
    #[test]
    fn icm_never_increases_energy(model in arb_model(), seed in 0u64..100) {
        // Derive a deterministic pseudo-random start from the seed.
        let start: Vec<usize> = (0..model.var_count())
            .map(|i| ((seed as usize).wrapping_mul(31).wrapping_add(i * 7))
                % model.labels(mrf::VarId(i)))
            .collect();
        let start_energy = model.energy(&start);
        let s = Icm::default().solve_from(&model, start, &SolveControl::new());
        prop_assert!(s.energy() <= start_energy + 1e-12);
    }

    /// ILS refinement never yields something worse than ICM alone.
    #[test]
    fn ils_refines_at_least_as_well_as_icm(model in arb_model()) {
        let start = model.unary_argmin();
        let icm = Icm::default().solve_from(&model, start.clone(), &SolveControl::new());
        let ils = Ils::default().refine(&model, start, &SolveControl::new());
        prop_assert!(ils.energy() <= icm.energy() + 1e-12);
    }

    /// BP decodes a labeling whose energy the model confirms.
    #[test]
    fn bp_energy_is_consistent(model in arb_model()) {
        let s = Bp::new(BpOptions::default()).solve(&model, &SolveControl::new());
        prop_assert!((model.energy(s.labels()) - s.energy()).abs() < 1e-9);
        let brute = Exhaustive::new().solve(&model, &SolveControl::new());
        prop_assert!(s.energy() >= brute.energy() - 1e-9);
    }

    /// The colored sweep schedule is thread-count-invariant: running the
    /// class-major schedule across scoped threads produces bit-identical
    /// labels and energy to running the same schedule sequentially, for
    /// both BP (message sweeps) and ICM (move sweeps).
    #[test]
    fn colored_parallel_sweeps_match_sequential(model in arb_model()) {
        let ctl = SolveControl::new();
        // threshold 0 forces the scoped-thread path; usize::MAX runs the
        // identical colored schedule on one thread.
        let bp_par = Bp::new(BpOptions {
            threads: 4, parallel_threshold: 0, ..BpOptions::default()
        }).solve(&model, &ctl);
        let bp_seq = Bp::new(BpOptions {
            threads: 1, ..BpOptions::default()
        }).solve(&model, &ctl);
        prop_assert_eq!(bp_par.labels(), bp_seq.labels());
        prop_assert_eq!(bp_par.energy(), bp_seq.energy());
        let icm_par = Icm::new(IcmOptions {
            threads: 4, parallel_threshold: 0, ..IcmOptions::default()
        }).solve(&model, &ctl);
        let icm_seq = Icm::new(IcmOptions {
            threads: 4, parallel_threshold: usize::MAX, ..IcmOptions::default()
        }).solve(&model, &ctl);
        prop_assert_eq!(icm_par.labels(), icm_seq.labels());
        prop_assert_eq!(icm_par.energy(), icm_seq.energy());
    }

    /// On tree-structured models min-sum BP is exact: its decoded energy
    /// agrees with bucket elimination's certified optimum.
    #[test]
    fn bp_matches_elimination_on_trees(model in arb_tree_model()) {
        let exact = Elimination::default()
            .solve_exact(&model, &SolveControl::new())
            .unwrap();
        let s = Bp::new(BpOptions::default()).solve(&model, &SolveControl::new());
        prop_assert!((s.energy() - exact.energy()).abs() < 1e-6,
            "bp {} vs elimination {}", s.energy(), exact.energy());
    }

    /// On tree-structured models TRW-S closes its duality gap: the decoded
    /// energy agrees with elimination and the bound certifies it.
    #[test]
    fn trws_matches_elimination_on_trees(model in arb_tree_model()) {
        let exact = Elimination::default()
            .solve_exact(&model, &SolveControl::new())
            .unwrap();
        let s = Trws::new(TrwsOptions::default()).solve(&model, &SolveControl::new());
        prop_assert!((s.energy() - exact.energy()).abs() < 1e-6,
            "trws {} vs elimination {}", s.energy(), exact.energy());
        prop_assert!(s.lower_bound().unwrap() <= exact.energy() + 1e-7);
    }

    /// All solvers respect label domains.
    #[test]
    fn solvers_respect_domains(model in arb_model()) {
        for labels in [
            Trws::new(TrwsOptions::default()).solve(&model, &SolveControl::new()).labels().to_vec(),
            Bp::new(BpOptions::default()).solve(&model, &SolveControl::new()).labels().to_vec(),
            Icm::default().solve(&model, &SolveControl::new()).labels().to_vec(),
            Elimination::default().solve_exact(&model, &SolveControl::new()).unwrap().labels().to_vec(),
        ] {
            prop_assert_eq!(labels.len(), model.var_count());
            for (i, &l) in labels.iter().enumerate() {
                prop_assert!(l < model.labels(mrf::VarId(i)));
            }
        }
    }
}
