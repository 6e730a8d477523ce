//! Property-based tests for the MRF solvers: random small models, checked
//! against the brute-force oracle.

use proptest::prelude::*;

use mrf::elimination::Elimination;
use mrf::exhaustive::Exhaustive;
use mrf::icm::{Icm, IcmOptions};
use mrf::ils::Ils;
use mrf::local::{LocalRefine, Start};
use mrf::model::MrfModel;
use mrf::order::SolveScratch;
use mrf::solver::{MapSolver, SolveControl};
use mrf::trws::{Trws, TrwsOptions};
use mrf::VarId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
            let mut m = MrfModel::new();
            let vars: Vec<_> = (0..n).map(|i| m.add_var(cards[i]).unwrap()).collect();
            for (i, &v) in vars.iter().enumerate() {
                let costs = unaries[i * 3..i * 3 + cards[i]].to_vec();
                m.set_unary(v, costs).unwrap();
            }
            let mut k = 0usize;
            for i in 0..n {
                for j in (i + 1)..n {
                    if edge_mask[k % edge_mask.len()] {
                        let need = cards[i] * cards[j];
                        let costs = pairwise[k * 9..k * 9 + need].to_vec();
                        m.add_pairwise_dense(vars[i], vars[j], costs).unwrap();
                    }
                    k += 1;
                }
            }
            m
        })
}

/// A random tree-structured model: every variable past the first attaches
/// to a random earlier parent, so elimination is exact and TRW-S must
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
            let mut m = MrfModel::new();
            let vars: Vec<_> = (0..n).map(|i| m.add_var(cards[i]).unwrap()).collect();
            for (i, &v) in vars.iter().enumerate() {
                m.set_unary(v, unaries[i * 3..i * 3 + cards[i]].to_vec())
                    .unwrap();
            }
            for i in 1..n {
                let p = parents[i] % i;
                let need = cards[p] * cards[i];
                let costs = pairwise[i * 9..i * 9 + need].to_vec();
                m.add_pairwise_dense(vars[p], vars[i], costs).unwrap();
            }
            m
        })
}

/// A random sparse model built through the mutation API, with tombstoned
/// and recycled variable slots, plus an in-domain start labeling (0 at dead
/// slots), a frontier (dead and duplicate entries included) and a seal set
/// (possibly empty) — the inputs of a masked local refinement.
fn fragmented_case(seed: u64, n: usize) -> (MrfModel, Vec<usize>, Vec<VarId>, Vec<VarId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = MrfModel::new();
    let add_var = |model: &mut MrfModel, rng: &mut StdRng| {
        let labels = rng.gen_range(2..5);
        let v = model.add_var(labels).unwrap();
        model
            .set_unary(v, (0..labels).map(|_| rng.gen_range(0.0..2.0)).collect())
            .unwrap();
        v
    };
    let add_edges = |model: &mut MrfModel, rng: &mut StdRng, v: VarId, p: f64| {
        let others: Vec<VarId> = model.live_vars().filter(|&o| o != v).collect();
        for o in others {
            if rng.gen_bool(p) {
                let cells = model.labels(v) * model.labels(o);
                let costs = (0..cells).map(|_| rng.gen_range(0.0..2.0)).collect();
                model.add_pairwise_dense(v, o, costs).unwrap();
            }
        }
    };
    let degree = 3.0 / n as f64;
    for _ in 0..n {
        let v = add_var(&mut model, &mut rng);
        add_edges(&mut model, &mut rng, v, degree);
    }
    // Tombstone a share of the variables, then recycle some of the slots.
    for i in 0..n {
        if rng.gen_bool(0.25) {
            model.remove_var(VarId(i)).unwrap();
        }
    }
    for _ in 0..rng.gen_range(0..n / 4 + 1) {
        let v = add_var(&mut model, &mut rng);
        add_edges(&mut model, &mut rng, v, degree);
    }
    let slots = model.var_count();
    let start = (0..slots)
        .map(|i| match model.labels(VarId(i)) {
            0 => 0,
            l => rng.gen_range(0..l),
        })
        .collect();
    let frontier = (0..rng.gen_range(0..slots / 2 + 2))
        .map(|_| VarId(rng.gen_range(0..slots)))
        .collect();
    let sealed = (0..rng.gen_range(0..slots / 3 + 1))
        .map(|_| VarId(rng.gen_range(0..slots)))
        .collect();
    (model, start, frontier, sealed)
}

/// The conditional costs of variable `i` given `labels`, and their argmin.
fn conditional(model: &MrfModel, labels: &[usize], i: usize, cost: &mut Vec<f64>) -> usize {
    let v = VarId(i);
    cost.clear();
    cost.extend_from_slice(model.unary(v));
    for &eidx in model.incident_edges(v) {
        let e = model.edges()[eidx as usize];
        for (x, c) in cost.iter_mut().enumerate() {
            *c += if e.a().0 == i {
                model.edge_cost(&e, x, labels[e.b().0])
            } else {
                model.edge_cost(&e, labels[e.a().0], x)
            };
        }
    }
    cost.iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map_or(0, |(x, _)| x)
}

/// The masked local ICM sweep as it was before the worklist: every sweep
/// visits every active (unsealed) variable in slot order, and the energy is
/// re-evaluated at the end. An unsealed region past half the slots hands
/// off to a full descent; a sealed one widens to every live unsealed
/// variable. The reference the worklist sweep must reproduce.
fn reference_local(
    model: &MrfModel,
    start: Vec<usize>,
    frontier: &[VarId],
    sealed: &[VarId],
) -> LocalRefine {
    let ctl = SolveControl::new();
    let max_sweeps = IcmOptions::default().max_sweeps;
    let n = model.var_count();
    let mut sealed_mask = vec![false; n];
    for v in sealed {
        if let Some(m) = sealed_mask.get_mut(v.0) {
            *m = true;
        }
    }
    let is_unsealed = |i: usize| !sealed_mask[i] && model.is_live(VarId(i));
    let unsealed_total = (0..n).filter(|&i| is_unsealed(i)).count();
    let mut mask = vec![false; n];
    let mut count = 0;
    for &v in frontier {
        if v.0 < n && is_unsealed(v.0) && !mask[v.0] {
            mask[v.0] = true;
            count += 1;
        }
    }
    if count == 0 {
        let energy = model.energy(&start);
        return LocalRefine::noop(start, energy);
    }
    let seal = !sealed.is_empty();
    let mut full_sweep = false;
    if !seal && 2 * count > n {
        return LocalRefine::full(
            Icm::default().solve_from(model, start, &ctl),
            model.live_var_count(),
        );
    }
    if seal && 2 * count > unsealed_total {
        full_sweep = true;
        mask = (0..n).map(is_unsealed).collect();
        count = unsealed_total;
    }
    let mut labels = start;
    let mut cost = Vec::new();
    let mut expansions = 0;
    let mut sweeps = 0;
    let mut converged = false;
    for sweep in 0..max_sweeps {
        sweeps = sweep + 1;
        let mut changed = false;
        for i in 0..n {
            if !mask[i] {
                continue;
            }
            let best = conditional(model, &labels, i, &mut cost);
            if best == labels[i] || cost[best] >= cost[labels[i]] {
                continue;
            }
            labels[i] = best;
            changed = true;
            if full_sweep {
                continue;
            }
            let mut added = 0;
            for &eidx in model.incident_edges(VarId(i)) {
                let e = model.edges()[eidx as usize];
                let other = if e.a().0 == i { e.b().0 } else { e.a().0 };
                if !sealed_mask[other] && !mask[other] {
                    mask[other] = true;
                    count += 1;
                    added += 1;
                }
            }
            if added == 0 {
                continue;
            }
            expansions += 1;
            if !seal && 2 * count > n {
                let full = Icm::default().solve_from(model, labels, &ctl);
                return LocalRefine {
                    solution: full,
                    swept_vars: model.live_var_count(),
                    expansions,
                    full_sweep: true,
                };
            }
            if seal && 2 * count > unsealed_total {
                full_sweep = true;
                mask = (0..n).map(is_unsealed).collect();
                count = unsealed_total;
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    let energy = model.energy(&labels);
    LocalRefine {
        solution: mrf::solution::Solution::new(labels, energy, None, sweeps, converged),
        swept_vars: count,
        expansions,
        full_sweep,
    }
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
            Icm::default().solve(&model, &SolveControl::new()).labels().to_vec(),
            Elimination::default().solve_exact(&model, &SolveControl::new()).unwrap().labels().to_vec(),
        ] {
            prop_assert_eq!(labels.len(), model.var_count());
            for (i, &l) in labels.iter().enumerate() {
                prop_assert!(l < model.labels(mrf::VarId(i)));
            }
        }
    }

    /// The worklist sweep behind `Icm::refine_local`, unsealed and sealed,
    /// reproduces the full-index masked sweep: same labels, sweep count,
    /// region size, expansions and fallback, with its carried energy
    /// (start energy plus flip deltas) matching the model.
    #[test]
    fn worklist_sweep_matches_the_full_index_masked_sweep(seed in 0u64..u64::MAX, n in 4usize..48) {
        let (model, start, frontier, sealed) = fragmented_case(seed, n);
        let ctl = SolveControl::new();
        let icm = Icm::default();
        let refine = |seal: &[VarId]| {
            let start = Start { labels: start.clone(), energy: model.energy(&start) };
            icm.refine_local(&model, start, &frontier, seal, &ctl, &mut SolveScratch::new())
        };
        let unsealed = refine(&[]);
        let sealed_out = refine(&sealed);
        for (got, seal) in [(unsealed, &[][..]), (sealed_out, &sealed[..])] {
            let want = reference_local(&model, start.clone(), &frontier, seal);
            prop_assert_eq!(got.solution.labels(), want.solution.labels());
            prop_assert_eq!(got.solution.iterations(), want.solution.iterations());
            prop_assert_eq!(got.solution.converged(), want.solution.converged());
            prop_assert_eq!(got.swept_vars, want.swept_vars);
            prop_assert_eq!(got.expansions, want.expansions);
            prop_assert_eq!(got.full_sweep, want.full_sweep);
            let exact = model.energy(got.solution.labels());
            prop_assert!(
                (got.solution.energy() - exact).abs() <= 1e-9 * exact.abs().max(1.0),
                "carried energy {} vs model {}", got.solution.energy(), exact
            );
        }
    }
}
