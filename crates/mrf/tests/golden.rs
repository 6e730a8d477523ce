//! Golden outputs of the three iterative solvers at their default options.
//!
//! Each case is a seeded random model built through the mutation API:
//! label counts 2–5, flat and random unaries, dense edges in both endpoint
//! orders (so half the potentials are stored transposed), shared
//! tie-heavy potentials reused across edges, at least ten variable slots
//! tombstoned by `remove_var` and some of them recycled. For `Trws`, `Bp` and `Icm` the test pins an
//! FNV-1a digest of the labels, the energy's bit pattern and the iteration
//! count. Any change to a sweep's visit order, tie-breaking or arithmetic
//! shows up here, which is the point: a refactor of the solver kernels
//! must leave these numbers exactly as they are.

use mrf::bp::Bp;
use mrf::icm::Icm;
use mrf::model::{MrfModel, PotentialId};
use mrf::solver::{MapSolver, SolveControl};
use mrf::trws::Trws;
use mrf::VarId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random model of `n` variables at average degree ≈ `degree`,
/// with `removed` variables tombstoned afterwards and a quarter of those
/// slots recycled by fresh variables.
fn golden_model(seed: u64, n: usize, degree: f64, removed: usize) -> MrfModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = MrfModel::new();
    // One shared similarity-style potential per (rows, cols) shape: 1.0
    // where the labels agree, 0.25 where they share a "vendor" (same
    // parity), 0 elsewhere. Integer-like costs make ties common.
    let mut shared: Vec<Option<PotentialId>> = vec![None; 36];
    // Half the variables get the flat preference unary the diversity
    // energy uses, so conditional costs tie and tie-breaking shows.
    let add_var = |model: &mut MrfModel, rng: &mut StdRng| {
        let labels = rng.gen_range(2..6);
        let v = model.add_var(labels).unwrap();
        let unary = if rng.gen_bool(0.5) {
            vec![0.01; labels]
        } else {
            (0..labels).map(|_| rng.gen_range(0.0..1.5)).collect()
        };
        model.set_unary(v, unary).unwrap();
        v
    };
    let mut add_edges = |model: &mut MrfModel, rng: &mut StdRng, v: VarId| {
        let others: Vec<VarId> = model.live_vars().filter(|&o| o != v).collect();
        let p = degree / others.len().max(1) as f64;
        for o in others {
            if !rng.gen_bool(p.min(1.0)) {
                continue;
            }
            // Endpoint order decides the stored orientation: `v` is the
            // newest variable, so (v, o) is usually transposed and (o, v)
            // usually not.
            let (a, b) = if rng.gen_bool(0.5) { (v, o) } else { (o, v) };
            let (la, lb) = (model.labels(a), model.labels(b));
            if rng.gen_bool(0.4) {
                let key = la * 6 + lb;
                let pid = match shared[key] {
                    Some(pid) => pid,
                    None => {
                        let costs = (0..la * lb)
                            .map(|k| {
                                let (x, y) = (k / lb, k % lb);
                                if x == y {
                                    1.0
                                } else if x % 2 == y % 2 {
                                    0.25
                                } else {
                                    0.0
                                }
                            })
                            .collect();
                        let pid = model.add_potential(la, lb, costs).unwrap();
                        shared[key] = Some(pid);
                        pid
                    }
                };
                model.add_pairwise(a, b, pid).unwrap();
            } else {
                let costs = (0..la * lb).map(|_| rng.gen_range(0.0..2.0)).collect();
                model.add_pairwise_dense(a, b, costs).unwrap();
            }
        }
    };
    for _ in 0..n {
        let v = add_var(&mut model, &mut rng);
        add_edges(&mut model, &mut rng, v);
    }
    let mut gone = 0;
    while gone < removed {
        let v = VarId(rng.gen_range(0..model.var_count()));
        if model.remove_var(v).is_ok() {
            gone += 1;
        }
    }
    for _ in 0..removed / 4 {
        let v = add_var(&mut model, &mut rng);
        add_edges(&mut model, &mut rng, v);
    }
    model
}

/// FNV-1a over the labels, each as eight little-endian bytes.
fn fnv1a(labels: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &l in labels {
        for byte in (l as u64).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `(labels digest, energy bits, iterations)` of `solver` on `model`.
fn fingerprint(solver: &dyn MapSolver, model: &MrfModel) -> (u64, u64, usize) {
    let s = solver.solve(model, &SolveControl::new());
    assert_eq!(s.labels().len(), model.var_count());
    (fnv1a(s.labels()), s.energy().to_bits(), s.iterations())
}

/// The golden cases: `(seed, variables, degree, removed)`.
const CASES: [(u64, usize, f64, usize); 3] = [
    (1701, 60, 3.0, 16),
    (1702, 240, 4.0, 40),
    (1703, 700, 5.0, 90),
];

fn check(solver: &dyn MapSolver, want: [(u64, u64, usize); 3]) {
    let got: Vec<(u64, u64, usize)> = CASES
        .iter()
        .map(|&(seed, n, degree, removed)| {
            let model = golden_model(seed, n, degree, removed);
            assert!(model.var_count() - model.live_var_count() >= 10);
            fingerprint(solver, &model)
        })
        .collect();
    let energies: Vec<f64> = got.iter().map(|g| f64::from_bits(g.1)).collect();
    assert_eq!(
        got,
        want,
        "{}: (labels digest, energy bits, iterations) moved; energies now {energies:?}",
        solver.name()
    );
}

#[test]
fn trws_outputs_are_pinned() {
    check(
        &Trws::default(),
        [
            (0xfd4a909b054f63e0, 0x404aab15668fa3a4, 100),
            (0x7a92d01cdd5c0f87, 0x4075e4e87fd4df34, 100),
            (0xbafb9f46558220a6, 0x409664e3d65d8fde, 100),
        ],
    );
}

#[test]
fn bp_outputs_are_pinned() {
    check(
        &Bp::default(),
        [
            (0x9418dece490f8521, 0x4049ac48c244acab, 38),
            (0xaf8e9e2b5c058120, 0x4076e686a039b4c6, 100),
            (0x8da70ba236ae3700, 0x409681622251f960, 100),
        ],
    );
}

#[test]
fn icm_outputs_are_pinned() {
    check(
        &Icm::default(),
        [
            (0x226bcc99e84f0be6, 0x404ab72db6ac4e2e, 6),
            (0xba8cb1d27d00afe7, 0x4076588aa1d7418b, 6),
            (0x4828b6d425d67d63, 0x4096fe7a113e6559, 6),
        ],
    );
}
