//! Criterion benchmarks for the MAP solvers (§V): TRW-S vs ICM on
//! identical prebuilt random-network energies at the §VIII scales.
//!
//! The energy model is built once per size and every entry times *only*
//! `MapSolver::solve` (or `solve_with` for the warm-scratch entries), so the
//! numbers isolate the solver hot loop from model construction — the
//! `model_build` group reports that cost separately. Sizes 240 and 960 hosts
//! always run; 5000 hosts only with `--full` (CI smoke stays fast). Besides
//! the printed report the run writes `BENCH_solvers.json` — per-entry ns/op
//! with, where a recorded pre-optimization baseline exists, the before/after
//! speedup — so the repo keeps a machine-readable perf trajectory (see
//! `docs/ARCHITECTURE.md`).

use criterion::{BenchmarkId, Criterion};

use ics_diversity::energy::{build_energy, EnergyModel};
use ics_diversity::optimizer::SolverKind;
use mrf::icm::IcmOptions;
use mrf::order::SolveScratch;
use mrf::solver::SolveControl;
use mrf::trws::TrwsOptions;
use netmodel::constraints::ConstraintSet;
use netmodel::topology::{generate, GeneratedNetwork, RandomNetworkConfig};

/// Median ns/op measured on this harness *before* the solver hot-loop pass
/// (flat message arenas, resolved potentials) landed — the
/// "before" column of the README table, re-measured at the pre-pass commit
/// with this same solve-only harness. The `-warm` entries have no baseline
/// (reusable solve scratch is new).
const BASELINE_NS: &[(&str, f64)] = &[
    ("solvers/trws/240", 5_671_000.0),
    ("solvers/icm/240", 896_000.0),
    ("solvers/trws/960", 30_182_000.0),
    ("solvers/icm/960", 4_622_000.0),
];

fn instance(hosts: usize) -> GeneratedNetwork {
    generate(
        &RandomNetworkConfig {
            hosts,
            mean_degree: 10,
            services: 5,
            products_per_service: 4,
            vendors_per_service: 2,
            ..RandomNetworkConfig::default()
        },
        2024,
    )
}

fn energy_for(g: &GeneratedNetwork) -> EnergyModel {
    build_energy(&g.network, &g.similarity, &ConstraintSet::new()).expect("instance builds")
}

fn solver_cases() -> [(&'static str, SolverKind); 2] {
    [
        (
            "trws",
            SolverKind::Trws(TrwsOptions {
                max_iterations: 30,
                ..TrwsOptions::default()
            }),
        ),
        ("icm", SolverKind::Icm(IcmOptions::default())),
    ]
}

/// One full solve per solver at `hosts` on a prebuilt model, plus the
/// warm-scratch re-solve variants and the model-build cost itself.
fn bench_full_solves(c: &mut Criterion, hosts: usize) {
    let g = instance(hosts);
    let energy = energy_for(&g);
    let model = energy.model();
    let ctl = SolveControl::new();
    let mut group = c.benchmark_group("solvers");
    group.sample_size(10);
    for (name, kind) in solver_cases() {
        let solver = kind.build();
        group.bench_with_input(BenchmarkId::new(name, hosts), &model, |b, m| {
            b.iter(|| solver.solve(m, &ctl));
        });
        // Same solve through a persistent scratch: after the first
        // iteration the structure prep reuses every allocation, which is
        // the warm re-solve path the incremental engine runs on churn.
        let mut scratch = SolveScratch::new();
        group.bench_with_input(
            BenchmarkId::new(format!("{name}-warm"), hosts),
            &model,
            |b, m| {
                b.iter(|| solver.solve_with(m, &ctl, &mut scratch));
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("model_build");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("build", hosts), &g, |b, g| {
        b.iter(|| energy_for(g));
    });
    group.finish();
}

/// Hand-rolled JSON (no serde offline): the core count the run saw, then
/// per-entry ns/op with the recorded baseline and speedup where one exists.
/// Same pattern as BENCH_serving.json.
fn emit_json(criterion: &Criterion, full: bool) {
    let mut entries = String::new();
    for (i, (name, t)) in criterion.measurements().iter().enumerate() {
        let ns = t.as_nanos() as f64;
        if i > 0 {
            entries.push_str(",\n");
        }
        let baseline = BASELINE_NS
            .iter()
            .find(|&&(n, b)| n == name && b > 0.0)
            .map(|&(_, b)| b);
        match baseline {
            Some(before) => entries.push_str(&format!(
                "    {{\"name\": \"{name}\", \"ns_per_op\": {ns:.0}, \
                 \"baseline_ns_per_op\": {before:.0}, \"speedup\": {:.2}}}",
                before / ns
            )),
            None => entries.push_str(&format!(
                "    {{\"name\": \"{name}\", \"ns_per_op\": {ns:.0}, \
                 \"baseline_ns_per_op\": null, \"speedup\": null}}"
            )),
        }
    }
    let json = format!(
        "{{\n  \"bench\": \"solvers\",\n  \"mode\": \"{}\",\n  {},\n  \
         \"entries\": [\n{entries}\n  ]\n}}\n",
        if full { "full" } else { "reduced" },
        bench::machine_json(),
    );
    match std::fs::write("BENCH_solvers.json", &json) {
        Ok(()) => println!("wrote BENCH_solvers.json"),
        Err(err) => eprintln!("warning: could not write BENCH_solvers.json: {err}"),
    }
}

fn main() {
    let full = bench::full_mode();
    let mut criterion = Criterion::default();
    bench_full_solves(&mut criterion, 240);
    bench_full_solves(&mut criterion, 960);
    if full {
        bench_full_solves(&mut criterion, 5000);
    }
    emit_json(&criterion, full);
}
