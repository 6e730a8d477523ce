//! Solver ablation: the design-choice comparison behind the paper's pick of
//! TRW-S (§V-C discusses graph-cuts/BP alternatives). For the exactly
//! solvable case study and a mid-scale random network, compares objective
//! quality, certified bounds and wall-clock across the crate's solvers,
//! with and without ILS refinement. Wall time and exact-fallback telemetry
//! come straight from `OptimizedAssignment`.

use ics_diversity::optimizer::{DiversityOptimizer, SolverKind};
use ics_diversity::report::TextTable;
use mrf::elimination::EliminationOptions;
use mrf::icm::IcmOptions;
use mrf::trws::TrwsOptions;
use netmodel::casestudy::CaseStudy;
use netmodel::catalog::ProductSimilarity;
use netmodel::network::Network;
use netmodel::topology::{generate, RandomNetworkConfig};

fn run(
    table: &mut TextTable,
    label: &str,
    network: &Network,
    similarity: &ProductSimilarity,
    solver: SolverKind,
    refine: bool,
) {
    let optimizer = DiversityOptimizer::new()
        .with_solver(solver)
        .with_refinement(if refine {
            Some(Default::default())
        } else {
            None
        });
    match optimizer.optimize(network, similarity) {
        Ok(solved) => {
            table.add_row_owned(vec![
                label.to_owned(),
                if refine { "yes" } else { "no" }.to_owned(),
                format!("{:.4}", solved.objective()),
                solved
                    .lower_bound()
                    .map(|b| format!("{b:.4}"))
                    .unwrap_or_else(|| "—".to_owned()),
                solved
                    .gap()
                    .map(|g| format!("{g:.4}"))
                    .unwrap_or_else(|| "—".to_owned()),
                format!("{:.3}", solved.wall_time().as_secs_f64()),
                solved
                    .exact_fallback()
                    .map(|_| "fallback!")
                    .unwrap_or("—")
                    .to_owned(),
            ]);
        }
        Err(e) => {
            table.add_row_owned(vec![
                label.to_owned(),
                "—".into(),
                format!("error: {e}"),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ]);
        }
    }
}

fn ablate(name: &str, network: &Network, similarity: &ProductSimilarity, with_exact: bool) {
    println!(
        "\n=== {name} ({} hosts, {} links) ===\n",
        network.host_count(),
        network.link_count()
    );
    let mut t = TextTable::new(&[
        "solver",
        "ILS",
        "objective",
        "bound",
        "gap",
        "seconds",
        "exact",
    ]);
    if with_exact {
        run(
            &mut t,
            "exact elimination",
            network,
            similarity,
            SolverKind::Exact(EliminationOptions::default()),
            false,
        );
    }
    for refine in [false, true] {
        run(
            &mut t,
            "trws",
            network,
            similarity,
            SolverKind::Trws(TrwsOptions::default()),
            refine,
        );
    }
    for refine in [false, true] {
        run(
            &mut t,
            "icm",
            network,
            similarity,
            SolverKind::Icm(IcmOptions::default()),
            refine,
        );
    }
    println!("{t}");
}

fn main() {
    println!("Solver ablation (design-choice comparison behind the paper’s pick of TRW-S)");
    let cs = CaseStudy::build();
    ablate("ICS case study", &cs.network, &cs.similarity, true);

    let g = generate(
        &RandomNetworkConfig {
            hosts: 300,
            mean_degree: 10,
            services: 5,
            products_per_service: 4,
            vendors_per_service: 2,
            ..RandomNetworkConfig::default()
        },
        42,
    );
    ablate("mid-scale random network", &g.network, &g.similarity, false);
    println!("reading: TRW-S dominates ICM on objective at comparable cost; ILS");
    println!("refinement recovers most of the remaining primal gap; exact elimination");
    println!("certifies the case study, where treewidth permits. On dense frustrated");
    println!("instances the TRW dual bound is valid but loose (a known property of the");
    println!("LP relaxation for anti-ferromagnetic energies) — primal quality is the");
    println!("metric that matters there, cross-validated against exact elimination in");
    println!("tests/solver_cross_validation.rs.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trws_with_refinement_dominates_bare_baselines_on_case_study() {
        let cs = CaseStudy::build();
        let obj = |solver: SolverKind, refine: bool| {
            DiversityOptimizer::new()
                .with_solver(solver)
                .with_refinement(if refine {
                    Some(Default::default())
                } else {
                    None
                })
                .optimize(&cs.network, &cs.similarity)
                .unwrap()
                .objective()
        };
        let exact = obj(SolverKind::Exact(EliminationOptions::default()), false);
        let trws = obj(SolverKind::Trws(TrwsOptions::default()), true);
        let icm = obj(SolverKind::Icm(IcmOptions::default()), false);
        assert!(exact <= trws + 1e-9);
        assert!(trws <= icm + 1e-9, "trws {trws} vs icm {icm}");
    }
}
