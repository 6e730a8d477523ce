//! End-to-end integration: the full Section VII pipeline on the case study.

use bayesnet::attack::AttackModelConfig;
use ics_diversity::evaluate::{diversity_report, mttc_report, EvaluationConfig};
use ics_diversity::optimizer::{DiversityOptimizer, SolverKind};
use netmodel::casestudy::CaseStudy;
use netmodel::strategies::{mono_assignment, random_assignment};
use sim::mttc::MttcOptions;

fn exact_optimizer() -> DiversityOptimizer {
    DiversityOptimizer::new().with_solver(SolverKind::Exact(Default::default()))
}

#[test]
fn table5_pipeline_preserves_the_paper_ordering() {
    let cs = CaseStudy::build();
    let optimizer = exact_optimizer();
    let optimal = optimizer.optimize(&cs.network, &cs.similarity).unwrap();
    let c1 = optimizer
        .optimize_constrained(&cs.network, &cs.similarity, &cs.constraints_c1())
        .unwrap();
    let c2 = optimizer
        .optimize_constrained(&cs.network, &cs.similarity, &cs.constraints_c2())
        .unwrap();
    // The pinned draw (see the constant's comment): the table illustrates
    // the paper's ordering, and an unluckily diverse random draw can
    // legitimately beat the *constrained* optima on dbn.
    let random = random_assignment(&cs.network, bench::RANDOM_BASELINE_SEED);
    let mono = mono_assignment(&cs.network);
    let rows = diversity_report(
        &cs.network,
        &cs.similarity,
        &[
            ("opt", optimal.assignment()),
            ("c1", c1.assignment()),
            ("c2", c2.assignment()),
            ("rand", &random),
            ("mono", &mono),
        ],
        cs.bn_entry,
        cs.target,
        AttackModelConfig::default(),
    )
    .unwrap();
    let dbn: Vec<f64> = rows.iter().map(|r| r.metric.dbn).collect();
    // Paper Table V's qualitative ordering.
    assert!(dbn[0] > dbn[1]);
    assert!(
        (dbn[1] - dbn[2]).abs() < 0.25 * dbn[1],
        "C1 and C2 are nearly equal in the paper"
    );
    assert!(dbn[1] > dbn[3] || dbn[2] > dbn[3]);
    assert!(dbn[3] > dbn[4]);
    // dbn is a proper (0, 1] metric for all assignments.
    for d in &dbn {
        assert!(*d > 0.0 && *d <= 1.0 + 1e-9);
    }
    // The constrained objectives pay for their constraints.
    assert!(optimal.objective() <= c1.objective() + 1e-9);
    assert!(c1.objective() <= c2.objective() + 1e-9);
}

#[test]
fn diversification_multiplies_mttc_against_mono() {
    let cs = CaseStudy::build();
    let optimal = exact_optimizer()
        .optimize(&cs.network, &cs.similarity)
        .unwrap()
        .into_assignment();
    let mono = mono_assignment(&cs.network);
    let config = EvaluationConfig {
        mttc: MttcOptions {
            runs: 200,
            ..MttcOptions::default()
        },
        ..EvaluationConfig::default()
    };
    let cells = mttc_report(
        &cs.network,
        &cs.similarity,
        &[("opt", &optimal), ("mono", &mono)],
        &cs.entry_points,
        cs.target,
        &config,
    );
    let total = |label: &str| -> f64 {
        cells
            .iter()
            .filter(|c| c.label == label)
            .map(|c| c.estimate.mean_ticks().unwrap_or(f64::INFINITY))
            .sum()
    };
    assert!(
        total("opt") > 3.0 * total("mono"),
        "aggregate MTTC: optimal {} should be a multiple of mono {}",
        total("opt"),
        total("mono")
    );
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let run = || {
        let cs = CaseStudy::build();
        let optimal = exact_optimizer()
            .optimize(&cs.network, &cs.similarity)
            .unwrap()
            .into_assignment();
        let metric = bayesnet::attack::diversity_metric(
            &cs.network,
            &optimal,
            &cs.similarity,
            cs.bn_entry,
            cs.target,
            AttackModelConfig::default(),
        )
        .unwrap();
        (optimal, metric.dbn)
    };
    let (a1, d1) = run();
    let (a2, d2) = run();
    assert_eq!(a1, a2, "optimization must be deterministic");
    assert_eq!(d1, d2, "inference must be deterministic");
}

#[test]
fn constrained_solutions_honor_their_constraint_sets() {
    let cs = CaseStudy::build();
    let optimizer = exact_optimizer();
    let c1 = cs.constraints_c1();
    let c2 = cs.constraints_c2();
    let s1 = optimizer
        .optimize_constrained(&cs.network, &cs.similarity, &c1)
        .unwrap();
    let s2 = optimizer
        .optimize_constrained(&cs.network, &cs.similarity, &c2)
        .unwrap();
    assert!(c1.is_satisfied(&cs.network, s1.assignment()));
    assert!(c2.is_satisfied(&cs.network, s2.assignment()));
    // And the fixed host really got its pinned products.
    let z4 = cs.host("z4");
    assert_eq!(
        s1.assignment().product_for(&cs.network, z4, cs.services.os),
        Some(cs.product("Win7"))
    );
    // C2's global rule: no IE10 on a Linux host anywhere.
    for (id, _) in cs.network.iter_hosts() {
        let os = s2.assignment().product_for(&cs.network, id, cs.services.os);
        let wb = s2.assignment().product_for(&cs.network, id, cs.services.wb);
        if os == Some(cs.product("Ubuntu14.04")) || os == Some(cs.product("Debian8.0")) {
            assert_ne!(wb, Some(cs.product("IE10")));
        }
    }
}

#[test]
fn legacy_hosts_never_change_products() {
    let cs = CaseStudy::build();
    let optimal = exact_optimizer()
        .optimize(&cs.network, &cs.similarity)
        .unwrap()
        .into_assignment();
    for h in cs.legacy_hosts() {
        let host = cs.network.host(h).unwrap();
        for inst in host.services() {
            assert_eq!(
                optimal.product_for(&cs.network, h, inst.service()),
                Some(inst.candidates()[0]),
                "legacy host {} must keep its only candidate",
                host.name()
            );
        }
    }
}

#[test]
fn exact_solver_beats_or_matches_every_other_solver_on_the_case_study() {
    use mrf::icm::IcmOptions;
    use mrf::trws::TrwsOptions;
    let cs = CaseStudy::build();
    let exact = exact_optimizer()
        .optimize(&cs.network, &cs.similarity)
        .unwrap();
    for solver in [
        SolverKind::Trws(TrwsOptions::default()),
        SolverKind::Icm(IcmOptions::default()),
    ] {
        let other = DiversityOptimizer::new()
            .with_solver(solver.clone())
            .optimize(&cs.network, &cs.similarity)
            .unwrap();
        assert!(
            exact.objective() <= other.objective() + 1e-9,
            "exact {} must not exceed {:?} at {}",
            exact.objective(),
            solver,
            other.objective()
        );
    }
    // The exact optimum is certified: bound equals energy.
    assert!(exact.gap().unwrap().abs() < 1e-6);
}
