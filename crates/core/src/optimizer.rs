//! The optimization facade: network in, optimal assignment out.
//!
//! Built entirely on the open [`MapSolver`] trait: any solver — the
//! built-ins or a user-supplied implementation — drops into
//! [`DiversityOptimizer::with_map_solver`]. [`SolverKind`]
//! remains as a declarative convenience constructor. Refinement is one
//! optional ILS stage applied via [`MapSolver::refine`], and every run
//! reports telemetry: solver name, wall time, and whether (and why) an
//! exact solve fell back to an approximate one.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrf::elimination::EliminationOptions;
use mrf::exhaustive::Exhaustive;
use mrf::icm::{Icm, IcmOptions};
use mrf::ils::{Ils, IlsOptions};
use mrf::solver::{ExactFallback, MapSolver, SolveControl};
use mrf::trws::{Trws, TrwsOptions};
use mrf::Solution;

use netmodel::assignment::Assignment;
use netmodel::catalog::ProductSimilarity;
use netmodel::constraints::ConstraintSet;
use netmodel::network::Network;

use crate::energy::{build_energy, EnergyModel};
use crate::{Error, Result};

/// Declarative solver selection — a convenience constructor for the
/// [`MapSolver`] implementations in [`mrf`]. Use
/// [`DiversityOptimizer::with_map_solver`] directly for anything this enum
/// cannot express (custom solvers).
#[derive(Debug, Clone, PartialEq)]
pub enum SolverKind {
    /// Sequential tree-reweighted message passing (the paper's choice).
    Trws(TrwsOptions),
    /// Iterated conditional modes (fast greedy baseline).
    Icm(IcmOptions),
    /// Iterated local search from the unary argmin.
    Ils(IlsOptions),
    /// Brute force (tiny instances / testing only).
    Exhaustive,
    /// Exact MAP by bucket elimination — globally optimal whenever the
    /// instance's treewidth fits the table cap, as the ICS case study does.
    /// Falls back to TRW-S (with default options) when it does not; the
    /// fallback and its cause are surfaced via
    /// [`OptimizedAssignment::exact_fallback`].
    Exact(EliminationOptions),
}

impl Default for SolverKind {
    fn default() -> SolverKind {
        SolverKind::Trws(TrwsOptions::default())
    }
}

impl SolverKind {
    /// Instantiates the described solver.
    pub fn build(&self) -> Box<dyn MapSolver> {
        match self {
            SolverKind::Trws(opts) => Box::new(Trws::new(opts.clone())),
            SolverKind::Icm(opts) => Box::new(Icm::new(opts.clone())),
            SolverKind::Ils(opts) => Box::new(Ils::new(opts.clone())),
            SolverKind::Exhaustive => Box::new(Exhaustive::new()),
            SolverKind::Exact(opts) => Box::new(ExactFallback::new(opts.clone())),
        }
    }
}

impl From<SolverKind> for Box<dyn MapSolver> {
    fn from(kind: SolverKind) -> Box<dyn MapSolver> {
        kind.build()
    }
}

/// The result of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimizedAssignment {
    assignment: Assignment,
    objective: f64,
    lower_bound: Option<f64>,
    iterations: usize,
    converged: bool,
    variables: usize,
    edges: usize,
    solver: String,
    wall: Duration,
    fallback: Option<String>,
}

impl OptimizedAssignment {
    /// The optimal (or best-found) product assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Consumes the result, returning the assignment.
    pub fn into_assignment(self) -> Assignment {
        self.assignment
    }

    /// The full objective value (MRF energy plus the fixed-fixed constant).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// A certified lower bound on the optimal objective, when the solver
    /// provides one (TRW-S, elimination).
    pub fn lower_bound(&self) -> Option<f64> {
        self.lower_bound
    }

    /// The optimality gap, if a bound is available.
    pub fn gap(&self) -> Option<f64> {
        self.lower_bound.map(|lb| self.objective - lb)
    }

    /// Solver iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the solver converged (vs. hitting its iteration cap or the
    /// wall-clock budget).
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of free MRF variables the problem had.
    pub fn variables(&self) -> usize {
        self.variables
    }

    /// Number of MRF edges the problem had.
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// Name of the solver that produced this result
    /// (see [`MapSolver::name`]).
    pub fn solver_name(&self) -> &str {
        &self.solver
    }

    /// Wall-clock time of the solve + refinement stages (energy
    /// construction excluded).
    pub fn wall_time(&self) -> Duration {
        self.wall
    }

    /// When the exact-elimination stage fell back to an approximate solver,
    /// the human-readable cause (treewidth cap, interrupted by budget).
    /// `None` if no fallback fired — including for solvers without an exact
    /// stage.
    ///
    /// The cause is recorded on the solver instance per solve; if one
    /// optimizer (or clones of it, which share the solver) runs concurrent
    /// solves, a result may report the cause of whichever solve finished
    /// last. Use separate `DiversityOptimizer` values per thread when this
    /// field must be exact.
    pub fn exact_fallback(&self) -> Option<&str> {
        self.fallback.as_deref()
    }
}

/// Computes optimal diversification strategies (paper §V).
///
/// ```
/// use ics_diversity::optimizer::DiversityOptimizer;
/// use netmodel::topology::{generate, RandomNetworkConfig};
///
/// # fn main() -> Result<(), ics_diversity::Error> {
/// let g = generate(&RandomNetworkConfig { hosts: 30, ..Default::default() }, 1);
/// let result = DiversityOptimizer::new().optimize(&g.network, &g.similarity)?;
/// assert!(result.assignment().validate(&g.network).is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct DiversityOptimizer {
    solver: Arc<dyn MapSolver>,
    refinement: Option<Ils>,
    budget: Option<Duration>,
}

impl fmt::Debug for DiversityOptimizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiversityOptimizer")
            .field("solver", &self.solver.name())
            .field("refinement", &self.refinement)
            .field("budget", &self.budget)
            .finish()
    }
}

impl Default for DiversityOptimizer {
    fn default() -> DiversityOptimizer {
        DiversityOptimizer {
            solver: Arc::new(Trws::default()),
            refinement: Some(Ils::default()),
            budget: None,
        }
    }
}

impl DiversityOptimizer {
    /// Creates an optimizer with TRW-S and ILS refinement of the decoded
    /// solution.
    pub fn new() -> DiversityOptimizer {
        DiversityOptimizer::default()
    }

    /// Replaces the solver with a declaratively described one.
    pub fn with_solver(self, kind: SolverKind) -> DiversityOptimizer {
        self.with_map_solver(kind.build())
    }

    /// Replaces the solver with any [`MapSolver`] implementation.
    pub fn with_map_solver(mut self, solver: Box<dyn MapSolver>) -> DiversityOptimizer {
        self.solver = Arc::from(solver);
        self
    }

    /// Replaces (or disables, with `None`) the ILS refinement stage. Its
    /// [`MapSolver::refine`] runs on the solver's labeling, and its result
    /// is kept only if it improves the energy.
    pub fn with_refinement(mut self, refine: Option<IlsOptions>) -> DiversityOptimizer {
        self.refinement = refine.map(Ils::new);
        self
    }

    /// Sets a wall-clock budget applied to every subsequent
    /// `optimize*` call (solve + refinement share the budget). All solvers
    /// honor it at iteration granularity and return their best-so-far
    /// solution (anytime semantics).
    pub fn with_time_budget(mut self, budget: Duration) -> DiversityOptimizer {
        self.budget = Some(budget);
        self
    }

    fn control(&self) -> SolveControl {
        match self.budget {
            Some(budget) => SolveControl::new().with_budget(budget),
            None => SolveControl::new(),
        }
    }

    /// Computes the unconstrained optimal assignment `α̂`.
    ///
    /// # Errors
    ///
    /// See [`DiversityOptimizer::optimize_constrained`] (with an empty
    /// constraint set only [`Error::Mrf`] is possible, and only for
    /// malformed networks).
    pub fn optimize(
        &self,
        network: &Network,
        similarity: &ProductSimilarity,
    ) -> Result<OptimizedAssignment> {
        self.optimize_constrained(network, similarity, &ConstraintSet::new())
    }

    /// Computes the constrained optimal assignment `α̂_C`.
    ///
    /// # Errors
    ///
    /// * [`Error::Infeasible`] — constraints empty a slot's candidate set.
    /// * [`Error::UnsatisfiableConstraints`] — the solved assignment still
    ///   violates a constraint (jointly unsatisfiable constraint system, or
    ///   a budget too tight to satisfy soft combination constraints).
    pub fn optimize_constrained(
        &self,
        network: &Network,
        similarity: &ProductSimilarity,
        constraints: &ConstraintSet,
    ) -> Result<OptimizedAssignment> {
        // Construct the energy *before* starting the budget clock: the
        // documented budget covers solve + refinement, not model building.
        let energy = build_energy(network, similarity, constraints)?;
        let started = Instant::now();
        let solution = self.run_pipeline(&energy, &self.control());
        let wall = started.elapsed();
        let assignment = energy.decode(solution.labels());
        debug_assert!(assignment.validate(network).is_ok());
        let violations = constraints.violations(network, &assignment);
        if !violations.is_empty() {
            return Err(Error::UnsatisfiableConstraints {
                violations: violations.len(),
            });
        }
        Ok(OptimizedAssignment {
            assignment,
            objective: solution.energy() + energy.base_energy(),
            lower_bound: solution.lower_bound().map(|lb| lb + energy.base_energy()),
            iterations: solution.iterations(),
            converged: solution.converged(),
            variables: energy.model().var_count(),
            edges: energy.model().edge_count(),
            solver: self.solver.name(),
            wall,
            fallback: self.solver.fallback_cause(),
        })
    }

    /// Main solve followed by the refinement stage, both driven through the
    /// [`MapSolver`] trait.
    fn run_pipeline(&self, energy: &EnergyModel, ctl: &SolveControl) -> Solution {
        let model = energy.model();
        let mut solution = self.solver.solve(model, ctl);
        if let Some(refiner) = &self.refinement {
            let refined = refiner.refine(model, solution.labels().to_vec(), ctl);
            if refined.energy() < solution.energy() {
                // Keep the main solver's bound/iteration diagnostics; the
                // refiner only improves the primal labeling.
                solution = Solution::new(
                    refined.labels().to_vec(),
                    refined.energy(),
                    solution.lower_bound(),
                    solution.iterations(),
                    solution.converged(),
                );
            }
        }
        solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::casestudy::CaseStudy;
    use netmodel::strategies::{mono_assignment, random_assignment};
    use netmodel::topology::{generate, RandomNetworkConfig, TopologyKind};

    #[test]
    fn optimal_beats_baselines_on_random_networks() {
        for seed in 0..3 {
            let g = generate(
                &RandomNetworkConfig {
                    hosts: 40,
                    mean_degree: 6,
                    services: 3,
                    products_per_service: 4,
                    vendors_per_service: 2,
                    topology: TopologyKind::Random,
                },
                seed,
            );
            let opt = DiversityOptimizer::new()
                .optimize(&g.network, &g.similarity)
                .unwrap();
            let optimal_sim = opt
                .assignment()
                .total_edge_similarity(&g.network, &g.similarity);
            let mono = mono_assignment(&g.network).total_edge_similarity(&g.network, &g.similarity);
            let random = random_assignment(&g.network, seed)
                .total_edge_similarity(&g.network, &g.similarity);
            assert!(
                optimal_sim < random && random < mono,
                "seed {seed}: expected optimal {optimal_sim} < random {random} < mono {mono}"
            );
        }
    }

    #[test]
    fn trws_matches_exhaustive_on_tiny_instances() {
        for seed in 0..4 {
            let g = generate(
                &RandomNetworkConfig {
                    hosts: 6,
                    mean_degree: 2,
                    services: 2,
                    products_per_service: 2,
                    vendors_per_service: 2,
                    topology: TopologyKind::Random,
                },
                seed,
            );
            let trws = DiversityOptimizer::new()
                .optimize(&g.network, &g.similarity)
                .unwrap();
            let brute = DiversityOptimizer::new()
                .with_solver(SolverKind::Exhaustive)
                .optimize(&g.network, &g.similarity)
                .unwrap();
            assert!(
                (trws.objective() - brute.objective()).abs() < 1e-6,
                "seed {seed}: trws {} vs brute {}",
                trws.objective(),
                brute.objective()
            );
        }
    }

    #[test]
    fn bound_is_valid_and_telemetry_populated() {
        let g = generate(
            &RandomNetworkConfig {
                hosts: 30,
                mean_degree: 4,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            9,
        );
        let opt = DiversityOptimizer::new()
            .optimize(&g.network, &g.similarity)
            .unwrap();
        let lb = opt.lower_bound().expect("trws provides a bound");
        assert!(lb <= opt.objective() + 1e-9);
        assert!(opt.gap().unwrap() >= -1e-9);
        assert!(opt.variables() > 0);
        assert!(opt.edges() > 0);
        assert_eq!(opt.solver_name(), "trws");
        assert!(opt.wall_time() > Duration::ZERO);
        assert!(opt.exact_fallback().is_none());
    }

    #[test]
    fn case_study_constrained_solves_respect_constraints() {
        let cs = CaseStudy::build();
        let optimizer = DiversityOptimizer::new();
        let unconstrained = optimizer.optimize(&cs.network, &cs.similarity).unwrap();
        let c1 = cs.constraints_c1();
        let constrained1 = optimizer
            .optimize_constrained(&cs.network, &cs.similarity, &c1)
            .unwrap();
        assert!(c1.is_satisfied(&cs.network, constrained1.assignment()));
        let c2 = cs.constraints_c2();
        let constrained2 = optimizer
            .optimize_constrained(&cs.network, &cs.similarity, &c2)
            .unwrap();
        assert!(c2.is_satisfied(&cs.network, constrained2.assignment()));
        // Constraints can only cost diversity (paper Table V ordering).
        let sim_of = |a: &netmodel::assignment::Assignment| {
            a.total_edge_similarity(&cs.network, &cs.similarity)
        };
        assert!(sim_of(unconstrained.assignment()) <= sim_of(constrained1.assignment()) + 1e-9);
    }

    #[test]
    fn solver_variants_all_produce_valid_assignments() {
        let cs = CaseStudy::build();
        for solver in [
            SolverKind::Trws(TrwsOptions::default()),
            SolverKind::Icm(IcmOptions::default()),
            SolverKind::Ils(IlsOptions::default()),
            SolverKind::Exact(EliminationOptions::default()),
        ] {
            let opt = DiversityOptimizer::new()
                .with_solver(solver.clone())
                .optimize(&cs.network, &cs.similarity)
                .unwrap();
            opt.assignment().validate(&cs.network).unwrap();
            assert!(!opt.solver_name().is_empty());
        }
    }

    #[test]
    fn trws_is_at_least_as_good_as_icm_on_case_study() {
        let cs = CaseStudy::build();
        let trws = DiversityOptimizer::new()
            .optimize(&cs.network, &cs.similarity)
            .unwrap();
        let icm = DiversityOptimizer::new()
            .with_solver(SolverKind::Icm(IcmOptions::default()))
            .optimize(&cs.network, &cs.similarity)
            .unwrap();
        assert!(trws.objective() <= icm.objective() + 1e-9);
    }

    #[test]
    fn infeasible_constraints_error() {
        use netmodel::constraints::Constraint;
        let cs = CaseStudy::build();
        let mut set = ConstraintSet::new();
        // t5 is legacy (MSSQL08 only); demanding MariaDB is infeasible.
        set.push(Constraint::fix(
            cs.host("t5"),
            cs.services.db,
            cs.product("MariaDB10"),
        ));
        let err = DiversityOptimizer::new()
            .optimize_constrained(&cs.network, &cs.similarity, &set)
            .unwrap_err();
        assert!(matches!(err, Error::Infeasible { .. }));
    }

    #[test]
    fn exact_fallback_cause_is_surfaced() {
        // A dense random network blows a tiny elimination table cap; the
        // old API fell back to TRW-S silently, the new one says why.
        let g = generate(
            &RandomNetworkConfig {
                hosts: 30,
                mean_degree: 8,
                services: 3,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            4,
        );
        let opt = DiversityOptimizer::new()
            .with_solver(SolverKind::Exact(EliminationOptions {
                max_table_entries: 8,
            }))
            .optimize(&g.network, &g.similarity)
            .unwrap();
        opt.assignment().validate(&g.network).unwrap();
        let cause = opt
            .exact_fallback()
            .expect("fallback must fire and be reported");
        assert!(cause.contains("cap"), "unexpected cause: {cause}");
        // A cap large enough for the case study reports no fallback.
        let cs = CaseStudy::build();
        let exact = DiversityOptimizer::new()
            .with_solver(SolverKind::Exact(EliminationOptions::default()))
            .optimize(&cs.network, &cs.similarity)
            .unwrap();
        assert!(exact.exact_fallback().is_none());
        assert!(exact.solver_name().starts_with("exact"));
    }

    #[test]
    fn time_budget_yields_valid_assignment() {
        let g = generate(
            &RandomNetworkConfig {
                hosts: 120,
                mean_degree: 8,
                services: 3,
                products_per_service: 4,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            7,
        );
        let opt = DiversityOptimizer::new()
            .with_time_budget(Duration::from_millis(10))
            .optimize(&g.network, &g.similarity)
            .unwrap();
        opt.assignment().validate(&g.network).unwrap();
    }

    #[test]
    fn refinement_never_hurts() {
        let g = generate(
            &RandomNetworkConfig {
                hosts: 40,
                mean_degree: 5,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            2,
        );
        let bare = DiversityOptimizer::new()
            .with_refinement(None)
            .optimize(&g.network, &g.similarity)
            .unwrap();
        let refined = DiversityOptimizer::new()
            .optimize(&g.network, &g.similarity)
            .unwrap();
        assert!(refined.objective() <= bare.objective() + 1e-9);
    }

    #[test]
    fn custom_map_solver_drops_in() {
        /// A trivial solver: unary argmin, no iterations.
        struct UnaryArgmin;

        impl MapSolver for UnaryArgmin {
            fn name(&self) -> String {
                "unary-argmin".to_string()
            }

            fn solve(&self, model: &mrf::MrfModel, _ctl: &SolveControl) -> Solution {
                let labels = model.unary_argmin();
                let energy = model.energy(&labels);
                Solution::new(labels, energy, None, 0, true)
            }
        }

        let cs = CaseStudy::build();
        let opt = DiversityOptimizer::new()
            .with_map_solver(Box::new(UnaryArgmin))
            .with_refinement(None)
            .optimize(&cs.network, &cs.similarity)
            .unwrap();
        opt.assignment().validate(&cs.network).unwrap();
        assert_eq!(opt.solver_name(), "unary-argmin");
    }
}
