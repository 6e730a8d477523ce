//! Integration tests for the `MapSolver` redesign: deadline-limited
//! anytime solves, cancellation, and progress reporting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ics_diversity::optimizer::DiversityOptimizer;
use mrf::solver::{MapSolver, SolveControl};
use netmodel::constraints::{Constraint, ConstraintSet};
use netmodel::topology::{generate, RandomNetworkConfig, TopologyKind};

fn config(hosts: usize, degree: usize) -> RandomNetworkConfig {
    RandomNetworkConfig {
        hosts,
        mean_degree: degree,
        services: 2,
        products_per_service: 3,
        vendors_per_service: 2,
        topology: TopologyKind::Random,
    }
}

/// A 10 ms budget on a 500-host instance still yields a complete, valid,
/// constraint-respecting assignment (anytime semantics end to end).
#[test]
fn deadline_limited_solve_returns_valid_assignment() {
    let g = generate(&config(500, 8), 42);
    // Pin one slot so the constraint machinery is genuinely exercised
    // under time pressure (fix constraints restrict domains up front, so
    // they hold for any labeling the solver returns).
    let host = netmodel::HostId(0);
    let inst = &g.network.host(host).unwrap().services()[0];
    let pinned = inst.candidates()[0];
    let mut constraints = ConstraintSet::new();
    constraints.push(Constraint::fix(host, inst.service(), pinned));

    let optimizer = DiversityOptimizer::new().with_time_budget(Duration::from_millis(10));
    let solved = optimizer
        .optimize_constrained(&g.network, &g.similarity, &constraints)
        .expect("deadline-limited solve still produces an assignment");
    solved.assignment().validate(&g.network).unwrap();
    assert!(constraints.is_satisfied(&g.network, solved.assignment()));
    assert_eq!(
        solved
            .assignment()
            .product_for(&g.network, host, inst.service()),
        Some(pinned)
    );
}

/// Cancellation stops a long solve promptly and still yields a labeling.
#[test]
fn cancellation_is_honored() {
    let g = generate(&config(300, 8), 3);
    let energy = ics_diversity::energy::build_energy(
        &g.network,
        &g.similarity,
        &ConstraintSet::new(),
        ics_diversity::energy::EnergyParams::default(),
    )
    .unwrap();
    let ctl = SolveControl::new();
    ctl.cancel(); // cancelled before it starts: must stop at first check
    let solution = mrf::trws::Trws::default().solve(energy.model(), &ctl);
    assert_eq!(solution.labels().len(), energy.model().var_count());
    assert!(!solution.converged());
    assert_eq!(solution.iterations(), 0);
}

/// Progress callbacks stream (iteration, energy, bound) and energies are
/// monotonically non-increasing for TRW-S (best-so-far semantics).
#[test]
fn progress_reports_stream_and_never_worsen() {
    let g = generate(&config(60, 5), 11);
    let energy = ics_diversity::energy::build_energy(
        &g.network,
        &g.similarity,
        &ConstraintSet::new(),
        ics_diversity::energy::EnergyParams::default(),
    )
    .unwrap();
    let events = Arc::new(AtomicUsize::new(0));
    let last_energy = Arc::new(std::sync::Mutex::new(f64::INFINITY));
    let seen = Arc::clone(&events);
    let last = Arc::clone(&last_energy);
    let ctl = SolveControl::new().with_progress(move |event| {
        seen.fetch_add(1, Ordering::Relaxed);
        let mut prev = last.lock().unwrap();
        assert!(
            event.energy <= *prev + 1e-9,
            "best-so-far energy worsened: {} after {}",
            event.energy,
            *prev
        );
        *prev = event.energy;
    });
    let solution = mrf::trws::Trws::default().solve(energy.model(), &ctl);
    assert!(events.load(Ordering::Relaxed) > 0, "no progress events");
    assert!(solution.energy().is_finite());
}
