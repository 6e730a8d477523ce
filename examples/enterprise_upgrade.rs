//! Diversifying a large scale-free enterprise network under policy
//! constraints — the "IT refresh" scenario the paper's introduction
//! motivates, at a scale where the TRW-S path matters.
//!
//! ```sh
//! cargo run --release -p examples --example enterprise_upgrade
//! ```

use ics_diversity::optimizer::DiversityOptimizer;
use netmodel::constraints::{Constraint, ConstraintSet, Scope};
use netmodel::strategies::{mono_assignment, random_assignment};
use netmodel::topology::{generate, RandomNetworkConfig, TopologyKind};
use netmodel::HostId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 500-host scale-free enterprise: a few heavily connected data-center
    // hubs, many leaf workstations; 4 services, 4 products each from 2
    // vendor families.
    let config = RandomNetworkConfig {
        hosts: 500,
        mean_degree: 8,
        services: 4,
        products_per_service: 4,
        vendors_per_service: 2,
        topology: TopologyKind::ScaleFree,
    };
    let g = generate(&config, 7);
    println!(
        "enterprise network: {} hosts, {} links, mean degree {:.1}",
        g.network.host_count(),
        g.network.link_count(),
        g.network.mean_degree()
    );

    // Company policy: host n0 (the ERP server) is pinned to vendor-0
    // products for services 0 and 1, and globally service 0's product
    // `s0_p0` must never be combined with service 1's `s1_p1`.
    let s0 = g.catalog.service_by_name("service0").unwrap();
    let s1 = g.catalog.service_by_name("service1").unwrap();
    let pin0 = g.catalog.product_by_name("s0_p0").unwrap();
    let pin1 = g.catalog.product_by_name("s1_p0").unwrap();
    let avoid = g.catalog.product_by_name("s1_p1").unwrap();
    let mut constraints = ConstraintSet::new();
    constraints.push(Constraint::fix(HostId(0), s0, pin0));
    constraints.push(Constraint::fix(HostId(0), s1, pin1));
    constraints.push(Constraint::forbid_combination(
        Scope::All,
        (s0, pin0),
        (s1, avoid),
    ));

    // Production posture: the default TRW-S → ILS pipeline under a hard
    // wall-clock budget; anytime semantics guarantee a valid assignment
    // either way. Both solves are heuristic on this loopy network, so the
    // constrained one can land below the unconstrained one and the printed
    // "diversity cost of policy" can be negative: it compares two local
    // optima, not two certified ones.
    let optimizer = DiversityOptimizer::new().with_time_budget(std::time::Duration::from_secs(5));
    let unconstrained = optimizer.optimize(&g.network, &g.similarity)?;
    let t_unconstrained = unconstrained.wall_time();
    let constrained = optimizer.optimize_constrained(&g.network, &g.similarity, &constraints)?;
    let t_constrained = constrained.wall_time();

    let sim_of =
        |a: &netmodel::assignment::Assignment| a.total_edge_similarity(&g.network, &g.similarity);
    let mono = mono_assignment(&g.network);
    let random = random_assignment(&g.network, 1);
    println!("\ntotal edge similarity (lower = more resilient):");
    println!(
        "  optimal        {:>10.2}   ({} MRF vars, {} edges, solved in {:.2?})",
        sim_of(unconstrained.assignment()),
        unconstrained.variables(),
        unconstrained.edges(),
        t_unconstrained
    );
    println!(
        "  constrained    {:>10.2}   (diversity cost of policy: {:+.2}, {:.2?})",
        sim_of(constrained.assignment()),
        sim_of(constrained.assignment()) - sim_of(unconstrained.assignment()),
        t_constrained
    );
    println!("  random         {:>10.2}", sim_of(&random));
    println!("  mono-culture   {:>10.2}", sim_of(&mono));
    println!(
        "\nmono-culture links (same product on both ends of a link):\n  optimal {} / random {} / mono {}",
        unconstrained.assignment().identical_product_links(&g.network),
        random.identical_product_links(&g.network),
        mono.identical_product_links(&g.network)
    );
    println!(
        "effective product diversity (exp of Shannon entropy): optimal {:.2} vs mono {:.2}",
        unconstrained.assignment().effective_diversity(),
        mono.effective_diversity()
    );
    // Certified quality of the large-scale solve.
    if let Some(gap) = unconstrained.gap() {
        println!(
            "certified optimality gap: {:.4} ({:.2}% of objective)",
            gap,
            100.0 * gap / unconstrained.objective().abs().max(1e-9)
        );
    }
    Ok(())
}
