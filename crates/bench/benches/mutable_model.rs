//! Criterion benchmark: absorbing a small delta through the in-place model
//! edit on a 960-host network.
//!
//! * **model_edit** — an [`ics_diversity::cache::EnergyCache`] whose
//!   domains and potential matrices are already warm absorbs a
//!   `FixSlot`/`UnfixSlot` toggle through a hinted refresh, which edits the
//!   model in place: only the toggled slot's variable is re-created, with
//!   its unary and edges, and only its neighbours' unaries on the same
//!   service are refolded — `O(degree)` model work. This is exactly the
//!   *model-maintenance* phase.
//! * **link_edit** — the same cache absorbs an `AddLink`/`RemoveLink`
//!   toggle between two hosts whose domains do not change: no variable is
//!   re-created; only the link's edges between the two hosts' free slots
//!   and the unaries it folds fixed partners into move.
//! * **engine_apply_edit** — the slot toggle end-to-end through
//!   `DiversityEngine::apply` (delta staging + model maintenance +
//!   localized warm re-solve).
//!
//! A linear reassembly, `O(V + E)` however small the delta, is what every
//! cold build runs; the `solvers` bench times it as `model_build/build/960`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ics_diversity::cache::EnergyCache;
use ics_diversity::engine::DiversityEngine;
use netmodel::constraints::ConstraintSet;
use netmodel::delta::NetworkDelta;
use netmodel::topology::{generate, GeneratedNetwork, RandomNetworkConfig, TopologyKind};
use netmodel::HostId;

const HOSTS: usize = 960;

fn instance() -> GeneratedNetwork {
    generate(
        &RandomNetworkConfig {
            hosts: HOSTS,
            mean_degree: 8,
            services: 3,
            products_per_service: 4,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        4242,
    )
}

/// The single-host delta both sides absorb: alternately mandate and lift a
/// product on one host's first service slot.
fn toggle_delta(g: &GeneratedNetwork, fix: bool) -> NetworkDelta {
    let host = HostId(480);
    let service = g.catalog.service_by_name("service0").expect("generated");
    let products = g.catalog.products_of(service).to_vec();
    if fix {
        NetworkDelta::fix_slot(host, service, products[0])
    } else {
        NetworkDelta::unfix_slot(host, service, products)
    }
}

/// The link the `link_edit` entry toggles: host 480 and the first later
/// host it is not linked to.
fn link_pair(g: &GeneratedNetwork) -> (HostId, HostId) {
    let a = HostId(480);
    let b = (481..HOSTS as u32)
        .map(HostId)
        .find(|&b| !g.network.linked(a, b))
        .expect("a degree-8 network leaves most pairs unlinked");
    (a, b)
}

fn bench_model_maintenance(c: &mut Criterion) {
    let g = instance();
    let mut group = c.benchmark_group("mutable_model_960_hosts");
    group.sample_size(10);

    // Cache-level: exactly the model-maintenance phase, with domains and
    // cost matrices warm.
    group.bench_with_input(BenchmarkId::from_parameter("model_edit"), &g, |b, g| {
        let mut network = g.network.clone();
        let mut cache = EnergyCache::new(&network, &g.similarity, &ConstraintSet::new())
            .expect("instance builds");
        let mut fix = true;
        b.iter(|| {
            let effect = network
                .apply_delta(&toggle_delta(g, fix), &g.catalog)
                .expect("valid toggle");
            fix = !fix;
            let stats = cache
                .refresh_hinted(&network, &g.similarity, Some(&effect.touched))
                .expect("feasible refresh");
            assert!(stats.edited);
            stats.variables
        });
    });

    // Cache-level, a link toggle: no domain moves, so no variable does.
    group.bench_with_input(BenchmarkId::from_parameter("link_edit"), &g, |b, g| {
        let mut network = g.network.clone();
        let mut cache = EnergyCache::new(&network, &g.similarity, &ConstraintSet::new())
            .expect("instance builds");
        let (x, y) = link_pair(g);
        let mut add = true;
        b.iter(|| {
            let delta = if add {
                NetworkDelta::add_link(x, y)
            } else {
                NetworkDelta::remove_link(x, y)
            };
            let effect = network
                .apply_delta(&delta, &g.catalog)
                .expect("valid toggle");
            add = !add;
            let stats = cache
                .refresh_hinted(&network, &g.similarity, Some(&effect.touched))
                .expect("feasible refresh");
            assert!(stats.edited);
            stats.edges
        });
    });

    // Engine-level: the slot toggle end-to-end through apply() (staged
    // delta + model maintenance + localized warm re-solve).
    group.bench_with_input(
        BenchmarkId::from_parameter("engine_apply_edit"),
        &g,
        |b, g| {
            let mut engine =
                DiversityEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
            engine.solve().expect("cold solve");
            let mut fix = true;
            b.iter(|| {
                let report = engine.apply(&toggle_delta(g, fix)).expect("delta applies");
                fix = !fix;
                report.objective_after
            });
        },
    );

    group.finish();
}

criterion_group!(benches, bench_model_maintenance);
criterion_main!(benches);
