//! Scale-out benchmark for the zone-sharded [`ShardedEngine`] on §VIII-scale
//! zoned topologies: 10 000 hosts by default, 50 000 with `--full`, split
//! into 2 / 4 / 8 zones.
//!
//! Per zone count the run measures, against the single-network
//! [`DiversityEngine`] on the *same* generated instance:
//!
//! - **cold solve wall** for both engines, plus the sharded pass's certified
//!   primal−dual gap (the dual-decomposition bound the Strong coordination
//!   pass closes with) — the §VIII acceptance number;
//! - **zone-confined absorb**: a 16-delta fix/unfix burst on interior hosts
//!   of zone 0, the Light-mode path where only the owning shard pays — this
//!   speedup comes from *localization* (1/N-size rebuild and re-solve) and
//!   holds on any core count;
//! - **multi-zone parallel absorb**: the same-sized burst spread round-robin
//!   across every zone, absorbed by the owners in parallel
//!   (`std::thread::scope`), vs. the single engine absorbing the identical
//!   burst — the parallel-absorb scaling curve. This one is bounded by the
//!   cores the harness actually has: with fewer cores than zones the shard
//!   absorbs serialize and the curve records where `thread::scope` stops
//!   scaling (on a single-core harness that is immediately — the column
//!   then measures pure sharding overhead, which is the honest number).
//!
//! Besides the printed report the run writes `BENCH_sharded.json` — per
//! zone count: cold walls, certified gap, absorb medians and both speedup
//! curves — the machine-readable scaling record CI surfaces next to
//! `BENCH_solvers.json`.

use std::time::Instant;

use criterion::Criterion;

use ics_diversity::engine::DiversityEngine;
use ics_diversity::shard::ShardedEngine;
use netmodel::delta::NetworkDelta;
use netmodel::partition::partition_by_zone;
use netmodel::topology::{generate_zoned, GeneratedNetwork, TopologyKind, ZonedNetworkConfig};
use netmodel::{HostId, ProductId, ServiceId};

const BURST: usize = 16;
const ZONE_COUNTS: [usize; 3] = [2, 4, 8];

fn instance(hosts: usize, zones: usize) -> GeneratedNetwork {
    generate_zoned(
        &ZonedNetworkConfig {
            zones,
            hosts_per_zone: hosts / zones,
            gateway_links: 2,
            mean_degree: 16,
            services: 4,
            products_per_service: 4,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        777,
    )
}

/// Precomputed burst targets: `BURST` interior (non-boundary) hosts drawn
/// round-robin from the first `spread` zones, plus the toggled service and
/// its products — so the timed loop measures burst *absorption*, not burst
/// construction. `spread == 1` is the zone-confined workload; `spread ==
/// zones` exercises every shard at once.
struct BurstPlan {
    hosts: Vec<HostId>,
    service: ServiceId,
    products: Vec<ProductId>,
}

impl BurstPlan {
    fn new(g: &GeneratedNetwork, spread: usize) -> BurstPlan {
        let partition = partition_by_zone(&g.network);
        let service = g.catalog.service_by_name("service0").expect("generated");
        let products = g.catalog.products_of(service).to_vec();
        let interiors: Vec<Vec<HostId>> = partition.shards()[..spread]
            .iter()
            .map(|s| {
                s.members
                    .iter()
                    .copied()
                    .filter(|&h| !partition.is_boundary(h))
                    .collect()
            })
            .collect();
        let hosts = (0..BURST)
            .map(|i| {
                let zone = &interiors[i % spread];
                assert!(!zone.is_empty(), "zone interior too small for the burst");
                zone[(i * 7) % zone.len()]
            })
            .collect();
        BurstPlan {
            hosts,
            service,
            products,
        }
    }

    fn burst(&self, fix: bool) -> Vec<NetworkDelta> {
        self.hosts
            .iter()
            .map(|&host| {
                if fix {
                    NetworkDelta::fix_slot(host, self.service, self.products[0])
                } else {
                    NetworkDelta::unfix_slot(host, self.service, self.products.clone())
                }
            })
            .collect()
    }
}

/// Median of the most recent measurement recorded under `name`, in ms.
fn measured_ms(criterion: &Criterion, name: &str) -> f64 {
    criterion
        .measurements()
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, t)| t.as_secs_f64() * 1e3)
        .expect("benchmark just ran")
}

struct Entry {
    zones: usize,
    sharded_cold_ms: f64,
    single_cold_ms: f64,
    certified_gap: Option<f64>,
    confined_absorb_ms: f64,
    single_confined_absorb_ms: f64,
    multizone_absorb_ms: f64,
    single_absorb_ms: f64,
}

/// Absorb steady-state: two warmup toggles (the first post-cold refinement
/// sweeps far more than the serving path ever does), then the timed
/// alternation.
fn bench_absorbs(
    criterion: &mut Criterion,
    name: &str,
    plan: &BurstPlan,
    mut absorb: impl FnMut(&[NetworkDelta]) -> f64,
) {
    let mut fix = true;
    for _ in 0..2 {
        absorb(&plan.burst(fix));
        fix = !fix;
    }
    criterion.bench_function(name, |b| {
        b.iter(|| {
            let deltas = plan.burst(fix);
            fix = !fix;
            absorb(&deltas)
        });
    });
}

fn bench_zone_count(criterion: &mut Criterion, hosts: usize, zones: usize) -> Entry {
    let g = instance(hosts, zones);

    let mut sharded =
        ShardedEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
    let start = Instant::now();
    let report = sharded.solve().expect("sharded cold solve");
    let sharded_cold_ms = start.elapsed().as_secs_f64() * 1e3;
    let certified_gap = report.certified_gap();

    let mut single =
        DiversityEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
    let start = Instant::now();
    single.solve().expect("single cold solve");
    let single_cold_ms = start.elapsed().as_secs_f64() * 1e3;

    let confined = BurstPlan::new(&g, 1);
    let name = format!("sharded/confined_absorb/{zones}");
    bench_absorbs(criterion, &name, &confined, |deltas| {
        sharded
            .apply_batch(deltas)
            .expect("batch applies")
            .objective
    });
    let confined_absorb_ms = measured_ms(criterion, &name);

    let name = format!("single/confined_absorb/{zones}");
    bench_absorbs(criterion, &name, &confined, |deltas| {
        single
            .apply_batch(deltas)
            .expect("batch applies")
            .objective_after
    });
    let single_confined_absorb_ms = measured_ms(criterion, &name);

    let spread = BurstPlan::new(&g, zones);
    let name = format!("sharded/multizone_absorb/{zones}");
    bench_absorbs(criterion, &name, &spread, |deltas| {
        sharded
            .apply_batch(deltas)
            .expect("batch applies")
            .objective
    });
    let multizone_absorb_ms = measured_ms(criterion, &name);

    let name = format!("single/multizone_absorb/{zones}");
    bench_absorbs(criterion, &name, &spread, |deltas| {
        single
            .apply_batch(deltas)
            .expect("batch applies")
            .objective_after
    });
    let single_absorb_ms = measured_ms(criterion, &name);

    Entry {
        zones,
        sharded_cold_ms,
        single_cold_ms,
        certified_gap,
        confined_absorb_ms,
        single_confined_absorb_ms,
        multizone_absorb_ms,
        single_absorb_ms,
    }
}

/// Hand-rolled JSON (no serde offline), same pattern as `BENCH_solvers.json`:
/// one entry per zone count with the cold walls, the certified gap and the
/// absorb medians. `confined_speedup` is the localization win (single vs.
/// sharded on the zone-confined burst, core-count independent);
/// `parallel_speedup` is the single engine's multi-zone absorb over the
/// sharded parallel absorb of the identical burst, bounded by the harness's
/// cores.
fn emit_json(entries: &[Entry], hosts: usize, full: bool) {
    let mut rows = String::new();
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        let gap = e
            .certified_gap
            .map_or_else(|| "null".to_owned(), |g| format!("{g:.6}"));
        rows.push_str(&format!(
            "    {{\"zones\": {}, \"sharded_cold_ms\": {:.3}, \"single_cold_ms\": {:.3}, \
             \"certified_gap\": {gap}, \"confined_absorb_ms\": {:.3}, \
             \"single_confined_absorb_ms\": {:.3}, \"confined_speedup\": {:.2}, \
             \"multizone_absorb_ms\": {:.3}, \"single_absorb_ms\": {:.3}, \
             \"parallel_speedup\": {:.2}}}",
            e.zones,
            e.sharded_cold_ms,
            e.single_cold_ms,
            e.confined_absorb_ms,
            e.single_confined_absorb_ms,
            e.single_confined_absorb_ms / e.confined_absorb_ms,
            e.multizone_absorb_ms,
            e.single_absorb_ms,
            e.single_absorb_ms / e.multizone_absorb_ms,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"sharded\",\n  \"mode\": \"{}\",\n  {},\n  \"hosts\": {hosts},\n  \
         \"entries\": [\n{rows}\n  ]\n}}\n",
        if full { "full" } else { "reduced" },
        bench::machine_json(),
    );
    match std::fs::write("BENCH_sharded.json", &json) {
        Ok(()) => println!("wrote BENCH_sharded.json"),
        Err(err) => eprintln!("warning: could not write BENCH_sharded.json: {err}"),
    }
}

fn main() {
    let full = bench::full_mode();
    let hosts = if full { 50_000 } else { 10_000 };
    let mut criterion = Criterion::default();
    let mut entries = Vec::new();
    for zones in ZONE_COUNTS {
        let entry = bench_zone_count(&mut criterion, hosts, zones);
        let gap = entry
            .certified_gap
            .map_or_else(|| "-".to_owned(), |g| format!("{:.2}%", 100.0 * g));
        println!(
            "cold:  sharded/{zones}_zones cold {:.1}ms (gap {gap}) vs single {:.1}ms",
            entry.sharded_cold_ms, entry.single_cold_ms
        );
        entries.push(entry);
    }
    emit_json(&entries, hosts, full);
}
