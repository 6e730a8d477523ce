//! Adversarial scenario-suite benchmark: the three structured topology
//! families (fat-tree, scale-free, tiered enterprise) solved end-to-end
//! through both the single-network [`DiversityEngine`] and the zone-sharded
//! [`ShardedEngine`], plus the two adversarial churn modes:
//!
//! - **family rows** — generation wall, cold-solve wall for both engines,
//!   the sharded pass's reported (uncertified) gap, and the solved
//!   assignment's MTTC under the sophisticated worm (entry `h0` → last
//!   host);
//! - **adaptive row** — an adversary-in-the-loop churn replay
//!   ([`Bursts::Adaptive`]): total/max defender-lag across the window
//!   (the MTTC gain forfeited to re-solve latency — finite by
//!   construction, asserted here too);
//! - **cve-feed row** — a [`CveFeed`] burst replay: Pareto-tail burst
//!   statistics and how often re-optimizing beat carrying.
//!
//! Besides the printed report the run writes `BENCH_scenarios.json` — the
//! machine-readable scenario record CI surfaces next to
//! `BENCH_sharded.json`.

use std::time::Instant;

use criterion::Criterion;

use ics_diversity::churn::{run_churn, Bursts, ChurnConfig, ChurnMode, CveFeed, CveFeedConfig};
use ics_diversity::engine::DiversityEngine;
use ics_diversity::shard::ShardedEngine;
use ics_diversity::WriterCore;
use netmodel::topology::{
    generate, generate_fat_tree, generate_scale_free, generate_tiered_enterprise, FatTreeConfig,
    GeneratedNetwork, RandomNetworkConfig, ScaleFreeConfig, TieredEnterpriseConfig, TopologyKind,
};
use netmodel::HostId;
use sim::mttc::{estimate_mttc, MttcOptions};
use sim::scenario::Scenario;

const SEED: u64 = 2026;

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

fn family(name: &str, full: bool) -> GeneratedNetwork {
    let scale = if full { 4 } else { 1 };
    match name {
        "fat-tree" => generate_fat_tree(
            &FatTreeConfig {
                pods: 2 * scale,
                hosts_per_edge: 6,
                ..FatTreeConfig::default()
            },
            SEED,
        ),
        "scale-free" => generate_scale_free(
            &ScaleFreeConfig {
                hosts: 60 * scale,
                zones: 4,
                ..ScaleFreeConfig::default()
            },
            SEED,
        ),
        "enterprise" => generate_tiered_enterprise(
            &TieredEnterpriseConfig {
                internal_zones: 2 * scale,
                hosts_per_internal: 12,
                ..TieredEnterpriseConfig::default()
            },
            SEED,
        ),
        other => unreachable!("unknown family {other}"),
    }
}

struct FamilyEntry {
    name: &'static str,
    hosts: usize,
    links: usize,
    zones: usize,
    generate_ms: f64,
    single_cold_ms: f64,
    sharded_cold_ms: f64,
    certified_gap: Option<f64>,
    mttc_resolve: Option<f64>,
}

fn bench_family(criterion: &mut Criterion, name: &'static str, full: bool) -> FamilyEntry {
    let start = Instant::now();
    let g = family(name, full);
    let generate_ms = start.elapsed().as_secs_f64() * 1e3;
    let hosts = g.network.host_count();
    let links = g.network.links().len();

    let bench_name = format!("scenario/{name}/single_cold");
    criterion.bench_function(&bench_name, |b| {
        b.iter(|| {
            let mut engine =
                DiversityEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
            engine.solve().expect("family solves").objective_after
        });
    });
    let single_cold_ms = measured_ms(criterion, &bench_name);

    let bench_name = format!("scenario/{name}/sharded_cold");
    criterion.bench_function(&bench_name, |b| {
        b.iter(|| {
            let mut engine =
                ShardedEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
            engine.solve().expect("family solves").objective
        });
    });
    let sharded_cold_ms = measured_ms(criterion, &bench_name);

    // One representative solve of each kind for the non-timed numbers: the
    // sharded pass's reported gap and the solved assignment's MTTC.
    let mut sharded =
        ShardedEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
    let report = sharded.solve().expect("family solves");
    let zones = sharded.partition().shards().len();
    let mut single = DiversityEngine::new(g.network.clone(), g.catalog.clone(), g.similarity);
    single.solve().expect("family solves");
    let scenario = Scenario::new(HostId(0), HostId(hosts as u32 - 1));
    let mttc = estimate_mttc(
        single.network(),
        single.assignment().expect("solved"),
        single.similarity(),
        &scenario,
        &MttcOptions {
            runs: 60,
            ..MttcOptions::default()
        },
    );

    FamilyEntry {
        name,
        hosts,
        links,
        zones,
        generate_ms,
        single_cold_ms,
        sharded_cold_ms,
        certified_gap: report.certified_gap(),
        mttc_resolve: mttc.mean_ticks(),
    }
}

struct AdaptiveEntry {
    steps: usize,
    wall_ms: f64,
    total_defender_lag: f64,
    max_defender_lag: f64,
    favor_reopt: usize,
}

fn bench_adaptive(full: bool) -> AdaptiveEntry {
    let g = generate(
        &RandomNetworkConfig {
            hosts: if full { 120 } else { 40 },
            mean_degree: 6,
            services: 3,
            products_per_service: 4,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        SEED,
    );
    let mut core = WriterCore::Single(DiversityEngine::new(g.network, g.catalog, g.similarity));
    core.solve().expect("instance solves");
    let config = ChurnConfig {
        steps: if full { 12 } else { 6 },
        mode: ChurnMode::Batched { mean_burst: 3.0 },
        mttc: MttcOptions {
            runs: 40,
            ..MttcOptions::default()
        },
        ..ChurnConfig::default()
    };
    let start = Instant::now();
    let replay = run_churn(&mut core, &mut Bursts::Adaptive, &config).expect("churn replays");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let total: f64 = replay.iter().map(|s| s.defender_lag).sum();
    let max = replay.iter().map(|s| s.defender_lag).fold(0.0, f64::max);
    assert!(
        total.is_finite() && max.is_finite(),
        "defender-lag must be finite"
    );
    AdaptiveEntry {
        steps: replay.len(),
        wall_ms,
        total_defender_lag: total,
        max_defender_lag: max,
        favor_reopt: replay
            .iter()
            .filter(|s| s.mttc_gain().favors_reopt())
            .count(),
    }
}

struct CveEntry {
    bursts: usize,
    deltas: usize,
    largest_burst: usize,
    wall_ms: f64,
    favor_reopt: usize,
}

fn bench_cve(full: bool) -> CveEntry {
    let g = generate(
        &RandomNetworkConfig {
            hosts: if full { 120 } else { 40 },
            mean_degree: 6,
            services: 3,
            products_per_service: 4,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        SEED,
    );
    let entry = HostId(0);
    let target = HostId(g.network.host_count() as u32 - 1);
    let mut core = WriterCore::Single(DiversityEngine::new(g.network, g.catalog, g.similarity));
    core.solve().expect("instance solves");
    let config = ChurnConfig {
        steps: if full { 16 } else { 8 },
        mttc: MttcOptions {
            runs: 40,
            ..MttcOptions::default()
        },
        ..ChurnConfig::default()
    };
    let mut bursts = Bursts::Cve {
        entry,
        target,
        feed: CveFeed::new(CveFeedConfig::default(), SEED),
    };
    let start = Instant::now();
    let replay = run_churn(&mut core, &mut bursts, &config).expect("churn replays");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    CveEntry {
        bursts: replay.len(),
        deltas: replay.iter().map(|s| s.deltas.len()).sum(),
        largest_burst: replay.iter().map(|s| s.deltas.len()).max().unwrap_or(0),
        wall_ms,
        favor_reopt: replay
            .iter()
            .filter(|s| s.mttc_gain().favors_reopt())
            .count(),
    }
}

/// Hand-rolled JSON (no serde offline), same pattern as `BENCH_sharded.json`.
fn emit_json(families: &[FamilyEntry], adaptive: &AdaptiveEntry, cve: &CveEntry, full: bool) {
    let mut rows = String::new();
    for (i, e) in families.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        let gap = e
            .certified_gap
            .map_or_else(|| "null".to_owned(), |g| format!("{g:.6}"));
        let mttc = e
            .mttc_resolve
            .map_or_else(|| "null".to_owned(), |m| format!("{m:.2}"));
        rows.push_str(&format!(
            "    {{\"family\": \"{}\", \"hosts\": {}, \"links\": {}, \"zones\": {}, \
             \"generate_ms\": {:.3}, \"single_cold_ms\": {:.3}, \"sharded_cold_ms\": {:.3}, \
             \"certified_gap\": {gap}, \"mttc_resolve\": {mttc}}}",
            e.name, e.hosts, e.links, e.zones, e.generate_ms, e.single_cold_ms, e.sharded_cold_ms,
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"scenarios\",\n  \"mode\": \"{}\",\n  {},\n  \"families\": [\n{rows}\n  ],\n  \
         \"adaptive\": {{\"steps\": {}, \"wall_ms\": {:.3}, \"total_defender_lag\": {:.4}, \
         \"max_defender_lag\": {:.4}, \"favor_reopt\": {}}},\n  \
         \"cve_feed\": {{\"bursts\": {}, \"deltas\": {}, \"largest_burst\": {}, \
         \"wall_ms\": {:.3}, \"favor_reopt\": {}}}\n}}\n",
        if full { "full" } else { "reduced" },
        bench::machine_json(),
        adaptive.steps,
        adaptive.wall_ms,
        adaptive.total_defender_lag,
        adaptive.max_defender_lag,
        adaptive.favor_reopt,
        cve.bursts,
        cve.deltas,
        cve.largest_burst,
        cve.wall_ms,
        cve.favor_reopt,
    );
    match std::fs::write("BENCH_scenarios.json", &json) {
        Ok(()) => println!("wrote BENCH_scenarios.json"),
        Err(err) => eprintln!("warning: could not write BENCH_scenarios.json: {err}"),
    }
}

fn main() {
    let full = bench::full_mode();
    let mut criterion = Criterion::default();
    let mut families = Vec::new();
    for name in ["fat-tree", "scale-free", "enterprise"] {
        let e = bench_family(&mut criterion, name, full);
        let gap = e
            .certified_gap
            .map_or_else(|| "-".to_owned(), |g| format!("{:.2}%", 100.0 * g));
        let mttc = e
            .mttc_resolve
            .map_or_else(|| "censored".to_owned(), |m| format!("{m:.1} ticks"));
        println!(
            "family: {:<11} {:>4} hosts {:>5} links {:>2} zones | generate {:.1}ms, single \
             cold {:.1}ms, sharded cold {:.1}ms (gap {gap}) | mttc {mttc}",
            e.name, e.hosts, e.links, e.zones, e.generate_ms, e.single_cold_ms, e.sharded_cold_ms,
        );
        families.push(e);
    }
    let adaptive = bench_adaptive(full);
    println!(
        "adaptive: {} steps in {:.1}ms — defender-lag total {:.2} ticks (max {:.2}, all \
         finite), re-opt favored on {}",
        adaptive.steps,
        adaptive.wall_ms,
        adaptive.total_defender_lag,
        adaptive.max_defender_lag,
        adaptive.favor_reopt
    );
    let cve = bench_cve(full);
    println!(
        "cve-feed: {} bursts ({} deltas, largest {}) in {:.1}ms — re-opt favored on {}",
        cve.bursts, cve.deltas, cve.largest_burst, cve.wall_ms, cve.favor_reopt
    );
    emit_json(&families, &adaptive, &cve, full);
}
