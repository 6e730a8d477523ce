//! Dynamic-churn scenario: replay a delta stream through the incremental
//! [`DiversityEngine`] — or, with `--shards`, through the zone-sharded
//! [`ShardedEngine`] — and report, for every step, the MTTC of the
//! carried-forward assignment vs. the warm re-optimized one. Every mode
//! drives the engine through one [`WriterCore`] and one churn replay
//! ([`run_churn`]); `--scenario` picks the topology family or the burst
//! source.
//!
//! This is the workload the batch pipeline cannot serve: hosts join and
//! leave, links change, products get mandated — and after each change the
//! engine refilters only the touched hosts, reuses cached potential
//! matrices, and warm-starts a *localized* re-solve from the previous MAP
//! assignment. In sharded mode, bursts are additionally routed to the
//! owning zone shard(s) and reconciled by the boundary-coordination loop.
//!
//! Run `churn --help` for the flags and a key to every printed column.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ics_diversity::churn::{
    defender_lag, run_churn, Bursts, ChurnConfig, ChurnMode, ChurnStep, CveFeed, CveFeedConfig,
    Drawn, LagModel, MttcGain,
};
use ics_diversity::engine::DiversityEngine;
use ics_diversity::journal::{check_revision, read_records, Checkpoint};
use ics_diversity::optimizer::SolverKind;
use ics_diversity::report::TextTable;
use ics_diversity::serve::{
    EngineReport, Enqueue, MttcProbe, ServingConfig, ServingEngine, WriterCore,
};
use ics_diversity::shard::ShardedEngine;

use bench::{flag_str, flag_value, full_mode, help_requested};
use netmodel::assignment::Assignment;
use netmodel::delta::random_delta;
use netmodel::delta::NetworkDelta;
use netmodel::journal::{BatchRecord, Record};
use netmodel::network::Network;
use netmodel::topology::{
    generate, generate_fat_tree, generate_scale_free, generate_tiered_enterprise, generate_zoned,
    FatTreeConfig, GeneratedNetwork, RandomNetworkConfig, ScaleFreeConfig, TieredEnterpriseConfig,
    TopologyKind, ZonedNetworkConfig,
};
use netmodel::HostId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::mttc::{MttcEstimate, MttcOptions};
use sim::scenario::Scenario;

const HELP: &str = "\
churn — dynamic-churn replay through the incremental diversity engine

USAGE:
    churn [--steps N] [--hosts N] [--batch N] [--shards N] [--runs N]
          [--scenario NAME] [--serve [--readers N]] [--journal PATH] [--full]
    churn --replay PATH [--solver NAME]

FLAGS:
    --steps N    Number of churn steps to replay (default 12; 30 with --full).
                 Each step applies one delta (sequential) or one burst (--batch).
    --scenario NAME
                 Adversarial scenario suite. Topology families — fat-tree
                 (data-center pods with core/agg/edge tiers), scale-free
                 (preferential attachment, hub-heavy), enterprise
                 (hub-and-spoke with DMZ/internal/server tiers) — run the
                 usual churn replay on that generated topology; each family
                 zone-labels its hosts, so they compose with --shards (the
                 sharded engine partitions pods/blocks/tiers unchanged; the
                 N also sizes the family's pod/zone/department count).
                 adaptive: adversary-in-the-loop churn — each step the
                 attacker re-picks entry/target from the committed
                 assignment's largest monoculture cluster, and the step
                 reports defender-lag (MTTC gain forfeited to re-solve
                 latency). cve-feed: heavy-tailed Pareto advisory bursts
                 hitting correlated product families together. Both burst
                 sources run on the random topology, or on the zoned one
                 with --shards.
    --runs N     MTTC simulation runs per estimate (default 150; 400 with
                 --full). Lower it for quick smokes.
    --hosts N    Host count of the generated network (default 60; 300 with
                 --full, 960 with --serve --full). With --shards the count is
                 split evenly across the zones, so --hosts 10000 --shards 4
                 is the large-topology scale-out smoke.
    --batch N    Batched churn: each step absorbs a Poisson(N)-sized burst of
                 deltas through one apply_batch call, paying one model rebuild
                 and one localized re-solve per burst (default: sequential,
                 one delta per step). With --serve: each submission carries N
                 deltas (default 1).
    --shards N   Sharded churn: generate an N-zone network, shard the engine
                 by zone (one engine per zone plus boundary coordination) and
                 route every burst to its owning shard(s). Zones are dynamic:
                 roughly one in four generated AddHost deltas opens a brand-new
                 zone (a fresh shard is created on the fly), and a zone that
                 drains to zero hosts retires its shard — its solver state is
                 released and the slot revives if the zone returns. Composes
                 with --batch and --serve.
    --serve      Concurrent serving mode: the engine runs behind the
                 epoch-versioned snapshot front-end (ics_diversity::serve).
                 A writer thread absorbs the churn stream — submissions that
                 pile up coalesce into one apply_batch — while --readers
                 threads read the published snapshot continuously and
                 lock-free. Prints serving telemetry instead of the per-step
                 MTTC table and writes BENCH_serving.json to the working
                 directory.
    --readers N  Reader threads in --serve mode (default 4; the acceptance
                 scenario is --serve --full --readers 8: 8 readers against a
                 churning 960-host engine).
    --journal PATH
                 Record mode: attach a write-ahead journal (full history, no
                 compaction) to the engine, so the whole churn window — the
                 problem preamble, the cold-solve snapshot, every committed
                 delta burst and the per-step MTTC measurements — lands in
                 one replayable artifact. Composes with --batch, --shards
                 (a sharded run records master-level bursts) and --scenario;
                 --scenario adaptive records nothing, since its worm re-aims
                 every step.
    --replay PATH
                 Replay mode: re-run a window recorded with --journal.
                 Without --solver this is exact verification — each recorded
                 burst's deltas and committed assignment are restored and
                 MTTC recomputed with the recorded scenario parameters
                 (drift must be 0.0). Prints a recorded-vs-replayed MTTC
                 trajectory diff table; exits nonzero if the replayed
                 revision diverges from the recorded one.
    --solver NAME
                 With --replay: the what-if mode — rebuild an engine from
                 the journal's preamble + snapshot (always a single
                 DiversityEngine, however the recording ran) and *re-solve*
                 every burst under that solver (cold solver *and* warm
                 refiner): trws, icm, ils, exhaustive, exact.
    --full       Paper-scale instance (300 hosts, more MTTC runs; 960 hosts
                 in --serve mode).
    --help       Print this help and exit.

COLUMNS (--replay mode):
    step         Recorded step index (from the journal's churn-step marks).
    revision     Network revision after the step's burst (recorded ==
                 replayed, asserted).
    deltas       Burst size of the recorded batch record.
    rec resolve  MTTC of the re-optimized assignment as recorded.
    rep resolve  MTTC of the re-optimized assignment as replayed.
    drift        rep resolve − rec resolve in ticks (exactly 0 without
                 --solver; with --solver it shows how the MTTC trajectory
                 diverges under that configuration).

COLUMNS (sequential/batched mode):
    step         Step index.
    deltas       The applied delta (or \"burst of K\").
    touched      Hosts the delta(s) touched structurally.
    frontier     Hosts in the k-hop ball the warm re-solve was restricted to
                 (\"(full)\": the re-solve swept the whole model).
    swept        MRF variables the re-solve actually visited.
    changed      Hosts whose product assignment changed.
    obj carry    Objective of carrying the old assignment forward unchanged.
    obj resolve  Objective after the warm re-solve (never worse than carry).
    mttc carry   Mean time-to-compromise of the carried assignment
                 (\"censored\": no simulated run compromised the target).
    mttc resolve MTTC of the re-optimized assignment.
    gain         mttc resolve − mttc carry in ticks, or which side was
                 censored (see MttcGain).
    model edit   Wall-clock time of the in-place model edit, when the step
                 absorbed its deltas by editing the cached MRF (only the
                 touched hosts' variables and incident factors re-derived;
                 the usual path). \"-\" when the step reassembled instead.
    model rebuild Wall-clock time of the linear model reassembly, on steps
                 that could not edit in place (cold builds, compaction).
                 \"-\" when the step edited.
    solve        Wall-clock time of the (localized) warm re-solve.

EXTRA COLUMNS (sharded mode, replacing touched/frontier/swept/changed and
the model edit/model rebuild/solve walls):
    shards       Indices of the shards the burst's deltas were routed to.
    rounds       Boundary-coordination rounds run (0: skipped — the burst
                 could not have leaked across shards).
    gap          Primal−dual gap (P − D)/|P| of the step's Strong
                 coordination pass (dual decomposition over cross-zone
                 links), as a percentage of the primal objective. Not an
                 optimality certificate: D is not a lower bound on the
                 optimum. \"-\" when the step ran no Strong pass
                 (interior-confined burst) or a shard solver reported no
                 bound.
    flips        Boundary hosts whose product changed during coordination.
    shard solve  Wall-clock time of the slowest shard's local step (shards
                 run in parallel).
    coord        Wall-clock time of the coordination loop.

EXTRA COLUMNS (--scenario adaptive):
    entry        The entry host the attacker picked from the committed
                 assignment's largest monoculture cluster this step.
    target       The attacker's target: the deepest host reachable from the
                 entry over monoculture edges (same product, shared service).
    cluster      Size of the largest monoculture cluster the attacker saw.
    clusters     Total monoculture clusters (live-host partition).
    lag          The defender-lag window in simulator ticks (deterministic
                 work proxy: ticks per 1000 swept solver variables).
    defender-lag MTTC gain forfeited to re-solve latency: gain × min(1,
                 lag / mttc carry), 0 when the carried assignment already
                 stops the worm. Always finite; CI gates on it. The summary
                 also reports the wall-clock-equivalent total (ResolveWall
                 model), which ties the column to measured re-solve latency.
    Machine-readable \"trajectory:\" lines follow the table — one per step,
    seed-stable, diffed by CI to pin reproducibility.

EXTRA COLUMNS (--scenario cve-feed):
    advisory     The product named by the step's advisory (service scoped).
    family       Size of the correlated product family hit together (the
                 advisory plus every same-service product whose similarity
                 reaches the family threshold).
    quarantines  RemoveLink deltas in the burst (affected hosts cut off)
                 vs. patch-shaped slot deltas.

SERVING TELEMETRY (--serve mode, replacing the per-step table):
    submissions  submit() calls admitted, and how many of them coalesced
                 (joined deltas already queued) or were rejected at the cap.
    absorption   apply_batch calls the writer made vs. deltas absorbed;
                 fewer batches than submissions is burst coalescing at work.
    deltas/sec   Absorbed write throughput: deltas over the wall time from
                 first submission to last publication.
    read p50/p99 Median and 99th-percentile snapshot read latency across all
                 reader threads (reader.current(): an epoch check, then a
                 borrow of the reader's cached Arc).
    reads        Completed reads per reader thread — every one of them
                 lock-free against the concurrently absorbing writer.
    mttc table   One row per async MTTC probe result observed in the
                 snapshot stream (worm entry→target as in the per-step
                 modes). Probes run on a helper thread off the writer, so
                 each estimate describes the \"probed epoch\" and rides a
                 later snapshot (\"attached epoch\"); \"gain\" compares the
                 re-optimized assignment against the carried one at the
                 probed epoch. \"probes\" counts jobs scheduled vs. dropped
                 because the helper was still simulating.
";

/// Reports a bad command line (status 2) or an unusable journal (status
/// 1) as one `churn: ` line on stderr and exits.
fn exit_with(status: i32, message: impl std::fmt::Display) -> ! {
    eprintln!("churn: {message}");
    std::process::exit(status)
}

fn fmt_mttc(e: &MttcEstimate) -> String {
    match e.mean_ticks() {
        Some(mean) => format!("{mean:.1} ({:.0}%)", 100.0 * e.success_rate()),
        None => "censored".to_owned(),
    }
}

fn main() {
    if help_requested() {
        print!("{HELP}");
        return;
    }
    if let Some(path) = flag_str("--replay") {
        run_replay(&path, flag_str("--solver").as_deref());
        return;
    }
    let journal = flag_str("--journal");
    let (default_hosts, default_steps, default_runs) = if full_mode() {
        (300usize, 30usize, 400usize)
    } else {
        (60, 12, 150)
    };
    let hosts = flag_value("--hosts")
        .filter(|&n| n >= 2)
        .unwrap_or(default_hosts);
    let steps = flag_value("--steps").unwrap_or(default_steps);
    let runs = flag_value("--runs")
        .filter(|&n| n > 0)
        .unwrap_or(default_runs);
    let mode = match flag_value("--batch") {
        Some(mean) if mean > 0 => ChurnMode::Batched {
            mean_burst: mean as f64,
        },
        _ => ChurnMode::Sequential,
    };
    let shards = flag_value("--shards").filter(|&n| n > 1);
    let scenario = flag_str("--scenario");
    if std::env::args().any(|a| a == "--serve") {
        let hosts = if full_mode() && flag_value("--hosts").is_none() {
            960
        } else {
            hosts
        };
        let readers = flag_value("--readers").unwrap_or(4).max(1);
        let burst = flag_value("--batch").unwrap_or(1).max(1);
        run_serving(hosts, steps, readers, burst, shards);
        return;
    }
    let mode_label = match mode {
        ChurnMode::Sequential => "sequential".to_owned(),
        ChurnMode::Batched { mean_burst } => format!("Poisson({mean_burst:.0}) bursts"),
    };
    let config = ChurnConfig {
        steps,
        mttc: MttcOptions {
            runs,
            ..MttcOptions::default()
        },
        mode,
        ..ChurnConfig::default()
    };
    let (g, topo_label) = build_topology(scenario.as_deref(), hosts, shards);
    let entry = HostId(0);
    let target = HostId(g.network.host_count() as u32 - 1);
    let (bursts, title, stream) = match scenario.as_deref() {
        Some("adaptive") => (
            Bursts::Adaptive,
            "Adaptive churn",
            format!(
                "{steps} steps ({mode_label}), adversary re-aims at the largest monoculture \
                 cluster every step"
            ),
        ),
        Some("cve-feed") => {
            let feed = CveFeedConfig::default();
            let stream = format!(
                "{steps} advisory bursts (Pareto α={:.1}, sizes {}..={}), worm {entry}→{target}",
                feed.pareto_alpha, feed.min_burst, feed.max_burst
            );
            let feed = CveFeed::new(feed, config.seed);
            let bursts = Bursts::Cve {
                entry,
                target,
                feed,
            };
            (bursts, "CVE-feed churn", stream)
        }
        _ => (
            Bursts::Random { entry, target },
            "Dynamic churn",
            format!("{steps} steps ({mode_label}), worm {entry}→{target}"),
        ),
    };
    let core = match shards {
        Some(_) => WriterCore::Sharded(ShardedEngine::new(g.network, g.catalog, g.similarity)),
        None => WriterCore::Single(DiversityEngine::new(g.network, g.catalog, g.similarity)),
    };
    let shards = match &core {
        WriterCore::Sharded(engine) => format!(
            " in {} zone shards ({} boundary hosts, {} cross links)",
            engine.partition().shards().len(),
            engine.partition().boundary().len(),
            engine.partition().cross_links().len(),
        ),
        WriterCore::Single(_) => String::new(),
    };
    let header = format!(
        "{title} — {} hosts ({topo_label}){shards}, {stream} ({runs} MTTC runs/estimate)",
        core.network().host_count()
    );
    run(core, bursts, &header, &config, journal.as_deref());
}

/// Builds the scenario topology: the default random instance, the zoned
/// instance classic `--shards` runs use, or one of the `--scenario`
/// families (sized from `--hosts`, with `--shards` doubling as the family's
/// pod/zone/department count).
fn build_topology(
    scenario: Option<&str>,
    hosts: usize,
    shards: Option<usize>,
) -> (GeneratedNetwork, String) {
    match scenario {
        None | Some("adaptive" | "cve-feed") => match shards {
            Some(zones) => {
                let g = generate_zoned(
                    &ZonedNetworkConfig {
                        zones,
                        hosts_per_zone: hosts.div_ceil(zones),
                        gateway_links: 2,
                        mean_degree: 6,
                        services: 3,
                        products_per_service: 4,
                        vendors_per_service: 2,
                        topology: TopologyKind::Random,
                    },
                    2026,
                );
                (g, format!("{zones} gateway-joined zones"))
            }
            None => {
                let g = generate(
                    &RandomNetworkConfig {
                        hosts,
                        mean_degree: 6,
                        services: 3,
                        products_per_service: 4,
                        vendors_per_service: 2,
                        topology: TopologyKind::Random,
                    },
                    2026,
                );
                (g, "random topology".to_owned())
            }
        },
        Some("fat-tree") => {
            let pods = shards.unwrap_or(4).max(2);
            let (core_hosts, agg_per_pod, edge_per_pod) = (4usize, 2usize, 2usize);
            let fixed = core_hosts + pods * (agg_per_pod + edge_per_pod);
            let hosts_per_edge = hosts
                .saturating_sub(fixed)
                .div_ceil(pods * edge_per_pod)
                .max(1);
            let cfg = FatTreeConfig {
                pods,
                core_hosts,
                agg_per_pod,
                edge_per_pod,
                hosts_per_edge,
                ..FatTreeConfig::default()
            };
            let label = format!(
                "fat-tree: {pods} pods ({agg_per_pod} agg + {edge_per_pod} edge, \
                 {hosts_per_edge} leaf hosts/edge) over {core_hosts} core switches"
            );
            (generate_fat_tree(&cfg, 2026), label)
        }
        Some("scale-free") => {
            let cfg = ScaleFreeConfig {
                hosts: hosts.max(2),
                zones: shards.unwrap_or(4),
                ..ScaleFreeConfig::default()
            };
            let label = format!(
                "scale-free: m={}, attachment exponent {:.1}, {} zone blocks",
                cfg.edges_per_host, cfg.attachment_exponent, cfg.zones
            );
            (generate_scale_free(&cfg, 2026), label)
        }
        Some("enterprise") => {
            let internal_zones = shards.unwrap_or(3).max(1);
            let dmz_hosts = (hosts / 10).max(2);
            let server_hosts = (hosts / 6).max(2);
            let hosts_per_internal = hosts
                .saturating_sub(dmz_hosts + server_hosts)
                .div_ceil(internal_zones)
                .max(2);
            let cfg = TieredEnterpriseConfig {
                dmz_hosts,
                internal_zones,
                hosts_per_internal,
                server_hosts,
                ..TieredEnterpriseConfig::default()
            };
            let label = format!(
                "tiered enterprise: {dmz_hosts}-host DMZ, {internal_zones} departments × \
                 {hosts_per_internal} hosts, {server_hosts} servers"
            );
            (generate_tiered_enterprise(&cfg, 2026), label)
        }
        Some(other) => exit_with(
            2,
            format!(
                "unknown --scenario {other:?} (fat-tree, scale-free, enterprise, adaptive, \
                 cve-feed)"
            ),
        ),
    }
}

/// Replays one churn window through [`run_churn`] and prints the per-step
/// table — columns by engine and burst source — the summary, and, with
/// `--journal`, where the recorded window went.
fn run(
    mut core: WriterCore,
    mut bursts: Bursts,
    header: &str,
    config: &ChurnConfig,
    journal: Option<&str>,
) {
    // The adaptive worm re-aims every step, which a replay's fixed scenario
    // cannot rebuild: only fixed-worm windows are recorded.
    let worm = match &bursts {
        Bursts::Random { entry, target } | Bursts::Cve { entry, target, .. } => {
            Some((*entry, *target))
        }
        Bursts::Adaptive => None,
    };
    let journal = journal.filter(|_| worm.is_some());
    if let Some(path) = journal {
        // Full history, no compaction: the whole window stays replayable. A
        // sharded core journals master-level bursts, pre-routing, so the
        // replay rebuilds one single-engine deployment.
        core = core
            .with_journal_cadence(path, None)
            .expect("journal creates");
    }
    let cold = core.solve().expect("instance solves");
    println!("{header}\n");
    println!("cold solve: {cold}\n");

    let replay = run_churn(&mut core, &mut bursts, config).expect("churn replays");
    let adaptive = matches!(bursts, Bursts::Adaptive);
    let sharded = matches!(core, WriterCore::Sharded(_));
    let mut columns = vec!["step", "deltas"];
    match &bursts {
        Bursts::Adaptive => columns.extend(["entry", "target", "cluster", "clusters"]),
        Bursts::Cve { .. } => columns.extend(["advisory", "family", "quarantines"]),
        Bursts::Random { .. } => {}
    }
    if sharded {
        columns.extend(["shards", "rounds", "gap", "flips"]);
    } else {
        columns.extend(["touched", "frontier", "swept", "changed"]);
    }
    columns.extend([
        "obj carry",
        "obj resolve",
        "mttc carry",
        "mttc resolve",
        "gain",
    ]);
    if adaptive {
        columns.extend(["lag", "defender-lag"]);
    }
    if sharded {
        columns.extend(["shard solve", "coord"]);
    } else {
        columns.extend(["model edit", "model rebuild", "solve"]);
    }
    let mut t = TextTable::new(&columns);
    for s in &replay {
        t.add_row_owned(step_row(s, adaptive));
    }
    println!("{t}");

    let n = replay.len();
    let improved = replay
        .iter()
        .filter(|s| s.report.improvement().unwrap_or(0.0) > 1e-9)
        .count();
    let favor = replay
        .iter()
        .filter(|s| s.mttc_gain().favors_reopt())
        .count();
    let censored = replay
        .iter()
        .filter(|s| matches!(s.mttc_gain(), MttcGain::BothCensored))
        .count();
    let deltas_total: usize = replay.iter().map(|s| s.deltas.len()).sum();
    let largest = replay.iter().map(|s| s.deltas.len()).max().unwrap_or(0);
    println!(
        "{deltas_total} deltas in {n} steps (largest burst {largest}); re-solve improved the \
         carried objective on {improved}/{n} steps, MTTC favored re-optimizing on {favor} \
         (both censored on {censored})"
    );
    if sharded {
        print_sharded_summary(&replay);
    } else {
        print_single_summary(&replay);
    }
    match &bursts {
        Bursts::Adaptive => print_adaptive_summary(&replay, config),
        Bursts::Cve { .. } => {
            let quarantines: usize = replay.iter().map(|s| quarantines(&s.deltas)).sum();
            println!(
                "advisories: {quarantines} quarantine link cuts; expected shape: mostly-small \
                 bursts with the occasional monster advisory batch; every burst applied \
                 through one apply_batch without rejection"
            );
        }
        Bursts::Random { .. } => {}
    }
    if let (Some(path), Some((entry, target))) = (journal, worm) {
        mark_window(&mut core, entry, target, config, &replay);
        println!(
            "\nrecorded churn window to {path} ({n} steps, final revision {}); replay with: \
             churn --replay {path} [--solver NAME]",
            core.revision()
        );
    }
}

/// One row of the per-step table, in the column order [`run`] lays out.
fn step_row(s: &ChurnStep, adaptive: bool) -> Vec<String> {
    let mut row = vec![
        s.step.to_string(),
        match &s.deltas[..] {
            [single] => single.to_string(),
            many => format!("burst of {}", many.len()),
        },
    ];
    match &s.drawn {
        Drawn::Recon {
            cluster_size,
            cluster_count,
        } => row.extend([
            s.entry.to_string(),
            s.target.to_string(),
            cluster_size.to_string(),
            cluster_count.to_string(),
        ]),
        Drawn::Advisory {
            service,
            advisory,
            family,
        } => row.extend([
            format!("{service}/{advisory}"),
            family.len().to_string(),
            quarantines(&s.deltas).to_string(),
        ]),
        Drawn::Random => {}
    }
    match &s.report {
        EngineReport::Single(r) => row.extend([
            r.touched.len().to_string(),
            if r.localized {
                r.frontier_hosts.to_string()
            } else {
                format!("{} (full)", r.frontier_hosts)
            },
            r.swept_vars.to_string(),
            r.changed_hosts.len().to_string(),
        ]),
        EngineReport::Sharded(r) => row.extend([
            format!("{:?}", r.shards_touched),
            r.rounds.to_string(),
            r.certified_gap()
                .map_or_else(|| "-".to_owned(), |g| format!("{:.2}%", 100.0 * g)),
            r.boundary_flips.to_string(),
        ]),
    }
    row.extend([
        format!("{:.3}", s.report.objective_before().unwrap_or(f64::NAN)),
        format!("{:.3}", s.report.objective()),
        fmt_mttc(&s.mttc_before),
        fmt_mttc(&s.mttc_after),
        s.mttc_gain().to_string(),
    ]);
    if adaptive {
        row.extend([
            format!("{:.1}", s.lag_ticks),
            format!("{:.2}", s.defender_lag),
        ]);
    }
    match &s.report {
        EngineReport::Single(r) => {
            let wall = format!("{:.2?}", r.rebuild_wall);
            let (edit, rebuild) = if r.rebuild.edited {
                (wall, "-".to_owned())
            } else {
                ("-".to_owned(), wall)
            };
            row.extend([edit, rebuild, format!("{:.2?}", r.solve_wall)]);
        }
        EngineReport::Sharded(r) => {
            let slowest = r.per_shard_solve.iter().max().copied().unwrap_or_default();
            row.extend([
                format!("{slowest:.2?}"),
                format!("{:.2?}", r.coordination_wall),
            ]);
        }
    }
    row
}

/// `RemoveLink` deltas in a burst: the CVE feed's quarantine link cuts.
fn quarantines(deltas: &[NetworkDelta]) -> usize {
    deltas
        .iter()
        .filter(|d| matches!(d, NetworkDelta::RemoveLink { .. }))
        .count()
}

/// The single engine's model-maintenance and locality roll-up.
fn print_single_summary(replay: &[ChurnStep]) {
    let (mut localized, mut refiltered, mut computed, mut reused) = (0, 0, 0, 0);
    let (mut edited, mut reassembled) = (0usize, 0usize);
    let (mut edit_wall, mut rebuild_wall) = (Duration::ZERO, Duration::ZERO);
    for s in replay {
        let EngineReport::Single(r) = &s.report else {
            continue;
        };
        localized += usize::from(r.localized);
        refiltered += r.rebuild.hosts_refiltered;
        computed += r.rebuild.potentials_computed;
        reused += r.rebuild.potentials_reused;
        if r.rebuild.edited {
            edited += 1;
            edit_wall += r.rebuild_wall;
        } else {
            reassembled += 1;
            rebuild_wall += r.rebuild_wall;
        }
    }
    println!(
        "{localized} localized re-solves; {refiltered} host domains refiltered total; \
         potential matrices: {reused} reused, {computed} computed"
    );
    println!(
        "model maintenance: {edited} in-place edits ({edit_wall:.2?} total), {reassembled} \
         linear reassemblies ({rebuild_wall:.2?} total)"
    );
    println!(
        "expected shape: obj resolve ≤ obj carry per step, mttc resolve ≥ mttc carry on average"
    );
}

/// The sharded engine's routing, coordination and certified-gap roll-up.
fn print_sharded_summary(replay: &[ChurnStep]) {
    let (mut single_shard, mut coordinated, mut flips) = (0, 0, 0);
    let mut gaps = Vec::new();
    for s in replay {
        let EngineReport::Sharded(r) = &s.report else {
            continue;
        };
        single_shard += usize::from(r.shards_touched.len() <= 1);
        coordinated += usize::from(r.rounds > 0);
        flips += r.boundary_flips;
        gaps.extend(r.certified_gap());
    }
    println!(
        "{single_shard} bursts confined to one shard; coordination ran on {coordinated} steps \
         ({flips} boundary flips total)"
    );
    if let Some(worst) = gaps.iter().copied().reduce(f64::max) {
        println!(
            "reported gap (not a certificate): {} Strong steps, worst {:.2}%",
            gaps.len(),
            100.0 * worst
        );
    }
    println!(
        "expected shape: obj resolve ≤ obj carry per step; rounds 0 on interior-confined \
         bursts; reported gap small and never negative on Strong steps"
    );
}

/// The adversary-in-the-loop roll-up: seed-stable `trajectory:` lines (CI
/// diffs them across two runs), the attacker's recon, and defender-lag
/// under both lag models.
fn print_adaptive_summary(replay: &[ChurnStep], config: &ChurnConfig) {
    // Machine-readable, seed-stable trajectory: everything here is
    // deterministic for a fixed seed (the SweptWork lag model and the
    // seeded MTTC estimator), so CI diffs these lines across two runs.
    let mut biggest = 0;
    for s in replay {
        let Drawn::Recon {
            cluster_size,
            cluster_count,
        } = s.drawn
        else {
            continue;
        };
        biggest = biggest.max(cluster_size);
        println!(
            "trajectory: step={} entry={} target={} cluster={cluster_size} \
             clusters={cluster_count} mttc_carry={} mttc_resolve={} lag={:.3} \
             defender_lag={:.4}",
            s.step,
            s.entry,
            s.target,
            s.mttc_before
                .mean_ticks()
                .map_or_else(|| "censored".to_owned(), |m| format!("{m:.4}")),
            s.mttc_after
                .mean_ticks()
                .map_or_else(|| "censored".to_owned(), |m| format!("{m:.4}")),
            s.lag_ticks,
            s.defender_lag,
        );
    }
    let favor = replay
        .iter()
        .filter(|s| s.mttc_gain().favors_reopt())
        .count();
    let total_lag: f64 = replay.iter().map(|s| s.defender_lag).sum();
    let wall_model = LagModel::ResolveWall { ticks_per_ms: 1.0 };
    let wall_lag: f64 = replay
        .iter()
        .map(|s| {
            defender_lag(
                &s.mttc_before,
                &s.mttc_after,
                wall_model.lag_ticks(&s.report),
                config.max_ticks,
            )
        })
        .sum();
    let finite = replay.iter().all(|s| s.defender_lag.is_finite()) && total_lag.is_finite();
    println!(
        "\nattacker recon: largest monoculture cluster peaked at {biggest} hosts; MTTC \
         favored re-optimizing on {favor}/{} steps",
        replay.len()
    );
    println!(
        "defender-lag: {total_lag:.2} ticks total forfeited to re-solve latency \
         (SweptWork model, {}); wall-clock equivalent {wall_lag:.2} ticks \
         (ResolveWall, 1.0 ticks/ms, not seed-stable)",
        if finite {
            "all finite"
        } else {
            "NON-FINITE — BUG"
        },
    );
    println!(
        "expected shape: cluster sizes shrink as re-optimization breaks the monoculture the \
         attacker aimed at; defender-lag stays finite and small relative to mttc resolve"
    );
}

/// Embeds the window's scenario parameters and per-step MTTC in the
/// journal as marks, so `--replay` rebuilds the exact MTTC scenario without
/// the original command line and diffs the trajectory. Censored means are
/// omitted: `MarkRecord` carries finite values only.
fn mark_window(
    core: &mut WriterCore,
    entry: HostId,
    target: HostId,
    config: &ChurnConfig,
    replay: &[ChurnStep],
) {
    let scenario = [
        ("steps", config.steps as f64),
        ("entry", f64::from(entry.0)),
        ("target", f64::from(target.0)),
        ("exploit_success", config.exploit_success),
        ("baseline_rate", config.baseline_rate),
        ("max_ticks", f64::from(config.max_ticks)),
        ("mttc_runs", config.mttc.runs as f64),
        ("seed", config.seed as f64),
    ];
    core.journal_mark("churn-config", &scenario)
        .expect("journal appends");
    for s in replay {
        let mut fields = vec![
            ("step", s.step as f64),
            ("revision", s.report.revision() as f64),
        ];
        fields.extend(s.mttc_before.mean_ticks().map(|m| ("mttc_carry", m)));
        fields.extend(s.mttc_after.mean_ticks().map(|m| ("mttc_resolve", m)));
        core.journal_mark("churn-step", &fields)
            .expect("journal appends");
    }
}

/// Serving-mode replay: put the engine behind the epoch-versioned snapshot
/// front-end, churn the network from the main thread while reader threads
/// hammer the published snapshot, then print serving telemetry and write
/// `BENCH_serving.json` to the working directory.
fn run_serving(hosts: usize, steps: usize, readers: usize, burst: usize, shards: Option<usize>) {
    use rand::Rng;

    let (core, mut shadow, catalog, zones, label) = match shards {
        Some(zone_count) => {
            let g = generate_zoned(
                &ZonedNetworkConfig {
                    zones: zone_count,
                    hosts_per_zone: hosts.div_ceil(zone_count),
                    gateway_links: 2,
                    mean_degree: 6,
                    services: 3,
                    products_per_service: 4,
                    vendors_per_service: 2,
                    topology: TopologyKind::Random,
                },
                2026,
            );
            let shadow = g.network.clone();
            let catalog = g.catalog.clone();
            // Generated AddHost deltas carry no zone. The sharded router
            // would happily open a fresh zone for each (dynamic shards),
            // but serving mode measures steady-state absorb throughput, so
            // pin newcomers to the existing zones instead.
            let mut zones: Vec<Option<String>> = shadow
                .iter_hosts()
                .map(|(_, h)| h.zone().map(str::to_owned))
                .collect();
            zones.sort();
            zones.dedup();
            let label = format!(
                "{} hosts, {zone_count}-zone sharded core",
                shadow.host_count()
            );
            (
                WriterCore::Sharded(ShardedEngine::new(g.network, g.catalog, g.similarity)),
                shadow,
                catalog,
                zones,
                label,
            )
        }
        None => {
            let g = generate(
                &RandomNetworkConfig {
                    hosts,
                    mean_degree: 6,
                    services: 3,
                    products_per_service: 4,
                    vendors_per_service: 2,
                    topology: TopologyKind::Random,
                },
                2026,
            );
            let shadow = g.network.clone();
            let catalog = g.catalog.clone();
            let label = format!("{hosts} hosts, single-engine core");
            (
                WriterCore::Single(DiversityEngine::new(g.network, g.catalog, g.similarity)),
                shadow,
                catalog,
                Vec::new(),
                label,
            )
        }
    };
    let host_count = shadow.host_count();
    println!(
        "Concurrent serving churn — {label}; {steps} submissions × {burst} delta(s), \
         {readers} reader threads\n"
    );
    let cold_start = Instant::now();
    // The same worm scenario the per-step modes estimate, sampled by the
    // serving engine's off-writer probe thread on every publication.
    let probe_target = HostId(host_count as u32 - 1);
    let serving = ServingEngine::start_with(
        core,
        ServingConfig {
            mttc: Some(MttcProbe {
                scenario: Scenario::new(HostId(0), probe_target),
                options: MttcOptions {
                    runs: 48,
                    ..MttcOptions::default()
                },
                every: 1,
            }),
            ..ServingConfig::default()
        },
    )
    .expect("instance solves");
    println!(
        "cold solve + first publish: {:.2?} (objective {:.3})",
        cold_start.elapsed(),
        serving.snapshot().objective()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let mut reader = serving.reader();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut reads = 0u64;
                let mut samples: Vec<u64> = Vec::with_capacity(1 << 16);
                let mut observed = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    // Time every 16th read to bound sample memory; count all.
                    if reads.is_multiple_of(16) {
                        let t = Instant::now();
                        let snapshot = reader.current();
                        samples.push(t.elapsed().as_nanos() as u64);
                        let now = (snapshot.epoch(), snapshot.revision());
                        assert!(now >= observed, "snapshots went backwards");
                        observed = now;
                    } else {
                        std::hint::black_box(reader.current().revision());
                    }
                    reads += 1;
                }
                (reads, samples)
            })
        })
        .collect();
    // One more reader dedicated to harvesting probe results from the
    // snapshot stream: each new `mttc_epoch` is one completed async probe.
    // (probed epoch, attached epoch, resolve, carried, gain)
    type MttcRow = (
        u64,
        u64,
        MttcEstimate,
        Option<MttcEstimate>,
        Option<MttcGain>,
    );
    let monitor = {
        let mut reader = serving.reader();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut seen = 0u64;
            let mut rows: Vec<MttcRow> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let snapshot = reader.current();
                if let (Some(probed), Some(mttc)) = (snapshot.mttc_epoch(), snapshot.mttc()) {
                    if probed > seen {
                        seen = probed;
                        rows.push((
                            probed,
                            snapshot.epoch(),
                            mttc.clone(),
                            snapshot.mttc_carried().cloned(),
                            snapshot.mttc_gain(),
                        ));
                    }
                }
                thread::sleep(Duration::from_micros(100));
            }
            rows
        })
    };

    let mut rng = StdRng::seed_from_u64(2026);
    let mut submitted = 0u64;
    let churn_start = Instant::now();
    for _ in 0..steps {
        // Generate the burst against a shadow network kept in lockstep
        // with the engine, so every delta is valid at absorption.
        let mut deltas = Vec::with_capacity(burst);
        for _ in 0..burst {
            let mut delta = random_delta(&shadow, &catalog, &mut rng, &[HostId(0), probe_target]);
            if let netmodel::delta::NetworkDelta::AddHost { zone, .. } = &mut delta {
                if !zones.is_empty() {
                    zone.clone_from(&zones[rng.gen_range(0..zones.len())]);
                }
            }
            shadow
                .apply_delta(&delta, &catalog)
                .expect("generated deltas are valid");
            deltas.push(delta);
        }
        submitted += deltas.len() as u64;
        // A single submitter that waits for queue headroom can never be
        // rejected, which keeps the shadow network and engine identical.
        while serving.queue_depth() + burst > serving.queue_cap() {
            thread::sleep(Duration::from_micros(200));
        }
        assert!(
            !matches!(serving.submit(deltas), Enqueue::Rejected { .. }),
            "submission rejected despite reserved headroom"
        );
    }
    assert!(
        serving.wait_for_revision(submitted, Duration::from_secs(600)),
        "writer failed to drain the churn stream"
    );
    let churn_wall = churn_start.elapsed();
    let stream_deltas = submitted;
    // A short paced tail — one delta per publication, waiting each out —
    // so several sampled epochs flow through the async MTTC probe and
    // surface in the telemetry table. The unpaced stream above coalesces
    // into very few publications, which is the point of that measurement
    // but leaves async probe results nothing to ride on.
    for _ in 0..8u32 {
        let mut delta = random_delta(&shadow, &catalog, &mut rng, &[HostId(0), probe_target]);
        if let netmodel::delta::NetworkDelta::AddHost { zone, .. } = &mut delta {
            if !zones.is_empty() {
                zone.clone_from(&zones[rng.gen_range(0..zones.len())]);
            }
        }
        shadow
            .apply_delta(&delta, &catalog)
            .expect("generated deltas are valid");
        submitted += 1;
        serving.submit(vec![delta]);
        assert!(
            serving.wait_for_revision(submitted, Duration::from_secs(600)),
            "writer failed to absorb the paced tail"
        );
        // Give the probe helper a moment to finish and park its estimate.
        thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    let mut reads_per_reader = Vec::with_capacity(readers);
    let mut samples: Vec<u64> = Vec::new();
    for handle in reader_handles {
        let (reads, timed) = handle.join().expect("reader thread panicked");
        reads_per_reader.push(reads);
        samples.extend(timed);
    }
    let mttc_rows = monitor.join().expect("monitor thread panicked");
    samples.sort_unstable();
    let pct = |p: f64| -> u64 {
        match samples.len() {
            0 => 0,
            n => samples[(((n - 1) as f64) * p) as usize],
        }
    };
    let last = serving.snapshot();
    let (core, drain) = serving.shutdown();
    assert_eq!(core.revision(), submitted, "every delta was absorbed");
    let stats = &drain.stats;
    let deltas_per_sec = stream_deltas as f64 / churn_wall.as_secs_f64();
    let total_reads: u64 = reads_per_reader.iter().sum();

    println!(
        "submissions: {} admitted ({} coalesced, {} rejected at the cap, {} bursts \
         rejected by the engine)",
        stats.submissions,
        stats.coalesced_submissions,
        stats.rejected_submissions,
        stats.bursts_rejected
    );
    println!(
        "absorption:  {} apply_batch calls for {} deltas — {} publications, last epoch {}, \
         revision {}",
        stats.batches_absorbed,
        stats.deltas_absorbed,
        stats.publications,
        drain.last_epoch,
        drain.last_revision
    );
    println!(
        "throughput:  {deltas_per_sec:.1} deltas/sec absorbed over {churn_wall:.2?}; final \
         objective {:.3}",
        last.objective()
    );
    println!(
        "reads:       {total_reads} total across {readers} readers {reads_per_reader:?}; \
         read p50 {}ns, p99 {}ns, max {}ns — all lock-free against the absorbing writer",
        pct(0.50),
        pct(0.99),
        samples.last().copied().unwrap_or(0)
    );
    println!(
        "probes:      {} MTTC probes scheduled, {} dropped (helper busy); {} results \
         observed in the snapshot stream",
        stats.probes_scheduled,
        stats.probes_dropped,
        mttc_rows.len()
    );
    if !mttc_rows.is_empty() {
        let mut t = TextTable::new(&[
            "probed epoch",
            "attached epoch",
            "mttc carry",
            "mttc resolve",
            "gain",
        ]);
        for (probed, attached, resolve, carried, gain) in &mttc_rows {
            t.add_row_owned(vec![
                probed.to_string(),
                attached.to_string(),
                carried.as_ref().map_or_else(|| "-".to_owned(), fmt_mttc),
                fmt_mttc(resolve),
                gain.map_or_else(|| "-".to_owned(), |g| g.to_string()),
            ]);
        }
        println!(
            "\nsampled MTTC telemetry (async probe; epoch 1 is the synchronous baseline):\n{t}"
        );
    }
    // The same gain roll-up the per-step modes print, over the sampled
    // probe stream (a probe without a carried baseline stays unclassified).
    let classified = mttc_rows.iter().filter(|r| r.4.is_some()).count();
    let favor = mttc_rows
        .iter()
        .filter(|r| r.4.is_some_and(MttcGain::favors_reopt))
        .count();
    let both_censored = mttc_rows
        .iter()
        .filter(|r| matches!(r.4, Some(MttcGain::BothCensored)))
        .count();
    println!(
        "mttc gains:  {classified} sampled epochs classified; re-optimizing favored on \
         {favor} (both censored on {both_censored})"
    );
    println!(
        "expected shape: batches ≤ submissions (coalescing), read p99 ≪ absorb wall, reads \
         never stall"
    );

    let json = format!(
        "{{\n  \"bench\": \"serving_churn\",\n  {},\n  \"hosts\": {host_count},\n  \"shards\": {},\n  \
         \"readers\": {readers},\n  \"submissions\": {},\n  \"burst\": {burst},\n  \
         \"deltas_absorbed\": {},\n  \"batches_absorbed\": {},\n  \"publications\": {},\n  \
         \"coalesced_submissions\": {},\n  \"last_epoch\": {},\n  \"last_revision\": {},\n  \
         \"churn_wall_ms\": {:.3},\n  \"deltas_per_sec\": {deltas_per_sec:.1},\n  \
         \"reads_total\": {total_reads},\n  \"read_p50_ns\": {},\n  \"read_p99_ns\": {},\n  \
         \"probes_scheduled\": {},\n  \"probes_dropped\": {},\n  \"mttc_samples\": {},\n  \
         \"mttc_favor_reopt\": {favor},\n  \"mttc_both_censored\": {both_censored}\n}}\n",
        bench::machine_json(),
        shards.map_or_else(|| "null".to_owned(), |z| z.to_string()),
        stats.submissions,
        stats.deltas_absorbed,
        stats.batches_absorbed,
        stats.publications,
        stats.coalesced_submissions,
        drain.last_epoch,
        drain.last_revision,
        churn_wall.as_secs_f64() * 1e3,
        pct(0.50),
        pct(0.99),
        stats.probes_scheduled,
        stats.probes_dropped,
        mttc_rows.len(),
    );
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("\nwrote BENCH_serving.json");
}

/// Replay mode: rebuild the engine from a recorded journal (preamble +
/// last snapshot before the batch tail), re-apply every recorded burst —
/// optionally under a different solver — re-estimate MTTC with the
/// recorded scenario parameters, and diff the trajectory against the
/// recorded per-step marks.
fn run_replay(path: &str, solver: Option<&str>) {
    use sim::mttc::estimate_mttc;
    use std::collections::BTreeMap;

    let kind = solver.map(|name| match name {
        "trws" => SolverKind::Trws(Default::default()),
        "icm" => SolverKind::Icm(Default::default()),
        "ils" => SolverKind::Ils(Default::default()),
        "exhaustive" => SolverKind::Exhaustive,
        "exact" => SolverKind::Exact(Default::default()),
        other => exit_with(
            2,
            format!("unknown --solver {other:?} (trws, icm, ils, exhaustive, exact)"),
        ),
    });
    let read = read_records(path).unwrap_or_else(|e| exit_with(1, e));
    if let Some(why) = &read.corruption {
        println!(
            "warning: journal damaged after {} valid bytes — replaying the valid prefix ({why})\n",
            read.valid_len
        );
    }
    // The recorded scenario parameters ride a churn-config mark.
    let cfg = read
        .records
        .iter()
        .find_map(|r| match r {
            Record::Mark(m) if m.label == "churn-config" => Some(m.clone()),
            _ => None,
        })
        .unwrap_or_else(|| {
            exit_with(
                1,
                format!("{path} has no churn-config mark — record one with: churn --journal PATH"),
            )
        });
    let entry = HostId(cfg.field("entry").expect("config mark has entry") as u32);
    let target = HostId(cfg.field("target").expect("config mark has target") as u32);
    let runs = cfg.field("mttc_runs").map_or(150, |r| r as usize);
    let scenario = Scenario::new(entry, target)
        .with_exploit_success(cfg.field("exploit_success").unwrap_or(0.9))
        .with_baseline_rate(cfg.field("baseline_rate").unwrap_or(0.02))
        .with_max_ticks(cfg.field("max_ticks").map_or(2_000, |t| t as u32));
    let options = MttcOptions {
        runs,
        ..MttcOptions::default()
    };
    // Recorded per-step MTTC, keyed by the post-step network revision (the
    // join key batch records carry too).
    let mut recorded: BTreeMap<u64, (f64, Option<f64>)> = BTreeMap::new();
    for r in &read.records {
        if let Record::Mark(m) = r {
            if m.label == "churn-step" {
                if let (Some(rev), Some(step)) = (m.field("revision"), m.field("step")) {
                    recorded.insert(rev as u64, (step, m.field("mttc_resolve")));
                }
            }
        }
    }

    // Without --solver, replay is exact *verification*: batch records carry
    // the committed assignment, so each step restores the recorded state
    // and recomputes its MTTC (drift must be 0.0 with the seeded
    // estimator). With --solver, replay is the what-if mode: every burst
    // re-solves under that configuration and the trajectory diff shows how
    // it diverges from the recording.
    let checkpoint = Checkpoint::find(&read.records).unwrap_or_else(|e| exit_with(1, e));
    println!(
        "Replaying {path} — {} records, snapshot at revision {}, {} recorded bursts, \
         {} hosts; solver: {}\n",
        read.records.len(),
        checkpoint.snapshot.revision,
        checkpoint.batches().count(),
        checkpoint.snapshot.network.host_count(),
        solver.unwrap_or("none (exact verification from recorded states)"),
    );

    let mut t = TextTable::new(&[
        "step",
        "revision",
        "deltas",
        "rec resolve",
        "rep resolve",
        "drift",
    ]);
    let mut replayed = 0usize;
    let mut max_drift = 0.0f64;
    let mut last_revision = checkpoint.snapshot.revision;
    let mut row = |batch: &BatchRecord, net: &Network, assign: Option<&Assignment>| {
        let assign = assign.expect("a replayed step holds an assignment");
        let similarity = &checkpoint.preamble.similarity;
        let est = estimate_mttc(net, assign, similarity, &scenario, &options);
        let (step_label, rec_resolve) = match recorded.get(&batch.revision) {
            Some((step, resolve)) => (format!("{step:.0}"), *resolve),
            None => ("-".to_owned(), None),
        };
        let drift = match (rec_resolve, est.mean_ticks()) {
            (Some(rec), Some(rep)) => {
                max_drift = max_drift.max((rep - rec).abs());
                format!("{:+.1}", rep - rec)
            }
            _ => "-".to_owned(),
        };
        t.add_row_owned(vec![
            step_label,
            batch.revision.to_string(),
            batch.deltas.len().to_string(),
            rec_resolve.map_or_else(|| "censored".to_owned(), |m| format!("{m:.1}")),
            fmt_mttc(&est),
            drift,
        ]);
        last_revision = batch.revision;
        replayed += 1;
    };
    let replay = match kind {
        Some(kind) => {
            let mut engine = checkpoint.engine_at_snapshot(|e| {
                let refiner = kind.build();
                e.with_solver(kind).with_refiner(refiner)
            });
            checkpoint.batches().try_for_each(|batch| {
                engine
                    .apply_batch(&batch.deltas)
                    .expect("recorded batch replays");
                check_revision(batch, engine.revision())?;
                row(batch, engine.network(), engine.assignment());
                Ok(())
            })
        }
        None => checkpoint.replay(&mut row).map(drop),
    };
    if let Err(diverged) = replay {
        exit_with(1, diverged);
    }
    println!("{t}");
    println!(
        "replayed {replayed} recorded bursts to revision {last_revision} (matches the \
         recording); max |drift| {max_drift:.1} ticks",
    );
    println!(
        "expected shape: drift is exactly 0 without --solver (replay restores each \
         recorded committed assignment); with --solver every burst re-solves under that \
         configuration and the diff shows how its MTTC trajectory diverges"
    );
}
