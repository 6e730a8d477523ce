//! Serving benchmark for ics-diversity.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's instance and burst stream from the seed, sets
//! the engine up (several times, for `setup_s`), drives a `ServingEngine`
//! from one load-generator thread with one burst outstanding, checks the
//! outputs, and prints one JSON result line last. `--trace 1` runs the
//! same workload and seed, then replays the stream on bare engines with
//! spans around each layer's calls and prints the per-layer metrics
//! instead. See `README.md` beside this crate for every metric.

mod recovery;
mod serve;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use netmodel::strategies::mono_assignment;
use perfbench::stats::{median, quantile, result_line, Metrics};

use crate::serve::{run_loop, LoopOutcome};
use crate::trace::{replay_sharded, replay_single, span_cost, Replay, Tracer, OVERRUN_MARGIN};
use crate::workload::{EngineKind, Workload, WARMUP_BURSTS};

/// Fewest recoveries timed in the fresh process of a traced run.
const RECOVERIES: usize = 8;

/// How far the replay's on-path layer self times may sum away from the
/// serving loop's absorb walls (as a share of the latter) before the traced
/// run fails its add-up check. The two passes run the same bursts on the
/// same engine tens of seconds apart, and on a shared 2-vCPU VM the same
/// work runs up to 1.45× slower when the host is busy. The tolerance covers
/// that drift, so the check catches only gross mismatches, such as a replay
/// of other bursts or of a much cheaper engine.
const SELF_SUM_TOLERANCE: f64 = 0.5;

/// Where runs keep their journals and span files, relative to the
/// working directory.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("recover") {
        recovery::child_main(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| run(&args))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Check failures: per-burst ones count one failed operation each, and so
/// does each whole-run check that fails.
#[derive(Default)]
struct Failures(Vec<String>);

impl Failures {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let work = Path::new(WORK_DIR);
    std::fs::create_dir_all(work).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    let tag = format!("{}-{}-{}", w.name(), args.seed, std::process::id());
    let journal = work.join(format!("journal-{tag}.log"));

    let generated = Instant::now();
    let g = w.instance();
    let stream = w.stream(&g, w.bursts(args.seconds), args.seed);
    eprintln!(
        "perfbench: {} seed {}: {} hosts, {} bursts, {} deltas generated in {:.2}s",
        w.name(),
        args.seed,
        g.network.host_count(),
        stream.bursts.len(),
        stream.delta_count(),
        generated.elapsed().as_secs_f64()
    );

    let setups = if args.trace { 1 } else { w.setups() };
    let mut setup_s = Vec::with_capacity(setups);
    let mut serving = None;
    for k in 0..setups {
        let copy = g.clone();
        let t = Instant::now();
        let started = w.start(copy, &journal)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if started.epoch() != 1 {
            return Err(format!("set-up published epoch {}, not 1", started.epoch()));
        }
        if k + 1 < setups {
            drop(started.shutdown());
        } else {
            serving = Some(started);
        }
    }
    let serving = serving.expect("at least one set-up");
    eprintln!(
        "perfbench: {} set-ups, min {:.4}s, median {:.4}s, max {:.4}s",
        setup_s.len(),
        quantile(&setup_s, 0.0),
        median(&setup_s),
        quantile(&setup_s, 1.0)
    );
    let start_revision = serving.snapshot().revision();

    let bursts = stream.bursts.clone();
    let attempted = bursts.len() as u64;
    let outcome = run_loop(
        &serving,
        bursts,
        WARMUP_BURSTS,
        g.network.host_count() as u32,
        w.read_mode(),
    );
    let stats = serving.stats();
    let (core, drain) = serving.shutdown();

    let mut failures = Failures(outcome.failures.clone());
    let network = core.network();
    let expected_revision = start_revision + outcome.submitted_deltas;
    failures.check(drain.last_revision == expected_revision, || {
        format!(
            "final revision {} != start {start_revision} + {} deltas submitted",
            drain.last_revision, outcome.submitted_deltas
        )
    });
    failures.check(network == &stream.final_network, || {
        "final network differs from the stream's staged network".into()
    });
    failures.check(
        stats.batches_absorbed == attempted
            && stats.coalesced_submissions == 0
            && stats.rejected_submissions == 0
            && stats.bursts_rejected == 0,
        || {
            format!(
                "serving stats {stats:?}: expected one batch per burst, none coalesced or rejected"
            )
        },
    );
    let Some(assignment) = core.assignment() else {
        return Err("no assignment after serving".into());
    };
    failures.check(assignment.validate(network).is_ok(), || {
        "final assignment does not validate on the final network".into()
    });
    let similarity = core.similarity();
    let similarity_ratio = assignment.total_edge_similarity(network, similarity)
        / mono_assignment(network).total_edge_similarity(network, similarity);

    // Recovery: the live journal where the workload serves with one, else
    // a journal holding the final snapshot.
    let recover_path = if w.journaled() {
        journal.clone()
    } else {
        let path = work.join(format!("snapshot-{tag}.log"));
        recovery::create_journal(&path, core.catalog(), similarity, network, Some(assignment))?;
        path
    };
    if let Err(e) = recovery::check_recovery(&recover_path, network, assignment) {
        failures.0.push(e);
    }
    let recovered = if args.trace {
        Some(recovery::time_in_fresh_process(&recover_path, RECOVERIES)?)
    } else {
        None
    };
    remove_journal(&journal);
    remove_journal(&recover_path);

    let timed: Vec<_> = outcome.samples.iter().filter(|s| s.timed).collect();
    let visible_ms: Vec<f64> = timed
        .iter()
        .map(|s| s.visible().as_secs_f64() * 1e3)
        .collect();
    let read_ns = outcome.read_ns();
    let deltas_per_s = outcome.deltas_per_s();
    eprintln!(
        "perfbench: {} timed bursts, {} reads, wall {:.2}s, visible p99 {:.3} ms, read p99 {:.1} ns",
        timed.len(),
        outcome.reads,
        outcome.wall.as_secs_f64(),
        quantile(&visible_ms, 0.99),
        quantile(&read_ns, 0.99)
    );

    let mut metrics = Metrics::default();
    if args.trace {
        let replayed = traced_metrics(
            args,
            &g,
            &stream.bursts,
            &outcome,
            &stats,
            &recovered.expect("timed in traced runs"),
            &mut failures,
            &mut metrics,
            &tag,
        )?;
        eprintln!("perfbench: replay passes took {:.2}s", replayed);
    } else {
        metrics.push("setup_s", "s", median(&setup_s));
        metrics.push("visible_p50_ms", "ms", quantile(&visible_ms, 0.5));
        metrics.push("deltas_per_s", "deltas/s", deltas_per_s);
        metrics.push("similarity_ratio", "ratio", similarity_ratio);
        metrics.push("read_p50_ns", "ns", quantile(&read_ns, 0.5));
        metrics.push("read_p95_ns", "ns", quantile(&read_ns, 0.95));
    }
    for failure in &failures.0 {
        eprintln!("perfbench: check failed: {failure}");
    }
    let failed = (failures.0.len() as u64).min(attempted);
    for m in &metrics.0 {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    Ok(())
}

fn remove_journal(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(path.with_extension("compact-tmp"));
}

/// The traced run's second pass and its per-layer metrics. Returns the
/// replay wall in seconds.
#[allow(clippy::too_many_arguments)]
fn traced_metrics(
    args: &Args,
    g: &netmodel::topology::GeneratedNetwork,
    bursts: &[Vec<netmodel::delta::NetworkDelta>],
    serving: &LoopOutcome,
    stats: &ics_diversity::ServingStats,
    recovered: &recovery::RecoveryTimes,
    failures: &mut Failures,
    m: &mut Metrics,
    tag: &str,
) -> Result<f64, String> {
    let w = args.workload;
    let work = Path::new(WORK_DIR);
    let origin = serving
        .samples
        .first()
        .map_or_else(Instant::now, |s| s.submitted);
    let mut tracer = Tracer::default();

    // Pass 1 spans, from the serving loop's own timestamps.
    for s in &serving.samples {
        let b = s.burst;
        tracer.span("serve", b, "serve.submit", s.submitted, s.accepted, None);
        tracer.span("serve", b, "serve.wait", s.accepted, s.observed, None);
        let visible = tracer.span("serve", b, "serve.visible", s.submitted, s.published, None);
        let absorb_start = s.published.checked_sub(s.absorb).unwrap_or(s.published);
        tracer.span(
            "serve",
            b,
            "serve.absorb",
            absorb_start,
            s.published,
            Some(visible),
        );
    }

    // Pass 2: the whole stream on bare engines.
    let owned: PathBuf = work.join(format!("owned-{tag}.log"));
    let replay_start = Instant::now();
    let spans_before = tracer.spans.len();
    let (primary, probe) = match w.engine() {
        EngineKind::Single => {
            let primary = replay_single(g, bursts, Some(&owned), &mut tracer)?;
            let probe = replay_sharded(g, bursts, None, "shard-probe", &mut tracer)?;
            (primary, probe)
        }
        EngineKind::Sharded => {
            let primary = replay_sharded(g, bursts, Some(&owned), "replay", &mut tracer)?;
            (primary, Replay::default())
        }
    };
    let replay_wall = replay_start.elapsed();
    let replay_spans = tracer.spans.len() - spans_before;
    remove_journal(&owned);
    let shard = match w.engine() {
        EngineKind::Single => &probe,
        EngineKind::Sharded => &primary,
    };
    let shard_pass = match w.engine() {
        EngineKind::Single => "shard-probe",
        EngineKind::Sharded => "replay",
    };

    let layers = tracer.by_layer("replay", WARMUP_BURSTS);
    let shard_layers = tracer.by_layer(shard_pass, WARMUP_BURSTS);
    let empty = (Vec::new(), Vec::new());
    let dur = |name: &str| layers.get(name).unwrap_or(&empty);
    let shard_dur = |name: &str| shard_layers.get(name).unwrap_or(&empty);
    let scaled = |v: &[f64], k: f64| v.iter().map(|x| x * k).collect::<Vec<f64>>();
    let c = &primary.counts;
    let per_burst = |v: &[f64]| perfbench::stats::mean(&v[WARMUP_BURSTS.min(v.len())..]);
    let share = |n: u64, of: u64| if of == 0 { 0.0 } else { n as f64 / of as f64 };

    m.push_dist("delta.clone_us", "us", &dur("delta.clone").0);
    m.push_dist("delta.apply_us", "us", &dur("delta.apply").0);
    m.push("delta.per_burst", "count", per_burst(&c.deltas));
    m.push(
        "delta.structural_share",
        "ratio",
        share(c.structural, c.total_deltas),
    );

    m.push_dist("cache.refresh_us", "us", &dur("cache.refresh").0);
    m.push(
        "cache.hosts_refiltered",
        "count",
        per_burst(&c.hosts_refiltered),
    );
    m.push(
        "cache.potentials_computed",
        "count",
        per_burst(&c.potentials_computed),
    );
    m.push(
        "cache.potentials_reused",
        "count",
        per_burst(&c.potentials_reused),
    );
    m.push(
        "cache.edited_share",
        "ratio",
        share(c.edited, c.hosts_refiltered.len() as u64),
    );

    m.push_dist("mrf.solve_us", "us", &dur("mrf.solve").0);
    m.push("mrf.swept_vars", "count", per_burst(&c.swept_vars));
    m.push("mrf.iterations", "count", per_burst(&c.iterations));
    m.push(
        "mrf.localized_share",
        "ratio",
        share(c.localized, c.swept_vars.len() as u64),
    );
    m.push("mrf.cold_s", "s", primary.cold_solve_s);

    m.push_dist("engine.step_us", "us", &dur("engine.step").0);
    m.push_dist("engine.self_us", "us", &dur("engine.step").1);

    let sc = &shard.counts;
    m.push_dist("shard.step_us", "us", &shard_dur("shard.step").0);
    m.push_dist("shard.local_max_us", "us", &shard_dur("engine.step").0);
    m.push_dist("shard.coord_us", "us", &shard_dur("shard.coord").0);
    m.push_dist("shard.self_us", "us", &shard_dur("shard.step").1);
    m.push("shard.rounds", "count", per_burst(&sc.rounds));
    m.push("shard.light_share", "ratio", share(sc.light, sc.bursts));
    m.push("shard.strong_count", "count", sc.strong as f64);
    m.push(
        "shard.boundary_flips",
        "count",
        per_burst(&sc.boundary_flips),
    );
    m.push("shard.cold_coord_s", "s", shard.cold_coord_s);
    m.push("shard.cold_gap", "ratio", shard.cold_gap);
    failures.check(sc.strong == 0, || {
        format!(
            "{} Strong coordination passes in the stream (expected none)",
            sc.strong
        )
    });

    m.push_dist("journal.append_us", "us", &dur("journal.append").0);
    m.push(
        "journal.bytes_per_batch",
        "bytes",
        per_burst(&c.journal_bytes),
    );
    m.push_dist(
        "journal.compact_ms",
        "ms",
        &scaled(&dur("journal.compact").0, 1e-3),
    );
    m.push("journal.compactions", "count", c.compactions as f64);
    let recover = median(&recovered.recover);
    let recover_read = median(&recovered.read);
    m.push("journal.recover_s", "s", recover);
    m.push("journal.recover_read_ms", "ms", recover_read * 1e3);
    m.push(
        "journal.recover_replay_ms",
        "ms",
        (recover - recover_read).max(0.0) * 1e3,
    );

    let timed: Vec<_> = serving.samples.iter().filter(|s| s.timed).collect();
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let submit: Vec<f64> = timed.iter().map(|s| us(s.accepted - s.submitted)).collect();
    let absorb: Vec<f64> = timed.iter().map(|s| us(s.absorb)).collect();
    let handoff: Vec<f64> = timed
        .iter()
        .map(|s| us(s.visible().saturating_sub(s.absorb)))
        .collect();
    m.push_dist("serve.submit_us", "us", &submit);
    m.push_dist("serve.absorb_ms", "ms", &scaled(&absorb, 1e-3));
    m.push_dist("serve.handoff_us", "us", &handoff);
    m.push(
        "serve.writer_busy_share",
        "ratio",
        absorb.iter().sum::<f64>() / us(serving.wall).max(1e-9),
    );
    m.push(
        "serve.coalesced",
        "count",
        stats.coalesced_submissions as f64,
    );
    m.push(
        "serve.rejected",
        "count",
        (stats.rejected_submissions + stats.bursts_rejected) as f64,
    );
    m.push("snapshot.reads", "count", serving.reads as f64);
    m.push(
        "snapshot.read_p99_ns",
        "ns",
        quantile(&serving.read_ns(), 0.99),
    );

    // Add-up check: over the timed bursts, the self times of the layers on
    // the serving path (the journal's only where it serves with one) sum
    // to the writer's absorb walls in pass 1.
    let absorb_total: f64 = absorb.iter().sum();
    let on_path: f64 = layers
        .iter()
        .filter(|(layer, _)| w.journaled() || !layer.starts_with("journal."))
        .map(|(_, (_, own))| own.iter().sum::<f64>())
        .sum();
    let self_sum_share = on_path / absorb_total.max(1e-9);
    m.push("trace.self_sum_share", "ratio", self_sum_share);
    failures.check((self_sum_share - 1.0).abs() <= SELF_SUM_TOLERANCE, || {
        format!("layer self times sum to {self_sum_share:.3} of the absorb wall (tolerance ±{SELF_SUM_TOLERANCE})")
    });
    // Overrun checks: children may outlast their span by the stated
    // margin in one burst, and not at all over the timed bursts.
    for span in tracer.overruns(WARMUP_BURSTS) {
        failures.0.push(format!(
            "{} pass, burst {}: the children of {} outlast it by more than {OVERRUN_MARGIN}",
            span.pass, span.burst, span.layer
        ));
    }
    for pass in ["serve", "replay", "shard-probe"] {
        for (layer, (_, own)) in tracer.by_layer(pass, WARMUP_BURSTS) {
            let total: f64 = own.iter().sum();
            failures.check(total >= 0.0, || {
                format!("{pass} pass: the children of {layer} outlast it over the timed bursts ({total:.0} us self time)")
            });
        }
    }
    let overhead = span_cost(100_000).as_secs_f64() * replay_spans as f64;
    m.push(
        "trace.overhead_share",
        "ratio",
        overhead / replay_wall.as_secs_f64().max(1e-9),
    );
    let visible_ms: Vec<f64> = timed
        .iter()
        .map(|s| s.visible().as_secs_f64() * 1e3)
        .collect();
    m.push("trace.visible_p50_ms", "ms", quantile(&visible_ms, 0.5));
    m.push("serve.visible_p99_ms", "ms", quantile(&visible_ms, 0.99));
    m.push("trace.deltas_per_s", "deltas/s", serving.deltas_per_s());

    let spans_path = work.join(format!("trace-{tag}.jsonl"));
    tracer
        .write(&spans_path, origin)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    eprintln!("perfbench: spans written to {}", spans_path.display());
    Ok(replay_wall.as_secs_f64())
}
