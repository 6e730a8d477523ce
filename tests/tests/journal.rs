//! Durability properties: a journaled engine must be exactly recoverable,
//! damaged journals must recover to the last checksum-valid prefix (never
//! panic, never silently accept corruption), the record codec must
//! round-trip every [`NetworkDelta`] variant, and the on-disk format is
//! pinned byte-for-byte by a golden file (format 1 files stay readable).

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ics_diversity::engine::DiversityEngine;
use ics_diversity::journal::{read_records, recover, recover_with, Checkpoint};
use ics_diversity::shard::ShardedEngine;
use ics_diversity::{Error, WriterCore};
use mrf::{LocalRefine, MapSolver, MrfModel, Solution, SolveControl, SolveScratch, Start, VarId};
use netmodel::assignment::Assignment;
use netmodel::catalog::{Catalog, ProductSimilarity};
use netmodel::constraints::{Constraint, ConstraintSet, Scope};
use netmodel::delta::{random_delta, NetworkDelta};
use netmodel::journal::{
    crc32, parse_record_line, read_strict, read_tolerant, BatchRecord, ChangedRows, MarkRecord,
    Preamble, Record, SnapshotRecord, FORMAT_VERSION,
};
use netmodel::network::{Network, NetworkBuilder};
use netmodel::topology::{
    generate, generate_zoned, RandomNetworkConfig, TopologyKind, ZonedNetworkConfig,
};
use netmodel::{HostId, ProductId, ServiceId};

fn tmp_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ics-journal-it-{tag}-{}-{n}.log",
        std::process::id()
    ))
}

fn fail<T>(what: &str) -> impl FnOnce(T) -> TestCaseError + '_
where
    T: std::fmt::Display,
{
    move |e| TestCaseError::Fail(format!("{what}: {e}"))
}

fn arb_config() -> impl Strategy<Value = RandomNetworkConfig> {
    (2usize..14, 1usize..5, 1usize..4, 2usize..5).prop_map(|(hosts, degree, services, products)| {
        RandomNetworkConfig {
            hosts,
            mean_degree: degree,
            services,
            products_per_service: products,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        }
    })
}

/// A burst of deltas that is valid *as a sequence*: each delta is drawn
/// against a scratch network that already absorbed its predecessors (the
/// same staging `apply_batch` validates against). Mirrors the churn
/// harness's batched mode.
fn valid_burst(engine: &DiversityEngine, rng: &mut StdRng, len: usize) -> Vec<NetworkDelta> {
    let mut scratch = engine.network().clone();
    let mut deltas = Vec::with_capacity(len);
    for _ in 0..len {
        let delta = random_delta(&scratch, engine.catalog(), rng, &[HostId(0)]);
        push_staged(&mut scratch, engine.catalog(), &mut deltas, delta);
    }
    deltas
}

fn push_staged(
    scratch: &mut Network,
    catalog: &Catalog,
    deltas: &mut Vec<NetworkDelta>,
    delta: NetworkDelta,
) {
    scratch
        .apply_delta(&delta, catalog)
        .expect("staged delta applies to scratch");
    deltas.push(delta);
}

/// A burst that adds a host — a copy of host 0's services, linked to host
/// 0, in host 0's zone or (every third step) a fresh one — then removes a
/// live host other than host 0 when one is left, then draws a random
/// delta.
fn churning_burst(
    network: &Network,
    catalog: &Catalog,
    rng: &mut StdRng,
    step: usize,
) -> Vec<NetworkDelta> {
    let mut scratch = network.clone();
    let mut deltas = Vec::new();
    let template = network.host(HostId(0)).expect("host 0 is protected");
    let zone = match step % 3 {
        2 => Some(format!("fresh-{step}")),
        _ => template.zone().map(str::to_owned),
    };
    let add = NetworkDelta::AddHost {
        name: format!("joiner-{step}"),
        zone,
        services: template
            .services()
            .iter()
            .map(|s| (s.service(), s.candidates().to_vec()))
            .collect(),
        links: vec![HostId(0)],
    };
    push_staged(&mut scratch, catalog, &mut deltas, add);
    let live: Vec<HostId> = scratch
        .iter_hosts()
        .filter(|(id, h)| id.index() > 0 && !h.is_removed())
        .map(|(id, _)| id)
        .collect();
    if !live.is_empty() {
        let victim = live[rng.gen_range(0..live.len())];
        push_staged(
            &mut scratch,
            catalog,
            &mut deltas,
            NetworkDelta::remove_host(victim),
        );
    }
    let drawn = random_delta(&scratch, catalog, rng, &[HostId(0)]);
    push_staged(&mut scratch, catalog, &mut deltas, drawn);
    deltas
}

fn objective(engine: &DiversityEngine) -> f64 {
    engine
        .assignment()
        .expect("engine has solved")
        .total_edge_similarity(engine.network(), engine.similarity())
}

/// A constraint set of the case study's kinds: a `Fix` mandate on a seeded
/// host, plus 1–3 `Scope::All` forbid or require combinations between two
/// services when the catalog has more than one.
fn drawn_constraints(network: &Network, catalog: &Catalog, rng: &mut StdRng) -> ConstraintSet {
    let hosts: Vec<HostId> = network
        .iter_hosts()
        .filter(|(_, h)| !h.services().is_empty())
        .map(|(id, _)| id)
        .collect();
    let host = hosts[rng.gen_range(0..hosts.len())];
    let slot = &network.host(host).expect("generated host").services()[0];
    let mandated = slot.candidates()[rng.gen_range(0..slot.candidates().len())];
    let mut set = ConstraintSet::new();
    set.push(Constraint::fix(host, slot.service(), mandated));
    let services = catalog.service_count() as u16;
    if services > 1 {
        let pick = |rng: &mut StdRng, service: ServiceId| {
            let products = catalog.products_of(service);
            (service, products[rng.gen_range(0..products.len())])
        };
        for _ in 0..rng.gen_range(1..4) {
            let a = ServiceId(rng.gen_range(0..services));
            let b = ServiceId((a.0 + rng.gen_range(1..services)) % services);
            let (trigger, other) = (pick(rng, a), pick(rng, b));
            set.push(if rng.gen_bool(0.5) {
                Constraint::forbid_combination(Scope::All, trigger, other)
            } else {
                Constraint::require_combination(Scope::All, trigger, other)
            });
        }
    }
    set
}

/// The failures a burst of [`failing_burst`] may end in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Failure {
    Rejected,
    Infeasible,
    Unsatisfiable,
}

fn failure(error: &Error) -> Option<Failure> {
    match error {
        Error::Model(netmodel::Error::BatchRejected { .. }) => Some(Failure::Rejected),
        Error::Infeasible { .. } => Some(Failure::Infeasible),
        Error::UnsatisfiableConstraints { .. } => Some(Failure::Unsatisfiable),
        _ => None,
    }
}

/// Whether a call built to succeed — a solve or a [`valid_burst`] — may
/// end in `error`: only under constraints, and only because they cannot
/// hold.
fn fails_validly(constrained: bool, error: &Error) -> bool {
    constrained
        && matches!(
            failure(error),
            Some(Failure::Infeasible | Failure::Unsatisfiable)
        )
}

/// A burst for the recovery proptest, with the failure it was built to
/// end in. Half are [`valid_burst`]s, which may still fail under
/// constraints. One in eight ends in a delta naming no host; while the
/// `mandate` host is live, two in eight narrow its mandated slot to every
/// other product, and one in eight removes it, after which every re-solve
/// fails the constraint post-check.
fn failing_burst(
    engine: &DiversityEngine,
    mandate: Option<&Constraint>,
    rng: &mut StdRng,
    len: usize,
) -> (Vec<NetworkDelta>, Option<Failure>) {
    let mut burst = valid_burst(engine, rng, len);
    let draw = rng.gen_range(0..8);
    if draw == 0 {
        burst.push(NetworkDelta::remove_host(HostId(u32::MAX)));
        return (burst, Some(Failure::Rejected));
    }
    let Some(&Constraint::Fix {
        host,
        service,
        product,
    }) = mandate
    else {
        return (burst, None);
    };
    if engine.network().host(host).map_or(true, |h| h.is_removed()) {
        return (burst, None);
    }
    match draw {
        1 | 2 => {
            let others = engine.catalog().products_of(service);
            let others = others.iter().copied().filter(|&p| p != product).collect();
            (
                vec![NetworkDelta::unfix_slot(host, service, others)],
                Some(Failure::Infeasible),
            )
        }
        3 => (
            vec![NetworkDelta::remove_host(host)],
            Some(Failure::Unsatisfiable),
        ),
        _ => (burst, None),
    }
}

/// Recover ≡ live: the journal at `path` rebuilds the live engine's
/// network (revision counters included), revision, topology revision,
/// assignment (or its absence), catalog, similarity and objective, and
/// its preamble holds the configured `constraints`.
fn assert_recovers(
    live: &DiversityEngine,
    path: &Path,
    constraints: &ConstraintSet,
) -> Result<(), TestCaseError> {
    let recovered = recover(path).map_err(fail("recover"))?;
    prop_assert_eq!(recovered.network(), live.network());
    prop_assert_eq!(recovered.revision(), live.revision());
    prop_assert_eq!(
        recovered.network().topology_revision(),
        live.network().topology_revision()
    );
    prop_assert_eq!(recovered.assignment(), live.assignment());
    prop_assert_eq!(recovered.catalog(), live.catalog());
    prop_assert_eq!(recovered.similarity(), live.similarity());
    let read = read_records(path).map_err(fail("read"))?;
    let checkpoint = Checkpoint::find(&read.records).map_err(fail("checkpoint"))?;
    prop_assert_eq!(&checkpoint.preamble.constraints, constraints);
    if live.assignment().is_some() {
        let (live_obj, back_obj) = (objective(live), objective(&recovered));
        prop_assert!(
            (live_obj - back_obj).abs() <= 1e-9,
            "objective drifted: live {} vs recovered {}",
            live_obj,
            back_obj
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Recovery ≡ live engine.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Journal + snapshot + recover reproduces the live engine exactly
    /// (`assert_recovers`) after every call — the cold solve, a re-solve
    /// between bursts in one step of four, and every burst, whether it
    /// commits or fails with `BatchRejected`, `Infeasible` or
    /// `UnsatisfiableConstraints` — across arbitrary delta streams, burst
    /// sizes, snapshot cadences (including compaction) and, in half the
    /// cases, a drawn constraint set. A call that fails the post-check
    /// drops the assignment, and a burst that does is committed, so the
    /// journal must record both. Without constraints every call built to
    /// succeed must succeed and leave an assignment. Recovery runs after
    /// every call, so with a cadence of 1 or 2 it reads the file while
    /// background compactions are still in flight.
    #[test]
    fn recovery_matches_live_engine(
        config in arb_config(),
        seed in 0u64..200,
        steps in 1usize..8,
        cadence in prop_oneof![
            Just(None),
            Just(Some(1usize)),
            Just(Some(2usize)),
            Just(Some(64usize))
        ],
        constrained in any::<bool>(),
    ) {
        let path = tmp_path("prop");
        let g = generate(&config, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let constraints = if constrained {
            drawn_constraints(&g.network, &g.catalog, &mut rng)
        } else {
            ConstraintSet::new()
        };
        let mandate = constraints.iter().next().cloned();
        let mut live = DiversityEngine::new(g.network, g.catalog, g.similarity)
            .with_constraints(constraints.clone())
            .with_journal_cadence(&path, cadence)
            .map_err(fail("attach journal"))?;
        let check = |live: &DiversityEngine| {
            prop_assert!(
                constrained || live.assignment().is_some(),
                "an unconstrained engine lost its assignment"
            );
            assert_recovers(live, &path, &constraints)
        };
        if let Err(e) = live.solve() {
            prop_assert!(fails_validly(constrained, &e), "cold solve: {}", e);
        }
        check(&live)?;
        for step in 0..steps {
            if rng.gen_range(0..4) == 0 {
                if let Err(e) = live.solve() {
                    prop_assert!(fails_validly(constrained, &e), "re-solve: {}", e);
                }
                check(&live)?;
                continue;
            }
            let (burst, built_to) = failing_burst(&live, mandate.as_ref(), &mut rng, 1 + step % 3);
            match (live.apply_batch(&burst), built_to) {
                (Ok(_), None) => {}
                (Ok(_), Some(built_to)) => prop_assert!(false, "built to fail with {:?}", built_to),
                (Err(e), None) => prop_assert!(fails_validly(constrained, &e), "valid burst: {}", e),
                (Err(e), Some(built_to)) => prop_assert_eq!(
                    failure(&e),
                    Some(built_to),
                    "built to fail with {:?}, failed with {}",
                    built_to,
                    e
                ),
            }
            check(&live)?;
        }
        // Dropping the engine lands its last compaction before the file
        // goes.
        drop(live);
        std::fs::remove_file(&path).ok();
    }

    /// The sharded engine journals through the same hook: with cadence 1
    /// or 2 (a compaction every burst or every other one) and bursts that
    /// add hosts — some to fresh zones, creating shards — and remove
    /// others, recovery after every commit reproduces its network and
    /// assignment exactly.
    #[test]
    fn sharded_recovery_matches_live_engine(
        zones in 2usize..4,
        hosts_per_zone in 3usize..7,
        seed in 0u64..200,
        steps in 1usize..7,
        cadence in 1usize..3,
    ) {
        let path = tmp_path("prop-sharded");
        let g = generate_zoned(
            &ZonedNetworkConfig {
                zones,
                hosts_per_zone,
                gateway_links: 1,
                mean_degree: 2,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            seed,
        );
        let mut live = ShardedEngine::new(g.network, g.catalog, g.similarity)
            .with_journal_cadence(&path, Some(cadence))
            .map_err(fail("attach journal"))?;
        live.solve().map_err(fail("cold solve"))?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5DEE_CE66_D1CE_4E5B);
        for step in 0..steps {
            let burst = churning_burst(live.network(), live.catalog(), &mut rng, step);
            live.apply_batch(&burst).map_err(fail("apply_batch"))?;

            let recovered = recover(&path).map_err(fail("recover"))?;
            prop_assert_eq!(recovered.network(), live.network());
            prop_assert_eq!(recovered.revision(), live.revision());
            prop_assert_eq!(recovered.assignment(), live.assignment());
        }
        drop(live);
        std::fs::remove_file(&path).ok();
    }
}

/// A burst that fails the constraint post-check is committed, so it is
/// journaled (with no assignment): after removing the host a `Fix`
/// mandates, and after the next burst, which fails the same way, recovery
/// lands on the live revision with no assignment.
#[test]
fn a_burst_failing_the_post_check_is_journaled() {
    let path = tmp_path("post-check");
    let g = generate(
        &RandomNetworkConfig {
            hosts: 40,
            mean_degree: 8,
            services: 4,
            products_per_service: 4,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        5,
    );
    let (host, service) = (HostId(7), ServiceId(0));
    let mandated = g
        .network
        .host(host)
        .unwrap()
        .candidates_for(service)
        .unwrap()[0];
    let mut constraints = ConstraintSet::new();
    constraints.push(Constraint::fix(host, service, mandated));
    let mut live = DiversityEngine::new(g.network, g.catalog, g.similarity)
        .with_constraints(constraints)
        .with_journal_cadence(&path, None)
        .unwrap();
    live.solve().unwrap();
    assert_eq!(live.revision(), 0);
    for (victim, revision) in [(host, 1), (HostId(8), 2)] {
        let err = live
            .apply_batch(&[NetworkDelta::remove_host(victim)])
            .unwrap_err();
        assert!(
            matches!(err, Error::UnsatisfiableConstraints { .. }),
            "{err}"
        );
        assert_eq!(live.revision(), revision, "the failed burst is committed");
        assert!(live.assignment().is_none());
        let recovered = recover(&path).unwrap();
        assert_eq!(recovered.revision(), revision);
        assert_eq!(recovered.network(), live.network());
        assert!(recovered.assignment().is_none());
    }
    drop(live);
    std::fs::remove_file(&path).ok();
}

/// A refiner that returns its model's costliest labeling, found by brute
/// force (tiny models only). Where the model holds a combination
/// constraint's penalty edge, that labeling violates the constraint.
struct Costliest;

impl MapSolver for Costliest {
    fn name(&self) -> String {
        "costliest".into()
    }

    fn solve(&self, model: &MrfModel, _: &SolveControl) -> Solution {
        let mut labels = vec![0; model.var_count()];
        let mut costliest = labels.clone();
        loop {
            if model.energy(&labels) > model.energy(&costliest) {
                costliest.clone_from(&labels);
            }
            let Some(v) = (0..labels.len()).find(|&v| labels[v] + 1 < model.labels(VarId(v)))
            else {
                break;
            };
            labels[v] += 1;
            labels[..v].fill(0);
        }
        let energy = model.energy(&costliest);
        Solution::new(costliest, energy, None, 1, true)
    }

    fn refine_local(
        &self,
        model: &MrfModel,
        _: Start,
        _: &[VarId],
        _: &[VarId],
        ctl: &SolveControl,
        _: &mut SolveScratch,
    ) -> LocalRefine {
        LocalRefine::full(self.solve(model, ctl), model.live_var_count())
    }
}

/// A warm re-solve that fails the post-check drops the assignment without
/// moving the revision, and the journal records that: recovery holds no
/// assignment either.
#[test]
fn a_resolve_failing_the_post_check_is_journaled() {
    let path = tmp_path("resolve-post-check");
    let mut catalog = Catalog::new();
    let (os, web) = (catalog.add_service("os"), catalog.add_service("web"));
    let [a, b] = ["a", "b"].map(|name| catalog.add_product(name, os).unwrap());
    let [x, y] = ["x", "y"].map(|name| catalog.add_product(name, web).unwrap());
    let mut builder = NetworkBuilder::new();
    let hosts = ["h0", "h1"].map(|name| builder.add_host(name));
    for host in hosts {
        builder.add_service(host, os, vec![a, b]).unwrap();
        builder.add_service(host, web, vec![x, y]).unwrap();
    }
    builder.add_link(hosts[0], hosts[1]).unwrap();
    let network = builder.build(&catalog).unwrap();
    let mut similarity = vec![0.0; 16];
    for p in 0..4 {
        similarity[p * 5] = 1.0;
    }
    let similarity = ProductSimilarity::from_dense(4, similarity);
    let mut constraints = ConstraintSet::new();
    constraints.push(Constraint::forbid_combination(
        Scope::All,
        (os, a),
        (web, x),
    ));
    let mut live = DiversityEngine::new(network, catalog, similarity)
        .with_refiner(Box::new(Costliest))
        .with_constraints(constraints)
        .with_journal_cadence(&path, None)
        .unwrap();
    live.solve().expect("the cold solver avoids the penalty");
    assert!(live.assignment().is_some());
    let err = live.solve().unwrap_err();
    assert!(
        matches!(err, Error::UnsatisfiableConstraints { .. }),
        "{err}"
    );
    assert_eq!(live.revision(), 0);
    assert!(live.assignment().is_none());
    let recovered = recover(&path).unwrap();
    assert_eq!(recovered.revision(), 0);
    assert!(recovered.assignment().is_none());
    drop(live);
    std::fs::remove_file(&path).ok();
}

/// The preamble records the constraint set once, so replacing it on a
/// journaled engine panics rather than leave recovery solving another
/// problem.
#[test]
#[should_panic(expected = "with_constraints after with_journal")]
fn constraints_after_the_journal_panic() {
    let path = tmp_path("late-constraints");
    let g = generate(
        &RandomNetworkConfig {
            hosts: 4,
            mean_degree: 2,
            services: 2,
            products_per_service: 3,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        1,
    );
    let engine = DiversityEngine::new(g.network, g.catalog, g.similarity)
        .with_journal_cadence(&path, None)
        .unwrap();
    std::fs::remove_file(&path).ok();
    let _ = engine.with_constraints(ConstraintSet::new());
}

/// [`constraints_after_the_journal_panic`] on the sharded engine.
#[test]
#[should_panic(expected = "with_constraints after with_journal")]
fn sharded_constraints_after_the_journal_panic() {
    let path = tmp_path("late-constraints-sharded");
    let g = generate_zoned(
        &ZonedNetworkConfig {
            zones: 2,
            hosts_per_zone: 3,
            gateway_links: 1,
            mean_degree: 2,
            services: 2,
            products_per_service: 3,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        1,
    );
    let engine = ShardedEngine::new(g.network, g.catalog, g.similarity)
        .with_journal_cadence(&path, None)
        .unwrap();
    std::fs::remove_file(&path).ok();
    let _ = engine.with_constraints(ConstraintSet::new());
}

// ---------------------------------------------------------------------------
// Fault injection: torn writes, bit flips and a failed compaction.
// ---------------------------------------------------------------------------

/// A deterministic full-history journal (cadence `None`): preamble, genesis
/// snapshot, post-solve snapshot, then one batch record per step. Returns
/// the engine and the revision after each commit point (index 0 = after the
/// cold solve).
fn recorded_journal(path: &PathBuf, steps: usize) -> (DiversityEngine, Vec<u64>) {
    let g = generate(
        &RandomNetworkConfig {
            hosts: 8,
            mean_degree: 3,
            services: 2,
            products_per_service: 3,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        11,
    );
    let mut engine = DiversityEngine::new(g.network, g.catalog, g.similarity)
        .with_journal_cadence(path, None)
        .expect("journal attaches");
    engine.solve().expect("cold solve");
    let mut revisions = vec![engine.revision()];
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..steps {
        let burst = valid_burst(&engine, &mut rng, 1);
        engine.apply_batch(&burst).expect("batch applies");
        revisions.push(engine.revision());
    }
    (engine, revisions)
}

/// Truncating the file at *every* byte boundary of the final record always
/// recovers: the torn record is dropped and recovery lands on the previous
/// commit point, except at the two complete cuts (full record with or
/// without its trailing newline), which recover the full state.
#[test]
fn truncation_at_every_byte_of_the_final_record_recovers_a_prefix() {
    let path = tmp_path("trunc");
    let (engine, revisions) = recorded_journal(&path, 3);
    let data = std::fs::read(&path).unwrap();
    assert_eq!(data.last(), Some(&b'\n'), "journal lines are terminated");
    let full_revision = engine.revision();
    let previous_revision = revisions[revisions.len() - 2];
    let last_start = data[..data.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|i| i + 1)
        .expect("journal has more than one record");

    let cut_path = tmp_path("trunc-cut");
    for cut in last_start..=data.len() {
        std::fs::write(&cut_path, &data[..cut]).unwrap();
        let recovered = recover(&cut_path)
            .unwrap_or_else(|e| panic!("cut at byte {cut}/{} failed: {e}", data.len()));
        // A record torn mid-line is lost; missing only the newline is not.
        let expected = if cut >= data.len() - 1 {
            full_revision
        } else {
            previous_revision
        };
        assert_eq!(recovered.revision(), expected, "cut at byte {cut}");
        // The damage is reported, never silently swallowed.
        let read = read_records(&cut_path).unwrap();
        if cut > last_start && cut < data.len() - 1 {
            assert!(read.corruption.is_some(), "cut at byte {cut} unreported");
            assert_eq!(read.valid_len, last_start, "cut at byte {cut}");
        } else {
            assert!(read.corruption.is_none(), "clean cut at byte {cut}");
        }
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&cut_path).ok();
}

/// Flipping a single byte in *any* record is detected by its checksum: the
/// tolerant reader stops exactly at the damaged record, recovery rebuilds
/// the prefix before it (or fails loudly when the preamble/genesis snapshot
/// itself is hit), and corruption is always reported.
#[test]
fn single_byte_flips_are_always_detected_never_absorbed() {
    let path = tmp_path("flip");
    let (engine, _revisions) = recorded_journal(&path, 3);
    let data = std::fs::read(&path).unwrap();
    let full_revision = engine.revision();
    let mut starts = vec![0usize];
    for (i, &b) in data.iter().enumerate() {
        if b == b'\n' && i + 1 < data.len() {
            starts.push(i + 1);
        }
    }
    // Layout with cadence None: preamble, genesis snapshot, post-solve
    // snapshot, then one batch per step.
    assert_eq!(starts.len(), 3 + 3, "unexpected journal layout");

    let flip_path = tmp_path("flip-cut");
    for (idx, &start) in starts.iter().enumerate() {
        let end = start + data[start..].iter().position(|&b| b == b'\n').unwrap();
        let mut damaged = data.clone();
        damaged[start + (end - start) / 2] ^= 0x01;

        let read = read_tolerant(&damaged);
        assert!(read.corruption.is_some(), "flip in record {idx} undetected");
        assert_eq!(read.records.len(), idx, "prefix wrong for record {idx}");
        assert_eq!(read.valid_len, start, "valid_len wrong for record {idx}");

        std::fs::write(&flip_path, &damaged).unwrap();
        match recover_with(&flip_path, |e| e) {
            // No preamble (idx 0) or no snapshot (idx 1) left: loud failure.
            Err(_) => assert!(idx < 2, "record {idx} flip should recover"),
            Ok(recovered) => {
                assert!(idx >= 2, "record {idx} flip recovered from nothing");
                assert!(
                    recovered.report.corruption.is_some(),
                    "record {idx} flip silently accepted"
                );
                let expected = if idx <= 3 { 0 } else { (idx - 3) as u64 };
                assert_eq!(recovered.engine.revision(), expected, "record {idx}");
                assert!(recovered.engine.revision() < full_revision);
            }
        }
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&flip_path).ok();
}

/// A compaction that fails is retried at the next commit, not a whole
/// cadence later, and does not fail the commit that started it. With
/// cadence 2 the second commit is due to compact, but its directory is
/// gone: the commit succeeds, and the background compaction fails, is
/// counted and leaves no temp file. Once the directory is back, the third
/// commit compacts again and the journal recovers revision 3. Both engines
/// run the sequence: they share one journal hook.
#[test]
fn failed_compaction_is_retried_at_the_next_commit() {
    for sharded in [false, true] {
        let dir = tmp_path("compaction-retry").with_extension("d");
        std::fs::create_dir_all(&dir).expect("journal directory");
        let path = dir.join("journal.log");
        let g = generate_zoned(
            &ZonedNetworkConfig {
                zones: 2,
                hosts_per_zone: 4,
                gateway_links: 1,
                mean_degree: 2,
                services: 1,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            3,
        );
        let core = if sharded {
            WriterCore::Sharded(ShardedEngine::new(g.network, g.catalog, g.similarity))
        } else {
            WriterCore::Single(DiversityEngine::new(g.network, g.catalog, g.similarity))
        };
        let mut core = core
            .with_journal_cadence(&path, Some(2))
            .expect("journal attaches");
        core.solve().expect("cold solve");
        let os = core.catalog().service_by_name("service0").unwrap();
        let mandate = |core: &mut WriterCore, host: u32| {
            let host = HostId(host);
            let product = core
                .network()
                .host(host)
                .unwrap()
                .candidates_for(os)
                .unwrap()[0];
            core.apply_batch(&[NetworkDelta::fix_slot(host, os, product)])
        };
        mandate(&mut core, 0).expect("first commit journals");
        std::fs::remove_dir_all(&dir).expect("directory removed");
        mandate(&mut core, 1).expect("a failing compaction does not fail the commit");
        assert_eq!(core.revision(), 2, "sharded {sharded}: the commit stands");
        core.wait_for_compaction();
        let journal = core.journal().expect("journal attached");
        assert_eq!(journal.compaction_failures(), 1, "sharded {sharded}");
        let error = journal.last_compaction_error().expect("error kept");
        assert!(
            error.contains("compact-tmp"),
            "sharded {sharded}: the compaction cannot create its file: {error}"
        );
        std::fs::create_dir_all(&dir).expect("directory restored");
        mandate(&mut core, 2).expect("third commit journals");
        core.wait_for_compaction();
        assert_eq!(
            core.journal().unwrap().compaction_failures(),
            1,
            "sharded {sharded}: the retry succeeded"
        );
        assert!(!path.with_extension("compact-tmp").exists());
        let recovered = recover(&path).expect("the retried compaction wrote the journal");
        assert_eq!(recovered.revision(), 3, "sharded {sharded}");
        assert_eq!(recovered.network(), core.network(), "sharded {sharded}");
        assert_eq!(
            recovered.assignment(),
            core.assignment(),
            "sharded {sharded}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Codec round-trip over every NetworkDelta variant.
// ---------------------------------------------------------------------------

fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9_.]{0,8}",
        Just(String::new()),
        Just("zoné \"q\"\nλ中🦀\t\\".to_owned()),
    ]
}

fn arb_host() -> impl Strategy<Value = HostId> {
    // Includes ids far past any real network — tombstoned or dangling ids
    // must survive the codec untouched.
    prop_oneof![(0u32..64).prop_map(HostId), Just(HostId(u32::MAX))]
}

fn arb_service() -> impl Strategy<Value = ServiceId> {
    prop_oneof![(0u16..8).prop_map(ServiceId), Just(ServiceId(u16::MAX))]
}

fn arb_product() -> impl Strategy<Value = ProductId> {
    prop_oneof![(0u16..16).prop_map(ProductId), Just(ProductId(u16::MAX))]
}

fn arb_products() -> impl Strategy<Value = Vec<ProductId>> {
    proptest::collection::vec(arb_product(), 0..4)
}

fn arb_delta() -> impl Strategy<Value = NetworkDelta> {
    prop_oneof![
        (
            arb_name(),
            proptest::option::of(arb_name()),
            proptest::collection::vec((arb_service(), arb_products()), 0..3),
            proptest::collection::vec(arb_host(), 0..4),
        )
            .prop_map(|(name, zone, services, links)| NetworkDelta::AddHost {
                name,
                zone,
                services,
                links,
            }),
        arb_host().prop_map(|host| NetworkDelta::RemoveHost { host }),
        (arb_host(), arb_host()).prop_map(|(a, b)| NetworkDelta::AddLink { a, b }),
        (arb_host(), arb_host()).prop_map(|(a, b)| NetworkDelta::RemoveLink { a, b }),
        (arb_host(), arb_service(), arb_product()).prop_map(|(host, service, product)| {
            NetworkDelta::FixSlot {
                host,
                service,
                product,
            }
        }),
        (arb_host(), arb_service(), arb_products()).prop_map(|(host, service, candidates)| {
            NetworkDelta::UnfixSlot {
                host,
                service,
                candidates,
            }
        }),
        (arb_host(), arb_service(), arb_products()).prop_map(|(host, service, products)| {
            NetworkDelta::ExtendCandidates {
                host,
                service,
                products,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every delta variant — empty and unicode names, escape-needing
    /// characters, maximal ids — survives encode → checksum frame → parse
    /// exactly, along with the committed assignment riding the batch.
    #[test]
    fn delta_codec_round_trips(
        seq in 0u64..1000,
        revision in 0u64..1000,
        deltas in proptest::collection::vec(arb_delta(), 0..6),
        rows in proptest::option::of(
            proptest::collection::vec(proptest::option::of(arb_products()), 0..5).prop_map(
                |table| ChangedRows {
                    len: table.len(),
                    rows: table
                        .into_iter()
                        .enumerate()
                        .filter_map(|(h, row)| Some((HostId(h as u32), row?)))
                        .collect(),
                },
            )
        ),
    ) {
        let record = Record::Batch(BatchRecord { seq, revision, deltas, assignment: rows });
        let line = record.to_line();
        let parsed = parse_record_line(line.trim_end_matches('\n').as_bytes())
            .map_err(fail("parse"))?;
        prop_assert_eq!(&parsed, &record);
        // And through the file-level reader.
        let strict = read_strict(line.as_bytes()).map_err(fail("read_strict"))?;
        prop_assert_eq!(strict, vec![record]);
    }
}

// ---------------------------------------------------------------------------
// Golden file: the on-disk format is pinned byte-for-byte.
// ---------------------------------------------------------------------------

/// A small fixed journal exercising every record kind, every delta variant,
/// zones, fixed slots, escape-needing strings and extreme ids, as written
/// by on-disk format `format`: format 1 batch records carry the whole
/// committed table (read back as every row changed), format 2 ones the
/// rows that differ from the snapshot before them.
fn golden_records(format: u64) -> Vec<Record> {
    let mut catalog = Catalog::new();
    let web = catalog.add_service("web");
    let scada = catalog.add_service("scada");
    let ie = catalog.add_product("IE 10", web).unwrap();
    let ff = catalog.add_product("Firefox", web).unwrap();
    let wincc = catalog.add_product("WinCC", scada).unwrap();
    let similarity =
        ProductSimilarity::from_dense(3, vec![1.0, 0.4, 0.0, 0.4, 1.0, 0.25, 0.0, 0.25, 1.0]);
    let mut constraints = ConstraintSet::new();
    constraints.push(Constraint::fix(HostId(0), web, ie));
    constraints.push(Constraint::forbid_combination(
        Scope::All,
        (web, ie),
        (scada, wincc),
    ));
    constraints.push(Constraint::require_combination(
        Scope::Host(HostId(1)),
        (scada, wincc),
        (web, ff),
    ));

    let mut b = NetworkBuilder::new();
    let h0 = b.add_host_in_zone("hist0", "Control");
    let h1 = b.add_host("wkst \"α\"\t1");
    b.add_service(h0, web, vec![ie, ff]).unwrap();
    b.add_service(h0, scada, vec![wincc]).unwrap();
    b.add_service(h1, web, vec![ie, ff]).unwrap();
    b.add_link(h0, h1).unwrap();
    let network = b.build(&catalog).unwrap();
    let assignment = Assignment::from_slots(vec![vec![ie, wincc], vec![ff]]);
    let rows = match format {
        1 => vec![
            (HostId(0), vec![ie, wincc]),
            (HostId(1), vec![]),
            (HostId(2), vec![ff]),
        ],
        _ => vec![(HostId(1), vec![]), (HostId(2), vec![ff])],
    };

    vec![
        Record::Preamble(Preamble {
            format,
            catalog,
            similarity,
            constraints,
        }),
        Record::Snapshot(SnapshotRecord {
            revision: 3,
            network,
            assignment: Some(assignment),
        }),
        Record::Batch(BatchRecord {
            seq: 7,
            revision: 9,
            assignment: Some(ChangedRows { len: 3, rows }),
            deltas: vec![
                NetworkDelta::AddHost {
                    name: "plc-λ中🦀\n2".to_owned(),
                    zone: Some(String::new()),
                    services: vec![(scada, vec![wincc])],
                    links: vec![HostId(0), HostId(u32::MAX)],
                },
                NetworkDelta::RemoveHost { host: HostId(1) },
                NetworkDelta::AddLink {
                    a: HostId(0),
                    b: HostId(2),
                },
                NetworkDelta::RemoveLink {
                    a: HostId(0),
                    b: HostId(1),
                },
                NetworkDelta::FixSlot {
                    host: HostId(0),
                    service: web,
                    product: ie,
                },
                NetworkDelta::UnfixSlot {
                    host: HostId(0),
                    service: web,
                    candidates: vec![ie, ff],
                },
                NetworkDelta::ExtendCandidates {
                    host: HostId(2),
                    service: ServiceId(u16::MAX),
                    products: vec![ProductId(u16::MAX)],
                },
            ],
        }),
        Record::Mark(MarkRecord::new(
            "golden",
            &[("mttc_resolve", 12.5), ("step", 3.0)],
        )),
    ]
}

/// The checked-in fixture must match what today's encoder writes, byte for
/// byte, and decode back to the same records: any format change is a
/// deliberate, reviewed act (bump [`FORMAT_VERSION`], regenerate with
/// `cargo test -p integration-tests --test journal -- --ignored`).
#[test]
fn golden_file_pins_the_on_disk_format() {
    let encoded: String = golden_records(FORMAT_VERSION)
        .iter()
        .map(Record::to_line)
        .collect();
    let checked_in = include_str!("data/journal_golden.log");
    assert_eq!(
        encoded, checked_in,
        "on-disk journal format changed; see this test's doc comment"
    );
    let decoded = read_strict(checked_in.as_bytes()).expect("golden file is valid");
    assert_eq!(decoded, golden_records(FORMAT_VERSION));
}

/// The format 1 fixture — the golden file as format 1 wrote it, its batch
/// carrying the whole table — still decodes to the same records, the batch
/// as every row changed.
#[test]
fn format_one_golden_file_still_reads() {
    let checked_in = include_str!("data/journal_golden_v1.log");
    let decoded = read_strict(checked_in.as_bytes()).expect("format 1 golden file is valid");
    assert_eq!(decoded, golden_records(1));
}

/// `line` (a format 2 batch record) as format 1 wrote it: the changed rows
/// replaced by the whole committed table, re-checksummed.
fn format_one_batch_line(line: &str, table: &Assignment) -> String {
    let json = line[9..].trim_end();
    let head = &json[..json.rfind(",\"assignment\":").expect("a batch record")];
    let rows: Vec<String> = table
        .rows()
        .map(|row| {
            let products: Vec<String> = row.iter().map(|p| p.0.to_string()).collect();
            format!("[{}]", products.join(","))
        })
        .collect();
    let json = format!("{head},\"assignment\":[{}]}}", rows.join(","));
    format!("{:08x} {json}\n", crc32(json.as_bytes()))
}

/// A journal as format 1 wrote it — format 1 preamble, batch records
/// carrying the whole committed table — still recovers to the live
/// engine's network and assignment.
#[test]
fn format_one_journal_with_a_batch_tail_recovers() {
    let path = tmp_path("format-one");
    let g = generate(
        &RandomNetworkConfig {
            hosts: 10,
            mean_degree: 3,
            services: 2,
            products_per_service: 3,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        17,
    );
    let mut live = DiversityEngine::new(g.network, g.catalog, g.similarity)
        .with_journal_cadence(&path, None)
        .expect("journal attaches");
    live.solve().expect("cold solve");
    let mut rng = StdRng::seed_from_u64(29);
    let mut committed = Vec::new();
    for step in 0..5 {
        let burst = valid_burst(&live, &mut rng, 1 + step % 3);
        live.apply_batch(&burst).expect("batch applies");
        committed.push(live.assignment().expect("solved").clone());
    }

    let data = std::fs::read_to_string(&path).unwrap();
    let mut committed = committed.iter();
    let v1: String = data
        .split_inclusive('\n')
        .map(
            |line| match parse_record_line(line.trim_end().as_bytes()).unwrap() {
                Record::Preamble(mut preamble) => {
                    preamble.format = 1;
                    Record::Preamble(preamble).to_line()
                }
                Record::Batch(_) => {
                    format_one_batch_line(line, committed.next().expect("one table per batch"))
                }
                _ => line.to_owned(),
            },
        )
        .collect();
    assert!(committed.next().is_none(), "every batch rewritten");
    std::fs::write(&path, v1).unwrap();

    let read = read_records(&path).unwrap();
    assert!(read.corruption.is_none());
    assert!(matches!(&read.records[0], Record::Preamble(p) if p.format == 1));
    let recovered = recover(&path).expect("format 1 journal recovers");
    assert_eq!(recovered.network(), live.network());
    assert_eq!(recovered.assignment(), live.assignment());
    std::fs::remove_file(&path).ok();
}

/// Regenerates the golden fixture after a deliberate format change.
#[test]
#[ignore = "writes the golden fixture; run explicitly after a format change"]
fn regenerate_golden_fixture() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/journal_golden.log");
    let encoded: String = golden_records(FORMAT_VERSION)
        .iter()
        .map(Record::to_line)
        .collect();
    std::fs::write(path, encoded).unwrap();
}
