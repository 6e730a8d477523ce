//! Durability properties: a journaled engine must be exactly recoverable,
//! damaged journals must recover to the last checksum-valid prefix (never
//! panic, never silently accept corruption), the record codec must
//! round-trip every [`NetworkDelta`] variant, and the on-disk format is
//! pinned byte-for-byte by a golden file (format 1 files stay readable).

use std::path::PathBuf;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ics_diversity::engine::DiversityEngine;
use ics_diversity::journal::{read_records, recover, recover_with};
use ics_diversity::shard::ShardedEngine;
use ics_diversity::WriterCore;
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

// ---------------------------------------------------------------------------
// Recovery ≡ live engine.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Journal + snapshot + recover reproduces the live engine exactly:
    /// same network (revision counters included), same revision, same
    /// topology revision, same assignment, objective within 1e-9 — across
    /// arbitrary delta streams, burst sizes and snapshot cadences
    /// (including compaction).
    #[test]
    fn recovery_matches_live_engine(
        config in arb_config(),
        seed in 0u64..200,
        steps in 1usize..8,
        cadence in prop_oneof![Just(None), Just(Some(2usize)), Just(Some(64usize))],
    ) {
        let path = tmp_path("prop");
        let g = generate(&config, seed);
        let mut live = DiversityEngine::new(g.network, g.catalog, g.similarity)
            .with_journal_cadence(&path, cadence)
            .map_err(fail("attach journal"))?;
        live.solve().map_err(fail("cold solve"))?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        for step in 0..steps {
            let burst = valid_burst(&live, &mut rng, 1 + step % 3);
            live.apply_batch(&burst).map_err(fail("apply_batch"))?;
        }

        let recovered = recover(&path).map_err(fail("recover"))?;
        prop_assert_eq!(recovered.network(), live.network());
        prop_assert_eq!(recovered.revision(), live.revision());
        prop_assert_eq!(
            recovered.network().topology_revision(),
            live.network().topology_revision()
        );
        prop_assert_eq!(recovered.assignment(), live.assignment());
        let (live_obj, back_obj) = (objective(&live), objective(&recovered));
        prop_assert!(
            (live_obj - back_obj).abs() <= 1e-9,
            "objective drifted: live {} vs recovered {}",
            live_obj,
            back_obj
        );
        std::fs::remove_file(&path).ok();
    }

    /// The sharded engine journals through the same hook: with cadence 2
    /// (a compaction every other burst) and bursts that add hosts — some
    /// to fresh zones, creating shards — and remove others, recovery
    /// reproduces its network and assignment exactly.
    #[test]
    fn sharded_recovery_matches_live_engine(
        zones in 2usize..4,
        hosts_per_zone in 3usize..7,
        seed in 0u64..200,
        steps in 1usize..7,
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
            .with_journal_cadence(&path, Some(2))
            .map_err(fail("attach journal"))?;
        live.solve().map_err(fail("cold solve"))?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5DEE_CE66_D1CE_4E5B);
        for step in 0..steps {
            let burst = churning_burst(live.network(), live.catalog(), &mut rng, step);
            live.apply_batch(&burst).map_err(fail("apply_batch"))?;
        }

        let recovered = recover(&path).map_err(fail("recover"))?;
        prop_assert_eq!(recovered.network(), live.network());
        prop_assert_eq!(recovered.revision(), live.revision());
        prop_assert_eq!(recovered.assignment(), live.assignment());
        std::fs::remove_file(&path).ok();
    }
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
/// cadence later. With cadence 2 the second commit is due to compact, but
/// its directory is gone: the commit lands in memory and then reports the
/// journal error (today's "committed, then `Err`" contract). Once the
/// directory is back, the third commit compacts and the journal recovers
/// revision 3. Both engines run the sequence: they share one journal hook.
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
        assert!(
            mandate(&mut core, 1).is_err(),
            "sharded {sharded}: the compaction cannot create its file"
        );
        assert_eq!(core.revision(), 2, "sharded {sharded}: the commit stands");
        std::fs::create_dir_all(&dir).expect("directory restored");
        mandate(&mut core, 2).expect("third commit journals");
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
