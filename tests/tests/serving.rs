//! Integration tests for the concurrent serving front-end
//! (`ics_diversity::serve`): snapshots published under write bursts must
//! equal the engine state at the snapshot's revision, revisions must be
//! monotone from every reader's point of view, queued bursts must coalesce
//! into a single `apply_batch`, and readers must keep making progress
//! while the writer absorbs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ics_diversity::serve::{Enqueue, ServingConfig, ServingEngine};
use ics_diversity::{DiversityEngine, ShardedEngine};
use netmodel::delta::{random_delta, NetworkDelta};
use netmodel::topology::{
    generate, generate_zoned, RandomNetworkConfig, TopologyKind, ZonedNetworkConfig,
};
use netmodel::HostId;

/// Generous per-wait ceiling: the waits below complete in milliseconds;
/// the ceiling only bounds a hung writer into a test failure.
const LONG: Duration = Duration::from_secs(120);

fn arb_config() -> impl Strategy<Value = RandomNetworkConfig> {
    (4usize..14, 1usize..4, 1usize..3, 2usize..4).prop_map(|(hosts, degree, services, products)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random write-burst sequences, submitted while readers may observe
    /// any interleaving: every published snapshot is *exactly* the state
    /// (assignment, revision, topology revision, objective) a reference
    /// engine reaches by absorbing the same batches — and the epochs and
    /// revisions a single reader observes never go backwards.
    #[test]
    fn snapshots_equal_engine_state_at_their_revision(
        config in arb_config(),
        net_seed in 0u64..100,
        delta_seed in 0u64..100,
        bursts in 1usize..5,
        burst_len in 1usize..4,
    ) {
        let g = generate(&config, net_seed);
        let mut reference = DiversityEngine::new(
            g.network.clone(),
            g.catalog.clone(),
            g.similarity.clone(),
        );
        reference.solve().expect("cold solve succeeds");
        let serving = ServingEngine::start(DiversityEngine::new(g.network, g.catalog, g.similarity))
            .expect("cold solve succeeds");

        let initial = serving.snapshot();
        prop_assert_eq!(initial.epoch(), 1);
        prop_assert_eq!(initial.revision(), reference.revision());
        prop_assert_eq!(initial.assignment(), reference.assignment().unwrap());

        let mut rng = StdRng::seed_from_u64(delta_seed);
        let mut reader = serving.reader();
        let mut observed = (0u64, 0u64);
        let mut expected_revision = 0u64;
        for _ in 0..bursts {
            // Build the burst against the reference network so every delta
            // is valid at its application point; both engines then absorb
            // the identical batch.
            let mut burst = Vec::new();
            let mut shadow = reference.network().clone();
            for _ in 0..burst_len {
                let delta = random_delta(&shadow, reference.catalog(), &mut rng, &[HostId(0)]);
                shadow
                    .apply_delta(&delta, reference.catalog())
                    .expect("generated deltas are valid");
                burst.push(delta);
            }
            let report = reference
                .apply_batch(&burst)
                .expect("unconstrained bursts absorb");
            expected_revision += burst.len() as u64;

            let enq = serving.submit(burst);
            prop_assert!(!matches!(enq, Enqueue::Rejected { .. }), "{:?}", enq);
            prop_assert!(serving.wait_for_revision(expected_revision, LONG));

            // Snapshot ≡ engine state at the snapshot's revision.
            let snapshot = serving.snapshot();
            prop_assert_eq!(snapshot.revision(), reference.revision());
            prop_assert_eq!(
                snapshot.topology_revision(),
                reference.network().topology_revision()
            );
            prop_assert_eq!(snapshot.assignment(), reference.assignment().unwrap());
            let objective = report.objective_after;
            prop_assert!(
                (snapshot.objective() - objective).abs() <= 1e-9 * objective.abs().max(1.0),
                "objective mismatch: {} vs {}",
                snapshot.objective(),
                objective
            );

            // Reader-side monotonicity across the interleaving.
            let seen = reader.current();
            let now = (seen.epoch(), seen.revision());
            prop_assert!(now >= observed, "went backwards: {:?} -> {:?}", observed, now);
            observed = now;
        }
        let (core, drain) = serving.shutdown();
        prop_assert_eq!(drain.last_revision, expected_revision);
        prop_assert_eq!(core.revision(), expected_revision);
        prop_assert_eq!(core.assignment().unwrap(), reference.assignment().unwrap());
    }
}

/// A write burst queued behind a busy (here: gated) writer coalesces into
/// ONE `apply_batch` — over a sharded core, where a merged batch also
/// exercises multi-shard routing.
#[test]
fn queued_burst_coalesces_into_a_single_apply_batch() {
    let g = generate_zoned(
        &ZonedNetworkConfig {
            zones: 2,
            hosts_per_zone: 8,
            gateway_links: 1,
            mean_degree: 2,
            services: 1,
            products_per_service: 3,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        19,
    );
    let serving = ServingEngine::start_with(
        ShardedEngine::new(g.network, g.catalog, g.similarity),
        ServingConfig {
            paused: true,
            ..ServingConfig::default()
        },
    )
    .expect("cold solve succeeds");

    // Four submissions from both zones pile up behind the gate.
    for (i, host) in [15u32, 14, 7, 6].into_iter().enumerate() {
        let enq = serving.submit(vec![NetworkDelta::remove_host(HostId(host))]);
        if i == 0 {
            assert!(matches!(enq, Enqueue::Accepted { depth: 1 }), "{enq:?}");
        } else {
            assert!(matches!(enq, Enqueue::Coalesced { .. }), "{enq:?}");
        }
    }
    assert_eq!(serving.queue_depth(), 4);
    serving.resume();
    assert!(serving.wait_for_revision(4, Duration::from_secs(120)));

    let snapshot = serving.snapshot();
    assert_eq!(snapshot.epoch(), 2, "one publication for the whole burst");
    assert_eq!(
        snapshot.deltas_in_batch(),
        4,
        "all four deltas in one batch"
    );
    let (_core, drain) = serving.shutdown();
    assert_eq!(drain.stats.submissions, 4);
    assert_eq!(drain.stats.coalesced_submissions, 3);
    assert_eq!(
        drain.stats.batches_absorbed, 1,
        "four submissions, ONE apply_batch"
    );
    assert_eq!(drain.stats.deltas_absorbed, 4);
    assert_eq!(drain.last_revision, 4);
}

/// Eight reader threads keep completing reads while the writer churns
/// through delta bursts; every reader observes monotone (epoch, revision)
/// pairs and internally consistent snapshots.
#[test]
fn readers_progress_while_the_writer_absorbs() {
    let g = generate(
        &RandomNetworkConfig {
            hosts: 48,
            mean_degree: 3,
            services: 2,
            products_per_service: 3,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        17,
    );
    let catalog = g.catalog.clone();
    let mut shadow = g.network.clone();
    let serving = ServingEngine::start(DiversityEngine::new(g.network, g.catalog, g.similarity))
        .expect("cold solve succeeds");

    const READERS: usize = 8;
    let stop = Arc::new(AtomicBool::new(false));
    // Every reader is running before the first submit, and each takes its
    // first read before it looks at `stop`: a reader the scheduler starts
    // late still reads, however fast the writer finishes.
    let start = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let mut reader = serving.reader();
            let stop = Arc::clone(&stop);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let mut reads = 0u64;
                let mut observed = (0u64, 0u64);
                start.wait();
                loop {
                    let snapshot = reader.current();
                    let now = (snapshot.epoch(), snapshot.revision());
                    assert!(now >= observed, "went backwards: {observed:?} -> {now:?}");
                    // Host 0 is protected from removal below, so every
                    // consistent snapshot serves products for it.
                    assert!(!snapshot.products_at(HostId(0)).is_empty());
                    observed = now;
                    reads += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                reads
            })
        })
        .collect();
    start.wait();

    let mut rng = StdRng::seed_from_u64(23);
    let mut submitted = 0u64;
    for _ in 0..12 {
        let mut burst = Vec::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let delta = random_delta(&shadow, &catalog, &mut rng, &[HostId(0)]);
            shadow
                .apply_delta(&delta, &catalog)
                .expect("generated deltas are valid");
            burst.push(delta);
        }
        submitted += burst.len() as u64;
        assert!(!matches!(serving.submit(burst), Enqueue::Rejected { .. }));
    }
    assert!(serving.wait_for_revision(submitted, Duration::from_secs(240)));
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        let reads = reader.join().expect("reader thread panicked");
        assert!(reads > 0, "a reader made no progress");
    }
    let (_core, drain) = serving.shutdown();
    assert_eq!(drain.last_revision, submitted);
    assert!(drain.stats.publications >= 2);
    assert!(
        drain.stats.batches_absorbed <= 12,
        "absorbs never exceed submissions"
    );
}
