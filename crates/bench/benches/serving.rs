//! Criterion benchmark for the concurrent serving front-end
//! (`ics_diversity::serve`): snapshot read latency in the steady state, the
//! same read while a writer absorbs a continuous stream of bursts (the
//! acceptance claim: reads never block on absorption), and the end-to-end
//! submit→publish round trip of a 16-delta burst.
//!
//! The instance matches the batched-absorption bench (240 hosts) so the
//! round-trip numbers are directly comparable to a bare `apply_batch`: the
//! serving overhead is one assignment clone plus an `Arc` swap per publish.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ics_diversity::serve::{Enqueue, ServingEngine};
use ics_diversity::DiversityEngine;
use netmodel::delta::NetworkDelta;
use netmodel::topology::{generate, GeneratedNetwork, RandomNetworkConfig, TopologyKind};
use netmodel::HostId;

const HOSTS: usize = 240;
const BURST: usize = 16;

fn instance() -> GeneratedNetwork {
    generate(
        &RandomNetworkConfig {
            hosts: HOSTS,
            mean_degree: 8,
            services: 4,
            products_per_service: 4,
            vendors_per_service: 2,
            topology: TopologyKind::Random,
        },
        777,
    )
}

/// A 16-delta fix/unfix toggle burst (same shape as the batched bench), so
/// the stream can run forever without drifting the instance.
fn burst(g: &GeneratedNetwork, fix: bool) -> Vec<NetworkDelta> {
    let service = g.catalog.service_by_name("service0").expect("generated");
    let products = g.catalog.products_of(service).to_vec();
    (0..BURST)
        .map(|i| {
            let host = HostId((i * 13 + 5) as u32);
            if fix {
                NetworkDelta::fix_slot(host, service, products[0])
            } else {
                NetworkDelta::unfix_slot(host, service, products.clone())
            }
        })
        .collect()
}

fn serving(g: &GeneratedNetwork) -> ServingEngine {
    ServingEngine::start(DiversityEngine::new(
        g.network.clone(),
        g.catalog.clone(),
        g.similarity.clone(),
    ))
    .expect("cold solve")
}

fn bench_serving(c: &mut Criterion) {
    let g = instance();
    let mut group = c.benchmark_group("serving_240_hosts");
    group.sample_size(10);

    // Steady state: epoch unchanged, the read is one atomic load and a
    // borrow of the reader's cached Arc.
    group.bench_with_input(BenchmarkId::from_parameter("read_steady"), &g, |b, g| {
        let engine = serving(g);
        let mut reader = engine.reader();
        b.iter(|| reader.current().objective());
    });

    // The same read while the writer continuously absorbs bursts: the
    // point of the epoch-versioned snapshot split is that this stays in
    // the same order of magnitude as read_steady.
    group.bench_with_input(
        BenchmarkId::from_parameter("read_under_write_bursts"),
        &g,
        |b, g| {
            let engine = Arc::new(serving(g));
            let stop = Arc::new(AtomicBool::new(false));
            let submitter = {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let g = g.clone();
                thread::spawn(move || {
                    let mut fix = true;
                    while !stop.load(Ordering::Relaxed) {
                        match engine.submit(burst(&g, fix)) {
                            Enqueue::Rejected { .. } => {
                                thread::sleep(Duration::from_micros(500));
                            }
                            _ => fix = !fix,
                        }
                    }
                })
            };
            let mut reader = engine.reader();
            b.iter(|| reader.current().objective());
            stop.store(true, Ordering::Relaxed);
            submitter.join().expect("submitter thread");
        },
    );

    // End-to-end write path: submit a 16-delta burst and wait until the
    // matching snapshot is published. Compare with `apply_batch_16` in the
    // batched bench for the serving layer's overhead.
    group.bench_with_input(
        BenchmarkId::from_parameter("publish_roundtrip_16"),
        &g,
        |b, g| {
            let engine = serving(g);
            let mut fix = true;
            let mut revision = 0u64;
            b.iter(|| {
                let deltas = burst(g, fix);
                fix = !fix;
                revision += deltas.len() as u64;
                assert!(!matches!(engine.submit(deltas), Enqueue::Rejected { .. }));
                assert!(engine.wait_for_revision(revision, Duration::from_secs(600)));
                engine.snapshot().objective()
            });
        },
    );

    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
