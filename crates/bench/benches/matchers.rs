//! Matching-algorithm comparison (paper §2's algorithm classes):
//! profile tree (pointer form and flattened DFSA) vs the naive
//! per-profile scan vs the counting algorithm — the index the broker
//! serves overlays with, built over the whole population — on the
//! environmental and stock workloads. The `*_scratch` variants and
//! `counting` run the allocation-free `match_into` fast path with
//! reused buffers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ens_bench::BenchWorkload;
use ens_filter::baseline::NaiveMatcher;
use ens_filter::{Dfsa, MatchScratch, Matcher, OverlayIndex, ProfileTree, TreeConfig};
use ens_types::IndexedEvent;
use std::hint::black_box;

fn bench_matchers(c: &mut Criterion) {
    let mut group = c.benchmark_group("matchers");
    for workload in [
        BenchWorkload::environmental(200, 2048),
        BenchWorkload::stock(300, 2048),
    ] {
        group.throughput(Throughput::Elements(workload.events.len() as u64));
        let schema = workload.schema.clone();
        let tree = ProfileTree::build(&workload.profiles, &TreeConfig::default())
            .expect("workload is valid");
        let dfsa = Dfsa::from_tree(&tree);
        let naive = NaiveMatcher::new(&workload.profiles).expect("workload is valid");
        let counting = OverlayIndex::new(&workload.profiles).expect("workload is valid");

        group.bench_with_input(
            BenchmarkId::new("tree", workload.name),
            &workload.events,
            |b, events| {
                b.iter(|| {
                    let mut n = 0usize;
                    for e in events {
                        n += tree
                            .match_event(black_box(e))
                            .expect("valid")
                            .profiles()
                            .len();
                    }
                    n
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("tree_scratch", workload.name),
            &workload.events,
            |b, events| {
                let mut indexed = IndexedEvent::new();
                let mut scratch = MatchScratch::new();
                b.iter(|| {
                    let mut n = 0usize;
                    for e in events {
                        indexed.resolve_into(&schema, black_box(e)).expect("valid");
                        tree.match_into(&indexed, &mut scratch);
                        n += scratch.profiles().len();
                    }
                    n
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dfsa", workload.name),
            &workload.events,
            |b, events| {
                b.iter(|| {
                    let mut n = 0usize;
                    for e in events {
                        n += dfsa.match_event(black_box(e)).expect("valid").len();
                    }
                    n
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("dfsa_csr", workload.name),
            &workload.events,
            |b, events| {
                let mut indexed = IndexedEvent::new();
                let mut scratch = MatchScratch::new();
                b.iter(|| {
                    let mut n = 0usize;
                    for e in events {
                        indexed.resolve_into(&schema, black_box(e)).expect("valid");
                        dfsa.match_into(&indexed, &mut scratch);
                        n += scratch.profiles().len();
                    }
                    n
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive", workload.name),
            &workload.events,
            |b, events| {
                b.iter(|| {
                    let mut n = 0usize;
                    for e in events {
                        n += naive
                            .match_event(black_box(e))
                            .expect("valid")
                            .profiles()
                            .len();
                    }
                    n
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("counting", workload.name),
            &workload.events,
            |b, events| {
                let mut indexed = IndexedEvent::new();
                let mut scratch = MatchScratch::new();
                b.iter(|| {
                    let mut n = 0usize;
                    for e in events {
                        indexed.resolve_into(&schema, black_box(e)).expect("valid");
                        counting.match_into(&indexed, &mut scratch);
                        n += scratch.profiles().len();
                    }
                    n
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_matchers);
criterion_main!(benches);
