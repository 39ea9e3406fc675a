//! Matching-algorithm comparison (paper §2's algorithm classes):
//! profile tree (as the compiled automaton) vs the naive
//! per-profile scan vs the counting algorithm — the index the broker
//! serves overlays with, built over the whole population — on the
//! environmental and stock workloads. Every row runs the
//! allocation-free `match_into` fast path with reused buffers.

use criterion::{
    criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion, Throughput,
};
use ens_bench::BenchWorkload;
use ens_filter::baseline::NaiveMatcher;
use ens_filter::{Dfsa, MatchScratch, Matcher, OverlayIndex, TreeConfig};
use ens_types::IndexedEvent;
use std::hint::black_box;

/// Times one matcher over the workload's events, resolving each into a
/// reused [`IndexedEvent`] and matching into a reused [`MatchScratch`].
fn bench_matcher(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    workload: &BenchWorkload,
    matcher: &impl Matcher,
) {
    group.bench_with_input(
        BenchmarkId::new(name, workload.name),
        &workload.events,
        |b, events| {
            let mut indexed = IndexedEvent::new();
            let mut scratch = MatchScratch::new();
            b.iter(|| {
                let mut n = 0usize;
                for e in events {
                    indexed
                        .resolve_into(&workload.schema, black_box(e))
                        .expect("valid");
                    matcher.match_into(&indexed, &mut scratch);
                    n += scratch.profiles().len();
                }
                n
            });
        },
    );
}

fn bench_matchers(c: &mut Criterion) {
    let mut group = c.benchmark_group("matchers");
    for workload in [
        BenchWorkload::environmental(200, 2048),
        BenchWorkload::stock(300, 2048),
    ] {
        group.throughput(Throughput::Elements(workload.events.len() as u64));
        let dfsa =
            Dfsa::build(&workload.profiles, &TreeConfig::default()).expect("workload is valid");
        let naive = NaiveMatcher::new(&workload.profiles).expect("workload is valid");
        let counting = OverlayIndex::new(&workload.profiles).expect("workload is valid");
        bench_matcher(&mut group, "dfsa_csr", &workload, &dfsa);
        bench_matcher(&mut group, "naive", &workload, &naive);
        bench_matcher(&mut group, "counting", &workload, &counting);
    }
    group.finish();
}

criterion_group!(benches, bench_matchers);
criterion_main!(benches);
