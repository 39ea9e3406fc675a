//! Wall-clock companion to Fig. 4: matching throughput of the
//! single-attribute tree under the value orders compared in the paper
//! (natural, V1 event order, binary search).
//!
//! The paper's metric is comparison operations (regenerated by the
//! `repro` binary); this bench confirms that the operation counts
//! translate to wall-clock differences on the same workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ens_bench::BenchWorkload;
use ens_filter::{Dfsa, Direction, MatchScratch, Matcher, SearchStrategy, TreeConfig, ValueOrder};
use ens_types::IndexedEvent;
use std::hint::black_box;

fn bench_value_orders(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_value_orders");
    // The Fig. 4(a) headline combo: strongly peaked events (d37),
    // uniform profiles.
    for (pe, pp) in [("d37", "equal"), ("d39", "d1")] {
        let w = BenchWorkload::single_attr(pe, pp, 4096);
        let strategies = [
            (
                "natural",
                SearchStrategy::Linear(ValueOrder::Natural(Direction::Ascending)),
            ),
            (
                "event_desc",
                SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            ),
            ("binary", SearchStrategy::Binary),
        ];
        for (name, search) in strategies {
            let config = TreeConfig {
                search,
                event_model: Some(w.joint.clone()),
                ..TreeConfig::default()
            };
            let tree = Dfsa::build(&w.profiles, &config).expect("workload is valid");
            group.bench_with_input(
                BenchmarkId::new(name, format!("{pe}-{pp}")),
                &w.events,
                |b, events| {
                    let mut indexed = IndexedEvent::new();
                    let mut scratch = MatchScratch::new();
                    b.iter(|| {
                        let mut ops = 0u64;
                        for e in events {
                            indexed
                                .resolve_into(&w.schema, black_box(e))
                                .expect("valid event");
                            tree.match_into(&indexed, &mut scratch);
                            ops += scratch.ops();
                        }
                        ops
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_value_orders);
criterion_main!(benches);
