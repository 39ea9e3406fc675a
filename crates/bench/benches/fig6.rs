//! Wall-clock companion to Fig. 6: attribute reordering (Measure A2) on
//! the five-attribute TA1 workload, natural vs ascending vs descending
//! order, with the V1 linear search and binary search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ens_bench::BenchWorkload;
use ens_filter::{
    AttributeMeasure, AttributeOrder, Dfsa, Direction, MatchScratch, Matcher, SearchStrategy,
    TreeConfig, ValueOrder,
};
use ens_types::IndexedEvent;
use std::hint::black_box;

fn bench_attribute_orders(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_attribute_orders");
    let w = BenchWorkload::multi_attr(2048);
    let orders = [
        ("natural", AttributeOrder::Natural),
        (
            "asc",
            AttributeOrder::Selectivity {
                measure: AttributeMeasure::A2,
                direction: Direction::Ascending,
            },
        ),
        (
            "desc",
            AttributeOrder::Selectivity {
                measure: AttributeMeasure::A2,
                direction: Direction::Descending,
            },
        ),
    ];
    for (order_name, order) in orders {
        for (search_name, search) in [
            (
                "event_desc",
                SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            ),
            ("binary", SearchStrategy::Binary),
        ] {
            let config = TreeConfig {
                attribute_order: order.clone(),
                search,
                event_model: Some(w.joint.clone()),
                ..TreeConfig::default()
            };
            let tree = Dfsa::build(&w.profiles, &config).expect("workload is valid");
            group.bench_with_input(
                BenchmarkId::new(search_name, order_name),
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

criterion_group!(benches, bench_attribute_orders);
criterion_main!(benches);
