//! Ablation benches for the design choices DESIGN.md calls out:
//! lookup-table early termination (§4.2/Example 5) and per-branch cell
//! merging (Fig. 1/2). Expected-operation deltas are produced by
//! `repro ablation`; this bench shows the wall-clock side.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ens_bench::BenchWorkload;
use ens_filter::{
    Direction, MatchScratch, Matcher, ProfileTree, SearchStrategy, TreeConfig, ValueOrder,
};
use ens_types::IndexedEvent;
use std::hint::black_box;

fn bench_ablations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    let w = BenchWorkload::single_attr("d39", "gauss", 4096);
    let variants: [(&str, bool, bool); 3] = [
        ("default", false, false),
        ("no_early_termination", true, false),
        ("no_cell_merging", false, true),
    ];
    for (name, no_early, no_merge) in variants {
        let config = TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            event_model: Some(w.joint.clone()),
            disable_early_termination: no_early,
            disable_cell_merging: no_merge,
            ..TreeConfig::default()
        };
        let tree = ProfileTree::build(&w.profiles, &config).expect("workload is valid");
        group.bench_with_input(
            BenchmarkId::new(name, "d39-gauss"),
            &w.events,
            |b, events| {
                let mut indexed = IndexedEvent::new();
                let mut scratch = MatchScratch::new();
                b.iter(|| {
                    let mut ops = 0u64;
                    for e in events {
                        indexed
                            .resolve_into(&w.schema, black_box(e))
                            .expect("valid");
                        tree.match_into(&indexed, &mut scratch);
                        ops += scratch.ops();
                    }
                    ops
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
