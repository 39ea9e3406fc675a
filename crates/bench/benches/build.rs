//! Tree-construction cost (the TV1 "creation of profile tree" phase):
//! build time, straight into the automaton, as a function of profile
//! count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ens_bench::BenchWorkload;
use ens_filter::{Dfsa, TreeConfig};
use std::hint::black_box;

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_build");
    for p in [100usize, 400, 1600] {
        let w = BenchWorkload::stock(p, 1);
        group.throughput(Throughput::Elements(p as u64));
        group.bench_with_input(BenchmarkId::new("stock", p), &w, |b, w| {
            b.iter(|| {
                Dfsa::build(black_box(&w.profiles), &TreeConfig::default())
                    .expect("workload is valid")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
