//! `DistOverDomain::from_cells` against the construction it replaces:
//! the per-point integral of a mixture of one window per cell. The two
//! must be the same value — density, point masses, prefix sums, serde
//! form — because the filter's trees, predictions and checkpoints are
//! functions of it.

use ens_dist::{Density, DistOverDomain};
use ens_types::IndexInterval;
use proptest::prelude::*;

/// The window mixture `cells` stand for, integrated point by point.
fn by_integration(size: u64, cells: &[(IndexInterval, f64)]) -> DistOverDomain {
    let d = size as f64;
    let windows = cells
        .iter()
        .map(|(c, w)| (*w, Density::window(c.lo() as f64 / d, c.hi() as f64 / d)))
        .collect();
    DistOverDomain::new(Density::Mixture(windows), size)
}

fn assert_same(size: u64, cells: &[(IndexInterval, f64)]) {
    let swept = DistOverDomain::from_cells(size, cells).unwrap();
    let integrated = by_integration(size, cells);
    assert_eq!(swept, integrated, "size {size}, cells {cells:?}");
    // `==` on floats lets -0.0 pass for 0.0; the serde form does not.
    assert_eq!(
        serde_json::to_string(&swept).unwrap(),
        serde_json::to_string(&integrated).unwrap()
    );
}

fn arb_weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        (1u32..50).prop_map(f64::from),
        0.0..1.0f64,
        Just(1e-300),
        Just(1e300),
    ]
}

/// A domain size and disjoint ascending cells inside it: `(gap, len)`
/// steps laid end to end and cut off at the domain's edge, the last one
/// stretched onto the edge when `to_edge`.
fn arb_partition() -> impl Strategy<Value = (u64, Vec<(IndexInterval, f64)>)> {
    let steps = prop::collection::vec((0u64..4, 1u64..40, arb_weight()), 0..24);
    (1u64..600, steps, 0u8..2).prop_map(|(size, steps, to_edge)| {
        let mut cells = Vec::new();
        let mut at = 0;
        for (gap, len, weight) in steps {
            let (lo, hi) = (at + gap, at + gap + len);
            if hi > size {
                break;
            }
            cells.push((IndexInterval::new(lo, hi), weight));
            at = hi;
        }
        if let (1, Some((last, _))) = (to_edge, cells.last_mut()) {
            *last = IndexInterval::new(last.lo(), size);
        }
        (size, cells)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sweep_equals_integration(partition in arb_partition()) {
        let (size, cells) = partition;
        assert_same(size, &cells);
    }
}

#[test]
fn corner_partitions() {
    let cell = |lo, hi, w| (IndexInterval::new(lo, hi), w);
    // One point; one cell; a cell ending at the edge; only gaps and
    // zero weights; the stock price attribute's size.
    assert_same(1, &[]);
    assert_same(1, &[cell(0, 1, 3.0)]);
    assert_same(100, &[cell(0, 100, 0.5)]);
    assert_same(100, &[cell(40, 41, 0.5)]);
    assert_same(100, &[cell(10, 20, 0.0), cell(90, 100, 2.0)]);
    assert_same(100, &[cell(10, 20, 0.0), cell(30, 50, 0.0)]);
    let stock: Vec<_> = (0..389u64)
        .map(|k| cell(k * 51, (k + 1) * 51, 1.0 + (k % 7) as f64))
        .collect();
    assert_same(19_901, &stock);
}
