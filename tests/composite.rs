//! Composite detection vs a brute-force window-scan oracle.
//!
//! [`CompositeDetector`] evaluates incrementally, carrying per-node
//! `last_fired` / `recent` state across observations. The oracle here
//! keeps no state at all: for every observation it rescans the *full*
//! history of (matched set, timestamp) pairs and recomputes each
//! node's firing decision from scratch. The two must agree on every
//! observation of every randomized stream — including equal
//! timestamps, zero windows, and gaps long enough to expire every
//! window.

use ens::composite::{CompositeDetector, CompositeExpr, CompositeId};
use ens::service::SubscriptionId;
use proptest::prelude::*;

/// Number of distinct primitive subscriptions the streams draw from.
const PRIMS: u64 = 5;

fn s(n: u64) -> SubscriptionId {
    SubscriptionId::new(n)
}

// --- stateless window-scan oracle ------------------------------------

/// Time of the last firing at an index in `0..=upto` — the value the
/// incremental detector's `last_fired` holds after observation `upto`.
fn last_fired(fired: &[bool], times: &[u64], upto: usize) -> Option<u64> {
    (0..=upto).rev().find(|&j| fired[j]).map(|j| times[j])
}

/// Computes, for every observation index, whether `expr` fires — by
/// scanning the whole history instead of keeping incremental state.
fn oracle(
    expr: &CompositeExpr,
    times: &[u64],
    matched: &[Vec<SubscriptionId>],
    window: u64,
) -> Vec<bool> {
    let n = times.len();
    match expr {
        CompositeExpr::Primitive(p) => matched.iter().map(|m| m.contains(p)).collect(),
        CompositeExpr::Or(a, b) => {
            let fa = oracle(a, times, matched, window);
            let fb = oracle(b, times, matched, window);
            (0..n).map(|i| fa[i] || fb[i]).collect()
        }
        CompositeExpr::And(a, b) => {
            let fa = oracle(a, times, matched, window);
            let fb = oracle(b, times, matched, window);
            (0..n)
                .map(|i| {
                    // The other operand's most recent firing — the
                    // current observation included — must lie within
                    // the window.
                    let within = |f: &[bool]| {
                        last_fired(f, times, i).is_some_and(|t| times[i] - t <= window)
                    };
                    (fa[i] && within(&fb)) || (fb[i] && within(&fa))
                })
                .collect()
        }
        CompositeExpr::Seq(a, b) => {
            let fa = oracle(a, times, matched, window);
            let fb = oracle(b, times, matched, window);
            (0..n)
                .map(|i| {
                    // The detector consults `a`'s last firing from a
                    // *previous* observation; it must be strictly
                    // earlier in time and within the window.
                    let before = i.checked_sub(1).and_then(|u| last_fired(&fa, times, u));
                    fb[i] && before.is_some_and(|t| t < times[i] && times[i] - t <= window)
                })
                .collect()
        }
        CompositeExpr::Repeat(a, k) => {
            let fa = oracle(a, times, matched, window);
            (0..n)
                .map(|i| {
                    let occurrences = (0..=i)
                        .filter(|&j| fa[j] && times[i] - times[j] <= window)
                        .count();
                    fa[i] && occurrences as u32 >= *k
                })
                .collect()
        }
    }
}

// --- randomized expression trees -------------------------------------

/// splitmix64 — expands one proptest-drawn seed into an arbitrary
/// expression tree (the proptest shim has no recursive strategies).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn gen_expr(g: &mut Gen, depth: u32) -> CompositeExpr {
    let arm = if depth == 0 { 0 } else { g.below(8) };
    match arm {
        0 | 1 => CompositeExpr::Primitive(s(g.below(PRIMS))),
        2 | 3 => CompositeExpr::and(gen_expr(g, depth - 1), gen_expr(g, depth - 1)),
        4 => CompositeExpr::or(gen_expr(g, depth - 1), gen_expr(g, depth - 1)),
        5 | 6 => CompositeExpr::seq(gen_expr(g, depth - 1), gen_expr(g, depth - 1)),
        _ => CompositeExpr::repeat(gen_expr(g, depth - 1), 1 + g.below(3) as u32),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn detector_agrees_with_window_scan_oracle(
        seed in 0u64..u64::MAX,
        windows in prop::collection::vec(0u64..16, 4),
        steps in prop::collection::vec((0u32..32, 0u64..6), 1..48),
    ) {
        let mut g = Gen(seed);
        let exprs: Vec<CompositeExpr> =
            (0..windows.len()).map(|_| gen_expr(&mut g, 3)).collect();

        let mut det = CompositeDetector::new();
        let ids: Vec<CompositeId> = exprs
            .iter()
            .zip(&windows)
            .map(|(e, &w)| det.register(e.clone(), w))
            .collect();

        // Materialize the stream: deltas of 0 produce equal timestamps,
        // and every eleventh step jumps far enough to expire every
        // window.
        let mut now = 0u64;
        let mut times = Vec::with_capacity(steps.len());
        let mut history: Vec<Vec<SubscriptionId>> = Vec::with_capacity(steps.len());
        for (k, &(mask, delta)) in steps.iter().enumerate() {
            now += if k % 11 == 10 { 40 } else { delta };
            times.push(now);
            history.push(
                (0..PRIMS)
                    .filter(|b| mask & (1u32 << b) != 0)
                    .map(s)
                    .collect(),
            );
        }

        let fired_by_def: Vec<Vec<bool>> = exprs
            .iter()
            .zip(&windows)
            .map(|(e, &w)| oracle(e, &times, &history, w))
            .collect();

        for i in 0..times.len() {
            let got = det.observe(&history[i], times[i]);
            let want: Vec<CompositeId> = ids
                .iter()
                .enumerate()
                .filter(|&(d, _)| fired_by_def[d][i])
                .map(|(_, &id)| id)
                .collect();
            prop_assert_eq!(
                got,
                want,
                "observation {} at t={} disagrees (seed {})",
                i,
                times[i],
                seed
            );
        }
    }
}

// --- window-expiry edge cases ----------------------------------------

#[test]
fn and_fires_at_exact_window_boundary_and_not_one_past() {
    for (gap, fires) in [(7u64, true), (8, false)] {
        let mut det = CompositeDetector::new();
        let id = det.register(
            CompositeExpr::and(
                CompositeExpr::Primitive(s(0)),
                CompositeExpr::Primitive(s(1)),
            ),
            7,
        );
        assert!(det.observe(&[s(0)], 0).is_empty());
        let got = det.observe(&[s(1)], gap);
        assert_eq!(got, if fires { vec![id] } else { vec![] }, "gap {gap}");
    }
}

#[test]
fn seq_fires_at_exact_window_boundary_and_not_one_past() {
    for (gap, fires) in [(5u64, true), (6, false)] {
        let mut det = CompositeDetector::new();
        let id = det.register(
            CompositeExpr::seq(
                CompositeExpr::Primitive(s(0)),
                CompositeExpr::Primitive(s(1)),
            ),
            5,
        );
        det.observe(&[s(0)], 10);
        let got = det.observe(&[s(1)], 10 + gap);
        assert_eq!(got, if fires { vec![id] } else { vec![] }, "gap {gap}");
    }
}

#[test]
fn zero_window_and_requires_simultaneity() {
    let mut det = CompositeDetector::new();
    let id = det.register(
        CompositeExpr::and(
            CompositeExpr::Primitive(s(0)),
            CompositeExpr::Primitive(s(1)),
        ),
        0,
    );
    // Same timestamp across two observations still counts.
    assert!(det.observe(&[s(0)], 4).is_empty());
    assert_eq!(det.observe(&[s(1)], 4), vec![id]);
    // One tick apart does not.
    assert!(det.observe(&[s(0)], 7).is_empty());
    assert!(det.observe(&[s(1)], 8).is_empty());
    // Both in one observation fires.
    assert_eq!(det.observe(&[s(0), s(1)], 9), vec![id]);
}

#[test]
fn zero_window_seq_never_fires() {
    // Seq needs `a` strictly earlier yet within the window — impossible
    // with window 0.
    let mut det = CompositeDetector::new();
    let _ = det.register(
        CompositeExpr::seq(
            CompositeExpr::Primitive(s(0)),
            CompositeExpr::Primitive(s(1)),
        ),
        0,
    );
    assert!(det.observe(&[s(0)], 3).is_empty());
    assert!(det.observe(&[s(1)], 3).is_empty(), "same instant");
    assert!(det.observe(&[s(0)], 5).is_empty());
    assert!(det.observe(&[s(1)], 6).is_empty(), "one tick later");
}

#[test]
fn zero_window_repeat_counts_same_instant_occurrences() {
    let mut det = CompositeDetector::new();
    let id = det.register(CompositeExpr::repeat(CompositeExpr::Primitive(s(0)), 3), 0);
    assert!(det.observe(&[s(0)], 9).is_empty());
    assert!(det.observe(&[s(0)], 9).is_empty());
    assert_eq!(det.observe(&[s(0)], 9), vec![id]);
    // Advancing the clock expires the same-instant run.
    assert!(det.observe(&[s(0)], 10).is_empty());
}

#[test]
fn equal_timestamps_do_not_satisfy_seq_but_an_earlier_firing_does() {
    let mut det = CompositeDetector::new();
    let id = det.register(
        CompositeExpr::seq(
            CompositeExpr::Primitive(s(0)),
            CompositeExpr::Primitive(s(1)),
        ),
        10,
    );
    det.observe(&[s(0)], 5);
    assert!(det.observe(&[s(1)], 5).is_empty(), "not strictly earlier");
    assert_eq!(det.observe(&[s(1)], 6), vec![id]);
}

#[test]
fn seq_consults_only_the_most_recent_left_firing() {
    // `a` fires at t=3 (within the window, strictly earlier) and again
    // at t=5; the detector keeps only the most recent firing, which is
    // not strictly earlier than `b` at t=5 — so nothing fires.
    let mut det = CompositeDetector::new();
    let id = det.register(
        CompositeExpr::seq(
            CompositeExpr::Primitive(s(0)),
            CompositeExpr::Primitive(s(1)),
        ),
        10,
    );
    det.observe(&[s(0)], 3);
    det.observe(&[s(0)], 5);
    assert!(det.observe(&[s(1)], 5).is_empty());
    // One tick later the t=5 firing qualifies.
    assert_eq!(det.observe(&[s(1)], 6), vec![id]);
}

#[test]
fn repeat_window_slides_at_exact_boundary() {
    // Two occurrences exactly a window apart both count…
    let mut det = CompositeDetector::new();
    let id = det.register(CompositeExpr::repeat(CompositeExpr::Primitive(s(0)), 2), 5);
    det.observe(&[s(0)], 0);
    assert_eq!(det.observe(&[s(0)], 5), vec![id]);
    // …but one past the window does not, until a fresh pair forms.
    let mut det = CompositeDetector::new();
    let id = det.register(CompositeExpr::repeat(CompositeExpr::Primitive(s(0)), 2), 5);
    det.observe(&[s(0)], 0);
    assert!(det.observe(&[s(0)], 6).is_empty());
    assert_eq!(det.observe(&[s(0)], 7), vec![id]);
}
