//! The event history survives a change of cell geometry:
//! `FilterStatistics::adopt_history` re-bins the per-attribute event
//! histograms onto the cells of another profile set. Nothing may be
//! lost or invented on the way — the compiled tree is about to be
//! optimised for what comes out.

use ens_dist::{Density, DistOverDomain};
use ens_filter::FilterStatistics;
use ens_types::{AttrId, Domain, Predicate, Profile, ProfileId, ProfileSet, Schema};
use proptest::prelude::*;

const D: u64 = 60;

/// The one attribute of [`schema`].
fn x() -> AttrId {
    AttrId::new(0)
}

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, D as i64 - 1))
        .unwrap()
        .build()
}

fn bands(bands: &[(i64, i64)]) -> ProfileSet {
    let schema = schema();
    let mut ps = ProfileSet::new(&schema);
    for &(lo, hi) in bands {
        let p = Profile::from_predicates(
            &schema,
            ProfileId::new(0),
            vec![Predicate::between(lo, hi.min(D as i64 - 1))],
        )
        .unwrap();
        ps.insert(p);
    }
    ps
}

fn arb_bands() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..D as i64, 0..12i64), 0..10)
        .prop_map(|bands| bands.into_iter().map(|(lo, w)| (lo, lo + w)).collect())
}

/// Observations per cell.
fn counts(stats: &FilterStatistics) -> Vec<f64> {
    (0..stats.cells(x()).len())
        .map(|k| stats.event_count(x(), k))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Re-binning between two arbitrary geometries conserves the total
    /// mass, keeps the count of every cell both geometries share bit
    /// for bit, and carries `events_posted` over.
    #[test]
    fn rebin_conserves_mass_and_shared_cells(
        old in arb_bands(),
        new in arb_bands(),
        values in prop::collection::vec(0..D, 0..400),
    ) {
        let mut before = FilterStatistics::new(&bands(&old)).unwrap();
        for v in &values {
            before.record_value_index(x(), *v);
        }
        let mut after = FilterStatistics::new(&bands(&new)).unwrap();
        // Whatever the new statistics held is replaced, not added to.
        after.record_value_index(x(), 0);
        after.adopt_history(&before);

        prop_assert_eq!(after.events_posted(), before.events_posted());
        let (total_before, total_after) =
            (before.event_observations(x()), after.event_observations(x()));
        prop_assert!(
            (total_before - total_after).abs() <= 1e-9 * total_before.max(1.0),
            "{} -> {}", total_before, total_after
        );
        let (from, to) = (counts(&before), counts(&after));
        for (k, cell) in after.cells(x()).enumerate() {
            let same = before.cells(x()).position(|c| c == cell);
            if let Some(j) = same {
                prop_assert_eq!(to[k].to_bits(), from[j].to_bits(), "cell {:?}", cell);
            }
        }
        // And back again: a geometry's own history is a fixed point.
        let mut again = FilterStatistics::new(&bands(&new)).unwrap();
        again.adopt_history(&after);
        prop_assert_eq!(counts(&again), to);
    }
}

/// `[10, 29]` as one cell, then split in two by a second profile, then
/// merged back: the domain-level marginal the tree is compiled under is
/// the same function before and after, on the split and on the merge.
#[test]
fn empirical_marginal_survives_a_split_and_a_merge() {
    let coarse = bands(&[(10, 29)]);
    let fine = bands(&[(10, 29), (20, 29)]);
    // "Manipulate the counters" (§4.2): a peaked distribution at a
    // scale where the half-observation-per-cell smoothing, which does
    // depend on the number of cells, is below the tolerance.
    let truth = DistOverDomain::new(Density::gaussian(0.3, 0.1), D);
    let mut stats = FilterStatistics::new(&coarse).unwrap();
    stats.simulate_event_distribution(x(), &truth, 1_000_000_000_000);

    let probes = [(0, 10), (10, 30), (30, 60), (0, 60)];
    let masses = |s: &FilterStatistics| {
        let m = s.empirical_marginal(x()).unwrap();
        probes.map(|(lo, hi)| m.mass_between(lo, hi))
    };
    let before = masses(&stats);

    let mut split = FilterStatistics::new(&fine).unwrap();
    split.adopt_history(&stats);
    assert_eq!(split.cells(x()).len(), 4);
    for (a, b) in before.iter().zip(masses(&split)) {
        assert!((a - b).abs() < 1e-9, "split: {a} vs {b}");
    }
    // Within the old cell the history is spread by width: the split
    // halves hold half of it each.
    let m = split.empirical_marginal(x()).unwrap();
    assert!((m.mass_between(10, 20) - m.mass_between(20, 30)).abs() < 1e-9);

    let mut merged = FilterStatistics::new(&coarse).unwrap();
    merged.adopt_history(&split);
    for (a, b) in before.iter().zip(masses(&merged)) {
        assert!((a - b).abs() < 1e-9, "merge: {a} vs {b}");
    }
    assert_eq!(
        merged.event_observations(x()),
        stats.event_observations(x()),
        "nothing lost on the round trip"
    );
}
