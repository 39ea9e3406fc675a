//! Shape assertions for every reproduced figure: the qualitative
//! conclusions of the paper's §4.3 must hold in our regenerated data
//! (who wins, by roughly what factor, where the crossovers fall).
//! The concrete numbers are what `repro` prints (README, "Regenerating
//! the paper's figures").

use ens_workloads::{
    ablation_table, adaptive_sweep, figure_4a, figure_4b, figure_5, figure_6,
    search_strategy_table, TaExperiment,
};

#[test]
fn fig4a_event_order_wins_on_peaked_distributions() {
    let t = figure_4a().unwrap();
    // "The ordering according to event distribution shows best
    // performance for distributions with peaks."
    for row in ["d37/equal", "d39/d18", "d40/d17", "d42/d1"] {
        let natural = t.value(row, "natural order search").unwrap();
        let event = t.value(row, "event order search").unwrap();
        let binary = t.value(row, "binary search").unwrap();
        assert!(event < natural, "{row}: event {event} vs natural {natural}");
        assert!(event < binary, "{row}: event {event} vs binary {binary}");
    }
}

#[test]
fn fig4a_natural_and_event_orders_oscillate_binary_is_balanced() {
    let t = figure_4a().unwrap();
    // "Natural and event-based ordering have oscillating response time,
    // where binary search provides balanced results."
    let spread = |label: &str| {
        let v = &t.series(label).unwrap().values;
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    };
    let natural = spread("natural order search");
    let binary = spread("binary search");
    assert!(
        natural > 5.0 * binary,
        "natural spread {natural} should dwarf binary spread {binary}"
    );
    assert!(binary < 2.5, "binary stays within log-bound band: {binary}");
}

#[test]
fn no_single_perfect_approach() {
    // "Depending on the distributions, different ordering strategies
    // provide best performance." Natural order beats binary search on
    // some combinations and loses badly on others…
    let t4a = figure_4a().unwrap();
    let natural = &t4a.series("natural order search").unwrap().values;
    let binary = &t4a.series("binary search").unwrap().values;
    assert!(natural.iter().zip(binary).any(|(n, b)| n < b));
    assert!(natural.iter().zip(binary).any(|(n, b)| b < n));
    // …and the same holds between event order and binary search across
    // Fig. 4(b)'s combinations ("formally, event-based order is faster
    // than binary search if E(X) < log2(2p-1)").
    let t4b = figure_4b().unwrap();
    let event = &t4b.series("events order search").unwrap().values;
    let binary = &t4b.series("binary search").unwrap().values;
    assert!(event.iter().zip(binary).any(|(e, b)| e < b));
    assert!(event.iter().zip(binary).any(|(e, b)| b < e));
}

#[test]
fn fig4b_event_order_beats_profile_orders_on_average() {
    let t = figure_4b().unwrap();
    // "The profile-based reordering (V2) … leads to a decreasing average
    // performance with respect to the events"; V3 "follows a middle
    // course".
    let mean = |label: &str| {
        let v = &t.series(label).unwrap().values;
        v.iter().sum::<f64>() / v.len() as f64
    };
    let v1 = mean("events order search");
    let v2 = mean("profile order search");
    let v3 = mean("event * profile order search");
    assert!(v1 < v3 && v3 <= v2, "V1 {v1} < V3 {v3} <= V2 {v2}");
}

#[test]
fn fig5_profile_orders_trade_event_cost_for_profile_cost() {
    let [per_event, per_profile, per_both] = figure_5().unwrap();
    // Per event: V1 at least as good as V2 everywhere, strictly better
    // somewhere (paper: "algorithms based on V2 and V3 lead to inferior
    // average response time according to the events").
    let e1 = &per_event.series("events order search").unwrap().values;
    let e2 = &per_event.series("profile order search").unwrap().values;
    assert!(e1.iter().zip(e2).all(|(a, b)| *a <= *b + 1e-9));
    assert!(e1.iter().zip(e2).any(|(a, b)| *a + 1e-9 < *b));

    // Per profile: V2/V3 improve on V1 for peaked profile distributions
    // ("significantly improve the performance per profile").
    for row in [
        "equal/peak_90_high",
        "falling/peak_95_high",
        "equal/peak_95_low",
    ] {
        let v1 = per_profile.value(row, "events order search").unwrap();
        let v2 = per_profile.value(row, "profile order search").unwrap();
        assert!(v2 < v1, "{row}: per-profile V2 {v2} vs V1 {v1}");
    }

    // The combined metric is the per-event one scaled by p.
    for (row, _) in per_both.row_labels.iter().zip(0..) {
        let scaled = per_event.value(row, "binary search").unwrap()
            / ens_workloads::experiments::SINGLE_ATTR_PROFILES as f64;
        let direct = per_both.value(row, "binary search").unwrap();
        assert!((scaled - direct).abs() < 1e-9, "{row}");
    }
}

#[test]
fn fig6_descending_selectivity_rejects_early() {
    for ta in [TaExperiment::Wide, TaExperiment::Small] {
        let t = figure_6(ta).unwrap();
        for event in ["equal", "gauss", "gauss_low"] {
            let natural = t
                .value(&format!("{event}/natur."), "event desc order search")
                .unwrap();
            let asc = t
                .value(&format!("{event}/asc."), "event desc order search")
                .unwrap();
            let desc = t
                .value(&format!("{event}/desc."), "event desc order search")
                .unwrap();
            // "Note that the ascending order describes the worst-case
            // scenario"; descending is the recommended one.
            assert!(
                desc < natural,
                "{ta:?} {event}: desc {desc} vs natural {natural}"
            );
            assert!(desc < asc, "{ta:?} {event}: desc {desc} vs asc {asc}");
        }
    }
}

#[test]
fn fig6_wide_differences_amplify_the_reordering_gain() {
    let wide = figure_6(TaExperiment::Wide).unwrap();
    let small = figure_6(TaExperiment::Small).unwrap();
    let gain = |t: &ens_workloads::FigureTable, event: &str| {
        t.value(&format!("{event}/natur."), "event desc order search")
            .unwrap()
            / t.value(&format!("{event}/desc."), "event desc order search")
                .unwrap()
    };
    // TA1 (widths 10%-80%) must benefit more than TA2 (lightly varying)
    // for the equally distributed events ("the influence is most
    // significant" with wide differences).
    assert!(
        gain(&wide, "equal") > gain(&small, "equal"),
        "wide {} vs small {}",
        gain(&wide, "equal"),
        gain(&small, "equal")
    );
}

#[test]
fn fig6_reordering_beats_binary_when_zero_subdomain_is_hot() {
    // "The reordering is faster than binary search since a significant
    // part of the events map onto the zero-subdomain" (relocated Gauss).
    let t = figure_6(TaExperiment::Wide).unwrap();
    let desc = t
        .value("gauss_low/desc.", "event desc order search")
        .unwrap();
    let binary = t.value("gauss_low/desc.", "binary search").unwrap();
    assert!(desc < binary, "desc {desc} vs binary {binary}");
}

#[test]
fn ablation_early_termination_carries_the_miss_savings() {
    let t = ablation_table().unwrap();
    for row in &t.row_labels {
        if !row.contains("(V1)") {
            continue;
        }
        let with = t.value(row, "default").unwrap();
        let without = t.value(row, "no early termination").unwrap();
        assert!(
            without > 2.0 * with,
            "{row}: early termination should cut ops by >2x ({with} vs {without})"
        );
    }
    // Cell merging matters under binary search (cost = log #edges).
    let with = t.value("TA1 gauss (binary)", "default").unwrap();
    let without = t.value("TA1 gauss (binary)", "no cell merging").unwrap();
    assert!(without >= with, "merging never hurts: {with} vs {without}");
}

#[test]
fn search_strategies_follow_their_theory() {
    // §5 outlook: hash search costs exactly 1 op per node on
    // equality-only workloads and falls back to binary on ranges;
    // interpolation beats binary when keys spread evenly.
    let t = search_strategy_table().unwrap();
    for row in [
        "equality equal/equal",
        "equality d37/equal",
        "equality gauss/gauss",
    ] {
        assert_eq!(t.value(row, "hash search"), Some(1.0), "{row}");
        let interp = t.value(row, "interpolation search").unwrap();
        let binary = t.value(row, "binary search").unwrap();
        assert!(
            interp < binary,
            "{row}: interpolation {interp} vs binary {binary}"
        );
    }
    let hash = t.value("ranges TA1/gauss", "hash search").unwrap();
    let binary = t.value("ranges TA1/gauss", "binary search").unwrap();
    assert!(
        (hash - binary).abs() < 1e-9,
        "range nodes fall back to binary"
    );
}

#[test]
fn adaptive_sweep_lower_thresholds_adapt_more_and_cost_less() {
    let rows = adaptive_sweep(7).unwrap();
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    assert!(last.threshold > 2.0, "last row is the non-adaptive control");
    assert_eq!(last.rebuilds, 0);
    assert!(first.rebuilds > 0);
    assert!(
        first.avg_ops < last.avg_ops,
        "adaptation must pay off: {} vs {}",
        first.avg_ops,
        last.avg_ops
    );
    // Rebuild counts decrease with the threshold.
    for w in rows.windows(2) {
        assert!(w[0].rebuilds >= w[1].rebuilds);
    }
}
