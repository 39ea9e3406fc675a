//! The paper's experiment protocols: test series TV1–TV4 (§4.3, value
//! reordering) and TA1–TA2 (attribute reordering), plus the per-figure
//! drivers that regenerate Fig. 4, Fig. 5 and Fig. 6.
//!
//! Analytic figures use the TV4 protocol: "all possible events, average
//! #operations computed based on #operations and event distribution
//! (according to Eq. 2)" — i.e. [`CostModel`]. Measured protocols
//! (TV1–TV3) sample events and stop at 95 % confidence precision.

use std::time::Instant;

use ens_dist::stats::{PrecisionStopper, RunningStats};
use ens_dist::{Density, DistOverDomain, DistributionCatalog, JointDist};
use ens_filter::{
    AttributeMeasure, AttributeOrder, CostModel, Dfsa, Direction, MatchScratch, Matcher,
    SearchStrategy, TreeConfig, ValueOrder,
};
use ens_types::{Domain, IndexedEvent, LoweredTable, Predicate, ProfileSet, Schema};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::figures::{FigureTable, Series};
use crate::generator::EventGenerator;
use crate::WorkloadError;

/// Default profile count for single-attribute experiments.
pub const SINGLE_ATTR_PROFILES: usize = 60;
/// Default domain size for single-attribute experiments.
pub const SINGLE_ATTR_DOMAIN: u64 = 100;

/// The Pe/Pp combinations of Fig. 4(a).
pub const FIG4A_COMBOS: [(&str, &str); 7] = [
    ("d37", "equal"),
    ("d5", "d41"),
    ("d3", "d39"),
    ("d39", "d18"),
    ("d40", "d17"),
    ("d42", "d1"),
    ("d39", "d1"),
];

/// The Pe/Pp combinations of Fig. 4(b).
pub const FIG4B_COMBOS: [(&str, &str); 8] = [
    ("d14", "gauss"),
    ("d2", "gauss"),
    ("d4", "gauss"),
    ("d16", "d39"),
    ("d9", "gauss"),
    ("d39", "gauss"),
    ("d4", "d37"),
    ("d17", "d34"),
];

/// The Pe/Pp combinations of Fig. 5 (events / profiles).
pub const FIG5_COMBOS: [(&str, &str); 6] = [
    ("equal", "peak_90_high"),
    ("equal", "peak_95_high"),
    ("equal", "peak_95_low"),
    ("falling", "peak_95_high"),
    ("peak_95_high", "peak_95_low"),
    ("peak_95_low", "peak_95_low"),
];

/// Builds the single-attribute workload of the TV protocols: `p`
/// equality profiles drawn from the `pp` profile distribution over a
/// domain of `domain_size` points, and the `pe` event model.
///
/// The paper's prototype "supports only equality tests and don't care
/// cases" for these series; with one attribute, don't-care is
/// meaningless, so all profiles are equality tests.
///
/// # Errors
///
/// Propagates catalog and data-model errors.
pub fn single_attribute_setup(
    pe: &str,
    pp: &str,
    p: usize,
    domain_size: u64,
    seed: u64,
) -> Result<(ProfileSet, JointDist), WorkloadError> {
    let schema = Schema::builder()
        .attribute("x", Domain::int(0, domain_size as i64 - 1))?
        .build();
    let pp_dist = DistOverDomain::new(DistributionCatalog::get(pp)?, domain_size);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut profiles = ProfileSet::new(&schema);
    for _ in 0..p {
        let idx = pp_dist.sample_index(&mut rng);
        profiles.insert_with(|b| b.predicate("x", Predicate::eq(idx as i64)))?;
    }
    let pe_dist = DistOverDomain::new(DistributionCatalog::get(pe)?, domain_size);
    let joint = JointDist::independent(vec![pe_dist])?;
    Ok((profiles, joint))
}

fn evaluate_strategy(
    profiles: &ProfileSet,
    joint: &JointDist,
    search: SearchStrategy,
    order: AttributeOrder,
) -> Result<ens_filter::CostBreakdown, WorkloadError> {
    let config = TreeConfig {
        attribute_order: order,
        search,
        event_model: Some(joint.clone()),
        ..TreeConfig::default()
    };
    let tree = Dfsa::build(profiles, &config)?;
    Ok(CostModel::new(&tree, joint)?.evaluate()?)
}

/// Fig. 4(a): natural order vs event-probability order (Measure V1) vs
/// binary search, over seven Pe/Pp combinations (TV4 protocol).
///
/// # Errors
///
/// Propagates experiment errors.
pub fn figure_4a() -> Result<FigureTable, WorkloadError> {
    let strategies = [
        (
            "natural order search",
            SearchStrategy::Linear(ValueOrder::Natural(Direction::Ascending)),
        ),
        (
            "event order search",
            SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        ),
        ("binary search", SearchStrategy::Binary),
    ];
    combo_table(
        "fig4a",
        "influence of value-reordering (Measure V1, TV4)",
        &FIG4A_COMBOS,
        &strategies,
        Metric::PerEvent,
    )
}

/// Fig. 4(b): Measures V1–V3 vs binary search over eight combinations.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn figure_4b() -> Result<FigureTable, WorkloadError> {
    let strategies = fig5_strategies();
    combo_table(
        "fig4b",
        "Measures V1-V3 vs binary search (TV4)",
        &FIG4B_COMBOS,
        &strategies,
        Metric::PerEvent,
    )
}

fn fig5_strategies() -> [(&'static str, SearchStrategy); 4] {
    [
        (
            "profile order search",
            SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending)),
        ),
        (
            "event * profile order search",
            SearchStrategy::Linear(ValueOrder::Combined(Direction::Descending)),
        ),
        (
            "events order search",
            SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        ),
        ("binary search", SearchStrategy::Binary),
    ]
}

/// Which scalar a figure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the paper names the metrics "per …"
enum Metric {
    PerEvent,
    PerProfile,
    PerEventAndProfile,
}

fn combo_table(
    id: &str,
    title: &str,
    combos: &[(&str, &str)],
    searches: &[(&str, SearchStrategy)],
    metric: Metric,
) -> Result<FigureTable, WorkloadError> {
    let mut series: Vec<Series> = searches
        .iter()
        .map(|(label, _)| Series {
            label: (*label).to_owned(),
            values: Vec::with_capacity(combos.len()),
        })
        .collect();
    let mut rows = Vec::with_capacity(combos.len());
    for (k, (pe, pp)) in combos.iter().enumerate() {
        rows.push(format!("{pe}/{pp}"));
        let (profiles, joint) = single_attribute_setup(
            pe,
            pp,
            SINGLE_ATTR_PROFILES,
            SINGLE_ATTR_DOMAIN,
            1000 + k as u64,
        )?;
        for ((_, search), s) in searches.iter().zip(series.iter_mut()) {
            let cost = evaluate_strategy(&profiles, &joint, *search, AttributeOrder::Natural)?;
            s.values.push(match metric {
                Metric::PerEvent => cost.expected_total_ops(),
                Metric::PerProfile => cost.avg_ops_per_profile(),
                Metric::PerEventAndProfile => cost.ops_per_event_and_profile(),
            });
        }
    }
    Ok(FigureTable::new(id, title, rows, series))
}

/// Fig. 5(a)/(b)/(c): the four search strategies over the six
/// event/profile combinations, reported per event, per profile, and per
/// event-and-profile.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn figure_5() -> Result<[FigureTable; 3], WorkloadError> {
    let strategies = fig5_strategies();
    Ok([
        combo_table(
            "fig5a",
            "average filter operations per event",
            &FIG5_COMBOS,
            &strategies,
            Metric::PerEvent,
        )?,
        combo_table(
            "fig5b",
            "average filter operations per profile",
            &FIG5_COMBOS,
            &strategies,
            Metric::PerProfile,
        )?,
        combo_table(
            "fig5c",
            "average filter operations per event and profile",
            &FIG5_COMBOS,
            &strategies,
            Metric::PerEventAndProfile,
        )?,
    ])
}

/// Which TA experiment of Fig. 6 to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaExperiment {
    /// TA1 — "wide differences in attribute distributions": profile
    /// interest bands of width 10 %–80 % of the domain.
    Wide,
    /// TA2 — "small differences in attribute distributions".
    Small,
}

impl TaExperiment {
    /// Interest-band width per attribute (fraction of the domain).
    /// Deliberately not monotone in the attribute index, so the natural
    /// order differs from both selectivity orders.
    #[must_use]
    pub fn band_widths(self) -> [f64; 5] {
        match self {
            TaExperiment::Wide => [0.55, 0.10, 0.80, 0.25, 0.40],
            TaExperiment::Small => [0.50, 0.42, 0.58, 0.46, 0.54],
        }
    }
}

/// Builds the 5-attribute workload of the TA protocols: every profile
/// places a small range on each attribute, inside an attribute-specific
/// interest band whose width controls the zero-subdomain selectivity.
///
/// # Errors
///
/// Propagates data-model errors.
pub fn multi_attribute_setup(
    ta: TaExperiment,
    event: &str,
    p: usize,
    domain_size: u64,
    seed: u64,
) -> Result<(ProfileSet, JointDist), WorkloadError> {
    let widths = ta.band_widths();
    let mut builder = Schema::builder();
    for j in 0..widths.len() {
        builder = builder.attribute(format!("a{j}"), Domain::int(0, domain_size as i64 - 1))?;
    }
    let schema = builder.build();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut profiles = ProfileSet::new(&schema);
    use rand::Rng;
    for _ in 0..p {
        let mut preds = Vec::with_capacity(widths.len());
        for (j, w) in widths.iter().enumerate() {
            let band = (domain_size as f64 * w) as i64;
            // Alternate band position low/high so the natural attribute
            // order is not accidentally sorted by selectivity.
            let band_lo = if j % 2 == 0 {
                0
            } else {
                domain_size as i64 - band
            };
            let span = (domain_size as f64 * 0.05).max(1.0) as i64;
            let lo = band_lo + rng.gen_range(0..(band - span).max(1));
            preds.push(Predicate::between(lo, lo + span));
        }
        let profile =
            ens_types::Profile::from_predicates(&schema, ens_types::ProfileId::new(0), preds)?;
        profiles.insert(profile);
    }
    let density = DistributionCatalog::get(event)?;
    let marginals: Vec<DistOverDomain> = (0..widths.len())
        .map(|_| DistOverDomain::new(density.clone(), domain_size))
        .collect();
    Ok((profiles, JointDist::independent(marginals)?))
}

/// Fig. 6(a)/(b): attribute reordering. Rows are `event-distribution /
/// tree-order` groups (natural, ascending, descending by Measure A2);
/// series are the event-descending linear search and binary search.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn figure_6(ta: TaExperiment) -> Result<FigureTable, WorkloadError> {
    let (id, title) = match ta {
        TaExperiment::Wide => ("fig6a", "TA1: wide differences in attribute distributions"),
        TaExperiment::Small => ("fig6b", "TA2: small differences in attribute distributions"),
    };
    let events = ["equal", "gauss", "gauss_low"];
    let orders: [(&str, AttributeOrder); 3] = [
        ("natur.", AttributeOrder::Natural),
        (
            "asc.",
            AttributeOrder::Selectivity {
                measure: AttributeMeasure::A2,
                direction: Direction::Ascending,
            },
        ),
        (
            "desc.",
            AttributeOrder::Selectivity {
                measure: AttributeMeasure::A2,
                direction: Direction::Descending,
            },
        ),
    ];
    let strategies = [
        (
            "event desc order search",
            SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        ),
        ("binary search", SearchStrategy::Binary),
    ];
    let mut rows = Vec::new();
    let mut series: Vec<Series> = strategies
        .iter()
        .map(|(label, _)| Series {
            label: (*label).to_owned(),
            values: Vec::new(),
        })
        .collect();
    for event in events {
        let (profiles, joint) = multi_attribute_setup(ta, event, 40, 100, 77)?;
        for (order_label, order) in &orders {
            rows.push(format!("{event}/{order_label}"));
            for ((_, search), s) in strategies.iter().zip(series.iter_mut()) {
                let cost = evaluate_strategy(&profiles, &joint, *search, order.clone())?;
                s.values.push(cost.expected_total_ops());
            }
        }
    }
    Ok(FigureTable::new(id, title, rows, series))
}

/// Result of a measured (sampled) run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRun {
    /// Average operations per event.
    pub avg_ops: f64,
    /// Events posted.
    pub events: u64,
    /// Whether the precision stopper fired (vs. hitting the cap).
    pub converged: bool,
}

/// Posts sampled events against `tree` until `stopper` fires or
/// `max_events` is reached.
///
/// # Errors
///
/// Propagates matching errors.
pub fn run_measured(
    tree: &Dfsa,
    generator: &EventGenerator,
    stopper: PrecisionStopper,
    max_events: u64,
    seed: u64,
) -> Result<MeasuredRun, WorkloadError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = RunningStats::new();
    let mut converged = false;
    let (mut indexed, mut scratch) = (IndexedEvent::new(), MatchScratch::new());
    while stats.len() < max_events {
        let e = generator.sample(&mut rng);
        indexed.resolve_into(tree.schema(), &e)?;
        tree.match_into(&indexed, &mut scratch);
        stats.push(scratch.ops() as f64);
        if stopper.is_done(&stats) {
            converged = true;
            break;
        }
    }
    Ok(MeasuredRun {
        avg_ops: stats.mean(),
        events: stats.len(),
        converged,
    })
}

/// Report of the TV test-scenario suite (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct TvReport {
    /// TV1: tree-creation time for 10,000 profiles, milliseconds.
    pub tv1_build_ms: f64,
    /// TV1: measured average operations (n attributes, fresh tree).
    pub tv1: MeasuredRun,
    /// TV2: measured average on the reused full tree.
    pub tv2: MeasuredRun,
    /// TV3: single attribute, 4,000 events.
    pub tv3: MeasuredRun,
    /// TV4: single attribute, analytic expectation (same setup as TV3).
    pub tv4_expected_ops: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_filter::attribute_selectivities;

    #[test]
    fn single_attribute_setup_is_deterministic_and_valid() {
        let (a, ja) = single_attribute_setup("d39", "gauss", 60, 100, 7).unwrap();
        let (b, _jb) = single_attribute_setup("d39", "gauss", 60, 100, 7).unwrap();
        assert_eq!(a, b, "same seed, same profiles");
        assert_eq!(a.len(), 60);
        assert_eq!(ja.arity(), 1);
        assert_eq!(ja.domain_size(0), 100);
        // Every profile is an equality test within the domain.
        for p in a.iter() {
            assert!(matches!(
                p.predicate(ens_types::AttrId::new(0)),
                Predicate::Eq(_)
            ));
        }
        assert!(single_attribute_setup("nope", "gauss", 10, 100, 1).is_err());
    }

    #[test]
    fn multi_attribute_setup_produces_intended_selectivities() {
        let (ps, joint) = multi_attribute_setup(TaExperiment::Wide, "equal", 40, 100, 3).unwrap();
        assert_eq!(ps.schema().len(), 5);
        assert_eq!(joint.arity(), 5);
        let parts: Vec<_> = ps
            .schema()
            .iter()
            .map(|(id, a)| {
                ens_filter::AttributePartition::build(ps.iter(), id, a.domain()).unwrap()
            })
            .collect();
        let s = attribute_selectivities(ens_filter::AttributeMeasure::A1, &parts, None).unwrap();
        // Widths [0.55, 0.10, 0.80, 0.25, 0.40] imply d0 roughly
        // 1 - width: the narrow-band attribute (index 1) must be the
        // most selective and the wide-band one (index 2) the least.
        let max = s.iter().cloned().fold(f64::MIN, f64::max);
        let min = s.iter().cloned().fold(f64::MAX, f64::min);
        assert_eq!(s[1], max, "{s:?}");
        assert_eq!(s[2], min, "{s:?}");
        assert!(max - min > 0.3, "wide spread: {s:?}");
    }

    #[test]
    fn ta2_has_narrower_selectivity_spread_than_ta1() {
        let spread = |ta: TaExperiment| {
            let (ps, _) = multi_attribute_setup(ta, "equal", 40, 100, 3).unwrap();
            let parts: Vec<_> = ps
                .schema()
                .iter()
                .map(|(id, a)| {
                    ens_filter::AttributePartition::build(ps.iter(), id, a.domain()).unwrap()
                })
                .collect();
            let s =
                attribute_selectivities(ens_filter::AttributeMeasure::A1, &parts, None).unwrap();
            s.iter().cloned().fold(f64::MIN, f64::max) - s.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(spread(TaExperiment::Wide) > 2.0 * spread(TaExperiment::Small));
    }

    #[test]
    fn run_measured_respects_cap_and_stopper() {
        let (ps, joint) = single_attribute_setup("gauss", "gauss", 30, 100, 5).unwrap();
        let tree = Dfsa::build(
            &ps,
            &TreeConfig {
                event_model: Some(joint.clone()),
                ..TreeConfig::default()
            },
        )
        .unwrap();
        let generator = EventGenerator::new(ps.schema(), joint).unwrap();
        // Hard cap.
        let run = run_measured(&tree, &generator, PrecisionStopper::new(1e-9, 50), 50, 1).unwrap();
        assert_eq!(run.events, 50);
        assert!(!run.converged);
        // Loose precision converges quickly.
        let run =
            run_measured(&tree, &generator, PrecisionStopper::new(0.5, 10), 10_000, 1).unwrap();
        assert!(run.converged);
        assert!(run.events < 10_000);
        assert!(run.avg_ops > 0.0);
    }

    #[test]
    fn figure_row_labels_match_combo_constants() {
        let t = figure_4a().unwrap();
        assert_eq!(t.row_labels.len(), FIG4A_COMBOS.len());
        for ((pe, pp), row) in FIG4A_COMBOS.iter().zip(&t.row_labels) {
            assert_eq!(row, &format!("{pe}/{pp}"));
        }
        assert_eq!(t.series.len(), 3);
    }
}

/// Runs TV1–TV4.
///
/// TV1/TV2 use the multi-attribute monitoring schema with 10,000
/// equality profiles drawn from a Gaussian profile distribution; TV3
/// posts 4,000 events against a single-attribute tree; TV4 computes the
/// same tree's analytic expectation.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn run_tv_suite(seed: u64) -> Result<TvReport, WorkloadError> {
    // --- TV1/TV2: n attributes, 10,000 profiles.
    let schema = crate::scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let pp: Vec<DistOverDomain> = schema
        .iter()
        .map(|(_, a)| DistOverDomain::new(Density::gaussian(0.7, 0.12), a.domain().size()))
        .collect();
    let mut profiles = ProfileSet::new(&schema);
    // Fully specified equality profiles: with don't-care predicates the
    // DFSA construction duplicates profiles along every sibling edge,
    // which at p = 10,000 explodes the tree (a known property of the
    // Gough & Smith structure, see DESIGN.md); the TV series therefore
    // uses the paper prototype's equality-only shape.
    for _ in 0..10_000 {
        let idx: Vec<u64> = pp.iter().map(|d| d.sample_index(&mut rng)).collect();
        let preds: Vec<Predicate> = schema
            .iter()
            .zip(&idx)
            .map(|((_, a), i)| Predicate::Eq(a.domain().value_at(*i)))
            .collect();
        let profile =
            ens_types::Profile::from_predicates(&schema, ens_types::ProfileId::new(0), preds)?;
        profiles.insert(profile);
    }
    let joint = JointDist::independent(
        schema
            .iter()
            .map(|(_, a)| DistOverDomain::new(Density::gaussian(0.6, 0.15), a.domain().size()))
            .collect(),
    )?;
    let config = TreeConfig {
        attribute_order: AttributeOrder::Natural,
        search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        event_model: Some(joint.clone()),
        ..TreeConfig::default()
    };
    let t0 = Instant::now();
    let tree = Dfsa::build(&profiles, &config)?;
    let tv1_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let generator = EventGenerator::new(&schema, joint)?;
    let stopper = PrecisionStopper::paper_default();
    let tv1 = run_measured(&tree, &generator, stopper, 200_000, seed + 1)?;
    let tv2 = run_measured(&tree, &generator, stopper, 200_000, seed + 2)?;

    // --- TV3/TV4: one attribute.
    let (sprofiles, sjoint) = single_attribute_setup(
        "d39",
        "gauss",
        SINGLE_ATTR_PROFILES,
        SINGLE_ATTR_DOMAIN,
        seed + 3,
    )?;
    let sconfig = TreeConfig {
        attribute_order: AttributeOrder::Natural,
        search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        event_model: Some(sjoint.clone()),
        ..TreeConfig::default()
    };
    let stree = Dfsa::build(&sprofiles, &sconfig)?;
    let sgen = EventGenerator::new(sprofiles.schema(), sjoint.clone())?;
    // TV3 posts exactly 4,000 events (no early stop).
    let tv3 = run_measured(
        &stree,
        &sgen,
        PrecisionStopper::new(1e-9, 4_000),
        4_000,
        seed + 4,
    )?;
    let tv4_expected_ops = CostModel::new(&stree, &sjoint)?
        .evaluate()?
        .expected_total_ops();

    Ok(TvReport {
        tv1_build_ms,
        tv1,
        tv2,
        tv3,
        tv4_expected_ops,
    })
}

/// Supplementary table for the §5 outlook: "binary-, interpolation-, or
/// hash-based search within attribute-values", compared against the V1
/// linear order, on equality-dominated and range workloads.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn search_strategy_table() -> Result<FigureTable, WorkloadError> {
    let strategies = [
        (
            "events order search",
            SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        ),
        ("binary search", SearchStrategy::Binary),
        ("interpolation search", SearchStrategy::Interpolation),
        ("hash search", SearchStrategy::Hash),
    ];
    let mut rows = Vec::new();
    let mut series: Vec<Series> = strategies
        .iter()
        .map(|(label, _)| Series {
            label: (*label).to_owned(),
            values: Vec::new(),
        })
        .collect();

    let mut workloads: Vec<(String, ProfileSet, JointDist)> = Vec::new();
    for (pe, pp) in [("equal", "equal"), ("d37", "equal"), ("gauss", "gauss")] {
        let (ps, joint) =
            single_attribute_setup(pe, pp, SINGLE_ATTR_PROFILES, SINGLE_ATTR_DOMAIN, 500)?;
        workloads.push((format!("equality {pe}/{pp}"), ps, joint));
    }
    let (ps, joint) = multi_attribute_setup(TaExperiment::Wide, "gauss", 40, 100, 77)?;
    workloads.push(("ranges TA1/gauss".into(), ps, joint));

    for (label, ps, joint) in &workloads {
        rows.push(label.clone());
        for ((_, search), s) in strategies.iter().zip(series.iter_mut()) {
            let cost = evaluate_strategy(ps, joint, *search, AttributeOrder::Natural)?;
            s.values.push(cost.expected_total_ops());
        }
    }
    Ok(FigureTable::new(
        "search",
        "node search strategies (§5 outlook; expected ops per event)",
        rows,
        series,
    ))
}

/// One row of the adaptive-threshold sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSweepRow {
    /// Drift threshold (L1 distance); values above 2 never fire.
    pub threshold: f64,
    /// Average measured operations per event over the whole drifting
    /// stream.
    pub avg_ops: f64,
    /// Number of tree rebuilds triggered.
    pub rebuilds: u64,
}

/// Sweeps the drift detector's threshold ([`ens_filter::DriftTracker`]
/// over a V1 [`Dfsa`]) on a workload whose event distribution
/// shifts between two peaks (the §5 scenario: "the algorithm … has to
/// maintain a history of events in order to determine the event
/// distribution").
///
/// Returns one row per threshold; the last row (`threshold > 2`) is the
/// non-adaptive control.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn adaptive_sweep(seed: u64) -> Result<Vec<AdaptiveSweepRow>, WorkloadError> {
    use ens_filter::{DriftCause, DriftTracker, RebuildPolicy};

    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 99))?
        .build();
    let mut profiles = ProfileSet::new(&schema);
    for v in 0..20 {
        profiles.insert_with(|b| b.predicate("x", Predicate::eq(10 + v % 10)))?;
        profiles.insert_with(|b| b.predicate("x", Predicate::eq(80 + v % 10)))?;
    }
    let low = DistOverDomain::new(Density::peak(0.10, 0.10, 0.9)?, 100);
    let high = DistOverDomain::new(Density::peak(0.80, 0.10, 0.9)?, 100);

    let mut rows = Vec::new();
    for threshold in [0.05, 0.15, 0.30, 0.60, 2.5] {
        // The drift is evaluated after every event and every trigger is
        // honoured: pricing a rebuild against its cost is the broker's
        // business, not the sweep's.
        let policy = RebuildPolicy {
            min_events: 200,
            drift_threshold: threshold,
            drift_check_every: 1,
            ..RebuildPolicy::default()
        };
        let mut tracker = DriftTracker::new(&profiles, policy)?;
        // The first tree is compiled under the (uniform) estimate of an
        // empty history.
        let mut config = TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            event_model: Some(tracker.statistics().empirical_model()?),
            ..TreeConfig::default()
        };
        let lowered = LoweredTable::lower(&schema, profiles.iter())?;
        let mut tree = Dfsa::build_lowered(&schema, &lowered, &config)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total_ops = 0u64;
        let mut events = 0u64;
        let mut rebuilds = 0u64;
        let (mut indexed, mut scratch) = (IndexedEvent::new(), MatchScratch::new());
        for phase in 0..6 {
            let dist = if phase % 2 == 0 { &low } else { &high };
            for _ in 0..1500 {
                let idx = dist.sample_index(&mut rng);
                let e = ens_types::Event::builder(&schema)
                    .value("x", idx as i64)?
                    .build();
                indexed.resolve_into(&schema, &e)?;
                tree.match_into(&indexed, &mut scratch);
                total_ops += scratch.ops();
                events += 1;
                if let Some(signal) = tracker.observe(&e)? {
                    let history = tracker.rebin(&lowered, None)?;
                    config.event_model = Some(history.model(None)?);
                    tree = Dfsa::build_lowered(&schema, &lowered, &config)?;
                    tracker = tracker.rebuilt(history, signal.cause == DriftCause::Moved)?;
                    rebuilds += 1;
                }
            }
        }
        rows.push(AdaptiveSweepRow {
            threshold,
            avg_ops: total_ops as f64 / events as f64,
            rebuilds,
        });
    }
    Ok(rows)
}

/// Ablation of two design choices called out in DESIGN.md: lookup-table
/// early termination (§4.2/Example 5) and per-branch cell merging
/// (Fig. 1/Fig. 2). Reports model-expected operations per event on three
/// representative workloads.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn ablation_table() -> Result<FigureTable, WorkloadError> {
    let variants: [(&str, bool, bool); 3] = [
        ("default", false, false),
        ("no early termination", true, false),
        ("no cell merging", false, true),
    ];
    let mut series: Vec<Series> = variants
        .iter()
        .map(|(label, _, _)| Series {
            label: (*label).to_owned(),
            values: Vec::new(),
        })
        .collect();
    let mut rows = Vec::new();

    // Workloads: single-attribute combos under the V1 linear scan
    // (exposes early termination) and the TA1 multi-attribute workload
    // under both V1 and binary search (binary exposes cell merging,
    // since its cost grows with the edge count of every node).
    let v1 = SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending));
    let mut workloads: Vec<(String, ProfileSet, JointDist, SearchStrategy)> = Vec::new();
    for (pe, pp) in [("d37", "equal"), ("d39", "gauss")] {
        let (ps, joint) =
            single_attribute_setup(pe, pp, SINGLE_ATTR_PROFILES, SINGLE_ATTR_DOMAIN, 42)?;
        workloads.push((format!("single-attr {pe}/{pp} (V1)"), ps, joint, v1));
    }
    let (ps, joint) = multi_attribute_setup(TaExperiment::Wide, "gauss", 40, 100, 77)?;
    workloads.push(("TA1 gauss (V1)".into(), ps.clone(), joint.clone(), v1));
    workloads.push((
        "TA1 gauss (binary)".into(),
        ps,
        joint,
        SearchStrategy::Binary,
    ));

    for (label, ps, joint, search) in &workloads {
        rows.push(label.clone());
        for ((_, no_early, no_merge), s) in variants.iter().zip(series.iter_mut()) {
            let config = TreeConfig {
                search: *search,
                event_model: Some(joint.clone()),
                disable_early_termination: *no_early,
                disable_cell_merging: *no_merge,
                ..TreeConfig::default()
            };
            let tree = Dfsa::build(ps, &config)?;
            s.values.push(
                CostModel::new(&tree, joint)?
                    .evaluate()?
                    .expected_total_ops(),
            );
        }
    }
    Ok(FigureTable::new(
        "ablation",
        "design-choice ablations (expected ops per event, V1 search)",
        rows,
        series,
    ))
}
