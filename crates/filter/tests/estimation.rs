//! Convergence of the online distribution estimate: the interval
//! masses of the empirical model synthesised from `FilterStatistics`
//! histograms must converge to the generating `JointDist`'s true
//! masses — the property the whole self-tuning loop rests on (the cost
//! model is only as good as the estimate it prices under).

use ens_dist::{Density, DistOverDomain, JointDist};
use ens_filter::{DriftCause, DriftTracker, FilterStatistics, RebuildPolicy};
use ens_types::{
    AttrId, Domain, Event, IndexedBatch, IndexedEvent, Predicate, Profile, ProfileId, ProfileSet,
    Schema,
};
use ens_workloads::scenario::{
    environmental_event_model, environmental_profiles, environmental_schema, stock_event_model,
    stock_profiles, stock_schema,
};
use ens_workloads::{hot_band_migration, EventGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const D: u64 = 60;

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, D as i64 - 1))
        .unwrap()
        .build()
}

/// A generating density picked from the catalog of shapes the paper's
/// scenarios use (peaked, windowed, uniform, falling).
fn arb_density() -> impl Strategy<Value = Density> {
    prop_oneof![
        Just(Density::Uniform),
        Just(Density::falling()),
        (5u64..95).prop_map(|c| Density::gaussian(c as f64 / 100.0, 0.08)),
        (0u64..50, 50u64..100)
            .prop_map(|(a, b)| Density::window(a as f64 / 100.0, b as f64 / 100.0)),
    ]
}

fn arb_profiles() -> impl Strategy<Value = ProfileSet> {
    prop::collection::vec((0..D as i64, 1..12i64), 1..10).prop_map(|bands| {
        let schema = schema();
        let mut ps = ProfileSet::new(&schema);
        for (lo, w) in bands {
            let hi = (lo + w).min(D as i64 - 1);
            let p = Profile::from_predicates(
                &schema,
                ProfileId::new(0),
                vec![Predicate::between(lo, hi)],
            )
            .unwrap();
            ps.insert(p);
        }
        ps
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Record a large sample from a known distribution; every partition
    /// cell's estimated mass (and the synthesised empirical marginal's
    /// interval mass) must approach the generator's true mass.
    #[test]
    fn estimated_cell_masses_converge_to_true_masses(
        density in arb_density(),
        profiles in arb_profiles(),
        seed in 0u64..1_000,
    ) {
        let truth = DistOverDomain::new(density, D);
        let joint = JointDist::independent(vec![truth.clone()]).unwrap();
        let mut stats = FilterStatistics::new(&profiles).unwrap();

        let n = 6_000;
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let idx = joint.sample(&mut rng);
            stats.record_value_index(AttrId::new(0), idx[0]);
        }

        let attr = AttrId::new(0);
        let pmf = stats.event_pmf(attr).unwrap();
        let marginal = stats.empirical_marginal(attr).unwrap();
        for (k, cell) in stats.cells(attr).enumerate() {
            let true_mass = truth.mass_of(&cell);
            // Cell-level PMF estimate.
            prop_assert!(
                (pmf.prob(k) - true_mass).abs() < 0.05,
                "cell {k}: est {} vs true {true_mass}", pmf.prob(k)
            );
            // Interval mass through the synthesised empirical marginal
            // (what the cost model actually consumes).
            let est_mass = marginal.mass_of(&cell);
            prop_assert!(
                (est_mass - true_mass).abs() < 0.05,
                "cell {k}: marginal {est_mass} vs true {true_mass}"
            );
        }
        // The full empirical model is a valid event model for the
        // schema (arity and domain sizes line up).
        let model = stats.empirical_model().unwrap();
        prop_assert_eq!(model.arity(), 1);
        prop_assert_eq!(model.domain_size(0), D);
    }
}

/// The empirical marginal of `attr` the way it used to be built: a
/// mixture of one uniform window per cell, integrated over every
/// domain point.
fn marginal_by_integration(stats: &FilterStatistics, attr: AttrId) -> DistOverDomain {
    let pmf = stats.event_pmf(attr).unwrap();
    let domain_size = stats.cells(attr).last().unwrap().hi();
    let d = domain_size as f64;
    let windows = stats
        .cells(attr)
        .enumerate()
        .filter(|(k, _)| pmf.prob(*k) > 0.0)
        .map(|(k, cell)| {
            let (lo, hi) = (cell.lo(), cell.hi());
            (pmf.prob(k), Density::window(lo as f64 / d, hi as f64 / d))
        })
        .collect();
    DistOverDomain::new(Density::Mixture(windows), domain_size)
}

/// The one-sweep model is the integrated one — the same value, not a
/// close one: trees, Eq. 2 predictions and checkpoints are functions
/// of it. Checked on the three scenario populations before any event,
/// on a thin estimate and on a settled one.
#[test]
fn empirical_model_equals_the_integrated_window_mixture() {
    let mut rng = StdRng::seed_from_u64(11);
    let band = hot_band_migration(41, 80, 0).unwrap();
    let populations = [
        (
            "environmental",
            environmental_schema(),
            environmental_profiles(1000, &mut rng).unwrap(),
            environmental_event_model().unwrap(),
        ),
        (
            "stock",
            stock_schema(),
            stock_profiles(500, &mut rng).unwrap(),
            stock_event_model().unwrap(),
        ),
        ("band", band.schema, band.profiles, band.model_a),
    ];
    for (name, schema, profiles, model) in populations {
        let generator = EventGenerator::new(&schema, model).unwrap();
        let mut stats = FilterStatistics::new(&profiles).unwrap();
        for observed in [0, 500, 5_000] {
            while stats.events_posted() < observed {
                stats.record_event(&generator.sample(&mut rng)).unwrap();
            }
            let model = stats.empirical_model().unwrap();
            for (j, marginal) in model.marginals().iter().enumerate() {
                let integrated = marginal_by_integration(&stats, AttrId::new(j as u32));
                assert_eq!(
                    *marginal, integrated,
                    "{name}, attribute {j}, {observed} events"
                );
            }
        }
    }
}

/// A tracker fed the rows a publish resolves (`observe_row`) ends where
/// one fed the events (`observe`) does: equal signals at equal events,
/// then equal histograms — observation counts and cell distributions of
/// every attribute. On the environmental and stock streams, every
/// seventh event missing an attribute, the second half drawn from the
/// lower values of the first attribute so that the distribution moves.
#[test]
fn observing_rows_equals_observing_events() {
    let mut rng = StdRng::seed_from_u64(17);
    let populations = [
        (
            "environmental",
            environmental_schema(),
            environmental_event_model().unwrap(),
        ),
        ("stock", stock_schema(), stock_event_model().unwrap()),
    ];
    for (name, schema, model) in populations {
        let profiles = match name {
            "stock" => stock_profiles(300, &mut rng).unwrap(),
            _ => environmental_profiles(300, &mut rng).unwrap(),
        };
        let generator = EventGenerator::new(&schema, model).unwrap();
        let first = |e: &Event| IndexedEvent::resolve(&schema, e).unwrap().raw()[0];
        let mut low = Vec::new();
        while low.len() < 4000 {
            low.push(generator.sample(&mut rng));
        }
        low.sort_by_key(first);
        let events: Vec<Event> = (0..3000)
            .map(|k| {
                // The second half from the lower half of the first
                // attribute's values.
                let e = match k {
                    ..1500 => generator.sample(&mut rng),
                    _ => low[k - 1500].clone(),
                };
                if k % 7 != 0 {
                    return e;
                }
                let mut values = e.values().to_vec();
                values[k % schema.len()] = None;
                Event::from_values(&schema, values).unwrap()
            })
            .collect();
        let mut batch = IndexedBatch::new();
        batch.resolve_into(&schema, events.iter()).unwrap();

        let policy = RebuildPolicy {
            drift_check_every: 1,
            ..RebuildPolicy::default()
        };
        let mut by_event = DriftTracker::new(&profiles, policy).unwrap();
        let mut by_row = DriftTracker::new(&profiles, policy).unwrap();
        let mut moved = 0;
        for (i, e) in events.iter().enumerate() {
            let signal = by_event.observe(e).unwrap();
            assert_eq!(
                signal,
                by_row.observe_row(batch.row(i)).unwrap(),
                "{name}: event {i}"
            );
            if let Some(signal) = signal {
                moved += usize::from(signal.cause == DriftCause::Moved);
                by_event.decline_rebuild().unwrap();
                by_row.decline_rebuild().unwrap();
            }
        }
        assert!(moved > 0, "{name}: the stream should move");
        let (a, b) = (by_event.statistics(), by_row.statistics());
        assert_eq!(a.events_posted(), b.events_posted());
        for attr in schema.ids() {
            assert_eq!(a.event_observations(attr), b.event_observations(attr));
            assert_eq!(
                a.event_drift_pmf(attr).unwrap(),
                b.event_drift_pmf(attr).unwrap()
            );
        }
    }
}
