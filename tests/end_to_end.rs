//! Cross-crate integration: generators → filter variants → service,
//! checked against the direct predicate-evaluation oracle.

use ens::dist::JointDist;
use ens::filter::baseline::NaiveMatcher;
use ens::filter::{
    AttributeMeasure, AttributeOrder, Dfsa, Direction, MatchScratch, Matcher, OverlayIndex,
    SearchStrategy, TreeConfig, ValueOrder,
};
use ens::prelude::*;
use ens::types::IndexedEvent;
use ens::workloads::{scenario, EventGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn all_matchers_agree(profiles: &ProfileSet, joint: &JointDist, events: usize, seed: u64) {
    let schema = profiles.schema();
    let generator = EventGenerator::new(schema, joint.clone()).unwrap();
    let configs: Vec<TreeConfig> = vec![
        TreeConfig::default(),
        TreeConfig {
            search: SearchStrategy::Binary,
            ..TreeConfig::default()
        },
        TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            event_model: Some(joint.clone()),
            ..TreeConfig::default()
        },
        TreeConfig {
            attribute_order: AttributeOrder::Selectivity {
                measure: AttributeMeasure::A1,
                direction: Direction::Descending,
            },
            search: SearchStrategy::Linear(ValueOrder::Combined(Direction::Descending)),
            event_model: Some(joint.clone()),
            ..TreeConfig::default()
        },
        TreeConfig {
            disable_early_termination: true,
            disable_cell_merging: true,
            ..TreeConfig::default()
        },
    ];
    let dfsas: Vec<Dfsa> = configs
        .iter()
        .map(|c| Dfsa::build(profiles, c).unwrap())
        .collect();
    let naive = NaiveMatcher::new(profiles).unwrap();
    // The counting baseline: the overlay index over the whole population.
    let counting = OverlayIndex::new(profiles).unwrap();
    let mut scratch = MatchScratch::new();

    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..events {
        let e = if k % 7 == 0 {
            generator.sample_partial(&mut rng, 0.4)
        } else {
            generator.sample(&mut rng)
        };
        let oracle = profiles.matches(&e).unwrap();
        for (i, dfsa) in dfsas.iter().enumerate() {
            assert_eq!(
                dfsa.match_event(schema, &e).unwrap().profiles(),
                oracle.as_slice(),
                "dfsa config {i} event {k}"
            );
        }
        assert_eq!(
            naive.match_event(schema, &e).unwrap().profiles(),
            oracle.as_slice()
        );
        counting.match_into(&IndexedEvent::resolve(schema, &e).unwrap(), &mut scratch);
        assert_eq!(scratch.profiles(), oracle.as_slice());
    }
}

#[test]
fn environmental_workload_agreement() {
    let mut rng = StdRng::seed_from_u64(1);
    let profiles = scenario::environmental_profiles(120, &mut rng).unwrap();
    let joint = scenario::environmental_event_model().unwrap();
    all_matchers_agree(&profiles, &joint, 400, 2);
}

#[test]
fn stock_workload_agreement() {
    let mut rng = StdRng::seed_from_u64(3);
    let profiles = scenario::stock_profiles(150, &mut rng).unwrap();
    let joint = scenario::stock_event_model().unwrap();
    all_matchers_agree(&profiles, &joint, 300, 4);
}

#[test]
fn broker_delivers_exactly_the_oracle_matches() {
    let schema = scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(5);
    let profiles = scenario::environmental_profiles(60, &mut rng).unwrap();

    let broker = Broker::new(&schema, ens::service::BrokerConfig::default()).unwrap();
    let handles: Vec<_> = profiles
        .iter()
        .map(|p| broker.subscribe_profile(p.clone()).unwrap())
        .collect();

    let generator =
        EventGenerator::new(&schema, scenario::environmental_event_model().unwrap()).unwrap();
    let mut expected_counts = vec![0usize; handles.len()];
    for _ in 0..300 {
        let e = generator.sample(&mut rng);
        let oracle = profiles.matches(&e).unwrap();
        let receipt = broker.publish(&e).unwrap();
        assert_eq!(receipt.matched.len(), oracle.len());
        for id in oracle {
            expected_counts[id.index()] += 1;
        }
    }
    for (h, want) in handles.iter().zip(expected_counts) {
        assert_eq!(h.pending(), want, "subscription {}", h.id());
    }
}

#[test]
fn quenching_never_drops_matchable_events() {
    let schema = scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(6);
    let profiles = scenario::environmental_profiles(40, &mut rng).unwrap();
    let broker = Broker::new(&schema, ens::service::BrokerConfig::default()).unwrap();
    let _handles: Vec<_> = profiles
        .iter()
        .map(|p| broker.subscribe_profile(p.clone()).unwrap())
        .collect();
    let advice = broker.quench_advice();
    let generator =
        EventGenerator::new(&schema, scenario::environmental_event_model().unwrap()).unwrap();
    for _ in 0..400 {
        let e = generator.sample(&mut rng);
        let oracle = profiles.matches(&e).unwrap();
        if !advice.allows(&e).unwrap() {
            assert!(oracle.is_empty(), "quenched a matchable event");
        }
        let receipt = broker.publish(&e).unwrap();
        assert_eq!(receipt.matched.len(), oracle.len());
    }
}

#[test]
fn profile_round_trip_through_json_preserves_matching() {
    let mut rng = StdRng::seed_from_u64(8);
    let profiles = scenario::stock_profiles(50, &mut rng).unwrap();
    let json = serde_json::to_string(&profiles).unwrap();
    let restored: ProfileSet = serde_json::from_str(&json).unwrap();
    let tree = Dfsa::build(&restored, &TreeConfig::default()).unwrap();
    let generator =
        EventGenerator::new(profiles.schema(), scenario::stock_event_model().unwrap()).unwrap();
    for _ in 0..100 {
        let e = generator.sample(&mut rng);
        assert_eq!(
            tree.match_event(restored.schema(), &e).unwrap().profiles(),
            profiles.matches(&e).unwrap().as_slice()
        );
    }
}
