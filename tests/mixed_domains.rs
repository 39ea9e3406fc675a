//! End-to-end coverage for non-integer domains: float grids,
//! categoricals and booleans flowing through parsing, the tree, the
//! DFSA, baselines and the broker.

use ens::filter::baseline::NaiveMatcher;
use ens::filter::{
    Dfsa, Direction, MatchScratch, Matcher, OverlayIndex, ProfileTree, SearchStrategy, TreeConfig,
    ValueOrder,
};
use ens::prelude::*;
use ens::types::parse::{parse_event, parse_profile};
use ens::types::IndexedEvent;

fn weather_schema() -> Schema {
    Schema::builder()
        .attribute("ph", Domain::float(0.0, 14.0, 0.5).unwrap())
        .unwrap()
        .attribute(
            "sky",
            Domain::categorical(["clear", "cloudy", "storm"]).unwrap(),
        )
        .unwrap()
        .attribute("frost", Domain::Bool)
        .unwrap()
        .build()
}

fn profiles(schema: &Schema) -> ProfileSet {
    let mut ps = ProfileSet::new(schema);
    ps.insert(parse_profile(schema, "profile(ph <= 6.5; frost = false)", 0.into()).unwrap());
    ps.insert(parse_profile(schema, "profile(sky in {storm, cloudy})", 0.into()).unwrap());
    ps.insert(parse_profile(schema, "profile(ph in [7.0, 8.5]; sky = clear)", 0.into()).unwrap());
    ps.insert(parse_profile(schema, "profile(frost = true)", 0.into()).unwrap());
    ps
}

fn all_events(schema: &Schema) -> Vec<Event> {
    let mut out = Vec::new();
    let (ph_d, sky_d, frost_d) = (
        schema
            .attribute(schema.attr("ph").unwrap())
            .domain()
            .clone(),
        schema
            .attribute(schema.attr("sky").unwrap())
            .domain()
            .clone(),
        schema
            .attribute(schema.attr("frost").unwrap())
            .domain()
            .clone(),
    );
    for i in 0..ph_d.size() {
        for j in 0..sky_d.size() {
            for k in 0..frost_d.size() {
                out.push(
                    Event::from_values(
                        schema,
                        vec![
                            Some(ph_d.value_at(i)),
                            Some(sky_d.value_at(j)),
                            Some(frost_d.value_at(k)),
                        ],
                    )
                    .unwrap(),
                );
            }
        }
    }
    out
}

#[test]
fn every_matcher_agrees_on_the_full_mixed_event_space() {
    let schema = weather_schema();
    let ps = profiles(&schema);
    let configs = [
        TreeConfig::default(),
        TreeConfig {
            search: SearchStrategy::Binary,
            ..TreeConfig::default()
        },
        TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending)),
            ..TreeConfig::default()
        },
        TreeConfig {
            search: SearchStrategy::Hash,
            ..TreeConfig::default()
        },
        TreeConfig {
            search: SearchStrategy::Interpolation,
            ..TreeConfig::default()
        },
    ];
    let naive = NaiveMatcher::new(&ps).unwrap();
    // The counting baseline: the overlay index over the whole set.
    let counting = OverlayIndex::new(&ps).unwrap();
    let mut scratch = MatchScratch::new();
    for config in configs {
        let tree = ProfileTree::build(&ps, &config).unwrap();
        let dfsa = Dfsa::from_tree(&tree);
        for e in all_events(&schema) {
            let oracle = ps.matches(&e).unwrap();
            assert_eq!(
                tree.match_event(&schema, &e).unwrap().profiles(),
                oracle.as_slice(),
                "{config:?} on {}",
                e.display(&schema)
            );
            assert_eq!(dfsa.match_event(&schema, &e).unwrap().profiles(), oracle);
            assert_eq!(
                naive.match_event(&schema, &e).unwrap().profiles(),
                oracle.as_slice()
            );
            counting.match_into(&IndexedEvent::resolve(&schema, &e).unwrap(), &mut scratch);
            assert_eq!(scratch.profiles(), oracle.as_slice());
        }
    }
}

#[test]
fn float_values_snap_to_the_grid_consistently() {
    let schema = weather_schema();
    let ps = profiles(&schema);
    let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
    // 6.4 snaps to 6.5 on the 0.5-step grid: still <= 6.5.
    let e = Event::builder(&schema)
        .value("ph", Value::float(6.4).unwrap())
        .unwrap()
        .value("frost", false)
        .unwrap()
        .value("sky", "clear")
        .unwrap()
        .build();
    let out = tree.match_event(&schema, &e).unwrap();
    assert_eq!(out.profiles(), ps.matches(&e).unwrap().as_slice());
    assert!(out.is_match(), "snapped value satisfies ph <= 6.5");
}

#[test]
fn broker_round_trip_on_mixed_domains() {
    let schema = weather_schema();
    let broker = Broker::new(&schema, ens::service::BrokerConfig::default()).unwrap();
    let acid_rain = broker
        .subscribe_parsed("profile(ph <= 5.0; sky = storm)")
        .unwrap();
    let e = parse_event(&schema, "event(ph = 4.5; sky = storm; frost = false)").unwrap();
    let receipt = broker.publish(&e).unwrap();
    assert_eq!(receipt.matched, vec![acid_rain.id()]);
    let n = acid_rain.try_recv().unwrap();
    assert_eq!(
        n.event.value(schema.attr("sky").unwrap()),
        Some(&Value::from("storm"))
    );
}

#[test]
fn quench_advice_covers_categorical_domains() {
    let schema = weather_schema();
    let broker = Broker::new(&schema, ens::service::BrokerConfig::default()).unwrap();
    let _s = broker.subscribe_parsed("profile(sky = storm)").unwrap();
    let advice = broker.quench_advice();
    let sky = schema.attr("sky").unwrap();
    // Only "storm" (index 2) is covered.
    assert!(advice.covered(sky).contains(2));
    assert!(!advice.covered(sky).contains(0));
    let calm = parse_event(&schema, "event(sky = clear)").unwrap();
    assert!(!advice.allows(&calm).unwrap());
}
