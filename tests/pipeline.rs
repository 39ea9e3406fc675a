//! Full service pipeline integration: broker + quenching + composite
//! detection + adaptive restructuring working together, as the paper's
//! GENAS vision (§5) describes.

use std::time::Duration;

use ens::composite::{CompositeDetector, CompositeExpr};
use ens::filter::{Direction, RebuildPolicy, SearchStrategy, TreeConfig, ValueOrder};
use ens::service::{Broker, BrokerConfig};
use ens::types::{Domain, Event, Predicate, Schema};

fn schema() -> Schema {
    Schema::builder()
        .attribute("temperature", Domain::int(-30, 50))
        .unwrap()
        .attribute("humidity", Domain::int(0, 100))
        .unwrap()
        .attribute("wind", Domain::int(0, 120))
        .unwrap()
        .build()
}

fn event(s: &Schema, t: i64, h: i64, w: i64) -> Event {
    Event::builder(s)
        .value("temperature", t)
        .unwrap()
        .value("humidity", h)
        .unwrap()
        .value("wind", w)
        .unwrap()
        .build()
}

#[test]
fn fire_risk_pipeline_end_to_end() {
    let s = schema();
    let broker = Broker::new(
        &s,
        BrokerConfig {
            tree: TreeConfig {
                search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
                ..TreeConfig::default()
            },
            rebuild: RebuildPolicy {
                min_events: 100,
                drift_threshold: 0.4,
                ..RebuildPolicy::default()
            },
            ..BrokerConfig::default()
        },
    )
    .unwrap();

    let heat = broker
        .subscribe_parsed("profile(temperature >= 35)")
        .unwrap();
    let drought = broker.subscribe_parsed("profile(humidity <= 20)").unwrap();
    let storm = broker.subscribe_parsed("profile(wind >= 70)").unwrap();

    let mut detector = CompositeDetector::new();
    let fire_risk = detector.register(
        CompositeExpr::seq(
            CompositeExpr::and(
                CompositeExpr::Primitive(heat.id()),
                CompositeExpr::Primitive(drought.id()),
            ),
            CompositeExpr::Primitive(storm.id()),
        ),
        60,
    );

    let mut fired = Vec::new();
    let timeline = [
        (0u64, 25, 60, 10),
        (30, 38, 40, 20),
        (45, 39, 10, 15),  // heat AND drought complete here
        (80, 37, 15, 90),  // storm within 60 -> fire risk
        (400, 36, 12, 95), // stale AND: no fire risk
    ];
    for (t, temp, hum, wind) in timeline {
        let receipt = broker.publish(&event(&s, temp, hum, wind)).unwrap();
        for c in detector.observe(&receipt.matched, t) {
            fired.push((t, c));
        }
    }
    assert_eq!(fired, vec![(80, fire_risk)]);

    // The subscribers saw their primitive notifications.
    assert!(heat.recv_timeout(Duration::from_millis(10)).is_some());
    assert!(drought.pending() >= 2);
    assert!(storm.pending() >= 1);

    // Quenching is sound here but vacuous: every attribute has at least
    // one don't-care profile, so no value lies in a zero-subdomain and
    // nothing may be dropped (dropping would lose don't-care matches).
    let calm = event(&s, 0, 60, 10);
    assert!(
        broker.quench_advice().allows(&calm).unwrap(),
        "don't-care coverage disables quenching"
    );
    let receipt = broker.publish(&calm).unwrap();
    assert!(receipt.matched.is_empty());
    assert_eq!(
        broker.metrics().events_published as usize,
        timeline.len() + 1
    );

    // Once the broad don't-care subscriptions are gone, quenching bites:
    // keep only the heat watcher and publish the same calm event.
    broker.unsubscribe(drought.id()).unwrap();
    broker.unsubscribe(storm.id()).unwrap();
    assert!(
        !broker.quench_advice().allows(&calm).unwrap(),
        "temperature 0 is now in D0"
    );
}

#[test]
fn churn_does_not_disturb_delivery() {
    let s = schema();
    let broker = Broker::new(&s, BrokerConfig::default()).unwrap();
    let keep = broker
        .subscribe_parsed("profile(temperature >= 30)")
        .unwrap();
    for round in 0..10 {
        let temp = broker
            .subscribe(|b| b.predicate("humidity", Predicate::ge(50 + round)))
            .unwrap();
        broker.publish(&event(&s, 40, 90, 0)).unwrap();
        assert!(temp.try_recv().is_some(), "round {round}");
        broker.unsubscribe(temp.id()).unwrap();
        broker.publish(&event(&s, 40, 0, 0)).unwrap();
    }
    assert_eq!(keep.pending(), 20, "kept subscription saw every event");
    assert_eq!(broker.subscription_count(), 1);
}

#[test]
fn adaptive_rebuilds_do_not_lose_notifications() {
    let s = schema();
    let broker = Broker::new(
        &s,
        BrokerConfig {
            tree: TreeConfig {
                search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
                ..TreeConfig::default()
            },
            rebuild: RebuildPolicy {
                min_events: 30,
                drift_threshold: 0.15,
                ..RebuildPolicy::default()
            },
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let hot = broker
        .subscribe_parsed("profile(temperature >= 35)")
        .unwrap();
    let cold = broker
        .subscribe_parsed("profile(temperature <= -15)")
        .unwrap();
    let mut expected_hot = 0;
    let mut expected_cold = 0;
    for phase in 0..4 {
        for k in 0..100i64 {
            let t = if phase % 2 == 0 {
                40 + (k % 5)
            } else {
                -20 - (k % 5)
            };
            broker.publish(&event(&s, t, 50, 10)).unwrap();
            if t >= 35 {
                expected_hot += 1;
            } else {
                expected_cold += 1;
            }
        }
    }
    assert!(
        broker.metrics().tree_rebuilds >= 1,
        "drift must trigger rebuilds"
    );
    assert_eq!(hot.pending(), expected_hot);
    assert_eq!(cold.pending(), expected_cold);
}
