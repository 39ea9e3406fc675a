//! Composite events — the paper's §5 extension: temporal combinations
//! of primitive profile matches. A fire-risk warning fires when heat
//! AND drought are followed by wind within a time window.
//!
//! Run with `cargo run --example composite_events`.

use ens::composite::{CompositeDetector, CompositeExpr};
use ens::prelude::*;
use ens::service::BrokerConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::builder()
        .attribute("temperature", Domain::int(-30, 50))?
        .attribute("humidity", Domain::int(0, 100))?
        .attribute("wind", Domain::int(0, 120))?
        .build();

    let broker = Broker::new(&schema, BrokerConfig::default())?;
    let heat = broker.subscribe_parsed("profile(temperature >= 35)")?;
    let drought = broker.subscribe_parsed("profile(humidity <= 20)")?;
    let storm = broker.subscribe_parsed("profile(wind >= 70)")?;

    let mut detector = CompositeDetector::new();
    let fire_risk = detector.register(
        CompositeExpr::seq(
            CompositeExpr::and(
                CompositeExpr::Primitive(heat.id()),
                CompositeExpr::Primitive(drought.id()),
            ),
            CompositeExpr::Primitive(storm.id()),
        ),
        60, // minutes
    );
    println!(
        "registered composite {fire_risk}: (heat AND drought) ; storm within 60 min over {:?}",
        detector.primitives(fire_risk)?
    );

    // A day of observations (time in minutes).
    let observations: [(u64, i64, i64, i64); 5] = [
        (0, 30, 60, 10),   // calm morning
        (120, 38, 45, 20), // heat arrives
        (150, 39, 15, 25), // drought too -> AND satisfied at t=150
        (190, 37, 18, 85), // storm within the window -> fire risk!
        (400, 36, 15, 90), // storm again, but the AND is stale by now
    ];
    for (t, temp, hum, wind) in observations {
        let e = Event::builder(&schema)
            .value("temperature", temp)?
            .value("humidity", hum)?
            .value("wind", wind)?
            .build();
        let receipt = broker.publish(&e)?;
        let fired = detector.observe(&receipt.matched, t);
        println!(
            "t={t:>3} min: matched {:?} -> composites fired: {:?}",
            receipt.matched, fired
        );
    }
    Ok(())
}
