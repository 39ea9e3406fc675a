//! Quenching: reject unmatchable events at the producer (the Elvin
//! mechanism of §2, realised through the zero-subdomain `D0`).
//!
//! Run with `cargo run --example quenching`.

use ens::prelude::*;
use ens::service::BrokerConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::builder()
        .attribute("temperature", Domain::int(-30, 50))?
        .attribute("humidity", Domain::int(0, 100))?
        .build();

    let broker = Broker::new(&schema, BrokerConfig::default())?;
    let _heat = broker.subscribe_parsed("profile(temperature >= 40)")?;
    let _frost = broker.subscribe_parsed("profile(temperature <= -15; humidity >= 80)")?;

    // What may a producer drop at the source?
    let advice = broker.quench_advice();
    let coverage = advice.coverage_fractions();
    println!("covered fraction per attribute: {coverage:?}");
    for (id, a) in schema.iter() {
        let dead: Vec<String> = advice
            .quenchable(id)
            .iter()
            .map(ToString::to_string)
            .collect();
        println!(
            "  {}: {} quenchable interval(s): {}",
            a.name(),
            dead.len(),
            dead.join(", ")
        );
    }

    // A producer with the advice sends only what some profile can match;
    // the dead events never reach the broker.
    let mut quenched = 0;
    for t in (-30..=50).step_by(5) {
        let e = Event::builder(&schema)
            .value("temperature", t)?
            .value("humidity", 50)?
            .build();
        if advice.allows(&e)? {
            broker.publish(&e)?;
        } else {
            quenched += 1;
        }
    }
    let m = broker.metrics();
    println!(
        "published {} events; {} quenched at the source, {} notifications, {:.2} ops/event",
        m.events_published,
        quenched,
        m.notifications_sent,
        m.avg_ops_per_event()
    );
    Ok(())
}
