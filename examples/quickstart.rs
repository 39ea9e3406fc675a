//! Quickstart: define a schema, subscribe profiles, match events.
//!
//! Run with `cargo run --example quickstart`.

use ens::prelude::*;
use ens::types::parse::{parse_event, parse_profile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The attribute universe (paper Example 1).
    let schema = Schema::builder()
        .attribute("temperature", Domain::int(-30, 50))?
        .attribute("humidity", Domain::int(0, 100))?
        .attribute("radiation", Domain::int(1, 100))?
        .build();

    // 2. Profiles — built programmatically or parsed from text.
    let mut profiles = ProfileSet::new(&schema);
    profiles.insert_with(|b| {
        b.predicate("temperature", Predicate::ge(35))?
            .predicate("humidity", Predicate::ge(90))
    })?;
    profiles.insert(parse_profile(
        &schema,
        "profile(temperature >= 30; humidity >= 80)",
        0.into(),
    )?);
    profiles.insert(parse_profile(
        &schema,
        "profile(temperature in [-30, -20]; humidity <= 5; radiation in [40, 100])",
        0.into(),
    )?);

    // 3. Build the profile tree and match events.
    let tree = ProfileTree::build(&profiles, &TreeConfig::default())?;
    println!(
        "tree: {} inner nodes, {} edges, {} leaves for {} profiles",
        tree.node_count(),
        tree.edge_count(),
        tree.leaf_count(),
        tree.profile_count()
    );

    let event = parse_event(
        &schema,
        "event(temperature = 36; humidity = 92; radiation = 10)",
    )?;
    let outcome = tree.match_event(&schema, &event)?;
    println!(
        "event matched {} profile(s) in {} comparison operations: {:?}",
        outcome.profiles().len(),
        outcome.ops(),
        outcome.profiles()
    );

    // 4. Or run everything through the notification broker.
    let broker = Broker::new(&schema, ens::service::BrokerConfig::default())?;
    let alerts = broker.subscribe_parsed("profile(temperature >= 35)")?;
    broker.publish(&event)?;
    if let Some(n) = alerts.try_recv() {
        println!(
            "broker delivered notification #{} to {}",
            n.sequence, n.subscription
        );
    }
    Ok(())
}
