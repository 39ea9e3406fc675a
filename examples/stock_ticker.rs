//! Stock ticker — the paper's other §1 scenario: "users are mainly
//! interested in a small range of values for certain shares; the event
//! data display high concentrations at selected values". The broker
//! filters a skewed trade stream and the adaptive tree keeps the hot
//! price bands at the front of every node.
//!
//! Run with `cargo run --example stock_ticker`.

use ens::filter::{Direction, RebuildPolicy, SearchStrategy, TreeConfig, ValueOrder};
use ens::service::{Broker, BrokerConfig};
use ens::workloads::scenario;
use ens::workloads::EventGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = scenario::stock_schema();
    let mut rng = StdRng::seed_from_u64(99);

    let broker = Broker::new(
        &schema,
        BrokerConfig {
            tree: TreeConfig {
                search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
                ..TreeConfig::default()
            },
            rebuild: RebuildPolicy {
                min_events: 2_000,
                drift_threshold: 0.2,
                ..RebuildPolicy::default()
            },
            ..BrokerConfig::default()
        },
    )?;

    // Traders watch narrow price bands of specific symbols.
    let profiles = scenario::stock_profiles(400, &mut rng)?;
    let mut handles = Vec::new();
    for p in profiles.iter() {
        handles.push(broker.subscribe_profile(p.clone())?);
    }
    println!("{} subscriptions registered", broker.subscription_count());

    // A skewed trade stream (hot symbols, two active price bands).
    let generator = EventGenerator::new(&schema, scenario::stock_event_model()?)?;
    let n = 10_000;
    for _ in 0..n {
        broker.publish(&generator.sample(&mut rng))?;
    }

    let m = broker.metrics();
    println!(
        "published {} trades, delivered {} notifications ({:.4} per trade)",
        m.events_published,
        m.notifications_sent,
        m.notifications_sent as f64 / m.events_published as f64
    );
    println!(
        "filter spent {:.3} comparison ops per trade; tree rebuilt {} time(s)",
        m.avg_ops_per_event(),
        m.tree_rebuilds
    );

    let busiest = handles
        .iter()
        .max_by_key(|h| h.pending())
        .expect("at least one subscription");
    println!(
        "busiest subscription {} queued {} notifications",
        busiest.id(),
        busiest.pending()
    );
    Ok(())
}
