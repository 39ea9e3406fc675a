//! Adaptive restructuring under distribution drift — the §5 scenario:
//! "the algorithm … has to maintain a history of events in order to
//! determine the event distribution". Traffic alternates between two
//! peaks; the broker's drift detector notices, the cost model (Eq. 2)
//! prices a rebuild against the tree in place, and a rebuild that pays
//! for itself reorders each node so the currently hot subrange is
//! scanned first. `Broker::decisions` says what was decided and on
//! which numbers.
//!
//! Run with `cargo run --example adaptive_service`.

use ens::dist::{Density, DistOverDomain};
use ens::filter::{Direction, RebuildPolicy, SearchStrategy, TreeConfig, ValueOrder};
use ens::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::builder()
        .attribute("reading", Domain::int(0, 99))?
        .build();
    let broker = Broker::new(
        &schema,
        BrokerConfig {
            tree: TreeConfig {
                search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
                ..TreeConfig::default()
            },
            rebuild: RebuildPolicy {
                min_events: 300,
                drift_threshold: 0.25,
                ..RebuildPolicy::default()
            },
            ..BrokerConfig::default()
        },
    )?;
    let bands = (10..20).chain(80..90).map(|v| {
        Profile::builder(&schema)
            .predicate("reading", Predicate::eq(v))
            .map(|b| b.build(ProfileId::new(0)))
    });
    let subscribers = broker.subscribe_many(bands.collect::<Result<Vec<_>, _>>()?)?;

    let low = DistOverDomain::new(Density::peak(0.10, 0.10, 0.9)?, 100);
    let high = DistOverDomain::new(Density::peak(0.80, 0.10, 0.9)?, 100);
    let mut rng = StdRng::seed_from_u64(3);

    let phases = [
        ("low-peak", &low, 1_000),
        ("high-peak", &high, 6_000),
        ("low-peak", &low, 12_000),
    ];
    for (i, (name, dist, n)) in phases.into_iter().enumerate() {
        let mut ops = 0u64;
        for _ in 0..n {
            let idx = dist.sample_index(&mut rng);
            let e = Event::builder(&schema)
                .value("reading", idx as i64)?
                .build();
            ops += broker.publish(&e)?.ops;
        }
        for s in &subscribers {
            while s.try_recv().is_some() {}
        }
        let m = broker.metrics();
        println!(
            "phase {i} ({name:<9}): {:.3} ops/event, {} rebuild(s) and {} declined trigger(s) so far",
            ops as f64 / n as f64,
            m.tree_rebuilds,
            m.drift_declined,
        );
    }
    println!("what the adaptive loop decided, oldest first:");
    for decision in broker.decisions() {
        println!("  {decision:?}");
    }
    println!(
        "a hit on the currently hot band now costs {} op(s)",
        broker
            .publish(&Event::builder(&schema).value("reading", 15)?.build())?
            .ops
    );
    Ok(())
}
