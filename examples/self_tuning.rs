//! Self-tuning demonstration — distribution drift → automatic retune.
//!
//! Runs the hot-band-migration drift workload through two brokers:
//! a static one (optimised for phase A, never adapts) and a
//! self-tuning one (online statistics + cost-model-priced retunes).
//! Prints the per-phase cost and the broker metrics before and after
//! the automatic retune.
//!
//! Run with `cargo run --release --example self_tuning`.

use ens::filter::{Direction, RebuildPolicy, SearchStrategy, TreeConfig, ValueOrder};
use ens::service::{Broker, BrokerConfig, Subscriber};
use ens::types::Event;
use ens::workloads::{hot_band_migration, DriftWorkload};

fn broker(
    w: &DriftWorkload,
    tuned: bool,
) -> Result<(Broker, Vec<Subscriber>), Box<dyn std::error::Error>> {
    let tree = TreeConfig {
        // V1: scan each node's edges in event-probability order —
        // great while the assumed distribution matches the traffic.
        search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        // The phase-A model acts as the prior until real observations
        // exist, so both brokers start optimal for phase A.
        event_model: Some(w.model_a.clone()),
        ..TreeConfig::default()
    };
    let config = if tuned {
        BrokerConfig {
            tree,
            rebuild: RebuildPolicy {
                min_events: 256,
                drift_threshold: 0.6,
                ..RebuildPolicy::default()
            },
            tuning: true,
            ..BrokerConfig::default()
        }
    } else {
        BrokerConfig {
            tree,
            stats_sample: 0, // static: no statistics, no adaptation
            ..BrokerConfig::default()
        }
    };
    let b = Broker::new(&w.schema, config)?;
    let subs = b.subscribe_many(w.profiles.iter().cloned())?;
    Ok((b, subs))
}

fn run_phase(
    b: &Broker,
    subs: &[Subscriber],
    events: &[Event],
) -> Result<f64, Box<dyn std::error::Error>> {
    let mut ops = 0u64;
    for e in events {
        ops += b.publish(e)?.ops;
    }
    for s in subs {
        while s.try_recv().is_some() {}
    }
    Ok(ops as f64 / events.len() as f64)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = hot_band_migration(7, 600, 2_000)?;
    println!(
        "workload: {} profiles (narrow reading bands), {} events/phase, hot band migrates high → low\n",
        w.profiles.len(),
        w.phase_a.len()
    );

    let (static_broker, static_subs) = broker(&w, false)?;
    let (tuned_broker, tuned_subs) = broker(&w, true)?;

    println!("phase A (traffic on the hot band both trees were built for):");
    println!(
        "  static broker: {:6.1} ops/event",
        run_phase(&static_broker, &static_subs, &w.phase_a)?
    );
    println!(
        "  tuning broker: {:6.1} ops/event",
        run_phase(&tuned_broker, &tuned_subs, &w.phase_a)?
    );
    println!("  tuning broker metrics: {}\n", tuned_broker.metrics());

    println!("phase B (hot band migrated — stale ordering scans the wrong end):");
    println!(
        "  static broker: {:6.1} ops/event  (degraded, never adapts)",
        run_phase(&static_broker, &static_subs, &w.phase_b)?
    );
    println!(
        "  tuning broker: {:6.1} ops/event  (drift fired, cost model re-chose the ordering)",
        run_phase(&tuned_broker, &tuned_subs, &w.phase_b)?
    );
    let m = tuned_broker.metrics();
    println!("  tuning broker metrics: {m}\n");

    println!("phase B again (steady state after the retune):");
    println!(
        "  static broker: {:6.1} ops/event",
        run_phase(&static_broker, &static_subs, &w.phase_b)?
    );
    println!(
        "  tuning broker: {:6.1} ops/event  (predicted {:.1})",
        run_phase(&tuned_broker, &tuned_subs, &w.phase_b)?,
        m.predicted_ops_per_event
    );
    println!(
        "  retunes: {} accepted, {} drift triggers declined; pricing overhead: {:.2} ms total",
        m.retunes,
        m.drift_declined,
        m.tuning_nanos as f64 / 1e6,
    );
    assert!(m.retunes >= 1, "the drift workload must trigger a retune");
    Ok(())
}
