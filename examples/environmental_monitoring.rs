//! Environmental monitoring with catastrophe warnings — the paper's §1
//! motivating scenario: sensor values are broadly distributed, but users
//! subscribe to a small range of high-importance values, so the
//! distribution-aware tree rejects almost all readings after one or two
//! comparisons.
//!
//! Run with `cargo run --example environmental_monitoring`.

use ens::filter::{
    AttributeMeasure, AttributeOrder, CostModel, Dfsa, Direction, Matcher, SearchStrategy,
    TreeConfig, ValueOrder,
};
use ens::workloads::scenario;
use ens::workloads::EventGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(7);
    let profiles = scenario::environmental_profiles(300, &mut rng)?;
    let joint = scenario::environmental_event_model()?;
    let generator = EventGenerator::new(&schema, joint.clone())?;

    println!(
        "{} catastrophe/comfort profiles over {schema}",
        profiles.len()
    );

    // Compare the plain tree against the fully distribution-optimised
    // one (V1 value order + A2 attribute order).
    let plain = Dfsa::build(&profiles, &TreeConfig::default())?;
    let optimised = Dfsa::build(
        &profiles,
        &TreeConfig {
            attribute_order: AttributeOrder::Selectivity {
                measure: AttributeMeasure::A2,
                direction: Direction::Descending,
            },
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            event_model: Some(joint.clone()),
            ..TreeConfig::default()
        },
    )?;

    for (name, tree) in [
        ("natural/natural-order", &plain),
        ("A2/V1-optimised", &optimised),
    ] {
        let expected = CostModel::new(tree, &joint)?.evaluate()?;
        println!(
            "{name:<24} expected {:>7.3} ops/event  (match probability {:.3})",
            expected.expected_total_ops(),
            expected.match_probability()
        );
    }

    // Measured confirmation over a sampled day of sensor readings.
    let mut ops = [0u64; 2];
    let mut alerts = 0u64;
    let n = 20_000;
    for _ in 0..n {
        let e = generator.sample(&mut rng);
        ops[0] += plain.match_event(&schema, &e)?.ops();
        let out = optimised.match_event(&schema, &e)?;
        ops[1] += out.ops();
        alerts += u64::from(out.is_match());
    }
    println!(
        "measured over {n} readings: plain {:.3} ops/event, optimised {:.3} ops/event, {alerts} alerts",
        ops[0] as f64 / n as f64,
        ops[1] as f64 / n as f64,
    );
    Ok(())
}
