//! Inspecting the profile tree: reproduce the paper's Example 1 / Fig. 1
//! structure, print the tree, the attribute selectivities and the
//! analytic cost breakdown, then reorder it like Fig. 2 and compare.
//!
//! Run with `cargo run --example tree_inspection`.

use ens::dist::{Density, DistOverDomain, JointDist};
use ens::filter::{
    attribute_selectivities, AttributeMeasure, AttributeOrder, AttributePartition, CostModel,
    Direction, ProfileTree, SearchStrategy, TreeConfig, ValueOrder,
};
use ens::prelude::*;
use ens::types::parse::parse_profile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Example 1 of the paper.
    let schema = Schema::builder()
        .attribute("a1", Domain::int(-30, 50))?
        .attribute("a2", Domain::int(0, 100))?
        .attribute("a3", Domain::int(1, 100))?
        .build();
    let mut profiles = ProfileSet::new(&schema);
    for text in [
        "profile(a1 >= 35; a2 >= 90)",                         // P1
        "profile(a1 >= 30; a2 >= 90)",                         // P2
        "profile(a1 >= 30; a2 >= 90; a3 in [35, 50])",         // P3
        "profile(a1 in [-30, -20]; a2 <= 5; a3 in [40, 100])", // P4
        "profile(a1 >= 30; a2 >= 80)",                         // P5
    ] {
        profiles.insert(parse_profile(&schema, text, 0.into())?);
    }

    // The Example-3 event model (window mixtures over the grids).
    let w = |lo: f64, hi: f64, d: f64| Density::window(lo / d, hi / d);
    let joint = JointDist::independent(vec![
        DistOverDomain::new(
            Density::Mixture(vec![
                (0.02, w(0.0, 11.0, 81.0)),
                (0.17, w(11.0, 60.0, 81.0)),
                (0.01, w(60.0, 65.0, 81.0)),
                (0.80, w(65.0, 81.0, 81.0)),
            ]),
            81,
        ),
        DistOverDomain::new(
            Density::Mixture(vec![
                (0.05, w(0.0, 6.0, 101.0)),
                (0.60, w(6.0, 80.0, 101.0)),
                (0.25, w(80.0, 90.0, 101.0)),
                (0.10, w(90.0, 101.0, 101.0)),
            ]),
            101,
        ),
        DistOverDomain::new(
            Density::Mixture(vec![
                (0.90, w(0.0, 34.0, 100.0)),
                (0.05, w(34.0, 39.0, 100.0)),
                (0.02, w(39.0, 50.0, 100.0)),
                (0.03, w(50.0, 100.0, 100.0)),
            ]),
            100,
        ),
    ])?;

    let natural = ProfileTree::build(&profiles, &TreeConfig::default())?;
    println!("=== Fig. 1: the natural-order profile tree ===");
    print!("{}", natural.render());

    // The global elementary subranges of each attribute (Fig. 1's edges
    // before the tree splits them per branch): what A1 and A2 rank.
    let partitions = schema
        .iter()
        .map(|(id, a)| AttributePartition::build(profiles.iter(), id, a.domain()))
        .collect::<Result<Vec<_>, _>>()?;
    let s1 = attribute_selectivities(AttributeMeasure::A1, &partitions, None)?;
    let s2 = attribute_selectivities(AttributeMeasure::A2, &partitions, Some(joint.marginals()))?;
    println!("\nattribute selectivities  A1 = {s1:?}");
    println!("                         A2 = {s2:?}");

    let reordered = ProfileTree::build(
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
    println!("\n=== Fig. 2: reordered by Measure A2, values by V1 ===");
    print!("{}", reordered.render());

    println!("\n=== expected cost per event (Eq. 2) ===");
    for (name, tree) in [("natural", &natural), ("A2 + V1", &reordered)] {
        let cost = CostModel::new(tree, &joint)?.evaluate()?;
        print!("{name:<9}: R = {:.3} (", cost.expected_total_ops());
        for (k, level) in cost.per_level().iter().enumerate() {
            if k > 0 {
                print!(" + ");
            }
            print!(
                "{}: {:.3}",
                tree.schema().attribute(level.attr).name(),
                level.match_ops + level.reject_ops
            );
        }
        println!(")");
    }
    Ok(())
}
