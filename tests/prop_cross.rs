//! Property-based cross-crate tests: random profile sets and events,
//! all matcher implementations must agree with the predicate oracle and
//! the analytic cost model must agree with measured averages.

use ens::dist::{Density, DistOverDomain, JointDist};
use ens::filter::baseline::NaiveMatcher;
use ens::filter::{
    CostModel, Dfsa, Direction, MatchScratch, Matcher, OverlayIndex, ProfileTree, SearchStrategy,
    TreeConfig, ValueOrder,
};
use ens::prelude::*;
use ens::types::{IndexedEvent, Profile};
use proptest::prelude::*;

const DOMAIN_SIZES: [u64; 3] = [16, 12, 8];

fn schema() -> Schema {
    Schema::builder()
        .attribute("a", Domain::int(0, DOMAIN_SIZES[0] as i64 - 1))
        .unwrap()
        .attribute("b", Domain::int(0, DOMAIN_SIZES[1] as i64 - 1))
        .unwrap()
        .attribute("c", Domain::int(0, DOMAIN_SIZES[2] as i64 - 1))
        .unwrap()
        .build()
}

fn arb_predicate(domain: u64) -> impl Strategy<Value = Predicate> {
    let v = 0..domain as i64;
    prop_oneof![
        2 => Just(Predicate::DontCare),
        2 => v.clone().prop_map(Predicate::eq),
        1 => v.clone().prop_map(Predicate::ne),
        1 => v.clone().prop_map(Predicate::le),
        1 => v.clone().prop_map(Predicate::ge),
        2 => (v.clone(), v.clone()).prop_map(|(a, b)| Predicate::between(a.min(b), a.max(b))),
        1 => prop::collection::vec(v, 1..4).prop_map(Predicate::in_set),
    ]
}

fn arb_profiles(max: usize) -> impl Strategy<Value = ProfileSet> {
    prop::collection::vec(
        (
            arb_predicate(DOMAIN_SIZES[0]),
            arb_predicate(DOMAIN_SIZES[1]),
            arb_predicate(DOMAIN_SIZES[2]),
        ),
        1..max,
    )
    .prop_map(|triples| {
        let schema = schema();
        let mut ps = ProfileSet::new(&schema);
        for (a, b, c) in triples {
            let p = Profile::from_predicates(&schema, 0.into(), vec![a, b, c]).unwrap();
            ps.insert(p);
        }
        ps
    })
}

fn arb_event() -> impl Strategy<Value = (Option<i64>, Option<i64>, Option<i64>)> {
    (
        prop::option::of(0..DOMAIN_SIZES[0] as i64),
        prop::option::of(0..DOMAIN_SIZES[1] as i64),
        prop::option::of(0..DOMAIN_SIZES[2] as i64),
    )
}

fn build_event(schema: &Schema, t: &(Option<i64>, Option<i64>, Option<i64>)) -> Event {
    let values = vec![
        t.0.map(Value::Int),
        t.1.map(Value::Int),
        t.2.map(Value::Int),
    ];
    Event::from_values(schema, values).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every matcher agrees with the oracle on arbitrary events.
    #[test]
    fn matchers_agree_with_oracle(ps in arb_profiles(12), events in prop::collection::vec(arb_event(), 8)) {
        let schema = ps.schema().clone();
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let binary = ProfileTree::build(&ps, &TreeConfig {
            search: SearchStrategy::Binary,
            ..TreeConfig::default()
        }).unwrap();
        let dfsa = Dfsa::from_tree(&tree);
        let naive = NaiveMatcher::new(&ps).unwrap();
        // The counting baseline: the overlay index over the whole set.
        let counting = OverlayIndex::new(&ps).unwrap();
        let mut scratch = MatchScratch::new();
        for t in &events {
            let e = build_event(&schema, t);
            let oracle = ps.matches(&e).unwrap();
            let via_tree = tree.match_event(&schema, &e).unwrap();
            prop_assert_eq!(via_tree.profiles(), oracle.as_slice());
            let via_binary = binary.match_event(&schema, &e).unwrap();
            prop_assert_eq!(via_binary.profiles(), oracle.as_slice());
            prop_assert_eq!(dfsa.match_event(&schema, &e).unwrap().profiles(), oracle.as_slice());
            let via_naive = naive.match_event(&schema, &e).unwrap();
            prop_assert_eq!(via_naive.profiles(), oracle.as_slice());
            counting.match_into(&IndexedEvent::resolve(&schema, &e).unwrap(), &mut scratch);
            prop_assert_eq!(scratch.profiles(), oracle.as_slice());
        }
    }

    /// The analytic expectation equals the exhaustive average over the
    /// full event space under the uniform model (domains are small
    /// enough to enumerate).
    #[test]
    fn cost_model_matches_exhaustive_enumeration(ps in arb_profiles(8)) {
        let schema = ps.schema().clone();
        let joint = JointDist::independent(
            DOMAIN_SIZES.iter().map(|d| DistOverDomain::new(Density::Uniform, *d)).collect(),
        ).unwrap();
        for search in [
            SearchStrategy::Linear(ValueOrder::Natural(Direction::Ascending)),
            SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            SearchStrategy::Binary,
        ] {
            let tree = ProfileTree::build(&ps, &TreeConfig {
                search,
                event_model: Some(joint.clone()),
                ..TreeConfig::default()
            }).unwrap();
            let analytic = CostModel::new(&tree, &joint).unwrap().evaluate().unwrap();
            let mut total_ops = 0u64;
            let mut notifications = 0u64;
            let mut matches = 0u64;
            let mut count = 0u64;
            for a in 0..DOMAIN_SIZES[0] as i64 {
                for b in 0..DOMAIN_SIZES[1] as i64 {
                    for c in 0..DOMAIN_SIZES[2] as i64 {
                        let e = build_event(&schema, &(Some(a), Some(b), Some(c)));
                        let out = tree.match_event(&schema, &e).unwrap();
                        total_ops += out.ops();
                        notifications += out.profiles().len() as u64;
                        matches += u64::from(out.is_match());
                        count += 1;
                    }
                }
            }
            let avg = total_ops as f64 / count as f64;
            prop_assert!((avg - analytic.expected_total_ops()).abs() < 1e-6,
                "{search:?}: enumerated {avg} vs analytic {}", analytic.expected_total_ops());
            let avg_match = matches as f64 / count as f64;
            prop_assert!((avg_match - analytic.match_probability()).abs() < 1e-6);
            let avg_notif = notifications as f64 / count as f64;
            prop_assert!((avg_notif - analytic.expected_notifications()).abs() < 1e-6);
        }
    }

    /// Attribute order never changes match semantics, only cost.
    #[test]
    fn attribute_order_is_semantically_transparent(ps in arb_profiles(10), events in prop::collection::vec(arb_event(), 6)) {
        let schema = ps.schema().clone();
        let natural = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let reordered = ProfileTree::build(&ps, &TreeConfig {
            attribute_order: ens::filter::AttributeOrder::Explicit(vec![
                ens::types::AttrId::new(2),
                ens::types::AttrId::new(0),
                ens::types::AttrId::new(1),
            ]),
            ..TreeConfig::default()
        }).unwrap();
        for t in &events {
            let e = build_event(&schema, t);
            let a = natural.match_event(&schema, &e).unwrap();
            let b = reordered.match_event(&schema, &e).unwrap();
            prop_assert_eq!(a.profiles(), b.profiles());
        }
    }

    /// Ablations change costs, never results.
    #[test]
    fn ablations_preserve_semantics(ps in arb_profiles(10), events in prop::collection::vec(arb_event(), 6)) {
        let schema = ps.schema().clone();
        let default = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let ablated = ProfileTree::build(&ps, &TreeConfig {
            disable_early_termination: true,
            disable_cell_merging: true,
            ..TreeConfig::default()
        }).unwrap();
        for t in &events {
            let e = build_event(&schema, t);
            let a = default.match_event(&schema, &e).unwrap();
            let b = ablated.match_event(&schema, &e).unwrap();
            prop_assert_eq!(a.profiles(), b.profiles());
            // Removing early termination can only increase the cost.
            prop_assert!(b.ops() >= a.ops());
        }
    }
}
