//! Property-based tests for the filter's structural invariants.

use ens_dist::{Density, DistOverDomain, JointDist};
use ens_filter::{
    binary_hit_cost, binary_miss_cost, AttributeMeasure, AttributeOrder, AttributePartition,
    BlockScratch, CostModel, Dfsa, Direction, FilterSnapshot, MatchScratch, Matcher, NodeOrdering,
    ProfileTree, SearchStrategy, SnapshotScratch, TreeConfig, ValueOrder,
};
use ens_types::{
    AttrId, CoverSet, Domain, Event, IndexedBatch, IndexedEvent, Predicate, Profile, ProfileId,
    ProfileSet, Schema, Value,
};
use proptest::prelude::*;

const D: u64 = 24;

fn schema1() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, D as i64 - 1))
        .unwrap()
        .build()
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let v = 0..D as i64;
    prop_oneof![
        v.clone().prop_map(Predicate::eq),
        v.clone().prop_map(Predicate::le),
        v.clone().prop_map(Predicate::ge),
        (v.clone(), v.clone()).prop_map(|(a, b)| Predicate::between(a.min(b), a.max(b))),
        v.clone().prop_map(Predicate::ne),
        prop::collection::vec(v, 1..4).prop_map(Predicate::in_set),
    ]
}

fn arb_profiles() -> impl Strategy<Value = ProfileSet> {
    prop::collection::vec(arb_predicate(), 1..14).prop_map(|preds| {
        let schema = schema1();
        let mut ps = ProfileSet::new(&schema);
        for p in preds {
            let profile = Profile::from_predicates(&schema, ProfileId::new(0), vec![p]).unwrap();
            ps.insert(profile);
        }
        ps
    })
}

/// Two attributes: a small domain (lowered to a jump-table DFSA state)
/// and a large one (binary-search state), to cover both state kinds.
const D2: i64 = 5_000;

fn schema2() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, D as i64 - 1))
        .unwrap()
        .attribute("y", Domain::int(0, D2 - 1))
        .unwrap()
        .build()
}

fn arb_predicate_for(hi: i64) -> impl Strategy<Value = Predicate> {
    let v = 0..hi;
    prop_oneof![
        Just(Predicate::DontCare),
        v.clone().prop_map(Predicate::eq),
        v.clone().prop_map(Predicate::le),
        v.clone().prop_map(Predicate::ge),
        (v.clone(), v.clone()).prop_map(|(a, b)| Predicate::between(a.min(b), a.max(b))),
        prop::collection::vec(v, 1..4).prop_map(Predicate::in_set),
    ]
}

fn arb_profiles2() -> impl Strategy<Value = ProfileSet> {
    prop::collection::vec((arb_predicate_for(D as i64), arb_predicate_for(D2)), 1..12).prop_map(
        |preds| {
            let schema = schema2();
            let mut ps = ProfileSet::new(&schema);
            for (px, py) in preds {
                let profile =
                    Profile::from_predicates(&schema, ProfileId::new(0), vec![px, py]).unwrap();
                ps.insert(profile);
            }
            ps
        },
    )
}

/// The distinct non-empty leaf lists of `tree`, read off its rendering.
fn distinct_leaves(tree: &ProfileTree) -> usize {
    let text = tree.render();
    let leaves = text
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("=> "));
    let lists: std::collections::BTreeSet<&str> = leaves.filter(|l| *l != "{}").collect();
    lists.len()
}

proptest! {
    /// Oracle agreement of every matching path: on random profile sets
    /// and random (possibly partial) events, the tree's `match_event`,
    /// the `match_into` fast path and the CSR DFSA return the oracle's
    /// profile set — including events with missing attributes and
    /// `(*)`-edge fallthrough past don't-care profiles — and the DFSA
    /// counts exactly the tree's operations, event by event, through
    /// `match_into` and `match_block`: under every search strategy, with
    /// and without early termination, for missing values and for values
    /// below and above a node's span (out-of-domain indices included).
    /// The automaton has one state per inner node and one leaf per
    /// distinct non-empty leaf list.
    #[test]
    fn fast_paths_agree_with_oracle(
        ps in arb_profiles2(),
        events in prop::collection::vec(
            (prop::option::of(0..D + 2), prop::option::of(0..D2 as u64 + 2)),
            1..16,
        ),
    ) {
        let schema = ps.schema().clone();
        let model = JointDist::independent(vec![
            DistOverDomain::new(Density::falling(), D),
            DistOverDomain::new(Density::Uniform, D2 as u64),
        ])
        .unwrap();
        let rows: Vec<IndexedEvent> = events
            .iter()
            .map(|&(x, y)| IndexedEvent::from_indices(vec![x, y]))
            .collect();
        let mut batch = IndexedBatch::new();
        batch.reset(schema.len());
        for row in &rows {
            batch.push_raw(row.raw());
        }
        let (mut scratch, mut by_tree) = (MatchScratch::new(), MatchScratch::new());
        let mut block = BlockScratch::new();
        let searches = ValueOrder::ALL
            .iter()
            .map(|o| SearchStrategy::Linear(*o))
            .chain([SearchStrategy::Binary, SearchStrategy::Interpolation, SearchStrategy::Hash]);
        for search in searches {
            for disable_early_termination in [false, true] {
                let config = TreeConfig {
                    search,
                    event_model: Some(model.clone()),
                    disable_early_termination,
                    ..TreeConfig::default()
                };
                let tree = ProfileTree::build(&ps, &config).unwrap();
                let dfsa = Dfsa::from_tree(&tree);
                prop_assert_eq!(dfsa.state_count(), tree.node_count(), "node i is state i");
                prop_assert_eq!(dfsa.leaf_count(), distinct_leaves(&tree), "each leaf list once");
                dfsa.match_block(&batch, &mut block);
                for (i, row) in rows.iter().enumerate() {
                    let at = (search, disable_early_termination, row.raw());
                    tree.match_into(row, &mut by_tree);
                    dfsa.match_into(row, &mut scratch);
                    prop_assert_eq!(scratch.profiles(), by_tree.profiles(), "CSR dfsa scratch {:?}", at);
                    prop_assert_eq!(scratch.ops(), by_tree.ops(), "dfsa ops {:?}", at);
                    prop_assert_eq!(block.profiles_of(i), by_tree.profiles(), "dfsa block {:?}", at);
                    prop_assert_eq!(block.ops_of(i), by_tree.ops(), "dfsa block ops {:?}", at);

                    let Ok(e) = row.to_event(&schema) else {
                        continue; // out of domain: no event, no oracle
                    };
                    let oracle = ps.matches(&e).unwrap();
                    prop_assert_eq!(by_tree.profiles(), oracle.as_slice(), "tree scratch {:?}", at);
                    let out = tree.match_event(&schema, &e).unwrap();
                    prop_assert_eq!(out.profiles(), oracle.as_slice(), "tree at {:?}", at);
                    prop_assert_eq!(out.ops(), by_tree.ops(), "scratch ops agree with match_event");
                    let out = dfsa.match_event(&schema, &e).unwrap();
                    prop_assert_eq!(out.profiles(), oracle.as_slice(), "CSR dfsa event {:?}", at);
                }
            }
        }
    }

    /// A tree keeps an event model only if its shape reads one. Under
    /// every search that reads none, in natural and A1 attribute order,
    /// covering on and off, a tree compiled with a model is the tree
    /// compiled without: no model kept, the same nodes, leaf pool and
    /// scan orders (one image, byte for byte), and the same matches and
    /// ops per event on both engines.
    #[test]
    fn a_model_the_shape_does_not_read_changes_nothing(
        ps in arb_profiles2(),
        events in prop::collection::vec(
            (prop::option::of(0..D), prop::option::of(0..D2 as u64)),
            1..16,
        ),
    ) {
        let schema = ps.schema().clone();
        let model = JointDist::independent(vec![
            DistOverDomain::new(Density::falling(), D),
            DistOverDomain::new(Density::peak(0.3, 0.2, 0.7).unwrap(), D2 as u64),
        ])
        .unwrap();
        let cover =
            CoverSet::build_bulk(&schema, ps.iter().map(|p| (p.id().index() as u32, p))).unwrap();
        let rows: Vec<IndexedEvent> = events
            .iter()
            .map(|&(x, y)| IndexedEvent::from_indices(vec![x, y]))
            .collect();
        let (mut with_scratch, mut without_scratch) =
            (SnapshotScratch::new(), SnapshotScratch::new());
        let searches = ValueOrder::ALL
            .iter()
            .map(|o| SearchStrategy::Linear(*o))
            .chain([SearchStrategy::Binary, SearchStrategy::Interpolation, SearchStrategy::Hash])
            .filter(|s| !s.needs_event_model());
        let orders = [
            AttributeOrder::Natural,
            AttributeOrder::Selectivity {
                measure: AttributeMeasure::A1,
                direction: Direction::Descending,
            },
        ];
        for search in searches {
            for order in &orders {
                for covering in [false, true] {
                    let compile = |event_model| {
                        let config = TreeConfig {
                            attribute_order: order.clone(),
                            search,
                            event_model,
                            ..TreeConfig::default()
                        };
                        if covering {
                            FilterSnapshot::compile_with_cover(&ps, &cover, &config).unwrap()
                        } else {
                            FilterSnapshot::compile(&ps, &config).unwrap()
                        }
                    };
                    let (with, without) = (compile(Some(model.clone())), compile(None));
                    let at = (search, order, covering);
                    prop_assert!(with.tree().config().event_model.is_none(), "{:?}", at);
                    prop_assert_eq!(with.tree().node_count(), without.tree().node_count());
                    prop_assert_eq!(with.dfsa().leaf_count(), without.dfsa().leaf_count());
                    prop_assert!(with.to_bytes() == without.to_bytes(), "{:?}", at);
                    for row in &rows {
                        for use_dfsa in [false, true] {
                            with.match_into(row, &mut with_scratch, use_dfsa);
                            without.match_into(row, &mut without_scratch, use_dfsa);
                            prop_assert_eq!(with_scratch.matched(), without_scratch.matched());
                            prop_assert_eq!(with_scratch.ops(), without_scratch.ops(), "{:?}", at);
                        }
                    }
                }
            }
        }
    }

    /// Partition invariants: cells tile the domain; every referenced cell
    /// is covered by exactly the profiles whose predicate contains it;
    /// the referenced-cell count respects the 2p-1 bound.
    #[test]
    fn partition_invariants(ps in arb_profiles()) {
        let schema = ps.schema();
        let attr = AttrId::new(0);
        let domain = schema.attribute(attr).domain();
        let part = AttributePartition::build(ps.iter(), attr, domain).unwrap();

        // Tiling.
        let mut cursor = 0;
        for cell in part.cells() {
            prop_assert_eq!(cell.interval().lo(), cursor);
            cursor = cell.interval().hi();
        }
        prop_assert_eq!(cursor, domain.size());

        // Coverage labels agree with direct predicate evaluation at
        // every point of every cell.
        for cell in part.cells() {
            for i in cell.interval().lo()..cell.interval().hi() {
                let v = domain.value_at(i);
                for p in ps.iter() {
                    let covers = !p.predicate(attr).is_dont_care()
                        && p.predicate(attr).matches(domain, &v).unwrap();
                    prop_assert_eq!(
                        cell.profiles().contains(&p.id()),
                        covers,
                        "cell {:?} point {} profile {}", cell.interval(), i, p.id()
                    );
                }
            }
        }

        // The 2p-1 bound on referenced subranges. Multi-interval
        // predicates (Ne, In) contribute more endpoints, so apply the
        // bound in terms of total intervals.
        let interval_count: usize = ps
            .iter()
            .map(|p| p.predicate(attr).to_intervals(domain).unwrap().iter().count())
            .sum();
        prop_assert!(part.referenced_cells().count() <= 2 * interval_count.max(1));

        // zero_len + covered mass = domain when nothing is don't-care.
        let covered: u64 = part.referenced_cells().map(|c| c.interval().len()).sum();
        prop_assert_eq!(covered + part.uncovered_len(), domain.size());
    }

    /// Every strategy's node ordering is internally consistent: `visit`
    /// is a permutation, hit costs are within [1, m], miss costs within
    /// [1, max(1, m)].
    #[test]
    fn node_ordering_consistency(
        m in 1usize..12,
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let edge_pe: Vec<f64> = (0..m).map(|_| rng.gen::<f64>()).collect();
        let edge_pp: Vec<f64> = (0..m).map(|_| rng.gen::<f64>()).collect();
        let gap_pe: Vec<f64> = (0..=m).map(|_| rng.gen::<f64>() * 0.2).collect();
        let strategies: Vec<SearchStrategy> = ValueOrder::ALL
            .iter()
            .map(|o| SearchStrategy::Linear(*o))
            .chain([SearchStrategy::Binary])
            .collect();
        for s in strategies {
            let o = NodeOrdering::compute(s, &edge_pe, &edge_pp, &gap_pe);
            let mut visit = o.visit.clone();
            visit.sort_unstable();
            prop_assert_eq!(visit, (0..m as u32).collect::<Vec<_>>(), "{:?}", s);
            for c in &o.hit_cost {
                prop_assert!(*c >= 1 && *c as usize <= m, "{s:?} hit {c}");
            }
            for c in &o.miss_cost {
                prop_assert!(*c >= 1 && *c as usize <= m.max(1), "{s:?} miss {c}");
            }
        }
    }

    /// Binary costs match the information-theoretic bounds.
    #[test]
    fn binary_cost_bounds(m in 1usize..200) {
        let bound = (m as f64).log2().floor() as u32 + 1;
        let best = (0..m).map(|i| binary_hit_cost(m, i)).min().unwrap();
        prop_assert_eq!(best, 1, "the first probe hits the midpoint");
        for i in 0..m {
            prop_assert!(binary_hit_cost(m, i) <= bound);
        }
        for g in 0..=m {
            prop_assert!(binary_miss_cost(m, g) <= bound);
        }
    }

    /// Analytic expectation equals exhaustive enumeration for every
    /// search strategy, on single-attribute workloads with an arbitrary
    /// peaked event distribution.
    #[test]
    fn analytic_equals_enumeration(ps in arb_profiles(), peak_pos in 0.0f64..0.8) {
        let schema = ps.schema().clone();
        let dist = DistOverDomain::new(Density::peak(peak_pos, 0.2, 0.7).unwrap(), D);
        let joint = JointDist::independent(vec![dist.clone()]).unwrap();
        for search in [
            SearchStrategy::Linear(ValueOrder::Natural(Direction::Ascending)),
            SearchStrategy::Linear(ValueOrder::Natural(Direction::Descending)),
            SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending)),
            SearchStrategy::Linear(ValueOrder::Combined(Direction::Descending)),
            SearchStrategy::Binary,
            SearchStrategy::Interpolation,
            SearchStrategy::Hash,
        ] {
            let tree = ProfileTree::build(&ps, &TreeConfig {
                search,
                event_model: Some(joint.clone()),
                ..TreeConfig::default()
            }).unwrap();
            let analytic = CostModel::new(&tree, &joint).unwrap().evaluate().unwrap();
            let mut expected = 0.0;
            for i in 0..D {
                let e = Event::builder(&schema)
                    .value("x", Value::Int(i as i64))
                    .unwrap()
                    .build();
                let out = tree.match_event(&schema, &e).unwrap();
                expected += dist.prob_index(i) * out.ops() as f64;
                // Matching is always oracle-correct.
                let oracle = ps.matches(&e).unwrap();
                prop_assert_eq!(out.profiles(), oracle.as_slice());
            }
            prop_assert!(
                (expected - analytic.expected_total_ops()).abs() < 1e-9,
                "{search:?}: enumerated {expected} vs analytic {}",
                analytic.expected_total_ops()
            );
        }
    }

    /// Profile weights never change matching, and uniform weights match
    /// the unweighted tree's costs exactly.
    #[test]
    fn uniform_weights_are_identity(ps in arb_profiles(), x in 0..D as i64) {
        let schema = ps.schema().clone();
        let v2 = SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending));
        let unweighted = ProfileTree::build(&ps, &TreeConfig {
            search: v2,
            ..TreeConfig::default()
        }).unwrap();
        let weighted = ProfileTree::build(&ps, &TreeConfig {
            search: v2,
            profile_weights: Some(vec![2.5; ps.len()]),
            ..TreeConfig::default()
        }).unwrap();
        let e = Event::builder(&schema).value("x", x).unwrap().build();
        let a = unweighted.match_event(&schema, &e).unwrap();
        let b = weighted.match_event(&schema, &e).unwrap();
        prop_assert_eq!(a.profiles(), b.profiles());
        prop_assert_eq!(a.ops(), b.ops());
    }
}
