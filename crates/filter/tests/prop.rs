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

/// Like [`schema2`], with a domain just wide enough for binary-search
/// states, so that a model over it is cheap to encode.
const D3: i64 = 600;

fn arb_profiles3() -> impl Strategy<Value = ProfileSet> {
    prop::collection::vec((arb_predicate_for(D as i64), arb_predicate_for(D3)), 1..12).prop_map(
        |preds| {
            let schema = Schema::builder()
                .attribute("x", Domain::int(0, D as i64 - 1))
                .unwrap()
                .attribute("y", Domain::int(0, D3 - 1))
                .unwrap()
                .build();
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

proptest! {
    // Each case compiles, encodes and reloads its profiles 704 ways.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Lowering is invertible: the tree a snapshot raises from its
    /// automaton and header is the tree it was compiled from, and so
    /// is the one a reload raises; a snapshot compiled from the raised
    /// tree writes the same image. Under every search strategy and
    /// attribute order, covered and not, with and without the two
    /// ablations and profile weights.
    #[test]
    fn raising_inverts_lowering(ps in arb_profiles3(), weight in 0.5f64..4.0) {
        let schema = ps.schema().clone();
        let model = JointDist::independent(vec![
            DistOverDomain::new(Density::falling(), D),
            DistOverDomain::new(Density::peak(0.3, 0.2, 0.7).unwrap(), D3 as u64),
        ])
        .unwrap();
        let cover =
            CoverSet::build_bulk(&schema, ps.iter().map(|p| (p.id().index() as u32, p))).unwrap();
        let reps = FilterSnapshot::cover_representatives(&ps, &cover).unwrap();
        let searches = ValueOrder::ALL
            .iter()
            .map(|o| SearchStrategy::Linear(*o))
            .chain([SearchStrategy::Binary, SearchStrategy::Interpolation, SearchStrategy::Hash]);
        let mut orders = vec![
            AttributeOrder::Natural,
            AttributeOrder::Explicit(vec![AttrId::new(1), AttrId::new(0)]),
        ];
        for measure in [AttributeMeasure::A1, AttributeMeasure::A2, AttributeMeasure::A3] {
            for direction in [Direction::Ascending, Direction::Descending] {
                orders.push(AttributeOrder::Selectivity { measure, direction });
            }
        }
        for search in searches {
            for order in &orders {
                for (covering, compiled) in [(false, &ps), (true, &reps)] {
                    for ablate in [false, true] {
                        for weighted in [false, true] {
                            let config = TreeConfig {
                                attribute_order: order.clone(),
                                search,
                                event_model: Some(model.clone()),
                                disable_early_termination: ablate,
                                disable_cell_merging: ablate,
                                profile_weights: weighted.then(|| {
                                    (0..compiled.len()).map(|k| weight + k as f64).collect()
                                }),
                            };
                            let tree = ProfileTree::build(compiled, &config).unwrap();
                            let cover = covering.then_some(&cover);
                            let at = (search, order, covering, ablate, weighted);
                            let snap =
                                FilterSnapshot::from_tree(tree.clone(), ps.len(), cover).unwrap();
                            let image = snap.to_bytes();
                            prop_assert!(snap.tree() == &tree, "{:?}", at);
                            let again =
                                FilterSnapshot::from_tree(snap.tree().clone(), ps.len(), cover)
                                    .unwrap();
                            prop_assert!(again.to_bytes() == image, "{:?}", at);
                            let loaded = FilterSnapshot::from_bytes(&image).unwrap();
                            prop_assert!(loaded.tree() == &tree, "{:?}", at);
                            let eq2 = CostModel::new(&tree, &model).unwrap().evaluate().unwrap();
                            let eq2 = eq2.expected_total_ops();
                            let priced = snap.expected_ops(&model).unwrap();
                            prop_assert!((priced - eq2).abs() <= 1e-9 * eq2.max(1.0), "{:?}", at);
                        }
                    }
                }
            }
        }
    }
}

/// The populations of the six end-to-end workloads, smaller, each with
/// the event model its workload publishes under.
fn e2e_populations() -> Vec<(&'static str, ProfileSet, JointDist)> {
    use ens_workloads::scenario::{
        environmental_event_model, environmental_profiles, environmental_schema, stock_event_model,
        stock_profiles,
    };
    use ens_workloads::{
        covered_profiles, CoveredPopulationConfig, ProfileGenConfig, ProfileGenerator,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(35);
    let env = environmental_schema();
    let env_model = environmental_event_model().unwrap();
    let uniform: Vec<DistOverDomain> = env
        .iter()
        .map(|(_, a)| DistOverDomain::new(Density::Uniform, a.domain().size()))
        .collect();
    let selective = ProfileGenConfig {
        dont_care_prob: 0.02,
        eq_prob: 0.6,
        range_width_frac: 0.05,
    };
    let selective = ProfileGenerator::new(&env, uniform, selective)
        .unwrap()
        .generate(2000, &mut rng)
        .unwrap();
    let covered = CoveredPopulationConfig {
        coverage_density: 0.9,
        duplicate_frac: 0.4,
        zipf_exponent: 1.2,
        roots: ProfileGenConfig {
            dont_care_prob: 0.1,
            eq_prob: 0.6,
            range_width_frac: 0.05,
        },
    };
    let covered = covered_profiles(&env, 3000, &covered, &mut rng).unwrap();
    // The federation workload's bands: eight wide ones, narrowings
    // inside each.
    let line = Schema::builder()
        .attribute("x", Domain::int(0, 9999))
        .unwrap()
        .build();
    let mut bands = ProfileSet::new(&line);
    let mut starts = Vec::new();
    for band in 0..8i64 {
        let lo = band * 1250 + rng.gen_range(0..=300);
        starts.push(lo);
        bands
            .insert_with(|b| b.predicate("x", Predicate::between(lo, lo + 624)))
            .unwrap();
    }
    for k in 8..300 {
        let lo = starts[k % 8] + rng.gen_range(0..=520);
        bands
            .insert_with(|b| b.predicate("x", Predicate::between(lo, lo + 100)))
            .unwrap();
    }
    let line_model =
        JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 10_000)]).unwrap();
    vec![
        (
            "fanout_env",
            environmental_profiles(1000, &mut rng).unwrap(),
            env_model.clone(),
        ),
        (
            "durable_churn",
            environmental_profiles(500, &mut rng).unwrap(),
            env_model.clone(),
        ),
        ("selective_10k", selective, env_model.clone()),
        ("covered_100k", covered, env_model),
        (
            "batch_sharded",
            stock_profiles(1000, &mut rng).unwrap(),
            stock_event_model().unwrap(),
        ),
        ("fed_line3", bands, line_model),
    ]
}

/// Eq. 2 priced on the automaton is Eq. 2 priced on the tree, to 1e-9
/// relative, on the end-to-end populations: covered and not, at the
/// default shape and in event order.
#[test]
fn the_automaton_prices_what_the_tree_prices() {
    for (name, ps, model) in e2e_populations() {
        let schema = ps.schema().clone();
        let cover =
            CoverSet::build_bulk(&schema, ps.iter().map(|p| (p.id().index() as u32, p))).unwrap();
        for search in [
            SearchStrategy::default(),
            SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        ] {
            let config = TreeConfig {
                search,
                event_model: Some(model.clone()),
                ..TreeConfig::default()
            };
            for covering in [false, true] {
                let snap = if covering {
                    FilterSnapshot::compile_with_cover(&ps, &cover, &config).unwrap()
                } else {
                    FilterSnapshot::compile(&ps, &config).unwrap()
                };
                let priced = snap.expected_ops(&model).unwrap();
                let eq2 = CostModel::new(snap.tree(), &model)
                    .unwrap()
                    .evaluate()
                    .unwrap()
                    .expected_total_ops();
                assert!(
                    (priced - eq2).abs() <= 1e-9 * eq2,
                    "{name} {search:?} covering {covering}: {priced} vs {eq2}"
                );
            }
        }
    }
}

/// FNV-1a, 64 bits.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every committed filter fixture — formats 3, 4 and 5 — loads and
/// re-encodes to the image the build before the automaton kept the
/// codec's share of the tree wrote for it (its length and FNV-1a hash):
/// the section written off the automaton is the one written off the
/// tree.
#[test]
fn every_fixture_reencodes_to_the_image_written_off_the_tree() {
    for (name, len, hash) in [
        ("covered_small_snapshot_v4.bin", 489, 0xb680_29f3_2fe6_8bdc),
        ("covered_snapshot_pr12.bin", 8_384, 0xbf3a_5dfb_3037_4ac0),
        (
            "stock_modelled_snapshot_pr21.bin",
            435_899,
            0x80b2_01f8_7043_bbac,
        ),
        ("stock_unread_model_v5.bin", 21_772, 0xca5a_1a08_32b3_f822),
        ("tiny_unread_model_v5.bin", 406, 0xd7de_fb4e_b077_b5a6),
    ] {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        let fixture = std::fs::read(&path).unwrap();
        let image = FilterSnapshot::from_bytes(&fixture).unwrap().to_bytes();
        assert_eq!((image.len(), fnv(&image)), (len, hash), "{name}");
    }
}
