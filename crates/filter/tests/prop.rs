//! Property-based tests for the filter's structural invariants.

use ens_dist::{Density, DistOverDomain, JointDist};
use ens_filter::{
    binary_hit_cost, binary_miss_cost, AttributeMeasure, AttributeOrder, AttributePartition,
    BlockScratch, CostModel, Dfsa, Direction, FilterSnapshot, FilterStatistics, MatchScratch,
    Matcher, NodeOrdering, SearchStrategy, SnapshotScratch, TreeConfig, ValueOrder,
};
use ens_types::{
    AttrId, CoverSet, Domain, Event, IndexInterval, IndexedBatch, IndexedEvent, Predicate, Profile,
    ProfileId, ProfileSet, Schema, Value,
};
use proptest::prelude::*;

mod reference;

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
fn distinct_leaves(tree: &Dfsa) -> usize {
    let text = tree.render();
    let leaves = text
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("=> "));
    let lists: std::collections::BTreeSet<&str> = leaves.filter(|l| *l != "{}").collect();
    lists.len()
}

proptest! {
    /// Oracle agreement of every matching path: on random profile sets
    /// and random (possibly partial) events, the automaton's
    /// `match_event`, `match_into` and `match_block` return the
    /// oracle's profile set — including events with missing attributes
    /// and `(*)`-edge fallthrough past don't-care profiles — and the
    /// block counts what the single path counts, event by event: under
    /// every search strategy, with and without early termination, for
    /// missing values and for values below and above a node's span
    /// (out-of-domain indices included). The automaton holds one leaf
    /// per distinct non-empty leaf list. (What the ops are is held by
    /// the reference walker, below.)
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
        let mut scratch = MatchScratch::new();
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
                let dfsa = Dfsa::build(&ps, &config).unwrap();
                prop_assert_eq!(dfsa.leaf_count(), distinct_leaves(&dfsa), "each leaf list once");
                dfsa.match_block(&batch, &mut block);
                for (i, row) in rows.iter().enumerate() {
                    let at = (search, disable_early_termination, row.raw());
                    dfsa.match_into(row, &mut scratch);
                    prop_assert_eq!(block.profiles_of(i), scratch.profiles(), "dfsa block {:?}", at);
                    prop_assert_eq!(block.ops_of(i), scratch.ops(), "dfsa block ops {:?}", at);

                    let Ok(e) = row.to_event(&schema) else {
                        continue; // out of domain: no event, no oracle
                    };
                    let oracle = ps.matches(&e).unwrap();
                    prop_assert_eq!(scratch.profiles(), oracle.as_slice(), "dfsa scratch {:?}", at);
                    let out = dfsa.match_event(&schema, &e).unwrap();
                    prop_assert_eq!(out.profiles(), oracle.as_slice(), "dfsa event {:?}", at);
                    prop_assert_eq!(out.ops(), scratch.ops(), "scratch ops agree with match_event");
                }
            }
        }
    }

    /// A tree keeps an event model only if its shape reads one. Under
    /// every search that reads none, in natural and A1 attribute order,
    /// covering on and off, a tree compiled with a model is the tree
    /// compiled without: no model kept, the same nodes, leaf pool and
    /// scan orders (one image, byte for byte), and the same matches and
    /// ops per event, whatever the engine `bool` says.
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
                    prop_assert!(with.dfsa().config().event_model.is_none(), "{:?}", at);
                    prop_assert_eq!(with.dfsa().state_count(), without.dfsa().state_count());
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
            let tree = Dfsa::build(&ps, &TreeConfig {
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
        let unweighted = Dfsa::build(&ps, &TreeConfig {
            search: v2,
            ..TreeConfig::default()
        }).unwrap();
        let weighted = Dfsa::build(&ps, &TreeConfig {
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

    /// The automaton matches and counts what the tree its checkpoint
    /// image writes matches and counts, event by event, walked by the
    /// reference walker off the image itself; the image reloads into an
    /// automaton that writes it again; and Eq. 2's per-level breakdown
    /// is the walker's per-level count summed over the whole event
    /// space, weighted by the model. Under every search strategy and
    /// attribute order, covered and not, with and without the two
    /// ablations and profile weights.
    #[test]
    fn reference_walker_agrees_with_the_automaton(
        ps in arb_profiles3(),
        weight in 0.5f64..4.0,
        events in prop::collection::vec(
            (prop::option::of(0..D + 2), prop::option::of(0..D3 as u64 + 2)),
            1..24,
        ),
    ) {
        let schema = ps.schema().clone();
        let model = JointDist::independent(vec![
            DistOverDomain::new(Density::falling(), D),
            DistOverDomain::new(Density::peak(0.3, 0.2, 0.7).unwrap(), D3 as u64),
        ])
        .unwrap();
        let cover =
            CoverSet::build_bulk(&schema, ps.iter().map(|p| (p.id().index() as u32, p))).unwrap();
        let reps = representatives(&ps, &cover);
        let rows: Vec<IndexedEvent> = events
            .iter()
            .map(|&(x, y)| IndexedEvent::from_indices(vec![x, y]))
            .collect();
        let grid: Vec<(IndexedEvent, f64)> = (0..D)
            .flat_map(|x| (0..D3 as u64).map(move |y| (x, y)))
            .map(|(x, y)| {
                let p = model.marginals()[0].prob_index(x) * model.marginals()[1].prob_index(y);
                (IndexedEvent::from_indices(vec![Some(x), Some(y)]), p)
            })
            .collect();
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
        let mut scratch = MatchScratch::new();
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
                            let at = (search, order, covering, ablate, weighted);
                            let snap = if covering {
                                FilterSnapshot::compile_with_cover(&ps, &cover, &config)
                            } else {
                                FilterSnapshot::compile(&ps, &config)
                            }
                            .unwrap();
                            let image = snap.to_bytes();
                            let loaded = FilterSnapshot::from_bytes(&image).unwrap();
                            prop_assert!(loaded.to_bytes() == image, "{:?}", at);
                            let tree = reference::Tree::read(&image);
                            let dfsa = snap.dfsa();
                            prop_assert_eq!(dfsa.state_count(), tree.inner_nodes(), "node i is state i");
                            for row in &rows {
                                let walk = tree.walk(row);
                                for d in [dfsa, loaded.dfsa()] {
                                    d.match_into(row, &mut scratch);
                                    prop_assert_eq!(scratch.profiles(), &walk.profiles[..], "{:?} {:?}", at, row.raw());
                                    prop_assert_eq!(scratch.ops(), walk.ops, "{:?} {:?}", at, row.raw());
                                }
                            }
                            if ablate || weighted {
                                continue;
                            }
                            let eq2 = CostModel::new(dfsa, &model).unwrap().evaluate().unwrap();
                            let mut levels = vec![0.0; 2];
                            for (row, p) in &grid {
                                let walk = tree.walk(row);
                                for (k, ops) in walk.per_level.iter().enumerate() {
                                    levels[k] += p * *ops as f64;
                                }
                            }
                            for (level, enumerated) in eq2.per_level().iter().zip(&levels) {
                                let priced = level.match_ops + level.reject_ops;
                                prop_assert!(
                                    (priced - enumerated).abs() <= 1e-9 * enumerated.max(1.0),
                                    "{:?}: level {:?} priced {} vs enumerated {}", at, level.attr, priced, enumerated
                                );
                            }
                            prop_assert_eq!(eq2.per_level().len(), 2);
                            // Per profile: the chance of notifying it and
                            // the operations that takes.
                            let mut profiles = vec![(0.0, 0.0); dfsa.profile_count()];
                            for (row, p) in &grid {
                                let walk = tree.walk(row);
                                for id in &walk.profiles {
                                    profiles[id.index()].0 += p;
                                    profiles[id.index()].1 += p * walk.ops as f64;
                                }
                            }
                            for (priced, (prob, spent)) in eq2.per_profile().iter().zip(&profiles) {
                                prop_assert!((priced.prob - prob).abs() <= 1e-9, "{:?}", at);
                                let per = if *prob > 0.0 { spent / prob } else { 0.0 };
                                let got = priced.ops_per_notification();
                                prop_assert!((got - per).abs() <= 1e-9 * per.max(1.0), "{:?}", at);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The profiles a covering-pruned compile of `ps` puts in the tree:
/// `cover`'s representatives, in ascending slot order.
fn representatives(ps: &ProfileSet, cover: &CoverSet) -> ProfileSet {
    let mut reps = ProfileSet::new(ps.schema());
    for &slot in cover.rep_slots() {
        reps.insert(ps.get(ProfileId::new(slot)).unwrap().clone());
    }
    reps
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

/// Eq. 2 priced on the automaton is Eq. 2 as the pointer tree priced
/// it, to 1e-9 relative, on the end-to-end populations, covered and
/// not, at the default shape and in event order: expected operations
/// (total, rejection), match probability, expected notifications, the
/// mean operations per notified profile, and each level's match and
/// rejection operations. The figures were computed by walking the
/// pointer tree, before the automaton became the one compiled form.
#[test]
fn the_automaton_prices_what_the_tree_prices() {
    /// Population, event order, covering; totals; per level (match,
    /// reject).
    type Priced = (&'static str, bool, bool, [f64; 5], &'static [(f64, f64)]);
    #[rustfmt::skip]
    const PRICED: [Priced; 24] = [
        ("fanout_env", false, false, [27.035329628420865, 0.34763603217609185, 0.6523639678239072, 96.54152260866391, 53.799553749518886], &[(25.052377644345746, 0.045317864775551206), (0.73658244895795, 0.3023181674005406), (0.8987335029410782, 0.0)]),
        ("fanout_env", false, true, [19.64617623056936, 0.3476360321760918, 0.652363967823908, 6.2392017873804715, 38.33432701132746], &[(17.78166721685912, 0.045317864775551206), (0.73658244895795, 0.30231816740054057), (0.7802905325761975, 0.0)]),
        ("fanout_env", true, false, [22.24975914747455, 0.34763603217609185, 0.6523639678239072, 96.54152260866391, 44.770595340150244], &[(20.287428426021375, 0.045317864775551206), (0.7380579934767928, 0.3023181674005406), (0.8766366958002888, 0.0)]),
        ("fanout_env", true, true, [13.90442469792243, 0.5289074912782966, 0.652363967823908, 6.2392017873804715, 27.179488343635253], &[(11.89827296696198, 0.22658932387775604), (0.7380579934767928, 0.30231816740054057), (0.7391862462053606, 0.0)]),
        ("durable_churn", false, false, [27.03076099042291, 0.34763603217609185, 0.6523639678239068, 47.74441639316953, 53.612401203782184], &[(25.052377644345746, 0.045317864775551206), (0.73658244895795, 0.3023181674005406), (0.8941648649431208, 0.0)]),
        ("durable_churn", false, true, [18.587376304898203, 0.34763603217609185, 0.6523639678239074, 5.75628640745648, 37.04085173728312], &[(16.724607685603893, 0.045317864775551206), (0.7365824489579499, 0.3023181674005406), (0.7785501381602715, 0.0)]),
        ("durable_churn", true, false, [22.23818755041093, 0.34763603217609185, 0.6523639678239068, 47.74441639316953, 44.921299370971916], &[(20.287428426021375, 0.045317864775551206), (0.7380579934767928, 0.3023181674005406), (0.8650650987366704, 0.0)]),
        ("durable_churn", true, true, [13.034434336605697, 0.5289074912782967, 0.6523639678239074, 5.75628640745648, 26.192328992970495], &[(11.02523079933764, 0.22658932387775604), (0.7380579934767927, 0.3023181674005406), (0.7422380525129684, 0.0)]),
        ("selective_10k", false, false, [94.53882219789085, 2.3847559091716932, 0.1718280930626308, 0.18516403725931627, 86.20502294333448], &[(44.84748793877286, 0.0), (46.83437114796834, 0.5428385927514155), (0.47220720197796096, 1.8419173164202776)]),
        ("selective_10k", false, true, [94.52735321120946, 2.3847559091716932, 0.17182809306263083, 0.18513425749078719, 86.24343586979512], &[(44.84748793877286, 0.0), (46.823267259364734, 0.5428385927514155), (0.4718421039001862, 1.8419173164202778)]),
        ("selective_10k", true, false, [47.89636807651412, 1.1973088966012149, 0.1718280930626308, 0.18516403725931627, 85.59720581089844], &[(23.305257762955495, 0.0), (23.029556704950235, 0.2650238371136358), (0.36424471200717723, 0.9322850594875791)]),
        ("selective_10k", true, true, [47.895792154543045, 1.1973088966012149, 0.17182809306263083, 0.18513425749078719, 85.55861326710675], &[(23.305257762955495, 0.0), (23.029084987816827, 0.2650238371136358), (0.36414050716951074, 0.932285059487579)]),
        ("covered_100k", false, false, [84.91755380441884, 2.686224131055553, 0.3882020527992207, 1.6420029977606991, 87.32783833902005], &[(44.84748793877286, 0.0), (35.83723225480411, 0.0), (1.5466094797863215, 2.686224131055553)]),
        ("covered_100k", false, true, [72.47957937626384, 2.2929135484487673, 0.3882020527992222, 0.455709486060315, 67.47680716428891], &[(44.84748793877286, 0.0), (23.996338134271795, 0.0), (1.3428397547704194, 2.2929135484487673)]),
        ("covered_100k", true, false, [43.73810286349434, 0.8228484658388625, 0.3882020527992207, 1.6420029977606991, 88.95841431270269], &[(23.305257762955495, 0.0), (18.58051471928733, 0.0), (1.0294819154126535, 0.8228484658388625)]),
        ("covered_100k", true, true, [35.68997521525563, 0.8679681527998395, 0.3882020527992222, 0.455709486060315, 64.16209832868347], &[(23.305257762955495, 0.0), (10.621110861523018, 0.0), (0.8956384379772779, 0.8679681527998395)]),
        ("batch_sharded", false, false, [196.54687355203845, 62.94610505748269, 0.6970665739789133, 23.13003586452682, 173.41905079781472], &[(2.3349999999999995, 0.0), (128.21462913257213, 62.94441024022931), (3.0511393619836045, 0.0016948172533777727)]),
        ("batch_sharded", false, true, [76.04428771381981, 23.72032958545111, 0.6970665739789105, 6.413467850694991, 71.43253396348828], &[(2.3349999999999995, 0.0), (46.93781876638513, 23.718634768197735), (3.0511393619835774, 0.0016948172533777727)]),
        ("batch_sharded", true, false, [73.74278698068467, 0.3030047594041511, 0.6970665739789133, 23.13003586452682, 104.87422999448836], &[(2.3349999999999995, 0.0), (68.88287701023394, 0.3012386087677104), (2.2219052110465882, 0.0017661506364406976)]),
        ("batch_sharded", true, true, [30.286084482131805, 0.3030047594041511, 0.6970665739789105, 6.413467850694991, 40.93937008132291], &[(2.3349999999999995, 0.0), (25.42617451168106, 0.3012386087677104), (2.2219052110465944, 0.0017661506364406976)]),
        ("fed_line3", false, false, [290.0319999999999, 151.5282, 0.5, 3.449200000000003, 276.0901366600661], &[(138.50379999999993, 151.5282)]),
        ("fed_line3", false, true, [4.8724, 2.6224, 0.5, 0.5, 4.5], &[(2.25, 2.6224)]),
        ("fed_line3", true, false, [72.41469999999987, 0.5910000000000001, 0.5, 3.449200000000003, 156.6010593795379], &[(71.82369999999987, 0.5910000000000001)]),
        ("fed_line3", true, true, [4.145099999999999, 1.8950999999999998, 0.5, 0.5, 4.5], &[(2.25, 1.8950999999999998)]),
    ];
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1e-300);
    let mut priced = PRICED.iter();
    for (name, ps, model) in e2e_populations() {
        let schema = ps.schema().clone();
        let cover =
            CoverSet::build_bulk(&schema, ps.iter().map(|p| (p.id().index() as u32, p))).unwrap();
        for event_order in [false, true] {
            let search = if event_order {
                SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending))
            } else {
                SearchStrategy::default()
            };
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
                let at = (name, event_order, covering);
                let &(pin_name, pin_order, pin_covering, totals, levels) = priced.next().unwrap();
                assert_eq!((pin_name, pin_order, pin_covering), at);
                let eq2 = CostModel::new(snap.dfsa(), &model)
                    .unwrap()
                    .evaluate()
                    .unwrap();
                let got = [
                    eq2.expected_total_ops(),
                    eq2.expected_reject_ops(),
                    eq2.match_probability(),
                    eq2.expected_notifications(),
                    eq2.avg_ops_per_profile(),
                ];
                for (got, pinned) in got.iter().zip(totals) {
                    assert!(close(*got, pinned), "{at:?}: {got:?} vs {totals:?}");
                }
                assert!(
                    close(snap.expected_ops(&model).unwrap(), totals[0]),
                    "{at:?}"
                );
                assert_eq!(eq2.per_level().len(), levels.len(), "{at:?}");
                for (level, &(matched, rejected)) in eq2.per_level().iter().zip(levels) {
                    assert!(close(level.match_ops, matched), "{at:?}: {level:?}");
                    assert!(close(level.reject_ops, rejected), "{at:?}: {level:?}");
                }
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

const COLOURS: [&str; 5] = ["red", "green", "blue", "grey", "teal"];

/// An integer attribute and a categorical one.
fn mixed_schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, D as i64 - 1))
        .unwrap()
        .attribute("c", Domain::categorical(COLOURS).unwrap())
        .unwrap()
        .build()
}

/// Populations over [`mixed_schema`] with every kind of predicate:
/// ranges, points, `!=`, sets, categorical ones, don't-cares and
/// predicates that hold on the whole domain.
fn arb_mixed_profiles() -> impl Strategy<Value = ProfileSet> {
    let x = prop_oneof![
        4 => arb_predicate(),
        1 => Just(Predicate::DontCare),
        1 => Just(Predicate::between(0, D as i64 - 1)),
        1 => Just(Predicate::ge(0)),
    ];
    let colour = (0..COLOURS.len()).prop_map(|i| COLOURS[i]);
    let c = prop_oneof![
        Just(Predicate::DontCare),
        colour.clone().prop_map(Predicate::eq),
        colour.clone().prop_map(Predicate::ne),
        prop::collection::vec(colour, 1..4).prop_map(Predicate::in_set),
        Just(Predicate::in_set(COLOURS)),
    ];
    prop::collection::vec((x, c), 1..14).prop_map(|preds| {
        let schema = mixed_schema();
        let mut ps = ProfileSet::new(&schema);
        for (px, pc) in preds {
            let profile = Profile::from_predicates(&schema, ProfileId::new(0), vec![px, pc]);
            ps.insert(profile.unwrap());
        }
        ps
    })
}

/// Per attribute, the cells [`FilterStatistics`] bins into and the
/// cells of [`AttributePartition::build`].
fn statistics_and_partition_cells(ps: &ProfileSet) -> [Vec<Vec<IndexInterval>>; 2] {
    let stats = FilterStatistics::new(ps).unwrap();
    let schema = ps.schema();
    let binned = schema.ids().map(|a| stats.cells(a).collect()).collect();
    let built = schema.iter().map(|(a, attr)| {
        let part = AttributePartition::build(ps.iter(), a, attr.domain()).unwrap();
        part.cells().iter().map(|c| *c.interval()).collect()
    });
    [binned, built.collect()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lowered sets are normalised, so every cut is a point where some
    /// profile's membership changes: no two adjacent cells of a
    /// partition are covered by the same profiles, and the partition
    /// needs no merge step.
    #[test]
    fn adjacent_cells_never_share_a_profile_list(ps in arb_mixed_profiles()) {
        for (attr, a) in ps.schema().iter() {
            let part = AttributePartition::build(ps.iter(), attr, a.domain()).unwrap();
            for pair in part.cells().windows(2) {
                prop_assert_ne!(pair[0].profiles(), pair[1].profiles(), "{}", a.name());
            }
        }
    }

    /// The statistics cut each domain where the partition does.
    #[test]
    fn statistics_cells_are_the_partition_cells(ps in arb_mixed_profiles()) {
        let [binned, built] = statistics_and_partition_cells(&ps);
        prop_assert_eq!(binned, built);
    }
}

/// The same on the end-to-end populations, and on the representatives
/// a covering compile keeps of each.
#[test]
fn statistics_cells_are_the_partition_cells_on_the_e2e_populations() {
    for (name, ps, _) in e2e_populations() {
        let cover =
            CoverSet::build_bulk(ps.schema(), ps.iter().map(|p| (p.id().index() as u32, p)))
                .unwrap();
        let reps = representatives(&ps, &cover);
        for (compiled, set) in [("all", &ps), ("representatives", &reps)] {
            let [binned, built] = statistics_and_partition_cells(set);
            assert_eq!(binned, built, "{name}, {compiled}");
        }
    }
}
