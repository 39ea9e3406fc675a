//! Property-based tests for the `ens-types` data model invariants.

use ens_types::{
    covers, CoverOutcome, CoverSet, Domain, Event, IndexInterval, IntervalSet, Predicate, Profile,
    ProfileId, Schema, Value,
};
use proptest::prelude::*;

fn arb_interval(max: u64) -> impl Strategy<Value = IndexInterval> {
    (0..max, 0..max).prop_map(|(a, b)| IndexInterval::new(a.min(b), a.max(b)))
}

fn arb_interval_set(max: u64) -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec(arb_interval(max), 0..8).prop_map(IntervalSet::from_intervals)
}

proptest! {
    /// Normalisation: sets are sorted, disjoint and non-adjacent.
    #[test]
    fn interval_set_is_normalised(s in arb_interval_set(64)) {
        let ivs = s.as_slice();
        for w in ivs.windows(2) {
            prop_assert!(w[0].hi() < w[1].lo(), "sorted, disjoint, gap >= 1: {s}");
        }
        for iv in ivs {
            prop_assert!(!iv.is_empty());
        }
    }

    /// `contains` agrees with a linear scan over intervals.
    #[test]
    fn interval_set_contains_agrees_with_scan(s in arb_interval_set(64), i in 0u64..64) {
        let scan = s.iter().any(|iv| iv.contains(i));
        prop_assert_eq!(s.contains(i), scan);
    }

    /// Union and intersection behave pointwise.
    #[test]
    fn union_intersect_pointwise(a in arb_interval_set(48), b in arb_interval_set(48), i in 0u64..48) {
        prop_assert_eq!(a.union(&b).contains(i), a.contains(i) || b.contains(i));
        prop_assert_eq!(a.intersect(&b).contains(i), a.contains(i) && b.contains(i));
    }

    /// Complement is an involution and is pointwise correct within [0, d).
    #[test]
    fn complement_involution(a in arb_interval_set(48), i in 0u64..48) {
        let c = a.complement(48);
        prop_assert_eq!(c.contains(i), !a.contains(i));
        prop_assert_eq!(c.complement(48), a.intersect(&IntervalSet::full(48)));
    }

    /// covered_len is preserved by the partition into set and complement.
    #[test]
    fn covered_len_partitions_domain(a in arb_interval_set(48)) {
        let clipped = a.intersect(&IntervalSet::full(48));
        prop_assert_eq!(clipped.covered_len() + a.complement(48).covered_len(), 48);
    }
}

fn int_domain() -> Domain {
    Domain::int(-20, 20)
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    let v = -20i64..=20;
    prop_oneof![
        Just(Predicate::DontCare),
        v.clone().prop_map(Predicate::eq),
        v.clone().prop_map(Predicate::ne),
        v.clone().prop_map(Predicate::lt),
        v.clone().prop_map(Predicate::le),
        v.clone().prop_map(Predicate::gt),
        v.clone().prop_map(Predicate::ge),
        (v.clone(), v.clone()).prop_map(|(a, b)| Predicate::between(a.min(b), a.max(b))),
        prop::collection::vec(v.clone(), 1..5).prop_map(Predicate::in_set),
        prop::collection::vec(v, 1..5)
            .prop_map(|vs| Predicate::NotIn(vs.into_iter().map(Value::Int).collect())),
    ]
}

proptest! {
    /// Interval lowering and direct evaluation agree on every domain point.
    #[test]
    fn predicate_lowering_is_sound(p in arb_predicate(), x in -20i64..=20) {
        let d = int_domain();
        let ivs = p.to_intervals(&d).unwrap();
        let i = d.index_of(&Value::Int(x)).unwrap();
        prop_assert_eq!(p.matches(&d, &Value::Int(x)).unwrap(), ivs.contains(i));
    }

    /// Profiles round-trip through their display syntax.
    #[test]
    fn profile_display_parse_round_trip(preds in prop::collection::vec(arb_predicate(), 3)) {
        let schema = Schema::builder()
            .attribute("a0", int_domain()).unwrap()
            .attribute("a1", int_domain()).unwrap()
            .attribute("a2", int_domain()).unwrap()
            .build();
        let p = Profile::from_predicates(&schema, ProfileId::new(0), preds).unwrap();
        let text = p.display(&schema).to_string();
        let back = ens_types::parse::parse_profile(&schema, &text, ProfileId::new(0)).unwrap();
        // Compare by lowered semantics (display may normalise operator
        // spellings, e.g. `in {5}` still parses as In).
        for (a, b) in p.predicates().iter().zip(back.predicates()) {
            let d = int_domain();
            prop_assert_eq!(a.to_intervals(&d).unwrap(), b.to_intervals(&d).unwrap());
        }
    }

    /// Serde round-trips preserve profile semantics.
    #[test]
    fn profile_serde_round_trip(preds in prop::collection::vec(arb_predicate(), 3)) {
        let schema = Schema::builder()
            .attribute("a0", int_domain()).unwrap()
            .attribute("a1", int_domain()).unwrap()
            .attribute("a2", int_domain()).unwrap()
            .build();
        let p = Profile::from_predicates(&schema, ProfileId::new(0), preds).unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: Profile = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(p, back);
    }

    /// Domain index mapping is a bijection on every kind of domain.
    #[test]
    fn domain_index_bijection(seed in 0u64..4) {
        let d = match seed {
            0 => Domain::int(-5, 5),
            1 => Domain::float(0.0, 3.0, 0.5).unwrap(),
            2 => Domain::categorical(["a", "b", "c", "d"]).unwrap(),
            _ => Domain::Bool,
        };
        for i in 0..d.size() {
            prop_assert_eq!(d.try_index_of(&d.value_at(i)), Some(i));
        }
    }
}

/// Mixed-kind schema for the covering oracle: int, float, categorical.
fn cov_schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(-4, 4))
        .unwrap()
        .attribute("f", Domain::float(0.0, 1.5, 0.5).unwrap())
        .unwrap()
        .attribute("k", Domain::categorical(["a", "b", "c"]).unwrap())
        .unwrap()
        .build()
}

fn arb_cov_pred_int() -> impl Strategy<Value = Predicate> {
    let v = -4i64..=4;
    prop_oneof![
        Just(Predicate::DontCare),
        v.clone().prop_map(Predicate::eq),
        v.clone().prop_map(Predicate::ne),
        v.clone().prop_map(Predicate::ge),
        v.clone().prop_map(Predicate::le),
        (v.clone(), v.clone()).prop_map(|(a, b)| Predicate::between(a.min(b), a.max(b))),
        prop::collection::vec(v, 0..4).prop_map(Predicate::in_set),
    ]
}

fn arb_cov_pred_float() -> impl Strategy<Value = Predicate> {
    let v = (0u64..4).prop_map(|i| ens_types::FiniteF64::new(0.5 * i as f64).unwrap());
    prop_oneof![
        Just(Predicate::DontCare),
        v.clone().prop_map(Predicate::eq),
        v.clone().prop_map(Predicate::ge),
        v.clone().prop_map(Predicate::lt),
    ]
}

fn arb_cov_pred_cat() -> impl Strategy<Value = Predicate> {
    const CATS: [&str; 3] = ["a", "b", "c"];
    let v = (0usize..3).prop_map(|i| CATS[i]);
    prop_oneof![
        Just(Predicate::DontCare),
        v.clone().prop_map(Predicate::eq),
        prop::collection::vec(v, 1..3).prop_map(Predicate::in_set),
    ]
}

fn arb_cov_profile() -> impl Strategy<Value = Profile> {
    (arb_cov_pred_int(), arb_cov_pred_float(), arb_cov_pred_cat()).prop_map(|(x, f, k)| {
        Profile::from_predicates(&cov_schema(), ProfileId::new(0), vec![x, f, k]).unwrap()
    })
}

/// Every event — including partial ones exercising the `(*)` /
/// missing-attribute fallthrough — in the (size+1)^n assignment grid.
fn all_events(schema: &Schema) -> Vec<Event> {
    let sizes: Vec<u64> = schema.iter().map(|(_, a)| a.domain().size()).collect();
    let mut out = Vec::new();
    let mut assignment: Vec<Option<u64>> = vec![None; sizes.len()];
    loop {
        let ie = ens_types::IndexedEvent::from_indices(assignment.clone());
        out.push(ie.to_event(schema).unwrap());
        // Odometer increment over {None, Some(0..size)} per position.
        let mut j = 0;
        loop {
            if j == sizes.len() {
                return out;
            }
            assignment[j] = match assignment[j] {
                None => Some(0),
                Some(i) if i + 1 < sizes[j] => Some(i + 1),
                Some(_) => {
                    assignment[j] = None;
                    j += 1;
                    continue;
                }
            };
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `covers(a, b)` agrees with the brute-force implication oracle
    /// (every event matching `b` matches `a`) across int/float/
    /// categorical domains, missing attributes, and `(*)` fallthrough.
    #[test]
    fn covers_agrees_with_implication_oracle(a in arb_cov_profile(), b in arb_cov_profile()) {
        let schema = cov_schema();
        let implied = all_events(&schema).iter().all(|e| {
            !b.matches(&schema, e).unwrap() || a.matches(&schema, e).unwrap()
        });
        prop_assert_eq!(covers(&schema, &a, &b).unwrap(), implied);
    }

    /// `CoverSet` detection is sound: every cover it reports — bulk or
    /// probed — is a true cover, and the residual is delivery-exact
    /// (child matches ⟺ rep matches ∧ residual passes).
    #[test]
    fn cover_set_detection_is_sound_and_residuals_exact(
        pop in prop::collection::vec(arb_cov_profile(), 1..12),
        probe in arb_cov_profile(),
    ) {
        let schema = cov_schema();
        let slots: Vec<(u32, &Profile)> =
            pop.iter().enumerate().map(|(i, p)| (i as u32, p)).collect();
        let cover = CoverSet::build_bulk(&schema, slots).unwrap();
        prop_assert_eq!(cover.rep_count() + cover.covered_count(), pop.len());
        let events = all_events(&schema);
        let check = |rep: u32, child: &Profile, residual: &[ens_types::Residual]| {
            let rep_p = &pop[rep as usize];
            assert!(covers(&schema, rep_p, child).unwrap());
            for e in &events {
                let ie = ens_types::IndexedEvent::resolve(&schema, e).unwrap();
                let residual_ok = residual.iter().all(|r| {
                    ie.get(r.attr).is_some_and(|i| r.allowed.contains(i))
                });
                assert_eq!(
                    child.matches(&schema, e).unwrap(),
                    rep_p.matches(&schema, e).unwrap() && residual_ok,
                );
            }
        };
        for (child, rep, residual) in cover.children_sorted() {
            check(rep, &pop[child as usize], residual);
        }
        if let CoverOutcome::Covered { rep, residual } = cover.probe(&probe).unwrap() {
            check(rep, &probe, &residual);
        }
    }
}

proptest! {
    /// What a broker keeps between compiles — a bulk pass's index with
    /// the expansion map dropped, or the index recovery rebuilds from
    /// the representatives alone — probes as the bulk pass does.
    #[test]
    fn a_representative_index_probes_as_its_bulk_pass(
        pop in prop::collection::vec(arb_cov_profile(), 1..16),
        probe in arb_cov_profile(),
    ) {
        let schema = cov_schema();
        let bulk = CoverSet::build_bulk(&schema, (0..).zip(&pop)).unwrap();
        let reps = bulk.rep_slots().iter().map(|&s| (s, &pop[s as usize]));
        let rebuilt = CoverSet::from_parts(&schema, reps, []).unwrap();
        let index = bulk.clone().into_index();
        for cover in [&index, &rebuilt] {
            prop_assert_eq!(cover.covered_count(), 0);
            prop_assert_eq!(cover.rep_slots(), bulk.rep_slots());
            prop_assert_eq!(cover.probe(&probe).unwrap(), bulk.probe(&probe).unwrap());
        }
    }
}

/// Two representatives that both cover a probe, the wider sorting
/// first though its slot is the higher: an index rebuilt from them
/// finds the one the bulk pass found.
#[test]
fn a_rebuilt_index_finds_the_representative_the_bulk_pass_found() {
    let schema = cov_schema();
    let x = |p: Predicate| {
        let preds = vec![p, Predicate::DontCare, Predicate::DontCare];
        Profile::from_predicates(&schema, ProfileId::new(0), preds).unwrap()
    };
    let (narrow, wide) = (x(Predicate::between(0, 4)), x(Predicate::between(-2, 3)));
    let pop = [narrow, wide, x(Predicate::eq(1))];
    let bulk = CoverSet::build_bulk(&schema, (0..).zip(&pop)).unwrap();
    assert_eq!(
        (bulk.rep_slots(), bulk.cover_of(2).map(|c| c.0)),
        (&[0, 1][..], Some(1))
    );
    let rebuilt = CoverSet::from_parts(&schema, [(0, &pop[0]), (1, &pop[1])], []).unwrap();
    let probe = x(Predicate::between(0, 3));
    for cover in [&bulk, &bulk.clone().into_index(), &rebuilt] {
        assert!(matches!(
            cover.probe(&probe).unwrap(),
            CoverOutcome::Covered { rep: 1, .. }
        ));
    }
}

/// A domain read back goes through its constructor: reversed bounds
/// and a float grid too fine for a `u64` count are refused, a float
/// grid's cached size is recomputed, and the widest integer domain
/// that has a size is counted without overflow.
#[test]
fn deserialized_domains_pass_their_constructors() {
    let read = |json: &str| serde_json::from_str::<Domain>(json);
    let refused = |json: &str| {
        read(json)
            .unwrap_err()
            .to_string()
            .contains("no points or more")
    };
    assert!(refused(r#"{"Int":{"lo":100,"hi":99}}"#));
    assert!(refused(
        r#"{"Float":{"lo":0.0,"hi":1e300,"step":1e-300,"size":3}}"#
    ));
    let float = read(r#"{"Float":{"lo":0.0,"hi":1.0,"step":0.25,"size":99}}"#).unwrap();
    assert_eq!(float.size(), 5);
    assert!(Domain::try_int(i64::MIN, i64::MAX).is_err());
    let wide = Domain::try_int(i64::MIN + 1, i64::MAX).unwrap();
    assert_eq!(wide.size(), u64::MAX);
    assert_eq!(wide.value_at(u64::MAX - 1), Value::Int(i64::MAX));
    assert_eq!(wide.try_index_of(&Value::Int(i64::MAX)), Some(u64::MAX - 1));
}
