//! Self-tuning oracle: a broker that retunes its filter structure
//! mid-stream must deliver exactly the notifications a naive
//! predicate-evaluation oracle prescribes — before, across and after
//! the retune — and the retuned structure must be measurably cheaper
//! on the new distribution.

use ens_filter::{Direction, RebuildPolicy, SearchStrategy, TreeConfig, ValueOrder};
use std::sync::Arc;

use ens_service::{Broker, BrokerConfig, Decision, SubscriptionId};
use ens_workloads::hot_band_migration;

fn tuned_broker_config(w: &ens_workloads::DriftWorkload) -> BrokerConfig {
    BrokerConfig {
        tree: TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            event_model: Some(w.model_a.clone()),
            ..TreeConfig::default()
        },
        rebuild: RebuildPolicy {
            min_events: 64,
            drift_threshold: 0.6,
            ..RebuildPolicy::default()
        },
        tuning: true,
        ..BrokerConfig::default()
    }
}

/// The broker-level retune oracle: every receipt across the whole
/// two-phase stream (which crosses at least one automatic retune) must
/// agree with `ProfileSet::matches`.
#[test]
fn retuned_broker_matches_oracle_across_phases() {
    let w = hot_band_migration(41, 80, 400).unwrap();
    let broker = Broker::new(&w.schema, tuned_broker_config(&w)).unwrap();
    // Insertion order == subscription order (single shard), so profile
    // id k maps to subscription id subs[k].
    let subscribers: Vec<_> = w
        .profiles
        .iter()
        .map(|p| broker.subscribe_profile(p.clone()).unwrap())
        .collect();
    let subs: Vec<SubscriptionId> = subscribers.iter().map(|s| s.id()).collect();

    // The stale baseline: the identical filter configuration, never
    // allowed to adapt (no statistics, no rebuilds).
    let static_broker = Broker::new(
        &w.schema,
        BrokerConfig {
            // The yardstick has to stay the tree it was given:
            // sampling off is what "static" means here.
            stats_sample: 0,
            rebuild: RebuildPolicy {
                min_events: u64::MAX,
                ..RebuildPolicy::default()
            },
            tuning: false,
            ..tuned_broker_config(&w)
        },
    )
    .unwrap();
    let _static_subs: Vec<_> = w
        .profiles
        .iter()
        .map(|p| static_broker.subscribe_profile(p.clone()).unwrap())
        .collect();

    let oracle = |e: &ens_types::Event| -> Vec<SubscriptionId> {
        let mut want: Vec<SubscriptionId> = w
            .profiles
            .matches(e)
            .unwrap()
            .iter()
            .map(|pid| subs[pid.index()])
            .collect();
        want.sort_unstable();
        want
    };

    for (phase, events) in [("A", &w.phase_a), ("B", &w.phase_b)] {
        for e in events {
            let receipt = broker.publish(e).unwrap();
            assert_eq!(receipt.matched, oracle(e), "phase {phase}");
        }
    }
    let m = broker.metrics();
    assert!(m.retunes >= 1, "the drift must trigger a retune: {m}");
    assert!(m.tree_rebuilds >= 1);
    assert!(m.predicted_ops_per_event > 0.0);
    assert!(m.tuning_nanos > 0);

    // Steady state after the retune: replay phase B on both brokers and
    // compare cost. Same matches, far fewer comparisons on the retuned
    // structure.
    let mut stale_ops = 0u64;
    let mut retuned_ops = 0u64;
    for e in &w.phase_b {
        let stale = static_broker.publish(e).unwrap();
        let tuned = broker.publish(e).unwrap();
        assert_eq!(tuned.matched, oracle(e));
        assert_eq!(stale.matched.len(), tuned.matched.len());
        stale_ops += stale.ops;
        retuned_ops += tuned.ops;
    }
    assert_eq!(
        broker.metrics().retunes,
        m.retunes,
        "steady phase-B traffic must not keep retuning"
    );
    let n = w.phase_b.len() as f64;
    let (stale_avg, retuned_avg) = (stale_ops as f64 / n, retuned_ops as f64 / n);
    assert!(
        retuned_avg < stale_avg / 2.0,
        "retuned {retuned_avg:.1} vs stale {stale_avg:.1} ops/event"
    );
    // The cost model's prediction is in the right ballpark of the
    // measured post-retune cost (both in comparison operations/event).
    let predicted = broker.metrics().predicted_ops_per_event;
    assert!(
        retuned_avg < predicted * 3.0 && retuned_avg > predicted / 3.0,
        "measured {retuned_avg:.1} vs predicted {predicted:.1}"
    );
}

/// A retune taken inside a `publish_batch` is measured from the next
/// batch, the first matched against the retuned tree: the batch that
/// held it was matched, and counted, before its events were sampled.
#[test]
fn retune_inside_a_batch_is_measured_from_the_next_batch() {
    let w = hot_band_migration(41, 80, 400).unwrap();
    let broker = Broker::new(&w.schema, tuned_broker_config(&w)).unwrap();
    let _subscribers: Vec<_> = w
        .profiles
        .iter()
        .map(|p| broker.subscribe_profile(p.clone()).unwrap())
        .collect();
    let measured = |broker: &Broker| -> Vec<f64> {
        let decisions = broker.decisions().into_iter();
        let retunes = decisions.filter_map(|d| match d {
            Decision::Retuned { measured, .. } => Some(measured),
            _ => None,
        });
        retunes.collect()
    };
    let events: Vec<Arc<ens_types::Event>> = w
        .phase_a
        .iter()
        .chain(&w.phase_b)
        .chain(&w.phase_b)
        .cloned()
        .map(Arc::new)
        .collect();
    // Comparisons and events since the latest retune.
    let (mut ops, mut published) = (0, 0);
    for batch in events.chunks(100) {
        let before = measured(&broker).len();
        let receipts = broker.publish_batch(batch).unwrap();
        let after = measured(&broker);
        if after.len() > before {
            assert!(after[before..].iter().all(|&m| m == 0.0), "{after:?}");
            (ops, published) = (0, 0);
        } else if let Some(&last) = after.last() {
            ops += receipts.iter().map(|r| r.ops).sum::<u64>();
            published += batch.len();
            assert_eq!(last, ops as f64 / published as f64);
        }
    }
    assert!(published > 0, "a retune, then a batch after it");
}

/// With tuning disabled (the default), drift rebuilds keep the
/// configured shape — the pre-tuning behaviour — and no retune counters
/// move.
#[test]
fn disabled_tuning_keeps_legacy_drift_rebuilds() {
    let w = hot_band_migration(42, 40, 300).unwrap();
    let mut config = tuned_broker_config(&w);
    config.tuning = false;
    let broker = Broker::new(&w.schema, config).unwrap();
    let _subs: Vec<_> = w
        .profiles
        .iter()
        .map(|p| broker.subscribe_profile(p.clone()).unwrap())
        .collect();
    for e in w.phase_a.iter().chain(&w.phase_b) {
        broker.publish(e).unwrap();
    }
    let m = broker.metrics();
    assert!(
        m.tree_rebuilds >= 1,
        "legacy drift rebuilds still fire: {m}"
    );
    assert_eq!(m.retunes, 0);
    assert_eq!(m.predicted_ops_per_event, 0.0);
    // The configured shape is priced like any candidate, and timed.
    assert!(m.tuning_nanos > 0, "{m}");
}

/// A configured event-model prior stands until the statistics hold
/// `min_events` observations: a handful of events seen before a churn
/// compaction must not displace it, so the prior — not their thin
/// estimate — drives the recompiled orderings.
#[test]
fn configured_prior_survives_churn_compactions() {
    use ens_dist::{Density, DistOverDomain, JointDist};
    use ens_types::{Domain, Event, Predicate, Schema};
    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .build();
    let hot_prior =
        JointDist::independent(vec![DistOverDomain::new(Density::window(0.9, 1.0), 100)]).unwrap();
    let broker = Broker::new(
        &schema,
        BrokerConfig {
            tree: TreeConfig {
                search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
                event_model: Some(hot_prior),
                ..TreeConfig::default()
            },
            rebuild: RebuildPolicy {
                // Seed behaviour: every subscribe is a churn compaction.
                max_overlay: 0,
                // No drift rebuilds: only the churn path is under test.
                min_events: u64::MAX,
                ..RebuildPolicy::default()
            },
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    // Ten bands tiling the domain; the hot band is naturally last.
    let _subs: Vec<_> = (0..10)
        .map(|k| {
            broker
                .subscribe(move |b| b.predicate("x", Predicate::between(k * 10, k * 10 + 9)))
                .unwrap()
        })
        .collect();
    // Observe some (cold) traffic, then trigger one more churn
    // compaction with those observations on the books.
    for _ in 0..20 {
        broker
            .publish(&Event::builder(&schema).value("x", 5).unwrap().build())
            .unwrap();
    }
    let _extra = broker
        .subscribe(|b| b.predicate("x", Predicate::between(45, 54)))
        .unwrap();
    // Under the prior, the hot band is scanned first: exactly one
    // comparison. If the compaction had swapped in the fresh
    // statistics' near-uniform model, the V1 order would tie-break
    // naturally and reach the hot band last (~11 comparisons).
    let receipt = broker
        .publish(&Event::builder(&schema).value("x", 95).unwrap().build())
        .unwrap();
    assert_eq!(receipt.matched.len(), 1);
    assert_eq!(receipt.ops, 1, "prior must drive the recompiled ordering");
}

/// A declined retune must not rebuild, and the decline is visible in
/// the metrics. A single-edge tree costs exactly one operation under
/// every candidate configuration, so no drift can ever buy a saving.
#[test]
fn order_invariant_tree_declines_retunes() {
    use ens_types::{Domain, Event, Predicate, Schema};
    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .build();
    let broker = Broker::new(
        &schema,
        BrokerConfig {
            rebuild: RebuildPolicy {
                min_events: 50,
                drift_threshold: 0.5,
                drift_check_every: 1,
                ..RebuildPolicy::default()
            },
            tuning: true,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let sub = broker
        .subscribe(|b| b.predicate("x", Predicate::between(0, 49)))
        .unwrap();
    // All traffic lands in the zero-subdomain: maximal drift from the
    // uniform prior, but every candidate still prices at one
    // comparison per event.
    for k in 0..200 {
        let e = Event::builder(&schema)
            .value("x", 50 + (k % 50))
            .unwrap()
            .build();
        let receipt = broker.publish(&e).unwrap();
        assert!(receipt.matched.is_empty());
    }
    let m = broker.metrics();
    assert!(m.drift_declined >= 1, "drift fired and was declined: {m}");
    assert_eq!(m.retunes, 0, "{m}");
    assert_eq!(m.tree_rebuilds, 0, "declines must not rebuild: {m}");
    assert!(m.tuning_nanos > 0, "the pricing pass was paid for: {m}");
    drop(sub);
}

/// One price and one rule whatever `tuning` says: a tuning broker's
/// warm-up takes the cheapest candidate on any saving, however small,
/// and journals it as a retune.
#[test]
fn a_small_saving_is_retuned_at_the_warm_up() {
    use ens_filter::DriftCause;
    use ens_types::{Domain, Event, Predicate, Schema};
    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .build();
    let broker = Broker::new(
        &schema,
        BrokerConfig {
            rebuild: RebuildPolicy {
                min_events: 40,
                drift_threshold: 0.05,
                drift_check_every: 1,
                ..RebuildPolicy::default()
            },
            tuning: true,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    // Loaded in bulk, so the statistics have the two bands' cells.
    let band = |lo, hi| {
        ens_types::Profile::builder(&schema)
            .predicate("x", Predicate::between(lo, hi))
            .unwrap()
            .build(ens_types::ProfileId::new(0))
    };
    let subs = broker.subscribe_many([band(0, 49), band(50, 99)]).unwrap();
    // 11 events in 20 on the high band: scanning it first saves about
    // a tenth of an operation in 1.55 (6 %).
    for k in 0..40 {
        let x = if k % 20 < 11 { 75 } else { 25 };
        let e = Event::builder(&schema).value("x", x).unwrap().build();
        broker.publish(&e).unwrap();
    }
    let decisions: Vec<_> = broker
        .decisions()
        .into_iter()
        .filter(|d| !matches!(d, Decision::Compacted { .. }))
        .collect();
    let [Decision::DriftRebuilt {
        cause: DriftCause::WarmUp,
        predicted_stale,
        predicted_new,
        ..
    }, Decision::Retuned { .. }] = decisions[..]
    else {
        panic!("{decisions:#?}");
    };
    let saving = 1.0 - predicted_new / predicted_stale;
    assert!(saving > 0.0 && saving < 0.10, "{decisions:#?}");
    let m = broker.metrics();
    assert_eq!(
        (m.tree_rebuilds, m.retunes, m.drift_declined),
        (1, 1, 0),
        "{m}"
    );
    drop(subs);
}
