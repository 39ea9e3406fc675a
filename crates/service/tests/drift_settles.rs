//! The default drift loop settles.
//!
//! Every broker here runs with `stats_sample: 1`, the default: the
//! statistics see every event. What is under test is that observing
//! does not by itself keep re-optimising — the history survives a
//! compaction, the trigger allows for its own sampling noise, and a
//! rebuild has to be worth its cost by Eq. 2 — while a distribution
//! that really moves is still followed.

use std::sync::Arc;

use ens_filter::{
    Dfsa, Direction, DriftCause, Matcher, RebuildPolicy, SearchStrategy, TreeConfig, ValueOrder,
};
use ens_service::{
    Broker, BrokerConfig, Decision, DeclineReason, DurabilityConfig, FaultFs, FsyncPolicy,
    Subscriber, SubscriptionId,
};
use ens_types::{Domain, Event, Predicate, Profile, ProfileId, Schema};
use ens_workloads::scenario::{
    environmental_event_model, environmental_profiles, environmental_schema, stock_event_model,
    stock_profiles, stock_schema,
};
use ens_workloads::{churn_burst_plan, hot_band_migration, ChurnOp, EventGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn drain(subs: &[Subscriber]) {
    for s in subs {
        while s.try_recv().is_some() {}
    }
}

/// Whether `d` answered a trigger that took the distribution to have
/// moved.
fn read_as_moved(d: &Decision) -> bool {
    matches!(
        d,
        Decision::DriftRebuilt {
            cause: DriftCause::Moved,
            ..
        } | Decision::DriftDeclined {
            cause: DriftCause::Moved,
            ..
        }
    )
}

/// What the adaptive loop decided: the journal without the records
/// the recompiles leave of themselves.
fn drift_decisions(broker: &Broker) -> Vec<Decision> {
    let mut decisions = broker.decisions();
    decisions.retain(|d| !matches!(d, Decision::Compacted { .. }));
    decisions
}

fn v1() -> TreeConfig {
    TreeConfig {
        search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        ..TreeConfig::default()
    }
}

/// (i) The stock case PR 11 recorded: about 2000 price cells, 500
/// events between evaluations — sampling noise of 1.6 against a
/// threshold of 0.25, and a rebuild every 530 events for good.
#[test]
fn stationary_stock_stream_rebuilds_once() {
    let schema = stock_schema();
    let mut rng = StdRng::seed_from_u64(11);
    let profiles = stock_profiles(1000, &mut rng).unwrap();
    let broker = Broker::new(&schema, BrokerConfig::default()).unwrap();
    let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();
    let generator = EventGenerator::new(&schema, stock_event_model().unwrap()).unwrap();
    for n in 0..100_000 {
        broker
            .publish_shared(Arc::new(generator.sample(&mut rng)))
            .unwrap();
        if n % 256 == 255 {
            drain(&subs);
        }
    }
    let m = broker.metrics();
    assert!(m.tree_rebuilds <= 3, "{m}");
    // Exact for this seed: the warm-up onto the first estimate, and not
    // a trigger after it.
    assert_eq!((m.tree_rebuilds, m.drift_declined), (1, 0), "{m}");
    let decisions = drift_decisions(&broker);
    let [Decision::DriftRebuilt {
        cause: DriftCause::WarmUp,
        noise,
        drift,
        predicted_stale,
        predicted_new,
        ..
    }] = decisions[..]
    else {
        panic!("{decisions:?}");
    };
    assert_eq!(noise, 0.0, "warm-up: nothing to have drifted from");
    assert!(drift > 1.0, "500 events over 2000 cells: {drift}");
    // The natural order reads no event model, so none is compiled in:
    // the warm-up builds the estimate it prices under for the journal.
    for ops in [predicted_stale, predicted_new] {
        assert!(ops.is_finite() && ops > 0.0, "{decisions:?}");
    }
}

/// (ii) The `durable_churn` shape: every drift rebuild used to fold the
/// churn subscriptions of the moment into the compiled base, start the
/// statistics over on a placeholder, and fire again 500 events later.
#[test]
fn churn_rounds_on_a_durable_broker_do_not_recompile() {
    let schema = environmental_schema();
    let mut rng = StdRng::seed_from_u64(11);
    let population = environmental_profiles(1000, &mut rng).unwrap();
    let fs = FaultFs::new();
    let durability = DurabilityConfig {
        checkpoint_every: 0,
        fsync: FsyncPolicy::Always,
        vfs: Arc::new(fs),
        ..DurabilityConfig::new("/db")
    };
    let recovered = Broker::open(&schema, BrokerConfig::default(), durability).unwrap();
    let broker = recovered.broker;
    let base = broker.subscribe_many(population.iter().cloned()).unwrap();
    let mut live: Vec<(SubscriptionId, Profile)> = base
        .iter()
        .map(|s| s.id())
        .zip(population.iter().cloned())
        .collect();

    // Warm-up: the one rebuild onto the first estimate.
    let generator = EventGenerator::new(&schema, environmental_event_model().unwrap()).unwrap();
    for _ in 0..1000 {
        broker.publish(&generator.sample(&mut rng)).unwrap();
    }
    drain(&base);
    let warm = broker.metrics();
    assert_eq!(warm.tree_rebuilds, 1, "{warm}");

    let plan = churn_burst_plan(11, 200, 64, 16).unwrap();
    let mut churn: Vec<Subscriber> = Vec::new();
    let mut checked = 0;
    for op in &plan.ops {
        match op {
            ChurnOp::Subscribe(profile) => {
                let sub = broker.subscribe_profile(profile.clone()).unwrap();
                live.push((sub.id(), profile.clone()));
                churn.push(sub);
            }
            ChurnOp::Burst(range) => {
                for (k, event) in plan.events[range.clone()].iter().enumerate() {
                    let receipt = broker.publish(event).unwrap();
                    // The naive matcher over the live set, on a sample.
                    if k % 8 == 0 {
                        let mut want: Vec<SubscriptionId> = live
                            .iter()
                            .filter(|(_, p)| p.matches(&schema, event).unwrap())
                            .map(|(id, _)| *id)
                            .collect();
                        want.sort_unstable();
                        assert_eq!(receipt.matched, want);
                        checked += 1;
                    }
                }
                drain(&base);
                drain(&churn);
            }
            ChurnOp::Unsubscribe(k) => {
                let sub = churn.remove(*k);
                broker.unsubscribe(sub.id()).unwrap();
                live.retain(|(id, _)| *id != sub.id());
            }
        }
    }
    assert_eq!(checked, 200 * 8);
    let m = broker.metrics();
    let rebuilds = m.tree_rebuilds - warm.tree_rebuilds;
    assert!(rebuilds <= 2, "{m}");
    assert_eq!(rebuilds, 0, "exact for this seed: {m}");
    // Nothing folded the overlay into the base after the warm-up, so
    // every churn subscription was still in the overlay when it left:
    // no tombstone was ever set, none piled up to a compaction. (Nor
    // did the overlay's own pressure: a churn profile that covers
    // compiled representatives adds to it, and takes that back with it
    // when it leaves.)
    assert_eq!(m.overlay_compactions, warm.overlay_compactions, "{m}");
    assert_eq!(m.subscriptions, 1000);
}

/// (iii) A fresh broker on a skewed stream rebuilds exactly once: onto
/// an estimate good enough that the tree is as cheap as one compiled
/// under the true model.
#[test]
fn skewed_stream_settles_on_the_true_order() {
    use ens_dist::{Density, DistOverDomain, JointDist};
    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 999))
        .unwrap()
        .build();
    // Eight bands, their shares of the traffic a factor of two apart
    // and out of their natural order.
    let shares = Density::steps([4.0, 64.0, 1.0, 128.0, 16.0, 2.0, 32.0, 8.0]).unwrap();
    let truth = JointDist::independent(vec![DistOverDomain::new(shares, 1000)]).unwrap();
    // Loaded in bulk, so the statistics have the population's cells
    // from the first event on.
    let bands = |broker: &Broker| -> Vec<Subscriber> {
        let band = |k: i64| {
            Profile::builder(&schema)
                .predicate("x", Predicate::between(k * 125, k * 125 + 124))
                .unwrap()
                .build(ProfileId::new(0))
        };
        broker.subscribe_many((0..8).map(band)).unwrap()
    };
    let adaptive = Broker::new(
        &schema,
        BrokerConfig {
            tree: v1(),
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    // The yardstick: compiled under the true model, never adapting.
    // (Sampling off so that it stays that tree.)
    let informed = Broker::new(
        &schema,
        BrokerConfig {
            tree: TreeConfig {
                event_model: Some(truth.clone()),
                ..v1()
            },
            stats_sample: 0,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let (subs_a, subs_i) = (bands(&adaptive), bands(&informed));

    let generator = EventGenerator::new(&schema, truth).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let (mut ops_a, mut ops_i) = (0u64, 0u64);
    for n in 0..20_000 {
        let event = Arc::new(generator.sample(&mut rng));
        let a = adaptive.publish_shared(Arc::clone(&event)).unwrap();
        let i = informed.publish_shared(event).unwrap();
        assert_eq!(a.matched.len(), i.matched.len());
        if n >= 10_000 {
            ops_a += a.ops;
            ops_i += i.ops;
        }
        if n % 256 == 255 {
            drain(&subs_a);
            drain(&subs_i);
        }
    }
    let (mean_a, mean_i) = (ops_a as f64 / 1e4, ops_i as f64 / 1e4);
    assert!(
        (mean_a - mean_i).abs() <= 0.02 * mean_i,
        "adapted {mean_a:.3} vs informed {mean_i:.3} ops/event"
    );
    // The warm-up does the work, and nothing after it is a trigger.
    let m = adaptive.metrics();
    assert_eq!((m.tree_rebuilds, m.drift_declined), (1, 0), "{m}");
    let decisions = drift_decisions(&adaptive);
    let [Decision::DriftRebuilt {
        cause: DriftCause::WarmUp,
        predicted_stale,
        predicted_new,
        ..
    }] = decisions[..]
    else {
        panic!("{decisions:#?}");
    };
    assert!(predicted_new < predicted_stale / 2.0, "{decisions:#?}");
    assert!((predicted_new - mean_a).abs() < 0.1 * mean_a);
}

/// (iv, first half) A real migration is still followed, and promptly:
/// the rebuild lands within two `min_events` of the point where the
/// shift in the estimate clears the threshold plus the noise allowance
/// the journal recorded for it.
#[test]
fn hot_band_migration_still_fires_and_pays() {
    let w = hot_band_migration(41, 80, 3000).unwrap();
    let RebuildPolicy {
        min_events,
        drift_threshold: threshold,
        ..
    } = RebuildPolicy::default();
    let broker = Broker::new(
        &w.schema,
        BrokerConfig {
            tree: v1(),
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let subs = broker.subscribe_many(w.profiles.iter().cloned()).unwrap();
    for e in &w.phase_a {
        broker.publish(e).unwrap();
    }
    drain(&subs);
    let settled = broker.metrics().tree_rebuilds;
    assert!(
        !broker.decisions().iter().any(read_as_moved),
        "phase A is stationary: {:#?}",
        broker.decisions()
    );

    let mut fired_at = None;
    let mut stale_ops = 0u64;
    for (m, e) in w.phase_b.iter().enumerate() {
        stale_ops += broker.publish(e).unwrap().ops;
        if broker.metrics().tree_rebuilds > settled {
            fired_at = Some(m as u64 + 1);
            break;
        }
    }
    let fired_at = fired_at.expect("the migration must trigger a rebuild");
    let decisions = broker.decisions();
    let Some(Decision::DriftRebuilt {
        cause: DriftCause::Moved,
        drift,
        noise,
        predicted_stale,
        predicted_new,
        ..
    }) = decisions.last()
    else {
        panic!("{decisions:#?}");
    };
    assert!(*noise > 0.0 && *drift >= threshold + noise);
    // `n` events of phase A on the books, `m` of phase B: the estimate
    // is `2m / (n + m)` from its baseline.
    let n = w.phase_a.len() as f64;
    let bar = threshold + noise;
    let allowed_at = (bar * n / (2.0 - bar)).ceil() as u64;
    assert!(
        fired_at <= allowed_at + 2 * min_events,
        "allowed at {allowed_at}, fired at {fired_at}"
    );
    // Eq. 2 priced the new tree far below the stale one (under the
    // estimate, which is still a blend of both phases): it paid.
    let measured_stale = stale_ops as f64 / fired_at as f64;
    assert!(*predicted_new < predicted_stale / 2.0, "{decisions:#?}");
    let mut after = 0u64;
    for e in &w.phase_b[w.phase_b.len() - 500..] {
        after += broker.publish(e).unwrap().ops;
    }
    assert!((after as f64 / 500.0) < measured_stale / 2.0);
    drain(&subs);
}

/// (iv, second half) A migration Eq. 2 prices at no saving is turned
/// down, and each one turned down doubles the wait before the next is
/// looked at: 2, 4, 8 times `min_events`.
#[test]
fn migrations_without_saving_back_off() {
    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .build();
    let min_events = 50;
    let broker = Broker::new(
        &schema,
        BrokerConfig {
            tree: v1(),
            rebuild: RebuildPolicy {
                min_events,
                drift_threshold: 0.5,
                drift_check_every: 1,
                ..RebuildPolicy::default()
            },
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    // A single edge: one comparison per event wherever the traffic is.
    let sub = broker
        .subscribe(|b| b.predicate("x", Predicate::between(0, 49)))
        .unwrap();
    let publish = |x: i64, count: usize| {
        for _ in 0..count {
            let e = Event::builder(&schema).value("x", x).unwrap().build();
            broker.publish(&e).unwrap();
        }
        while sub.try_recv().is_some() {}
    };
    // Traffic hops between the edge and the zero-subdomain, and stays
    // long enough each time to keep moving the pooled estimate past
    // the bar, from wherever the last decline left the baseline.
    publish(75, 200);
    publish(25, 1_000);
    publish(75, 5_000);
    publish(25, 25_000);
    let m = broker.metrics();
    assert_eq!(m.tree_rebuilds, 1, "the warm-up, unpriced: {m}");
    assert_eq!(m.drift_declined, 7, "exact for this stream: {m}");
    assert_eq!(m.retunes_declined, 0, "tuning is off: {m}");
    let waits: Vec<u64> = broker
        .decisions()
        .iter()
        .filter_map(|d| match d {
            Decision::DriftDeclined {
                reason,
                predicted_saving,
                next_check_in,
                ..
            } => {
                assert_eq!(*reason, DeclineReason::NoSaving);
                assert_eq!(*predicted_saving, 0.0);
                Some(*next_check_in)
            }
            _ => None,
        })
        .collect();
    let doubling: Vec<u64> = (1..=waits.len()).map(|k| min_events << k).collect();
    assert_eq!(waits, doubling, "2, 4, 8… times min_events");
}

/// The prebuilt tree `commit` is handed is the tree the shard serves:
/// a drift rebuild prices a tree and commits that one.
#[test]
fn priced_tree_is_the_tree_committed() {
    let w = hot_band_migration(5, 40, 600).unwrap();
    let broker = Broker::new(
        &w.schema,
        BrokerConfig {
            tree: v1(),
            rebuild: RebuildPolicy {
                min_events: 64,
                ..RebuildPolicy::default()
            },
            // Every profile compiled, as in the tree built below.
            covering: false,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let _subs = broker.subscribe_many(w.profiles.iter().cloned()).unwrap();
    for e in &w.phase_a[..64] {
        broker.publish(e).unwrap();
    }
    let decisions = drift_decisions(&broker);
    let Decision::DriftRebuilt {
        cause: DriftCause::WarmUp,
        predicted_new,
        ..
    } = decisions[0]
    else {
        panic!("{decisions:#?}");
    };
    // Re-derive what was priced: the population under V1 and the
    // estimate of the first 64 events.
    let mut stats = ens_filter::FilterStatistics::new(&w.profiles).unwrap();
    for e in &w.phase_a[..64] {
        stats.record_event(e).unwrap();
    }
    let model = stats.empirical_model().unwrap();
    let tree = Dfsa::build(
        &w.profiles,
        &TreeConfig {
            event_model: Some(model.clone()),
            ..v1()
        },
    )
    .unwrap();
    // The broker priced its automaton; Eq. 2 on one built afresh agrees.
    let repriced = ens_filter::CostModel::new(&tree, &model)
        .and_then(|m| m.evaluate())
        .unwrap()
        .expected_total_ops();
    assert!((repriced - predicted_new).abs() < 1e-9 * repriced);
    // And what is served costs what that tree costs.
    for e in &w.phase_a[64..128] {
        assert_eq!(
            broker.publish(e).unwrap().ops,
            tree.match_event(w.profiles.schema(), e).unwrap().ops()
        );
    }
}

/// Every recompile journals itself, whatever asked for it: the bulk
/// load leaves one record a shard, and a drift rebuild's record comes
/// just before the decision it belongs to, its three stages inside the
/// rebuild's wall-clock cost.
#[test]
fn recompiles_journal_their_stage_costs() {
    let schema = stock_schema();
    let mut rng = StdRng::seed_from_u64(11);
    let profiles = stock_profiles(400, &mut rng).unwrap();
    let config = BrokerConfig {
        shards: 2,
        ..BrokerConfig::default()
    };
    let broker = Broker::new(&schema, config).unwrap();
    assert_eq!(broker.decisions(), [], "an empty shard compiles nothing");
    let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();
    let loaded = broker.decisions();
    let mut populations = [0, 0];
    for (s, d) in loaded.iter().enumerate() {
        let Decision::Compacted {
            shard,
            population,
            compiled,
            tree_ns,
            ..
        } = d
        else {
            panic!("{loaded:#?}");
        };
        assert_eq!(*shard, s, "shards load in order");
        assert!(0 < *compiled && compiled <= population && *tree_ns > 0);
        populations[s] = *population;
    }
    assert_eq!(loaded.len(), 2);
    assert_eq!(populations[0] + populations[1], 400);

    let generator = EventGenerator::new(&schema, stock_event_model().unwrap()).unwrap();
    while broker.metrics().tree_rebuilds == 0 {
        broker.publish(&generator.sample(&mut rng)).unwrap();
        drain(&subs);
    }
    let decisions = broker.decisions();
    let [.., Decision::Compacted {
        shard: compacted,
        population,
        model_ns,
        cover_ns,
        tree_ns,
        ..
    }, Decision::DriftRebuilt {
        shard: rebuilt,
        cause: DriftCause::WarmUp,
        rebuild_ns,
        ..
    }] = decisions[..]
    else {
        panic!("{decisions:#?}");
    };
    assert_eq!(compacted, rebuilt);
    assert_eq!(population, populations[rebuilt], "a rebuild moves nobody");
    // The natural order reads no event model, so none is built.
    assert!(model_ns == 0 && tree_ns > 0);
    assert!(model_ns + cover_ns + tree_ns <= rebuild_ns);
}
