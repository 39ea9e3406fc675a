//! The default drift loop settles.
//!
//! Every broker here runs with `stats_sample: 1`, the default: where a
//! shard samples, the statistics see every event. A shard samples only
//! where a drift trigger could act — its shape reads an event model, or
//! `tuning` is on — so the default shape samples nothing. What is under
//! test is that observing does not by itself keep re-optimising — the
//! history survives a compaction, the trigger allows for its own
//! sampling noise, and a rebuild has to be worth its cost by Eq. 2 —
//! while a distribution that really moves is still followed.

use std::sync::Arc;

use ens_filter::{
    Dfsa, Direction, DriftCause, Matcher, RebuildPolicy, SearchStrategy, TreeConfig, ValueOrder,
};
use ens_service::federation::link::LinkConfig;
use ens_service::federation::sim::SimNet;
use ens_service::{
    Broker, BrokerConfig, Decision, DeclineReason, DurabilityConfig, FaultFs, Federation,
    FederationConfig, FsyncPolicy, Subscriber, SubscriptionId,
};
use ens_types::{Domain, Event, Predicate, Profile, ProfileId, ProfileSet, Schema};
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
/// threshold of 0.25, and a rebuild every 530 events for good. The
/// default shape reads no event model, so no trigger would have a tree
/// to price: the shard samples nothing, no trigger fires, and the
/// stream never recompiles.
#[test]
fn stationary_stock_stream_never_recompiles() {
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
    // Not even the warm-up: nothing was sampled to fire it.
    assert_eq!((m.tree_rebuilds, m.drift_declined), (0, 0), "{m}");
    assert_eq!(drift_decisions(&broker), [], "{m}");
}

/// The warm-up of a `BrokerConfig::default()` broker recompiles
/// nothing: its natural order reads no event model, so the tree it
/// would build is the tree in place. It is declined before it fires —
/// a shard samples only where a trigger has a candidate to price — so
/// past four times `min_events` the bulk load's record is the whole
/// journal: no trigger, nothing staged, nothing priced.
#[test]
fn default_warm_up_is_declined_without_a_recompile() {
    let schema = environmental_schema();
    let mut rng = StdRng::seed_from_u64(11);
    let population = environmental_profiles(200, &mut rng).unwrap();
    let broker = Broker::new(&schema, BrokerConfig::default()).unwrap();
    let subs = broker.subscribe_many(population.iter().cloned()).unwrap();
    let loaded = broker.decisions();
    assert!(
        matches!(loaded[..], [Decision::Compacted { .. }]),
        "{loaded:#?}"
    );
    let generator = EventGenerator::new(&schema, environmental_event_model().unwrap()).unwrap();
    let min_events = RebuildPolicy::default().min_events;
    for _ in 0..4 * min_events {
        broker.publish(&generator.sample(&mut rng)).unwrap();
        drain(&subs);
    }
    assert_eq!(broker.decisions(), loaded);
    let m = broker.metrics();
    assert_eq!(
        (m.tree_rebuilds, m.drift_declined, m.tuning_nanos),
        (0, 0, 0),
        "{m}"
    );
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

    // No warm-up: the natural order reads no event model, so the
    // shard samples nothing.
    let generator = EventGenerator::new(&schema, environmental_event_model().unwrap()).unwrap();
    for _ in 0..1000 {
        broker.publish(&generator.sample(&mut rng)).unwrap();
    }
    drain(&base);
    let warm = broker.metrics();
    assert_eq!((warm.tree_rebuilds, warm.drift_declined), (0, 0), "{warm}");

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
    // Nothing folded the overlay into the base, so every churn
    // subscription was still in the overlay when it left:
    // no tombstone was ever set, none piled up to a compaction. (Nor
    // did the overlay's own pressure: a churn profile that covers
    // compiled representatives adds to it, and takes that back with it
    // when it leaves.)
    assert_eq!(m.overlay_compactions, warm.overlay_compactions, "{m}");
    assert_eq!(m.subscriptions, 1000);
    assert_eq!(m.drift_declined, 0, "{m}");
    assert_eq!(drift_decisions(&broker), [], "{m}");
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

/// The tree in place is priced once, however the trigger is answered:
/// Eq. 2 on its automaton plus one comparison an event for each
/// overlay entry the counting index matches. A tuning-off V1 broker
/// carrying `k` such entries prices its stale tree at what an
/// otherwise identical broker without them does, plus `k`.
#[test]
fn overlay_entries_are_priced_into_the_tree_in_place() {
    // Few enough profiles that the first migration pays at once.
    let w = hot_band_migration(41, 20, 3000).unwrap();
    let k = 3;
    let moved_stale = |overlay: usize| {
        let broker = Broker::new(
            &w.schema,
            BrokerConfig {
                tree: v1(),
                // Every overlay entry in the counting index.
                covering: false,
                ..BrokerConfig::default()
            },
        )
        .unwrap();
        let mut subs = broker.subscribe_many(w.profiles.iter().cloned()).unwrap();
        for e in &w.phase_a {
            broker.publish(e).unwrap();
        }
        drain(&subs);
        // After the warm-up, which would have folded them in.
        for p in w.profiles.iter().take(overlay) {
            subs.push(broker.subscribe_profile(p.clone()).unwrap());
        }
        for e in &w.phase_b {
            broker.publish(e).unwrap();
            if broker.decisions().iter().any(read_as_moved) {
                break;
            }
        }
        drain(&subs);
        let decisions = drift_decisions(&broker);
        let moved = decisions.into_iter().find(read_as_moved);
        let Some(Decision::DriftRebuilt {
            predicted_stale, ..
        }) = moved
        else {
            panic!("{moved:#?}");
        };
        predicted_stale
    };
    let (eq2, with_overlay) = (moved_stale(0), moved_stale(k));
    assert!(eq2 > 0.0);
    assert_eq!(with_overlay, eq2 + k as f64);
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
    assert_eq!(m.tree_rebuilds, 0, "the warm-up saves nothing either: {m}");
    assert_eq!(m.drift_declined, 6, "exact for this stream: {m}");
    let (causes, waits): (Vec<DriftCause>, Vec<u64>) = broker
        .decisions()
        .iter()
        .filter_map(|d| match d {
            Decision::DriftDeclined {
                cause,
                reason,
                predicted_saving,
                next_check_in,
                ..
            } => {
                assert_eq!(*reason, DeclineReason::NoSaving);
                assert_eq!(*predicted_saving, 0.0);
                Some((*cause, *next_check_in))
            }
            _ => None,
        })
        .unzip();
    // The warm-up is declined first, and moves the baseline.
    assert_eq!(causes[0], DriftCause::WarmUp, "{causes:?}");
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
    // V1: a shape the drift loop rebuilds, under an event model.
    let config = BrokerConfig {
        tree: v1(),
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
    // V1 reads the event model, so one is built.
    assert!(model_ns > 0 && tree_ns > 0);
    assert!(model_ns + cover_ns + tree_ns <= rebuild_ns);
}

/// A drift record without its wall-clock cost: whether the trigger
/// was answered with a rebuild, and on which numbers.
fn priced(d: &Decision) -> Option<(bool, usize, DriftCause, f64, f64)> {
    match *d {
        Decision::DriftRebuilt {
            shard,
            cause,
            drift,
            noise,
            ..
        } => Some((true, shard, cause, drift, noise)),
        Decision::DriftDeclined {
            shard,
            cause,
            drift,
            noise,
            ..
        } => Some((false, shard, cause, drift, noise)),
        _ => None,
    }
}

/// (vi) Drift statistics are not persisted, but a shard restored from
/// a checkpoint tracks the cells of the automaton it serves — of the
/// representatives under covering, which here are fewer than the
/// subscriptions: reopened at the checkpoint, a broker decides on the
/// same stream what it decided the first time. (It used to track a
/// single cell per attribute, read no drift and decide nothing.)
#[test]
fn a_restored_shard_decides_what_the_fresh_one_did() {
    let w = hot_band_migration(41, 80, 2000).unwrap();
    for covering in [true, false] {
        let config = BrokerConfig {
            tree: v1(),
            rebuild: RebuildPolicy {
                min_events: 64,
                ..RebuildPolicy::default()
            },
            covering,
            ..BrokerConfig::default()
        };
        let fs = FaultFs::new();
        let open = || {
            let durability = DurabilityConfig {
                checkpoint_every: 0,
                fsync: FsyncPolicy::Always,
                vfs: Arc::new(fs.clone()),
                ..DurabilityConfig::new("/db")
            };
            Broker::open(&w.schema, config.clone(), durability).unwrap()
        };
        let decide = |broker: &Broker| {
            for e in &w.phase_a {
                broker.publish(e).unwrap();
            }
            let decisions = broker.decisions();
            decisions.iter().filter_map(priced).collect::<Vec<_>>()
        };

        let fresh = open().broker;
        let subs = fresh.subscribe_many(w.profiles.iter().cloned()).unwrap();
        let Some(&Decision::Compacted { compiled, .. }) = fresh.decisions().last() else {
            panic!("{:#?}", fresh.decisions());
        };
        assert_eq!(compiled < w.profiles.len(), covering);
        assert!(fresh.checkpoint().unwrap());
        let first = decide(&fresh);
        drop((subs, fresh));
        assert!(first[0].2 == DriftCause::WarmUp && first[0].0, "{first:?}");

        let reopened = open();
        assert_eq!(reopened.subscribers.len(), w.profiles.len());
        assert_eq!(decide(&reopened.broker), first, "covering {covering}");
    }
}

/// How a stream reaches the broker under test.
#[derive(Clone, Copy, Debug)]
enum Path {
    /// One `publish_shared` an event.
    Shared,
    /// `publish_batch`, 64 events a call.
    Batch,
    /// Published 64 at a time at an origin broker (default
    /// configuration) and ingested by the broker under test at the far
    /// end of a simulated link: what it is forwarded of them.
    Edge,
}

/// A drift record, by kind and cause: what a trigger came to.
fn outcome(d: &Decision) -> Option<String> {
    match d {
        Decision::DriftRebuilt { cause, .. } => Some(format!("rebuilt {cause:?}")),
        Decision::DriftDeclined { cause, reason, .. } => {
            Some(format!("declined {cause:?} {reason:?}"))
        }
        Decision::Retuned { .. } => Some("retuned".into()),
        _ => None,
    }
}

/// Feeds `events` along `path` to a broker under `config` that holds
/// `profiles`, and returns each drift record it journals with the
/// events it had published when the record was first seen, and its
/// `drift_declined` count.
fn decided_along(
    config: &BrokerConfig,
    path: Path,
    profiles: &ProfileSet,
    events: &[Arc<Event>],
) -> (Vec<(u64, String)>, u64) {
    let schema = profiles.schema();
    let mut seen = Vec::new();
    let mut record = |broker: &Broker| {
        let decisions = broker.decisions();
        let fresh = decisions.iter().filter_map(outcome).skip(seen.len());
        let at = broker.metrics().events_published;
        seen.extend(fresh.map(|d| (at, d)));
    };
    let declined = match path {
        Path::Shared | Path::Batch => {
            let broker = Broker::new(schema, config.clone()).unwrap();
            let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();
            if let Path::Shared = path {
                for event in events {
                    broker.publish_shared(Arc::clone(event)).unwrap();
                    record(&broker);
                }
            } else {
                for batch in events.chunks(64) {
                    broker.publish_batch(batch).unwrap();
                    record(&broker);
                }
            }
            drain(&subs);
            broker.metrics().drift_declined
        }
        Path::Edge => {
            let net = SimNet::new(7);
            let node = |node, config: BrokerConfig| {
                let broker = Arc::new(Broker::new(schema, config).unwrap());
                let link = LinkConfig {
                    heartbeat_ms: 50,
                    timeout_ms: 300,
                    rto_ms: 40,
                    ..LinkConfig::default()
                };
                let config = FederationConfig {
                    node,
                    epoch: 1,
                    link,
                    ..FederationConfig::default()
                };
                Federation::new(broker, config)
            };
            let (origin, edge) = (node(1, BrokerConfig::default()), node(2, config.clone()));
            origin.add_peer(2, Box::new(net.transport(1, 2)), 0);
            edge.add_peer(1, Box::new(net.transport(2, 1)), 0);
            let subs: Vec<Subscriber> = profiles
                .iter()
                .map(|p| edge.subscribe_profile(p.clone()).unwrap())
                .collect();
            let pump = |steps: u32| {
                for _ in 0..steps {
                    origin.pump(net.now_ms()).unwrap();
                    edge.pump(net.now_ms()).unwrap();
                    net.advance(10);
                }
            };
            pump(10);
            for batch in events.chunks(64) {
                origin.publish_batch(batch).unwrap();
                while edge.metrics().delivered_rows < origin.metrics().forwarded_rows {
                    pump(1);
                    record(edge.broker());
                }
                drain(&subs);
            }
            assert!(
                edge.metrics().delivered_rows >= 3 * 500,
                "the edge warms up"
            );
            edge.broker().metrics().drift_declined
        }
    };
    (seen, declined)
}

/// Sampling follows the decision: a shard records drift statistics
/// only where a trigger could act on them. At the default shape — no
/// event model read, tuning off — no trigger fires, whichever way the
/// events arrive, and no warm-up is declined. A shape that reads a
/// model (V1) and a tuning broker decide what they decided while every
/// shard sampled, at the same event counts.
#[test]
fn sampling_follows_the_decision() {
    let w = hot_band_migration(41, 400, 3000).unwrap();
    let events: Vec<Arc<Event>> = w
        .phase_a
        .iter()
        .chain(&w.phase_b)
        .cloned()
        .map(Arc::new)
        .collect();
    let paths = [Path::Shared, Path::Batch, Path::Edge];
    for path in paths {
        let (seen, declined) = decided_along(&BrokerConfig::default(), path, &w.profiles, &events);
        assert_eq!((seen, declined), (vec![], 0), "{path:?}");
    }
    // What these brokers journaled on these streams when every shard
    // sampled, whatever its shape: the same decisions at the same
    // event counts.
    let v1_decided: [&[(u64, &str)]; 3] = [
        &[(500, "rebuilt WarmUp"), (5896, "declined Moved NotYetPaid")],
        &[(512, "rebuilt WarmUp"), (5952, "declined Moved NotYetPaid")],
        &[(500, "rebuilt WarmUp")],
    ];
    let tuning_decided: [&[(u64, &str)]; 3] = [
        &[
            (500, "rebuilt WarmUp"),
            (500, "retuned"),
            (5896, "declined Moved NoSaving"),
        ],
        &[
            (512, "rebuilt WarmUp"),
            (512, "retuned"),
            (5952, "declined Moved NoSaving"),
        ],
        &[(500, "rebuilt WarmUp"), (500, "retuned")],
    ];
    let v1 = BrokerConfig {
        tree: v1(),
        ..BrokerConfig::default()
    };
    let tuning = BrokerConfig {
        tuning: true,
        ..BrokerConfig::default()
    };
    for (config, decided) in [(v1, v1_decided), (tuning, tuning_decided)] {
        for (path, want) in paths.into_iter().zip(decided) {
            let (seen, _) = decided_along(&config, path, &w.profiles, &events);
            let want: Vec<(u64, String)> = want.iter().map(|&(n, d)| (n, d.into())).collect();
            assert_eq!(seen, want, "{path:?}, tuning {}", config.tuning);
        }
    }
}
