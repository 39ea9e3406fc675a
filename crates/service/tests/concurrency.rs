//! Concurrency oracle: N concurrent publishers plus
//! subscribe/unsubscribe churn must produce *exactly* the notifications
//! a single-threaded oracle replay produces — per-subscriber sequence
//! order, no loss and no duplicates while subscribed — across shard
//! counts, dispatch modes, aggressive compaction policies and both
//! publish paths. A batch walks its shards on its caller's thread, so
//! concurrent publishers are where the concurrency comes from.

use std::collections::HashMap;
use std::sync::Arc;

use ens_filter::{Direction, RebuildPolicy, SearchStrategy, TreeConfig, ValueOrder};
use ens_service::{Broker, BrokerConfig};
use ens_types::{Domain, Event, Predicate, Profile, ProfileId, Schema};
use ens_workloads::{churn_burst_plan, scenario, ChurnOp, EventGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How each publisher thread hands its events to the broker.
#[derive(Clone, Copy)]
enum Publish {
    /// One `publish_shared` per event.
    Shared,
    /// One `publish_batch` per chunk of this many events.
    Batch(usize),
}

/// Runs `publishers` concurrent publisher threads over pre-sampled
/// events while a churn thread subscribes/unsubscribes, then checks
/// every stable subscriber against the oracle.
fn run_churn_scenario(
    config: BrokerConfig,
    publishers: usize,
    events_per: usize,
    seed: u64,
    publish: Publish,
) {
    let schema = scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(seed);
    let stable_profiles: Vec<Profile> = scenario::environmental_profiles(12, &mut rng)
        .unwrap()
        .iter()
        .cloned()
        .collect();

    let broker = Arc::new(Broker::new(&schema, config).unwrap());
    let stable = broker
        .subscribe_many(stable_profiles.iter().cloned())
        .unwrap();

    let generator =
        EventGenerator::new(&schema, scenario::environmental_event_model().unwrap()).unwrap();
    let events: Vec<Arc<Event>> = (0..publishers * events_per)
        .map(|_| Arc::new(generator.sample(&mut rng)))
        .collect();

    // Churn source: the subscribe ops of a deterministic plan.
    let churn_profiles: Vec<Profile> = churn_burst_plan(seed ^ 0x5eed, 30, 0, 2)
        .unwrap()
        .ops
        .into_iter()
        .filter_map(|op| match op {
            ChurnOp::Subscribe(p) => Some(p),
            _ => None,
        })
        .collect();

    let seq_to_event: HashMap<u64, usize> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..publishers {
            let broker = Arc::clone(&broker);
            let slice = &events[t * events_per..(t + 1) * events_per];
            handles.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(slice.len());
                match publish {
                    Publish::Shared => {
                        for (k, e) in slice.iter().enumerate() {
                            let receipt = broker.publish_shared(Arc::clone(e)).unwrap();
                            out.push((receipt.sequence, t * events_per + k));
                        }
                    }
                    Publish::Batch(chunk) => {
                        for (c, part) in slice.chunks(chunk).enumerate() {
                            let receipts = broker.publish_batch(part).unwrap();
                            assert_eq!(receipts.len(), part.len());
                            for (k, receipt) in receipts.iter().enumerate() {
                                out.push((receipt.sequence, t * events_per + c * chunk + k));
                            }
                        }
                    }
                }
                out
            }));
        }
        let churn_broker = Arc::clone(&broker);
        let churn_profiles = &churn_profiles;
        let churner = scope.spawn(move || {
            for p in churn_profiles {
                let sub = churn_broker.subscribe_profile(p.clone()).unwrap();
                std::thread::yield_now();
                for n in sub.drain() {
                    // While subscribed, only matching events arrive.
                    assert!(
                        p.matches(churn_broker.schema(), &n.event).unwrap(),
                        "churn subscription received a non-matching event"
                    );
                }
                churn_broker.unsubscribe(sub.id()).unwrap();
            }
        });
        let mut map = HashMap::new();
        for h in handles {
            for (seq, idx) in h.join().unwrap() {
                assert!(map.insert(seq, idx).is_none(), "duplicate sequence {seq}");
            }
        }
        churner.join().unwrap();
        map
    });

    // Oracle: replay the events in sequence order, single-threaded.
    for (profile, sub) in stable_profiles.iter().zip(&stable) {
        let mut expected: Vec<u64> = seq_to_event
            .iter()
            .filter(|(_, idx)| profile.matches(&schema, &events[**idx]).unwrap())
            .map(|(seq, _)| *seq)
            .collect();
        expected.sort_unstable();
        let drained = sub.drain();
        let mut got: Vec<u64> = drained.iter().map(|n| n.sequence).collect();
        got.sort_unstable();
        got.dedup();
        assert_eq!(
            got.len(),
            drained.len(),
            "subscriber {} received duplicates",
            sub.id()
        );
        assert_eq!(
            got,
            expected,
            "subscriber {} lost or gained events",
            sub.id()
        );
        // Within one publisher, arrival order is sequence order.
        let mut last = vec![None; publishers];
        for n in &drained {
            let idx = seq_to_event[&n.sequence];
            assert_eq!(
                n.event.as_ref(),
                events[idx].as_ref(),
                "sequence {} delivered the wrong event payload",
                n.sequence
            );
            let t = idx / events_per;
            assert!(
                last[t] < Some(n.sequence),
                "subscriber {} got publisher {t}'s sequence {} after {:?}",
                sub.id(),
                n.sequence,
                last[t]
            );
            last[t] = Some(n.sequence);
        }
    }
    let m = broker.metrics();
    assert_eq!(m.events_published, (publishers * events_per) as u64);
}

#[test]
fn concurrent_publishers_and_churn_match_oracle_single_shard() {
    run_churn_scenario(BrokerConfig::default(), 4, 150, 41, Publish::Shared);
}

/// A shape that reads an event model (V1), so that its shards sample
/// drift statistics: the default shape samples nothing.
fn v1() -> TreeConfig {
    TreeConfig {
        search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
        ..TreeConfig::default()
    }
}

#[test]
fn concurrent_publishers_and_churn_match_oracle_sharded_dfsa() {
    // Concurrent publishers race for each shard's sampling `try_lock`.
    run_churn_scenario(
        BrokerConfig {
            tree: v1(),
            shards: 3,
            dfsa_dispatch: true,
            stats_sample: 8,
            ..BrokerConfig::default()
        },
        4,
        150,
        42,
        Publish::Shared,
    );
}

#[test]
fn concurrent_publishers_and_churn_match_oracle_aggressive_compaction() {
    // Tiny thresholds force constant compaction + drift rebuilds while
    // publishers are in flight (V1: a shape a drift trigger rebuilds).
    run_churn_scenario(
        BrokerConfig {
            tree: v1(),
            rebuild: RebuildPolicy {
                max_overlay: 2,
                min_events: 40,
                drift_threshold: 0.15,
                drift_check_every: 1,
            },
            shards: 2,
            ..BrokerConfig::default()
        },
        3,
        120,
        43,
        Publish::Shared,
    );
}

#[test]
fn concurrent_batch_publishers_and_churn_match_oracle_sharded() {
    // Three publishers, each a `publish_batch` of 64 at a time (the
    // last chunk short), on three shards.
    run_churn_scenario(
        BrokerConfig {
            shards: 3,
            ..BrokerConfig::default()
        },
        3,
        160,
        44,
        Publish::Batch(64),
    );
}

#[test]
fn publish_batch_is_ordered_and_matches_oracle() {
    let schema = scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(9);
    let profiles: Vec<Profile> = scenario::environmental_profiles(50, &mut rng)
        .unwrap()
        .iter()
        .cloned()
        .collect();
    let broker = Broker::new(
        &schema,
        BrokerConfig {
            shards: 4,
            ..BrokerConfig::default()
        },
    )
    .unwrap();
    let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();

    let generator =
        EventGenerator::new(&schema, scenario::environmental_event_model().unwrap()).unwrap();
    let events: Vec<Arc<Event>> = (0..400)
        .map(|_| Arc::new(generator.sample(&mut rng)))
        .collect();
    let receipts = broker.publish_batch(&events).unwrap();
    assert_eq!(receipts.len(), events.len());

    for (i, (receipt, event)) in receipts.iter().zip(&events).enumerate() {
        assert_eq!(receipt.sequence, i as u64, "receipts in input order");
        let expected: Vec<_> = profiles
            .iter()
            .zip(&subs)
            .filter(|(p, _)| p.matches(&schema, event).unwrap())
            .map(|(_, s)| s.id())
            .collect();
        assert_eq!(receipt.matched, expected, "event {i}");
    }

    // Batch delivery: every subscriber sees its notifications in strict
    // arrival == sequence order (not merely sortable).
    for (profile, sub) in profiles.iter().zip(&subs) {
        let drained = sub.drain();
        let arrival: Vec<u64> = drained.iter().map(|n| n.sequence).collect();
        let mut sorted = arrival.clone();
        sorted.sort_unstable();
        assert_eq!(arrival, sorted, "arrival order is sequence order");
        let expected: Vec<u64> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| profile.matches(&schema, e).unwrap())
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(arrival, expected, "subscriber {}", sub.id());
    }
}

/// A bulk load is atomic per shard: while it holds a profile that does
/// not compile, nobody else can find it in the overlay. A valid
/// subscribe on the same shard used to be able to slip in between the
/// bulk load's push and its compaction (all of the compactions of the
/// shards before it), build its snapshot over the half-loaded overlay,
/// and be handed the lowering error of someone else's profile.
#[test]
fn failed_bulk_load_never_fails_a_concurrent_subscribe() {
    const ROUNDS: usize = 40;
    const SHARDS: usize = 4;
    let schema = small_schema();
    let range = |lo: i64, hi: i64| {
        Profile::builder(&schema)
            .predicate("x", Predicate::between(lo, hi))
            .unwrap()
            .build(ProfileId::new(0))
    };
    // A compiled population, so a subscribe takes the overlay path; and
    // several shards, which the bulk load compiles one after the other:
    // time enough for the subscriber to visit the one holding the
    // profile that will not compile.
    let config = BrokerConfig {
        shards: SHARDS,
        ..BrokerConfig::default()
    };
    let broker = Broker::new(&schema, config).unwrap();
    let compiled = broker
        .subscribe_many((0..50).map(|k| range(k, k + 40)))
        .unwrap();
    // Built against a wider foreign schema: lowering it fails.
    let foreign = Schema::builder()
        .attribute("x", Domain::int(-1000, 1000))
        .unwrap()
        .build();
    let poison = Profile::builder(&foreign)
        .predicate("x", Predicate::between(400, 500))
        .unwrap()
        .build(ProfileId::new(0));
    let bulk: Vec<Profile> = (0..400)
        .map(|k| range(k % 90, k % 90 + 5))
        .chain([poison])
        .collect();

    // Both threads start every round together, and neither leaves the
    // other waiting: what went wrong is reported after the last round.
    let start = std::sync::Barrier::new(2);
    let (loaded, refused) = std::thread::scope(|scope| {
        let loader = scope.spawn(|| {
            let mut loaded = 0;
            for _ in 0..ROUNDS {
                start.wait();
                loaded += usize::from(broker.subscribe_many(bulk.iter().cloned()).is_ok());
            }
            loaded
        });
        let subscriber = scope.spawn(|| {
            let mut refused = Vec::new();
            for round in 0..ROUNDS {
                start.wait();
                // Ids go round the shards: one subscribe on each.
                for _ in 0..SHARDS {
                    match broker.subscribe_profile(range(10, 20)) {
                        Ok(sub) => broker.unsubscribe(sub.id()).unwrap(),
                        Err(e) => refused.push((round, e.to_string())),
                    }
                }
            }
            refused
        });
        (loader.join().unwrap(), subscriber.join().unwrap())
    });
    assert_eq!(loaded, 0, "the poisoned bulk load must fail");
    assert!(refused.is_empty(), "valid subscribes failed: {refused:?}");
    assert_eq!(broker.subscription_count(), compiled.len());
}

// --- Property test: random profiles/events, concurrent replay ---------

fn small_schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .build()
}

fn arb_profile() -> impl Strategy<Value = (i64, i64)> {
    (0i64..100, 0i64..100).prop_map(|(a, b)| (a.min(b), a.max(b)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two concurrent publishers plus a churn thread over random range
    /// profiles: stable subscribers receive exactly the oracle set.
    #[test]
    fn prop_concurrent_oracle(
        ranges in prop::collection::vec(arb_profile(), 1..6),
        churn in prop::collection::vec(arb_profile(), 0..5),
        xs in prop::collection::vec(0i64..100, 16..80),
    ) {
        let schema = small_schema();
        let broker = Arc::new(
            Broker::new(
                &schema,
                BrokerConfig {
                    rebuild: RebuildPolicy { max_overlay: 1, ..RebuildPolicy::default() },
                    shards: 2,
                    ..BrokerConfig::default()
                },
            )
            .unwrap(),
        );
        let profiles: Vec<Profile> = ranges
            .iter()
            .map(|(lo, hi)| {
                Profile::builder(&schema)
                    .predicate("x", Predicate::between(*lo, *hi))
                    .unwrap()
                    .build(ProfileId::new(0))
            })
            .collect();
        let stable = broker.subscribe_many(profiles.iter().cloned()).unwrap();
        let events: Vec<Arc<Event>> = xs
            .iter()
            .map(|x| Arc::new(Event::builder(&schema).value("x", *x).unwrap().build()))
            .collect();

        let seq_of: HashMap<u64, usize> = std::thread::scope(|scope| {
            let half = events.len() / 2;
            let mut handles = Vec::new();
            for (t, slice) in [&events[..half], &events[half..]].into_iter().enumerate() {
                let broker = Arc::clone(&broker);
                handles.push(scope.spawn(move || {
                    slice
                        .iter()
                        .enumerate()
                        .map(|(k, e)| {
                            let r = broker.publish_shared(Arc::clone(e)).unwrap();
                            (r.sequence, t * half + k)
                        })
                        .collect::<Vec<_>>()
                }));
            }
            let churn_broker = Arc::clone(&broker);
            let churn = &churn;
            let churner = scope.spawn(move || {
                for (lo, hi) in churn {
                    let sub = churn_broker
                        .subscribe(|b| b.predicate("x", Predicate::between(*lo, *hi)))
                        .unwrap();
                    std::thread::yield_now();
                    churn_broker.unsubscribe(sub.id()).unwrap();
                }
            });
            let mut map = HashMap::new();
            for h in handles {
                for (seq, idx) in h.join().unwrap() {
                    map.insert(seq, idx);
                }
            }
            churner.join().unwrap();
            map
        });

        for (profile, sub) in profiles.iter().zip(&stable) {
            let mut expected: Vec<u64> = seq_of
                .iter()
                .filter(|(_, idx)| profile.matches(&schema, &events[**idx]).unwrap())
                .map(|(seq, _)| *seq)
                .collect();
            expected.sort_unstable();
            let mut got: Vec<u64> = sub.drain().iter().map(|n| n.sequence).collect();
            got.sort_unstable();
            prop_assert_eq!(got, expected);
        }
    }
}
