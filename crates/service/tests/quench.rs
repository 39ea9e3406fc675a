//! Quenching safety under churn: advice may only drop dead events.
//!
//! The invariant (paper §2, Elvin's quenching): an event may be
//! quenched only if *no* live subscription matches it. This must hold
//! at every instant of a churn-and-burst run — while subscriptions sit
//! in the overlay, after tombstoning, and across compactions — for the
//! exported [`QuenchAdvice`], while every publish still matches exactly
//! the live subscriptions the event satisfies.

use ens_filter::RebuildPolicy;
use ens_service::{Broker, BrokerConfig, Subscriber, SubscriptionId};
use ens_types::{Event, Predicate, Profile};
use ens_workloads::{churn_burst_plan, scenario::environmental_schema, ChurnOp};
use proptest::prelude::*;

/// Small thresholds so a short plan visits overlay growth, tombstone
/// accumulation, and full compaction.
fn churn_config() -> BrokerConfig {
    BrokerConfig {
        shards: 2,
        rebuild: RebuildPolicy {
            max_overlay: 3,
            ..RebuildPolicy::default()
        },
        ..BrokerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn advice_never_drops_a_matchable_event_under_churn(seed in 0u64..u64::MAX) {
        let plan = churn_burst_plan(seed, 5, 6, 3).unwrap();
        let broker = Broker::new(&plan.schema, churn_config()).unwrap();
        let mut live: Vec<(Subscriber, Profile)> = Vec::new();

        for op in &plan.ops {
            match op {
                ChurnOp::Subscribe(p) => {
                    let sub = broker.subscribe_profile(p.clone()).unwrap();
                    live.push((sub, p.clone()));
                }
                ChurnOp::Unsubscribe(k) => {
                    let (sub, _) = live.remove(*k);
                    broker.unsubscribe(sub.id()).unwrap();
                }
                ChurnOp::Burst(r) => {
                    // The advice exported at this instant must allow
                    // every event some live profile matches.
                    let advice = broker.quench_advice();
                    for event in &plan.events[r.clone()] {
                        let oracle: Vec<SubscriptionId> = {
                            let mut ids: Vec<SubscriptionId> = live
                                .iter()
                                .filter(|(_, p)| {
                                    p.matches(&plan.schema, event).unwrap()
                                })
                                .map(|(sub, _)| sub.id())
                                .collect();
                            ids.sort_unstable();
                            ids
                        };
                        if !oracle.is_empty() {
                            prop_assert!(
                                advice.allows(event).unwrap(),
                                "advice dropped a matchable event (seed {})",
                                seed
                            );
                        }
                        let receipt = broker.publish(event).unwrap();
                        prop_assert_eq!(&receipt.matched, &oracle);
                    }
                }
            }
        }
    }
}

#[test]
fn advice_tracks_subscribe_and_unsubscribe() {
    let schema = environmental_schema();
    let broker = Broker::new(&schema, churn_config()).unwrap();
    let hot = broker
        .subscribe(|b| b.predicate("temperature", Predicate::ge(40)))
        .unwrap();
    let warm = broker
        .subscribe(|b| b.predicate("temperature", Predicate::ge(30)))
        .unwrap();

    let event = |t: i64| {
        Event::builder(&schema)
            .value("temperature", t)
            .unwrap()
            .build()
    };
    let advice = broker.quench_advice();
    assert!(advice.allows(&event(45)).unwrap());
    assert!(advice.allows(&event(35)).unwrap());
    assert!(!advice.allows(&event(20)).unwrap(), "nobody watches 20°");

    // Dropping the 30° subscription tightens the coverage…
    broker.unsubscribe(warm.id()).unwrap();
    let advice = broker.quench_advice();
    assert!(advice.allows(&event(45)).unwrap());
    assert!(!advice.allows(&event(35)).unwrap());

    // …and with no subscriptions left everything is quenchable.
    broker.unsubscribe(hot.id()).unwrap();
    let advice = broker.quench_advice();
    assert!(!advice.allows(&event(45)).unwrap());
}
