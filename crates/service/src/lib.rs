//! Event notification service built on the distribution-based filter.
//!
//! The paper positions its algorithm inside an Event Notification
//! Service (ENS) and announces GENAS, "a generic parameterized Event
//! Notification System … based on the filter algorithm introduced here"
//! (§5). This crate is that service layer:
//!
//! * [`Broker`] — thread-safe subscribe/publish hub delivering
//!   [`Notification`]s over channels, filtering through per-shard
//!   [`FilterSnapshot`](ens_filter::FilterSnapshot)s it recompiles as
//!   subscriptions churn and — priced by the cost model — as the
//!   observed event distribution drifts;
//! * [`QuenchAdvice`] — Elvin-style quenching (§2): producers learn
//!   which value ranges no subscription references and can drop dead
//!   events at the source (the broker matches every event it is sent);
//! * [`MetricsSnapshot`] — service counters (events, notifications,
//!   comparison operations, rebuilds), and [`Decision`] — the journal
//!   of what the adaptive loop decided and on which numbers, and of
//!   the checkpoints a durable broker wrote ([`Broker::decisions`]).
//!
//! # Example
//!
//! ```
//! use ens_service::{Broker, BrokerConfig};
//! use ens_types::{Schema, Domain, Predicate, Event};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let schema = Schema::builder()
//!     .attribute("temperature", Domain::int(-30, 50))?
//!     .attribute("humidity", Domain::int(0, 100))?
//!     .build();
//! let broker = Broker::new(&schema, BrokerConfig::default())?;
//!
//! let alerts = broker.subscribe_parsed("profile(temperature >= 35; humidity >= 90)")?;
//! broker.publish(
//!     &Event::builder(&schema).value("temperature", 40)?.value("humidity", 95)?.build(),
//! )?;
//! assert!(alerts.try_recv().is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod channel;
mod error;
pub mod federation;
pub mod journal;
mod metrics;
mod notify;
pub mod persist;
mod quench;
mod subscription;
pub mod vfs;

pub use broker::{Broker, BrokerConfig, PublishReceipt, Recovered};
pub use error::ServiceError;
pub use federation::{Federation, FederationConfig};
pub use journal::{Decision, DeclineReason, TreeShape};
pub use metrics::MetricsSnapshot;
pub use notify::{Notification, Subscriber};
pub use persist::{DurabilityConfig, FsyncPolicy};
pub use quench::QuenchAdvice;
pub use subscription::SubscriptionId;
pub use vfs::{FaultFs, FaultPlan, OsFs, Vfs, VfsFile};

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, ServiceError>;

#[cfg(test)]
mod broker_tests {
    use super::*;
    use ens_filter::{Direction, RebuildPolicy, SearchStrategy, TreeConfig, ValueOrder};
    use ens_types::{Domain, Event, Predicate, Schema};

    fn schema() -> Schema {
        Schema::builder()
            .attribute("temperature", Domain::int(-30, 50))
            .unwrap()
            .attribute("humidity", Domain::int(0, 100))
            .unwrap()
            .build()
    }

    fn event(s: &Schema, t: i64, h: i64) -> Event {
        Event::builder(s)
            .value("temperature", t)
            .unwrap()
            .value("humidity", h)
            .unwrap()
            .build()
    }

    #[test]
    fn subscribe_publish_notify() {
        let s = schema();
        let broker = Broker::new(&s, BrokerConfig::default()).unwrap();
        let hot = broker
            .subscribe(|b| b.predicate("temperature", Predicate::ge(35)))
            .unwrap();
        let humid = broker
            .subscribe(|b| b.predicate("humidity", Predicate::ge(90)))
            .unwrap();
        assert_eq!(broker.subscription_count(), 2);

        let receipt = broker.publish(&event(&s, 40, 95)).unwrap();
        assert_eq!(receipt.matched.len(), 2);
        assert_eq!(hot.try_recv().unwrap().sequence, 0);
        assert_eq!(humid.try_recv().unwrap().sequence, 0);

        let receipt = broker.publish(&event(&s, 40, 10)).unwrap();
        assert_eq!(receipt.matched, vec![hot.id()]);
        assert!(hot.try_recv().is_some());
        assert!(humid.try_recv().is_none());
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let s = schema();
        let broker = Broker::new(&s, BrokerConfig::default()).unwrap();
        let hot = broker
            .subscribe(|b| b.predicate("temperature", Predicate::ge(35)))
            .unwrap();
        broker.unsubscribe(hot.id()).unwrap();
        assert!(broker.unsubscribe(hot.id()).is_err(), "double cancel");
        let receipt = broker.publish(&event(&s, 40, 95)).unwrap();
        assert!(receipt.matched.is_empty());
        assert_eq!(broker.subscription_count(), 0);
    }

    #[test]
    fn dropped_subscriber_is_garbage_collected() {
        let s = schema();
        let broker = Broker::new(&s, BrokerConfig::default()).unwrap();
        let hot = broker
            .subscribe(|b| b.predicate("temperature", Predicate::ge(35)))
            .unwrap();
        drop(hot);
        broker.publish(&event(&s, 40, 95)).unwrap();
        assert_eq!(broker.subscription_count(), 0);
        assert_eq!(broker.metrics().dropped_notifications, 1);
    }

    #[test]
    fn metrics_accumulate() {
        let s = schema();
        let broker = Broker::new(&s, BrokerConfig::default()).unwrap();
        let sub = broker
            .subscribe(|b| b.predicate("temperature", Predicate::ge(35)))
            .unwrap();
        for t in [40, 45, 0] {
            broker.publish(&event(&s, t, 0)).unwrap();
        }
        let m = broker.metrics();
        assert_eq!(m.events_published, 3);
        assert_eq!(m.notifications_sent, 2);
        assert!(m.total_ops > 0);
        assert!(m.avg_ops_per_event() > 0.0);
        assert_eq!(m.subscriptions, 1);
        assert_eq!(sub.pending(), 2);
        assert_eq!(sub.drain().len(), 2);
    }

    #[test]
    fn adaptive_broker_restructures_under_drift() {
        let s = schema();
        let config = BrokerConfig {
            tree: TreeConfig {
                search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
                ..TreeConfig::default()
            },
            rebuild: RebuildPolicy {
                min_events: 50,
                drift_threshold: 0.2,
                ..RebuildPolicy::default()
            },
            ..BrokerConfig::default()
        };
        let broker = Broker::new(&s, config).unwrap();
        let _a = broker
            .subscribe(|b| b.predicate("temperature", Predicate::between(-30, -20)))
            .unwrap();
        let _b = broker
            .subscribe(|b| b.predicate("temperature", Predicate::between(40, 50)))
            .unwrap();
        for _ in 0..200 {
            broker.publish(&event(&s, 45, 50)).unwrap();
        }
        assert!(broker.metrics().tree_rebuilds >= 1);
        // Matching still correct after rebuilds.
        let receipt = broker.publish(&event(&s, -25, 0)).unwrap();
        assert_eq!(receipt.matched.len(), 1);
    }

    #[test]
    fn weighted_subscriptions_are_served_first_under_v2() {
        let s = schema();
        // `max_overlay: 0` compiles every subscription immediately, so
        // the weighted V2 ordering applies from the first publish.
        let config = BrokerConfig {
            tree: TreeConfig {
                search: SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending)),
                ..TreeConfig::default()
            },
            rebuild: RebuildPolicy {
                max_overlay: 0,
                ..RebuildPolicy::default()
            },
            ..BrokerConfig::default()
        };
        let broker = Broker::new(&s, config).unwrap();
        let low_priority = broker
            .subscribe(|b| b.predicate("temperature", Predicate::between(-20, -10)))
            .unwrap();
        let vip_profile = ens_types::Profile::builder(&s)
            .predicate("temperature", Predicate::between(40, 45))
            .unwrap()
            .build(ens_types::ProfileId::new(0));
        let vip = broker
            .subscribe_profile_weighted(vip_profile.clone(), 50.0)
            .unwrap();
        // The VIP band sits naturally *after* the low-priority band, but
        // the weighted V2 order scans it first: 1 op at the temperature
        // node plus the `*` humidity level.
        let receipt = broker.publish(&event(&s, 42, 0)).unwrap();
        assert_eq!(receipt.matched, vec![vip.id()]);
        assert_eq!(receipt.ops, 2);
        // Control: without the weight the VIP band is scanned second.
        let control = Broker::new(
            &s,
            BrokerConfig {
                tree: TreeConfig {
                    search: SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending)),
                    ..TreeConfig::default()
                },
                rebuild: RebuildPolicy {
                    max_overlay: 0,
                    ..RebuildPolicy::default()
                },
                ..BrokerConfig::default()
            },
        )
        .unwrap();
        let _a = control
            .subscribe(|b| b.predicate("temperature", Predicate::between(-20, -10)))
            .unwrap();
        let _b = control.subscribe_profile(vip_profile).unwrap();
        let receipt = control.publish(&event(&s, 42, 0)).unwrap();
        assert_eq!(receipt.ops, 3, "unweighted V2 scans the VIP band second");
        drop(low_priority);
        // Invalid weights are rejected.
        let p = ens_types::Profile::builder(&s).build(ens_types::ProfileId::new(0));
        assert!(broker.subscribe_profile_weighted(p, 0.0).is_err());
    }

    #[test]
    fn subscribe_many_rolls_back_on_invalid_profile() {
        let s = schema();
        let broker = Broker::new(
            &s,
            BrokerConfig {
                shards: 3,
                ..BrokerConfig::default()
            },
        )
        .unwrap();
        let hotter_than = |t: i64| {
            ens_types::Profile::builder(&s)
                .predicate("temperature", Predicate::ge(t))
                .unwrap()
                .build(ens_types::ProfileId::new(0))
        };
        // Ids 0..6 compiled, two a shard; id 6 in shard 0's overlay.
        let compiled = broker
            .subscribe_many((0..6).map(|k| hotter_than(10 * k - 20)))
            .unwrap();
        let overlaid = broker.subscribe_profile(hotter_than(45)).unwrap();
        let battery: Vec<Event> = (-30..=50).step_by(5).map(|t| event(&s, t, 50)).collect();
        let probe = || -> Vec<_> {
            let matched = |e| broker.publish(e).unwrap().matched;
            battery.iter().map(matched).collect()
        };
        let before = (broker.subscription_count(), probe(), broker.quench_advice());
        assert_eq!(before.0, 7);
        assert_eq!(before.1.last().unwrap().len(), 7, "50 degrees: everyone");

        // A profile built against a wider foreign schema: its predicate
        // value lies outside the broker schema's domain, so compaction
        // fails when the profile is lowered. It is handed id 8 — the
        // last shard — behind a valid profile for each of the shards
        // before, which have staged theirs by the time it fails and
        // commit nothing.
        let other = Schema::builder()
            .attribute("temperature", Domain::int(-1000, 1000))
            .unwrap()
            .attribute("humidity", Domain::int(0, 100))
            .unwrap()
            .build();
        let bad = ens_types::Profile::builder(&other)
            .predicate("temperature", Predicate::between(400, 500))
            .unwrap()
            .build(ens_types::ProfileId::new(0));
        let bulk = [hotter_than(0), bad, hotter_than(5)];
        let compactions = broker.rebuild_counts().1;
        assert!(broker.subscribe_many(bulk).is_err());
        assert_eq!(broker.rebuild_counts().1, compactions, "nothing committed");
        assert_eq!(
            (broker.subscription_count(), probe(), broker.quench_advice()),
            before,
            "failed bulk load must leave no phantom subscriptions"
        );
        // No shard is poisoned: later subscribes and publishes work.
        let sub = broker.subscribe_profile(hotter_than(50)).unwrap();
        let receipt = broker.publish(&event(&s, 50, 95)).unwrap();
        let mut everyone: Vec<_> = compiled.iter().map(Subscriber::id).collect();
        everyone.extend([overlaid.id(), sub.id()]);
        assert_eq!(receipt.matched, everyone);
    }

    #[test]
    fn tombstoned_base_subscription_stops_matching_immediately() {
        let s = schema();
        // max_overlay: 0 compiles both subscriptions into the base, so
        // the unsubscribe below takes the tombstone path.
        let broker = Broker::new(
            &s,
            BrokerConfig {
                rebuild: RebuildPolicy {
                    max_overlay: 0,
                    ..RebuildPolicy::default()
                },
                ..BrokerConfig::default()
            },
        )
        .unwrap();
        let hot = broker
            .subscribe(|b| b.predicate("temperature", Predicate::ge(35)))
            .unwrap();
        let humid = broker
            .subscribe(|b| b.predicate("humidity", Predicate::ge(90)))
            .unwrap();
        broker.unsubscribe(hot.id()).unwrap();
        assert_eq!(broker.subscription_count(), 1);
        let receipt = broker.publish(&event(&s, 40, 95)).unwrap();
        assert_eq!(receipt.matched, vec![humid.id()]);
        assert!(hot.try_recv().is_none(), "tombstoned sub gets nothing");
        assert!(humid.try_recv().is_some());
    }

    #[test]
    fn publish_rejects_ill_typed_events() {
        let s = schema();
        let broker = Broker::new(&s, BrokerConfig::default()).unwrap();
        let other = Schema::builder()
            .attribute("temperature", Domain::int(-1000, 1000))
            .unwrap()
            .attribute("humidity", Domain::int(0, 100))
            .unwrap()
            .build();
        let bad = Event::builder(&other)
            .value("temperature", 500)
            .unwrap()
            .build();
        assert!(broker.publish(&bad).is_err());
    }

    #[test]
    fn concurrent_publish_and_subscribe() {
        use std::sync::Arc;
        let s = schema();
        let broker = Arc::new(Broker::new(&s, BrokerConfig::default()).unwrap());
        let subs: Vec<_> = (0..4)
            .map(|k| {
                broker
                    .subscribe(move |b| b.predicate("temperature", Predicate::ge(k * 10)))
                    .unwrap()
            })
            .collect();
        let mut handles = Vec::new();
        for t in 0..4i64 {
            let broker = Arc::clone(&broker);
            let sc = s.clone();
            handles.push(std::thread::spawn(move || {
                for k in 0..50i64 {
                    let temp = ((t * 13 + k * 7) % 80) - 30;
                    broker.publish(&event(&sc, temp, 0)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let m = broker.metrics();
        assert_eq!(m.events_published, 200);
        let received: usize = subs.iter().map(|s| s.drain().len()).sum();
        assert_eq!(received as u64, m.notifications_sent);
    }
}
