//! Overload behaviour: slow consumers under bounded channels, dropped
//! consumers, and panic isolation in the batch fan-out.

use std::sync::Arc;

use ens_service::{Broker, BrokerConfig};
use ens_types::{Domain, Event, Schema};

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 999))
        .expect("static schema")
        .build()
}

fn event(s: &Schema, x: i64) -> Event {
    Event::builder(s).value("x", x).expect("in domain").build()
}

fn broker(config: BrokerConfig) -> Broker {
    Broker::new(&schema(), config).expect("broker")
}

#[test]
fn slow_consumer_overflows_without_disturbing_the_fast_one() {
    let b = broker(BrokerConfig {
        notify_capacity: 4,
        ..BrokerConfig::default()
    });
    let s = schema();
    // The "parked" consumer never drains; the healthy one drains fully.
    let parked = b.subscribe_parsed("profile(x >= 0)").unwrap();
    let healthy = b.subscribe_parsed("profile(x >= 0)").unwrap();
    // The healthy consumer drains as it goes; the parked one never does.
    let mut got: Vec<i64> = Vec::new();
    for x in 0..20 {
        b.publish(&event(&s, x)).unwrap();
        got.extend(
            healthy
                .drain()
                .iter()
                .map(|n| match n.event.value(s.require("x").unwrap()) {
                    Some(ens_types::Value::Int(i)) => *i,
                    other => panic!("unexpected value {other:?}"),
                }),
        );
    }
    // The healthy consumer saw every event, in publish order.
    assert_eq!(got, (0..20).collect::<Vec<_>>());
    // The parked one kept only the newest `capacity` notifications —
    // a full queue sheds from the front — and knows how many it lost.
    assert_eq!(parked.pending(), 4);
    assert_eq!(parked.dropped(), 16);
    let kept: Vec<i64> = parked
        .drain()
        .iter()
        .map(|n| match n.event.value(s.require("x").unwrap()) {
            Some(ens_types::Value::Int(i)) => *i,
            other => panic!("unexpected value {other:?}"),
        })
        .collect();
    assert_eq!(kept, vec![16, 17, 18, 19]);
    // The shed notifications are visible in the broker metrics, and
    // both subscriptions are still live (overflow is not an error).
    let m = b.metrics();
    assert_eq!(m.overflow_dropped, 16);
    assert_eq!(m.subscriptions, 2);
    assert!(!parked.is_disconnected());
}

#[test]
fn dropped_consumer_is_pruned_and_others_see_every_event() {
    let b = broker(BrokerConfig::default());
    let s = schema();
    let dead = b.subscribe_parsed("profile(x >= 0)").unwrap();
    let live = b.subscribe_parsed("profile(x >= 0)").unwrap();
    assert_eq!(b.metrics().subscriptions, 2);
    drop(dead);
    // First publish after the hang-up detects the dead channel,
    // counts it, and unsubscribes it.
    for x in 0..3 {
        b.publish(&event(&s, x)).unwrap();
    }
    let m = b.metrics();
    assert_eq!(m.subscriptions, 1);
    assert_eq!(m.dropped_notifications, 1);
    let got: Vec<u64> = live.drain().iter().map(|n| n.sequence).collect();
    assert_eq!(got.len(), 3);
    assert!(got.windows(2).all(|w| w[0] < w[1]), "in order: {got:?}");
}

/// A dropped subscriber used to leave its backlog queued inside the
/// channel the broker's dispatch entries and snapshots still hold,
/// until some later publish happened to match the subscription.
#[test]
fn dropped_consumer_frees_its_backlog_at_once() {
    let b = broker(BrokerConfig::default());
    let s = schema();
    let sub = b.subscribe_parsed("profile(x >= 0)").unwrap();
    let e = Arc::new(event(&s, 7));
    for _ in 0..20 {
        b.publish_shared(Arc::clone(&e)).unwrap();
    }
    // Part of the backlog claimed by the consumer, the rest queued.
    assert!(sub.try_recv().is_some());
    assert_eq!(sub.pending(), 19);
    assert_eq!(Arc::strong_count(&e), 20);
    drop(sub);
    assert_eq!(Arc::strong_count(&e), 1, "no publish needed to let go");
    assert_eq!(b.metrics().subscriptions, 1, "pruned by the next match");
    b.publish_shared(Arc::clone(&e)).unwrap();
    assert_eq!(b.metrics().subscriptions, 0);
    assert_eq!(Arc::strong_count(&e), 1);
}

/// What a receive has claimed is received: `notify_capacity` bounds
/// the queue, overflow sheds from the queue, `pending` counts both.
#[test]
fn capacity_bounds_what_is_queued_not_what_the_consumer_claimed() {
    // One lock moves up to `CLAIM` = 8 queued notifications to the
    // consumer, which hands out the first.
    const CAPACITY: usize = 10;
    const CLAIMED: usize = 8 - 1;
    let s = schema();
    let x_of = |n: &ens_service::Notification| match n.event.value(s.require("x").unwrap()) {
        Some(ens_types::Value::Int(i)) => *i,
        other => panic!("unexpected value {other:?}"),
    };
    let b = broker(BrokerConfig {
        notify_capacity: CAPACITY,
        ..BrokerConfig::default()
    });
    let sub = b.subscribe_parsed("profile(x >= 0)").unwrap();
    for x in 0..10 {
        b.publish(&event(&s, x)).unwrap();
    }
    assert_eq!(sub.pending(), CAPACITY);
    // 0 received, 1..=7 claimed, 8 and 9 queued.
    assert_eq!(sub.try_recv().as_ref().map(x_of), Some(0));
    assert_eq!(sub.pending(), CAPACITY - 1);
    // Room for eight more: the queue is what the capacity bounds.
    for x in 10..18 {
        b.publish(&event(&s, x)).unwrap();
    }
    assert_eq!(sub.pending(), CAPACITY + CLAIMED);
    assert_eq!((sub.dropped(), b.metrics().overflow_dropped), (0, 0));
    // A receive between the sends, from the claim: the queue stays
    // full.
    assert_eq!(sub.try_recv().as_ref().map(x_of), Some(1));
    // Two too many, as one run (the batch path): the two oldest queued
    // go, the claim stays.
    let run: Vec<_> = (18..20).map(|x| Arc::new(event(&s, x))).collect();
    b.publish_batch(&run).unwrap();
    let kept: Vec<i64> = (2..8).chain(10..20).collect();
    assert_eq!(sub.pending(), kept.len());
    assert_eq!(sub.dropped(), 2);
    assert_eq!(b.metrics().overflow_dropped, 2);
    assert!(!sub.is_disconnected());
    let got: Vec<i64> = sub.drain().iter().map(x_of).collect();
    assert_eq!(got, kept);
    assert_eq!(sub.pending(), 0);
}

/// Both shards of a batch run on the publishing thread, one after the
/// other: a panic in either is caught, counted, and costs only that
/// shard's share of that batch.
#[test]
fn batch_worker_panic_is_isolated_to_its_shard() {
    let b = broker(BrokerConfig {
        shards: 2,
        ..BrokerConfig::default()
    });
    let s = schema();
    let subs: Vec<_> = (0..4)
        .map(|_| b.subscribe_parsed("profile(x >= 0)").unwrap())
        .collect();
    let batch: Vec<Arc<Event>> = (0..8).map(|x| Arc::new(event(&s, x))).collect();

    let mut lost_with = Vec::new();
    for shard in 0..2 {
        b.inject_batch_worker_panic(shard);
        let receipts = b.publish_batch(&batch).expect("batch must survive");
        assert_eq!(receipts.len(), 8);
        assert_eq!(b.metrics().shard_panics, shard as u64 + 1);
        // A subscription lives on one shard: its deliveries for this
        // batch are lost with it, or all arrive.
        let got: Vec<usize> = subs.iter().map(|sub| sub.drain().len()).collect();
        assert!(got.iter().all(|&n| n == 0 || n == 8), "got {got:?}");
        lost_with.push(got.iter().map(|&n| n == 0).collect::<Vec<_>>());

        // Next batch runs clean: the fault was one-shot and nothing
        // poisoned the shard.
        let receipts = b.publish_batch(&batch).expect("second batch");
        assert_eq!(receipts.len(), 8);
        assert_eq!(b.metrics().shard_panics, shard as u64 + 1);
        assert!(subs.iter().all(|sub| sub.drain().len() == 8));
    }
    // Each shard had subscribers to lose, and they are the other
    // shard's survivors.
    assert!(lost_with[0].contains(&true) && lost_with[1].contains(&true));
    assert!(lost_with[0].iter().zip(&lost_with[1]).all(|(a, b)| a != b));
    assert_eq!(b.metrics().subscriptions, 4);
}
