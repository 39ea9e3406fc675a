//! Batched remote ingress composed with bounded subscriber channels.
//!
//! Remote `Batch` rows are resolved once at ingress and delivered
//! through the broker's block-matching path
//! (`publish_batch_prepared`). These tests pin down that the batched
//! path is observationally equivalent to the per-row path it
//! replaced, including its interaction with bounded notification
//! channels, which drop their oldest notification when full: the same
//! rows arrive, the same rows are shed, and the shed count is reported.

use std::sync::Arc;

use ens_service::federation::link::LinkConfig;
use ens_service::federation::sim::SimNet;
use ens_service::{Broker, BrokerConfig, Federation, FederationConfig};
use ens_types::{Domain, Event, IndexedBatch, Schema, Value};

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 9_999))
        .expect("static schema")
        .build()
}

fn event(x: i64) -> Event {
    Event::builder(&schema())
        .value("x", x)
        .expect("in domain")
        .build()
}

fn fast_link() -> LinkConfig {
    LinkConfig {
        heartbeat_ms: 50,
        timeout_ms: 300,
        backoff_base_ms: 20,
        backoff_max_ms: 200,
        rto_ms: 40,
        send_window: 64,
        pending_cap: 0,
    }
}

/// Publisher `a` (unbounded) and subscriber `b` whose local broker
/// bounds each notification channel at `capacity`.
fn pair(net: &SimNet, capacity: usize) -> (Federation, Federation) {
    let s = schema();
    let a = Federation::new(
        Arc::new(Broker::new(&s, BrokerConfig::default()).expect("broker")),
        FederationConfig {
            node: 1,
            epoch: 1,
            link: fast_link(),
            ..FederationConfig::default()
        },
    );
    let b = Federation::new(
        Arc::new(
            Broker::new(
                &s,
                BrokerConfig {
                    notify_capacity: capacity,
                    ..BrokerConfig::default()
                },
            )
            .expect("broker"),
        ),
        FederationConfig {
            node: 2,
            epoch: 1,
            link: fast_link(),
            ..FederationConfig::default()
        },
    );
    a.add_peer(2, Box::new(net.transport(1, 2)), 0);
    b.add_peer(1, Box::new(net.transport(2, 1)), 0);
    (a, b)
}

fn pump_both(net: &SimNet, a: &Federation, b: &Federation, steps: u32) {
    for _ in 0..steps {
        let now = net.now_ms();
        a.pump(now).expect("pump a");
        b.pump(now).expect("pump b");
        net.advance(10);
    }
}

fn xs(notifications: &[ens_service::Notification]) -> Vec<i64> {
    let s = schema();
    let attr = s.require("x").expect("x");
    notifications
        .iter()
        .map(|n| match n.event.value(attr) {
            Some(Value::Int(i)) => *i,
            other => panic!("unexpected value {other:?}"),
        })
        .collect()
}

#[test]
fn remote_batch_delivery_matches_the_per_row_oracle() {
    // One forwarded batch, an unbounded subscriber: the delivered
    // stream equals the matching rows in publish order — exactly
    // what N single publishes produced before batched ingress.
    let net = SimNet::new(3);
    let (a, b) = pair(&net, 0);
    let sub = b.subscribe_parsed("profile(x >= 100)").expect("subscribe");
    pump_both(&net, &a, &b, 6);

    let events: Vec<Arc<Event>> = (0..60).map(|i| Arc::new(event(90 + i))).collect();
    a.publish_batch(&events).expect("publish");
    pump_both(&net, &a, &b, 40);

    let want: Vec<i64> = (0..60).map(|i| 90 + i).filter(|&x| x >= 100).collect();
    assert_eq!(xs(&sub.drain()), want);
    assert_eq!(b.metrics().delivered_rows, want.len() as u64);
    // The non-matching prefix never crossed the wire.
    assert_eq!(a.metrics().forwarded_rows, want.len() as u64);
}

#[test]
fn drop_oldest_keeps_the_newest_suffix_and_reports_shedding() {
    // The remote batch overruns a capacity-8 channel, which keeps the *last* 8 matching rows, sheds the rest, and the shed
    // count is visible on the subscriber.
    let net = SimNet::new(5);
    let (a, b) = pair(&net, 8);
    let sub = b.subscribe_parsed("profile(x >= 0)").expect("subscribe");
    pump_both(&net, &a, &b, 6);

    let events: Vec<Arc<Event>> = (0..50).map(|i| Arc::new(event(i))).collect();
    a.publish_batch(&events).expect("publish");
    pump_both(&net, &a, &b, 40);

    // Delivery into the channel happened for every row (the broker
    // matched them all)...
    assert_eq!(b.metrics().delivered_rows, 50);
    // ...but the bounded channel kept only the newest 8.
    let got = xs(&sub.drain());
    assert_eq!(got, (42..50).collect::<Vec<i64>>());
    assert_eq!(sub.dropped(), 42, "shed rows must be counted, not silent");
    // Shedding severs neither the channel nor the link.
    let more: Vec<Arc<Event>> = (100..103).map(|i| Arc::new(event(i))).collect();
    a.publish_batch(&more).expect("publish");
    pump_both(&net, &a, &b, 40);
    assert_eq!(xs(&sub.drain()), vec![100, 101, 102]);
}

#[test]
fn receipt_free_ingress_collects_hung_up_subscribers() {
    // Ingress publishes without receipts, and still collects a
    // subscriber whose consumer hung up and counts the notifications it
    // missed — as `publish_batch_prepared` does on a twin broker fed
    // the same rows in one batch.
    let net = SimNet::new(11);
    let (a, b) = pair(&net, 0);
    let texts = ["profile(x >= 100)", "profile(x >= 0)", "profile(x <= 120)"];
    let mut subs: Vec<_> = texts
        .iter()
        .map(|t| b.subscribe_parsed(t).unwrap())
        .collect();
    let twin = Broker::new(&schema(), BrokerConfig::default()).expect("broker");
    let mut twin_subs: Vec<_> = texts
        .iter()
        .map(|t| twin.subscribe_parsed(t).unwrap())
        .collect();
    pump_both(&net, &a, &b, 6);
    // The one matching every row hangs up.
    drop(subs.remove(1));
    drop(twin_subs.remove(1));

    let events: Vec<Arc<Event>> = (0..40).map(|i| Arc::new(event(90 + i))).collect();
    a.publish_batch(&events).expect("publish");
    pump_both(&net, &a, &b, 40);
    let mut indexed = IndexedBatch::new();
    indexed
        .resolve_into(&schema(), events.iter().map(Arc::as_ref))
        .unwrap();
    let receipts = twin.publish_batch_prepared(&events, &indexed).unwrap();
    assert_eq!(receipts.len(), 40);

    let edge = b.broker();
    assert_eq!(b.metrics().delivered_rows, 40);
    assert_eq!(edge.subscription_count(), 2, "collected at the edge");
    assert_eq!(twin.subscription_count(), 2);
    // One per (event, severed subscriber): every row matched it.
    assert_eq!(edge.metrics().dropped_notifications, 40);
    assert_eq!(twin.metrics().dropped_notifications, 40);
    for (sub, twin_sub) in subs.iter().zip(&twin_subs) {
        let got = xs(&sub.drain());
        assert!(!got.is_empty());
        assert_eq!(got, xs(&twin_sub.drain()), "{}", sub.id());
    }
}
