//! Covering-based interest aggregation: equivalence and minimality.
//!
//! A federated broker forwards its subscription population to each
//! peer as a *covering antichain*: the minimal set of profiles such
//! that every local subscription is covered by some forwarded
//! profile. These tests assert the two directions of that contract
//! under randomized subscribe/unsubscribe churn:
//!
//! * **No false negatives** — every event matching a live local
//!   subscription matches the forwarded set, so the peer still
//!   forwards it (checked end-to-end: each subscriber receives
//!   exactly the matching remote events, even right after the
//!   covering representative of its profile was unsubscribed).
//! * **Minimality** — the forwarded set never exceeds the size of
//!   the true minimal covering antichain of the live population,
//!   recomputed from scratch by the `ens-types` covering oracle.
//!
//! "Live" is the broker's word: a subscription leaves the population by
//! `unsubscribe`, or when its consumer hangs up and the next publish
//! that would have notified it collects it.

use std::collections::HashSet;
use std::sync::Arc;

use ens_service::federation::link::LinkConfig;
use ens_service::federation::sim::SimNet;
use ens_service::{
    Broker, BrokerConfig, DurabilityConfig, FaultFs, Federation, FederationConfig, FsyncPolicy,
    ServiceError, Subscriber,
};
use ens_types::{
    profile_signature, CoverSet, Domain, Event, Predicate, Profile, ProfileId, Schema, Value,
};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .expect("static schema")
        .build()
}

fn event(s: &Schema, x: i64) -> Event {
    Event::builder(s).value("x", x).expect("in domain").build()
}

fn range_profile(s: &Schema, lo: i64, hi: i64) -> Profile {
    Profile::builder(s)
        .predicate("x", Predicate::between(lo, hi))
        .expect("in domain")
        .build(ProfileId::new(0))
}

fn fast_link() -> LinkConfig {
    LinkConfig {
        heartbeat_ms: 50,
        timeout_ms: 300,
        backoff_base_ms: 20,
        backoff_max_ms: 200,
        rto_ms: 40,
        send_window: 32,
        pending_cap: 0,
    }
}

fn node(id: u64, broker: Broker) -> Federation {
    Federation::new(
        Arc::new(broker),
        FederationConfig {
            node: id,
            epoch: 1,
            max_hops: 0,
            link: fast_link(),
        },
    )
}

/// Nodes 1 and 2 linked over `net`, node 1 serving `broker`.
fn pair_over(net: &SimNet, broker: Broker) -> (Federation, Federation) {
    let a = node(1, broker);
    let b = node(
        2,
        Broker::new(&schema(), BrokerConfig::default()).expect("broker"),
    );
    a.add_peer(2, Box::new(net.transport(1, 2)), 0);
    b.add_peer(1, Box::new(net.transport(2, 1)), 0);
    (a, b)
}

fn pair(net: &SimNet) -> (Federation, Federation) {
    pair_over(
        net,
        Broker::new(&schema(), BrokerConfig::default()).expect("broker"),
    )
}

fn pump_both(net: &SimNet, a: &Federation, b: &Federation, steps: u32) {
    for _ in 0..steps {
        let now = net.now_ms();
        a.pump(now).expect("pump a");
        b.pump(now).expect("pump b");
        net.advance(10);
    }
}

/// The size of the true minimal covering antichain of `live`:
/// distinct signatures, bulk-analysed by the covering oracle.
fn oracle_antichain(s: &Schema, live: &[Profile]) -> usize {
    let mut seen = HashSet::new();
    let mut distinct = Vec::new();
    for p in live {
        if seen.insert(profile_signature(s, p).expect("lowerable")) {
            distinct.push(p.clone());
        }
    }
    let slots: Vec<(u32, &Profile)> = distinct
        .iter()
        .enumerate()
        .map(|(i, p)| (u32::try_from(i).expect("small"), p))
        .collect();
    CoverSet::build_bulk(s, slots)
        .expect("lowerable")
        .rep_count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random subscribe/unsubscribe/hang-up churn on interval profiles.
    /// After every converged step, the forwarded set must stay minimal, and
    /// probe events published at the peer must reach exactly the
    /// subscribers whose profiles match — i.e. the covering set never
    /// under-approximates the live population.
    #[test]
    fn churn_preserves_equivalence_and_minimality(
        ops in prop::collection::vec(
            // (step, lo, len): 1 subscribes [lo, lo+len]; 0 cancels
            // the (lo % live)-th live subscription; 2 has its consumer
            // hang up instead, which the broker finds out from the
            // next event it would have notified it of.
            (0u8..3, 0i64..90, 0i64..40),
            1..14,
        ),
    ) {
        let s = schema();
        let net = SimNet::new(99);
        let (a, b) = pair(&net);
        pump_both(&net, &a, &b, 6);

        let mut live: Vec<(Subscriber, Profile)> = Vec::new();
        for (step, lo, len) in ops {
            if step == 1 || live.is_empty() {
                let profile = range_profile(&s, lo, (lo + len).min(99));
                let sub = a.subscribe_profile(profile.clone()).expect("subscribe");
                live.push((sub, profile));
            } else {
                let idx = usize::try_from(lo).expect("positive") % live.len();
                let (sub, profile) = live.swap_remove(idx);
                if step == 0 {
                    a.unsubscribe(sub.id()).expect("unsubscribe");
                } else {
                    drop(sub);
                    let inside = (0..100).find(|&x| {
                        profile.matches(&s, &event(&s, x)).expect("matches")
                    });
                    b.publish(&event(&s, inside.expect("not empty"))).expect("publish");
                }
            }
            pump_both(&net, &a, &b, 6);

            // Minimality: never more forwarded rows than the true
            // minimal covering antichain of what is live right now.
            let profiles: Vec<Profile> = live.iter().map(|(_, p)| p.clone()).collect();
            let want = oracle_antichain(&s, &profiles);
            let got = a.forwarded_interest(2);
            prop_assert_eq!(
                got, want,
                "forwarded set must be the minimal covering antichain",
            );
        }

        // A link added only now is seeded through the same routine the
        // churn went through: it is offered the antichain of what is
        // live, not the history, and the older link's ledger is left
        // as it was.
        a.add_peer(3, Box::new(net.transport(1, 3)), 0);
        let profiles: Vec<Profile> = live.iter().map(|(_, p)| p.clone()).collect();
        let want = oracle_antichain(&s, &profiles);
        prop_assert_eq!(a.forwarded_interest(3), want);
        prop_assert_eq!(a.forwarded_interest(2), want);

        // Equivalence: probe the domain from the peer; each live
        // subscriber must see exactly its matching events. A false
        // negative in the covering set would starve some subscriber.
        for (sub, _) in &live {
            let _ = sub.drain();
        }
        let probes: Vec<i64> = (0..100).step_by(7).collect();
        for &x in &probes {
            b.publish(&event(&s, x)).expect("publish");
        }
        pump_both(&net, &a, &b, 30);
        let attr = s.require("x").expect("x");
        for (sub, profile) in &live {
            let got: Vec<i64> = sub
                .drain()
                .iter()
                .map(|n| match n.event.value(attr) {
                    Some(Value::Int(i)) => *i,
                    other => panic!("unexpected value {other:?}"),
                })
                .collect();
            let want: Vec<i64> = probes
                .iter()
                .copied()
                .filter(|&x| profile.matches(&s, &event(&s, x)).expect("matches"))
                .collect();
            prop_assert_eq!(got, want, "subscriber must see exactly its matches");
        }
    }
}

#[test]
fn covered_subscription_causes_no_wire_traffic() {
    // A wide profile is forwarded; a narrower one arrives. With
    // aggregation the narrow profile is absorbed silently — the
    // forwarded count stays 1 and no further Subscribe crosses the
    // wire (measured by the link's sent-frame counter staying flat
    // modulo heartbeats/acks: the forwarded-interest ledger is what
    // we assert on).
    let s = schema();
    let net = SimNet::new(7);
    let (a, b) = pair(&net);
    pump_both(&net, &a, &b, 6);

    let _wide = a
        .subscribe_profile(range_profile(&s, 0, 99))
        .expect("subscribe");
    pump_both(&net, &a, &b, 4);
    assert_eq!(a.forwarded_interest(2), 1);

    // An exact duplicate collapses onto the signature already on the
    // wire (the echo-damping invariant that keeps cyclic meshes
    // quiet), and the row stays while either contributor does.
    let twin = a
        .subscribe_profile(range_profile(&s, 0, 99))
        .expect("subscribe");
    assert_eq!(a.forwarded_interest(2), 1, "duplicates share one row");
    a.unsubscribe(twin.id()).expect("unsubscribe");
    assert_eq!(a.forwarded_interest(2), 1, "one contributor is left");

    let narrow = a
        .subscribe_profile(range_profile(&s, 40, 60))
        .expect("subscribe");
    pump_both(&net, &a, &b, 4);
    assert_eq!(
        a.forwarded_interest(2),
        1,
        "covered profile must not be forwarded"
    );

    // Events in the narrow range still arrive (forwarded via the
    // wide representative, dispatched locally to the narrow sub).
    b.publish(&event(&s, 50)).expect("publish");
    pump_both(&net, &a, &b, 10);
    assert_eq!(narrow.drain().len(), 1);
}

#[test]
fn unsubscribing_the_representative_promotes_the_covered() {
    // The wide representative goes away; the covering set must
    // promote the narrow profile it was standing in for — without a
    // gap (no false negatives) and without leaving the wide filter
    // in place (no stale over-forwarding).
    let s = schema();
    let net = SimNet::new(8);
    let (a, b) = pair(&net);
    pump_both(&net, &a, &b, 6);

    let wide = a
        .subscribe_profile(range_profile(&s, 0, 99))
        .expect("subscribe");
    let narrow = a
        .subscribe_profile(range_profile(&s, 40, 60))
        .expect("subscribe");
    pump_both(&net, &a, &b, 4);
    assert_eq!(a.forwarded_interest(2), 1);

    a.unsubscribe(wide.id()).expect("unsubscribe");
    pump_both(&net, &a, &b, 10);
    assert_eq!(a.forwarded_interest(2), 1, "narrow must be promoted");

    // In range: still delivered. Out of range: no longer forwarded
    // at all — the peer's filter now rejects it at the source.
    b.publish(&event(&s, 50)).expect("publish");
    b.publish(&event(&s, 10)).expect("publish");
    pump_both(&net, &a, &b, 20);
    assert_eq!(narrow.drain().len(), 1, "promoted profile keeps matching");
    assert_eq!(
        b.metrics().forwarded_rows,
        1,
        "the out-of-range event must not have crossed the wire"
    );
}

#[test]
fn dropped_subscriber_is_retracted_from_peers() {
    // The consumer hangs up without unsubscribing. The broker collects
    // the subscription on the next event it would have notified it of;
    // from then on no peer may hold interest for it, and no row may be
    // forwarded to a broker with nobody to deliver it to.
    let s = schema();
    let net = SimNet::new(9);
    let (a, b) = pair(&net);
    pump_both(&net, &a, &b, 6);

    let sub = a
        .subscribe_profile(range_profile(&s, 40, 60))
        .expect("subscribe");
    pump_both(&net, &a, &b, 4);
    assert_eq!(a.forwarded_interest(2), 1);
    assert_eq!(b.interested_peers(), 1);

    drop(sub);
    b.publish(&event(&s, 50)).expect("publish");
    pump_both(&net, &a, &b, 10);
    assert_eq!(a.broker().subscription_count(), 0, "collected");
    assert_eq!(a.forwarded_interest(2), 0, "and retracted");
    assert_eq!(b.interested_peers(), 0);

    let forwarded = b.metrics().forwarded_rows;
    for _ in 0..5 {
        b.publish(&event(&s, 50)).expect("publish");
    }
    pump_both(&net, &a, &b, 10);
    assert_eq!(b.metrics().forwarded_rows, forwarded);
}

#[test]
fn link_added_after_a_collection_is_not_offered_the_collected() {
    let s = schema();
    let net = SimNet::new(10);
    let (a, b) = pair(&net);
    pump_both(&net, &a, &b, 6);

    let _kept = a
        .subscribe_profile(range_profile(&s, 0, 9))
        .expect("subscribe");
    let gone = a
        .subscribe_profile(range_profile(&s, 40, 60))
        .expect("subscribe");
    // Made on the shared broker directly: local only, as ever.
    let _local = a
        .broker()
        .subscribe_profile(range_profile(&s, 80, 99))
        .expect("subscribe");
    pump_both(&net, &a, &b, 4);
    assert_eq!(a.forwarded_interest(2), 2);

    // Collected by a publish on the shared broker, between two pumps.
    drop(gone);
    a.broker().publish(&event(&s, 50)).expect("publish");
    assert_eq!(a.broker().subscription_count(), 2);

    // The new link is seeded from what the broker holds now…
    a.add_peer(3, Box::new(net.transport(1, 3)), 0);
    assert_eq!(a.forwarded_interest(3), 1);
    // …and the older one hears of the collection with the next pump.
    pump_both(&net, &a, &b, 4);
    assert_eq!(a.forwarded_interest(2), 1);
    assert_eq!(a.forwarded_interest(3), 1);
}

#[test]
fn unsubscribe_retracts_when_only_the_wal_append_failed() {
    // The broker cancels in memory, then logs: with the disk full the
    // subscription is gone and the call still fails. The peers must
    // hear of the first half.
    let s = schema();
    let fs = FaultFs::new();
    let durability = DurabilityConfig {
        fsync: FsyncPolicy::Always,
        vfs: Arc::new(fs.clone()),
        ..DurabilityConfig::new("db")
    };
    let broker = Broker::open(&s, BrokerConfig::default(), durability)
        .expect("open")
        .broker;
    let net = SimNet::new(11);
    let (a, b) = pair_over(&net, broker);
    pump_both(&net, &a, &b, 6);

    let sub = a
        .subscribe_profile(range_profile(&s, 40, 60))
        .expect("subscribe");
    pump_both(&net, &a, &b, 4);
    assert_eq!(a.forwarded_interest(2), 1);

    fs.fail_appends(true);
    let failed = a.unsubscribe(sub.id());
    assert!(
        matches!(failed, Err(ServiceError::Persist(_))),
        "{failed:?}"
    );
    assert_eq!(a.broker().subscription_count(), 0);
    assert_eq!(a.forwarded_interest(2), 0);
    pump_both(&net, &a, &b, 4);
    assert_eq!(b.interested_peers(), 0);
}
