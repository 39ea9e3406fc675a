//! Notification delivery: the batch path against the per-event path,
//! and wake-ups on the way out.
//!
//! `publish_batch` hands every subscriber its notifications of a batch
//! in one locked append; `publish_shared` sends them one at a time.
//! The oracle below gives twin brokers the same subscriptions, events,
//! drains and hang-ups and demands that nothing a caller can observe
//! tells the two apart. Across shard counts, the receipts that merge
//! the shards' rows must name what one shard's do.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ens_service::{Broker, BrokerConfig, Notification, PublishReceipt, Subscriber, SubscriptionId};
use ens_types::{Domain, Event, Predicate, Profile, ProfileId, Schema};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .attribute("y", Domain::int(0, 9))
        .unwrap()
        .build()
}

/// One broker of the pair with its consumers; `None` once a consumer
/// has hung up.
struct Twin {
    broker: Broker,
    ids: Vec<SubscriptionId>,
    subs: Vec<Option<Subscriber>>,
    streams: Vec<Vec<Notification>>,
    receipts: Vec<PublishReceipt>,
}

impl Twin {
    fn new(schema: &Schema, config: &BrokerConfig, profiles: &[Profile]) -> Twin {
        let broker = Broker::new(schema, config.clone()).unwrap();
        let subs = broker.subscribe_many(profiles.iter().cloned()).unwrap();
        Twin {
            broker,
            ids: subs.iter().map(Subscriber::id).collect(),
            streams: vec![Vec::new(); subs.len()],
            subs: subs.into_iter().map(Some).collect(),
            receipts: Vec::new(),
        }
    }

    /// What both twins do between batches: the last consumer hangs up
    /// before batch `hang_up`, every even one drains, the odd ones let
    /// their channels fill.
    fn between_batches(&mut self, batch: usize, hang_up: usize) {
        self.between_batches_unsubscribing(batch, hang_up, &[]);
    }

    /// [`Twin::between_batches`], and before batch `b` each subscriber
    /// `k` of an `(k, b)` in `unsubscribe` is unsubscribed.
    fn between_batches_unsubscribing(
        &mut self,
        batch: usize,
        hang_up: usize,
        unsubscribe: &[(usize, usize)],
    ) {
        for &(k, _) in unsubscribe.iter().filter(|(_, b)| *b == batch) {
            self.broker.unsubscribe(self.ids[k]).unwrap();
        }
        if batch == hang_up {
            *self.subs.last_mut().unwrap() = None;
        }
        for (k, sub) in self.subs.iter().enumerate().step_by(2) {
            if let Some(sub) = sub {
                self.streams[k].extend(sub.drain());
            }
        }
    }

    fn drain_all(&mut self) {
        for (k, sub) in self.subs.iter().enumerate() {
            if let Some(sub) = sub {
                self.streams[k].extend(sub.drain());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `publish_batch` ≡ N × `publish_shared`, over shards × channel
    /// capacity, on two attributes: a profile that also asks for `y`
    /// under one that does not is covered with a residual on both.
    ///
    /// Subscribers die on both routes: one consumer hangs up between
    /// two batches (a handle cannot be dropped *during* a
    /// `publish_batch` call). Compiled subscriptions are unsubscribed
    /// between batches, which tombstones them — representatives
    /// included, whose covered subscriptions go on being delivered.
    #[test]
    fn batch_delivery_equals_sequential_delivery(
        ranges in prop::collection::vec(
            (0i64..100, 0i64..100, prop::option::of((0i64..10, 0i64..10))),
            2..16,
        ),
        xys in prop::collection::vec((0i64..100, prop::option::of(0i64..10)), 8..100),
        batch_len in 1usize..40,
        hang_up in 0usize..4,
        unsubscribe in prop::collection::vec((0usize..16, 0usize..4), 0..4),
    ) {
        let schema = schema();
        // Per profile: its `x` range, and its `y` range if it has one.
        type Ranges = Vec<((i64, i64), Option<(i64, i64)>)>;
        let ranges: Ranges = ranges
            .iter()
            .map(|&(a, b, y)| ((a.min(b), a.max(b)), y.map(|(c, d)| (c.min(d), c.max(d)))))
            .collect();
        let profiles: Vec<Profile> = ranges
            .iter()
            .map(|&((lo, hi), y)| {
                let b = Profile::builder(&schema).predicate("x", Predicate::between(lo, hi));
                match y {
                    None => b,
                    Some((lo, hi)) => b.unwrap().predicate("y", Predicate::between(lo, hi)),
                }
                .unwrap()
                .build(ProfileId::new(0))
            })
            .collect();
        let events: Vec<Arc<Event>> = xys
            .iter()
            .map(|&(x, y)| {
                let b = Event::builder(&schema).value("x", x).unwrap();
                let b = match y {
                    None => b,
                    Some(y) => b.value("y", y).unwrap(),
                };
                Arc::new(b.build())
            })
            .collect();
        let hits = |sub: usize, event: usize| {
            let ((lo, hi), y) = ranges[sub];
            let (x, event_y) = xys[event];
            (lo..=hi).contains(&x)
                && y.is_none_or(|(a, b)| event_y.is_some_and(|v| (a..=b).contains(&v)))
        };
        // Not the last subscriber, which hangs up; each one once.
        let mut unsubscribe: Vec<(usize, usize)> = unsubscribe
            .iter()
            .map(|&(k, b)| (k % (profiles.len() - 1), b))
            .collect();
        unsubscribe.sort_unstable();
        unsubscribe.dedup_by_key(|(k, _)| *k);

        for shards in [1, 2, 4] {
            for notify_capacity in [0, 1, 4, 64] {
                let config = BrokerConfig {
                    shards,
                    notify_capacity,
                    ..BrokerConfig::default()
                };
                let case = format!("{shards} shards, capacity {notify_capacity}");
                let mut batched = Twin::new(&schema, &config, &profiles);
                let mut single = Twin::new(&schema, &config, &profiles);
                for (b, chunk) in events.chunks(batch_len).enumerate() {
                    batched.between_batches_unsubscribing(b, hang_up, &unsubscribe);
                    single.between_batches_unsubscribing(b, hang_up, &unsubscribe);
                    batched.receipts.extend(batched.broker.publish_batch(chunk).unwrap());
                    for event in chunk {
                        let receipt = single.broker.publish_shared(Arc::clone(event)).unwrap();
                        single.receipts.push(receipt);
                    }
                }
                batched.drain_all();
                single.drain_all();

                for (a, b) in batched.receipts.iter().zip(&single.receipts) {
                    prop_assert_eq!(
                        (a.sequence, &a.matched),
                        (b.sequence, &b.matched),
                        "{}", case
                    );
                }
                prop_assert_eq!(batched.receipts.len(), events.len());
                for &(k, b) in &unsubscribe {
                    let mut after = batched.receipts.iter().skip(b * batch_len);
                    prop_assert!(
                        after.all(|r| !r.matched.contains(&batched.ids[k])),
                        "{}: subscriber {} notified after it unsubscribed", case, k
                    );
                }
                prop_assert_eq!(&batched.ids, &single.ids);
                prop_assert_eq!(&batched.streams, &single.streams, "{}", case);
                for (a, b) in batched.subs.iter().zip(&single.subs) {
                    let state = |sub: &Option<Subscriber>| {
                        sub.as_ref().map(|s| (s.dropped(), s.is_disconnected()))
                    };
                    prop_assert_eq!(state(a), state(b), "{}", case);
                }
                let (a, b) = (batched.broker.metrics(), single.broker.metrics());
                prop_assert_eq!(a.notifications_sent, b.notifications_sent, "{}", case);
                prop_assert_eq!(a.overflow_dropped, b.overflow_dropped, "{}", case);
                prop_assert_eq!(a.subscriptions, b.subscriptions, "{}", case);

                // `dropped_notifications` counts refused sends. A
                // subscriber found dead at event i is cancelled
                // before event i + 1 is *matched*, which on the
                // batch route is the next batch: there the rest of
                // its hits in i's batch are refused and counted
                // too. The receipts (equal on both routes) say who
                // died where: a hit that no receipt names. An
                // unsubscribed subscriber is named no more without
                // having died.
                let mut deaths = 0;
                let mut refused_in_batch = 0;
                let unsubscribed = |sub: usize| unsubscribe.iter().any(|&(k, _)| k == sub);
                for sub in (0..profiles.len()).filter(|&sub| !unsubscribed(sub)) {
                    let id = single.ids[sub];
                    let missing = |e: &usize| {
                        hits(sub, *e) && !single.receipts[*e].matched.contains(&id)
                    };
                    if let Some(died) = (0..events.len()).find(missing) {
                        deaths += 1;
                        let batch_end = (died / batch_len + 1) * batch_len;
                        refused_in_batch += (died..batch_end.min(events.len()))
                            .filter(|e| hits(sub, *e))
                            .count() as u64;
                        prop_assert!(
                            (died..events.len()).all(|e| !hits(sub, e) || missing(&e)),
                            "{}: subscriber {} notified after it died", case, sub
                        );
                    }
                }
                prop_assert_eq!(b.dropped_notifications, deaths, "{}", case);
                prop_assert_eq!(a.dropped_notifications, refused_in_batch, "{}", case);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A sharded broker's receipt merges its shards' rows: with 2 and 3
    /// shards the receipts are ascending and name exactly what one
    /// shard's do — compiled and overlay subscriptions, through
    /// `publish_batch` and `publish_shared` alike, a consumer hanging
    /// up between two batches included.
    #[test]
    fn sharded_receipts_equal_one_shards(
        ranges in prop::collection::vec((0i64..100, 0i64..100), 2..24),
        xs in prop::collection::vec(0i64..100, 8..60),
        batch_len in 1usize..20,
        hang_up in 0usize..3,
    ) {
        let schema = schema();
        let profiles: Vec<Profile> = ranges
            .iter()
            .map(|&(a, b)| {
                Profile::builder(&schema)
                    .predicate("x", Predicate::between(a.min(b), a.max(b)))
                    .unwrap()
                    .build(ProfileId::new(0))
            })
            .collect();
        let (compiled, overlay) = profiles.split_at(profiles.len() / 2);
        let events: Vec<Arc<Event>> = xs
            .iter()
            .map(|x| Arc::new(Event::builder(&schema).value("x", *x).unwrap().build()))
            .collect();
        for batched in [true, false] {
            let mut by_shards = Vec::new();
            for shards in [1, 2, 3] {
                let config = BrokerConfig {
                    shards,
                    ..BrokerConfig::default()
                };
                let mut twin = Twin::new(&schema, &config, compiled);
                for p in overlay {
                    let sub = twin.broker.subscribe_profile(p.clone()).unwrap();
                    twin.ids.push(sub.id());
                    twin.subs.push(Some(sub));
                    twin.streams.push(Vec::new());
                }
                for (b, chunk) in events.chunks(batch_len).enumerate() {
                    twin.between_batches(b, hang_up);
                    if batched {
                        twin.receipts.extend(twin.broker.publish_batch(chunk).unwrap());
                    } else {
                        for event in chunk {
                            twin.receipts.push(twin.broker.publish_shared(Arc::clone(event)).unwrap());
                        }
                    }
                }
                let matched: Vec<Vec<SubscriptionId>> =
                    twin.receipts.into_iter().map(|r| r.matched).collect();
                for row in &matched {
                    prop_assert!(row.is_sorted(), "{} shards: {:?}", shards, row);
                }
                by_shards.push(matched);
            }
            prop_assert_eq!(&by_shards[1], &by_shards[0], "2 shards, batched {}", batched);
            prop_assert_eq!(&by_shards[2], &by_shards[0], "3 shards, batched {}", batched);
        }
    }
}

/// The last `Sender` used to be dropped without the channel's lock, so
/// its wake-up could fall between a parked-to-be consumer's "any
/// senders left?" check and its wait, and the consumer slept out its
/// whole timeout after an unsubscribe.
#[test]
fn unsubscribe_wakes_a_consumer_blocked_in_recv_timeout() {
    let schema = schema();
    // How long the previous round's unsubscribe took: the consumer's
    // entry into its wait is walked across that span, round by round,
    // because the window is its last few instructions.
    let mut unsubscribe_took = Duration::from_micros(20);
    for round in 0..1000 {
        let broker = Broker::new(&schema, BrokerConfig::default()).unwrap();
        let sub = broker.subscribe_parsed("profile(x >= 0)").unwrap();
        let id = sub.id();
        let start = Barrier::new(2);
        let enter_after = unsubscribe_took * (round % 50) / 40;
        std::thread::scope(|scope| {
            // The subscriber moves into its consumer: it is `Send`,
            // not `Sync`.
            let start = &start;
            let consumer = scope.spawn(move || {
                start.wait();
                let t0 = Instant::now();
                while t0.elapsed() < enter_after {
                    std::hint::spin_loop();
                }
                let t0 = Instant::now();
                (sub.recv_timeout(Duration::from_secs(10)), t0.elapsed())
            });
            start.wait();
            let t0 = Instant::now();
            broker.unsubscribe(id).unwrap();
            unsubscribe_took = t0.elapsed();
            let (got, took) = consumer.join().unwrap();
            assert_eq!(got, None);
            assert!(
                took < Duration::from_secs(1),
                "round {round}: slept {took:?} through the unsubscribe"
            );
        });
    }
}
