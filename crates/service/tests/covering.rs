//! Broker-level covering tests: the expansion map must survive a
//! checkpoint round-trip byte-exactly, and a covering broker must be
//! observationally identical to a covering-off broker over the same
//! subscribe/unsubscribe/publish sequence.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ens_filter::{FilterSnapshot, RebuildPolicy};
use ens_service::persist::{checkpoint_gen_file, Checkpoint};
use ens_service::{
    Broker, BrokerConfig, DurabilityConfig, FsyncPolicy, Subscriber, SubscriptionId,
};
use ens_types::{Domain, Event, Predicate, Profile, ProfileId, Schema};

fn schema() -> Schema {
    Schema::builder()
        .attribute("price", Domain::int(0, 500))
        .unwrap()
        .attribute("qty", Domain::int(0, 50))
        .unwrap()
        .attribute(
            "venue",
            Domain::categorical(["nyse", "lse", "tse"]).unwrap(),
        )
        .unwrap()
        .build()
}

fn profile(schema: &Schema, preds: Vec<Predicate>) -> Profile {
    Profile::from_predicates(schema, ProfileId::new(0), preds).unwrap()
}

/// A duplicate-heavy population: a few general roots, many exact
/// duplicates and single-attribute narrowings.
fn covered_population(schema: &Schema) -> Vec<Profile> {
    let mut out = Vec::new();
    for r in 0..4u64 {
        let root = vec![
            Predicate::ge(100 * r as i64),
            Predicate::DontCare,
            Predicate::DontCare,
        ];
        out.push(profile(schema, root.clone()));
        for c in 0..6u64 {
            let mut preds = root.clone();
            match c % 3 {
                0 => {} // exact duplicate
                1 => preds[1] = Predicate::le(5 + c as i64),
                _ => preds[2] = Predicate::eq(["nyse", "lse", "tse"][(c % 3) as usize]),
            }
            out.push(profile(schema, preds));
        }
    }
    out
}

fn events(schema: &Schema) -> Vec<Event> {
    (0..40u64)
        .map(|i| {
            Event::builder(schema)
                .value("price", (i * 37 % 500) as i64)
                .unwrap()
                .value("qty", (i % 50) as i64)
                .unwrap()
                .value("venue", ["nyse", "lse", "tse"][(i % 3) as usize])
                .unwrap()
                .build()
        })
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ens-covering-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: 0,
        fsync: FsyncPolicy::Never,
        checkpoint_generations: 1,
        ..DurabilityConfig::new(dir)
    }
}

fn config(covering: bool) -> BrokerConfig {
    BrokerConfig {
        covering,
        rebuild: RebuildPolicy {
            max_overlay: 64,
            ..RebuildPolicy::default()
        },
        ..BrokerConfig::default()
    }
}

#[test]
fn checkpoint_round_trip_preserves_expansion_map_byte_exactly() {
    let schema = schema();
    let dir = scratch_dir("roundtrip");
    let recovered = Broker::open(&schema, config(true), durability(&dir)).unwrap();
    let broker = recovered.broker;
    let subs = broker.subscribe_many(covered_population(&schema)).unwrap();
    // Covered overlay entries: exact duplicates of compiled roots.
    for r in 0..3u64 {
        broker
            .subscribe_profile(profile(
                &schema,
                vec![
                    Predicate::ge(100 * r as i64),
                    Predicate::DontCare,
                    Predicate::DontCare,
                ],
            ))
            .unwrap();
    }
    // And a tombstone, so the round trip covers all three regions.
    broker.unsubscribe(subs[5].id()).unwrap();
    assert!(broker.checkpoint().unwrap());

    let cp_bytes = std::fs::read(dir.join(checkpoint_gen_file(1))).unwrap();
    let cp = Checkpoint::from_bytes(&cp_bytes).unwrap();
    let mut pruned = false;
    for shard in &cp.shards {
        let snap = FilterSnapshot::from_bytes(&shard.filter).unwrap();
        if snap.base_len() > 0 {
            let plan = snap.cover_plan().expect("covering broker writes a plan");
            assert_eq!(plan.rep_count() + plan.covered_count(), snap.base_len());
            pruned |= snap.compiled_len() < snap.base_len();
        }
    }
    assert!(pruned, "the duplicate-heavy population must be pruned");
    drop(broker);

    // Recover and re-checkpoint: every shard's filter snapshot — cover
    // plan, overlay expansion entries and all — must re-encode to the
    // exact bytes the first checkpoint wrote.
    let recovered = Broker::open(&schema, config(true), durability(&dir)).unwrap();
    assert!(recovered.broker.checkpoint().unwrap());
    let cp2 =
        Checkpoint::from_bytes(&std::fs::read(dir.join(checkpoint_gen_file(2))).unwrap()).unwrap();
    assert_eq!(cp.shards.len(), cp2.shards.len());
    for (a, b) in cp.shards.iter().zip(&cp2.shards) {
        assert_eq!(a.filter, b.filter, "filter snapshot bytes must round-trip");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn covering_broker_is_observationally_identical_to_uncovered() {
    let schema = schema();
    for dfsa in [false, true] {
        let mut on_cfg = config(true);
        let mut off_cfg = config(false);
        on_cfg.dfsa_dispatch = dfsa;
        off_cfg.dfsa_dispatch = dfsa;
        let on = Broker::new(&schema, on_cfg).unwrap();
        let off = Broker::new(&schema, off_cfg).unwrap();

        let subs_on = on.subscribe_many(covered_population(&schema)).unwrap();
        let subs_off = off.subscribe_many(covered_population(&schema)).unwrap();
        // Post-load churn: covered and uncovered overlay subscribes
        // plus tombstones on both brokers, identically.
        for b in [&on, &off] {
            b.subscribe_profile(profile(
                &schema,
                vec![Predicate::ge(0), Predicate::DontCare, Predicate::DontCare],
            ))
            .unwrap();
            b.subscribe_profile(profile(
                &schema,
                vec![
                    Predicate::between(490, 500),
                    Predicate::eq(1),
                    Predicate::eq("tse"),
                ],
            ))
            .unwrap();
        }
        on.unsubscribe(subs_on[3].id()).unwrap();
        off.unsubscribe(subs_off[3].id()).unwrap();
        assert_eq!(on.subscription_count(), off.subscription_count());

        for e in events(&schema) {
            let ra = on.publish(&e).unwrap();
            let rb = off.publish(&e).unwrap();
            assert_eq!(ra.matched, rb.matched, "dfsa_dispatch = {dfsa}");
        }
        let batch: Vec<_> = events(&schema)
            .into_iter()
            .map(std::sync::Arc::new)
            .collect();
        let ba = on.publish_batch(&batch).unwrap();
        let bb = off.publish_batch(&batch).unwrap();
        for (ra, rb) in ba.iter().zip(&bb) {
            assert_eq!(ra.matched, rb.matched, "batch, dfsa_dispatch = {dfsa}");
        }
    }
}

/// What a broker re-opened from the checkpoint image `cp` serves: its
/// live ids, and who each event of the battery is delivered to.
fn reopened(
    schema: &Schema,
    cfg: &BrokerConfig,
    cp: &[u8],
    tag: &str,
) -> (Vec<SubscriptionId>, Vec<Vec<SubscriptionId>>) {
    let dir = scratch_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(checkpoint_gen_file(1)), cp).unwrap();
    let recovered = Broker::open(schema, cfg.clone(), durability(&dir)).unwrap();
    let live = recovered.subscribers.iter().map(|s| s.id()).collect();
    let battery = events(schema)
        .iter()
        .map(|e| recovered.broker.publish(e).unwrap().matched)
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (live, battery)
}

/// A subscribe that fails, and an unsubscribe whose compaction fails,
/// leave a covering shard — containment index, overlay expansion
/// entries, tombstones — as it was. Checked from outside: a broker
/// re-opened from a checkpoint taken after the failed call serves what
/// one re-opened from a checkpoint taken before it serves. (The files
/// cannot be compared: a failed subscribe still uses up its id.)
#[test]
fn failed_operations_leave_the_covering_state_intact() {
    let schema = schema();
    let cfg = BrokerConfig {
        // The battery must not set off a drift rebuild.
        stats_sample: 0,
        ..config(true)
    };
    let dir = scratch_dir("intact");
    let broker = Broker::open(&schema, cfg.clone(), durability(&dir))
        .unwrap()
        .broker;
    let subs = broker.subscribe_many(covered_population(&schema)).unwrap();
    // Overlay-resident: one covered by a compiled root, one not.
    for price in [Predicate::ge(100), Predicate::between(490, 500)] {
        let preds = vec![price, Predicate::eq(1), Predicate::DontCare];
        broker.subscribe_profile(profile(&schema, preds)).unwrap();
    }
    // The latest checkpoint image (one generation is kept).
    let image = |gen: u64, dir: &Path| std::fs::read(dir.join(checkpoint_gen_file(gen))).unwrap();

    // A profile built against a wider schema: lowering it fails.
    let wide = Schema::builder()
        .attribute("price", Domain::int(0, 5000))
        .unwrap()
        .build();
    let foreign = Profile::builder(&wide)
        .predicate("price", Predicate::between(4000, 4500))
        .unwrap()
        .build(ProfileId::new(0));
    assert!(broker.checkpoint().unwrap());
    let before = image(1, &dir);
    assert!(broker.subscribe_profile(foreign).is_err());
    assert!(broker.checkpoint().unwrap());
    let after = image(2, &dir);
    let served = reopened(&schema, &cfg, &before, "subscribe-before");
    assert_eq!(served.0.len(), subs.len() + 2);
    assert_eq!(reopened(&schema, &cfg, &after, "subscribe-after"), served);
    drop(broker);
    let _ = std::fs::remove_dir_all(&dir);

    // No profile that is live can fail to compile, so the compaction is
    // made to fail from the checkpoint: the image above with weights no
    // tree can be built with, which a restore takes as they are.
    let mut poisoned = Checkpoint::from_bytes(&after).unwrap();
    for entry in poisoned.shards.iter_mut().flat_map(|s| &mut s.base) {
        entry.weight = f64::NAN;
    }
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join(checkpoint_gen_file(1)),
        poisoned.to_bytes().unwrap(),
    )
    .unwrap();
    // Every unsubscribe of a compiled entry compacts.
    let compacting = BrokerConfig {
        rebuild: RebuildPolicy {
            max_overlay: 0,
            ..cfg.rebuild
        },
        ..cfg.clone()
    };
    let broker = Broker::open(&schema, compacting, durability(&dir))
        .unwrap()
        .broker;
    assert!(broker.checkpoint().unwrap());
    let before = image(2, &dir);
    let live = broker.subscription_count();
    assert!(broker.unsubscribe(subs[5].id()).is_err());
    assert_eq!(broker.subscription_count(), live);
    assert!(broker.checkpoint().unwrap());
    let after = image(3, &dir);
    assert_eq!(
        reopened(&schema, &cfg, &before, "compaction-before"),
        served
    );
    assert_eq!(reopened(&schema, &cfg, &after, "compaction-after"), served);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A broker re-opened from a covering checkpoint keeps covering: its
/// containment index is rebuilt from the restored plan's
/// representatives alone, and an exact duplicate of a compiled root
/// subscribed after the restart is delivered through expansion, to the
/// naive oracle's receipts, into the same filter a broker that never
/// restarted compiles.
#[test]
fn a_duplicate_subscribed_after_recovery_is_delivered_through_expansion() {
    let schema = schema();
    let cfg = BrokerConfig {
        // The battery must not set off a drift rebuild.
        stats_sample: 0,
        ..config(true)
    };
    let dir = scratch_dir("after-recovery");
    let original = Broker::open(&schema, cfg.clone(), durability(&dir))
        .unwrap()
        .broker;
    let population = covered_population(&schema);
    let subs = original.subscribe_many(population.clone()).unwrap();
    assert!(original.checkpoint().unwrap());
    let image = std::fs::read(dir.join(checkpoint_gen_file(1))).unwrap();
    let reopened_dir = scratch_dir("after-recovery-reopened");
    std::fs::create_dir_all(&reopened_dir).unwrap();
    std::fs::write(reopened_dir.join(checkpoint_gen_file(1)), &image).unwrap();
    let restarted = Broker::open(&schema, cfg, durability(&reopened_dir)).unwrap();

    // Root 1 (`price >= 100`) was compiled; subscribe it once more on
    // both brokers.
    let duplicate = population[7].clone();
    let mut oracle: Vec<(SubscriptionId, Profile)> =
        subs.iter().map(|s| s.id()).zip(population).collect();
    let later = original.subscribe_profile(duplicate.clone()).unwrap();
    let also = restarted
        .broker
        .subscribe_profile(duplicate.clone())
        .unwrap();
    assert_eq!(later.id(), also.id());
    oracle.push((later.id(), duplicate));

    let mut matching = 0;
    for e in events(&schema) {
        let want: Vec<SubscriptionId> = oracle
            .iter()
            .filter(|(_, p)| p.matches(&schema, &e).unwrap())
            .map(|(id, _)| *id)
            .collect();
        let delivered = restarted.broker.metrics().cover_delivered;
        let got = restarted.broker.publish(&e).unwrap().matched;
        assert_eq!(got, want, "receipt after recovery");
        assert_eq!(original.publish(&e).unwrap().matched, want);
        if got.contains(&later.id()) {
            matching += 1;
            assert!(
                restarted.broker.metrics().cover_delivered > delivered,
                "the duplicate is delivered through expansion"
            );
        }
    }
    assert!(matching > 0, "the battery matches the duplicate");

    assert!(original.checkpoint().unwrap());
    assert!(restarted.broker.checkpoint().unwrap());
    let shards = |dir: &Path| {
        let image = std::fs::read(dir.join(checkpoint_gen_file(2))).unwrap();
        Checkpoint::from_bytes(&image).unwrap().shards
    };
    let (never, after) = (shards(&dir), shards(&reopened_dir));
    assert_eq!(never.len(), after.len());
    for (a, b) in never.iter().zip(&after) {
        assert_eq!(a.filter, b.filter, "filter bytes after recovery");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&reopened_dir);
}

/// A broker re-opened with covering switched off keeps matching the
/// checkpointed overlay as the snapshot compiled it: an uncovered
/// subscribe after the restart rebuilds the counting index over the
/// positions the snapshot matches by index, never over a covered one,
/// so a covered duplicate is named once and delivered once on both
/// publish paths — and again after a second restart with covering on.
#[test]
fn a_covering_flip_on_reopen_delivers_a_covered_entry_once() {
    let schema = schema();
    let cfg = |covering| BrokerConfig {
        // The battery must not set off a drift rebuild.
        stats_sample: 0,
        ..config(covering)
    };
    let root = |price| {
        profile(
            &schema,
            vec![
                Predicate::ge(price),
                Predicate::DontCare,
                Predicate::DontCare,
            ],
        )
    };
    let dir = scratch_dir("flip");
    let broker = Broker::open(&schema, cfg(true), durability(&dir))
        .unwrap()
        .broker;
    broker.subscribe_many([0, 100, 200, 300].map(root)).unwrap();
    // An exact duplicate of a compiled root: a covered overlay entry.
    let duplicate = broker.subscribe_profile(root(100)).unwrap().id();
    assert!(broker.checkpoint().unwrap());
    drop(broker);
    let event = Arc::new(
        Event::builder(&schema)
            .value("price", 350)
            .unwrap()
            .value("qty", 1)
            .unwrap()
            .value("venue", "nyse")
            .unwrap()
            .build(),
    );
    // Publishes the event once through each path; returns both receipts'
    // matched ids after checking the duplicate is named, and delivered,
    // exactly once by each.
    let serve = |broker: &Broker, subscribers: &[Subscriber]| {
        let sub = subscribers.iter().find(|s| s.id() == duplicate).unwrap();
        let once = |matched: &[SubscriptionId]| {
            assert_eq!(matched.iter().filter(|&&id| id == duplicate).count(), 1);
            assert_eq!(sub.drain().len(), 1, "one notification per publish");
        };
        let single = broker.publish(&event).unwrap().matched;
        once(&single);
        let batch = broker.publish_batch(&[Arc::clone(&event)]).unwrap();
        once(&batch[0].matched);
        assert_eq!(batch[0].matched, single);
        single
    };

    // Covering off after the restart, then one uncovered subscribe.
    let off = Broker::open(&schema, cfg(false), durability(&dir)).unwrap();
    let mut subscribers = off.subscribers;
    let uncovered = vec![
        Predicate::between(490, 500),
        Predicate::eq(1),
        Predicate::DontCare,
    ];
    subscribers.push(
        off.broker
            .subscribe_profile(profile(&schema, uncovered))
            .unwrap(),
    );
    let served = serve(&off.broker, &subscribers);
    assert_eq!(served.len(), 5, "four roots and the duplicate");
    assert!(off.broker.checkpoint().unwrap());
    drop((off.broker, subscribers));

    // Covering back on: the same receipts.
    let on = Broker::open(&schema, cfg(true), durability(&dir)).unwrap();
    assert_eq!(serve(&on.broker, &on.subscribers), served);
    drop(on);
    let _ = std::fs::remove_dir_all(&dir);
}
