//! Broker-level covering tests: the expansion map must survive a
//! checkpoint round-trip byte-exactly, and a covering broker must be
//! observationally identical to a covering-off broker over the same
//! subscribe/unsubscribe/publish sequence.

use std::path::{Path, PathBuf};

use ens_filter::{FilterSnapshot, RebuildPolicy};
use ens_service::persist::{checkpoint_gen_file, Checkpoint};
use ens_service::{Broker, BrokerConfig, DurabilityConfig, FsyncPolicy};
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
            max_removed: 64,
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
