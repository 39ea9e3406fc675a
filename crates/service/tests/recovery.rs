//! The fault-injection recovery oracle.
//!
//! A durable broker is driven through a randomized churn-and-publish
//! plan, then "killed" at every possible durability boundary: after
//! each fully-written WAL frame, in the middle of a frame (a torn
//! tail), with garbage appended, and inside the
//! checkpoint-then-crash-before-truncate window. For every crash
//! point, [`Broker::open`] must recover a broker whose observable
//! behaviour — live subscription set, `publish` receipts and
//! `publish_batch` receipts on both dispatch paths — is *identical* to
//! an uncrashed replay oracle that applies the durable WAL prefix by
//! direct predicate evaluation.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ens_filter::{Direction, RebuildPolicy, SearchStrategy, TreeConfig, ValueOrder};
use ens_service::persist::{
    checkpoint_gen_file, decode_wal, parse_checkpoint_gen, Checkpoint, WalRecord, CHECKPOINT_FILE,
    WAL_FILE,
};
use ens_service::{
    Broker, BrokerConfig, Decision, DurabilityConfig, FsyncPolicy, ServiceError, Subscriber,
    SubscriptionId,
};
use ens_types::{Domain, Event, Predicate, Profile, ProfileId, Schema};
use ens_workloads::{alert_churn_profiles, churn_burst_plan, hot_band_migration, ChurnOp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fresh scratch directory under the system temp dir (removed first
/// so reruns start clean; no external tempfile crate needed).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ens-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        // Manual checkpoints only: the tests place them deliberately.
        checkpoint_every: 0,
        fsync: FsyncPolicy::Never,
        // A single retained generation: a truncating checkpoint
        // empties the WAL, the behaviour these oracles are built on.
        checkpoint_generations: 1,
        ..DurabilityConfig::new(dir)
    }
}

/// Sharded, compaction-heavy configuration so crash points land in
/// every snapshot state: overlay-resident, tombstoned and compiled.
fn churn_config(dfsa_dispatch: bool) -> BrokerConfig {
    BrokerConfig {
        shards: 2,
        dfsa_dispatch,
        rebuild: RebuildPolicy {
            max_overlay: 4,
            ..RebuildPolicy::default()
        },
        ..BrokerConfig::default()
    }
}

/// The uncrashed oracle: the live `id -> profile` map a durable WAL
/// prefix prescribes, by direct replay.
fn expected_live(records: &[WalRecord]) -> BTreeMap<u64, Profile> {
    let mut live = BTreeMap::new();
    for record in records {
        match record {
            WalRecord::Subscribe { id, profile, .. } => {
                live.insert(*id, profile.clone());
            }
            WalRecord::Unsubscribe { id, .. } => {
                live.remove(id);
            }
            WalRecord::Retune { .. } => {}
        }
    }
    live
}

/// Brute-force matching: which live subscriptions does `event` notify?
fn oracle_matches(
    live: &BTreeMap<u64, Profile>,
    schema: &Schema,
    event: &Event,
) -> Vec<SubscriptionId> {
    live.iter()
        .filter(|(_, p)| p.matches(schema, event).unwrap())
        .map(|(id, _)| SubscriptionId::new(*id))
        .collect()
}

/// Materializes one crash point (WAL prefix + optional checkpoint) in
/// `dir`, recovers, and asserts the recovered broker is observably
/// identical to the oracle on every event, on both match paths.
fn verify_crash_point(
    dir: &Path,
    schema: &Schema,
    config: BrokerConfig,
    checkpoint: Option<&[u8]>,
    wal_prefix: &[u8],
    events: &[Event],
    label: &str,
) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    if let Some(cp) = checkpoint {
        std::fs::write(dir.join(CHECKPOINT_FILE), cp).unwrap();
    }
    std::fs::write(dir.join(WAL_FILE), wal_prefix).unwrap();

    let recovered = Broker::open(schema, config, durability(dir))
        .unwrap_or_else(|e| panic!("recovery failed at {label}: {e}"));
    let scan = decode_wal(wal_prefix);
    let live = expected_live(&scan.records);

    let got: Vec<u64> = recovered.subscribers.iter().map(|s| s.id().get()).collect();
    let want: Vec<u64> = live.keys().copied().collect();
    assert_eq!(got, want, "live subscription ids at {label}");
    assert_eq!(
        recovered.broker.subscription_count(),
        live.len(),
        "subscription count at {label}"
    );

    // Per-event path.
    for event in events {
        let receipt = recovered.broker.publish(event).unwrap();
        assert_eq!(
            receipt.matched,
            oracle_matches(&live, schema, event),
            "publish receipt at {label}"
        );
    }
    // Block path, whole stream at once.
    let shared: Vec<Arc<Event>> = events.iter().map(|e| Arc::new(e.clone())).collect();
    let receipts = recovered.broker.publish_batch(&shared).unwrap();
    for (event, receipt) in events.iter().zip(&receipts) {
        assert_eq!(
            receipt.matched,
            oracle_matches(&live, schema, event),
            "batch receipt at {label}"
        );
    }
    // Deliveries really reached the recovered channels: each
    // subscriber saw exactly its oracle count (events were published
    // twice — once per path).
    for sub in &recovered.subscribers {
        let expect = events
            .iter()
            .filter(|e| live[&sub.id().get()].matches(schema, e).unwrap())
            .count()
            * 2;
        let mut got = 0;
        while sub.try_recv().is_some() {
            got += 1;
        }
        assert_eq!(got, expect, "deliveries to {} at {label}", sub.id());
    }
}

/// Drives the churn plan (plus a stable baseline population) through a
/// durable broker, optionally checkpointing (without truncation) at
/// the plan's midpoint. Returns the final WAL bytes and, when
/// checkpointed, the checkpoint bytes plus the WAL length at the
/// moment the checkpoint was taken.
fn record_churn(
    dir: &Path,
    seed: u64,
    checkpoint_midway: bool,
) -> (Vec<u8>, Option<(Vec<u8>, usize)>) {
    let plan = churn_burst_plan(seed, 6, 4, 3).unwrap();
    let recovered = Broker::open(&plan.schema, churn_config(false), durability(dir)).unwrap();
    let broker = recovered.broker;
    assert!(recovered.subscribers.is_empty());

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let baseline = alert_churn_profiles(24, &mut rng).unwrap();
    let baseline_subs = broker
        .subscribe_many(baseline.iter().cloned().collect::<Vec<_>>())
        .unwrap();

    let mut checkpointed = None;
    let midpoint = plan.ops.len() / 2;
    let mut churn_live: Vec<Subscriber> = Vec::new();
    let mut issued = baseline_subs.len();
    for (i, op) in plan.ops.iter().enumerate() {
        if i == midpoint {
            // A bulk load that fails on its last shard, after shard 0
            // has staged its share: it must commit nothing, leave no
            // record and — in the checkpoint below — no live id. The
            // profile that fails is built against a wider schema, and
            // one or two valid ones put its id on shard 1.
            let wide = Schema::builder()
                .attribute("temperature", Domain::int(-1000, 1000))
                .unwrap()
                .build();
            let poison = Profile::builder(&wide)
                .predicate("temperature", Predicate::between(400, 500))
                .unwrap()
                .build(ProfileId::new(0));
            let valid = baseline.iter().take(1 + issued % 2).cloned();
            let bulk: Vec<Profile> = valid.chain([poison]).collect();
            issued += bulk.len();
            let compactions = broker.rebuild_counts().1;
            assert!(broker.subscribe_many(bulk).is_err());
            assert_eq!(broker.rebuild_counts().1, compactions, "nothing committed");
        }
        if checkpoint_midway && i == midpoint {
            assert!(broker.checkpoint_keep_wal().unwrap());
            let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len() as usize;
            // The first checkpoint on a fresh directory is generation 1.
            let cp = std::fs::read(dir.join(checkpoint_gen_file(1))).unwrap();
            checkpointed = Some((cp, wal_len));
        }
        match op {
            ChurnOp::Subscribe(p) => {
                churn_live.push(broker.subscribe_profile(p.clone()).unwrap());
                issued += 1;
            }
            ChurnOp::Unsubscribe(k) => {
                let sub = churn_live.remove(*k);
                broker.unsubscribe(sub.id()).unwrap();
            }
            ChurnOp::Burst(r) => {
                for event in &plan.events[r.clone()] {
                    broker.publish(event).unwrap();
                }
            }
        }
    }
    drop((baseline_subs, churn_live, broker));
    let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    (wal, checkpointed)
}

/// The headline oracle: kill the broker after every WAL frame, inside
/// every frame (torn tail) and on appended garbage — recovery must be
/// exact everywhere, on both dispatch paths.
#[test]
fn recovery_is_exact_at_every_crash_point() {
    let record_dir = scratch_dir("record");
    let plan = churn_burst_plan(11, 6, 4, 3).unwrap();
    let (wal, _) = record_churn(&record_dir, 11, false);

    let scan = decode_wal(&wal);
    assert!(!scan.torn, "a cleanly shut-down log has no torn tail");
    assert!(
        scan.offsets.len() >= 50,
        "plan produced only {} records",
        scan.offsets.len()
    );

    // Every clean frame boundary, plus torn cuts inside the following
    // frame (one byte in; halfway through).
    let mut crash_points: Vec<usize> = vec![0];
    crash_points.extend(&scan.offsets);
    let mut torn_points = Vec::new();
    let bounds = scan.offsets.clone();
    for (i, &off) in [0].iter().chain(bounds.iter()).enumerate() {
        let next = bounds.get(i).copied().unwrap_or(wal.len());
        if next > off {
            torn_points.push(off + 1);
            torn_points.push(off + (next - off) / 2);
        }
    }
    crash_points.extend(torn_points);
    crash_points.sort_unstable();
    crash_points.dedup();

    let crash_dir = scratch_dir("crash");
    for (i, &cut) in crash_points.iter().enumerate() {
        // Alternate the dispatch path so both the tree and the DFSA
        // matcher face every recovered state.
        let config = churn_config(i % 2 == 0);
        verify_crash_point(
            &crash_dir,
            &plan.schema,
            config,
            None,
            &wal[..cut],
            &plan.events,
            &format!("cut {cut}/{}", wal.len()),
        );
    }

    // Garbage appended past the valid log (bogus frame header).
    let mut garbage = wal.clone();
    garbage.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03]);
    verify_crash_point(
        &crash_dir,
        &plan.schema,
        churn_config(true),
        None,
        &garbage,
        &plan.events,
        "garbage tail",
    );

    let _ = std::fs::remove_dir_all(&record_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// The checkpoint-then-crash-before-truncate window: the checkpoint
/// already covers a WAL prefix that is still physically present.
/// Replay must be idempotent — records at or below the checkpoint LSN
/// are skipped — at every crash point from the checkpoint onwards.
#[test]
fn checkpoint_crash_window_replays_idempotently() {
    let record_dir = scratch_dir("cp-record");
    let plan = churn_burst_plan(23, 6, 4, 3).unwrap();
    let (wal, checkpointed) = record_churn(&record_dir, 23, true);
    let (cp_bytes, wal_len_at_cp) = checkpointed.expect("midway checkpoint was requested");

    let scan = decode_wal(&wal);
    let crash_dir = scratch_dir("cp-crash");

    // Crash immediately after the checkpoint (before any further
    // append), after every later frame, and on a torn later frame.
    let mut points: Vec<usize> = vec![wal_len_at_cp];
    points.extend(scan.offsets.iter().copied().filter(|&o| o > wal_len_at_cp));
    let torn: Vec<usize> = points
        .iter()
        .filter(|&&o| o + 1 < wal.len())
        .map(|&o| o + 1)
        .collect();
    points.extend(torn);
    points.sort_unstable();
    points.dedup();
    assert!(points.len() >= 8, "checkpoint landed too late in the plan");

    for (i, &cut) in points.iter().enumerate() {
        verify_crash_point(
            &crash_dir,
            &plan.schema,
            churn_config(i % 2 == 1),
            Some(&cp_bytes),
            &wal[..cut],
            &plan.events,
            &format!("checkpoint + cut {cut}/{}", wal.len()),
        );
    }

    let _ = std::fs::remove_dir_all(&record_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// A truncating checkpoint empties the WAL; later operations replay on
/// top of the reloaded checkpoint across repeated restarts, and
/// subscription ids are never reused.
#[test]
fn restarts_compose_and_ids_are_never_reused() {
    let dir = scratch_dir("restarts");
    let mut rng = StdRng::seed_from_u64(99);
    let profiles: Vec<Profile> = alert_churn_profiles(6, &mut rng)
        .unwrap()
        .iter()
        .cloned()
        .collect();
    let schema = ens_workloads::scenario::environmental_schema();

    // Session 1: three subscriptions, no checkpoint, "crash".
    {
        let r = Broker::open(&schema, BrokerConfig::default(), durability(&dir)).unwrap();
        for p in &profiles[..3] {
            r.broker.subscribe_profile(p.clone()).unwrap();
        }
    }
    // Session 2: WAL-only recovery; add one, checkpoint (truncates).
    {
        let r = Broker::open(&schema, BrokerConfig::default(), durability(&dir)).unwrap();
        assert_eq!(r.subscribers.len(), 3);
        let s = r.broker.subscribe_profile(profiles[3].clone()).unwrap();
        assert_eq!(s.id().get(), 3, "ids continue after a WAL-only restart");
        assert!(r.broker.checkpoint().unwrap());
        assert_eq!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            0,
            "a truncating checkpoint empties the log"
        );
    }
    // Session 3: checkpoint-only recovery; unsubscribe one (appends to
    // the fresh WAL), "crash".
    {
        let r = Broker::open(&schema, BrokerConfig::default(), durability(&dir)).unwrap();
        assert_eq!(r.subscribers.len(), 4);
        r.broker.unsubscribe(r.subscribers[0].id()).unwrap();
    }
    // Session 4: checkpoint + WAL; state composes, fresh ids advance.
    {
        let r = Broker::open(&schema, BrokerConfig::default(), durability(&dir)).unwrap();
        let ids: Vec<u64> = r.subscribers.iter().map(|s| s.id().get()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        let s = r.broker.subscribe_profile(profiles[4].clone()).unwrap();
        assert_eq!(s.id().get(), 4, "checkpointed next id survives");

        // Final semantic check against the brute-force oracle.
        let live: Vec<(u64, &Profile)> = vec![
            (1, &profiles[1]),
            (2, &profiles[2]),
            (3, &profiles[3]),
            (4, &profiles[4]),
        ];
        let events = churn_burst_plan(7, 2, 8, 1).unwrap().events;
        for event in &events {
            let receipt = r.broker.publish(event).unwrap();
            let want: Vec<SubscriptionId> = live
                .iter()
                .filter(|(_, p)| p.matches(&schema, event).unwrap())
                .map(|(id, _)| SubscriptionId::new(*id))
                .collect();
            assert_eq!(receipt.matched, want);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The automatic checkpoint trigger: once `checkpoint_every` records
/// accumulate, the broker checkpoints and truncates on its own, and a
/// recovery afterwards sees the full state.
#[test]
fn automatic_checkpoints_truncate_the_wal() {
    let dir = scratch_dir("auto-cp");
    let mut rng = StdRng::seed_from_u64(5);
    let profiles: Vec<Profile> = alert_churn_profiles(30, &mut rng)
        .unwrap()
        .iter()
        .cloned()
        .collect();
    let schema = ens_workloads::scenario::environmental_schema();
    let d = DurabilityConfig {
        checkpoint_every: 8,
        ..DurabilityConfig::new(&dir)
    };
    {
        let r = Broker::open(&schema, BrokerConfig::default(), d.clone()).unwrap();
        for p in &profiles {
            r.broker.subscribe_profile(p.clone()).unwrap();
        }
        let generations = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| parse_checkpoint_gen(&e.file_name().to_string_lossy()).is_some())
            .count();
        assert!(
            generations >= 1,
            "30 records at checkpoint_every=8 must auto-checkpoint"
        );
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let full = decode_wal(&std::fs::read(dir.join(WAL_FILE)).unwrap());
        // With the default two retained generations, the trimmed WAL
        // still carries the previous generation's window (< 2 × 8)
        // — never the full 30-record history.
        assert!(
            full.offsets.len() < 16,
            "the WAL holds only the retained-window tail ({} records, {wal_len} bytes)",
            full.offsets.len()
        );
    }
    let r = Broker::open(&schema, BrokerConfig::default(), d).unwrap();
    assert_eq!(r.subscribers.len(), profiles.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart counts towards the next automatic checkpoint only the
/// records it replayed — not the ones the loaded generation covers,
/// of which a log trimmed for two retained generations always carries
/// a full interval (here: it once checkpointed on the first write
/// after every restart).
#[test]
fn a_restart_does_not_checkpoint_on_its_first_write() {
    let dir = scratch_dir("restart-cp");
    let mut rng = StdRng::seed_from_u64(5);
    let profiles: Vec<Profile> = alert_churn_profiles(32, &mut rng)
        .unwrap()
        .iter()
        .cloned()
        .collect();
    let schema = ens_workloads::scenario::environmental_schema();
    let d = DurabilityConfig {
        checkpoint_every: 8,
        ..DurabilityConfig::new(&dir)
    };
    let generations = || {
        let mut gens: Vec<u64> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| parse_checkpoint_gen(&e.ok()?.file_name().to_string_lossy()))
            .collect();
        gens.sort_unstable();
        gens
    };
    {
        let r = Broker::open(&schema, BrokerConfig::default(), d.clone()).unwrap();
        for p in &profiles[..26] {
            r.broker.subscribe_profile(p.clone()).unwrap();
        }
        // Checkpoints at records 8, 16 and 24; two records since.
        assert_eq!(generations(), vec![2, 3]);
    }
    let r = Broker::open(&schema, BrokerConfig::default(), d).unwrap();
    assert_eq!(r.subscribers.len(), 26);
    let mut held = r.subscribers;
    held.push(r.broker.subscribe_profile(profiles[26].clone()).unwrap());
    assert_eq!(generations(), vec![2, 3], "three records since, not eleven");
    // The interval completes where it would have without the restart.
    for p in &profiles[27..32] {
        held.push(r.broker.subscribe_profile(p.clone()).unwrap());
    }
    assert_eq!(generations(), vec![3, 4]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Accepted retunes are durable: a drift-triggered reconfiguration is
/// WAL-logged, and the recovered broker still matches the oracle on
/// the post-drift stream.
#[test]
fn accepted_retunes_survive_recovery() {
    let dir = scratch_dir("retune");
    let w = hot_band_migration(41, 80, 400).unwrap();
    let config = BrokerConfig {
        tree: TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            event_model: Some(w.model_a.clone()),
            ..TreeConfig::default()
        },
        rebuild: RebuildPolicy {
            min_events: 64,
            drift_threshold: 0.6,
            ..RebuildPolicy::default()
        },
        tuning: true,
        ..BrokerConfig::default()
    };
    {
        let r = Broker::open(&w.schema, config.clone(), durability(&dir)).unwrap();
        let _subs: Vec<_> = w
            .profiles
            .iter()
            .map(|p| r.broker.subscribe_profile(p.clone()).unwrap())
            .collect();
        for event in w.phase_a.iter().chain(&w.phase_b) {
            r.broker.publish(event).unwrap();
        }
        assert!(
            r.broker.metrics().retunes >= 1,
            "the phase change must trigger a retune"
        );
    }
    let wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let scan = decode_wal(&wal);
    assert!(
        scan.records
            .iter()
            .any(|rec| matches!(rec, WalRecord::Retune { .. })),
        "the accepted retune must be WAL-logged"
    );

    let r = Broker::open(&w.schema, config, durability(&dir)).unwrap();
    assert_eq!(r.subscribers.len(), w.profiles.len());
    // Insertion order == id order (single shard): profile k is
    // subscription k, before and after recovery.
    for event in &w.phase_b {
        let receipt = r.broker.publish(event).unwrap();
        let mut want: Vec<SubscriptionId> = w
            .profiles
            .matches(event)
            .unwrap()
            .iter()
            .map(|pid| SubscriptionId::new(pid.index() as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(receipt.matched, want);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bulk load that fails on its last shard commits no shard: every
/// shard's checkpoint image after it is the image before it, byte for
/// byte, and the decision journal holds no compaction from it.
#[test]
fn a_failed_bulk_load_changes_no_shard() {
    let dir = scratch_dir("failed-bulk");
    let schema = Schema::builder()
        .attribute("temperature", Domain::int(-50, 50))
        .unwrap()
        .build();
    let config = BrokerConfig {
        // Nothing but the load may compile.
        stats_sample: 0,
        ..churn_config(true)
    };
    let broker = Broker::open(&schema, config, durability(&dir))
        .unwrap()
        .broker;
    let hotter_than = |t: i64| {
        Profile::builder(&schema)
            .predicate("temperature", Predicate::ge(t))
            .unwrap()
            .build(ProfileId::new(0))
    };
    let _subs = broker
        .subscribe_many((0..4).map(|k| hotter_than(10 * k - 20)))
        .unwrap();
    let shards = |gen: u64| {
        let image = std::fs::read(dir.join(checkpoint_gen_file(gen))).unwrap();
        let shards = Checkpoint::from_bytes(&image).unwrap().shards;
        shards.iter().map(|s| format!("{s:?}")).collect::<Vec<_>>()
    };
    let compacted = || {
        let decisions = broker.decisions().into_iter();
        decisions
            .filter(|d| matches!(d, Decision::Compacted { .. }))
            .count()
    };
    assert!(broker.checkpoint().unwrap());
    let (before, compactions) = (shards(1), compacted());
    assert_eq!(before.len(), 2);

    // Ids 4 and 5: a valid profile for shard 0, then one built against
    // a wider foreign schema for shard 1, whose lowering fails.
    let wide = Schema::builder()
        .attribute("temperature", Domain::int(-1000, 1000))
        .unwrap()
        .attribute("humidity", Domain::int(0, 100))
        .unwrap()
        .build();
    let foreign = Profile::builder(&wide)
        .predicate("temperature", Predicate::between(400, 500))
        .unwrap()
        .build(ProfileId::new(0));
    assert!(broker.subscribe_many([hotter_than(0), foreign]).is_err());
    assert!(broker.checkpoint().unwrap());
    assert_eq!(shards(2), before, "every shard image is unchanged");
    assert_eq!(compacted(), compactions, "no compaction from the load");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint names every compiled entry by its own id, a tombstoned
/// one included, and marks exactly the cancelled ones; reopened from
/// it, a cancelled id stays unknown and every live subscriber receives
/// what it matches.
#[test]
fn a_checkpoint_names_each_tombstone_by_its_id() {
    let dir = scratch_dir("tombstone-ids");
    let schema = ens_workloads::scenario::environmental_schema();
    let mut rng = StdRng::seed_from_u64(17);
    let profiles: Vec<Profile> = alert_churn_profiles(40, &mut rng)
        .unwrap()
        .iter()
        .cloned()
        .collect();
    let cancelled = [0, 7, 13, 39];
    {
        let r = Broker::open(&schema, BrokerConfig::default(), durability(&dir)).unwrap();
        let _held = r.broker.subscribe_many(profiles.iter().cloned()).unwrap();
        for id in cancelled {
            r.broker.unsubscribe(SubscriptionId::new(id)).unwrap();
        }
        assert_eq!(r.broker.metrics().overlay_compactions, 1, "the load alone");
        assert!(r.broker.checkpoint().unwrap());
    }
    let image = std::fs::read(dir.join(checkpoint_gen_file(1))).unwrap();
    let checkpoint = Checkpoint::from_bytes(&image).unwrap();
    let [shard] = &checkpoint.shards[..] else {
        panic!("one shard, got {}", checkpoint.shards.len())
    };
    assert!(shard.overlay.is_empty());
    let ids: Vec<u64> = shard.base.iter().map(|e| e.id).collect();
    assert_eq!(
        ids,
        (0..40).collect::<Vec<_>>(),
        "base entries in load order"
    );
    let dead = shard.base.iter().filter(|e| e.tombstoned).map(|e| e.id);
    assert_eq!(dead.collect::<Vec<_>>(), cancelled);

    let r = Broker::open(&schema, BrokerConfig::default(), durability(&dir)).unwrap();
    for id in cancelled.map(SubscriptionId::new) {
        let refused = r.broker.unsubscribe(id);
        assert!(
            matches!(refused, Err(ServiceError::UnknownSubscription(x)) if x == id),
            "unsubscribing tombstone {id:?}: {refused:?}"
        );
    }
    let live: Vec<u64> = (0..40).filter(|id| !cancelled.contains(id)).collect();
    let ids: Vec<u64> = r.subscribers.iter().map(|s| s.id().get()).collect();
    assert_eq!(ids, live);
    let events = churn_burst_plan(7, 2, 8, 1).unwrap().events;
    for event in &events {
        r.broker.publish(event).unwrap();
    }
    let mut received = 0;
    for sub in &r.subscribers {
        let profile = &profiles[sub.id().get() as usize];
        let want = events
            .iter()
            .filter(|e| profile.matches(&schema, e).unwrap());
        let got = sub.drain();
        assert_eq!(got.len(), want.count(), "subscriber {:?}", sub.id());
        received += got.len();
    }
    assert!(received > 0, "the events reach some live subscriber");
    let _ = std::fs::remove_dir_all(&dir);
}
