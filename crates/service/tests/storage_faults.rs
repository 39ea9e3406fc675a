//! The storage crash-point oracle: the [`FaultFs`] twin of
//! `recovery.rs`'s cut-at-every-byte loop and `federation.rs`'s seeded
//! `SimNet` faults.
//!
//! A durable broker runs a churn-and-checkpoint workload on a
//! journal-recording fault filesystem. Power loss is then simulated at
//! *every* write/fsync/rename/unlink boundary the workload crossed,
//! under a battery of seeded fault plans (dropped unsynced writes,
//! reordered writes, torn writes, dropped directory entries, and all
//! of them at once). At every crash point, [`Broker::open`] must
//! recover state exactly equal to an independent oracle that replays
//! the surviving bytes itself — and, because the workload ran under
//! [`FsyncPolicy::Always`], the oracle state must equal the set of
//! *acknowledged* operations (at most the single in-flight operation
//! may differ). The second half of that assertion is what catches a
//! missing parent-directory fsync: the data is "there" until a crash
//! forgets the file name.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ens_filter::RebuildPolicy;
use ens_service::persist::{checkpoint_gen_file, decode_wal, salvage_wal, Checkpoint, WAL_FILE};
use ens_service::{
    Broker, BrokerConfig, DurabilityConfig, FaultFs, FaultPlan, FsyncPolicy, Subscriber,
    SubscriptionId, Vfs,
};
use ens_types::{Domain, Event, Predicate, Profile, ProfileId, Schema};

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 99))
        .unwrap()
        .build()
}

fn profile(schema: &Schema, i: u64) -> Profile {
    Profile::from_predicates(
        schema,
        ProfileId::new(0),
        vec![Predicate::ge(((i * 7) % 90) as i64)],
    )
    .unwrap()
}

fn probe_events(schema: &Schema) -> Vec<Event> {
    [3i64, 41, 88]
        .iter()
        .map(|&x| Event::builder(schema).value("x", x).unwrap().build())
        .collect()
}

fn db_dir() -> PathBuf {
    PathBuf::from("db")
}

/// Sharded + compaction-heavy, so crash points land on every snapshot
/// state.
fn config() -> BrokerConfig {
    BrokerConfig {
        shards: 2,
        rebuild: RebuildPolicy {
            max_overlay: 4,
            ..RebuildPolicy::default()
        },
        ..BrokerConfig::default()
    }
}

/// Strict durability: every acknowledged record is fsynced, so the
/// acked-state oracle below is exact.
fn durability(fs: &FaultFs) -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: 0,
        fsync: FsyncPolicy::Always,
        vfs: Arc::new(fs.clone()),
        ..DurabilityConfig::new(db_dir())
    }
}

/// One workload step, bracketed by the journal boundaries it crossed.
enum Op {
    Sub(u64, Profile),
    Unsub(u64),
    Checkpoint,
}

struct Timeline {
    ops: Vec<(usize, usize, Op)>,
}

impl Timeline {
    /// The live `id -> profile` map of the operations fully
    /// acknowledged before journal boundary `k`.
    fn acked(&self, k: usize) -> BTreeMap<u64, Profile> {
        let mut live = BTreeMap::new();
        for (_, end, op) in self.ops.iter().filter(|(_, end, _)| *end <= k) {
            debug_assert!(*end <= k);
            apply(&mut live, op);
        }
        live
    }

    /// The acked map with the (at most one) in-flight operation at
    /// boundary `k` applied on top — the other legal crash outcome.
    fn acked_with_inflight(&self, k: usize) -> BTreeMap<u64, Profile> {
        let mut live = self.acked(k);
        if let Some((_, _, op)) = self
            .ops
            .iter()
            .find(|(start, end, _)| *start < k && k < *end)
        {
            apply(&mut live, op);
        }
        live
    }
}

fn apply(live: &mut BTreeMap<u64, Profile>, op: &Op) {
    match op {
        Op::Sub(id, p) => {
            live.insert(*id, p.clone());
        }
        Op::Unsub(id) => {
            live.remove(id);
        }
        Op::Checkpoint => {}
    }
}

/// Drives the workload: 19 subscribes, 4 unsubscribes and 3 manual
/// checkpoints (the third one retires generation 1 and trims the WAL),
/// recording the journal boundaries of every step. Subscriber handles
/// stay alive so no garbage collection interferes.
fn run_workload(fs: &FaultFs, schema: &Schema) -> Timeline {
    let recovered = Broker::open(schema, config(), durability(fs)).unwrap();
    let broker = recovered.broker;
    let mut held: Vec<Subscriber> = Vec::new();
    let mut ops = Vec::new();
    for step in 0..26u64 {
        let start = fs.boundaries();
        let op = match step {
            8 | 16 | 22 => {
                assert!(broker.checkpoint().unwrap());
                Op::Checkpoint
            }
            5 | 11 | 18 | 21 => {
                let sub = held.remove(0);
                broker.unsubscribe(sub.id()).unwrap();
                Op::Unsub(sub.id().get())
            }
            i => {
                let p = profile(schema, i);
                let sub = broker.subscribe_profile(p.clone()).unwrap();
                let id = sub.id().get();
                held.push(sub);
                Op::Sub(id, p)
            }
        };
        ops.push((start, fs.boundaries(), op));
    }
    Timeline { ops }
}

/// The independent recovery oracle: reads the (crash-image) filesystem
/// itself and computes the live map `Broker::open` must produce —
/// newest CRC-valid checkpoint generation, salvaged WAL replay on top.
/// `None` means recovery must *fail* (every generation corrupt and the
/// WAL does not reach back to LSN 1).
fn oracle(fs: &FaultFs, dir: &Path) -> Option<BTreeMap<u64, Profile>> {
    let mut gens: Vec<u64> = fs
        .list(dir)
        .map(|names| {
            names
                .iter()
                .filter_map(|n| ens_service::persist::parse_checkpoint_gen(n))
                .collect()
        })
        .unwrap_or_default();
    gens.sort_unstable_by(|a, b| b.cmp(a));
    let mut fallbacks = 0;
    let mut chosen = None;
    for &gen in &gens {
        if let Ok(bytes) = fs.read(&dir.join(checkpoint_gen_file(gen))) {
            match Checkpoint::from_bytes(&bytes) {
                Ok(cp) => {
                    chosen = Some(cp);
                    break;
                }
                Err(_) => fallbacks += 1,
            }
        }
    }
    let every_generation_corrupt = chosen.is_none() && fallbacks > 0;
    let (mut live, last_lsn) = match chosen {
        Some(cp) => {
            let mut live = BTreeMap::new();
            for shard in &cp.shards {
                for e in shard.base.iter().filter(|e| !e.tombstoned) {
                    live.insert(e.id, e.profile.clone());
                }
                for e in &shard.overlay {
                    live.insert(e.id, e.profile.clone());
                }
            }
            (live, cp.last_lsn)
        }
        None => (BTreeMap::new(), 0),
    };
    let wal = fs.read(&dir.join(WAL_FILE)).unwrap_or_default();
    let scan = salvage_wal(&wal);
    if every_generation_corrupt
        && scan
            .records
            .first()
            .map(ens_service::persist::WalRecord::lsn)
            != Some(1)
    {
        return None;
    }
    for record in &scan.records {
        if record.lsn() <= last_lsn {
            continue;
        }
        match record {
            ens_service::persist::WalRecord::Subscribe { id, profile, .. } => {
                live.entry(*id).or_insert_with(|| profile.clone());
            }
            ens_service::persist::WalRecord::Unsubscribe { id, .. } => {
                live.remove(id);
            }
            ens_service::persist::WalRecord::Retune { .. } => {}
        }
    }
    Some(live)
}

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

/// Opens a crash image and checks the recovered broker against the
/// oracle map: live ids, then publish receipts on the probe stream.
fn assert_recovers(img: &FaultFs, schema: &Schema, live: &BTreeMap<u64, Profile>, label: &str) {
    let recovered = Broker::open(schema, config(), durability(img))
        .unwrap_or_else(|e| panic!("recovery failed at {label}: {e}"));
    let got: Vec<u64> = recovered.subscribers.iter().map(|s| s.id().get()).collect();
    let want: Vec<u64> = live.keys().copied().collect();
    assert_eq!(got, want, "live ids at {label}");
    for event in probe_events(schema) {
        let receipt = recovered.broker.publish(&event).unwrap();
        assert_eq!(
            receipt.matched,
            oracle_matches(live, schema, &event),
            "receipt at {label}"
        );
    }
}

/// The headline oracle: power loss at every journal boundary × every
/// fault plan. Recovery must (a) succeed exactly when the oracle says
/// so, (b) equal the oracle's independent replay, and (c) — because
/// every ack was fsynced — equal the acked state modulo the in-flight
/// operation.
#[test]
fn crash_point_oracle_is_exact_at_every_boundary_under_every_plan() {
    let schema = schema();
    let fs = FaultFs::new();
    let timeline = run_workload(&fs, &schema);
    let total = fs.boundaries();
    let dir = db_dir();
    assert!(total >= 60, "workload crossed only {total} boundaries");

    let plans = [
        // Nothing pending is lost: the crash image is exactly the live
        // state at the boundary.
        FaultPlan::clean(0xA1),
        // Everything at once, five seeds.
        FaultPlan::chaos(1),
        FaultPlan::chaos(2),
        FaultPlan::chaos(3),
        FaultPlan::chaos(4),
        FaultPlan::chaos(5),
        // Single-fault plans: each failure mode in isolation.
        FaultPlan {
            drop_unsynced_writes: true,
            ..FaultPlan::clean(6)
        },
        FaultPlan {
            tear_writes: true,
            ..FaultPlan::clean(7)
        },
        FaultPlan {
            drop_unsynced_dir_ops: true,
            ..FaultPlan::clean(8)
        },
        FaultPlan {
            drop_unsynced_writes: true,
            reorder_unsynced_writes: true,
            ..FaultPlan::clean(9)
        },
    ];

    let mut checked = 0usize;
    for k in 0..=total {
        for plan in &plans {
            let label = format!("boundary {k}/{total}, plan {plan:?}");
            let expected = oracle(&fs.crash_image(k, plan), &dir);
            // A second, identical image for the broker: `open` mutates
            // the filesystem (cleanup, truncation), the oracle's copy
            // must stay pristine.
            let img = fs.crash_image(k, plan);
            match expected {
                None => {
                    assert!(
                        Broker::open(&schema, config(), durability(&img)).is_err(),
                        "open must refuse a partial state at {label}"
                    );
                }
                Some(live) => {
                    assert_recovers(&img, &schema, &live, &label);
                    // Acked-durability: under FsyncPolicy::Always the
                    // surviving state is the acked prefix, plus at
                    // most the in-flight operation.
                    let got: BTreeSet<u64> = live.keys().copied().collect();
                    let acked: BTreeSet<u64> = timeline.acked(k).keys().copied().collect();
                    let inflight: BTreeSet<u64> =
                        timeline.acked_with_inflight(k).keys().copied().collect();
                    assert!(
                        got == acked || got == inflight,
                        "acked state lost at {label}: recovered {got:?}, acked {acked:?}, \
                         with in-flight {inflight:?}"
                    );
                }
            }
            checked += 1;
        }
    }
    assert!(checked >= 8 * total, "only {checked} crash points checked");
}

/// Satellite regression for the parent-directory fsync fix: a crash
/// that drops every *unsynced* directory entry after the full workload
/// (everything acknowledged) must lose nothing. Without the directory
/// fsync after WAL creation / checkpoint rename, the log or the newest
/// generation would simply not exist in the image.
/// A bulk load is one group commit: `subscribe_many` of n profiles
/// crosses exactly two journal boundaries — one append of n frames and
/// one sync — and every one of them reopens.
#[test]
fn a_bulk_load_is_one_append_and_one_sync() {
    let schema = schema();
    let fs = FaultFs::new();
    let broker = Broker::open(&schema, config(), durability(&fs))
        .unwrap()
        .broker;
    broker.subscribe_profile(profile(&schema, 0)).unwrap();
    let before = fs.boundaries();
    let held = broker
        .subscribe_many((1..=40).map(|i| profile(&schema, i)))
        .unwrap();
    assert_eq!(fs.boundaries(), before + 2);
    let ids: Vec<u64> = held.iter().map(|s| s.id().get()).collect();
    assert_eq!(
        decode_wal(&fs.read(&db_dir().join(WAL_FILE)).unwrap())
            .records
            .len(),
        41
    );

    let img = fs.crash_image(fs.boundaries(), &FaultPlan::clean(0));
    let r = Broker::open(&schema, config(), durability(&img)).unwrap();
    let reopened: Vec<u64> = r.subscribers.iter().map(|s| s.id().get()).collect();
    assert_eq!(reopened[1..], ids[..]);
}

#[test]
fn dropped_unsynced_directory_entries_never_lose_acked_state() {
    let schema = schema();
    let fs = FaultFs::new();
    let timeline = run_workload(&fs, &schema);
    // Crash right after the 5th acknowledged subscribe — before the
    // first checkpoint, so the WAL's directory entry is durable *only*
    // because open() fsyncs the parent after creating the log — and
    // again at the very end, after checkpoints put more names in play.
    let early = timeline.ops[4].1;
    for k in [early, fs.boundaries()] {
        let acked = timeline.acked(k);
        for seed in 0..4 {
            let plan = FaultPlan {
                drop_unsynced_dir_ops: true,
                ..FaultPlan::clean(seed)
            };
            let img = fs.crash_image(k, &plan);
            assert_recovers(
                &img,
                &schema,
                &acked,
                &format!("dir-drop k={k} seed {seed}"),
            );
        }
    }
}

/// Bit rot in the newest checkpoint generation: any single corrupted
/// byte fails its CRC, recovery falls back one generation and replays
/// the retained WAL window — the final state is still exact, and the
/// fallback is counted.
#[test]
fn corrupting_the_newest_generation_falls_back_exactly() {
    let schema = schema();
    let fs = FaultFs::new();
    let timeline = run_workload(&fs, &schema);
    let full = timeline.acked(fs.boundaries());
    let dir = db_dir();
    // The third checkpoint wrote generation 3 (and retired 1).
    let newest = dir.join(checkpoint_gen_file(3));
    let len = fs.file_len(&newest).expect("generation 3 exists");

    let mut offsets: Vec<usize> = (0..len).step_by(61).collect();
    offsets.push(len - 1);
    for off in offsets {
        let img = fs.crash_image(fs.boundaries(), &FaultPlan::clean(0));
        assert!(img.corrupt(&newest, off), "offset {off} of {len}");
        let label = format!("bit rot at {off}/{len}");
        let recovered = Broker::open(&schema, config(), durability(&img))
            .unwrap_or_else(|e| panic!("fallback recovery failed, {label}: {e}"));
        let got: Vec<u64> = recovered.subscribers.iter().map(|s| s.id().get()).collect();
        let want: Vec<u64> = full.keys().copied().collect();
        assert_eq!(got, want, "{label}");
        let m = recovered.broker.metrics();
        assert!(m.checkpoint_fallbacks >= 1, "{label}: {m:?}");
        assert!(
            m.to_string().contains("cp_fallbacks="),
            "Display must carry the fallback counter: {m}"
        );
        // The damaged generation was cleared out of the chain.
        assert!(!img.exists(&newest), "{label}");
    }
}

/// ENOSPC on WAL append: mutating acks fail and `durability_degraded`
/// flips, but the broker keeps serving the match path — including the
/// publish that garbage-collects a hung-up subscriber, whose
/// unsubscribe record cannot be logged either. A later successful
/// checkpoint captures the full in-memory state and clears the flag.
#[test]
fn enospc_degrades_but_the_match_path_keeps_serving() {
    let schema = schema();
    let fs = FaultFs::new();
    let r = Broker::open(&schema, config(), durability(&fs)).unwrap();
    let broker = r.broker;

    let keep = broker.subscribe_profile(profile(&schema, 1)).unwrap();
    let dead = broker.subscribe_profile(profile(&schema, 2)).unwrap();
    drop(dead);

    fs.fail_appends(true);
    assert!(
        broker.subscribe_profile(profile(&schema, 3)).is_err(),
        "a subscribe ack must fail when its record cannot be logged"
    );
    let m = broker.metrics();
    assert!(m.durability_degraded, "{m:?}");
    assert!(m.to_string().contains("degraded=true"), "{m}");

    // The match path keeps working; this publish also GCs the dead
    // subscriber and the half-subscribed id 2 (both channels are gone).
    let event = Event::builder(&schema).value("x", 95).unwrap().build();
    let receipt = broker.publish(&event).unwrap();
    assert!(receipt.matched.contains(&keep.id()), "{receipt:?}");
    assert!(keep.try_recv().is_some(), "delivery must still flow");
    assert_eq!(broker.subscription_count(), 1, "dead entries collected");

    // Space comes back: one checkpoint makes the in-memory state
    // durable again (the failed appends and all) and clears the flag.
    fs.fail_appends(false);
    assert!(broker.checkpoint().unwrap());
    assert!(!broker.metrics().durability_degraded);

    let img = fs.crash_image(fs.boundaries(), &FaultPlan::clean(0));
    let rec = Broker::open(&schema, config(), durability(&img)).unwrap();
    let ids: Vec<u64> = rec.subscribers.iter().map(|s| s.id().get()).collect();
    assert_eq!(ids, vec![keep.id().get()]);
}

/// Startup cleanup: leftover staging files and generations below the
/// retention window are removed; the chain itself is untouched.
#[test]
fn stale_temps_and_orphan_generations_are_cleaned_on_open() {
    let schema = schema();
    let fs = FaultFs::new();
    let timeline = run_workload(&fs, &schema);
    let full = timeline.acked(fs.boundaries());
    let dir = db_dir();

    // Plant crash leftovers: both staging files, plus an orphaned
    // (already-retired, garbage-content) generation 1.
    for name in ["checkpoint.tmp", "wal.tmp", &checkpoint_gen_file(1)] {
        let mut f = fs.create(&dir.join(name)).unwrap();
        f.append(b"stale garbage").unwrap();
    }

    let img = fs.crash_image(fs.boundaries(), &FaultPlan::clean(0));
    let recovered = Broker::open(&schema, config(), durability(&img)).unwrap();
    assert_eq!(recovered.subscribers.len(), full.len());
    for name in ["checkpoint.tmp", "wal.tmp", &checkpoint_gen_file(1)] {
        assert!(!img.exists(&dir.join(name)), "{name} must be cleaned up");
    }
    assert!(img.exists(&dir.join(checkpoint_gen_file(3))));
    // Generation 1 was never in the recovery path (3 loaded cleanly),
    // so its garbage content does not count as a fallback.
    assert_eq!(recovered.broker.metrics().checkpoint_fallbacks, 0);
}

/// Transient EIO: recovery fails loudly — and destroys nothing, so the
/// same directory opens cleanly once the disk behaves again.
#[test]
fn read_faults_fail_open_without_destroying_state() {
    let schema = schema();
    let fs = FaultFs::new();
    let timeline = run_workload(&fs, &schema);
    let full = timeline.acked(fs.boundaries());

    fs.fail_reads(true);
    assert!(Broker::open(&schema, config(), durability(&fs)).is_err());

    fs.fail_reads(false);
    let recovered = Broker::open(&schema, config(), durability(&fs)).unwrap();
    assert_eq!(recovered.subscribers.len(), full.len());
    assert_eq!(recovered.broker.metrics().checkpoint_fallbacks, 0);
}

/// Interior WAL bit rot on a checkpoint-free log: salvage skips
/// exactly the corrupted frame, recovers everything after it, and the
/// salvage counters surface in the metrics and their Display line.
#[test]
fn wal_bit_rot_is_salvaged_and_counted() {
    let schema = schema();
    let fs = FaultFs::new();
    let r = Broker::open(&schema, config(), durability(&fs)).unwrap();
    let broker = r.broker;
    let mut held = Vec::new();
    for i in 0..8u64 {
        held.push(broker.subscribe_profile(profile(&schema, i)).unwrap());
    }
    let wal_path = db_dir().join(WAL_FILE);
    let bytes = fs.read(&wal_path).unwrap();
    let scan = decode_wal(&bytes);
    assert_eq!(scan.offsets.len(), 8);

    // Corrupt the middle of frame 3 (record lsn 3, subscription id 2).
    let img = fs.crash_image(fs.boundaries(), &FaultPlan::clean(0));
    let target = scan.offsets[1] + (scan.offsets[2] - scan.offsets[1]) / 2;
    assert!(img.corrupt(&wal_path, target));

    let recovered = Broker::open(&schema, config(), durability(&img)).unwrap();
    let ids: Vec<u64> = recovered.subscribers.iter().map(|s| s.id().get()).collect();
    assert_eq!(ids, vec![0, 1, 3, 4, 5, 6, 7], "only the hit frame is lost");
    let m = recovered.broker.metrics();
    assert_eq!(m.wal_salvaged_frames, 5, "frames after the resync: {m:?}");
    assert_eq!(
        m.wal_quarantined_bytes,
        (scan.offsets[2] - scan.offsets[1]) as u64,
        "{m:?}"
    );
    assert!(m.to_string().contains("wal_salvaged=5"), "{m}");
    assert!(m.to_string().contains("wal_quarantined="), "{m}");
}

/// Partial (short) reads surface as a torn tail: recovery comes back
/// with a clean prefix of the acked history, never garbage.
#[test]
fn short_reads_recover_a_clean_prefix() {
    let schema = schema();
    let fs = FaultFs::new();
    let r = Broker::open(&schema, config(), durability(&fs)).unwrap();
    let broker = r.broker;
    let mut held = Vec::new();
    for i in 0..6u64 {
        held.push(broker.subscribe_profile(profile(&schema, i)).unwrap());
    }
    let bytes = fs.read(&db_dir().join(WAL_FILE)).unwrap();
    let scan = decode_wal(&bytes);

    // Cap reads between the 3rd and 4th frame boundary.
    let img = fs.crash_image(fs.boundaries(), &FaultPlan::clean(0));
    img.short_reads(Some(scan.offsets[2] + 3));
    let recovered = Broker::open(&schema, config(), durability(&img)).unwrap();
    let ids: Vec<u64> = recovered.subscribers.iter().map(|s| s.id().get()).collect();
    assert_eq!(ids, vec![0, 1, 2], "the fully-read frame prefix");
}
