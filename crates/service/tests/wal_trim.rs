//! The WAL trim oracle: a checkpoint cuts the log at a recorded byte
//! offset and copies the suffix, so the file after a trimming
//! checkpoint must be **byte-equal** to the suffix of the file before
//! it that starts at the first frame a retained generation still needs
//! — found here the slow way, by decoding the old bytes. The trim itself
//! is read off the decision journal
//! ([`Decision::CheckpointWritten`]), not off the directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ens_filter::{FilterSnapshot, SnapshotScratch};
use ens_service::persist::{
    checkpoint_gen_file, decode_wal, parse_checkpoint_gen, salvage_wal, Checkpoint,
    CheckpointShard, WalRecord, WAL_FILE,
};
use ens_service::{
    Broker, BrokerConfig, Decision, DurabilityConfig, FaultFs, FaultPlan, FsyncPolicy, Subscriber,
    Vfs,
};
use ens_types::{Domain, Event, IndexedEvent, Predicate, Profile, ProfileId, Schema};
use proptest::prelude::*;

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

fn db_dir() -> PathBuf {
    PathBuf::from("db")
}

fn durability(vfs: Arc<dyn Vfs>, generations: usize) -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: 0,
        fsync: FsyncPolicy::Always,
        vfs,
        checkpoint_generations: generations,
        ..DurabilityConfig::new(db_dir())
    }
}

/// What the journal says about the checkpoint just written:
/// `(generation, wal_bytes_dropped, wal_bytes_kept)`.
fn last_checkpoint(broker: &Broker) -> (u64, u64, u64) {
    match broker.decisions().last() {
        Some(Decision::CheckpointWritten {
            generation,
            image_bytes,
            wal_bytes_dropped,
            wal_bytes_kept,
            ns,
            trim_ns,
        }) => {
            assert!(*image_bytes > 0 && trim_ns <= ns);
            (*generation, *wal_bytes_dropped, *wal_bytes_kept)
        }
        other => panic!("a checkpoint journals itself last, got {other:?}"),
    }
}

/// The oracle's cut: the offset of the first frame of `wal` with an
/// LSN above `floor` (`wal.len()` if there is none).
fn first_frame_above(wal: &[u8], floor: u64) -> usize {
    let scan = salvage_wal(wal);
    match scan.records.iter().position(|r| r.lsn() > floor) {
        Some(0) => 0,
        Some(i) => scan.offsets[i - 1],
        None => wal.len(),
    }
}

fn generations_on(fs: &FaultFs) -> Vec<u64> {
    let mut gens: Vec<u64> = fs
        .list(&db_dir())
        .unwrap()
        .iter()
        .filter_map(|n| parse_checkpoint_gen(n))
        .collect();
    gens.sort_unstable();
    gens
}

fn ids_of(subscribers: &[Subscriber]) -> Vec<u64> {
    subscribers.iter().map(|s| s.id().get()).collect()
}

/// `Broker::open` on a copy of `fs` in which only the generations up
/// to `gen` exist must reproduce `live`: the trimmed log still carries
/// every frame that generation needs.
fn assert_opens_from(fs: &FaultFs, gen: u64, generations: usize, live: &[u64]) {
    let img = fs.crash_image(fs.boundaries(), &FaultPlan::clean(0));
    for newer in generations_on(&img).into_iter().filter(|g| *g > gen) {
        img.remove_file(&db_dir().join(checkpoint_gen_file(newer)))
            .unwrap();
    }
    let r = Broker::open(
        &schema(),
        BrokerConfig::default(),
        durability(Arc::new(img), generations),
    )
    .unwrap_or_else(|e| panic!("open from generation {gen}: {e}"));
    assert_eq!(ids_of(&r.subscribers), live, "from generation {gen}");
}

proptest! {
    /// (i) and (iii): random subscribe / unsubscribe / checkpoint /
    /// keep-WAL checkpoint / restart sequences. The model knows what
    /// the process knows: the LSN each generation written in this
    /// process covers, and after a restart only the loaded one's.
    #[test]
    fn a_trimmed_wal_is_the_byte_suffix_its_generations_need(
        ops in prop::collection::vec(0u8..10, 8..48),
        generations in 1usize..=3,
    ) {
        let schema = schema();
        let fs = FaultFs::new();
        let wal_path = db_dir().join(WAL_FILE);
        let open = || {
            Broker::open(
                &schema,
                BrokerConfig::default(),
                durability(Arc::new(fs.clone()), generations),
            )
            .unwrap()
        };
        let mut broker = open().broker;
        let mut held: Vec<Subscriber> = Vec::new();
        let mut lsn = 0u64;
        let mut covers: BTreeMap<u64, u64> = BTreeMap::new();
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                0..=3 => {
                    held.push(broker.subscribe_profile(profile(&schema, step as u64)).unwrap());
                    lsn += 1;
                }
                4..=5 if !held.is_empty() => {
                    let sub = held.remove(step % held.len());
                    broker.unsubscribe(sub.id()).unwrap();
                    lsn += 1;
                }
                6..=8 => {
                    let before = fs.read(&wal_path).unwrap();
                    let trim = op != 8;
                    if trim {
                        prop_assert!(broker.checkpoint().unwrap());
                    } else {
                        prop_assert!(broker.checkpoint_keep_wal().unwrap());
                    }
                    let after = fs.read(&wal_path).unwrap();
                    let (gen, dropped, kept) = last_checkpoint(&broker);
                    covers.insert(gen, lsn);
                    prop_assert_eq!(kept, after.len() as u64);
                    prop_assert_eq!(dropped + kept, before.len() as u64);
                    if !trim {
                        prop_assert_eq!(&after, &before);
                        continue;
                    }
                    // The floor: the lowest LSN covered in the retention
                    // window, 0 if the window reaches the origin or holds
                    // a generation this process knows nothing about.
                    let keep = generations as u64;
                    let floor = if gen < keep {
                        0
                    } else {
                        (gen - keep + 1..=gen)
                            .map(|g| covers.get(&g).copied().unwrap_or(0))
                            .min()
                            .unwrap()
                    };
                    let cut = first_frame_above(&before, floor);
                    prop_assert_eq!(&after[..], &before[cut..], "floor {}", floor);
                    if generations == 1 {
                        prop_assert!(after.is_empty());
                    }
                    let live = ids_of(&held);
                    for g in generations_on(&fs) {
                        assert_opens_from(&fs, g, generations, &live);
                    }
                }
                9 => {
                    drop(broker);
                    let r = open();
                    prop_assert_eq!(ids_of(&r.subscribers), ids_of(&held));
                    broker = r.broker;
                    held = r.subscribers;
                    // Only the loaded generation's coverage survives.
                    let loaded = covers.pop_last();
                    covers.clear();
                    covers.extend(loaded);
                }
                _ => {}
            }
        }
    }
}

/// (iii), spelled out: the offset of the generation a restart loaded
/// comes from the recovery scan, and the next-but-one trim cuts there.
#[test]
fn a_restarted_broker_trims_at_the_offset_its_scan_found() {
    let schema = schema();
    let fs = FaultFs::new();
    let wal_path = db_dir().join(WAL_FILE);
    let config = || durability(Arc::new(fs.clone()), 2);
    let mut held = Vec::new();
    {
        let broker = Broker::open(&schema, BrokerConfig::default(), config())
            .unwrap()
            .broker;
        for i in 0..5 {
            held.push(broker.subscribe_profile(profile(&schema, i)).unwrap());
        }
        broker.checkpoint().unwrap(); // generation 1 covers LSN 5
        for i in 5..8 {
            held.push(broker.subscribe_profile(profile(&schema, i)).unwrap());
        }
        broker.checkpoint().unwrap(); // generation 2 covers LSN 8
        held.push(broker.subscribe_profile(profile(&schema, 8)).unwrap());
    }
    let r = Broker::open(&schema, BrokerConfig::default(), config()).unwrap();
    assert_eq!(r.subscribers.len(), 9);
    held = r.subscribers;
    held.push(r.broker.subscribe_profile(profile(&schema, 9)).unwrap());

    // Generation 3 joins a window whose other member, 2, was loaded
    // at the restart: the log (LSN 6..=10) is cut behind LSN 8.
    let before = fs.read(&wal_path).unwrap();
    r.broker.checkpoint().unwrap();
    let after = fs.read(&wal_path).unwrap();
    let (gen, dropped, kept) = last_checkpoint(&r.broker);
    assert_eq!(gen, 3);
    let cut = first_frame_above(&before, 8);
    assert_eq!(after, before[cut..]);
    assert_eq!((dropped, kept), (cut as u64, after.len() as u64));
    let lsns: Vec<u64> = decode_wal(&after)
        .records
        .iter()
        .map(WalRecord::lsn)
        .collect();
    assert_eq!(lsns, vec![9, 10]);
    for gen in [2, 3] {
        assert_opens_from(&fs, gen, 2, &ids_of(&held));
    }
}

/// A read that returns less than the file (the short-read fault) must
/// not pass for a short log: the trim refuses, the log stands, and the
/// next checkpoint on a behaving disk trims as if nothing had happened.
#[test]
fn a_short_read_trims_nothing() {
    let schema = schema();
    let fs = FaultFs::new();
    let wal_path = db_dir().join(WAL_FILE);
    let broker = Broker::open(
        &schema,
        BrokerConfig::default(),
        durability(Arc::new(fs.clone()), 1),
    )
    .unwrap()
    .broker;
    let held: Vec<Subscriber> = (0..6)
        .map(|i| broker.subscribe_profile(profile(&schema, i)).unwrap())
        .collect();
    let before = fs.read(&wal_path).unwrap();

    fs.short_reads(Some(before.len() - 5));
    assert!(broker.checkpoint().is_err());
    fs.short_reads(None);
    assert_eq!(fs.read(&wal_path).unwrap(), before, "the log stands");
    assert_opens_from(&fs, 0, 1, &ids_of(&held));

    assert!(broker.checkpoint().unwrap());
    assert!(fs.read(&wal_path).unwrap().is_empty());
    assert_opens_from(&fs, 2, 1, &ids_of(&held));
}

/// A durable broker, three acknowledged subscribes, then a torn append
/// whose rollback fails too: half a frame stays in the log, where the
/// broker's own length bookkeeping does not see it.
struct TornLog {
    fs: FaultFs,
    broker: Broker,
    held: Vec<Subscriber>,
}

impl TornLog {
    fn new(schema: &Schema) -> Self {
        let fs = FaultFs::new();
        let config = durability(Arc::new(fs.clone()), 2);
        let broker = Broker::open(schema, BrokerConfig::default(), config)
            .unwrap()
            .broker;
        let mut log = TornLog {
            fs,
            broker,
            held: Vec::new(),
        };
        log.subscribe(schema, 3);
        log.fs.fail_truncates(true);
        log.torn_subscribe(schema);
        log.fs.fail_truncates(false);
        let scan = salvage_wal(&log.wal());
        assert!(
            scan.quarantined > 0,
            "the partial frame is still in the file"
        );
        log
    }

    fn wal(&self) -> Vec<u8> {
        self.fs.read(&db_dir().join(WAL_FILE)).unwrap()
    }

    fn subscribe(&mut self, schema: &Schema, n: usize) {
        for _ in 0..n {
            let p = profile(schema, self.held.len() as u64);
            self.held.push(self.broker.subscribe_profile(p).unwrap());
        }
    }

    /// A subscribe whose append tears; the half-made subscription has
    /// no handle, and the publish collects it.
    fn torn_subscribe(&self, schema: &Schema) {
        self.fs.fail_appends(true);
        assert!(self.broker.subscribe_profile(profile(schema, 50)).is_err());
        self.fs.fail_appends(false);
        let everything = Event::builder(schema).value("x", 95).unwrap().build();
        self.broker.publish(&everything).unwrap();
        assert_eq!(self.broker.subscription_count(), self.held.len());
    }
}

/// (ii): with garbage in the log that `wal.len` never counted, the
/// recorded offsets still come from the file, so the cut lands on a
/// frame boundary and nothing acknowledged is lost, from either
/// retained generation.
#[test]
fn garbage_from_a_failed_rollback_does_not_move_the_cut() {
    let schema = schema();
    let mut log = TornLog::new(&schema);
    log.subscribe(&schema, 5);

    assert!(log.broker.checkpoint().unwrap()); // generation 1: nothing to cut yet
    assert_eq!(last_checkpoint(&log.broker).1, 0);
    log.subscribe(&schema, 2);
    let before = log.wal();
    assert!(log.broker.checkpoint().unwrap()); // generation 2: cut behind 1
    let (_, dropped, kept) = last_checkpoint(&log.broker);
    let after = log.wal();
    assert_eq!(after, before[dropped as usize..]);
    assert_eq!(kept, after.len() as u64);

    // The cut is a frame boundary: the kept log decodes from its first
    // byte, strictly, to exactly the two subscribes after generation 1.
    let trimmed = salvage_wal(&after);
    assert_eq!((trimmed.quarantined, trimmed.torn), (0, false));
    let strict = decode_wal(&after);
    assert_eq!(strict.consumed, after.len());
    let ids: Vec<u64> = strict
        .records
        .iter()
        .map(|r| match r {
            WalRecord::Subscribe { id, .. } => *id,
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(ids, ids_of(&log.held[log.held.len() - 2..]));

    for gen in [1, 2] {
        assert_opens_from(&log.fs, gen, 2, &ids_of(&log.held));
    }
}

/// The same garbage, then a torn append whose rollback works: it must
/// truncate to the real end of the last frame — not to where the
/// bookkeeping would have drifted, inside an acknowledged frame.
#[test]
fn a_later_rollback_does_not_reach_back_over_acknowledged_frames() {
    let schema = schema();
    let mut log = TornLog::new(&schema);
    log.subscribe(&schema, 3);
    let before = log.wal();
    log.torn_subscribe(&schema);
    assert!(log.wal().starts_with(&before), "acked frames stand");
    log.subscribe(&schema, 2);
    // From the log alone (no generation yet): every ack is in it.
    assert_opens_from(&log.fs, 0, 2, &ids_of(&log.held));
}

/// Whether two checkpoint images hold the same state: the same LSN,
/// counters, schema and entries, and shard filters that answer and
/// count a probe battery alike.
fn same_checkpoint(a: &[u8], b: &[u8]) -> bool {
    let (a, b) = (
        Checkpoint::from_bytes(a).unwrap(),
        Checkpoint::from_bytes(b).unwrap(),
    );
    let entries = |s: &CheckpointShard| {
        let all = s.base.iter().chain(&s.overlay);
        all.map(|e| (e.id, e.weight.to_bits(), e.tombstoned, e.profile.clone()))
            .collect::<Vec<_>>()
    };
    let serves = |s: &CheckpointShard| {
        let snap = FilterSnapshot::from_bytes(&s.filter).unwrap();
        let mut scratch = SnapshotScratch::new();
        let mut out = Vec::new();
        for x in (0..100).map(Some).chain([None]) {
            for use_dfsa in [false, true] {
                snap.match_into(&IndexedEvent::from_indices(vec![x]), &mut scratch, use_dfsa);
                out.push((scratch.matched().to_vec(), scratch.ops()));
            }
        }
        out
    };
    (a.schema, a.last_lsn, a.next_sub, a.sequence) == (b.schema, b.last_lsn, b.next_sub, b.sequence)
        && a.shards.len() == b.shards.len()
        && a.shards
            .iter()
            .zip(&b.shards)
            .all(|(x, y)| x.tree == y.tree && entries(x) == entries(y) && serves(x) == serves(y))
}

/// On-disk compatibility. `fixtures/parent_dir` was written by the
/// commit before the offset trim (26 subscribes at `checkpoint_every:
/// 8`: generations 2 and 3, LSN 17..=26 in the log). Its checkpoint
/// images hold version 3 filter snapshots, which also stored the
/// automaton; this build writes version 4, which lowers it from the
/// tree at load instead. Its log holds records in the tagged serde
/// codec; this build writes Subscribe records in the binary one. Given
/// the same 26 subscribes, this build writes a log of the same records
/// — its appends and its two trims are the old ones — byte for byte
/// the log in `fixtures/binary_wal.log`, and checkpoint images that
/// hold the same state. It opens the old directory, replays its legacy
/// frames, appends a binary one, trims the log at the offset the scan
/// found and reopens it. (A change that alters the format on purpose
/// regenerates `binary_wal.log`.)
#[test]
fn a_directory_written_before_the_offset_trim_opens_trims_and_reopens() {
    const FILES: [&str; 3] = ["checkpoint.2.ens", "checkpoint.3.ens", WAL_FILE];
    let schema = schema();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_dir");
    let fs = FaultFs::new();
    fs.create_dir_all(&db_dir()).unwrap();
    for name in FILES {
        let mut f = fs.create(&db_dir().join(name)).unwrap();
        f.append(&std::fs::read(fixture.join(name)).unwrap())
            .unwrap();
    }
    let wal_path = db_dir().join(WAL_FILE);

    let ours = FaultFs::new();
    {
        let d = DurabilityConfig {
            checkpoint_every: 8,
            ..durability(Arc::new(ours.clone()), 2)
        };
        let broker = Broker::open(&schema, BrokerConfig::default(), d)
            .unwrap()
            .broker;
        let _held: Vec<Subscriber> = (0..26)
            .map(|i| broker.subscribe_profile(profile(&schema, i)).unwrap())
            .collect();
    }
    assert_eq!(ours.list(&db_dir()).unwrap(), fs.list(&db_dir()).unwrap());
    for name in FILES {
        let path = db_dir().join(name);
        let (new, old) = (ours.read(&path).unwrap(), fs.read(&path).unwrap());
        if name == WAL_FILE {
            assert_eq!(
                decode_wal(&new).records,
                decode_wal(&old).records,
                "the log holds other records"
            );
            let binary = std::fs::read(fixture.with_file_name("binary_wal.log")).unwrap();
            assert!(new == binary, "the log is no longer written byte for byte");
        } else {
            assert!(same_checkpoint(&new, &old), "{name} holds another state");
        }
    }

    let config = || durability(Arc::new(fs.clone()), 2);
    let r = Broker::open(&schema, BrokerConfig::default(), config()).unwrap();
    assert_eq!(ids_of(&r.subscribers), (0..26).collect::<Vec<u64>>());
    let mut held = r.subscribers;
    held.push(r.broker.subscribe_profile(profile(&schema, 26)).unwrap());

    let before = fs.read(&wal_path).unwrap();
    assert_eq!(decode_wal(&before).records.len(), 11);

    // Generation 4 joins generation 3 (LSN 24, loaded above).
    assert!(r.broker.checkpoint().unwrap());
    let after = fs.read(&wal_path).unwrap();
    assert_eq!(after, before[first_frame_above(&before, 24)..]);
    assert_eq!(last_checkpoint(&r.broker).0, 4);
    assert_eq!(generations_on(&fs), vec![3, 4]);
    for gen in [3, 4] {
        assert_opens_from(&fs, gen, 2, &ids_of(&held));
    }
}
