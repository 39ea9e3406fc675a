//! Hostile bytes against the WAL record decoder: every single-byte
//! change of one frame of each kind — a Subscribe and an Unsubscribe
//! in the binary codec, a Subscribe in the tagged serde codec older
//! logs hold, and a Retune — resealed so that it gets past the
//! checksum. Through [`decode_wal`], [`salvage_wal`] and a
//! [`Broker::open`] of a directory holding the frame: nothing panics,
//! the scans ask the allocator for no more than the frame's length
//! accounts for, and a broker replays a Subscribe only if its profile
//! passes the checks a subscribe makes on the way in — and then serves
//! and compacts it.
//!
//! A single `#[test]`, so that no concurrent test thread disturbs the
//! allocation counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ens_dist::{Density, DistOverDomain, JointDist};
use ens_filter::persist::{frame, seal_frame, ByteWriter};
use ens_filter::{AttributeOrder, SearchStrategy};
use ens_service::persist::{decode_wal, encode_frame, salvage_wal, WalRecord, WAL_FILE};
use ens_service::{Broker, BrokerConfig, DurabilityConfig, FaultFs, FsyncPolicy, Vfs};
use ens_types::{AttrId, Domain, Event, Predicate, Profile, ProfileId, Schema};

struct TrackingAlloc;

/// Largest single request and bytes requested in total since the last
/// reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    LARGEST.fetch_max(size, Ordering::Relaxed);
    TOTAL.fetch_add(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 4))
        .unwrap()
        .build()
}

fn subscribe(schema: &Schema) -> WalRecord {
    WalRecord::Subscribe {
        lsn: 1,
        id: 0,
        weight: 1.5,
        // An id past one varint byte: a changed width byte that turns
        // into a continuation byte reads a wide profile.
        profile: Profile::from_predicates(
            schema,
            ProfileId::new(100),
            vec![Predicate::between(1, 3)],
        )
        .unwrap(),
    }
}

/// The frame a log written before the binary record kinds holds:
/// the record through the tagged serde codec.
fn legacy_frame(record: &WalRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.serde(record);
    frame(&w.into_bytes()).unwrap()
}

fn frames(schema: &Schema) -> Vec<(&'static str, Vec<u8>)> {
    let retune = WalRecord::Retune {
        lsn: 1,
        shard: 0,
        attribute_order: AttributeOrder::Explicit(vec![AttrId::new(0)]),
        search: SearchStrategy::Binary,
        event_model: JointDist::independent(vec![DistOverDomain::new(Density::falling(), 5)])
            .unwrap(),
    };
    vec![
        ("subscribe", encode_frame(&subscribe(schema)).unwrap()),
        (
            "unsubscribe",
            encode_frame(&WalRecord::Unsubscribe { lsn: 1, id: 0 }).unwrap(),
        ),
        ("legacy subscribe", legacy_frame(&subscribe(schema))),
        ("retune", encode_frame(&retune).unwrap()),
    ]
}

/// Runs `scan` on `bytes` and checks the allocator was asked for
/// nothing the input's length does not account for: no request above
/// 64 bytes per input byte (a decoded predicate or value tree node per
/// encoded byte, with room to spare) plus 16 KiB, the dense predicates
/// of the widest profile a record may declare (255 attributes). No
/// length or width read from the frame sizes an allocation beyond it.
fn scan_within_budget(
    bytes: &[u8],
    scan: impl Fn(&[u8]) -> ens_service::persist::WalScan,
) -> Vec<WalRecord> {
    LARGEST.store(0, Ordering::Relaxed);
    TOTAL.store(0, Ordering::Relaxed);
    let records = scan(bytes).records;
    let (largest, total) = (
        LARGEST.load(Ordering::Relaxed),
        TOTAL.load(Ordering::Relaxed),
    );
    let len = bytes.len();
    assert!(
        largest <= 64 * len + (16 << 10),
        "one allocation of {largest} bytes scanning {len} input bytes"
    );
    assert!(
        total <= 4096 * len + (1 << 20),
        "{total} bytes allocated scanning {len} input bytes"
    );
    records
}

/// Whether a broker over `schema` may replay `record`: what a
/// subscribe checks on the way in.
fn admissible(record: &WalRecord, schema: &Schema) -> bool {
    match record {
        WalRecord::Subscribe {
            weight, profile, ..
        } => weight.is_finite() && *weight > 0.0 && profile.check(schema).is_ok(),
        _ => true,
    }
}

/// `Broker::open` of a directory whose log is `wal`: it must not
/// panic, and a broker that opens holds exactly the admissible
/// Subscribe records among `records`, publishes, takes a subscription,
/// and compacts it all into a checkpoint.
fn open_holding(schema: &Schema, wal: &[u8], records: &[WalRecord]) {
    let fs = FaultFs::new();
    let dir = PathBuf::from("db");
    fs.create_dir_all(&dir).unwrap();
    fs.create(&dir.join(WAL_FILE)).unwrap().append(wal).unwrap();
    let durability = DurabilityConfig {
        checkpoint_every: 0,
        fsync: FsyncPolicy::Never,
        vfs: Arc::new(fs),
        ..DurabilityConfig::new(dir)
    };
    // A Retune naming a shape this broker cannot compile is an error
    // (recovery fails loudly); every other frame opens.
    let Ok(recovered) = Broker::open(schema, BrokerConfig::default(), durability) else {
        assert!(
            records
                .iter()
                .any(|r| matches!(r, WalRecord::Retune { .. })),
            "only a Retune may fail the open"
        );
        return;
    };
    // With no checkpoint, replay covers LSN 0 already (LSNs start at 1).
    let live: Vec<u64> = records
        .iter()
        .filter(|r| r.lsn() > 0 && admissible(r, schema))
        .filter_map(|r| match r {
            WalRecord::Subscribe { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    let ids: Vec<u64> = recovered.subscribers.iter().map(|s| s.id().get()).collect();
    assert_eq!(ids, live, "replayed subscriptions");
    let event = Event::builder(schema).value("x", 2).unwrap().build();
    recovered.broker.publish(&event).unwrap();
    // And it takes a subscription, compiled under whatever shape a
    // replayed Retune left.
    let WalRecord::Subscribe { profile, .. } = subscribe(schema) else {
        unreachable!()
    };
    let sub = recovered.broker.subscribe_profile(profile);
    assert!(
        sub.is_ok(),
        "a subscribe after replaying {records:?}: {:?}",
        sub.err()
    );
    assert!(
        recovered.broker.checkpoint().unwrap(),
        "compacts what it replayed"
    );
}

#[test]
fn every_resealed_byte_of_a_record_decodes_safely() {
    let schema = schema();
    for (kind, valid) in frames(&schema) {
        assert_eq!(decode_wal(&valid).records.len(), 1, "{kind} decodes");
        let mut accepted = 0;
        for at in 8..valid.len() {
            for byte in (0..=u8::MAX).filter(|&b| b != valid[at]) {
                let mut bytes = valid.clone();
                bytes[at] = byte;
                seal_frame(&mut bytes).unwrap();
                let strict = scan_within_budget(&bytes, decode_wal);
                let salvaged = scan_within_budget(&bytes, salvage_wal);
                assert_eq!(strict, salvaged, "{kind}: byte {at} set to {byte}");
                assert!(strict.iter().all(|r| match r {
                    WalRecord::Subscribe { weight, .. } => weight.is_finite() && *weight > 0.0,
                    _ => true,
                }));
                if strict.is_empty() {
                    continue;
                }
                accepted += 1;
                open_holding(&schema, &bytes, &strict);
            }
        }
        assert!(accepted > 0, "{kind}: some changes decode");
    }
}
