//! WAL frame resilience: salvage semantics under interior corruption,
//! plus property tests that replay a valid log through arbitrary
//! read-chunk boundaries and bit flips. The contract under test:
//! a flipped bit is always detected (per-frame CRC), and salvage never
//! yields a frame the oracle didn't write — corruption can only ever
//! *remove* records, never invent or alter them.

use std::path::PathBuf;
use std::sync::Arc;

use ens_filter::persist::{frame, ByteWriter};
use ens_service::persist::{decode_wal, encode_frame, salvage_wal, WalRecord, WAL_FILE};
use ens_service::{Broker, BrokerConfig, DurabilityConfig, FaultFs, FsyncPolicy, Vfs};
use ens_types::{Domain, Predicate, Profile, ProfileId, Schema};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::builder()
        .attribute("x", Domain::int(0, 999))
        .unwrap()
        .build()
}

/// One subscribe record per LSN, each with a distinct profile.
fn records(schema: &Schema, n: usize) -> Vec<WalRecord> {
    (0..n)
        .map(|i| WalRecord::Subscribe {
            lsn: i as u64 + 1,
            id: i as u64,
            weight: 1.0,
            profile: Profile::from_predicates(
                schema,
                ProfileId::new(0),
                vec![Predicate::ge((i as i64 * 37) % 1000)],
            )
            .unwrap(),
        })
        .collect()
}

/// Encodes `records` into a contiguous WAL image plus per-frame spans.
fn wal_image(records: &[WalRecord]) -> (Vec<u8>, Vec<(usize, usize)>) {
    let mut bytes = Vec::new();
    let mut spans = Vec::new();
    for record in records {
        let frame = encode_frame(record).unwrap();
        spans.push((bytes.len(), bytes.len() + frame.len()));
        bytes.extend_from_slice(&frame);
    }
    (bytes, spans)
}

#[test]
fn salvage_skips_a_corrupt_middle_frame_and_counts_it() {
    let schema = schema();
    let recs = records(&schema, 5);
    let (mut bytes, spans) = wal_image(&recs);

    // Flip a payload byte in the middle of frame 2 (0-based index 1).
    let (start, end) = spans[1];
    bytes[start + (end - start) / 2] ^= 0x40;

    let strict = decode_wal(&bytes);
    assert_eq!(strict.records.len(), 1, "strict decode stops at the hole");
    assert!(strict.torn);

    let scan = salvage_wal(&bytes);
    let lsns: Vec<u64> = scan.records.iter().map(WalRecord::lsn).collect();
    assert_eq!(lsns, vec![1, 3, 4, 5], "only the corrupt frame is lost");
    assert_eq!(scan.salvaged, 3, "frames recovered after the resync");
    assert_eq!(
        scan.quarantined,
        (end - start) as u64,
        "exactly the corrupt frame's bytes are quarantined"
    );
    assert!(!scan.torn, "the log end is reached cleanly");
    assert_eq!(scan.consumed, bytes.len());
}

#[test]
fn salvage_skips_a_zeroed_region() {
    let schema = schema();
    let recs = records(&schema, 4);
    let (mut bytes, spans) = wal_image(&recs);

    // Zero frame 3 wholesale — a dropped unsynced write turns into a
    // zero-filled gap on real disks and in the FaultFs crash model.
    let (start, end) = spans[2];
    for b in &mut bytes[start..end] {
        *b = 0;
    }

    let scan = salvage_wal(&bytes);
    let lsns: Vec<u64> = scan.records.iter().map(WalRecord::lsn).collect();
    assert_eq!(lsns, vec![1, 2, 4]);
    assert_eq!(scan.quarantined, (end - start) as u64);
}

#[test]
fn salvage_rejects_stale_lsns_on_resync() {
    let schema = schema();
    let recs = records(&schema, 3);
    // A(1) B(2) A(1) C(3): the duplicated old frame must not be
    // replayed out of order — salvage only moves forward in LSNs.
    let mut bytes = Vec::new();
    for record in [&recs[0], &recs[1], &recs[0], &recs[2]] {
        bytes.extend_from_slice(&encode_frame(record).unwrap());
    }
    let scan = salvage_wal(&bytes);
    let lsns: Vec<u64> = scan.records.iter().map(WalRecord::lsn).collect();
    assert_eq!(lsns, vec![1, 2, 3]);
    assert!(scan.quarantined > 0, "the stale duplicate is quarantined");
}

/// The frame a log written before the binary record kinds holds: the
/// record through the tagged serde codec.
fn legacy_frame(record: &WalRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.serde(record);
    frame(&w.into_bytes()).unwrap()
}

/// Replay holds each record to the checks a subscribe makes on the way
/// in. A weight that is not finite and positive, a profile of another
/// width and a value outside its attribute's domain are refused like a
/// frame that does not decode — in the binary codec and in the tagged
/// one older logs hold — and the broker opens on the records around
/// them, then compacts them (a replayed NaN weight used to fail every
/// later compaction of its shard).
#[test]
fn replay_refuses_what_a_subscribe_would_refuse() {
    let schema = schema();
    let wide = Schema::builder()
        .attribute("x", Domain::int(0, 999))
        .unwrap()
        .attribute("y", Domain::int(0, 9))
        .unwrap()
        .build();
    let profile =
        |s: &Schema, preds| Profile::from_predicates(s, ProfileId::new(0), preds).unwrap();
    let subscribe = |lsn: u64, weight, profile| WalRecord::Subscribe {
        lsn,
        id: lsn - 1,
        weight,
        profile,
    };
    let good = || profile(&schema, vec![Predicate::ge(10)]);
    for legacy in [false, true] {
        let records = [
            subscribe(1, 1.0, good()),
            subscribe(2, -1.0, good()),
            subscribe(3, f64::NAN, good()),
            subscribe(
                4,
                1.0,
                profile(&wide, vec![Predicate::ge(10), Predicate::eq(3)]),
            ),
            subscribe(5, 1.0, profile(&schema, vec![Predicate::ge(5000)])),
            subscribe(6, 2.0, good()),
        ];
        let mut wal = Vec::new();
        for record in &records {
            wal.extend(match legacy {
                true => legacy_frame(record),
                false => encode_frame(record).unwrap(),
            });
        }
        let fs = FaultFs::new();
        let dir = PathBuf::from("db");
        fs.create_dir_all(&dir).unwrap();
        fs.create(&dir.join(WAL_FILE))
            .unwrap()
            .append(&wal)
            .unwrap();
        let durability = DurabilityConfig {
            checkpoint_every: 0,
            fsync: FsyncPolicy::Always,
            vfs: Arc::new(fs),
            ..DurabilityConfig::new(dir)
        };
        let r = Broker::open(&schema, BrokerConfig::default(), durability).unwrap();
        let ids: Vec<u64> = r.subscribers.iter().map(|s| s.id().get()).collect();
        assert_eq!(ids, vec![0, 5], "legacy frames: {legacy}");
        assert!(r.broker.metrics().wal_quarantined_bytes > 0);
        assert!(r.broker.checkpoint().unwrap());
        r.broker.subscribe_profile(good()).unwrap();
    }
}

/// A Subscribe record costs what its profile carries: over the
/// environmental population (three integer attributes), every frame is
/// at most 100 bytes — the tagged codec wrote about 223.
#[test]
fn a_subscribe_frame_of_the_environmental_population_is_small() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let population = ens_workloads::scenario::environmental_profiles(1000, &mut rng).unwrap();
    let sizes: Vec<usize> = population
        .iter()
        .zip(1..)
        .map(|(p, lsn)| {
            let record = WalRecord::Subscribe {
                lsn,
                id: lsn,
                weight: 1.0,
                profile: p.clone(),
            };
            encode_frame(&record).unwrap().len()
        })
        .collect();
    let largest = sizes.iter().max().copied().unwrap_or(0);
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    assert!(
        largest <= 100,
        "largest frame {largest} B (mean {mean:.1} B)"
    );
}

proptest! {
    /// Cutting a valid log at *any* byte boundary: salvage agrees with
    /// strict decode — the fully-contained frame prefix, torn iff the
    /// cut lands inside a frame.
    #[test]
    fn arbitrary_prefix_cuts_match_strict_decode(n in 1usize..6, cut_frac in 0.0f64..=1.0) {
        let schema = schema();
        let recs = records(&schema, n);
        let (bytes, _) = wal_image(&recs);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let prefix = &bytes[..cut.min(bytes.len())];

        let strict = decode_wal(prefix);
        let scan = salvage_wal(prefix);
        let strict_lsns: Vec<u64> = strict.records.iter().map(WalRecord::lsn).collect();
        let lsns: Vec<u64> = scan.records.iter().map(WalRecord::lsn).collect();
        prop_assert_eq!(lsns, strict_lsns);
        prop_assert_eq!(scan.torn, strict.torn);
        prop_assert_eq!(scan.consumed, strict.consumed);
        prop_assert_eq!(scan.salvaged, 0);
        prop_assert_eq!(scan.quarantined, 0);
    }

    /// One or two bit flips anywhere in the log: every record salvage
    /// returns re-encodes to a frame the oracle actually wrote (the
    /// CRC never lets an altered payload through), and at most one
    /// frame is lost per flip.
    #[test]
    fn bit_flips_are_always_detected_and_never_fabricate_frames(
        n in 1usize..6,
        flips in prop::collection::vec((0.0f64..1.0, 0u8..8), 1..=2),
    ) {
        let schema = schema();
        let recs = records(&schema, n);
        let (mut bytes, _) = wal_image(&recs);
        let originals: Vec<Vec<u8>> = recs.iter().map(|r| encode_frame(r).unwrap()).collect();

        let mut flipped = std::collections::BTreeSet::new();
        for (frac, bit) in &flips {
            let pos = ((bytes.len() as f64) * frac) as usize;
            let pos = pos.min(bytes.len() - 1);
            bytes[pos] ^= 1 << bit;
            flipped.insert(pos);
        }

        let scan = salvage_wal(&bytes);
        for record in &scan.records {
            let frame = encode_frame(record).unwrap();
            prop_assert!(
                originals.contains(&frame),
                "salvage produced a frame the oracle never wrote: lsn {}",
                record.lsn()
            );
        }
        // Each flipped byte can take down at most the frame containing
        // it (self-cancelling double flips restore the original log).
        prop_assert!(
            scan.records.len() + flipped.len() >= n,
            "{} records survived {} flips of {} frames",
            scan.records.len(),
            flipped.len(),
            n
        );
        // LSNs strictly increase — replay order is never scrambled.
        for pair in scan.records.windows(2) {
            prop_assert!(pair[0].lsn() < pair[1].lsn());
        }
    }
}
