//! Stable overlay slots under churn. An unsubscribe tombstones its
//! overlay entry where it is, and the overlay is packed once its
//! tombstones reach its live entries. On 1000 compiled environmental
//! profiles, rounds of 16 subscribes, a burst and 16 unsubscribes must
//! still deliver exactly what the `ProfileSet::matches` oracle over the
//! live population says, compact nothing, and pack at most
//! ⌈log₂ 16⌉ + 1 = 5 times a round. A checkpoint taken while the overlay
//! holds tombstones packs first: its image is byte for byte the one
//! written after an explicit pack, and it reopens to the same live
//! subscriptions; an image that claims an overlay tombstone is refused.

use std::path::PathBuf;
use std::sync::Arc;

use ens_service::persist::{checkpoint_gen_file, parse_checkpoint_gen, Checkpoint};
use ens_service::{
    Broker, BrokerConfig, DurabilityConfig, FaultFs, FsyncPolicy, ServiceError, Subscriber,
    SubscriptionId, Vfs,
};
use ens_types::{Event, Profile, ProfileSet, Schema};
use ens_workloads::{churn_burst_plan, scenario, ChurnOp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Subscribes and unsubscribes per round.
const CHURN: usize = 16;

fn population(n: usize, seed: u64) -> Vec<Profile> {
    let mut rng = StdRng::seed_from_u64(seed);
    let profiles = scenario::environmental_profiles(n, &mut rng).unwrap();
    profiles.iter().cloned().collect()
}

/// The oracle's receipt: the live subscriptions whose profiles
/// `ProfileSet::matches` finds for `event`, ascending.
fn expected(
    schema: &Schema,
    live: &[(SubscriptionId, Profile)],
    event: &Event,
) -> Vec<SubscriptionId> {
    let mut set = ProfileSet::new(schema);
    for (_, p) in live {
        set.insert(p.clone());
    }
    let matched = set.matches(event).unwrap();
    let mut ids: Vec<_> = matched.iter().map(|p| live[p.index()].0).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn churn_rounds_match_the_oracle_and_pack_logarithmically() {
    let schema = scenario::environmental_schema();
    let broker = Broker::new(&schema, BrokerConfig::default()).unwrap();
    let load = population(1000, 11);
    let held = broker.subscribe_many(load.iter().cloned()).unwrap();
    let mut live: Vec<(SubscriptionId, Profile)> =
        held.iter().map(Subscriber::id).zip(load).collect();
    let compactions = broker.metrics().overlay_compactions;

    let plan = churn_burst_plan(11, 8, 64, CHURN).unwrap();
    // The live churn subscriptions, oldest first.
    let mut churn: Vec<Subscriber> = Vec::new();
    let mut unsubscribes = 0;
    let mut packs_at_round = vec![broker.metrics().overlay_packs];
    for op in &plan.ops {
        match op {
            ChurnOp::Subscribe(p) => {
                let sub = broker.subscribe_profile(p.clone()).unwrap();
                live.push((sub.id(), p.clone()));
                churn.push(sub);
            }
            ChurnOp::Unsubscribe(k) => {
                let sub = churn.remove(*k);
                broker.unsubscribe(sub.id()).unwrap();
                live.retain(|(id, _)| *id != sub.id());
                unsubscribes += 1;
            }
            ChurnOp::Burst(range) => {
                packs_at_round.push(broker.metrics().overlay_packs);
                for event in &plan.events[range.clone()] {
                    let receipt = broker.publish(event).unwrap();
                    assert_eq!(receipt.matched, expected(&schema, &live, event));
                }
                for sub in held.iter().chain(&churn) {
                    let _ = sub.drain();
                }
            }
        }
    }
    packs_at_round.push(broker.metrics().overlay_packs);

    let m = broker.metrics();
    assert_eq!(m.overlay_compactions, compactions, "churn never compacts");
    // Round r's unsubscribes fall between bursts r and r + 1.
    let per_round: Vec<u64> = packs_at_round.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        per_round.iter().all(|&p| p <= 5),
        "packs per round {per_round:?}"
    );
    let packs = m.overlay_packs;
    assert!(
        packs > 0 && packs * 3 < unsubscribes,
        "{packs} packs for {unsubscribes} unsubscribes"
    );
    assert!(m.to_string().contains(&format!("packs={packs}")), "{m}");
}

/// The automaton counts what the tree counts: over churn rounds whose
/// bursts go out half through `publish`, half through `publish_batch`,
/// a default broker's receipts — matches and comparison counts — and
/// its `total_ops` / `overlay_ops` are a tree-dispatching twin's.
#[test]
fn dfsa_dispatch_reads_what_the_tree_reads() {
    let schema = scenario::environmental_schema();
    let load = population(1000, 12);
    let twins = [true, false].map(|dfsa_dispatch| {
        let config = BrokerConfig {
            shards: 2,
            dfsa_dispatch,
            ..BrokerConfig::default()
        };
        let broker = Broker::new(&schema, config).unwrap();
        let held = broker.subscribe_many(load.iter().cloned()).unwrap();
        (broker, held, Vec::<Subscriber>::new())
    });
    let [mut dfsa, mut tree] = twins;
    assert!(
        BrokerConfig::default().dfsa_dispatch,
        "the automaton serves by default"
    );
    let plan = churn_burst_plan(12, 6, 64, CHURN).unwrap();
    for op in &plan.ops {
        for (broker, held, churn) in [&mut dfsa, &mut tree] {
            match op {
                ChurnOp::Subscribe(p) => churn.push(broker.subscribe_profile(p.clone()).unwrap()),
                ChurnOp::Unsubscribe(k) => broker.unsubscribe(churn.remove(*k).id()).unwrap(),
                ChurnOp::Burst(_) => {
                    for sub in held.iter().chain(churn.iter()) {
                        let _ = sub.drain();
                    }
                }
            }
        }
        let ChurnOp::Burst(range) = op else {
            continue;
        };
        let events: Vec<Arc<Event>> = plan.events[range.clone()]
            .iter()
            .cloned()
            .map(Arc::new)
            .collect();
        let (single, batch) = events.split_at(events.len() / 2);
        let receipts = |broker: &Broker| {
            let mut receipts: Vec<_> = single
                .iter()
                .map(|e| broker.publish_shared(Arc::clone(e)).unwrap())
                .collect();
            receipts.extend(broker.publish_batch(batch).unwrap());
            receipts
                .into_iter()
                .map(|r| (r.matched, r.ops))
                .collect::<Vec<_>>()
        };
        let (by_dfsa, by_tree) = (receipts(&dfsa.0), receipts(&tree.0));
        assert!(by_tree.iter().any(|(_, ops)| *ops > 0));
        assert_eq!(by_dfsa, by_tree);
    }
    let (a, b) = (dfsa.0.metrics(), tree.0.metrics());
    assert!(a.overlay_ops > 0 && a.total_ops > a.overlay_ops, "{a}");
    assert_eq!((a.total_ops, a.overlay_ops), (b.total_ops, b.overlay_ops));
}

fn db_dir() -> PathBuf {
    PathBuf::from("db")
}

fn try_open(schema: &Schema, fs: &FaultFs) -> Result<ens_service::Recovered, ServiceError> {
    let durability = DurabilityConfig {
        checkpoint_every: 0,
        fsync: FsyncPolicy::Always,
        vfs: Arc::new(fs.clone()),
        ..DurabilityConfig::new(db_dir())
    };
    Broker::open(schema, BrokerConfig::default(), durability)
}

fn open(schema: &Schema, fs: &FaultFs) -> ens_service::Recovered {
    try_open(schema, fs).unwrap()
}

/// The path of the newest checkpoint image in `fs`.
fn newest_path(fs: &FaultFs) -> PathBuf {
    let names = fs.list(&db_dir()).unwrap();
    let gen = names.iter().filter_map(|n| parse_checkpoint_gen(n)).max();
    db_dir().join(checkpoint_gen_file(gen.unwrap()))
}

fn newest_image(fs: &FaultFs) -> Vec<u8> {
    fs.read(&newest_path(fs)).unwrap()
}

/// A durable broker with 200 compiled profiles and an overlay of 16
/// subscriptions, 5 of them tombstoned in place, checkpointed — after
/// an explicit pack if `pack`. Returns the image and the live
/// subscriptions.
fn checkpoint_with_tombstones(
    schema: &Schema,
    fs: &FaultFs,
    pack: bool,
) -> (Vec<u8>, Vec<(SubscriptionId, Profile)>) {
    let broker = open(schema, fs).broker;
    let load = population(200, 29);
    let held = broker.subscribe_many(load.iter().cloned()).unwrap();
    let mut live: Vec<(SubscriptionId, Profile)> =
        held.iter().map(Subscriber::id).zip(load).collect();
    let plan = churn_burst_plan(29, 1, 32, CHURN).unwrap();
    for event in &plan.events {
        broker.publish(event).unwrap();
    }
    let mut churn = Vec::new();
    for op in &plan.ops {
        if let ChurnOp::Subscribe(p) = op {
            let sub = broker.subscribe_profile(p.clone()).unwrap();
            live.push((sub.id(), p.clone()));
            churn.push(sub);
        }
    }
    for sub in churn.iter().step_by(3) {
        broker.unsubscribe(sub.id()).unwrap();
        live.retain(|(id, _)| *id != sub.id());
    }
    assert_eq!(
        broker.metrics().overlay_packs,
        0,
        "5 tombstones beside 11 live"
    );
    if pack {
        broker.pack_overlays().unwrap();
        assert_eq!(broker.metrics().overlay_packs, 1);
    }
    assert!(broker.checkpoint().unwrap());
    assert_eq!(
        broker.metrics().overlay_packs,
        1,
        "the checkpoint packs once"
    );
    (newest_image(fs), live)
}

#[test]
fn a_checkpoint_with_overlay_tombstones_is_the_packed_image() {
    let schema = scenario::environmental_schema();
    let (fs, packed_fs) = (FaultFs::new(), FaultFs::new());
    let (image, live) = checkpoint_with_tombstones(&schema, &fs, false);
    let (packed, _) = checkpoint_with_tombstones(&schema, &packed_fs, true);
    assert_eq!(
        image, packed,
        "checkpoint image with tombstones vs after a pack"
    );

    // Reopened, the image serves the same live map, and writes itself
    // back byte for byte.
    let recovered = open(&schema, &fs);
    let ids: Vec<_> = recovered.subscribers.iter().map(Subscriber::id).collect();
    let mut want: Vec<_> = live.iter().map(|(id, _)| *id).collect();
    want.sort_unstable();
    assert_eq!(ids, want);
    let broker = recovered.broker;
    assert!(broker.checkpoint().unwrap());
    assert_eq!(
        newest_image(&fs),
        image,
        "a reopened image re-encodes unchanged"
    );
    for event in &churn_burst_plan(5, 1, 64, 0).unwrap().events {
        let receipt = broker.publish(event).unwrap();
        assert_eq!(receipt.matched, expected(&schema, &live, event));
    }

    // The image has no overlay tombstones by construction, and restore
    // refuses one that claims some rather than serving it.
    let mut cp = Checkpoint::from_bytes(&packed).unwrap();
    let shard = cp.shards.iter_mut().find(|s| !s.overlay.is_empty());
    shard.unwrap().overlay[0].tombstoned = true;
    let mut file = packed_fs.create(&newest_path(&packed_fs)).unwrap();
    file.append(&cp.to_bytes().unwrap()).unwrap();
    file.sync_data().unwrap();
    drop(file);
    assert!(matches!(
        try_open(&schema, &packed_fs),
        Err(ServiceError::Persist(_))
    ));
}
