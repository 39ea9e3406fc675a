//! A compiled shard keeps only what it serves from: a tree whose shape
//! reads no event model holds none and checkpoints none, while a shape
//! that reads one (event order, V1) still holds it, persists it and
//! gets it back through a retune replayed from the WAL.

use std::path::Path;
use std::sync::Arc;

use ens_filter::{Direction, FilterSnapshot, SearchStrategy, TreeConfig, ValueOrder};
use ens_service::persist::{
    checkpoint_gen_file, decode_wal, parse_checkpoint_gen, Checkpoint, WalRecord, WAL_FILE,
};
use ens_service::{Broker, BrokerConfig, DurabilityConfig, FaultFs, FsyncPolicy, Vfs};
use ens_types::{Domain, Event, Predicate, ProfileSet, Schema};
use ens_workloads::scenario::{stock_event_model, stock_profiles, stock_schema};
use ens_workloads::EventGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn durability(fs: &FaultFs) -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: 0,
        fsync: FsyncPolicy::Never,
        vfs: Arc::new(fs.clone()),
        ..DurabilityConfig::new("/db")
    }
}

/// The shard filters of the newest checkpoint generation on `fs`, and
/// the image's size.
fn checkpointed_filters(fs: &FaultFs) -> (Vec<FilterSnapshot>, usize) {
    let names = fs.list(Path::new("/db")).unwrap();
    let generation = names.iter().filter_map(|n| parse_checkpoint_gen(n)).max();
    let generation = generation.expect("a checkpoint was written");
    let image = fs
        .read(&Path::new("/db").join(checkpoint_gen_file(generation)))
        .unwrap();
    let checkpoint = Checkpoint::from_bytes(&image).unwrap();
    let filters = checkpoint.shards.iter();
    let filters = filters.map(|s| FilterSnapshot::from_bytes(&s.filter).unwrap());
    (filters.collect(), image.len())
}

/// Publishes `events` and returns what each matched.
fn receipts(broker: &Broker, events: &[Event]) -> Vec<Vec<u64>> {
    let ids = |e: &Event| {
        broker
            .publish(e)
            .unwrap()
            .matched
            .iter()
            .map(|s| s.get())
            .collect()
    };
    events.iter().map(ids).collect()
}

fn stock_events(schema: &Schema, n: usize, seed: u64) -> Vec<Event> {
    let generator = EventGenerator::new(schema, stock_event_model().unwrap()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| generator.sample(&mut rng)).collect()
}

/// A stock broker of 1000 subscriptions on two shards, at the default
/// shape: its checkpoint holds no event model (949,319 bytes when each
/// shard's tree kept the 334 kB model it does not read, and its
/// attribute partitions), and reopening it serves what it served.
#[test]
fn a_default_shape_checkpoint_holds_no_model() {
    let schema = stock_schema();
    let profiles = stock_profiles(1000, &mut StdRng::seed_from_u64(11)).unwrap();
    let config = BrokerConfig {
        shards: 2,
        ..BrokerConfig::default()
    };
    let events = stock_events(&schema, 512, 12);
    let fs = FaultFs::new();
    let before = {
        let r = Broker::open(&schema, config.clone(), durability(&fs)).unwrap();
        let _subs = r.broker.subscribe_many(profiles.iter().cloned()).unwrap();
        r.broker.checkpoint().unwrap();
        receipts(&r.broker, &events)
    };
    let (filters, bytes) = checkpointed_filters(&fs);
    assert_eq!(filters.len(), 2);
    for filter in &filters {
        assert_eq!(filter.tree().config().event_model, None);
    }
    assert!(bytes <= 200_000, "a {bytes}-byte checkpoint");
    let r = Broker::open(&schema, config, durability(&fs)).unwrap();
    assert_eq!(r.subscribers.len(), profiles.len());
    assert_eq!(receipts(&r.broker, &events), before);
    assert!(before.iter().any(|m| !m.is_empty()));
}

/// A shape that reads the event model holds it, in memory and in the
/// checkpoint, and a reopened broker holds it again.
#[test]
fn an_event_order_shard_holds_and_persists_its_model() {
    let schema = stock_schema();
    let profiles = stock_profiles(200, &mut StdRng::seed_from_u64(13)).unwrap();
    let config = BrokerConfig {
        tree: TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            ..TreeConfig::default()
        },
        ..BrokerConfig::default()
    };
    let events = stock_events(&schema, 256, 14);
    let fs = FaultFs::new();
    let before = {
        let r = Broker::open(&schema, config.clone(), durability(&fs)).unwrap();
        let _subs = r.broker.subscribe_many(profiles.iter().cloned()).unwrap();
        r.broker.checkpoint().unwrap();
        receipts(&r.broker, &events)
    };
    let (filters, _) = checkpointed_filters(&fs);
    let model = filters[0].tree().config().event_model.clone();
    assert!(model.is_some(), "the event order reads its model");
    let r = Broker::open(&schema, config, durability(&fs)).unwrap();
    assert_eq!(receipts(&r.broker, &events), before);
    r.broker.checkpoint().unwrap();
    let (filters, _) = checkpointed_filters(&fs);
    assert_eq!(filters[0].tree().config().event_model, model);
}

/// Eight bands of `x`; all but every tenth event fall in the top one.
fn top_band_stream() -> (Schema, ProfileSet, Vec<Event>) {
    let schema = Schema::builder()
        .attribute("x", Domain::int(0, 799))
        .unwrap()
        .build();
    let mut profiles = ProfileSet::new(&schema);
    for band in 0..8 {
        let pred = Predicate::between(band * 100, band * 100 + 49);
        profiles.insert_with(|b| b.predicate("x", pred)).unwrap();
    }
    let x = |i: i64| {
        if i % 10 == 0 {
            i * 13 % 800
        } else {
            700 + i % 50
        }
    };
    let event = |i| Event::builder(&schema).value("x", x(i)).unwrap().build();
    let events = (0..1000).map(event).collect();
    (schema, profiles, events)
}

/// A broker at the default shape, tuning on, that retunes onto a shape
/// reading the event model: the retune's WAL record carries the model
/// it was priced under, and a broker reopened from the log alone
/// compiles that shape and holds that model.
#[test]
fn a_retune_onto_an_event_order_round_trips_through_the_wal() {
    let (schema, profiles, events) = top_band_stream();
    let config = BrokerConfig {
        tuning: true,
        ..BrokerConfig::default()
    };
    let fs = FaultFs::new();
    {
        let r = Broker::open(&schema, config.clone(), durability(&fs)).unwrap();
        let _subs = r.broker.subscribe_many(profiles.iter().cloned()).unwrap();
        for event in &events {
            r.broker.publish(event).unwrap();
        }
        assert_eq!(r.broker.metrics().retunes, 1);
    }
    let wal = fs.read(&Path::new("/db").join(WAL_FILE)).unwrap();
    let mut retuned = decode_wal(&wal)
        .records
        .into_iter()
        .filter_map(|r| match r {
            WalRecord::Retune {
                search,
                attribute_order,
                event_model,
                ..
            } => Some((search, attribute_order, event_model)),
            _ => None,
        });
    let (Some((search, attribute_order, logged)), None) = (retuned.next(), retuned.next()) else {
        panic!("the accepted retune is logged, once");
    };
    let shape = TreeConfig {
        search,
        attribute_order,
        ..TreeConfig::default()
    };
    assert!(shape.uses_event_model(), "retuned onto {shape:?}");

    let r = Broker::open(&schema, config, durability(&fs)).unwrap();
    assert_eq!(r.subscribers.len(), profiles.len());
    r.broker.checkpoint().unwrap();
    let (filters, _) = checkpointed_filters(&fs);
    let tree = filters[0].tree();
    assert_eq!(tree.config().search, search);
    assert_eq!(tree.config().event_model.as_ref(), Some(&logged));
    for event in &events {
        let matched = r.broker.publish(event).unwrap().matched;
        let want = profiles.matches(event).unwrap();
        let want: Vec<u64> = want.iter().map(|p| p.index() as u64).collect();
        assert_eq!(matched.iter().map(|s| s.get()).collect::<Vec<_>>(), want);
    }
}
