//! The delivery yardstick: what one notification costs on the way into
//! a subscriber channel and on the way out of it, beside the same loop
//! with no channel at all.
//!
//! 1000 environmental subscriptions, about 90 notifications per event
//! through the real `Broker::publish_shared`, every subscriber drained
//! with `Subscriber::try_recv` after each 256 events — the shape of the
//! `fanout_env` workload of the `e2e` benchmark. Rows are nanoseconds
//! per notification, the median of the passes:
//!
//! - `send`: the whole `publish_shared` call (resolve, match, receipt
//!   and the channel sends; matching is about 5 ns of it),
//! - `receive`: the `try_recv` loops, empty polls included,
//! - `floor_send` / `floor_receive`: the same events to the same
//!   subscribers at the same cadence through one plain
//!   `VecDeque<(u64, Arc<Event>)>` per subscriber — the queue work and
//!   the `Arc` traffic that any channel pays, with no lock.
//!
//! `cargo bench -p ens-bench --bench delivery`; with `-- --smoke` one
//! short pass that only checks the counts (CI).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ens_bench::BenchWorkload;
use ens_service::{Broker, BrokerConfig, PublishReceipt, Subscriber};
use ens_types::Event;

const SUBSCRIBERS: usize = 1000;
const EVENTS: usize = 2048;
const DRAIN_EVERY: usize = 256;

/// Send and receive time of one pass over the events, and the
/// notifications sent and received.
#[derive(Default)]
struct Pass {
    send: Duration,
    receive: Duration,
    sent: usize,
    received: usize,
}

impl Pass {
    fn ns_per_notification(&self) -> (f64, f64) {
        (
            self.send.as_nanos() as f64 / self.sent as f64,
            self.receive.as_nanos() as f64 / self.received as f64,
        )
    }
}

/// One pass through the broker. `receipts`, when given, keeps every
/// event's receipt for the floor to replay.
fn broker_pass(
    broker: &Broker,
    subs: &[Subscriber],
    events: &[Arc<Event>],
    mut receipts: Option<&mut Vec<PublishReceipt>>,
) -> Pass {
    let mut pass = Pass::default();
    for block in events.chunks(DRAIN_EVERY) {
        let t0 = Instant::now();
        for event in block {
            let receipt = broker
                .publish_shared(Arc::clone(event))
                .expect("events are valid");
            pass.sent += receipt.matched.len();
            match receipts.as_deref_mut() {
                Some(receipts) => receipts.push(receipt),
                None => drop(black_box(receipt)),
            }
        }
        pass.send += t0.elapsed();
        let t0 = Instant::now();
        for sub in subs {
            while let Some(n) = sub.try_recv() {
                pass.received += 1;
                black_box(n);
            }
        }
        pass.receive += t0.elapsed();
    }
    pass
}

/// The same pass with a bare queue where the channel was.
fn floor_pass(
    queues: &mut [VecDeque<(u64, Arc<Event>)>],
    events: &[Arc<Event>],
    matched: &[Vec<u32>],
) -> Pass {
    let mut pass = Pass::default();
    let mut sequence = 0;
    for (block, rows) in events.chunks(DRAIN_EVERY).zip(matched.chunks(DRAIN_EVERY)) {
        let t0 = Instant::now();
        for (event, row) in block.iter().zip(rows) {
            for &sub in black_box(row) {
                queues[sub as usize].push_back((sequence, Arc::clone(event)));
            }
            pass.sent += row.len();
            sequence += 1;
        }
        pass.send += t0.elapsed();
        let t0 = Instant::now();
        for queue in queues.iter_mut() {
            while let Some(n) = queue.pop_front() {
                pass.received += 1;
                black_box(n);
            }
        }
        pass.receive += t0.elapsed();
    }
    pass
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn bench_delivery(c: &mut Criterion) {
    let smoke = std::env::args().any(|arg| arg == "--smoke");
    let passes = if smoke { 1 } else { 15 };
    c.benchmark_group("delivery").finish();

    let workload = BenchWorkload::environmental(SUBSCRIBERS, EVENTS);
    let events: Vec<Arc<Event>> = workload.events.into_iter().map(Arc::new).collect();
    let broker = Broker::new(&workload.schema, BrokerConfig::default()).expect("default config");
    let subs = broker
        .subscribe_many(workload.profiles.iter().cloned())
        .expect("scenario profiles are valid");

    // Warm-up: channel buffers, thread-local match scratch and the
    // drift detector's first recompiles of this population.
    for _ in 0..3 {
        broker_pass(&broker, &subs, &events, None);
    }
    let rebuilds = broker.rebuild_counts();
    let mut receipts = Vec::with_capacity(events.len());
    let recorded = broker_pass(&broker, &subs, &events, Some(&mut receipts));
    assert_eq!(
        recorded.sent, recorded.received,
        "a notification went missing"
    );
    // Each event's subscribers, as indices into `subs`.
    let index: HashMap<_, _> = subs.iter().zip(0u32..).map(|(s, i)| (s.id(), i)).collect();
    let matched: Vec<Vec<u32>> = receipts
        .iter()
        .map(|r| r.matched.iter().map(|id| index[id]).collect())
        .collect();
    let mut queues = vec![VecDeque::new(); subs.len()];
    floor_pass(&mut queues, &events, &matched);

    let (mut real, mut floor) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        let pass = broker_pass(&broker, &subs, &events, None);
        assert_eq!((pass.sent, pass.received), (recorded.sent, recorded.sent));
        real.push(pass.ns_per_notification());
        let pass = floor_pass(&mut queues, &events, &matched);
        assert_eq!((pass.sent, pass.received), (recorded.sent, recorded.sent));
        floor.push(pass.ns_per_notification());
    }
    assert_eq!(
        broker.rebuild_counts(),
        rebuilds,
        "a recompile is not steady state"
    );

    println!(
        "  {} channels, {:.1} notifications/event, drained every {DRAIN_EVERY} events, \
         median of {passes} passes",
        subs.len(),
        recorded.sent as f64 / events.len() as f64,
    );
    for (label, rows) in [("", real), ("floor_", floor)] {
        let (send, receive): (Vec<f64>, Vec<f64>) = rows.into_iter().unzip();
        println!(
            "  delivery/{label}send: {:.1} ns/notification",
            median(send)
        );
        println!(
            "  delivery/{label}receive: {:.1} ns/notification",
            median(receive)
        );
    }
}

criterion_group!(benches, bench_delivery);
criterion_main!(benches);
