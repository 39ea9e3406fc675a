//! The three systems a workload can run on — a broker, a durable
//! broker, a line of federated brokers — each with the closed-loop
//! driver that replays inputs against it and checks every output.
//!
//! One driver thread: a caller of `publish` waits for the receipt, and
//! subscribers are drained with `Subscriber::try_recv` by the same
//! thread inside the timed window (a subscriber pays that cost). Only
//! subscribers a receipt named are polled — a real consumer blocks on
//! its channel, it does not spin over 100 000 empty ones.
//!
//! Checking is two-step so that it stays O(1) per notification:
//! every receipt is compared with the oracle's expected set for that
//! event, and every subscriber must then receive exactly what the
//! receipts claimed for it — the right event, in strictly increasing
//! sequence order, nothing more and nothing less.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ens_service::federation::link::LinkConfig;
use ens_service::federation::sim::SimNet;
use ens_service::persist;
use ens_service::{
    Broker, DurabilityConfig, Federation, FederationConfig, FsyncPolicy, Notification,
    PublishReceipt, Subscriber, SubscriptionId, Vfs,
};
use ens_types::{Event, Profile, ProfileSet};

use crate::inputs::{Inputs, Oracle, BATCH, BURST};
use crate::memfs::MemFs;
use crate::net::{CountingTransport, WireCounters};
use crate::trace::{self, Probe};

/// Publishes between two drains never exceed this, so the event behind
/// a notification's sequence number is still in the ring.
const RING: usize = 4096;

/// Counters and samples a driver accumulates; reset between phases.
#[derive(Default)]
pub struct Tally {
    /// Publishes + subscribes + unsubscribes issued.
    pub attempted: u64,
    /// Calls that returned `Err`, events whose notifications differ
    /// from the oracle, and overflow/duplicate/gap drops.
    pub failed: u64,
    /// Events published.
    pub events: u64,
    /// Events whose publish returned `Ok` with the expected receipt.
    pub events_ok: u64,
    /// Notifications subscribers received.
    pub notifications: u64,
    /// One sample per publish call (an event, a batch, or a federated
    /// batch until its last remote delivery).
    pub publish_ns: Vec<u32>,
    pub subscribe_ns: Vec<u32>,
    pub unsubscribe_ns: Vec<u32>,
    /// Time spent in `try_recv` loops.
    pub drain_ns: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, count: u64, note: impl FnOnce() -> String) {
        self.failed += count;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    pub fn reset(&mut self) {
        *self = Tally::default();
    }
}

fn ns32(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// One subscriber and what it should have received so far.
struct Inbox {
    sub: Subscriber,
    last_seq: Option<u64>,
    received: u64,
    claimed: u64,
    dirty: bool,
}

impl Inbox {
    fn new(sub: Subscriber) -> Self {
        Inbox {
            sub,
            last_seq: None,
            received: 0,
            claimed: 0,
            dirty: false,
        }
    }

    /// Accepts `n` if it is this subscriber's, newer than everything
    /// before it, and carries the event published under its sequence.
    fn accept(&mut self, n: &Notification, published: &Arc<Event>, tally: &mut Tally) {
        self.received += 1;
        tally.notifications += 1;
        let in_order = self.last_seq.is_none_or(|last| n.sequence > last);
        if n.subscription != self.sub.id() || !in_order || !Arc::ptr_eq(&n.event, published) {
            tally.fail(1, || {
                format!(
                    "subscriber {} got a foreign, duplicate or reordered notification (seq {})",
                    self.sub.id(),
                    n.sequence
                )
            });
        }
        self.last_seq = Some(n.sequence);
    }
}

/// The population's subscribers plus the bookkeeping that ties
/// receipts, sequence numbers and received notifications together.
struct Rig {
    inboxes: Vec<Inbox>,
    dirty: Vec<u32>,
    /// Event index published under each recent sequence number.
    ring: Vec<u32>,
    next_seq: u64,
}

impl Rig {
    fn new(subs: Vec<Subscriber>, next_seq: u64) -> Result<Self, String> {
        for (i, s) in subs.iter().enumerate() {
            if s.id().get() != i as u64 {
                return Err(format!("subscription {i} was given id {}", s.id()));
            }
        }
        Ok(Rig {
            inboxes: subs.into_iter().map(Inbox::new).collect(),
            dirty: Vec::new(),
            ring: vec![0; RING],
            next_seq,
        })
    }

    /// Books one receipt: checks its sequence and its population part
    /// against `expected`, marks the named subscribers for draining,
    /// and returns whether that part was right plus the ids beyond the
    /// population (churn subscriptions).
    fn claim<'r>(
        &mut self,
        receipt: &'r PublishReceipt,
        e: usize,
        expected: Option<&[u32]>,
        tally: &mut Tally,
    ) -> (bool, &'r [SubscriptionId]) {
        let mut ok = receipt.sequence == self.next_seq;
        self.ring[(receipt.sequence % RING as u64) as usize] = e as u32;
        self.next_seq = receipt.sequence + 1;
        let n = self.inboxes.len() as u64;
        let split = receipt.matched.partition_point(|id| id.get() < n);
        let (own, beyond) = receipt.matched.split_at(split);
        if let Some(expected) = expected {
            ok &= own.len() == expected.len()
                && own
                    .iter()
                    .zip(expected)
                    .all(|(id, want)| id.get() == u64::from(*want));
        }
        for id in own {
            let inbox = &mut self.inboxes[id.get() as usize];
            inbox.claimed += 1;
            if !inbox.dirty {
                inbox.dirty = true;
                self.dirty.push(id.get() as u32);
            }
        }
        if !ok {
            tally.fail(1, || {
                format!(
                    "event {e} (seq {}): receipt names {} subscribers, oracle {:?}",
                    receipt.sequence,
                    own.len(),
                    expected.map(<[u32]>::len)
                )
            });
        }
        (ok, beyond)
    }

    /// Drains every subscriber a receipt named since the last drain.
    fn drain(&mut self, events: &[Arc<Event>], tally: &mut Tally) {
        for idx in self.dirty.drain(..) {
            let inbox = &mut self.inboxes[idx as usize];
            inbox.dirty = false;
            while let Some(n) = inbox.sub.try_recv() {
                let e = self.ring[(n.sequence % RING as u64) as usize];
                inbox.accept(&n, &events[e as usize], tally);
            }
        }
    }

    /// Every subscriber must have received exactly what was claimed.
    fn settle(&mut self, events: &[Arc<Event>], tally: &mut Tally) {
        self.drain(events, tally);
        for inbox in &self.inboxes {
            if inbox.received != inbox.claimed || inbox.sub.pending() != 0 {
                tally.fail(inbox.received.abs_diff(inbox.claimed).max(1), || {
                    format!(
                        "subscriber {} received {} of {} notifications",
                        inbox.sub.id(),
                        inbox.received,
                        inbox.claimed
                    )
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Broker: publish_shared one event at a time, or publish_batch.
// ---------------------------------------------------------------------

pub struct BrokerDriver<'a> {
    inputs: &'a Inputs,
    pub broker: Broker,
    rig: Rig,
    cursor: usize,
    op: u32,
    pub tally: Tally,
}

impl<'a> BrokerDriver<'a> {
    /// `Broker::new` + `subscribe_many` (one compile per shard).
    /// `profiles` is the population, cloned by the caller beforehand.
    pub fn setup(
        inputs: &'a Inputs,
        profiles: Vec<Profile>,
        probe: &mut Probe<'_>,
    ) -> Result<Self, String> {
        let (built, _) = probe.time(trace::BROKER_SETUP, 0, || {
            let broker = Broker::new(&inputs.schema, inputs.config.clone())?;
            let subs = broker.subscribe_many(profiles)?;
            Ok::<_, ens_service::ServiceError>((broker, subs))
        });
        let (broker, subs) = built.map_err(|e| e.to_string())?;
        Ok(BrokerDriver {
            inputs,
            broker,
            rig: Rig::new(subs, 0)?,
            cursor: 0,
            op: 0,
            tally: Tally::default(),
        })
    }

    fn book(&mut self, receipt: &PublishReceipt, e: usize) {
        let expected = self.inputs.oracle.expected(e);
        let (ok, beyond) = self.rig.claim(receipt, e, expected, &mut self.tally);
        if ok && beyond.is_empty() {
            self.tally.events_ok += 1;
        } else if ok {
            self.tally.fail(1, || {
                format!("event {e}: receipt names unknown subscribers")
            });
        }
    }

    fn drain(&mut self, probe: &mut Probe<'_>) {
        let (events, rig, tally) = (&self.inputs.events, &mut self.rig, &mut self.tally);
        let ((), ns) = probe.time(trace::NOTIFY_DRAIN, self.op, || rig.drain(events, tally));
        self.tally.drain_ns += ns;
    }

    /// Publishes the next `count` events one at a time, draining every
    /// [`BATCH`] events. One op (and one root span) per chunk.
    pub fn pass_per_event(&mut self, probe: &mut Probe<'_>, count: usize) {
        let n = self.inputs.events.len();
        for _ in 0..count / BATCH {
            self.op += 1;
            probe.enter(trace::DRIVER_OP, self.op);
            for _ in 0..BATCH {
                let e = self.cursor;
                self.cursor = (e + 1) % n;
                let event = Arc::clone(&self.inputs.events[e]);
                let (receipt, ns) = probe.time(trace::BROKER_PUBLISH, self.op, || {
                    self.broker.publish_shared(event)
                });
                self.tally.publish_ns.push(ns32(ns));
                self.tally.attempted += 1;
                self.tally.events += 1;
                match receipt {
                    Ok(receipt) => self.book(&receipt, e),
                    Err(err) => self.tally.fail(1, || format!("publish failed: {err}")),
                }
            }
            self.drain(probe);
            probe.exit();
        }
    }

    /// Publishes the next `count` events in [`BATCH`]-event batches,
    /// draining after each. One op per batch.
    pub fn pass_batch(&mut self, probe: &mut Probe<'_>, count: usize) {
        let inputs = self.inputs;
        let n = inputs.events.len();
        for _ in 0..count / BATCH {
            self.op += 1;
            probe.enter(trace::DRIVER_OP, self.op);
            let first = self.cursor;
            self.cursor = (first + BATCH) % n;
            let batch = &inputs.events[first..first + BATCH];
            let (receipts, ns) = probe.time(trace::BROKER_PUBLISH_BATCH, self.op, || {
                self.broker.publish_batch(batch)
            });
            self.tally.publish_ns.push(ns32(ns));
            self.tally.attempted += BATCH as u64;
            self.tally.events += BATCH as u64;
            match receipts {
                Ok(receipts) => {
                    for (i, receipt) in receipts.iter().enumerate() {
                        self.book(receipt, first + i);
                    }
                }
                Err(err) => self
                    .tally
                    .fail(BATCH as u64, || format!("publish_batch failed: {err}")),
            }
            self.drain(probe);
            probe.exit();
        }
    }

    /// Final reconciliation of receipts and received notifications,
    /// plus the drops the broker itself counted.
    pub fn finish(&mut self) {
        self.rig.settle(&self.inputs.events, &mut self.tally);
        let m = self.broker.metrics();
        let dropped = m.dropped_notifications + m.overflow_dropped + m.shard_panics;
        if dropped > 0 || self.broker.subscription_count() != self.rig.inboxes.len() {
            self.tally.fail(dropped.max(1), || {
                format!("broker dropped {dropped} notifications or lost subscriptions")
            });
        }
    }

    pub fn live_subscriptions(&self) -> usize {
        self.rig.inboxes.len()
    }
}

// ---------------------------------------------------------------------
// Durable broker: churn rounds, checkpoint, reload.
// ---------------------------------------------------------------------

/// A churn subscription between its subscribe and its unsubscribe.
struct ChurnSub {
    inbox: Inbox,
    /// Which events of the round's burst it matches.
    mask: u64,
}

/// What the durability layer did, measured from outside it.
#[derive(Default)]
pub struct DurableStats {
    pub checkpoint_ns: u64,
    pub checkpoint_bytes: u64,
    pub open_ns: Vec<u64>,
    /// `Broker::open` on the final image through the first probe
    /// publish.
    pub recover_ns: Vec<u64>,
    /// The final checkpoint image and a WAL of the run's own
    /// subscribe records, for the codec replays.
    pub checkpoint_image: Vec<u8>,
}

pub struct DurableDriver<'a> {
    inputs: &'a Inputs,
    base: &'a ProfileSet,
    oracle: &'a Oracle,
    fs: MemFs,
    dir: PathBuf,
    broker: Option<Broker>,
    rig: Rig,
    live: Vec<ChurnSub>,
    round: usize,
    op: u32,
    churn_ops: u64,
    appended_at_reset: u64,
    compactions_at_reset: u64,
    pub tally: Tally,
    pub stats: DurableStats,
}

impl<'a> DurableDriver<'a> {
    fn durability(fs: &MemFs, dir: &Path) -> DurabilityConfig {
        DurabilityConfig {
            fsync: FsyncPolicy::Always,
            vfs: Arc::new(fs.clone()),
            ..DurabilityConfig::new(dir)
        }
    }

    /// `Broker::open` on empty storage + `subscribe_many` of `base`
    /// (the population or, in a layer replay, a prefix of it), whose
    /// profiles the caller cloned into `profiles` beforehand. `oracle`
    /// is `base`'s.
    pub fn setup(
        inputs: &'a Inputs,
        base: &'a ProfileSet,
        oracle: &'a Oracle,
        profiles: Vec<Profile>,
        probe: &mut Probe<'_>,
    ) -> Result<Self, String> {
        let fs = MemFs::new();
        let dir = PathBuf::from("/ens-e2e");
        let (built, _) = probe.time(trace::BROKER_SETUP, 0, || {
            let opened = Broker::open(
                &inputs.schema,
                inputs.config.clone(),
                Self::durability(&fs, &dir),
            )?;
            let subs = opened.broker.subscribe_many(profiles)?;
            Ok::<_, ens_service::ServiceError>((opened.broker, subs))
        });
        let (broker, subs) = built.map_err(|e| e.to_string())?;
        Ok(DurableDriver {
            inputs,
            base,
            oracle,
            fs,
            dir,
            broker: Some(broker),
            rig: Rig::new(subs, 0)?,
            live: Vec::new(),
            round: 0,
            op: 0,
            churn_ops: 0,
            appended_at_reset: 0,
            compactions_at_reset: 0,
            tally: Tally::default(),
            stats: DurableStats::default(),
        })
    }

    fn broker(&self) -> &Broker {
        self.broker.as_ref().expect("broker is live until finish")
    }

    /// Starts a new measurement phase.
    pub fn reset(&mut self) {
        self.tally.reset();
        self.churn_ops = 0;
        self.appended_at_reset = self.fs.appended_bytes();
        self.compactions_at_reset = self.broker().rebuild_counts().1;
    }

    /// WAL (and checkpoint) bytes appended per subscribe/unsubscribe.
    pub fn wal_bytes_per_op(&self) -> f64 {
        (self.fs.appended_bytes() - self.appended_at_reset) as f64 / self.churn_ops.max(1) as f64
    }

    pub fn compactions(&self) -> u64 {
        self.broker().rebuild_counts().1 - self.compactions_at_reset
    }

    fn subscribe(&mut self, profile: Profile, mask: u64, probe: &mut Probe<'_>) {
        let (sub, ns) = probe.time(trace::BROKER_SUBSCRIBE, self.op, || {
            self.broker().subscribe_profile(profile)
        });
        self.tally.attempted += 1;
        self.churn_ops += 1;
        match sub {
            Ok(sub) => {
                self.tally.subscribe_ns.push(ns32(ns));
                self.live.push(ChurnSub {
                    inbox: Inbox::new(sub),
                    mask,
                });
            }
            Err(err) => self.tally.fail(1, || format!("subscribe failed: {err}")),
        }
    }

    /// Replays the rounds whose bursts cover the next `count` events:
    /// subscribe, publish the burst against the non-empty overlay,
    /// drain, unsubscribe. One op per round.
    pub fn pass(&mut self, probe: &mut Probe<'_>, count: usize) {
        let inputs = self.inputs;
        for _ in 0..count / BURST {
            let round = &inputs.rounds[self.round];
            self.round = (self.round + 1) % inputs.rounds.len();
            self.op += 1;
            probe.enter(trace::DRIVER_OP, self.op);

            for (profile, mask) in round.subscribe.iter().zip(&round.masks) {
                self.subscribe(profile.clone(), *mask, probe);
            }

            let burst_seq = self.rig.next_seq;
            for (b, e) in round.burst.clone().enumerate() {
                let event = Arc::clone(&inputs.events[e]);
                let (receipt, ns) = probe.time(trace::BROKER_PUBLISH, self.op, || {
                    self.broker().publish_shared(event)
                });
                self.tally.publish_ns.push(ns32(ns));
                self.tally.attempted += 1;
                self.tally.events += 1;
                let receipt = match receipt {
                    Ok(receipt) => receipt,
                    Err(err) => {
                        self.tally.fail(1, || format!("publish failed: {err}"));
                        continue;
                    }
                };
                let (ok, churn) =
                    self.rig
                        .claim(&receipt, e, self.oracle.expected(e), &mut self.tally);
                let mut want = self.live.iter_mut().filter(|c| c.mask >> b & 1 == 1);
                let churn_ok = churn.iter().all(|id| {
                    want.next().is_some_and(|c| {
                        c.inbox.claimed += 1;
                        c.inbox.sub.id() == *id
                    })
                }) && want.next().is_none();
                if ok && churn_ok {
                    self.tally.events_ok += 1;
                } else if ok {
                    self.tally.fail(1, || {
                        format!(
                            "event {e}: churn subscribers in the receipt differ from the oracle"
                        )
                    });
                }
            }

            let (events, rig, live, tally) = (
                &inputs.events,
                &mut self.rig,
                &mut self.live,
                &mut self.tally,
            );
            let ((), ns) = probe.time(trace::NOTIFY_DRAIN, self.op, || {
                rig.drain(events, tally);
                for c in live.iter_mut() {
                    while let Some(n) = c.inbox.sub.try_recv() {
                        let b = n.sequence.wrapping_sub(burst_seq);
                        let e = rig.ring[(n.sequence % RING as u64) as usize];
                        if b >= BURST as u64 || c.mask >> b & 1 == 0 {
                            tally.fail(1, || {
                                format!(
                                    "churn subscriber {} got seq {}",
                                    c.inbox.sub.id(),
                                    n.sequence
                                )
                            });
                        }
                        c.inbox.accept(&n, &events[e as usize], tally);
                    }
                }
            });
            self.tally.drain_ns += ns;

            for k in &round.unsubscribe {
                if *k >= self.live.len() {
                    self.tally.fail(1, || {
                        format!("unsubscribe {k}: subscription was never acked")
                    });
                    continue;
                }
                let c = self.live.remove(*k);
                if c.inbox.received != c.inbox.claimed {
                    self.tally.fail(1, || {
                        format!(
                            "churn subscriber {} received {} of {}",
                            c.inbox.sub.id(),
                            c.inbox.received,
                            c.inbox.claimed
                        )
                    });
                }
                let (done, ns) = probe.time(trace::BROKER_UNSUBSCRIBE, self.op, || {
                    self.broker().unsubscribe(c.inbox.sub.id())
                });
                self.tally.attempted += 1;
                self.churn_ops += 1;
                match done {
                    Ok(()) => self.tally.unsubscribe_ns.push(ns32(ns)),
                    Err(err) => self.tally.fail(1, || format!("unsubscribe failed: {err}")),
                }
            }
            probe.exit();
        }
    }

    /// Reconciles the window, then ends the run the way a process
    /// would: a few subscriptions live in the overlay, `checkpoint()`,
    /// a few more acked into the WAL behind it, crash — and five
    /// `Broker::open`s of that same image, each checked against the
    /// pre-crash live map and a probe battery.
    pub fn finish(&mut self, probe: &mut Probe<'_>) {
        let inputs = self.inputs;
        self.rig.settle(&inputs.events, &mut self.tally);
        if self.broker().metrics().durability_degraded {
            self.tally.fail(1, || "durability degraded".to_string());
        }

        self.op += 1;
        let round = &inputs.rounds[0];
        for profile in &round.subscribe {
            self.subscribe(profile.clone(), 0, probe);
        }
        let (done, ns) = probe.time(trace::DURABILITY_CHECKPOINT, self.op, || {
            self.broker().checkpoint()
        });
        self.stats.checkpoint_ns = ns;
        if !matches!(done, Ok(true)) {
            self.tally.fail(1, || format!("checkpoint: {done:?}"));
        }
        let newest = self
            .fs
            .list(&self.dir)
            .unwrap_or_default()
            .into_iter()
            .filter_map(|name| persist::parse_checkpoint_gen(&name).map(|g| (g, name)))
            .max();
        if let Some((_, name)) = newest {
            self.stats.checkpoint_image = self.fs.read(&self.dir.join(name)).unwrap_or_default();
            self.stats.checkpoint_bytes = self.stats.checkpoint_image.len() as u64;
        }
        for profile in &round.subscribe[..round.subscribe.len() / 2] {
            self.subscribe(profile.clone(), 0, probe);
        }

        // The pre-crash live map and what the probe events must match.
        let mut live: Vec<(u64, &Profile)> = self
            .base
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64, p))
            .collect();
        let tail = round.subscribe.iter().chain(&round.subscribe);
        live.extend(
            self.live
                .iter()
                .zip(tail)
                .map(|(c, p)| (c.inbox.sub.id().get(), p)),
        );
        let probes = &inputs.events[..BURST];
        let expected: Vec<Vec<u64>> = probes
            .iter()
            .map(|event| {
                live.iter()
                    .filter(|(_, p)| p.matches(&inputs.schema, event).unwrap_or(false))
                    .map(|(id, _)| *id)
                    .collect()
            })
            .collect();

        // Crash: the process state goes, the storage stays.
        self.live.clear();
        self.broker = None;
        for _ in 0..5 {
            let image = self.fs.image();
            let config = Self::durability(&image, &self.dir);
            probe.enter(trace::DRIVER_OP, self.op);
            let t0 = std::time::Instant::now();
            let (opened, open_ns) = probe.time(trace::DURABILITY_OPEN, self.op, || {
                Broker::open(&inputs.schema, inputs.config.clone(), config)
            });
            let recovered = match opened {
                Ok(recovered) => recovered,
                Err(err) => {
                    probe.exit();
                    self.tally.fail(1, || format!("recovery failed: {err}"));
                    continue;
                }
            };
            let first = recovered.broker.publish_shared(Arc::clone(&probes[0]));
            self.stats.recover_ns.push(t0.elapsed().as_nanos() as u64);
            self.stats.open_ns.push(open_ns);
            probe.exit();

            let ids: Vec<u64> = recovered.subscribers.iter().map(|s| s.id().get()).collect();
            let mut ok = ids.iter().eq(live.iter().map(|(id, _)| id));
            let mut receipts = vec![first];
            receipts.extend(
                probes[1..]
                    .iter()
                    .map(|event| recovered.broker.publish_shared(Arc::clone(event))),
            );
            let mut owed: HashMap<u64, u64> = HashMap::new();
            for (receipt, want) in receipts.iter().zip(&expected) {
                match receipt {
                    Ok(r) => {
                        ok &= r.matched.iter().map(|id| id.get()).eq(want.iter().copied());
                        for id in &r.matched {
                            *owed.entry(id.get()).or_default() += 1;
                        }
                    }
                    Err(_) => ok = false,
                }
            }
            for sub in &recovered.subscribers {
                ok &= sub.drain().len() as u64 == owed.get(&sub.id().get()).copied().unwrap_or(0);
            }
            self.tally.attempted += 1;
            if !ok {
                self.tally.fail(1, || {
                    "recovered broker differs from the pre-crash live map".to_string()
                });
            }
        }
    }

    pub fn live_subscriptions(&self) -> usize {
        self.rig.inboxes.len()
    }
}

// ---------------------------------------------------------------------
// Federation: A -- B -- C over SimNet.
// ---------------------------------------------------------------------

const ORIGIN: u64 = 1;
/// A federated batch that is not delivered after this many pump rounds
/// counts as failed instead of hanging the run.
const PUMP_LIMIT: u64 = 2000;

/// One receiving broker (B or C) and its subscribers.
struct Edge {
    inboxes: Vec<Inbox>,
    /// Event index behind each recent *local* sequence number.
    ring: Vec<u32>,
    rows: u64,
    last_origin_seq: u64,
    owed: u64,
    received: u64,
}

/// What the federation layer did, measured from outside it.
#[derive(Default)]
pub struct FedStats {
    pub publish_ns: u64,
    /// Time in `pump`, per node (origin, transit, edge).
    pub pump_ns: [u64; 3],
    pub pump_rounds: u64,
    pub batches: u64,
}

pub struct FedDriver<'a> {
    inputs: &'a Inputs,
    oracle: &'a Oracle,
    net: SimNet,
    nodes: [Federation; 3],
    edges: [Edge; 2],
    wire: Arc<WireCounters>,
    /// Event index behind each recent origin sequence number.
    sent: Vec<u32>,
    published: u64,
    now_ms: u64,
    cursor: usize,
    op: u32,
    wire_at_reset: u64,
    forwarded_at_reset: u64,
    pub tally: Tally,
    pub stats: FedStats,
}

impl<'a> FedDriver<'a> {
    /// Three brokers, links over `SimNet` (no faults), one copy of the
    /// population in `profiles` subscribed at B and one at C, pumped
    /// until interest has reached A. `oracle` is the population's.
    pub fn setup(
        inputs: &'a Inputs,
        oracle: &'a Oracle,
        profiles: [Vec<Profile>; 2],
        probe: &mut Probe<'_>,
    ) -> Result<Self, String> {
        let topology = ens_workloads::line_topology(3);
        let net = SimNet::new(inputs.seed);
        let wire = Arc::new(WireCounters::default());
        let (built, _) = probe.time(trace::BROKER_SETUP, 0, || {
            let mut nodes = Vec::new();
            for &node in &topology.nodes {
                let broker = Arc::new(Broker::new(&inputs.schema, inputs.config.clone())?);
                let fed = Federation::new(
                    broker,
                    FederationConfig {
                        node,
                        max_hops: 2,
                        link: LinkConfig::default(),
                        ..FederationConfig::default()
                    },
                );
                for peer in topology.neighbors(node) {
                    let transport =
                        CountingTransport::new(net.transport(node, peer), Arc::clone(&wire));
                    fed.add_peer(peer, Box::new(transport), 0);
                }
                nodes.push(fed);
            }
            let mut subs = Vec::new();
            for (fed, profiles) in nodes[1..].iter().zip(profiles) {
                let mut own = Vec::with_capacity(profiles.len());
                for profile in profiles {
                    own.push(fed.subscribe_profile(profile)?);
                }
                subs.push(own);
            }
            Ok::<_, ens_service::ServiceError>((nodes, subs))
        });
        let (nodes, subs) = built.map_err(|e| e.to_string())?;
        let nodes: [Federation; 3] = nodes
            .try_into()
            .map_err(|_| "line_topology(3) has three nodes".to_string())?;
        let edges: Vec<Edge> = subs
            .into_iter()
            .map(|own| Edge {
                inboxes: own.into_iter().map(Inbox::new).collect(),
                ring: vec![0; RING],
                rows: 0,
                last_origin_seq: 0,
                owed: 0,
                received: 0,
            })
            .collect();
        let mut driver = FedDriver {
            inputs,
            oracle,
            net,
            nodes,
            edges: edges
                .try_into()
                .map_err(|_| "two receiving brokers".to_string())?,
            wire,
            sent: vec![0; RING],
            published: 0,
            now_ms: 0,
            cursor: 0,
            op: 0,
            wire_at_reset: 0,
            forwarded_at_reset: 0,
            tally: Tally::default(),
            stats: FedStats::default(),
        };
        // Links up and interest relayed C -> B -> A, then quiet.
        let mut quiet = 0;
        for _ in 0..PUMP_LIMIT {
            driver.pump_round(&mut Probe::Off)?;
            let [a, b, c] = &driver.nodes;
            let settled = a.interested_peers() == 1
                && b.interested_peers() >= 1
                && a.backlog() + b.backlog() + c.backlog() == 0;
            quiet = if settled { quiet + 1 } else { 0 };
            if quiet == 20 {
                return Ok(driver);
            }
        }
        Err("federation never settled: links or interest did not come up".into())
    }

    /// Pumps A, B and C once and books what B and C delivered.
    fn pump_round(&mut self, probe: &mut Probe<'_>) -> Result<(), String> {
        const SPANS: [trace::NameId; 3] = [
            trace::FED_PUMP_ORIGIN,
            trace::FED_PUMP_TRANSIT,
            trace::FED_PUMP_EDGE,
        ];
        self.now_ms += 1;
        self.net.advance(1);
        self.stats.pump_rounds += 1;
        for (k, node) in self.nodes.iter().enumerate() {
            let (report, ns) = probe.time(SPANS[k], self.op, || node.pump(self.now_ms));
            self.stats.pump_ns[k] += ns;
            let report = report.map_err(|e| e.to_string())?;
            let Some(edge) = k.checked_sub(1).map(|i| &mut self.edges[i]) else {
                continue;
            };
            for d in &report.delivered {
                // Exactly once and in the origin's publish order.
                if d.origin != ORIGIN || d.origin_seq <= edge.last_origin_seq {
                    self.tally.fail(1, || {
                        format!(
                            "node {}: row {} from {} out of order",
                            k + 1,
                            d.origin_seq,
                            d.origin
                        )
                    });
                }
                edge.last_origin_seq = d.origin_seq;
                let e = self.sent[(d.origin_seq % RING as u64) as usize];
                edge.ring[(edge.rows % RING as u64) as usize] = e;
                edge.rows += 1;
                edge.owed += self.oracle.expected(e as usize).map_or(0, <[u32]>::len) as u64;
            }
        }
        Ok(())
    }

    fn drain(&mut self) {
        for edge in &mut self.edges {
            for (s, inbox) in edge.inboxes.iter_mut().enumerate() {
                while let Some(n) = inbox.sub.try_recv() {
                    let e = edge.ring[(n.sequence % RING as u64) as usize] as usize;
                    let wanted = self
                        .oracle
                        .expected(e)
                        .is_some_and(|m| m.binary_search(&(s as u32)).is_ok());
                    let in_order = inbox.last_seq.is_none_or(|last| n.sequence > last);
                    if !wanted || !in_order || *n.event != *self.inputs.events[e] {
                        self.tally.fail(1, || {
                            format!("remote subscriber {s} got an unexpected notification")
                        });
                    }
                    inbox.last_seq = Some(n.sequence);
                    edge.received += 1;
                    self.tally.notifications += 1;
                }
            }
        }
    }

    pub fn reset(&mut self) {
        self.tally.reset();
        self.stats = FedStats::default();
        self.wire_at_reset = self.wire.sent_bytes();
        self.forwarded_at_reset = self.forwarded_rows();
    }

    fn forwarded_rows(&self) -> u64 {
        self.nodes.iter().map(|n| n.metrics().forwarded_rows).sum()
    }

    pub fn wire_bytes(&self) -> u64 {
        self.wire.sent_bytes() - self.wire_at_reset
    }

    pub fn forwarded(&self) -> u64 {
        self.forwarded_rows() - self.forwarded_at_reset
    }

    pub fn retransmits(&self) -> u64 {
        self.nodes.iter().map(|n| n.metrics().retransmits).sum()
    }

    /// Publishes the next `count` events at A in [`BURST`]-event
    /// batches, one in flight: each is pumped until B and C have
    /// delivered every row the oracle says they must. One op per batch.
    pub fn pass(&mut self, probe: &mut Probe<'_>, count: usize) {
        let inputs = self.inputs;
        let n = inputs.events.len();
        for _ in 0..count / BURST {
            self.op += 1;
            self.stats.batches += 1;
            probe.enter(trace::DRIVER_OP, self.op);
            let first = self.cursor;
            self.cursor = (first + BURST) % n;
            let batch = &inputs.events[first..first + BURST];
            let mut due = 0;
            for (i, _) in batch.iter().enumerate() {
                self.published += 1;
                self.sent[(self.published % RING as u64) as usize] = (first + i) as u32;
                due += u64::from(
                    self.oracle
                        .expected(first + i)
                        .is_some_and(|m| !m.is_empty()),
                );
            }
            let targets = [self.edges[0].rows + due, self.edges[1].rows + due];

            let t0 = std::time::Instant::now();
            let (receipts, ns) = probe.time(trace::FED_PUBLISH_BATCH, self.op, || {
                self.nodes[0].publish_batch(batch)
            });
            self.stats.publish_ns += ns;
            self.tally.attempted += BURST as u64;
            self.tally.events += BURST as u64;
            let mut ok = receipts.is_ok();
            let mut rounds = 0;
            while ok && (self.edges[0].rows < targets[0] || self.edges[1].rows < targets[1]) {
                rounds += 1;
                if let Err(err) = self.pump_round(probe) {
                    self.tally.fail(1, || format!("pump failed: {err}"));
                    ok = false;
                }
                ok &= rounds < PUMP_LIMIT;
            }
            self.tally
                .publish_ns
                .push(ns32(t0.elapsed().as_nanos() as u64));
            ok &= self.edges[0].rows == targets[0] && self.edges[1].rows == targets[1];
            if ok {
                self.tally.events_ok += BURST as u64;
            } else {
                self.tally.fail(BURST as u64, || {
                    format!("batch at event {first} was not delivered exactly once")
                });
            }
            let t0 = std::time::Instant::now();
            self.drain();
            self.tally.drain_ns += t0.elapsed().as_nanos() as u64;
            probe.exit();
        }
    }

    /// Every subscriber at B and C received exactly the notifications
    /// its delivered rows owe it, and no link dropped, duplicated or
    /// resent anything.
    pub fn finish(&mut self) {
        self.drain();
        for (k, edge) in self.edges.iter().enumerate() {
            if edge.received != edge.owed {
                self.tally.fail(edge.received.abs_diff(edge.owed), || {
                    format!(
                        "node {}: {} of {} notifications",
                        k + 2,
                        edge.received,
                        edge.owed
                    )
                });
            }
        }
        let lost: u64 = self
            .nodes
            .iter()
            .map(|n| {
                let m = n.metrics();
                m.retransmits
                    + m.overflow_dropped
                    + m.duplicates
                    + m.gap_drops
                    + m.origin_duplicates
                    + m.rejected_rows
                    + m.publish_failures
                    + m.unencodable
            })
            .sum();
        if lost > 0 {
            self.tally.fail(lost, || {
                format!("links resent, dropped or duplicated {lost} messages")
            });
        }
    }

    pub fn live_subscriptions(&self) -> usize {
        self.edges.iter().map(|e| e.inboxes.len()).sum()
    }
}
