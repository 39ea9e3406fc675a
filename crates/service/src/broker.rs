//! The notification broker: subscriptions in, events in, notifications
//! out — with the adaptive distribution-based filter in the middle.
//!
//! # Concurrency model
//!
//! The broker is built for many concurrent producers (paper §5: GENAS
//! serves "a huge number of profiles" and an event stream to match):
//!
//! * **Snapshot-swap read path** — each shard compiles its subscription
//!   set into an immutable [`FilterSnapshot`] plus a dispatch table,
//!   shared behind an `Arc`. `publish` clones the handle (one brief,
//!   uncontended read-lock acquisition), then matches **lock-free**
//!   against the snapshot using thread-local scratch buffers; after
//!   warm-up the matching step performs no heap allocation.
//! * **Incremental subscription deltas** — `subscribe` appends the new
//!   profile to a small overlay and `unsubscribe` tombstones it where it
//!   is; either change touches only its own entry (a covered subscribe
//!   joins the expansion map, an uncovered one rebuilds the counting
//!   index over the uncovered entries, independent of the total
//!   subscription count), and the overlay is packed once its tombstones
//!   reach its live entries. The expensive tree rebuild runs only when
//!   the [`RebuildPolicy`] thresholds or its adaptive drift trigger
//!   fire.
//!   The writer side is the `shard` module: whatever changes a shard
//!   is an operation there, staged against the writer's entries,
//!   committed and swapped in by one routine. This module picks the
//!   shard, calls the operation and writes the WAL record.
//! * **Sharded dispatch** — subscriptions are partitioned across
//!   [`BrokerConfig::shards`] shards, each with its own snapshot,
//!   writer lock and drift statistics, so churn and rebuilds on one
//!   shard never stall the others. [`Broker::publish_batch`] walks a
//!   batch through the shards one after the other on the calling
//!   thread, as `publish` does; more cores come from more publishers.
//!
//! * **Delivery** — a send takes the subscriber channel's lock, and
//!   wakes the consumer only if it is parked (no syscall otherwise);
//!   the one consumer claims its backlog eight notifications a lock.
//!   `publish` sends one notification per matched subscriber;
//!   `publish_batch` appends each run of events the filter's block
//!   match hands over per subscriber under one lock, with the same
//!   overflow outcome as one send per notification.
//!
//! Ordering: within one publisher thread (and within a batch),
//! notifications reach each subscriber in sequence order. Across
//! concurrent publishers the [`Notification::sequence`] numbers define
//! the total publish order; deliveries may interleave.
//!
//! [`Notification::sequence`]: crate::Notification::sequence

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ens_dist::JointDist;
use ens_filter::{
    tuning, AttributeOrder, DriftCause, DriftSignal, FilterSnapshot, RebuildPolicy, SearchStrategy,
    SnapshotBlockScratch, SnapshotScratch, TreeConfig,
};
use ens_types::{
    Event, IndexedBatch, IndexedEvent, Profile, ProfileBuilder, ProfileId, ProfileSet, Schema,
    TypesError,
};

use crate::channel::{SendOutcome, Sender};
use crate::journal::{Decision, DeclineReason, Journal, TreeShape};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::notify::{Queued, Subscriber};
use crate::persist::{self, Checkpoint, SubscribeBodies, WalRecord};
use crate::quench::QuenchAdvice;
use crate::subscription::SubscriptionId;
use crate::ServiceError;

#[path = "durability.rs"]
mod durability;
#[path = "shard.rs"]
mod shard;

use durability::Durability;
use shard::{notify_channel, Dispatch, Shard, ShardGuard, SubEntry};

/// Broker configuration.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Filter tree configuration (search strategy, attribute order).
    pub tree: TreeConfig,
    /// Unified rebuild policy: the overlay/tombstone compaction
    /// threshold plus the adaptive drift trigger. `max_overlay: 0`
    /// restores the seed's rebuild-on-every-subscribe behaviour.
    ///
    /// The drift half is a trigger, not a verdict. It fires when a
    /// shard's estimate of the event distribution is
    /// [`RebuildPolicy::drift_threshold`] further from the one its tree
    /// was compiled under than sampling noise explains; the broker then
    /// prices the rebuild with the cost model (Eq. 2) and commits it
    /// only if it saves comparisons and pays for itself
    /// ([`tuning::price_rebuild`]; the warm-up onto a shard's first
    /// estimate, on any saving) — see [`Broker::decisions`] for each
    /// outcome. With [`BrokerConfig::tuning`] off, a shape that reads
    /// no event model (the default) has nothing a trigger could
    /// rebuild, so it samples nothing and no trigger fires
    /// ([`BrokerConfig::stats_sample`]). On a stationary stream the
    /// loop therefore settles: at most one rebuild, then a
    /// geometrically thinning series of checks.
    pub rebuild: RebuildPolicy,
    /// Number of subscription shards (0 is treated as 1). Each shard
    /// owns an independent snapshot, writer lock and drift statistics,
    /// and compiles only its share of the subscriptions. Every publish
    /// walks the shards on the calling thread, `publish_batch` included.
    pub shards: usize,
    /// Selects nothing: every shard is compiled to, and matched
    /// through, its automaton, whatever this says. Kept only because
    /// the frozen end-to-end benchmark harness names it; ROADMAP items
    /// 1(b) and 2(d) delete it.
    pub dfsa_dispatch: bool,
    /// Record every Nth published event into the drift statistics of
    /// each shard that samples (1 = every event, the default; 0
    /// disables drift tracking entirely, and with it every rebuild that
    /// is not a churn compaction). A shard samples only where a drift
    /// trigger could act: where [`tuning::candidates`] offers a shape
    /// to price — with [`BrokerConfig::tuning`] on, or for a shape that
    /// reads an event model (V1/V3 search, A2/A3 order). The default
    /// shape does not, so a default broker samples nothing, whatever N
    /// is. Recording is a histogram update per attribute and, every
    /// [`RebuildPolicy::drift_check_every`] events, one pass over the
    /// cells — no allocation, about 60 ns an event on the `e2e`
    /// populations — under a per-shard `try_lock`: under contention a
    /// sample is skipped rather than stalling the publisher. The
    /// statistics survive compactions (they are re-binned onto the new
    /// cells), so what a larger N buys is that recording cost and
    /// nothing else; the estimate just takes N times as long to form.
    pub stats_sample: u64,
    /// Self-tuning: which shapes a drift trigger — the warm-up, or the
    /// distribution having moved — prices ([`tuning::candidates`]).
    /// On, the tuner's battery of (search-strategy, attribute-order)
    /// shapes, so a rebuild may also re-choose the tree's shape. Off
    /// (the default), the shard's own shape recompiled under the
    /// estimate, and nothing where that shape reads no event model.
    /// Either way the cheapest candidate is weighed against the tree in
    /// place by one price and one rule ([`tuning::price_rebuild`]).
    pub tuning: bool,
    /// Covering-pruned compilation: every compaction runs one bulk
    /// containment pass over the live population and compiles only the
    /// representative antichain into the tree/DFSA; covered
    /// subscriptions are delivered through the snapshot's expansion
    /// map instead. A subscribe whose profile is covered by a compiled
    /// representative joins the expansion map in O(schema) hash probes
    /// and adds no compiled state; what the probe found is held by the
    /// shard's snapshot alone, so a broker reopened with this switched
    /// matches the checkpointed overlay as it was compiled until its
    /// next recompile. A covered subscription is not free to match:
    /// every hit on a representative is expanded back to its covered
    /// subscriptions (duplicates unchecked, strict children by one
    /// interval stab per residual attribute), and the traced `e2e`
    /// benchmark measures that expansion at 410–470 of the 430–490
    /// ns/event of matching on its 1000-profile environmental
    /// population (`fanout_env`, 91 subscriptions delivered per event),
    /// where the uncovered automaton matches in about 40 ns.
    /// [`MetricsSnapshot::cover_checks`] and
    /// [`MetricsSnapshot::cover_delivered`] count what it does on a
    /// running broker. On duplicate-heavy populations covering shrinks
    /// build time and compiled bytes by the coverage factor; on
    /// antichain populations (nothing covers anything) the pass
    /// degrades to one lowering sweep. Off is no choice on stock-like
    /// populations: 8,000 stock profiles on one shard retain 933 MB
    /// compiled with covering off (116.6 KB a subscription), against
    /// 66 MB with it on, because the automaton copies a profile into
    /// every branch it spans (ROADMAP item 4). Default on.
    pub covering: bool,
    /// Capacity of each subscriber's notification queue; `0` means
    /// unbounded (the default, matching the seed behaviour). The bound
    /// is on what is *queued*: a receive moves up to 8 queued
    /// notifications to the consumer under one lock and hands out the
    /// first, and what the consumer has claimed counts as received. A
    /// consumer that stops draining therefore holds at most this many
    /// notifications plus 7 — all of them in
    /// [`Subscriber::pending`]. A send into a full queue evicts its
    /// oldest notification, counted in
    /// [`MetricsSnapshot::overflow_dropped`] and
    /// [`Subscriber::dropped`].
    pub notify_capacity: usize,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            tree: TreeConfig::default(),
            rebuild: RebuildPolicy::default(),
            shards: 1,
            dfsa_dispatch: true,
            stats_sample: 1,
            tuning: false,
            covering: true,
            notify_capacity: 0,
        }
    }
}

/// Receipt returned by [`Broker::publish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishReceipt {
    /// Publish-order sequence number of the event.
    pub sequence: u64,
    /// Subscriptions notified by this event (ascending id).
    pub matched: Vec<SubscriptionId>,
    /// Comparison operations spent filtering: the compiled base's as
    /// its tree's search counts them (Eq. 2), plus the overlay's.
    pub ops: u64,
}

/// One dispatch slot, aligned with the snapshot's global profile ids.
#[derive(Clone)]
struct DispatchEntry {
    id: SubscriptionId,
    sender: Sender<Queued>,
}

/// The immutable per-shard artifact the read path consumes.
struct ShardSnapshot {
    filter: FilterSnapshot,
    /// Dispatch by global profile id, tombstones included.
    dispatch: Dispatch,
    /// Whether the publish paths sample the shard's drift statistics:
    /// only where a trigger could act, [`tuning::candidates`] offering a
    /// shape to price (see [`BrokerConfig::stats_sample`]).
    samples: bool,
}

impl ShardSnapshot {
    fn entry(&self, g: u32) -> &DispatchEntry {
        self.dispatch.get(g as usize, self.filter.base_len())
    }
}

/// The result of opening a durable broker: the recovered state plus a
/// fresh consumer handle for every live subscription.
///
/// Notification channels do not survive a crash — the recovered
/// subscriptions are re-attached to new channels, returned here in
/// ascending subscription-id order.
pub struct Recovered {
    /// The recovered broker; durability is attached and logging
    /// resumes where the (possibly torn) log left off.
    pub broker: Broker,
    /// One consumer handle per live subscription, ascending by id.
    pub subscribers: Vec<Subscriber>,
}

thread_local! {
    /// Per-thread match buffers, and the buffer shards' receipt rows
    /// are merged through: any number of brokers share them, so a
    /// warmed-up publisher thread allocates nothing per publish.
    static SCRATCH: RefCell<(IndexedEvent, SnapshotScratch, Vec<SubscriptionId>)> =
        RefCell::new((IndexedEvent::new(), SnapshotScratch::new(), Vec::new()));

    /// Per-thread batch buffers, reused by every batch the thread
    /// publishes: a warmed-up `publish_batch` caller allocates receipts
    /// and the receipt list, nothing per event or notification.
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

/// The buffers of one thread's batches.
#[derive(Default)]
struct BatchScratch {
    /// The batch resolved ([`Broker::publish_batch`] only).
    indexed: IndexedBatch,
    /// The shards' snapshot handles, for one batch: emptied after it,
    /// so that no snapshot outlives the batch.
    snaps: Vec<Arc<ShardSnapshot>>,
    /// One per shard.
    shards: Vec<ShardBatch>,
    /// What receipt rows are merged through ([`merge_row`]).
    merge: Vec<SubscriptionId>,
}

/// Makes `ids` ascending, given `ids[..mid]` is: `ids[mid..]`, one
/// shard's receipt row, joins it by a branch-free merge through `buf`
/// (the buffer is reused, so a warm merge allocates nothing). A row is
/// ascending — only the rows' concatenation is not, ids being sharded
/// `id % N` — but one that is not (say after a recovery) is sorted in
/// with the rest.
fn merge_row(ids: &mut [SubscriptionId], mid: usize, buf: &mut Vec<SubscriptionId>) {
    let (left, right) = ids.split_at(mid);
    if !right.is_sorted() {
        ids.sort_unstable();
        return;
    }
    match (left.last(), right.first()) {
        (Some(last), Some(first)) if last > first => {}
        _ => return,
    }
    buf.clear();
    buf.extend_from_slice(left);
    let (mut i, mut j, mut k) = (0, mid, 0);
    while i < buf.len() && j < ids.len() {
        // A select, not a branch: interleaved rows would mispredict
        // nearly every comparison.
        let (a, b) = (buf[i], ids[j]);
        let from_right = b < a;
        ids[k] = if from_right { b } else { a };
        i += usize::from(!from_right);
        j += usize::from(from_right);
        k += 1;
    }
    // The rest of the right row is in place already.
    ids[k..k + buf.len() - i].copy_from_slice(&buf[i..]);
}

/// `ShardBatch::dead_from` of a slot whose channel took everything.
const ALIVE: u32 = u32::MAX;

/// One shard's share of a batch, reused from batch to batch: the
/// matched rows and runs, and what delivering the runs reported.
#[derive(Default)]
struct ShardBatch {
    /// Matched global profile ids per event (rows, with op counts) and
    /// per slot (runs).
    rows: SnapshotBlockScratch,
    /// Per dispatch slot: the first event of this batch whose
    /// notification the slot's channel refused as severed ([`ALIVE`]
    /// if none, and between batches).
    dead_from: Vec<u32>,
    /// Slots holding a `dead_from` mark.
    dead: Vec<u32>,
    /// Notifications of this batch evicted from full channels.
    overflowed: u64,
    /// Notifications of this batch made before their channel was found
    /// severed: what the receipts name, evicted ones included.
    notified: u64,
    /// The shard's worker panicked on this batch: `rows` hold nothing,
    /// and the shard contributes nothing to the receipts.
    panicked: bool,
}

impl ShardBatch {
    /// Sizes the per-slot arrays for a snapshot with `slots` dispatch
    /// slots, and clears the previous batch's marks.
    fn begin(&mut self, slots: usize) {
        for g in self.dead.drain(..) {
            self.dead_from[g as usize] = ALIVE;
        }
        if self.dead_from.len() < slots {
            self.dead_from.resize(slots, ALIVE);
        }
        self.overflowed = 0;
        self.notified = 0;
        self.panicked = false;
    }

    /// Appends each slot's run to its subscriber channel under one
    /// lock, with at most one wake-up. Every subscriber still sees its
    /// notifications in sequence order, and every channel ends up
    /// exactly as after one send per notification in event order (see
    /// [`Sender::send_many`]).
    fn deliver(&mut self, snap: &ShardSnapshot, events: &[Arc<Event>], base_seq: u64) {
        for (g, run) in self.rows.runs() {
            let entry = snap.entry(g);
            let pushed = entry.sender.send_many(run.iter().map(|&i| Queued {
                sequence: base_seq + u64::from(i),
                event: Arc::clone(&events[i as usize]),
            }));
            self.overflowed += pushed.lost as u64;
            if pushed.severed {
                self.dead_from[g as usize] = run[pushed.accepted];
                self.dead.push(g);
                self.notified += pushed.accepted as u64;
            } else {
                self.notified += run.len() as u64;
            }
        }
    }

    /// Pushes the subscribers event `i` matched on this shard whose
    /// channel was found severed at or before it: one per (event,
    /// severed subscriber), as a single publish finds them.
    fn severed_of(&self, snap: &ShardSnapshot, i: usize, dead: &mut Vec<SubscriptionId>) {
        if self.dead.is_empty() {
            return;
        }
        let row = self.rows.matched_of(i).iter();
        let severed = row.filter(|&&g| self.dead_from[g as usize] <= i as u32);
        dead.extend(severed.map(|&g| snap.entry(g).id));
    }

    /// Adds this shard's part of event `i`'s receipt to `into`: its
    /// comparisons, and each matched subscriber up to the event its
    /// channel was found severed at.
    fn collect(&self, snap: &ShardSnapshot, i: usize, into: &mut PublishReceipt) {
        if self.panicked {
            return;
        }
        into.ops += self.rows.ops_of(i);
        let row = self.rows.matched_of(i).iter();
        if self.dead.is_empty() {
            into.matched.extend(row.map(|&g| snap.entry(g).id));
            return;
        }
        let live = row.filter(|&&g| self.dead_from[g as usize] > i as u32);
        into.matched.extend(live.map(|&g| snap.entry(g).id));
    }
}

impl BatchScratch {
    /// The receipt view of the batch [`Broker::run_batch`] just ran, its
    /// first event numbered `base_seq`: one receipt per event, in input
    /// order, the shards' rows merged into it (see [`merge_row`]).
    fn receipts(&mut self, base_seq: u64, events: usize) -> Vec<PublishReceipt> {
        let BatchScratch {
            snaps,
            shards,
            merge,
            ..
        } = self;
        let shards = &shards[..snaps.len()];
        let receipt = |i: usize| {
            let live = shards.iter().filter(|b| !b.panicked);
            let hits = live.map(|b| b.rows.matched_of(i).len()).sum();
            let mut receipt = PublishReceipt {
                sequence: base_seq + i as u64,
                matched: Vec::with_capacity(hits),
                ops: 0,
            };
            for (snap, batch) in snaps.iter().zip(shards) {
                let start = receipt.matched.len();
                batch.collect(snap, i, &mut receipt);
                merge_row(&mut receipt.matched, start, merge);
            }
            receipt
        };
        (0..events).map(receipt).collect()
    }
}

/// Per-event delivery outcome, accumulated across shards.
#[derive(Default)]
struct Delivery {
    matched: Vec<SubscriptionId>,
    dead: Vec<SubscriptionId>,
    /// Notifications evicted from a full bounded channel (each one
    /// matched — the subscription stays in `matched`).
    overflowed: u64,
    ops: u64,
    /// The overlay side-index's share of `ops` (metrics attribution:
    /// overlay matching decay between compactions).
    overlay_ops: u64,
    /// Covering expansion's residual checks and deliveries (metrics
    /// only; batches count theirs once per batch instead).
    cover_checks: u64,
    cover_delivered: u64,
}

/// A thread-safe event notification broker (a miniature GENAS, the
/// system the paper's §5 announces on top of this filter algorithm).
///
/// # Example
///
/// ```
/// use ens_service::{Broker, BrokerConfig};
/// use ens_types::{Schema, Domain, Predicate, Event};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder()
///     .attribute("temperature", Domain::int(-30, 50))?
///     .build();
/// let broker = Broker::new(&schema, BrokerConfig::default())?;
/// let alerts = broker.subscribe(|b| b.predicate("temperature", Predicate::ge(35)))?;
///
/// broker.publish(&Event::builder(&schema).value("temperature", 40)?.build())?;
/// let n = alerts.try_recv().expect("heat alert");
/// assert_eq!(n.subscription, alerts.id());
/// # Ok(())
/// # }
/// ```
pub struct Broker {
    schema: Arc<Schema>,
    config: BrokerConfig,
    shards: Box<[Shard]>,
    sequence: AtomicU64,
    next_sub: AtomicU64,
    metrics: Arc<Metrics>,
    /// What the adaptive loop decided lately (see [`Broker::decisions`]);
    /// every shard journals its recompiles into it.
    journal: Arc<Journal>,
    /// WAL + checkpoint state; `None` for in-memory brokers
    /// ([`Broker::new`]), `Some` after [`Broker::open`].
    durability: Option<Durability>,
    /// Fault-injection: `shard + 1` of a batch worker that should
    /// panic on its next run, `0` for none (tests of panic isolation).
    batch_fault: AtomicU64,
}

impl Broker {
    /// Creates a broker over `schema`.
    ///
    /// # Errors
    ///
    /// Propagates filter construction errors.
    pub fn new(schema: &Schema, config: BrokerConfig) -> Result<Self, ServiceError> {
        let schema = Arc::new(schema.clone());
        let metrics = Arc::new(Metrics::default());
        let journal = Arc::new(Journal::new());
        let shards = (0..config.shards.max(1))
            .map(|s| Shard::new(s, &schema, &config, &metrics, &journal))
            .collect::<Result<_, _>>()?;
        Ok(Self::over(schema, config, metrics, journal, shards, 0, 0))
    }

    /// Rebuilds the broker from a loaded checkpoint: no recompilation —
    /// each shard's serialized profile tree is restored and lowered.
    fn from_checkpoint(
        schema: &Schema,
        config: BrokerConfig,
        cp: Checkpoint,
        subscribers: &mut BTreeMap<u64, Subscriber>,
    ) -> Result<Self, ServiceError> {
        if persist::schema_fingerprint(schema) != persist::schema_fingerprint(&cp.schema) {
            return Err(ServiceError::Persist(
                "checkpoint schema does not match the broker schema".into(),
            ));
        }
        let n = config.shards.max(1);
        if cp.shards.len() != n {
            return Err(ServiceError::Persist(format!(
                "checkpoint has {} shards, configuration expects {n}",
                cp.shards.len()
            )));
        }
        let schema = Arc::new(schema.clone());
        let metrics = Arc::new(Metrics::default());
        let journal = Arc::new(Journal::new());
        let shards = cp.shards.into_iter().enumerate();
        let shards = shards
            .map(|(s, cs)| Shard::restore(s, &schema, &config, &metrics, &journal, cs, subscribers))
            .collect::<Result<_, _>>()?;
        let (sequence, next_sub) = (cp.sequence, cp.next_sub);
        Ok(Self::over(
            schema, config, metrics, journal, shards, sequence, next_sub,
        ))
    }

    /// An in-memory broker over `shards`, resuming the two counters.
    fn over(
        schema: Arc<Schema>,
        config: BrokerConfig,
        metrics: Arc<Metrics>,
        journal: Arc<Journal>,
        shards: Vec<Shard>,
        sequence: u64,
        next_sub: u64,
    ) -> Self {
        Broker {
            schema,
            config,
            shards: shards.into_boxed_slice(),
            sequence: AtomicU64::new(sequence),
            next_sub: AtomicU64::new(next_sub),
            metrics,
            journal,
            durability: None,
            batch_fault: AtomicU64::new(0),
        }
    }

    /// Replays an accepted retune on the shard it was logged for.
    fn apply_retune(
        &self,
        shard_index: usize,
        attribute_order: AttributeOrder,
        search: SearchStrategy,
        event_model: JointDist,
    ) -> Result<(), ServiceError> {
        let Some(shard) = self.shards.get(shard_index) else {
            return Err(ServiceError::Persist(format!(
                "retune record names shard {shard_index}, broker has {}",
                self.shards.len()
            )));
        };
        shard.lock().retune(attribute_order, search, event_model)
    }

    /// The broker's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        self.schema.as_ref()
    }

    /// The broker's schema as a shared handle (cheap to clone for
    /// producers/consumers on other threads).
    #[must_use]
    pub fn schema_shared(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Number of subscription shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, id: SubscriptionId) -> usize {
        (id.get() % self.shards.len() as u64) as usize
    }

    fn shard_of(&self, id: SubscriptionId) -> &Shard {
        &self.shards[self.shard_index(id)]
    }

    /// Registers a subscription built by `f` and returns the consumer
    /// handle.
    ///
    /// # Errors
    ///
    /// Propagates profile building and filter errors.
    pub fn subscribe<F>(&self, f: F) -> Result<Subscriber, ServiceError>
    where
        F: FnOnce(ProfileBuilder<'_>) -> Result<ProfileBuilder<'_>, TypesError>,
    {
        let profile = f(Profile::builder(&self.schema))?.build(ProfileId::new(0));
        self.subscribe_profile(profile)
    }

    /// Registers a subscription from the textual profile syntax, e.g.
    /// `profile(temperature >= 35; humidity = 90)`.
    ///
    /// # Errors
    ///
    /// Propagates parse and filter errors.
    pub fn subscribe_parsed(&self, text: &str) -> Result<Subscriber, ServiceError> {
        let profile = ens_types::parse::parse_profile(&self.schema, text, ProfileId::new(0))?;
        self.subscribe_profile(profile)
    }

    /// Registers a pre-built profile as a subscription.
    ///
    /// The profile is appended to the shard's overlay immediately — a
    /// covered profile, as the containment probe finds it, as one child
    /// of its representative's expansion; an uncovered one by rebuilding
    /// the counting index over the overlay entries the shard's snapshot
    /// matches by index; neither depends on the total subscription count
    /// — and is folded into the compiled tree at the next compaction,
    /// which an overlay of more than [`RebuildPolicy::max_overlay`] live
    /// entries runs.
    ///
    /// # Errors
    ///
    /// Propagates filter errors.
    pub fn subscribe_profile(&self, profile: Profile) -> Result<Subscriber, ServiceError> {
        self.subscribe_profile_weighted(profile, 1.0)
    }

    /// Registers a subscription with a priority weight. Weights scale
    /// the profile's share of the profile distribution `Pp`, so the
    /// V2/V3 value orderings serve high-priority subscriptions first
    /// (paper §4.3: "faster notifications for profiles with high
    /// priority"). Weights take effect when the profile is compiled
    /// into the tree (immediately with `max_overlay: 0`).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Filter`] for non-positive weights and
    /// propagates filter errors.
    pub fn subscribe_profile_weighted(
        &self,
        profile: Profile,
        weight: f64,
    ) -> Result<Subscriber, ServiceError> {
        if !weight.is_finite() || weight <= 0.0 {
            return Err(ServiceError::Filter(
                ens_filter::FilterError::ModelMismatch {
                    message: format!("subscription weight {weight} must be finite and positive"),
                },
            ));
        }
        let id = SubscriptionId::new(self.next_sub.fetch_add(1, Ordering::Relaxed));
        // Encoded before the commit: a profile the log cannot hold is
        // refused before anything changes.
        let mut record = SubscribeBodies::default();
        if self.durability.is_some() {
            record
                .push(id.get(), weight, &profile)
                .map_err(|e| ServiceError::Persist(e.message().to_string()))?;
        }
        let sub = self.commit_subscribe(id, profile, weight)?;
        // Log after the in-memory commit: an operation becomes durable
        // when its record hits the WAL, and it is acknowledged (the
        // subscriber handle returned) only after that. A checkpoint
        // sneaking between commit and append captures the entry early;
        // replay then skips the record's already-live id.
        self.wal_log_subscribes(&record)?;
        self.maybe_checkpoint();
        Ok(sub)
    }

    /// The in-memory half of a subscribe, shared by the public paths
    /// (which then log) and WAL replay (which must not).
    fn commit_subscribe(
        &self,
        id: SubscriptionId,
        profile: Profile,
        weight: f64,
    ) -> Result<Subscriber, ServiceError> {
        let (sender, rx) = notify_channel(&self.config);
        let slot = DispatchEntry { id, sender };
        let sub = SubEntry { profile, weight };
        self.shard_of(id).lock().add(sub, slot)?;
        Ok(Subscriber::new(id, rx))
    }

    /// Bulk-registers many subscriptions with a single compaction per
    /// shard — the cheap way to load a large initial population. With
    /// [`BrokerConfig::covering`] on, each shard's compaction runs
    /// **one** containment pass over its whole batch (the bulk
    /// general-first sweep), not a per-profile probe, before anything
    /// is compiled.
    ///
    /// The load is all or nothing: every touched shard's share is
    /// staged and compiled, under the writer locks of all of them,
    /// before any is committed. A load that fails has changed no shard
    /// and logged nothing.
    ///
    /// # Errors
    ///
    /// Propagates filter errors.
    pub fn subscribe_many<I>(&self, profiles: I) -> Result<Vec<Subscriber>, ServiceError>
    where
        I: IntoIterator<Item = Profile>,
    {
        // Group entries per shard first: one writer lock, and one
        // recompile, per touched shard instead of one per profile.
        let mut subscribers = Vec::new();
        let mut pending: Vec<Vec<_>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        // Encoded before anything is committed, as one subscribe does.
        let (mut log, weight) = (SubscribeBodies::default(), 1.0);
        for profile in profiles {
            let id = SubscriptionId::new(self.next_sub.fetch_add(1, Ordering::Relaxed));
            if self.durability.is_some() {
                log.push(id.get(), weight, &profile)
                    .map_err(|e| ServiceError::Persist(e.message().to_string()))?;
            }
            let (sender, rx) = notify_channel(&self.config);
            let sub = SubEntry { profile, weight };
            pending[self.shard_index(id)].push((sub, DispatchEntry { id, sender }));
            subscribers.push(Subscriber::new(id, rx));
        }
        // Writer locks in shard order, as a checkpoint takes them; no
        // share is committed before every one is staged.
        let mut staged = Vec::new();
        for (s, entries) in pending.into_iter().enumerate() {
            if !entries.is_empty() {
                let guard = self.shards[s].lock();
                staged.push((guard.stage_bulk(entries)?, guard));
            }
        }
        for (share, mut guard) in staged {
            guard.install(share);
        }
        // On success every entry becomes durable, in one group commit,
        // before the handles are returned.
        self.wal_log_subscribes(&log)?;
        self.maybe_checkpoint();
        Ok(subscribers)
    }

    /// Cancels a subscription.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::UnknownSubscription`] if the id is not
    /// live, and propagates rebuild errors.
    pub fn unsubscribe(&self, id: SubscriptionId) -> Result<(), ServiceError> {
        self.remove_subscription(id)?;
        self.maybe_checkpoint();
        Ok(())
    }

    fn remove_subscription(&self, id: SubscriptionId) -> Result<(), ServiceError> {
        let mut shard = self.shard_of(id).lock();
        shard.remove(id)?;
        // Under the writer lock, so a concurrent checkpoint serializes
        // cleanly before or after the (commit, log) pair.
        self.wal_log(|lsn| WalRecord::Unsubscribe { lsn, id: id.get() })
    }

    /// Number of live subscriptions.
    #[must_use]
    pub fn subscription_count(&self) -> usize {
        let live = |s: &Shard| s.snapshot.read().filter.live_len();
        self.shards.iter().map(live).sum()
    }

    /// Hands `f` every live subscription's id and profile, one shard's
    /// writer lock at a time (so `f` must not call back into the
    /// broker).
    pub(crate) fn for_each_live(&self, mut f: impl FnMut(SubscriptionId, &Profile)) {
        for shard in self.shards.iter() {
            shard.lock().for_each_live(&mut f);
        }
    }

    /// How many subscriptions publishing has garbage-collected because
    /// their consumer hung up: moves only after they are gone.
    pub(crate) fn collected(&self) -> u64 {
        self.metrics.dropped_notifications.load(Ordering::Relaxed)
    }

    /// Publishes one event: filters, delivers notifications, updates the
    /// adaptive statistics and possibly restructures a shard's tree.
    ///
    /// The event is wrapped in one [`Arc`] (a single allocation per
    /// publish) which every notified subscriber shares; matching runs
    /// lock-free against the current snapshots with thread-local
    /// scratch and allocates nothing after warm-up.
    ///
    /// # Errors
    ///
    /// Propagates domain errors for ill-typed event values and filter
    /// rebuild errors.
    pub fn publish(&self, event: &Event) -> Result<PublishReceipt, ServiceError> {
        self.publish_shared(Arc::new(event.clone()))
    }

    /// Like [`Broker::publish`], but takes an already-shared event and
    /// avoids even the per-publish clone.
    ///
    /// # Errors
    ///
    /// Propagates domain errors for ill-typed event values and filter
    /// rebuild errors.
    pub fn publish_shared(&self, event: Arc<Event>) -> Result<PublishReceipt, ServiceError> {
        let mut delivery = Delivery::default();
        let sequence = SCRATCH.with(|cell| -> Result<u64, ServiceError> {
            let (indexed, scratch, merge) = &mut *cell.borrow_mut();
            indexed.resolve_into(&self.schema, &event)?;
            let sequence = self.sequence.fetch_add(1, Ordering::Relaxed);
            let mut samples = false;
            for shard in self.shards.iter() {
                let snap = shard.snapshot.read().clone();
                samples |= snap.samples;
                let start = delivery.matched.len();
                self.match_and_deliver(&snap, indexed, scratch, &event, sequence, &mut delivery);
                merge_row(&mut delivery.matched, start, merge);
            }
            let notified = delivery.matched.len() as u64;
            let (ops, overflowed) = (delivery.ops, delivery.overflowed);
            self.count_published(1, ops, delivery.overlay_ops, notified, overflowed);
            self.count_expansion(delivery.cover_checks, delivery.cover_delivered);
            self.settle(indexed.raw(), sequence, &mut delivery.dead, samples)?;
            Ok(sequence)
        })?;
        self.maybe_checkpoint();
        Ok(PublishReceipt {
            sequence,
            matched: delivery.matched,
            ops: delivery.ops,
        })
    }

    /// Publishes a batch of events, shard after shard on the calling
    /// thread (no thread is spawned; publish from several threads to
    /// use several cores).
    ///
    /// The batch is resolved **once** into an [`IndexedBatch`] shared
    /// by every shard, and each shard drives it through
    /// [`FilterSnapshot::match_block`] — the DFSA's interleaved
    /// multi-event traversal — so per-event dispatch overhead is paid
    /// once per block, not once per event.
    ///
    /// Each shard processes the whole batch in order against one
    /// consistent snapshot, so every subscriber receives its
    /// notifications in sequence order. Receipts come back in input
    /// order.
    ///
    /// # Errors
    ///
    /// Rejects the entire batch (before any delivery) if any event is
    /// ill-typed; propagates rebuild errors.
    pub fn publish_batch(
        &self,
        events: &[Arc<Event>],
    ) -> Result<Vec<PublishReceipt>, ServiceError> {
        self.with_batch_scratch(events, |scratch| {
            // Validate and resolve everything up front: a shard's pass
            // must never fail mid-batch, and resolving once saves
            // re-indexing the event in every shard.
            let mut indexed = std::mem::take(&mut scratch.indexed);
            let resolved = indexed.resolve_into(&self.schema, events.iter().map(Arc::as_ref));
            let receipts = match resolved {
                Ok(()) => self.run_batch(events, &indexed, scratch),
                Err(e) => Err(e.into()),
            };
            let receipts = receipts.map(|base_seq| scratch.receipts(base_seq, events.len()));
            scratch.indexed = indexed;
            receipts
        })
    }

    /// Like [`Broker::publish_batch`], but takes the batch's resolved
    /// [`IndexedBatch`] from the caller instead of resolving it here —
    /// the path for rows that arrive *already indexed* (a federation
    /// `Batch` decodes into one, and ingress passes the rows it
    /// accepts on in another) or that the caller resolved once for its
    /// own matching and wants to share.
    ///
    /// `indexed.row(i)` must be `events[i]`'s resolved form under this
    /// broker's schema; the shape is checked, the cell values are
    /// trusted (a mismatched cell only misroutes that event's own
    /// notifications, exactly as a foreign row would).
    ///
    /// # Errors
    ///
    /// Rejects the whole batch (before any delivery) on a shape
    /// mismatch between `events` and `indexed`; propagates rebuild
    /// errors.
    pub fn publish_batch_prepared(
        &self,
        events: &[Arc<Event>],
        indexed: &IndexedBatch,
    ) -> Result<Vec<PublishReceipt>, ServiceError> {
        self.with_batch_scratch(events, |scratch| {
            let base_seq = self.run_batch(events, indexed, scratch)?;
            Ok(scratch.receipts(base_seq, events.len()))
        })
    }

    /// [`Broker::publish_batch_prepared`] without the receipts, which
    /// federated ingress does not read: the same batch core, errors
    /// included.
    pub(crate) fn ingest_batch_prepared(
        &self,
        events: &[Arc<Event>],
        indexed: &IndexedBatch,
    ) -> Result<(), ServiceError> {
        self.with_batch_scratch(events, |scratch| {
            self.run_batch(events, indexed, scratch).map(drop)
        })
    }

    /// Publishes a non-empty batch through `publish` with the thread's
    /// batch buffers, then checkpoints if one is due.
    fn with_batch_scratch<T: Default>(
        &self,
        events: &[Arc<Event>],
        publish: impl FnOnce(&mut BatchScratch) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        if events.is_empty() {
            return Ok(T::default());
        }
        // Taken out rather than borrowed: nothing below can then find
        // the cell busy, whatever it calls.
        let mut scratch = BATCH_SCRATCH.take();
        let receipts = publish(&mut scratch);
        scratch.snaps.clear();
        BATCH_SCRATCH.set(scratch);
        let receipts = receipts?;
        self.maybe_checkpoint();
        Ok(receipts)
    }

    /// The batch core: matches and delivers a batch shard by shard, once
    /// its shape is checked, counts it, then settles its events in
    /// order — collecting the subscribers found hung up and sampling
    /// the drift statistics. Returns the sequence number of the first
    /// event; the shards' rows and snapshots stay in `scratch` for
    /// [`BatchScratch::receipts`].
    fn run_batch(
        &self,
        events: &[Arc<Event>],
        indexed: &IndexedBatch,
        scratch: &mut BatchScratch,
    ) -> Result<u64, ServiceError> {
        if indexed.len() != events.len() || indexed.width() != self.schema.len().max(1) {
            return Err(ServiceError::Types(
                ens_types::TypesError::UnknownAttribute(format!(
                    "indexed batch shape {}x{} does not match {} events of schema width {}",
                    indexed.len(),
                    indexed.width(),
                    events.len(),
                    self.schema.len()
                )),
            ));
        }
        self.metrics
            .batch_events
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        let base_seq = self
            .sequence
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        let BatchScratch { snaps, shards, .. } = scratch;
        snaps.extend(self.shards.iter().map(|s| s.snapshot.read().clone()));
        if shards.len() < snaps.len() {
            shards.resize_with(snaps.len(), ShardBatch::default);
        }
        let shards = &mut shards[..snaps.len()];
        // Every shard runs on the calling thread, in shard order: a
        // thread per batch cost more than the second core gave back
        // (ROADMAP, Settled), and more cores come from more publishers,
        // the read path being lock-free. A panicking shard (a poisoned
        // profile, a bug in a matching strategy) must not take the
        // broker down or lose the other shards' deliveries: the panic
        // is caught, counted, and the shard contributes nothing to
        // this batch's receipts.
        // `AssertUnwindSafe` is sound here: a shard's pass reads the
        // immutable snapshot, sends on channels whose shared state is
        // lock-protected and stays consistent, and writes only its own
        // `ShardBatch`, which is thrown away if it panics (drift
        // statistics are only touched later, in `settle`).
        for (s, (snap, out)) in snaps.iter().zip(shards.iter_mut()).enumerate() {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.batch_worker(s, snap, indexed, events, base_seq, out);
            }));
            if caught.is_err() {
                self.metrics.shard_panics.fetch_add(1, Ordering::Relaxed);
                *out = ShardBatch {
                    panicked: true,
                    ..ShardBatch::default()
                };
            }
        }

        // Every matched subscriber stays in its receipt; what full
        // channels evict is only counted. The counters move once per
        // batch, before any of its events is sampled for drift: a
        // retune inside the batch is measured from the next one, the
        // first matched against it.
        self.count_published(
            events.len() as u64,
            shards.iter().map(|b| b.rows.ops()).sum(),
            shards.iter().map(|b| b.rows.overlay_ops()).sum(),
            shards.iter().map(|b| b.notified).sum(),
            shards.iter().map(|b| b.overflowed).sum(),
        );
        self.count_expansion(
            shards.iter().map(|b| b.rows.cover_checks()).sum(),
            shards.iter().map(|b| b.rows.cover_delivered()).sum(),
        );
        // Event by event, as single publishes would settle them: a
        // subscriber is collected at the first event its channel was
        // found severed at, and counted at each one after.
        let (mut dead, samples) = (Vec::new(), snaps.iter().any(|s| s.samples));
        for i in 0..events.len() {
            for (snap, batch) in snaps.iter().zip(shards.iter()) {
                batch.severed_of(snap, i, &mut dead);
            }
            self.settle(indexed.row(i), base_seq + i as u64, &mut dead, samples)?;
        }
        Ok(base_seq)
    }

    /// Arms the next `publish_batch` so the worker of `shard` panics
    /// mid-batch — the fault-injection hook behind the panic-isolation
    /// tests. Not part of the supported API.
    #[doc(hidden)]
    pub fn inject_batch_worker_panic(&self, shard: usize) {
        self.batch_fault.store(shard as u64 + 1, Ordering::Relaxed);
    }

    /// Packs every shard's overlay that holds tombstones, as a
    /// checkpoint does first — the hook behind the test that an image
    /// is the same either way. Not part of the supported API.
    ///
    /// # Errors
    ///
    /// Propagates filter errors.
    #[doc(hidden)]
    pub fn pack_overlays(&self) -> Result<(), ServiceError> {
        self.shards.iter().try_for_each(|s| s.lock().pack())
    }

    /// Processes the whole batch for one shard: matches it into `out`'s
    /// rows through the snapshot's block matching engine, then delivers
    /// the rows subscriber by subscriber.
    fn batch_worker(
        &self,
        shard_idx: usize,
        snap: &ShardSnapshot,
        indexed: &IndexedBatch,
        events: &[Arc<Event>],
        base_seq: u64,
        out: &mut ShardBatch,
    ) {
        let armed = self.batch_fault.load(Ordering::Relaxed);
        if armed == shard_idx as u64 + 1
            && self
                .batch_fault
                .compare_exchange(armed, 0, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            panic!("injected batch worker fault (shard {shard_idx})");
        }
        out.begin(snap.filter.base_len() + snap.filter.overlay_len());
        snap.filter.match_block(indexed, &mut out.rows, true);
        out.deliver(snap, events, base_seq);
    }

    /// Delivers one matched global profile id to its subscriber.
    #[inline]
    fn deliver_one(
        &self,
        snap: &ShardSnapshot,
        gpid: u32,
        event: &Arc<Event>,
        sequence: u64,
        out: &mut Delivery,
    ) {
        let entry = snap.entry(gpid);
        let queued = Queued {
            sequence,
            event: Arc::clone(event),
        };
        match entry.sender.send(queued) {
            Ok(SendOutcome::Delivered) => out.matched.push(entry.id),
            Ok(SendOutcome::DroppedOne) => {
                // The subscription matched and stays live; exactly one
                // queued notification was evicted to make room.
                out.matched.push(entry.id);
                out.overflowed += 1;
            }
            Err(_) => out.dead.push(entry.id),
        }
    }

    /// The lock-free per-(event, shard) hot path: match against the
    /// snapshot, deliver to matched subscribers.
    fn match_and_deliver(
        &self,
        snap: &ShardSnapshot,
        indexed: &IndexedEvent,
        scratch: &mut SnapshotScratch,
        event: &Arc<Event>,
        sequence: u64,
        out: &mut Delivery,
    ) {
        snap.filter.match_into(indexed, scratch, true);
        out.ops += scratch.ops();
        out.overlay_ops += scratch.overlay_ops();
        out.cover_checks += scratch.cover_checks();
        out.cover_delivered += scratch.cover_delivered();
        out.matched.reserve(scratch.matched().len());
        for &gpid in scratch.matched() {
            self.deliver_one(snap, gpid, event, sequence, out);
        }
    }

    /// Adds one publish's (or one batch's) covering expansion to the
    /// metrics; nothing to add on a broker without covered profiles.
    fn count_expansion(&self, checks: u64, delivered: u64) {
        if checks > 0 {
            self.metrics
                .cover_checks
                .fetch_add(checks, Ordering::Relaxed);
        }
        if delivered > 0 {
            self.metrics
                .cover_delivered
                .fetch_add(delivered, Ordering::Relaxed);
        }
    }

    /// Adds what one publish, or one batch, did to the metrics: its
    /// events, their comparisons (and the overlay's share), the
    /// notifications the receipts name and those full channels evicted.
    fn count_published(
        &self,
        events: u64,
        ops: u64,
        overlay_ops: u64,
        notified: u64,
        overflowed: u64,
    ) {
        let counters = [
            (&self.metrics.events_published, events),
            (&self.metrics.total_ops, ops),
            (&self.metrics.overlay_ops, overlay_ops),
            (&self.metrics.notifications_sent, notified),
            (&self.metrics.overflow_dropped, overflowed),
        ];
        for (counter, n) in counters {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Post-delivery bookkeeping of one event, shared by `publish` and
    /// the batch core: garbage collection of the hung-up subscribers in
    /// `dead`, and sampled drift statistics (with adaptive rebuilds)
    /// from the event's resolved `row` if the snapshots it was matched
    /// against say that any shard `samples`.
    fn settle(
        &self,
        row: &[u64],
        sequence: u64,
        dead: &mut Vec<SubscriptionId>,
        samples: bool,
    ) -> Result<(), ServiceError> {
        if !dead.is_empty() {
            let n = dead.len() as u64;
            // Garbage-collect subscriptions whose consumers hung up
            // (racing GCs may have removed them already).
            let collected = dead.drain(..).try_for_each(|id| {
                match self.remove_subscription(id) {
                    Ok(()) | Err(ServiceError::UnknownSubscription(_)) => Ok(()),
                    // The in-memory removal committed and only the WAL
                    // append failed: the broker is already flagged
                    // degraded, and the publish that noticed the dead
                    // consumer must keep serving the match path.
                    Err(ServiceError::Persist(_)) => Ok(()),
                    Err(e) => Err(e),
                }
            });
            // Counted once the entries are gone: whoever sees the
            // counter move ([`Broker::collected`]) finds them gone.
            self.metrics
                .dropped_notifications
                .fetch_add(n, Ordering::Relaxed);
            collected?;
        }
        if samples && self.config.stats_sample > 0 && sequence % self.config.stats_sample == 0 {
            self.observe_drift(row)?;
        }
        Ok(())
    }

    /// Records the resolved event `row` into the drift statistics of
    /// every shard that samples (skipping shards whose writer lock is
    /// contended) and, where the drift policy fires, decides whether
    /// the shard is rebuilt.
    fn observe_drift(&self, row: &[u64]) -> Result<(), ServiceError> {
        for (s, shard) in self.shards.iter().enumerate() {
            if !shard.snapshot.read().samples {
                continue;
            }
            let Some(mut w) = shard.try_lock() else {
                continue;
            };
            if let Some(signal) = w.tracker.observe_row(row)? {
                self.answer_drift(s, shard, &mut w, signal)?;
            }
        }
        Ok(())
    }

    /// Answers a drift trigger on shard `s`: prices the candidate
    /// shapes ([`tuning::candidates`]) recompiled under the shard's
    /// estimate against the filter in place ([`tuning::evaluate`]), and
    /// commits the cheapest only if [`tuning::price_rebuild`] takes it.
    /// A shard samples, and so fires a trigger, only where there is a
    /// candidate (`ShardSnapshot::samples`).
    ///
    /// The whole pass runs on the publishing thread under the shard's
    /// writer lock. The filter that was priced is the filter committed,
    /// and no tree is raised.
    fn answer_drift(
        &self,
        s: usize,
        shard: &Shard,
        w: &mut ShardGuard<'_>,
        signal: DriftSignal,
    ) -> Result<(), ServiceError> {
        let shapes = tuning::candidates(w.active_config(), self.config.tuning);
        let snap = shard.snapshot.read().clone();
        let mut staged = w.stage()?;
        // The estimate both filters are priced under: built here for a
        // shape that compiles under none.
        let model = staged.model()?;
        let t0 = Instant::now();
        let (priced, built) = tuning::evaluate(
            &snap.filter,
            &staged.schema,
            &staged.compiled,
            &staged.config,
            &shapes,
            &model,
        )?;
        self.metrics
            .tuning_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let (stale_ops, new_ops) = (priced.stale_ops, priced.best_ops);
        // The tracker counts the events it was shown.
        let served = w.tracker.events_since_settled() * self.config.stats_sample;
        let served = (!signal.is_warm_up()).then_some(served);
        let refused = tuning::price_rebuild(stale_ops, new_ops, served, staged.compiled.rows());
        let (Some(built), None) = (built, refused) else {
            // (No candidate built prices at no saving.)
            let reason = refused.unwrap_or(DeclineReason::NoSaving);
            return self.decline_drift(s, w, signal, stale_ops - new_ops, reason);
        };
        let from = TreeShape::of(w.active_config());
        let to = priced.shape;
        staged.config.attribute_order = to.attribute_order.clone();
        staged.config.search = to.search;
        let filter = staged.compile(Some(built))?;

        let (t0, spent) = (Instant::now(), staged.spent);
        w.rebuild(staged, filter, signal.cause == DriftCause::Moved)?;
        let rebuild_ns = (spent + t0.elapsed()).as_nanos() as u64;
        self.journal(Decision::DriftRebuilt {
            shard: s,
            cause: signal.cause,
            drift: signal.drift,
            noise: signal.noise,
            predicted_stale: stale_ops,
            predicted_new: new_ops,
            rebuild_ns,
        });
        if !self.config.tuning {
            return Ok(());
        }
        // An accepted retune changed the shard's active tree
        // configuration — every later compaction keeps compiling the
        // tuned shape, and it survives restarts, so it is logged. (A
        // plain drift rebuild only refreshes the event model from
        // statistics that are not persisted anyway.)
        self.metrics
            .predicted_ops_bits
            .store(new_ops.to_bits(), Ordering::Relaxed);
        self.metrics.retunes.fetch_add(1, Ordering::Relaxed);
        self.journal(Decision::Retuned {
            shard: s,
            from,
            to: to.clone(),
            predicted: new_ops,
            measured: 0.0,
        });
        if self.durability.is_some() {
            match self.wal_log(|lsn| WalRecord::Retune {
                lsn,
                shard: s as u32,
                attribute_order: to.attribute_order,
                search: to.search,
                event_model: model,
            }) {
                Ok(()) => {}
                // The retuned tree is live in memory either way; a
                // failed append only means the new shape may not
                // survive a restart. Publishing continues degraded
                // rather than failing on a background concern.
                Err(ServiceError::Persist(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Turns the drift trigger `signal` on shard `s` down for `reason`,
    /// a rebuild having been predicted to save `saving` comparisons per
    /// event. A rebuild that buys nothing settles the matter — the
    /// detector's baseline moves onto the estimate that was priced; one
    /// that does not pay yet is looked at again later.
    fn decline_drift(
        &self,
        s: usize,
        w: &mut ShardGuard<'_>,
        signal: DriftSignal,
        saving: f64,
        reason: DeclineReason,
    ) -> Result<(), ServiceError> {
        let next_check_in = match reason {
            DeclineReason::NotYetPaid => w.tracker.defer_rebuild(),
            DeclineReason::NoSaving => w.tracker.decline_rebuild()?,
        };
        self.metrics.drift_declined.fetch_add(1, Ordering::Relaxed);
        self.journal(Decision::DriftDeclined {
            shard: s,
            cause: signal.cause,
            drift: signal.drift,
            noise: signal.noise,
            predicted_saving: saving,
            reason,
            next_check_in,
        });
        Ok(())
    }

    /// Appends `decision` to the journal, with the counters
    /// [`Decision::Retuned::measured`] is later read against.
    fn journal(&self, decision: Decision) {
        self.journal.record(decision, &self.metrics);
    }

    /// Current quenching advice for producers, covering every live
    /// subscription (compiled and overlay) across all shards.
    #[must_use]
    pub fn quench_advice(&self) -> QuenchAdvice {
        let mut live = ProfileSet::new(&self.schema);
        self.for_each_live(|_, profile| {
            live.insert(profile.clone());
        });
        QuenchAdvice::from_profiles(&self.schema, &live)
            .expect("live profiles were already compiled once")
    }

    /// Total adaptive (drift-triggered) rebuilds plus churn compactions
    /// across all shards, as `(rebuilds, compactions)`.
    #[must_use]
    pub fn rebuild_counts(&self) -> (u64, u64) {
        (
            self.metrics.tree_rebuilds.load(Ordering::Relaxed),
            self.metrics.overlay_compactions.load(Ordering::Relaxed),
        )
    }

    /// Counter snapshot.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(self)
    }

    /// The last [`journal::CAPACITY`](crate::journal::CAPACITY)
    /// decisions of the adaptive loop, oldest first: every drift
    /// trigger with what was measured, what Eq. 2 predicted and what
    /// came of it.
    #[must_use]
    pub fn decisions(&self) -> Vec<Decision> {
        self.journal.read(&self.metrics)
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("schema", &self.schema)
            .field("shards", &self.shards.len())
            .field("subscriptions", &self.subscription_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::shard::severed;
    use super::*;

    /// Every tombstoned dispatch slot — on each unsubscribe, and for
    /// each tombstone of a recovered checkpoint — used to be given a
    /// channel of its own to be severed from. It keeps its id.
    #[test]
    fn tombstones_share_one_severed_channel() {
        let first = severed(SubscriptionId::new(7)).sender;
        assert!(first.send_many(std::iter::empty()).severed);
        for n in 0..1000 {
            let slot = severed(SubscriptionId::new(n));
            assert!(slot.sender.same_channel(&first) && slot.id.get() == n);
        }
    }

    #[test]
    fn rows_merge_into_ascending_receipts() {
        let ids = |raw: &[u64]| {
            raw.iter()
                .copied()
                .map(SubscriptionId::new)
                .collect::<Vec<_>>()
        };
        let mut buf = Vec::new();
        // Three shards' rows joined one by one, as the publish paths do;
        // an empty row and a row out of order (sorted in) on the way.
        let rows: [&[u64]; 5] = [
            &[3, 6, 9, 12],
            &[],
            &[1, 4, 7, 13, 16],
            &[2, 8],
            &[15, 5, 0],
        ];
        let mut merged = Vec::new();
        for row in rows {
            let mid = merged.len();
            merged.extend(ids(row));
            merge_row(&mut merged, mid, &mut buf);
        }
        let mut want = ids(&rows.concat());
        want.sort_unstable();
        assert_eq!(merged, want);
        // Rows already in order are left as they are.
        let mut disjoint = ids(&[1, 2, 3, 4]);
        merge_row(&mut disjoint, 2, &mut buf);
        assert_eq!(disjoint, ids(&[1, 2, 3, 4]));
    }
}
