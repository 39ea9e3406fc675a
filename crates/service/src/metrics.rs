use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::broker::Broker;

/// Lock-free service counters.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    pub events_published: AtomicU64,
    pub notifications_sent: AtomicU64,
    pub total_ops: AtomicU64,
    /// The overlay side-index's share of `total_ops` — what matching
    /// the not-yet-compacted subscriptions cost.
    pub overlay_ops: AtomicU64,
    /// Residual checks covering expansion evaluated, and the profiles
    /// it delivered.
    pub cover_checks: AtomicU64,
    pub cover_delivered: AtomicU64,
    /// Events that entered through `publish_batch` (block matching
    /// engine) rather than the single-event path.
    pub batch_events: AtomicU64,
    pub dropped_notifications: AtomicU64,
    /// Notifications a full bounded channel evicted.
    pub overflow_dropped: AtomicU64,
    /// Batch shard workers that panicked and were isolated (the
    /// remaining shards still delivered).
    pub shard_panics: AtomicU64,
    /// Adaptive (drift-triggered) tree rebuilds across all shards.
    pub tree_rebuilds: AtomicU64,
    /// Churn-triggered compactions (overlay/tombstone thresholds).
    pub overlay_compactions: AtomicU64,
    /// Overlay packs: an overlay rebuilt without its tombstones.
    pub overlay_packs: AtomicU64,
    /// Drift triggers that did not end in a rebuild: Eq. 2 priced the
    /// rebuild at no saving, or at one that does not cover its cost yet.
    pub drift_declined: AtomicU64,
    /// Accepted self-tuning retunes (drift rebuilds whose configuration
    /// was chosen by the cost model).
    pub retunes: AtomicU64,
    /// Wall-clock nanoseconds spent pricing drift triggers' candidates
    /// (the estimation/pricing overhead of the adaptive loop).
    pub tuning_nanos: AtomicU64,
    /// `f64::to_bits` of the last accepted retune's predicted expected
    /// comparison operations per event (cost model Eq. 2).
    pub predicted_ops_bits: AtomicU64,
    /// WAL frames recovered by salvage after skipping corruption
    /// (set once at `Broker::open`).
    pub wal_salvaged_frames: AtomicU64,
    /// WAL bytes quarantined (skipped as unreadable) by salvage
    /// (set once at `Broker::open`).
    pub wal_quarantined_bytes: AtomicU64,
    /// Checkpoint generations that could not be loaded during recovery
    /// (corrupt or unreadable), forcing a fall-back to an older one.
    pub checkpoint_fallbacks: AtomicU64,
    /// 1 while the broker is serving with durability degraded (a WAL
    /// append failed); cleared by the next successful checkpoint.
    pub durability_degraded: AtomicU64,
}

impl Metrics {
    pub(crate) fn snapshot(&self, broker: &Broker) -> MetricsSnapshot {
        MetricsSnapshot {
            events_published: self.events_published.load(Ordering::Relaxed),
            notifications_sent: self.notifications_sent.load(Ordering::Relaxed),
            total_ops: self.total_ops.load(Ordering::Relaxed),
            overlay_ops: self.overlay_ops.load(Ordering::Relaxed),
            cover_checks: self.cover_checks.load(Ordering::Relaxed),
            cover_delivered: self.cover_delivered.load(Ordering::Relaxed),
            batch_events: self.batch_events.load(Ordering::Relaxed),
            dropped_notifications: self.dropped_notifications.load(Ordering::Relaxed),
            overflow_dropped: self.overflow_dropped.load(Ordering::Relaxed),
            shard_panics: self.shard_panics.load(Ordering::Relaxed),
            tree_rebuilds: self.tree_rebuilds.load(Ordering::Relaxed),
            overlay_compactions: self.overlay_compactions.load(Ordering::Relaxed),
            overlay_packs: self.overlay_packs.load(Ordering::Relaxed),
            drift_declined: self.drift_declined.load(Ordering::Relaxed),
            retunes: self.retunes.load(Ordering::Relaxed),
            tuning_nanos: self.tuning_nanos.load(Ordering::Relaxed),
            predicted_ops_per_event: f64::from_bits(
                self.predicted_ops_bits.load(Ordering::Relaxed),
            ),
            wal_salvaged_frames: self.wal_salvaged_frames.load(Ordering::Relaxed),
            wal_quarantined_bytes: self.wal_quarantined_bytes.load(Ordering::Relaxed),
            checkpoint_fallbacks: self.checkpoint_fallbacks.load(Ordering::Relaxed),
            durability_degraded: self.durability_degraded.load(Ordering::Relaxed) != 0,
            subscriptions: broker.subscription_count(),
        }
    }
}

/// A point-in-time view of the broker's counters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Events accepted by `publish`.
    pub events_published: u64,
    /// Notifications delivered to subscriber channels.
    pub notifications_sent: u64,
    /// Total comparison operations spent filtering.
    pub total_ops: u64,
    /// The overlay side-index's share of [`MetricsSnapshot::total_ops`]:
    /// operations spent matching subscriptions that arrived since the
    /// last compaction. Watching
    /// [`MetricsSnapshot::overlay_ops_per_event`] between compactions
    /// makes the overlay's matching-cost decay observable.
    pub overlay_ops: u64,
    /// Residual interval checks the covering expansion evaluated: what
    /// turning representatives' hits back into covered subscriptions
    /// cost, beside (not part of) [`MetricsSnapshot::total_ops`]. Zero
    /// with [`BrokerConfig::covering`](crate::BrokerConfig::covering)
    /// off.
    #[serde(default)]
    pub cover_checks: u64,
    /// Profiles delivered through the covering expansion:
    /// representatives' own subscriptions, exact duplicates (which cost
    /// no check), strict children whose residual passed and covered
    /// overlay entries. Over [`MetricsSnapshot::cover_checks`] this is
    /// what the expansion delivered per check it paid; a ratio falling
    /// towards zero means representatives whose children mostly do not
    /// want the events their representative attracts.
    #[serde(default)]
    pub cover_delivered: u64,
    /// Events published through `publish_batch` — the block matching
    /// engine — as opposed to the single-event path.
    pub batch_events: u64,
    /// Notifications dropped because the subscriber hung up.
    pub dropped_notifications: u64,
    /// Notifications a full bounded subscriber channel evicted, oldest
    /// first. Zero with unbounded channels (`notify_capacity: 0`, the
    /// default).
    #[serde(default)]
    pub overflow_dropped: u64,
    /// Batch shard workers that panicked and were isolated — the
    /// panicking shard delivered nothing for its slice of the batch,
    /// every other shard delivered normally.
    #[serde(default)]
    pub shard_panics: u64,
    /// Number of adaptive (drift-triggered) tree rebuilds, including
    /// accepted retunes.
    pub tree_rebuilds: u64,
    /// Number of churn-triggered compactions (overlay/tombstone
    /// thresholds folding the subscription deltas into the tree).
    pub overlay_compactions: u64,
    /// Number of overlay packs: an unsubscribe leaves its overlay entry
    /// in place as a tombstone, and the overlay is rebuilt without them
    /// once they reach its live entries, or before a checkpoint.
    /// Emptying an overlay of `n` one unsubscribe at a time packs
    /// ⌈log₂ n⌉ + 1 times; a count near the unsubscribe count means the
    /// amortisation is not happening.
    #[serde(default)]
    pub overlay_packs: u64,
    /// Drift triggers turned down, with tuning on or off: the cost
    /// model priced the rebuild at no saving, or at a saving that does
    /// not cover a rebuild's cost yet. [`Broker::decisions`] has the
    /// numbers behind each.
    ///
    /// [`Broker::decisions`]: crate::Broker::decisions
    #[serde(default)]
    pub drift_declined: u64,
    /// Accepted self-tuning retunes: drift rebuilds whose
    /// (search-strategy, attribute-order) shape was re-chosen by the
    /// cost model under the online distribution estimate.
    pub retunes: u64,
    /// Total wall-clock nanoseconds spent pricing drift triggers'
    /// candidates — building each and running Eq. 2 on it, the
    /// overhead the adaptive loop adds to the write path. A trigger
    /// with no candidate to price (the shape in place reads no event
    /// model and tuning is off) adds nothing.
    pub tuning_nanos: u64,
    /// The cost model's predicted expected comparison operations per
    /// event for the most recently accepted retune (0 before any
    /// retune). Compare against [`MetricsSnapshot::avg_ops_per_event`]
    /// measured *after* the retune to judge estimate quality.
    pub predicted_ops_per_event: f64,
    /// WAL frames recovered by salvage mode at the last `Broker::open`:
    /// valid frames found *after* skipping at least one corrupt region.
    /// Zero on a clean log.
    #[serde(default)]
    pub wal_salvaged_frames: u64,
    /// WAL bytes quarantined at the last `Broker::open` — interior
    /// regions salvage skipped as unreadable (CRC-corrupt or
    /// unparsable) on its way to the next valid frame boundary.
    #[serde(default)]
    pub wal_quarantined_bytes: u64,
    /// Checkpoint generations recovery had to skip (corrupt or
    /// unreadable) before finding a loadable one at the last
    /// `Broker::open`. Zero when the newest generation loaded cleanly.
    #[serde(default)]
    pub checkpoint_fallbacks: u64,
    /// Whether the broker is currently serving with durability
    /// degraded: a WAL append failed (ENOSPC, EIO) after the last
    /// successful checkpoint, so recent acknowledged-in-memory changes
    /// may not survive a crash. Cleared by the next successful
    /// checkpoint, which captures the full in-memory state.
    #[serde(default)]
    pub durability_degraded: bool,
    /// Live subscriptions at snapshot time.
    pub subscriptions: usize,
}

impl MetricsSnapshot {
    /// Average comparison operations per published event.
    #[must_use]
    pub fn avg_ops_per_event(&self) -> f64 {
        if self.events_published == 0 {
            0.0
        } else {
            self.total_ops as f64 / self.events_published as f64
        }
    }

    /// Average overlay (incremental-subscription side-index) comparison
    /// operations per published event. Rises while churn accumulates in
    /// the overlay and drops back to ~0 after a compaction, so plotting
    /// it over time shows the decay the counting index bounds.
    #[must_use]
    pub fn overlay_ops_per_event(&self) -> f64 {
        if self.events_published == 0 {
            0.0
        } else {
            self.overlay_ops as f64 / self.events_published as f64
        }
    }

    /// Average notifications delivered per published event (the fan-out
    /// the filter actually produced).
    #[must_use]
    pub fn avg_notifications_per_event(&self) -> f64 {
        if self.events_published == 0 {
            0.0
        } else {
            self.notifications_sent as f64 / self.events_published as f64
        }
    }
}

impl fmt::Display for MetricsSnapshot {
    /// One-line operational summary, e.g.
    /// `events=100 batch=64 notifs=250 (2.50/ev) ops=1200 (12.00/ev) overlay_ops=40 (0.40/ev) cover=180/95 dropped=0 overflow=0 panics=0 rebuilds=1 declined=2 compactions=4 packs=5 retunes=1 (pred 3.10 ops/ev) wal_salvaged=0 wal_quarantined=0 cp_fallbacks=0 degraded=false subs=42`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events={} batch={} notifs={} ({:.2}/ev) ops={} ({:.2}/ev) overlay_ops={} ({:.2}/ev) cover={}/{} dropped={} overflow={} panics={} rebuilds={} declined={} compactions={} packs={} retunes={} (pred {:.2} ops/ev) wal_salvaged={} wal_quarantined={} cp_fallbacks={} degraded={} subs={}",
            self.events_published,
            self.batch_events,
            self.notifications_sent,
            self.avg_notifications_per_event(),
            self.total_ops,
            self.avg_ops_per_event(),
            self.overlay_ops,
            self.overlay_ops_per_event(),
            self.cover_delivered,
            self.cover_checks,
            self.dropped_notifications,
            self.overflow_dropped,
            self.shard_panics,
            self.tree_rebuilds,
            self.drift_declined,
            self.overlay_compactions,
            self.overlay_packs,
            self.retunes,
            self.predicted_ops_per_event,
            self.wal_salvaged_frames,
            self.wal_quarantined_bytes,
            self.checkpoint_fallbacks,
            self.durability_degraded,
            self.subscriptions,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BrokerConfig;
    use ens_types::{Domain, Event, Predicate, Schema};

    fn broker() -> Broker {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .build();
        Broker::new(&schema, BrokerConfig::default()).unwrap()
    }

    #[test]
    fn snapshot_averages_and_display() {
        let b = broker();
        let _sub = b
            .subscribe(|p| p.predicate("x", Predicate::ge(50)))
            .unwrap();
        for x in [10, 60, 70, 80] {
            let e = Event::builder(b.schema()).value("x", x).unwrap().build();
            b.publish(&e).unwrap();
        }
        let s = b.metrics();
        assert_eq!(s.events_published, 4);
        assert_eq!(s.notifications_sent, 3);
        assert!((s.avg_notifications_per_event() - 0.75).abs() < 1e-12);
        assert!(s.avg_ops_per_event() > 0.0);
        assert_eq!(s.subscriptions, 1);
        let line = s.to_string();
        assert!(line.contains("events=4"), "{line}");
        assert!(line.contains("(0.75/ev)"), "{line}");
        assert!(line.contains("subs=1"), "{line}");
    }

    #[test]
    fn overlay_and_batch_counters_accrue() {
        use ens_filter::RebuildPolicy;
        use std::sync::Arc;

        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .build();
        // Push the compaction threshold out so the subscription stays in
        // the overlay side-index.
        let b = Broker::new(
            &schema,
            BrokerConfig {
                rebuild: RebuildPolicy {
                    max_overlay: usize::MAX,
                    ..RebuildPolicy::default()
                },
                ..BrokerConfig::default()
            },
        )
        .unwrap();
        // First subscribe compacts (base bootstrap); the second one
        // lands in the overlay.
        let _a = b
            .subscribe(|p| p.predicate("x", Predicate::lt(10)))
            .unwrap();
        let _sub = b
            .subscribe(|p| p.predicate("x", Predicate::ge(50)))
            .unwrap();
        let events: Vec<Arc<Event>> = [10i64, 60, 70]
            .iter()
            .map(|x| Arc::new(Event::builder(b.schema()).value("x", *x).unwrap().build()))
            .collect();
        b.publish_shared(Arc::clone(&events[0])).unwrap();
        b.publish_batch(&events[1..]).unwrap();
        let s = b.metrics();
        assert_eq!(s.events_published, 3);
        assert_eq!(s.batch_events, 2);
        assert!(s.overlay_ops > 0, "{s:?}");
        assert!(s.overlay_ops_per_event() > 0.0);
        assert!(s.overlay_ops <= s.total_ops);
        let line = s.to_string();
        assert!(line.contains("batch=2"), "{line}");
        assert!(line.contains("overlay_ops="), "{line}");
    }

    #[test]
    fn covering_expansion_is_counted_per_publish_and_per_batch() {
        use std::sync::Arc;

        let b = broker();
        // One representative, a duplicate and two strict children.
        let profile = |at_least: i64| {
            ens_types::Profile::builder(b.schema())
                .predicate("x", Predicate::ge(at_least))
                .unwrap()
                .build(ens_types::ProfileId::new(0))
        };
        let _subs = b.subscribe_many([50, 50, 70, 90].map(profile)).unwrap();
        let events: Vec<Arc<Event>> = [10i64, 60, 80]
            .iter()
            .map(|x| Arc::new(Event::builder(b.schema()).value("x", *x).unwrap().build()))
            .collect();
        b.publish_shared(Arc::clone(&events[0])).unwrap();
        assert_eq!(b.metrics().cover_delivered, 0, "no representative hit");
        b.publish_shared(Arc::clone(&events[1])).unwrap();
        let s = b.metrics();
        assert_eq!(
            (s.cover_delivered, s.cover_checks),
            (2, 0),
            "x = 60: rep + dup"
        );
        b.publish_batch(&events).unwrap();
        let s = b.metrics();
        // The batch adds 60 (2 delivered) and 80 (3 delivered, one
        // check: `>= 70` starts at or below 80, `>= 90` does not).
        assert_eq!((s.cover_delivered, s.cover_checks), (7, 1));
        assert_eq!(s.notifications_sent, 7);
        assert!(s.to_string().contains("cover=7/1"), "{s}");
    }

    #[test]
    fn empty_broker_snapshot_is_zero() {
        let s = broker().metrics();
        assert_eq!(s.avg_ops_per_event(), 0.0);
        assert_eq!(s.avg_notifications_per_event(), 0.0);
        assert_eq!(s.events_published, 0);
        assert_eq!(s.subscriptions, 0);
    }
}
