//! The decision journal: what the broker's adaptive loop decided, and
//! on which numbers.
//!
//! A drift trigger ends in one of three ways — the shard is rebuilt,
//! rebuilt in a new shape, or left alone — and each leaves a record
//! here with what the detector measured and what the cost model
//! (Eq. 2) predicted, so "what did it just decide and why" has an
//! answer on a running broker ([`Broker::decisions`]). The journal is a
//! ring of [`CAPACITY`] records allocated with the broker; a record is
//! written per decision, never per event.
//!
//! A durable broker's checkpoints — the automatic ones it decides on
//! and the ones it is told to write — are journalled beside them
//! ([`Decision::CheckpointWritten`]): what the image weighed, what the
//! WAL trim dropped and kept, and how long the log was held for it.
//! And every recompile of a shard, whatever asked for it
//! ([`Decision::Compacted`]): how many profiles went in and what each
//! stage of the compile pipeline — event model, containment pass, the
//! tree built into its automaton — cost under the shard's writer lock.
//!
//! [`Broker::decisions`]: crate::Broker::decisions

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use ens_filter::{AttributeOrder, DriftCause, SearchStrategy};
use parking_lot::Mutex;

use crate::metrics::Metrics;

/// Records the journal keeps; a new one evicts the oldest.
pub const CAPACITY: usize = 64;

/// The part of a tree configuration a retune re-decides.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeShape {
    /// Order of the tree's levels.
    pub attribute_order: AttributeOrder,
    /// How a node's edges are searched.
    pub search: SearchStrategy,
}

/// Why a drift trigger did not end in a rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclineReason {
    /// Eq. 2 prices the candidate no cheaper than the tree in place.
    /// The detector's baseline moved onto the priced estimate.
    NoSaving,
    /// The best candidate's predicted improvement is below
    /// `ens_filter::tuning::MIN_IMPROVEMENT`. Baseline moved likewise.
    BelowTuningThreshold,
    /// The candidate is cheaper, but at the predicted saving the tree
    /// in place has not served long enough under its model for a
    /// rebuild to be covered. The baseline stays: the same trigger is
    /// priced again later.
    NotYetPaid,
}

/// One decision of the adaptive loop (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// A drift trigger was answered with a rebuild.
    DriftRebuilt {
        /// The shard rebuilt.
        shard: usize,
        /// What fired the trigger.
        cause: DriftCause,
        /// Measured L1 drift at the trigger.
        drift: f64,
        /// Sampling-noise allowance a drift has to clear on top of the
        /// threshold to count as the distribution having moved (0 on
        /// the warm-up rebuild).
        noise: f64,
        /// Eq. 2 comparisons per event of the tree that was in place,
        /// under the estimate.
        predicted_stale: f64,
        /// The same for the tree now in place.
        predicted_new: f64,
        /// Wall-clock cost of the rebuild (pricing excluded).
        rebuild_ns: u64,
    },
    /// A drift trigger was turned down.
    DriftDeclined {
        /// The shard left alone.
        shard: usize,
        /// What fired the trigger.
        cause: DriftCause,
        /// Measured L1 drift at the trigger.
        drift: f64,
        /// Its sampling-noise allowance.
        noise: f64,
        /// Eq. 2 comparisons per event a rebuild was predicted to save
        /// (negative: the candidate is dearer).
        predicted_saving: f64,
        /// Why that was not enough.
        reason: DeclineReason,
        /// Sampled events until the shard's drift is evaluated again.
        next_check_in: u64,
    },
    /// The rebuild of a [`Decision::DriftRebuilt`] just before this
    /// record used a shape the tuner chose.
    Retuned {
        /// The shard retuned.
        shard: usize,
        /// The shape it had.
        from: TreeShape,
        /// The shape it has now.
        to: TreeShape,
        /// Eq. 2 comparisons per event predicted for the new shape.
        predicted: f64,
        /// Comparisons per event the broker has counted since
        /// (`total_ops` over `events_published`, all shards: the
        /// shard's own on a one-shard broker); 0 before the next event.
        measured: f64,
    },
    /// A shard recompiled its subscriptions: a bulk load, a churn
    /// compaction, a replayed retune, or the rebuild of the
    /// [`Decision::DriftRebuilt`] that follows this record. The four
    /// stages of the compile pipeline are timed apart; what is left of a
    /// recompile (collecting the live profiles, the dispatch tables) is
    /// in none of them.
    Compacted {
        /// The shard recompiled.
        shard: usize,
        /// Live subscriptions the shard serves after it.
        population: usize,
        /// Profiles that entered the tree: the representatives under
        /// covering, else the whole population.
        compiled: usize,
        /// The event model filled from the statistics re-binned onto
        /// the new cells: 0 for a shape that reads none, which has none
        /// built (re-binning the statistics is in none of the stages).
        model_ns: u64,
        /// The bulk containment pass (0 with covering off).
        cover_ns: u64,
        /// The tree build, straight into the automaton, and the
        /// covering expansion plan (where the tuner's battery built the
        /// automaton, the plan alone: the build is in
        /// `MetricsSnapshot::tuning_nanos`).
        tree_ns: u64,
    },
    /// A checkpoint generation was written (automatic, or by
    /// [`Broker::checkpoint`](crate::Broker::checkpoint) or
    /// [`Broker::checkpoint_keep_wal`](crate::Broker::checkpoint_keep_wal)).
    CheckpointWritten {
        /// The generation written.
        generation: u64,
        /// Size of the checkpoint image.
        image_bytes: u64,
        /// Bytes cut off the front of the WAL: the frames no retained
        /// generation needs for replay, and any quarantined bytes among
        /// them (0 when the WAL was kept or nothing could be cut).
        wal_bytes_dropped: u64,
        /// Bytes of the WAL after the checkpoint.
        wal_bytes_kept: u64,
        /// Wall-clock cost of the whole checkpoint; the WAL is locked
        /// for nearly all of it.
        ns: u64,
        /// The part of `ns` spent trimming the WAL.
        trim_ns: u64,
    },
}

/// A journalled decision with the broker counters at the time, from
/// which [`Decision::Retuned::measured`] is worked out when read.
struct Entry {
    decision: Decision,
    total_ops: u64,
    events_published: u64,
}

/// `(total_ops, events_published)` as `metrics` has them now.
fn counters(metrics: &Metrics) -> (u64, u64) {
    (
        metrics.total_ops.load(Ordering::Relaxed),
        metrics.events_published.load(Ordering::Relaxed),
    )
}

pub(crate) struct Journal {
    ring: Mutex<VecDeque<Entry>>,
}

impl Journal {
    pub(crate) fn new() -> Self {
        Journal {
            ring: Mutex::new(VecDeque::with_capacity(CAPACITY)),
        }
    }

    /// Appends `decision`, taken with the broker's counters where
    /// `metrics` has them.
    pub(crate) fn record(&self, decision: Decision, metrics: &Metrics) {
        let (total_ops, events_published) = counters(metrics);
        let mut ring = self.ring.lock();
        if ring.len() == CAPACITY {
            ring.pop_front();
        }
        ring.push_back(Entry {
            decision,
            total_ops,
            events_published,
        });
    }

    /// The journalled decisions, oldest first, with the broker's
    /// counters now where `metrics` has them.
    pub(crate) fn read(&self, metrics: &Metrics) -> Vec<Decision> {
        let (total_ops, events_published) = counters(metrics);
        self.ring
            .lock()
            .iter()
            .map(|entry| {
                let mut decision = entry.decision.clone();
                if let Decision::Retuned { measured, .. } = &mut decision {
                    let events = events_published.saturating_sub(entry.events_published);
                    if events > 0 {
                        *measured =
                            total_ops.saturating_sub(entry.total_ops) as f64 / events as f64;
                    }
                }
                decision
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declined(shard: usize) -> Decision {
        Decision::DriftDeclined {
            shard,
            cause: DriftCause::Moved,
            drift: 0.5,
            noise: 0.1,
            predicted_saving: 0.0,
            reason: DeclineReason::NoSaving,
            next_check_in: 1000,
        }
    }

    #[test]
    fn ring_keeps_the_newest_records() {
        let (journal, metrics) = (Journal::new(), Metrics::default());
        for shard in 0..CAPACITY + 3 {
            journal.record(declined(shard), &metrics);
        }
        let read = journal.read(&metrics);
        assert_eq!(read.len(), CAPACITY);
        assert_eq!(read[0], declined(3));
        assert_eq!(read[CAPACITY - 1], declined(CAPACITY + 2));
    }

    #[test]
    fn retune_measures_ops_per_event_since_it_was_taken() {
        let (journal, metrics) = (Journal::new(), Metrics::default());
        let at = |ops, events| {
            metrics.total_ops.store(ops, Ordering::Relaxed);
            metrics.events_published.store(events, Ordering::Relaxed);
        };
        let shape = TreeShape {
            attribute_order: AttributeOrder::Natural,
            search: SearchStrategy::Binary,
        };
        at(1_000, 100);
        journal.record(
            Decision::Retuned {
                shard: 0,
                from: shape.clone(),
                to: shape,
                predicted: 3.0,
                measured: 0.0,
            },
            &metrics,
        );
        let measured = |ops, events| {
            at(ops, events);
            match &journal.read(&metrics)[0] {
                Decision::Retuned { measured, .. } => *measured,
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(measured(1_000, 100), 0.0, "no event since");
        assert_eq!(measured(1_400, 200), 4.0);
    }
}
