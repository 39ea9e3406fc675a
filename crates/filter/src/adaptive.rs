//! The adaptive filter component (paper §1/§4: "an adaptive filter
//! component that optimizes the profile tree for certain applications
//! based on the data distributions").
//!
//! [`AdaptiveFilter`] wraps a [`ProfileTree`] together with
//! [`FilterStatistics`]. Every processed event is matched *and*
//! recorded; when the empirical event distribution has drifted far
//! enough from the distribution the tree was optimised for (L1 distance
//! over the subrange cells), the tree is rebuilt with the fresh
//! empirical model — "the algorithm … has to maintain a history of
//! events in order to determine the event distribution" (§5).

use ens_types::{Event, IndexedEvent, ProfileSet};
use serde::{Deserialize, Serialize};

use crate::rebuild::{DriftCause, DriftTracker, RebuildPolicy};
use crate::scratch::{MatchScratch, Matcher};
use crate::statistics::FilterStatistics;
use crate::tree::{MatchOutcome, ProfileTree, TreeConfig};
use crate::FilterError;

/// When the adaptive filter restructures its tree.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptivePolicy {
    /// Do not consider rebuilding before this many events were observed
    /// since the last rebuild.
    pub min_events: u64,
    /// Rebuild when some attribute's empirical cell distribution is at
    /// least this far (L1) from the distribution the tree assumes, on
    /// top of what sampling noise accounts for.
    pub drift_threshold: f64,
    /// After a rebuild that answered a drift, halve the history
    /// counters so the detector reacts to recent traffic.
    pub decay_on_rebuild: bool,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            min_events: 500,
            drift_threshold: 0.25,
            decay_on_rebuild: true,
        }
    }
}

/// A self-optimising profile tree.
///
/// # Example
///
/// ```
/// use ens_filter::{AdaptiveFilter, AdaptivePolicy, TreeConfig, SearchStrategy, ValueOrder, Direction};
/// use ens_types::{Schema, Domain, Predicate, ProfileSet, Event};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))?;
/// ps.insert_with(|b| b.predicate("x", Predicate::between(80, 89)))?;
///
/// let config = TreeConfig {
///     search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
///     ..TreeConfig::default()
/// };
/// let mut filter = AdaptiveFilter::new(&ps, config, AdaptivePolicy::default())?;
/// let e = Event::builder(&schema).value("x", 15)?.build();
/// assert!(filter.process(&e)?.is_match());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AdaptiveFilter {
    profiles: ProfileSet,
    config: TreeConfig,
    tree: ProfileTree,
    /// History and drift trigger: the detector the broker runs, asked
    /// after every event.
    tracker: DriftTracker,
    rebuild_count: u64,
}

impl AdaptiveFilter {
    /// Creates the filter. If `config` requests a distribution-dependent
    /// order but carries no event model, a uniform empirical model
    /// (Laplace-smoothed empty history) seeds the first tree.
    ///
    /// # Errors
    ///
    /// Propagates tree construction errors.
    pub fn new(
        profiles: &ProfileSet,
        config: TreeConfig,
        policy: AdaptivePolicy,
    ) -> Result<Self, FilterError> {
        let tracker = DriftTracker::new(
            profiles,
            RebuildPolicy {
                drift_check_every: 1,
                ..policy.into()
            },
        )?;
        let mut config = config;
        if config.event_model.is_none() {
            config.event_model = Some(tracker.statistics().empirical_model()?);
        }
        let tree = ProfileTree::build(profiles, &config)?;
        Ok(AdaptiveFilter {
            profiles: profiles.clone(),
            config,
            tree,
            tracker,
            rebuild_count: 0,
        })
    }

    /// The current tree.
    #[must_use]
    pub fn tree(&self) -> &ProfileTree {
        &self.tree
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn statistics(&self) -> &FilterStatistics {
        self.tracker.statistics()
    }

    /// The profiles currently indexed.
    #[must_use]
    pub fn profiles(&self) -> &ProfileSet {
        &self.profiles
    }

    /// How often the tree has been restructured.
    #[must_use]
    pub fn rebuild_count(&self) -> u64 {
        self.rebuild_count
    }

    /// Matches `event`, records it in the history, and restructures the
    /// tree when the drift policy fires.
    ///
    /// # Errors
    ///
    /// Propagates matching and rebuild errors.
    pub fn process(&mut self, event: &Event) -> Result<MatchOutcome, FilterError> {
        let outcome = self.tree.match_event(event)?;
        self.record(event)?;
        Ok(outcome)
    }

    /// The allocation-free variant of [`AdaptiveFilter::process`]:
    /// resolves `event` into the caller-owned `indexed` buffer, matches
    /// into the caller-owned `scratch`, then records the event exactly
    /// like `process`. After warm-up the matching step performs no heap
    /// allocation (the statistics/rebuild machinery may still allocate
    /// when the drift policy fires).
    ///
    /// # Errors
    ///
    /// Propagates matching and rebuild errors.
    pub fn process_into(
        &mut self,
        event: &Event,
        indexed: &mut IndexedEvent,
        scratch: &mut MatchScratch,
    ) -> Result<(), FilterError> {
        indexed.resolve_into(self.tree.schema(), event)?;
        self.tree.match_into(indexed, scratch);
        self.record(event)
    }

    /// Shared post-match bookkeeping: history recording and the drift
    /// policy. Every trigger is honoured — pricing a rebuild against
    /// its cost is the broker's business.
    fn record(&mut self, event: &Event) -> Result<(), FilterError> {
        if let Some(signal) = self.tracker.observe(event)? {
            self.recompile(signal.cause == DriftCause::Moved)?;
            self.rebuild_count += 1;
        }
        Ok(())
    }

    /// Maximum L1 distance, over attributes, between the empirical cell
    /// distribution and the one the tree assumes.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn current_drift(&self) -> Result<f64, FilterError> {
        self.tracker.current_drift()
    }

    /// Forces a rebuild with the current empirical model.
    ///
    /// # Errors
    ///
    /// Propagates tree construction errors.
    pub fn rebuild(&mut self) -> Result<(), FilterError> {
        self.recompile(true)?;
        self.rebuild_count += 1;
        Ok(())
    }

    /// Recompiles the tree under the empirical model; `migrated` says
    /// the event distribution is what moved (see
    /// [`DriftTracker::finish_rebuild`]).
    fn recompile(&mut self, migrated: bool) -> Result<(), FilterError> {
        self.config.event_model = Some(self.tracker.prepare_model(&self.profiles, None)?);
        self.tree = ProfileTree::build(&self.profiles, &self.config)?;
        self.tracker.finish_rebuild(migrated)
    }

    /// Replaces the profile set and their priority weights, then
    /// rebuilds (see [`crate::TreeConfig::profile_weights`]).
    ///
    /// # Errors
    ///
    /// Propagates tree construction errors.
    pub fn set_profiles_weighted(
        &mut self,
        profiles: &ProfileSet,
        weights: Option<Vec<f64>>,
    ) -> Result<(), FilterError> {
        self.config.profile_weights = weights;
        self.set_profiles(profiles)
    }

    /// Replaces the profile set (subscription churn) and rebuilds. The
    /// event history carries over, re-binned onto the new cells.
    ///
    /// # Errors
    ///
    /// Propagates tree construction errors.
    pub fn set_profiles(&mut self, profiles: &ProfileSet) -> Result<(), FilterError> {
        if let Some(w) = &self.config.profile_weights {
            if w.len() != profiles.len() {
                // Stale weights cannot apply to the new set.
                self.config.profile_weights = None;
            }
        }
        self.profiles = profiles.clone();
        self.recompile(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{SearchStrategy, ValueOrder};
    use crate::Direction;
    use ens_types::{Domain, Predicate, Schema};

    fn setup() -> (Schema, ProfileSet) {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))
            .unwrap();
        ps.insert_with(|b| b.predicate("x", Predicate::between(80, 89)))
            .unwrap();
        (schema, ps)
    }

    fn event(schema: &Schema, x: i64) -> Event {
        Event::builder(schema).value("x", x).unwrap().build()
    }

    fn v1_config() -> TreeConfig {
        TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            ..TreeConfig::default()
        }
    }

    #[test]
    fn matching_is_never_disturbed_by_adaptation() {
        let (schema, ps) = setup();
        let policy = AdaptivePolicy {
            min_events: 50,
            drift_threshold: 0.1,
            decay_on_rebuild: true,
        };
        let mut filter = AdaptiveFilter::new(&ps, v1_config(), policy).unwrap();
        for round in 0..3 {
            let base = if round % 2 == 0 { 15 } else { 85 };
            for k in 0..200 {
                let x = base + (k % 5) - 2;
                let out = filter.process(&event(&schema, x)).unwrap();
                let expect = ps.matches(&event(&schema, x)).unwrap();
                assert_eq!(out.profiles(), expect.as_slice(), "x={x}");
            }
        }
        assert!(filter.rebuild_count() >= 1, "drift must trigger rebuilds");
    }

    #[test]
    fn adaptation_reduces_ops_after_shift() {
        let (schema, ps) = setup();
        let policy = AdaptivePolicy {
            min_events: 100,
            drift_threshold: 0.3,
            decay_on_rebuild: false,
        };
        let mut filter = AdaptiveFilter::new(&ps, v1_config(), policy).unwrap();
        // Phase 1: traffic on the high peak teaches the filter.
        for _ in 0..300 {
            filter.process(&event(&schema, 85)).unwrap();
        }
        // After adaptation the hot subrange is scanned first: 1 op.
        let hot = filter.tree().match_event(&event(&schema, 85)).unwrap();
        assert_eq!(hot.ops(), 1, "adapted tree finds the hot range first");
        assert!(filter.rebuild_count() >= 1);
    }

    #[test]
    fn drift_is_zero_right_after_rebuild_without_decay() {
        let (schema, ps) = setup();
        let policy = AdaptivePolicy {
            min_events: 10,
            drift_threshold: 2.1, // never fires automatically
            decay_on_rebuild: false,
        };
        let mut filter = AdaptiveFilter::new(&ps, v1_config(), policy).unwrap();
        for _ in 0..50 {
            filter.process(&event(&schema, 15)).unwrap();
        }
        assert!(filter.current_drift().unwrap() > 0.5);
        filter.rebuild().unwrap();
        assert!(filter.current_drift().unwrap() < 1e-12);
    }

    #[test]
    fn set_profiles_resets_structure() {
        let (schema, ps) = setup();
        let mut filter =
            AdaptiveFilter::new(&ps, TreeConfig::default(), AdaptivePolicy::default()).unwrap();
        let mut bigger = ps.clone();
        bigger
            .insert_with(|b| b.predicate("x", Predicate::between(40, 59)))
            .unwrap();
        filter.set_profiles(&bigger).unwrap();
        assert_eq!(filter.profiles().len(), 3);
        let out = filter.process(&event(&schema, 45)).unwrap();
        assert_eq!(out.profiles().len(), 1);
    }

    #[test]
    fn works_without_event_model_in_config() {
        let (schema, ps) = setup();
        let filter = AdaptiveFilter::new(&ps, v1_config(), AdaptivePolicy::default()).unwrap();
        // The seeded model is uniform-ish; matching still works.
        let out = filter.tree().match_event(&event(&schema, 12)).unwrap();
        assert!(out.is_match());
    }
}
