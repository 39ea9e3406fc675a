//! Cost-model-driven self-tuning: choosing the filter structure from
//! the estimated event distribution.
//!
//! This module closes the loop the paper sketches across §4 and §5: the
//! statistic objects (§4.2, [`FilterStatistics`](crate::FilterStatistics))
//! estimate the event distribution online, the analytic cost model
//! (Eq. 2, [`CostModel`](crate::CostModel)) prices every candidate
//! filter structure under that estimate, and "an adaptive filter
//! component … optimizes the profile tree for certain applications
//! based on the data distributions" (§1). Where the
//! [`DriftTracker`](crate::DriftTracker) only *refreshes the model* of
//! a fixed configuration, a [`TuningPolicy`] re-evaluates the
//! configuration itself — the V1–V3 value orders and binary search
//! ([`SearchStrategy`]) crossed with the natural/A1/A2 attribute orders
//! ([`AttributeOrder`]) — and recommends a retune only when the
//! predicted cost improvement clears a threshold, so a service never
//! pays a rebuild for a marginal win.
//!
//! The decision is purely advisory: callers (e.g. the `ens-service`
//! broker) stage the rebuild through their usual snapshot-swap commit
//! protocol and can abandon it without side effects.

use ens_dist::JointDist;
use ens_types::ProfileSet;
use serde::{Deserialize, Serialize};

use crate::cost::CostModel;
use crate::order::SearchStrategy;
use crate::selectivity::AttributeMeasure;
use crate::tree::{AttributeOrder, ProfileTree, TreeConfig};
use crate::{Direction, FilterError, ValueOrder};

/// When (and among which candidates) a filter re-chooses its structure.
///
/// The candidate space is the cross product of
/// [`TuningPolicy::strategies`] and [`TuningPolicy::attribute_orders`].
/// An empty cross product disables tuning entirely — that is the
/// [`Default`], so embedding this policy in a service configuration
/// changes nothing until the operator opts in (typically via
/// [`TuningPolicy::standard`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningPolicy {
    /// Minimum predicted fractional cost improvement
    /// (`1 − best/stale`, unitless in `[0, 1]`) a candidate must clear
    /// before a retune is recommended. `0.0` retunes on any predicted
    /// win; values around `0.1`–`0.2` avoid rebuild churn near
    /// break-even.
    pub min_improvement: f64,
    /// Candidate per-node search strategies (paper §4.2: the eight
    /// linear value orders and binary search).
    pub strategies: Vec<SearchStrategy>,
    /// Candidate tree-level attribute orders (paper §4.1: natural and
    /// the selectivity measures). A3 is deliberately absent from
    /// [`TuningPolicy::standard`] — its `O(n!)` search is "only
    /// sensible for applications with stable distributions" (§4.1),
    /// the opposite of the drifting workloads a tuner serves.
    pub attribute_orders: Vec<AttributeOrder>,
}

impl Default for TuningPolicy {
    /// Tuning disabled: no candidates, infinite threshold.
    fn default() -> Self {
        TuningPolicy {
            min_improvement: f64::INFINITY,
            strategies: Vec::new(),
            attribute_orders: Vec::new(),
        }
    }
}

impl TuningPolicy {
    /// The standard candidate battery: the distribution-sensitive
    /// linear orders the paper evaluates (natural, V1/V2/V3 descending)
    /// plus binary search, crossed with the natural, A1-descending and
    /// A2-descending attribute orders, at a 10 % improvement threshold.
    ///
    /// # Example
    ///
    /// ```
    /// use ens_filter::TuningPolicy;
    ///
    /// let policy = TuningPolicy::standard();
    /// assert!(policy.is_enabled());
    /// assert_eq!(policy.candidate_count(), 5 * 3);
    /// assert!(!TuningPolicy::default().is_enabled());
    /// ```
    #[must_use]
    pub fn standard() -> Self {
        let selectivity = |measure| AttributeOrder::Selectivity {
            measure,
            direction: Direction::Descending,
        };
        TuningPolicy {
            min_improvement: 0.10,
            strategies: vec![
                SearchStrategy::Linear(ValueOrder::Natural(Direction::Ascending)),
                SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
                SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending)),
                SearchStrategy::Linear(ValueOrder::Combined(Direction::Descending)),
                SearchStrategy::Binary,
            ],
            attribute_orders: vec![
                AttributeOrder::Natural,
                selectivity(AttributeMeasure::A1),
                selectivity(AttributeMeasure::A2),
            ],
        }
    }

    /// Whether the candidate space is non-empty.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.strategies.is_empty() && !self.attribute_orders.is_empty()
    }

    /// Number of `(strategy, attribute order)` candidates evaluated per
    /// tuning pass.
    #[must_use]
    pub fn candidate_count(&self) -> usize {
        self.strategies.len() * self.attribute_orders.len()
    }

    /// Prices every candidate configuration for `profiles` under the
    /// estimated event model `joint` and compares the best against the
    /// cost of keeping the current structure unchanged under the same
    /// model: `current` (the stale compiled tree) plus a floor of one
    /// comparison per event for each of the `overlay_len` profiles
    /// still matched by the incremental side-matcher (a candidate tree
    /// folds them in, the stale structure pays them on every event).
    /// The floor is a deliberate under-estimate, so the decision stays
    /// conservative.
    ///
    /// Candidates that fail to build (e.g. an A3 order on a too-wide
    /// schema) are skipped. `base` supplies everything a candidate does
    /// not re-decide (ablation flags, profile weights).
    ///
    /// Tombstoned (unsubscribed but still compiled) profiles remain in
    /// `current` and genuinely cost operations on every event, while
    /// candidates are priced over the live set only — that asymmetry
    /// is intentional: a retune accepted on the tombstone margin
    /// reclaims real per-event cost by folding them out.
    ///
    /// The winning candidate's tree — `profiles` compiled under `base`
    /// with the decision's attribute order and search strategy and
    /// `joint` for an event model — is handed back with the decision,
    /// so a caller that accepts it commits the tree that was priced
    /// instead of building it a second time. `None` when no candidate
    /// could be built.
    ///
    /// # Errors
    ///
    /// Propagates cost-model errors for the *stale* evaluation — if the
    /// current tree cannot be priced under `joint` (arity/domain
    /// mismatch), the caller's estimate pipeline is broken and tuning
    /// must not silently proceed.
    pub fn evaluate(
        &self,
        current: &ProfileTree,
        overlay_len: usize,
        profiles: &ProfileSet,
        base: &TreeConfig,
        joint: &JointDist,
    ) -> Result<(RetuneDecision, Option<ProfileTree>), FilterError> {
        let stale_ops = CostModel::new(current, joint)?
            .evaluate()?
            .expected_total_ops()
            + overlay_len as f64;
        let mut best: Option<(f64, SearchStrategy, AttributeOrder, ProfileTree)> = None;
        for &search in &self.strategies {
            for order in &self.attribute_orders {
                let config = TreeConfig {
                    attribute_order: order.clone(),
                    search,
                    event_model: Some(joint.clone()),
                    ..base.clone()
                };
                let Ok(tree) = ProfileTree::build(profiles, &config) else {
                    continue;
                };
                let Ok(cost) = CostModel::new(&tree, joint).and_then(|m| m.evaluate()) else {
                    continue;
                };
                let ops = cost.expected_total_ops();
                if best.as_ref().is_none_or(|(b, ..)| ops < *b) {
                    best = Some((ops, search, config.attribute_order, tree));
                }
            }
        }
        let (best_ops, search, attribute_order, tree) = match best {
            Some((ops, search, order, tree)) => (ops, search, order, Some(tree)),
            None => (stale_ops, base.search, base.attribute_order.clone(), None),
        };
        let decision = RetuneDecision {
            stale_ops,
            best_ops,
            search,
            attribute_order,
            accepted: false,
        };
        // A retune must predict a *strict* win: with `min_improvement:
        // 0.0` a zero-improvement candidate (or the stale fallback when
        // every candidate failed to build) would otherwise trigger an
        // endless rebuild-for-nothing loop on every drift fire.
        let accepted = stale_ops > 0.0
            && decision.best_ops < decision.stale_ops
            && decision.improvement() >= self.min_improvement;
        Ok((
            RetuneDecision {
                accepted,
                ..decision
            },
            tree,
        ))
    }
}

/// The outcome of one tuning pass (see [`TuningPolicy::evaluate`]).
///
/// # Example
///
/// ```
/// use ens_dist::{Density, DistOverDomain, JointDist};
/// use ens_filter::{ProfileTree, TreeConfig, TuningPolicy};
/// use ens_types::{Domain, Predicate, ProfileSet, Schema};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("x", Predicate::between(0, 9)))?;
/// ps.insert_with(|b| b.predicate("x", Predicate::between(90, 99)))?;
///
/// // The stale tree was built with no model: natural ascending order.
/// let stale = ProfileTree::build(&ps, &TreeConfig::default())?;
/// // Traffic turns out to concentrate on the high band.
/// let est = JointDist::independent(vec![
///     DistOverDomain::new(Density::window(0.9, 1.0), 100),
/// ])?;
/// let (decision, tuned) =
///     TuningPolicy::standard().evaluate(&stale, 0, &ps, &TreeConfig::default(), &est)?;
/// assert!(decision.accepted, "scanning the hot band first must win");
/// assert!(decision.best_ops < decision.stale_ops);
/// assert!(tuned.is_some(), "the tree that was priced comes with it");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetuneDecision {
    /// Expected comparison operations per event (Eq. 2) of the current
    /// tree under the fresh distribution estimate.
    pub stale_ops: f64,
    /// Expected operations per event of the best candidate.
    pub best_ops: f64,
    /// The best candidate's per-node search strategy.
    pub search: SearchStrategy,
    /// The best candidate's attribute order.
    pub attribute_order: AttributeOrder,
    /// Whether the improvement clears
    /// [`TuningPolicy::min_improvement`].
    pub accepted: bool,
}

impl RetuneDecision {
    /// Predicted fractional improvement `1 − best/stale` (0 when the
    /// stale tree costs nothing, i.e. the profile set is empty).
    #[must_use]
    pub fn improvement(&self) -> f64 {
        if self.stale_ops > 0.0 {
            1.0 - self.best_ops / self.stale_ops
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matcher;
    use ens_dist::{Density, DistOverDomain};
    use ens_types::{Domain, Event, IndexedEvent, Predicate, Schema};

    fn banded_profiles(schema: &Schema, bands: &[(i64, i64)]) -> ProfileSet {
        let mut ps = ProfileSet::new(schema);
        for (lo, hi) in bands {
            ps.insert_with(|b| b.predicate("x", Predicate::between(*lo, *hi)))
                .unwrap();
        }
        ps
    }

    fn schema() -> Schema {
        Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .build()
    }

    #[test]
    fn disabled_policy_never_accepts() {
        let schema = schema();
        let ps = banded_profiles(&schema, &[(0, 9), (90, 99)]);
        let stale = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let est = JointDist::independent(vec![DistOverDomain::new(Density::window(0.9, 1.0), 100)])
            .unwrap();
        let (d, tree) = TuningPolicy::default()
            .evaluate(&stale, 0, &ps, &TreeConfig::default(), &est)
            .unwrap();
        assert!(!d.accepted && tree.is_none());
        assert_eq!(d.best_ops, d.stale_ops, "no candidates: stale is best");
        assert_eq!(d.improvement(), 0.0);
    }

    #[test]
    fn high_threshold_declines_marginal_wins() {
        let schema = schema();
        let ps = banded_profiles(&schema, &[(0, 49), (50, 99)]);
        let config = TreeConfig::default();
        let stale = ProfileTree::build(&ps, &config).unwrap();
        // Uniform traffic: nothing beats the stale tree by much.
        let est = JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 100)]).unwrap();
        let policy = TuningPolicy {
            min_improvement: 0.9,
            ..TuningPolicy::standard()
        };
        let (d, _) = policy.evaluate(&stale, 0, &ps, &config, &est).unwrap();
        assert!(!d.accepted, "{d:?}");
        assert!(d.best_ops <= d.stale_ops + 1e-9);
    }

    #[test]
    fn zero_threshold_still_requires_a_strict_win() {
        let schema = schema();
        let ps = banded_profiles(&schema, &[(0, 9), (50, 59)]);
        let config = TreeConfig::default();
        let stale = ProfileTree::build(&ps, &config).unwrap();
        let est = JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 100)]).unwrap();
        // The only candidate is the stale configuration itself: equal
        // cost, so even `min_improvement: 0.0` must decline.
        let policy = TuningPolicy {
            min_improvement: 0.0,
            strategies: vec![config.search],
            attribute_orders: vec![config.attribute_order.clone()],
        };
        let (d, _) = policy.evaluate(&stale, 0, &ps, &config, &est).unwrap();
        assert!((d.best_ops - d.stale_ops).abs() < 1e-12, "{d:?}");
        assert!(!d.accepted, "equal cost is not a win: {d:?}");
    }

    #[test]
    fn empty_profile_set_never_retunes() {
        let schema = schema();
        let ps = ProfileSet::new(&schema);
        let stale = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let est = JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 100)]).unwrap();
        let (d, _) = TuningPolicy::standard()
            .evaluate(&stale, 0, &ps, &TreeConfig::default(), &est)
            .unwrap();
        assert!(!d.accepted);
        assert_eq!(d.improvement(), 0.0);
    }

    #[test]
    fn model_mismatch_is_an_error() {
        let schema = schema();
        let ps = banded_profiles(&schema, &[(0, 9)]);
        let stale = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let wrong = JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 7)]).unwrap();
        assert!(TuningPolicy::standard()
            .evaluate(&stale, 0, &ps, &TreeConfig::default(), &wrong)
            .is_err());
    }

    /// The retuned configuration must deliver exactly the same matches
    /// as the stale one — correctness is ordering-invariant (the
    /// filter-level half of the broker's retune oracle).
    #[test]
    fn retuned_tree_matches_identically() {
        let schema = schema();
        let bands: Vec<(i64, i64)> = (0..20).map(|k| (k * 5, k * 5 + 3)).collect();
        let ps = banded_profiles(&schema, &bands);
        let config = TreeConfig::default();
        let stale = ProfileTree::build(&ps, &config).unwrap();
        let est =
            JointDist::independent(vec![DistOverDomain::new(Density::gaussian(0.9, 0.05), 100)])
                .unwrap();
        let (d, tuned) = TuningPolicy::standard()
            .evaluate(&stale, 0, &ps, &config, &est)
            .unwrap();
        assert!(d.accepted, "{d:?}");
        let tuned = tuned.expect("an accepted decision comes with its tree");
        let mut indexed = IndexedEvent::new();
        let mut a = crate::MatchScratch::new();
        let mut b = crate::MatchScratch::new();
        use crate::Matcher;
        for x in 0..100 {
            let e = Event::builder(&schema).value("x", x).unwrap().build();
            indexed.resolve_into(&schema, &e).unwrap();
            stale.match_into(&indexed, &mut a);
            tuned.match_into(&indexed, &mut b);
            assert_eq!(a.profiles(), b.profiles(), "x={x}");
        }
    }

    #[test]
    fn hot_band_prediction_reduces_measured_ops() {
        let schema = schema();
        let bands: Vec<(i64, i64)> = (0..20).map(|k| (k * 5, k * 5 + 3)).collect();
        let ps = banded_profiles(&schema, &bands);
        // Stale: optimised for a low-band workload under V1.
        let low = JointDist::independent(vec![DistOverDomain::new(Density::window(0.0, 0.1), 100)])
            .unwrap();
        let config = TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            event_model: Some(low.clone()),
            ..TreeConfig::default()
        };
        let stale = ProfileTree::build(&ps, &config).unwrap();
        // Traffic migrated to the high band.
        let high =
            JointDist::independent(vec![DistOverDomain::new(Density::window(0.9, 1.0), 100)])
                .unwrap();
        let (d, tuned) = TuningPolicy::standard()
            .evaluate(&stale, 0, &ps, &config, &high)
            .unwrap();
        assert!(d.accepted, "{d:?}");
        let tuned = tuned.expect("an accepted decision comes with its tree");
        // Measured ops on hot-band events: retuned must be cheaper.
        let mut stale_ops = 0u64;
        let mut tuned_ops = 0u64;
        for x in 90..100 {
            let e = Event::builder(&schema).value("x", x).unwrap().build();
            stale_ops += stale.match_event(&schema, &e).unwrap().ops();
            tuned_ops += tuned.match_event(&schema, &e).unwrap().ops();
        }
        assert!(
            tuned_ops < stale_ops,
            "tuned {tuned_ops} vs stale {stale_ops} ops (decision {d:?})"
        );
    }
}
