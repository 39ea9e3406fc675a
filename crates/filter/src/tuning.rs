//! Cost-model-driven self-tuning: choosing the filter structure from
//! the estimated event distribution.
//!
//! This module closes the loop the paper sketches across §4 and §5: the
//! statistic objects (§4.2, [`FilterStatistics`](crate::FilterStatistics))
//! estimate the event distribution online, the analytic cost model
//! (Eq. 2, [`CostModel`]) prices every candidate
//! filter structure under that estimate, and "an adaptive filter
//! component … optimizes the profile tree for certain applications
//! based on the data distributions" (§1). Where the
//! [`DriftTracker`](crate::DriftTracker) only *refreshes the model* of
//! a fixed configuration, [`evaluate`] re-evaluates the
//! configuration itself — the V1–V3 value orders and binary search
//! ([`SearchStrategy`]) crossed with the natural/A1/A2 attribute orders
//! ([`AttributeOrder`]) — and recommends a retune only when the
//! predicted cost improvement clears [`MIN_IMPROVEMENT`], so a service
//! never pays a rebuild for a marginal win.
//!
//! The decision is purely advisory: callers (e.g. the `ens-service`
//! broker) stage the rebuild through their usual snapshot-swap commit
//! protocol and can abandon it without side effects.

use ens_dist::JointDist;
use ens_types::ProfileSet;
use serde::{Deserialize, Serialize};

use crate::cost::CostModel;
use crate::dfsa::Dfsa;
use crate::order::SearchStrategy;
use crate::selectivity::AttributeMeasure;
use crate::tree::{AttributeOrder, TreeConfig};
use crate::{Direction, FilterError, FilterSnapshot, ValueOrder};

/// The smallest predicted fractional improvement (`1 − best/stale`) a
/// retune must clear: below it a rebuild buys too little to be worth
/// the churn near break-even.
pub const MIN_IMPROVEMENT: f64 = 0.10;

/// The candidate per-node searches — the distribution-sensitive linear
/// orders the paper evaluates (§4.2: natural, V1/V2/V3 descending) —
/// plus binary search.
const STRATEGIES: [SearchStrategy; 5] = [
    SearchStrategy::Linear(ValueOrder::Natural(Direction::Ascending)),
    SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
    SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending)),
    SearchStrategy::Linear(ValueOrder::Combined(Direction::Descending)),
    SearchStrategy::Binary,
];

/// The candidate attribute orders (§4.1: natural, A1 and A2
/// descending). A3 is deliberately absent — its `O(n!)` search is
/// "only sensible for applications with stable distributions" (§4.1),
/// the opposite of the drifting workloads a tuner serves.
const ATTRIBUTE_ORDERS: [AttributeOrder; 3] = [
    AttributeOrder::Natural,
    AttributeOrder::Selectivity {
        measure: AttributeMeasure::A1,
        direction: Direction::Descending,
    },
    AttributeOrder::Selectivity {
        measure: AttributeMeasure::A2,
        direction: Direction::Descending,
    },
];

/// Prices every candidate configuration — the V1–V3 value orders and
/// binary search crossed with the natural/A1/A2 attribute orders — for
/// `profiles` under the estimated event model `joint` and compares the
/// best against the cost of keeping the current structure unchanged
/// under the same model: `current` (the stale compiled snapshot,
/// priced on its automaton) plus a floor of one comparison per event
/// for each of the `overlay_len` profiles still matched by the
/// incremental side-matcher (a candidate tree folds them in, the stale
/// structure pays them on every event).
/// The floor is a deliberate under-estimate, so the decision stays
/// conservative.
///
/// Candidates that fail to build (e.g. an A3 order on a too-wide
/// schema) are skipped. `base` supplies everything a candidate does
/// not re-decide (ablation flags, profile weights).
///
/// Tombstoned (unsubscribed but still compiled) profiles remain in
/// `current`'s automaton and genuinely cost operations on every event,
/// while candidates are priced over the live set only — that asymmetry
/// is intentional: a retune accepted on the tombstone margin reclaims
/// real per-event cost by folding them out.
///
/// The winning candidate's automaton — `profiles` compiled under `base`
/// with the decision's attribute order and search strategy and
/// `joint` for an event model — is handed back with the decision,
/// so a caller that accepts it commits the tree that was priced
/// instead of building it a second time. `None` when no candidate
/// could be built.
///
/// # Errors
///
/// Propagates cost-model errors for the *stale* evaluation — if the
/// current snapshot cannot be priced under `joint` (arity/domain
/// mismatch), the caller's estimate pipeline is broken and tuning
/// must not silently proceed.
pub fn evaluate(
    current: &FilterSnapshot,
    overlay_len: usize,
    profiles: &ProfileSet,
    base: &TreeConfig,
    joint: &JointDist,
) -> Result<(RetuneDecision, Option<Dfsa>), FilterError> {
    let stale_ops = current.expected_ops(joint)? + overlay_len as f64;
    let mut best: Option<(f64, SearchStrategy, AttributeOrder, Dfsa)> = None;
    for search in STRATEGIES {
        for order in &ATTRIBUTE_ORDERS {
            let config = TreeConfig {
                attribute_order: order.clone(),
                search,
                event_model: Some(joint.clone()),
                ..base.clone()
            };
            let Ok(tree) = Dfsa::build(profiles, &config) else {
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
    let mut decision = RetuneDecision {
        stale_ops,
        best_ops,
        search,
        attribute_order,
        accepted: false,
    };
    decision.accepted = decision.improvement() >= MIN_IMPROVEMENT;
    Ok((decision, tree))
}

/// The outcome of one tuning pass (see [`evaluate`]).
///
/// # Example
///
/// ```
/// use ens_dist::{Density, DistOverDomain, JointDist};
/// use ens_filter::{tuning, FilterSnapshot, TreeConfig};
/// use ens_types::{Domain, Predicate, ProfileSet, Schema};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("x", Predicate::between(0, 9)))?;
/// ps.insert_with(|b| b.predicate("x", Predicate::between(90, 99)))?;
///
/// // The stale tree was built with no model: natural ascending order.
/// let stale = FilterSnapshot::compile(&ps, &TreeConfig::default())?;
/// // Traffic turns out to concentrate on the high band.
/// let est = JointDist::independent(vec![
///     DistOverDomain::new(Density::window(0.9, 1.0), 100),
/// ])?;
/// let (decision, tuned) =
///     tuning::evaluate(&stale, 0, &ps, &TreeConfig::default(), &est)?;
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
    /// Whether the improvement clears [`MIN_IMPROVEMENT`].
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
    fn high_threshold_declines_marginal_wins() {
        let schema = schema();
        let ps = banded_profiles(&schema, &[(0, 49), (50, 99)]);
        let config = TreeConfig::default();
        let stale = FilterSnapshot::compile(&ps, &config).unwrap();
        // Uniform traffic: nothing beats the stale tree by much.
        let est = JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 100)]).unwrap();
        let (d, _) = evaluate(&stale, 0, &ps, &config, &est).unwrap();
        assert!(!d.accepted, "{d:?}");
        assert!(d.improvement() < MIN_IMPROVEMENT, "{d:?}");
        assert!(d.best_ops <= d.stale_ops + 1e-9);
    }

    #[test]
    fn empty_profile_set_never_retunes() {
        let schema = schema();
        let ps = ProfileSet::new(&schema);
        let stale = FilterSnapshot::compile(&ps, &TreeConfig::default()).unwrap();
        let est = JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 100)]).unwrap();
        let (d, _) = evaluate(&stale, 0, &ps, &TreeConfig::default(), &est).unwrap();
        assert!(!d.accepted);
        assert_eq!(d.improvement(), 0.0);
    }

    #[test]
    fn model_mismatch_is_an_error() {
        let schema = schema();
        let ps = banded_profiles(&schema, &[(0, 9)]);
        let stale = FilterSnapshot::compile(&ps, &TreeConfig::default()).unwrap();
        let wrong = JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 7)]).unwrap();
        assert!(evaluate(&stale, 0, &ps, &TreeConfig::default(), &wrong).is_err());
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
        let stale = FilterSnapshot::compile(&ps, &config).unwrap();
        let est =
            JointDist::independent(vec![DistOverDomain::new(Density::gaussian(0.9, 0.05), 100)])
                .unwrap();
        let (d, tuned) = evaluate(&stale, 0, &ps, &config, &est).unwrap();
        assert!(d.accepted, "{d:?}");
        let tuned = tuned.expect("an accepted decision comes with its tree");
        let mut indexed = IndexedEvent::new();
        let mut a = crate::MatchScratch::new();
        let mut b = crate::MatchScratch::new();
        use crate::Matcher;
        for x in 0..100 {
            let e = Event::builder(&schema).value("x", x).unwrap().build();
            indexed.resolve_into(&schema, &e).unwrap();
            stale.dfsa().match_into(&indexed, &mut a);
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
        let stale = FilterSnapshot::compile(&ps, &config).unwrap();
        // Traffic migrated to the high band.
        let high =
            JointDist::independent(vec![DistOverDomain::new(Density::window(0.9, 1.0), 100)])
                .unwrap();
        let (d, tuned) = evaluate(&stale, 0, &ps, &config, &high).unwrap();
        assert!(d.accepted, "{d:?}");
        let tuned = tuned.expect("an accepted decision comes with its tree");
        // Measured ops on hot-band events: retuned must be cheaper.
        let mut stale_ops = 0u64;
        let mut tuned_ops = 0u64;
        for x in 90..100 {
            let e = Event::builder(&schema).value("x", x).unwrap().build();
            stale_ops += stale.dfsa().match_event(&schema, &e).unwrap().ops();
            tuned_ops += tuned.match_event(&schema, &e).unwrap().ops();
        }
        assert!(
            tuned_ops < stale_ops,
            "tuned {tuned_ops} vs stale {stale_ops} ops (decision {d:?})"
        );
    }
}
