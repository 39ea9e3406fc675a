//! Cost-model-driven self-tuning: pricing filter structures under the
//! estimated event distribution, and deciding whether a rebuild pays.
//!
//! This module closes the loop the paper sketches across §4 and §5: the
//! statistic objects (§4.2, [`FilterStatistics`](crate::FilterStatistics))
//! estimate the event distribution online, the analytic cost model
//! (Eq. 2, [`CostModel`]) prices candidate filter structures under that
//! estimate, and "an adaptive filter component … optimizes the profile
//! tree for certain applications based on the data distributions" (§1).
//! Where the [`DriftTracker`](crate::DriftTracker) only says that a
//! tree's model is stale, [`evaluate`] prices the [`candidates`] — the
//! tree's own shape, or the battery of V1–V3 value orders and binary
//! search ([`SearchStrategy`]) crossed with the natural/A1/A2 attribute
//! orders ([`AttributeOrder`]) — against the tree in place, and
//! [`price_rebuild`] decides whether the cheapest is worth its rebuild.
//!
//! The pricing is purely advisory: callers (e.g. the `ens-service`
//! broker) stage the rebuild through their usual snapshot-swap commit
//! protocol and can abandon it without side effects.

use ens_dist::JointDist;
use ens_types::{LoweredTable, Schema};
use serde::{Deserialize, Serialize};

use crate::cost::CostModel;
use crate::dfsa::Dfsa;
use crate::order::SearchStrategy;
use crate::selectivity::AttributeMeasure;
use crate::tree::{AttributeOrder, TreeConfig};
use crate::{Direction, FilterError, FilterSnapshot, ValueOrder};

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

/// What a rebuild is charged: how many events' filtering compiling one
/// profile costs. From two committed rows of `BENCH_throughput.json`:
/// a compaction at the broker's default configuration takes 2.3–2.4 µs
/// per profile (`broker_scaling.subscribe_latency`,
/// `full_rebuild_ns_p50` over `population`, 1000 to 8000 profiles), and
/// the flattened tree matches an event in 32 ns (environmental) to
/// 67 ns (stock) (`workloads[].matchers`, `dfsa_csr_scratch`): 34 to 75
/// events per profile, 40 taken. The same shape now re-measures at
/// ≈ 1.3 µs per profile at 1000 and ≈ 0.9 µs at 8000; the value stays
/// 40 until the price is re-derived. A constant and not the clock, so
/// that what a broker decides depends on what it was sent alone.
pub const REBUILD_EVENTS_PER_PROFILE: f64 = 40.0;

/// Why a drift trigger did not end in a rebuild ([`price_rebuild`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclineReason {
    /// Eq. 2 prices no candidate cheaper than the tree in place, or
    /// there is no candidate to price. The detector's baseline moves
    /// onto the priced estimate.
    NoSaving,
    /// The candidate is cheaper, but at the predicted saving the tree
    /// in place has not served long enough under its model for a
    /// rebuild to be covered. The baseline stays: the same trigger is
    /// priced again later.
    NotYetPaid,
}

/// The part of a tree configuration a retune re-decides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeShape {
    /// Order of the tree's levels.
    pub attribute_order: AttributeOrder,
    /// How a node's edges are searched.
    pub search: SearchStrategy,
}

impl TreeShape {
    /// The shape `config` compiles.
    #[must_use]
    pub fn of(config: &TreeConfig) -> Self {
        TreeShape {
            attribute_order: config.attribute_order.clone(),
            search: config.search,
        }
    }
}

/// The shapes a drift trigger on a tree compiled under `active` prices:
/// with `tuning`, the battery of the V1–V3 value orders and binary
/// search crossed with the natural/A1/A2 attribute orders; else
/// `active`'s own shape, and none where that shape reads no event
/// model, since recompiling it under the estimate gives back the tree
/// in place.
#[must_use]
pub fn candidates(active: &TreeConfig, tuning: bool) -> Vec<TreeShape> {
    if !tuning {
        return Vec::from_iter(active.uses_event_model().then(|| TreeShape::of(active)));
    }
    let orders = |search| {
        ATTRIBUTE_ORDERS.iter().map(move |order| TreeShape {
            attribute_order: order.clone(),
            search,
        })
    };
    STRATEGIES.into_iter().flat_map(orders).collect()
}

/// Prices each of `shapes` for `profiles`, lowered over `schema` (every
/// candidate reads the same table), under the estimated event model
/// `joint`, against the tree in place: `current`, priced by
/// [`FilterSnapshot::expected_ops`] under the same model. Each is
/// compiled under `joint` and `base`'s ablation flags and profile
/// weights; one that fails to build is skipped.
///
/// Tombstoned (unsubscribed but still compiled) profiles remain in
/// `current`'s automaton and genuinely cost operations on every event,
/// while candidates are priced over the live set only — that asymmetry
/// is intentional: a rebuild accepted on the tombstone margin reclaims
/// real per-event cost by folding them out.
///
/// The cheapest candidate's automaton is handed back with its price,
/// so a caller that accepts it commits the tree that was priced
/// instead of building it a second time. `None` when no candidate
/// could be built, priced as the tree in place: no saving.
///
/// # Errors
///
/// Propagates cost-model errors for the tree in place — if `current`
/// cannot be priced under `joint` (arity/domain mismatch), the
/// caller's estimate pipeline is broken and tuning must not silently
/// proceed.
pub fn evaluate(
    current: &FilterSnapshot,
    schema: &Schema,
    profiles: &LoweredTable,
    base: &TreeConfig,
    shapes: &[TreeShape],
    joint: &JointDist,
) -> Result<(RetuneDecision, Option<Dfsa>), FilterError> {
    let stale_ops = current.expected_ops(joint)?;
    let mut best: Option<(f64, &TreeShape, Dfsa)> = None;
    for shape in shapes {
        let config = TreeConfig {
            attribute_order: shape.attribute_order.clone(),
            search: shape.search,
            event_model: Some(joint.clone()),
            ..base.clone()
        };
        let Ok(tree) = Dfsa::build_lowered(schema, profiles, &config) else {
            continue;
        };
        let Ok(cost) = CostModel::new(&tree, joint).and_then(|m| m.evaluate()) else {
            continue;
        };
        let ops = cost.expected_total_ops();
        if best.as_ref().is_none_or(|(b, ..)| ops < *b) {
            best = Some((ops, shape, tree));
        }
    }
    let (best_ops, shape, tree) = match best {
        Some((ops, shape, tree)) => (ops, shape.clone(), Some(tree)),
        None => (stale_ops, TreeShape::of(base), None),
    };
    let decision = RetuneDecision {
        stale_ops,
        best_ops,
        shape,
    };
    Ok((decision, tree))
}

/// Whether a rebuild that Eq. 2 predicts takes a shard from `stale_ops`
/// to `new_ops` comparisons per event is taken: `None`, or why not.
/// One rule for every drift trigger, in this order:
///
/// 1. a saving of nothing or less (or none that is a number) is
///    declined as [`DeclineReason::NoSaving`];
/// 2. otherwise the warm-up (`served` is `None`: no estimate behind the
///    tree in place to weigh the new one against) is taken;
/// 3. otherwise the rebuild has to pay for itself, a ski-rental test
///    (Karlin, Manasse, Rudolph and Sleator, 1988). The tree in place
///    has served `served` events under the model it has, which is the
///    best guess for how long the next one will: the rebuild is worth
///    the share of those events' filtering it would have saved, and
///    that has to cover what compiling `compiled` profiles costs
///    ([`REBUILD_EVENTS_PER_PROFILE`]), or it is
///    [`DeclineReason::NotYetPaid`].
#[must_use]
pub fn price_rebuild(
    stale_ops: f64,
    new_ops: f64,
    served: Option<u64>,
    compiled: usize,
) -> Option<DeclineReason> {
    let saving = stale_ops - new_ops;
    if saving.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Some(DeclineReason::NoSaving);
    }
    let repaid = saving / stale_ops * served? as f64;
    (repaid < REBUILD_EVENTS_PER_PROFILE * compiled as f64).then_some(DeclineReason::NotYetPaid)
}

/// The outcome of one pricing pass (see [`evaluate`]).
///
/// # Example
///
/// ```
/// use ens_dist::{Density, DistOverDomain, JointDist};
/// use ens_filter::{tuning, FilterSnapshot, TreeConfig};
/// use ens_types::{Domain, LoweredTable, Predicate, ProfileSet, Schema};
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
/// let live = LoweredTable::lower(&schema, ps.iter())?;
/// let config = TreeConfig::default();
/// let battery = tuning::candidates(&config, true);
/// let (decision, tuned) = tuning::evaluate(&stale, &schema, &live, &config, &battery, &est)?;
/// assert!(decision.best_ops < decision.stale_ops, "scanning the hot band first must win");
/// assert!(tuned.is_some(), "the tree that was priced comes with it");
/// // At the warm-up any saving is taken; after it, the saving has to
/// // repay compiling the two profiles (80 events' filtering).
/// let price = |served| tuning::price_rebuild(decision.stale_ops, decision.best_ops, served, 2);
/// assert_eq!(price(None), None);
/// assert_eq!(price(Some(10)), Some(tuning::DeclineReason::NotYetPaid));
/// assert_eq!(price(Some(10_000)), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetuneDecision {
    /// Expected comparison operations per event of the tree in place
    /// under the fresh distribution estimate
    /// ([`FilterSnapshot::expected_ops`]).
    pub stale_ops: f64,
    /// Expected operations per event (Eq. 2) of the cheapest candidate.
    pub best_ops: f64,
    /// The cheapest candidate's shape.
    pub shape: TreeShape,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::ProfileSet;

    /// [`evaluate`] of `ps` over the tuner's battery.
    fn price(
        stale: &FilterSnapshot,
        ps: &ProfileSet,
        config: &TreeConfig,
        joint: &JointDist,
    ) -> Result<(RetuneDecision, Option<Dfsa>), FilterError> {
        let live = LoweredTable::lower(ps.schema(), ps.iter())?;
        let battery = candidates(config, true);
        evaluate(stale, ps.schema(), &live, config, &battery, joint)
    }
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
    fn marginal_wins_wait_to_be_paid() {
        let schema = schema();
        let ps = banded_profiles(&schema, &[(0, 49), (50, 99)]);
        let config = TreeConfig::default();
        let stale = FilterSnapshot::compile(&ps, &config).unwrap();
        // Traffic leans a little to the high band: scanning it first
        // saves under 10 %.
        let leaning = Density::steps([9.0, 11.0]).unwrap();
        let est = JointDist::independent(vec![DistOverDomain::new(leaning, 100)]).unwrap();
        let (d, _) = price(&stale, &ps, &config, &est).unwrap();
        let saving = d.stale_ops - d.best_ops;
        assert!(saving > 0.0 && saving < 0.1 * d.stale_ops, "{d:?}");
        // Taken at the warm-up; after it, only once the events served
        // at the old price would have repaid compiling the two
        // profiles.
        let paid_at = (REBUILD_EVENTS_PER_PROFILE * 2.0 * d.stale_ops / saving).ceil() as u64;
        let at = |served| price_rebuild(d.stale_ops, d.best_ops, served, 2);
        assert_eq!(at(None), None);
        assert_eq!(at(Some(paid_at - 1)), Some(DeclineReason::NotYetPaid));
        assert_eq!(at(Some(paid_at)), None);
    }

    #[test]
    fn rebuild_pricing() {
        use DeclineReason::{NoSaving, NotYetPaid};
        // No saving, or none that is a number: never, the warm-up
        // included.
        for served in [Some(u64::MAX), None] {
            assert_eq!(price_rebuild(10.0, 10.0, served, 1), Some(NoSaving));
            assert_eq!(price_rebuild(10.0, 12.0, served, 1), Some(NoSaving));
            assert_eq!(price_rebuild(0.0, 0.0, served, 1), Some(NoSaving));
            assert_eq!(price_rebuild(f64::NAN, 1.0, served, 1), Some(NoSaving));
        }
        // Half the comparisons saved: 100 profiles (4000 events' worth
        // of filtering to compile) are repaid by the 8000th event
        // served, not before.
        assert_eq!(price_rebuild(10.0, 5.0, Some(7999), 100), Some(NotYetPaid));
        assert_eq!(price_rebuild(10.0, 5.0, Some(8000), 100), None);
        // A 2 % saving — sampling noise on a large tree — takes 200 000.
        assert_eq!(
            price_rebuild(200.0, 196.0, Some(199_999), 100),
            Some(NotYetPaid)
        );
        assert_eq!(price_rebuild(200.0, 196.0, Some(200_000), 100), None);
    }

    #[test]
    fn tuning_selects_the_candidate_list() {
        let v1 = TreeConfig {
            search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            ..TreeConfig::default()
        };
        assert_eq!(candidates(&v1, false), [TreeShape::of(&v1)]);
        // The default shape reads no model: the tree in place again.
        assert_eq!(candidates(&TreeConfig::default(), false), []);
        for active in [&v1, &TreeConfig::default()] {
            let battery = candidates(active, true);
            assert_eq!(battery.len(), STRATEGIES.len() * ATTRIBUTE_ORDERS.len());
            assert!(battery.contains(&TreeShape::of(&v1)));
        }
    }

    #[test]
    fn empty_profile_set_never_retunes() {
        let schema = schema();
        let ps = ProfileSet::new(&schema);
        let stale = FilterSnapshot::compile(&ps, &TreeConfig::default()).unwrap();
        let est = JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 100)]).unwrap();
        let (d, _) = price(&stale, &ps, &TreeConfig::default(), &est).unwrap();
        // Nothing to save, so nothing to take (`rebuild_pricing`).
        assert_eq!((d.stale_ops, d.best_ops), (0.0, 0.0));
    }

    #[test]
    fn model_mismatch_is_an_error() {
        let schema = schema();
        let ps = banded_profiles(&schema, &[(0, 9)]);
        let stale = FilterSnapshot::compile(&ps, &TreeConfig::default()).unwrap();
        let wrong = JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 7)]).unwrap();
        assert!(price(&stale, &ps, &TreeConfig::default(), &wrong).is_err());
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
        let (d, tuned) = price(&stale, &ps, &config, &est).unwrap();
        assert!(d.best_ops < d.stale_ops, "{d:?}");
        let tuned = tuned.expect("the cheapest candidate comes with its tree");
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
        let (d, tuned) = price(&stale, &ps, &config, &high).unwrap();
        assert!(d.best_ops < d.stale_ops, "{d:?}");
        let tuned = tuned.expect("the cheapest candidate comes with its tree");
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
