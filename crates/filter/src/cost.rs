//! Analytic cost model: expected filter operations from distributions.
//!
//! Implements Eq. 2 of the paper and its multi-attribute extension: the
//! response time of the filter, measured in comparison operations, is
//!
//! ```text
//! R = Σ_j E(X_j | X_{j-1}, …, X_1)  +  Σ_j R0(Pe_j, x0_j)
//! ```
//!
//! where the first sum is the expected cost of successful edge
//! traversals and the second the cost of dismissing events that fall
//! into zero-subdomains. The evaluator walks the concrete
//! [`ProfileTree`] and weights every node-local cost (from
//! [`NodeOrdering`](crate::order::NodeOrdering)) with the exact
//! probability of reaching it under a [`JointDist`] event model — the
//! same computation the paper's TV4 test series performs ("average
//! #operations computed based on #operations and event distribution").

use ens_dist::JointDist;
use ens_types::{AttrId, IndexInterval};
use serde::{Deserialize, Serialize};

use crate::tree::{NodeRef, ProfileTree, Star};
use crate::FilterError;

/// Expected operations at one tree level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LevelCost {
    /// Attribute tested at this level.
    pub attr: AttrId,
    /// Expected operations spent by events that continue past this
    /// level (the paper's `E(X_j | …)`).
    pub match_ops: f64,
    /// Expected operations spent by events rejected at this level (the
    /// paper's `R0` share).
    pub reject_ops: f64,
}

/// Expected cost attributed to one profile.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ProfileCost {
    ops_weighted: f64,
    /// Probability that an event notifies this profile.
    pub prob: f64,
}

impl ProfileCost {
    /// Expected full-path operations given that this profile is
    /// notified (0 if it is never notified).
    #[must_use]
    pub fn ops_per_notification(&self) -> f64 {
        if self.prob > 0.0 {
            self.ops_weighted / self.prob
        } else {
            0.0
        }
    }
}

/// The full analytic cost breakdown of a tree under an event model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    per_level: Vec<LevelCost>,
    per_profile: Vec<ProfileCost>,
    match_probability: f64,
    expected_notifications: f64,
    profile_count: usize,
}

impl CostBreakdown {
    /// Expected successful-traversal operations per event
    /// (`Σ_j E(X_j | …)`).
    #[must_use]
    pub fn expected_match_ops(&self) -> f64 {
        self.per_level.iter().map(|l| l.match_ops).sum()
    }

    /// Expected rejection operations per event (`Σ_j R0`).
    #[must_use]
    pub fn expected_reject_ops(&self) -> f64 {
        self.per_level.iter().map(|l| l.reject_ops).sum()
    }

    /// Total expected operations per event (the paper's `R`).
    #[must_use]
    pub fn expected_total_ops(&self) -> f64 {
        self.expected_match_ops() + self.expected_reject_ops()
    }

    /// Per-level breakdown in tree-level order.
    #[must_use]
    pub fn per_level(&self) -> &[LevelCost] {
        &self.per_level
    }

    /// Per-profile cost attribution (indexed by profile id).
    #[must_use]
    pub fn per_profile(&self) -> &[ProfileCost] {
        &self.per_profile
    }

    /// Probability that an event matches at least one profile.
    #[must_use]
    pub fn match_probability(&self) -> f64 {
        self.match_probability
    }

    /// Expected number of notifications per event.
    #[must_use]
    pub fn expected_notifications(&self) -> f64 {
        self.expected_notifications
    }

    /// The user-centric metric of Fig. 5(b): the mean, over profiles
    /// that can be notified at all, of the expected path operations per
    /// notification.
    #[must_use]
    pub fn avg_ops_per_profile(&self) -> f64 {
        let active: Vec<f64> = self
            .per_profile
            .iter()
            .filter(|p| p.prob > 0.0)
            .map(ProfileCost::ops_per_notification)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }

    /// The combined metric of Fig. 5(c): expected operations per event,
    /// normalised by the number of profiles.
    #[must_use]
    pub fn ops_per_event_and_profile(&self) -> f64 {
        if self.profile_count == 0 {
            0.0
        } else {
            self.expected_total_ops() / self.profile_count as f64
        }
    }
}

/// Evaluator binding a tree to an event model.
///
/// # Example
///
/// ```
/// use ens_dist::{Density, DistOverDomain, JointDist};
/// use ens_filter::{CostModel, ProfileTree, TreeConfig};
/// use ens_types::{Schema, Domain, Predicate, ProfileSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))?;
/// let tree = ProfileTree::build(&ps, &TreeConfig::default())?;
/// let joint = JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 100)])?;
/// let cost = CostModel::new(&tree, &joint)?.evaluate()?;
/// // Every event pays exactly one comparison at the single node.
/// assert!((cost.expected_total_ops() - 1.0).abs() < 1e-9);
/// assert!((cost.match_probability() - 0.1).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CostModel<'a> {
    tree: &'a ProfileTree,
    joint: &'a JointDist,
}

impl<'a> CostModel<'a> {
    /// Binds `tree` to an event model.
    ///
    /// # Errors
    ///
    /// Returns [`FilterError::ModelMismatch`] if the model's arity or
    /// domain sizes disagree with the tree's schema.
    pub fn new(tree: &'a ProfileTree, joint: &'a JointDist) -> Result<Self, FilterError> {
        let schema = tree.schema();
        if joint.arity() != schema.len() {
            return Err(FilterError::ModelMismatch {
                message: format!("model arity {} vs schema {}", joint.arity(), schema.len()),
            });
        }
        for (j, (_, a)) in schema.iter().enumerate() {
            if joint.domain_size(j) != a.domain().size() {
                return Err(FilterError::ModelMismatch {
                    message: format!(
                        "attribute `{}`: model size {} vs domain size {}",
                        a.name(),
                        joint.domain_size(j),
                        a.domain().size()
                    ),
                });
            }
        }
        Ok(CostModel { tree, joint })
    }

    /// Runs the exact expectation over the tree.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn evaluate(&self) -> Result<CostBreakdown, FilterError> {
        let n_levels = self.tree.attribute_order().len();
        let mut acc = Acc {
            per_level: self
                .tree
                .attribute_order()
                .iter()
                .map(|a| LevelCost {
                    attr: *a,
                    match_ops: 0.0,
                    reject_ops: 0.0,
                })
                .collect(),
            per_profile: vec![ProfileCost::default(); self.tree.profile_count()],
            match_probability: 0.0,
            expected_notifications: 0.0,
        };
        let mut constraints: Vec<Option<IndexInterval>> =
            vec![None; n_levels.max(self.joint.arity())];
        self.walk(self.tree.root(), 0, &mut constraints, 0.0, &mut acc)?;
        Ok(CostBreakdown {
            per_level: acc.per_level,
            per_profile: acc.per_profile,
            match_probability: acc.match_probability,
            expected_notifications: acc.expected_notifications,
            profile_count: self.tree.profile_count(),
        })
    }

    fn walk(
        &self,
        node: &NodeRef,
        level: usize,
        constraints: &mut Vec<Option<IndexInterval>>,
        ops_so_far: f64,
        acc: &mut Acc,
    ) -> Result<(), FilterError> {
        match node {
            NodeRef::Empty => Ok(()),
            NodeRef::Leaf(l) => {
                let ids = self.tree.leaves().get(*l);
                let mass = self.joint.mass_of_box(constraints)?;
                if mass <= 0.0 {
                    return Ok(());
                }
                acc.match_probability += mass;
                acc.expected_notifications += mass * ids.len() as f64;
                for id in ids {
                    let pc = &mut acc.per_profile[id.index()];
                    pc.prob += mass;
                    pc.ops_weighted += mass * ops_so_far;
                }
                Ok(())
            }
            NodeRef::Inner(n) => {
                let j = n.attr.index();
                let domain_size = self.joint.domain_size(j);
                debug_assert!(constraints[j].is_none(), "attribute tested once per path");

                if n.edges.is_empty() {
                    // `*` edge: one operation, all values pass (as on
                    // an edge-less `Else` star, whose specific profiles
                    // admit no value at all).
                    if let Star::All(child) | Star::Else(child) = &n.star {
                        let mass = self.joint.mass_of_box(constraints)?;
                        if mass > 0.0 {
                            acc.per_level[level].match_ops += mass;
                            self.walk(child, level + 1, constraints, ops_so_far + 1.0, acc)?;
                        }
                    }
                    return Ok(());
                }

                // Specific edges.
                for (g, edge) in n.edges.iter().enumerate() {
                    constraints[j] = Some(edge.interval);
                    let mass = self.joint.mass_of_box(constraints)?;
                    constraints[j] = None;
                    if mass <= 0.0 {
                        continue;
                    }
                    let cost = f64::from(n.ordering.hit_cost[g]);
                    acc.per_level[level].match_ops += mass * cost;
                    constraints[j] = Some(edge.interval);
                    self.walk(&edge.child, level + 1, constraints, ops_so_far + cost, acc)?;
                    constraints[j] = None;
                }

                // Gap slots (zero-subdomain parts at this node).
                for g in 0..=n.edges.len() {
                    let lo = if g == 0 {
                        0
                    } else {
                        n.edges[g - 1].interval.hi()
                    };
                    let hi = if g == n.edges.len() {
                        domain_size
                    } else {
                        n.edges[g].interval.lo()
                    };
                    let gap = IndexInterval::new(lo, hi);
                    if gap.is_empty() {
                        continue;
                    }
                    constraints[j] = Some(gap);
                    let mass = self.joint.mass_of_box(constraints)?;
                    constraints[j] = None;
                    if mass <= 0.0 {
                        continue;
                    }
                    let miss = f64::from(n.ordering.miss_cost[g]);
                    match &n.star {
                        Star::Else(child) => {
                            // The event survives on the (*) edge: the
                            // scan plus one operation, then continues.
                            let cost = miss + 1.0;
                            acc.per_level[level].match_ops += mass * cost;
                            constraints[j] = Some(gap);
                            self.walk(child, level + 1, constraints, ops_so_far + cost, acc)?;
                            constraints[j] = None;
                        }
                        Star::None => {
                            acc.per_level[level].reject_ops += mass * miss;
                        }
                        Star::All(_) => unreachable!("All-star nodes have no edges"),
                    }
                }
                Ok(())
            }
        }
    }
}

struct Acc {
    per_level: Vec<LevelCost>,
    per_profile: Vec<ProfileCost>,
    match_probability: f64,
    expected_notifications: f64,
}

/// Convenience: total expected operations per event of `tree` under
/// `joint`.
///
/// # Errors
///
/// See [`CostModel::new`] and [`CostModel::evaluate`].
pub fn expected_ops(tree: &ProfileTree, joint: &JointDist) -> Result<f64, FilterError> {
    Ok(CostModel::new(tree, joint)?
        .evaluate()?
        .expected_total_ops())
}

#[cfg(test)]
mod golden {
    //! Golden reproductions of the paper's worked Examples 2 and 3.
    use super::*;
    use crate::order::{SearchStrategy, ValueOrder};
    use crate::tree::{AttributeOrder, TreeConfig};
    use crate::Direction;
    use ens_dist::{Density, DistOverDomain};
    use ens_types::{Domain, Predicate, ProfileSet, Schema};

    /// A single-attribute schema holding the paper's `a1` (temperature)
    /// with the Example-1 profile predicates on it.
    fn a1_only() -> ProfileSet {
        let schema = Schema::builder()
            .attribute("a1", Domain::int(-30, 50))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| b.predicate("a1", Predicate::ge(35)))
            .unwrap(); // P1
        ps.insert_with(|b| b.predicate("a1", Predicate::ge(30)))
            .unwrap(); // P2
        ps.insert_with(|b| b.predicate("a1", Predicate::ge(30)))
            .unwrap(); // P3
        ps.insert_with(|b| b.predicate("a1", Predicate::between(-30, -20)))
            .unwrap(); // P4
        ps.insert_with(|b| b.predicate("a1", Predicate::ge(30)))
            .unwrap(); // P5
        ps
    }

    /// Example 2's event distribution over the a1 grid: x1 = [-30,-20]
    /// (2%), x0 = (-20,30) (17%), x2 = [30,35) (1%), x3 = [35,50] (80%).
    fn a1_marginal() -> DistOverDomain {
        let w = |lo: f64, hi: f64| Density::window(lo / 81.0, hi / 81.0);
        DistOverDomain::new(
            Density::Mixture(vec![
                (0.02, w(0.0, 11.0)),
                (0.17, w(11.0, 60.0)),
                (0.01, w(60.0, 65.0)),
                (0.80, w(65.0, 81.0)),
            ]),
            81,
        )
    }

    fn evaluate(search: SearchStrategy) -> CostBreakdown {
        let ps = a1_only();
        let joint = JointDist::independent(vec![a1_marginal()]).unwrap();
        let config = TreeConfig {
            attribute_order: AttributeOrder::Natural,
            search,
            event_model: Some(joint.clone()),
            ..TreeConfig::default()
        };
        let tree = crate::ProfileTree::build(&ps, &config).unwrap();
        CostModel::new(&tree, &joint).unwrap().evaluate().unwrap()
    }

    #[test]
    fn example2_event_order_expectation() {
        // Paper: E(X) = 0.02*2 + 0.01*3 + 0.8*1 = 0.87, R0 = 2 * 0.17,
        // R = 1.21.
        let cost = evaluate(SearchStrategy::Linear(ValueOrder::EventProb(
            Direction::Descending,
        )));
        assert!((cost.expected_match_ops() - 0.87).abs() < 1e-9, "{cost:?}");
        assert!((cost.expected_reject_ops() - 0.34).abs() < 1e-9);
        assert!((cost.expected_total_ops() - 1.21).abs() < 1e-9);
    }

    #[test]
    fn example2_binary_search_expectation() {
        // Paper: E(X1) = 0.01*1 + 0.02*2 + 0.8*2 = 1.65, R0 = 0.34,
        // R = 1.99.
        let cost = evaluate(SearchStrategy::Binary);
        assert!((cost.expected_match_ops() - 1.65).abs() < 1e-9);
        assert!((cost.expected_total_ops() - 1.99).abs() < 1e-9);
    }

    #[test]
    fn example3_natural_order_first_level() {
        // Paper Example 3: E(X1) = 2.44 for the natural-order tree.
        let cost = evaluate(SearchStrategy::Linear(ValueOrder::Natural(
            Direction::Ascending,
        )));
        assert!((cost.expected_match_ops() - 2.44).abs() < 1e-9);
    }

    /// The full Example-1 profile set and Example-3 marginals.
    fn example1_with_marginals() -> (ProfileSet, JointDist) {
        let schema = Schema::builder()
            .attribute("a1", Domain::int(-30, 50))
            .unwrap()
            .attribute("a2", Domain::int(0, 100))
            .unwrap()
            .attribute("a3", Domain::int(1, 100))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(35))?
                .predicate("a2", Predicate::ge(90))
        })
        .unwrap();
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(30))?
                .predicate("a2", Predicate::ge(90))
        })
        .unwrap();
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(30))?
                .predicate("a2", Predicate::ge(90))?
                .predicate("a3", Predicate::between(35, 50))
        })
        .unwrap();
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::between(-30, -20))?
                .predicate("a2", Predicate::le(5))?
                .predicate("a3", Predicate::between(40, 100))
        })
        .unwrap();
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(30))?
                .predicate("a2", Predicate::ge(80))
        })
        .unwrap();

        let w = |lo: f64, hi: f64, d: f64| Density::window(lo / d, hi / d);
        let a1 = a1_marginal();
        let a2 = DistOverDomain::new(
            Density::Mixture(vec![
                (0.05, w(0.0, 6.0, 101.0)),
                (0.60, w(6.0, 80.0, 101.0)),
                (0.25, w(80.0, 90.0, 101.0)),
                (0.10, w(90.0, 101.0, 101.0)),
            ]),
            101,
        );
        let a3 = DistOverDomain::new(
            Density::Mixture(vec![
                (0.90, w(0.0, 34.0, 100.0)),
                (0.05, w(34.0, 39.0, 100.0)),
                (0.02, w(39.0, 50.0, 100.0)),
                (0.03, w(50.0, 100.0, 100.0)),
            ]),
            100,
        );
        let joint = JointDist::independent(vec![a1, a2, a3]).unwrap();
        (ps, joint)
    }

    #[test]
    fn example3_reordered_tree_levels() {
        // Attribute order (a2, a1, a3) — the paper's A1/A2 reordering.
        // Paper: E(X2) = 0.85 at the root and E(X1 | X2) = 0.364 at the
        // second level.
        let (ps, joint) = example1_with_marginals();
        let config = TreeConfig {
            attribute_order: AttributeOrder::Explicit(vec![
                ens_types::AttrId::new(1),
                ens_types::AttrId::new(0),
                ens_types::AttrId::new(2),
            ]),
            search: SearchStrategy::Linear(ValueOrder::Natural(Direction::Ascending)),
            event_model: Some(joint.clone()),
            ..TreeConfig::default()
        };
        let tree = crate::ProfileTree::build(&ps, &config).unwrap();
        let cost = CostModel::new(&tree, &joint).unwrap().evaluate().unwrap();
        let levels = cost.per_level();
        assert!((levels[0].match_ops - 0.85).abs() < 1e-9, "{levels:?}");
        assert!((levels[1].match_ops - 0.364).abs() < 5e-3, "{levels:?}");
    }

    #[test]
    fn example3_reordering_reduces_total_cost() {
        // The paper's headline: reordering by A1/A2 roughly halves the
        // expected number of operations (3.371 -> 1.91 in their
        // accounting). Our model must reproduce the direction and a
        // comparable magnitude of the improvement on match costs.
        let (ps, joint) = example1_with_marginals();
        let build = |order: Vec<u32>| {
            let config = TreeConfig {
                attribute_order: AttributeOrder::Explicit(
                    order.into_iter().map(ens_types::AttrId::new).collect(),
                ),
                search: SearchStrategy::Linear(ValueOrder::Natural(Direction::Ascending)),
                event_model: Some(joint.clone()),
                ..TreeConfig::default()
            };
            let tree = crate::ProfileTree::build(&ps, &config).unwrap();
            CostModel::new(&tree, &joint).unwrap().evaluate().unwrap()
        };
        let natural = build(vec![0, 1, 2]);
        let reordered = build(vec![1, 0, 2]);
        assert!(
            reordered.expected_match_ops() < natural.expected_match_ops(),
            "reordered {} vs natural {}",
            reordered.expected_match_ops(),
            natural.expected_match_ops()
        );
        let ratio = natural.expected_match_ops() / reordered.expected_match_ops();
        assert!(ratio > 1.3, "improvement factor {ratio}");
        // Both orders must agree on the match semantics.
        assert!((natural.match_probability() - reordered.match_probability()).abs() < 1e-9);
        assert!(
            (natural.expected_notifications() - reordered.expected_notifications()).abs() < 1e-9
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order::{SearchStrategy, ValueOrder};
    use crate::scratch::Matcher;
    use crate::tree::{AttributeOrder, TreeConfig};
    use crate::Direction;
    use ens_dist::{Density, DistOverDomain};
    use ens_types::{Domain, Event, Predicate, ProfileSet, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The analytic expectation must agree with brute-force measured
    /// averages over sampled events.
    #[test]
    fn analytic_agrees_with_measured_average() {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 49))
            .unwrap()
            .attribute("y", Domain::int(0, 29))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| {
            b.predicate("x", Predicate::between(5, 20))?
                .predicate("y", Predicate::ge(10))
        })
        .unwrap();
        ps.insert_with(|b| b.predicate("x", Predicate::between(15, 40)))
            .unwrap();
        ps.insert_with(|b| b.predicate("y", Predicate::le(4)))
            .unwrap();
        ps.insert_with(|b| {
            b.predicate("x", Predicate::eq(25))?
                .predicate("y", Predicate::eq(15))
        })
        .unwrap();

        let joint = JointDist::independent(vec![
            DistOverDomain::new(Density::gaussian(0.4, 0.25), 50),
            DistOverDomain::new(Density::falling(), 30),
        ])
        .unwrap();

        for search in [
            SearchStrategy::Linear(ValueOrder::Natural(Direction::Ascending)),
            SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
            SearchStrategy::Linear(ValueOrder::ProfileProb(Direction::Descending)),
            SearchStrategy::Binary,
        ] {
            let config = TreeConfig {
                attribute_order: AttributeOrder::Natural,
                search,
                event_model: Some(joint.clone()),
                ..TreeConfig::default()
            };
            let tree = crate::ProfileTree::build(&ps, &config).unwrap();
            let analytic = CostModel::new(&tree, &joint).unwrap().evaluate().unwrap();

            let mut rng = StdRng::seed_from_u64(99);
            let n = 60_000;
            let mut total_ops = 0u64;
            let mut matches = 0u64;
            let mut notifications = 0u64;
            for _ in 0..n {
                let idx = joint.sample(&mut rng);
                let e = Event::builder(&schema)
                    .value("x", idx[0] as i64)
                    .unwrap()
                    .value("y", idx[1] as i64)
                    .unwrap()
                    .build();
                let out = tree.match_event(&schema, &e).unwrap();
                total_ops += out.ops();
                notifications += out.profiles().len() as u64;
                if out.is_match() {
                    matches += 1;
                }
            }
            let measured = total_ops as f64 / n as f64;
            let expected = analytic.expected_total_ops();
            assert!(
                (measured - expected).abs() < 0.05 * expected.max(1.0),
                "{search:?}: measured {measured} vs analytic {expected}"
            );
            let measured_match = matches as f64 / n as f64;
            assert!(
                (measured_match - analytic.match_probability()).abs() < 0.02,
                "{search:?}: match prob {measured_match} vs {}",
                analytic.match_probability()
            );
            let measured_notif = notifications as f64 / n as f64;
            assert!(
                (measured_notif - analytic.expected_notifications()).abs() < 0.05,
                "{search:?}: notifications {measured_notif} vs {}",
                analytic.expected_notifications()
            );
        }
    }

    #[test]
    fn per_profile_costs_are_plausible() {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| b.predicate("x", Predicate::between(0, 9)))
            .unwrap();
        ps.insert_with(|b| b.predicate("x", Predicate::between(50, 59)))
            .unwrap();
        let joint =
            JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 100)]).unwrap();
        let tree = crate::ProfileTree::build(
            &ps,
            &TreeConfig {
                event_model: Some(joint.clone()),
                ..TreeConfig::default()
            },
        )
        .unwrap();
        let cost = CostModel::new(&tree, &joint).unwrap().evaluate().unwrap();
        let pp = cost.per_profile();
        assert_eq!(pp.len(), 2);
        assert!((pp[0].prob - 0.1).abs() < 1e-9);
        assert!((pp[1].prob - 0.1).abs() < 1e-9);
        // Natural ascending: profile 0's range is scanned first.
        assert!((pp[0].ops_per_notification() - 1.0).abs() < 1e-9);
        assert!((pp[1].ops_per_notification() - 2.0).abs() < 1e-9);
        assert!(cost.avg_ops_per_profile() > 1.0);
        assert!(cost.ops_per_event_and_profile() > 0.0);
    }

    #[test]
    fn model_mismatch_detected() {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 9))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| b.predicate("x", Predicate::eq(3)))
            .unwrap();
        let tree = crate::ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let wrong =
            JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 11)]).unwrap();
        assert!(matches!(
            CostModel::new(&tree, &wrong),
            Err(FilterError::ModelMismatch { .. })
        ));
    }

    #[test]
    fn empty_profile_set_costs_nothing() {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 9))
            .unwrap()
            .build();
        let ps = ProfileSet::new(&schema);
        let tree = crate::ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let joint =
            JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 10)]).unwrap();
        let cost = CostModel::new(&tree, &joint).unwrap().evaluate().unwrap();
        assert_eq!(cost.expected_total_ops(), 0.0);
        assert_eq!(cost.match_probability(), 0.0);
    }
}
