//! Attribute-selectivity measures A1–A3 (paper §4.1).
//!
//! The distribution-based algorithm puts attributes with high selectivity
//! at the top of the tree so that non-matching events are dismissed as
//! early as possible:
//!
//! * **A1** — `s_att(a_j) = d0(a_j) / d_j`: the fraction of the domain no
//!   profile references, independent of the event distribution.
//! * **A2** — `s_att(a_j) = d0(a_j) · Pe(D0(a_j)) / d_j`: additionally
//!   weights the zero-subdomain by the probability that events actually
//!   fall into it. (The worked numbers in the paper's Example 3 quote
//!   `Pe(D0)` alone for `a2`; both variants produce the same ordering
//!   there — we implement the printed formula.)
//! * **A3** — the conditional-probability measure. The paper describes it
//!   as ordering attributes "such that the sum of the zero-subdomains is
//!   maximal" under the tree-shape-dependent conditional distributions
//!   and prices it at `O(n! · (2p-1))`. We implement it literally as an
//!   exhaustive search over attribute permutations minimising the
//!   model-expected filter operations.

use ens_dist::{DistOverDomain, JointDist};
use ens_types::{AttrId, ProfileSet};
use serde::{Deserialize, Serialize};

use crate::cost::CostModel;
use crate::dfsa::Dfsa;
use crate::order::SearchStrategy;
use crate::subrange::AttributePartition;
use crate::tree::{AttributeOrder, TreeConfig};
use crate::{Direction, FilterError};

/// Maximum number of attributes for the exact A3 permutation search.
pub const A3_MAX_ATTRIBUTES: usize = 6;

/// The attribute-selectivity measures of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttributeMeasure {
    /// Zero-subdomain fraction `d0 / d` (distribution-free).
    A1,
    /// Event-weighted zero-subdomain `d0 · Pe(D0) / d`.
    A2,
    /// Exhaustive conditional-cost search (`O(n!)`, paper: "only
    /// sensible for applications with stable distributions").
    A3,
}

impl AttributeMeasure {
    /// Whether this measure requires an event distribution model.
    #[must_use]
    pub fn needs_event_model(self) -> bool {
        matches!(self, AttributeMeasure::A2 | AttributeMeasure::A3)
    }
}

/// Computes the per-attribute selectivities for measures A1 and A2
/// (schema order).
///
/// # Errors
///
/// Returns [`FilterError::MissingDistribution`] if A2 is requested
/// without marginals, and rejects A3 (which does not reduce to a single
/// score per attribute; use [`order_attributes`]).
pub fn attribute_selectivities(
    measure: AttributeMeasure,
    partitions: &[AttributePartition],
    marginals: Option<&[DistOverDomain]>,
) -> Result<Vec<f64>, FilterError> {
    match measure {
        AttributeMeasure::A1 => Ok(partitions
            .iter()
            .map(|p| p.zero_len() as f64 / p.domain_size() as f64)
            .collect()),
        AttributeMeasure::A2 => {
            let marginals = marginals.ok_or_else(|| FilterError::MissingDistribution {
                needed_by: "attribute measure A2".into(),
            })?;
            Ok(partitions
                .iter()
                .zip(marginals)
                .map(|(p, m)| {
                    if p.zero_len() == 0 {
                        return 0.0;
                    }
                    let pe_d0: f64 = p.zero_cells().map(|c| m.mass_of(c.interval())).sum();
                    p.zero_len() as f64 * pe_d0 / p.domain_size() as f64
                })
                .collect())
        }
        AttributeMeasure::A3 => Err(FilterError::ModelMismatch {
            message: "A3 produces an ordering, not per-attribute scores; use order_attributes"
                .into(),
        }),
    }
}

/// Resolves the attribute order for a [`crate::TreeConfig`] with
/// [`crate::AttributeOrder::Selectivity`].
///
/// `Descending` places the most selective attribute at the root;
/// `Ascending` is the paper's worst-case control.
///
/// # Errors
///
/// * [`FilterError::MissingDistribution`] for A2/A3 without a model;
/// * [`FilterError::TooManyAttributes`] for A3 beyond
///   [`A3_MAX_ATTRIBUTES`].
pub fn order_attributes(
    measure: AttributeMeasure,
    direction: Direction,
    profiles: &ProfileSet,
    partitions: &[AttributePartition],
    marginals: Option<&[DistOverDomain]>,
    strategy: SearchStrategy,
) -> Result<Vec<AttrId>, FilterError> {
    if let AttributeMeasure::A3 = measure {
        let order = a3_order(profiles, marginals, strategy)?;
        return Ok(match direction {
            Direction::Descending => order,
            Direction::Ascending => order.into_iter().rev().collect(),
        });
    }
    let scores = attribute_selectivities(measure, partitions, marginals)?;
    let mut ids: Vec<AttrId> = (0..scores.len() as u32).map(AttrId::new).collect();
    ids.sort_by(|a, b| {
        let (sa, sb) = (scores[a.index()], scores[b.index()]);
        let ord = sa.partial_cmp(&sb).expect("finite selectivities");
        match direction {
            // Highest selectivity first; ties keep natural order.
            Direction::Descending => ord.reverse().then(a.cmp(b)),
            Direction::Ascending => ord.then(a.cmp(b)),
        }
    });
    Ok(ids)
}

/// Exhaustive A3 search: the permutation with minimal model-expected
/// operations per event.
fn a3_order(
    profiles: &ProfileSet,
    marginals: Option<&[DistOverDomain]>,
    strategy: SearchStrategy,
) -> Result<Vec<AttrId>, FilterError> {
    let marginals = marginals.ok_or_else(|| FilterError::MissingDistribution {
        needed_by: "attribute measure A3".into(),
    })?;
    let n = profiles.schema().len();
    if n > A3_MAX_ATTRIBUTES {
        return Err(FilterError::TooManyAttributes {
            n,
            max: A3_MAX_ATTRIBUTES,
        });
    }
    let joint = JointDist::independent(marginals.to_vec())?;

    let mut best: Option<(f64, Vec<AttrId>)> = None;
    let mut perm: Vec<AttrId> = (0..n as u32).map(AttrId::new).collect();
    permute(
        &mut perm,
        0,
        &mut |order: &[AttrId]| -> Result<(), FilterError> {
            let config = TreeConfig {
                attribute_order: AttributeOrder::Explicit(order.to_vec()),
                search: strategy,
                event_model: Some(joint.clone()),
                ..TreeConfig::default()
            };
            let tree = Dfsa::build(profiles, &config)?;
            let cost = CostModel::new(&tree, &joint)?
                .evaluate()?
                .expected_total_ops();
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, order.to_vec()));
            }
            Ok(())
        },
    )?;
    Ok(best.expect("at least one permutation").1)
}

fn permute<F>(items: &mut [AttrId], k: usize, visit: &mut F) -> Result<(), FilterError>
where
    F: FnMut(&[AttrId]) -> Result<(), FilterError>,
{
    if k == items.len() {
        return visit(items);
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit)?;
        items.swap(k, i);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_dist::Density;
    use ens_types::{Domain, Predicate, Schema};

    /// Example 1 of the paper (see `tree::tests`).
    fn example1() -> ProfileSet {
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
        ps
    }

    fn partitions(ps: &ProfileSet) -> Vec<AttributePartition> {
        ps.schema()
            .iter()
            .map(|(id, a)| AttributePartition::build(ps.iter(), id, a.domain()).unwrap())
            .collect()
    }

    #[test]
    fn a1_reproduces_example3_ordering() {
        // Paper Example 3: s(a1) = 0.625, s(a2) = 0.75, s(a3) = 0 —
        // ordering a2 > a1 > a3. (Our grid counts give 49/81 and 74/101;
        // the ordering is identical.)
        let ps = example1();
        let parts = partitions(&ps);
        let s = attribute_selectivities(AttributeMeasure::A1, &parts, None).unwrap();
        assert!(s[1] > s[0] && s[0] > s[2], "{s:?}");
        assert_eq!(s[2], 0.0, "a3's don't-care profiles empty its D0");
        assert!((s[0] - 49.0 / 81.0).abs() < 1e-12);
        assert!((s[1] - 74.0 / 101.0).abs() < 1e-12);

        let order = order_attributes(
            AttributeMeasure::A1,
            Direction::Descending,
            &ps,
            &parts,
            None,
            SearchStrategy::default(),
        )
        .unwrap();
        assert_eq!(
            order,
            vec![AttrId::new(1), AttrId::new(0), AttrId::new(2)],
            "paper: reordering by A1 puts a2 first"
        );
    }

    /// The Example-2/3 event marginals as window mixtures over the grids.
    fn example3_marginals() -> Vec<DistOverDomain> {
        let w = |lo: f64, hi: f64, d: f64| Density::window(lo / d, hi / d);
        // a1 (81 points): x1 [0,11) 2%, gap [11,60) 17%, x2 [60,65) 1%,
        // x3 [65,81) 80%.
        let a1 = Density::Mixture(vec![
            (0.02, w(0.0, 11.0, 81.0)),
            (0.17, w(11.0, 60.0, 81.0)),
            (0.01, w(60.0, 65.0, 81.0)),
            (0.80, w(65.0, 81.0, 81.0)),
        ]);
        // a2 (101 points): [0,6) 5%, gap [6,80) 60%, [80,90) 25%,
        // [90,101) 10%.
        let a2 = Density::Mixture(vec![
            (0.05, w(0.0, 6.0, 101.0)),
            (0.60, w(6.0, 80.0, 101.0)),
            (0.25, w(80.0, 90.0, 101.0)),
            (0.10, w(90.0, 101.0, 101.0)),
        ]);
        // a3 (100 points, domain [1,100]): [0,34) 90%, [34,39) 5%,
        // [39,50) 2%, [50,100) 3%.
        let a3 = Density::Mixture(vec![
            (0.90, w(0.0, 34.0, 100.0)),
            (0.05, w(34.0, 39.0, 100.0)),
            (0.02, w(39.0, 50.0, 100.0)),
            (0.03, w(50.0, 100.0, 100.0)),
        ]);
        vec![
            DistOverDomain::new(a1, 81),
            DistOverDomain::new(a2, 101),
            DistOverDomain::new(a3, 100),
        ]
    }

    #[test]
    fn a2_requires_model_and_orders_like_paper() {
        let ps = example1();
        let parts = partitions(&ps);
        assert!(matches!(
            attribute_selectivities(AttributeMeasure::A2, &parts, None),
            Err(FilterError::MissingDistribution { .. })
        ));
        let marginals = example3_marginals();
        let s = attribute_selectivities(AttributeMeasure::A2, &parts, Some(&marginals)).unwrap();
        // Paper Example 3 (Measure A2): same ordering as A1 here —
        // a2 > a1 > a3 with s(a3) = 0.
        assert!(s[1] > s[0] && s[0] > s[2], "{s:?}");
        assert_eq!(s[2], 0.0);
        // Pe(D0(a2)) = 0.6, d0/d = 74/101.
        assert!((s[1] - 0.6 * 74.0 / 101.0).abs() < 1e-9);
    }

    #[test]
    fn ascending_is_reverse_of_descending() {
        let ps = example1();
        let parts = partitions(&ps);
        let desc = order_attributes(
            AttributeMeasure::A1,
            Direction::Descending,
            &ps,
            &parts,
            None,
            SearchStrategy::default(),
        )
        .unwrap();
        let asc = order_attributes(
            AttributeMeasure::A1,
            Direction::Ascending,
            &ps,
            &parts,
            None,
            SearchStrategy::default(),
        )
        .unwrap();
        let mut rev = desc.clone();
        rev.reverse();
        assert_eq!(asc, rev);
    }

    #[test]
    fn a3_finds_no_worse_order_than_natural_or_a1() {
        let ps = example1();
        let parts = partitions(&ps);
        let marginals = example3_marginals();
        let joint = JointDist::independent(marginals.clone()).unwrap();
        let strategy = SearchStrategy::default();

        let a3 = order_attributes(
            AttributeMeasure::A3,
            Direction::Descending,
            &ps,
            &parts,
            Some(&marginals),
            strategy,
        )
        .unwrap();

        let cost_of = |order: Vec<AttrId>| -> f64 {
            let config = TreeConfig {
                attribute_order: AttributeOrder::Explicit(order),
                search: strategy,
                event_model: Some(joint.clone()),
                ..TreeConfig::default()
            };
            let tree = Dfsa::build(&ps, &config).unwrap();
            CostModel::new(&tree, &joint)
                .unwrap()
                .evaluate()
                .unwrap()
                .expected_total_ops()
        };

        let c_a3 = cost_of(a3);
        let c_nat = cost_of(vec![AttrId::new(0), AttrId::new(1), AttrId::new(2)]);
        let c_a1 = cost_of(vec![AttrId::new(1), AttrId::new(0), AttrId::new(2)]);
        assert!(c_a3 <= c_nat + 1e-9, "A3 {c_a3} vs natural {c_nat}");
        assert!(c_a3 <= c_a1 + 1e-9, "A3 {c_a3} vs A1 {c_a1}");
    }

    #[test]
    fn a3_rejects_large_schemas() {
        let mut b = Schema::builder();
        for i in 0..8 {
            b = b.attribute(format!("x{i}"), Domain::int(0, 9)).unwrap();
        }
        let schema = b.build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| b.predicate("x0", Predicate::eq(1)))
            .unwrap();
        let marginals: Vec<DistOverDomain> = (0..8)
            .map(|_| DistOverDomain::new(Density::Uniform, 10))
            .collect();
        let r = order_attributes(
            AttributeMeasure::A3,
            Direction::Descending,
            &ps,
            &partitions(&ps),
            Some(&marginals),
            SearchStrategy::default(),
        );
        assert!(matches!(r, Err(FilterError::TooManyAttributes { .. })));
    }
}
