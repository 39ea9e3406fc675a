//! Joint event models as per-attribute product distributions.

use ens_types::IndexInterval;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{DistError, DistOverDomain};

/// An independence-assuming joint distribution over `n` attributes.
///
/// This is the event model `Pe` the paper's analytic machinery runs on:
/// the cost model weights every tree path with the probability of the
/// box of values reaching it ([`JointDist::mass_of_box`]), and the
/// workload generators draw complete events from it
/// ([`JointDist::sample`]).
///
/// # Example
///
/// ```
/// use ens_dist::{Density, DistOverDomain, JointDist};
/// use ens_types::IndexInterval;
///
/// # fn main() -> Result<(), ens_dist::DistError> {
/// let joint = JointDist::independent(vec![
///     DistOverDomain::new(Density::Uniform, 10),
///     DistOverDomain::new(Density::window(0.0, 0.5), 10),
/// ])?;
/// assert_eq!(joint.arity(), 2);
/// // P(x in [0,5) and y unconstrained) = 0.5.
/// let mass = joint.mass_of_box(&[Some(IndexInterval::new(0, 5)), None])?;
/// assert!((mass - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointDist {
    marginals: Vec<DistOverDomain>,
}

impl JointDist {
    /// Builds a joint model from one marginal per attribute.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::ArityMismatch`] for an empty marginal list.
    pub fn independent(marginals: Vec<DistOverDomain>) -> Result<Self, DistError> {
        if marginals.is_empty() {
            return Err(DistError::ArityMismatch { got: 0, have: 1 });
        }
        Ok(JointDist { marginals })
    }

    /// Number of attributes.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.marginals.len()
    }

    /// Domain size of attribute `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= arity()`.
    #[must_use]
    pub fn domain_size(&self, j: usize) -> u64 {
        self.marginals[j].size()
    }

    /// A clone of the marginal of attribute `j` — a deep copy of its
    /// per-point tables, 16 bytes a domain point (318 kB for a
    /// 19,901-point attribute): borrow through
    /// [`JointDist::marginals`] unless the copy is what is wanted.
    ///
    /// # Panics
    ///
    /// Panics if `j >= arity()`.
    #[must_use]
    pub fn marginal(&self, j: usize) -> DistOverDomain {
        self.marginals[j].clone()
    }

    /// All marginals in attribute order.
    #[must_use]
    pub fn marginals(&self) -> &[DistOverDomain] {
        &self.marginals
    }

    /// Probability that an event falls into the axis-aligned box
    /// described by `constraints`: entry `j` constrains attribute `j`
    /// to an index interval, `None` leaves it free. The slice may be
    /// longer than the arity as long as the excess entries are `None`
    /// (the cost model sizes its scratch vector to the tree height).
    ///
    /// # Errors
    ///
    /// Returns [`DistError::ArityMismatch`] if a constraint addresses
    /// an attribute beyond the arity.
    pub fn mass_of_box(&self, constraints: &[Option<IndexInterval>]) -> Result<f64, DistError> {
        if let Some(pos) = constraints
            .iter()
            .skip(self.arity())
            .position(Option::is_some)
        {
            return Err(DistError::ArityMismatch {
                got: self.arity() + pos + 1,
                have: self.arity(),
            });
        }
        let mut mass = 1.0;
        for (m, c) in self.marginals.iter().zip(constraints) {
            if let Some(interval) = c {
                mass *= m.mass_of(interval);
                if mass == 0.0 {
                    return Ok(0.0);
                }
            }
        }
        Ok(mass)
    }

    /// Samples one complete event as a vector of grid indices
    /// (attribute order).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u64> {
        self.marginals.iter().map(|m| m.sample_index(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Density;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn joint() -> JointDist {
        JointDist::independent(vec![
            DistOverDomain::new(Density::window(0.0, 0.5), 10),
            DistOverDomain::new(Density::Uniform, 4),
        ])
        .unwrap()
    }

    #[test]
    fn arity_and_sizes() {
        let j = joint();
        assert_eq!(j.arity(), 2);
        assert_eq!(j.domain_size(0), 10);
        assert_eq!(j.domain_size(1), 4);
        assert_eq!(j.marginal(1).size(), 4);
        assert_eq!(j.marginals().len(), 2);
        assert!(JointDist::independent(vec![]).is_err());
    }

    #[test]
    fn box_masses_multiply() {
        let j = joint();
        let full = j.mass_of_box(&[None, None]).unwrap();
        assert!((full - 1.0).abs() < 1e-12);
        let x_half = j
            .mass_of_box(&[Some(IndexInterval::new(0, 5)), None])
            .unwrap();
        assert!((x_half - 1.0).abs() < 1e-12, "window mass all in [0,5)");
        let both = j
            .mass_of_box(&[
                Some(IndexInterval::new(0, 5)),
                Some(IndexInterval::new(0, 1)),
            ])
            .unwrap();
        assert!((both - 0.25).abs() < 1e-12);
        let dead = j
            .mass_of_box(&[Some(IndexInterval::new(5, 10)), None])
            .unwrap();
        assert!(dead.abs() < 1e-12);
    }

    #[test]
    fn oversized_constraint_vectors() {
        let j = joint();
        // Trailing `None`s are fine (cost-model scratch space).
        let ok = j.mass_of_box(&[None, None, None, None]).unwrap();
        assert!((ok - 1.0).abs() < 1e-12);
        // A trailing `Some` is an arity error.
        let bad = j.mass_of_box(&[None, None, Some(IndexInterval::new(0, 1))]);
        assert!(matches!(bad, Err(DistError::ArityMismatch { .. })));
    }

    #[test]
    fn sampling_respects_marginals() {
        let j = joint();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..2_000 {
            let idx = j.sample(&mut rng);
            assert_eq!(idx.len(), 2);
            assert!(idx[0] < 5, "window marginal keeps x below 5: {}", idx[0]);
            assert!(idx[1] < 4);
        }
    }

    #[test]
    fn serde_round_trip() {
        let j = joint();
        let json = serde_json::to_string(&j).unwrap();
        let back: JointDist = serde_json::from_str(&json).unwrap();
        assert_eq!(j, back);
    }
}
