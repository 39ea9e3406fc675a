//! Observed-frequency estimation with incremental updates.

use serde::{Deserialize, Serialize};

use crate::{DistError, Pmf};

/// A counting histogram over a fixed number of cells.
///
/// This is the backing store of the paper's "statistic objects": event
/// values are binned into the per-attribute subrange cells one at a
/// time ([`Histogram::record`]), counters can be bulk-initialised "for
/// chosen distributions" ([`Histogram::record_n`]), and [`decay`]
/// implements the exponential forgetting the adaptive filter applies
/// after a rebuild. Counts are kept as `f64` so decayed fractions are
/// not lost to rounding.
///
/// [`decay`]: Histogram::decay
///
/// # Example
///
/// ```
/// use ens_dist::Histogram;
///
/// # fn main() -> Result<(), ens_dist::DistError> {
/// let mut h = Histogram::new(3);
/// h.record(0);
/// h.record(0);
/// h.record(2);
/// assert_eq!(h.total(), 3.0);
/// let pmf = h.to_smoothed_pmf(0.0)?;
/// assert!((pmf.prob(0) - 2.0 / 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<f64>,
    total: f64,
}

impl Histogram {
    /// An all-zero histogram over `cells` cells.
    #[must_use]
    pub fn new(cells: usize) -> Self {
        Histogram {
            counts: vec![0.0; cells],
            total: 0.0,
        }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the histogram has no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Records one observation in cell `k`. Out-of-range cells are
    /// ignored (callers bin through a partition of the same size).
    pub fn record(&mut self, k: usize) {
        self.record_n(k, 1);
    }

    /// Records `n` observations in cell `k` at once (the §4.2
    /// counter-manipulation entry point).
    pub fn record_n(&mut self, k: usize, n: u64) {
        if let Some(c) = self.counts.get_mut(k) {
            *c += n as f64;
            self.total += n as f64;
        }
    }

    /// Adds a fractional `mass` of observations to cell `k` — what
    /// re-binning a history onto a different cell geometry produces
    /// when an old cell straddles two new ones. Out-of-range cells and
    /// non-positive or non-finite masses are ignored.
    pub fn add_mass(&mut self, k: usize, mass: f64) {
        if !(mass.is_finite() && mass > 0.0) {
            return;
        }
        if let Some(c) = self.counts.get_mut(k) {
            *c += mass;
            self.total += mass;
        }
    }

    /// The count in cell `k`.
    #[must_use]
    pub fn count(&self, k: usize) -> f64 {
        self.counts.get(k).copied().unwrap_or(0.0)
    }

    /// Total observations recorded (after decay: the decayed mass).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Resets every counter to zero.
    pub fn clear(&mut self) {
        self.counts.fill(0.0);
        self.total = 0.0;
    }

    /// Exponential forgetting: halves every counter, so the empirical
    /// distribution tracks recent traffic.
    pub fn decay(&mut self) {
        for c in &mut self.counts {
            *c *= 0.5;
        }
        self.total *= 0.5;
    }

    /// Laplace-smoothed empirical PMF: cell `k` gets
    /// `(count_k + alpha) / (total + alpha · cells)`. With `alpha > 0`
    /// the PMF is well defined before any observation arrives.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::EmptyPmf`] for a zero-cell histogram or
    /// when `alpha = 0` and nothing has been recorded.
    pub fn to_smoothed_pmf(&self, alpha: f64) -> Result<Pmf, DistError> {
        if self.counts.is_empty() {
            return Err(DistError::EmptyPmf);
        }
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(DistError::InvalidDensity(format!(
                "smoothing constant {alpha} must be finite and non-negative"
            )));
        }
        Pmf::from_weights(self.counts.iter().map(|c| c + alpha).collect())
    }

    /// L1 distance `Σ |p_k − q_k|` between this histogram's
    /// Laplace-smoothed PMF (see [`Histogram::to_smoothed_pmf`]) and
    /// `assumed`, computed without materialising the PMF — the
    /// allocation-free form a drift detector can evaluate on every
    /// observed event.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::ShapeMismatch`] when the cell counts
    /// differ, and the same errors as [`Histogram::to_smoothed_pmf`]
    /// for invalid `alpha` or a mass-less histogram.
    pub fn smoothed_l1_distance(&self, alpha: f64, assumed: &Pmf) -> Result<f64, DistError> {
        if self.counts.len() != assumed.len() {
            return Err(DistError::ShapeMismatch {
                left: self.counts.len(),
                right: assumed.len(),
            });
        }
        if self.counts.is_empty() {
            return Err(DistError::EmptyPmf);
        }
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(DistError::InvalidDensity(format!(
                "smoothing constant {alpha} must be finite and non-negative"
            )));
        }
        let norm = self.total + alpha * self.counts.len() as f64;
        if norm <= 0.0 {
            return Err(DistError::EmptyPmf);
        }
        Ok(self
            .counts
            .iter()
            .enumerate()
            .map(|(k, c)| ((c + alpha) / norm - assumed.prob(k)).abs())
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut h = Histogram::new(4);
        h.record(1);
        h.record(1);
        h.record_n(3, 8);
        assert_eq!(h.count(1), 2.0);
        assert_eq!(h.count(3), 8.0);
        assert_eq!(h.total(), 10.0);
        assert_eq!(h.len(), 4);
        // Out-of-range records are ignored.
        h.record(99);
        assert_eq!(h.total(), 10.0);
    }

    #[test]
    fn fractional_mass_accumulates_like_counts() {
        let mut h = Histogram::new(2);
        h.add_mass(0, 1.5);
        h.add_mass(1, 0.25);
        h.add_mass(1, 0.25);
        h.add_mass(0, -1.0);
        h.add_mass(0, f64::NAN);
        h.add_mass(7, 1.0);
        assert_eq!(h.count(0), 1.5);
        assert_eq!(h.count(1), 0.5);
        assert_eq!(h.total(), 2.0);
    }

    #[test]
    fn smoothing_makes_empty_histograms_usable() {
        let h = Histogram::new(4);
        assert!(matches!(h.to_smoothed_pmf(0.0), Err(DistError::EmptyPmf)));
        let pmf = h.to_smoothed_pmf(0.5).unwrap();
        for k in 0..4 {
            assert!((pmf.prob(k) - 0.25).abs() < 1e-12);
        }
        assert!(Histogram::new(0).to_smoothed_pmf(0.5).is_err());
        assert!(h.to_smoothed_pmf(f64::NAN).is_err());
    }

    #[test]
    fn smoothed_pmf_tracks_counts() {
        let mut h = Histogram::new(2);
        h.record_n(0, 9);
        h.record_n(1, 1);
        let pmf = h.to_smoothed_pmf(0.0).unwrap();
        assert!((pmf.prob(0) - 0.9).abs() < 1e-12);
        // Smoothing pulls toward uniform but keeps the ordering.
        let smoothed = h.to_smoothed_pmf(5.0).unwrap();
        assert!(smoothed.prob(0) < 0.9);
        assert!(smoothed.prob(0) > smoothed.prob(1));
    }

    #[test]
    fn decay_and_clear() {
        let mut h = Histogram::new(2);
        h.record_n(0, 4);
        h.decay();
        assert_eq!(h.count(0), 2.0);
        assert_eq!(h.total(), 2.0);
        h.decay();
        assert_eq!(h.count(0), 1.0);
        // Relative frequencies are untouched by decay.
        let before = h.to_smoothed_pmf(0.0).unwrap();
        h.record_n(1, 0);
        let after = h.to_smoothed_pmf(0.0).unwrap();
        assert_eq!(before, after);
        h.clear();
        assert_eq!(h.total(), 0.0);
        assert_eq!(h.count(0), 0.0);
    }

    #[test]
    fn serde_round_trip() {
        let mut h = Histogram::new(3);
        h.record_n(2, 7);
        h.decay();
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn smoothed_l1_matches_materialised_pmf() {
        let mut h = Histogram::new(4);
        h.record_n(0, 9);
        h.record_n(2, 3);
        let assumed = Pmf::from_weights(vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        for alpha in [0.0, 0.5, 2.0] {
            let direct = h.smoothed_l1_distance(alpha, &assumed).unwrap();
            let via_pmf = h
                .to_smoothed_pmf(alpha)
                .unwrap()
                .l1_distance(&assumed)
                .unwrap();
            assert!((direct - via_pmf).abs() < 1e-12, "alpha={alpha}");
        }
    }

    #[test]
    fn smoothed_l1_rejects_bad_inputs() {
        let h = Histogram::new(2);
        let wrong = Pmf::from_weights(vec![1.0; 3]).unwrap();
        assert!(matches!(
            h.smoothed_l1_distance(0.5, &wrong),
            Err(DistError::ShapeMismatch { left: 2, right: 3 })
        ));
        let right = Pmf::from_weights(vec![1.0; 2]).unwrap();
        assert!(matches!(
            h.smoothed_l1_distance(0.0, &right),
            Err(DistError::EmptyPmf)
        ));
        assert!(h.smoothed_l1_distance(-1.0, &right).is_err());
        assert!(Histogram::new(0)
            .smoothed_l1_distance(0.5, &Pmf::from_weights(vec![1.0]).unwrap())
            .is_err());
    }
}
