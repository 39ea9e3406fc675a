//! A density discretised over a finite domain grid.

use ens_types::IndexInterval;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{Density, DistError};

/// A probability distribution over the `d` grid points of a domain.
///
/// Construction integrates a [`Density`] over each grid cell
/// `[i/d, (i+1)/d)` and normalises, so interval masses are exact sums
/// of point masses: this is the discrete `Pe`/`Pp` the paper's
/// selectivity measures and cost model (Eq. 2) are defined over.
///
/// # Example
///
/// ```
/// use ens_dist::{Density, DistOverDomain};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let dist = DistOverDomain::new(Density::window(0.5, 1.0), 100);
/// assert_eq!(dist.size(), 100);
/// assert!((dist.mass_between(50, 100) - 1.0).abs() < 1e-12);
/// assert_eq!(dist.prob_index(10), 0.0);
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let i = dist.sample_index(&mut rng);
/// assert!((50..100).contains(&i));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DistOverDomain {
    density: Density,
    size: u64,
    /// Per-point probabilities, summing to 1.
    pmf: Vec<f64>,
    /// Prefix sums: `cdf[i]` is the mass of `[0, i)`; length `size + 1`.
    cdf: Vec<f64>,
}

impl DistOverDomain {
    /// Discretises `density` over a grid of `size` points.
    ///
    /// A density whose support misses the whole grid (total mass 0)
    /// degrades to uniform rather than producing NaNs.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    #[must_use]
    pub fn new(density: Density, size: u64) -> Self {
        assert!(size > 0, "a domain distribution needs at least one point");
        let d = size as f64;
        let pmf = (0..size)
            .map(|i| {
                density
                    .mass_between(i as f64 / d, (i + 1) as f64 / d)
                    .max(0.0)
            })
            .collect();
        Self::from_masses(density, size, pmf)
    }

    /// The distribution that spreads `weight` evenly over each of
    /// `cells` — disjoint index intervals in ascending order, gaps
    /// allowed — and normalises: a histogram over the subrange cells of
    /// a filter, at domain resolution.
    ///
    /// Equal, bit for bit (density, point masses, prefix sums), to
    /// [`DistOverDomain::new`] over the [`Density::Mixture`] of one
    /// [`Density::window`] per cell, but each point's mass is read from
    /// the one cell that owns it — every other window contributes an
    /// exact `+0.0` — so the cost is O(`size` + cells) where integrating
    /// the mixture is O(`size` × cells). Weights whose sum is zero (no
    /// cells, too) degrade to uniform as there.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidDensity`] if `size == 0`, a cell is
    /// empty, reaches past `size`, overlaps or precedes the one before
    /// it, or a weight is negative or not finite.
    pub fn from_cells(size: u64, cells: &[(IndexInterval, f64)]) -> Result<Self, DistError> {
        let invalid = |msg: String| Err(DistError::InvalidDensity(msg));
        if size == 0 {
            return invalid("a domain distribution needs at least one point".into());
        }
        let mut end = 0;
        for (cell, weight) in cells {
            if cell.is_empty() || cell.lo() < end || cell.hi() > size {
                return invalid(format!(
                    "cell {cell} is empty, out of order or outside the {size}-point domain"
                ));
            }
            if !weight.is_finite() || *weight < 0.0 {
                return invalid(format!(
                    "cell weight {weight} must be finite and non-negative"
                ));
            }
            end = cell.hi();
        }
        let d = size as f64;
        let windows: Vec<(f64, Density)> = cells
            .iter()
            .map(|(c, w)| (*w, Density::window(c.lo() as f64 / d, c.hi() as f64 / d)))
            .collect();
        // What `Density::Mixture::mass_between` works out for a grid
        // cell, minus the terms that are zero.
        let total: f64 = windows.iter().map(|(w, _)| w).sum();
        let mut pmf = vec![0.0; size as usize];
        if total > 0.0 {
            for ((cell, _), (weight, window)) in cells.iter().zip(&windows) {
                for i in cell.lo()..cell.hi() {
                    let mass = window.mass_between(i as f64 / d, (i + 1) as f64 / d);
                    pmf[i as usize] = (weight * mass / total).max(0.0);
                }
            }
        }
        Ok(Self::from_masses(Density::Mixture(windows), size, pmf))
    }

    /// Normalises the per-point masses of `density` (uniform if they
    /// carry no mass) and takes their prefix sums.
    fn from_masses(density: Density, size: u64, mut pmf: Vec<f64>) -> Self {
        let total: f64 = pmf.iter().sum();
        if total > 0.0 && total.is_finite() {
            for p in &mut pmf {
                *p /= total;
            }
        } else {
            pmf.fill(1.0 / size as f64);
        }
        DistOverDomain {
            density,
            size,
            cdf: prefix_sums(&pmf),
            pmf,
        }
    }

    /// The analytic shape this distribution was discretised from.
    #[must_use]
    pub fn density(&self) -> &Density {
        &self.density
    }

    /// Number of grid points (the paper's `d`).
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Probability of the single grid point `i` (0 outside the domain).
    #[must_use]
    pub fn prob_index(&self, i: u64) -> f64 {
        self.pmf.get(i as usize).copied().unwrap_or(0.0)
    }

    /// Mass of the half-open index interval `[lo, hi)`, clamped to the
    /// domain.
    #[must_use]
    pub fn mass_between(&self, lo: u64, hi: u64) -> f64 {
        let lo = lo.min(self.size) as usize;
        let hi = hi.clamp(lo as u64, self.size) as usize;
        (self.cdf[hi] - self.cdf[lo]).max(0.0)
    }

    /// Mass of an [`IndexInterval`] (the subrange cells of the filter).
    #[must_use]
    pub fn mass_of(&self, interval: &IndexInterval) -> f64 {
        self.mass_between(interval.lo(), interval.hi())
    }

    /// Samples a grid index by inverse-CDF lookup.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let r: f64 = rng.gen();
        // First index whose cumulative mass exceeds r.
        let i = self.cdf.partition_point(|c| *c <= r);
        (i.saturating_sub(1) as u64).min(self.size - 1)
    }
}

/// `cdf` of the normalised point masses `pmf`.
fn prefix_sums(pmf: &[f64]) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(pmf.len() + 1);
    let mut acc = 0.0;
    cdf.push(0.0);
    for p in pmf {
        acc += p;
        cdf.push(acc);
    }
    // Pin the final prefix sum so sampling never falls off the end.
    cdf[pmf.len()] = 1.0;
    cdf
}

/// The serialized form of a [`DistOverDomain`]. A distribution off disk
/// or wire is checked before it is trusted: every lookup indexes its
/// tables by the declared size.
#[derive(Deserialize)]
struct DistArgs {
    density: Density,
    size: u64,
    pmf: Vec<f64>,
    cdf: Vec<f64>,
}

impl<'de> Deserialize<'de> for DistOverDomain {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let d = DistArgs::deserialize(deserializer)?;
        let masses = d.pmf.iter().all(|p| p.is_finite() && *p >= 0.0);
        if d.size == 0 || d.pmf.len() as u64 != d.size || !masses || d.cdf != prefix_sums(&d.pmf) {
            return Err(serde::de::Error::custom(format!(
                "a {}-point distribution's {} masses and {} prefix sums do not fit it",
                d.size,
                d.pmf.len(),
                d.cdf.len()
            )));
        }
        let DistArgs {
            density,
            size,
            pmf,
            cdf,
        } = d;
        Ok(DistOverDomain {
            density,
            size,
            pmf,
            cdf,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        for (density, size) in [
            (Density::Uniform, 81),
            (Density::gaussian(0.55, 0.18), 81),
            (Density::falling(), 100),
            (Density::zipf(1.1).unwrap(), 1000),
            (Density::window(0.8, 1.0), 19_901),
        ] {
            let d = DistOverDomain::new(density, size);
            let sum: f64 = (0..size).map(|i| d.prob_index(i)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "size {size}: {sum}");
            assert!((d.mass_between(0, size) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn grid_aligned_windows_are_exact() {
        // The paper's Example 2 marginal: window masses land exactly on
        // the grid cells they describe.
        let w = |lo: f64, hi: f64| Density::window(lo / 81.0, hi / 81.0);
        let d = DistOverDomain::new(
            Density::Mixture(vec![
                (0.02, w(0.0, 11.0)),
                (0.17, w(11.0, 60.0)),
                (0.01, w(60.0, 65.0)),
                (0.80, w(65.0, 81.0)),
            ]),
            81,
        );
        assert!((d.mass_between(0, 11) - 0.02).abs() < 1e-12);
        assert!((d.mass_between(11, 60) - 0.17).abs() < 1e-12);
        assert!((d.mass_between(60, 65) - 0.01).abs() < 1e-12);
        assert!((d.mass_between(65, 81) - 0.80).abs() < 1e-12);
    }

    #[test]
    fn interval_masses_match_point_sums() {
        let d = DistOverDomain::new(Density::gaussian(0.4, 0.25), 50);
        let direct: f64 = (10..30).map(|i| d.prob_index(i)).sum();
        let via_interval = d.mass_of(&IndexInterval::new(10, 30));
        assert!((direct - via_interval).abs() < 1e-12);
        // Out-of-domain queries clamp.
        assert_eq!(d.mass_between(60, 80), 0.0);
        assert_eq!(d.prob_index(50), 0.0);
    }

    #[test]
    fn single_point_domain() {
        let d = DistOverDomain::new(Density::Uniform, 1);
        assert_eq!(d.prob_index(0), 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(d.sample_index(&mut rng), 0);
    }

    #[test]
    fn degenerate_windows_become_point_masses() {
        // A window with no width at 0.3 lands on cell 30, and a point
        // collapsed onto the domain's upper edge belongs to the last
        // cell rather than degrading to uniform.
        let d = DistOverDomain::new(Density::window(0.3, 0.3), 100);
        assert!((d.prob_index(30) - 1.0).abs() < 1e-12);
        let top = DistOverDomain::new(Density::window(1.0, 1.0), 100);
        assert!((top.prob_index(99) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_pmf() {
        let d = DistOverDomain::new(
            Density::Mixture(vec![
                (0.9, Density::window(0.8, 0.9)),
                (0.1, Density::window(0.0, 0.8)),
            ]),
            100,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let mut hot = 0u64;
        for _ in 0..n {
            let i = d.sample_index(&mut rng);
            assert!(i < 100);
            if (80..90).contains(&i) {
                hot += 1;
            }
        }
        let frac = hot as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn serde_round_trip() {
        let d = DistOverDomain::new(Density::gaussian(0.6, 0.2), 25);
        let json = serde_json::to_string(&d).unwrap();
        let back: DistOverDomain = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
        // Tables that do not fit the size, or masses that are not
        // finite and non-negative, are refused.
        let first = format!("[{:?},", d.prob_index(0));
        assert!(
            json.contains("\"size\":25") && json.contains(&first),
            "{json}"
        );
        for (from, to) in [
            ("\"size\":25", "\"size\":26"),
            ("\"size\":25", "\"size\":0"),
            ("\"cdf\":[", "\"cdf\":[0.0,"),
            (first.as_str(), "[-0.5,"),
        ] {
            let bad = json.replacen(from, to, 1);
            assert!(
                serde_json::from_str::<DistOverDomain>(&bad).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn cells_match_the_window_mixture_they_stand_for() {
        // The paper's Example 2 marginal again, with a gap over [60, 65).
        let cells = [
            (IndexInterval::new(0, 11), 0.02),
            (IndexInterval::new(11, 60), 0.17),
            (IndexInterval::new(65, 81), 0.80),
        ];
        let d = DistOverDomain::from_cells(81, &cells).unwrap();
        let w = |lo: f64, hi: f64| Density::window(lo / 81.0, hi / 81.0);
        let mixture = Density::Mixture(vec![
            (0.02, w(0.0, 11.0)),
            (0.17, w(11.0, 60.0)),
            (0.80, w(65.0, 81.0)),
        ]);
        assert_eq!(d, DistOverDomain::new(mixture, 81));
        assert_eq!(d.mass_between(60, 65), 0.0);
        assert!((d.mass_between(65, 81) - 0.80 / 0.99).abs() < 1e-12);
    }

    #[test]
    fn cells_that_are_no_partition_are_rejected() {
        let cell = |lo, hi| (IndexInterval::new(lo, hi), 1.0);
        let rejected = |size, cells: &[(IndexInterval, f64)]| {
            matches!(
                DistOverDomain::from_cells(size, cells),
                Err(DistError::InvalidDensity(_))
            )
        };
        assert!(rejected(0, &[]), "no points");
        assert!(rejected(10, &[cell(0, 6), cell(5, 10)]), "overlap");
        assert!(rejected(10, &[cell(5, 10), cell(0, 5)]), "unsorted");
        assert!(rejected(10, &[cell(3, 3)]), "empty cell");
        assert!(rejected(10, &[cell(5, 11)]), "past the domain");
        assert!(rejected(10, &[cell(u64::MAX - 1, u64::MAX)]), "far past");
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cells = [(IndexInterval::new(0, 5), bad)];
            assert!(rejected(10, &cells), "weight {bad}");
        }
        // No mass at all is not an error: uniform, as `new` has it.
        for cells in [vec![], vec![(IndexInterval::new(2, 4), 0.0)]] {
            let d = DistOverDomain::from_cells(10, &cells).unwrap();
            assert_eq!(d.pmf, [0.1; 10]);
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn zero_size_panics() {
        let _ = DistOverDomain::new(Density::Uniform, 0);
    }
}
