//! Statistic objects: counters for events and values (paper §4.2).
//!
//! The prototype of the paper keeps counters that can either be filled
//! by observing real events or "manipulated … in order to simulate a
//! distribution". [`FilterStatistics`] does both: it bins observed event
//! values into the cells the profile set's predicate bounds cut each
//! attribute's domain into, and can synthesise the empirical event model
//! the adaptive filter rebuilds trees from.

use ens_dist::{DistOverDomain, Histogram, JointDist, Pmf};
use ens_types::{AttrId, Event, IndexInterval, IndexedEvent, LoweredTable, ProfileSet, Schema};

use crate::FilterError;

/// Laplace smoothing constant for the empirical event PMFs handed to
/// model building ([`FilterStatistics::event_pmf`]).
const SMOOTHING: f64 = 0.5;

/// Smoothing for *drift* comparisons: none once real observations
/// exist. The smoothed PMF is a function of the observation count (its
/// uniform fraction shrinks as counts grow), so comparing smoothed
/// snapshots taken at different counts reports "drift" for a perfectly
/// stationary stream. Unsmoothed comparison is exact; the uniform
/// Laplace fallback only covers the before-first-observation state.
fn drift_alpha(total: f64) -> f64 {
    if total > 0.0 {
        0.0
    } else {
        SMOOTHING
    }
}

/// Value counters over the cells of a profile set.
///
/// Per attribute it keeps the ascending cut points of the profiles'
/// lowered predicates — `0`, every interval endpoint, the domain size —
/// and one count per cell between two consecutive cuts. Lowered sets
/// are normalised, so every inner cut is a point where some profile's
/// membership changes: these are the paper's elementary subranges
/// (§3), without the lists of profiles that cover them.
///
/// # Example
///
/// ```
/// use ens_filter::FilterStatistics;
/// use ens_types::{AttrId, Schema, Domain, Predicate, ProfileSet, Event, IndexInterval};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))?;
/// let mut stats = FilterStatistics::new(&ps)?;
/// let x = AttrId::new(0);
/// let cells: Vec<IndexInterval> = stats.cells(x).collect();
/// let bounds = [(0, 10), (10, 20), (20, 100)];
/// assert_eq!(cells, bounds.map(|(lo, hi)| IndexInterval::new(lo, hi)));
///
/// let e = Event::builder(&schema).value("x", 15)?.build();
/// stats.record_event(&e)?;
/// assert_eq!(stats.events_posted(), 1);
/// assert_eq!(stats.event_count(x, 1), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FilterStatistics {
    schema: ens_types::Schema,
    /// Per attribute, the cell bounds: cell `k` is `[cuts[k], cuts[k+1])`.
    cuts: Vec<Vec<u64>>,
    event_hists: Vec<Histogram>,
    events_posted: u64,
}

impl FilterStatistics {
    /// Builds empty statistics over the cells of `profiles`.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors.
    pub fn new(profiles: &ProfileSet) -> Result<Self, FilterError> {
        let table = LoweredTable::lower(profiles.schema(), profiles.iter())?;
        Ok(Self::from_lowered(profiles.schema(), &table))
    }

    /// Builds empty statistics over the cells of a population lowered
    /// over `schema` already.
    #[must_use]
    pub fn from_lowered(schema: &Schema, profiles: &LoweredTable) -> Self {
        let mut cuts = Vec::with_capacity(schema.len());
        let mut event_hists = Vec::with_capacity(schema.len());
        for (id, a) in schema.iter() {
            // A don't-care lowers to the whole domain: `0` and `d`.
            let mut at = vec![0, a.domain().size()];
            for row in 0..profiles.rows() {
                let ivs = profiles.get(row, id.index()).unwrap_or_default();
                at.extend(ivs.iter().flat_map(|iv| [iv.lo(), iv.hi()]));
            }
            at.sort_unstable();
            at.dedup();
            at.shrink_to_fit();
            event_hists.push(Histogram::new(at.len() - 1));
            cuts.push(at);
        }
        FilterStatistics {
            schema: schema.clone(),
            cuts,
            event_hists,
            events_posted: 0,
        }
    }

    /// The schema the counters are over.
    pub(crate) fn schema(&self) -> &ens_types::Schema {
        &self.schema
    }

    /// The cells of `attr` in ascending order: they tile its domain.
    pub fn cells(&self, attr: AttrId) -> impl ExactSizeIterator<Item = IndexInterval> + '_ {
        let cuts = &self.cuts[attr.index()];
        cuts.windows(2).map(|w| IndexInterval::new(w[0], w[1]))
    }

    /// Total number of events recorded.
    #[must_use]
    pub fn events_posted(&self) -> u64 {
        self.events_posted
    }

    /// Observations behind the event histogram of `attr` (after decay:
    /// the decayed mass) — the sample size its empirical PMF rests on.
    #[must_use]
    pub fn event_observations(&self, attr: AttrId) -> f64 {
        self.event_hists[attr.index()].total()
    }

    /// Observations recorded in cell `cell` of `attr` (fractional after
    /// decay or re-binning; 0 for a cell that does not exist).
    #[must_use]
    pub fn event_count(&self, attr: AttrId, cell: usize) -> f64 {
        self.event_hists[attr.index()].count(cell)
    }

    /// Takes over the event history of `old`, which was recorded for
    /// another profile set over the same schema and therefore binned
    /// into other cells: every old cell's count is spread over the new
    /// cells it overlaps, in proportion to the overlap — the uniform-
    /// within-a-cell reading [`FilterStatistics::empirical_marginal`]
    /// already gives a count. The marginals are domain-level, so they
    /// come out unchanged (up to the per-cell smoothing); a cell that
    /// exists in both geometries keeps its count bit for bit, and so
    /// does the total. Replaces whatever history `self` held.
    pub fn adopt_history(&mut self, old: &FilterStatistics) {
        let new = self.cuts.iter().zip(&mut self.event_hists);
        for ((cuts, hist), (old_cuts, old_hist)) in new.zip(old.cuts.iter().zip(&old.event_hists)) {
            hist.clear();
            if old_cuts.last() != cuts.last() {
                continue;
            }
            // Both cut lists tile `[0, domain_size)` in ascending
            // order: one merge sweep visits every overlapping pair.
            let mut k = 0;
            for (j, from) in old_cuts.windows(2).enumerate() {
                let count = old_hist.count(j);
                let from = IndexInterval::new(from[0], from[1]);
                while cuts[k + 1] <= from.lo() {
                    k += 1;
                }
                for (at, to) in cuts.windows(2).enumerate().skip(k) {
                    if to[0] >= from.hi() {
                        break;
                    }
                    let overlap = IndexInterval::new(to[0], to[1]).intersect(&from).len();
                    if overlap == from.len() {
                        hist.add_mass(at, count);
                    } else {
                        hist.add_mass(at, count * (overlap as f64 / from.len() as f64));
                    }
                }
            }
        }
        self.events_posted = old.events_posted;
    }

    /// Records an observed event into the per-attribute value counters.
    ///
    /// # Errors
    ///
    /// Propagates domain errors for ill-typed values.
    pub fn record_event(&mut self, event: &Event) -> Result<(), FilterError> {
        for attr in 0..self.cuts.len() {
            let id = AttrId::new(attr as u32);
            if let Some(v) = event.value(id) {
                let idx = self.schema.attribute(id).domain().index_of(v)?;
                self.record_value_index(id, idx);
            }
        }
        self.events_posted += 1;
        Ok(())
    }

    /// Records an observed event from its resolved row: one domain index
    /// per attribute in schema order, [`IndexedEvent::MISSING`] where it
    /// is absent (the form [`IndexedEvent::raw`] and
    /// [`ens_types::IndexedBatch::row`] hold). What
    /// [`FilterStatistics::record_event`] records for the event the row
    /// was resolved from, without resolving it again.
    pub fn record_row(&mut self, row: &[u64]) {
        for (attr, &index) in row.iter().take(self.cuts.len()).enumerate() {
            if index != IndexedEvent::MISSING {
                self.record_value_index(AttrId::new(attr as u32), index);
            }
        }
        self.events_posted += 1;
    }

    /// Records a raw `(attribute, domain index)` observation. This is
    /// the §4.2 counter-manipulation entry point ("for a test … the
    /// statistic objects are initialized for chosen distributions").
    pub fn record_value_index(&mut self, attr: AttrId, index: u64) {
        let cuts = &self.cuts[attr.index()];
        if index < cuts[cuts.len() - 1] {
            let cell = cuts.partition_point(|&c| c <= index) - 1;
            self.event_hists[attr.index()].record(cell);
        }
    }

    /// Initialises the event counters of `attr` from a distribution, as
    /// if `scale` events had been posted with that distribution.
    pub fn simulate_event_distribution(&mut self, attr: AttrId, dist: &DistOverDomain, scale: u64) {
        let cuts = &self.cuts[attr.index()];
        let hist = &mut self.event_hists[attr.index()];
        hist.clear();
        for (k, w) in cuts.windows(2).enumerate() {
            let mass = dist.mass_of(&IndexInterval::new(w[0], w[1]));
            hist.record_n(k, (mass * scale as f64).round() as u64);
        }
    }

    /// Empirical event PMF over the cells of `attr` (Laplace-smoothed so
    /// it is usable before any event arrives).
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn event_pmf(&self, attr: AttrId) -> Result<Pmf, FilterError> {
        Ok(self.event_hists[attr.index()].to_smoothed_pmf(SMOOTHING)?)
    }

    /// The empirical event PMF of `attr` as used for drift detection:
    /// unsmoothed once observations exist, uniform before (see
    /// [`FilterStatistics::event_l1_drift`]). Drift baselines must be
    /// captured with this, not [`FilterStatistics::event_pmf`].
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn event_drift_pmf(&self, attr: AttrId) -> Result<Pmf, FilterError> {
        let h = &self.event_hists[attr.index()];
        Ok(h.to_smoothed_pmf(drift_alpha(h.total()))?)
    }

    /// L1 distance between the empirical event distribution of `attr`
    /// (the [`FilterStatistics::event_drift_pmf`] view) and `assumed`,
    /// computed without materialising a PMF — the allocation-free form
    /// the drift detectors evaluate on the publish path.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors (notably a cell-count mismatch
    /// when `assumed` was derived for a different partition geometry).
    pub fn event_l1_drift(&self, attr: AttrId, assumed: &Pmf) -> Result<f64, FilterError> {
        let h = &self.event_hists[attr.index()];
        Ok(h.smoothed_l1_distance(drift_alpha(h.total()), assumed)?)
    }

    /// `Σ √(pᵢ(1−pᵢ))` over the cells of `attr`, with `p` the smoothed
    /// empirical PMF ([`FilterStatistics::event_pmf`]): the factor that
    /// turns a sample size into the L1 distance sampling alone puts
    /// between two estimates of this distribution. A cell count is
    /// binomial, so its relative frequency after `n` observations is
    /// off by `√(2pᵢ(1−pᵢ)/πn)` in expectation, and two independent
    /// estimates from `n₁` and `n₂` observations differ by
    /// `√(2pᵢ(1−pᵢ)(1/n₁+1/n₂)/π)`; summed over the cells that is this
    /// scale times `√(2(1/n₁+1/n₂)/π)`. The smoothing matters: a sample
    /// much smaller than the cell count sees most cells empty, and the
    /// raw frequencies would put the scale far too low.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn drift_noise_scale(&self, attr: AttrId) -> Result<f64, FilterError> {
        Ok(self
            .event_pmf(attr)?
            .iter()
            .map(|p| (p * (1.0 - p)).sqrt())
            .sum())
    }

    /// Converts the empirical event histogram of `attr` into a
    /// distribution over the attribute's domain: each cell's smoothed
    /// probability spread evenly over the cell's points (the paper's
    /// `Pe`, defined per subrange, at domain resolution). One sweep over
    /// the cells; the value is what integrating a mixture of one uniform
    /// window per cell gives, bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn empirical_marginal(&self, attr: AttrId) -> Result<DistOverDomain, FilterError> {
        let pmf = self.event_pmf(attr)?;
        let cells: Vec<_> = self
            .cells(attr)
            .enumerate()
            .filter(|(k, _)| pmf.prob(*k) > 0.0)
            .map(|(k, cell)| (cell, pmf.prob(k)))
            .collect();
        let domain_size = self.schema.attribute(attr).domain().size();
        Ok(DistOverDomain::from_cells(domain_size, &cells)?)
    }

    /// The full empirical (independence-assuming) event model.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn empirical_model(&self) -> Result<JointDist, FilterError> {
        let marginals: Result<Vec<_>, _> = self
            .schema
            .ids()
            .map(|attr| self.empirical_marginal(attr))
            .collect();
        Ok(JointDist::independent(marginals?)?)
    }

    /// Applies exponential forgetting to all event counters.
    pub fn decay(&mut self) {
        for h in &mut self.event_hists {
            h.decay();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::{Domain, Predicate, Schema};

    fn setup() -> (Schema, ProfileSet) {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .attribute("y", Domain::int(0, 9))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| b.predicate("x", Predicate::between(10, 19)))
            .unwrap();
        ps.insert_with(|b| {
            b.predicate("x", Predicate::ge(50))?
                .predicate("y", Predicate::eq(3))
        })
        .unwrap();
        (schema, ps)
    }

    #[test]
    fn event_recording_bins_into_cells() {
        let (schema, ps) = setup();
        let mut stats = FilterStatistics::new(&ps).unwrap();
        for x in [12, 14, 55] {
            let e = Event::builder(&schema).value("x", x).unwrap().build();
            stats.record_event(&e).unwrap();
        }
        assert_eq!(stats.events_posted(), 3);
        let pmf = stats.event_pmf(AttrId::new(0)).unwrap();
        // Cell layout on x: [0,10) zero, [10,20) P0, [20,50) zero,
        // [50,100) P1. Two events in cell 1, one in cell 3.
        assert!(pmf.prob(1) > pmf.prob(3));
        assert!(pmf.prob(3) > pmf.prob(0));
    }

    #[test]
    fn simulate_distribution_fills_counters() {
        use ens_dist::{Density, DistOverDomain};
        let (_, ps) = setup();
        let mut stats = FilterStatistics::new(&ps).unwrap();
        let dist = DistOverDomain::new(Density::window(0.5, 1.0), 100);
        stats.simulate_event_distribution(AttrId::new(0), &dist, 10_000);
        let pmf = stats.event_pmf(AttrId::new(0)).unwrap();
        assert!(pmf.prob(3) > 0.9, "mass concentrated on [50,100): {pmf:?}");
    }

    #[test]
    fn empirical_model_round_trips_distribution() {
        let (schema, ps) = setup();
        let mut stats = FilterStatistics::new(&ps).unwrap();
        for _ in 0..100 {
            let e = Event::builder(&schema)
                .value("x", 15)
                .unwrap()
                .value("y", 3)
                .unwrap()
                .build();
            stats.record_event(&e).unwrap();
        }
        let model = stats.empirical_model().unwrap();
        assert_eq!(model.arity(), 2);
        // Almost all mass on x's cell [10,20).
        let m = model.marginal(0);
        assert!(m.mass_between(10, 20) > 0.9);
        let my = model.marginal(1);
        assert!(my.mass_between(3, 4) > 0.9);
    }

    #[test]
    fn record_value_index_and_decay() {
        let (_, ps) = setup();
        let mut stats = FilterStatistics::new(&ps).unwrap();
        for _ in 0..8 {
            stats.record_value_index(AttrId::new(0), 15);
        }
        stats.record_value_index(AttrId::new(0), 1_000_000); // ignored
        let before = stats.event_pmf(AttrId::new(0)).unwrap().prob(1);
        stats.decay();
        let after = stats.event_pmf(AttrId::new(0)).unwrap().prob(1);
        assert!(before > 0.5);
        assert!(after > 0.0 && after <= before);
    }

    #[test]
    fn event_l1_drift_agrees_with_materialised_pmfs() {
        let (schema, ps) = setup();
        let mut stats = FilterStatistics::new(&ps).unwrap();
        // Before any observation the drift view is the uniform prior.
        let assumed = stats.event_drift_pmf(AttrId::new(0)).unwrap();
        assert!((assumed.prob(0) - 0.25).abs() < 1e-12);
        for x in [12, 14, 55, 55, 55] {
            let e = Event::builder(&schema).value("x", x).unwrap().build();
            stats.record_event(&e).unwrap();
        }
        let direct = stats.event_l1_drift(AttrId::new(0), &assumed).unwrap();
        let via_pmf = stats
            .event_drift_pmf(AttrId::new(0))
            .unwrap()
            .l1_distance(&assumed)
            .unwrap();
        assert!((direct - via_pmf).abs() < 1e-12);
        assert!(direct > 0.0);
        // A stationary stream never drifts against its own baseline,
        // regardless of how many more events arrive (no smoothing-decay
        // artifact).
        let baseline = stats.event_drift_pmf(AttrId::new(0)).unwrap();
        for _ in 0..3 {
            for x in [12, 14, 55, 55, 55] {
                let e = Event::builder(&schema).value("x", x).unwrap().build();
                stats.record_event(&e).unwrap();
            }
            let d = stats.event_l1_drift(AttrId::new(0), &baseline).unwrap();
            assert!(d < 1e-12, "stationary drift {d}");
        }
    }

    #[test]
    fn adopted_history_is_spread_by_overlap() {
        let (_, ps) = setup();
        let mut old = FilterStatistics::new(&ps).unwrap();
        // x cells: [0,10) [10,20) [20,50) [50,100).
        for (index, times) in [(15, 6), (30, 9), (70, 10)] {
            for _ in 0..times {
                old.record_value_index(AttrId::new(0), index);
            }
        }
        old.events_posted = 25;
        // One more profile cuts [20,50) into [20,30) [30,40) [40,50)
        // and nothing else.
        let mut finer = ps.clone();
        finer
            .insert_with(|b| b.predicate("x", Predicate::between(30, 39)))
            .unwrap();
        let mut new = FilterStatistics::new(&finer).unwrap();
        new.adopt_history(&old);
        let x = AttrId::new(0);
        let counts: Vec<f64> = (0..6).map(|k| new.event_count(x, k)).collect();
        assert_eq!(counts, [0.0, 6.0, 3.0, 3.0, 3.0, 10.0]);
        assert_eq!(new.event_observations(x), 25.0);
        assert_eq!(new.events_posted(), 25);
        // y was not touched by the new profile: same cells, same (no)
        // history.
        assert_eq!(new.event_observations(AttrId::new(1)), 0.0);
    }

    /// The noise scale is what turns two sample sizes into the L1
    /// distance between the two estimates — here checked against two
    /// samples actually drawn, on a sparse case (more cells than the
    /// smaller sample has observations) and a dense one.
    #[test]
    fn noise_scale_predicts_the_distance_between_two_samples() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 399))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        for v in 0..400 {
            ps.insert_with(|b| b.predicate("x", Predicate::eq(v)))
                .unwrap();
        }
        let x = AttrId::new(0);
        let mut rng = StdRng::seed_from_u64(5);
        for (n1, n2) in [(200usize, 1000usize), (20_000, 50_000)] {
            let mut measured = 0.0;
            let mut predicted = 0.0;
            for _ in 0..8 {
                let mut first = FilterStatistics::new(&ps).unwrap();
                let mut second = FilterStatistics::new(&ps).unwrap();
                for _ in 0..n1 {
                    first.record_value_index(x, rng.gen_range(0..400));
                }
                for _ in 0..n2 {
                    second.record_value_index(x, rng.gen_range(0..400));
                }
                let baseline = first.event_drift_pmf(x).unwrap();
                measured += second.event_l1_drift(x, &baseline).unwrap();
                let per_cell = 2.0 * (1.0 / n1 as f64 + 1.0 / n2 as f64) / std::f64::consts::PI;
                predicted += first.drift_noise_scale(x).unwrap() * per_cell.sqrt();
            }
            let ratio = predicted / measured;
            assert!(
                (0.9..1.25).contains(&ratio),
                "n = {n1}/{n2}: predicted {predicted:.3}, measured {measured:.3}"
            );
        }
    }

    #[test]
    fn ill_typed_event_rejected() {
        let (_schema, ps) = setup();
        let mut stats = FilterStatistics::new(&ps).unwrap();
        // Build an event against a *different* schema with wider domain.
        let other = Schema::builder()
            .attribute("x", Domain::int(0, 1000))
            .unwrap()
            .attribute("y", Domain::int(0, 9))
            .unwrap()
            .build();
        let e = Event::builder(&other).value("x", 500).unwrap().build();
        assert!(stats.record_event(&e).is_err());
    }
}
