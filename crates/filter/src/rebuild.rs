//! The unified rebuild policy and drift tracker for the snapshot-swap
//! filter path.
//!
//! The seed broker rebuilt the whole profile tree on *every* subscribe
//! and unsubscribe, and its adaptive filter component (paper §1/§5)
//! rebuilt it again when the observed event distribution drifted. Both
//! triggers are really the same decision — "is the compiled tree stale
//! enough to pay a rebuild?" — so [`RebuildPolicy`] unifies them:
//!
//! * **subscription churn**: new profiles enter a small overlay
//!   side-matcher immediately (see
//!   [`FilterSnapshot`](crate::FilterSnapshot)) and are only folded into
//!   the tree once the overlay — or the tombstoned removals — pass
//!   [`RebuildPolicy::max_overlay`] entries;
//! * **distribution drift**: [`DriftTracker`] keeps the event history
//!   and the L1-drift detector of that component (paper §4.2/§5) and
//!   asks for a rebuild when the empirical event distribution has moved
//!   [`RebuildPolicy::drift_threshold`] further from the one the tree
//!   was optimised for than sampling noise explains. Whether the
//!   rebuild is worth its cost is the caller's call — the broker prices
//!   it with the cost model (Eq. 2) — and a trigger it turns down backs
//!   the detector off.

use ens_dist::{JointDist, Pmf};
use ens_types::{AttrId, Event, LoweredTable, ProfileSet};
use serde::{Deserialize, Serialize};

use crate::statistics::FilterStatistics;
use crate::FilterError;

/// When a compiled [`FilterSnapshot`](crate::FilterSnapshot) is rebuilt.
///
/// Unifies the adaptive drift trigger (the first two fields) with the
/// incremental-subscription compaction threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebuildPolicy {
    /// Do not consider a drift rebuild before this many events were
    /// observed since the last rebuild; every trigger turned down since
    /// doubles the wait. Also how many observations an estimate needs
    /// before it displaces a configured event-model prior.
    pub min_events: u64,
    /// Rebuild when some attribute's empirical cell distribution is at
    /// least this far (L1) from the distribution the tree assumes, on
    /// top of the distance sampling noise alone accounts for (see
    /// [`DriftSignal::noise`]).
    pub drift_threshold: f64,
    /// Compact the subscription overlay into the tree once it holds more
    /// than this many profiles, or once more than this many tombstoned
    /// (unsubscribed but still compiled) profiles accumulate. `0`
    /// compacts on every subscribe and unsubscribe — the seed's
    /// rebuild-per-change behaviour.
    pub max_overlay: usize,
    /// Once `min_events` is reached, evaluate the drift distance only
    /// every this-many observed events (`1` — or `0`, treated as `1` —
    /// checks on every event). The histogram update is O(1) per event,
    /// but the L1 drift evaluation is O(cells); on wide domains with
    /// large profile populations checking every event would tax the
    /// publish path for no detection benefit.
    pub drift_check_every: u64,
}

impl Default for RebuildPolicy {
    fn default() -> Self {
        RebuildPolicy {
            min_events: 500,
            drift_threshold: 0.25,
            max_overlay: 64,
            drift_check_every: 32,
        }
    }
}

impl RebuildPolicy {
    /// Whether an overlay of `len` profiles, or `len` tombstoned ones,
    /// is due for compaction.
    #[must_use]
    pub fn compaction_due(&self, len: usize) -> bool {
        len > self.max_overlay
    }
}

/// Why the drift policy fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftCause {
    /// The tree in place was compiled before anything was observed (or
    /// under a configured prior): there is no estimate to have drifted
    /// from, and this is the warm-up onto the first one. Measured
    /// against the uniform placeholder, with no noise allowance.
    WarmUp,
    /// The event distribution moved: the empirical estimate is further
    /// from the one the tree was compiled under than the threshold and
    /// sampling noise together allow.
    Moved,
}

/// What [`DriftTracker::observe`] reports when the drift policy fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSignal {
    /// Why.
    pub cause: DriftCause,
    /// Measured L1 distance between the empirical cell distribution
    /// and the baseline, on the attribute that fired.
    pub drift: f64,
    /// The L1 distance sampling alone is expected to put between the
    /// baseline and the current estimate of that attribute: what
    /// `drift` has to clear, on top of
    /// [`RebuildPolicy::drift_threshold`], for [`DriftCause::Moved`].
    pub noise: f64,
}

impl DriftSignal {
    /// Whether this is the [`DriftCause::WarmUp`] trigger.
    #[must_use]
    pub fn is_warm_up(&self) -> bool {
        self.cause == DriftCause::WarmUp
    }
}

/// The cell distribution of one attribute that the compiled tree
/// assumes, and how well it was known.
#[derive(Debug)]
struct Baseline {
    pmf: Pmf,
    /// Observations the PMF was estimated from; 0 for a placeholder.
    observations: f64,
    /// [`FilterStatistics::drift_noise_scale`] at capture.
    noise_scale: f64,
}

impl Baseline {
    /// The sampling-noise allowance against a current estimate from
    /// `now` observations (see [`FilterStatistics::drift_noise_scale`]).
    /// A placeholder is exact by definition: no allowance.
    fn noise(&self, now: f64) -> f64 {
        if self.observations <= 0.0 || now <= 0.0 {
            return 0.0;
        }
        let per_cell = 2.0 * (1.0 / self.observations + 1.0 / now) / std::f64::consts::PI;
        self.noise_scale * per_cell.sqrt()
    }
}

/// The writer-side drift detector behind a snapshot-swapped filter.
///
/// Owns the [`FilterStatistics`] and the per-attribute baseline the
/// current tree was optimised for, so a broker can keep it under its
/// own (briefly held) writer lock while the match path reads an
/// immutable snapshot lock-free.
///
/// The policy fires when some attribute's empirical distribution is
/// [`RebuildPolicy::drift_threshold`] further (L1) from the baseline
/// than sampling noise explains — see [`DriftCause`]. The caller then
/// either rebuilds ([`DriftTracker::rebin`], compile,
/// [`DriftTracker::rebuilt`]) or turns the trigger down
/// ([`DriftTracker::decline_rebuild`], [`DriftTracker::defer_rebuild`]),
/// and every trigger turned down doubles the number of events before
/// the next one is evaluated.
///
/// The history survives a rebuild for another profile set: the
/// statistics are re-binned onto the new cells
/// ([`FilterStatistics::adopt_history`]), not restarted.
#[derive(Debug)]
pub struct DriftTracker {
    stats: FilterStatistics,
    /// Per attribute, what the current tree was optimised for.
    assumed: Vec<Baseline>,
    events_since_decision: u64,
    /// Events observed since the baseline last moved: a rebuild, or a
    /// trigger declined. A deferred trigger does not restart it.
    events_since_settled: u64,
    /// Events to observe after a decision before the drift is evaluated
    /// again: [`RebuildPolicy::min_events`], doubled by every trigger
    /// turned down since the last rebuild.
    next_check: u64,
    policy: RebuildPolicy,
}

/// The event history re-binned onto the cells of the profile set a
/// rebuild is about to compile ([`DriftTracker::rebin`]); it becomes
/// the tracker's when the rebuild is finished.
#[derive(Debug)]
pub struct RebinnedHistory {
    stats: FilterStatistics,
    /// Whether the model it stands for is its own estimate (not the
    /// configured prior).
    estimated: bool,
}

impl RebinnedHistory {
    /// The event model the rebuilt tree is optimised for: `prior`, the
    /// one [`DriftTracker::rebin`] was given, while it stands, else the
    /// empirical estimate of this history.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn model(&self, prior: Option<&JointDist>) -> Result<JointDist, FilterError> {
        match prior {
            Some(prior) if !self.estimated => Ok(prior.clone()),
            _ => self.stats.empirical_model(),
        }
    }
}

impl DriftTracker {
    /// Creates a tracker over the compiled profile set.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering and distribution errors.
    pub fn new(profiles: &ProfileSet, policy: RebuildPolicy) -> Result<Self, FilterError> {
        let stats = FilterStatistics::new(profiles)?;
        let assumed = Self::baselines(&stats, true)?;
        Ok(DriftTracker {
            stats,
            assumed,
            events_since_decision: 0,
            events_since_settled: 0,
            next_check: policy.min_events,
            policy,
        })
    }

    /// Captures the baseline from `stats`: its empirical estimate when
    /// that is what the tree is compiled under and it holds
    /// observations, the uniform placeholder otherwise.
    fn baselines(stats: &FilterStatistics, estimate: bool) -> Result<Vec<Baseline>, FilterError> {
        stats
            .schema()
            .ids()
            .map(|attr| {
                let observations = stats.event_observations(attr);
                if estimate && observations > 0.0 {
                    Ok(Baseline {
                        pmf: stats.event_drift_pmf(attr)?,
                        observations,
                        noise_scale: stats.drift_noise_scale(attr)?,
                    })
                } else {
                    Ok(Baseline {
                        pmf: Pmf::from_weights(vec![1.0; stats.cells(attr).len()])?,
                        observations: 0.0,
                        noise_scale: 0.0,
                    })
                }
            })
            .collect()
    }

    /// The policy this tracker applies.
    #[must_use]
    pub fn policy(&self) -> &RebuildPolicy {
        &self.policy
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn statistics(&self) -> &FilterStatistics {
        &self.stats
    }

    /// Records an observed event and reports whether the drift policy
    /// asks for a rebuild.
    ///
    /// Both the histogram update and the drift evaluation are
    /// allocation-free, so a broker can afford to call this on (a
    /// sampled subset of) the publish path.
    ///
    /// # Errors
    ///
    /// Propagates domain errors for ill-typed event values.
    pub fn observe(&mut self, event: &Event) -> Result<Option<DriftSignal>, FilterError> {
        self.stats.record_event(event)?;
        self.observed()
    }

    /// [`DriftTracker::observe`] for an event already resolved into its
    /// row (see [`FilterStatistics::record_row`]), as a publish has it.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors of the drift evaluation.
    pub fn observe_row(&mut self, row: &[u64]) -> Result<Option<DriftSignal>, FilterError> {
        self.stats.record_row(row);
        self.observed()
    }

    /// Counts the event just recorded and evaluates the drift when the
    /// policy's schedule says so.
    fn observed(&mut self) -> Result<Option<DriftSignal>, FilterError> {
        self.events_since_decision += 1;
        self.events_since_settled += 1;
        if self.events_since_decision < self.next_check {
            return Ok(None);
        }
        let every = self.policy.drift_check_every.max(1);
        if (self.events_since_decision - self.next_check) % every != 0 {
            return Ok(None);
        }
        self.evaluate()
    }

    /// Events observed since the last rebuild or the last trigger
    /// turned down.
    #[must_use]
    pub fn events_since_decision(&self) -> u64 {
        self.events_since_decision
    }

    /// Events observed since the tree's event model was last settled —
    /// compiled in by a rebuild, or checked and kept by
    /// [`DriftTracker::decline_rebuild`]: how long the tree in place
    /// has been serving under the model it has.
    #[must_use]
    pub fn events_since_settled(&self) -> u64 {
        self.events_since_settled
    }

    /// The attribute whose drift exceeds its allowance (threshold plus
    /// sampling noise) by the most, if any does. Allocation-free.
    fn evaluate(&self) -> Result<Option<DriftSignal>, FilterError> {
        let mut fired: Option<(f64, DriftSignal)> = None;
        for (j, baseline) in self.assumed.iter().enumerate() {
            let attr = AttrId::new(j as u32);
            let drift = self.stats.event_l1_drift(attr, &baseline.pmf)?;
            let noise = baseline.noise(self.stats.event_observations(attr));
            let excess = drift - noise - self.policy.drift_threshold;
            if excess >= 0.0 && fired.as_ref().is_none_or(|(best, _)| excess > *best) {
                let cause = if baseline.observations > 0.0 {
                    DriftCause::Moved
                } else {
                    DriftCause::WarmUp
                };
                fired = Some((
                    excess,
                    DriftSignal {
                        cause,
                        drift,
                        noise,
                    },
                ));
            }
        }
        Ok(fired.map(|(_, signal)| signal))
    }

    /// Maximum L1 distance, over attributes, between the empirical cell
    /// distribution and the one the tree assumes. Allocation-free.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn current_drift(&self) -> Result<f64, FilterError> {
        let mut worst: f64 = 0.0;
        for (j, baseline) in self.assumed.iter().enumerate() {
            worst = worst.max(
                self.stats
                    .event_l1_drift(AttrId::new(j as u32), &baseline.pmf)?,
            );
        }
        Ok(worst)
    }

    /// Turns a trigger down for good: the distribution that fired was
    /// priced and a rebuild for it buys nothing, so the baseline moves
    /// onto the current estimate and the detector speaks up again only
    /// when traffic moves away from *that* — and no sooner than twice
    /// as many events from now as last time. Returns that number.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn decline_rebuild(&mut self) -> Result<u64, FilterError> {
        self.assumed = Self::baselines(&self.stats, true)?;
        self.events_since_settled = 0;
        Ok(self.defer_rebuild())
    }

    /// Turns a trigger down for now: a rebuild would save something,
    /// but not yet enough to cover its cost. The baseline stays, so the
    /// same drift fires again, after twice as many events as last time.
    /// Returns that number.
    pub fn defer_rebuild(&mut self) -> u64 {
        self.events_since_decision = 0;
        self.next_check = self.next_check.saturating_mul(2);
        self.next_check
    }

    /// First rebuild phase: the event history re-binned onto the cells
    /// of `live`, the full profile set about to be compiled, lowered
    /// over the tracker's schema. The event
    /// model the new tree should be optimised for, if its shape reads
    /// one, comes from it ([`RebinnedHistory::model`]): the empirical
    /// estimate, unless `prior` is given and fewer than
    /// [`RebuildPolicy::min_events`] events were ever observed — a
    /// configured prior stands until an estimate exists that the policy
    /// itself would act on.
    ///
    /// Nothing is committed: the re-binned history is the caller's to
    /// hand back to [`DriftTracker::rebuilt`] once the tree is
    /// compiled, or to drop with a rebuild it abandons.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn rebin(
        &self,
        live: &LoweredTable,
        prior: Option<&JointDist>,
    ) -> Result<RebinnedHistory, FilterError> {
        let mut stats = FilterStatistics::from_lowered(self.stats.schema(), live);
        stats.adopt_history(&self.stats);
        let estimated = prior.is_none() || stats.events_posted() >= self.policy.min_events;
        Ok(RebinnedHistory { stats, estimated })
    }

    /// Second rebuild phase, after the new tree was compiled: the
    /// tracker that serves it, over the statistics
    /// [`DriftTracker::rebin`] re-binned, with the baseline taken from
    /// them (a placeholder if the tree was compiled under a prior) and
    /// the next detection window started. `self` is not touched: the
    /// caller commits by replacing it, once nothing else can fail.
    ///
    /// `migrated` says the rebuild answered [`DriftCause::Moved`] —
    /// the distribution moved, not just the profile set — in which
    /// case the history is halved, so the estimate follows the new
    /// traffic. A rebuild that did not change the model (subscription
    /// churn, the warm-up onto the first estimate) keeps every
    /// observation.
    ///
    /// # Errors
    ///
    /// Propagates distribution errors.
    pub fn rebuilt(&self, history: RebinnedHistory, migrated: bool) -> Result<Self, FilterError> {
        let mut stats = history.stats;
        if migrated {
            stats.decay();
        }
        Ok(DriftTracker {
            assumed: Self::baselines(&stats, history.estimated)?,
            stats,
            events_since_decision: 0,
            events_since_settled: 0,
            next_check: self.policy.min_events,
            policy: self.policy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lowered(ps: &ProfileSet) -> LoweredTable {
        LoweredTable::lower(ps.schema(), ps.iter()).unwrap()
    }
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

    #[test]
    fn thresholds() {
        let p = RebuildPolicy {
            max_overlay: 0,
            ..RebuildPolicy::default()
        };
        assert!(p.compaction_due(1), "max_overlay = 0 compacts immediately");
        assert!(!p.compaction_due(0));
    }

    /// One count for both sides of churn: tombstones compact where the
    /// overlay does, at the default as at a configured `max_overlay`.
    #[test]
    fn tombstones_compact_at_max_overlay() {
        let default = RebuildPolicy::default();
        assert!(!default.compaction_due(64));
        assert!(default.compaction_due(65));
        let p = RebuildPolicy {
            max_overlay: 2,
            ..default
        };
        assert!(!p.compaction_due(2));
        assert!(p.compaction_due(3));
    }

    /// Observes `x` until the policy fires, at most `limit` times;
    /// returns the signal and how many events it took.
    fn observe_until_fired(
        t: &mut DriftTracker,
        schema: &Schema,
        x: i64,
        limit: usize,
    ) -> Option<(DriftSignal, usize)> {
        (1..=limit).find_map(|n| {
            t.observe(&event(schema, x))
                .unwrap()
                .map(|signal| (signal, n))
        })
    }

    /// A rebuild for `live` from prepare to finish, nothing in between.
    fn rebuild(t: &mut DriftTracker, live: &ProfileSet, migrated: bool) {
        let history = t.rebin(&lowered(live), None).unwrap();
        *t = t.rebuilt(history, migrated).unwrap();
    }

    #[test]
    fn drift_fires_after_min_events_under_skew() {
        let (schema, ps) = setup();
        let policy = RebuildPolicy {
            min_events: 20,
            drift_threshold: 0.3,
            ..RebuildPolicy::default()
        };
        let mut t = DriftTracker::new(&ps, policy).unwrap();
        let (signal, after) = observe_until_fired(&mut t, &schema, 85, 40)
            .expect("concentrated traffic must trigger a rebuild");
        assert_eq!(after, 20, "the first evaluation, at min_events");
        // Nothing was observed before the tree in place was compiled:
        // this is the warm-up onto the first estimate, and a
        // placeholder has no sampling noise to allow for.
        assert!(signal.is_warm_up());
        assert_eq!(signal.noise, 0.0);
        assert!(signal.drift >= 0.3);
        let history = t.rebin(&lowered(&ps), None).unwrap();
        assert_eq!(history.model(None).unwrap().arity(), 1);
        t = t.rebuilt(history, false).unwrap();
        assert!(t.current_drift().unwrap() < 1e-12);
        assert_eq!(t.statistics().events_posted(), 20, "history is kept");
    }

    #[test]
    fn decline_rebaselines_the_detector() {
        let (schema, ps) = setup();
        let policy = RebuildPolicy {
            min_events: 40,
            drift_threshold: 0.3,
            drift_check_every: 1,
            ..RebuildPolicy::default()
        };
        let mut t = DriftTracker::new(&ps, policy).unwrap();
        assert!(observe_until_fired(&mut t, &schema, 85, 100).is_some());
        assert_eq!(t.decline_rebuild().unwrap(), 80, "the wait doubles");
        assert_eq!(t.events_since_decision(), 0);
        assert_eq!(t.events_since_settled(), 0);
        // The same (checked) traffic must not re-fire the detector…
        for _ in 0..80 {
            assert!(t.observe(&event(&schema, 85)).unwrap().is_none());
        }
        // …but traffic moving away from the checked estimate must, now
        // against a baseline that has observations behind it.
        let (signal, _) = observe_until_fired(&mut t, &schema, 15, 60)
            .expect("new drift away from the declined estimate");
        assert_eq!(signal.cause, DriftCause::Moved);
        assert!(signal.noise > 0.0 && signal.drift >= 0.3 + signal.noise);
    }

    /// A trigger deferred keeps its baseline, so the same drift fires
    /// again — after 2, 4, 8… times `min_events`; a rebuild resets the
    /// wait.
    #[test]
    fn deferred_triggers_back_off_exponentially() {
        let (schema, ps) = setup();
        let policy = RebuildPolicy {
            min_events: 10,
            drift_threshold: 0.3,
            drift_check_every: 1,
            ..RebuildPolicy::default()
        };
        let mut t = DriftTracker::new(&ps, policy).unwrap();
        let mut waits = Vec::new();
        for _ in 0..4 {
            let (_, after) = observe_until_fired(&mut t, &schema, 85, 1000).unwrap();
            waits.push(after);
            t.defer_rebuild();
        }
        assert_eq!(waits, [10, 20, 40, 80]);
        rebuild(&mut t, &ps, true);
        let (_, after) = observe_until_fired(&mut t, &schema, 15, 1000).unwrap();
        assert!(after < 80, "a rebuild resets the wait: fired after {after}");
    }

    /// One attribute over `cells` point cells, every cell referenced.
    fn point_cells(cells: i64) -> (Schema, ProfileSet) {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, cells - 1))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        for v in 0..cells {
            ps.insert_with(|b| b.predicate("x", Predicate::eq(v)))
                .unwrap();
        }
        (schema, ps)
    }

    /// The stock case of PR 11 in small: many more cells than
    /// `min_events`, stationary traffic. The estimate the warm-up
    /// rebuild baselines on is mostly sampling noise, the next
    /// estimate is as far from it as the fixed threshold ever was —
    /// and the detector, knowing how far sampling alone puts them, now
    /// keeps quiet.
    #[test]
    fn stationary_traffic_over_many_cells_never_reads_as_moved() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (schema, ps) = point_cells(2000);
        let mut t = DriftTracker::new(&ps, RebuildPolicy::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let mut fired = Vec::new();
        let mut worst: f64 = 0.0;
        for n in 1..=40_000u64 {
            let e = event(&schema, rng.gen_range(0..2000));
            if let Some(signal) = t.observe(&e).unwrap() {
                fired.push((n, signal.cause));
                rebuild(&mut t, &ps, signal.cause == DriftCause::Moved);
            }
            if n % 100 == 0 {
                worst = worst.max(t.current_drift().unwrap());
            }
        }
        assert_eq!(fired, [(500, DriftCause::WarmUp)]);
        // Without the noise term every evaluation since would have
        // read as a drift.
        assert!(worst > 4.0 * RebuildPolicy::default().drift_threshold);
    }

    /// A real migration — all traffic moves to another cell — clears
    /// the noise allowance as soon as the arithmetic lets it, and is
    /// reported within two `min_events` of that point.
    #[test]
    fn real_migration_fires_as_soon_as_the_noise_bound_allows() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (schema, ps) = point_cells(50);
        let policy = RebuildPolicy {
            min_events: 100,
            ..RebuildPolicy::default()
        };
        let mut t = DriftTracker::new(&ps, policy).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        // Phase A: uniform over the lower half; rebuild where asked —
        // the once, onto the first estimate.
        for _ in 0..2000 {
            let e = event(&schema, rng.gen_range(0..25));
            if let Some(signal) = t.observe(&e).unwrap() {
                assert_ne!(signal.cause, DriftCause::Moved, "phase A is stationary");
                rebuild(&mut t, &ps, false);
            }
        }
        // Phase B: everything moves to the upper half. With `n` events
        // of A on the books, `m` of B put the estimate `2m / (n + m)`
        // from the baseline; the bound allows the trigger once that
        // reaches threshold plus noise.
        let n = t.statistics().event_observations(AttrId::new(0));
        let mut allowed_at = None;
        let mut fired_at = None;
        for m in 1..=4000u64 {
            let signal = t.observe(&event(&schema, rng.gen_range(25..50))).unwrap();
            let shift = 2.0 * m as f64 / (n + m as f64);
            let noise = t.assumed[0].noise(n + m as f64);
            if allowed_at.is_none() && shift >= policy.drift_threshold + noise {
                allowed_at = Some(m);
            }
            if let Some(signal) = signal {
                assert_eq!(signal.cause, DriftCause::Moved);
                assert!((signal.noise - noise).abs() < 1e-12);
                fired_at = Some(m);
                break;
            }
        }
        let fired_at = fired_at.expect("the migration fires");
        // Sampling luck may carry the measured drift over the bar a
        // few events before the expected shift gets there.
        let allowed_at = allowed_at.unwrap_or(fired_at);
        assert!(
            fired_at <= allowed_at + 2 * policy.min_events,
            "allowed at {allowed_at}, fired at {fired_at}"
        );
    }

    #[test]
    fn compaction_rebuild_rebins_the_history() {
        let (schema, ps) = setup();
        let mut t = DriftTracker::new(&ps, RebuildPolicy::default()).unwrap();
        for _ in 0..10 {
            t.observe(&event(&schema, 85)).unwrap();
        }
        let mut bigger = ps.clone();
        bigger
            .insert_with(|b| b.predicate("x", Predicate::between(40, 59)))
            .unwrap();
        let history = t.rebin(&lowered(&bigger), None).unwrap();
        // Staged only: an abandoned rebuild leaves the tracker alone.
        assert_eq!(t.statistics().cells(AttrId::new(0)).len(), 5);
        t = t.rebuilt(history, false).unwrap();
        assert_eq!(t.statistics().cells(AttrId::new(0)).len(), 7);
        assert_eq!(t.statistics().events_posted(), 10, "history survives");
        assert_eq!(t.statistics().event_observations(AttrId::new(0)), 10.0);
        // The baseline is the estimate the tree was compiled under.
        assert!(t.current_drift().unwrap() < 1e-12);
        assert_eq!(t.assumed[0].observations, 10.0);
    }

    /// A configured prior stands until `min_events` observations exist;
    /// the tree compiled under it has a placeholder for a baseline.
    #[test]
    fn configured_prior_stands_until_min_events() {
        use ens_dist::{Density, DistOverDomain};
        let (schema, ps) = setup();
        let prior =
            JointDist::independent(vec![DistOverDomain::new(Density::window(0.8, 0.9), 100)])
                .unwrap();
        let policy = RebuildPolicy {
            min_events: 30,
            drift_threshold: 2.1, // never fires
            ..RebuildPolicy::default()
        };
        let mut t = DriftTracker::new(&ps, policy).unwrap();
        for _ in 0..29 {
            t.observe(&event(&schema, 15)).unwrap();
        }
        let history = t.rebin(&lowered(&ps), Some(&prior)).unwrap();
        assert_eq!(history.model(Some(&prior)).unwrap(), prior);
        t = t.rebuilt(history, false).unwrap();
        assert_eq!(t.assumed[0].observations, 0.0, "placeholder baseline");
        t.observe(&event(&schema, 15)).unwrap();
        let history = t.rebin(&lowered(&ps), Some(&prior)).unwrap();
        let model = history.model(Some(&prior)).unwrap();
        assert!(model != prior, "30 observations displace the prior");
        assert!(model.marginal(0).mass_between(10, 20) > 0.9);
        t = t.rebuilt(history, false).unwrap();
        assert_eq!(t.assumed[0].observations, 30.0);
    }

    /// Only a rebuild that answered a real drift halves the history.
    #[test]
    fn decay_follows_migrations_only() {
        let (schema, ps) = setup();
        let mut t = DriftTracker::new(&ps, RebuildPolicy::default()).unwrap();
        for _ in 0..8 {
            t.observe(&event(&schema, 85)).unwrap();
        }
        rebuild(&mut t, &ps, false);
        assert_eq!(t.statistics().event_observations(AttrId::new(0)), 8.0);
        rebuild(&mut t, &ps, true);
        assert_eq!(t.statistics().event_observations(AttrId::new(0)), 4.0);
        assert_eq!(t.assumed[0].observations, 4.0);
    }
}
