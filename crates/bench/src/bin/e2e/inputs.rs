//! The six workloads: what each one is, why it is here, and how its
//! inputs are made.
//!
//! Inputs are made before any set-up is timed, and the system under
//! test only ever sees the generated profiles and events.
//!
//! **What the seed drives.** Event streams, churn profiles and churn
//! order come from `--seed`. Subscription *populations* are pinned by
//! a per-workload constant instead: `covered_100k` attaches 90 000
//! profiles to Zipf-ranked roots, so which predicates the three most
//! popular roots happen to draw moves mean fan-out — and with it every
//! rate — several-fold from seed to seed, far beyond any usable
//! regression bound. For the same reason events are a *stratified*
//! sample of the workload's event model (one draw per 1/n slice of
//! each marginal's CDF, columns shuffled independently by the seed)
//! rather than n independent draws: the marginals every seed sees are
//! the model's, the pairing of values across attributes is the seed's.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use ens_dist::{Density, DistOverDomain, JointDist};
use ens_filter::baseline::NaiveMatcher;
use ens_filter::{MatchScratch, Matcher};
use ens_service::BrokerConfig;
use ens_types::{Domain, Event, IndexedEvent, Predicate, Profile, ProfileSet, Schema};
use ens_workloads::scenario::{
    environmental_event_model, environmental_profiles, environmental_schema, stock_event_model,
    stock_profiles, stock_schema,
};
use ens_workloads::{
    churn_burst_plan, covered_profiles, ChurnOp, CoveredPopulationConfig, ProfileGenConfig,
    ProfileGenerator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which driver replays a workload (see `drivers.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Broker::publish_shared`, one event at a time.
    PerEvent,
    /// `Broker::publish_batch`, [`BATCH`] events per call.
    Batch,
    /// Churn rounds against a durable broker on in-memory storage.
    Durable,
    /// Three federated brokers in a line over `SimNet`.
    Fed,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
    /// Live subscriptions (`covered_100k` shrinks to a tenth under
    /// `--smoke`).
    subscriptions: usize,
    /// Events in one pass over the workload's inputs.
    events: usize,
    /// Check every n-th event against the oracle (1 = all of them).
    oracle_stride: usize,
    /// Listed in the root `BENCHMARK.json` and held to the end-to-end
    /// bounds by `--aa`. A workload that cannot hold them is still run
    /// and reported, but judges no change (README, "Steadiness").
    pub gated: bool,
}

/// Events per `publish_batch` call.
pub const BATCH: usize = 256;
/// Events per churn burst and per federated batch.
pub const BURST: usize = 64;
/// Subscribes (and unsubscribes) per churn round.
pub const CHURN_PER_ROUND: usize = 16;
/// Spare profiles generated beside each population for subscribe ops.
const SPARE_PROFILES: usize = 256;

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "fanout_env",
        kind: Kind::PerEvent,
        why: "1000 environmental profiles, about 90 notifications per event, \
              publish_shared: delivery does over 90 % of the work and matching under \
              10 %, so a delivery optimisation must show here",
        subscriptions: 1000,
        events: 8192,
        oracle_stride: 1,
        gated: true,
    },
    Spec {
        name: "selective_10k",
        kind: Kind::PerEvent,
        why: "10 000 selective profiles, fan-out about 1: resolve, match and per-event \
              bookkeeping do the work and delivery little, so an engine switch shows \
              here and a delivery optimisation must not",
        subscriptions: 10_000,
        events: 8192,
        oracle_stride: 1,
        gated: false,
    },
    Spec {
        name: "covered_100k",
        kind: Kind::PerEvent,
        why: "100 000 Zipf-skewed covered profiles, covering on: cover expansion is \
              three quarters of matching, set-up is the 100k compile, and state is far \
              larger than the caches",
        subscriptions: 100_000,
        events: 16_384,
        oracle_stride: 32,
        gated: false,
    },
    Spec {
        name: "batch_sharded",
        kind: Kind::Batch,
        why: "1000 stock profiles, publish_batch of 256 events on 2 shards (drift \
              sampling off): IndexedBatch, match_block, per-batch thread spawn and \
              per-shard merge, the other publish path",
        subscriptions: 1000,
        events: 4096,
        oracle_stride: 1,
        gated: true,
    },
    Spec {
        name: "durable_churn",
        kind: Kind::Durable,
        why: "subscribe/unsubscribe rounds beside publish bursts on a durable broker \
              (in-memory storage, fsync always), then checkpoint and five reloads: \
              writes beside reads, WAL and recovery",
        subscriptions: 1000,
        events: 4096,
        oracle_stride: 1,
        gated: true,
    },
    Spec {
        name: "fed_line3",
        kind: Kind::Fed,
        why: "three federated brokers in a line over SimNet, 64-event batches from A \
              to covered populations at B and C: encode, link, decode and batched \
              ingress with no kernel in the path",
        subscriptions: 200,
        events: 4096,
        oracle_stride: 1,
        gated: true,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One churn round: subscribe, publish a burst, unsubscribe.
pub struct Round {
    pub subscribe: Vec<Profile>,
    /// Index range of the burst in [`Inputs::events`].
    pub burst: Range<usize>,
    /// Each entry cancels the k-th oldest churn subscription still
    /// live (0-based), as `ChurnOp::Unsubscribe` defines it.
    pub unsubscribe: Vec<usize>,
    /// Oracle for the churn subscriptions: bit `b` of `masks[i]` is
    /// set iff `subscribe[i]` matches the burst's `b`-th event.
    pub masks: Vec<u64>,
}

/// Expected notifications of the population, per event: the sorted
/// indices of the profiles that `NaiveMatcher` says match it.
pub struct Oracle {
    offsets: Vec<u32>,
    matches: Vec<u32>,
    stride: usize,
}

impl Oracle {
    pub fn build(
        population: &ProfileSet,
        events: &[Arc<Event>],
        stride: usize,
    ) -> Result<Self, String> {
        let naive = NaiveMatcher::new(population).map_err(|e| e.to_string())?;
        let mut indexed = IndexedEvent::new();
        let mut scratch = MatchScratch::new();
        let mut offsets = vec![0u32];
        let mut matches = Vec::new();
        for event in events.iter().step_by(stride) {
            indexed
                .resolve_into(population.schema(), event)
                .map_err(|e| e.to_string())?;
            naive.match_into(&indexed, &mut scratch);
            matches.extend(scratch.profiles().iter().map(|p| p.index() as u32));
            offsets.push(matches.len() as u32);
        }
        Ok(Oracle {
            offsets,
            matches,
            stride,
        })
    }

    /// The profiles expected to match event `e`, or `None` if `e` is
    /// not in the checked sample.
    pub fn expected(&self, e: usize) -> Option<&[u32]> {
        (e % self.stride == 0).then(|| {
            let k = e / self.stride;
            &self.matches[self.offsets[k] as usize..self.offsets[k + 1] as usize]
        })
    }

    /// Mean notifications per checked event.
    pub fn mean_fanout(&self) -> f64 {
        self.matches.len() as f64 / (self.offsets.len() - 1) as f64
    }
}

pub struct Inputs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub schema: Schema,
    pub model: JointDist,
    /// `BrokerConfig::default()` except the one field the workload
    /// names — users' defaults are what is measured.
    pub config: BrokerConfig,
    pub population: ProfileSet,
    /// Spare profiles for acked-subscribe measurements.
    pub spare: Vec<Profile>,
    /// One pass of events, in publish order.
    pub events: Vec<Arc<Event>>,
    /// Churn rounds covering `events` burst by burst.
    pub rounds: Vec<Round>,
    pub oracle: Oracle,
    /// Time spent in `ens-workloads` generators (ungated).
    pub generate_s: f64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Population seeds are fixed per workload (see the module comment).
fn population_rng(spec: &Spec) -> StdRng {
    let index = WORKLOADS.iter().position(|w| w.name == spec.name);
    StdRng::seed_from_u64(0x0e2e_5eed + index.unwrap_or(0) as u64)
}

/// Splits a generated set into the population and the spare profiles.
fn split(set: &ProfileSet, n: usize) -> (ProfileSet, Vec<Profile>) {
    let mut population = ProfileSet::new(set.schema());
    let mut spare = Vec::new();
    for (i, p) in set.iter().enumerate() {
        if i < n {
            population.insert(p.clone());
        } else {
            spare.push(p.clone());
        }
    }
    (population, spare)
}

/// `n` events whose per-attribute values are a stratified sample of
/// `model`'s marginals, paired across attributes by `rng`.
pub fn stratified_events(
    schema: &Schema,
    model: &JointDist,
    n: usize,
    rng: &mut StdRng,
) -> Result<Vec<Arc<Event>>, String> {
    let mut columns: Vec<Vec<u64>> = Vec::with_capacity(schema.len());
    for j in 0..schema.len() {
        let marginal = model.marginal(j);
        let last = marginal.size() - 1;
        let mut column = Vec::with_capacity(n);
        // Inverse CDF by one forward walk: the strata are ascending.
        let (mut i, mut below) = (0u64, 0.0f64);
        for k in 0..n {
            let u = (k as f64 + rng.gen::<f64>()) / n as f64;
            while i < last && below + marginal.prob_index(i) <= u {
                below += marginal.prob_index(i);
                i += 1;
            }
            column.push(i);
        }
        for k in (1..n).rev() {
            column.swap(k, rng.gen_range(0..=k));
        }
        columns.push(column);
    }
    (0..n)
        .map(|k| {
            let values = schema
                .iter()
                .zip(&columns)
                .map(|((_, a), column)| Some(a.domain().value_at(column[k])))
                .collect();
            Event::from_values(schema, values)
                .map(Arc::new)
                .map_err(err)
        })
        .collect()
}

fn uniform_value_dists(schema: &Schema) -> Vec<DistOverDomain> {
    schema
        .iter()
        .map(|(_, a)| DistOverDomain::new(Density::Uniform, a.domain().size()))
        .collect()
}

/// The federation population: 8 disjoint wide bands plus 24 distinct
/// narrowings inside each (200 subscriptions whose minimal covering
/// antichain is the 8 bands), then spare narrowings.
fn band_profiles(schema: &Schema, n: usize, rng: &mut StdRng) -> Result<ProfileSet, String> {
    let mut set = ProfileSet::new(schema);
    let mut bands = Vec::new();
    for band in 0..8i64 {
        let lo = band * 1250 + rng.gen_range(0..=300);
        bands.push(lo);
        set.insert_with(|b| b.predicate("x", Predicate::between(lo, lo + 624)))
            .map_err(err)?;
    }
    for k in 8..n {
        let lo = bands[k % 8] + rng.gen_range(0..=520);
        set.insert_with(|b| b.predicate("x", Predicate::between(lo, lo + 100)))
            .map_err(err)?;
    }
    Ok(set)
}

/// Rounds that subscribe spare profiles in turn and cancel them in a
/// seeded order — `churn_burst_plan`'s shape over any population.
fn local_rounds(spare: &[Profile], events: usize, rng: &mut StdRng) -> Vec<Round> {
    let mut next = 0usize;
    (0..events / BURST)
        .map(|r| {
            let subscribe = (0..CHURN_PER_ROUND)
                .map(|_| {
                    next += 1;
                    spare[(next - 1) % spare.len()].clone()
                })
                .collect();
            let unsubscribe = (0..CHURN_PER_ROUND)
                .map(|done| rng.gen_range(0..CHURN_PER_ROUND - done))
                .collect();
            Round {
                subscribe,
                burst: r * BURST..(r + 1) * BURST,
                unsubscribe,
                masks: Vec::new(),
            }
        })
        .collect()
}

/// `churn_burst_plan`'s ops regrouped into rounds.
fn plan_rounds(seed: u64, events: usize) -> Result<Vec<Round>, String> {
    let plan = churn_burst_plan(seed, events / BURST, BURST, CHURN_PER_ROUND).map_err(err)?;
    let mut rounds: Vec<Round> = Vec::new();
    let mut open = true;
    for op in plan.ops {
        if open {
            rounds.push(Round {
                subscribe: Vec::new(),
                burst: 0..0,
                unsubscribe: Vec::new(),
                masks: Vec::new(),
            });
            open = false;
        }
        let round = rounds.last_mut().expect("pushed above");
        match op {
            ChurnOp::Subscribe(p) => round.subscribe.push(p),
            ChurnOp::Burst(range) => round.burst = range,
            ChurnOp::Unsubscribe(k) => {
                round.unsubscribe.push(k);
                open = round.unsubscribe.len() == round.subscribe.len();
            }
        }
    }
    Ok(rounds)
}

impl Inputs {
    /// Generates the inputs of workload `spec` for `seed`.
    pub fn generate(spec: &'static Spec, seed: u64, smoke: bool) -> Result<Inputs, String> {
        let mut pop_rng = population_rng(spec);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = if smoke {
            spec.subscriptions.min(10_000)
        } else {
            spec.subscriptions
        };
        let total = n + SPARE_PROFILES;
        let t0 = Instant::now();
        let mut config = BrokerConfig::default();
        let (schema, model, generated) = match spec.name {
            "fanout_env" | "durable_churn" => (
                environmental_schema(),
                environmental_event_model().map_err(err)?,
                environmental_profiles(total, &mut pop_rng).map_err(err)?,
            ),
            "selective_10k" => {
                let schema = environmental_schema();
                // Selective shape: (nearly) every attribute constrained,
                // mostly by equality, ranges 5 % of the domain.
                let shape = ProfileGenConfig {
                    dont_care_prob: 0.02,
                    eq_prob: 0.6,
                    range_width_frac: 0.05,
                };
                let generated = ProfileGenerator::new(&schema, uniform_value_dists(&schema), shape)
                    .and_then(|g| g.generate(total, &mut pop_rng))
                    .map_err(err)?;
                (schema, environmental_event_model().map_err(err)?, generated)
            }
            "covered_100k" => {
                let schema = environmental_schema();
                // The committed `zipf` shape of the profile_scale bench.
                let shape = CoveredPopulationConfig {
                    coverage_density: 0.9,
                    duplicate_frac: 0.4,
                    zipf_exponent: 1.2,
                    roots: ProfileGenConfig {
                        dont_care_prob: 0.1,
                        eq_prob: 0.6,
                        range_width_frac: 0.05,
                    },
                };
                let generated =
                    covered_profiles(&schema, total, &shape, &mut pop_rng).map_err(err)?;
                (schema, environmental_event_model().map_err(err)?, generated)
            }
            "batch_sharded" => {
                config.shards = 2;
                // With drift sampling on, the default broker recompiles
                // this population's tree every ~530 events for good (its
                // ~2000 price cells keep the estimate noisier than the
                // drift threshold), which buries the batch path under
                // compiles and makes batch latency bimodal. See README.
                config.stats_sample = 0;
                (
                    stock_schema(),
                    stock_event_model().map_err(err)?,
                    stock_profiles(total, &mut pop_rng).map_err(err)?,
                )
            }
            "fed_line3" => {
                let schema = Schema::builder()
                    .attribute("x", Domain::int(0, 9999))
                    .map_err(err)?
                    .build();
                let model =
                    JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 10_000)])
                        .map_err(err)?;
                let generated = band_profiles(&schema, total, &mut pop_rng)?;
                (schema, model, generated)
            }
            other => return Err(format!("no generator for workload `{other}`")),
        };
        let (population, spare) = split(&generated, n);
        let events = stratified_events(&schema, &model, spec.events, &mut rng)?;
        let mut rounds = if spec.kind == Kind::Durable {
            plan_rounds(seed, spec.events)?
        } else {
            local_rounds(&spare, spec.events, &mut rng)
        };
        let generate_s = t0.elapsed().as_secs_f64();

        for round in &mut rounds {
            for profile in &round.subscribe {
                let mut mask = 0u64;
                for (b, event) in events[round.burst.clone()].iter().enumerate() {
                    if profile.matches(&schema, event).map_err(err)? {
                        mask |= 1 << b;
                    }
                }
                round.masks.push(mask);
            }
        }
        let oracle = Oracle::build(&population, &events, spec.oracle_stride)?;
        Ok(Inputs {
            spec,
            seed,
            schema,
            model,
            config,
            population,
            spare,
            events,
            rounds,
            oracle,
            generate_s,
        })
    }

    /// The first `n` subscriptions of the population — what the traced
    /// run replays the durable and federated layers on when they are
    /// not the workload's own.
    pub fn prefix_population(&self, n: usize) -> ProfileSet {
        let mut set = ProfileSet::new(&self.schema);
        for p in self.population.iter().take(n) {
            set.insert(p.clone());
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_events_reproduce_the_marginals_and_the_seed() {
        let schema = environmental_schema();
        let model = environmental_event_model().unwrap();
        let a = stratified_events(&schema, &model, 2000, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = stratified_events(&schema, &model, 2000, &mut StdRng::seed_from_u64(5)).unwrap();
        let c = stratified_events(&schema, &model, 2000, &mut StdRng::seed_from_u64(6)).unwrap();
        assert_eq!(a, b, "same seed, same events");
        assert_ne!(a, c, "another seed pairs the values differently");
        // Each value's count is within one stratum of n * p.
        let (temperature, attr) = schema.iter().next().unwrap();
        let marginal = model.marginal(0);
        for i in 0..marginal.size() {
            let value = attr.domain().value_at(i);
            let count = a
                .iter()
                .filter(|e| e.value(temperature) == Some(&value))
                .count() as f64;
            let want = 2000.0 * marginal.prob_index(i);
            assert!((count - want).abs() <= 2.0, "value {i}: {count} vs {want}");
        }
    }

    #[test]
    fn plan_rounds_regroup_every_op() {
        let rounds = plan_rounds(11, 4 * BURST).unwrap();
        assert_eq!(rounds.len(), 4);
        for (r, round) in rounds.iter().enumerate() {
            assert_eq!(round.subscribe.len(), CHURN_PER_ROUND);
            assert_eq!(round.unsubscribe.len(), CHURN_PER_ROUND);
            assert_eq!(round.burst, r * BURST..(r + 1) * BURST);
            for (done, k) in round.unsubscribe.iter().enumerate() {
                assert!(*k < CHURN_PER_ROUND - done);
            }
        }
    }

    #[test]
    fn oracle_samples_by_stride_and_agrees_with_profile_set() {
        let inputs = Inputs::generate(spec("fed_line3").unwrap(), 3, true).unwrap();
        assert_eq!(inputs.population.len(), 200);
        assert_eq!(inputs.spare.len(), SPARE_PROFILES);
        for e in [0usize, 17, 4095] {
            let want: Vec<u32> = inputs
                .population
                .matches(&inputs.events[e])
                .unwrap()
                .iter()
                .map(|p| p.index() as u32)
                .collect();
            assert_eq!(inputs.oracle.expected(e), Some(want.as_slice()));
        }
        let sampled = Oracle::build(&inputs.population, &inputs.events, 8).unwrap();
        assert_eq!(sampled.expected(16), inputs.oracle.expected(16));
        assert_eq!(sampled.expected(17), None);
    }
}
