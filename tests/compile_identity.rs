//! Byte-identity oracle for the compile pipeline: the checkpoint image
//! of every end-to-end population, compiled plain and covered, at the
//! default shape and at a model-reading one (V1 search, A2 order),
//! hashes to the CRC-32 pinned below. Any change to lowering, covering,
//! the automaton build or the encoder that alters a single byte of a
//! compiled filter fails here.
//!
//! The populations are the e2e benchmark's at smoke size
//! (`covered_100k` at 10 000 profiles), drawn from its per-workload
//! population seeds exactly as `crates/bench/src/bin/e2e/inputs.rs`
//! draws them: `n` profiles plus 256 spares generated, the first `n`
//! kept.

use ens::dist::{Density, DistOverDomain, JointDist};
use ens::filter::persist::crc32;
use ens::filter::{
    AttributeMeasure, AttributeOrder, Direction, FilterSnapshot, SearchStrategy, TreeConfig,
    ValueOrder,
};
use ens::types::{CoverOutcome, CoverSet, Domain, Predicate, ProfileSet, Schema};
use ens::workloads::scenario::{
    environmental_event_model, environmental_profiles, environmental_schema, stock_event_model,
    stock_profiles,
};
use ens::workloads::{
    covered_profiles, CoveredPopulationConfig, ProfileGenConfig, ProfileGenerator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Spare profiles the e2e inputs generate beside each population.
const SPARE: usize = 256;

/// The e2e population seed of the workload at `index` in its table.
fn population_rng(index: u64) -> StdRng {
    StdRng::seed_from_u64(0x0e2e_5eed + index)
}

/// The first `n` profiles of `set`.
fn first(set: &ProfileSet, n: usize) -> ProfileSet {
    let mut out = ProfileSet::new(set.schema());
    for p in set.iter().take(n) {
        out.insert(p.clone());
    }
    out
}

fn env_shape(dont_care_prob: f64) -> ProfileGenConfig {
    ProfileGenConfig {
        dont_care_prob,
        eq_prob: 0.6,
        range_width_frac: 0.05,
    }
}

/// The six populations, in the e2e workload table's order, each with
/// the event model its workload publishes under.
fn populations() -> Vec<(&'static str, ProfileSet, JointDist)> {
    let env = environmental_schema();
    let env_model = environmental_event_model().unwrap();
    let uniform: Vec<DistOverDomain> = env
        .iter()
        .map(|(_, a)| DistOverDomain::new(Density::Uniform, a.domain().size()))
        .collect();
    let selective = ProfileGenerator::new(&env, uniform, env_shape(0.02))
        .unwrap()
        .generate(10_000 + SPARE, &mut population_rng(1))
        .unwrap();
    let covered = CoveredPopulationConfig {
        coverage_density: 0.9,
        duplicate_frac: 0.4,
        zipf_exponent: 1.2,
        roots: env_shape(0.1),
    };
    let covered = covered_profiles(&env, 10_000 + SPARE, &covered, &mut population_rng(2)).unwrap();
    let line = Schema::builder()
        .attribute("x", Domain::int(0, 9999))
        .unwrap()
        .build();
    let mut bands = ProfileSet::new(&line);
    let mut rng = population_rng(5);
    let mut starts = Vec::new();
    for band in 0..8i64 {
        let lo = band * 1250 + rng.gen_range(0..=300);
        starts.push(lo);
        bands
            .insert_with(|b| b.predicate("x", Predicate::between(lo, lo + 624)))
            .unwrap();
    }
    for k in 8..200 + SPARE {
        let lo = starts[k % 8] + rng.gen_range(0..=520);
        bands
            .insert_with(|b| b.predicate("x", Predicate::between(lo, lo + 100)))
            .unwrap();
    }
    let line_model =
        JointDist::independent(vec![DistOverDomain::new(Density::Uniform, 10_000)]).unwrap();
    let env_set = |index| environmental_profiles(1000 + SPARE, &mut population_rng(index)).unwrap();
    vec![
        ("fanout_env", first(&env_set(0), 1000), env_model.clone()),
        (
            "selective_10k",
            first(&selective, 10_000),
            env_model.clone(),
        ),
        ("covered_100k", first(&covered, 10_000), env_model.clone()),
        (
            "batch_sharded",
            first(
                &stock_profiles(1000 + SPARE, &mut population_rng(3)).unwrap(),
                1000,
            ),
            stock_event_model().unwrap(),
        ),
        ("durable_churn", first(&env_set(4), 1000), env_model),
        ("fed_line3", first(&bands, 200), line_model),
    ]
}

/// Population, model-reading shape, covering; image length and CRC-32.
type Pin = (&'static str, bool, bool, usize, u32);

/// Computed at the commit before the compile pipeline lowered each
/// profile once and reused its buffers per level.
#[rustfmt::skip]
const PINNED: [Pin; 24] = [
    ("fanout_env", false, false, 29401, 1863075085),
    ("fanout_env", false, true, 20588, 3987492749),
    ("fanout_env", true, false, 37975, 3779952344),
    ("fanout_env", true, true, 27216, 3002264184),
    ("selective_10k", false, false, 1978208, 3103541729),
    ("selective_10k", false, true, 1968714, 2056159322),
    ("selective_10k", true, false, 2849430, 2169617499),
    ("selective_10k", true, true, 2827223, 864404176),
    ("covered_100k", false, false, 1908602, 3248240070),
    ("covered_100k", false, true, 839533, 2704589095),
    ("covered_100k", true, false, 2644416, 3129352430),
    ("covered_100k", true, true, 1323048, 3015266797),
    ("batch_sharded", false, false, 365638, 1536405179),
    ("batch_sharded", false, true, 112008, 3984860128),
    ("batch_sharded", true, false, 1730323, 2975484670),
    ("batch_sharded", true, true, 886368, 2833791759),
    ("durable_churn", false, false, 29666, 3346866477),
    ("durable_churn", false, true, 20723, 1341989045),
    ("durable_churn", true, false, 38163, 2860769840),
    ("durable_churn", true, true, 27313, 1496388217),
    ("fed_line3", false, false, 6381, 1862527344),
    ("fed_line3", false, true, 4370, 3952578746),
    ("fed_line3", true, false, 188765, 973356031),
    ("fed_line3", true, true, 184572, 714263121),
];

#[test]
fn compiled_images_are_pinned() {
    let mut pins = PINNED.iter();
    let mut got = Vec::new();
    for (name, ps, model) in populations() {
        let schema = ps.schema().clone();
        let cover =
            CoverSet::build_bulk(&schema, ps.iter().map(|p| (p.id().index() as u32, p))).unwrap();
        for reads_model in [false, true] {
            let config = if reads_model {
                TreeConfig {
                    search: SearchStrategy::Linear(ValueOrder::EventProb(Direction::Descending)),
                    attribute_order: AttributeOrder::Selectivity {
                        measure: AttributeMeasure::A2,
                        direction: Direction::Descending,
                    },
                    event_model: Some(model.clone()),
                    ..TreeConfig::default()
                }
            } else {
                TreeConfig::default()
            };
            for covering in [false, true] {
                let snap = if covering {
                    FilterSnapshot::compile_with_cover(&ps, &cover, &config).unwrap()
                } else {
                    FilterSnapshot::compile(&ps, &config).unwrap()
                };
                // The image ends in the CRC-32 of what precedes it, so
                // the CRC of the whole image is the same for every one.
                let image = snap.to_bytes();
                let body = &image[..image.len() - 4];
                got.push((name, reads_model, covering, image.len(), crc32(body)));
            }
        }
    }
    for g in got {
        assert_eq!(
            Some(&g),
            pins.next(),
            "the image differs from the pinned one"
        );
    }
    assert!(pins.next().is_none());
}

/// Image length and CRC-32 of a covered `fanout_env` compile with base
/// tombstones and both covered and indexed overlay entries, two of
/// those tombstoned and packed out. Computed at the commit before one
/// tombstone call served base and overlay, whose base call took a
/// whole bitmap.
const TOMBSTONED: (usize, u32) = (22433, 629155211);

#[test]
fn tombstoned_image_is_pinned() {
    let env = environmental_profiles(1000 + SPARE, &mut population_rng(0)).unwrap();
    let ps = first(&env, 1000);
    let schema = ps.schema().clone();
    let cover =
        CoverSet::build_bulk(&schema, ps.iter().map(|p| (p.id().index() as u32, p))).unwrap();
    let mut snap = FilterSnapshot::compile_with_cover(&ps, &cover, &TreeConfig::default()).unwrap();
    // 64 spares join the overlay as a shard adds them: through the
    // representative covering them, or into the counting index.
    let mut overlay = Vec::new();
    let (mut covered, mut indexed) = (Vec::new(), Vec::new());
    for p in env.iter().skip(1000).take(64) {
        snap = match cover.probe(p).unwrap() {
            CoverOutcome::Covered { rep, residual } => {
                covered.push(overlay.len());
                let rep = cover.compiled_index_of(rep).unwrap();
                snap.with_covered_entry(rep, &residual).unwrap()
            }
            CoverOutcome::Rep => {
                indexed.push(overlay.len());
                snap.with_indexed_entry(p, overlay.iter().copied()).unwrap()
            }
        };
        overlay.push(p);
    }
    assert!(covered.len() > 1 && indexed.len() > 1);
    for g in (3..1000).step_by(7) {
        snap = snap.with_removed(g);
    }
    for k in [covered[1], indexed[1]] {
        snap = snap.with_removed(1000 + k);
    }
    snap = snap.with_overlay_packed(overlay.iter().copied()).unwrap();
    let image = snap.to_bytes();
    let body = &image[..image.len() - 4];
    assert_eq!((image.len(), crc32(body)), TOMBSTONED);
}
