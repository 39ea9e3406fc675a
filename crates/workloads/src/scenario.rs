//! Application scenarios from the paper's motivation (§1).
//!
//! Two of the application classes the paper names are modelled here as
//! ready-made schemas, profile populations and event models:
//!
//! * **Environmental monitoring** — sensor data are "equally
//!   distributed … nevertheless, users might be interested in
//!   catastrophe warnings, describing a small range of data of high
//!   importance";
//! * **Stock ticker** — "users are mainly interested in a small range
//!   of values for certain shares; the event data display high
//!   concentrations at selected values".

use ens_dist::{Density, DistOverDomain, JointDist};
use ens_types::{Domain, Predicate, ProfileSet, Schema};
use rand::Rng;

use crate::WorkloadError;

/// The toy monitoring schema of the paper's Example 1: temperature in
/// [-30, 50] °C, humidity in [0, 100] %, radiation in [1, 100] mW/m².
#[must_use]
pub fn environmental_schema() -> Schema {
    Schema::builder()
        .attribute("temperature", Domain::int(-30, 50))
        .expect("static schema")
        .attribute("humidity", Domain::int(0, 100))
        .expect("static schema")
        .attribute("radiation", Domain::int(1, 100))
        .expect("static schema")
        .build()
}

/// Sensor readings: roughly Gaussian temperature and humidity, falling
/// radiation (most days are calm).
///
/// # Errors
///
/// Propagates distribution construction errors.
pub fn environmental_event_model() -> Result<JointDist, WorkloadError> {
    Ok(JointDist::independent(vec![
        DistOverDomain::new(Density::gaussian(0.55, 0.18), 81),
        DistOverDomain::new(Density::gaussian(0.6, 0.2), 101),
        DistOverDomain::new(Density::falling(), 100),
    ])?)
}

/// Catastrophe-warning profile population: most subscriptions watch a
/// small high-importance band (heat, saturation humidity, high
/// radiation), a minority watches broad comfort ranges.
///
/// # Errors
///
/// Propagates data-model errors.
pub fn environmental_profiles<R: Rng + ?Sized>(
    p: usize,
    rng: &mut R,
) -> Result<ProfileSet, WorkloadError> {
    let schema = environmental_schema();
    let mut ps = ProfileSet::new(&schema);
    for _ in 0..p {
        if rng.gen_bool(0.7) {
            // Catastrophe watcher.
            let t_lo = rng.gen_range(33..=45);
            let r_lo = rng.gen_range(60..=90);
            ps.insert_with(|mut b| {
                b = b.predicate("temperature", Predicate::ge(t_lo))?;
                if rng.gen_bool(0.5) {
                    b = b.predicate("radiation", Predicate::ge(r_lo))?;
                }
                if rng.gen_bool(0.3) {
                    b = b.predicate("humidity", Predicate::ge(90))?;
                }
                Ok(b)
            })?;
        } else {
            // Broad comfort-range watcher.
            let lo = rng.gen_range(-10..=10);
            let hi = lo + rng.gen_range(10..=25);
            ps.insert_with(|b| {
                b.predicate("temperature", Predicate::between(lo, hi))?
                    .predicate("humidity", Predicate::between(30, 70))
            })?;
        }
    }
    Ok(ps)
}

/// Ticker symbols used by the stock scenario.
pub const STOCK_SYMBOLS: [&str; 8] = [
    "ACME", "BETA", "CYGN", "DELT", "ECHO", "FOXT", "GAMA", "HELX",
];

/// Stock ticker schema: symbol, price in cents `[100, 20000]`, volume
/// in lots `[0, 999]`.
#[must_use]
pub fn stock_schema() -> Schema {
    Schema::builder()
        .attribute(
            "symbol",
            Domain::categorical(STOCK_SYMBOLS).expect("static categories"),
        )
        .expect("static schema")
        .attribute("price", Domain::int(100, 20_000))
        .expect("static schema")
        .attribute("volume", Domain::int(0, 999))
        .expect("static schema")
        .build()
}

/// Ticker traffic: trades concentrate on a few symbols, prices
/// concentrate at "selected values" (two active price bands), volume
/// falls off.
///
/// # Errors
///
/// Propagates distribution construction errors.
pub fn stock_event_model() -> Result<JointDist, WorkloadError> {
    let symbol = Density::steps([8.0, 5.0, 3.0, 2.0, 1.0, 0.5, 0.3, 0.2])?;
    let price = Density::Mixture(vec![
        (0.5, Density::gaussian(0.2, 0.03)),
        (0.4, Density::gaussian(0.65, 0.04)),
        (0.1, Density::Uniform),
    ]);
    let volume = Density::falling();
    Ok(JointDist::independent(vec![
        DistOverDomain::new(symbol, 8),
        DistOverDomain::new(price, 19_901),
        DistOverDomain::new(volume, 1_000),
    ])?)
}

/// Stock profile population: users watch a narrow price range of a
/// specific share, sometimes gated on volume.
///
/// # Errors
///
/// Propagates data-model errors.
pub fn stock_profiles<R: Rng + ?Sized>(p: usize, rng: &mut R) -> Result<ProfileSet, WorkloadError> {
    let schema = stock_schema();
    let mut ps = ProfileSet::new(&schema);
    for _ in 0..p {
        // Interest concentrates on the actively traded symbols.
        let sym = STOCK_SYMBOLS[(rng.gen::<f64>().powi(2) * 8.0) as usize % 8];
        // Watch near one of the active price bands.
        let centre = if rng.gen_bool(0.55) {
            100 + (0.2 * 19_900.0) as i64
        } else {
            100 + (0.65 * 19_900.0) as i64
        } + rng.gen_range(-400..=400);
        let width = rng.gen_range(50..=500);
        let lo = (centre - width).clamp(100, 20_000);
        let hi = (centre + width).clamp(100, 20_000);
        ps.insert_with(|mut b| {
            b = b
                .predicate("symbol", Predicate::eq(sym))?
                .predicate("price", Predicate::between(lo, hi))?;
            if rng.gen_bool(0.25) {
                b = b.predicate("volume", Predicate::ge(rng.gen_range(100..=800)))?;
            }
            Ok(b)
        })?;
    }
    Ok(ps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn environmental_setup_is_consistent() {
        let schema = environmental_schema();
        assert_eq!(schema.len(), 3);
        let model = environmental_event_model().unwrap();
        assert_eq!(model.arity(), 3);
        for (j, (_, a)) in schema.iter().enumerate() {
            assert_eq!(model.domain_size(j), a.domain().size());
        }
        let mut rng = StdRng::seed_from_u64(1);
        let ps = environmental_profiles(100, &mut rng).unwrap();
        assert_eq!(ps.len(), 100);
        for p in ps.iter() {
            assert!(p.specified_len() >= 1);
        }
    }

    #[test]
    fn stock_setup_is_consistent() {
        let schema = stock_schema();
        let model = stock_event_model().unwrap();
        assert_eq!(model.arity(), 3);
        for (j, (_, a)) in schema.iter().enumerate() {
            assert_eq!(model.domain_size(j), a.domain().size());
        }
        let mut rng = StdRng::seed_from_u64(2);
        let ps = stock_profiles(200, &mut rng).unwrap();
        assert_eq!(ps.len(), 200);
        // Every stock profile names a symbol and a price band.
        let sym = schema.attr("symbol").unwrap();
        let price = schema.attr("price").unwrap();
        for p in ps.iter() {
            assert!(!p.predicate(sym).is_dont_care());
            assert!(!p.predicate(price).is_dont_care());
        }
    }

    #[test]
    fn stock_events_cluster_on_active_bands() {
        let schema = stock_schema();
        let model = stock_event_model().unwrap();
        let gen = crate::EventGenerator::new(&schema, model).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let price = schema.attr("price").unwrap();
        let mut in_bands = 0;
        for _ in 0..1000 {
            let e = gen.sample(&mut rng);
            let p = e.value(price).unwrap().as_int().unwrap();
            let x = (p - 100) as f64 / 19_900.0;
            if (x - 0.2).abs() < 0.1 || (x - 0.65).abs() < 0.12 {
                in_bands += 1;
            }
        }
        assert!(in_bands > 800, "{in_bands}/1000 in active bands");
    }

    #[test]
    fn environmental_matching_end_to_end() {
        use ens_filter::{MatchScratch, Matcher, ProfileTree, TreeConfig};
        let schema = environmental_schema();
        let mut rng = StdRng::seed_from_u64(4);
        let ps = environmental_profiles(50, &mut rng).unwrap();
        let tree = ProfileTree::build(&ps, &TreeConfig::default()).unwrap();
        let gen =
            crate::EventGenerator::new(&schema, environmental_event_model().unwrap()).unwrap();
        let (mut indexed, mut scratch) = (ens_types::IndexedEvent::new(), MatchScratch::new());
        for _ in 0..200 {
            let e = gen.sample(&mut rng);
            indexed.resolve_into(&schema, &e).unwrap();
            tree.match_into(&indexed, &mut scratch);
            let want = ps.matches(&e).unwrap();
            assert_eq!(scratch.profiles(), want.as_slice());
        }
    }
}
