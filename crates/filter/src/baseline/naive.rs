use ens_types::{AttrId, IndexedEvent, IntervalSet, ProfileSet};

use crate::scratch::{MatchScratch, Matcher};
use crate::FilterError;

/// The simple algorithm: test every profile against the event, one
/// predicate at a time, short-circuiting per profile on the first failed
/// predicate. Each predicate evaluation counts as one operation.
///
/// This is the O(p·n) reference point tree algorithms are measured
/// against.
///
/// # Example
///
/// ```
/// use ens_filter::{baseline::NaiveMatcher, Matcher};
/// use ens_types::{Schema, Domain, Predicate, ProfileSet, Event};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let mut ps = ProfileSet::new(&schema);
/// ps.insert_with(|b| b.predicate("x", Predicate::ge(50)))?;
/// let matcher = NaiveMatcher::new(&ps)?;
/// let e = Event::builder(&schema).value("x", 70)?.build();
/// let out = matcher.match_event(&schema, &e)?;
/// assert!(out.is_match());
/// assert_eq!(out.ops(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NaiveMatcher {
    /// Per profile: the non-don't-care predicates, pre-lowered to
    /// interval sets (so evaluation cost is comparable with the tree's).
    profiles: Vec<Vec<(AttrId, IntervalSet)>>,
}

impl NaiveMatcher {
    /// Pre-lowers all profile predicates.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors.
    pub fn new(profiles: &ProfileSet) -> Result<Self, FilterError> {
        let schema = profiles.schema();
        let mut lowered = Vec::with_capacity(profiles.len());
        for p in profiles.iter() {
            let mut preds = Vec::new();
            for (i, pred) in p.predicates().iter().enumerate() {
                if pred.is_dont_care() {
                    continue;
                }
                let id = AttrId::new(i as u32);
                preds.push((id, pred.to_intervals(schema.attribute(id).domain())?));
            }
            lowered.push(preds);
        }
        Ok(NaiveMatcher { profiles: lowered })
    }

    /// Number of profiles indexed.
    #[must_use]
    pub fn profile_count(&self) -> usize {
        self.profiles.len()
    }
}

impl Matcher for NaiveMatcher {
    fn match_into(&self, event: &IndexedEvent, scratch: &mut MatchScratch) {
        scratch.reset();
        for (k, preds) in self.profiles.iter().enumerate() {
            let mut ok = true;
            for (attr, set) in preds {
                scratch.ops += 1;
                match event.get(*attr) {
                    Some(idx) if set.contains(idx) => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                // Profiles are scanned in id order, so pushes stay sorted.
                scratch.profiles.push(ens_types::ProfileId::new(k as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::{Domain, Event, Predicate, ProfileId, Schema};

    fn setup() -> (Schema, ProfileSet) {
        let schema = Schema::builder()
            .attribute("x", Domain::int(0, 99))
            .unwrap()
            .attribute("y", Domain::int(0, 9))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| {
            b.predicate("x", Predicate::ge(50))?
                .predicate("y", Predicate::eq(3))
        })
        .unwrap();
        ps.insert_with(|b| b.predicate("x", Predicate::lt(10)))
            .unwrap();
        ps.insert_with(|b| Ok(b)).unwrap(); // pure don't-care
        (schema, ps)
    }

    #[test]
    fn agrees_with_oracle() {
        let (schema, ps) = setup();
        let m = NaiveMatcher::new(&ps).unwrap();
        for x in (0..100).step_by(7) {
            for y in 0..10 {
                let e = Event::builder(&schema)
                    .value("x", x)
                    .unwrap()
                    .value("y", y)
                    .unwrap()
                    .build();
                assert_eq!(
                    m.match_event(&schema, &e).unwrap().profiles(),
                    ps.matches(&e).unwrap().as_slice()
                );
            }
        }
    }

    #[test]
    fn short_circuits_on_first_failure() {
        let (schema, ps) = setup();
        let m = NaiveMatcher::new(&ps).unwrap();
        // x = 0: profile 0 fails at its first predicate (1 op), profile 1
        // succeeds (1 op), profile 2 has no predicates (0 ops).
        let e = Event::builder(&schema)
            .value("x", 0)
            .unwrap()
            .value("y", 9)
            .unwrap()
            .build();
        let out = m.match_event(&schema, &e).unwrap();
        assert_eq!(out.ops(), 2);
        assert_eq!(out.profiles(), &[ProfileId::new(1), ProfileId::new(2)]);
    }

    #[test]
    fn missing_values_fail_predicates() {
        let (schema, ps) = setup();
        let m = NaiveMatcher::new(&ps).unwrap();
        let e = Event::builder(&schema).build();
        let out = m.match_event(&schema, &e).unwrap();
        assert_eq!(
            out.profiles(),
            &[ProfileId::new(2)],
            "only the don't-care profile"
        );
    }

    #[test]
    fn dont_care_profile_costs_zero_ops() {
        let (schema, _) = setup();
        let mut ps = ProfileSet::new(&schema);
        ps.insert_with(|b| Ok(b)).unwrap();
        let m = NaiveMatcher::new(&ps).unwrap();
        let e = Event::builder(&schema).value("x", 1).unwrap().build();
        let out = m.match_event(&schema, &e).unwrap();
        assert_eq!(out.ops(), 0);
        assert!(out.is_match());
    }
}
