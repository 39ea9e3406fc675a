//! Quenching: telling producers which events can never match.
//!
//! The Elvin system "includes a quenching mechanism that discards
//! unneeded information without consuming resources" (paper §2). In the
//! subrange vocabulary of this workspace that is precisely the
//! zero-subdomain `D0`: an event carrying, on any attribute, a value no
//! profile references (and with no don't-care profile present) cannot
//! match anything and need not be sent at all.
//!
//! [`QuenchAdvice`] is the broker's exportable summary of covered value
//! ranges per attribute; producers use [`QuenchAdvice::allows`] to drop
//! dead events before they are sent.

use ens_filter::AttributePartition;
use ens_types::{AttrId, Event, IndexInterval, IntervalSet, ProfileSet, Schema, TypesError};

/// Per-attribute coverage map derived from the current profile set.
///
/// # Example
///
/// ```
/// use ens_service::{Broker, BrokerConfig};
/// use ens_types::{Schema, Domain, Predicate, Event};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schema = Schema::builder().attribute("x", Domain::int(0, 99))?.build();
/// let broker = Broker::new(&schema, BrokerConfig::default())?;
/// let _sub = broker.subscribe(|b| b.predicate("x", Predicate::between(10, 19)))?;
///
/// let advice = broker.quench_advice();
/// let dead = Event::builder(&schema).value("x", 50)?.build();
/// let live = Event::builder(&schema).value("x", 15)?.build();
/// assert!(!advice.allows(&dead)?);
/// assert!(advice.allows(&live)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuenchAdvice {
    schema: Schema,
    covered: Vec<IntervalSet>,
}

impl QuenchAdvice {
    /// Derives the advice from the filter's per-attribute partitions.
    #[must_use]
    pub fn from_partitions(schema: &Schema, partitions: &[AttributePartition]) -> Self {
        let covered = partitions
            .iter()
            .map(|p| {
                if !p.dont_care_profiles().is_empty() {
                    IntervalSet::full(p.domain_size())
                } else {
                    p.referenced_cells()
                        .map(|c| *c.interval())
                        .collect::<IntervalSet>()
                }
            })
            .collect();
        QuenchAdvice {
            schema: schema.clone(),
            covered,
        }
    }

    /// Derives the advice directly from a profile set (partitions every
    /// attribute first). The partition-based
    /// [`QuenchAdvice::from_partitions`] is cheaper when a filter
    /// already holds the partitions.
    ///
    /// # Errors
    ///
    /// Propagates predicate lowering errors.
    pub fn from_profiles(
        schema: &Schema,
        profiles: &ProfileSet,
    ) -> Result<Self, ens_filter::FilterError> {
        let partitions: Result<Vec<AttributePartition>, _> = schema
            .iter()
            .map(|(id, a)| AttributePartition::build(profiles.iter(), id, a.domain()))
            .collect();
        Ok(Self::from_partitions(schema, &partitions?))
    }

    /// The covered value ranges of `attr` (domain-index space).
    ///
    /// # Panics
    ///
    /// Panics if `attr` is out of range for the schema.
    #[must_use]
    pub fn covered(&self, attr: AttrId) -> &IntervalSet {
        &self.covered[attr.index()]
    }

    /// Whether the event could match *any* profile. `false` means the
    /// event may be dropped ("rejected as early as possible", §5).
    ///
    /// Missing attribute values never quench: they only exclude profiles
    /// that specify the attribute.
    ///
    /// # Errors
    ///
    /// Propagates domain errors for ill-typed event values.
    pub fn allows(&self, event: &Event) -> Result<bool, TypesError> {
        for (id, a) in self.schema.iter() {
            if let Some(v) = event.value(id) {
                let idx = a.domain().index_of(v)?;
                if !self.covered[id.index()].contains(idx) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// The fraction of each attribute's domain that is covered — a
    /// producer-facing summary of how much traffic quenching can save.
    #[must_use]
    pub fn coverage_fractions(&self) -> Vec<f64> {
        self.schema
            .iter()
            .map(|(id, a)| self.covered[id.index()].covered_len() as f64 / a.domain().size() as f64)
            .collect()
    }

    /// A conservative quenchable interval list per attribute: values a
    /// producer may drop at the source.
    #[must_use]
    pub fn quenchable(&self, attr: AttrId) -> Vec<IndexInterval> {
        let d = self.schema.attribute(attr).domain().size();
        self.covered[attr.index()]
            .complement(d)
            .iter()
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ens_types::{Domain, Predicate, ProfileSet};

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
            b.predicate("x", Predicate::ge(80))?
                .predicate("y", Predicate::eq(3))
        })
        .unwrap();
        (schema, ps)
    }

    fn advice(schema: &Schema, ps: &ProfileSet) -> QuenchAdvice {
        let parts: Vec<AttributePartition> = schema
            .iter()
            .map(|(id, a)| AttributePartition::build(ps.iter(), id, a.domain()).unwrap())
            .collect();
        QuenchAdvice::from_partitions(schema, &parts)
    }

    #[test]
    fn quenches_zero_subdomain_values() {
        let (schema, ps) = setup();
        let q = advice(&schema, &ps);
        let dead_x = Event::builder(&schema)
            .value("x", 50)
            .unwrap()
            .value("y", 3)
            .unwrap()
            .build();
        assert!(!q.allows(&dead_x).unwrap());
        let live = Event::builder(&schema)
            .value("x", 15)
            .unwrap()
            .value("y", 9)
            .unwrap()
            .build();
        // y = 9 is uncovered… but profile 0 doesn't care about y, so y is
        // fully covered by the don't-care rule.
        assert!(q.allows(&live).unwrap());
    }

    #[test]
    fn quench_agrees_with_oracle() {
        let (schema, ps) = setup();
        let q = advice(&schema, &ps);
        for x in 0..100 {
            for y in 0..10 {
                let e = Event::builder(&schema)
                    .value("x", x)
                    .unwrap()
                    .value("y", y)
                    .unwrap()
                    .build();
                let matches = !ps.matches(&e).unwrap().is_empty();
                let allowed = q.allows(&e).unwrap();
                // Quenching must never drop a matchable event.
                assert!(!matches || allowed, "quench dropped a match at ({x},{y})");
            }
        }
    }

    #[test]
    fn coverage_fractions_and_quenchable() {
        let (schema, ps) = setup();
        let q = advice(&schema, &ps);
        let fr = q.coverage_fractions();
        assert!(
            (fr[0] - 0.3).abs() < 1e-12,
            "x: [10,19] + [80,99] = 30 of 100"
        );
        assert_eq!(fr[1], 1.0, "y is covered by don't-care");
        let dead = q.quenchable(AttrId::new(0));
        assert_eq!(dead.len(), 2, "[0,10) and (19,80)");
        assert!(q.quenchable(AttrId::new(1)).is_empty());
    }

    #[test]
    fn missing_values_do_not_quench() {
        let (schema, ps) = setup();
        let q = advice(&schema, &ps);
        let partial = Event::builder(&schema).build();
        assert!(q.allows(&partial).unwrap());
    }
}
