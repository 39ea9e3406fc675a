use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{AttrId, Event, Predicate, Schema, TypesError};

/// Identifier of a [`Profile`] within a [`ProfileSet`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct ProfileId(u32);

impl ProfileId {
    /// Creates a profile id from a raw index.
    #[must_use]
    pub fn new(index: u32) -> Self {
        ProfileId(index)
    }

    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for ProfileId {
    fn from(x: u32) -> Self {
        ProfileId(x)
    }
}

impl fmt::Display for ProfileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A subscription profile: a conjunction of per-attribute predicates
/// (paper §3, e.g. `profile(temperature >= 35; humidity = 90)`).
///
/// Attributes without an explicit predicate are don't-care (`*`).
///
/// # Example
///
/// ```
/// use ens_types::{Schema, Domain, Profile, Predicate, Event};
/// # fn main() -> Result<(), ens_types::TypesError> {
/// let schema = Schema::builder()
///     .attribute("temperature", Domain::int(-30, 50))?
///     .attribute("humidity", Domain::int(0, 100))?
///     .build();
/// let p = Profile::builder(&schema)
///     .predicate("temperature", Predicate::ge(35))?
///     .build(0.into());
/// let warm = Event::builder(&schema).value("temperature", 40)?.build();
/// assert!(p.matches(&schema, &warm)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    id: ProfileId,
    predicates: Vec<Predicate>,
}

impl Profile {
    /// Starts building a profile against `schema`.
    #[must_use]
    pub fn builder(schema: &Schema) -> ProfileBuilder<'_> {
        ProfileBuilder {
            schema,
            predicates: vec![Predicate::DontCare; schema.len()],
        }
    }

    /// Builds a profile from dense per-attribute predicates.
    ///
    /// # Errors
    ///
    /// Returns [`TypesError::UnknownAttribute`] if the number of
    /// predicates differs from the schema length.
    pub fn from_predicates(
        schema: &Schema,
        id: ProfileId,
        predicates: Vec<Predicate>,
    ) -> Result<Self, TypesError> {
        if predicates.len() != schema.len() {
            return Err(TypesError::UnknownAttribute(format!(
                "expected {} predicates, got {}",
                schema.len(),
                predicates.len()
            )));
        }
        Ok(Profile { id, predicates })
    }

    /// Reassembles a profile from its id and dense predicates where no
    /// schema is at hand (a log decoder's view). Nothing is checked:
    /// [`Profile::check`] holds the result to a schema.
    #[must_use]
    pub fn from_parts(id: ProfileId, predicates: Vec<Predicate>) -> Self {
        Profile { id, predicates }
    }

    /// Checks the profile against `schema` the way the builder checks
    /// each predicate: one predicate per attribute, and every specified
    /// predicate's values in its attribute's domain.
    ///
    /// # Errors
    ///
    /// Returns [`TypesError::UnknownAttribute`] for a width other than
    /// the schema's and domain errors for ill-typed or out-of-range
    /// values.
    pub fn check(&self, schema: &Schema) -> Result<(), TypesError> {
        if self.predicates.len() != schema.len() {
            return Err(TypesError::UnknownAttribute(format!(
                "expected {} predicates, got {}",
                schema.len(),
                self.predicates.len()
            )));
        }
        for (pred, (_, attr)) in self.predicates.iter().zip(schema.iter()) {
            if !pred.is_dont_care() {
                pred.to_intervals(attr.domain())?;
            }
        }
        Ok(())
    }

    /// The profile's identifier.
    #[must_use]
    pub fn id(&self) -> ProfileId {
        self.id
    }

    /// The predicate on attribute `attr` (don't-care if never set).
    ///
    /// # Panics
    ///
    /// Panics if `attr` is out of range for the schema this profile was
    /// built against.
    #[must_use]
    pub fn predicate(&self, attr: AttrId) -> &Predicate {
        &self.predicates[attr.index()]
    }

    /// All predicates in schema order.
    #[must_use]
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Number of attributes with a non-don't-care predicate.
    #[must_use]
    pub fn specified_len(&self) -> usize {
        self.predicates.iter().filter(|p| !p.is_dont_care()).count()
    }

    /// Evaluates the profile against an event by direct predicate
    /// evaluation (the reference semantics the tree matcher is tested
    /// against). A missing event attribute satisfies only don't-care.
    ///
    /// # Errors
    ///
    /// Propagates domain errors for ill-typed event values.
    pub fn matches(&self, schema: &Schema, event: &Event) -> Result<bool, TypesError> {
        for (i, pred) in self.predicates.iter().enumerate() {
            if pred.is_dont_care() {
                continue;
            }
            let id = AttrId::new(i as u32);
            match event.value(id) {
                None => return Ok(false),
                Some(v) => {
                    if !pred.matches(schema.attribute(id).domain(), v)? {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Renders the profile with attribute names from `schema`.
    #[must_use]
    pub fn display<'a>(&'a self, schema: &'a Schema) -> ProfileDisplay<'a> {
        ProfileDisplay {
            profile: self,
            schema,
        }
    }
}

/// Helper returned by [`Profile::display`].
#[derive(Debug)]
pub struct ProfileDisplay<'a> {
    profile: &'a Profile,
    schema: &'a Schema,
}

impl fmt::Display for ProfileDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "profile(")?;
        let mut first = true;
        for (i, pred) in self.profile.predicates.iter().enumerate() {
            if pred.is_dont_care() {
                continue;
            }
            if !first {
                write!(f, "; ")?;
            }
            first = false;
            let name = self.schema.attribute(AttrId::new(i as u32)).name();
            write!(f, "{name} {pred}")?;
        }
        write!(f, ")")
    }
}

/// Incremental [`Profile`] construction with schema validation.
#[derive(Debug)]
pub struct ProfileBuilder<'a> {
    schema: &'a Schema,
    predicates: Vec<Predicate>,
}

impl ProfileBuilder<'_> {
    /// Sets the predicate of the attribute called `name`.
    ///
    /// The predicate's values are validated against the attribute domain
    /// immediately, so an invalid profile never enters a [`ProfileSet`].
    ///
    /// # Errors
    ///
    /// Returns [`TypesError::UnknownAttribute`] for undeclared names and
    /// domain errors for ill-typed or out-of-range predicate values.
    pub fn predicate(mut self, name: &str, predicate: Predicate) -> Result<Self, TypesError> {
        let id = self.schema.require(name)?;
        predicate.to_intervals(self.schema.attribute(id).domain())?;
        self.predicates[id.index()] = predicate;
        Ok(self)
    }

    /// Sets the predicate of the attribute with id `attr`.
    ///
    /// # Errors
    ///
    /// Returns domain errors for ill-typed or out-of-range values.
    pub fn predicate_by_id(
        mut self,
        attr: AttrId,
        predicate: Predicate,
    ) -> Result<Self, TypesError> {
        predicate.to_intervals(self.schema.attribute(attr).domain())?;
        self.predicates[attr.index()] = predicate;
        Ok(self)
    }

    /// Finalises the profile under the given id.
    #[must_use]
    pub fn build(self, id: ProfileId) -> Profile {
        Profile {
            id,
            predicates: self.predicates,
        }
    }
}

/// The set `P` of all profiles registered with a service.
///
/// Profile ids are dense: the profile with id `k` lives at position `k`.
///
/// # Example
///
/// ```
/// use ens_types::{Schema, Domain, Predicate, ProfileSet};
/// # fn main() -> Result<(), ens_types::TypesError> {
/// let schema = Schema::builder()
///     .attribute("temperature", Domain::int(-30, 50))?
///     .build();
/// let mut profiles = ProfileSet::new(&schema);
/// let id = profiles.insert_with(|b| b.predicate("temperature", Predicate::ge(35)))?;
/// assert_eq!(profiles.len(), 1);
/// assert_eq!(profiles.get(id).unwrap().id(), id);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileSet {
    schema: Schema,
    profiles: Vec<Profile>,
}

impl ProfileSet {
    /// Creates an empty profile set over `schema`.
    #[must_use]
    pub fn new(schema: &Schema) -> Self {
        ProfileSet {
            schema: schema.clone(),
            profiles: Vec::new(),
        }
    }

    /// The schema profiles are defined against.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of profiles `p`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the set holds no profiles.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Inserts a profile built by `f`, assigning the next dense id.
    ///
    /// # Errors
    ///
    /// Propagates errors from the builder closure.
    pub fn insert_with<F>(&mut self, f: F) -> Result<ProfileId, TypesError>
    where
        F: FnOnce(ProfileBuilder<'_>) -> Result<ProfileBuilder<'_>, TypesError>,
    {
        let id = ProfileId::new(self.profiles.len() as u32);
        let builder = f(Profile::builder(&self.schema))?;
        self.profiles.push(builder.build(id));
        Ok(id)
    }

    /// Inserts an externally built profile, reassigning its id to keep ids
    /// dense, and returns the assigned id.
    pub fn insert(&mut self, mut profile: Profile) -> ProfileId {
        let id = ProfileId::new(self.profiles.len() as u32);
        profile.id = id;
        self.profiles.push(profile);
        id
    }

    /// The profile with the given id.
    #[must_use]
    pub fn get(&self, id: ProfileId) -> Option<&Profile> {
        self.profiles.get(id.index())
    }

    /// Iterates over all profiles in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Profile> {
        self.profiles.iter()
    }

    /// Evaluates every profile against `event` by direct predicate
    /// evaluation and returns ids of matches, in ascending order. This is
    /// the reference oracle for the tree matchers.
    ///
    /// # Errors
    ///
    /// Propagates domain errors for ill-typed event values.
    pub fn matches(&self, event: &Event) -> Result<Vec<ProfileId>, TypesError> {
        let mut out = Vec::new();
        for p in &self.profiles {
            if p.matches(&self.schema, event)? {
                out.push(p.id());
            }
        }
        Ok(out)
    }
}

impl Extend<Profile> for ProfileSet {
    fn extend<I: IntoIterator<Item = Profile>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Domain, Event, Value};

    /// The toy monitoring schema of the paper's Example 1.
    fn example1() -> (Schema, ProfileSet) {
        let schema = Schema::builder()
            .attribute("a1", Domain::int(-30, 50))
            .unwrap()
            .attribute("a2", Domain::int(0, 100))
            .unwrap()
            .attribute("a3", Domain::int(1, 100))
            .unwrap()
            .build();
        let mut ps = ProfileSet::new(&schema);
        // P1: a1 >= 35, a2 >= 90
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(35))?
                .predicate("a2", Predicate::ge(90))
        })
        .unwrap();
        // P2: a1 >= 30, a2 >= 90
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(30))?
                .predicate("a2", Predicate::ge(90))
        })
        .unwrap();
        // P3: a1 >= 30, a2 >= 90, a3 in [35, 50]
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(30))?
                .predicate("a2", Predicate::ge(90))?
                .predicate("a3", Predicate::between(35, 50))
        })
        .unwrap();
        // P4: a1 in [-30, -20], a2 <= 5, a3 in [40, 100]
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::between(-30, -20))?
                .predicate("a2", Predicate::le(5))?
                .predicate("a3", Predicate::between(40, 100))
        })
        .unwrap();
        // P5: a1 >= 30, a2 >= 80
        ps.insert_with(|b| {
            b.predicate("a1", Predicate::ge(30))?
                .predicate("a2", Predicate::ge(80))
        })
        .unwrap();
        (schema, ps)
    }

    #[test]
    fn paper_example1_event_matches_p2_p5() {
        // The paper's event (1): temperature 30, humidity 90, radiation 2
        // matches exactly P2 and P5.
        let (schema, ps) = example1();
        let e = Event::builder(&schema)
            .value("a1", 30)
            .unwrap()
            .value("a2", 90)
            .unwrap()
            .value("a3", 2)
            .unwrap()
            .build();
        let got = ps.matches(&e).unwrap();
        assert_eq!(got, vec![ProfileId::new(1), ProfileId::new(4)]);
    }

    #[test]
    fn missing_attribute_fails_specified_predicates() {
        let (schema, ps) = example1();
        let e = Event::builder(&schema).value("a3", 45).unwrap().build();
        // No profile is satisfied: all five specify a1 and a2.
        assert!(ps.matches(&e).unwrap().is_empty());
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let (_, ps) = example1();
        for (k, p) in ps.iter().enumerate() {
            assert_eq!(p.id().index(), k);
        }
        assert_eq!(ps.len(), 5);
        assert_eq!(ps.get(ProfileId::new(2)).unwrap().specified_len(), 3);
        assert!(ps.get(ProfileId::new(99)).is_none());
    }

    #[test]
    fn insert_reassigns_id() {
        let (schema, mut ps) = example1();
        let stray = Profile::builder(&schema).build(ProfileId::new(77));
        let id = ps.insert(stray);
        assert_eq!(id, ProfileId::new(5));
        assert_eq!(ps.get(id).unwrap().id(), id);
    }

    #[test]
    fn profile_display_skips_dont_care() {
        let (schema, ps) = example1();
        let text = ps
            .get(ProfileId::new(0))
            .unwrap()
            .display(&schema)
            .to_string();
        assert_eq!(text, "profile(a1 >= 35; a2 >= 90)");
    }

    #[test]
    fn builder_rejects_invalid_predicate_values() {
        let (schema, _) = example1();
        assert!(Profile::builder(&schema)
            .predicate("a2", Predicate::eq(1000))
            .is_err());
        assert!(Profile::builder(&schema)
            .predicate("nope", Predicate::eq(1))
            .is_err());
    }

    #[test]
    fn from_predicates_checks_arity() {
        let (schema, _) = example1();
        assert!(Profile::from_predicates(&schema, ProfileId::new(0), vec![]).is_err());
        let p = Profile::from_predicates(
            &schema,
            ProfileId::new(0),
            vec![Predicate::DontCare, Predicate::eq(3), Predicate::DontCare],
        )
        .unwrap();
        assert_eq!(p.specified_len(), 1);
    }

    #[test]
    fn dont_care_profile_matches_everything() {
        let (schema, _) = example1();
        let p = Profile::builder(&schema).build(ProfileId::new(0));
        let empty = Event::builder(&schema).build();
        assert!(p.matches(&schema, &empty).unwrap());
        let full = Event::builder(&schema)
            .value("a1", 0)
            .unwrap()
            .value("a2", 0)
            .unwrap()
            .value("a3", 1)
            .unwrap()
            .build();
        assert!(p.matches(&schema, &full).unwrap());
    }

    #[test]
    fn serde_round_trip() {
        let (_, ps) = example1();
        let json = serde_json::to_string(&ps).unwrap();
        let back: ProfileSet = serde_json::from_str(&json).unwrap();
        assert_eq!(ps, back);
        let e = Event::builder(back.schema())
            .value("a1", 40)
            .unwrap()
            .value("a2", 95)
            .unwrap()
            .value("a3", 40)
            .unwrap()
            .build();
        assert_eq!(back.matches(&e).unwrap().len(), 4, "P1, P2, P3, P5");
    }

    #[test]
    fn extend_collects_profiles() {
        let (schema, mut ps) = example1();
        let extra: Vec<Profile> = (0..3)
            .map(|_| Profile::builder(&schema).build(ProfileId::new(0)))
            .collect();
        ps.extend(extra);
        assert_eq!(ps.len(), 8);
    }

    #[test]
    fn value_imported_for_match_checks() {
        // Regression guard: matching uses index_of under the hood.
        let (schema, ps) = example1();
        let e = Event::builder(&schema)
            .value("a1", Value::Int(-25))
            .unwrap()
            .value("a2", 3)
            .unwrap()
            .value("a3", 50)
            .unwrap()
            .build();
        assert_eq!(ps.matches(&e).unwrap(), vec![ProfileId::new(3)]);
    }
}
