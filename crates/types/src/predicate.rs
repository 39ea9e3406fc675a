use std::fmt;

use serde::{Deserialize, Serialize};

use crate::interval::{complement_tail, normalize_tail};
use crate::{Domain, IndexInterval, IntervalSet, TypesError, Value};

/// The comparison operator class of a predicate, used by the statistics
/// component (`ens-filter`) which keeps *counters for operators* (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Operator {
    /// Equality test `a = v`.
    Eq,
    /// Inequality test `a != v`.
    Ne,
    /// Strict less-than `a < v`.
    Lt,
    /// Less-or-equal `a <= v`.
    Le,
    /// Strict greater-than `a > v`.
    Gt,
    /// Greater-or-equal `a >= v`.
    Ge,
    /// Inclusive range test `a in [lo, hi]`.
    Between,
    /// Set containment `a in {v1, …}`.
    In,
    /// Negated set containment `a not in {v1, …}`.
    NotIn,
    /// Don't-care `a = *`.
    DontCare,
}

impl Operator {
    /// Stable list of all operators, handy for statistics tables.
    pub const ALL: [Operator; 10] = [
        Operator::Eq,
        Operator::Ne,
        Operator::Lt,
        Operator::Le,
        Operator::Gt,
        Operator::Ge,
        Operator::Between,
        Operator::In,
        Operator::NotIn,
        Operator::DontCare,
    ];

    /// The operator's surface syntax, as accepted by the profile parser.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            Operator::Eq => "=",
            Operator::Ne => "!=",
            Operator::Lt => "<",
            Operator::Le => "<=",
            Operator::Gt => ">",
            Operator::Ge => ">=",
            Operator::Between => "in []",
            Operator::In => "in {}",
            Operator::NotIn => "not in {}",
            Operator::DontCare => "*",
        }
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A single-attribute predicate of a [`Profile`](crate::Profile).
///
/// Following §3 of the paper, every predicate over an ordered finite
/// domain lowers to a union of index intervals ([`Predicate::to_intervals`]);
/// inequality tests translate to range tests. `DontCare` is the paper's
/// `*` value.
///
/// # Example
///
/// ```
/// use ens_types::{Domain, Predicate, Value};
/// # fn main() -> Result<(), ens_types::TypesError> {
/// let d = Domain::int(0, 100);
/// let p = Predicate::between(80, 90);
/// assert!(p.matches(&d, &Value::Int(85))?);
/// assert!(!p.matches(&d, &Value::Int(91))?);
/// assert_eq!(p.to_intervals(&d)?.covered_len(), 11);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
#[derive(Default)]
pub enum Predicate {
    /// Matches every value (the paper's `*`).
    #[default]
    DontCare,
    /// `a = v`.
    Eq(Value),
    /// `a != v`.
    Ne(Value),
    /// `a < v`.
    Lt(Value),
    /// `a <= v`.
    Le(Value),
    /// `a > v`.
    Gt(Value),
    /// `a >= v`.
    Ge(Value),
    /// `a ∈ [lo, hi]` (inclusive on both ends).
    Between(Value, Value),
    /// `a ∈ {v1, …}`.
    In(Vec<Value>),
    /// `a ∉ {v1, …}`.
    NotIn(Vec<Value>),
}

impl Predicate {
    /// `a = v` from anything convertible to a value.
    pub fn eq(v: impl Into<Value>) -> Self {
        Predicate::Eq(v.into())
    }

    /// `a != v` from anything convertible to a value.
    pub fn ne(v: impl Into<Value>) -> Self {
        Predicate::Ne(v.into())
    }

    /// `a < v` from anything convertible to a value.
    pub fn lt(v: impl Into<Value>) -> Self {
        Predicate::Lt(v.into())
    }

    /// `a <= v` from anything convertible to a value.
    pub fn le(v: impl Into<Value>) -> Self {
        Predicate::Le(v.into())
    }

    /// `a > v` from anything convertible to a value.
    pub fn gt(v: impl Into<Value>) -> Self {
        Predicate::Gt(v.into())
    }

    /// `a >= v` from anything convertible to a value.
    pub fn ge(v: impl Into<Value>) -> Self {
        Predicate::Ge(v.into())
    }

    /// `a ∈ [lo, hi]` from anything convertible to values.
    pub fn between(lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        Predicate::Between(lo.into(), hi.into())
    }

    /// `a ∈ {vs…}` from anything convertible to values.
    pub fn in_set<I, V>(vs: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        Predicate::In(vs.into_iter().map(Into::into).collect())
    }

    /// Whether this is the don't-care predicate.
    #[must_use]
    pub fn is_dont_care(&self) -> bool {
        matches!(self, Predicate::DontCare)
    }

    /// The operator class, for statistics.
    #[must_use]
    pub fn operator(&self) -> Operator {
        match self {
            Predicate::DontCare => Operator::DontCare,
            Predicate::Eq(_) => Operator::Eq,
            Predicate::Ne(_) => Operator::Ne,
            Predicate::Lt(_) => Operator::Lt,
            Predicate::Le(_) => Operator::Le,
            Predicate::Gt(_) => Operator::Gt,
            Predicate::Ge(_) => Operator::Ge,
            Predicate::Between(_, _) => Operator::Between,
            Predicate::In(_) => Operator::In,
            Predicate::NotIn(_) => Operator::NotIn,
        }
    }

    /// Lowers the predicate to a normalised union of index intervals over
    /// `domain`'s grid (the paper's translation of value and inequality
    /// tests into range tests).
    ///
    /// # Errors
    ///
    /// Propagates kind mismatches and out-of-domain values; rejects
    /// reversed `Between` bounds with [`TypesError::InvalidRange`].
    pub fn to_intervals(&self, domain: &Domain) -> Result<IntervalSet, TypesError> {
        let mut intervals = Vec::new();
        self.lower_into(domain, &mut intervals)?;
        Ok(IntervalSet::from_normalized(intervals))
    }

    /// Appends the lowering [`Predicate::to_intervals`] returns to `out`,
    /// normalised, without a buffer of its own. On an error `out` may
    /// hold part of it.
    pub(crate) fn lower_into(
        &self,
        domain: &Domain,
        out: &mut Vec<IndexInterval>,
    ) -> Result<(), TypesError> {
        let d = domain.size();
        let mut push = |lo: u64, hi: u64| {
            if lo < hi {
                out.push(IndexInterval::new(lo, hi));
            }
        };
        match self {
            Predicate::DontCare => push(0, d),
            Predicate::Eq(v) => {
                let i = domain.index_of(v)?;
                push(i, i + 1);
            }
            Predicate::Ne(v) => {
                let i = domain.index_of(v)?;
                push(0, i);
                push(i + 1, d);
            }
            Predicate::Lt(v) => push(0, domain.index_of(v)?),
            Predicate::Le(v) => push(0, domain.index_of(v)? + 1),
            Predicate::Gt(v) => push(domain.index_of(v)? + 1, d),
            Predicate::Ge(v) => push(domain.index_of(v)?, d),
            Predicate::Between(lo, hi) => {
                let (i, j) = (domain.index_of(lo)?, domain.index_of(hi)?);
                if j < i {
                    return Err(TypesError::InvalidRange {
                        lo: lo.to_string(),
                        hi: hi.to_string(),
                    });
                }
                push(i, j + 1);
            }
            Predicate::In(vs) | Predicate::NotIn(vs) => {
                let start = out.len();
                for v in vs {
                    out.push(IndexInterval::point(domain.index_of(v)?));
                }
                normalize_tail(out, start);
                if matches!(self, Predicate::NotIn(_)) {
                    complement_tail(out, start, d);
                }
            }
        }
        Ok(())
    }

    /// Direct evaluation against a single value.
    ///
    /// # Errors
    ///
    /// Propagates the same domain errors as [`Predicate::to_intervals`].
    pub fn matches(&self, domain: &Domain, value: &Value) -> Result<bool, TypesError> {
        if self.is_dont_care() {
            return Ok(true);
        }
        let i = domain.index_of(value)?;
        Ok(self.to_intervals(domain)?.contains(i))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn list(f: &mut fmt::Formatter<'_>, vs: &[Value]) -> fmt::Result {
            write!(f, "{{")?;
            for (k, v) in vs.iter().enumerate() {
                if k > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            write!(f, "}}")
        }
        match self {
            Predicate::DontCare => write!(f, "*"),
            Predicate::Eq(v) => write!(f, "= {v}"),
            Predicate::Ne(v) => write!(f, "!= {v}"),
            Predicate::Lt(v) => write!(f, "< {v}"),
            Predicate::Le(v) => write!(f, "<= {v}"),
            Predicate::Gt(v) => write!(f, "> {v}"),
            Predicate::Ge(v) => write!(f, ">= {v}"),
            Predicate::Between(lo, hi) => write!(f, "in [{lo}, {hi}]"),
            Predicate::In(vs) => {
                write!(f, "in ")?;
                list(f, vs)
            }
            Predicate::NotIn(vs) => {
                write!(f, "not in ")?;
                list(f, vs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d() -> Domain {
        Domain::int(0, 10)
    }

    #[test]
    fn eq_and_ne_lower_to_intervals() {
        let s = Predicate::eq(5).to_intervals(&d()).unwrap();
        assert_eq!(s.as_slice(), &[IndexInterval::point(5)]);
        let s = Predicate::ne(5).to_intervals(&d()).unwrap();
        assert_eq!(
            s.as_slice(),
            &[IndexInterval::new(0, 5), IndexInterval::new(6, 11)]
        );
    }

    #[test]
    fn comparisons_lower_to_prefixes_and_suffixes() {
        assert_eq!(
            Predicate::lt(3).to_intervals(&d()).unwrap().covered_len(),
            3
        );
        assert_eq!(
            Predicate::le(3).to_intervals(&d()).unwrap().covered_len(),
            4
        );
        assert_eq!(
            Predicate::gt(3).to_intervals(&d()).unwrap().covered_len(),
            7
        );
        assert_eq!(
            Predicate::ge(3).to_intervals(&d()).unwrap().covered_len(),
            8
        );
    }

    #[test]
    fn ne_at_domain_edges() {
        let s = Predicate::ne(0).to_intervals(&d()).unwrap();
        assert_eq!(s.as_slice(), &[IndexInterval::new(1, 11)]);
        let s = Predicate::ne(10).to_intervals(&d()).unwrap();
        assert_eq!(s.as_slice(), &[IndexInterval::new(0, 10)]);
    }

    #[test]
    fn between_is_inclusive_and_validates_order() {
        let s = Predicate::between(2, 4).to_intervals(&d()).unwrap();
        assert_eq!(s.as_slice(), &[IndexInterval::new(2, 5)]);
        assert!(matches!(
            Predicate::between(4, 2).to_intervals(&d()),
            Err(TypesError::InvalidRange { .. })
        ));
    }

    #[test]
    fn in_set_merges_adjacent_points() {
        let s = Predicate::in_set([1, 2, 3, 7]).to_intervals(&d()).unwrap();
        assert_eq!(
            s.as_slice(),
            &[IndexInterval::new(1, 4), IndexInterval::point(7)]
        );
    }

    #[test]
    fn not_in_complements() {
        let s = Predicate::NotIn(vec![Value::Int(0), Value::Int(10)])
            .to_intervals(&d())
            .unwrap();
        assert_eq!(s.as_slice(), &[IndexInterval::new(1, 10)]);
    }

    #[test]
    fn dont_care_covers_domain() {
        let s = Predicate::DontCare.to_intervals(&d()).unwrap();
        assert_eq!(s.covered_len(), 11);
        assert!(Predicate::DontCare.matches(&d(), &Value::Int(7)).unwrap());
    }

    #[test]
    fn matches_agrees_with_intervals() {
        let preds = [
            Predicate::eq(5),
            Predicate::ne(5),
            Predicate::lt(5),
            Predicate::le(5),
            Predicate::gt(5),
            Predicate::ge(5),
            Predicate::between(2, 8),
            Predicate::in_set([1, 5, 9]),
            Predicate::NotIn(vec![Value::Int(1), Value::Int(5)]),
        ];
        let domain = d();
        for p in &preds {
            let ivs = p.to_intervals(&domain).unwrap();
            for i in 0..domain.size() {
                let v = domain.value_at(i);
                assert_eq!(
                    p.matches(&domain, &v).unwrap(),
                    ivs.contains(i),
                    "predicate {p}, value {v}"
                );
            }
        }
    }

    #[test]
    fn out_of_domain_value_is_error() {
        assert!(Predicate::eq(99).to_intervals(&d()).is_err());
        assert!(Predicate::eq("x").to_intervals(&d()).is_err());
    }

    #[test]
    fn operator_classification() {
        assert_eq!(Predicate::eq(1).operator(), Operator::Eq);
        assert_eq!(Predicate::DontCare.operator(), Operator::DontCare);
        assert_eq!(Predicate::between(1, 2).operator(), Operator::Between);
        assert_eq!(Operator::ALL.len(), 10);
    }

    #[test]
    fn display_round_trips_concepts() {
        assert_eq!(Predicate::ge(35).to_string(), ">= 35");
        assert_eq!(Predicate::between(40, 100).to_string(), "in [40, 100]");
        assert_eq!(Predicate::DontCare.to_string(), "*");
    }

    #[test]
    fn works_on_categorical_domains() {
        let dom = Domain::categorical(["calm", "breeze", "storm"]).unwrap();
        let p = Predicate::ge("breeze");
        assert!(p.matches(&dom, &Value::from("storm")).unwrap());
        assert!(!p.matches(&dom, &Value::from("calm")).unwrap());
    }
}
