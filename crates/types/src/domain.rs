use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{FiniteF64, TypesError, Value};

/// The set of admissible values of an attribute, as a finite ordered grid.
///
/// The distribution-based cost model of Hinze & Bittner works with finite
/// domain sizes `d` and zero-subdomain sizes `d0`; every `Domain` therefore
/// exposes a bijection between its points and the index range `0..d`
/// ([`Domain::index_of`] / [`Domain::value_at`]). Continuous measurement
/// ranges are modelled as float grids with an explicit resolution `step`,
/// which is how the paper's example domains (temperature in °C, humidity
/// in %) are discretised.
///
/// # Example
///
/// ```
/// use ens_types::{Domain, Value};
/// # fn main() -> Result<(), ens_types::TypesError> {
/// let temp = Domain::int(-30, 50);
/// assert_eq!(temp.size(), 81);
/// assert_eq!(temp.index_of(&Value::Int(-30))?, 0);
/// assert_eq!(temp.value_at(80), Value::Int(50));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
#[non_exhaustive]
pub enum Domain {
    /// Integers `lo..=hi`.
    Int {
        /// Smallest admissible value.
        lo: i64,
        /// Largest admissible value.
        hi: i64,
    },
    /// Floats `lo, lo+step, …` up to and including (approximately) `hi`.
    Float {
        /// Smallest admissible value.
        lo: FiniteF64,
        /// Largest admissible value.
        hi: FiniteF64,
        /// Grid resolution (strictly positive).
        step: FiniteF64,
        /// Number of grid points (derived, cached).
        size: u64,
    },
    /// An enumerated set of named categories, ordered as listed.
    Categorical(Categories),
    /// The two booleans, ordered `false < true`.
    Bool,
}

/// The category list of a [`Domain::Categorical`], with a first-byte
/// dispatch table so value-to-index resolution is one table load plus
/// (usually) a single string comparison instead of a linear scan.
///
/// Serialises transparently as the plain list of names.
#[derive(Debug, Clone)]
pub struct Categories {
    names: Vec<String>,
    /// `dispatch[b]`: `DISPATCH_NONE` if no category starts with byte
    /// `b`, `DISPATCH_SCAN` if several do (fall back to a linear scan),
    /// otherwise the unique category's index.
    dispatch: Box<[u16; 256]>,
}

const DISPATCH_NONE: u16 = u16::MAX;
const DISPATCH_SCAN: u16 = u16::MAX - 1;

impl Categories {
    fn new(names: Vec<String>) -> Self {
        let mut dispatch = Box::new([DISPATCH_NONE; 256]);
        for (i, name) in names.iter().enumerate() {
            let Some(&b) = name.as_bytes().first() else {
                continue; // the empty string takes the scan path
            };
            // Indices colliding with the sentinels (>= DISPATCH_SCAN)
            // must fall back to the scan path, not masquerade as them.
            dispatch[b as usize] = match (dispatch[b as usize], u16::try_from(i)) {
                (DISPATCH_NONE, Ok(i)) if i < DISPATCH_SCAN => i,
                _ => DISPATCH_SCAN,
            };
        }
        Categories { names, dispatch }
    }

    /// The category names, in domain order.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Index of `s`, if it is a category.
    #[must_use]
    pub fn index_of(&self, s: &str) -> Option<u64> {
        match s.as_bytes().first() {
            Some(&b) => match self.dispatch[b as usize] {
                DISPATCH_NONE => None,
                DISPATCH_SCAN => self.names.iter().position(|c| c == s).map(|i| i as u64),
                i => (self.names[i as usize] == s).then_some(u64::from(i)),
            },
            None => self
                .names
                .iter()
                .position(String::is_empty)
                .map(|i| i as u64),
        }
    }
}

impl PartialEq for Categories {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

impl Serialize for Categories {
    fn __to_value(&self) -> serde::__private::Value {
        self.names.__to_value()
    }
}

/// The serialized form of a [`Domain`], read back as the arguments of
/// its constructors: a domain off disk or wire passes their checks, and
/// a float grid's size is recomputed, not read.
#[derive(Deserialize)]
enum DomainArgs {
    Int { lo: i64, hi: i64 },
    Float { lo: f64, hi: f64, step: f64 },
    Categorical(Vec<String>),
    Bool,
}

impl<'de> Deserialize<'de> for Domain {
    fn deserialize<D>(deserializer: D) -> Result<Self, D::Error>
    where
        D: serde::Deserializer<'de>,
    {
        let domain = match DomainArgs::deserialize(deserializer)? {
            DomainArgs::Int { lo, hi } => Domain::try_int(lo, hi),
            DomainArgs::Float { lo, hi, step } => Domain::float(lo, hi, step),
            DomainArgs::Categorical(names) => Domain::categorical(names),
            DomainArgs::Bool => Ok(Domain::Bool),
        };
        domain.map_err(serde::de::Error::custom)
    }
}

impl Domain {
    /// Integer domain `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or the domain is every `i64`; use
    /// [`Domain::try_int`] for fallible construction.
    #[must_use]
    pub fn int(lo: i64, hi: i64) -> Self {
        Domain::try_int(lo, hi).expect("integer domain bounds must satisfy lo <= hi")
    }

    /// Fallible integer domain construction.
    ///
    /// # Errors
    ///
    /// Returns [`TypesError::EmptyDomain`] if `hi < lo`, or if the
    /// domain is every `i64`: its 2^64 points do not fit
    /// [`Domain::size`].
    pub fn try_int(lo: i64, hi: i64) -> Result<Self, TypesError> {
        if hi < lo || hi.abs_diff(lo) == u64::MAX {
            return Err(TypesError::EmptyDomain(format!(
                "Int {{ lo: {lo}, hi: {hi} }}"
            )));
        }
        Ok(Domain::Int { lo, hi })
    }

    /// Float grid domain from `lo` to `hi` with resolution `step`.
    ///
    /// # Errors
    ///
    /// Returns [`TypesError::NonFiniteValue`] for non-finite inputs and
    /// [`TypesError::EmptyDomain`] if `hi < lo`, `step <= 0` or the
    /// grid has more points than a `u64` counts.
    pub fn float(lo: f64, hi: f64, step: f64) -> Result<Self, TypesError> {
        let lo = FiniteF64::new(lo)?;
        let hi = FiniteF64::new(hi)?;
        let step = FiniteF64::new(step)?;
        let steps = ((hi.get() - lo.get()) / step.get()).round();
        // `u64::MAX as f64` is 2^64: below it, `steps + 1` fits.
        if hi.get() < lo.get() || step.get() <= 0.0 || steps >= u64::MAX as f64 {
            return Err(TypesError::EmptyDomain(format!(
                "Float {{ lo: {lo}, hi: {hi}, step: {step} }}"
            )));
        }
        Ok(Domain::Float {
            lo,
            hi,
            step,
            size: steps as u64 + 1,
        })
    }

    /// Categorical domain from a list of category names (order defines the
    /// natural order of the domain).
    ///
    /// # Errors
    ///
    /// Returns [`TypesError::EmptyDomain`] for an empty list and
    /// [`TypesError::DuplicateAttribute`] if a category repeats.
    pub fn categorical<I, S>(categories: I) -> Result<Self, TypesError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cats: Vec<String> = categories.into_iter().map(Into::into).collect();
        if cats.is_empty() {
            return Err(TypesError::EmptyDomain("Categorical([])".into()));
        }
        for (i, c) in cats.iter().enumerate() {
            if cats[..i].contains(c) {
                return Err(TypesError::DuplicateAttribute(c.clone()));
            }
        }
        Ok(Domain::Categorical(Categories::new(cats)))
    }

    /// Number of points in the domain (the paper's `d`).
    #[must_use]
    pub fn size(&self) -> u64 {
        match self {
            Domain::Int { lo, hi } => hi.abs_diff(*lo) + 1,
            Domain::Float { size, .. } => *size,
            Domain::Categorical(cats) => cats.names().len() as u64,
            Domain::Bool => 2,
        }
    }

    /// A short name for the domain's kind, used in error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Domain::Int { .. } => "int",
            Domain::Float { .. } => "float",
            Domain::Categorical(_) => "string",
            Domain::Bool => "bool",
        }
    }

    /// Whether `value` has the kind this domain stores.
    #[must_use]
    pub fn accepts_kind(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (Domain::Int { .. }, Value::Int(_))
                | (Domain::Float { .. }, Value::Float(_))
                | (Domain::Categorical(_), Value::Str(_))
                | (Domain::Bool, Value::Bool(_))
        )
    }

    /// Maps a value to its grid index in `0..size()`.
    ///
    /// Float values snap to the nearest grid point.
    ///
    /// Returns `None` if the value has the right kind but lies outside the
    /// domain, and `None` for kind mismatches as well; use
    /// [`Domain::index_of`] to distinguish the two with errors.
    #[must_use]
    pub fn try_index_of(&self, value: &Value) -> Option<u64> {
        match (self, value) {
            (Domain::Int { lo, hi }, Value::Int(x)) => {
                (*lo <= *x && *x <= *hi).then(|| x.abs_diff(*lo))
            }
            (Domain::Float { lo, step, size, .. }, Value::Float(x)) => {
                let k = ((x.get() - lo.get()) / step.get()).round();
                (k >= 0.0 && (k as u64) < *size).then_some(k as u64)
            }
            (Domain::Categorical(cats), Value::Str(s)) => cats.index_of(s),
            (Domain::Bool, Value::Bool(b)) => Some(u64::from(*b)),
            _ => None,
        }
    }

    /// Maps a value to its grid index, reporting descriptive errors.
    ///
    /// # Errors
    ///
    /// [`TypesError::TypeMismatch`] for kind mismatches,
    /// [`TypesError::OutOfDomain`] for out-of-range values.
    pub fn index_of(&self, value: &Value) -> Result<u64, TypesError> {
        // Happy path first: one match, no kind pre-check.
        if let Some(idx) = self.try_index_of(value) {
            return Ok(idx);
        }
        if self.accepts_kind(value) {
            Err(TypesError::OutOfDomain {
                attribute: String::new(),
                value: value.to_string(),
            })
        } else {
            Err(TypesError::TypeMismatch {
                attribute: String::new(),
                expected: self.kind(),
                found: value.kind().to_owned(),
            })
        }
    }

    /// Maps a grid index back to its value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.size()`.
    #[must_use]
    pub fn value_at(&self, index: u64) -> Value {
        assert!(
            index < self.size(),
            "index {index} out of bounds for domain of size {}",
            self.size()
        );
        match self {
            Domain::Int { lo, .. } => Value::Int(lo.wrapping_add_unsigned(index)),
            Domain::Float { lo, step, .. } => {
                let x = lo.get() + index as f64 * step.get();
                Value::Float(FiniteF64::new(x).expect("grid point is finite"))
            }
            Domain::Categorical(cats) => Value::Str(cats.names()[index as usize].clone()),
            Domain::Bool => Value::Bool(index == 1),
        }
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Domain::Int { lo, hi } => write!(f, "[{lo}, {hi}]"),
            Domain::Float { lo, hi, step, .. } => write!(f, "[{lo}, {hi}] step {step}"),
            Domain::Categorical(cats) => write!(f, "{{{}}}", cats.names().join(", ")),
            Domain::Bool => write!(f, "{{false, true}}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_domain_size_and_indexing() {
        let d = Domain::int(-30, 50);
        assert_eq!(d.size(), 81);
        assert_eq!(d.try_index_of(&Value::Int(-30)), Some(0));
        assert_eq!(d.try_index_of(&Value::Int(50)), Some(80));
        assert_eq!(d.try_index_of(&Value::Int(51)), None);
        assert_eq!(d.value_at(35), Value::Int(5));
    }

    #[test]
    fn int_domain_rejects_reversed_bounds() {
        assert!(Domain::try_int(5, 4).is_err());
        assert!(Domain::try_int(5, 5).is_ok());
    }

    #[test]
    fn float_domain_snaps_to_grid() {
        let d = Domain::float(0.0, 1.0, 0.25).unwrap();
        assert_eq!(d.size(), 5);
        assert_eq!(d.try_index_of(&Value::float(0.26).unwrap()), Some(1));
        assert_eq!(d.try_index_of(&Value::float(1.0).unwrap()), Some(4));
        assert_eq!(d.try_index_of(&Value::float(1.2).unwrap()), None);
        assert_eq!(d.value_at(2), Value::float(0.5).unwrap());
    }

    #[test]
    fn float_domain_invalid_parameters() {
        assert!(Domain::float(0.0, -1.0, 0.1).is_err());
        assert!(Domain::float(0.0, 1.0, 0.0).is_err());
        assert!(Domain::float(0.0, f64::NAN, 0.1).is_err());
    }

    #[test]
    fn categorical_domain() {
        let d = Domain::categorical(["low", "mid", "high"]).unwrap();
        assert_eq!(d.size(), 3);
        assert_eq!(d.try_index_of(&Value::from("mid")), Some(1));
        assert_eq!(d.try_index_of(&Value::from("none")), None);
        assert_eq!(d.value_at(2), Value::from("high"));
        assert!(Domain::categorical(["a", "a"]).is_err());
        assert!(Domain::categorical(Vec::<String>::new()).is_err());
    }

    #[test]
    fn bool_domain() {
        let d = Domain::Bool;
        assert_eq!(d.size(), 2);
        assert_eq!(d.try_index_of(&Value::Bool(false)), Some(0));
        assert_eq!(d.try_index_of(&Value::Bool(true)), Some(1));
        assert_eq!(d.value_at(1), Value::Bool(true));
    }

    #[test]
    fn index_of_reports_kind_mismatch() {
        let d = Domain::int(0, 10);
        let err = d.index_of(&Value::from("five")).unwrap_err();
        assert!(matches!(err, TypesError::TypeMismatch { .. }));
        let err = d.index_of(&Value::Int(11)).unwrap_err();
        assert!(matches!(err, TypesError::OutOfDomain { .. }));
    }

    #[test]
    fn round_trip_all_indices() {
        let domains = [
            Domain::int(-3, 3),
            Domain::float(0.0, 2.0, 0.5).unwrap(),
            Domain::categorical(["a", "b", "c"]).unwrap(),
            Domain::Bool,
        ];
        for d in &domains {
            for i in 0..d.size() {
                let v = d.value_at(i);
                assert_eq!(d.try_index_of(&v), Some(i), "domain {d}, index {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn value_at_out_of_bounds_panics() {
        let _ = Domain::int(0, 1).value_at(2);
    }

    #[test]
    fn serde_round_trip() {
        let d = Domain::float(0.0, 1.0, 0.25).unwrap();
        let json = serde_json::to_string(&d).unwrap();
        let back: Domain = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
