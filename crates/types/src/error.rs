use std::fmt;

/// Errors produced by the `ens-types` data model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TypesError {
    /// An attribute name was not declared in the schema.
    UnknownAttribute(String),
    /// An attribute was declared twice in a schema.
    DuplicateAttribute(String),
    /// A value's type does not match the attribute's domain.
    TypeMismatch {
        /// Attribute whose domain was violated.
        attribute: String,
        /// Human-readable description of the expected kind.
        expected: &'static str,
        /// Human-readable description of the supplied value.
        found: String,
    },
    /// A value lies outside the attribute's domain.
    OutOfDomain {
        /// Attribute whose domain was violated.
        attribute: String,
        /// Display form of the offending value.
        value: String,
    },
    /// A domain was constructed with zero points (e.g. `hi < lo`), or
    /// with more than a `u64` counts.
    EmptyDomain(String),
    /// A range predicate had its bounds reversed.
    InvalidRange {
        /// Display form of the lower bound.
        lo: String,
        /// Display form of the upper bound.
        hi: String,
    },
    /// A floating-point value was NaN or infinite.
    NonFiniteValue,
    /// Textual profile/event parsing failed.
    Parse {
        /// What went wrong.
        message: String,
        /// Byte offset into the input where the error was detected.
        position: usize,
    },
}

impl fmt::Display for TypesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypesError::UnknownAttribute(name) => {
                write!(f, "unknown attribute `{name}`")
            }
            TypesError::DuplicateAttribute(name) => {
                write!(f, "attribute `{name}` declared more than once")
            }
            TypesError::TypeMismatch {
                attribute,
                expected,
                found,
            } => write!(
                f,
                "type mismatch on attribute `{attribute}`: expected {expected}, found {found}"
            ),
            TypesError::OutOfDomain { attribute, value } => {
                write!(f, "value {value} is outside the domain of `{attribute}`")
            }
            TypesError::EmptyDomain(desc) => {
                write!(f, "domain {desc} has no points or more than a u64 counts")
            }
            TypesError::InvalidRange { lo, hi } => {
                write!(
                    f,
                    "invalid range: lower bound {lo} exceeds upper bound {hi}"
                )
            }
            TypesError::NonFiniteValue => write!(f, "floating-point value was not finite"),
            TypesError::Parse { message, position } => {
                write!(f, "parse error at byte {position}: {message}")
            }
        }
    }
}

impl std::error::Error for TypesError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let errors = [
            TypesError::UnknownAttribute("x".into()),
            TypesError::EmptyDomain("Int{lo: 5, hi: 4}".into()),
            TypesError::NonFiniteValue,
            TypesError::Parse {
                message: "unexpected token".into(),
                position: 3,
            },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.ends_with('.'), "no trailing period: {s}");
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<TypesError>();
    }
}
