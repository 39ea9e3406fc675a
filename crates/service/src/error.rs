use std::fmt;

use ens_filter::FilterError;
use ens_types::TypesError;

use crate::subscription::SubscriptionId;

/// Errors produced by the notification service.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// A filter operation failed.
    Filter(FilterError),
    /// A data-model operation failed.
    Types(TypesError),
    /// The referenced subscription does not exist (or was cancelled).
    UnknownSubscription(SubscriptionId),
    /// Durable state (WAL or checkpoint) could not be written or
    /// recovered.
    Persist(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Filter(e) => write!(f, "{e}"),
            ServiceError::Types(e) => write!(f, "{e}"),
            ServiceError::UnknownSubscription(id) => {
                write!(f, "unknown subscription {id}")
            }
            ServiceError::Persist(msg) => write!(f, "durable state error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Filter(e) => Some(e),
            ServiceError::Types(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FilterError> for ServiceError {
    fn from(e: FilterError) -> Self {
        ServiceError::Filter(e)
    }
}

impl From<TypesError> for ServiceError {
    fn from(e: TypesError) -> Self {
        ServiceError::Types(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: ServiceError = TypesError::NonFiniteValue.into();
        assert!(e.to_string().contains("finite"));
        let e: ServiceError = FilterError::EmptyProfileSet.into();
        assert!(e.to_string().contains("empty"));
        let e = ServiceError::UnknownSubscription(SubscriptionId::new(9));
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<ServiceError>();
    }
}
