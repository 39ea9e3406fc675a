//! Baseline matching algorithms the tree is evaluated against.
//!
//! The paper's related-work section distinguishes "simple algorithms,
//! clustering, and tree-based algorithms" (§2). [`NaiveMatcher`] is the
//! simple algorithm — evaluate every profile's predicates directly
//! against the event — and the reference every oracle and benchmark
//! compares against. The counting / predicate-index family (Fabret et
//! al., Aguilera et al.) is [`crate::OverlayIndex`], the index the
//! snapshot serves its subscription overlay with: built over a whole
//! population it *is* the counting baseline.

mod naive;

pub use naive::NaiveMatcher;

use ens_types::ProfileId;
use serde::{Deserialize, Serialize};

/// Result of a baseline match, with the same operation accounting as the
/// tree (comparisons performed).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineOutcome {
    profiles: Vec<ProfileId>,
    ops: u64,
}

impl BaselineOutcome {
    pub(crate) fn new(mut profiles: Vec<ProfileId>, ops: u64) -> Self {
        profiles.sort_unstable();
        profiles.dedup();
        BaselineOutcome { profiles, ops }
    }

    /// Ids of matched profiles, ascending.
    #[must_use]
    pub fn profiles(&self) -> &[ProfileId] {
        &self.profiles
    }

    /// Comparison operations performed.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Whether any profile matched.
    #[must_use]
    pub fn is_match(&self) -> bool {
        !self.profiles.is_empty()
    }
}
