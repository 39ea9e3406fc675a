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
