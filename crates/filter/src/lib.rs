//! Distribution-based profile-tree event filter.
//!
//! This crate is the primary contribution of Hinze & Bittner, *Efficient
//! Distribution-Based Event Filtering* (ICDCSW 2002): a content-based
//! publish/subscribe matcher built on a profile tree (one level per
//! attribute, edges labelled with value subranges), extended with
//! distribution-aware optimisations:
//!
//! * **Value reordering** (Measures V1–V3, [`ValueOrder`]): the edges of
//!   every node are scanned in order of event probability, profile
//!   probability or their product, with lookup-table early termination;
//! * **Attribute reordering** (Measures A1–A3, [`AttributeMeasure`]):
//!   tree levels ordered by zero-subdomain selectivity so non-matching
//!   events are rejected as early as possible;
//! * an **analytic cost model** ([`CostModel`]) implementing the paper's
//!   Eq. 2 — expected comparison operations per event under arbitrary
//!   event/profile distributions — priced on the compiled automaton;
//! * **statistic objects** ([`FilterStatistics`]) and a
//!   [`DriftTracker`] that asks for the tree to be restructured when
//!   the observed event distribution drifts;
//! * one compiled form, the [`Dfsa`]: [`Dfsa::build`] builds the
//!   profile tree straight into a flat automaton, and a checkpoint
//!   decodes into one; beside it the naive [`baseline`] matcher and the
//!   counting [`OverlayIndex`] for comparison;
//! * an immutable [`FilterSnapshot`] (DFSA + incremental subscription
//!   overlay) for lock-free concurrent matching, with
//!   [`RebuildPolicy`]/[`DriftTracker`] unifying churn compaction and
//!   adaptive drift rebuilds behind a single snapshot-swap writer;
//! * a [`tuning`] pass that closes the observe → estimate →
//!   re-optimize loop: when drift fires, it prices candidate
//!   (search-strategy, attribute-order) configurations under the
//!   online distribution estimate and recommends a retune only when
//!   the predicted improvement clears a threshold.
//!
//! # Quickstart
//!
//! ```
//! use ens_filter::{Dfsa, Matcher, TreeConfig};
//! use ens_types::{Schema, Domain, Predicate, ProfileSet, Event};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let schema = Schema::builder()
//!     .attribute("temperature", Domain::int(-30, 50))?
//!     .attribute("humidity", Domain::int(0, 100))?
//!     .build();
//! let mut profiles = ProfileSet::new(&schema);
//! profiles.insert_with(|b| {
//!     b.predicate("temperature", Predicate::ge(35))?
//!         .predicate("humidity", Predicate::ge(90))
//! })?;
//!
//! let dfsa = Dfsa::build(&profiles, &TreeConfig::default())?;
//! let event = Event::builder(&schema)
//!     .value("temperature", 40)?
//!     .value("humidity", 95)?
//!     .build();
//! let outcome = dfsa.match_event(&schema, &event)?;
//! assert!(outcome.is_match());
//! println!("matched {} profiles in {} comparisons", outcome.profiles().len(), outcome.ops());
//! # Ok(())
//! # }
//! ```

// `deny` instead of `forbid`: the single exception is the safe
// software-prefetch wrapper in `dfsa::prefetch` (a no-op hint on
// non-x86_64), which needs one `allow(unsafe_code)` for the intrinsic.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod cost;
mod cover;
mod dfsa;
mod error;
mod order;
mod overlay;
pub mod persist;
mod rebuild;
mod scratch;
mod selectivity;
mod snapshot;
mod statistics;
mod subrange;
mod tree;
pub mod tuning;

pub use cost::{CostBreakdown, CostModel, LevelCost, ProfileCost};
pub use cover::CoverPlan;
pub use dfsa::{Dfsa, BLOCK_LANES, JUMP_TABLE_MAX_DOMAIN};
pub use error::FilterError;
pub use order::{
    binary_hit_cost, binary_miss_cost, Direction, NodeOrdering, SearchStrategy, ValueOrder,
};
pub use overlay::OverlayIndex;
pub use persist::{PersistError, PersistErrorKind};
pub use rebuild::{DriftCause, DriftSignal, DriftTracker, RebinnedHistory, RebuildPolicy};
pub use scratch::{BlockScratch, MatchScratch, Matcher};
pub use selectivity::{
    attribute_selectivities, order_attributes, AttributeMeasure, A3_MAX_ATTRIBUTES,
};
pub use snapshot::{FilterSnapshot, SnapshotBlockScratch, SnapshotScratch};
pub use statistics::FilterStatistics;
pub use subrange::{AttributePartition, Cell};
pub use tree::{AttributeOrder, TreeConfig};
pub use tuning::RetuneDecision;

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, FilterError>;
