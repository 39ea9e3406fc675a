//! Core data model for the `ens` event-notification workspace.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace, following the model of Hinze & Bittner, *Efficient
//! Distribution-Based Event Filtering* (ICDCSW 2002):
//!
//! * an **event** is a collection of `(attribute, value)` pairs
//!   ([`Event`]), e.g. `event(temperature = 30; humidity = 90)`;
//! * a **profile** (subscription) is a conjunction of predicates over the
//!   same attributes ([`Profile`]), e.g.
//!   `profile(temperature >= 35; humidity = 90)`;
//! * attributes and their typed domains are declared once in a
//!   [`Schema`]; every domain is a finite, totally ordered grid of points
//!   so that the distribution-based cost model of the paper (domain sizes
//!   `d`, zero-subdomain sizes `d0`) is exact integer arithmetic.
//!
//! Predicates normalise to sets of half-open **index intervals** over the
//! domain grid ([`IntervalSet`]), which is the representation the profile
//! tree in `ens-filter` consumes.
//!
//! # Example
//!
//! ```
//! use ens_types::{Schema, Domain, Profile, Event, Predicate, Value};
//!
//! # fn main() -> Result<(), ens_types::TypesError> {
//! let schema = Schema::builder()
//!     .attribute("temperature", Domain::int(-30, 50))?
//!     .attribute("humidity", Domain::int(0, 100))?
//!     .build();
//!
//! let profile = Profile::builder(&schema)
//!     .predicate("temperature", Predicate::ge(35))?
//!     .predicate("humidity", Predicate::eq(90))?
//!     .build(0.into());
//!
//! let event = Event::builder(&schema)
//!     .value("temperature", 40)?
//!     .value("humidity", 90)?
//!     .build();
//!
//! assert!(profile.matches(&schema, &event)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribute;
mod covering;
mod domain;
mod error;
mod event;
mod indexed;
mod interval;
mod lowered;
pub mod parse;
mod predicate;
mod profile;
mod value;

pub use attribute::{AttrId, Attribute, Schema, SchemaBuilder};
pub use covering::{covers, profile_signature, CoverOutcome, CoverSet, Residual};
pub use domain::{Categories, Domain};
pub use error::TypesError;
pub use event::{Event, EventBuilder};
pub use indexed::{IndexedBatch, IndexedEvent};
pub use interval::{IndexInterval, IntervalSet};
pub use lowered::LoweredTable;
pub use predicate::{Operator, Predicate};
pub use profile::{Profile, ProfileBuilder, ProfileId, ProfileSet};
pub use value::{FiniteF64, Value};

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, TypesError>;
