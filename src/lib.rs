//! # ens — distribution-based event filtering
//!
//! Façade crate for the `ens` workspace, a reproduction of Hinze &
//! Bittner, *Efficient Distribution-Based Event Filtering* (ICDCSW 2002).
//!
//! The workspace implements a content-based publish/subscribe matcher
//! built on a **profile tree** (one level per attribute, edges labelled
//! with value subranges) and the paper's *distribution-aware*
//! optimisations: value-selectivity measures V1–V3 that reorder the edges
//! inside each node, and attribute-selectivity measures A1–A3 that
//! reorder the tree levels, both driven by observed or assumed event and
//! profile distributions.
//!
//! The members re-exported here:
//!
//! * [`types`] — events, profiles, schemas, predicates ([`ens_types`]);
//! * [`dist`] — distribution toolkit and named catalog ([`ens_dist`]);
//! * [`filter`] — the profile-tree filter, cost model, selectivity
//!   measures and baseline matchers ([`ens_filter`]);
//! * [`service`] — a notification broker with adaptive re-optimisation
//!   and quenching ([`ens_service`]);
//! * [`workloads`] — scenario generators and the paper's experiment
//!   harness ([`ens_workloads`]).
//!
//! One module lives here and not in a member crate: [`composite`], the
//! composite-event detector of the paper's §5 outlook, which consumes
//! what a broker reports and is used by nothing below this crate.
//!
//! # Quickstart
//!
//! ```
//! use ens::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let schema = Schema::builder()
//!     .attribute("temperature", Domain::int(-30, 50))?
//!     .attribute("humidity", Domain::int(0, 100))?
//!     .build();
//!
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
//! assert_eq!(outcome.profiles().len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The README is part of the crate docs so that every Rust snippet in
// it — including the self-tuning tuning-guide example — is compiled
// and executed as a doctest.
#![doc = include_str!("../README.md")]

pub mod composite;

pub use ens_dist as dist;
pub use ens_filter as filter;
pub use ens_service as service;
pub use ens_types as types;
pub use ens_workloads as workloads;

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use ens_dist::{DistOverDomain, DistributionCatalog, Histogram};
    pub use ens_filter::{
        AttributeMeasure, Dfsa, MatchScratch, Matcher, RebuildPolicy, SearchStrategy, TreeConfig,
        ValueOrder,
    };
    pub use ens_service::{Broker, BrokerConfig, Subscriber};
    pub use ens_types::{
        AttrId, Attribute, Domain, Event, Predicate, Profile, ProfileId, ProfileSet, Schema, Value,
    };
}
