//! Workload generators and the experiment harness reproducing the
//! paper's evaluation (§4.3).
//!
//! * [`scenario`] — the motivating applications (environmental
//!   monitoring, stock ticker) as ready-made schemas, profile
//!   populations and event models;
//! * [`ProfileGenerator`] / [`EventGenerator`] — distribution-driven
//!   random workloads;
//! * [`churn`] — deterministic churn-and-burst plans for the concurrent
//!   broker (subscriptions arriving and leaving while bursts publish);
//! * [`covered_profiles`] — coverage-heavy populations (Zipf-skewed
//!   duplicates and single-attribute narrowings of root profiles) for
//!   the covering-pruned compilation path;
//! * [`drift`] — two-phase distribution-shift workloads (the hot value
//!   band migrates mid-run) exercising the self-tuning loop;
//! * [`federation`] — deterministic partition/flap schedules replayed
//!   against the service layer's fault-injection network by the broker
//!   federation robustness suite;
//! * [`experiments`] — the TV1–TV4 and TA1–TA2 protocols and one driver
//!   per figure ([`figure_4a`], [`figure_4b`], [`figure_5`],
//!   [`figure_6`]);
//! * [`FigureTable`] — row×series data with ASCII/CSV/JSON rendering,
//!   consumed by the `repro` binary in `ens-bench` (README,
//!   "Regenerating the paper's figures").
//!
//! # Example
//!
//! ```no_run
//! // Regenerate Fig. 4(a) (analytic TV4 protocol; ~seconds).
//! let table = ens_workloads::figure_4a()?;
//! println!("{}", table.render());
//! # Ok::<(), ens_workloads::WorkloadError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
mod covered;
pub mod drift;
mod error;
pub mod experiments;
pub mod federation;
mod figures;
mod generator;
pub mod scenario;

pub use churn::{alert_churn_profiles, churn_burst_plan, ChurnOp, ChurnPlan};
pub use covered::{covered_profiles, CoveredPopulationConfig};
pub use drift::{hot_band_migration, DriftWorkload};
pub use error::WorkloadError;
pub use experiments::{
    ablation_table, adaptive_sweep, figure_4a, figure_4b, figure_5, figure_6,
    multi_attribute_setup, run_measured, run_tv_suite, search_strategy_table,
    single_attribute_setup, AdaptiveSweepRow, MeasuredRun, TaExperiment, TvReport, FIG4A_COMBOS,
    FIG4B_COMBOS, FIG5_COMBOS,
};
pub use federation::{
    flap_plan, line_topology, star_topology, tree_topology, FlapEvent, FlapOp, FlapPlan, Topology,
};
pub use figures::{FigureTable, Series};
pub use generator::{EventGenerator, ProfileGenConfig, ProfileGenerator};

/// Convenience result alias used across this crate.
pub type Result<T> = std::result::Result<T, WorkloadError>;
