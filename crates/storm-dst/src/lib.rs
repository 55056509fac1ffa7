//! # storm-dst — deterministic simulation testing for STORM
//!
//! FoundationDB-style schedule-space exploration over the simulated
//! cluster (see DESIGN.md §14):
//!
//! * **Interleaving control** — [`storm_sim::DeliveryOrder`] permutes
//!   same-timestamp event delivery under its own seeded stream; the
//!   engine's total order becomes `(time, tie, seq)`. Disabled (the
//!   default everywhere else), runs are bit-identical to the classic
//!   `(time, seq)` order.
//! * **Invariant checks** — at every timeslice boundary, storm-core's
//!   `World::check_invariants` (job accounting, buddy-allocator
//!   conservation, Ousterhout-matrix consistency, COMPARE-AND-WRITE
//!   all-or-nothing visibility, heartbeat bounds, quarantine safety, MM
//!   membership, no lost job, replica consistency — the same checker
//!   `Cluster::restore` runs), then the [`oracle`]s that need history: no
//!   terminal job revives, and neither the heartbeat round nor the MM
//!   epoch goes back.
//! * **Exploration** — [`explore`]: bounded-exhaustive tie-script
//!   enumeration for tiny clusters, seeded swarm search at scale, both
//!   crossed with the scenario's fault schedule.
//! * **Shrinking & replay** — [`shrink`] delta-debugs a failure to a
//!   minimal scenario; [`repro`] writes it as a self-contained
//!   `DST_repro_*.json` that replays byte-identically.
//!
//! ```
//! use storm_dst::prelude::*;
//!
//! // Explore 8 seeded interleavings of a 2-node launch; all oracles hold.
//! let report = explore_swarm(&Scenario::two_node_launch(), 3, 0, 0..8);
//! assert!(report.failure.is_none());
//! assert!(report.distinct > 1, "reordering actually happened");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod json;
pub mod oracle;
pub mod repro;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use explore::{
    exhaustive_runs, explore_exhaustive, explore_swarm, ExploreReport, EXHAUSTIVE_CAP,
};
pub use oracle::{check_all, standard_suite, Oracle, Violation};
pub use repro::{replay, ReplayReport, Repro};
pub use runner::{run_scenario, run_scenario_caught, RunOutcome};
pub use scenario::{
    AppKind, FaultKind, FaultSpec, Injection, InjectionKind, JobEvent, OrderSpec, Scenario,
};
pub use shrink::{minimize_ties, shrink};

/// Everything a DST harness or test needs.
pub mod prelude {
    pub use crate::explore::{
        exhaustive_runs, explore_exhaustive, explore_swarm, ExploreReport, EXHAUSTIVE_CAP,
    };
    pub use crate::oracle::{check_all, standard_suite, Oracle, Violation};
    pub use crate::repro::{replay, ReplayReport, Repro};
    pub use crate::runner::{run_scenario, run_scenario_caught, RunOutcome};
    pub use crate::scenario::{
        AppKind, FaultKind, FaultSpec, Injection, InjectionKind, JobEvent, OrderSpec, Scenario,
    };
    pub use crate::shrink::{minimize_ties, shrink};
    pub use storm_sim::DeliveryOrder;
}
