//! # storm-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate on which the whole STORM reproduction runs.
//! The paper evaluated STORM on a 256-processor AlphaServer ES40 cluster with
//! a Quadrics QsNET network; we do not have that hardware, so every
//! experiment executes inside a deterministic, single-threaded discrete-event
//! simulation built from the pieces in this crate:
//!
//! * [`SimTime`] / [`SimSpan`] — nanosecond-resolution instants and durations.
//! * [`EventQueue`] — an event queue with a total (time, sequence) order,
//!   which makes every run bit-for-bit reproducible for a given seed. The
//!   engine runs on a hierarchical timing wheel; the reference binary
//!   heap pops in bit-identical order and stays as the specification the
//!   wheel is tested against. Entries carry only a dense event reference;
//!   payloads are interned in [`EventArena`].
//! * [`EventArena`] — a generational slab arena for in-flight message
//!   payloads, so queue reshuffles move machine words, not messages.
//! * [`Simulation`] / [`Component`] / [`Context`] — a small actor framework:
//!   components (the STORM dæmons, application processes, baseline launchers)
//!   exchange timestamped messages and share a mutable *world* (network
//!   occupancy, global variables, metrics).
//! * [`stats`] — online statistics, percentiles and series collection used by
//!   the benchmark harness.
//! * [`trace`] — a lightweight event trace used by tests to assert
//!   determinism and by examples to print timelines.
//!
//! The engine is deliberately simple — one serial event path, no
//! `unsafe`, no wall-clock time — because reproducibility of the
//! *simulated* timings is the property every experiment in the paper
//! reproduction depends on.
//!
//! ## Example
//!
//! ```
//! use storm_sim::{Component, Context, SimSpan, Simulation};
//!
//! struct Ping { count: u32 }
//!
//! #[derive(Clone, Debug)]
//! enum Msg { Ping, Pong }
//!
//! impl Component<(), Msg> for Ping {
//!     fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, (), Msg>) {
//!         match msg {
//!             Msg::Ping => {
//!                 self.count += 1;
//!                 if self.count < 3 {
//!                     ctx.send_self(SimSpan::from_micros(10), Msg::Ping);
//!                 }
//!             }
//!             Msg::Pong => {}
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new((), 42);
//! let ping = sim.add_component(Ping { count: 0 });
//! sim.post(storm_sim::SimTime::ZERO, ping, Msg::Ping);
//! sim.run_to_completion();
//! assert_eq!(sim.now(), storm_sim::SimTime::from_micros(20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod engine;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use arena::{ArenaSize, ArenaStats, EventArena, PayloadId};
pub use engine::{
    tree_depth, Component, ComponentId, Context, Delivery, EngineState, GroupDelivery,
    GroupSchedule, GroupTargets, QueuedEventState, Simulation,
};
pub use queue::{
    DeliveryOrder, DeliveryOrderState, EventQueue, OrderModeState, QueueAccounting, QueueBackend,
    QueueStats,
};
pub use rng::DeterministicRng;
pub use time::{SimSpan, SimTime};
pub use trace::{intern_label, TraceRecord, Tracer};
