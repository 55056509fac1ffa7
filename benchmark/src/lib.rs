//! # storm-perfbench — the repository benchmark
//!
//! Runs one named STORM workload on one thread, measures host time per
//! simulated second and the other end-to-end metrics untraced, or the
//! per-layer breakdown traced, checks that the simulated outputs are
//! correct, and prints one JSON result line. See `README.md` beside this
//! crate for the workloads, the metrics and how they relate.

pub mod digest;
pub mod inputs;
pub mod probes;
pub mod report;
pub mod run;
pub mod shadow;
pub mod spans;
