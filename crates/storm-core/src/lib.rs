//! # storm-core — the STORM resource manager
//!
//! This crate implements the paper's contribution: a resource-management
//! framework whose every function — job launching, gang scheduling,
//! heartbeat issuance, termination detection, fault detection — is built on
//! the three mechanisms of `storm-mech`.
//!
//! ## Process structure (§2.1, Table 2)
//!
//! * [`mm::MachineManager`] — one per cluster, on the management node:
//!   enqueues arriving jobs, allocates processors with a buddy-tree
//!   algorithm, makes global scheduling decisions, and drives the chunked
//!   broadcast file-transfer protocol. It issues commands and collects event
//!   notifications **only at timeslice boundaries**.
//! * [`nm::NodeManager`] — one per compute node: receives broadcast file
//!   fragments and writes them to the local (RAM-disk) filesystem, enacts
//!   coordinated context switches when the MM's strobe arrives, schedules
//!   the local ranks, and detects process termination.
//! * [`pl::ProgramLauncher`] — one per potential process
//!   (nodes × CPUs × MPL): forks a single application process and reports
//!   its exit to the NM.
//!
//! ## Launch protocol (§2.3, §3.3.1)
//!
//! The binary is pipelined *read → broadcast → write* in fixed-size chunks
//! through a bounded remote receive queue (multi-buffering), with global
//! flow control by COMPARE-AND-WRITE on a per-job fragment counter. The
//! execute phase broadcasts a launch command, forks on every node, and
//! collects termination reports at heartbeat intervals.
//!
//! ## Scheduling (§3.2)
//!
//! [`matrix::GangMatrix`] is an Ousterhout time-slot matrix; the MM rotates
//! the active slot every timeslice quantum and enacts the global context
//! switch with a single hardware multicast. Batch (FCFS) and EASY-backfill
//! policies are also provided ([`policy`]), as the paper's STORM supports
//! "batch scheduling with and without backfilling, gang scheduling, and
//! implicit coscheduling".
//!
//! ## Entry point
//!
//! [`cluster::Cluster`] wires a complete simulated machine:
//!
//! ```
//! use storm_core::prelude::*;
//!
//! let cfg = ClusterConfig::paper_cluster(); // 64 ES40 nodes, QsNET, RAM disk
//! let mut cluster = Cluster::new(cfg);
//! let job = cluster.submit(JobSpec::new(AppSpec::do_nothing_mb(12), 256));
//! cluster.run_until_idle();
//! let m = cluster.job(job).metrics.clone();
//! println!("12 MB on 256 PEs: send {} execute {}",
//!          m.send_span().unwrap(), m.execute_span().unwrap());
//! assert!(m.total_launch_span().unwrap().as_millis_f64() < 200.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buddy;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod cq;
pub mod fault;
pub mod invariants;
pub mod job;
pub mod matrix;
pub mod mm;
pub mod msg;
pub mod nm;
pub mod pl;
pub mod policy;
pub mod replica;
pub mod world;

pub use buddy::BuddyAllocator;
pub use cluster::{Cluster, Report};
pub use config::{ClusterConfig, DaemonCosts, SchedulerKind};
pub use fault::{FailurePolicy, FaultEvent, FaultSchedule};
pub use invariants::InvariantError;
pub use job::{JobId, JobMetrics, JobSpec, JobState};
pub use matrix::GangMatrix;
pub use replica::{Decision, MmCoreState, MmRole, ReplStats, ReplicaState};
pub use world::{ClusterStats, World};

/// The telemetry crate, re-exported so consumers need no direct dependency.
pub use storm_telemetry as telemetry;

/// Convenient glob import for examples and benches.
pub mod prelude {
    pub use crate::cluster::{Cluster, Report};
    pub use crate::config::{ClusterConfig, DaemonCosts, SchedulerKind};
    pub use crate::cq::{Alert, Condition};
    pub use crate::fault::{FailurePolicy, FaultEvent, FaultSchedule};
    pub use crate::job::{JobId, JobMetrics, JobSpec, JobState};
    pub use crate::replica::{Decision, MmCoreState, MmRole, ReplStats, ReplicaState};
    pub use crate::world::ClusterStats;
    pub use storm_apps::AppSpec;
    pub use storm_fs::FsKind;
    pub use storm_net::{BackgroundLoad, BufferPlacement, NetworkKind};
    pub use storm_sim::{QueueStats, SimSpan, SimTime};
    pub use storm_telemetry::{
        chrome_trace, spans_jsonl, validate_json, Histogram, JobSpan, MetricsSnapshot, Telemetry,
    };
}
