//! Shadow policy calls: rebuild, from outside the cluster, the exact
//! arguments the MM passes to [`policy::select_starts`] at a timeslice
//! boundary, so the benchmark can time the policy layer on the workload's
//! real queue and matrix without touching the simulation.

use storm::core::policy::{self, QueuedJob, RunningJob};
use storm::core::prelude::*;
use storm::core::GangMatrix;

/// The policy inputs at one boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The boundary instant.
    pub now: SimTime,
    /// Queued jobs in FCFS order.
    pub queued: Vec<QueuedJob>,
    /// Allocated, non-terminal jobs.
    pub running: Vec<RunningJob>,
    /// The live gang matrix.
    pub matrix: GangMatrix,
}

/// Build the policy inputs from `cluster`'s current state, exactly as the
/// MM's policy step does: the queue in order with each job's node need and
/// estimate, and every allocated non-terminal job with its estimated end
/// (a job not yet started is taken to start now).
pub fn snapshot(cluster: &Cluster) -> Snapshot {
    let w = cluster.world();
    let now = cluster.now();
    let cpus = w.cfg.cpus_per_node;
    let queued = w
        .queue
        .iter()
        .map(|&id| {
            let rec = w.job(id);
            QueuedJob {
                id,
                nodes_needed: rec.spec.nodes_needed(cpus),
                estimate: rec.spec.runtime_estimate,
            }
        })
        .collect();
    let running = w
        .jobs
        .iter()
        .filter(|r| !r.state.is_terminal() && r.allocation.is_some())
        .map(|r| RunningJob {
            nodes_held: r.alloc().node_count(),
            est_end: r
                .spec
                .runtime_estimate
                .map(|e| r.metrics.started.unwrap_or(now) + e),
        })
        .collect();
    Snapshot {
        now,
        queued,
        running,
        matrix: w.matrix.clone(),
    }
}

/// The three policies every boundary is shadowed under, with metric keys.
pub const POLICIES: [(&str, SchedulerKind); 3] = [
    ("fcfs", SchedulerKind::Batch),
    ("easy", SchedulerKind::Backfill),
    ("gang", SchedulerKind::Gang),
];

/// Run `kind`'s selection on `snap`.
pub fn select(kind: SchedulerKind, snap: &Snapshot) -> Vec<JobId> {
    policy::select_starts(kind, snap.now, &snap.queued, &snap.running, &snap.matrix)
}
