//! Extractors: point-in-time relational views over a running
//! [`Cluster`]. Each function scans the world once and returns a
//! [`Table`]; rows are ordered by primary id so two snapshots of the
//! same state are identical.

use storm_core::cluster::Cluster;
use storm_core::replica::MmRole;

use crate::table::{Datum, Table};

fn t(v: Option<storm_sim::SimTime>) -> Datum {
    match v {
        Some(x) => Datum::Time(x),
        None => Datum::Null,
    }
}

/// The `jobs` table: one row per job ever submitted.
///
/// Columns: `job`, `name`, `app`, `state`, `ranks`, `attempt`, `retries`,
/// `slot`, `node_start`, `node_end` (allocation, `Null` while queued),
/// `submitted`, `started`, `completed` (instants, `Null` until reached),
/// and `wait_us` (queue wait: transfer start − submission, the paper's
/// time-to-first-resource).
pub fn jobs(c: &Cluster) -> Table {
    let mut out = Table::new(
        "jobs",
        &[
            "job",
            "name",
            "app",
            "state",
            "ranks",
            "attempt",
            "retries",
            "slot",
            "node_start",
            "node_end",
            "submitted",
            "started",
            "completed",
            "wait_us",
        ],
    );
    for j in &c.world().jobs {
        let (slot, start, end) = match &j.allocation {
            Some(a) => (
                Datum::U64(a.slot as u64),
                Datum::U64(u64::from(a.nodes.start)),
                Datum::U64(u64::from(a.nodes.end)),
            ),
            None => (Datum::Null, Datum::Null, Datum::Null),
        };
        let wait = match (j.metrics.submitted, j.metrics.transfer_start) {
            (Some(sub), Some(ts)) => Datum::U64(ts.since(sub).as_nanos() / 1_000),
            _ => Datum::Null,
        };
        out.push(vec![
            Datum::U64(u64::from(j.id.0)),
            Datum::Str(j.spec.name.clone()),
            Datum::Str(j.spec.app.name().to_string()),
            Datum::Str(format!("{:?}", j.state)),
            Datum::U64(u64::from(j.spec.ranks)),
            Datum::U64(u64::from(j.attempt)),
            Datum::U64(u64::from(j.retries)),
            slot,
            start,
            end,
            t(j.metrics.submitted),
            t(j.metrics.started),
            t(j.metrics.completed),
            wait,
        ]);
    }
    out
}

/// The `nodes` table: one row per node.
///
/// Columns: `node`, `failed`, `failed_at` (`Null` while healthy),
/// `quarantined`.
pub fn nodes(c: &Cluster) -> Table {
    let w = c.world();
    let mut out = Table::new("nodes", &["node", "failed", "failed_at", "quarantined"]);
    for n in 0..w.cfg.nodes {
        out.push(vec![
            Datum::U64(u64::from(n)),
            Datum::Bool(w.nodes.is_failed(n)),
            t(w.nodes.failed_since(n)),
            Datum::Bool(w.matrix.is_quarantined(n)),
        ]);
    }
    out
}

/// The `slots` table: one row per Ousterhout-matrix time slot.
///
/// Columns: `slot`, `active` (the currently scheduled slot), `jobs`,
/// `used_nodes` (node-columns occupied by allocations), `usable_nodes`
/// (nodes the slot's buddy allocator can still place on).
pub fn slots(c: &Cluster) -> Table {
    let w = c.world();
    let m = w.matrix.export_state();
    let mut out = Table::new(
        "slots",
        &["slot", "active", "jobs", "used_nodes", "usable_nodes"],
    );
    for (ix, slot) in m.slots.iter().enumerate() {
        let jobs_here = w.matrix.jobs_in_slot(ix);
        let used: u64 = jobs_here
            .iter()
            .map(|(_, r)| u64::from(r.end - r.start))
            .sum();
        out.push(vec![
            Datum::U64(ix as u64),
            Datum::Bool(ix == w.active_slot),
            Datum::U64(jobs_here.len() as u64),
            Datum::U64(used),
            Datum::U64(u64::from(slot.buddy.usable)),
        ]);
    }
    out
}

/// The `allocs` table: one row per live allocation (a job's buddy block
/// in a slot).
///
/// Columns: `slot`, `job`, `node_start`, `node_end`, `width`.
pub fn allocs(c: &Cluster) -> Table {
    let w = c.world();
    let mut out = Table::new(
        "allocs",
        &["slot", "job", "node_start", "node_end", "width"],
    );
    for slot in 0..w.matrix.slot_count() {
        for (job, range) in w.matrix.jobs_in_slot(slot) {
            out.push(vec![
                Datum::U64(slot as u64),
                Datum::U64(u64::from(job.0)),
                Datum::U64(u64::from(range.start)),
                Datum::U64(u64::from(range.end)),
                Datum::U64(u64::from(range.end - range.start)),
            ]);
        }
    }
    out
}

/// The `replicas` table: one row per Machine Manager replica.
///
/// Columns: `rank`, `role` (`active`/`standby`/`failed`), `active` (is
/// this the rank the cluster currently routes to), `epoch`, `applied`
/// (log records applied by a standby), `failed_at`.
pub fn replicas(c: &Cluster) -> Table {
    let w = c.world();
    let mut out = Table::new(
        "replicas",
        &["rank", "role", "active", "epoch", "applied", "failed_at"],
    );
    for (rank, role) in w.mm_roles.iter().enumerate() {
        let role_str = match role {
            MmRole::Active => "active",
            MmRole::Standby => "standby",
            MmRole::Failed => "failed",
        };
        out.push(vec![
            Datum::U64(rank as u64),
            Datum::Str(role_str.to_string()),
            Datum::Bool(rank as u32 == w.mm_active_rank),
            Datum::U64(w.mm_epoch),
            Datum::U64(w.mm_replicas.get(rank).map_or(0, |r| r.applied)),
            t(w.mm_failed_at.get(rank).copied().flatten()),
        ]);
    }
    out
}
