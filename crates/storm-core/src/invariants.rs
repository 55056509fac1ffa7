//! The world's stateless invariants, checked in one place.
//!
//! [`World::check_invariants`] decides whether a world is consistent.
//! [`Cluster::restore`](crate::Cluster::restore) runs it on every
//! checkpoint it loads, and the DST harness (`storm-dst`) runs it at every
//! timeslice boundary, before the few oracles that compare a boundary with
//! earlier ones. A failure names its check, so restore errors, DST
//! violations and repro artifacts share one vocabulary.
//!
//! A restored world is untrusted input. Table shapes and references are
//! checked first, so no later check indexes out of range, and every check
//! is linear in the state it reads.

use crate::replica::MmRole;
use crate::world::World;
use std::fmt;
use std::ops::Range;
use storm_mech::{NodeId, VarId};

/// A broken invariant: the check that failed and what it found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantError {
    /// The check's stable name, e.g. `"matrix_consistency"`.
    pub check: &'static str,
    /// What the check found.
    pub detail: String,
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.check, self.detail)
    }
}

/// Return an [`InvariantError`] naming `check`, its detail `format!`ted.
macro_rules! broken {
    ($check:literal, $($detail:tt)+) => {
        return Err($crate::invariants::InvariantError {
            check: $check,
            detail: format!($($detail)+),
        })
    };
}
pub(crate) use broken;

impl World {
    /// Check every stateless invariant, in this order, and name the first
    /// that fails:
    ///
    /// * `shape`: the node table and global memory have one row per node,
    ///   the replica tables one entry per MM replica, `mm_active_rank`
    ///   names a replica, and the matrix spans the cluster with at most
    ///   `mpl_max` slots;
    /// * `references`: each job record sits at its id's index, queued and
    ///   requeue-pending jobs have records, `hb_var`, `mm_epoch_var` and
    ///   each job's `transfer.written_var` are allocated variables, the
    ///   free list names allocated variables once each and none of those,
    ///   no two jobs share a `written_var`, and a job's report sets name
    ///   nodes of its allocation only;
    /// * the matrix's own checks, `buddy_conservation`,
    ///   `matrix_consistency` and `quarantine_safety`
    ///   ([`GangMatrix::check_invariants`]);
    /// * `matrix_consistency`: every placed job has a record, every
    ///   allocation is a non-empty range of the cluster with 1 to
    ///   `cpus_per_node` ranks per node, and the matrix places exactly the
    ///   live jobs that hold an allocation, at that allocation;
    /// * `job_accounting`: `completed_jobs` counts the terminal jobs;
    /// * `caw_visibility`: every node of an audited COMPARE-AND-WRITE set
    ///   reads the written value;
    /// * `heartbeat_monotonic`: no node's heartbeat is above `hb_round`;
    /// * `single_active_mm`: at most one replica is Active, and
    ///   `mm_active_rank` is it — or a replica that failed before any
    ///   successor took over, never a standby;
    /// * `no_job_lost`: every submitted live job is placed, queued or
    ///   waiting on a requeue timer;
    /// * `repl_consistency`: no standby is past the active's log position,
    ///   and one at it holds the active's digest.
    ///
    /// [`GangMatrix::check_invariants`]: crate::GangMatrix::check_invariants
    pub fn check_invariants(&self) -> Result<(), InvariantError> {
        self.check_shape()?;
        self.check_references()?;
        self.matrix.check_invariants().map_err(|e| InvariantError {
            detail: format!("world.matrix: {}", e.detail),
            ..e
        })?;
        self.check_placements()?;
        let completed = self.stats.completed_jobs;
        let terminal = self.jobs.iter().filter(|j| j.state.is_terminal()).count();
        if completed != terminal as u64 {
            broken!(
                "job_accounting",
                "world.stats.completed_jobs: {completed} but {terminal} jobs are terminal"
            );
        }
        let memory = &self.mech.memory;
        for (var, audit) in memory.caw_audits() {
            if let Some(node) = audit
                .set
                .iter()
                .find(|&n| memory.read(n, var) != audit.value)
            {
                let (read, wrote) = (memory.read(node, var), audit.value);
                broken!(
                    "caw_visibility",
                    "torn CAW write: {node} reads {read} for {var:?}, the set wrote {wrote}"
                );
            }
        }
        if let Some(var) = self.hb_var {
            let (round, beat) = (self.hb_round, |n| memory.read(NodeId(n), var));
            if let Some(n) = (0..self.cfg.nodes).find(|&n| beat(n) > round) {
                broken!(
                    "heartbeat_monotonic",
                    "node {n} heartbeat {} is ahead of world.hb_round {round}",
                    beat(n)
                );
            }
        }
        self.check_mm()?;
        // One bitmap of the jobs a queue or a requeue timer holds.
        let mut held = vec![false; self.jobs.len()];
        for &job in self
            .queue
            .iter()
            .chain(self.requeue_pending.iter().map(|(j, _)| j))
        {
            held[job.index()] = true;
        }
        let lost = self.jobs.iter().zip(held).find(|(j, held)| {
            j.metrics.submitted.is_some()
                && !j.state.is_terminal()
                && j.allocation.is_none()
                && !held
        });
        if let Some((j, _)) = lost {
            broken!(
                "no_job_lost",
                "{} ({:?}) is submitted and live but held by nothing: not allocated, not \
                 queued, no requeue timer",
                j.id,
                j.state
            );
        }
        self.check_replicas()
    }

    fn check_shape(&self) -> Result<(), InvariantError> {
        let (nodes, memory) = (self.cfg.nodes, &self.mech.memory);
        if self.nodes.len() != nodes as usize {
            broken!(
                "shape",
                "world.nodes: {} rows for {nodes} nodes",
                self.nodes.len()
            );
        }
        if memory.nodes() != nodes {
            broken!(
                "shape",
                "world.mech.memory.nodes: {} for {nodes} nodes",
                memory.nodes()
            );
        }
        if let Err(e) = memory.check_shape() {
            broken!("shape", "world.mech.memory.{e}");
        }
        let replicas = self.cfg.mm_standbys as usize + 1;
        for (name, len) in [
            ("mm_replicas", self.mm_replicas.len()),
            ("mm_roles", self.mm_roles.len()),
        ] {
            if len != replicas {
                broken!(
                    "shape",
                    "world.{name}: {len} entries for {replicas} MM replicas"
                );
            }
        }
        let rank = self.mm_active_rank;
        if rank as usize >= replicas {
            broken!(
                "shape",
                "world.mm_active_rank: {rank} for {replicas} MM replicas"
            );
        }
        let (m, mpl_max) = (&self.matrix, self.cfg.mpl_max);
        if m.nodes() != nodes || m.mpl_max() != mpl_max || m.slot_count() > mpl_max {
            let (slots, cap, width) = (m.slot_count(), m.mpl_max(), m.nodes());
            broken!(
                "shape",
                "world.matrix: {slots} slots of {cap} over {width} nodes, for {mpl_max} slots \
                 over {nodes} nodes"
            );
        }
        Ok(())
    }

    fn check_references(&self) -> Result<(), InvariantError> {
        let jobs = self.jobs.len();
        let queued = self.queue.iter().map(|&j| ("queue", j));
        let pending = self
            .requeue_pending
            .iter()
            .map(|&(j, _)| ("requeue_pending", j));
        if let Some((name, job)) = queued.chain(pending).find(|(_, j)| j.index() >= jobs) {
            broken!("references", "world.{name}: job {} has no record", job.0);
        }
        let memory = &self.mech.memory;
        let vars = memory.var_count();
        let outside = |var: Option<VarId>| var.filter(|v| v.0 as usize >= vars).map(|v| v.0);
        for (name, var) in [("hb_var", self.hb_var), ("mm_epoch_var", self.mm_epoch_var)] {
            if let Some(v) = outside(var) {
                broken!(
                    "references",
                    "world.{name}: variable {v} is outside the {vars} in global memory"
                );
            }
        }
        // Who holds each variable: nobody yet, the free list, or an owner.
        #[derive(Clone, Copy, PartialEq)]
        enum Holder {
            None,
            Free,
            Owner,
        }
        let mut held = vec![Holder::None; vars];
        let mut below = None;
        for var in memory.free_vars() {
            if var.0 as usize >= vars {
                broken!(
                    "references",
                    "world.mech.memory.free_vars: variable {} is outside the {vars} in global \
                     memory",
                    var.0
                );
            }
            if below >= Some(var.0) {
                broken!(
                    "references",
                    "world.mech.memory.free_vars: variable {} is listed twice or out of order",
                    var.0
                );
            }
            below = Some(var.0);
            held[var.0 as usize] = Holder::Free;
        }
        let mut claim = |name: &dyn fmt::Display, var: VarId| -> Result<(), InvariantError> {
            let at = &mut held[var.0 as usize];
            let clash = match *at {
                Holder::None => None,
                Holder::Free => Some("is on the free list"),
                Holder::Owner => Some("is already in use"),
            };
            if let Some(clash) = clash {
                broken!("references", "{name}: variable {} {clash}", var.0);
            }
            *at = Holder::Owner;
            Ok(())
        };
        for (name, var) in [("hb_var", self.hb_var), ("mm_epoch_var", self.mm_epoch_var)] {
            if let Some(var) = var {
                claim(&format_args!("world.{name}"), var)?;
            }
        }
        for (i, job) in self.jobs.iter().enumerate() {
            if job.id.index() != i {
                broken!(
                    "references",
                    "world.jobs[{i}].id: {} is not its index",
                    job.id.0
                );
            }
            if let Some(v) = outside(job.transfer.written_var) {
                broken!(
                    "references",
                    "world.jobs[{i}].transfer.written_var: variable {v} is outside the {vars} \
                     in global memory"
                );
            }
            if let Some(var) = job.transfer.written_var {
                claim(&format_args!("world.jobs[{i}].transfer.written_var"), var)?;
            }
            let nodes = job.allocation.as_ref().map_or(0..0, |a| a.nodes.clone());
            for (name, set) in [
                ("reported_started", &job.reported_started),
                ("reported_done", &job.reported_done),
            ] {
                if let Some(n) = set.iter().find(|n| !nodes.contains(n)) {
                    broken!(
                        "references",
                        "world.jobs[{i}].{name}: node {n} is outside the allocation {nodes:?}"
                    );
                }
            }
        }
        Ok(())
    }

    /// One pass over the placements and one over the jobs.
    fn check_placements(&self) -> Result<(), InvariantError> {
        let mut placed: Vec<Option<(usize, Range<u32>)>> = vec![None; self.jobs.len()];
        for slot in 0..self.matrix.slot_count() {
            for (job, range) in self.matrix.jobs_in_slot(slot) {
                let Some(at) = placed.get_mut(job.index()) else {
                    broken!(
                        "matrix_consistency",
                        "world.matrix: slot {slot} places job {}, which has no record",
                        job.0
                    );
                };
                *at = Some((slot, range.clone()));
            }
        }
        let (nodes, cpus) = (self.cfg.nodes, self.cfg.cpus_per_node);
        for ((i, job), placement) in self.jobs.iter().enumerate().zip(placed) {
            if let Some(a) = &job.allocation {
                if a.nodes.is_empty() || a.nodes.end > nodes {
                    broken!(
                        "matrix_consistency",
                        "world.jobs[{i}].allocation: nodes {:?} are not a range of the {nodes} \
                         nodes",
                        a.nodes
                    );
                }
                if !(1..=cpus).contains(&a.ranks_per_node) {
                    broken!(
                        "matrix_consistency",
                        "world.jobs[{i}].allocation.ranks_per_node: {} is outside 1..={cpus}",
                        a.ranks_per_node
                    );
                }
            }
            let live = (job.allocation.as_ref())
                .filter(|_| !job.state.is_terminal())
                .map(|a| (a.slot, a.nodes.clone()));
            if live != placement {
                let show = |p: Option<(usize, Range<u32>)>| {
                    p.map_or("none".into(), |(slot, nodes)| {
                        format!("slot {slot}, nodes {nodes:?}")
                    })
                };
                broken!(
                    "matrix_consistency",
                    "world.jobs[{i}]: the matrix places it at {} but its live allocation is {}",
                    show(placement),
                    show(live)
                );
            }
        }
        Ok(())
    }

    fn check_mm(&self) -> Result<(), InvariantError> {
        let (rank, epoch) = (self.mm_active_rank, self.mm_epoch);
        let mut active = (0..self.mm_roles.len()).filter(|&r| self.mm_roles[r] == MmRole::Active);
        if let Some(first) = active.next() {
            if let Some(second) = active.next() {
                broken!(
                    "single_active_mm",
                    "ranks {first} and {second} are both live and Active in epoch {epoch}"
                );
            }
            if first != rank as usize {
                broken!(
                    "single_active_mm",
                    "rank {first} is Active but world.mm_active_rank is {rank}"
                );
            }
        }
        if self.mm_roles[rank as usize] == MmRole::Standby {
            broken!(
                "single_active_mm",
                "world.mm_active_rank {rank} is a standby in epoch {epoch}"
            );
        }
        Ok(())
    }

    fn check_replicas(&self) -> Result<(), InvariantError> {
        let core = &self.mm_core;
        for (rank, s) in self.mm_replicas.iter().enumerate().skip(1) {
            if self.mm_roles[rank] != MmRole::Standby {
                continue;
            }
            let (at, logged) = (s.log_len, core.log_len);
            if at > logged {
                broken!(
                    "repl_consistency",
                    "standby {rank} is ahead of the active: at record {at} of {logged}"
                );
            }
            if at == logged && s.digest != core.digest {
                broken!(
                    "repl_consistency",
                    "standby {rank} is at the active's log position {logged} but diverged: \
                     digest {:#x}/{:#x}",
                    s.digest,
                    core.digest
                );
            }
        }
        Ok(())
    }
}
