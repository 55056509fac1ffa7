//! The Node Manager (NM).
//!
//! One per compute node (§2.1): receives the broadcast binary fragments and
//! writes them to the local RAM disk (incrementing the per-node
//! flow-control counter the MM's COMPARE-AND-WRITE checks), forks ranks via
//! the node's Program Launchers when a launch command arrives, enacts the
//! coordinated context switch when the MM's strobe lands, advances its
//! local ranks through their workload, detects termination, and reports
//! events back to the MM — buffered, and flushed only at event-collection
//! boundaries ("the MM can … receive the notification of events only at the
//! beginning of a timeslice").
//!
//! ## Scheduling model
//!
//! Under gang scheduling every rank of a job is co-scheduled, so all of a
//! job's ranks march through the same BSP step sequence in lock-step. Each
//! NM keeps a *local cursor* per hosted job and advances it by the CPU time
//! the job's slot received between strobes; since strobes arrive at all
//! nodes simultaneously (hardware multicast) and the step timeline is
//! shared, the per-node cursors stay mutually consistent — exactly the
//! lock-step the real gang scheduler enforces. Per-node skew enters through
//! the report path (OS noise), which is where the paper locates it too.

use crate::msg::{Msg, ReportKind};
use crate::world::World;
use storm_apps::WorkloadCursor;
use storm_mech::NodeId;
use storm_sim::{Component, Context, SimSpan, SimTime};

/// Per-job local state on one node.
#[derive(Debug)]
struct LocalJob {
    ranks: u32,
    forked: u32,
    exited: u32,
    started_at: Option<SimTime>,
    cursor: WorkloadCursor,
    done: bool,
    /// When the job finished locally; lets a post-failover resync re-report
    /// the original completion time instead of the resync instant.
    done_at: Option<SimTime>,
    /// Launch attempt this local state belongs to; stale entries (from an
    /// incarnation lost to a node failure) are ignored everywhere.
    attempt: u32,
}

/// One Node Manager dæmon.
#[derive(Debug)]
pub struct NodeManager {
    node: u32,
    failed: bool,
    /// Management-CPU queue (strobe/command processing).
    busy_until: SimTime,
    /// Local filesystem write device.
    write_free: SimTime,
    current_slot: usize,
    last_strobe: SimTime,
    /// True when the interval beginning at `last_strobe` started with a
    /// context switch (its overhead is charged to that interval).
    switch_pending: bool,
    /// Resident jobs, sorted by id. A node hosts at most `mpl_max` jobs,
    /// so a sorted vector beats a hash map: lookups are a binary search
    /// over a handful of entries and the per-strobe scan walks it in job
    /// order with no collect-and-sort allocation.
    local: Vec<(crate::job::JobId, LocalJob)>,
    pending_reports: Vec<(crate::job::JobId, u32, ReportKind)>,
    flush_scheduled: bool,
    /// Injected dæmon stall: until this instant, message processing is
    /// deferred (messages are re-posted at the stall's end, not lost).
    stalled_until: Option<SimTime>,
}

impl NodeManager {
    /// The NM for `node`.
    pub fn new(node: u32) -> Self {
        NodeManager {
            node,
            failed: false,
            busy_until: SimTime::ZERO,
            write_free: SimTime::ZERO,
            current_slot: 0,
            last_strobe: SimTime::ZERO,
            switch_pending: false,
            local: Vec::new(),
            pending_reports: Vec::new(),
            flush_scheduled: false,
            stalled_until: None,
        }
    }

    fn node_id(&self) -> NodeId {
        NodeId(self.node)
    }

    fn local_mut(&mut self, job: crate::job::JobId) -> Option<&mut LocalJob> {
        match self.local.binary_search_by_key(&job, |&(j, _)| j) {
            Ok(pos) => Some(&mut self.local[pos].1),
            Err(_) => None,
        }
    }

    fn local_insert(&mut self, job: crate::job::JobId, state: LocalJob) {
        match self.local.binary_search_by_key(&job, |&(j, _)| j) {
            Ok(pos) => self.local[pos].1 = state,
            Err(pos) => self.local.insert(pos, (job, state)),
        }
    }

    /// True when a control message carries an epoch older than the one the
    /// promoted MM fenced into this node's global memory. Without standbys
    /// there is no fence variable and nothing is ever stale.
    fn epoch_stale(&self, epoch: u64, ctx: &Context<'_, World, Msg>) -> bool {
        match ctx.world_ref().mm_epoch_var {
            Some(var) => {
                let fenced = ctx.world_ref().mech.memory.read(self.node_id(), var);
                (epoch as i64) < fenced
            }
            None => false,
        }
    }

    fn buffer_report(
        &mut self,
        job: crate::job::JobId,
        attempt: u32,
        kind: ReportKind,
        ctx: &mut Context<'_, World, Msg>,
    ) {
        self.pending_reports.push((job, attempt, kind));
        if !self.flush_scheduled {
            let period = ctx.world_ref().cfg.collect_period();
            let at = ctx.now().next_boundary(period);
            ctx.send_self_at(at, Msg::FlushReports);
            self.flush_scheduled = true;
        }
    }

    /// Advance every started local job under the *implicit coscheduling*
    /// model: the local OS timeshares the `m` resident ranks without any
    /// global coordination, so each job receives `elapsed / m` of CPU, and
    /// every exchange whose peer may be descheduled pays a spin-block
    /// penalty of `(m-1)/m × q_local/2` — the miss probability times the
    /// expected wait for the peer's next local quantum. Coarse-grained applications barely
    /// notice; fine-grained ones crawl, which is exactly the trade-off that
    /// motivates gang scheduling (§5.2).
    fn advance_ics(&mut self, now: SimTime, ctx: &mut Context<'_, World, Msg>) {
        let interval = now.saturating_since(self.last_strobe);
        if interval.is_zero() {
            return;
        }
        let m = self
            .local
            .iter()
            .filter(|&&(j, ref l)| {
                l.started_at.is_some() && !l.done && !ctx.world_ref().job(j).state.is_terminal()
            })
            .count() as u64;
        if m == 0 {
            return;
        }
        let qsnet = ctx.world_ref().qsnet;
        let load = ctx.world_ref().cfg.load;
        let q_local = ctx.world_ref().cfg.daemon.ics_local_quantum;
        let miss = (m as f64 - 1.0) / m as f64;
        let penalty = q_local.mul_f64(0.5 * miss);
        let comm = move |bytes: u64| -> SimSpan {
            if bytes == 0 {
                SimSpan::ZERO
            } else {
                let base = qsnet.ptp_span(bytes);
                let stretched = if load.network > 0.0 {
                    let data = SimSpan::for_bytes(bytes, qsnet.params.link_bw);
                    base.saturating_sub(data)
                        + SimSpan::for_bytes(
                            bytes,
                            load.effective_bw(qsnet.params.link_bw).max(1.0),
                        )
                } else {
                    base
                };
                stretched + penalty
            }
        };
        // `local` is sorted by job id, so this walks the same order the
        // old collect-and-sort did; nothing in the loop body adds or
        // removes entries, so plain indexing is safe.
        for idx in 0..self.local.len() {
            let job = self.local[idx].0;
            if ctx.world_ref().job(job).state.is_terminal() {
                continue;
            }
            let attempt = ctx.world_ref().job(job).attempt;
            let finished_at = {
                let local = &mut self.local[idx].1;
                if local.attempt != attempt {
                    continue; // stale incarnation, job was requeued
                }
                let Some(started) = local.started_at else {
                    continue;
                };
                if local.done {
                    continue;
                }
                let from = self.last_strobe.max(started);
                // Fair local share of the interval.
                let grant = now.saturating_since(from) / m;
                if grant.is_zero() {
                    continue;
                }
                let workload = &ctx.world_ref().job(job).workload;
                if workload.steps().is_empty() && !workload.is_endless() {
                    continue;
                }
                let used = local.cursor.advance(workload, grant, comm);
                if local.cursor.finished(workload) {
                    local.done = true;
                    // The fair-share grant maps back onto wall time ×m.
                    let exit_at = from + used * m;
                    local.done_at = Some(exit_at.min(now));
                    Some(exit_at)
                } else {
                    None
                }
            };
            if let Some(exit_at) = finished_at {
                self.buffer_report(
                    job,
                    attempt,
                    ReportKind::Done {
                        app_done: exit_at.min(now),
                    },
                    ctx,
                );
            }
        }
    }

    /// Advance the cursors of every started job in `slot` over the interval
    /// `[self.last_strobe, now]`, detecting completions.
    fn advance_slot(&mut self, slot: usize, now: SimTime, ctx: &mut Context<'_, World, Msg>) {
        let interval = now.saturating_since(self.last_strobe);
        if interval.is_zero() {
            return;
        }
        let overhead = if self.switch_pending {
            ctx.world_ref().cfg.daemon.switch_overhead
        } else {
            SimSpan::ZERO
        };
        // Copy what the comm closure needs before borrowing jobs mutably.
        let qsnet = ctx.world_ref().qsnet;
        let load = ctx.world_ref().cfg.load;
        let comm = move |bytes: u64| -> SimSpan {
            if bytes == 0 {
                SimSpan::ZERO
            } else {
                let base = qsnet.ptp_span(bytes);
                if load.network > 0.0 {
                    let data = SimSpan::for_bytes(bytes, qsnet.params.link_bw);
                    base.saturating_sub(data)
                        + SimSpan::for_bytes(
                            bytes,
                            load.effective_bw(qsnet.params.link_bw).max(1.0),
                        )
                } else {
                    base
                }
            }
        };
        let last_strobe = self.last_strobe;
        // Index into the matrix's slot list instead of copying it: the loop
        // body never edits slot membership, so the indices stay stable.
        for i in 0..ctx.world_ref().matrix.jobs_in_slot(slot).len() {
            let job = ctx.world_ref().matrix.jobs_in_slot(slot)[i].0;
            if ctx.world_ref().job(job).state.is_terminal() {
                continue;
            }
            let attempt = ctx.world_ref().job(job).attempt;
            let finished_at = {
                let Some(local) = self.local_mut(job) else {
                    continue;
                };
                if local.attempt != attempt {
                    continue; // stale incarnation, job was requeued
                }
                let Some(started) = local.started_at else {
                    continue;
                };
                if local.done {
                    continue;
                }
                let from = last_strobe.max(started);
                let grant = now.saturating_since(from).saturating_sub(overhead);
                if grant.is_zero() {
                    continue;
                }
                let workload = &ctx.world_ref().job(job).workload;
                if workload.steps().is_empty() && !workload.is_endless() {
                    continue; // do-nothing jobs terminate through the PL path
                }
                let used = local.cursor.advance(workload, grant, comm);
                if local.cursor.finished(workload) {
                    local.done = true;
                    let exit_at = from + overhead + used;
                    local.done_at = Some(exit_at);
                    Some(exit_at)
                } else {
                    None
                }
            };
            if let Some(exit_at) = finished_at {
                self.buffer_report(job, attempt, ReportKind::Done { app_done: exit_at }, ctx);
            }
        }
    }
}

impl Component<World, Msg> for NodeManager {
    fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, World, Msg>) {
        if self.failed && !matches!(msg, Msg::FailNode | Msg::RejoinNode) {
            return; // a dead node answers nothing
        }
        if let Some(until) = self.stalled_until {
            if ctx.now() >= until {
                self.stalled_until = None;
            } else if !matches!(msg, Msg::FailNode | Msg::RejoinNode | Msg::StallNode { .. }) {
                // A stalled dæmon processes nothing until the stall ends;
                // messages are deferred, not lost, so heartbeat replies
                // arrive late — exactly what lets the MM tell a slow node
                // from a dead one.
                ctx.send_self_at(until, msg);
                return;
            }
        }
        match msg {
            Msg::FailNode => {
                self.failed = true;
                // Everything resident on the node dies with it.
                self.local.clear();
                self.pending_reports.clear();
                self.flush_scheduled = false;
                self.stalled_until = None;
                let now = ctx.now();
                ctx.world().nodes.mark_failed(self.node, now);
            }
            Msg::RejoinNode => {
                if !self.failed {
                    return; // spurious revival of a live node
                }
                let now = ctx.now();
                self.failed = false;
                self.local.clear();
                self.pending_reports.clear();
                self.flush_scheduled = false;
                self.stalled_until = None;
                self.busy_until = now;
                self.write_free = now;
                self.last_strobe = now;
                self.switch_pending = false;
                self.current_slot = ctx.world_ref().active_slot;
                ctx.world().nodes.clear_failed(self.node);
                // The node stays quarantined in the allocator until its
                // heartbeats catch up and the MM's rejoin scan re-admits it.
            }
            Msg::StallNode { until } => {
                if until > ctx.now() {
                    self.stalled_until = Some(until);
                }
            }
            Msg::Fragment {
                job,
                chunk,
                attempt,
            } => {
                if ctx.world_ref().job(job).attempt != attempt {
                    return; // fragment of a lost incarnation
                }
                let now = ctx.now();
                let (fs, placement, load, write_sigma) = {
                    let w = ctx.world_ref();
                    (
                        w.cfg.fs,
                        w.cfg.placement,
                        w.cfg.load,
                        w.cfg.daemon.write_sigma,
                    )
                };
                let bytes = {
                    let w = ctx.world_ref();
                    let t = &w.job(job).transfer;
                    t.chunk_bytes(chunk, w.cfg.chunk_bytes)
                };
                // Write to the local (RAM-disk) filesystem, serialised on the
                // node's write device, with per-node log-normal noise — the
                // variability the multi-buffering exists to absorb (§2.3).
                let noise = ctx.rng().lognormal_jitter(write_sigma);
                let span = load.inflate(fs.write_span(bytes, placement).mul_f64(noise));
                let start = now.max(self.write_free);
                let done = start + span;
                self.write_free = done;
                ctx.send_self_at(
                    done,
                    Msg::WriteDone {
                        job,
                        chunk,
                        attempt,
                    },
                );
            }
            Msg::WriteDone { job, attempt, .. } => {
                if ctx.world_ref().job(job).attempt != attempt {
                    return; // write for a lost incarnation
                }
                // Bump the per-node fragment counter the MM's
                // COMPARE-AND-WRITE flow control watches.
                let var = ctx
                    .world_ref()
                    .job(job)
                    .transfer
                    .written_var
                    .expect("transfer without flow-control var");
                ctx.world().mech.memory.add(self.node_id(), var, 1);
            }
            Msg::LaunchCmd { job, attempt } => {
                if ctx.world_ref().job(job).attempt != attempt {
                    return; // launch of a lost incarnation
                }
                let now = ctx.now();
                let (costs, load) = {
                    let w = ctx.world_ref();
                    (w.cfg.daemon, w.cfg.load)
                };
                let ranks_here = ctx.world_ref().job(job).alloc().ranks_on(self.node);
                if ranks_here == 0 {
                    return;
                }
                self.local_insert(
                    job,
                    LocalJob {
                        ranks: ranks_here,
                        forked: 0,
                        exited: 0,
                        started_at: None,
                        cursor: ctx.world_ref().job(job).workload.cursor(),
                        done: false,
                        done_at: None,
                        attempt,
                    },
                );
                // Command processing on the management CPU, plus the
                // exponential OS wake-up delay that drives Fig. 2's
                // execute-time growth with PE count.
                let os = SimSpan::from_secs_f64(
                    ctx.rng().exponential(costs.os_delay_mean.as_secs_f64()),
                );
                let service = load.inflate(costs.nm_msg_service + os);
                let start = now.max(self.busy_until);
                self.busy_until = start + service;
                let ready = self.busy_until;
                // Fork each rank through its own Program Launcher, staggered
                // by the sequential dispatch loop.
                for r in 0..ranks_here {
                    let pl = ctx.world_ref().wiring.pls[self.node as usize][r as usize];
                    let dispatch = SimSpan::from_micros(30) * u64::from(r);
                    ctx.send_at(pl, ready + dispatch, Msg::Fork { job, attempt });
                }
            }
            Msg::ForkDone { job, attempt, .. } => {
                let Some(local) = self.local_mut(job) else {
                    return;
                };
                if local.attempt != attempt {
                    return; // fork of a lost incarnation
                }
                local.forked += 1;
                if local.forked == local.ranks {
                    local.started_at = Some(ctx.now());
                    self.buffer_report(job, attempt, ReportKind::Started, ctx);
                }
            }
            Msg::PlExited { job, attempt, .. } => {
                let now = ctx.now();
                let Some(local) = self.local_mut(job) else {
                    return;
                };
                if local.attempt != attempt {
                    return; // exit of a lost incarnation
                }
                local.exited += 1;
                if local.exited == local.ranks && !local.done {
                    local.done = true;
                    local.done_at = Some(now);
                    self.buffer_report(job, attempt, ReportKind::Done { app_done: now }, ctx);
                }
            }
            Msg::Strobe { slot, epoch } => {
                if self.epoch_stale(epoch, ctx) {
                    return; // strobe from a deposed MM, fenced off
                }
                let now = ctx.now();
                // NM strobe processing occupies the management CPU; quanta
                // shorter than the service time melt the NM down (§3.2.1's
                // ≈ 300 µs floor). We track overruns for the stats.
                let (service, timeslice) = {
                    let w = ctx.world_ref();
                    (
                        w.cfg.load.inflate(w.cfg.daemon.nm_strobe_service),
                        w.cfg.timeslice,
                    )
                };
                let start = now.max(self.busy_until);
                self.busy_until = start + service;
                if self.busy_until.saturating_since(now) > timeslice * 4 {
                    let w = ctx.world();
                    w.stats.nm_overruns += 1;
                    w.metric_inc("nm.overruns");
                }
                // Close the interval that ran under the previous slot (or,
                // under implicit coscheduling, the locally-timeshared mix).
                if ctx.world_ref().cfg.scheduler == crate::config::SchedulerKind::ImplicitCosched {
                    self.advance_ics(now, ctx);
                    self.current_slot = slot as usize;
                    self.last_strobe = now;
                    self.switch_pending = false;
                } else {
                    self.advance_slot(self.current_slot, now, ctx);
                    let switched = self.current_slot != slot as usize;
                    self.current_slot = slot as usize;
                    self.last_strobe = now;
                    self.switch_pending = switched;
                }
            }
            Msg::Heartbeat { round, epoch } => {
                if self.epoch_stale(epoch, ctx) {
                    return; // heartbeat from a deposed MM, fenced off
                }
                let drop_prob = ctx.world_ref().cfg.faults.heartbeat_drop_prob;
                if drop_prob > 0.0 && ctx.rng().uniform() < drop_prob {
                    let w = ctx.world();
                    w.stats.hb_drops += 1;
                    w.metric_inc("fault.hb_drops");
                    return;
                }
                if let Some(var) = ctx.world_ref().hb_var {
                    // Write the round number (not +1): for a healthy node this
                    // is identical to incrementing once per round, but a node
                    // that comes back after missing rounds catches up in a
                    // single beat — which is what the MM's rejoin scan polls
                    // for.
                    ctx.world().mech.memory.write(self.node_id(), var, round);
                }
            }
            Msg::FlushReports => {
                self.flush_scheduled = false;
                if self.pending_reports.is_empty() {
                    return;
                }
                let (mm, qsnet, load, os_mean) = {
                    let w = ctx.world_ref();
                    (
                        w.wiring.mm.expect("MM not wired"),
                        w.qsnet,
                        w.cfg.load,
                        w.cfg.daemon.os_delay_mean,
                    )
                };
                // Take-drain-restore keeps the buffer's capacity across
                // flushes instead of reallocating it each boundary.
                let mut reports = std::mem::take(&mut self.pending_reports);
                for (job, attempt, kind) in reports.drain(..) {
                    // Small point-to-point message to the MM plus OS noise.
                    let os =
                        SimSpan::from_secs_f64(ctx.rng().exponential(os_mean.as_secs_f64() / 4.0));
                    let span = qsnet.ptp_span(128) + load.inflate(os);
                    ctx.send(
                        mm,
                        span,
                        Msg::NmReport {
                            node: self.node,
                            job,
                            kind,
                            attempt,
                        },
                    );
                }
                reports.append(&mut self.pending_reports);
                self.pending_reports = reports;
            }
            Msg::Resync { epoch } => {
                if self.epoch_stale(epoch, ctx) {
                    return;
                }
                let now = ctx.now();
                // In-flight and buffered reports addressed to the dead MM may
                // be lost; drop the buffer and re-announce the status of every
                // live incarnation so the promoted MM's per-node exactly-once
                // counters converge.
                self.pending_reports.clear();
                let mut announce = Vec::new();
                for &(job, ref local) in &self.local {
                    let rec = ctx.world_ref().job(job);
                    if rec.state.is_terminal() || rec.attempt != local.attempt {
                        continue;
                    }
                    if local.done {
                        let app_done = local.done_at.unwrap_or(now);
                        announce.push((job, local.attempt, ReportKind::Done { app_done }));
                    } else if local.forked == local.ranks && local.started_at.is_some() {
                        announce.push((job, local.attempt, ReportKind::Started));
                    }
                }
                for (job, attempt, kind) in announce {
                    self.buffer_report(job, attempt, kind, ctx);
                }
            }
            other => panic!("NM received unexpected message {other:?}"),
        }
    }

    fn name(&self) -> &str {
        "NM"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// One resident job's local state, exported for checkpointing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NmLocalJobState {
    /// Job id.
    pub job: crate::job::JobId,
    /// Ranks hosted on this node.
    pub ranks: u32,
    /// Ranks forked so far.
    pub forked: u32,
    /// Ranks exited so far.
    pub exited: u32,
    /// When all local ranks were running.
    pub started_at: Option<SimTime>,
    /// Workload cursor position: `(step, consumed_in_step, total_consumed)`.
    pub cursor: (usize, SimSpan, SimSpan),
    /// Whether the job has finished locally.
    pub done: bool,
    /// When the job finished locally.
    pub done_at: Option<SimTime>,
    /// Launch attempt this local state belongs to.
    pub attempt: u32,
}

/// A node manager's private state, exported for checkpointing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NmState {
    /// Node index.
    pub node: u32,
    /// Whether the node is dead.
    pub failed: bool,
    /// Management-CPU busy horizon.
    pub busy_until: SimTime,
    /// Local filesystem write device horizon.
    pub write_free: SimTime,
    /// Slot currently running on this node.
    pub current_slot: usize,
    /// Instant of the last strobe.
    pub last_strobe: SimTime,
    /// Whether the current interval opened with a context switch.
    pub switch_pending: bool,
    /// Resident jobs, sorted by id.
    pub local: Vec<NmLocalJobState>,
    /// Buffered `(job, attempt, kind)` reports.
    pub pending_reports: Vec<(crate::job::JobId, u32, ReportKind)>,
    /// Whether a `FlushReports` is in flight.
    pub flush_scheduled: bool,
    /// End of an injected dæmon stall, if one is active.
    pub stalled_until: Option<SimTime>,
}

impl NodeManager {
    /// Snapshot the dæmon's private state for a checkpoint.
    pub fn export_state(&self) -> NmState {
        NmState {
            node: self.node,
            failed: self.failed,
            busy_until: self.busy_until,
            write_free: self.write_free,
            current_slot: self.current_slot,
            last_strobe: self.last_strobe,
            switch_pending: self.switch_pending,
            local: self
                .local
                .iter()
                .map(|&(job, ref l)| NmLocalJobState {
                    job,
                    ranks: l.ranks,
                    forked: l.forked,
                    exited: l.exited,
                    started_at: l.started_at,
                    cursor: (
                        l.cursor.steps_done(),
                        l.cursor.consumed_in_step(),
                        l.cursor.total_consumed(),
                    ),
                    done: l.done,
                    done_at: l.done_at,
                    attempt: l.attempt,
                })
                .collect(),
            pending_reports: self.pending_reports.clone(),
            flush_scheduled: self.flush_scheduled,
            stalled_until: self.stalled_until,
        }
    }

    /// Rebuild a dæmon from a checkpointed [`NmState`].
    pub fn import_state(state: NmState) -> Self {
        NodeManager {
            node: state.node,
            failed: state.failed,
            busy_until: state.busy_until,
            write_free: state.write_free,
            current_slot: state.current_slot,
            last_strobe: state.last_strobe,
            switch_pending: state.switch_pending,
            local: state
                .local
                .into_iter()
                .map(|l| {
                    (
                        l.job,
                        LocalJob {
                            ranks: l.ranks,
                            forked: l.forked,
                            exited: l.exited,
                            started_at: l.started_at,
                            cursor: WorkloadCursor::from_parts(l.cursor.0, l.cursor.1, l.cursor.2),
                            done: l.done,
                            done_at: l.done_at,
                            attempt: l.attempt,
                        },
                    )
                })
                .collect(),
            pending_reports: state.pending_reports,
            flush_scheduled: state.flush_scheduled,
            stalled_until: state.stalled_until,
        }
    }
}
