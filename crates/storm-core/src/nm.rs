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

use crate::job::JobId;
use crate::msg::{Msg, ReportKind};
use crate::world::World;
use std::cell::Cell;
use storm_apps::WorkloadCursor;
use storm_mech::NodeId;
use storm_sim::{Component, Context, SimSpan, SimTime};

/// One resident job's state on one node.
#[derive(Debug)]
pub(crate) struct LocalJob {
    /// The job.
    pub(crate) job: JobId,
    /// Ranks hosted on this node.
    pub(crate) ranks: u32,
    /// Ranks forked so far.
    pub(crate) forked: u32,
    /// Ranks exited so far.
    pub(crate) exited: u32,
    /// When all local ranks were running.
    pub(crate) started_at: Option<SimTime>,
    /// Position in the job's workload.
    pub(crate) cursor: WorkloadCursor,
    /// Whether the job has finished locally.
    pub(crate) done: bool,
    /// When the job finished locally; lets a post-failover resync re-report
    /// the original completion time instead of the resync instant.
    pub(crate) done_at: Option<SimTime>,
    /// Launch attempt this local state belongs to; stale entries (from an
    /// incarnation lost to a node failure) are ignored everywhere.
    pub(crate) attempt: u32,
}

/// One Node Manager's state: its node's row of `World::nm_rows`. The
/// checkpoint writes it as one row of the `nms` section; its node is its
/// index.
#[derive(Debug)]
pub(crate) struct NmRow {
    /// Management-CPU queue (strobe/command processing).
    pub(crate) busy_until: SimTime,
    /// Local filesystem write device.
    pub(crate) write_free: SimTime,
    /// Slot currently running on this node.
    pub(crate) current_slot: usize,
    /// Instant of the last strobe.
    pub(crate) last_strobe: SimTime,
    /// True when the interval beginning at `last_strobe` started with a
    /// context switch (its overhead is charged to that interval).
    pub(crate) switch_pending: bool,
    /// Resident jobs, sorted by id. A node hosts at most `mpl_max` live
    /// jobs, and a launch drops the finished ones, so a sorted vector
    /// beats a hash map: lookups are a binary search over a handful of
    /// entries and the per-strobe scan walks it in job order with no
    /// collect-and-sort allocation.
    pub(crate) local: Vec<LocalJob>,
    /// Buffered `(job, attempt, kind)` reports, flushed at the next
    /// collection boundary.
    pub(crate) pending_reports: Vec<(JobId, u32, ReportKind)>,
    /// Whether a `FlushReports` is in flight.
    pub(crate) flush_scheduled: bool,
    /// Injected dæmon stall: until this instant, message processing is
    /// deferred (messages are re-posted at the stall's end, not lost).
    pub(crate) stalled_until: Option<SimTime>,
}

/// The Node Manager dæmon registered at each node's wiring position. It
/// holds no state: its node is its wiring position, and its
/// state is that node's [`World`] row, so a strobe or heartbeat to every
/// node runs as one loop over the rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeManager;

/// What every NM reads alike while it handles one delivery, worked out
/// once per delivery: for a group, once for all of its members. The
/// configuration and the network model do not change during a run.
struct Shared {
    /// Management-CPU time of one strobe, stretched by the CPU load.
    strobe_service: SimSpan,
    /// The last application message size costed, with its span.
    comm: Cell<Option<(u64, SimSpan)>>,
}

impl Shared {
    fn of(w: &World) -> Self {
        Shared {
            strobe_service: w.cfg.load.inflate(w.cfg.daemon.nm_strobe_service),
            comm: Cell::new(None),
        }
    }

    /// [`World::comm_span`], computed once per message size.
    fn comm_span(&self, w: &World, bytes: u64) -> SimSpan {
        match self.comm.get() {
            Some((b, span)) if b == bytes => span,
            _ => {
                let span = w.comm_span(bytes);
                self.comm.set(Some((bytes, span)));
                span
            }
        }
    }
}

impl NmRow {
    /// A fresh NM's row.
    pub(crate) fn new() -> Self {
        NmRow {
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

    fn local_mut(&mut self, job: JobId) -> Option<&mut LocalJob> {
        match self.local.binary_search_by_key(&job, |l| l.job) {
            Ok(pos) => Some(&mut self.local[pos]),
            Err(_) => None,
        }
    }

    fn local_insert(&mut self, state: LocalJob, mpl_max: usize) {
        if self.local.capacity() == 0 {
            // A node hosts at most `mpl_max` live jobs. Tables sized to
            // that on first use seldom regrow, and the tables one launch
            // fan-out allocates sit close together for a strobe to walk.
            self.local.reserve_exact(mpl_max);
        }
        match self.local.binary_search_by_key(&state.job, |l| l.job) {
            Ok(pos) => self.local[pos] = state,
            Err(pos) => self.local.insert(pos, state),
        }
    }

    /// True when a control message carries an epoch older than the one the
    /// promoted MM fenced into `node`'s global memory. Without standbys
    /// there is no fence variable and nothing is ever stale.
    fn epoch_stale(node: NodeId, epoch: u64, ctx: &Context<'_, World, Msg>) -> bool {
        match ctx.world_ref().mm_epoch_var {
            Some(var) => {
                let fenced = ctx.world_ref().mech.memory.read(node, var);
                (epoch as i64) < fenced
            }
            None => false,
        }
    }

    fn buffer_report(
        &mut self,
        job: JobId,
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
    fn advance_ics(&mut self, now: SimTime, shared: &Shared, ctx: &mut Context<'_, World, Msg>) {
        let interval = now.saturating_since(self.last_strobe);
        if interval.is_zero() {
            return;
        }
        let m = self
            .local
            .iter()
            .filter(|l| {
                l.started_at.is_some() && !l.done && !ctx.world_ref().job(l.job).state.is_terminal()
            })
            .count() as u64;
        if m == 0 {
            return;
        }
        let q_local = ctx.world_ref().cfg.daemon.ics_local_quantum;
        let miss = (m as f64 - 1.0) / m as f64;
        let penalty = q_local.mul_f64(0.5 * miss);
        // `local` is sorted by job id, so this walks the same order the
        // old collect-and-sort did; nothing in the loop body adds or
        // removes entries, so plain indexing is safe.
        for idx in 0..self.local.len() {
            let job = self.local[idx].job;
            if ctx.world_ref().job(job).state.is_terminal() {
                continue;
            }
            let attempt = ctx.world_ref().job(job).attempt;
            let finished_at = {
                let local = &mut self.local[idx];
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
                let w = ctx.world_ref();
                let workload = &w.job(job).workload;
                if workload.is_empty() {
                    continue;
                }
                // A message costs what it costs under gang scheduling, plus
                // the spin-block wait for a descheduled peer.
                let comm = |bytes| match bytes {
                    0 => SimSpan::ZERO,
                    _ => shared.comm_span(w, bytes) + penalty,
                };
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
    fn advance_slot(
        &mut self,
        slot: usize,
        now: SimTime,
        shared: &Shared,
        ctx: &mut Context<'_, World, Msg>,
    ) {
        let interval = now.saturating_since(self.last_strobe);
        if interval.is_zero() {
            return;
        }
        let overhead = if self.switch_pending {
            ctx.world_ref().cfg.daemon.switch_overhead
        } else {
            SimSpan::ZERO
        };
        let last_strobe = self.last_strobe;
        // Index into the matrix's slot list instead of copying it: the loop
        // body never edits slot membership, so the indices stay stable.
        for i in 0.. {
            let w = ctx.world_ref();
            let Some(job) = w.matrix.jobs_in_slot(slot).get(i).map(|e| e.0) else {
                break;
            };
            let rec = w.job(job);
            if rec.state.is_terminal() {
                continue;
            }
            let attempt = rec.attempt;
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
                let w = ctx.world_ref();
                let workload = &w.job(job).workload;
                if workload.is_empty() {
                    continue; // do-nothing jobs terminate through the PL path
                }
                let used = local
                    .cursor
                    .advance(workload, grant, |bytes| shared.comm_span(w, bytes));
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

    /// Handle `msg` at `node`: the one implementation of every NM
    /// message, for a unicast delivery and for each member of a group.
    fn handle(
        &mut self,
        node: NodeId,
        msg: &Msg,
        shared: &Shared,
        ctx: &mut Context<'_, World, Msg>,
    ) {
        if ctx.world_ref().nodes.is_failed(node.0)
            && !matches!(msg, Msg::FailNode | Msg::RejoinNode)
        {
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
                ctx.send_self_at(until, msg.clone());
                return;
            }
        }
        match *msg {
            Msg::Strobe { slot, epoch } => self.strobe(node, slot, epoch, shared, ctx),
            Msg::Heartbeat { round, epoch } => self.heartbeat(node, round, epoch, ctx),
            Msg::Fragment {
                job,
                chunk,
                attempt,
            } => self.fragment(job, chunk, attempt, ctx),
            Msg::WriteDone { job, attempt, .. } => self.write_done(node, job, attempt, ctx),
            Msg::LaunchCmd { job, attempt } => self.launch(node, job, attempt, ctx),
            Msg::ForkDone { job, attempt, .. } => self.fork_done(job, attempt, ctx),
            Msg::PlExited { job, attempt, .. } => self.pl_exited(job, attempt, ctx),
            Msg::FlushReports => self.flush_reports(node, ctx),
            Msg::Resync { epoch } => self.resync(node, epoch, ctx),
            Msg::StallNode { until } => {
                if until > ctx.now() {
                    self.stalled_until = Some(until);
                }
            }
            Msg::FailNode => self.fail(node, ctx),
            Msg::RejoinNode => self.rejoin(node, ctx),
            _ => panic!("NM received unexpected message {msg:?}"),
        }
    }

    /// The node crashes: everything resident on it dies with it.
    fn fail(&mut self, node: NodeId, ctx: &mut Context<'_, World, Msg>) {
        self.local.clear();
        self.pending_reports.clear();
        self.flush_scheduled = false;
        self.stalled_until = None;
        let now = ctx.now();
        ctx.world().nodes.mark_failed(node.0, now);
    }

    /// The node comes back with empty local state.
    fn rejoin(&mut self, node: NodeId, ctx: &mut Context<'_, World, Msg>) {
        if !ctx.world_ref().nodes.is_failed(node.0) {
            return; // spurious revival of a live node
        }
        let now = ctx.now();
        self.local.clear();
        self.pending_reports.clear();
        self.flush_scheduled = false;
        self.stalled_until = None;
        self.busy_until = now;
        self.write_free = now;
        self.last_strobe = now;
        self.switch_pending = false;
        self.current_slot = ctx.world_ref().active_slot;
        ctx.world().nodes.clear_failed(node.0);
        // The node stays quarantined in the allocator until its
        // heartbeats catch up and the MM's rejoin scan re-admits it.
    }

    /// A broadcast fragment lands: write it to the local filesystem.
    fn fragment(
        &mut self,
        job: JobId,
        chunk: u32,
        attempt: u32,
        ctx: &mut Context<'_, World, Msg>,
    ) {
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

    /// A fragment is written: count it for the MM's flow control.
    fn write_done(
        &mut self,
        node: NodeId,
        job: JobId,
        attempt: u32,
        ctx: &mut Context<'_, World, Msg>,
    ) {
        if ctx.world_ref().job(job).attempt != attempt {
            return; // write for a lost incarnation
        }
        // Bump the per-node fragment counter the MM's
        // COMPARE-AND-WRITE flow control watches — unless the job
        // has finished meanwhile (killed mid-transfer): its
        // variable was freed and may belong to another job now.
        let Some(var) = ctx.world_ref().job(job).transfer.written_var else {
            return;
        };
        ctx.world().mech.memory.add(node, var, 1);
    }

    /// A launch command: fork the node's ranks of `job`.
    fn launch(
        &mut self,
        node: NodeId,
        job: JobId,
        attempt: u32,
        ctx: &mut Context<'_, World, Msg>,
    ) {
        if ctx.world_ref().job(job).attempt != attempt {
            return; // launch of a lost incarnation
        }
        let now = ctx.now();
        let (costs, load) = {
            let w = ctx.world_ref();
            (w.cfg.daemon, w.cfg.load)
        };
        let ranks_here = ctx.world_ref().job(job).alloc().ranks_on(node.0);
        if ranks_here == 0 {
            return;
        }
        // Forget the entries of jobs the MM has finished that
        // nothing in flight can reach, so the table tracks live
        // jobs: those done here, and those of the job's last
        // incarnation whose forks have all reported, unless its
        // workload is the empty one (its PLs report each exit).
        // Any other entry of a finished job stays: a fork or exit
        // still in flight reports to it.
        let w = ctx.world_ref();
        let mpl_max = w.cfg.mpl_max;
        self.local.retain(|l| {
            let rec = w.job(l.job);
            let settled = l.done
                || (l.attempt == rec.attempt && l.forked == l.ranks && !rec.workload.is_empty());
            !(rec.state.is_terminal() && settled)
        });
        self.local_insert(
            LocalJob {
                job,
                ranks: ranks_here,
                forked: 0,
                exited: 0,
                started_at: None,
                cursor: ctx.world_ref().job(job).workload.cursor(),
                done: false,
                done_at: None,
                attempt,
            },
            mpl_max,
        );
        // Command processing on the management CPU, plus the
        // exponential OS wake-up delay that drives Fig. 2's
        // execute-time growth with PE count.
        let os = SimSpan::from_secs_f64(ctx.rng().exponential(costs.os_delay_mean.as_secs_f64()));
        let service = load.inflate(costs.nm_msg_service + os);
        let start = now.max(self.busy_until);
        self.busy_until = start + service;
        let ready = self.busy_until;
        // Fork each rank through its own Program Launcher, staggered
        // by the sequential dispatch loop.
        for r in 0..ranks_here {
            let pl = ctx.world_ref().wiring.pl(node.0, r);
            let dispatch = SimSpan::from_micros(30) * u64::from(r);
            ctx.send_at(pl, ready + dispatch, Msg::Fork { job, attempt });
        }
    }

    /// A Program Launcher forked one rank.
    fn fork_done(&mut self, job: JobId, attempt: u32, ctx: &mut Context<'_, World, Msg>) {
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

    /// A rank of an empty workload exited.
    fn pl_exited(&mut self, job: JobId, attempt: u32, ctx: &mut Context<'_, World, Msg>) {
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

    /// The coordinated context switch: close the interval that ran and
    /// switch to `slot`.
    fn strobe(
        &mut self,
        node: NodeId,
        slot: u32,
        epoch: u64,
        shared: &Shared,
        ctx: &mut Context<'_, World, Msg>,
    ) {
        if Self::epoch_stale(node, epoch, ctx) {
            return; // strobe from a deposed MM, fenced off
        }
        let now = ctx.now();
        // NM strobe processing occupies the management CPU; quanta
        // shorter than the service time melt the NM down (§3.2.1's
        // ≈ 300 µs floor). We track overruns for the stats.
        let timeslice = ctx.world_ref().cfg.timeslice;
        let start = now.max(self.busy_until);
        self.busy_until = start + shared.strobe_service;
        if self.busy_until.saturating_since(now) > timeslice * 4 {
            let w = ctx.world();
            w.stats.nm_overruns += 1;
            w.metric_inc("nm.overruns");
        }
        // Close the interval that ran under the previous slot (or,
        // under implicit coscheduling, the locally-timeshared mix).
        if ctx.world_ref().cfg.scheduler == crate::config::SchedulerKind::ImplicitCosched {
            self.advance_ics(now, shared, ctx);
            self.current_slot = slot as usize;
            self.last_strobe = now;
            self.switch_pending = false;
        } else {
            self.advance_slot(self.current_slot, now, shared, ctx);
            let switched = self.current_slot != slot as usize;
            self.current_slot = slot as usize;
            self.last_strobe = now;
            self.switch_pending = switched;
        }
    }

    /// A heartbeat round: beat in global memory, unless the beat is lost.
    fn heartbeat(
        &mut self,
        node: NodeId,
        round: i64,
        epoch: u64,
        ctx: &mut Context<'_, World, Msg>,
    ) {
        if Self::epoch_stale(node, epoch, ctx) {
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
            ctx.world().mech.memory.write(node, var, round);
        }
    }

    /// A collection boundary: send the buffered reports to the MM.
    fn flush_reports(&mut self, node: NodeId, ctx: &mut Context<'_, World, Msg>) {
        self.flush_scheduled = false;
        if self.pending_reports.is_empty() {
            return;
        }
        let (mm, qsnet, load, os_mean) = {
            let w = ctx.world_ref();
            (
                w.active_mm(),
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
            let os = SimSpan::from_secs_f64(ctx.rng().exponential(os_mean.as_secs_f64() / 4.0));
            let span = qsnet.ptp_span(128) + load.inflate(os);
            ctx.send(
                mm,
                span,
                Msg::NmReport {
                    node: node.0,
                    job,
                    kind,
                    attempt,
                },
            );
        }
        reports.append(&mut self.pending_reports);
        self.pending_reports = reports;
    }

    /// A promoted MM asks every node to re-announce its live jobs.
    fn resync(&mut self, node: NodeId, epoch: u64, ctx: &mut Context<'_, World, Msg>) {
        if Self::epoch_stale(node, epoch, ctx) {
            return;
        }
        let now = ctx.now();
        // In-flight and buffered reports addressed to the dead MM may
        // be lost; drop the buffer and re-announce the status of every
        // live incarnation so the promoted MM's per-node exactly-once
        // counters converge.
        self.pending_reports.clear();
        let mut announce = Vec::new();
        for local in &self.local {
            let job = local.job;
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
}

impl Component<World, Msg> for NodeManager {
    fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, World, Msg>) {
        let node = ctx.world_ref().wiring.nm_node(ctx.self_id());
        // The rows leave the world for the call (an O(1) swap): an NM
        // reads and writes only its own row.
        let shared = Shared::of(ctx.world_ref());
        let mut rows = std::mem::take(&mut ctx.world().nm_rows);
        rows[node.index()].handle(node, &msg, &shared, ctx);
        ctx.world().nm_rows = rows;
    }

    /// Every NM group — strobe, heartbeat, fragment, launch command,
    /// resync — targets NMs only, so the first member takes them all: one
    /// loop over the members' rows, each handled as its unicast would be.
    fn handle_group(&mut self, msg: &Msg, ctx: &mut Context<'_, World, Msg>) {
        let shared = Shared::of(ctx.world_ref());
        let mut rows = std::mem::take(&mut ctx.world().nm_rows);
        while let Some(id) = ctx.next_member() {
            let node = ctx.world_ref().wiring.nm_node(id);
            rows[node.index()].handle(node, msg, &shared, ctx);
        }
        ctx.world().nm_rows = rows;
    }

    fn name(&self) -> &str {
        "NM"
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::Cluster;
    use crate::config::ClusterConfig;
    use crate::job::{JobSpec, JobState};
    use storm_apps::AppSpec;
    use storm_sim::SimSpan;

    /// Resident entries per NM.
    fn resident(c: &Cluster) -> Vec<usize> {
        c.world().nm_rows.iter().map(|r| r.local.len()).collect()
    }

    #[test]
    fn killed_hogs_leave_no_resident_entries_behind() {
        let mut c = Cluster::new(ClusterConfig::paper_cluster().with_nodes(8));
        let mpl_max = c.world().cfg.mpl_max;
        for _ in 0..3 * mpl_max {
            // A spin loop on every CPU of the machine, killed once running.
            let hog = c.submit(JobSpec::new(AppSpec::SpinLoop, 32));
            let deadline = c.now() + SimSpan::from_secs(1);
            while c.job(hog).state != JobState::Running {
                assert!(c.now() < deadline, "hog never started");
                c.run_until(c.now() + SimSpan::from_millis(1));
            }
            let tables = resident(&c);
            assert!(tables.iter().all(|&n| n <= mpl_max), "{tables:?}");
            c.kill_at(c.now(), hog);
            c.run_until(c.now() + SimSpan::from_millis(5));
            assert_eq!(c.job(hog).state, JobState::Killed);
        }
    }
}
