//! The Machine Manager (MM).
//!
//! One per cluster, on the management node (§2.1): it owns the job queue,
//! allocates processors through the buddy-tree matrix, drives the chunked
//! broadcast file-transfer protocol (§2.3/§3.3.1), rotates the gang matrix
//! and enacts coordinated context switches with a single XFER-AND-SIGNAL
//! multicast, collects NM event reports, and runs the heartbeat
//! fault-detection protocol of §4.
//!
//! In keeping with the paper, the MM "can issue commands and receive the
//! notification of events only at the beginning of a timeslice": scheduling
//! decisions, launch commands and report processing happen on `Tick`
//! (every `min(timeslice, max_event_collect)`), and the gang matrix rotates
//! on timeslice boundaries. The transfer pipeline's intermediate events
//! (`ReadDone`, `BcastFreed`, `FlowPoll`) are serviced immediately — they
//! are handled by the NIC and its lightweight helper process, not by the
//! MM host process.

use crate::fault::FailurePolicy;
use crate::job::{Allocation, JobId, JobState};
use crate::msg::{Msg, ReportKind};
use crate::policy::{self, QueuedJob, RunningJob};
use crate::replica::{Decision, MmRole};
use crate::world::{Daemon, IdleLeap, World};
use storm_mech::{CmpOp, NodeId, NodeSet};
use storm_sim::{Component, Context, GroupSchedule, SimSpan, SimTime};
use storm_telemetry::{JobSpan, Phase};

/// Size of a control multicast (strobe, launch command, heartbeat) in
/// bytes.
const CONTROL_MSG_BYTES: u64 = 64;

/// Size of a shipped decision-log record in bytes.
const REPL_MSG_BYTES: u64 = 128;

/// Size of a shipped full checkpoint in bytes.
const REPL_CKPT_BYTES: u64 = 4096;

/// Hard cap on a single requeue backoff delay: extreme
/// `max_retries × backoff` configurations saturate here instead of
/// overflowing or parking a retry past any plausible horizon.
const MAX_REQUEUE_DELAY: SimSpan = SimSpan::from_secs(60);

/// The Machine Manager dæmon registered at each replica's wiring
/// position. It holds no state: its rank is its position, and its state
/// is that rank's row of `World::mm_rows`, which the checkpoint writes
/// field by field.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineManager;

/// One MM replica's state: its rank's row of `World::mm_rows`.
#[derive(Debug, Default)]
pub(crate) struct MmRow {
    /// Buffered `(node, job, attempt, kind)` NM reports, collected at the
    /// next tick.
    pub(crate) pending_reports: Vec<(u32, JobId, u32, ReportKind)>,
    /// Ticks executed so far, counting those an idle leap skipped.
    pub(crate) ticks: u64,
    /// When the next tick is due: the one `Tick` that runs. A `Tick` that
    /// pops at any other instant was superseded — the parked tick of a
    /// re-densified idle leap, or a second tick for a boundary that
    /// already ran — and is dropped. A delivery-order hook may delay the
    /// due tick, so it runs when it pops at or after this instant.
    pub(crate) next_tick: Option<SimTime>,
    /// The epoch this replica believes is current. Bumped on promotion and
    /// fenced into every node's global memory so stale-epoch multicasts
    /// are rejected.
    pub(crate) epoch: u64,
    /// When this standby last heard a liveness beat from the active MM.
    pub(crate) last_beat_seen: Option<SimTime>,
    /// Liveness beats this replica has sent while active.
    pub(crate) beats_sent: u64,
}

/// One MM replica while it handles a delivery: its rank (0 = the
/// primary), and its row, taken out of the world for the call. Its role
/// is `World::mm_roles[rank]`; the nodes it has detected failed are the
/// gang matrix's quarantine set.
struct Replica {
    rank: u32,
    row: MmRow,
}

impl Replica {
    /// Ticks are the MM's *heartbeat*: they fire every
    /// `collect_period = min(timeslice, max_event_collect)`. Commands and
    /// event collection happen on every heartbeat; the gang matrix rotates
    /// to the next slot only on *timeslice* boundaries (every
    /// `ticks_per_quantum` heartbeats). With the launch experiments' 1 ms
    /// timeslice the two cadences coincide, exactly as in §3.1.
    fn ensure_tick(&mut self, ctx: &mut Context<'_, World, Msg>) {
        let period = ctx.world_ref().cfg.collect_period();
        let at = ctx.now().next_boundary(period);
        // Schedule a tick unless one is due by then. An armed idle leap
        // parks the next tick up to a heartbeat round away; a message
        // landing mid-gap (a submit, a kill, a requeue) needs the dense
        // chain back *now*, and the parked tick is superseded.
        if self.row.next_tick.is_none_or(|t| at < t) {
            self.row.next_tick = Some(at);
            ctx.send_self_at(at, Msg::Tick);
        }
    }

    /// Heartbeats per scheduling quantum (≥ 1).
    fn ticks_per_quantum(cfg: &crate::config::ClusterConfig) -> u64 {
        let q = cfg.timeslice.as_nanos();
        let c = cfg.collect_period().as_nanos().max(1);
        q.div_ceil(c).max(1)
    }

    /// Idle fast-forward (DESIGN.md §12): when fault detection keeps the
    /// tick chain alive over a quiescent cluster, park the next tick at
    /// the upcoming heartbeat round instead of strobing the empty slices
    /// in between. Arms only when no pending event lands before the
    /// target, which proves every skipped tick would have been a no-op —
    /// no randomness, no trace, no stats — whose counter arithmetic the
    /// world replays exactly (`World::settle_leap_through`). Heartbeat
    /// rounds themselves always execute for real.
    fn try_leap(&mut self, ctx: &mut Context<'_, World, Msg>) -> bool {
        let (h, period) = {
            let w = ctx.world_ref();
            if w.fully_strobed || !w.cfg.fault_detection || w.leap.is_some() || !w.is_quiescent() {
                return false;
            }
            (u64::from(w.cfg.heartbeat_every), w.cfg.collect_period())
        };
        debug_assert!(self.row.pending_reports.is_empty());
        // Rounds fire at tick numbers n with (n - 1) % h == 0; skip the
        // intermediate ticks between this one (already counted) and the
        // next round.
        let next_round = self.row.ticks + (h - (self.row.ticks - 1) % h);
        let skipped = next_round - self.row.ticks - 1;
        if skipped == 0 {
            return false;
        }
        let now = ctx.now();
        let target = now + period * (skipped + 1);
        if ctx.peek_next_event().is_some_and(|t| t < target) {
            return false;
        }
        // What each skipped tick's health sample would observe: the
        // pending count cannot change mid-gap (no handler runs before the
        // target), and the matrix is empty, so utilisation samples are 0
        // over however many cells exist.
        let pending = ctx.pending_messages();
        let pct = {
            let w = ctx.world_ref();
            let cells = (w.matrix.slot_count() as u64) * u64::from(w.matrix.nodes());
            if cells == 0 {
                None
            } else {
                Some(0)
            }
        };
        ctx.world().leap = Some(IdleLeap {
            from: now,
            settled: now,
            pending,
            pct,
        });
        self.row.next_tick = Some(target);
        ctx.send_self_at(target, Msg::Tick);
        true
    }

    /// Deliver `msg` to the NMs of `set`, member `rank` arriving at
    /// `schedule.arrival(base, rank)`: a single group event the engine
    /// expands lazily in node order.
    fn fan_out(
        &self,
        ctx: &mut Context<'_, World, Msg>,
        set: &NodeSet,
        base: SimTime,
        schedule: GroupSchedule,
        msg: Msg,
    ) {
        let targets = ctx.world_ref().wiring.nm_targets(set);
        ctx.multicast(&targets, base, schedule, msg);
    }

    // ------------------------------------------------------- replication —

    /// The component ids of every *live* standby other than this replica.
    fn live_standbys(&self, ctx: &Context<'_, World, Msg>) -> Vec<storm_sim::ComponentId> {
        let w = ctx.world_ref();
        (0..w.mm_roles.len())
            .filter(|&r| r as u32 != self.rank && w.mm_roles[r] == MmRole::Standby)
            .map(|r| w.wiring.mm(r as u32))
            .collect()
    }

    /// Record one scheduling decision in the active MM's replicated state
    /// and ship it (in sequence order, at a fixed point-to-point latency,
    /// so standbys receive the log in the order it was written) to every
    /// live standby. A no-op without standbys: replication draws no RNG,
    /// writes no trace, and touches no `ClusterStats`, which is what keeps
    /// a fault-free standby run byte-identical to a standby-free run.
    fn log_decision(&mut self, ctx: &mut Context<'_, World, Msg>, d: Decision) {
        if !ctx.world_ref().repl_enabled() {
            return;
        }
        let now = ctx.now();
        let seq = ctx.world_ref().mm_core.log_len;
        ctx.world().mm_core.apply(&d);
        ctx.world().repl.log_records += 1;
        let lat = ctx.world_ref().qsnet.ptp_span(REPL_MSG_BYTES);
        for target in self.live_standbys(ctx) {
            ctx.send_at(
                target,
                now + lat,
                Msg::ReplLog {
                    epoch: self.row.epoch,
                    seq,
                    decision: d.clone(),
                },
            );
        }
    }

    /// Ship a liveness beat — and, every fourth round, a full checkpoint —
    /// to every live standby. Runs at the end of each heartbeat round, so
    /// beats share the round cadence the standby watchdogs are armed on.
    fn ship_beats(&mut self, ctx: &mut Context<'_, World, Msg>) {
        if !ctx.world_ref().repl_enabled() {
            return;
        }
        let now = ctx.now();
        self.row.beats_sent += 1;
        let ship_ckpt = self.row.beats_sent % 4 == 1;
        let beat_lat = ctx.world_ref().qsnet.ptp_span(CONTROL_MSG_BYTES);
        let ckpt_lat = ctx.world_ref().qsnet.ptp_span(REPL_CKPT_BYTES);
        let epoch = self.row.epoch;
        let targets = self.live_standbys(ctx);
        if targets.is_empty() {
            return;
        }
        ctx.world().repl.beats += 1;
        if ship_ckpt {
            ctx.world().repl.checkpoints += 1;
        }
        for target in targets {
            ctx.send_at(target, now + beat_lat, Msg::MmBeat { epoch });
            if ship_ckpt {
                let state = ctx.world_ref().mm_core.clone();
                ctx.send_at(target, now + ckpt_lat, Msg::ReplCheckpoint { epoch, state });
            }
        }
    }

    /// This replica dies: mark it failed in the shared membership record
    /// and stop participating (see `handle_failed` for what a dead MM
    /// still trampolines).
    fn die(&mut self, ctx: &mut Context<'_, World, Msg>) {
        let now = ctx.now();
        let r = self.rank as usize;
        let w = ctx.world();
        w.mm_roles[r] = MmRole::Failed { at: now };
        if self.rank == w.mm_active_rank {
            // An idle leap parked this MM's next tick: the skipped
            // boundaries up to now ran, and none after will.
            w.settle_leap_through(now);
            w.leap = None;
        }
        w.metric_inc("mm.replica_failures");
        ctx.trace("mm.replica_failed", || format!("rank {}", self.rank));
    }

    /// Standby watchdog: fires every heartbeat period. If the active MM's
    /// beats have been silent for more than one full period, the active is
    /// presumed dead; the deterministic successor — the lowest surviving
    /// rank — promotes itself. Every other standby keeps watching.
    fn watchdog(&mut self, ctx: &mut Context<'_, World, Msg>) {
        let (beat_period, detection) = {
            let w = ctx.world_ref();
            (
                w.cfg.collect_period() * u64::from(w.cfg.heartbeat_every),
                w.cfg.fault_detection,
            )
        };
        if !detection {
            return;
        }
        let now = ctx.now();
        let last = self.row.last_beat_seen.unwrap_or(SimTime::ZERO);
        let silent = now.since(last) > beat_period;
        let successor = {
            let w = ctx.world_ref();
            (0..w.mm_roles.len())
                .find(|&r| !matches!(w.mm_roles[r], MmRole::Failed { .. }))
                .map(|r| r as u32)
        };
        if silent && successor == Some(self.rank) {
            self.promote(ctx);
            return; // the active MM runs no watchdog
        }
        ctx.send_self(beat_period, Msg::MmWatchdog);
    }

    /// Regroup: this standby becomes the active MM in a new epoch. The
    /// epoch is fenced into every node's global memory with a single
    /// COMPARE-AND-WRITE, so multicasts from the dead epoch are rejected;
    /// jobs mid-transfer are requeued (their pipeline events died with the
    /// old MM), armed requeue timers are re-posted, a Resync multicast
    /// makes every node re-announce its local job status, and the tick
    /// chain is realigned to the collect-period boundaries so the
    /// heartbeat-round cadence continues exactly where the old MM left it.
    fn promote(&mut self, ctx: &mut Context<'_, World, Msg>) {
        let now = ctx.now();
        let old_active = ctx.world_ref().mm_active_rank as usize;
        let epoch = ctx.world_ref().mm_epoch + 1;
        self.row.epoch = epoch;
        self.row.beats_sent = 0;
        let adopted = ctx.world_ref().mm_replicas[self.rank as usize].clone();
        {
            let w = ctx.world();
            w.mm_epoch = epoch;
            w.mm_active_rank = self.rank;
            w.mm_roles[self.rank as usize] = MmRole::Active;
            w.mm_core = adopted;
            w.repl.promotions += 1;
            w.repl.failovers.push((self.rank, now));
        }
        // Epoch fence: one CAW writes the new epoch into every node's
        // memory (condition `old ≥ 0` always holds — the write is the
        // point). Deterministic: the non-faulty primitive draws no RNG.
        let (nodes, load) = {
            let w = ctx.world_ref();
            (w.cfg.nodes, w.cfg.load)
        };
        let var = ctx
            .world_ref()
            .mm_epoch_var
            .expect("epoch var allocated when standbys are configured");
        let fence = ctx.world().mech.compare_and_write(
            now,
            &NodeSet::All(nodes),
            var,
            CmpOp::Ge,
            0,
            Some((var, i64::try_from(epoch).expect("epoch fits"))),
            load,
        );
        {
            let w = ctx.world();
            if let MmRole::Failed { at } = w.mm_roles[old_active] {
                w.telemetry
                    .metrics
                    .observe_span("failover.detection_latency_us", now.since(at));
                w.telemetry
                    .metrics
                    .observe_span("failover.promotion_latency_us", fence.complete.since(at));
            }
            w.telemetry
                .metrics
                .set_gauge("mm.epoch", i64::try_from(epoch).expect("epoch fits"));
            w.metric_inc("mm.promotions");
        }
        ctx.trace("mm.promoted", || {
            format!("rank {} epoch {epoch}", self.rank)
        });
        // Jobs mid-transfer lost their pipeline (ReadDone/BcastFreed/
        // FlowPoll targeted the dead component): requeue them. The attempt
        // bump kills the ghost pipeline; a failover burns one retry.
        let backoff = match ctx.world_ref().cfg.failure_policy {
            FailurePolicy::Requeue { backoff, .. } => backoff,
            _ => SimSpan::from_millis(5),
        };
        let transferring: Vec<JobId> = ctx
            .world_ref()
            .placed_jobs()
            .filter(|r| r.state == JobState::Transferring)
            .map(|r| r.id)
            .collect();
        for job in transferring {
            self.requeue_job(job, now, backoff, ctx);
        }
        // Armed requeue timers were self-messages on the dead MM: re-post
        // them here (the admission handler deduplicates).
        let pending: Vec<(JobId, SimTime)> = ctx.world_ref().requeue_pending.clone();
        for (job, at) in pending {
            ctx.send_self_at(at.max(now), Msg::RequeueJob(job));
        }
        // Resync: every node clears its buffered reports and re-announces
        // the status of each live local job incarnation — reports that
        // died buffered in (or in flight to) the old MM are thereby
        // re-collected; per-node exactly-once counting absorbs duplicates.
        let lat = ctx.world_ref().qsnet.ptp_span(CONTROL_MSG_BYTES);
        self.fan_out(
            ctx,
            &NodeSet::All(nodes),
            now + lat,
            GroupSchedule::Simultaneous,
            Msg::Resync { epoch },
        );
        // Bring the surviving standbys up to this replica's state at once.
        let ckpt_lat = ctx.world_ref().qsnet.ptp_span(REPL_CKPT_BYTES);
        for target in self.live_standbys(ctx) {
            let state = ctx.world_ref().mm_core.clone();
            ctx.send_at(target, now + ckpt_lat, Msg::ReplCheckpoint { epoch, state });
        }
        // Realign the tick chain: the next tick fires at the next
        // collect-period boundary with the tick number an unbroken chain
        // would have there, so quantum rotation and heartbeat rounds keep
        // their absolute cadence across the failover.
        let period = ctx.world_ref().cfg.collect_period();
        let next = now.next_boundary(period);
        self.row.ticks = next.boundaries_since(SimTime::ZERO, period);
        self.row.next_tick = Some(next);
        ctx.send_self_at(next, Msg::Tick);
    }

    /// Standby-role message handling: apply the replication stream, watch
    /// for the active MM's death. Anything else is stale traffic from a
    /// previous role and is dropped.
    fn handle_standby(&mut self, msg: Msg, ctx: &mut Context<'_, World, Msg>) {
        match msg {
            Msg::MmBeat { epoch } => {
                if epoch < self.row.epoch {
                    return;
                }
                self.row.epoch = epoch;
                self.row.last_beat_seen = Some(ctx.now());
            }
            Msg::ReplLog { seq, decision, .. } => {
                // Sequence contiguity, not epoch, is the apply criterion:
                // a promoted successor continues the same log.
                let w = ctx.world();
                let r = &mut w.mm_replicas[self.rank as usize];
                match seq.cmp(&r.log_len) {
                    std::cmp::Ordering::Equal => r.apply(&decision),
                    std::cmp::Ordering::Greater => w.repl.log_gaps += 1,
                    std::cmp::Ordering::Less => {} // duplicate
                }
            }
            Msg::ReplCheckpoint { epoch, state } => {
                if epoch < self.row.epoch {
                    return;
                }
                self.row.epoch = epoch;
                let r = &mut ctx.world().mm_replicas[self.rank as usize];
                if state.log_len >= r.log_len {
                    *r = state;
                }
            }
            Msg::MmWatchdog => self.watchdog(ctx),
            Msg::MmFail => self.die(ctx),
            // Submissions landing on a standby are trampolined to the
            // active MM (a client may address any replica).
            Msg::Submit(_) | Msg::Kill(_) => {
                let target = ctx.world_ref().active_mm();
                if target != ctx.self_id() {
                    let now = ctx.now();
                    ctx.send_at(target, now, msg);
                }
            }
            _ => {} // stale traffic from a previous role; drop
        }
    }

    /// Failed-role message handling: a dead MM drops everything, except
    /// that client-facing submissions are trampolined to the current
    /// active MM (or re-posted until a successor exists).
    fn handle_failed(&mut self, msg: Msg, ctx: &mut Context<'_, World, Msg>) {
        match msg {
            Msg::Submit(_) | Msg::Kill(_) => {
                let target = ctx.world_ref().active_mm();
                if target != ctx.self_id() {
                    let now = ctx.now();
                    ctx.send_at(target, now, msg);
                    return;
                }
                // Still the registered active (no successor yet): hold the
                // message unless every replica is dead.
                let w = ctx.world_ref();
                if (w.mm_roles.iter()).all(|r| matches!(r, MmRole::Failed { .. })) {
                    return;
                }
                let period = w.cfg.collect_period();
                ctx.send_self(period, msg);
            }
            _ => {} // dead: drop ticks, reports, timers, replication
        }
    }

    /// Linear backoff with saturating arithmetic, capped at
    /// [`MAX_REQUEUE_DELAY`]: extreme `max_retries`/`backoff`
    /// configurations can neither overflow `u64` nanoseconds nor stall
    /// the queue behind an astronomically distant timer.
    fn requeue_delay(backoff: SimSpan, retry_no: u32) -> SimSpan {
        backoff
            .saturating_mul(u64::from(retry_no))
            .min(MAX_REQUEUE_DELAY)
    }

    // ------------------------------------------------------------ policy —

    fn run_policy(&mut self, ctx: &mut Context<'_, World, Msg>) {
        let now = ctx.now();
        let (kind, cpus) = {
            let w = ctx.world_ref();
            (w.cfg.scheduler, w.cfg.cpus_per_node)
        };
        let starts = {
            let w = ctx.world_ref();
            if w.queue.is_empty() {
                Vec::new()
            } else {
                let queued: Vec<QueuedJob> = w
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
                let running: Vec<RunningJob> = w
                    .placed_jobs()
                    .map(|r| RunningJob {
                        nodes_held: r.alloc().node_count(),
                        // A job still transferring/launching is treated as
                        // starting "now" — slightly conservative, and it
                        // keeps reservations computable during the ~100 ms
                        // launch window.
                        est_end: r
                            .spec
                            .runtime_estimate
                            .map(|e| r.metrics.started.unwrap_or(now) + e),
                    })
                    .collect();
                policy::select_starts(kind, now, &queued, &running, &w.matrix)
            }
        };
        for id in starts {
            let w = ctx.world();
            w.queue.retain(|&q| q != id);
            self.start_transfer(id, ctx);
        }
    }

    // ---------------------------------------------------------- transfer —

    fn start_transfer(&mut self, job: JobId, ctx: &mut Context<'_, World, Msg>) {
        let now = ctx.now();
        let cpus = ctx.world_ref().cfg.cpus_per_node;
        let chunk = ctx.world_ref().cfg.chunk_bytes;
        // Place in the matrix.
        let (nodes_needed, rpn, ranks, binary) = {
            let rec = ctx.world_ref().job(job);
            (
                rec.spec.nodes_needed(cpus),
                rec.spec.ranks_per_node(cpus),
                rec.spec.ranks,
                rec.spec.app.binary_bytes(),
            )
        };
        let placed = ctx.world().matrix.place(job, nodes_needed);
        let Some((slot, range)) = placed else {
            // Raced with another placement this tick; requeue at the front.
            ctx.world().queue.push_front(job);
            return;
        };
        let node_count = range.end - range.start;
        // Instantiate the workload and the flow-control counter.
        let (world, rng) = ctx.world_and_rng();
        let workload = world.job(job).spec.app.workload(node_count, ranks, rng);
        let written_var = world.mech.memory.alloc_var(0);
        let rec = world.job_mut(job);
        rec.allocation = Some(Allocation {
            slot,
            nodes: range,
            ranks_per_node: rpn,
            ranks,
        });
        rec.workload = workload;
        rec.state = JobState::Transferring;
        rec.metrics.transfer_start = Some(now);
        let total_chunks = u32::try_from(binary.div_ceil(chunk)).expect("binary too large");
        rec.transfer.total_chunks = total_chunks;
        rec.transfer.last_chunk_bytes = binary % chunk;
        rec.transfer.written_var = Some(written_var);
        ctx.trace("mm.transfer_start", || {
            format!("{job}: {binary} B in {total_chunks} chunks")
        });
        self.log_decision(
            ctx,
            Decision::Place {
                job,
                slot: u32::try_from(slot).expect("slot index"),
            },
        );
        if total_chunks == 0 {
            // An empty binary has nothing to read or broadcast: go straight
            // to the final COMPARE-AND-WRITE, which every node passes.
            self.try_broadcast(job, ctx);
        } else {
            self.try_start_read(job, ctx);
        }
    }

    fn try_start_read(&mut self, job: JobId, ctx: &mut Context<'_, World, Msg>) {
        let now = ctx.now();
        let (fs, placement, load, slots, chunk_size) = {
            let w = ctx.world_ref();
            (
                w.cfg.fs,
                w.cfg.placement,
                w.cfg.load,
                w.cfg.queue_slots,
                w.cfg.chunk_bytes,
            )
        };
        let (idx, bytes) = {
            let t = &ctx.world_ref().job(job).transfer;
            if t.read_busy || t.next_read >= t.total_chunks || t.next_read >= t.next_bcast + slots {
                return;
            }
            (t.next_read, t.chunk_bytes(t.next_read, chunk_size))
        };
        let span = load.inflate(fs.read_span(bytes, placement));
        let (_, done) = ctx.world().read_dev.transmit(now, span);
        let attempt = {
            let rec = ctx.world().job_mut(job);
            rec.transfer.read_busy = true;
            rec.transfer.next_read += 1;
            rec.attempt
        };
        let mm = ctx.self_id();
        ctx.send_at(
            mm,
            done,
            Msg::ReadDone {
                job,
                chunk: idx,
                attempt,
            },
        );
    }

    fn try_broadcast(&mut self, job: JobId, ctx: &mut Context<'_, World, Msg>) {
        let now = ctx.now();
        if ctx.world_ref().job(job).state.is_terminal() {
            return;
        }
        let (load, slots, chunk_size, costs, placement) = {
            let w = ctx.world_ref();
            (
                w.cfg.load,
                w.cfg.queue_slots,
                w.cfg.chunk_bytes,
                w.cfg.daemon,
                w.cfg.placement,
            )
        };
        let (k, total, bytes, written_var, set, attempt) = {
            let rec = ctx.world_ref().job(job);
            let t = &rec.transfer;
            if t.bcast_busy {
                return;
            }
            if t.next_bcast >= t.total_chunks {
                self.check_final(job, ctx);
                return;
            }
            if t.next_bcast >= t.chunks_read {
                return; // waiting on the read stage
            }
            (
                t.next_bcast,
                t.total_chunks,
                t.chunk_bytes(t.next_bcast, chunk_size),
                t.written_var.expect("flow-control var"),
                rec.alloc().node_set(),
                rec.attempt,
            )
        };
        let _ = total;
        // Flow control: at most `slots` fragments may be in the remote
        // receive queue (broadcast but not yet written everywhere).
        let mut ready_at = now;
        if k >= slots {
            let threshold = i64::from(k - slots + 1);
            let caw = {
                let (world, rng) = ctx.world_and_rng();
                world.mech.compare_and_write_faulty(
                    now,
                    &set,
                    written_var,
                    CmpOp::Ge,
                    threshold,
                    None,
                    load,
                    rng,
                )
            };
            let Some(caw) = caw else {
                // The query itself was lost; poll again after the usual
                // backoff.
                let w = ctx.world();
                w.stats.caw_drops += 1;
                w.metric_inc("fault.caw_drops");
                self.schedule_poll(job, ctx);
                return;
            };
            if !caw.satisfied {
                let w = ctx.world();
                w.stats.flow_stalls += 1;
                w.metric_inc("mm.flow_stalls");
                self.schedule_poll(job, ctx);
                return;
            }
            ready_at = caw.complete;
        }
        // Source-side cost: the lightweight helper process services NIC TLB
        // misses and file accesses (serialising with the broadcast — the
        // 131 vs 175 MB/s gap of §3.3.1), plus fixed per-fragment protocol
        // cost and the NIC-TLB penalty of deep receive queues.
        let helper = load.inflate(SimSpan::for_bytes(bytes, costs.helper_bw))
            + costs.chunk_fixed
            + costs.tlb_per_extra_slot * u64::from(slots.saturating_sub(4));
        let start = ready_at.max(ctx.world_ref().bcast_dev.next_free());
        let issue_at = start + helper;
        let src_node = NodeId(0); // management node doubles as node 0's host
        let result = {
            let (world, rng) = ctx.world_and_rng();
            world.mech.xfer_fanout(
                issue_at, src_node, &set, bytes, placement, None, None, load, rng,
            )
        };
        match result {
            Ok(fan) => {
                let arrival = fan.all_arrived();
                let w = ctx.world();
                w.bcast_dev.transmit(start, arrival.since(start));
                w.stats.fragments += 1;
                w.metric_inc("mm.fragments");
                {
                    let t = &mut ctx.world().job_mut(job).transfer;
                    t.next_bcast += 1;
                    t.bcast_busy = true;
                }
                // Every NM sees the fragment once the whole broadcast has
                // landed (the protocol signals completion, not per-node
                // receipt), so the group delivers simultaneously.
                self.fan_out(
                    ctx,
                    &set,
                    arrival,
                    GroupSchedule::Simultaneous,
                    Msg::Fragment {
                        job,
                        chunk: k,
                        attempt,
                    },
                );
                let mm = ctx.self_id();
                ctx.send_at(
                    mm,
                    arrival,
                    Msg::BcastFreed {
                        job,
                        chunk: k,
                        attempt,
                    },
                );
            }
            Err(_) => {
                // Atomic abort: nothing was delivered; retry the same chunk.
                let w = ctx.world();
                w.stats.xfer_retries += 1;
                w.metric_inc("fault.xfer_retries");
                self.schedule_poll(job, ctx);
            }
        }
    }

    fn schedule_poll(&mut self, job: JobId, ctx: &mut Context<'_, World, Msg>) {
        let poll = ctx.world_ref().cfg.daemon.caw_poll;
        let (pending, attempt) = {
            let rec = ctx.world().job_mut(job);
            (
                std::mem::replace(&mut rec.transfer.poll_pending, true),
                rec.attempt,
            )
        };
        if !pending {
            ctx.send_self(poll, Msg::FlowPoll { job, attempt });
        }
    }

    /// All fragments broadcast: confirm (via COMPARE-AND-WRITE) that every
    /// node has written every fragment, then notify the MM host process at
    /// the next collection boundary.
    fn check_final(&mut self, job: JobId, ctx: &mut Context<'_, World, Msg>) {
        let now = ctx.now();
        let load = ctx.world_ref().cfg.load;
        let (total, written_var, set, already) = {
            let rec = ctx.world_ref().job(job);
            (
                i64::from(rec.transfer.total_chunks),
                rec.transfer.written_var.expect("flow-control var"),
                rec.alloc().node_set(),
                rec.transfer_confirmed.is_some(),
            )
        };
        if already {
            return;
        }
        let caw = {
            let (world, rng) = ctx.world_and_rng();
            world.mech.compare_and_write_faulty(
                now,
                &set,
                written_var,
                CmpOp::Ge,
                total,
                None,
                load,
                rng,
            )
        };
        let Some(caw) = caw else {
            let w = ctx.world();
            w.stats.caw_drops += 1;
            w.metric_inc("fault.caw_drops");
            self.schedule_poll(job, ctx);
            return;
        };
        if caw.satisfied {
            ctx.world().job_mut(job).transfer_confirmed = Some(caw.complete);
            ctx.trace("mm.transfer_confirmed", || format!("{job}"));
            self.ensure_tick(ctx);
        } else {
            self.schedule_poll(job, ctx);
        }
    }

    // ------------------------------------------------------------ launch —

    fn launch_ready_jobs(&mut self, ctx: &mut Context<'_, World, Msg>) {
        let now = ctx.now();
        let ready: Vec<JobId> = ctx
            .world_ref()
            .placed_jobs()
            .filter(|r| r.state == JobState::Transferring && r.metrics.transfer_done.is_some())
            .map(|r| r.id)
            .collect();
        for job in ready {
            let (set, load, placement) = {
                let w = ctx.world_ref();
                (w.job(job).alloc().node_set(), w.cfg.load, w.cfg.placement)
            };
            let result = {
                let (world, rng) = ctx.world_and_rng();
                world.mech.xfer_fanout(
                    now,
                    NodeId(0),
                    &set,
                    CONTROL_MSG_BYTES,
                    placement,
                    None,
                    None,
                    load,
                    rng,
                )
            };
            let Ok(fan) = result else {
                let w = ctx.world();
                w.stats.xfer_retries += 1;
                w.metric_inc("fault.xfer_retries");
                continue; // retried at the next tick
            };
            {
                let rec = ctx.world().job_mut(job);
                rec.state = JobState::Launching;
                rec.metrics.launch_cmd = Some(now);
            }
            ctx.trace("mm.launch_cmd", || format!("{job}"));
            let attempt = ctx.world_ref().job(job).attempt;
            self.log_decision(ctx, Decision::Launch { job, attempt });
            // Launch commands arrive with the network's per-rank skew
            // (simultaneous on hardware multicast, staggered down the
            // emulation tree).
            let (base, schedule) = fan.delivery_schedule();
            self.fan_out(ctx, &set, base, schedule, Msg::LaunchCmd { job, attempt });
        }
    }

    // ------------------------------------------------------------ strobe —

    fn strobe(&mut self, ctx: &mut Context<'_, World, Msg>) {
        let now = ctx.now();
        if ctx.world_ref().matrix.job_count() == 0 {
            return;
        }
        // Rotate the active slot on quantum boundaries — or immediately
        // when the active slot just emptied (its job completed mid-quantum
        // and the machine would otherwise idle until the boundary).
        let current = ctx.world_ref().active_slot;
        let quantum_boundary = self
            .row
            .ticks
            .is_multiple_of(Self::ticks_per_quantum(&ctx.world_ref().cfg));
        let current_empty = ctx.world_ref().matrix.jobs_in_slot(current).is_empty();
        let next = if quantum_boundary || current_empty {
            ctx.world_ref()
                .matrix
                .next_active_slot(current)
                .unwrap_or(current)
        } else {
            current
        };
        ctx.world().active_slot = next;
        let (nodes, load, placement) = {
            let w = ctx.world_ref();
            (w.cfg.nodes, w.cfg.load, w.cfg.placement)
        };
        let set = NodeSet::All(nodes);
        let result = {
            let (world, rng) = ctx.world_and_rng();
            world.mech.xfer_fanout(
                now,
                NodeId(0),
                &set,
                CONTROL_MSG_BYTES,
                placement,
                None,
                None,
                load,
                rng,
            )
        };
        let Ok(fan) = result else {
            let w = ctx.world();
            w.stats.xfer_retries += 1;
            w.metric_inc("fault.xfer_retries");
            return;
        };
        {
            let w = ctx.world();
            w.stats.strobes += 1;
            w.metric_inc("mm.strobes");
        }
        // The context switch is *coordinated*: every NM acts when the
        // whole strobe multicast has completed, not at its own arrival.
        let arrival = fan.all_arrived();
        let slot = u32::try_from(next).expect("slot index");
        if next != current {
            self.log_decision(ctx, Decision::Slot { slot });
        }
        self.fan_out(
            ctx,
            &set,
            arrival,
            GroupSchedule::Simultaneous,
            Msg::Strobe {
                slot,
                epoch: self.row.epoch,
            },
        );
    }

    // ----------------------------------------------------------- reports —

    fn process_events(&mut self, ctx: &mut Context<'_, World, Msg>) {
        let now = ctx.now();
        // Transfer-completion notifications land at collection boundaries.
        let confirmed: Vec<JobId> = ctx
            .world_ref()
            .placed_jobs()
            .filter(|r| {
                r.state == JobState::Transferring
                    && r.metrics.transfer_done.is_none()
                    && r.transfer_confirmed.is_some_and(|t| t <= now)
            })
            .map(|r| r.id)
            .collect();
        for job in confirmed {
            ctx.world().job_mut(job).metrics.transfer_done = Some(now);
            self.ensure_tick(ctx); // a Tick must follow to issue the launch
        }
        // NM reports. Take the buffer out for the borrow, drain it, and put
        // it back so its capacity is reused every collection instead of
        // reallocated from scratch.
        let mut reports = std::mem::take(&mut self.row.pending_reports);
        for (node, job, attempt, kind) in reports.drain(..) {
            {
                let w = ctx.world();
                w.stats.reports += 1;
                w.metric_inc("mm.reports");
            }
            if ctx.world_ref().job(job).state.is_terminal() {
                continue;
            }
            if ctx.world_ref().job(job).attempt != attempt {
                continue; // report from a lost incarnation
            }
            // Per-node exactly-once counting: after an MM failover the
            // resync protocol makes every node re-announce its local
            // status, so duplicates are expected and must not double-count.
            match kind {
                ReportKind::Started => {
                    let node_count = ctx.world_ref().job(job).alloc().active_node_count();
                    let rec = ctx.world().job_mut(job);
                    rec.reported_started.insert(node);
                    let all_started = rec.reported_started.len() >= node_count;
                    if rec.state == JobState::Launching && all_started {
                        rec.state = JobState::Running;
                        if rec.metrics.started.is_none() {
                            rec.metrics.started = Some(now);
                        }
                    }
                }
                ReportKind::Done { app_done } => {
                    let node_count = ctx.world_ref().job(job).alloc().active_node_count();
                    let finished = {
                        let rec = ctx.world().job_mut(job);
                        if rec.reported_done.insert(node) {
                            rec.app_done_max = Some(match rec.app_done_max {
                                Some(prev) => prev.max(app_done),
                                None => app_done,
                            });
                            rec.reported_done.len() >= node_count
                        } else {
                            false
                        }
                    };
                    if finished {
                        self.complete_job(job, now, JobState::Completed, ctx);
                    }
                }
            }
        }
        reports.append(&mut self.row.pending_reports);
        self.row.pending_reports = reports;
    }

    fn complete_job(
        &mut self,
        job: JobId,
        now: SimTime,
        state: JobState,
        ctx: &mut Context<'_, World, Msg>,
    ) {
        let w = ctx.world();
        w.finish_job(job, state, now);
        if w.telemetry.is_enabled() {
            let (metrics, name, ranks, attempts) = {
                let rec = w.job(job);
                (
                    rec.metrics.clone(),
                    rec.spec.name.to_string(),
                    rec.spec.ranks,
                    rec.attempt + 1,
                )
            };
            let t = &mut w.telemetry;
            t.metrics.inc(
                match state {
                    JobState::Completed => "jobs.completed",
                    JobState::Killed => "jobs.killed",
                    _ => "jobs.failed",
                },
                1,
            );
            let phases = metrics.phase_breakdown();
            for &(phase, start, end) in &phases {
                t.metrics.observe_span_with(
                    "job.phase_us",
                    vec![("phase", phase.to_string())],
                    end.since(start),
                );
            }
            if let (Some(sub), Some(done)) = (metrics.submitted, metrics.completed) {
                t.metrics.observe_span("job.total_us", done.since(sub));
            }
            t.spans.record(|| JobSpan {
                job: job.0,
                name,
                ranks,
                outcome: format!("{state:?}"),
                attempts,
                phases: phases
                    .iter()
                    .map(|&(phase, start, end)| Phase {
                        name: phase,
                        start,
                        end,
                    })
                    .collect(),
            });
        }
        ctx.trace("mm.job_done", || format!("{job} -> {state:?}"));
        self.log_decision(ctx, Decision::Complete { job });
        // Freed space may unblock queued jobs.
        self.ensure_tick(ctx);
    }

    // ---------------------------------------------------- fault detection —

    fn fault_round(&mut self, ctx: &mut Context<'_, World, Msg>) {
        let now = ctx.now();
        let (nodes, load, placement) = {
            let w = ctx.world_ref();
            (w.cfg.nodes, w.cfg.load, w.cfg.placement)
        };
        if ctx.world_ref().hb_var.is_none() {
            let var = ctx.world().mech.memory.alloc_var(0);
            ctx.world().hb_var = Some(var);
        }
        let hb_var = ctx.world_ref().hb_var.expect("just set");
        let round = ctx.world_ref().hb_round;
        // Re-admission scan: heartbeats keep being multicast to the whole
        // machine, so a node that came back (or whose dæmon stall ended)
        // catches up on the round counter in a single beat — when its value
        // reaches the current round, it rejoins the allocator. The nodes
        // detected failed are the matrix's quarantine set, in ascending
        // node order.
        if round > 0 && ctx.world_ref().matrix.quarantined_count() > 0 {
            let candidates: Vec<u32> = ctx.world_ref().matrix.quarantined_nodes().collect();
            let cand_set = NodeSet::from_list(candidates.iter().map(|&n| NodeId(n)).collect());
            let values = ctx.world_ref().mech.memory.gather(&cand_set, hb_var);
            for (&node, v) in candidates.iter().zip(values) {
                if v >= round {
                    let w = ctx.world();
                    let ok = w.matrix.rejoin_node(node);
                    debug_assert!(ok, "re-admitted node must have been quarantined");
                    w.stats.rejoins.push((node, now));
                    w.metric_inc("fault.rejoins");
                    ctx.trace("mm.node_rejoined", || format!("node {node}"));
                    self.log_decision(ctx, Decision::Rejoin { node });
                    // Restored capacity may unblock queued jobs.
                    self.ensure_tick(ctx);
                }
            }
        }
        // The common case — no detected failures — needs no list at all;
        // `All` iterates the same members in the same order. Otherwise
        // both the nodes and the quarantine set ascend, so one merge pass
        // skips the quarantined nodes.
        let alive_set = {
            let matrix = &ctx.world_ref().matrix;
            if matrix.quarantined_count() == 0 {
                NodeSet::All(nodes)
            } else {
                let mut quarantined = matrix.quarantined_nodes().peekable();
                NodeSet::from_list(
                    (0..nodes)
                        .filter(|&n| quarantined.next_if_eq(&n).is_none())
                        .map(NodeId)
                        .collect(),
                )
            }
        };
        if round > 0 && !alive_set.is_empty() {
            // Query receipt of the previous round's heartbeat with
            // COMPARE-AND-WRITE (§4 "Fault detection").
            let caw = {
                let (world, rng) = ctx.world_and_rng();
                world.mech.compare_and_write_faulty(
                    now,
                    &alive_set,
                    hb_var,
                    CmpOp::Ge,
                    round,
                    None,
                    load,
                    rng,
                )
            };
            match caw {
                None => {
                    // The query was lost; skip detection this round rather
                    // than condemn nodes on missing evidence.
                    let w = ctx.world();
                    w.stats.caw_drops += 1;
                    w.metric_inc("fault.caw_drops");
                }
                Some(caw) if !caw.satisfied => {
                    // Gather status to isolate the failed slave(s).
                    let values = ctx.world_ref().mech.memory.gather(&alive_set, hb_var);
                    let lagging: Vec<u32> = alive_set
                        .iter()
                        .zip(values)
                        .filter(|&(_, v)| v < round)
                        .map(|(n, _)| n.0)
                        .collect();
                    for node in lagging {
                        if !ctx.world_ref().matrix.is_quarantined(node) {
                            {
                                let w = ctx.world();
                                w.stats.failures_detected.push((node, now));
                                w.metric_inc("fault.detections");
                                if let Some(at) = w.nodes.failed_since(node) {
                                    w.telemetry
                                        .metrics
                                        .observe_span("fault.detection_latency_us", now.since(at));
                                }
                            }
                            ctx.trace("mm.fault_detected", || format!("node {node}"));
                            // Evict the victims first: quarantining requires
                            // the node's leaf to be free in every slot.
                            self.fail_jobs_on(node, now, ctx);
                            {
                                let w = ctx.world();
                                let ok = w.matrix.quarantine_node(node);
                                debug_assert!(ok, "victim eviction must free the node");
                            }
                            self.log_decision(ctx, Decision::Quarantine { node });
                        }
                    }
                }
                Some(_) => {}
            }
        }
        // Issue the next heartbeat — to *all* nodes, so detected-failed ones
        // can prove themselves alive again (a dead NM simply drops it). The
        // round counter advances only when the multicast actually went out:
        // an aborted multicast must not leave the whole machine one round
        // behind and condemned en masse at the next check.
        let new_round = round + 1;
        let set = NodeSet::All(nodes);
        let result = {
            let (world, rng) = ctx.world_and_rng();
            world.mech.xfer_fanout(
                now,
                NodeId(0),
                &set,
                CONTROL_MSG_BYTES,
                placement,
                None,
                None,
                load,
                rng,
            )
        };
        if let Ok(fan) = result {
            {
                let w = ctx.world();
                w.hb_round = new_round;
                w.telemetry
                    .metrics
                    .observe_span("hb.round_latency_us", fan.all_arrived().since(now));
            }
            self.log_decision(ctx, Decision::Round { round: new_round });
            let (base, schedule) = fan.delivery_schedule();
            self.fan_out(
                ctx,
                &set,
                base,
                schedule,
                Msg::Heartbeat {
                    round: new_round,
                    epoch: self.row.epoch,
                },
            );
        } else {
            let w = ctx.world();
            w.stats.xfer_retries += 1;
            w.metric_inc("fault.xfer_retries");
        }
        // Replication plane: beats (and periodic checkpoints) ride the
        // same round cadence the standby watchdogs are armed on.
        self.ship_beats(ctx);
    }

    /// Apply the configured [`FailurePolicy`] to every live job whose
    /// allocation includes `node`. In every case the victim's buddy
    /// allocation is freed (leaving the node ready for quarantine);
    /// the policies differ only in what happens to the job afterwards.
    fn fail_jobs_on(&mut self, node: u32, now: SimTime, ctx: &mut Context<'_, World, Msg>) {
        let victims: Vec<JobId> = ctx
            .world_ref()
            .placed_jobs()
            .filter(|r| r.alloc().nodes.contains(&node))
            .map(|r| r.id)
            .collect();
        let policy = ctx.world_ref().cfg.failure_policy;
        for job in victims {
            match policy {
                FailurePolicy::Fail => self.complete_job(job, now, JobState::Failed, ctx),
                FailurePolicy::Requeue {
                    max_retries,
                    backoff,
                } => {
                    if ctx.world_ref().job(job).attempt < max_retries {
                        self.requeue_job(job, now, backoff, ctx);
                    } else {
                        ctx.world().metric_inc("jobs.retry_budget_exhausted");
                        ctx.trace("mm.retry_budget_exhausted", || format!("{job}"));
                        self.complete_job(job, now, JobState::Failed, ctx);
                    }
                }
                FailurePolicy::Shrink => {
                    // Unbounded retries; the job is re-sized to surviving
                    // capacity when it is re-admitted to the queue.
                    self.requeue_job(job, now, SimSpan::from_millis(5), ctx);
                }
            }
        }
    }

    /// Evict a victim job from the matrix, reset its record for a fresh
    /// incarnation, and schedule its re-admission after a linear backoff
    /// (`backoff × retry number`).
    fn requeue_job(
        &mut self,
        job: JobId,
        now: SimTime,
        backoff: SimSpan,
        ctx: &mut Context<'_, World, Msg>,
    ) {
        let retry_no = {
            let w = ctx.world();
            w.matrix.remove(job);
            w.free_written_var(job);
            let rec = w.job_mut(job);
            rec.reset_for_retry();
            w.stats.requeues += 1;
            w.metric_inc("jobs.requeued");
            w.job(job).attempt
        };
        ctx.trace("mm.requeue", || format!("{job} retry {retry_no}"));
        let fire_at = now + Self::requeue_delay(backoff, retry_no);
        ctx.world().requeue_pending.push((job, fire_at));
        self.log_decision(
            ctx,
            Decision::Requeue {
                job,
                retry: retry_no,
            },
        );
        ctx.send_self_at(fire_at, Msg::RequeueJob(job));
    }

    /// Under [`FailurePolicy::Shrink`], re-size a job being re-admitted to
    /// the largest power-of-two node count the (possibly diminished)
    /// machine can still place, keeping at least one rank.
    fn shrink_to_fit(&mut self, job: JobId, ctx: &mut Context<'_, World, Msg>) {
        let cpus = ctx.world_ref().cfg.cpus_per_node;
        let (needed, rpn, ranks) = {
            let rec = ctx.world_ref().job(job);
            (
                rec.spec.nodes_needed(cpus),
                rec.spec.ranks_per_node(cpus),
                rec.spec.ranks,
            )
        };
        let mut fit = needed;
        while fit > 1 && !ctx.world_ref().matrix.fits(fit) {
            fit /= 2;
        }
        if fit < needed {
            let new_ranks = (fit * rpn).min(ranks).max(1);
            let w = ctx.world();
            w.job_mut(job).spec.ranks = new_ranks;
            w.metric_inc("jobs.shrunk");
            ctx.trace("mm.shrink", || format!("{job} -> {new_ranks} ranks"));
        }
    }
}

impl Replica {
    /// Handle `msg` in this replica's role.
    fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, World, Msg>) {
        match ctx.world_ref().mm_roles[self.rank as usize] {
            MmRole::Active => {}
            MmRole::Standby => return self.handle_standby(msg, ctx),
            MmRole::Failed { .. } => return self.handle_failed(msg, ctx),
        }
        // Active-role replication traffic: the injected kill, plus stale
        // leftovers from this replica's time as a standby.
        match msg {
            Msg::MmFail => return self.die(ctx),
            Msg::MmBeat { .. }
            | Msg::MmWatchdog
            | Msg::ReplLog { .. }
            | Msg::ReplCheckpoint { .. } => return,
            _ => {}
        }
        match msg {
            Msg::Submit(job) => {
                let now = ctx.now();
                {
                    let rec = ctx.world().job_mut(job);
                    if rec.metrics.submitted.is_none() {
                        rec.metrics.submitted = Some(now);
                    }
                }
                let w = ctx.world();
                w.queue.push_back(job);
                w.metric_inc("jobs.submitted");
                ctx.trace("mm.submit", || format!("{job}"));
                self.log_decision(ctx, Decision::Submit { job });
                self.ensure_tick(ctx);
            }
            Msg::Tick => {
                let tick_now = ctx.now();
                if self.row.next_tick.is_none_or(|t| t > tick_now) {
                    return; // superseded: not the tick that is due
                }
                self.row.next_tick = None;
                // Resolve any armed fast-forward first: replay the skipped
                // quiescent boundaries and realign the tick counter,
                // exactly as if the chain had ticked through them.
                self.row.ticks += ctx.world().take_leap(tick_now);
                self.row.ticks += 1;
                // A tick is also a collection boundary.
                self.process_events(ctx);
                let fault = {
                    let w = ctx.world_ref();
                    w.cfg.fault_detection
                        && (self.row.ticks - 1).is_multiple_of(u64::from(w.cfg.heartbeat_every))
                };
                if fault {
                    self.fault_round(ctx);
                }
                self.run_policy(ctx);
                self.launch_ready_jobs(ctx);
                self.strobe(ctx);
                if ctx.world_ref().telemetry.is_enabled() {
                    // Per-timeslice health sample. `pending_messages()` is
                    // the logical count (a group counts its undelivered
                    // members); the raw queue depth/peak gauges count a
                    // group entry once.
                    let pending = ctx.pending_messages();
                    let qs = ctx.queue_stats();
                    let ar = ctx.arena_stats();
                    let w = ctx.world();
                    let queued = w.queue.len() as i64;
                    let quarantined = i64::from(w.matrix.quarantined_count());
                    let alive = i64::from(w.cfg.nodes) - quarantined;
                    let slots = w.matrix.slot_count();
                    let mut used: u64 = 0;
                    for slot in 0..slots {
                        for (_, ranks) in w.matrix.jobs_in_slot(slot) {
                            used += u64::from(ranks.end - ranks.start);
                        }
                    }
                    let cells = (slots as u64) * u64::from(w.matrix.nodes());
                    let m = &mut w.telemetry.metrics;
                    m.inc("mm.ticks", 1);
                    m.set_gauge("sched.queue_depth", queued);
                    m.set_gauge("nodes.alive", alive);
                    m.set_gauge("nodes.quarantined", quarantined);
                    m.set_gauge("engine.pending_messages", pending as i64);
                    m.set_gauge("sim.queue.depth", qs.len as i64);
                    m.set_gauge("sim.queue.peak", qs.peak as i64);
                    m.set_gauge("sim.arena.payload_bytes", ar.payload_bytes as i64);
                    m.set_gauge("sim.arena.live", ar.live as i64);
                    m.set_gauge("sim.arena.peak", ar.peak as i64);
                    m.observe("engine.pending_messages_per_tick", pending);
                    if let Some(pct) = (used * 100).checked_div(cells) {
                        m.observe("sched.matrix_utilization_pct", pct);
                    }
                }
                // Continuous queries observe the same boundary the health
                // sample does. A single branch when none are registered.
                if !ctx.world_ref().cq.is_empty() {
                    let slice = self.row.ticks;
                    ctx.world().evaluate_continuous_queries(slice, tick_now);
                }
                let keep_going = !ctx.world_ref().is_idle() || ctx.world_ref().cfg.fault_detection;
                if keep_going && !self.try_leap(ctx) {
                    self.ensure_tick(ctx);
                }
            }
            Msg::ReadDone { job, attempt, .. } => {
                if ctx.world_ref().job(job).attempt != attempt {
                    return; // read for a lost incarnation
                }
                {
                    let t = &mut ctx.world().job_mut(job).transfer;
                    t.read_busy = false;
                    t.chunks_read += 1;
                }
                self.try_broadcast(job, ctx);
                self.try_start_read(job, ctx);
            }
            Msg::BcastFreed { job, attempt, .. } => {
                if ctx.world_ref().job(job).attempt != attempt {
                    return; // broadcast of a lost incarnation
                }
                ctx.world().job_mut(job).transfer.bcast_busy = false;
                self.try_broadcast(job, ctx);
                self.try_start_read(job, ctx);
            }
            Msg::FlowPoll { job, attempt } => {
                if ctx.world_ref().job(job).attempt != attempt {
                    return; // poll for a lost incarnation
                }
                ctx.world().job_mut(job).transfer.poll_pending = false;
                self.try_broadcast(job, ctx);
            }
            Msg::NmReport {
                node,
                job,
                kind,
                attempt,
            } => {
                self.row.pending_reports.push((node, job, attempt, kind));
                self.ensure_tick(ctx);
            }
            Msg::RequeueJob(job) => {
                // Disarm the pending-timer record first: after a failover
                // both the re-posted and any surviving original timer fire,
                // and the admission guard below makes the second a no-op.
                ctx.world().requeue_pending.retain(|&(j, _)| j != job);
                {
                    let w = ctx.world_ref();
                    let rec = w.job(job);
                    // The job may have been killed, or already re-admitted.
                    if rec.state != JobState::Queued || w.queue.contains(&job) {
                        return;
                    }
                }
                if matches!(ctx.world_ref().cfg.failure_policy, FailurePolicy::Shrink) {
                    self.shrink_to_fit(job, ctx);
                }
                ctx.world().queue.push_back(job);
                ctx.trace("mm.requeue_admitted", || format!("{job}"));
                self.log_decision(ctx, Decision::Admit { job });
                self.ensure_tick(ctx);
            }
            Msg::Kill(job) => {
                let now = ctx.now();
                if !ctx.world_ref().job(job).state.is_terminal() {
                    ctx.world().queue.retain(|&q| q != job);
                    self.complete_job(job, now, JobState::Killed, ctx);
                }
            }
            other => panic!("MM received unexpected message {other:?}"),
        }
    }
}

impl Component<World, Msg> for MachineManager {
    fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, World, Msg>) {
        let Some(Daemon::Mm(rank)) = ctx.world_ref().wiring.daemon(ctx.self_id()) else {
            unreachable!("{} is wired as an MM", ctx.self_id());
        };
        // The row leaves the world for the call: a replica reads and
        // writes only its own.
        let row = std::mem::take(&mut ctx.world().mm_rows[rank as usize]);
        let mut replica = Replica { rank, row };
        replica.handle(msg, ctx);
        ctx.world().mm_rows[rank as usize] = replica.row;
    }

    fn name(&self) -> &str {
        "MM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requeue_delay_boundary_values() {
        let b = SimSpan::from_millis(5);
        // Retry 0 (shouldn't happen, but must be well-defined) and a normal case.
        assert_eq!(Replica::requeue_delay(b, 0), SimSpan::ZERO);
        assert_eq!(Replica::requeue_delay(b, 3), SimSpan::from_millis(15));
        // Products that would overflow u64 nanoseconds saturate, then cap.
        assert_eq!(
            Replica::requeue_delay(SimSpan::MAX, u32::MAX),
            MAX_REQUEUE_DELAY
        );
        assert_eq!(
            Replica::requeue_delay(SimSpan::from_nanos(u64::MAX / 2 + 1), 2),
            MAX_REQUEUE_DELAY
        );
        // Large but non-overflowing products still hit the ceiling.
        assert_eq!(
            Replica::requeue_delay(SimSpan::from_secs(30), 1000),
            MAX_REQUEUE_DELAY
        );
        // The cap itself passes through unchanged.
        assert_eq!(
            Replica::requeue_delay(SimSpan::from_secs(60), 1),
            MAX_REQUEUE_DELAY
        );
    }
}
