//! The shared world: everything the dæmons can observe and mutate besides
//! their own private state — job records, the gang matrix, the mechanism
//! layer (global memory), the network/filesystem devices, and counters.

use crate::config::ClusterConfig;
use crate::job::{JobId, JobRecord, JobState, ReportSet};
use crate::matrix::GangMatrix;
use crate::mm::MmRow;
use crate::nm::NmRow;
use crate::replica::{MmCoreState, MmRole, ReplStats};
use std::collections::VecDeque;
use std::sync::Arc;
use storm_mech::{Mechanisms, NodeId, NodeSet};
use storm_net::{Nic, QsNetModel};
use storm_sim::{ComponentId, GroupTargets, SimSpan, SimTime};
use storm_telemetry::Telemetry;

/// Component wiring: where each dæmon lives in the simulation.
/// `Cluster::new` registers the primary MM, then per node its NM followed
/// by its `cpus_per_node × mpl_max` PLs, then the standby MMs, so every
/// dæmon's id is arithmetic on that layout and no table lists them.
#[derive(Debug, Clone, Copy)]
pub struct Wiring {
    nodes: u32,
    /// PLs per node.
    pls: u32,
    /// MM replicas, the primary included.
    mms: u32,
}

/// A dæmon, with the position [`Wiring::daemon`] reads off its id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Daemon {
    /// The MM replica of this rank (0 is the primary).
    Mm(u32),
    /// The NM of this node.
    Nm(NodeId),
    /// The `index`-th PL of `node`.
    Pl {
        /// Its node.
        node: NodeId,
        /// Its index among the node's PLs.
        index: u32,
    },
}

impl Wiring {
    /// The layout of a validated configuration, whose dæmon count fits
    /// [`MAX_DAEMONS`](crate::config::MAX_DAEMONS).
    fn new(cfg: &ClusterConfig) -> Self {
        Wiring {
            nodes: cfg.nodes,
            pls: cfg.cpus_per_node * u32::try_from(cfg.mpl_max).expect("validated"),
            mms: cfg.mm_standbys + 1,
        }
    }

    /// The component-id distance between consecutive nodes' NMs.
    fn nm_stride(&self) -> u32 {
        1 + self.pls
    }

    /// PLs per node.
    pub fn pls_per_node(&self) -> u32 {
        self.pls
    }

    /// MM replicas, the primary included.
    pub fn mm_count(&self) -> u32 {
        self.mms
    }

    /// The MM replica of `rank`.
    pub fn mm(&self, rank: u32) -> ComponentId {
        debug_assert!(rank < self.mms, "MM rank {rank} of {}", self.mms);
        match rank {
            0 => ComponentId::from_index(0),
            _ => ComponentId::from_index(self.nodes * self.nm_stride() + rank),
        }
    }

    /// The NM of `node`.
    pub fn nm(&self, node: u32) -> ComponentId {
        debug_assert!(node < self.nodes, "node {node} of {}", self.nodes);
        ComponentId::from_index(1 + node * self.nm_stride())
    }

    /// The `index`-th PL of `node`.
    pub fn pl(&self, node: u32, index: u32) -> ComponentId {
        debug_assert!(index < self.pls, "PL {index} of {}", self.pls);
        ComponentId::from_index(self.nm(node).index() as u32 + 1 + index)
    }

    /// The dæmon at `id`, or `None` past the last one.
    pub fn daemon(&self, id: ComponentId) -> Option<Daemon> {
        let ix = id.index() as u64;
        let stride = u64::from(self.nm_stride());
        let nodes_end = u64::from(self.nodes) * stride;
        Some(match ix {
            0 => Daemon::Mm(0),
            _ if ix <= nodes_end => {
                let node = NodeId(((ix - 1) / stride) as u32);
                match ((ix - 1) % stride) as u32 {
                    0 => Daemon::Nm(node),
                    k => Daemon::Pl { node, index: k - 1 },
                }
            }
            _ if ix - nodes_end < u64::from(self.mms) => Daemon::Mm((ix - nodes_end) as u32),
            _ => return None,
        })
    }

    /// The node whose NM is component `id`, which must be an NM.
    pub fn nm_node(&self, id: ComponentId) -> NodeId {
        let node = NodeId((id.index() as u32 - 1) / self.nm_stride());
        debug_assert_eq!(self.daemon(id), Some(Daemon::Nm(node)), "{id} is no NM");
        node
    }

    /// The [`GroupTargets`] addressing the NMs of a node set, in ascending
    /// node order. `Cluster::new` lays NMs out at a fixed component-id
    /// stride, so `All`/`Range` sets need no per-member allocation at all;
    /// `List` sets (fault-detection survivors) materialise a shared slice.
    pub fn nm_targets(&self, set: &NodeSet) -> GroupTargets {
        let stride = self.nm_stride();
        match *set {
            NodeSet::All(n) => {
                debug_assert_eq!(n, self.nodes);
                GroupTargets::Strided {
                    first: self.nm(0),
                    stride,
                    len: n,
                }
            }
            NodeSet::Range { start, len } => GroupTargets::Strided {
                first: self.nm(start),
                stride,
                len,
            },
            NodeSet::List(ref v) => {
                let ids: Arc<[ComponentId]> = v.iter().map(|n| self.nm(n.0)).collect();
                GroupTargets::List(ids)
            }
        }
    }
}

/// Struct-of-arrays per-node health state: failure flags and failure
/// instants in parallel dense arrays keyed by node index. It is the one
/// record of node failure: each NM's `FailNode` and `RejoinNode` handlers
/// write their row, and the NM reads it to decide whether it answers.
/// Quarantine is not here: the gang matrix owns it (see
/// [`GangMatrix::is_quarantined`]).
#[derive(Debug, Clone)]
pub struct NodeTable {
    failed: Vec<bool>,
    failed_at: Vec<Option<SimTime>>,
}

impl NodeTable {
    /// A table of `nodes` healthy nodes.
    pub fn new(nodes: u32) -> Self {
        NodeTable {
            failed: vec![false; nodes as usize],
            failed_at: vec![None; nodes as usize],
        }
    }

    /// Number of nodes in the table.
    pub fn len(&self) -> usize {
        self.failed.len()
    }

    /// True when the table is empty (zero-node clusters are rejected by
    /// config validation, but the type stands alone).
    pub fn is_empty(&self) -> bool {
        self.failed.is_empty()
    }

    /// Is `node` currently failed (fault injected, not yet rejoined)?
    pub fn is_failed(&self, node: u32) -> bool {
        self.failed[node as usize]
    }

    /// When `node`'s current failure was injected (`None` while healthy).
    /// The base instant for the fault-detection latency metric;
    /// stall-based detections have no injection instant and record no
    /// latency.
    pub fn failed_since(&self, node: u32) -> Option<SimTime> {
        self.failed_at[node as usize]
    }

    /// Record an injected failure of `node` at `at`.
    pub fn mark_failed(&mut self, node: u32, at: SimTime) {
        self.failed[node as usize] = true;
        self.failed_at[node as usize] = Some(at);
    }

    /// Clear `node`'s failure record (the node rejoined).
    pub fn clear_failed(&mut self, node: u32) {
        self.failed[node as usize] = false;
        self.failed_at[node as usize] = None;
    }
}

/// Cluster-wide counters, for tests, reports and the benches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterStats {
    /// Strobe multicasts issued by the MM.
    pub strobes: u64,
    /// Fragments broadcast (per chunk, not per destination).
    pub fragments: u64,
    /// Flow-control COMPARE-AND-WRITE polls that found the queue full.
    pub flow_stalls: u64,
    /// NM reports collected by the MM.
    pub reports: u64,
    /// Jobs completed.
    pub completed_jobs: u64,
    /// Node failures detected, with detection instant.
    pub failures_detected: Vec<(u32, SimTime)>,
    /// Quarantined nodes re-admitted after catching up on heartbeats, with
    /// re-admission instant.
    pub rejoins: Vec<(u32, SimTime)>,
    /// Jobs requeued by the failure-recovery policy (one count per retry).
    pub requeues: u64,
    /// COMPARE-AND-WRITE queries lost to the injected drop probability.
    pub caw_drops: u64,
    /// Heartbeat deliveries dropped at NMs by the injected drop
    /// probability.
    pub hb_drops: u64,
    /// Transfers that suffered (and retried after) an injected network
    /// error.
    pub xfer_retries: u64,
    /// Strobes whose NM-side processing backlog exceeded 4 quanta — the
    /// §3.2.1 meltdown indicator.
    pub nm_overruns: u64,
}

/// The shared world type for the STORM simulation.
#[derive(Debug)]
pub struct World {
    /// Configuration (immutable during a run).
    pub cfg: ClusterConfig,
    /// QsNET timing model for this cluster size.
    pub qsnet: QsNetModel,
    /// The STORM mechanisms (global memory, fault plan, counters).
    pub mech: Mechanisms,
    /// All jobs ever submitted, indexed by `JobId`.
    pub jobs: Vec<JobRecord>,
    /// Queued job ids awaiting allocation, FCFS order.
    pub queue: VecDeque<JobId>,
    /// The gang matrix: slot membership and the quarantine set.
    pub matrix: GangMatrix,
    /// Currently active time slot.
    pub active_slot: usize,
    /// Per-node failure flags and instants — see [`NodeTable`].
    pub nodes: NodeTable,
    /// Every Node Manager's state, indexed by node: the dæmons themselves
    /// hold none (see [`NodeManager`](crate::nm::NodeManager)).
    pub(crate) nm_rows: Vec<NmRow>,
    /// The management node's filesystem read device (serialises reads).
    pub read_dev: Nic,
    /// The source NIC + helper process (serialises broadcasts).
    pub bcast_dev: Nic,
    /// Fault-detection heartbeat counter variable, when enabled.
    pub hb_var: Option<storm_mech::VarId>,
    /// Current heartbeat round.
    pub hb_round: i64,
    /// Every MM replica's state, indexed by rank: the dæmons themselves
    /// hold none (see [`MachineManager`](crate::mm::MachineManager)).
    pub(crate) mm_rows: Vec<MmRow>,
    /// The active MM's log position and digest. Maintained only when
    /// standbys are configured.
    pub mm_core: MmCoreState,
    /// Each standby's log position and digest, by rank (entry 0, the
    /// primary, is unused).
    pub mm_replicas: Vec<MmCoreState>,
    /// Per-rank MM roles, the one record of MM membership: a replica is
    /// dead exactly when its role is `Failed`, which holds its failure
    /// instant. Always length `mm_standbys + 1`.
    pub mm_roles: Vec<MmRole>,
    /// Rank of the currently active MM.
    pub mm_active_rank: u32,
    /// Current MM epoch; bumped (and CAW-fenced into every node's memory)
    /// on each promotion.
    pub mm_epoch: u64,
    /// Global-memory variable holding the fenced epoch, when standbys are
    /// configured.
    pub mm_epoch_var: Option<storm_mech::VarId>,
    /// Outstanding requeue timers `(job, fire_at)` — armed backoffs whose
    /// `RequeueJob` has not yet been admitted. A promoted MM re-posts
    /// these, because the dead MM's self-timers die with it.
    pub requeue_pending: Vec<(JobId, SimTime)>,
    /// Replication-plane counters (separate from [`ClusterStats`] so the
    /// standby-free byte-identity contract holds).
    pub repl: ReplStats,
    /// Component wiring.
    pub wiring: Wiring,
    /// Counters.
    pub stats: ClusterStats,
    /// Telemetry sink (metrics registry + job lifecycle spans); disabled
    /// unless [`ClusterConfig::telemetry`] is set.
    pub telemetry: Telemetry,
    /// Continuous queries evaluated at each timeslice boundary, plus
    /// their bounded alert log (see [`crate::cq`]). Empty by default.
    pub cq: crate::cq::ContinuousQueries,
    /// Armed idle fast-forward, if any (see [`IdleLeap`]).
    pub(crate) leap: Option<IdleLeap>,
    /// Never leap: every boundary is a real tick. Set only for the fully
    /// strobed reference that equivalence tests compare a leaping run with
    /// (`Cluster::new_fully_strobed`); not checkpointed.
    pub(crate) fully_strobed: bool,
    /// Number of idle fast-forward leaps taken.
    pub sim_leaps: u64,
    /// Total quiescent collect-period ticks skipped by fast-forward.
    pub sim_leaped_slices: u64,
}

/// An armed idle fast-forward: the MM tick chain has leaped over a run of
/// quiescent collect-period boundaries, parking its next `Tick` at the
/// upcoming heartbeat round (the MM row's `next_tick`), and the effects
/// of the skipped ticks are replayed lazily — when the next tick actually
/// fires, or at a `run_until` deadline that lands mid-gap (see DESIGN.md
/// §12).
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdleLeap {
    /// The real tick (a collect-period boundary) that armed the leap.
    pub from: SimTime,
    /// Boundary through which skipped-tick effects have been replayed.
    pub settled: SimTime,
    /// Logical pending-message count each skipped tick would observe.
    pub pending: u64,
    /// Matrix-utilisation sample each skipped tick would record.
    pub pct: Option<u64>,
}

impl World {
    /// Build the world for a validated configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        cfg.validate().expect("invalid cluster configuration");
        let qsnet = QsNetModel::for_nodes(cfg.nodes);
        let mut mech = match cfg.network {
            storm_net::NetworkKind::QsNet => Mechanisms::qsnet(cfg.nodes),
            other => Mechanisms::new(storm_mech::MechanismImpl::emulated(other), cfg.nodes),
        };
        // Install the schedule's probabilistic faults at the mechanism
        // layer; the timed events are posted by `Cluster::new`.
        mech.fault.xfer_error_prob = cfg.faults.xfer_error_prob;
        mech.fault.caw_drop_prob = cfg.faults.caw_drop_prob;
        mech.fault.bursts = cfg.faults.bursts.clone();
        let matrix = GangMatrix::new(cfg.nodes, cfg.mpl_max);
        World {
            qsnet,
            mech,
            jobs: Vec::new(),
            queue: VecDeque::new(),
            matrix,
            active_slot: 0,
            nodes: NodeTable::new(cfg.nodes),
            nm_rows: (0..cfg.nodes).map(|_| NmRow::new()).collect(),
            read_dev: Nic::new(),
            bcast_dev: Nic::new(),
            hb_var: None,
            hb_round: 0,
            mm_rows: (0..=cfg.mm_standbys).map(|_| MmRow::default()).collect(),
            mm_core: MmCoreState::default(),
            mm_replicas: vec![MmCoreState::default(); cfg.mm_standbys as usize + 1],
            mm_roles: {
                let mut r = vec![MmRole::Active];
                r.extend((0..cfg.mm_standbys).map(|_| MmRole::Standby));
                r
            },
            mm_active_rank: 0,
            mm_epoch: 0,
            mm_epoch_var: None,
            requeue_pending: Vec::new(),
            repl: ReplStats::default(),
            wiring: Wiring::new(&cfg),
            stats: ClusterStats::default(),
            telemetry: Telemetry::new(cfg.telemetry),
            cq: crate::cq::ContinuousQueries::new(),
            leap: None,
            fully_strobed: false,
            sim_leaps: 0,
            sim_leaped_slices: 0,
            cfg,
        }
    }

    /// Bump the telemetry counter `name` by one (single branch when
    /// telemetry is off).
    pub fn metric_inc(&mut self, name: &'static str) {
        self.telemetry.metrics.inc(name, 1);
    }

    /// Register a new job record; returns its id.
    pub fn register_job(&mut self, rec: JobRecord) -> JobId {
        let id = rec.id;
        assert_eq!(id.index(), self.jobs.len(), "job ids must be dense");
        self.jobs.push(rec);
        id
    }

    /// The one terminal transition: `job` ends in `state` at `now`. What
    /// only a live job needs goes with it — its matrix placement, its
    /// flow-control variable and its report sets — and it counts as
    /// completed. The workload and the transfer's chunk sizes stay:
    /// forks and fragments still in flight read them.
    pub(crate) fn finish_job(&mut self, job: JobId, state: JobState, now: SimTime) {
        debug_assert!(state.is_terminal());
        self.free_written_var(job);
        self.matrix.remove(job);
        let rec = &mut self.jobs[job.index()];
        if !rec.state.is_terminal() {
            self.stats.completed_jobs += 1;
        }
        rec.state = state;
        rec.metrics.completed = Some(now);
        if rec.metrics.app_done.is_none() {
            rec.metrics.app_done = rec.app_done_max;
        }
        rec.reported_started = ReportSet::default();
        rec.reported_done = ReportSet::default();
    }

    /// Return `job`'s flow-control variable, if it holds one, to global
    /// memory's free list.
    pub(crate) fn free_written_var(&mut self, job: JobId) {
        if let Some(var) = self.jobs[job.index()].transfer.written_var.take() {
            self.mech.memory.free_var(var);
        }
    }

    /// The live allocated jobs in job-id order: the gang matrix's
    /// placements, so walking them costs O(live jobs), not O(submitted).
    pub fn placed_jobs(&self) -> impl Iterator<Item = &JobRecord> + '_ {
        self.matrix.jobs().map(|job| self.job(job))
    }

    /// Job by id.
    pub fn job(&self, id: JobId) -> &JobRecord {
        &self.jobs[id.index()]
    }

    /// Mutable job by id.
    pub fn job_mut(&mut self, id: JobId) -> &mut JobRecord {
        &mut self.jobs[id.index()]
    }

    /// The point-to-point span an application message of `bytes` takes,
    /// including background-load stretching — used to cost the workloads'
    /// exchange phases.
    pub fn comm_span(&self, bytes: u64) -> SimSpan {
        if bytes == 0 {
            return SimSpan::ZERO;
        }
        let base = self.qsnet.ptp_span(bytes);
        if self.cfg.load.network > 0.0 {
            // Stretch only the bandwidth-proportional part.
            let data = SimSpan::for_bytes(bytes, self.qsnet.params.link_bw);
            let fixed = base.saturating_sub(data);
            fixed
                + SimSpan::for_bytes(
                    bytes,
                    self.cfg
                        .load
                        .effective_bw(self.qsnet.params.link_bw)
                        .max(1.0),
                )
        } else {
            base
        }
    }

    /// Evaluate every registered continuous query against the cluster
    /// state at a timeslice boundary (`slice` = MM tick counter). Called
    /// by the active MM's tick handler; a no-op single branch when no
    /// queries are registered, preserving the zero-cost contract.
    pub fn evaluate_continuous_queries(&mut self, slice: u64, now: SimTime) {
        if self.cq.is_empty() {
            return;
        }
        let failed_nodes = (0..self.cfg.nodes)
            .filter(|&n| self.nodes.is_failed(n))
            .count() as u32;
        let quarantined = self.matrix.quarantined_count();
        let sample = crate::cq::ClusterSample {
            slice,
            now,
            queue_depth: self.queue.len() as u64,
            quarantined,
            failed_nodes,
            alive_nodes: self.cfg.nodes.saturating_sub(failed_nodes + quarantined),
            running_jobs: self
                .placed_jobs()
                .filter(|j| j.state == JobState::Running)
                .count() as u32,
        };
        self.cq.evaluate(&sample, &mut self.telemetry.metrics);
    }

    /// The active Machine Manager's component: where NM reports and
    /// client submissions go.
    pub fn active_mm(&self) -> ComponentId {
        self.wiring.mm(self.mm_active_rank)
    }

    /// Is MM replication configured (any standby replicas)?
    pub fn repl_enabled(&self) -> bool {
        self.cfg.mm_standbys > 0
    }

    /// Are all jobs terminal and the queue empty (cluster idle)? O(1):
    /// `completed_jobs` counts the terminal jobs (the `job_accounting`
    /// invariant), and a job registered for a future submit is not
    /// terminal, so it keeps the MM's tick chain running until it is done.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.stats.completed_jobs == self.jobs.len() as u64
    }

    /// Idle in the strong sense fast-forward requires: nothing queued,
    /// every job terminal, and the gang matrix empty — a tick over this
    /// state draws no randomness, records no trace, and changes no stats.
    pub fn is_quiescent(&self) -> bool {
        self.is_idle() && self.matrix.job_count() == 0
    }

    /// Replay the per-tick work of skipped quiescent boundaries in
    /// `(leap.settled, upto]`, advancing the settled watermark. Counters
    /// and histogram observations accumulate; gauges need no replay (the
    /// skipped ticks would re-set the values they already hold); each
    /// boundary evaluates the continuous queries at its own instant and
    /// tick number, over a sample that is constant across the gap. Keeps
    /// the leap armed — the caller decides when to disarm.
    pub(crate) fn settle_leap_through(&mut self, upto: SimTime) {
        let Some(l) = self.leap else { return };
        let period = self.cfg.collect_period();
        let upto = upto.prev_boundary(period);
        if upto <= l.settled {
            return;
        }
        let k = upto.boundaries_since(l.settled, period);
        self.leap.as_mut().expect("armed").settled = upto;
        self.sim_leaps += 1;
        self.sim_leaped_slices += k;
        let m = &mut self.telemetry.metrics;
        m.inc("mm.ticks", k);
        m.inc("sim.time.leaps", 1);
        m.inc("sim.time.leaped_slices", k);
        for _ in 0..k {
            m.observe("engine.pending_messages_per_tick", l.pending);
            if let Some(p) = l.pct {
                m.observe("sched.matrix_utilization_pct", p);
            }
        }
        if !self.cq.is_empty() {
            // Leaps need fault detection, whose tick chain starts at 0 and
            // is realigned on promotion: boundary `b` is tick `b / period
            // + 1`.
            let first = l.settled.next_boundary(period);
            for at in (0..k).map(|i| first + period * i) {
                let slice = at.boundaries_since(SimTime::ZERO, period) + 1;
                self.evaluate_continuous_queries(slice, at);
            }
        }
    }

    /// Resolve an armed leap at a real tick firing at `fire`: replay every
    /// boundary strictly before `fire`, disarm, and return how many MM
    /// tick numbers the leap skipped (the MM adds them to its counter so
    /// heartbeat-round and quantum cadence stay aligned with an un-leaped
    /// run).
    pub(crate) fn take_leap(&mut self, fire: SimTime) -> u64 {
        let Some(l) = self.leap else { return 0 };
        let period = self.cfg.collect_period();
        self.settle_leap_through(fire - period);
        self.leap = None;
        fire.boundaries_since(l.from, period).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use storm_apps::AppSpec;

    #[test]
    fn world_builds_for_paper_cluster() {
        let w = World::new(ClusterConfig::paper_cluster());
        assert_eq!(w.nodes.len(), 64);
        assert_eq!(w.matrix.quarantined_count(), 0);
        assert_eq!(w.mech.memory.nodes(), 64);
        assert!(w.is_idle());
    }

    #[test]
    #[should_panic(expected = "invalid cluster configuration")]
    fn invalid_config_rejected() {
        World::new(ClusterConfig::paper_cluster().with_nodes(0));
    }

    #[test]
    fn job_registration_is_dense() {
        let mut w = World::new(ClusterConfig::paper_cluster());
        let a = w.register_job(JobRecord::new(
            JobId(0),
            JobSpec::new(AppSpec::do_nothing_mb(4), 4),
        ));
        let b = w.register_job(JobRecord::new(
            JobId(1),
            JobSpec::new(AppSpec::do_nothing_mb(8), 8),
        ));
        assert_eq!(a, JobId(0));
        assert_eq!(b, JobId(1));
        assert_eq!(w.job(b).spec.ranks, 8);
        w.job_mut(a).attempt = 3;
        assert_eq!(w.job(a).attempt, 3);
        assert!(!w.is_idle());
    }

    #[test]
    fn comm_span_stretches_under_network_load() {
        let quiet = World::new(ClusterConfig::paper_cluster());
        let loaded = World::new(
            ClusterConfig::paper_cluster().with_load(storm_net::BackgroundLoad::network_loaded()),
        );
        let b = 1_000_000;
        assert!(loaded.comm_span(b) > quiet.comm_span(b).mul_f64(5.0));
        assert_eq!(quiet.comm_span(0), SimSpan::ZERO);
    }

    #[test]
    fn nm_targets_address_the_wired_nms_in_set_order() {
        // The real layout: NMs at a fixed component stride, PLs between.
        let cluster = crate::cluster::Cluster::new(ClusterConfig::paper_cluster().with_nodes(8));
        let wiring = &cluster.world().wiring;
        let sets = [
            NodeSet::All(8),
            NodeSet::Range { start: 2, len: 5 },
            NodeSet::List(vec![NodeId(6), NodeId(0), NodeId(3)]),
        ];
        for set in &sets {
            let targets = wiring.nm_targets(set);
            assert_eq!(targets.len(), set.len(), "{set:?}");
            for r in 0..set.len() {
                assert_eq!(
                    targets.get(r),
                    wiring.nm(set.get(r).0),
                    "{set:?} member {r}"
                );
            }
        }
    }

    #[test]
    fn every_id_names_the_daemon_registered_there() {
        let cfg = ClusterConfig::paper_cluster()
            .with_nodes(3)
            .with_mm_standbys(2);
        let wiring = World::new(cfg).wiring;
        // 4 CPUs × MPL 2: each node is an NM and 8 PLs, ids 1..=27.
        let mut want = vec![Daemon::Mm(0)];
        for node in (0..3).map(NodeId) {
            want.push(Daemon::Nm(node));
            want.extend((0..8).map(|index| Daemon::Pl { node, index }));
        }
        want.extend([Daemon::Mm(1), Daemon::Mm(2)]);
        let ids = (0..=want.len() as u32).map(ComponentId::from_index);
        let got: Vec<_> = ids.map(|id| wiring.daemon(id)).collect();
        assert_eq!(
            got[..want.len()],
            want.iter().map(|&d| Some(d)).collect::<Vec<_>>()
        );
        assert_eq!(got[want.len()], None, "past the last standby");
        for (ix, d) in (0u32..).zip(&want) {
            let id = ComponentId::from_index(ix);
            match *d {
                Daemon::Mm(rank) => assert_eq!(wiring.mm(rank), id),
                Daemon::Nm(node) => {
                    assert_eq!(wiring.nm(node.0), id);
                    assert_eq!(wiring.nm_node(id), node);
                }
                Daemon::Pl { node, index } => assert_eq!(wiring.pl(node.0, index), id),
            }
        }
    }
}
