//! The shared world: everything the dæmons can observe and mutate besides
//! their own private state — job records, the gang matrix, the mechanism
//! layer (global memory), the network/filesystem devices, and counters.

use crate::config::ClusterConfig;
use crate::job::{JobId, JobRecord};
use crate::matrix::GangMatrix;
use crate::replica::{MmCoreState, MmRole, ReplStats, ReplicaState};
use std::collections::VecDeque;
use std::sync::Arc;
use storm_mech::{Mechanisms, NodeSet};
use storm_net::{Nic, QsNetModel};
use storm_sim::{ComponentId, GroupTargets, SimSpan, SimTime};
use storm_telemetry::Telemetry;

/// Component wiring: where each dæmon lives in the simulation.
#[derive(Debug, Clone, Default)]
pub struct Wiring {
    /// The *currently active* Machine Manager (repointed on failover).
    pub mm: Option<ComponentId>,
    /// Every MM replica, indexed by rank; `mms[0]` is the primary.
    pub mms: Vec<ComponentId>,
    /// One Node Manager per node.
    pub nms: Vec<ComponentId>,
    /// Program Launchers per node (`cpus_per_node × mpl_max` each).
    pub pls: Vec<Vec<ComponentId>>,
}

impl Wiring {
    /// The [`GroupTargets`] addressing the NMs of a node set, in ascending
    /// node order. `Cluster::new` lays NMs out at a fixed component-id
    /// stride, so `All`/`Range` sets need no per-member allocation at all;
    /// `List` sets (fault-detection survivors) materialise a shared slice.
    pub fn nm_targets(&self, set: &NodeSet) -> GroupTargets {
        let stride = if self.nms.len() >= 2 {
            u32::try_from(self.nms[1].index() - self.nms[0].index()).expect("nm stride")
        } else {
            1
        };
        match *set {
            NodeSet::All(n) => {
                debug_assert_eq!(n as usize, self.nms.len());
                GroupTargets::Strided {
                    first: self.nms[0],
                    stride,
                    len: n,
                }
            }
            NodeSet::Range { start, len } => GroupTargets::Strided {
                first: self.nms[start as usize],
                stride,
                len,
            },
            NodeSet::List(ref v) => {
                let ids: Arc<[ComponentId]> = v.iter().map(|n| self.nms[n.index()]).collect();
                GroupTargets::List(ids)
            }
        }
    }
}

/// Struct-of-arrays per-node health state: failure flags and failure
/// instants in parallel dense arrays keyed by node index. Quarantine is
/// not here: the gang matrix owns it (see [`GangMatrix::is_quarantined`]).
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
    /// The management node's filesystem read device (serialises reads).
    pub read_dev: Nic,
    /// The source NIC + helper process (serialises broadcasts).
    pub bcast_dev: Nic,
    /// Fault-detection heartbeat counter variable, when enabled.
    pub hb_var: Option<storm_mech::VarId>,
    /// Current heartbeat round.
    pub hb_round: i64,
    /// The active MM's authoritative mirror of its replicated private
    /// state. Maintained only when standbys are configured.
    pub mm_core: MmCoreState,
    /// Per-rank standby replica state (entry 0, the primary, is unused).
    pub mm_replicas: Vec<ReplicaState>,
    /// Per-rank MM roles. Always length `mm_standbys + 1`.
    pub mm_roles: Vec<MmRole>,
    /// Per-rank MM failure flags (injected `MmFail`).
    pub mm_failed: Vec<bool>,
    /// When each MM replica's failure was injected.
    pub mm_failed_at: Vec<Option<SimTime>>,
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
    /// Number of idle fast-forward leaps taken.
    pub sim_leaps: u64,
    /// Total quiescent collect-period ticks skipped by fast-forward.
    pub sim_leaped_slices: u64,
}

/// An armed idle fast-forward: the MM tick chain has leaped over a run of
/// quiescent collect-period boundaries, parking its next `Tick` just
/// before the upcoming heartbeat round, and the arithmetic effects of the
/// skipped ticks are replayed lazily — when the next tick actually fires,
/// or at a `run_until` deadline that lands mid-gap (see DESIGN.md §12).
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdleLeap {
    /// The real tick (a collect-period boundary) that armed the leap.
    pub from: SimTime,
    /// When the parked `Tick` event fires. Lowered when a mid-gap message
    /// (e.g. a submit) re-densifies the chain; the superseded far tick is
    /// deduplicated by the MM when it eventually pops.
    pub parked: SimTime,
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
            read_dev: Nic::new(),
            bcast_dev: Nic::new(),
            hb_var: None,
            hb_round: 0,
            mm_core: MmCoreState::default(),
            mm_replicas: (0..=cfg.mm_standbys)
                .map(|_| ReplicaState::default())
                .collect(),
            mm_roles: {
                let mut r = vec![MmRole::Active];
                r.extend((0..cfg.mm_standbys).map(|_| MmRole::Standby));
                r
            },
            mm_failed: vec![false; cfg.mm_standbys as usize + 1],
            mm_failed_at: vec![None; cfg.mm_standbys as usize + 1],
            mm_active_rank: 0,
            mm_epoch: 0,
            mm_epoch_var: None,
            requeue_pending: Vec::new(),
            repl: ReplStats::default(),
            wiring: Wiring::default(),
            stats: ClusterStats::default(),
            telemetry: Telemetry::new(cfg.telemetry),
            cq: crate::cq::ContinuousQueries::new(),
            leap: None,
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
                .jobs
                .iter()
                .filter(|j| j.state == crate::job::JobState::Running)
                .count() as u32,
        };
        self.cq.evaluate(&sample, &mut self.telemetry.metrics);
    }

    /// Is MM replication configured (any standby replicas)?
    pub fn repl_enabled(&self) -> bool {
        self.cfg.mm_standbys > 0
    }

    /// Are all jobs terminal and the queue empty (cluster idle)?
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.jobs.iter().all(|j| j.state.is_terminal())
    }

    /// Idle in the strong sense fast-forward requires: nothing queued,
    /// every job terminal, and the gang matrix empty — a tick over this
    /// state draws no randomness, records no trace, and changes no stats.
    pub fn is_quiescent(&self) -> bool {
        self.is_idle() && self.matrix.job_count() == 0
    }

    /// Replay the per-tick arithmetic of skipped quiescent boundaries in
    /// `(leap.settled, upto]`, advancing the settled watermark. Counters
    /// and histogram observations accumulate; gauges need no replay (the
    /// skipped ticks would re-set the values they already hold). Keeps the
    /// leap armed — the caller decides when to disarm.
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
    use storm_mech::NodeId;

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
        w.job_mut(a).start_reports = 3;
        assert_eq!(w.job(a).start_reports, 3);
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
                    wiring.nms[set.get(r).index()],
                    "{set:?} member {r}"
                );
            }
        }
    }
}
