//! Cluster configuration, with defaults matching the paper's testbed
//! (Table 3: 64 × AlphaServer ES40, 4 CPUs/node, QsNET with QM-400 Elan3
//! NICs, RAM-disk filesystem) and the protocol parameters found optimal in
//! §3.3.1 (512 KB chunks × 4 receive-queue slots, 1 ms timeslice for the
//! launch experiments).

use crate::fault::{FailurePolicy, FaultSchedule};
use storm_fs::FsKind;
use storm_net::{BackgroundLoad, BufferPlacement, NetworkKind};
use storm_sim::{DeliveryOrder, SimSpan};

/// Which queueing/scheduling policy the MM runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// Gang scheduling with the Ousterhout matrix (the paper's focus).
    #[default]
    Gang,
    /// FCFS batch: one job at a time per node set, no time sharing.
    Batch,
    /// EASY backfilling: FCFS plus a reservation for the queue head;
    /// later jobs may jump only if they cannot delay the head.
    Backfill,
    /// Implicit coscheduling (Arpaci-Dusseau): no coordinated context
    /// switch — each node's local scheduler timeshares its resident ranks
    /// independently and communication uses spin-block, so ranks *drift
    /// into* coscheduling through message arrivals. Cheap (no global
    /// switches) but fine-grained communication pays a descheduled-peer
    /// penalty; see [`DaemonCosts::ics_local_quantum`].
    ImplicitCosched,
}

/// Calibrated dæmon/OS cost constants. All provenance is the paper unless
/// stated; see DESIGN.md §5 for the calibration table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaemonCosts {
    /// NM processing time per timeslice strobe (runs on a spare CPU of the
    /// 4-way SMP, so it does not steal application time — but it bounds the
    /// usable quantum: §3.2.1 reports the scheduler melts down below
    /// ≈ 300 µs because "the NM cannot process the incoming control messages
    /// at the rate they arrive").
    pub nm_strobe_service: SimSpan,
    /// Application-visible cost of one coordinated context switch (preempt
    /// plus resume of resident processes; caches are largely unaffected
    /// for SWEEP3D, per the paper's footnote 4).
    pub switch_overhead: SimSpan,
    /// NM service time per ordinary control message (fragment header,
    /// launch command).
    pub nm_msg_service: SimSpan,
    /// Mean `fork()+exec` time for one rank.
    pub fork_base: SimSpan,
    /// Log-normal sigma of per-rank fork/OS noise (drives the execute-time
    /// growth with PE count in Fig. 2).
    pub fork_sigma: f64,
    /// Host "lightweight helper process" bandwidth: it services NIC TLB
    /// misses and file accesses, serialising with the broadcast and
    /// accounting for the gap between the 175 MB/s pipeline bound and the
    /// observed 131 MB/s protocol bandwidth (§3.3.1).
    pub helper_bw: f64,
    /// Fixed per-chunk protocol cost (interrupt, event signalling,
    /// flow-control check).
    pub chunk_fixed: SimSpan,
    /// Extra per-chunk cost per receive-queue slot beyond 4 (NIC virtual-
    /// memory TLB misses; §3.3.1: "increasing the number of slots …
    /// generates more TLB misses").
    pub tlb_per_extra_slot: SimSpan,
    /// Interval between COMPARE-AND-WRITE flow-control polls when the MM is
    /// blocked waiting for a free remote slot.
    pub caw_poll: SimSpan,
    /// Log-normal sigma of per-node, per-chunk write-time noise (what the
    /// multi-buffering absorbs).
    pub write_sigma: f64,
    /// Service time for a PL to notice its child exited and notify the NM.
    pub exit_detect: SimSpan,
    /// Mean of the exponential per-node OS scheduling delay incurred each
    /// time a dæmon must wake up to act (launch command, report flush).
    /// The max over nodes of this noise is what makes execute time grow
    /// with the PE count in Fig. 2 ("skew caused by local operating system
    /// scheduling effects").
    pub os_delay_mean: SimSpan,
    /// MM service time per received NM report.
    pub mm_report_service: SimSpan,
    /// Local OS scheduler quantum used by the implicit-coscheduling model:
    /// when a rank reaches an exchange whose peer is descheduled, it
    /// spin-blocks and waits on average a fraction of this quantum for the
    /// peer to be scheduled again.
    pub ics_local_quantum: SimSpan,
}

impl Default for DaemonCosts {
    fn default() -> Self {
        DaemonCosts {
            nm_strobe_service: SimSpan::from_micros(280),
            switch_overhead: SimSpan::from_micros(5),
            nm_msg_service: SimSpan::from_micros(30),
            fork_base: SimSpan::from_micros(900),
            fork_sigma: 0.35,
            helper_bw: 560.0e6,
            chunk_fixed: SimSpan::from_micros(20),
            tlb_per_extra_slot: SimSpan::from_micros(8),
            caw_poll: SimSpan::from_micros(50),
            write_sigma: 0.10,
            exit_detect: SimSpan::from_micros(60),
            os_delay_mean: SimSpan::from_micros(1200),
            mm_report_service: SimSpan::from_micros(20),
            ics_local_quantum: SimSpan::from_millis(10),
        }
    }
}

/// The most dæmons (MMs, NMs and PLs) a cluster may register, checked by
/// [`ClusterConfig::validate`] before anything is allocated. It leaves
/// room for the 1M-node envelope at 4 CPUs and MPL 2 (9M dæmons).
pub const MAX_DAEMONS: u64 = 1 << 24;

/// Full configuration of a simulated STORM cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Compute nodes.
    pub nodes: u32,
    /// CPUs (PEs) per node — 4 on the ES40.
    pub cpus_per_node: u32,
    /// Timeslice quantum: the MM issues commands, strobes context switches
    /// and collects events at this granularity.
    pub timeslice: SimSpan,
    /// Upper bound on the event-collection interval: with multi-second
    /// quanta the MM still collects reports at this cadence so launch /
    /// termination latency stays bounded (§3.2.1's "slight increase …
    /// toward the higher values").
    pub max_event_collect: SimSpan,
    /// Maximum multiprogramming level (matrix time slots).
    pub mpl_max: usize,
    /// Transfer chunk ("fragment") size in bytes.
    pub chunk_bytes: u64,
    /// Remote receive-queue depth (multi-buffering slots).
    pub queue_slots: u32,
    /// Filesystem holding binaries on the management node.
    pub fs: FsKind,
    /// Buffer placement for the read/broadcast pipeline.
    pub placement: BufferPlacement,
    /// Interconnect.
    pub network: NetworkKind,
    /// Background load (Fig. 3 scenarios).
    pub load: BackgroundLoad,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Enable periodic heartbeat fault detection (keeps the MM ticking
    /// forever; run such clusters with a deadline, not `run_until_idle`).
    pub fault_detection: bool,
    /// Heartbeat period multiplier: fault round every `k` ticks.
    pub heartbeat_every: u32,
    /// Deterministic fault schedule to inject into the run (crashes,
    /// rejoins, stalls, error bursts). Empty by default.
    pub faults: FaultSchedule,
    /// What the MM does with jobs lost to a detected node failure.
    pub failure_policy: FailurePolicy,
    /// Number of standby MM replicas (0 = the classic single-MM cluster).
    /// Standbys follow the active MM's decision log (plus periodic
    /// checkpoints of its position), and the lowest surviving rank
    /// promotes itself when the active MM's beats stop, reading the
    /// scheduling state from the world. A fault-free run with
    /// standbys configured is byte-identical (trace, stats, jobs) to a
    /// standby-free run.
    pub mm_standbys: u32,
    /// Record telemetry (metrics registry + per-job lifecycle spans).
    /// Off by default: recording is synchronous bookkeeping inside
    /// existing handlers, so enabling it never changes event counts, the
    /// trace, or the RNG stream — but the zero-cost default keeps the
    /// hot paths at a single branch.
    pub telemetry: bool,
    /// Deterministic-simulation-testing hook: permute same-timestamp event
    /// delivery (and optionally add bounded delivery delay) under the
    /// hook's own seeded stream. `None` — the default — keeps the engine's
    /// classic `(time, seq)` order bit-identical; the hook is installed on
    /// the event queue before the first event is posted, so a `Some(_)`
    /// run keys every insertion of the simulation's lifetime. See
    /// DESIGN.md §14.
    pub delivery_order: Option<DeliveryOrder>,
    /// Dæmon cost constants.
    pub daemon: DaemonCosts,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::paper_cluster()
    }
}

impl ClusterConfig {
    /// The paper's evaluation cluster: 64 ES40 nodes × 4 CPUs, QsNET,
    /// RAM disk, main-memory buffers, 512 KB × 4-slot transfer protocol,
    /// 1 ms timeslice (the launch-experiment setting), gang scheduling,
    /// MPL ≤ 2.
    pub fn paper_cluster() -> Self {
        ClusterConfig {
            nodes: 64,
            cpus_per_node: 4,
            timeslice: SimSpan::from_millis(1),
            max_event_collect: SimSpan::from_millis(100),
            mpl_max: 2,
            chunk_bytes: 512 * 1024,
            queue_slots: 4,
            fs: FsKind::RamDisk,
            placement: BufferPlacement::MainMemory,
            network: NetworkKind::QsNet,
            load: BackgroundLoad::NONE,
            scheduler: SchedulerKind::Gang,
            fault_detection: false,
            heartbeat_every: 8,
            faults: FaultSchedule::default(),
            failure_policy: FailurePolicy::default(),
            mm_standbys: 0,
            telemetry: false,
            delivery_order: None,
            daemon: DaemonCosts::default(),
            seed: 0x5702_2002,
        }
    }

    /// The §3.2 gang-scheduling configuration: 32 nodes / 64 PEs
    /// (2 ranks per node), 50 ms quantum.
    pub fn gang_cluster() -> Self {
        ClusterConfig {
            nodes: 32,
            timeslice: SimSpan::from_millis(50),
            ..ClusterConfig::paper_cluster()
        }
    }

    /// Builder: node count.
    pub fn with_nodes(mut self, nodes: u32) -> Self {
        self.nodes = nodes;
        self
    }

    /// Builder: timeslice quantum.
    pub fn with_timeslice(mut self, q: SimSpan) -> Self {
        self.timeslice = q;
        self
    }

    /// Builder: background load.
    pub fn with_load(mut self, load: BackgroundLoad) -> Self {
        self.load = load;
        self
    }

    /// Builder: chunk size and slot count (the Fig. 8 sweep).
    pub fn with_transfer_protocol(mut self, chunk_bytes: u64, slots: u32) -> Self {
        self.chunk_bytes = chunk_bytes;
        self.queue_slots = slots;
        self
    }

    /// Builder: RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: scheduling policy.
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }

    /// Builder: install a deterministic fault schedule. When the schedule
    /// contains crash/rejoin/stall events, heartbeat fault detection is
    /// enabled automatically (it is what notices and heals them); pure
    /// error-probability schedules leave it as configured.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        if !faults.events.is_empty() {
            self.fault_detection = true;
        }
        self.faults = faults;
        self
    }

    /// Builder: failure-recovery policy.
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// Builder: configure `n` standby MM replicas.
    pub fn with_mm_standbys(mut self, n: u32) -> Self {
        self.mm_standbys = n;
        self
    }

    /// Builder: toggle telemetry recording (metrics + lifecycle spans).
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Builder: install a DST delivery-order hook (same-timestamp
    /// permutation under the hook's own seed). The default `None` keeps
    /// the classic `(time, seq)` order bit-identical.
    pub fn with_delivery_order(mut self, order: DeliveryOrder) -> Self {
        self.delivery_order = Some(order);
        self
    }

    /// Builder: enable heartbeat fault detection with a fault round every
    /// `every` ticks.
    pub fn with_fault_detection(mut self, every: u32) -> Self {
        assert!(every > 0, "heartbeat_every must be ≥ 1");
        self.fault_detection = true;
        self.heartbeat_every = every;
        self
    }

    /// Total PEs.
    pub fn total_pes(&self) -> u32 {
        self.nodes * self.cpus_per_node
    }

    /// The event-collection period: `min(timeslice, max_event_collect)`.
    pub fn collect_period(&self) -> SimSpan {
        self.timeslice.min(self.max_event_collect)
    }

    /// Whether the configured quantum is below the NM's strobe-processing
    /// floor (the §3.2.1 meltdown regime, ≈ 300 µs on the paper's cluster).
    pub fn quantum_infeasible(&self) -> bool {
        self.timeslice < self.daemon.nm_strobe_service
    }

    /// Validate ranges and cross-field constraints.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("nodes must be ≥ 1".into());
        }
        if self.cpus_per_node == 0 {
            return Err("cpus_per_node must be ≥ 1".into());
        }
        if self.timeslice.is_zero() {
            return Err("timeslice must be positive".into());
        }
        if self.max_event_collect.is_zero() {
            return Err("max_event_collect must be positive".into());
        }
        if self.chunk_bytes == 0 {
            return Err("chunk_bytes must be positive".into());
        }
        if self.queue_slots < 2 {
            return Err("queue_slots must be ≥ 2 (double buffering)".into());
        }
        if self.mpl_max == 0 {
            return Err("mpl_max must be ≥ 1".into());
        }
        if self.heartbeat_every == 0 {
            return Err("heartbeat_every must be ≥ 1".into());
        }
        // The primary MM, per node an NM and its PLs, then the standbys.
        let daemons = u64::try_from(self.mpl_max)
            .ok()
            .and_then(|mpl| mpl.checked_mul(u64::from(self.cpus_per_node)))
            .and_then(|pls| (pls + 1).checked_mul(u64::from(self.nodes)))
            .and_then(|wired| wired.checked_add(u64::from(self.mm_standbys) + 1));
        if daemons.is_none_or(|n| n > MAX_DAEMONS) {
            return Err(format!(
                "{} nodes × (1 NM + {} CPUs × MPL {} PLs) + {} MMs is more than the {MAX_DAEMONS} \
                 dæmons a cluster may have",
                self.nodes,
                self.cpus_per_node,
                self.mpl_max,
                u64::from(self.mm_standbys) + 1
            ));
        }
        self.faults
            .validate(self.nodes, self.mm_standbys.saturating_add(1))?;
        self.load.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_matches_table3() {
        let c = ClusterConfig::paper_cluster();
        assert_eq!(c.nodes, 64);
        assert_eq!(c.cpus_per_node, 4);
        assert_eq!(c.total_pes(), 256);
        assert_eq!(c.chunk_bytes, 512 * 1024);
        assert_eq!(c.queue_slots, 4);
        assert_eq!(c.fs, FsKind::RamDisk);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn gang_cluster_matches_section_32() {
        let c = ClusterConfig::gang_cluster();
        assert_eq!(c.nodes, 32);
        assert_eq!(c.timeslice, SimSpan::from_millis(50));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let c = ClusterConfig::paper_cluster()
            .with_nodes(16)
            .with_timeslice(SimSpan::from_millis(2))
            .with_transfer_protocol(64 * 1024, 8)
            .with_seed(7)
            .with_scheduler(SchedulerKind::Backfill);
        assert_eq!(c.nodes, 16);
        assert_eq!(c.chunk_bytes, 64 * 1024);
        assert_eq!(c.queue_slots, 8);
        assert_eq!(c.seed, 7);
        assert_eq!(c.scheduler, SchedulerKind::Backfill);
    }

    #[test]
    fn collect_period_is_capped() {
        let mut c = ClusterConfig::paper_cluster();
        c.timeslice = SimSpan::from_secs(8);
        assert_eq!(c.collect_period(), SimSpan::from_millis(100));
        c.timeslice = SimSpan::from_millis(2);
        assert_eq!(c.collect_period(), SimSpan::from_millis(2));
    }

    #[test]
    fn quantum_feasibility_floor() {
        let mut c = ClusterConfig::paper_cluster();
        c.timeslice = SimSpan::from_micros(100);
        assert!(c.quantum_infeasible());
        c.timeslice = SimSpan::from_micros(300);
        assert!(!c.quantum_infeasible());
    }

    #[test]
    fn with_faults_enables_detection_for_event_schedules() {
        use storm_sim::SimTime;
        let c = ClusterConfig::paper_cluster()
            .with_faults(FaultSchedule::new().crash(SimTime::from_millis(20), 3));
        assert!(c.fault_detection, "crash schedules need the heartbeat loop");
        assert!(c.validate().is_ok());
        let c =
            ClusterConfig::paper_cluster().with_faults(FaultSchedule::new().with_xfer_errors(0.1));
        assert!(!c.fault_detection, "pure error probabilities do not");
        let c = ClusterConfig::paper_cluster()
            .with_failure_policy(FailurePolicy::requeue())
            .with_fault_detection(4);
        assert!(c.fault_detection);
        assert_eq!(c.heartbeat_every, 4);
        assert_eq!(c.failure_policy, FailurePolicy::requeue());
    }

    #[test]
    fn validation_rejects_bad_fault_schedules() {
        let mut c = ClusterConfig::paper_cluster();
        c.faults = FaultSchedule::new().crash(storm_sim::SimTime::ZERO, 99);
        assert!(c.validate().is_err(), "crash beyond the node range");
        let mut c = ClusterConfig::paper_cluster();
        c.faults = FaultSchedule::new().with_xfer_errors(1.5);
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::paper_cluster();
        c.heartbeat_every = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_nonsense() {
        let base = ClusterConfig::paper_cluster();
        assert!(base.clone().with_nodes(0).validate().is_err());
        let mut c = base.clone();
        c.queue_slots = 1;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.chunk_bytes = 0;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.timeslice = SimSpan::ZERO;
        assert!(c.validate().is_err());
        let mut c = base.clone();
        c.max_event_collect = SimSpan::ZERO;
        assert_eq!(
            c.validate(),
            Err("max_event_collect must be positive".into()),
            "a zero collect period would tick the MM at no interval"
        );
        let mut c = base;
        c.load = BackgroundLoad {
            cpu: 2.0,
            network: 0.0,
        };
        assert!(c.validate().is_err());
    }
}
