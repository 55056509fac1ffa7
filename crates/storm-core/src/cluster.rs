//! Cluster assembly and the user-facing API.
//!
//! [`Cluster`] wires a complete simulated machine — one Machine Manager,
//! one Node Manager per node, and `cpus × mpl` Program Launchers per node —
//! around a [`World`], then exposes submit/run/inspect operations. This is
//! the entry point all examples, integration tests and benches use.

use crate::config::ClusterConfig;
use crate::fault::FaultEvent;
use crate::job::{JobId, JobRecord, JobSpec, JobState};
use crate::mm::MachineManager;
use crate::msg::Msg;
use crate::nm::NodeManager;
use crate::pl::ProgramLauncher;
use crate::world::World;
use storm_sim::{QueueBackend, QueueStats, SimSpan, SimTime, Simulation};

/// A fully-wired simulated STORM cluster.
pub struct Cluster {
    sim: Simulation<World, Msg>,
    next_job: u32,
}

impl Cluster {
    /// Build a cluster for `cfg` (validated).
    pub fn new(cfg: ClusterConfig) -> Self {
        let seed = cfg.seed;
        let world = World::new(cfg);
        let cfg = world.cfg.clone();
        // Wheel buckets sized to a fraction of the strobe/collect period,
        // so a periodic tick advances the cursor a handful of buckets.
        let mut sim = Simulation::new_with_backend(
            world,
            seed,
            QueueBackend::Wheel,
            SimSpan::from_nanos(cfg.collect_period().as_nanos() / 64),
        );
        // The DST delivery-order hook must be live before the first event
        // is posted so every insertion of the run is keyed (which is what
        // makes a seeded run regenerable as an explicit tie script).
        sim.set_delivery_order(cfg.delivery_order.clone());
        // Register the dæmons in the order `Wiring` computes their ids
        // from. NMs and PLs are zero-sized, so their boxes allocate nothing.
        let wiring = sim.world().wiring;
        sim.reserve_components(
            (1 + cfg.nodes * (1 + wiring.pls_per_node()) + cfg.mm_standbys) as usize,
        );
        // Fault detection runs the MM's tick chain from t = 0.
        let first_tick = cfg.fault_detection.then_some(SimTime::ZERO);
        let mm = sim.add_component(MachineManager);
        for node in 0..cfg.nodes {
            let nm = sim.add_component(NodeManager);
            debug_assert_eq!(nm, wiring.nm(node));
            for _ in 0..wiring.pls_per_node() {
                sim.add_component(ProgramLauncher);
            }
        }
        // Standby MM replicas are appended *after* every NM and PL so that a
        // standby-free cluster's component ids are untouched — one of the two
        // levers behind the byte-identity guarantee for fault-free runs.
        for rank in 1..=cfg.mm_standbys {
            let standby = sim.add_component(MachineManager);
            debug_assert_eq!(standby, wiring.mm(rank));
        }
        if cfg.mm_standbys > 0 {
            // Allocate the epoch fence variable eagerly so the promotion
            // path never has to mutate the memory layout mid-run.
            let w = sim.world_mut();
            w.mm_epoch_var = Some(w.mech.memory.alloc_var(0));
        }
        // The heartbeat loop starts with the first tick, and every
        // standby's watchdog is armed alongside it.
        if let Some(at) = first_tick {
            sim.world_mut().mm_rows[0].next_tick = Some(at);
            sim.post(at, mm, Msg::Tick);
            for rank in 1..=cfg.mm_standbys {
                sim.post(at, wiring.mm(rank), Msg::MmWatchdog);
            }
        }
        // Post the fault schedule's timed events (the probabilistic faults
        // were installed in the mechanism layer by `World::new`).
        let mut cluster = Cluster { sim, next_job: 0 };
        for ev in &cfg.faults.events {
            cluster.inject(ev);
        }
        cluster
    }

    /// A cluster whose MM never leaps an idle gap, so every boundary is a
    /// real tick: the fully strobed reference that equivalence tests
    /// compare a leaping run with. The setting is not checkpointed; a
    /// checkpoint of this cluster restores into one that leaps.
    #[doc(hidden)]
    pub fn new_fully_strobed(cfg: ClusterConfig) -> Self {
        let mut cluster = Cluster::new(cfg);
        cluster.sim.world_mut().fully_strobed = true;
        cluster
    }

    /// Post a timed fault's message to the dæmon it names — the one path
    /// from a [`FaultEvent`] into the simulation, for the configured
    /// schedule and the `*_at` methods alike. The event's node or rank
    /// must exist.
    fn inject(&mut self, ev: &FaultEvent) {
        let wiring = &self.sim.world().wiring;
        let (at, target, msg) = match *ev {
            FaultEvent::Crash { at, node } => (at, wiring.nm(node), Msg::FailNode),
            FaultEvent::Rejoin { at, node } => (at, wiring.nm(node), Msg::RejoinNode),
            FaultEvent::Stall { from, until, node } => {
                (from, wiring.nm(node), Msg::StallNode { until })
            }
            FaultEvent::MmCrash { at, rank } => (at, wiring.mm(rank), Msg::MmFail),
        };
        self.sim.post(at, target, msg);
    }

    /// Enable trace recording (renderable via [`Cluster::trace`]).
    pub fn enable_tracing(&mut self) {
        self.sim.enable_tracing();
    }

    /// Enable trace recording with a record cap: once `capacity` records
    /// are held, further ones are counted as dropped instead of stored —
    /// bounding memory on long instrumented runs.
    pub fn enable_tracing_with_capacity(&mut self, capacity: usize) {
        self.sim.enable_tracing_with_capacity(capacity);
    }

    /// The rendered event trace (empty unless tracing was enabled).
    pub fn trace(&self) -> String {
        self.sim.tracer().render()
    }

    /// The telemetry sink (metrics registry + job spans). Disabled — and
    /// empty — unless the config set
    /// [`with_telemetry(true)`](ClusterConfig::with_telemetry).
    pub fn telemetry(&self) -> &storm_telemetry::Telemetry {
        &self.sim.world().telemetry
    }

    /// A deterministic snapshot of every registered metric.
    pub fn metrics_snapshot(&self) -> storm_telemetry::MetricsSnapshot {
        self.telemetry().metrics.snapshot()
    }

    /// The per-job lifecycle spans collected so far (completed jobs only).
    pub fn job_spans(&self) -> &[storm_telemetry::JobSpan] {
        self.telemetry().spans.spans()
    }

    /// Register a named continuous query, evaluated at every timeslice
    /// boundary from the next MM tick on (see [`crate::cq`]). Firings
    /// append to the bounded alert log ([`Cluster::alerts`]) and bump the
    /// labelled `cq.alerts` telemetry counter.
    pub fn register_query(&mut self, name: impl Into<String>, cond: crate::cq::Condition) {
        self.sim.world_mut().cq.register(name, cond);
    }

    /// The continuous-query alert log, oldest first.
    pub fn alerts(&self) -> &[crate::cq::Alert] {
        self.sim.world().cq.alerts()
    }

    /// The continuous-query registry (queries, firing counts, log bound).
    pub fn continuous_queries(&self) -> &crate::cq::ContinuousQueries {
        &self.sim.world().cq
    }

    /// A Chrome trace-event JSON document combining the simulator trace
    /// (instant events per dæmon) with the job lifecycle spans (complete
    /// events per job) — loadable in `chrome://tracing` or Perfetto.
    /// Enable both tracing and telemetry to populate both track families.
    pub fn chrome_trace(&self) -> String {
        storm_telemetry::chrome_trace(self.sim.tracer().records(), self.job_spans())
    }

    fn mm(&self) -> storm_sim::ComponentId {
        self.sim.world().active_mm()
    }

    /// The underlying simulation (checkpoint codec access).
    pub(crate) fn sim(&self) -> &Simulation<World, Msg> {
        &self.sim
    }

    /// Mutable simulation access (checkpoint codec access).
    pub(crate) fn sim_mut(&mut self) -> &mut Simulation<World, Msg> {
        &mut self.sim
    }

    /// The next job id to hand out (checkpoint codec access).
    pub(crate) fn next_job_counter(&self) -> u32 {
        self.next_job
    }

    /// Overwrite the job-id counter (checkpoint codec access).
    pub(crate) fn set_next_job_counter(&mut self, n: u32) {
        self.next_job = n;
    }

    /// Submit a job at the current simulated time. Panics where
    /// [`Cluster::try_submit_at`] refuses the job.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let now = self.sim.now();
        self.submit_at(now, spec)
    }

    /// Submit a job at a future instant. Panics where
    /// [`Cluster::try_submit_at`] refuses the job.
    pub fn submit_at(&mut self, at: SimTime, spec: JobSpec) -> JobId {
        self.try_submit_at(at, spec)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Submit a job at a future instant, or refuse one no slot of the gang
    /// matrix could ever hold. Each slot's buddy allocator places a job in
    /// an aligned block of a power-of-two node count, so a job needing 3
    /// nodes takes a 4-node block and fits no 3-node cluster.
    pub fn try_submit_at(&mut self, at: SimTime, spec: JobSpec) -> Result<JobId, String> {
        let cfg = &self.sim.world().cfg;
        let needed = spec.nodes_needed(cfg.cpus_per_node);
        if needed > cfg.nodes {
            return Err(format!(
                "job needs more nodes than the cluster has ({needed} of {})",
                cfg.nodes
            ));
        }
        match needed.checked_next_power_of_two() {
            Some(block) if block <= cfg.nodes => {}
            block => {
                return Err(format!(
                    "job needs a block of {} nodes for its {needed}, more nodes than the cluster \
                     has ({})",
                    block.map_or(1 << 32, u64::from),
                    cfg.nodes
                ))
            }
        }
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.sim.world_mut().register_job(JobRecord::new(id, spec));
        let mm = self.mm();
        self.sim.post(at, mm, Msg::Submit(id));
        Ok(id)
    }

    /// Kill a job at `at` (how the endless hog programs are stopped).
    pub fn kill_at(&mut self, at: SimTime, job: JobId) {
        let mm = self.mm();
        self.sim.post(at, mm, Msg::Kill(job));
    }

    /// Inject `ev` for the node `node`, which must exist.
    fn inject_on_node(&mut self, node: u32, ev: FaultEvent) {
        let nodes = self.sim.world().cfg.nodes;
        assert!(
            node < nodes,
            "node {node} out of range (cluster has {nodes} nodes)"
        );
        self.inject(&ev);
    }

    /// Inject a node failure at `at`: the node's NM stops responding to
    /// everything (fragments, strobes, heartbeats).
    pub fn fail_node_at(&mut self, at: SimTime, node: u32) {
        self.inject_on_node(node, FaultEvent::Crash { at, node });
    }

    /// Revive a previously-failed node at `at`. The NM comes back with
    /// empty local state; the MM re-admits the node to the allocator once
    /// its heartbeats catch up.
    pub fn rejoin_node_at(&mut self, at: SimTime, node: u32) {
        self.inject_on_node(node, FaultEvent::Rejoin { at, node });
    }

    /// Stall a node's dæmon over `[from, until)`: messages are deferred
    /// (not lost) until the stall ends — the node looks dead to the
    /// heartbeat protocol but recovers by itself.
    pub fn stall_node(&mut self, node: u32, from: SimTime, until: SimTime) {
        self.inject_on_node(node, FaultEvent::Stall { node, from, until });
    }

    /// Kill an MM replica at `at`. Rank 0 is the primary; killing the
    /// currently active replica triggers the regroup protocol (standby
    /// watchdogs detect the silence, the lowest surviving rank promotes
    /// itself and fences the old epoch off the cluster).
    pub fn fail_mm_at(&mut self, at: SimTime, rank: u32) {
        let replicas = self.sim.world().wiring.mm_count();
        assert!(
            rank < replicas,
            "MM rank {rank} out of range ({replicas} replicas)"
        );
        self.inject(&FaultEvent::MmCrash { at, rank });
    }

    /// Run until all submitted jobs are terminal and the event queue
    /// drains. Panics if the cluster cannot go idle (e.g. endless hog jobs
    /// that were never killed, or fault detection enabled — use
    /// [`Cluster::run_until`] for those).
    pub fn run_until_idle(&mut self) -> SimTime {
        assert!(
            !self.sim.world().cfg.fault_detection,
            "fault-detection clusters tick forever; use run_until"
        );
        let t = self.sim.run_to_completion();
        assert!(
            self.sim.world().is_idle(),
            "simulation drained but jobs are not terminal (endless job without a kill?)"
        );
        t
    }

    /// Run until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        let t = self.sim.run_until(deadline);
        // If the run ended inside an armed idle leap, replay the skipped
        // ticks up to the deadline so snapshots taken now match an
        // un-leaped run tick for tick.
        self.sim.world_mut().settle_leap_through(deadline);
        t
    }

    /// Run until `job` reaches a terminal state (or the queue drains).
    /// Returns the completion instant.
    pub fn run_until_done(&mut self, job: JobId) -> SimTime {
        while !self.sim.world().job(job).state.is_terminal() {
            if !self.sim.step() {
                panic!("simulation drained before {job} completed");
            }
        }
        self.sim.now()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// A job's record.
    pub fn job(&self, id: JobId) -> &JobRecord {
        self.sim.world().job(id)
    }

    /// The shared world (configuration, stats, matrix, mechanisms).
    pub fn world(&self) -> &World {
        self.sim.world()
    }

    /// Mutable world access between runs — an escape hatch for experiments
    /// that tweak device state mid-run.
    ///
    /// For fault injection, prefer
    /// [`ClusterConfig::with_faults`](crate::config::ClusterConfig::with_faults):
    /// a declarative [`FaultSchedule`](crate::fault::FaultSchedule) is
    /// validated, reproducible from the config alone, and installs both the
    /// probabilistic mechanism-layer faults and the timed crash/rejoin/stall
    /// events — none of which this raw hook guarantees.
    pub fn with_world_mut<R>(&mut self, f: impl FnOnce(&mut World) -> R) -> R {
        f(self.sim.world_mut())
    }

    /// Total simulation events delivered (simulator-performance metric).
    /// A group delivery counts once however many components it reaches;
    /// this is the queue-pressure number that used to grow O(nodes).
    pub fn events_delivered(&self) -> u64 {
        self.sim.events_delivered()
    }

    /// Total component handler invocations. Unlike [`events_delivered`],
    /// this counts every member of a group delivery: it is the number of
    /// messages the dæmons actually process.
    ///
    /// [`events_delivered`]: Cluster::events_delivered
    pub fn messages_handled(&self) -> u64 {
        self.sim.messages_handled()
    }

    /// Raw event-queue accounting (push/pop totals, current and peak
    /// depth) straight from the queue — no cloning. Depth counts a
    /// group-delivery entry once, however many members it has left.
    pub fn queue_stats(&self) -> QueueStats {
        self.sim.queue_stats()
    }

    /// Payload-arena accounting (live/peak interned payloads, capacity,
    /// resident bytes) merged across the unicast and group arenas.
    pub fn arena_stats(&self) -> storm_sim::ArenaStats {
        self.sim.arena_stats()
    }

    /// The engine's interleaving digest (see
    /// [`Simulation::interleaving_digest`]): identifies which delivery
    /// interleaving this run executed. Only accumulated when the config
    /// installed a [`DeliveryOrder`](storm_sim::DeliveryOrder) hook.
    ///
    /// [`Simulation::interleaving_digest`]: storm_sim::Simulation::interleaving_digest
    pub fn interleaving_digest(&self) -> u64 {
        self.sim.interleaving_digest()
    }

    /// Idle fast-forward accounting: `(leaps, slices)` — how many times
    /// the clock leaped over quiescent timeslices, and how many ticks were
    /// skipped in total.
    pub fn leap_stats(&self) -> (u64, u64) {
        let w = self.sim.world();
        (w.sim_leaps, w.sim_leaped_slices)
    }

    /// Summarise all jobs.
    pub fn report(&self) -> Report {
        let w = self.sim.world();
        Report {
            jobs: w
                .jobs
                .iter()
                .map(|r| JobSummary {
                    id: r.id,
                    name: r.spec.name.to_string(),
                    ranks: r.spec.ranks,
                    state: r.state,
                    metrics: r.metrics.clone(),
                })
                .collect(),
            strobes: w.stats.strobes,
            fragments: w.stats.fragments,
            reports: w.stats.reports,
            completed_jobs: w.stats.completed_jobs,
        }
    }
}

/// One job's summary in a [`Report`].
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// Job id.
    pub id: JobId,
    /// Job name.
    pub name: String,
    /// Rank count.
    pub ranks: u32,
    /// Final (or current) state.
    pub state: JobState,
    /// Timestamps.
    pub metrics: crate::job::JobMetrics,
}

/// End-of-run summary.
#[derive(Debug, Clone)]
pub struct Report {
    /// All jobs, in submission order.
    pub jobs: Vec<JobSummary>,
    /// Strobe multicasts issued.
    pub strobes: u64,
    /// Fragments broadcast.
    pub fragments: u64,
    /// NM reports collected.
    pub reports: u64,
    /// Jobs completed.
    pub completed_jobs: u64,
}

impl Report {
    /// Render a human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:<12} {:>6} {:<12} {:>12} {:>12} {:>12}",
            "id", "name", "ranks", "state", "send", "execute", "total"
        );
        for j in &self.jobs {
            let fmt_span = |s: Option<storm_sim::SimSpan>| match s {
                Some(s) => format!("{s}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<6} {:<12} {:>6} {:<12} {:>12} {:>12} {:>12}",
                format!("{}", j.id),
                j.name,
                j.ranks,
                format!("{:?}", j.state),
                fmt_span(j.metrics.send_span()),
                fmt_span(j.metrics.execute_span()),
                fmt_span(j.metrics.total_launch_span()),
            );
        }
        let _ = writeln!(
            out,
            "strobes={} fragments={} reports={} completed={}",
            self.strobes, self.fragments, self.reports, self.completed_jobs
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_apps::AppSpec;
    use storm_sim::SimSpan;

    #[test]
    fn do_nothing_job_launches_and_completes() {
        let mut cluster = Cluster::new(ClusterConfig::paper_cluster());
        let job = cluster.submit(JobSpec::new(AppSpec::do_nothing_mb(12), 256));
        cluster.run_until_idle();
        let rec = cluster.job(job);
        assert_eq!(rec.state, JobState::Completed);
        let m = &rec.metrics;
        assert!(m.send_span().is_some());
        assert!(m.execute_span().is_some());
        // Fig. 2 headline: ≈110 ms to launch 12 MB on 256 PEs; send ≈96 ms.
        let send = m.send_span().unwrap().as_millis_f64();
        let total = m.total_launch_span().unwrap().as_millis_f64();
        assert!((send - 96.0).abs() < 8.0, "send = {send:.1} ms");
        assert!((total - 110.0).abs() < 15.0, "total = {total:.1} ms");
    }

    #[test]
    fn launch_scales_with_binary_size() {
        let mut sends = Vec::new();
        for mb in [4u64, 8, 12] {
            let mut cluster = Cluster::new(ClusterConfig::paper_cluster());
            let job = cluster.submit(JobSpec::new(AppSpec::do_nothing_mb(mb), 256));
            cluster.run_until_idle();
            sends.push(
                cluster
                    .job(job)
                    .metrics
                    .send_span()
                    .unwrap()
                    .as_millis_f64(),
            );
        }
        // Send time proportional to binary size (Fig. 2).
        assert!(sends[0] < sends[1] && sends[1] < sends[2]);
        let ratio = sends[2] / sends[0];
        assert!(
            ratio > 2.3 && ratio < 3.7,
            "12 MB ≈ 3× the 4 MB send, got {ratio:.2}"
        );
    }

    #[test]
    fn execute_grows_with_pe_count() {
        let exec_at = |pes: u32| {
            let mut c = Cluster::new(ClusterConfig::paper_cluster().with_seed(42));
            let j = c.submit(JobSpec::new(AppSpec::do_nothing_mb(4), pes));
            c.run_until_idle();
            c.job(j).metrics.execute_span().unwrap().as_millis_f64()
        };
        let small = exec_at(1);
        let large = exec_at(256);
        assert!(
            large > small,
            "execute skew grows with PEs: {small:.2} vs {large:.2}"
        );
        assert!(large < 30.0, "execute stays in the ms range: {large:.2}");
    }

    #[test]
    fn sweep3d_runs_under_gang_scheduling() {
        let cfg = ClusterConfig::gang_cluster().with_timeslice(SimSpan::from_millis(50));
        let mut cluster = Cluster::new(cfg);
        let job =
            cluster.submit(JobSpec::new(AppSpec::sweep3d_default(), 64).with_ranks_per_node(2));
        cluster.run_until_idle();
        let rec = cluster.job(job);
        assert_eq!(rec.state, JobState::Completed);
        let runtime = rec.metrics.turnaround().unwrap().as_secs_f64();
        assert!(
            (runtime - 49.0).abs() < 3.0,
            "SWEEP3D runtime {runtime:.1} s"
        );
    }

    #[test]
    fn mpl2_normalised_runtime_matches_mpl1() {
        // Two SWEEP3D instances gang-scheduled with a 50 ms quantum finish
        // in ≈ 2× the single-instance time (Fig. 4's key claim at 2 ms;
        // 50 ms is the paper's default production quantum).
        let cfg = ClusterConfig::gang_cluster();
        let mut c1 = Cluster::new(cfg.clone());
        let j = c1.submit(JobSpec::new(AppSpec::sweep3d_default(), 64).with_ranks_per_node(2));
        c1.run_until_idle();
        let t1 = c1.job(j).metrics.turnaround().unwrap().as_secs_f64();

        let mut c2 = Cluster::new(cfg);
        let a = c2.submit(JobSpec::new(AppSpec::sweep3d_default(), 64).with_ranks_per_node(2));
        let b = c2.submit(JobSpec::new(AppSpec::sweep3d_default(), 64).with_ranks_per_node(2));
        c2.run_until_idle();
        let done_a = c2.job(a).metrics.completed.unwrap();
        let done_b = c2.job(b).metrics.completed.unwrap();
        let t2 = done_a.max(done_b).as_secs_f64() / 2.0;
        assert!(
            (t2 - t1).abs() / t1 < 0.05,
            "MPL=2 normalised {t2:.1} s vs MPL=1 {t1:.1} s"
        );
    }

    #[test]
    fn hog_jobs_run_until_killed() {
        let mut cluster = Cluster::new(ClusterConfig::paper_cluster());
        let hog = cluster.submit(JobSpec::new(AppSpec::SpinLoop, 256));
        cluster.kill_at(SimTime::from_secs(2), hog);
        cluster.run_until_idle();
        assert_eq!(cluster.job(hog).state, JobState::Killed);
    }

    #[test]
    fn report_renders() {
        let mut cluster = Cluster::new(ClusterConfig::paper_cluster());
        cluster.submit(JobSpec::new(AppSpec::do_nothing_mb(4), 16).named("probe"));
        cluster.run_until_idle();
        let report = cluster.report();
        assert_eq!(report.completed_jobs, 1);
        let text = report.render();
        assert!(text.contains("probe"));
        assert!(report.fragments >= 8, "4 MB / 512 KB ≥ 8 fragments");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut c = Cluster::new(ClusterConfig::paper_cluster().with_seed(777));
            let j = c.submit(JobSpec::new(AppSpec::do_nothing_mb(8), 64));
            c.run_until_idle();
            (
                c.job(j).metrics.clone(),
                c.events_delivered(),
                c.world().stats.fragments,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_detection_isolates_a_dead_node() {
        let mut cfg = ClusterConfig::paper_cluster();
        cfg.fault_detection = true;
        cfg.heartbeat_every = 4; // fault round every 4 ms
        let mut cluster = Cluster::new(cfg);
        cluster.fail_node_at(SimTime::from_millis(20), 13);
        cluster.run_until(SimTime::from_millis(80));
        let detected = &cluster.world().stats.failures_detected;
        assert_eq!(detected.len(), 1, "exactly one failure: {detected:?}");
        let (node, at) = detected[0];
        assert_eq!(node, 13);
        // Detected within two fault rounds (≤ ~2 × 4 ms) of the failure.
        let latency = at.since(SimTime::from_millis(20));
        assert!(
            latency <= SimSpan::from_millis(10),
            "detection took {latency}"
        );
    }

    #[test]
    #[should_panic(expected = "more nodes than the cluster")]
    fn oversized_job_rejected_at_submit() {
        let mut cluster = Cluster::new(ClusterConfig::paper_cluster());
        cluster.submit(JobSpec::new(AppSpec::do_nothing_mb(4), 10_000));
    }

    #[test]
    fn a_job_no_buddy_block_can_hold_is_refused() {
        // 4 CPUs a node: 12 PEs take 3 nodes, a 4-node block; 24 take 6,
        // an 8-node block.
        for (nodes, pes, block) in [(3, 12, 4), (6, 24, 8)] {
            let mut cluster = Cluster::new(ClusterConfig::paper_cluster().with_nodes(nodes));
            let spec = JobSpec::new(AppSpec::do_nothing_mb(4), pes);
            let err = cluster.try_submit_at(SimTime::ZERO, spec).unwrap_err();
            assert!(err.contains(&format!("a block of {block} nodes")), "{err}");
            assert!(
                cluster.world().jobs.is_empty(),
                "a refused job is not registered"
            );
        }
        // 16 PEs take 4 nodes, a 4-node block of the 5.
        let mut cluster = Cluster::new(ClusterConfig::paper_cluster().with_nodes(5));
        let spec = JobSpec::new(AppSpec::do_nothing_mb(4), 16);
        let job = cluster.try_submit_at(SimTime::ZERO, spec).expect("fits");
        cluster.run_until_idle();
        assert_eq!(cluster.job(job).state, JobState::Completed);
    }

    #[test]
    #[should_panic(expected = "a block of 4 nodes for its 3")]
    fn submit_panics_where_try_submit_refuses() {
        let mut cluster = Cluster::new(ClusterConfig::paper_cluster().with_nodes(3));
        cluster.submit(JobSpec::new(AppSpec::do_nothing_mb(4), 12));
    }

    #[test]
    fn an_empty_binary_launches_and_completes() {
        // Nothing to read or broadcast: the transfer is confirmed at once.
        let mut cluster = Cluster::new(ClusterConfig::paper_cluster());
        let job = cluster.submit(JobSpec::new(AppSpec::do_nothing_mb(0), 256));
        cluster.run_until(SimTime::from_secs(5));
        let rec = cluster.job(job);
        assert_eq!(rec.state, JobState::Completed);
        assert_eq!(cluster.world().stats.fragments, 0);
        assert!(rec.metrics.total_launch_span().is_some());
    }
}
