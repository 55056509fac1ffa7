//! Workload definitions and their seed-generated inputs.
//!
//! Every input the simulator receives — job streams, arrival instants,
//! fault schedules, the MM-kill instant and the cluster RNG seeds — is
//! generated here from the `--seed` argument through [`derive_seed`], with
//! the benchmark's own generator, so a change to the simulator's own
//! stream helpers can never change what the benchmark feeds it.

use storm::core::prelude::*;
use storm::sim::SimTime;
use storm_bench::derive_seed;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed held out of all tuning, for confirming a claimed gain.
pub const HELD_OUT_SEED: u64 = 20_021_116;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Back-to-back 12 MB launches on the 64-node paper cluster.
    LaunchStream,
    /// Two SWEEP3D jobs gang-scheduled on 16384 nodes with heartbeats.
    GangHb16k,
    /// One job stream replayed under FCFS, EASY backfill and gang MPL 2.
    TracePolicies,
    /// MM failover and node faults on 1024 nodes, checkpointed each second.
    FailoverCkpt,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::LaunchStream,
        Workload::GangHb16k,
        Workload::TracePolicies,
        Workload::FailoverCkpt,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LaunchStream => "launch_stream",
            Workload::GangHb16k => "gang_hb_16k",
            Workload::TracePolicies => "trace_policies",
            Workload::FailoverCkpt => "failover_ckpt",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A deterministic generator (splitmix64 through [`derive_seed`]).
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    /// A generator for sub-stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Gen(derive_seed(seed, stream))
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = derive_seed(self.0, 1);
        self.0
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Shuffle `v` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// `n` stratified uniforms in random order: one draw inside each of
    /// `n` equal slots of `[0, 1)`, so the sample's distribution is fixed
    /// and only which job gets which value depends on the seed.
    pub fn stratified(&mut self, n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = (0..n)
            .map(|i| (i as f64 + self.uniform()) / n as f64)
            .collect();
        self.shuffle(&mut v);
        v
    }
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// absolute error below 1e-4), for `p` in `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_671_010_218_808,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    }
}

/// One cluster run of a workload.
#[derive(Debug, Clone)]
pub struct Leg {
    /// Short label (policy or scale).
    pub label: &'static str,
    /// The cluster configuration.
    pub cfg: ClusterConfig,
    /// Jobs with their arrival instants, submitted during set-up.
    pub jobs: Vec<(SimTime, JobSpec)>,
    /// The run ends here; every job must be terminal by then.
    pub horizon: SimTime,
    /// Take a checkpoint at every multiple of this span (besides the final
    /// one) — the failover workload's periodic writes.
    pub checkpoint_every: Option<SimSpan>,
    /// The checkpoint taken at this instant is restored and resumed to the
    /// horizon, and must end byte-identical to the uninterrupted run.
    pub restore_at: Option<SimTime>,
    /// Whether this leg's host time counts toward the end-to-end run
    /// metrics (false for a reduced-scale twin that exists only for the
    /// checkpoint→restore→resume cycle).
    pub measured: bool,
}

impl Leg {
    /// The simulated instants at which this leg takes a mid-run checkpoint.
    pub fn checkpoint_instants(&self) -> Vec<SimTime> {
        let mut at = Vec::new();
        if let Some(every) = self.checkpoint_every {
            let mut t = SimTime::ZERO + every;
            while t < self.horizon {
                at.push(t);
                t += every;
            }
        }
        if let Some(r) = self.restore_at {
            if !at.contains(&r) {
                at.push(r);
            }
        }
        at.sort_unstable();
        at
    }
}

/// A workload's full input: its legs, run in order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The legs.
    pub legs: Vec<Leg>,
}

/// `launch_stream`: number of 12 MB launches.
pub const LAUNCH_JOBS: usize = 500;
/// `gang_hb_16k`: node count.
pub const GANG_NODES: u32 = 16_384;
/// The node count of the reduced twin that runs the checkpoint cycle for
/// workloads larger than this (restore is quadratic in checkpoint size
/// today, 446 s at 16384 nodes).
pub const RESTORE_MAX_NODES: u32 = 1024;
/// `trace_policies`: jobs in the stream.
pub const TRACE_JOBS: usize = 400;
/// `failover_ckpt`: node count.
pub const FAILOVER_NODES: u32 = 1024;
/// `failover_ckpt`: jobs in the stream.
pub const FAILOVER_JOBS: usize = 40;
/// Where `trace_policies` and `failover_ckpt` arrivals (and node faults)
/// begin, and the instant whose checkpoint they restore. Every job is
/// registered by then but none has run, so the restored checkpoint's size
/// — which restore time grows with quadratically today — is the same for
/// every seed; a checkpoint taken later varies by ±10 % with the widths of
/// the jobs that happened to start, and its restore time by twice that.
pub const ARRIVALS_FROM: SimTime = SimTime::from_secs(1);

/// Build the input of `workload` for `seed`.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    let legs = match workload {
        Workload::LaunchStream => vec![launch_stream(seed)],
        Workload::GangHb16k => gang_hb(seed),
        Workload::TracePolicies => trace_policies(seed),
        Workload::FailoverCkpt => vec![failover_ckpt(seed)],
    };
    Plan { workload, legs }
}

fn launch_stream(seed: u64) -> Leg {
    let mut g = Gen::new(seed, 10);
    // Open loop at five launches a second: each arrival is uniform in the
    // first 50 ms of its own 200 ms slot, so consecutive arrivals are at
    // least 150 ms apart — longer than a 12 MB launch takes — and each
    // launch finds the machine free.
    let jobs: Vec<(SimTime, JobSpec)> = (0..LAUNCH_JOBS as u64)
        .map(|i| {
            (
                SimTime::from_millis(10 + 200 * i + g.below(50)),
                JobSpec::new(AppSpec::do_nothing_mb(12), 256),
            )
        })
        .collect();
    let horizon = SimTime::from_secs(LAUNCH_JOBS as u64 / 5 + 2);
    Leg {
        label: "batch",
        cfg: ClusterConfig::paper_cluster()
            .with_scheduler(SchedulerKind::Batch)
            .with_seed(derive_seed(seed, 11)),
        jobs,
        horizon,
        checkpoint_every: None,
        restore_at: Some(SimTime::from_secs(1)),
        measured: true,
    }
}

fn gang_leg(seed: u64, nodes: u32, measured: bool) -> Leg {
    let mut g = Gen::new(seed, 20);
    let jobs = (0..2)
        .map(|_| {
            let at = SimTime::from_millis(g.below(100));
            (
                at,
                JobSpec::new(AppSpec::sweep3d_default(), nodes * 2).with_ranks_per_node(2),
            )
        })
        .collect();
    Leg {
        label: if measured { "gang16k" } else { "gang1k" },
        cfg: ClusterConfig::gang_cluster()
            .with_nodes(nodes)
            .with_fault_detection(4)
            .with_seed(derive_seed(seed, 21)),
        jobs,
        horizon: SimTime::from_secs(110),
        checkpoint_every: None,
        restore_at: (!measured).then(|| SimTime::from_secs(50)),
        measured,
    }
}

fn gang_hb(seed: u64) -> Vec<Leg> {
    vec![
        gang_leg(seed, GANG_NODES, true),
        gang_leg(seed, RESTORE_MAX_NODES, false),
    ]
}

/// One job of a Feitelson-style stream.
pub struct StreamJob {
    /// Arrival instant.
    pub arrival: SimTime,
    /// Width in ranks.
    pub ranks: u32,
    /// True runtime.
    pub runtime: SimSpan,
    /// User estimate, inflated 1–2× over the runtime.
    pub estimate: SimSpan,
}

/// A Feitelson-style stream of `n` jobs: log-uniform power-of-two widths
/// in `min_ranks..=max_ranks`, log-normal runtimes (median `median_s`,
/// sigma `sigma`), estimates inflated 1–2×, arriving open-loop at a fixed
/// mean rate over the `window_s` seconds that follow `start_s`.
///
/// The draws are stratified so that the seed decides which job gets which
/// width, runtime and arrival jitter, but not the stream's totals: every
/// width class appears equally often, the runtimes are one draw from each
/// of `n` equal-probability slices of the log-normal, and each arrival is
/// uniform within its own `window_s / n` slot. Unstratified Poisson
/// arrivals and independent draws move the offered load, and with it the
/// backlog, by tens of percent from seed to seed, which would swamp the
/// host-time differences the benchmark exists to resolve.
pub fn feitelson_stream(
    g: &mut Gen,
    n: usize,
    (min_ranks, max_ranks): (u32, u32),
    (median_s, sigma): (f64, f64),
    (start_s, window_s): (f64, f64),
) -> Vec<StreamJob> {
    let classes: Vec<u32> = (0..32)
        .map(|k| min_ranks << k)
        .take_while(|&w| w <= max_ranks)
        .collect();
    let mut widths: Vec<u32> = (0..n).map(|i| classes[i % classes.len()]).collect();
    g.shuffle(&mut widths);
    let quantiles = g.stratified(n);
    let slot = window_s / n as f64;
    let us = |s: f64| (s * 1e6) as u64;
    (0..n)
        .map(|i| {
            let runtime = median_s * (sigma * normal_quantile(quantiles[i])).exp();
            let estimate = runtime * (1.0 + g.uniform());
            StreamJob {
                arrival: SimTime::from_micros(us(start_s + (i as f64 + g.uniform()) * slot)),
                ranks: widths[i],
                runtime: SimSpan::from_micros(us(runtime)),
                estimate: SimSpan::from_micros(us(estimate)),
            }
        })
        .collect()
}

fn trace_policies(seed: u64) -> Vec<Leg> {
    let mut g = Gen::new(seed, 30);
    // Mean width ≈ 18 nodes and mean runtime ≈ 1.65 × median on a
    // 64-node machine: one arrival per 2 s offers ≈ 1.4× capacity while
    // arrivals last, so a backlog builds and then drains.
    let stream = feitelson_stream(
        &mut g,
        TRACE_JOBS,
        (4, 256),
        (6.0, 1.0),
        (ARRIVALS_FROM.as_secs_f64(), 2.0 * TRACE_JOBS as f64),
    );
    let last = stream.last().expect("jobs").arrival;
    let serial: u64 = stream
        .iter()
        .map(|j| j.runtime.as_nanos() + 1_000_000_000)
        .sum();
    let horizon = last + SimSpan::from_nanos(serial);
    let jobs: Vec<(SimTime, JobSpec)> = stream
        .iter()
        .map(|j| {
            (
                j.arrival,
                JobSpec::new(AppSpec::Synthetic { compute: j.runtime }, j.ranks)
                    .with_estimate(j.estimate),
            )
        })
        .collect();
    let cluster_seed = derive_seed(seed, 31);
    [
        ("fcfs", SchedulerKind::Batch, 1usize),
        ("easy", SchedulerKind::Backfill, 1),
        ("gang", SchedulerKind::Gang, 2),
    ]
    .into_iter()
    .map(|(label, kind, mpl)| {
        let mut cfg = ClusterConfig::paper_cluster()
            .with_scheduler(kind)
            .with_timeslice(SimSpan::from_millis(50))
            .with_seed(cluster_seed);
        cfg.mpl_max = mpl;
        Leg {
            label,
            cfg,
            jobs: jobs.clone(),
            horizon,
            checkpoint_every: None,
            restore_at: (kind == SchedulerKind::Backfill).then_some(ARRIVALS_FROM),
            measured: true,
        }
    })
    .collect()
}

/// The MM kill instant and node-fault schedule of `failover_ckpt`.
pub fn failover_faults(seed: u64, nodes: u32) -> (SimTime, FaultSchedule) {
    let mut g = Gen::new(seed, 40);
    let kill = SimTime::from_millis(2000 + g.below(900));
    let mut s = FaultSchedule::new().mm_crash(kill, 0);
    let mut used = Vec::new();
    for _ in 0..3 {
        let node = g.below(u64::from(nodes)) as u32;
        if used.contains(&node) {
            continue;
        }
        used.push(node);
        let at = 1000 + g.below(3500);
        s = s
            .crash(SimTime::from_millis(at), node)
            .rejoin(SimTime::from_millis(at + 100 + g.below(400)), node);
    }
    (kill, s)
}

fn failover_ckpt(seed: u64) -> Leg {
    let mut g = Gen::new(seed, 41);
    let (kill, faults) = failover_faults(seed, FAILOVER_NODES);
    let jobs = feitelson_stream(
        &mut g,
        FAILOVER_JOBS,
        (64, 1024),
        (0.4, 0.5),
        (ARRIVALS_FROM.as_secs_f64(), 5.0),
    )
    .into_iter()
    .map(|j| {
        (
            j.arrival,
            JobSpec::new(AppSpec::Synthetic { compute: j.runtime }, j.ranks),
        )
    })
    .collect();
    // The restored run goes on to lose its active MM (at 2.0–2.9 s) and
    // must promote a standby exactly as the uninterrupted run does.
    debug_assert!(kill > ARRIVALS_FROM);
    Leg {
        label: "failover",
        cfg: ClusterConfig::paper_cluster()
            .with_nodes(FAILOVER_NODES)
            .with_mm_standbys(2)
            .with_fault_detection(4)
            .with_failure_policy(FailurePolicy::requeue())
            .with_faults(faults)
            .with_seed(derive_seed(seed, 42)),
        jobs,
        horizon: SimTime::from_secs(10),
        checkpoint_every: Some(SimSpan::from_secs(1)),
        restore_at: Some(ARRIVALS_FROM),
        measured: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = plan(w, 7);
            let b = plan(w, 7);
            let c = plan(w, 8);
            for (x, y) in a.legs.iter().zip(&b.legs) {
                assert_eq!(x.cfg, y.cfg);
                assert_eq!(x.horizon, y.horizon);
                let xa: Vec<_> = x.jobs.iter().map(|j| j.0).collect();
                let ya: Vec<_> = y.jobs.iter().map(|j| j.0).collect();
                assert_eq!(xa, ya);
            }
            assert_ne!(a.legs[0].cfg.seed, c.legs[0].cfg.seed);
        }
    }

    #[test]
    fn streams_are_stratified() {
        let mut g = Gen::new(5, 0);
        let s = feitelson_stream(&mut g, 70, (4, 256), (6.0, 1.0), (1.0, 140.0));
        assert!(s[0].arrival >= SimTime::from_secs(1));
        for w in [4, 8, 16, 32, 64, 128, 256] {
            assert_eq!(s.iter().filter(|j| j.ranks == w).count(), 10);
        }
        assert!(s.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(s.iter().all(|j| j.estimate >= j.runtime));
        let mut r: Vec<f64> = s.iter().map(|j| j.runtime.as_secs_f64()).collect();
        r.sort_by(f64::total_cmp);
        assert!(
            (r[34] / 6.0 - 1.0).abs() < 0.1,
            "median near 6 s: {}",
            r[34]
        );
        assert!((normal_quantile(0.975) - 1.959_964).abs() < 1e-4);
        assert!((normal_quantile(0.01) + 2.326_348).abs() < 1e-4);
        assert_eq!(normal_quantile(0.5), 0.0);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn checkpoint_instants_are_sorted_and_inside_the_run() {
        let p = plan(Workload::FailoverCkpt, 3);
        let leg = &p.legs[0];
        let at = leg.checkpoint_instants();
        assert_eq!(at.len(), 9);
        assert!(at.windows(2).all(|w| w[0] < w[1]));
        assert!(at.contains(&leg.restore_at.unwrap()));
        assert!(leg.cfg.validate().is_ok());
    }
}
