//! Chaos-test harness: randomized fault schedules over many seeds, with
//! four invariants checked per run:
//!
//! 1. **No job lost** — every job reaches a terminal state; a `Failed`
//!    state is only acceptable once the retry budget was genuinely spent.
//! 2. **Bounded detection** — every injected crash/stall is detected
//!    within two heartbeat rounds (plus one collect period of alignment
//!    slack), unless a scheduled network-error burst overlapped the
//!    detection window.
//! 3. **Determinism** — the same seed replays the same run, byte for byte:
//!    identical detections, rejoins, requeues, retry counts and completion
//!    instants.
//! 4. **Zero-cost health** — a fault-detection-enabled run with an empty
//!    schedule is indistinguishable from a detection-off run except for
//!    the heartbeat traffic itself.

use storm::core::prelude::*;

const NODES: u32 = 64;
const HEARTBEAT_EVERY: u32 = 4;
const HORIZON: SimSpan = SimSpan::from_millis(1_000);

fn chaos_cfg(seed: u64) -> ClusterConfig {
    ClusterConfig::paper_cluster()
        .with_seed(seed)
        .with_fault_detection(HEARTBEAT_EVERY)
        .with_failure_policy(FailurePolicy::requeue())
        .with_faults(FaultSchedule::randomized(seed, NODES, HORIZON))
}

/// Everything a chaos run produces that determinism must preserve.
#[derive(Debug, PartialEq)]
struct Outcome {
    jobs: Vec<(JobState, u32, Option<SimTime>)>,
    failures: Vec<(u32, SimTime)>,
    rejoins: Vec<(u32, SimTime)>,
    requeues: u64,
    events_delivered: u64,
}

fn run_chaos(seed: u64) -> (Outcome, FaultSchedule) {
    let cfg = chaos_cfg(seed);
    let schedule = cfg.faults.clone();
    let mut c = Cluster::new(cfg);
    let mut jobs = Vec::new();
    for i in 0..4u64 {
        jobs.push(
            c.submit_at(
                SimTime::from_millis(50 * i),
                JobSpec::new(
                    AppSpec::Synthetic {
                        compute: SimSpan::from_millis(400),
                    },
                    8 * 4,
                )
                .named(format!("chaos-{i}")),
            ),
        );
    }
    c.run_until(SimTime::from_secs(3));
    let w = c.world();
    let outcome = Outcome {
        jobs: jobs
            .iter()
            .map(|&j| {
                let r = c.job(j);
                (r.state, r.attempt, r.metrics.completed)
            })
            .collect(),
        failures: w.stats.failures_detected.clone(),
        rejoins: w.stats.rejoins.clone(),
        requeues: w.stats.requeues,
        events_delivered: c.events_delivered(),
    };
    (outcome, schedule)
}

/// Injection instant per faulted node: crash time or stall start.
fn fault_starts(schedule: &FaultSchedule) -> Vec<(u32, SimTime)> {
    schedule
        .events
        .iter()
        .filter_map(|ev| match *ev {
            FaultEvent::Crash { at, node } => Some((node, at)),
            FaultEvent::Stall { node, from, .. } => Some((node, from)),
            // MM crashes target a replica rank, not a compute node.
            FaultEvent::Rejoin { .. } | FaultEvent::MmCrash { .. } => None,
        })
        .collect()
}

#[test]
fn randomized_schedules_preserve_every_job() {
    for seed in 0..16u64 {
        let (outcome, schedule) = run_chaos(seed);
        let max_retries = 3; // FailurePolicy::requeue()
        for (i, &(state, retries, _)) in outcome.jobs.iter().enumerate() {
            assert!(
                state.is_terminal(),
                "seed {seed}: job {i} stuck in {state:?} (schedule {schedule:?})"
            );
            if state == JobState::Failed {
                assert_eq!(
                    retries, max_retries,
                    "seed {seed}: job {i} failed with budget left"
                );
            } else {
                assert_eq!(state, JobState::Completed, "seed {seed}: job {i}");
            }
        }
        assert!(
            outcome.requeues >= u64::from(outcome.jobs.iter().map(|&(_, r, _)| r).sum::<u32>()),
            "seed {seed}: every retry was a requeue"
        );
    }
}

#[test]
fn detection_latency_is_bounded_by_two_rounds() {
    // Two heartbeat periods plus one collect period of boundary slack.
    let period = SimSpan::from_millis(u64::from(HEARTBEAT_EVERY));
    let bound = period * 2 + SimSpan::from_millis(1);
    let mut checked = 0u32;
    for seed in 0..16u64 {
        let (outcome, schedule) = run_chaos(seed);
        let starts = fault_starts(&schedule);
        for &(node, start) in &starts {
            let Some(&(_, detected)) = outcome.failures.iter().find(|&&(n, _)| n == node) else {
                panic!("seed {seed}: fault on node {node} never detected");
            };
            // A burst can abort the heartbeat multicast itself, legitimately
            // delaying the round; skip the bound when one overlapped.
            let burst_overlaps = schedule
                .bursts
                .iter()
                .any(|b| b.from <= detected && b.until >= start);
            if burst_overlaps {
                continue;
            }
            let latency = detected.since(start);
            assert!(
                latency <= bound,
                "seed {seed}: node {node} detected after {latency} (> {bound})"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 16,
        "the sweep actually exercised detections: {checked}"
    );
}

#[test]
fn identical_seed_replays_identical_trace() {
    for seed in [0u64, 3, 7, 11] {
        let (a, _) = run_chaos(seed);
        let (b, _) = run_chaos(seed);
        assert_eq!(a, b, "seed {seed}: chaos runs diverged");
    }
}

#[test]
fn healthy_schedule_is_byte_identical_to_detection_off() {
    // Same seed, same jobs; one run has fault detection + an empty fault
    // schedule, the other has detection off entirely. Everything except
    // the heartbeat traffic must match exactly: per-job timelines,
    // fragment/flow/report counters.
    let run = |detection: bool| {
        let mut cfg = ClusterConfig::paper_cluster().with_seed(1234);
        if detection {
            cfg = cfg.with_fault_detection(HEARTBEAT_EVERY);
        }
        let mut c = Cluster::new(cfg);
        let jobs: Vec<JobId> = (0..3u64)
            .map(|i| {
                c.submit_at(
                    SimTime::from_millis(40 * i),
                    JobSpec::new(AppSpec::do_nothing_mb(4 + 2 * i), 16 * 4),
                )
            })
            .collect();
        c.run_until(SimTime::from_secs(2));
        let w = c.world();
        (
            jobs.iter()
                .map(|&j| c.job(j).metrics.clone())
                .collect::<Vec<_>>(),
            w.stats.fragments,
            w.stats.flow_stalls,
            w.stats.reports,
            w.stats.failures_detected.len(),
        )
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(on.4, 0, "healthy cluster raised no alarms");
    assert_eq!(on.0, off.0, "job timelines must match exactly");
    assert_eq!(on.1, off.1, "fragment counts must match");
    assert_eq!(on.2, off.2, "flow stalls must match");
    assert_eq!(on.3, off.3, "report counts must match");
}

#[test]
fn scripted_crash_and_rejoin_recovers_every_job_across_8_seeds() {
    // ISSUE acceptance scenario: crash a node mid-run under Requeue, rejoin
    // it 500 ms later. Every job completes, the rejoined node hosts new
    // work, and the whole thing is deterministic per seed.
    let run = |seed: u64| {
        let cfg = ClusterConfig::paper_cluster()
            .with_seed(seed)
            .with_fault_detection(HEARTBEAT_EVERY)
            .with_failure_policy(FailurePolicy::requeue())
            .with_faults(
                FaultSchedule::new()
                    .crash(SimTime::from_millis(150), 3)
                    .rejoin(SimTime::from_millis(650), 3),
            );
        let mut c = Cluster::new(cfg);
        let jobs: Vec<JobId> = (0..4u64)
            .map(|i| {
                c.submit_at(
                    SimTime::from_millis(30 * i),
                    JobSpec::new(
                        AppSpec::Synthetic {
                            compute: SimSpan::from_millis(300),
                        },
                        8 * 4,
                    ),
                )
            })
            .collect();
        c.run_until(SimTime::from_millis(800));
        // Node 3 crashed at 150 ms and rejoined at 650 ms; by 800 ms it must
        // be re-admitted, so a full-width job is placeable again.
        let full = c.submit(JobSpec::new(AppSpec::do_nothing_mb(4), 64 * 4));
        c.run_until(SimTime::from_secs(3));
        let w = c.world();
        (
            jobs.iter()
                .map(|&j| (c.job(j).state, c.job(j).attempt, c.job(j).metrics.completed))
                .collect::<Vec<_>>(),
            c.job(full).state,
            w.stats.failures_detected.clone(),
            w.stats.rejoins.clone(),
            w.stats.requeues,
        )
    };
    for seed in 0..8u64 {
        let (jobs, full_state, failures, rejoins, requeues) = run(seed);
        for (i, &(state, _, _)) in jobs.iter().enumerate() {
            assert_eq!(state, JobState::Completed, "seed {seed}: job {i} lost");
        }
        assert_eq!(
            full_state,
            JobState::Completed,
            "seed {seed}: rejoined node unusable"
        );
        assert_eq!(failures.len(), 1, "seed {seed}: {failures:?}");
        assert_eq!(failures[0].0, 3);
        assert_eq!(rejoins.len(), 1, "seed {seed}: {rejoins:?}");
        assert_eq!(rejoins[0].0, 3);
        assert!(
            requeues >= 1,
            "seed {seed}: the crash displaced at least one job"
        );
        // Determinism: the same seed reproduces the identical outcome.
        let again = run(seed);
        assert_eq!(again.0, jobs, "seed {seed}: job outcomes diverged");
        assert_eq!(again.2, failures, "seed {seed}: detections diverged");
        assert_eq!(again.3, rejoins, "seed {seed}: rejoins diverged");
        assert_eq!(again.4, requeues, "seed {seed}: requeues diverged");
    }
}

/// Satellite: MM failover. Killing the active MM mid-run must (a) be
/// detected by the standby watchdogs within two beat periods, (b) lose no
/// job — everything still reaches `Completed` under the promoted MM — and
/// (c) replay identically under the same seed. Heartbeat-round
/// monotonicity and quarantine safety (no live node falsely condemned
/// during the regroup) ride along.
#[test]
fn mm_failover_detects_promotes_and_replays() {
    let kill_at = SimTime::from_millis(150);
    let run = |seed: u64| {
        let cfg = ClusterConfig::paper_cluster()
            .with_seed(seed)
            .with_mm_standbys(2)
            .with_fault_detection(HEARTBEAT_EVERY)
            .with_failure_policy(FailurePolicy::requeue())
            .with_faults(FaultSchedule::new().mm_crash(kill_at, 0));
        let mut c = Cluster::new(cfg);
        let mut jobs = Vec::new();
        for i in 0..4u64 {
            jobs.push(
                c.submit_at(
                    SimTime::from_millis(60 * i), // job 3 arrives after the kill
                    JobSpec::new(
                        AppSpec::Synthetic {
                            compute: SimSpan::from_millis(200),
                        },
                        8 * 4,
                    )
                    .named(format!("failover-{i}")),
                ),
            );
        }
        c.run_until(SimTime::from_secs(3));
        let states: Vec<_> = jobs.iter().map(|&j| c.job(j).state).collect();
        let completions: Vec<_> = jobs.iter().map(|&j| c.job(j).metrics.completed).collect();
        let w = c.world();
        (
            states,
            completions,
            w.repl.clone(),
            w.mm_epoch,
            w.mm_active_rank,
            w.hb_round,
            w.stats.failures_detected.clone(),
        )
    };

    let (states, completions, repl, epoch, active_rank, hb_round, failures) = run(11);
    for (i, s) in states.iter().enumerate() {
        assert_eq!(*s, JobState::Completed, "job {i} lost across failover");
    }
    assert!(completions.iter().all(Option::is_some));
    // Exactly one promotion: the lowest surviving rank (1).
    assert_eq!(repl.promotions, 1, "repl: {repl:?}");
    assert_eq!(repl.failovers.len(), 1);
    let (rank, promoted_at) = repl.failovers[0];
    assert_eq!(rank, 1, "successor must be the lowest surviving rank");
    assert_eq!(epoch, 1);
    assert_eq!(active_rank, 1);
    // Detection ≤ 2 beat periods (beat period = heartbeat_every × collect
    // period = 4 ms) plus one period of watchdog phase slack.
    let beat = SimSpan::from_millis(u64::from(HEARTBEAT_EVERY));
    let latency = promoted_at.since(kill_at);
    assert!(
        latency <= beat * 2 + SimSpan::from_millis(1),
        "failover took {latency} (beat period {beat})"
    );
    // Heartbeat rounds stay monotone across the promotion: the adopted
    // round is past the one current at the kill, and kept advancing.
    let kill_round = i64::try_from(kill_at.as_nanos() / beat.as_nanos()).unwrap();
    assert!(
        hb_round > kill_round,
        "hb_round {hb_round} did not advance past the kill round {kill_round}"
    );
    // Quarantine safety: the regroup never condemned a live compute node.
    assert!(failures.is_empty(), "false positives: {failures:?}");
    // Determinism: the same seed replays the identical failover.
    let again = run(11);
    assert_eq!(
        again,
        (
            states,
            completions,
            repl,
            epoch,
            active_rank,
            hb_round,
            failures
        ),
        "same-seed failover run diverged"
    );
}

/// The acceptance bar with teeth: configuring standbys must cost *nothing*
/// observable while no MM fault occurs — trace, cluster stats and per-job
/// metrics are byte-identical to a standby-free run. The replication
/// plane's own counters live in `World::repl` precisely so they can differ
/// here without breaking this.
#[test]
fn standbys_without_faults_are_byte_identical() {
    let run = |standbys: u32| {
        let cfg = ClusterConfig::paper_cluster()
            .with_seed(7)
            .with_mm_standbys(standbys)
            .with_fault_detection(HEARTBEAT_EVERY)
            .with_failure_policy(FailurePolicy::requeue());
        let mut c = Cluster::new(cfg);
        c.enable_tracing();
        let mut jobs = Vec::new();
        for i in 0..3u64 {
            jobs.push(
                c.submit_at(
                    SimTime::from_millis(40 * i),
                    JobSpec::new(
                        AppSpec::Synthetic {
                            compute: SimSpan::from_millis(120),
                        },
                        8 * 4,
                    )
                    .named(format!("ident-{i}")),
                ),
            );
        }
        c.run_until(SimTime::from_secs(2));
        let metrics: Vec<_> = jobs
            .iter()
            .map(|&j| (c.job(j).state, c.job(j).metrics.clone()))
            .collect();
        (c.trace(), c.world().stats.clone(), metrics)
    };

    let bare = run(0);
    let replicated = run(2);
    assert_eq!(bare.1, replicated.1, "cluster stats diverged");
    assert_eq!(bare.2, replicated.2, "job outcomes diverged");
    assert_eq!(bare.0, replicated.0, "trace diverged");
    // And the replication plane really was active in the second run.
    let cfg = ClusterConfig::paper_cluster()
        .with_seed(7)
        .with_mm_standbys(2)
        .with_fault_detection(HEARTBEAT_EVERY);
    let mut c = Cluster::new(cfg);
    c.submit(JobSpec::new(
        AppSpec::Synthetic {
            compute: SimSpan::from_millis(50),
        },
        8,
    ));
    c.run_until(SimTime::from_millis(200));
    let repl = &c.world().repl;
    assert!(repl.beats > 0, "standbys never received a beat");
    assert!(repl.log_records > 0, "no decisions were shipped");
    assert_eq!(repl.promotions, 0);
}

/// Failover telemetry: a killed-and-replaced MM records its detection and
/// promotion latencies, bumps the promotion counter, and moves the epoch
/// gauge — the observability half of the failover contract.
#[test]
fn mm_failover_records_detection_and_promotion_metrics() {
    let cfg = ClusterConfig::paper_cluster()
        .with_seed(3)
        .with_mm_standbys(1)
        .with_fault_detection(HEARTBEAT_EVERY)
        .with_failure_policy(FailurePolicy::requeue())
        .with_telemetry(true)
        .with_faults(FaultSchedule::new().mm_crash(SimTime::from_millis(50), 0));
    let mut c = Cluster::new(cfg);
    c.submit(JobSpec::new(
        AppSpec::Synthetic {
            compute: SimSpan::from_millis(100),
        },
        8 * 4,
    ));
    c.run_until(SimTime::from_secs(1));
    let snap = c.metrics_snapshot();
    assert_eq!(snap.counter("mm.promotions"), Some(1));
    assert_eq!(snap.counter("mm.replica_failures"), Some(1));
    assert_eq!(snap.gauge("mm.epoch"), Some(1));
    let detect = snap
        .histogram("failover.detection_latency_us")
        .expect("detection latency recorded");
    assert_eq!(detect.count(), 1);
    let promote = snap
        .histogram("failover.promotion_latency_us")
        .expect("promotion latency recorded");
    assert_eq!(promote.count(), 1);
    // Promotion includes the CAW epoch fence on top of detection.
    assert!(promote.sum() >= detect.sum());
}
