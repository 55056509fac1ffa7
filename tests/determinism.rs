//! Cross-crate determinism: any experiment, re-run with the same seed, must
//! reproduce its results bit-for-bit — the property every calibration and
//! regression claim in this repository rests on.

use storm::core::prelude::*;
use storm::sim::DeliveryOrder;

fn full_run(seed: u64) -> (Vec<(JobState, Option<SimTime>)>, u64, u64, String) {
    let mut cfg = ClusterConfig::paper_cluster().with_seed(seed);
    cfg.mpl_max = 2;
    let mut c = Cluster::new(cfg);
    c.enable_tracing();
    let _a = c.submit(JobSpec::new(AppSpec::do_nothing_mb(12), 256));
    let _b = c.submit_at(
        SimTime::from_millis(30),
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(500),
            },
            64,
        ),
    );
    c.run_until_idle();
    let jobs = c
        .report()
        .jobs
        .iter()
        .map(|j| (j.state, j.metrics.completed))
        .collect();
    (
        jobs,
        c.events_delivered(),
        c.world().stats.fragments,
        c.trace(),
    )
}

#[test]
fn identical_seeds_identical_runs() {
    let a = full_run(123);
    let b = full_run(123);
    assert_eq!(a.0, b.0, "job outcomes");
    assert_eq!(a.1, b.1, "event counts");
    assert_eq!(a.2, b.2, "fragment counts");
    assert_eq!(a.3, b.3, "full event traces");
}

#[test]
fn different_seeds_differ_in_noise_not_outcome() {
    let a = full_run(1);
    let b = full_run(2);
    // Same logical outcome…
    assert_eq!(
        a.0.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        b.0.iter().map(|(s, _)| *s).collect::<Vec<_>>()
    );
    // …but the stochastic timings differ.
    assert_ne!(a.0, b.0, "different seeds must perturb the timings");
}

#[test]
fn loaded_runs_are_deterministic_too() {
    let run = || {
        let mut c = Cluster::new(
            ClusterConfig::paper_cluster()
                .with_load(BackgroundLoad::network_loaded())
                .with_seed(77),
        );
        let j = c.submit(JobSpec::new(AppSpec::do_nothing_mb(12), 256));
        c.run_until_idle();
        c.job(j).metrics.clone()
    };
    assert_eq!(run(), run());
}

#[test]
fn fault_detection_is_deterministic() {
    let run = || {
        let mut cfg = ClusterConfig::paper_cluster().with_seed(5);
        cfg.fault_detection = true;
        cfg.heartbeat_every = 4;
        let mut c = Cluster::new(cfg);
        c.fail_node_at(SimTime::from_millis(33), 7);
        c.fail_node_at(SimTime::from_millis(66), 13);
        c.run_until(SimTime::from_millis(200));
        c.world().stats.failures_detected.clone()
    };
    assert_eq!(run(), run());
}

/// A workload exercising every MM fan-out path at once: a chunked binary
/// broadcast + launch, gang rotation between two jobs, and a heartbeat
/// loop that detects a crash, requeues the victim and re-admits the node.
fn mixed_workload_cfg() -> ClusterConfig {
    ClusterConfig::paper_cluster()
        .with_seed(0xD15C)
        .with_failure_policy(FailurePolicy::requeue())
        .with_fault_detection(4)
}

struct MixedRun {
    trace: String,
    stats: ClusterStats,
    jobs: Vec<(JobState, JobMetrics)>,
    /// Handler invocations.
    messages: u64,
    /// Events delivered (queue pops).
    events: u64,
    /// (leaps, leaped slices).
    leaps: (u64, u64),
    /// Continuous-query alerts.
    alerts: Vec<Alert>,
}

/// Run the mixed workload on `c` (built from [`mixed_workload_cfg`]), with
/// a query that fires at every timeslice and one that fires while a node
/// is quarantined.
fn mixed_workload_run(mut c: Cluster) -> MixedRun {
    c.enable_tracing();
    c.register_query("every_slice", Condition::AliveNodesBelow(65));
    c.register_query("quarantine", Condition::QuarantinedAbove(0));
    let _launch = c.submit(JobSpec::new(AppSpec::do_nothing_mb(12), 256));
    let _gang_a = c.submit_at(
        SimTime::from_millis(10),
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(120),
            },
            64,
        ),
    );
    let _gang_b = c.submit_at(
        SimTime::from_millis(20),
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(120),
            },
            128,
        ),
    );
    c.fail_node_at(SimTime::from_millis(40), 9);
    c.rejoin_node_at(SimTime::from_millis(120), 9);
    c.run_until(SimTime::from_millis(400));
    let jobs = c
        .report()
        .jobs
        .iter()
        .map(|j| (j.state, j.metrics.clone()))
        .collect();
    MixedRun {
        trace: c.trace(),
        stats: c.world().stats.clone(),
        jobs,
        messages: c.messages_handled(),
        events: c.events_delivered(),
        leaps: c.leap_stats(),
        alerts: c.alerts().to_vec(),
    }
}

/// Idle fast-forward leaps the clock over quiescent timeslices instead of
/// strobing them; every *simulation* observable — trace, statistics, job
/// metrics, continuous-query alerts — must still match the fully-strobed
/// run bit for bit. Only the tick bookkeeping (handler invocations, queue
/// pops) may shrink, and the leaped run must actually have leaped.
#[test]
fn fast_forward_is_byte_identical_to_full_strobing() {
    let leaped = mixed_workload_run(Cluster::new(mixed_workload_cfg()));
    let strobed = mixed_workload_run(Cluster::new_fully_strobed(mixed_workload_cfg()));
    assert_eq!(leaped.trace, strobed.trace, "event traces");
    assert_eq!(leaped.stats, strobed.stats, "cluster statistics");
    assert_eq!(leaped.jobs, strobed.jobs, "job states and metrics");
    assert_eq!(leaped.alerts, strobed.alerts, "continuous-query alerts");
    // The every-slice query fires once at each of the 401 boundaries in
    // [0, 400 ms], the leaped ones included.
    let every = (leaped.alerts.iter()).filter(|a| a.query == "every_slice");
    assert!(every.map(|a| a.slice).eq(1..=401), "one alert a slice");
    let (leaps, slices) = leaped.leaps;
    assert!(leaps > 0, "the idle tail must have been fast-forwarded");
    assert!(slices >= leaps, "each leap skips at least one timeslice");
    assert_eq!(strobed.leaps, (0, 0), "strobed run must not leap");
    assert!(
        leaped.messages < strobed.messages,
        "fast-forward must handle fewer messages ({} vs {})",
        leaped.messages,
        strobed.messages
    );
    assert!(
        leaped.events < strobed.events,
        "fast-forward must pop fewer queue entries ({} vs {})",
        leaped.events,
        strobed.events
    );
}

/// An active MM killed inside an idle leap, with no standby to take over,
/// ticks no more: the leaped run replays the skipped boundaries up to the
/// kill and none after, as the fully strobed run ticks up to it.
#[test]
fn a_kill_inside_an_idle_leap_ends_the_skipped_ticks() {
    let run = |mut c: Cluster| {
        c.register_query("every_slice", Condition::AliveNodesBelow(65));
        // Heartbeat rounds fall at 0, 8, 16 ms: 10.5 ms is inside a leap.
        c.run_until(SimTime::from_micros(10_500));
        c.fail_mm_at(c.now(), 0);
        c.run_until(SimTime::from_millis(100));
        let families = ["sim.time.", "sim.queue.", "sim.arena."];
        let metrics = strip_metric_lines(&c.metrics_snapshot().to_json(), &families);
        (metrics, c.alerts().to_vec(), c.leap_stats())
    };
    let cfg = ClusterConfig::paper_cluster()
        .with_fault_detection(8)
        .with_telemetry(true);
    let leaped = run(Cluster::new(cfg.clone()));
    let strobed = run(Cluster::new_fully_strobed(cfg));
    let (leaps, _) = leaped.2;
    assert!(leaps > 0, "the kill must land inside a leap");
    assert_eq!(leaped.0, strobed.0, "metrics snapshots");
    assert_eq!(leaped.1, strobed.1, "continuous-query alerts");
    assert_eq!(
        strobed.1.len(),
        11,
        "ticks at 0..=10 ms, none after the kill"
    );
}

/// With group delivery the event queue's load per timeslice is O(jobs),
/// not O(nodes): the same workload on an 8×-larger machine may not deliver
/// materially more events.
#[test]
fn event_count_per_timeslice_is_node_independent() {
    let run = |nodes: u32| {
        let mut c = Cluster::new(
            ClusterConfig::paper_cluster()
                .with_nodes(nodes)
                .with_seed(99),
        );
        c.submit(JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(200),
            },
            64,
        ));
        c.run_until_idle();
        (c.events_delivered(), c.world().stats.strobes)
    };
    let (small_events, small_strobes) = run(64);
    let (big_events, big_strobes) = run(512);
    // Same job ⇒ same schedule shape ⇒ comparable strobe counts.
    assert!(big_strobes > 0 && small_strobes > 0);
    let small_rate = small_events as f64 / small_strobes as f64;
    let big_rate = big_events as f64 / big_strobes as f64;
    assert!(
        big_rate < small_rate * 2.0,
        "events per timeslice must not scale with node count: \
         {small_rate:.1} at 64 nodes vs {big_rate:.1} at 512"
    );
}

/// The mixed workload again, instrumented: telemetry + tracing on,
/// returning every serialised observability artefact plus the raw trace
/// and handler count for cross-checks against the uninstrumented run.
fn instrumented_run() -> (String, String, String, String, u64) {
    instrumented_run_on(Cluster::new(mixed_workload_cfg().with_telemetry(true)))
}

fn instrumented_run_on(mut c: Cluster) -> (String, String, String, String, u64) {
    c.enable_tracing();
    c.submit(JobSpec::new(AppSpec::do_nothing_mb(12), 256));
    c.submit_at(
        SimTime::from_millis(10),
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(120),
            },
            64,
        ),
    );
    c.submit_at(
        SimTime::from_millis(20),
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(120),
            },
            128,
        ),
    );
    c.fail_node_at(SimTime::from_millis(40), 9);
    c.rejoin_node_at(SimTime::from_millis(120), 9);
    c.run_until(SimTime::from_millis(400));
    (
        c.metrics_snapshot().to_json(),
        spans_jsonl(c.job_spans()),
        c.chrome_trace(),
        c.trace(),
        c.messages_handled(),
    )
}

/// Drop snapshot lines for metric families that are *defined* to differ
/// across the compared settings (one serialised metric per line).
fn strip_metric_lines(snapshot: &str, families: &[&str]) -> String {
    snapshot
        .lines()
        .filter(|l| !families.iter().any(|f| l.contains(f)))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Fast-forward replays the telemetry of skipped quiescent ticks
/// arithmetically; every counter and histogram must match the fully
/// strobed run. Only the `sim.time.*` leap accounting (absent when
/// strobing) and the `sim.queue.*` gauges (sampled at real ticks only)
/// may differ.
#[test]
fn fast_forward_telemetry_matches_full_strobing() {
    let leaped = instrumented_run();
    let strobed = instrumented_run_on(Cluster::new_fully_strobed(
        mixed_workload_cfg().with_telemetry(true),
    ));
    assert_eq!(
        strip_metric_lines(&leaped.0, &["sim.time.", "sim.queue.", "sim.arena."]),
        strip_metric_lines(&strobed.0, &["sim.time.", "sim.queue.", "sim.arena."]),
        "metrics snapshots (modulo leap accounting and raw queue gauges)"
    );
    assert_eq!(leaped.1, strobed.1, "job span logs");
    assert_eq!(leaped.2, strobed.2, "chrome traces");
    assert_eq!(leaped.3, strobed.3, "event traces");
    assert!(
        leaped.0.contains("sim.time.leaps"),
        "leaped run must record its leaps"
    );
    assert!(
        !strobed.0.contains("sim.time.leaps"),
        "strobed run must not leap"
    );
}

/// Telemetry must be as deterministic as the simulation itself: the full
/// snapshot JSON — counters, gauges, every histogram bucket — plus the
/// span log and Chrome trace must be byte-identical across same-seed
/// replays.
#[test]
fn telemetry_is_byte_identical_across_replays() {
    let first = instrumented_run();
    let replay = instrumented_run();
    assert_eq!(first.0, replay.0, "same-seed snapshot replay");
    assert_eq!(first.1, replay.1, "same-seed span replay");
    assert_eq!(first.2, replay.2, "same-seed chrome-trace replay");
    // Sanity: the instrumented run actually measured something.
    assert!(first.0.contains("jobs.submitted"));
    assert!(first.0.contains("fault.detections"));
    assert!(!first.1.is_empty(), "spans were collected");
    validate_json(&first.0).unwrap();
    validate_json(&first.2).unwrap();
    for line in first.1.lines() {
        validate_json(line).unwrap();
    }
}

/// The zero-cost contract: enabling telemetry must not perturb the
/// simulation. The event trace and handler count of an instrumented run
/// must equal those of the plain run of the same workload.
#[test]
fn telemetry_does_not_perturb_the_simulation() {
    let plain = mixed_workload_run(Cluster::new(mixed_workload_cfg()));
    let instrumented = instrumented_run();
    assert_eq!(plain.trace, instrumented.3, "event traces");
    assert_eq!(plain.messages, instrumented.4, "handler invocations");
}

#[test]
fn gang_runs_are_deterministic() {
    let run = || {
        let mut c = Cluster::new(ClusterConfig::gang_cluster().with_seed(31));
        let a = c.submit(
            JobSpec::new(
                AppSpec::Sweep3d {
                    iterations: 20,
                    compute_per_iter: SimSpan::from_millis(50),
                    comm_bytes_per_iter: 500_000,
                },
                64,
            )
            .with_ranks_per_node(2),
        );
        c.run_until_idle();
        (
            c.job(a).metrics.clone(),
            c.world().stats.strobes,
            c.events_delivered(),
        )
    };
    assert_eq!(run(), run());
}

/// Checkpoint/restore must be seamless: pausing a run mid-flight with
/// `Cluster::checkpoint()` and resuming the artifact with
/// `Cluster::restore()` must reproduce the uninterrupted run *exactly* —
/// same trace, same stats, same telemetry, same interleaving digest,
/// same final checkpoint bytes.
#[test]
fn checkpoint_restore_resume_is_byte_identical_on_wheel() {
    let cfg = ClusterConfig::paper_cluster()
        .with_seed(41)
        .with_telemetry(true)
        .with_fault_detection(4);
    let mut live = Cluster::new(cfg);
    live.enable_tracing();
    live.register_query("health", Condition::QuarantinedAbove(0));
    live.submit(JobSpec::new(AppSpec::do_nothing_mb(8), 128));
    live.submit_at(
        SimTime::from_millis(20),
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(150),
            },
            32,
        ),
    );
    live.fail_node_at(SimTime::from_millis(70), 5);

    // Pause mid-transfer, with a queued job and a pending fault event.
    live.run_until(SimTime::from_millis(45));
    let artifact = live.checkpoint();
    let mut resumed = Cluster::restore(&artifact).expect("restore");
    assert_eq!(resumed.now(), live.now());

    live.run_until(SimTime::from_millis(600));
    resumed.run_until(SimTime::from_millis(600));
    assert_eq!(
        live.interleaving_digest(),
        resumed.interleaving_digest(),
        "interleaving digest after resume"
    );
    assert_eq!(live.trace(), resumed.trace(), "event traces");
    assert_eq!(
        live.metrics_snapshot().to_json(),
        resumed.metrics_snapshot().to_json(),
        "telemetry snapshots"
    );
    assert_eq!(live.alerts(), resumed.alerts(), "continuous-query alerts");
    assert_eq!(live.world().stats, resumed.world().stats, "cluster stats");
    assert_eq!(
        live.checkpoint(),
        resumed.checkpoint(),
        "final checkpoints must be byte-identical"
    );
}

/// The same contract at the 16384-node envelope: two gang-scheduled
/// SWEEP3D jobs with heartbeats, checkpointed mid-run, restored and
/// resumed, end in the same checkpoint bytes as the uninterrupted run.
/// It also guards restore time, which once grew quadratically with
/// checkpoint size (minutes at this size), and the checkpoint's size:
/// at most 8.5 MB, which holds only while unmoved RNG streams are left
/// out, NM state is written as rows and the engine writes its pending
/// payloads inline rather than its arenas' slot tables. Slow in debug builds, so it only runs
/// on request: `cargo test --release --test determinism -- --ignored`.
#[test]
#[ignore = "16384 nodes; run in release mode with --ignored"]
fn checkpoint_restore_resume_is_byte_identical_at_16384_nodes() {
    let cfg = ClusterConfig::gang_cluster()
        .with_nodes(16_384)
        .with_seed(16)
        .with_fault_detection(4);
    let mut live = Cluster::new(cfg);
    for at in [0, 40] {
        live.submit_at(
            SimTime::from_millis(at),
            JobSpec::new(AppSpec::sweep3d_default(), 2 * 16_384).with_ranks_per_node(2),
        );
    }
    live.run_until(SimTime::from_secs(2));
    let artifact = live.checkpoint();
    let mb = artifact.len() as f64 / 1e6;
    println!("16384-node checkpoint at 2 s: {mb:.2} MB");
    assert!(mb <= 8.5, "the 16384-node checkpoint is {mb:.2} MB");
    let started = std::time::Instant::now();
    let mut resumed = Cluster::restore(&artifact).expect("restore");
    let restore_time = started.elapsed();
    assert!(
        restore_time < std::time::Duration::from_secs(30),
        "restoring {} MB took {restore_time:?}",
        artifact.len() >> 20
    );
    live.run_until(SimTime::from_secs(4));
    resumed.run_until(SimTime::from_secs(4));
    assert_eq!(live.world().stats, resumed.world().stats, "cluster stats");
    assert!(
        live.checkpoint() == resumed.checkpoint(),
        "final checkpoints must be byte-identical"
    );
}

/// A cluster under every perturbation a checkpoint must carry across:
/// two standby MMs, a seeded delivery order with up to 20 µs of delay, a
/// node crash and rejoin, a kill of the primary MM, telemetry, one
/// continuous query, a launch and a compute job.
fn hooked_faulty_cluster() -> Cluster {
    let faults = FaultSchedule::new()
        .crash(SimTime::from_millis(60), 3)
        .mm_crash(SimTime::from_millis(90), 0)
        .rejoin(SimTime::from_millis(150), 3);
    let order = DeliveryOrder::seeded(11, 3).with_max_delay(SimSpan::from_micros(20));
    let cfg = ClusterConfig::paper_cluster()
        .with_nodes(16)
        .with_seed(0x5EED)
        .with_mm_standbys(2)
        .with_telemetry(true)
        .with_fault_detection(4)
        .with_faults(faults)
        .with_failure_policy(FailurePolicy::requeue())
        .with_delivery_order(order);
    let mut c = Cluster::new(cfg);
    c.enable_tracing();
    c.register_query("quarantine", Condition::QuarantinedAbove(0));
    c.submit_at(
        SimTime::from_millis(5),
        JobSpec::new(AppSpec::do_nothing_mb(4), 32),
    );
    c.submit_at(
        SimTime::from_millis(20),
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(80),
            },
            16,
        ),
    );
    c
}

/// Checkpoint→restore→resume is byte-identical under a delivery-order
/// hook and faults too: a checkpoint taken before the first launch,
/// mid-transfer, mid-run or after the MM failover, restored and resumed
/// to the horizon, ends with the uninterrupted run's trace, alert log,
/// telemetry snapshot and checkpoint bytes.
#[test]
fn checkpoint_restore_resume_is_byte_identical_under_hooks_and_faults() {
    let horizon = SimTime::from_millis(300);
    let mut live = hooked_faulty_cluster();
    live.run_until(horizon);
    let want = (
        live.trace(),
        live.alerts().to_vec(),
        live.metrics_snapshot().to_json(),
        live.checkpoint(),
    );
    assert_eq!(
        live.world().repl.promotions,
        1,
        "the primary's kill fails over"
    );
    assert!(!live.alerts().is_empty(), "the crash raises the query");
    let launch = JobId(0);
    // A checkpoint instant, when it falls, and a check that it does.
    type Pause = (u64, &'static str, fn(&Cluster) -> bool);
    let pauses: [Pause; 4] = [
        (2, "before the first launch", |c| {
            c.world().jobs.iter().all(|j| j.metrics.submitted.is_none())
        }),
        (15, "mid-transfer", |c| {
            c.job(JobId(0)).state == JobState::Transferring
        }),
        (70, "mid-run", |c| {
            c.world()
                .placed_jobs()
                .any(|j| j.state == JobState::Running)
        }),
        (130, "after the failover", |c| c.world().mm_active_rank != 0),
    ];
    for (ms, when, holds) in pauses {
        let mut paused = hooked_faulty_cluster();
        paused.run_until(SimTime::from_millis(ms));
        assert!(holds(&paused), "{ms} ms is not {when}");
        let mut resumed = Cluster::restore(&paused.checkpoint()).expect("restore");
        resumed.run_until(horizon);
        let got = (
            resumed.trace(),
            resumed.alerts().to_vec(),
            resumed.metrics_snapshot().to_json(),
            resumed.checkpoint(),
        );
        assert_eq!(got.0, want.0, "trace, resumed {when}");
        assert_eq!(got.1, want.1, "alert log, resumed {when}");
        assert_eq!(got.2, want.2, "telemetry, resumed {when}");
        assert!(got.3 == want.3, "final checkpoint, resumed {when}");
    }
    assert_eq!(live.job(launch).state, JobState::Completed);
}

/// The continuous-query zero-cost contract: with no queries registered
/// the boundary hook is a single branch, so a run on a cluster that
/// never touches the query surface is byte-identical to one that has it
/// wired in but empty — and registering queries changes observations
/// only (alerts, counters), never the simulation.
#[test]
fn zero_queries_are_byte_identical_and_registered_queries_only_observe() {
    let run = |register: bool| {
        let cfg = ClusterConfig::paper_cluster()
            .with_seed(53)
            .with_fault_detection(4);
        let mut c = Cluster::new(cfg);
        c.enable_tracing();
        if register {
            c.register_query("health", Condition::QuarantinedAbove(0));
            c.register_query("backlog", Condition::QueueDepthGrowingFor(3));
        }
        c.submit(JobSpec::new(AppSpec::do_nothing_mb(6), 128));
        c.fail_node_at(SimTime::from_millis(40), 11);
        c.run_until(SimTime::from_millis(300));
        (
            c.interleaving_digest(),
            c.trace(),
            c.events_delivered(),
            c.world().stats.clone(),
            c.alerts().to_vec(),
        )
    };
    let bare = run(false);
    let watched = run(true);
    assert_eq!(bare.0, watched.0, "interleaving digest");
    assert_eq!(bare.1, watched.1, "event trace");
    assert_eq!(bare.2, watched.2, "events delivered");
    assert_eq!(bare.3, watched.3, "cluster stats");
    assert!(bare.4.is_empty(), "no queries, no alerts");
    assert!(!watched.4.is_empty(), "quarantine fires the health query");
}

/// The Chrome trace exporter in full: the document a real instrumented
/// run produces must be valid JSON with the expected event stream —
/// metadata tracks, instant events for simulator trace records, complete
/// (`"ph": "X"`) events for job phases — and the *event ordering* must
/// be deterministic: two same-seed runs emit the identical sequence of
/// (name, phase, timestamp, track) tuples, and instants appear in
/// non-decreasing time order (the order the simulation handled them).
#[test]
fn chrome_trace_is_valid_and_ordering_is_deterministic() {
    use storm::telemetry::json;

    let events = |doc: &str| -> Vec<(String, String, String, u64, u64)> {
        let v = json::parse(doc).expect("chrome trace parses");
        v.req("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| {
                (
                    e.req("name").unwrap().as_str().unwrap().to_string(),
                    e.req("ph").unwrap().as_str().unwrap().to_string(),
                    match e.get("ts") {
                        Some(json::Value::Num(tok)) => tok.clone(),
                        _ => String::new(),
                    },
                    e.req("pid").unwrap().as_u64().unwrap(),
                    e.get("tid").and_then(|t| t.as_u64()).unwrap_or(0),
                )
            })
            .collect()
    };

    let first = instrumented_run();
    let second = instrumented_run();
    validate_json(&first.2).unwrap();
    assert_eq!(first.2, second.2, "same-seed chrome traces byte-identical");

    let evs = events(&first.2);
    assert_eq!(evs, events(&second.2), "event sequences identical");
    // Both process tracks are named, and both event kinds are present.
    let metas: Vec<_> = evs.iter().filter(|e| e.1 == "M").collect();
    assert_eq!(
        metas.iter().filter(|e| e.0 == "process_name").count(),
        2,
        "daemon + job process metadata"
    );
    assert!(evs.iter().any(|e| e.1 == "i" && e.3 == 0), "instant events");
    assert!(evs.iter().any(|e| e.1 == "X" && e.3 == 1), "phase events");
    // Instant events replay the trace log: strictly chronological.
    let instant_ts: Vec<f64> = evs
        .iter()
        .filter(|e| e.1 == "i")
        .map(|e| e.2.parse().unwrap())
        .collect();
    assert!(!instant_ts.is_empty());
    assert!(
        instant_ts.windows(2).all(|w| w[0] <= w[1]),
        "instants non-decreasing in time"
    );
}
