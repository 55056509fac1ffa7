//! Deterministic-simulation-testing acceptance: the DST hooks are
//! zero-cost when disabled, genuinely explore the schedule space when
//! enabled, and the detect → shrink → replay pipeline produces tiny,
//! faithful repro artifacts. See DESIGN.md §14.

use storm::core::prelude::*;
use storm::sim::DeliveryOrder;
use storm_dst::prelude::{
    explore_swarm, replay, run_scenario, run_scenario_caught, shrink, Injection, InjectionKind,
    OrderSpec, Repro, Scenario,
};

/// A workload touching every fan-out path: a chunked binary launch, two
/// gang-rotating compute jobs, and a crash + rejoin under the heartbeat
/// loop. Small enough to run in milliseconds, rich enough that any
/// ordering drift would show in the trace.
fn mixed_cfg() -> ClusterConfig {
    ClusterConfig::paper_cluster()
        .with_seed(0xD57)
        .with_failure_policy(FailurePolicy::requeue())
        .with_fault_detection(4)
}

/// Everything a run exposes: trace, stats, job states and metrics, handler
/// invocations and queue pops.
type MixedRun = (String, ClusterStats, Vec<(JobState, JobMetrics)>, u64, u64);

fn mixed_run(cfg: ClusterConfig) -> MixedRun {
    let mut c = Cluster::new(cfg);
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
    c.fail_node_at(SimTime::from_millis(40), 9);
    c.rejoin_node_at(SimTime::from_millis(120), 9);
    c.run_until(SimTime::from_millis(300));
    let jobs = c
        .report()
        .jobs
        .iter()
        .map(|j| (j.state, j.metrics.clone()))
        .collect();
    (
        c.trace(),
        c.world().stats.clone(),
        jobs,
        c.messages_handled(),
        c.events_delivered(),
    )
}

/// The zero-drift contract: an *inert* delivery-order hook — an empty tie
/// script, or a seeded order with amplitude 0 — must leave the run
/// byte-identical to no hook at all. Every tie is 0, so the total order
/// `(time, 0, seq)` collapses to the classic `(time, seq)`.
#[test]
fn inert_dst_hooks_cause_zero_behavioral_drift() {
    let plain = mixed_run(mixed_cfg());
    let scripted = mixed_run(mixed_cfg().with_delivery_order(DeliveryOrder::script(Vec::new())));
    let seeded = mixed_run(mixed_cfg().with_delivery_order(DeliveryOrder::seeded(0x9E37, 0)));
    assert_eq!(plain.0, scripted.0, "trace: empty script vs none");
    assert_eq!(plain.0, seeded.0, "trace: amplitude-0 seed vs none");
    assert_eq!(plain.1, scripted.1, "stats: empty script vs none");
    assert_eq!(plain.1, seeded.1, "stats: amplitude-0 seed vs none");
    assert_eq!(plain.2, scripted.2, "job states and metrics: empty script");
    assert_eq!(
        plain.2, seeded.2,
        "job states and metrics: amplitude-0 seed"
    );
    assert_eq!(plain.3, scripted.3, "handler invocations");
    assert_eq!(plain.3, seeded.3, "handler invocations");
    assert_eq!(plain.4, scripted.4, "queue pops");
    assert_eq!(plain.4, seeded.4, "queue pops");
}

/// A *non*-inert order must actually reorder: same workload, amplitude 3,
/// different trace digest than the default order for at least one seed.
#[test]
fn seeded_reordering_actually_reorders() {
    let base = run_scenario(&Scenario::two_node_launch());
    let reordered = (0..8).map(|seed| {
        run_scenario(&Scenario::two_node_launch().with_order(OrderSpec::Seeded {
            seed,
            amplitude: 3,
            delay_us: 0,
        }))
    });
    assert!(
        reordered.into_iter().any(|o| o.digest != base.digest),
        "eight seeded orders never diverged from the default schedule"
    );
}

/// Acceptance criterion: a seeded reordering sweep explores at least 100
/// distinct interleavings of the 2-node launch. Tie permutation plus a
/// 20 µs bounded delivery delay makes every seed reach a distinct
/// schedule, and every one of them must satisfy all oracles.
#[test]
fn swarm_explores_at_least_100_distinct_interleavings() {
    let report = explore_swarm(&Scenario::two_node_launch(), 3, 20, 0..128);
    assert_eq!(report.runs, 128);
    assert!(
        report.failure.is_none(),
        "an oracle fired during exploration: {:?}",
        report.failure
    );
    assert!(
        report.distinct >= 100,
        "only {} distinct interleavings in 128 seeded runs",
        report.distinct
    );
}

/// Acceptance criterion: an intentionally seeded oracle violation shrinks
/// to a repro of at most 10 events whose artifact replays
/// deterministically — twice, from the serialized JSON.
#[test]
fn seeded_violation_shrinks_to_tiny_replayable_artifact() {
    let seeded = Scenario::small_chaos()
        .with_order(OrderSpec::Seeded {
            seed: 0xBEEF,
            amplitude: 2,
            delay_us: 0,
        })
        .with_injection(Injection {
            at_ms: 30,
            kind: InjectionKind::CompletedSkew,
        });
    let outcome = run_scenario_caught(&seeded);
    assert!(outcome.failed(), "the seeded violation was not detected");

    let (minimal, min_out) = shrink(&seeded, &outcome);
    let repro = Repro::from_run(&minimal, &min_out);
    assert!(
        repro.event_count <= 10,
        "shrunk repro still has {} events",
        repro.event_count
    );

    // The artifact must survive serialization and replay byte-identically.
    let text = repro.to_json_string();
    let back = Repro::from_json_str(&text).expect("artifact parses");
    let report = replay(&back);
    assert!(
        report.faithful(),
        "replay mismatches: {:?}",
        report.mismatches
    );
}

/// Acceptance criterion for the replicated MM: kill the active MM at
/// *every* timeslice boundary of the two-node launch window and the full
/// oracle suite — including `single_active_mm`, `no_job_lost` and
/// `repl_consistency` — holds at every boundary of every run, with the
/// launch completing under the promoted standby each time.
#[test]
fn mm_kill_at_every_boundary_never_violates_an_oracle() {
    use storm_dst::prelude::{FaultKind, FaultSpec};
    let base = Scenario::two_node_launch();
    // Replicate the MM and turn the heartbeat/watchdog machinery on; give
    // the run enough horizon to detect, promote, resync and finish.
    for kill_ms in 0..=base.horizon_ms {
        let mut s = base.clone();
        s.name = format!("mm-kill-at-{kill_ms}ms");
        s.heartbeat_every = 4;
        s.mm_standbys = 1;
        s.horizon_ms = 160;
        s.faults.push(FaultSpec {
            at_ms: kill_ms,
            node: 0, // rank 0 = the active primary
            kind: FaultKind::MmKill,
        });
        let out = run_scenario(&s);
        assert!(
            out.violation.is_none(),
            "kill at {kill_ms} ms: {:?}",
            out.violation
        );
        assert_eq!(
            out.completed, 1,
            "kill at {kill_ms} ms: launch did not complete under the new MM"
        );
    }
}
