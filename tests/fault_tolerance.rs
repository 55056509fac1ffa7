//! Fault-detection and failure-injection integration tests (§4).

use storm::core::prelude::*;

fn fault_cluster(heartbeat_every: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_cluster();
    cfg.fault_detection = true;
    cfg.heartbeat_every = heartbeat_every;
    cfg
}

#[test]
fn failed_node_is_detected_within_two_rounds() {
    let mut c = Cluster::new(fault_cluster(8)); // round every 8 ms
    c.fail_node_at(SimTime::from_millis(100), 42);
    c.run_until(SimTime::from_millis(200));
    let detected = &c.world().stats.failures_detected;
    assert_eq!(detected.len(), 1);
    let (node, at) = detected[0];
    assert_eq!(node, 42);
    let latency = at.since(SimTime::from_millis(100));
    assert!(
        latency <= SimSpan::from_millis(17),
        "detection within ~2 rounds: {latency}"
    );
}

#[test]
fn healthy_cluster_raises_no_alarms() {
    let mut c = Cluster::new(fault_cluster(4));
    c.run_until(SimTime::from_secs(1));
    assert!(c.world().stats.failures_detected.is_empty());
    // Heartbeats flowed the whole time.
    assert!(c.world().hb_round > 200, "rounds: {}", c.world().hb_round);
}

#[test]
fn multiple_failures_are_isolated_individually() {
    let mut c = Cluster::new(fault_cluster(8));
    for (i, node) in [3u32, 9, 31, 63].iter().enumerate() {
        c.fail_node_at(SimTime::from_millis(50 + 40 * i as u64), *node);
    }
    c.run_until(SimTime::from_millis(500));
    let mut detected: Vec<u32> = c
        .world()
        .stats
        .failures_detected
        .iter()
        .map(|&(n, _)| n)
        .collect();
    detected.sort_unstable();
    assert_eq!(detected, vec![3, 9, 31, 63]);
}

#[test]
fn jobs_on_failed_nodes_are_failed_over() {
    let mut c = Cluster::new(fault_cluster(8));
    // Two jobs: one on the failing node's half, one elsewhere.
    let doomed = c.submit(
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_secs(10),
            },
            32 * 4,
        )
        .named("doomed"),
    );
    c.run_until(SimTime::from_millis(300)); // let it start
    let nodes = c.job(doomed).alloc().nodes.clone();
    c.fail_node_at(SimTime::from_millis(350), nodes.start);
    c.run_until(SimTime::from_millis(700));
    assert_eq!(c.job(doomed).state, JobState::Failed);
}

#[test]
fn survivors_keep_running_after_a_failure() {
    let mut c = Cluster::new(fault_cluster(8));
    let survivor = c.submit(
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_secs(2),
            },
            16 * 4,
        )
        .named("survivor"),
    );
    c.run_until(SimTime::from_millis(200));
    // Fail a node outside the survivor's allocation.
    let alloc = c.job(survivor).alloc().nodes.clone();
    let outside = (0..64).find(|n| !alloc.contains(n)).unwrap();
    c.fail_node_at(SimTime::from_millis(250), outside);
    c.run_until(SimTime::from_secs(5));
    assert_eq!(c.job(survivor).state, JobState::Completed);
    assert_eq!(c.world().stats.failures_detected.len(), 1);
}

#[test]
fn xfer_network_errors_are_retried_atomically() {
    // Inject a 10% XFER-AND-SIGNAL error rate through the declarative fault
    // schedule; the transfer protocol must retry aborted fragments and
    // still deliver the exact binary.
    let cfg = ClusterConfig::paper_cluster()
        .with_seed(9)
        .with_faults(FaultSchedule::new().with_xfer_errors(0.10));
    let mut c = Cluster::new(cfg);
    let j = c.submit(JobSpec::new(AppSpec::do_nothing_mb(8), 64));
    c.run_until_idle();
    assert_eq!(c.job(j).state, JobState::Completed);
    assert!(
        c.world().stats.xfer_retries > 0,
        "errors were actually injected and retried"
    );
    assert_eq!(
        c.world().stats.fragments,
        u64::from(c.job(j).transfer.total_chunks),
        "every fragment eventually delivered exactly once"
    );
}

#[test]
fn transient_error_burst_only_bites_inside_its_window() {
    // A burst confined to [5 ms, 30 ms) with error probability 1.0 stalls
    // every broadcast inside the window; after it passes, the transfer
    // completes normally.
    let cfg =
        ClusterConfig::paper_cluster()
            .with_seed(11)
            .with_faults(FaultSchedule::new().with_burst(
                SimTime::from_millis(5),
                SimTime::from_millis(30),
                1.0,
            ));
    let mut c = Cluster::new(cfg);
    let j = c.submit(JobSpec::new(AppSpec::do_nothing_mb(8), 64));
    c.run_until_idle();
    assert_eq!(c.job(j).state, JobState::Completed);
    assert!(
        c.world().stats.xfer_retries > 0,
        "the burst aborted transfers"
    );
}

#[test]
fn failed_job_allocation_is_reusable_by_later_jobs() {
    // Regression (S2): under the default `Fail` policy, a failed job's
    // buddy allocation must be freed and the dead node quarantined, so a
    // later submit can re-use the *surviving* nodes of the victim's block.
    let mut c = Cluster::new(fault_cluster(8));
    let doomed = c.submit(
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_secs(10),
            },
            32 * 4,
        )
        .named("doomed"),
    );
    c.run_until(SimTime::from_millis(300));
    let alloc = c.job(doomed).alloc().nodes.clone();
    let dead = alloc.start;
    c.fail_node_at(SimTime::from_millis(350), dead);
    c.run_until(SimTime::from_millis(700));
    assert_eq!(c.job(doomed).state, JobState::Failed);
    assert!(
        c.world().matrix.is_quarantined(dead),
        "dead node quarantined"
    );
    // A half-width job must fit on the surviving half of the freed block.
    let next = c.submit(
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(50),
            },
            16 * 4,
        )
        .named("reuser"),
    );
    c.run_until(SimTime::from_secs(3));
    assert_eq!(
        c.job(next).state,
        JobState::Completed,
        "freed nodes reusable"
    );
    let reused = c.job(next).alloc().nodes.clone();
    assert!(
        !reused.contains(&dead),
        "quarantined node never re-allocated"
    );
}

#[test]
fn requeue_policy_retries_victim_on_surviving_capacity() {
    // Crash one node of a running job under `Requeue`: the job is evicted,
    // requeued with a bumped attempt, placed on surviving capacity, and
    // completes.
    let mut cfg = fault_cluster(4);
    cfg = cfg.with_failure_policy(FailurePolicy::requeue());
    let mut c = Cluster::new(cfg);
    let job = c.submit(
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(400),
            },
            16 * 4,
        )
        .named("phoenix"),
    );
    c.run_until(SimTime::from_millis(200));
    let dead = c.job(job).alloc().nodes.start;
    c.fail_node_at(SimTime::from_millis(220), dead);
    c.run_until(SimTime::from_secs(3));
    let rec = c.job(job);
    assert_eq!(rec.state, JobState::Completed, "requeued job completed");
    assert_eq!(rec.attempt, 1, "exactly one retry");
    assert_eq!(c.world().stats.requeues, 1);
    assert!(
        !rec.alloc().nodes.contains(&dead),
        "retry avoided the dead node"
    );
}

#[test]
fn retry_budget_exhaustion_fails_the_job() {
    // Keep killing whichever node hosts the job; after `max_retries`
    // requeues the budget runs out and the job fails for good.
    let cfg = fault_cluster(4).with_failure_policy(FailurePolicy::Requeue {
        max_retries: 2,
        backoff: SimSpan::from_millis(5),
    });
    let mut c = Cluster::new(cfg);
    let job = c.submit(
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_secs(30),
            },
            16 * 4,
        )
        .named("cursed"),
    );
    // Walk the failure across enough distinct nodes to chase every retry:
    // the 16-node job always lands on a 16-aligned block, so killing one
    // node out of each block eventually catches every incarnation.
    for (i, node) in [0u32, 16, 32, 48].iter().enumerate() {
        c.fail_node_at(SimTime::from_millis(200 + 300 * i as u64), *node);
    }
    c.run_until(SimTime::from_secs(5));
    let rec = c.job(job);
    assert_eq!(rec.state, JobState::Failed, "budget exhausted -> Failed");
    assert_eq!(rec.attempt, 2, "both retries were spent");
}

#[test]
fn stalled_node_rejoins_without_job_loss() {
    // A dæmon stall long enough to trip the detector must NOT kill the
    // node: when the stall ends the deferred heartbeats catch up and the
    // node is re-admitted.
    let mut cfg = fault_cluster(4);
    cfg = cfg.with_faults(FaultSchedule::new().stall(
        7,
        SimTime::from_millis(50),
        SimTime::from_millis(120),
    ));
    let mut c = Cluster::new(cfg);
    c.run_until(SimTime::from_millis(400));
    let w = c.world();
    assert_eq!(
        w.stats.failures_detected.len(),
        1,
        "the stall tripped the detector: {:?}",
        w.stats.failures_detected
    );
    assert_eq!(w.stats.failures_detected[0].0, 7);
    assert_eq!(w.stats.rejoins.len(), 1, "the node was re-admitted");
    assert_eq!(w.stats.rejoins[0].0, 7);
    assert!(
        !w.matrix.is_quarantined(7),
        "quarantine lifted after rejoin"
    );
}

#[test]
fn crashed_node_rejoins_and_hosts_new_work() {
    // Crash node 9 at 40 ms, revive it at 540 ms; after re-admission a
    // full-width job (needs all 64 nodes) must be placeable — proof the
    // rejoined node is back in the allocator.
    let mut cfg = fault_cluster(4);
    cfg = cfg.with_faults(
        FaultSchedule::new()
            .crash(SimTime::from_millis(40), 9)
            .rejoin(SimTime::from_millis(540), 9),
    );
    let mut c = Cluster::new(cfg);
    c.run_until(SimTime::from_secs(1));
    assert_eq!(c.world().stats.failures_detected.len(), 1);
    assert_eq!(c.world().stats.rejoins.len(), 1, "node re-admitted");
    let full = c.submit(JobSpec::new(AppSpec::do_nothing_mb(4), 64 * 4).named("full-width"));
    c.run_until(SimTime::from_secs(2));
    assert_eq!(
        c.job(full).state,
        JobState::Completed,
        "all 64 nodes usable again"
    );
}
