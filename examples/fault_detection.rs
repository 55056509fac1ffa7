//! Fault detection with the STORM mechanisms (§4).
//!
//! "A master process periodically multicasts a heartbeat message (with
//! XFER-AND-SIGNAL) and queries the slaves for receipt (with
//! COMPARE-AND-WRITE). If the query returns FALSE, indicating that a slave
//! missed a heartbeat, the master can gather status information to isolate
//! the failed slave."
//!
//! This example runs a 64-node cluster with heartbeat fault detection,
//! kills three nodes at different instants, and reports how quickly each
//! was detected and which jobs were failed over.
//!
//! Run with: `cargo run --release --example fault_detection`

use storm::core::prelude::*;

fn main() {
    let mut config = ClusterConfig::paper_cluster();
    config.fault_detection = true;
    config.heartbeat_every = 8; // one fault round every 8 heartbeats (8 ms)
    let mut cluster = Cluster::new(config);

    // A long-running job spanning half the machine (nodes 0..32).
    let victim_job = cluster.submit(
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_secs(30),
            },
            128,
        )
        .named("long-running"),
    );

    // Inject three failures: one under the job, two elsewhere.
    let failures = [
        (SimTime::from_millis(500), 17u32),
        (SimTime::from_millis(900), 55),
        (SimTime::from_millis(1300), 56),
    ];
    for &(at, node) in &failures {
        cluster.fail_node_at(at, node);
    }

    cluster.run_until(SimTime::from_secs(3));

    println!("=== Heartbeat fault detection ===");
    println!("fault round every 8 ms; failures injected at 500/900/1300 ms\n");
    let detected = &cluster.world().stats.failures_detected;
    for &(injected_at, node) in &failures {
        match detected.iter().find(|&&(n, _)| n == node) {
            Some(&(_, at)) => {
                println!(
                    "node {node:>2}: failed at {injected_at}, detected at {at} \
                     (latency {})",
                    at.since(injected_at)
                );
            }
            None => println!("node {node:>2}: NOT detected (!)"),
        }
    }

    let job = cluster.job(victim_job);
    println!(
        "\njob '{}' on nodes 0..32: state {:?}",
        job.spec.name, job.state
    );
    assert_eq!(
        job.state,
        JobState::Failed,
        "the job touching node 17 must be failed over"
    );
    assert_eq!(detected.len(), 3, "all three failures detected");
    println!(
        "\nAll {} failures detected; the COMPARE-AND-WRITE query pinpointed each \
         lagging node in one gather.",
        detected.len()
    );

    // ---------------------------------------------------------------------
    // Part two: the same crash under FailurePolicy::Requeue. The victim is
    // evicted, the dead node quarantined, the job retried on surviving
    // capacity — and when the node rejoins 500 ms later it is re-admitted
    // and can host new work.
    println!("\n=== Failure recovery: requeue + rejoin ===");
    let cfg = ClusterConfig::paper_cluster()
        .with_fault_detection(8)
        .with_failure_policy(FailurePolicy::requeue())
        .with_faults(
            FaultSchedule::new()
                .crash(SimTime::from_millis(500), 17)
                .rejoin(SimTime::from_millis(1_000), 17),
        );
    let mut cluster = Cluster::new(cfg);
    let phoenix = cluster.submit(
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(800),
            },
            128,
        )
        .named("phoenix"),
    );
    cluster.run_until(SimTime::from_millis(1_200));
    // By now node 17 crashed, the job was requeued elsewhere, and the node
    // rejoined; a full-width job proves the machine is whole again.
    let full = cluster.submit(JobSpec::new(AppSpec::do_nothing_mb(4), 256).named("full-width"));
    cluster.run_until(SimTime::from_secs(4));

    let w = cluster.world();
    let job = cluster.job(phoenix);
    println!(
        "job 'phoenix': state {:?} after {} retr{} (requeues: {})",
        job.state,
        job.attempt,
        if job.attempt == 1 { "y" } else { "ies" },
        w.stats.requeues
    );
    println!(
        "node 17: detected at {:?}, re-admitted at {:?}",
        w.stats.failures_detected.first().map(|&(_, t)| t),
        w.stats.rejoins.first().map(|&(_, t)| t),
    );
    println!("job 'full-width': state {:?}", cluster.job(full).state);
    assert_eq!(
        job.state,
        JobState::Completed,
        "requeued job survived the crash"
    );
    assert_eq!(job.attempt, 1, "one retry was enough");
    assert_eq!(w.stats.rejoins.len(), 1, "node 17 was re-admitted");
    assert_eq!(
        cluster.job(full).state,
        JobState::Completed,
        "all 64 nodes usable after the rejoin"
    );
    println!("\nSame crash, no job lost: requeue + quarantine + rejoin.");
}
