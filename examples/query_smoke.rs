//! CI smoke for the queryable-state surface (DESIGN.md §17): runs an
//! instrumented cluster with standing queries, freezes it mid-run to a
//! checkpoint artifact, proves restore→resume is byte-identical to the
//! uninterrupted run, and writes the sample `CKPT_*.json` plus the alert
//! log CI uploads.
//!
//! Output paths override with `CKPT_OUT` / `ALERTS_OUT`.
//!
//! Run with: `cargo run --release --example query_smoke`

use storm::core::prelude::*;

fn build() -> Cluster {
    let cfg = ClusterConfig::paper_cluster()
        .with_seed(71)
        .with_failure_policy(FailurePolicy::requeue())
        .with_fault_detection(4)
        .with_telemetry(true);
    let mut c = Cluster::new(cfg);
    c.enable_tracing();
    c.register_query("quarantine", Condition::QuarantinedAbove(0));
    c.register_query("backlog", Condition::QueueDepthGrowingFor(2));
    c.submit(JobSpec::new(AppSpec::do_nothing_mb(8), 128).named("headline"));
    c.submit_at(
        SimTime::from_millis(15),
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(100),
            },
            64,
        )
        .named("gang"),
    );
    c.fail_node_at(SimTime::from_millis(35), 11);
    c.rejoin_node_at(SimTime::from_millis(160), 11);
    c
}

fn main() {
    let ckpt_path = std::env::var("CKPT_OUT").unwrap_or_else(|_| "CKPT_sample.json".into());
    let alerts_path = std::env::var("ALERTS_OUT").unwrap_or_else(|_| "ALERTS_sample.jsonl".into());
    let horizon = SimTime::from_millis(400);

    // The uninterrupted run is the reference.
    let mut reference = build();
    reference.run_until(horizon);

    // Same build, frozen mid-run — while a job is in flight and the
    // injected fault is still pending — then thawed and resumed.
    let mut half = build();
    half.run_until(SimTime::from_millis(30));
    let artifact = half.checkpoint();
    std::fs::write(&ckpt_path, &artifact).expect("write checkpoint");
    let mut resumed = Cluster::restore(&artifact).expect("restore sample checkpoint");
    resumed.run_until(horizon);

    assert_eq!(
        reference.interleaving_digest(),
        resumed.interleaving_digest(),
        "resume must replay the reference interleaving"
    );
    assert_eq!(reference.trace(), resumed.trace(), "trace");
    assert_eq!(
        reference.metrics_snapshot().to_json(),
        resumed.metrics_snapshot().to_json(),
        "metrics snapshot"
    );
    assert_eq!(reference.alerts(), resumed.alerts(), "alert log");
    assert_eq!(
        reference.checkpoint(),
        resumed.checkpoint(),
        "final checkpoints byte-identical"
    );

    // Publish the alert log the standing queries produced.
    let mut log = String::new();
    for a in reference.alerts() {
        log.push_str(&format!(
            "{{\"slice\": {}, \"at_ns\": {}, \"query\": \"{}\", \"observed\": {}}}\n",
            a.slice,
            a.at.as_nanos(),
            a.query,
            a.observed
        ));
    }
    std::fs::write(&alerts_path, &log).expect("write alert log");
    assert!(
        !reference.alerts().is_empty(),
        "the injected fault must raise quarantine alerts"
    );

    println!(
        "query smoke ok: {} alerts, checkpoint {} KiB at 30ms resumed to {} \
         byte-identically\nwrote {ckpt_path} and {alerts_path}",
        reference.alerts().len(),
        artifact.len() / 1024,
        horizon
    );
}
