//! The checkpoint format, pinned byte for byte.
//!
//! `fixtures/ckpt_v9.json` is a version-9 checkpoint of a small cluster
//! that exercises most of the format at once: 8 nodes with 2 standby MMs,
//! a seeded delivery order with bounded delay, the CAW audit trail,
//! telemetry, a bounded trace, two continuous queries, a crash, a rejoin,
//! a stall and an MM kill, frozen mid-run at 45 ms. Restoring it and
//! checkpointing again must reproduce it exactly, so any change to how a
//! type is encoded or decoded shows up here as a diff.
//!
//! After a deliberate layout change (which also bumps
//! `CHECKPOINT_VERSION`), regenerate the fixture with
//! `cargo test -p storm-core --test checkpoint_format -- --ignored`.

use storm_core::prelude::*;
use storm_sim::DeliveryOrder;

const FIXTURE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/ckpt_v9.json");
const FIXTURE: &str = include_str!("fixtures/ckpt_v9.json");

/// The run the fixture was taken from.
fn fixture_run() -> Cluster {
    let faults = FaultSchedule::new()
        .stall(5, SimTime::from_millis(4), SimTime::from_millis(14))
        .crash(SimTime::from_millis(9), 2)
        .mm_crash(SimTime::from_millis(17), 0)
        .rejoin(SimTime::from_millis(30), 2);
    let cfg = ClusterConfig::paper_cluster()
        .with_nodes(8)
        .with_seed(2002)
        .with_mm_standbys(2)
        .with_telemetry(true)
        .with_fault_detection(4)
        .with_faults(faults)
        .with_failure_policy(FailurePolicy::requeue())
        .with_delivery_order(DeliveryOrder::seeded(7, 3).with_max_delay(SimSpan::from_micros(20)));
    let mut cluster = Cluster::new(cfg);
    cluster.with_world_mut(|w| w.mech.memory.enable_caw_audit());
    cluster.enable_tracing_with_capacity(24);
    cluster.register_query("quarantine", Condition::QuarantinedAbove(0));
    cluster.register_query("backlog", Condition::QueueDepthGrowingFor(2));
    cluster.submit(JobSpec::new(AppSpec::do_nothing_mb(2), 12).named("launch"));
    cluster.submit_at(
        SimTime::from_millis(6),
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(20),
            },
            8,
        ),
    );
    cluster.run_until(SimTime::from_millis(45));
    cluster
}

#[test]
fn fixture_restores_and_checkpoints_to_the_same_bytes() {
    let restored = Cluster::restore(FIXTURE).expect("the committed fixture restores");
    assert!(
        restored.checkpoint() == FIXTURE,
        "re-encoding the fixture changed its bytes; if the layout change is \
         deliberate, bump CHECKPOINT_VERSION and regenerate the fixture"
    );
}

#[test]
#[ignore = "rewrites tests/fixtures/ckpt_v9.json"]
fn regenerate_fixture() {
    std::fs::write(FIXTURE_PATH, fixture_run().checkpoint()).expect("write fixture");
}
