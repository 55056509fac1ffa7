//! The launch envelope at 16,384 nodes: one launch after another leaves
//! memory and checkpoint size flat.
//!
//! A launch allocates a flow-control variable on every node's row of
//! global memory, and every NM that hosts the job keeps a resident entry
//! for it. A finished job returns the variable to the free list and the
//! NM forgets the entry at its next launch, so after the first launches
//! neither the process nor its checkpoint grows. Release-only and ignored
//! by default: `cargo test --release --test launch_envelope -- --ignored
//! --nocapture`. This file holds exactly one `#[test]`, so the resident
//! set it reads is this run's alone.

use storm::core::prelude::*;

/// The resident set of this process in MB, where the OS reports it.
fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[test]
#[ignore = "16,384 nodes; run in release mode with --ignored"]
fn sequential_launches_leave_memory_and_checkpoints_flat() {
    let mut cluster = Cluster::new(ClusterConfig::paper_cluster().with_nodes(16_384));
    let launches = 1_000u64;
    // One one-node 12 MB launch every 200 ms; each finishes in ~100 ms.
    for i in 0..launches {
        cluster.submit_at(
            SimTime::from_millis(200 * i),
            JobSpec::new(AppSpec::do_nothing_mb(12), 4),
        );
    }
    let mut sample = |launched: u64| {
        cluster.run_until(SimTime::from_millis(200 * launched));
        assert_eq!(cluster.world().stats.completed_jobs, launched);
        let mb = cluster.checkpoint().len() as f64 / 1e6;
        (mb, rss_mb())
    };
    let (early_mb, early_rss) = sample(100);
    let (late_mb, late_rss) = sample(launches);
    println!(
        "after 100 launches: checkpoint {early_mb:.2} MB, RSS {early_rss:?} MB; \
         after {launches}: checkpoint {late_mb:.2} MB, RSS {late_rss:?} MB"
    );
    assert!(
        late_mb < early_mb * 1.1,
        "the checkpoint grew from {early_mb:.2} to {late_mb:.2} MB"
    );
    if let (Some(early), Some(late)) = (early_rss, late_rss) {
        assert!(
            late < early + 16.0,
            "the resident set grew from {early:.0} to {late:.0} MB"
        );
    }
}
