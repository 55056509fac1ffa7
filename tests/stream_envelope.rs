//! The job-stream envelope: a long stream costs the same per job as a
//! short one, and a finished job leaves a bounded record behind.
//!
//! Every per-boundary scan of the MM walks the gang matrix's placements,
//! `World::is_idle` reads a count, and a finished job frees its report
//! sets and flow-control variable, so neither host time per job nor
//! checkpoint bytes per job may grow with the length of the stream.
//! Release-only and ignored by default (the long stream takes ~15 s):
//! `cargo test --release --test stream_envelope -- --ignored --nocapture`.

use std::time::Instant;
use storm::apps::StreamConfig;
use storm::core::prelude::*;
use storm::sim::DeterministicRng;

/// An EASY-backfill stream of `jobs` Feitelson-style jobs on the paper
/// cluster (50 ms slice, load below 1), run until idle. Returns the wall
/// seconds the run took and the end checkpoint's size in bytes.
fn easy_stream(jobs: usize) -> (f64, usize) {
    let cfg = ClusterConfig::paper_cluster()
        .with_scheduler(SchedulerKind::Backfill)
        .with_timeslice(SimSpan::from_millis(50))
        .with_seed(4242);
    let mut cluster = Cluster::new(cfg);
    let stream = StreamConfig {
        jobs,
        mean_interarrival: SimSpan::from_secs(4),
        min_ranks: 8,
        max_ranks: 256,
        median_runtime: SimSpan::from_secs(6),
        runtime_sigma: 1.0,
        estimate_factor: 2.0,
    }
    .generate(&mut DeterministicRng::new(1));
    for j in &stream {
        cluster.submit_at(
            j.arrival,
            JobSpec::new(j.app.clone(), j.ranks).with_estimate(j.estimate),
        );
    }
    let started = Instant::now();
    cluster.run_until_idle();
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(cluster.world().stats.completed_jobs, jobs as u64);
    (wall, cluster.checkpoint().len())
}

#[test]
#[ignore = "a 16,000-job stream; run in release mode with --ignored"]
fn a_long_stream_costs_the_same_per_job_as_a_short_one() {
    // The short stream is the noisier measurement: take its best of 3.
    let short = 1_000;
    let (short_wall, short_bytes) = (0..3)
        .map(|_| easy_stream(short))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("three runs");
    let long = 16_000;
    let (long_wall, long_bytes) = easy_stream(long);
    let per_job = |wall: f64, jobs: usize| wall * 1e3 / jobs as f64;
    let (short_ms, long_ms) = (per_job(short_wall, short), per_job(long_wall, long));
    let kb_per_job = |bytes: usize, jobs: usize| bytes as f64 / 1024.0 / jobs as f64;
    let (short_kb, long_kb) = (kb_per_job(short_bytes, short), kb_per_job(long_bytes, long));
    println!(
        "{short} jobs: {short_ms:.3} ms and {short_kb:.2} KB per job; \
         {long} jobs: {long_ms:.3} ms and {long_kb:.2} KB per job"
    );
    assert!(
        long_ms <= 2.0 * short_ms,
        "wall per job grew {:.2}× from {short} to {long} jobs",
        long_ms / short_ms
    );
    for (jobs, kb) in [(short, short_kb), (long, long_kb)] {
        assert!(
            kb < 1.5,
            "the end checkpoint of {jobs} jobs holds {kb:.2} KB per job"
        );
    }
}
