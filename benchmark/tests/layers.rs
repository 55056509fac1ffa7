//! Tests of the benchmark's own arithmetic: span self times, digest
//! stripping, and the shadow policy-call snapshot.

use storm::core::prelude::*;
use storm_perfbench::digest::sim_digest;
use storm_perfbench::report::{layer_self_ms, percentile, slice_growth, span_coverage_pct, Rep};
use storm_perfbench::shadow::{select, snapshot};
use storm_perfbench::spans::{self_times, Span, Spans};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    // rep [0, 100): leg [10, 90) holds engine [20, 50) and engine [40, 70)
    // (overlapping, covering 50 ns together), and engine holds policy
    // [25, 30). Grandchildren never reduce the grandparent's self time.
    let spans = vec![
        span("rep", 0, 100, None),
        span("leg", 10, 90, Some(0)),
        span("engine", 20, 50, Some(1)),
        span("engine", 40, 70, Some(1)),
        span("policy", 25, 30, Some(2)),
    ];
    let st = self_times(&spans);
    assert_eq!(st["rep"], 100 - 80);
    assert_eq!(st["leg"], 80 - 50);
    assert_eq!(st["engine"], (30 - 5) + 30);
    assert_eq!(st["policy"], 5);
}

#[test]
fn children_outside_the_parent_are_clipped() {
    let spans = vec![span("a", 10, 20, None), span("b", 5, 15, Some(0))];
    assert_eq!(self_times(&spans)["a"], 5);
}

#[test]
fn recorder_self_times_add_up_to_the_root() {
    let mut s = Spans::new(true);
    s.open("rep");
    s.open("leg");
    s.time("setup", || std::hint::black_box((0..1000).sum::<u64>()));
    s.open("run");
    for _ in 0..10 {
        s.time("engine", || std::hint::black_box((0..1000).sum::<u64>()));
    }
    s.close();
    s.close();
    s.close();
    let total: u64 = self_times(s.spans()).values().sum();
    assert_eq!(
        total,
        s.spans()[0].duration_ns(),
        "self times partition the root"
    );
    let layers = layer_self_ms(&s);
    assert!(layers.iter().any(|(n, _)| n == "engine"));
    assert!(layers.iter().any(|(n, _)| n == "harness"));
    let cover = span_coverage_pct(&s);
    assert!((0.0..=100.0).contains(&cover));
}

#[test]
fn percentiles_use_nearest_rank() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&v, 50.0), 50);
    assert_eq!(percentile(&v, 99.0), 99);
    assert_eq!(percentile(&[7], 99.0), 7);
    assert_eq!(percentile(&[], 50.0), 0);
    assert_eq!(slice_growth(&Rep { legs: Vec::new() }), 1.0);
}

/// A small heartbeat cluster: fault detection keeps the MM ticking, so
/// idle fast-forward leaps over the quiet tail.
fn hb_cluster(telemetry: bool) -> Cluster {
    let cfg = ClusterConfig::gang_cluster()
        .with_nodes(8)
        .with_fault_detection(4)
        .with_seed(11)
        .with_telemetry(telemetry);
    let mut c = Cluster::new(cfg);
    c.submit_at(
        SimTime::from_millis(20),
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(600),
            },
            16,
        ),
    );
    c
}

#[test]
fn one_shot_and_stepped_runs_share_a_digest() {
    let horizon = SimTime::from_secs(3);
    let mut one_shot = hb_cluster(false);
    one_shot.run_until(horizon);
    let mut stepped = hb_cluster(true);
    let period = stepped.world().cfg.collect_period();
    let mut t = SimTime::ZERO;
    while t < horizon {
        t += period;
        stepped.run_until(t);
    }
    let (a, b) = (one_shot.checkpoint(), stepped.checkpoint());
    assert_ne!(a, b, "leap counters and telemetry differ in the raw text");
    assert!(
        stepped.leap_stats().0 > one_shot.leap_stats().0,
        "stepping lands deadlines inside leaps"
    );
    assert_eq!(sim_digest(&a).unwrap(), sim_digest(&b).unwrap());

    // A genuinely different run must not share the digest.
    let mut other = hb_cluster(false);
    other.run_until(horizon + SimSpan::from_millis(50));
    assert_ne!(
        sim_digest(&a).unwrap(),
        sim_digest(&other.checkpoint()).unwrap()
    );
}

#[test]
fn snapshot_reproduces_the_mm_queue_and_matrix() {
    let cfg = ClusterConfig::paper_cluster()
        .with_scheduler(SchedulerKind::Backfill)
        .with_timeslice(SimSpan::from_millis(50));
    let mut c = Cluster::new(ClusterConfig { mpl_max: 1, ..cfg });
    let spec = |ranks, secs| {
        JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_secs(secs),
            },
            ranks,
        )
        .with_estimate(SimSpan::from_secs(2 * secs))
    };
    // `wide` takes half the machine; `head` needs all of it and must wait
    // for `wide`'s estimated end; `short` ends before that and backfills;
    // `long` would delay the head and stays queued.
    let wide = c.submit(spec(128, 5));
    let head = c.submit(spec(256, 5));
    let short = c.submit(spec(16, 1));
    let long = c.submit(spec(16, 60));
    c.run_until(SimTime::from_millis(500));

    let snap = snapshot(&c);
    let w = c.world();
    let ids: Vec<JobId> = snap.queued.iter().map(|q| q.id).collect();
    assert_eq!(ids, w.queue.iter().copied().collect::<Vec<_>>());
    assert_eq!(snap.matrix.export_state(), w.matrix.export_state());
    assert_eq!(snap.now, c.now());
    let running: Vec<JobId> = w
        .jobs
        .iter()
        .filter(|j| !j.state.is_terminal() && j.allocation.is_some())
        .map(|j| j.id)
        .collect();
    assert_eq!(running, vec![wide, short]);
    assert_eq!(snap.running.len(), 2);
    assert_eq!(ids, vec![head, long]);
    for q in &snap.queued {
        assert_eq!(q.nodes_needed, w.job(q.id).spec.nodes_needed(4));
        assert_eq!(q.estimate, w.job(q.id).spec.runtime_estimate);
    }
    // The MM has already run its policy at this boundary, so the shadow
    // call of its own policy on the post-tick state starts nothing more,
    // while gang scheduling's skip-blocked first fit would start `long`.
    assert!(select(SchedulerKind::Backfill, &snap).is_empty());
    assert_eq!(select(SchedulerKind::Gang, &snap), vec![long]);
}
