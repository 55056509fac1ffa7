//! The relational views against a real running cluster: extractor
//! schemas, join/aggregate behaviour over live state, and the
//! continuous-query surface end to end (registration → boundary
//! evaluation → bounded alert log → telemetry counter), including the
//! zero-perturbation guarantee: registering queries must not change the
//! simulation's interleaving, trace, or results.

use storm_apps::AppSpec;
use storm_core::cluster::Cluster;
use storm_core::config::ClusterConfig;
use storm_core::job::JobSpec;
use storm_query::{allocs, jobs, nodes, replicas, slots, Agg, Condition, Datum};
use storm_sim::SimTime;

fn busy_cluster() -> Cluster {
    let cfg = ClusterConfig::paper_cluster()
        .with_seed(11)
        .with_telemetry(true);
    let mut c = Cluster::new(cfg);
    c.submit(JobSpec::new(AppSpec::do_nothing_mb(4), 64).named("alpha"));
    c.submit_at(
        SimTime::from_millis(5),
        JobSpec::new(AppSpec::do_nothing_mb(2), 32).named("beta"),
    );
    c.submit_at(
        SimTime::from_millis(8),
        JobSpec::new(AppSpec::do_nothing_mb(1), 16).named("gamma"),
    );
    c.run_until(SimTime::from_millis(60));
    c
}

#[test]
fn jobs_table_tracks_submissions_and_waits() {
    let c = busy_cluster();
    let j = jobs(&c);
    assert_eq!(j.len(), 3);
    let names: Vec<String> = j.rows().map(|r| r.str("name").to_string()).collect();
    assert_eq!(names, vec!["alpha", "beta", "gamma"]);
    // Top jobs by queue wait: later submissions waited behind the first
    // transfer, so every wait is defined once transfer started.
    let by_wait = j.sort_by("wait_us", true).unwrap().limit(2);
    assert_eq!(by_wait.len(), 2);
    // Aggregates over live state.
    let total_ranks = j.aggregate(Agg::Sum, "ranks").unwrap();
    assert_eq!(total_ranks, Datum::U64(64 + 32 + 16));
    let per_state = j.group_by("state", &[(Agg::Count, "job")]).unwrap();
    let counted: u64 = per_state.rows().map(|r| r.u64("count(job)")).sum();
    assert_eq!(counted, 3);
}

#[test]
fn nodes_and_replicas_reflect_layout_and_health() {
    let mut c = busy_cluster();
    let n = nodes(&c);
    assert_eq!(n.len(), c.world().cfg.nodes as usize);
    assert!(n.rows().all(|r| r.get("failed") == &Datum::Bool(false)));
    c.fail_node_at(SimTime::from_millis(61), 3);
    c.run_until(SimTime::from_millis(70));
    let n = nodes(&c);
    let failed = n.filter(|r| r.get("failed") == &Datum::Bool(true));
    assert_eq!(failed.len(), 1);
    assert_eq!(failed.rows().next().unwrap().u64("node"), 3);
    let reps = replicas(&c);
    assert_eq!(reps.len(), 1);
    let active = reps.rows().next().unwrap();
    assert_eq!(active.str("role"), "active");
    assert_eq!(active.get("active"), &Datum::Bool(true));
}

#[test]
fn allocs_join_jobs_on_job_id() {
    let c = busy_cluster();
    let a = allocs(&c);
    assert!(!a.is_empty(), "mid-run cluster must have live allocations");
    let joined = a.join(&jobs(&c), "job", "job").unwrap();
    assert_eq!(joined.len(), a.len(), "every allocation joins its job");
    for r in joined.rows() {
        // The matrix block and the job record agree on placement.
        assert_eq!(r.u64("allocs.node_start"), r.u64("jobs.node_start"));
        assert_eq!(r.u64("allocs.node_end"), r.u64("jobs.node_end"));
    }
    let s = slots(&c);
    assert!(!s.is_empty());
    let active: Vec<bool> = s
        .rows()
        .map(|r| r.get("active") == &Datum::Bool(true))
        .collect();
    assert_eq!(active.iter().filter(|&&x| x).count(), 1);
    // Slot occupancy from the slots table matches the allocs table.
    let widths = a.group_by("slot", &[(Agg::Sum, "width")]).unwrap();
    for g in widths.rows() {
        let slot = g.u64("slot");
        let from_slots = s
            .filter(|r| r.u64("slot") == slot)
            .rows()
            .next()
            .unwrap()
            .u64("used_nodes");
        assert_eq!(g.u64("sum(width)"), from_slots);
    }
}

#[test]
fn slots_count_the_nodes_each_slot_can_still_place_on() {
    let mut c = Cluster::new(ClusterConfig::paper_cluster().with_nodes(8));
    let job = c.submit(JobSpec::new(AppSpec::do_nothing_mb(4), 8));
    c.run_until(SimTime::from_millis(2));
    assert_eq!(c.job(job).alloc().nodes, 0..2, "placed by the first tick");
    c.with_world_mut(|w| assert!(w.matrix.quarantine_node(7)));
    let s = slots(&c);
    assert_eq!(s.len(), 1);
    let row = s.rows().next().unwrap();
    assert_eq!(row.u64("used_nodes"), 2);
    // 8 nodes less the placement's 2 and the quarantined one.
    assert_eq!(row.u64("usable_nodes"), 5);
}

#[test]
fn continuous_queries_fire_alerts_without_perturbing_the_run() {
    let run = |with_queries: bool| {
        let cfg = ClusterConfig::paper_cluster()
            .with_seed(23)
            .with_telemetry(true)
            .with_fault_detection(4);
        let mut c = Cluster::new(cfg);
        c.enable_tracing();
        if with_queries {
            c.register_query("node-health", Condition::QuarantinedAbove(0));
            c.register_query("backlog", Condition::QueueDepthGrowingFor(2));
        }
        c.submit(JobSpec::new(AppSpec::do_nothing_mb(4), 64));
        c.fail_node_at(SimTime::from_millis(30), 7);
        c.run_until(SimTime::from_millis(400));
        c
    };
    let plain = run(false);
    let watched = run(true);
    // Alerts are observations: the simulation itself is untouched.
    assert_eq!(
        plain.interleaving_digest(),
        watched.interleaving_digest(),
        "registering queries must not perturb the interleaving"
    );
    assert_eq!(plain.trace(), watched.trace());
    assert!(plain.alerts().is_empty());
    // The failed node is quarantined at detection, so the health query
    // fired; the alert log and firing counters recorded it.
    let alerts = watched.alerts();
    assert!(!alerts.is_empty(), "quarantine must raise alerts");
    assert!(alerts.iter().all(|a| a.query == "node-health"));
    assert!(alerts.iter().all(|a| a.observed >= 1));
    let q = &watched.continuous_queries().queries()[0];
    assert_eq!(q.firings, alerts.len() as u64);
    // ... and the labelled telemetry counter matches the log.
    let snap = watched.metrics_snapshot();
    let fired: u64 = snap
        .entries()
        .iter()
        .filter(|(k, _)| k.name == "cq.alerts")
        .map(|(_, v)| match v {
            storm_telemetry::MetricValue::Counter(n) => *n,
            _ => 0,
        })
        .sum();
    assert_eq!(fired, alerts.len() as u64);
    // Same-seed replays agree alert-for-alert.
    let replay = run(true);
    assert_eq!(replay.alerts(), watched.alerts());
}
