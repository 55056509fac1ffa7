//! Simulator-core throughput: events/sec, events-per-timeslice and queue
//! traffic across cluster sizes, group delivery on and off, out to 16384
//! nodes — the scalability bench behind the simulator-core claims.
//!
//! With group delivery the event queue sees O(jobs) entries per timeslice,
//! so the pop count per strobe stays flat as the machine grows while the
//! legacy per-NM encoding grows linearly (the acceptance bar: ≥ 50×
//! fewer delivered events per timeslice at the largest size). The sweep
//! itself runs through [`parallel_sweep`] — one independent `Cluster` and
//! derived seed per configuration, merged in configuration order.
//!
//! A second section reruns the Figure-5 gang workloads at 4096 nodes on
//! the *legacy* simulator core (per-NM unicast fan-out, no idle
//! fast-forward) and on the current defaults (group delivery,
//! fast-forward), checking the cores agree bit-for-bit on simulated
//! results while the optimized core is faster in wall-clock; the parallel
//! runner's speedup over the summed serial estimate is recorded
//! alongside.
//!
//! Emits `BENCH_simcore.json` (override the path with `BENCH_OUT`); set
//! `STORM_BENCH_SMOKE=1` for a small CI axis.

use std::fmt::Write as _;
use std::time::Instant;
use storm_bench::{check, derive_seed, parallel_sweep, sweep_workers, write_json_artifact};
use storm_core::prelude::*;

struct Row {
    nodes: u32,
    group: bool,
    events: u64,
    messages: u64,
    strobes: u64,
    queue_pushed: u64,
    queue_peak: usize,
    arena_peak: usize,
    arena_bytes: usize,
    wall_s: f64,
}

impl Row {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    fn events_per_timeslice(&self) -> f64 {
        self.events as f64 / (self.strobes as f64).max(1.0)
    }
}

/// A fixed-size MPL-2 workload (launch + transfer + gang rotation) on an
/// `nodes`-wide machine: the job-side work is constant, so any growth in
/// event counts is pure fan-out overhead.
fn run(nodes: u32, group: bool) -> Row {
    let cfg = ClusterConfig::paper_cluster()
        .with_nodes(nodes)
        .with_seed(0x51_C0DE)
        .with_group_delivery(group);
    let mut c = Cluster::new(cfg);
    for _ in 0..2 {
        c.submit(JobSpec::new(
            AppSpec::Synthetic {
                compute: SimSpan::from_millis(100),
            },
            64,
        ));
    }
    let t0 = Instant::now();
    c.run_until_idle();
    let wall_s = t0.elapsed().as_secs_f64();
    let qs = c.queue_stats();
    let ar = c.arena_stats();
    Row {
        nodes,
        group,
        events: c.events_delivered(),
        messages: c.messages_handled(),
        strobes: c.world().stats.strobes,
        queue_pushed: qs.pushed,
        queue_peak: qs.peak,
        arena_peak: ar.peak,
        arena_bytes: ar.payload_bytes,
        wall_s,
    }
}

/// One Figure-5 gang configuration (app × MPL) at a fixed node count,
/// on either the legacy or the optimized simulator core. Returns the
/// simulated per-MPL runtime (seconds) and the wall-clock spent.
fn fig5_config(app: &AppSpec, nodes: u32, mpl: u32, seed: u64, legacy: bool) -> (f64, f64) {
    let mut cfg = ClusterConfig::gang_cluster()
        .with_nodes(nodes)
        .with_seed(seed);
    if legacy {
        cfg = cfg.with_group_delivery(false).with_fast_forward(false);
    }
    let t0 = Instant::now();
    let mut c = Cluster::new(cfg);
    let jobs: Vec<_> = (0..mpl)
        .map(|_| c.submit(JobSpec::new(app.clone(), nodes * 2).with_ranks_per_node(2)))
        .collect();
    c.run_until_idle();
    let last = jobs
        .iter()
        .map(|&j| c.job(j).metrics.completed.expect("done"))
        .max()
        .expect("jobs");
    (
        last.as_secs_f64() / f64::from(mpl),
        t0.elapsed().as_secs_f64(),
    )
}

/// Repetitions of each fig5 leg; walls keep the fastest.
const FIG5_REPS: usize = 3;

/// Minimum legacy/optimized wall ratio on the fig5 sweep. Smoke runs on
/// a 2-hardware-thread x86-64 container measured 2.1–3.0x (12 runs) and,
/// pinned to one core, 2.3–2.4x (10 runs); the bar sits ~30% under the
/// lowest so host noise cannot trip it while a lost fast path still does.
const FIG5_WALL_BAR: f64 = 1.5;

/// Fold one repetition of `(simulated, wall)` results into `best`,
/// keeping the lower wall per configuration. The simulated result is
/// deterministic, so any repetition's will do.
fn keep_best(best: &mut Vec<(f64, f64)>, run: Vec<(f64, f64)>) {
    if best.is_empty() {
        *best = run;
        return;
    }
    for (b, r) in best.iter_mut().zip(run) {
        b.1 = b.1.min(r.1);
    }
}

fn main() {
    let smoke = std::env::var("STORM_BENCH_SMOKE").is_ok();
    let axis: &[u32] = if smoke {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096, 16384]
    };
    println!("Simulator throughput: group delivery vs per-NM events");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>9} {:>12} {:>12} {:>9} {:>10} {:>11}",
        "nodes",
        "mode",
        "events",
        "messages",
        "ev/slice",
        "q.pushed",
        "q.peak",
        "ar.peak",
        "events/sec",
        "wall"
    );

    let configs: Vec<(u32, bool)> = axis.iter().flat_map(|&n| [(n, false), (n, true)]).collect();
    let rows = parallel_sweep(configs, |&(n, group)| run(n, group));
    for row in &rows {
        println!(
            "{:>6} {:>8} {:>12} {:>12} {:>9.1} {:>12} {:>12} {:>9} {:>10.0} {:>9.3} s",
            row.nodes,
            if row.group { "group" } else { "unicast" },
            row.events,
            row.messages,
            row.events_per_timeslice(),
            row.queue_pushed,
            row.queue_peak,
            row.arena_peak,
            row.events_per_sec(),
            row.wall_s,
        );
    }

    // Either encoding must invoke every handler the same number of times.
    for pair in rows.chunks(2) {
        check(
            pair[0].messages == pair[1].messages,
            &format!(
                "{} nodes: handler invocations identical across modes",
                pair[0].nodes
            ),
        );
    }
    // The headline number: delivered events per timeslice at the largest
    // size, legacy vs grouped.
    let max_n = *axis.last().unwrap();
    let at_max = |group: bool| {
        rows.iter()
            .find(|r| r.nodes == max_n && r.group == group)
            .unwrap()
            .events_per_timeslice()
    };
    let ratio = at_max(false) / at_max(true);
    println!("events-per-timeslice reduction at {max_n} nodes: {ratio:.0}x");
    let bar = if smoke { 20.0 } else { 50.0 };
    check(
        ratio >= bar,
        &format!("group delivery cuts events/timeslice >= {bar:.0}x at {max_n} nodes"),
    );
    // Grouped queue load per timeslice is O(jobs): flat in machine size.
    let grouped: Vec<&Row> = rows.iter().filter(|r| r.group).collect();
    let lo = grouped
        .iter()
        .map(|r| r.events_per_timeslice())
        .fold(f64::INFINITY, f64::min);
    let hi = grouped
        .iter()
        .map(|r| r.events_per_timeslice())
        .fold(f64::NEG_INFINITY, f64::max);
    check(
        hi / lo < 2.0,
        &format!("grouped events/timeslice flat across sizes ({lo:.1}-{hi:.1})"),
    );

    // Warning rows accumulated into the artifact: conditions that make a
    // recorded number unrepresentative rather than wrong.
    let mut warnings: Vec<String> = Vec::new();

    // ------------------------------------------------ fig5 sweep section —
    // The four Figure-5 series at one large size, legacy core vs current
    // defaults. Simulated results must agree exactly; wall-clock must not.
    let fig5_nodes: u32 = if smoke { 256 } else { 4096 };
    let series: Vec<(&str, AppSpec, u32)> = vec![
        ("SWEEP3D MPL=1", AppSpec::sweep3d_default(), 1),
        ("SWEEP3D MPL=2", AppSpec::sweep3d_default(), 2),
        ("synthetic MPL=1", AppSpec::synthetic_default(), 1),
        ("synthetic MPL=2", AppSpec::synthetic_default(), 2),
    ];
    println!("fig5 gang workloads at {fig5_nodes} nodes: legacy core vs optimized core");
    // A smoke leg lasts tens of milliseconds, so one scheduling hiccup on
    // a shared host can double its wall: every wall below is the best of
    // FIG5_REPS repetitions.
    let mut legacy: Vec<(f64, f64)> = Vec::new();
    let mut optimized: Vec<(f64, f64)> = Vec::new();
    let mut parallel_wall = f64::INFINITY;
    for _ in 0..FIG5_REPS {
        keep_best(
            &mut legacy,
            series
                .iter()
                .enumerate()
                .map(|(si, (_, app, mpl))| {
                    fig5_config(app, fig5_nodes, *mpl, derive_seed(0xF1_65, si as u64), true)
                })
                .collect(),
        );
        let sweep_start = Instant::now();
        let run = parallel_sweep(
            series.iter().enumerate().collect(),
            |&(si, (_, app, mpl))| {
                fig5_config(
                    app,
                    fig5_nodes,
                    *mpl,
                    derive_seed(0xF1_65, si as u64),
                    false,
                )
            },
        );
        parallel_wall = parallel_wall.min(sweep_start.elapsed().as_secs_f64());
        keep_best(&mut optimized, run);
    }
    for (i, (name, _, _)) in series.iter().enumerate() {
        println!(
            "  {name:<16} simulated {:>8.2} s   legacy wall {:>7.3} s   optimized wall {:>7.3} s",
            optimized[i].0, legacy[i].1, optimized[i].1
        );
        check(
            (legacy[i].0 - optimized[i].0).abs() < 1e-12,
            &format!("{name}: legacy and optimized cores agree on the simulated result"),
        );
    }
    let legacy_serial: f64 = legacy.iter().map(|r| r.1).sum();
    let optimized_serial: f64 = optimized.iter().map(|r| r.1).sum();
    let improvement = legacy_serial / optimized_serial;
    let sweep_speedup = optimized_serial / parallel_wall;
    // The worker count the sweep driver actually used — NOT a fresh
    // available_parallelism probe, whose fallback used to disagree with
    // the driver's and silently record 1 (or 4) for a sweep that ran
    // with the other.
    let threads = sweep_workers(series.len());
    println!(
        "fig5 sweep at {fig5_nodes} nodes: legacy {legacy_serial:.3} s, optimized \
         {optimized_serial:.3} s serial ({improvement:.1}x), parallel wall \
         {parallel_wall:.3} s ({sweep_speedup:.1}x over serial on {threads} threads)"
    );
    if threads == 1 {
        let w = format!(
            "parallel_sweep ran serially (1 worker for {} configs): \
             parallel_sweep_speedup {sweep_speedup:.2} is a no-op baseline, \
             not a parallelism measurement",
            series.len()
        );
        println!("   [warning] {w}");
        warnings.push(w);
    }
    check(
        improvement >= FIG5_WALL_BAR,
        &format!(
            "optimized core >= {FIG5_WALL_BAR}x faster on the fig5 sweep at {fig5_nodes} nodes \
             ({improvement:.1}x)"
        ),
    );

    // Hand-rolled JSON (the repo vendors no serde).
    let mut json = String::from("{\n  \"bench\": \"simcore\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"nodes\": {}, \"group_delivery\": {}, \"events_delivered\": {}, \
             \"messages_handled\": {}, \"strobes\": {}, \"queue_pushed\": {}, \
             \"queue_peak\": {}, \"arena_peak\": {}, \"arena_payload_bytes\": {}, \
             \"wall_seconds\": {:.6}, \
             \"events_per_sec\": {:.1}, \"events_per_timeslice\": {:.2}}}{}",
            r.nodes,
            r.group,
            r.events,
            r.messages,
            r.strobes,
            r.queue_pushed,
            r.queue_peak,
            r.arena_peak,
            r.arena_bytes,
            r.wall_s,
            r.events_per_sec(),
            r.events_per_timeslice(),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"events_per_timeslice_reduction_at_{max_n}\": {ratio:.1},"
    );
    let _ = writeln!(json, "  \"fig5_sweep\": {{");
    let _ = writeln!(json, "    \"nodes\": {fig5_nodes},");
    let _ = writeln!(json, "    \"configs\": [");
    for (i, (name, _, _)) in series.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"series\": \"{}\", \"simulated_seconds\": {:.6}, \
             \"legacy_wall_seconds\": {:.6}, \"optimized_wall_seconds\": {:.6}}}{}",
            name,
            optimized[i].0,
            legacy[i].1,
            optimized[i].1,
            if i + 1 == series.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(
        json,
        "    \"legacy_core\": \"per-NM unicast + no fast-forward\","
    );
    let _ = writeln!(
        json,
        "    \"legacy_serial_wall_seconds\": {legacy_serial:.6},\n    \
         \"optimized_serial_wall_seconds\": {optimized_serial:.6},\n    \
         \"wall_clock_improvement\": {improvement:.2},\n    \
         \"parallel_sweep_wall_seconds\": {parallel_wall:.6},\n    \
         \"parallel_sweep_speedup\": {sweep_speedup:.2},\n    \
         \"parallel_sweep_threads\": {threads}\n  }},"
    );
    let _ = writeln!(json, "  \"warnings\": [");
    for (i, w) in warnings.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{}\"{}",
            w.replace('\\', "\\\\").replace('"', "\\\""),
            if i + 1 == warnings.len() { "" } else { "," }
        );
    }
    let _ = writeln!(json, "  ]\n}}");
    write_json_artifact("BENCH_OUT", "BENCH_simcore.json", &json);
    println!("bench_sim_throughput: all checks passed");
}
