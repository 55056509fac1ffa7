//! Simulator-core throughput: handler invocations per second,
//! events-per-timeslice and queue traffic across cluster sizes, out to
//! 16384 nodes — the scalability bench behind the simulator-core claims.
//!
//! Every MM fan-out travels as one group event, so the event queue sees
//! O(jobs) entries per timeslice: the pop count per strobe stays flat as
//! the machine grows while handler invocations grow with it (the
//! acceptance bar: ≥ 50× more handler invocations than queue pops per
//! timeslice at the largest size). Throughput is therefore handler
//! invocations per second — the messages the dæmons actually process —
//! not queue pops per second, which counts a 16384-wide fan-out once.
//! Each row is the fastest of [`REPS`] repetitions, and the sweep runs
//! through [`parallel_sweep`]: one independent `Cluster` per
//! configuration, merged in configuration order.
//!
//! Emits `BENCH_simcore.json` (override the path with `BENCH_OUT`); set
//! `STORM_BENCH_SMOKE=1` for a small CI axis. `bench_gate` compares the
//! rows against a committed baseline.

use std::fmt::Write as _;
use std::time::Instant;
use storm_bench::{check, parallel_sweep, write_json_artifact};
use storm_core::prelude::*;

/// Repetitions per row; the row keeps the fastest. The 256-node smoke row
/// lasts about 1.5 ms, so one scheduling hiccup on a shared host can
/// nearly halve a single run's rate.
const REPS: usize = 3;

struct Row {
    nodes: u32,
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
    fn handlers_per_sec(&self) -> f64 {
        self.messages as f64 / self.wall_s.max(1e-9)
    }

    fn events_per_timeslice(&self) -> f64 {
        self.events as f64 / (self.strobes as f64).max(1.0)
    }
}

/// A fixed-size MPL-2 workload (launch + transfer + gang rotation) on an
/// `nodes`-wide machine: the job-side work is constant, so any growth in
/// event counts is pure fan-out overhead.
fn run(nodes: u32) -> Row {
    let cfg = ClusterConfig::paper_cluster()
        .with_nodes(nodes)
        .with_seed(0x51_C0DE);
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

/// The fastest of [`REPS`] runs. The simulation is deterministic, so
/// every repetition has the same counts and only the wall differs.
fn best_run(nodes: u32) -> Row {
    (0..REPS)
        .map(|_| run(nodes))
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("REPS > 0")
}

fn main() {
    let smoke = std::env::var("STORM_BENCH_SMOKE").is_ok();
    let axis: Vec<u32> = if smoke {
        vec![64, 256]
    } else {
        vec![64, 256, 1024, 4096, 16384]
    };
    println!("Simulator throughput: handler invocations per second, best of {REPS}");
    println!(
        "{:>6} {:>12} {:>12} {:>9} {:>12} {:>12} {:>9} {:>12} {:>11}",
        "nodes",
        "events",
        "messages",
        "ev/slice",
        "q.pushed",
        "q.peak",
        "ar.peak",
        "handlers/s",
        "wall"
    );

    let rows = parallel_sweep(axis, |&n| best_run(n));
    for row in &rows {
        println!(
            "{:>6} {:>12} {:>12} {:>9.1} {:>12} {:>12} {:>9} {:>12.0} {:>9.4} s",
            row.nodes,
            row.events,
            row.messages,
            row.events_per_timeslice(),
            row.queue_pushed,
            row.queue_peak,
            row.arena_peak,
            row.handlers_per_sec(),
            row.wall_s,
        );
    }

    // The headline number: at the largest size, handler invocations per
    // timeslice (what a per-NM encoding would pop) over the group
    // encoding's queue pops per timeslice.
    let at_max = rows.last().expect("axis is not empty");
    let max_n = at_max.nodes;
    let ratio = at_max.messages as f64 / at_max.events.max(1) as f64;
    println!("handler invocations per queue pop at {max_n} nodes: {ratio:.0}x");
    let bar = if smoke { 20.0 } else { 50.0 };
    check(
        ratio >= bar,
        &format!("group delivery pops >= {bar:.0}x fewer events than it handles at {max_n} nodes"),
    );
    // Queue load per timeslice is O(jobs): flat in machine size.
    let lo = rows
        .iter()
        .map(Row::events_per_timeslice)
        .fold(f64::INFINITY, f64::min);
    let hi = rows
        .iter()
        .map(Row::events_per_timeslice)
        .fold(f64::NEG_INFINITY, f64::max);
    check(
        hi / lo < 2.0,
        &format!("events/timeslice flat across sizes ({lo:.1}-{hi:.1})"),
    );

    // Hand-rolled JSON (the repo vendors no serde); `bench_gate` reads
    // one row per line.
    let mut json = String::from("{\n  \"bench\": \"simcore\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"nodes\": {}, \"events_delivered\": {}, \"messages_handled\": {}, \
             \"strobes\": {}, \"queue_pushed\": {}, \"queue_peak\": {}, \"arena_peak\": {}, \
             \"arena_payload_bytes\": {}, \"wall_seconds\": {:.6}, \
             \"handlers_per_sec\": {:.1}, \"events_per_timeslice\": {:.2}}}{}",
            r.nodes,
            r.events,
            r.messages,
            r.strobes,
            r.queue_pushed,
            r.queue_peak,
            r.arena_peak,
            r.arena_bytes,
            r.wall_s,
            r.handlers_per_sec(),
            r.events_per_timeslice(),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = writeln!(
        json,
        "  ],\n  \"repetitions\": {REPS},\n  \"handlers_per_event_at_{max_n}\": {ratio:.1}\n}}"
    );
    write_json_artifact("BENCH_OUT", "BENCH_simcore.json", &json);
    println!("bench_sim_throughput: all checks passed");
}
