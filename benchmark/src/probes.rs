//! Standalone layer probes: each drives one layer's public API directly,
//! sized by the workload it belongs to, and reports host time per
//! operation.

use std::hint::black_box;
use std::time::Instant;
use storm::core::{GangMatrix, JobId};
use storm::mech::{CmpOp, Mechanisms, NodeId, NodeSet};
use storm::net::{BackgroundLoad, BufferPlacement};
use storm::sim::{DeterministicRng, EventQueue, QueueBackend, SimSpan, SimTime};
use storm_bench::derive_seed;

/// ns per push+pop on a standalone timing-wheel queue held at `depth`
/// pending events (the workload's own queue peak), with reschedule spans up
/// to 64 buckets of `granularity` ahead, as the engine's queue sees them.
pub fn queue_hold_ns(depth: usize, granularity: SimSpan, ops: u64) -> f64 {
    let depth = depth.max(1);
    let mut q = EventQueue::with_backend_and_granularity(QueueBackend::Wheel, granularity);
    let horizon = granularity.as_nanos().max(1) * 64 * 64;
    let mut x = 0x0005_10E5_u64;
    let mut next = || {
        x = derive_seed(x, 1);
        x % horizon
    };
    for i in 0..depth {
        q.push(SimTime::from_nanos(next()), i as u64);
    }
    let hold = |q: &mut EventQueue<u64>, n: u64, next: &mut dyn FnMut() -> u64| {
        for _ in 0..n {
            let (t, e) = q.pop().expect("held queue is never empty");
            q.push(t + SimSpan::from_nanos(next()), e);
        }
    };
    // Warm up to the steady-state bucket spread, then time.
    hold(&mut q, depth as u64, &mut next);
    let start = Instant::now();
    hold(&mut q, ops, &mut next);
    let ns = start.elapsed().as_nanos() as f64 / ops as f64;
    black_box(q.len());
    ns
}

/// ns per XFER-AND-SIGNAL of one `bytes` launch chunk from node 0 to all
/// `nodes` nodes, on a fresh QsNET mechanism layer.
pub fn xfer_ns(nodes: u32, bytes: u64, ops: u64) -> f64 {
    let mut mech = Mechanisms::qsnet(nodes);
    let all = NodeSet::All(nodes);
    let mut rng = DeterministicRng::new(7);
    let start = Instant::now();
    for i in 0..ops {
        let r = mech.xfer_fanout(
            SimTime::from_micros(i),
            NodeId(0),
            &all,
            bytes,
            BufferPlacement::MainMemory,
            None,
            None,
            BackgroundLoad::NONE,
            &mut rng,
        );
        black_box(r.ok());
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// ns per COMPARE-AND-WRITE over all `nodes` nodes (condition holds on
/// every node, so the whole set is scanned).
pub fn caw_ns(nodes: u32, ops: u64) -> f64 {
    let mut mech = Mechanisms::qsnet(nodes);
    let var = mech.memory.alloc_var(0);
    let all = NodeSet::All(nodes);
    let start = Instant::now();
    for i in 0..ops {
        let r = mech.compare_and_write(
            SimTime::from_micros(i),
            &all,
            var,
            CmpOp::Ge,
            0,
            None,
            BackgroundLoad::NONE,
        );
        black_box(r.satisfied);
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// ns per place+remove pair, replaying `widths` (node needs, in arrival
/// order) through a standalone gang matrix: each job is placed, evicting
/// the oldest placed jobs until it fits, for at least `min_pairs` pairs.
pub fn matrix_place_remove_ns(nodes: u32, mpl: usize, widths: &[u32], min_pairs: u64) -> f64 {
    let widths: Vec<u32> = widths.iter().map(|&w| w.clamp(1, nodes)).collect();
    assert!(!widths.is_empty(), "matrix probe needs widths");
    let mut m = GangMatrix::new(nodes, mpl);
    let mut placed = std::collections::VecDeque::new();
    let mut pairs = 0u64;
    let mut id = 0u32;
    let start = Instant::now();
    while pairs < min_pairs {
        for &w in &widths {
            while m.place(JobId(id), w).is_none() {
                let old = placed.pop_front().expect("an empty matrix fits any width");
                m.remove(old);
                pairs += 1;
            }
            placed.push_back(JobId(id));
            id = id.wrapping_add(1);
        }
    }
    let ns = start.elapsed().as_nanos() as f64 / pairs as f64;
    black_box(m.job_count());
    ns
}
