//! Allocation audit for policy selection.
//!
//! `policy::select_starts` tests each queued job's fit against the live
//! gang matrix and copies the matrix once, at the first start. So a
//! selection allocates about as much behind a queue of 1,024 jobs as
//! behind one of 16, when the same jobs start: the deeper queue adds fit
//! tests, not copies.
//!
//! This file holds exactly one `#[test]` — the counter is process-global,
//! so a sibling test running on another thread would pollute the audit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use storm_core::policy::{select_starts, QueuedJob, RunningJob};
use storm_core::prelude::*;
use storm_core::GangMatrix;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NODES: u32 = 4096;

/// A 4,096-node matrix at MPL 1 filled with 8-node jobs but for four
/// holes that are not buddies of each other, so 32 nodes are free and no
/// block wider than 8 is; each running job has an estimated end.
fn cluster() -> (GangMatrix, Vec<RunningJob>) {
    let mut matrix = GangMatrix::new(NODES, 1);
    let jobs = NODES / 8;
    for job in 0..jobs {
        matrix
            .place(JobId(100_000 + job), 8)
            .expect("the matrix has room");
    }
    let holes = [3, 130, 257, 384];
    for hole in holes {
        matrix.remove(JobId(100_000 + hole)).expect("placed");
    }
    let running = (0..u64::from(jobs) - holes.len() as u64)
        .map(|i| RunningJob {
            nodes_held: 8,
            est_end: Some(SimTime::from_secs(100 + i)),
        })
        .collect();
    (matrix, running)
}

/// A queue of `depth` jobs: a 64-node head, blocked, then jobs of 8, 16
/// and 32 nodes in turn. Every job has an estimate short enough to end
/// before the head's reservation, so each one that fits backfills: the
/// first four 8-node jobs fill the holes and nothing after them fits.
fn queue(depth: u32) -> Vec<QueuedJob> {
    (0..depth)
        .map(|i| QueuedJob {
            id: JobId(i),
            nodes_needed: if i == 0 { 64 } else { 8 << (i % 3) },
            estimate: Some(SimSpan::from_secs(10)),
        })
        .collect()
}

/// Allocations one `select_starts` call makes, and the jobs it starts.
fn allocs(
    kind: SchedulerKind,
    queued: &[QueuedJob],
    running: &[RunningJob],
    matrix: &GangMatrix,
) -> (u64, Vec<JobId>) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let starts = select_starts(kind, SimTime::ZERO, queued, running, matrix);
    (ALLOCS.load(Ordering::Relaxed) - before, starts)
}

#[test]
fn policy_allocations_do_not_grow_with_the_queue() {
    let (matrix, running) = cluster();
    let (shallow, deep) = (queue(16), queue(1024));
    for kind in [
        SchedulerKind::Batch,
        SchedulerKind::Backfill,
        SchedulerKind::Gang,
    ] {
        let (small, small_starts) = allocs(kind, &shallow, &running, &matrix);
        let (large, large_starts) = allocs(kind, &deep, &running, &matrix);
        println!("{kind:?}: {small} allocations at depth 16, {large} at depth 1024");
        assert_eq!(small_starts, large_starts, "{kind:?}: the same jobs start");
        // One matrix copy per queued job would add thousands.
        assert!(
            large <= small + 4,
            "{kind:?}: {large} allocations at depth 1024 against {small} at depth 16"
        );
    }
}
