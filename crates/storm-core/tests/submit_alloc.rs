//! Allocation audit for job submission.
//!
//! Submitting registers a job record and posts one `Submit` event. The
//! spec is cloned on the way in (every caller that replays a job list
//! does), and its name is shared, so a clone allocates nothing: 500
//! submissions cost the record table's and the event queue's growth, not
//! one allocation per job.
//!
//! This file holds exactly one `#[test]` — the counter is process-global,
//! so a sibling test running on another thread would pollute the audit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use storm_core::prelude::*;

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

#[test]
fn submitting_cloned_specs_allocates_less_than_once_per_job() {
    // The benchmark's launch stream: one 12 MB do-nothing launch every
    // 200 ms on the paper cluster.
    let mut cluster = Cluster::new(ClusterConfig::paper_cluster());
    let spec = JobSpec::new(AppSpec::do_nothing_mb(12), 256);

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..500 {
        cluster.submit_at(SimTime::from_millis(10 + 200 * i), spec.clone());
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert!(
        allocs < 500,
        "{allocs} allocations for 500 submissions of one spec"
    );
    println!("{allocs} allocations for 500 submissions");
}
