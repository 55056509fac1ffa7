//! Allocation audit for checkpoint encoding.
//!
//! The encoder writes JSON text straight into one `String`; it builds no
//! value tree, so it allocates per exported dæmon state and per doubling
//! of the output, not per number or key. A counting global allocator
//! checks that a checkpoint of a 4096-node cluster stays well under 10
//! allocations per KB of text (a value tree makes about 100).
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
fn checkpoint_encoding_allocates_per_section_not_per_value() {
    // A node costs about 200 bytes of text, so it takes 4096 of them to
    // pass 500 KB.
    let mut cluster = Cluster::new(ClusterConfig::paper_cluster().with_nodes(4096));
    cluster.submit(JobSpec::new(AppSpec::do_nothing_mb(12), 16_384));
    // 60 ms lands mid-launch: chunks in flight, payloads pending, and
    // transfer state on the job.
    cluster.run_until(SimTime::from_millis(60));

    let before = ALLOCS.load(Ordering::Relaxed);
    let text = cluster.checkpoint();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    let kb = text.len() as f64 / 1024.0;
    assert!(kb > 500.0, "a 4096-node checkpoint is large: {kb:.0} KB");
    let per_kb = allocs as f64 / kb;
    assert!(
        per_kb < 10.0,
        "{allocs} allocations for {kb:.0} KB of checkpoint ({per_kb:.1}/KB)"
    );
    println!("{allocs} allocations for {kb:.0} KB ({per_kb:.2}/KB)");
}
