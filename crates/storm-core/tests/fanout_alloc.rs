//! Allocation audit for cluster set-up and the NM fan-out loop.
//!
//! `Cluster::new` registers one NM and `cpus_per_node × mpl_max` PLs per
//! node, all zero-sized, so it makes as many allocations at 4,096 nodes
//! as at 1,024. A strobe or heartbeat reaches every node's Node Manager
//! in one loop over the NM table. In steady state no member of that loop
//! allocates: a gang cluster with heartbeats makes as many allocations
//! over five simulated seconds at 4,096 nodes as at 1,024, though each
//! fan-out reaches three thousand more members.
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

/// Allocations `Cluster::new` makes for a gang cluster of `nodes` nodes,
/// then over five simulated seconds of two running SWEEP3D jobs at MPL 2
/// on it, heartbeats every 4 ticks: 100 strobes and 25 heartbeat rounds
/// to every node.
fn allocs(nodes: u32) -> (u64, u64) {
    let cfg = ClusterConfig::gang_cluster()
        .with_nodes(nodes)
        .with_fault_detection(4);
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut cluster = Cluster::new(cfg);
    let setup = ALLOCS.load(Ordering::Relaxed) - before;
    let jobs: Vec<JobId> = (0..2)
        .map(|_| {
            cluster
                .submit(JobSpec::new(AppSpec::sweep3d_default(), nodes * 2).with_ranks_per_node(2))
        })
        .collect();
    // Transfer, fork and report: both jobs are running by 2 s.
    cluster.run_until(SimTime::from_secs(2));
    for &job in &jobs {
        assert_eq!(cluster.job(job).state, JobState::Running, "{nodes} nodes");
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    cluster.run_until(SimTime::from_secs(7));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(cluster.world().stats.strobes, 140, "{nodes} nodes");
    (setup, allocs)
}

#[test]
fn fanout_allocations_do_not_grow_with_the_node_count() {
    let (small_setup, small) = allocs(1024);
    let (large_setup, large) = allocs(4096);
    println!("Cluster::new: {small_setup} allocations at 1024 nodes, {large_setup} at 4096");
    // One allocation per node would add 3,072.
    assert!(
        large_setup <= small_setup + 16,
        "Cluster::new made {large_setup} allocations at 4096 nodes against {small_setup} at 1024"
    );
    println!("{small} allocations at 1024 nodes, {large} at 4096");
    // One allocation per member of one fan-out would add 3,072.
    assert!(
        large <= small + 16,
        "{large} allocations at 4096 nodes against {small} at 1024"
    );
}
