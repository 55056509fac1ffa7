//! Steady-state allocation audit for the hot delivery paths.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase (arena slots claimed, wheel buckets at capacity) the periodic
//! multicast loop must run **allocation-free**: group expansion moves the
//! payload to the last member and clones it for the rest (no boxing), and
//! `GroupTargets` is either a `Copy` stride or an `Arc` list (clone is a
//! refcount bump).
//!
//! This file holds exactly one `#[test]` — the counter is process-global,
//! so a sibling test running on another thread would pollute the audit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use storm_sim::{Component, Context, GroupSchedule, GroupTargets, SimSpan, Simulation};

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

/// The world: one delivery counter per leaf (index 0 is unused — it
/// belongs to the hub).
type Counts = [u64; 9];

/// Drives the loop: every millisecond, multicast a payload to the leaves.
struct Hub {
    targets: GroupTargets,
    rounds: u64,
}

impl Component<Counts, u64> for Hub {
    fn handle(&mut self, msg: u64, ctx: &mut Context<'_, Counts, u64>) {
        assert_eq!(msg, 0, "hub only receives its own driver message");
        self.rounds += 1;
        ctx.multicast(
            &self.targets,
            ctx.now() + SimSpan::from_micros(10),
            GroupSchedule::Simultaneous,
            self.rounds,
        );
        ctx.send_self_at(ctx.now() + SimSpan::from_millis(1), 0);
    }
}

/// Receives the fan-out (all leaf deliveries land at the same instant).
struct Leaf {
    index: usize,
}

impl Component<Counts, u64> for Leaf {
    fn handle(&mut self, _msg: u64, ctx: &mut Context<'_, Counts, u64>) {
        ctx.world()[self.index] += 1;
    }
}

#[test]
fn steady_state_multicast_allocates_nothing() {
    let mut sim: Simulation<Counts, u64> = Simulation::new([0; 9], 7);
    let hub = sim.add_component(Hub {
        targets: GroupTargets::Strided {
            first: storm_sim::ComponentId::from_index(1),
            stride: 1,
            len: 8,
        },
        rounds: 0,
    });
    for index in 1..=8 {
        sim.add_component(Leaf { index });
    }
    sim.post(storm_sim::SimTime::ZERO, hub, 0);

    // Warm-up: several full wheel revolutions' worth of rounds, so every
    // bucket and arena slot reaches capacity.
    for _ in 0..200_000 {
        if !sim.step() {
            panic!("driver loop must be self-sustaining");
        }
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..20_000 {
        sim.step();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state group expansion must not allocate"
    );

    // Sanity: the loop really did fan out to the leaves the whole time.
    let seen: u64 = sim.world()[1..].iter().sum();
    assert!(seen > 30_000, "leaves saw the fan-out: {seen}");
}
