//! Buddy-tree processor allocation.
//!
//! "Whenever a new job arrives, the MM enqueues it and attempts to allocate
//! processors to it using a buddy tree algorithm" (§2.1, citing Feitelson's
//! packing schemes and the ParPar allocator). Nodes are organised as the
//! leaves of a binary tree; a request for *k* nodes is rounded up to the
//! next power of two and satisfied by an aligned block, splitting larger
//! free blocks as needed; freed blocks coalesce with their buddies.
//!
//! Buddy allocation keeps gangs on contiguous, aligned node ranges — which
//! is also what lets the launch protocol address a job with a single
//! `NodeSet::Range` multicast destination.
//!
//! [`BuddyAllocator::can_alloc`] tells whether [`BuddyAllocator::alloc`]
//! would grant a request without changing the tree. Both run one private
//! search, so the refusal rules (zero nodes, more than the usable nodes,
//! no free block large enough) are written once, and a scheduler can test
//! a fit without copying the allocator.

use std::collections::{BTreeSet, HashMap};
use std::ops::Range;

/// A buddy allocator over node indices `0..capacity_hint` (internally
/// rounded up to a power of two; the excess tail is permanently reserved).
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// Total leaves (power of two).
    capacity: u32,
    /// Real usable nodes (≤ capacity).
    usable: u32,
    /// `free[order]` = set of start indices of free blocks of size 2^order.
    free: Vec<BTreeSet<u32>>,
    /// start → order of live allocations.
    allocated: HashMap<u32, u32>,
    /// Nodes carved out by [`BuddyAllocator::quarantine`] (not free, not
    /// allocated, not counted usable until they rejoin).
    quarantined: BTreeSet<u32>,
}

fn next_pow2(n: u32) -> u32 {
    n.max(1).next_power_of_two()
}

fn order_for(count: u32) -> u32 {
    next_pow2(count).trailing_zeros()
}

impl BuddyAllocator {
    /// Allocator over `nodes` usable nodes.
    pub fn new(nodes: u32) -> Self {
        assert!(nodes > 0, "allocator needs at least one node");
        let capacity = next_pow2(nodes);
        let max_order = capacity.trailing_zeros() as usize;
        let mut free = vec![BTreeSet::new(); max_order + 1];
        free[max_order].insert(0);
        let mut a = BuddyAllocator {
            capacity,
            usable: nodes,
            free,
            allocated: HashMap::new(),
            quarantined: BTreeSet::new(),
        };
        // Reserve the non-existent tail [nodes, capacity) by allocating its
        // binary decomposition; those blocks are never freed.
        let mut start = nodes;
        while start < capacity {
            // Largest aligned power-of-two block starting at `start`.
            let align = 1u32 << start.trailing_zeros();
            let rest = capacity - start;
            let block = align.min(next_pow2(rest + 1) / 2).min(rest);
            let block = if block.is_power_of_two() {
                block
            } else {
                1 << (31 - block.leading_zeros())
            };
            assert!(a.carve(start, order_for(block)), "the tail is free");
            start += block;
        }
        a
    }

    /// Usable node count.
    pub fn usable(&self) -> u32 {
        self.usable
    }

    /// Internal power-of-two capacity (≥ usable).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Number of usable nodes currently free.
    pub fn free_nodes(&self) -> u32 {
        let mut total = 0u32;
        for (order, set) in self.free.iter().enumerate() {
            total += (set.len() as u32) << order;
        }
        total
    }

    /// The free block [`BuddyAllocator::alloc`] would split for `count`
    /// nodes, as `(order, start)`: the lowest-starting block of the
    /// smallest order that holds them. `None` refuses the request — zero
    /// nodes, more than the usable nodes, or no free block that large.
    fn find(&self, count: u32) -> Option<(usize, u32)> {
        if count == 0 || count > self.usable {
            return None;
        }
        let want = order_for(count) as usize;
        (want..self.free.len()).find_map(|order| self.free[order].first().map(|&s| (order, s)))
    }

    /// Would [`BuddyAllocator::alloc`] grant `count` nodes? Reads the free
    /// lists only.
    pub fn can_alloc(&self, count: u32) -> bool {
        self.find(count).is_some()
    }

    /// Allocate a block of at least `count` nodes (rounded up to a power of
    /// two). Returns the node range, or `None` if no suitable block exists.
    pub fn alloc(&mut self, count: u32) -> Option<Range<u32>> {
        let (mut order, start) = self.find(count)?;
        let want = order_for(count) as usize;
        self.free[order].remove(&start);
        // Split down to the wanted order, freeing the upper halves.
        while order > want {
            order -= 1;
            let buddy = start + (1u32 << order);
            self.free[order].insert(buddy);
        }
        self.allocated.insert(start, order as u32);
        Some(start..start + (1u32 << order))
    }

    /// Free a previously-allocated block by its start index, coalescing with
    /// free buddies. Panics on a start that is not currently allocated.
    pub fn free(&mut self, start: u32) {
        let order = self
            .allocated
            .remove(&start)
            .unwrap_or_else(|| panic!("free of unallocated block at {start}"));
        let mut order = order as usize;
        let mut start = start;
        let max_order = self.free.len() - 1;
        while order < max_order {
            let buddy = start ^ (1u32 << order);
            if self.free[order].remove(&buddy) {
                start = start.min(buddy);
                order += 1;
            } else {
                break;
            }
        }
        self.free[order].insert(start);
    }

    /// Mark a specific aligned block as allocated (the reserved tail,
    /// quarantines, a restored job's block). Returns `false`, changing
    /// nothing, when the block is not free.
    pub(crate) fn carve(&mut self, start: u32, order: u32) -> bool {
        if order as usize >= self.free.len() {
            return false;
        }
        // Split larger blocks until a block of exactly (start, order) is free.
        loop {
            if self.free[order as usize].remove(&start) {
                self.allocated.insert(start, order);
                return true;
            }
            // Find an enclosing free block and split it once.
            let mut split_done = false;
            for o in (order as usize + 1)..self.free.len() {
                let enclosing = start & !((1u32 << o) - 1);
                if self.free[o].remove(&enclosing) {
                    self.free[o - 1].insert(enclosing);
                    self.free[o - 1].insert(enclosing + (1u32 << (o - 1)));
                    split_done = true;
                    break;
                }
            }
            if !split_done {
                return false;
            }
        }
    }

    /// Is `node` inside some currently-free block?
    fn is_free(&self, node: u32) -> bool {
        self.free.iter().enumerate().any(|(order, set)| {
            let aligned = node & !((1u32 << order) - 1);
            set.contains(&aligned)
        })
    }

    /// Quarantine a node: carve it out of the free pool so no future
    /// [`BuddyAllocator::alloc`] can return a block containing it. Returns
    /// `false` (and does nothing) if the node is outside the usable range,
    /// already quarantined, or currently inside an allocated block — the
    /// caller must evict whatever holds it first.
    pub fn quarantine(&mut self, node: u32) -> bool {
        if node >= self.usable || self.quarantined.contains(&node) || !self.is_free(node) {
            return false;
        }
        assert!(self.carve(node, 0), "a free node carves");
        // Track it as quarantined rather than allocated: it must neither
        // show up in `allocations()` nor coalesce with freed neighbours.
        self.allocated.remove(&node);
        self.quarantined.insert(node);
        true
    }

    /// Rejoin a quarantined node, returning its leaf to the free pool
    /// (coalescing with free buddies). Returns `false` if the node was not
    /// quarantined.
    pub fn rejoin(&mut self, node: u32) -> bool {
        if !self.quarantined.remove(&node) {
            return false;
        }
        self.allocated.insert(node, 0);
        self.free(node);
        true
    }

    /// Nodes currently quarantined.
    pub fn quarantined_nodes(&self) -> impl Iterator<Item = u32> + '_ {
        self.quarantined.iter().copied()
    }

    /// All live allocations as ranges (excluding the reserved tail).
    pub fn allocations(&self) -> Vec<Range<u32>> {
        let mut v: Vec<Range<u32>> = self
            .allocated
            .iter()
            .filter(|&(&s, _)| s < self.usable)
            .map(|(&s, &o)| s..s + (1u32 << o))
            .collect();
        v.sort_by_key(|r| r.start);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_rounded_aligned_blocks() {
        let mut b = BuddyAllocator::new(64);
        let r = b.alloc(3).unwrap();
        assert_eq!(r.len(), 4, "3 rounds up to 4");
        assert_eq!(r.start % 4, 0, "aligned");
        let r2 = b.alloc(16).unwrap();
        assert_eq!(r2.len(), 16);
        assert_eq!(r2.start % 16, 0);
    }

    #[test]
    fn allocations_never_overlap() {
        let mut b = BuddyAllocator::new(64);
        let mut got = Vec::new();
        while let Some(r) = b.alloc(4) {
            got.push(r);
        }
        assert_eq!(got.len(), 16);
        for (i, a) in got.iter().enumerate() {
            for bb in &got[i + 1..] {
                assert!(a.end <= bb.start || bb.end <= a.start, "{a:?} vs {bb:?}");
            }
        }
        assert_eq!(b.free_nodes(), 0);
    }

    #[test]
    fn free_coalesces_buddies() {
        let mut b = BuddyAllocator::new(16);
        let r1 = b.alloc(8).unwrap();
        let r2 = b.alloc(8).unwrap();
        assert!(b.alloc(1).is_none());
        b.free(r1.start);
        b.free(r2.start);
        // Fully coalesced: the whole machine is allocatable again.
        let all = b.alloc(16).unwrap();
        assert_eq!(all, 0..16);
    }

    #[test]
    fn smallest_sufficient_block_is_preferred() {
        let mut b = BuddyAllocator::new(16);
        let a = b.alloc(4).unwrap(); // leaves 4 free at 4..8 and 8..16
        let _c = b.alloc(8).unwrap();
        b.free(a.start);
        // Now free: 0..8 (two 4-blocks coalesced into 0..4,4..8 → 0..8).
        let d = b.alloc(2).unwrap();
        assert!(d.end <= 8);
    }

    #[test]
    fn non_power_of_two_capacity_reserves_tail() {
        let mut b = BuddyAllocator::new(48);
        assert_eq!(b.usable(), 48);
        assert_eq!(b.free_nodes(), 48);
        // A 32-node job fits…
        let r = b.alloc(32).unwrap();
        assert!(r.end <= 48);
        // …plus a 16-node job exactly fills it.
        let r2 = b.alloc(16).unwrap();
        assert!(r2.end <= 48);
        assert_eq!(b.free_nodes(), 0);
        assert!(b.alloc(1).is_none());
    }

    #[test]
    fn single_node_cluster() {
        let mut b = BuddyAllocator::new(1);
        let r = b.alloc(1).unwrap();
        assert_eq!(r, 0..1);
        assert!(b.alloc(1).is_none());
        b.free(0);
        assert!(b.alloc(1).is_some());
    }

    #[test]
    fn oversized_requests_fail_cleanly() {
        let mut b = BuddyAllocator::new(8);
        assert!(b.alloc(9).is_none());
        assert!(b.alloc(0).is_none());
        assert!(b.alloc(8).is_some());
    }

    #[test]
    #[should_panic(expected = "free of unallocated block")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(8);
        let r = b.alloc(2).unwrap();
        b.free(r.start);
        b.free(r.start);
    }

    #[test]
    fn allocations_view_is_sorted_and_excludes_tail() {
        let mut b = BuddyAllocator::new(24); // capacity 32, tail 24..32 reserved
        let _ = b.alloc(8).unwrap();
        let _ = b.alloc(4).unwrap();
        let allocs = b.allocations();
        assert_eq!(allocs.len(), 2);
        assert!(allocs.windows(2).all(|w| w[0].start < w[1].start));
        assert!(allocs.iter().all(|r| r.end <= 24));
    }

    #[test]
    fn quarantine_excludes_node_from_allocation() {
        let mut b = BuddyAllocator::new(8);
        assert!(b.quarantine(3));
        assert!(b.quarantined_nodes().eq([3]));
        assert_eq!(b.free_nodes(), 7);
        // Every allocatable block avoids node 3.
        let mut got = Vec::new();
        while let Some(r) = b.alloc(1) {
            assert!(!r.contains(&3));
            got.push(r);
        }
        assert_eq!(got.len(), 7);
        assert!(!b.quarantine(3), "already quarantined");
        assert!(!b.quarantine(8), "outside usable range");
    }

    #[test]
    fn quarantine_refuses_allocated_nodes() {
        let mut b = BuddyAllocator::new(8);
        let r = b.alloc(4).unwrap();
        assert!(!b.quarantine(r.start), "node is inside a live allocation");
        b.free(r.start);
        assert!(b.quarantine(r.start), "free after eviction");
    }

    #[test]
    fn rejoin_restores_full_capacity() {
        let mut b = BuddyAllocator::new(16);
        let before = b.free_nodes();
        assert!(b.quarantine(5));
        assert!(b.alloc(16).is_none(), "full-machine block unavailable");
        assert!(b.rejoin(5));
        assert_eq!(b.free_nodes(), before);
        // Coalescing healed: the full machine is one block again.
        assert_eq!(b.alloc(16).unwrap(), 0..16);
        assert!(!b.rejoin(5), "not quarantined any more");
    }

    #[test]
    fn stress_alloc_free_preserves_free_count() {
        use storm_sim::DeterministicRng;
        let mut rng = DeterministicRng::new(11);
        let mut b = BuddyAllocator::new(128);
        let mut live: Vec<Range<u32>> = Vec::new();
        for _ in 0..2000 {
            if rng.uniform() < 0.6 || live.is_empty() {
                let want = 1 << rng.below(5);
                if let Some(r) = b.alloc(want) {
                    // no overlap with any live block
                    for l in &live {
                        assert!(r.end <= l.start || l.end <= r.start);
                    }
                    live.push(r);
                }
            } else {
                let idx = rng.below(live.len() as u64) as usize;
                let r = live.swap_remove(idx);
                b.free(r.start);
            }
            let live_total: u32 = live.iter().map(|r| r.len() as u32).sum();
            assert_eq!(b.free_nodes(), 128 - live_total);
        }
    }
}
