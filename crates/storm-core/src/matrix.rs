//! The Ousterhout gang-scheduling matrix.
//!
//! Gang scheduling (§3.2) assigns each job's processes to distinct PEs with
//! a one-to-one mapping, groups jobs into *time slots*, and time-slices
//! whole slots with a coordinated multi-context-switch each quantum. We
//! model the matrix at node granularity: each slot owns a [`BuddyAllocator`]
//! over the cluster's nodes, and a job occupies a contiguous node range
//! within exactly one slot. The multiprogramming level (MPL) is the number
//! of occupied slots.
//!
//! [`GangMatrix::fits`] tells whether [`GangMatrix::place`] would place a
//! job, without changing the matrix: both run one private search over the
//! open slots' buddy trees and, below the MPL cap, a fresh slot, whose
//! answer is read from the quarantine set rather than built. The
//! scheduling policies test every queued job this way and copy the matrix
//! only for the jobs they start.

use crate::buddy::BuddyAllocator;
use crate::invariants::{broken, InvariantError};
use crate::job::JobId;
use std::collections::BTreeSet;
use std::ops::Range;

/// One time slot of the matrix.
#[derive(Debug, Clone)]
struct Slot {
    buddy: BuddyAllocator,
    /// Jobs in the slot, sorted by id. A slot holds few jobs, so a sorted
    /// vector makes lookups cheap, keeps iteration deterministic without
    /// collect-and-sort, and lets `jobs_in_slot` hand out a borrowed slice
    /// instead of building a fresh `Vec` on every call.
    jobs: Vec<(JobId, Range<u32>)>,
}

impl Slot {
    fn new(nodes: u32, quarantined: &BTreeSet<u32>) -> Self {
        let mut buddy = BuddyAllocator::new(nodes);
        for &node in quarantined {
            assert!(buddy.quarantine(node), "fresh buddy must accept quarantine");
        }
        Slot {
            buddy,
            jobs: Vec::new(),
        }
    }

    fn insert(&mut self, job: JobId, range: Range<u32>) {
        match self.jobs.binary_search_by_key(&job, |(j, _)| *j) {
            Ok(pos) => self.jobs[pos].1 = range,
            Err(pos) => self.jobs.insert(pos, (job, range)),
        }
    }

    fn remove(&mut self, job: JobId) -> Option<Range<u32>> {
        match self.jobs.binary_search_by_key(&job, |(j, _)| *j) {
            Ok(pos) => Some(self.jobs.remove(pos).1),
            Err(_) => None,
        }
    }

    fn get(&self, job: JobId) -> Option<&Range<u32>> {
        match self.jobs.binary_search_by_key(&job, |(j, _)| *j) {
            Ok(pos) => Some(&self.jobs[pos].1),
            Err(_) => None,
        }
    }
}

/// The gang matrix: `mpl_max` time slots × `nodes` nodes.
#[derive(Debug, Clone)]
pub struct GangMatrix {
    nodes: u32,
    mpl_max: usize,
    slots: Vec<Slot>,
    /// Nodes quarantined out of every slot (and out of any slot opened
    /// while the quarantine lasts).
    quarantined: BTreeSet<u32>,
}

impl GangMatrix {
    /// An empty matrix over `nodes` nodes with at most `mpl_max` slots.
    pub fn new(nodes: u32, mpl_max: usize) -> Self {
        assert!(nodes > 0 && mpl_max > 0);
        GangMatrix {
            nodes,
            mpl_max,
            slots: Vec::new(),
            quarantined: BTreeSet::new(),
        }
    }

    /// Cluster width.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Maximum multiprogramming level.
    pub fn mpl_max(&self) -> usize {
        self.mpl_max
    }

    /// Current number of slots (occupied or created).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Current multiprogramming level (number of non-empty slots).
    pub fn mpl(&self) -> usize {
        self.slots.iter().filter(|s| !s.jobs.is_empty()).count()
    }

    /// Total jobs placed.
    pub fn job_count(&self) -> usize {
        self.slots.iter().map(|s| s.jobs.len()).sum()
    }

    /// The slot [`GangMatrix::place`] would put a job needing
    /// `nodes_needed` nodes in: the first open slot with a free aligned
    /// block for it, else [`GangMatrix::slot_count`] when a fresh slot
    /// may open (fewer than `mpl_max` exist) and would hold it. `None`
    /// refuses the job — zero nodes, wider than the cluster, or no room.
    fn find(&self, nodes_needed: u32) -> Option<usize> {
        if nodes_needed == 0 || nodes_needed > self.nodes {
            return None;
        }
        if let Some(idx) = self
            .slots
            .iter()
            .position(|s| s.buddy.can_alloc(nodes_needed))
        {
            return Some(idx);
        }
        (self.slots.len() < self.mpl_max && self.fresh_slot_fits(nodes_needed))
            .then_some(self.slots.len())
    }

    /// Would a fresh slot hold `nodes_needed` nodes? With healthy nodes a
    /// feasible job always fits one; under quarantine even an empty slot
    /// may be too fragmented. A fresh slot's free blocks are the maximal
    /// aligned blocks that hold no quarantined node, so it grants a block
    /// of `w` nodes exactly when one of the cluster's `nodes / w` aligned
    /// `w`-blocks holds none; each quarantined node spoils at most one.
    fn fresh_slot_fits(&self, nodes_needed: u32) -> bool {
        let w = nodes_needed.next_power_of_two();
        let blocks = self.nodes / w;
        let mut spoiled = 0;
        let mut last = None;
        for block in self.quarantined.iter().map(|&n| n / w) {
            if block < blocks && last != Some(block) {
                spoiled += 1;
                last = Some(block);
            }
        }
        spoiled < blocks
    }

    /// Would [`GangMatrix::place`] place a job needing `nodes_needed`
    /// nodes? Reads the matrix only.
    pub fn fits(&self, nodes_needed: u32) -> bool {
        self.find(nodes_needed).is_some()
    }

    /// Try to place a job needing `nodes_needed` nodes: first slot with a
    /// free aligned block wins; a new slot is opened if all existing slots
    /// are full and fewer than `mpl_max` exist. Returns `(slot, node range)`.
    pub fn place(&mut self, job: JobId, nodes_needed: u32) -> Option<(usize, Range<u32>)> {
        let idx = self.find(nodes_needed)?;
        if idx == self.slots.len() {
            self.slots.push(Slot::new(self.nodes, &self.quarantined));
        }
        let slot = &mut self.slots[idx];
        let range = slot
            .buddy
            .alloc(nodes_needed)
            .expect("the slot `find` chose holds the block");
        slot.insert(job, range.clone());
        Some((idx, range))
    }

    /// Quarantine `node` out of every slot (current and future). Returns
    /// `false` (and changes nothing) if any slot still has `node` inside a
    /// live allocation — the MM must evict those jobs first.
    pub fn quarantine_node(&mut self, node: u32) -> bool {
        if node >= self.nodes || self.quarantined.contains(&node) {
            return false;
        }
        if self
            .slots
            .iter()
            .any(|s| s.jobs.iter().any(|(_, r)| r.contains(&node)))
        {
            return false;
        }
        for slot in &mut self.slots {
            assert!(
                slot.buddy.quarantine(node),
                "node {node} free in every slot after eviction"
            );
        }
        self.quarantined.insert(node);
        true
    }

    /// Re-admit a quarantined node to every slot. Returns `false` if the
    /// node was not quarantined.
    pub fn rejoin_node(&mut self, node: u32) -> bool {
        if !self.quarantined.remove(&node) {
            return false;
        }
        for slot in &mut self.slots {
            assert!(slot.buddy.rejoin(node), "quarantined in every slot");
        }
        true
    }

    /// Nodes currently quarantined.
    pub fn quarantined_nodes(&self) -> impl Iterator<Item = u32> + '_ {
        self.quarantined.iter().copied()
    }

    /// Is `node` quarantined?
    pub fn is_quarantined(&self, node: u32) -> bool {
        self.quarantined.contains(&node)
    }

    /// Number of quarantined nodes.
    pub fn quarantined_count(&self) -> u32 {
        self.quarantined.len() as u32
    }

    /// Remove a job, freeing its block. Returns its former `(slot, range)`.
    pub fn remove(&mut self, job: JobId) -> Option<(usize, Range<u32>)> {
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if let Some(range) = slot.remove(job) {
                slot.buddy.free(range.start);
                return Some((idx, range));
            }
        }
        None
    }

    /// Every placed job, merged across the slots in job-id order (each
    /// slot's list is sorted by id) — the order the MM's per-boundary
    /// scans draw randomness and post events in. Costs one binary search
    /// per slot per job and allocates nothing.
    pub fn jobs(&self) -> impl Iterator<Item = JobId> + '_ {
        let mut from = Some(JobId(0));
        std::iter::from_fn(move || {
            let floor = from?;
            let job = self
                .slots
                .iter()
                .filter_map(|s| s.jobs.get(s.jobs.partition_point(|&(j, _)| j < floor)))
                .map(|&(j, _)| j)
                .min()?;
            from = job.0.checked_add(1).map(JobId);
            Some(job)
        })
    }

    /// Jobs in a slot, sorted by id (borrowed — no per-call allocation);
    /// empty past the open slots.
    pub fn jobs_in_slot(&self, slot: usize) -> &[(JobId, Range<u32>)] {
        self.slots.get(slot).map_or(&[], |s| &s.jobs)
    }

    /// The slot a job lives in, if placed.
    pub fn slot_of(&self, job: JobId) -> Option<usize> {
        self.slots.iter().position(|s| s.get(job).is_some())
    }

    /// The node range of a placed job.
    pub fn range_of(&self, job: JobId) -> Option<Range<u32>> {
        self.slots.iter().find_map(|s| s.get(job).cloned())
    }

    /// The next non-empty slot after `current` in round-robin order — the
    /// slot the MM activates at the next quantum boundary. `None` when the
    /// matrix is empty.
    pub fn next_active_slot(&self, current: usize) -> Option<usize> {
        let n = self.slots.len();
        if n == 0 {
            return None;
        }
        for step in 1..=n {
            let idx = (current + step) % n;
            if !self.slots[idx].jobs.is_empty() {
                return Some(idx);
            }
        }
        None
    }

    /// Nodes of `slot` its buddy allocator can still place on (0 past the
    /// open slots).
    pub fn free_nodes_in_slot(&self, slot: usize) -> u32 {
        self.slots.get(slot).map_or(0, |s| s.buddy.free_nodes())
    }

    /// The matrix's contents: cluster width, MPL cap, each open slot's
    /// jobs and the quarantine set.
    pub fn export_state(&self) -> MatrixState {
        MatrixState {
            nodes: self.nodes,
            mpl_max: self.mpl_max,
            slots: self.slots.iter().map(|s| s.jobs.clone()).collect(),
            quarantined: self.quarantined.iter().copied().collect(),
        }
    }

    /// A matrix as a checkpoint restore starts it: `slots` open slots,
    /// empty, with `quarantined` (ascending, each once, nodes of the
    /// cluster) carved out of each. [`GangMatrix::restore_block`] then
    /// puts the live jobs back.
    pub(crate) fn open(
        nodes: u32,
        mpl_max: usize,
        slots: usize,
        quarantined: &[u32],
    ) -> Result<Self, String> {
        if nodes == 0 || slots > mpl_max {
            return Err(format!(
                "{slots} open slots of at most {mpl_max} over {nodes} nodes"
            ));
        }
        if let Some(&n) = quarantined.iter().find(|&&n| n >= nodes) {
            return Err(format!("quarantined node {n} is outside the {nodes} nodes"));
        }
        if let Some(w) = quarantined.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "quarantined node {} is listed after node {}",
                w[1], w[0]
            ));
        }
        let quarantined: BTreeSet<u32> = quarantined.iter().copied().collect();
        Ok(GangMatrix {
            nodes,
            mpl_max,
            slots: (0..slots).map(|_| Slot::new(nodes, &quarantined)).collect(),
            quarantined,
        })
    }

    /// Put `job` back on `block` of `slot`, as a checkpoint restore does
    /// for each live job in job-id order. The slot must be open, and the
    /// block an aligned power-of-two range of the cluster that holds no
    /// quarantined node and overlaps no block placed before it.
    pub(crate) fn restore_block(
        &mut self,
        job: JobId,
        slot: usize,
        block: Range<u32>,
    ) -> Result<(), String> {
        let nodes = self.nodes;
        if block.is_empty() || block.end > nodes {
            return Err(format!(
                "nodes {block:?} are not a range of the {nodes} nodes"
            ));
        }
        let len = block.end - block.start;
        if !len.is_power_of_two() || !block.start.is_multiple_of(len) {
            return Err(format!(
                "nodes {block:?} are not an aligned power-of-two block"
            ));
        }
        if let Some(n) = self.quarantined.range(block.clone()).next() {
            return Err(format!("nodes {block:?} hold quarantined node {n}"));
        }
        let open = self.slots.len();
        let Some(s) = self.slots.get_mut(slot) else {
            return Err(format!("slot {slot} is not one of the {open} open slots"));
        };
        if !s.buddy.carve(block.start, len.trailing_zeros()) {
            return Err(format!(
                "nodes {block:?} overlap another job's block in slot {slot}"
            ));
        }
        s.insert(job, block);
        Ok(())
    }

    /// Check the matrix against its slots' buddy trees. Each tree
    /// conserves its nodes (free + allocated + quarantined = usable) in
    /// disjoint, aligned power-of-two blocks (`buddy_conservation`); each
    /// slot places its jobs on exactly its tree's allocations, and no job
    /// is placed twice (`matrix_consistency`); the matrix quarantines
    /// nodes of the cluster only, every tree exactly those, and none of
    /// them lies inside an allocation (`quarantine_safety`).
    pub fn check_invariants(&self) -> Result<(), InvariantError> {
        let nodes = self.nodes;
        if let Some(n) = self.quarantined.last().filter(|&&n| n >= nodes) {
            broken!(
                "quarantine_safety",
                "quarantined node {n} is outside the {nodes} nodes"
            );
        }
        let mut placed = Vec::with_capacity(self.job_count());
        for (slot, s) in self.slots.iter().enumerate() {
            let allocs = s.buddy.allocations();
            let allocated: u32 = allocs.iter().map(|r| r.len() as u32).sum();
            let quarantined = s.buddy.quarantined_nodes().count() as u32;
            let (free, usable) = (s.buddy.free_nodes(), s.buddy.usable());
            if free + allocated + quarantined != usable {
                broken!(
                    "buddy_conservation",
                    "slot {slot}: free {free} + allocated {allocated} + quarantined \
                     {quarantined} ≠ usable {usable}"
                );
            }
            let mut end = 0;
            for r in &allocs {
                let len = r.len() as u32;
                if !len.is_power_of_two() || r.start % len != 0 || r.start < end {
                    broken!(
                        "buddy_conservation",
                        "slot {slot}: allocation {r:?} is not an aligned power-of-two block \
                         clear of the one before"
                    );
                }
                end = r.end;
            }
            let mut ranges: Vec<Range<u32>> = s.jobs.iter().map(|(_, r)| r.clone()).collect();
            ranges.sort_unstable_by_key(|r| r.start);
            if ranges != allocs {
                broken!(
                    "matrix_consistency",
                    "slot {slot}: placements {ranges:?} are not the buddy allocations {allocs:?}"
                );
            }
            if !s
                .buddy
                .quarantined_nodes()
                .eq(self.quarantined.iter().copied())
            {
                let theirs: Vec<u32> = s.buddy.quarantined_nodes().collect();
                broken!(
                    "quarantine_safety",
                    "slot {slot}: the buddy quarantines {theirs:?}, the matrix {:?}",
                    self.quarantined
                );
            }
            // Both lists ascend, so one merge pass finds a quarantined node
            // inside an allocation.
            let mut q = self.quarantined.iter().peekable();
            for r in &allocs {
                while q.next_if(|&&n| n < r.start).is_some() {}
                if let Some(n) = q.peek().filter(|&&&n| n < r.end) {
                    broken!(
                        "quarantine_safety",
                        "slot {slot}: quarantined node {n} is inside allocation {r:?}"
                    );
                }
            }
            placed.extend(s.jobs.iter().map(|&(job, _)| (job, slot)));
        }
        placed.sort_unstable();
        if let Some(w) = placed.windows(2).find(|w| w[0].0 == w[1].0) {
            let (job, first, second) = (w[0].0 .0, w[0].1, w[1].1);
            broken!(
                "matrix_consistency",
                "job {job} is placed in slots {first} and {second}"
            );
        }
        Ok(())
    }
}

/// The contents of a [`GangMatrix`], produced by
/// [`GangMatrix::export_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixState {
    /// Cluster width.
    pub nodes: u32,
    /// Maximum multiprogramming level.
    pub mpl_max: usize,
    /// Each open slot's jobs, sorted by id, in slot order.
    pub slots: Vec<Vec<(JobId, Range<u32>)>>,
    /// Nodes quarantined out of every slot, ascending.
    pub quarantined: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(n: u64) -> JobId {
        JobId(n as u32)
    }

    #[test]
    fn fills_one_slot_before_opening_another() {
        let mut m = GangMatrix::new(8, 2);
        let (s1, _) = m.place(j(1), 8).unwrap();
        assert_eq!(s1, 0);
        assert_eq!(m.mpl(), 1);
        // Second full-machine job opens slot 1 (MPL 2).
        let (s2, _) = m.place(j(2), 8).unwrap();
        assert_eq!(s2, 1);
        assert_eq!(m.mpl(), 2);
        // Third cannot be placed (MPL cap).
        assert!(m.place(j(3), 1).is_none());
    }

    #[test]
    fn space_shares_within_a_slot() {
        let mut m = GangMatrix::new(8, 1);
        let (s1, r1) = m.place(j(1), 4).unwrap();
        let (s2, r2) = m.place(j(2), 4).unwrap();
        assert_eq!((s1, s2), (0, 0));
        assert!(r1.end <= r2.start || r2.end <= r1.start);
        m.check_invariants().unwrap();
        assert_eq!(m.mpl(), 1);
        assert_eq!(m.job_count(), 2);
    }

    #[test]
    fn remove_frees_space() {
        let mut m = GangMatrix::new(4, 1);
        m.place(j(1), 4).unwrap();
        assert!(m.place(j(2), 1).is_none());
        let (slot, range) = m.remove(j(1)).unwrap();
        assert_eq!((slot, range), (0, 0..4));
        assert!(m.place(j(2), 4).is_some());
        assert!(m.remove(j(99)).is_none());
    }

    #[test]
    fn round_robin_skips_empty_slots() {
        let mut m = GangMatrix::new(4, 3);
        m.place(j(1), 4).unwrap(); // slot 0
        m.place(j(2), 4).unwrap(); // slot 1
        m.place(j(3), 4).unwrap(); // slot 2
        assert_eq!(m.next_active_slot(0), Some(1));
        assert_eq!(m.next_active_slot(2), Some(0));
        m.remove(j(2)).unwrap();
        assert_eq!(m.next_active_slot(0), Some(2), "skips now-empty slot 1");
        m.remove(j(1)).unwrap();
        m.remove(j(3)).unwrap();
        assert_eq!(m.next_active_slot(0), None);
    }

    #[test]
    fn lookups() {
        let mut m = GangMatrix::new(8, 2);
        m.place(j(5), 2).unwrap();
        assert_eq!(m.slot_of(j(5)), Some(0));
        assert_eq!(m.range_of(j(5)).unwrap().len(), 2);
        assert_eq!(m.slot_of(j(6)), None);
        let in_slot = m.jobs_in_slot(0);
        assert_eq!(in_slot.len(), 1);
        assert_eq!(in_slot[0].0, j(5));
    }

    #[test]
    fn jobs_merge_the_slots_in_job_order() {
        let mut m = GangMatrix::new(8, 3);
        assert_eq!(m.jobs().count(), 0);
        // Slot 0 holds job 4; slot 1 jobs 1, 3 and 7; slot 2 jobs 2 and 9.
        for (job, nodes) in [(4, 8), (1, 4), (7, 2), (2, 4), (9, 4), (3, 2)] {
            m.place(j(job), nodes).unwrap();
        }
        let order = |m: &GangMatrix| m.jobs().map(|job| job.0).collect::<Vec<_>>();
        assert_eq!(order(&m), [1, 2, 3, 4, 7, 9]);
        m.remove(j(4)).unwrap();
        assert_eq!(order(&m), [1, 2, 3, 7, 9]);
    }

    #[test]
    fn fits_is_consistent_with_place() {
        let mut m = GangMatrix::new(8, 1);
        assert!(m.fits(8));
        m.place(j(1), 5).unwrap(); // rounds to 8
        assert!(!m.fits(1));
        assert!(!m.fits(9), "larger than machine");
        assert!(!m.fits(0));
    }

    #[test]
    fn quarantine_spans_existing_and_future_slots() {
        let mut m = GangMatrix::new(8, 2);
        m.place(j(1), 2).unwrap(); // opens slot 0 at 0..2
        assert!(m.quarantine_node(7));
        assert!(m.is_quarantined(7));
        // Slot 0's upper half is fragmented by the carve, so a 4-node job
        // must open slot 1 — which starts with the quarantine applied.
        let (slot, r) = m.place(j(2), 4).unwrap();
        assert_eq!(slot, 1);
        assert!(!r.contains(&7));
        // No slot, existing or fresh, can host the full machine now.
        assert!(!m.fits(8));
        // Small jobs still fit around the quarantined node.
        let (_, r2) = m.place(j(3), 2).unwrap();
        assert!(!r2.contains(&7));
        m.check_invariants().unwrap();
    }

    #[test]
    fn quarantine_requires_eviction_first() {
        let mut m = GangMatrix::new(8, 1);
        m.place(j(1), 8).unwrap();
        assert!(!m.quarantine_node(3), "node 3 is inside job 1's block");
        m.remove(j(1)).unwrap();
        assert!(m.quarantine_node(3));
        assert!(!m.quarantine_node(3), "idempotence guard");
        assert!(!m.quarantine_node(99), "out of range");
    }

    #[test]
    fn rejoin_restores_placement() {
        let mut m = GangMatrix::new(8, 1);
        assert!(m.quarantine_node(0));
        assert!(!m.fits(8));
        assert!(m.rejoin_node(0));
        assert!(!m.rejoin_node(0), "second rejoin is a no-op");
        assert!(m.fits(8));
        let (_, r) = m.place(j(1), 8).unwrap();
        assert_eq!(r, 0..8);
        assert_eq!(m.quarantined_nodes().count(), 0);
    }

    #[test]
    fn quarantine_safety_catches_a_desynced_set() {
        let mut m = GangMatrix::new(8, 2);
        m.place(j(1), 2).unwrap();
        // The matrix's set names node 2; slot 0's buddy tree does not.
        m.quarantined.insert(2);
        let e = m.check_invariants().unwrap_err();
        assert_eq!(e.check, "quarantine_safety");
        assert!(e.detail.contains("slot 0: the buddy quarantines []"), "{e}");
    }

    #[test]
    fn restore_rebuilds_the_blocks_and_refuses_misfits() {
        let mut live = GangMatrix::new(8, 2);
        // Slot 0: job 1 on 0..2, job 2 on 4..8; slot 1: job 5 on 4..8;
        // node 3 quarantined.
        live.place(j(1), 2).unwrap();
        live.place(j(2), 4).unwrap();
        live.place(j(3), 8).unwrap();
        live.remove(j(3)).unwrap();
        assert!(live.quarantine_node(3));
        assert_eq!(live.place(j(5), 4), Some((1, 4..8)));
        let state = live.export_state();
        let mut m = GangMatrix::open(8, 2, state.slots.len(), &state.quarantined).unwrap();
        let mut blocks: Vec<(JobId, usize, Range<u32>)> = (0..)
            .zip(&state.slots)
            .flat_map(|(slot, jobs)| jobs.iter().map(move |(job, r)| (*job, slot, r.clone())))
            .collect();
        blocks.sort_by_key(|b| b.0);
        for (job, slot, r) in blocks {
            m.restore_block(job, slot, r).unwrap();
        }
        assert_eq!(m.export_state(), state);
        m.check_invariants().unwrap();
        // Same free lists: the next placements land where the live ones do.
        for (job, need) in [(4, 1), (5, 2), (6, 1)] {
            assert_eq!(m.place(j(job), need), live.place(j(job), need));
        }

        assert!(GangMatrix::open(8, 2, 3, &[]).is_err(), "above mpl_max");
        assert!(GangMatrix::open(8, 2, 1, &[8]).is_err(), "outside");
        assert!(GangMatrix::open(8, 2, 1, &[3, 3]).is_err(), "twice");
        assert!(GangMatrix::open(8, 2, 1, &[5, 3]).is_err(), "descending");
        let mut m = GangMatrix::open(8, 2, 1, &[5]).unwrap();
        for (slot, block, why) in [
            (1, 0..2, "not one of the 1 open slots"),
            (0, 1..3, "not an aligned power-of-two block"),
            (0, 0..3, "not an aligned power-of-two block"),
            (0, 4..8, "hold quarantined node 5"),
            (0, 6..10, "not a range of the 8 nodes"),
        ] {
            let e = m.restore_block(j(1), slot, block.clone()).unwrap_err();
            assert!(e.contains(why), "{block:?}: {e}");
        }
        m.restore_block(j(1), 0, 0..4).unwrap();
        let e = m.restore_block(j(2), 0, 2..4).unwrap_err();
        assert!(e.contains("overlap another job's block in slot 0"), "{e}");
        m.check_invariants().unwrap();
    }

    #[test]
    fn random_place_remove_maintains_invariants() {
        use storm_sim::DeterministicRng;
        let mut rng = DeterministicRng::new(3);
        let mut m = GangMatrix::new(32, 3);
        let mut live: Vec<JobId> = Vec::new();
        let mut next = 0u64;
        for _ in 0..1500 {
            if rng.uniform() < 0.6 || live.is_empty() {
                let want = 1 << rng.below(5);
                let id = j(next);
                next += 1;
                if m.place(id, want).is_some() {
                    live.push(id);
                }
            } else {
                let idx = rng.below(live.len() as u64) as usize;
                let id = live.swap_remove(idx);
                assert!(m.remove(id).is_some());
            }
            m.check_invariants().unwrap();
            assert!(m.mpl() <= 3);
            assert_eq!(m.job_count(), live.len());
        }
    }
}
