//! The Ousterhout gang-scheduling matrix.
//!
//! Gang scheduling (§3.2) assigns each job's processes to distinct PEs with
//! a one-to-one mapping, groups jobs into *time slots*, and time-slices
//! whole slots with a coordinated multi-context-switch each quantum. We
//! model the matrix at node granularity: each slot owns a [`BuddyAllocator`]
//! over the cluster's nodes, and a job occupies a contiguous node range
//! within exactly one slot. The multiprogramming level (MPL) is the number
//! of occupied slots.

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

    /// Try to place a job needing `nodes_needed` nodes: first slot with a
    /// free aligned block wins; a new slot is opened if all existing slots
    /// are full and fewer than `mpl_max` exist. Returns `(slot, node range)`.
    pub fn place(&mut self, job: JobId, nodes_needed: u32) -> Option<(usize, Range<u32>)> {
        if nodes_needed == 0 || nodes_needed > self.nodes {
            return None;
        }
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if let Some(range) = slot.buddy.alloc(nodes_needed) {
                slot.insert(job, range.clone());
                return Some((idx, range));
            }
        }
        if self.slots.len() < self.mpl_max {
            let mut slot = Slot::new(self.nodes, &self.quarantined);
            // With healthy nodes a feasible job always fits a fresh slot;
            // under quarantine even an empty slot may be too fragmented.
            let range = slot.buddy.alloc(nodes_needed)?;
            slot.insert(job, range.clone());
            self.slots.push(slot);
            return Some((self.slots.len() - 1, range));
        }
        None
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

    /// Largest free aligned block available in any slot — used by
    /// schedulers to decide whether a queued job could start now.
    pub fn can_place(&self, nodes_needed: u32) -> bool {
        if nodes_needed == 0 || nodes_needed > self.nodes {
            return false;
        }
        let want = nodes_needed.next_power_of_two();
        if self
            .slots
            .iter()
            .any(|s| s.buddy.free_nodes() >= want && s.buddy.clone().alloc(nodes_needed).is_some())
        {
            return true;
        }
        // A fresh slot starts with the quarantine applied, so probe one.
        self.slots.len() < self.mpl_max
            && Slot::new(self.nodes, &self.quarantined)
                .buddy
                .alloc(nodes_needed)
                .is_some()
    }

    /// Checkpoint image: cluster width, MPL cap, per-slot buddy + job
    /// rows, and the matrix-level quarantine set.
    pub fn export_state(&self) -> MatrixState {
        MatrixState {
            nodes: self.nodes,
            mpl_max: self.mpl_max,
            slots: self
                .slots
                .iter()
                .map(|s| SlotState {
                    buddy: s.buddy.export_state(),
                    jobs: s.jobs.clone(),
                })
                .collect(),
            quarantined: self.quarantined.iter().copied().collect(),
        }
    }

    /// Rebuild a matrix from an exported image. See
    /// [`GangMatrix::export_state`]. Every slot's allocator must span the
    /// matrix's nodes and replay (see [`BuddyAllocator::import_state`]).
    pub fn import_state(state: MatrixState) -> Result<Self, String> {
        let nodes = state.nodes;
        let slots = (0..)
            .zip(state.slots)
            .map(|(i, s)| {
                if s.buddy.usable != nodes {
                    let usable = s.buddy.usable;
                    return Err(format!("slot {i}: {usable} usable nodes of {nodes}"));
                }
                let buddy =
                    BuddyAllocator::import_state(s.buddy).map_err(|e| format!("slot {i}: {e}"))?;
                Ok(Slot {
                    buddy,
                    jobs: s.jobs,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(GangMatrix {
            nodes,
            mpl_max: state.mpl_max,
            slots,
            quarantined: state.quarantined.into_iter().collect(),
        })
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

/// Serializable image of a [`GangMatrix`], produced by
/// [`GangMatrix::export_state`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixState {
    /// Cluster width.
    pub nodes: u32,
    /// Maximum multiprogramming level.
    pub mpl_max: usize,
    /// Open slots in slot order.
    pub slots: Vec<SlotState>,
    /// Nodes quarantined out of every slot, ascending.
    pub quarantined: Vec<u32>,
}

/// One checkpointed matrix slot: its allocator image plus the job rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotState {
    /// The slot's buddy-allocator image.
    pub buddy: crate::buddy::BuddyState,
    /// Jobs in the slot, sorted by id.
    pub jobs: Vec<(JobId, Range<u32>)>,
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
    fn can_place_is_consistent_with_place() {
        let mut m = GangMatrix::new(8, 1);
        assert!(m.can_place(8));
        m.place(j(1), 5).unwrap(); // rounds to 8
        assert!(!m.can_place(1));
        assert!(!m.can_place(9), "larger than machine");
        assert!(!m.can_place(0));
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
        assert!(!m.can_place(8));
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
        assert!(!m.can_place(8));
        assert!(m.rejoin_node(0));
        assert!(!m.rejoin_node(0), "second rejoin is a no-op");
        assert!(m.can_place(8));
        let (_, r) = m.place(j(1), 8).unwrap();
        assert_eq!(r, 0..8);
        assert_eq!(m.quarantined_nodes().count(), 0);
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
