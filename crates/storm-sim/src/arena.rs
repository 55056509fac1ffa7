//! Generational slab arena for in-flight event payloads.
//!
//! The event queue used to carry a full message (or a whole group
//! delivery) inside every entry, so every heap sift and every wheel
//! bucket move shuffled payload-sized entries around. The engine now
//! interns payloads here and the queue carries a dense
//! `EventRef { target, payload }` instead; an entry shrinks to a few
//! machine words regardless of the message type.
//!
//! Slots are reused through a free list, and each slot carries a
//! *generation* counter bumped on every free: a [`PayloadId`] minted for
//! one payload can never silently alias a later payload occupying the
//! same slot — a stale id panics (or reads as dead through
//! [`EventArena::try_get`]). The arena-reuse property test in this module
//! and the engine's lock-step determinism suite are what the DESIGN.md
//! §16 guarantees rest on.
//!
//! Slot numbers and generations never leave the engine. A checkpoint
//! keeps an arena's [`ArenaSize`], two numbers, and the payloads inline in
//! their queue entries; restore interns them again into
//! [`EventArena::with_size`], which leaves [`EventArena::stats`] as it
//! was.

use std::fmt;

/// Dense handle to one interned payload: slot index plus the slot's
/// generation at allocation time.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PayloadId {
    ix: u32,
    gen: u32,
}

impl fmt::Debug for PayloadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}g{}", self.ix, self.gen)
    }
}

/// A snapshot of arena accounting, returned by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Payloads currently interned.
    pub live: usize,
    /// High-water mark of live payloads.
    pub peak: usize,
    /// Slots ever created (live + free-listed).
    pub capacity: usize,
    /// Resident bytes of the slot table (capacity × slot size).
    pub payload_bytes: usize,
}

impl ArenaStats {
    /// Field-wise sum — the engine reports its message and group arenas
    /// as one figure.
    pub fn merged(self, other: ArenaStats) -> ArenaStats {
        ArenaStats {
            live: self.live + other.live,
            peak: self.peak + other.peak,
            capacity: self.capacity + other.capacity,
            payload_bytes: self.payload_bytes + other.payload_bytes,
        }
    }
}

/// What a checkpoint keeps of an arena: its high-water mark and the slot
/// table's reserved capacity. A slot is created only when every slot is
/// live, so the table holds `peak` slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaSize {
    /// High-water mark of live payloads.
    pub peak: usize,
    /// Reserved capacity of the slot table, in slots.
    pub reserve: usize,
}

/// One slot: the current generation and the payload, if occupied.
#[derive(Debug)]
struct Slot<T> {
    gen: u32,
    val: Option<T>,
}

/// Generational slab arena. Allocation pops the free list (or grows the
/// slot table), freeing bumps the slot's generation and pushes it back —
/// both O(1), no per-payload heap allocation once the table is warm.
#[derive(Debug)]
pub struct EventArena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
    peak: usize,
}

impl<T> Default for EventArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        EventArena {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            peak: 0,
        }
    }

    /// Intern `val`, returning its handle.
    pub fn alloc(&mut self, val: T) -> PayloadId {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        if let Some(ix) = self.free.pop() {
            let slot = &mut self.slots[ix as usize];
            debug_assert!(slot.val.is_none(), "free list pointed at a live slot");
            slot.val = Some(val);
            return PayloadId { ix, gen: slot.gen };
        }
        let ix = u32::try_from(self.slots.len()).expect("arena slot overflow");
        self.slots.push(Slot {
            gen: 0,
            val: Some(val),
        });
        PayloadId { ix, gen: 0 }
    }

    /// Remove and return the payload behind `id`, freeing its slot for
    /// reuse under a new generation.
    ///
    /// Panics on a stale or double-taken id — the engine's invariant is
    /// one live arena payload per queued event reference, so a mismatch
    /// here is a bug, never a recoverable condition.
    pub fn take(&mut self, id: PayloadId) -> T {
        let slot = &mut self.slots[id.ix as usize];
        assert!(slot.gen == id.gen, "stale payload id {id:?}");
        let val = slot
            .val
            .take()
            .unwrap_or_else(|| panic!("double take of {id:?}"));
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(id.ix);
        self.live -= 1;
        val
    }

    /// Borrow the payload behind `id`, or `None` when the id no longer
    /// names a live payload (freed, or its slot reused under a newer
    /// generation).
    pub fn try_get(&self, id: PayloadId) -> Option<&T> {
        let slot = self.slots.get(id.ix as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.val.as_ref()
    }

    /// Iterate over live payloads in unspecified slot order — for
    /// order-insensitive folds (pending-message accounting), not for
    /// delivery.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.val.as_ref())
    }

    /// Payloads currently interned.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of live payloads.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Accounting snapshot.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            live: self.live,
            peak: self.peak,
            capacity: self.slots.len(),
            payload_bytes: self.slots.capacity() * std::mem::size_of::<Slot<T>>(),
        }
    }

    /// The high-water mark and the slot table's reserved capacity, for
    /// checkpointing.
    pub fn size(&self) -> ArenaSize {
        ArenaSize {
            peak: self.peak,
            reserve: self.slots.capacity(),
        }
    }

    /// An empty arena of the given size: `size.peak` free slots in a slot
    /// table of `size.reserve` reserved capacity. Interning the payloads
    /// that were live when the size was taken makes its [`ArenaStats`]
    /// equal the measured arena's, and both grow alike from there. Fails,
    /// rather than aborting, when the slot table cannot be allocated.
    pub fn with_size(size: ArenaSize) -> Result<Self, String> {
        let top =
            u32::try_from(size.peak).map_err(|_| format!("peak {}: too many slots", size.peak))?;
        let mut slots = Vec::new();
        slots
            .try_reserve_exact(size.reserve.max(size.peak))
            .map_err(|e| format!("reserve {}: {e}", size.reserve))?;
        slots.resize_with(size.peak, || Slot { gen: 0, val: None });
        Ok(EventArena {
            slots,
            // Popped from the back: the lowest slot first.
            free: (0..top).rev().collect(),
            live: 0,
            peak: size.peak,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_take_roundtrip_and_accounting() {
        let mut a = EventArena::new();
        let x = a.alloc("x");
        let y = a.alloc("y");
        assert_eq!(a.live(), 2);
        assert_eq!(a.try_get(x), Some(&"x"));
        assert_eq!(a.take(x), "x");
        assert_eq!(a.live(), 1);
        assert_eq!(a.take(y), "y");
        assert_eq!(a.live(), 0);
        let s = a.stats();
        assert_eq!(s.peak, 2);
        assert_eq!(s.capacity, 2);
        assert!(s.payload_bytes > 0);
    }

    #[test]
    fn slots_are_reused_under_new_generations() {
        let mut a = EventArena::new();
        let first = a.alloc(1u64);
        a.take(first);
        let second = a.alloc(2u64);
        // Same slot, new generation: the stale id is dead, not aliased.
        assert_eq!(a.try_get(second), Some(&2));
        assert!(a.try_get(first).is_none());
        assert_eq!(a.stats().capacity, 1, "slot was reused, not grown");
    }

    #[test]
    #[should_panic(expected = "stale payload id")]
    fn stale_take_panics() {
        let mut a = EventArena::new();
        let id = a.alloc(5u32);
        a.take(id);
        a.alloc(6u32);
        a.take(id);
    }

    #[test]
    fn iter_visits_only_live_payloads() {
        let mut a = EventArena::new();
        let ids: Vec<_> = (0..10u32).map(|i| a.alloc(i)).collect();
        for id in ids.iter().step_by(2) {
            a.take(*id);
        }
        let mut left: Vec<u32> = a.iter().copied().collect();
        left.sort_unstable();
        assert_eq!(left, vec![1, 3, 5, 7, 9]);
    }

    use proptest::prelude::*;

    proptest! {
        /// Random push/pop/leak cycles: live ids always read back their own
        /// value, freed ids never alias a later payload, and draining the
        /// model drains the arena to zero.
        #[test]
        fn generational_reuse_never_aliases(ops in prop::collection::vec(0u8..=2, 1..200)) {
            let mut arena = EventArena::new();
            let mut live: Vec<(PayloadId, u64)> = Vec::new();
            let mut dead: Vec<PayloadId> = Vec::new();
            let mut next_val = 0u64;
            for op in ops {
                match op {
                    // Intern a fresh, unique value.
                    0 | 1 => {
                        let id = arena.alloc(next_val);
                        live.push((id, next_val));
                        next_val += 1;
                    }
                    // Free the oldest live payload.
                    _ => {
                        if let Some((id, want)) = live.first().copied() {
                            live.remove(0);
                            prop_assert_eq!(arena.take(id), want);
                            dead.push(id);
                        }
                    }
                }
                prop_assert_eq!(arena.live(), live.len());
                for &(id, want) in &live {
                    prop_assert_eq!(arena.try_get(id), Some(&want));
                }
                for &id in &dead {
                    prop_assert!(arena.try_get(id).is_none(), "dead id aliased a live slot");
                }
            }
            for (id, want) in live.drain(..) {
                prop_assert_eq!(arena.take(id), want);
            }
            prop_assert_eq!(arena.live(), 0, "arena drains to zero");
        }
    }
}
