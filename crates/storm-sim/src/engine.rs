//! The actor-style simulation engine.
//!
//! A [`Simulation`] owns a set of [`Component`]s (in STORM: the Machine
//! Manager, one Node Manager per node, Program Launchers, application
//! processes, baseline launchers, …), a deterministic [`EventQueue`] of
//! timestamped deliveries, a shared mutable *world* `W` (network
//! occupancy, global variables, filesystem state, metrics), and a
//! deterministic RNG.
//!
//! Components communicate exclusively through timestamped messages; the
//! engine delivers them in `(time, insertion-sequence)` order, so any two
//! runs with the same inputs and seed produce identical traces.
//!
//! ## The arena-backed hot loop (DESIGN.md §16)
//!
//! The queue itself carries only a dense [`EventRef`] — target component
//! index plus a generational [`PayloadId`] into a slab arena — so heap
//! sifts and wheel bucket moves shuffle a few machine words per entry no
//! matter how large the message type is. Components live in a flat
//! dispatch table indexed by that component index (no per-delivery
//! checkout/check-in). Every pop takes one path: a unicast entry is one
//! [`Component::handle`] call, a group entry one call per member in rank
//! order, with or without a [`DeliveryOrder`] hook installed.

use crate::arena::{ArenaState, ArenaStats, EventArena, PayloadId};
use crate::queue::{
    DeliveryOrder, DeliveryOrderState, EventQueue, QueueAccounting, QueueBackend, QueueStats,
};
use crate::rng::DeterministicRng;
use crate::time::{SimSpan, SimTime};
use crate::trace::{TraceRecord, Tracer};
use std::fmt;
use std::sync::Arc;

/// Identifies a component within one [`Simulation`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// The raw index (stable for the lifetime of the simulation).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index. No validation against any live
    /// simulation — for tooling/tests that rebuild trace records;
    /// sending to an id that names no component panics at delivery.
    pub fn from_index(ix: u32) -> Self {
        ComponentId(ix)
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Depth of the `rank`-th destination (1-based) in a `fanout`-ary
/// distribution tree rooted at the source — the arrival-skew model shared
/// by the mechanism layer's software-emulated multicast and the engine's
/// [`GroupSchedule::FanoutTree`].
pub fn tree_depth(rank: u64, fanout: u64) -> u64 {
    debug_assert!(fanout >= 2);
    // Nodes at depth d (excluding the root): fanout^1 + … + fanout^d.
    let mut depth = 0u64;
    let mut covered = 0u64;
    let mut level = 1u64;
    while covered < rank {
        depth += 1;
        level *= fanout;
        covered += level;
    }
    depth
}

/// The recipients of one group delivery, in delivery (rank) order.
///
/// Both variants are O(1)-sized: a strided arithmetic progression of
/// component ids (how regularly-wired per-node components lay out), or a
/// shared slice for irregular sets. Cloning is allocation-free (a field
/// copy or an `Arc` refcount bump), which is what lets
/// [`Context::multicast`] borrow the caller's targets.
#[derive(Clone, Debug)]
pub enum GroupTargets {
    /// `len` components at ids `first, first+stride, first+2·stride, …`.
    Strided {
        /// First recipient.
        first: ComponentId,
        /// Id increment between consecutive recipients.
        stride: u32,
        /// Number of recipients.
        len: u32,
    },
    /// An explicit list, shared (never copied per delivery).
    List(Arc<[ComponentId]>),
}

impl GroupTargets {
    /// Number of recipients.
    pub fn len(&self) -> u32 {
        match self {
            GroupTargets::Strided { len, .. } => *len,
            GroupTargets::List(v) => u32::try_from(v.len()).expect("group too large"),
        }
    }

    /// True when there is no recipient.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `rank`-th recipient.
    pub fn get(&self, rank: u32) -> ComponentId {
        match self {
            GroupTargets::Strided { first, stride, len } => {
                debug_assert!(rank < *len);
                ComponentId(first.0 + stride * rank)
            }
            GroupTargets::List(v) => v[rank as usize],
        }
    }
}

/// When each member of a group delivery receives the message, relative to
/// the delivery's base instant.
#[derive(Clone, Copy, Debug)]
pub enum GroupSchedule {
    /// Every recipient at the base instant (hardware multicast).
    Simultaneous,
    /// Recipient `rank` at `base + per_hop × tree_depth(rank+1, fanout)` —
    /// the software-emulated fan-out tree's arrival skew.
    FanoutTree {
        /// Cost of one tree hop.
        per_hop: SimSpan,
        /// Tree fan-out (≥ 2).
        fanout: u32,
    },
}

impl GroupSchedule {
    /// Arrival instant of the `rank`-th recipient.
    pub fn arrival(&self, base: SimTime, rank: u32) -> SimTime {
        match self {
            GroupSchedule::Simultaneous => base,
            GroupSchedule::FanoutTree { per_hop, fanout } => {
                base + *per_hop * tree_depth(u64::from(rank) + 1, u64::from(*fanout))
            }
        }
    }
}

/// A pending group delivery: one queue entry standing in for `targets.len()`
/// per-recipient entries. `base_seq` is the first of the `len` sequence
/// numbers reserved at multicast time, so when delivery pauses (a later
/// arrival instant, or a halt) the remainder is re-inserted at exactly the
/// `(time, seq)` slot its per-recipient equivalent would have occupied.
#[derive(Debug, Clone)]
struct GroupDelivery<M> {
    targets: GroupTargets,
    schedule: GroupSchedule,
    base: SimTime,
    /// Clamp floor: arrivals never precede the multicast call (mirrors
    /// [`Context::send_at`]'s past-clamping).
    floor: SimTime,
    base_seq: u64,
    cursor: u32,
    msg: M,
}

/// Serializable image of one pending group delivery — the public mirror
/// of the engine's internal group-entry payload, for checkpointing.
#[derive(Debug, Clone)]
pub struct GroupState<M> {
    /// Recipients in rank order.
    pub targets: GroupTargets,
    /// Per-rank arrival schedule.
    pub schedule: GroupSchedule,
    /// Base instant arrivals are computed from.
    pub base: SimTime,
    /// Clamp floor (the multicast call's instant).
    pub floor: SimTime,
    /// First of the reserved sequence numbers.
    pub base_seq: u64,
    /// Next undelivered rank.
    pub cursor: u32,
    /// The message (cloned per member at delivery).
    pub msg: M,
}

impl<M> GroupDelivery<M> {
    /// Whether a checkpointed group can still be delivered among `n`
    /// components: a member is left, every member is registered, and a
    /// fan-out tree branches.
    fn deliverable(&self, n: usize) -> bool {
        let members = match &self.targets {
            GroupTargets::Strided { first, stride, len } => {
                let last =
                    u64::from(first.0) + u64::from(*stride) * u64::from(len.saturating_sub(1));
                last < n as u64
            }
            GroupTargets::List(ids) => ids.iter().all(|id| id.index() < n),
        };
        let branches =
            !matches!(self.schedule, GroupSchedule::FanoutTree { fanout, .. } if fanout < 2);
        self.cursor < self.targets.len() && members && branches
    }
}

impl<M> From<GroupDelivery<M>> for GroupState<M> {
    fn from(g: GroupDelivery<M>) -> Self {
        GroupState {
            targets: g.targets,
            schedule: g.schedule,
            base: g.base,
            floor: g.floor,
            base_seq: g.base_seq,
            cursor: g.cursor,
            msg: g.msg,
        }
    }
}

impl<M> From<GroupState<M>> for GroupDelivery<M> {
    fn from(g: GroupState<M>) -> Self {
        GroupDelivery {
            targets: g.targets,
            schedule: g.schedule,
            base: g.base,
            floor: g.floor,
            base_seq: g.base_seq,
            cursor: g.cursor,
            msg: g.msg,
        }
    }
}

impl<M> GroupDelivery<M> {
    fn arrival(&self, rank: u32) -> SimTime {
        self.schedule.arrival(self.base, rank).max(self.floor)
    }
}

/// Component index standing in for "this entry is a group delivery".
/// Real components are capped one below it at registration.
const GROUP_TARGET: u32 = u32::MAX;

/// One queue entry: the target component's dense index (or the group
/// sentinel) plus the generational arena handle of the payload. `Copy`
/// and a few machine words — this is all the wheel and heap ever move.
#[derive(Clone, Copy, Debug)]
struct EventRef {
    target: u32,
    payload: PayloadId,
}

impl EventRef {
    fn one(target: ComponentId, payload: PayloadId) -> Self {
        EventRef {
            target: target.0,
            payload,
        }
    }

    fn group(payload: PayloadId) -> Self {
        EventRef {
            target: GROUP_TARGET,
            payload,
        }
    }

    fn is_group(self) -> bool {
        self.target == GROUP_TARGET
    }
}

/// A simulated actor. `W` is the shared world type, `M` the message type.
pub trait Component<W, M> {
    /// Handle one message delivered at `ctx.now()`.
    fn handle(&mut self, msg: M, ctx: &mut Context<'_, W, M>);

    /// A short name used in traces; defaults to the type name.
    fn name(&self) -> &str {
        std::any::type_name::<Self>()
    }

    /// Downcast support for checkpointing: components whose internal
    /// state participates in checkpoint/restore return `Some(self)` so a
    /// harness can reach their concrete type through the dispatch table.
    /// Defaults to `None` — opaque components simply aren't captured.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Mutable variant of [`Component::as_any`].
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Logical messages pending across the payload arenas: each interned
/// unicast payload counts one, each interned group counts its undelivered
/// members. Arena slot order is arbitrary, but a sum over it is
/// order-insensitive, so the result is deterministic — and, unlike the
/// raw queue length, identical whether fan-outs travel grouped or
/// per-member.
fn logical_pending<M>(msgs: &EventArena<M>, groups: &EventArena<GroupDelivery<M>>) -> u64 {
    msgs.live() as u64
        + groups
            .iter()
            .map(|g| u64::from(g.targets.len() - g.cursor))
            .sum::<u64>()
}

/// Everything a component may touch while handling a message.
pub struct Context<'a, W, M> {
    now: SimTime,
    self_id: ComponentId,
    world: &'a mut W,
    queue: &'a mut EventQueue<EventRef>,
    msgs: &'a mut EventArena<M>,
    groups: &'a mut EventArena<GroupDelivery<M>>,
    rng: &'a mut DeterministicRng,
    tracer: &'a mut Tracer,
    halt: &'a mut bool,
    /// The undelivered members of a group mid-expansion: popped from the
    /// queue but not yet handled, so [`Context::pending_messages`] must
    /// add them back in.
    in_flight: u64,
}

impl<W, M> Context<'_, W, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component handling this message.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Shared world state.
    pub fn world(&mut self) -> &mut W {
        self.world
    }

    /// Immutable view of the world.
    pub fn world_ref(&self) -> &W {
        self.world
    }

    /// Deliver `msg` to `target` at absolute instant `at`. Instants in the
    /// past are clamped to *now* (delivery still happens, never time travel).
    pub fn send_at(&mut self, target: ComponentId, at: SimTime, msg: M) {
        let at = at.max(self.now);
        let payload = self.msgs.alloc(msg);
        self.queue.push(at, EventRef::one(target, payload));
    }

    /// Deliver `msg` to `target` after `delay`.
    pub fn send(&mut self, target: ComponentId, delay: SimSpan, msg: M) {
        let payload = self.msgs.alloc(msg);
        self.queue
            .push(self.now + delay, EventRef::one(target, payload));
    }

    /// Deliver one `msg` to every member of `targets`, member `rank`
    /// arriving at `schedule.arrival(base, rank)` (clamped to *now*, like
    /// [`Context::send_at`]).
    ///
    /// This costs **one** queue entry regardless of the group size: the
    /// entry reserves `targets.len()` sequence numbers and is expanded
    /// lazily at delivery time, in ascending rank order, so the delivered
    /// trace — order, timestamps and tie-breaks against every other event —
    /// is byte-identical to the equivalent loop of per-member `send_at`
    /// calls. Targets are borrowed: the internal copy is a field copy or
    /// an `Arc` refcount bump, never a per-member allocation.
    pub fn multicast(
        &mut self,
        targets: &GroupTargets,
        base: SimTime,
        schedule: GroupSchedule,
        msg: M,
    ) {
        let len = targets.len();
        if len == 0 {
            return;
        }
        let base_seq = self.queue.reserve_seqs(u64::from(len));
        let group = GroupDelivery {
            targets: targets.clone(),
            schedule,
            base,
            floor: self.now,
            base_seq,
            cursor: 0,
            msg,
        };
        let at = group.arrival(0);
        let payload = self.groups.alloc(group);
        self.queue
            .push_at_seq(at, base_seq, EventRef::group(payload));
    }

    /// Deliver `msg` to self after `delay` (a timer).
    pub fn send_self(&mut self, delay: SimSpan, msg: M) {
        let id = self.self_id;
        self.send(id, delay, msg);
    }

    /// Deliver `msg` to self at absolute instant `at`.
    pub fn send_self_at(&mut self, at: SimTime, msg: M) {
        let id = self.self_id;
        self.send_at(id, at, msg);
    }

    /// The handling component's own deterministic RNG stream (derived
    /// from the root seed and the component index at registration), so
    /// one component's draws never shift another's sequence.
    pub fn rng(&mut self) -> &mut DeterministicRng {
        self.rng
    }

    /// Simultaneous access to the world and the RNG — for world-resident
    /// subsystems whose operations draw randomness (e.g. fault-injected
    /// mechanism calls).
    pub fn world_and_rng(&mut self) -> (&mut W, &mut DeterministicRng) {
        (self.world, self.rng)
    }

    /// Logical messages awaiting delivery: each unicast payload counts
    /// one, each group counts its undelivered members, including those of
    /// a group mid-expansion. The count is therefore what per-member sends
    /// would leave queued — unlike the raw queue length, which counts a
    /// group entry once — so telemetry built on it does not depend on how
    /// a fan-out is encoded.
    pub fn pending_messages(&self) -> u64 {
        self.in_flight + logical_pending(self.msgs, self.groups)
    }

    /// The instant of the earliest pending event, if any — lets a periodic
    /// component prove the queue is quiet up to some horizon before leaping
    /// over it (idle fast-forward).
    pub fn peek_next_event(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Raw queue accounting (see [`Simulation::queue_stats`]).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Payload-arena accounting (see [`Simulation::arena_stats`]): the
    /// message and group arenas summed, available to components so health
    /// samples can export allocator gauges without reaching the engine.
    pub fn arena_stats(&self) -> ArenaStats {
        self.msgs.stats().merged(self.groups.stats())
    }

    /// Record a trace event (no-op unless tracing is enabled).
    pub fn trace(&mut self, label: &'static str, detail: impl FnOnce() -> String) {
        let now = self.now;
        let id = self.self_id;
        self.tracer.record(now, id, label, detail);
    }

    /// Stop the simulation after this message completes.
    pub fn halt(&mut self) {
        *self.halt = true;
    }
}

/// A discrete-event simulation over world `W` and message type `M`.
pub struct Simulation<W, M> {
    now: SimTime,
    world: W,
    /// The dispatch table: components in registration order, indexed
    /// directly by the dense component index every [`EventRef`] carries.
    /// No per-delivery checkout — the borrow is split from the rest of
    /// the engine state, so dispatch is one bounds check and one call.
    components: Vec<Box<dyn Component<W, M>>>,
    /// One deterministic RNG stream per component, derived from the root
    /// seed at registration ([`DeterministicRng::stream`] is a pure
    /// function of `(seed, index)`). Every delivery draws from the
    /// target's own stream, so handlers cannot perturb each other's draw
    /// sequences.
    streams: Vec<DeterministicRng>,
    queue: EventQueue<EventRef>,
    /// Interned unicast payloads.
    msgs: EventArena<M>,
    /// Interned group deliveries (rare, large; kept out of the unicast
    /// arena so its slots stay message-sized).
    groups: EventArena<GroupDelivery<M>>,
    rng: DeterministicRng,
    tracer: Tracer,
    halt: bool,
    /// Queue entries popped (a group delivery counts once).
    delivered: u64,
    /// Handler invocations (a group delivery counts once per member).
    handled: u64,
    /// Hard cap on handler invocations; guards against accidental event
    /// storms.
    max_events: u64,
}

impl<W, M> Simulation<W, M> {
    /// Create a simulation with the given world and seed, on the default
    /// event-queue backend (timing wheel, default granularity).
    pub fn new(world: W, seed: u64) -> Self {
        Self::with_queue(world, seed, EventQueue::new())
    }

    /// Create a simulation on an explicit event-queue backend. `granularity`
    /// sizes the wheel's buckets (callers pass a fraction of their periodic
    /// strobe/tick interval); it is ignored by the heap backend. Pop order
    /// — and therefore every trace, stat, and telemetry snapshot — is
    /// byte-identical across backends.
    pub fn new_with_backend(
        world: W,
        seed: u64,
        backend: QueueBackend,
        granularity: SimSpan,
    ) -> Self {
        Self::with_queue(
            world,
            seed,
            EventQueue::with_backend_and_granularity(backend, granularity),
        )
    }

    fn with_queue(world: W, seed: u64, queue: EventQueue<EventRef>) -> Self {
        Simulation {
            now: SimTime::ZERO,
            world,
            components: Vec::new(),
            streams: Vec::new(),
            queue,
            msgs: EventArena::new(),
            groups: EventArena::new(),
            rng: DeterministicRng::new(seed),
            tracer: Tracer::disabled(),
            halt: false,
            delivered: 0,
            handled: 0,
            max_events: u64::MAX,
        }
    }

    /// Enable trace recording (see [`Tracer`]).
    pub fn enable_tracing(&mut self) {
        self.tracer = Tracer::enabled();
    }

    /// Enable trace recording bounded to `capacity` records; overflow is
    /// counted in [`Tracer::dropped`] instead of growing memory.
    pub fn enable_tracing_with_capacity(&mut self, capacity: usize) {
        self.tracer = Tracer::bounded(capacity);
    }

    /// Set a hard cap on the number of delivered events.
    pub fn set_max_events(&mut self, cap: u64) {
        self.max_events = cap;
    }

    /// Register a component, returning its id.
    pub fn add_component(&mut self, c: impl Component<W, M> + 'static) -> ComponentId {
        self.add_boxed(Box::new(c))
    }

    /// Register a boxed component.
    pub fn add_boxed(&mut self, c: Box<dyn Component<W, M>>) -> ComponentId {
        let ix = u32::try_from(self.components.len()).expect("too many components");
        assert!(ix < GROUP_TARGET, "too many components");
        self.components.push(c);
        self.streams.push(self.rng.stream(u64::from(ix)));
        ComponentId(ix)
    }

    /// Schedule an initial message delivery.
    pub fn post(&mut self, at: SimTime, target: ComponentId, msg: M) {
        let payload = self.msgs.alloc(msg);
        self.queue.push(at, EventRef::one(target, payload));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared world (immutable).
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Shared world (mutable) — for experiment setup/teardown between runs.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consume the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Queue events delivered so far. A group delivery (multicast) counts
    /// **once** per pop however many recipients it expands to — this is the
    /// event-queue-work metric the scalability benches track.
    pub fn events_delivered(&self) -> u64 {
        self.delivered
    }

    /// Handler invocations so far. A group delivery counts once per member,
    /// so this equals what `events_delivered` would have been under
    /// per-member sends; the `max_events` runaway guard is enforced on it.
    pub fn messages_handled(&self) -> u64 {
        self.handled
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Raw queue accounting (push/pop totals, current and peak depth),
    /// returned by value without cloning queue contents. Unlike
    /// [`Simulation::pending_messages`], depth counts a group entry once,
    /// so it depends on how fan-outs are encoded (but not on the backend).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Payload-arena accounting: live and peak interned payloads plus the
    /// resident bytes of the slot tables, summed over the message and
    /// group arenas. After a run drains the queue, `live` is zero — every
    /// payload is taken exactly once.
    pub fn arena_stats(&self) -> ArenaStats {
        self.msgs.stats().merged(self.groups.stats())
    }

    /// The event-queue backend this simulation runs on.
    pub fn queue_backend(&self) -> QueueBackend {
        self.queue.backend()
    }

    /// Install (or remove) a [`DeliveryOrder`] hook on the event queue —
    /// the DST entry point for exploring same-timestamp delivery
    /// permutations. Install before posting the first event so every
    /// insertion is keyed; `None` (the default) keeps the engine's classic
    /// `(time, seq)` order bit-identical.
    pub fn set_delivery_order(&mut self, order: Option<DeliveryOrder>) {
        self.queue.set_delivery_order(order);
    }

    /// The queue's interleaving digest: FNV-1a over every `(time, seq)`
    /// pair delivered so far. Accumulated only while a [`DeliveryOrder`]
    /// hook is installed — the DST explorer's measure of *which* delivery
    /// interleaving a run actually executed.
    pub fn interleaving_digest(&self) -> u64 {
        self.queue.pop_digest()
    }

    /// Logical messages awaiting delivery (see
    /// [`Context::pending_messages`]).
    pub fn pending_messages(&self) -> u64 {
        logical_pending(&self.msgs, &self.groups)
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Borrow a component back out (e.g. to read final state after a run).
    pub fn component(&self, id: ComponentId) -> &dyn Component<W, M> {
        &*self.components[id.index()]
    }

    /// Mutable access to a component between runs.
    pub fn component_mut(&mut self, id: ComponentId) -> &mut (dyn Component<W, M> + 'static) {
        &mut *self.components[id.index()]
    }

    /// True once [`Context::halt`] has been called.
    pub fn halted(&self) -> bool {
        self.halt
    }
}

impl<W, M: Clone> Simulation<W, M> {
    /// Deliver the next event, if any. Returns `false` when the queue is
    /// empty or the simulation has been halted.
    ///
    /// A group entry is expanded here, member by member in ascending rank
    /// order; members whose arrival instant lies beyond the popped entry's
    /// (a fan-out tree's deeper ranks) are re-inserted as one entry at
    /// their own reserved `(time, seq)` slot, so interleaving with every
    /// other pending event matches per-member sends exactly.
    pub fn step(&mut self) -> bool {
        if self.halt {
            return false;
        }
        let Some((time, eref)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "event queue violated time order");
        self.now = time;
        self.delivered += 1;
        self.apply(time, eref);
        true
    }

    /// Deliver one already-popped entry: take its payload back out of the
    /// arena and dispatch (expanding a group member by member).
    fn apply(&mut self, time: SimTime, eref: EventRef) {
        if eref.is_group() {
            let group = self.groups.take(eref.payload);
            self.expand_group(time, group);
        } else {
            let msg = self.msgs.take(eref.payload);
            self.deliver(ComponentId(eref.target), msg, 0);
        }
    }

    /// Expand a popped group delivery member by member. The final member
    /// receives the message by move — a group of N costs N-1 clones, and
    /// none of them allocate for the fan-out message types the cluster
    /// uses (asserted by the allocation-free expansion test).
    fn expand_group(&mut self, time: SimTime, mut group: GroupDelivery<M>) {
        let len = group.targets.len();
        loop {
            let rank = group.cursor;
            let at = group.arrival(rank);
            if at > time || self.halt {
                // Later arrival (or halt mid-group): park the remainder at
                // its reserved slot and stop here.
                let seq = group.base_seq + u64::from(rank);
                let payload = self.groups.alloc(group);
                self.queue.push_at_seq(at, seq, EventRef::group(payload));
                return;
            }
            group.cursor += 1;
            let target = group.targets.get(rank);
            if group.cursor == len {
                self.deliver(target, group.msg, 0);
                return;
            }
            let msg = group.msg.clone();
            // The undelivered rest of this group is in-flight, not queued;
            // tell the handler's context about it so pending-message
            // counts match per-member sends.
            self.deliver(target, msg, u64::from(len - group.cursor));
        }
    }

    fn deliver(&mut self, target: ComponentId, msg: M, in_flight: u64) {
        self.handled += 1;
        assert!(
            self.handled <= self.max_events,
            "event cap exceeded ({} events): runaway simulation?",
            self.max_events
        );
        assert!(
            target.index() < self.components.len(),
            "message to unknown component {target}"
        );
        let mut ctx = Context {
            now: self.now,
            self_id: target,
            world: &mut self.world,
            queue: &mut self.queue,
            msgs: &mut self.msgs,
            groups: &mut self.groups,
            rng: &mut self.streams[target.index()],
            tracer: &mut self.tracer,
            halt: &mut self.halt,
            in_flight,
        };
        self.components[target.index()].handle(msg, &mut ctx);
    }

    /// Run until the queue drains or the simulation halts. Returns the final
    /// simulated time.
    pub fn run_to_completion(&mut self) -> SimTime {
        while self.step() {}
        self.now
    }

    /// Run until simulated time reaches `deadline` (events at exactly the
    /// deadline are delivered), the queue drains, or the simulation halts.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= deadline && !self.halt => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < deadline && !self.halt {
            self.now = deadline;
        }
        self.now
    }

    /// Full image of the engine's mutable state for checkpointing: clock,
    /// run flags, counters, every pending queue entry with its `(time,
    /// tie, seq)` key, both payload arenas (including free-list order and
    /// generations, so the raw handles inside queue entries stay valid),
    /// the RNG stream, the delivery-order hook mid-stream, and the trace.
    ///
    /// Component and world state are *not* included — they are the
    /// caller's to capture (see `Component::as_any`). Call between
    /// deliveries only (never from inside a handler).
    pub fn export_engine_state(&self) -> EngineState<M> {
        let groups_src = self.groups.export_state();
        EngineState {
            now: self.now,
            halt: self.halt,
            delivered: self.delivered,
            handled: self.handled,
            max_events: self.max_events,
            entries: self
                .queue
                .entries()
                .map(|(time, tie, seq, eref)| QueuedEventState {
                    time,
                    tie,
                    seq,
                    target: eref.target,
                    payload: eref.payload.to_raw(),
                })
                .collect(),
            accounting: self.queue.export_accounting(),
            order: self.queue.delivery_order().map(DeliveryOrder::export_state),
            msgs: self.msgs.export_state(),
            groups: ArenaState {
                slots: groups_src
                    .slots
                    .into_iter()
                    .map(|(gen, val)| (gen, val.map(GroupState::from)))
                    .collect(),
                free: groups_src.free,
                peak: groups_src.peak,
                reserve: groups_src.reserve,
            },
            rng_seed: self.rng.seed(),
            rng_state: self.rng.state(),
            streams: self.streams.iter().map(DeterministicRng::state).collect(),
            trace_enabled: self.tracer.is_enabled(),
            trace_capacity: self.tracer.capacity(),
            trace_records: self.tracer.records().to_vec(),
            trace_dropped: self.tracer.dropped(),
        }
    }

    /// Overwrite this simulation's mutable state with a checkpointed
    /// image. The simulation should be freshly constructed on the desired
    /// queue backend with its components registered in the original
    /// order; any events posted during that construction are discarded
    /// and replaced by the image's pending entries. After this call the
    /// run continues byte-identically to the run the image was exported
    /// from — pop order, RNG draws, digests, and trace all resume
    /// mid-stream.
    ///
    /// An image that contradicts this simulation is rejected before
    /// anything is overwritten: a stream count other than the component
    /// count, a queue entry before the clock, one that names no live
    /// payload (or one another entry names too), and a recipient that is
    /// no registered component.
    pub fn import_engine_state(&mut self, state: EngineState<M>) -> Result<(), String> {
        let n = self.components.len();
        if state.streams.len() != n {
            return Err(format!(
                "{} RNG streams for {n} components",
                state.streams.len()
            ));
        }
        let msgs = EventArena::import_state(state.msgs).map_err(|e| format!("msgs: {e}"))?;
        let groups = EventArena::import_state(ArenaState {
            slots: state
                .groups
                .slots
                .into_iter()
                .map(|(gen, val)| (gen, val.map(GroupDelivery::from)))
                .collect(),
            free: state.groups.free,
            peak: state.groups.peak,
            reserve: state.groups.reserve,
        })
        .map_err(|e| format!("groups: {e}"))?;
        let mut named = std::collections::HashSet::new();
        for e in &state.entries {
            let id = PayloadId::from_raw(e.payload.0, e.payload.1);
            let deliverable = if e.target == GROUP_TARGET {
                groups.try_get(id).is_some_and(|g| g.deliverable(n))
            } else {
                (e.target as usize) < n && msgs.try_get(id).is_some()
            };
            if !deliverable || e.time < state.now || !named.insert((e.target == GROUP_TARGET, id)) {
                return Err(format!(
                    "queue entry (time {}, seq {}) is not a pending delivery",
                    e.time, e.seq
                ));
            }
        }
        self.now = state.now;
        self.halt = state.halt;
        self.delivered = state.delivered;
        self.handled = state.handled;
        self.max_events = state.max_events;
        self.msgs = msgs;
        self.groups = groups;
        self.queue.clear();
        self.queue
            .set_delivery_order(state.order.map(DeliveryOrder::import_state));
        for e in state.entries {
            let (ix, gen) = e.payload;
            self.queue.restore_entry(
                e.time,
                e.tie,
                e.seq,
                EventRef {
                    target: e.target,
                    payload: PayloadId::from_raw(ix, gen),
                },
            );
        }
        self.queue.import_accounting(state.accounting);
        self.rng = DeterministicRng::from_parts(state.rng_seed, state.rng_state);
        // Per-component streams: seeds are re-derived from the root seed
        // (a pure function of `(seed, index)`), mid-run positions come
        // from the image.
        self.streams = state
            .streams
            .iter()
            .enumerate()
            .map(|(ix, &st)| {
                let derived = self.rng.stream(ix as u64);
                DeterministicRng::from_parts(derived.seed(), st)
            })
            .collect();
        self.tracer = Tracer::import_state(
            state.trace_enabled,
            state.trace_capacity,
            state.trace_records,
            state.trace_dropped,
        );
        Ok(())
    }
}

/// One pending queue entry in an [`EngineState`]: the full `(time, tie,
/// seq)` pop key plus the raw event reference.
#[derive(Debug, Clone, Copy)]
pub struct QueuedEventState {
    /// Delivery instant (including any order-hook delay already applied).
    pub time: SimTime,
    /// Delivery-order tie key.
    pub tie: u64,
    /// Insertion sequence number.
    pub seq: u64,
    /// Raw target component index; `u32::MAX` marks a group entry whose
    /// payload lives in the group arena.
    pub target: u32,
    /// Raw `(slot, generation)` payload handle into the matching arena.
    pub payload: (u32, u32),
}

/// Serializable image of a [`Simulation`]'s mutable engine state,
/// produced by [`Simulation::export_engine_state`]. World and component
/// state are captured separately by the embedding harness.
#[derive(Debug, Clone)]
pub struct EngineState<M> {
    /// Current simulated time.
    pub now: SimTime,
    /// Halt flag.
    pub halt: bool,
    /// Queue entries popped so far.
    pub delivered: u64,
    /// Handler invocations so far.
    pub handled: u64,
    /// Runaway-guard cap on handler invocations.
    pub max_events: u64,
    /// Every pending queue entry.
    pub entries: Vec<QueuedEventState>,
    /// Queue lifetime counters and interleaving digest.
    pub accounting: QueueAccounting,
    /// Delivery-order hook mid-stream, if installed.
    pub order: Option<DeliveryOrderState>,
    /// The unicast payload arena.
    pub msgs: ArenaState<M>,
    /// The group-delivery arena.
    pub groups: ArenaState<GroupState<M>>,
    /// RNG root seed (stream derivations depend on it).
    pub rng_seed: u64,
    /// RNG state after all draws so far.
    pub rng_state: [u64; 4],
    /// Per-component stream positions, in registration order (seeds are
    /// re-derived from the root seed at import).
    pub streams: Vec<[u64; 4]>,
    /// Whether tracing is on.
    pub trace_enabled: bool,
    /// Trace record cap, if bounded.
    pub trace_capacity: Option<usize>,
    /// Kept trace records.
    pub trace_records: Vec<TraceRecord>,
    /// Trace records dropped over the cap.
    pub trace_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Tick(u32),
        Echo(ComponentId),
        Reply,
        Stop,
    }

    #[derive(Default)]
    struct Counter {
        ticks: u32,
        replies: u32,
    }

    type World = Vec<(SimTime, u32)>;

    impl Component<World, Msg> for Counter {
        fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, World, Msg>) {
            match msg {
                Msg::Tick(n) => {
                    self.ticks += 1;
                    let now = ctx.now();
                    ctx.world().push((now, n));
                    if n > 0 {
                        ctx.send_self(SimSpan::from_millis(1), Msg::Tick(n - 1));
                    }
                }
                Msg::Echo(from) => ctx.send(from, SimSpan::from_micros(5), Msg::Reply),
                Msg::Reply => self.replies += 1,
                Msg::Stop => ctx.halt(),
            }
        }
    }

    #[test]
    fn delivery_order_permutes_same_instant_posts() {
        // Three same-instant posts; a scripted order reverses their
        // delivery while an inert hook (and no hook) keeps posting order.
        let run = |order: Option<DeliveryOrder>| {
            let mut sim = Simulation::new(World::new(), 1);
            let c = sim.add_component(Counter::default());
            sim.set_delivery_order(order);
            let t = SimTime::from_millis(3);
            for n in [10u32, 20, 30] {
                sim.post(t, c, Msg::Tick(n));
            }
            sim.run_to_completion();
            sim.world().iter().map(|&(_, n)| n).collect::<Vec<_>>()
        };
        let plain = run(None);
        assert_eq!(&plain[..3], &[10, 20, 30]);
        assert_eq!(plain, run(Some(DeliveryOrder::seeded(9, 0))), "inert hook");
        let reversed = run(Some(DeliveryOrder::script(vec![2, 1, 0])));
        assert_eq!(&reversed[..3], &[30, 20, 10]);
        // Every post is still delivered exactly once, at the same instant.
        assert_eq!(plain.len(), reversed.len());
    }

    #[test]
    fn timers_advance_time() {
        let mut sim = Simulation::new(World::new(), 1);
        let c = sim.add_component(Counter::default());
        sim.post(SimTime::ZERO, c, Msg::Tick(5));
        sim.run_to_completion();
        assert_eq!(sim.now(), SimTime::from_millis(5));
        assert_eq!(sim.world().len(), 6);
        assert_eq!(sim.world()[3], (SimTime::from_millis(3), 2));
    }

    #[test]
    fn request_reply_between_components() {
        let mut sim = Simulation::new(World::new(), 1);
        let a = sim.add_component(Counter::default());
        let b = sim.add_component(Counter::default());
        sim.post(SimTime::ZERO, b, Msg::Echo(a));
        sim.run_to_completion();
        assert_eq!(sim.now(), SimTime::from_micros(5));
        // Downcast-free check: re-handle to observe state via world is
        // overkill here; instead check delivery count.
        assert_eq!(sim.events_delivered(), 2);
    }

    #[test]
    fn halt_stops_early() {
        let mut sim = Simulation::new(World::new(), 1);
        let c = sim.add_component(Counter::default());
        sim.post(SimTime::ZERO, c, Msg::Tick(1000));
        sim.post(SimTime::from_millis(3), c, Msg::Stop);
        sim.run_to_completion();
        assert!(sim.halted());
        assert!(sim.now() <= SimTime::from_millis(3));
    }

    #[test]
    fn run_until_deadline() {
        let mut sim = Simulation::new(World::new(), 1);
        let c = sim.add_component(Counter::default());
        sim.post(SimTime::ZERO, c, Msg::Tick(100));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.now(), SimTime::from_millis(10));
        assert_eq!(sim.world().len(), 11); // ticks at 0..=10 ms
        assert!(sim.pending_events() > 0);
        sim.run_to_completion();
        assert_eq!(sim.world().len(), 101);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed: u64| -> World {
            let mut sim = Simulation::new(World::new(), seed);
            let c = sim.add_component(Counter::default());
            let d = sim.add_component(Counter::default());
            sim.post(SimTime::ZERO, c, Msg::Tick(50));
            sim.post(SimTime::ZERO, d, Msg::Tick(50));
            sim.post(SimTime::from_micros(1), c, Msg::Echo(d));
            sim.run_to_completion();
            sim.into_world()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn arena_drains_to_zero_after_a_run() {
        let mut sim = Simulation::new(World::new(), 3);
        let c = sim.add_component(Counter::default());
        let d = sim.add_component(Counter::default());
        sim.post(SimTime::ZERO, c, Msg::Tick(40));
        sim.post(SimTime::ZERO, d, Msg::Tick(40));
        sim.run_to_completion();
        let s = sim.arena_stats();
        assert_eq!(s.live, 0, "every payload taken exactly once");
        assert!(s.peak >= 2);
        assert!(s.payload_bytes > 0);
        assert!(s.capacity <= s.peak, "slab reuse: capacity bounded by peak");
    }

    #[test]
    #[should_panic(expected = "event cap exceeded")]
    fn event_cap_guards_runaway() {
        let mut sim = Simulation::new(World::new(), 1);
        sim.set_max_events(10);
        let c = sim.add_component(Counter::default());
        sim.post(SimTime::ZERO, c, Msg::Tick(1000));
        sim.run_to_completion();
    }

    /// A recorder world: every delivery appends `(time, component, value)`.
    type RecWorld = Vec<(SimTime, u32, u32)>;

    struct Recorder;
    impl Component<RecWorld, u32> for Recorder {
        fn handle(&mut self, msg: u32, ctx: &mut Context<'_, RecWorld, u32>) {
            let now = ctx.now();
            let id = ctx.self_id().0;
            ctx.world().push((now, id, msg));
        }
    }

    /// A component that fans out on request: value 1000+n multicasts n to
    /// components 1..=N, letting tests interleave group and unicast sends
    /// from inside a handler (where sequence numbers actually contend).
    struct FanOut {
        targets: GroupTargets,
        schedule: GroupSchedule,
        unicast: bool,
    }
    impl Component<RecWorld, u32> for FanOut {
        fn handle(&mut self, msg: u32, ctx: &mut Context<'_, RecWorld, u32>) {
            if msg >= 500 {
                // A follow-up/competitor message: record it, don't re-fan.
                let now = ctx.now();
                let id = ctx.self_id().0;
                ctx.world().push((now, id, msg));
                return;
            }
            let base = ctx.now() + SimSpan::from_micros(10);
            if self.unicast {
                for rank in 0..self.targets.len() {
                    let at = self.schedule.arrival(base, rank);
                    ctx.send_at(self.targets.get(rank), at, msg);
                }
            } else {
                ctx.multicast(&self.targets, base, self.schedule, msg);
            }
            // A competing event scheduled *after* the fan-out must stay
            // after every member in tie-break order.
            let id = ctx.self_id();
            ctx.send_at(id, base, msg + 500);
        }
    }

    fn fanout_run(unicast: bool, schedule: GroupSchedule) -> RecWorld {
        let mut sim = Simulation::new(RecWorld::new(), 9);
        let fan = sim.add_component(FanOut {
            targets: GroupTargets::Strided {
                first: ComponentId(1),
                stride: 1,
                len: 8,
            },
            schedule,
            unicast,
        });
        for _ in 0..8 {
            sim.add_component(Recorder);
        }
        sim.post(SimTime::ZERO, fan, 7);
        sim.post(SimTime::from_micros(10), fan, 900); // ties with the fan-out base
        sim.run_to_completion();
        sim.into_world()
    }

    #[test]
    fn multicast_trace_matches_per_member_sends() {
        for schedule in [
            GroupSchedule::Simultaneous,
            GroupSchedule::FanoutTree {
                per_hop: SimSpan::from_micros(3),
                fanout: 2,
            },
        ] {
            let group = fanout_run(false, schedule);
            let unicast = fanout_run(true, schedule);
            assert_eq!(group, unicast, "schedule {schedule:?}");
        }
    }

    #[test]
    fn multicast_counts_one_event_many_messages() {
        let mut sim = Simulation::new(RecWorld::new(), 1);
        let fan = sim.add_component(FanOut {
            targets: GroupTargets::Strided {
                first: ComponentId(1),
                stride: 1,
                len: 8,
            },
            schedule: GroupSchedule::Simultaneous,
            unicast: false,
        });
        for _ in 0..8 {
            sim.add_component(Recorder);
        }
        sim.post(SimTime::ZERO, fan, 3);
        sim.run_to_completion();
        // Pops: fan-out trigger + 1 group + the competing self-send.
        assert_eq!(sim.events_delivered(), 3);
        // Handler calls: trigger + 8 members + competing self-send.
        assert_eq!(sim.messages_handled(), 10);
    }

    #[test]
    fn multicast_list_targets_and_empty_group() {
        let mut sim = Simulation::new(RecWorld::new(), 1);
        struct Kick;
        impl Component<RecWorld, u32> for Kick {
            fn handle(&mut self, _msg: u32, ctx: &mut Context<'_, RecWorld, u32>) {
                let now = ctx.now();
                let list: Arc<[ComponentId]> = [ComponentId(2), ComponentId(1)].into();
                ctx.multicast(
                    &GroupTargets::List(list),
                    now,
                    GroupSchedule::Simultaneous,
                    11,
                );
                // Empty group: no-op, no reserved entry popped.
                ctx.multicast(
                    &GroupTargets::Strided {
                        first: ComponentId(1),
                        stride: 1,
                        len: 0,
                    },
                    now,
                    GroupSchedule::Simultaneous,
                    12,
                );
            }
        }
        let kick = sim.add_component(Kick);
        sim.add_component(Recorder);
        sim.add_component(Recorder);
        sim.post(SimTime::ZERO, kick, 0);
        sim.run_to_completion();
        // List order is the delivery order (rank order, not id order).
        let world = sim.world();
        assert_eq!(world[0].1, 2);
        assert_eq!(world[1].1, 1);
        assert_eq!(sim.messages_handled(), 3);
    }

    #[test]
    fn halt_mid_group_parks_the_remainder() {
        struct Halter {
            after: u32,
        }
        impl Component<RecWorld, u32> for Halter {
            fn handle(&mut self, msg: u32, ctx: &mut Context<'_, RecWorld, u32>) {
                let now = ctx.now();
                let id = ctx.self_id().0;
                ctx.world().push((now, id, msg));
                if id == self.after {
                    ctx.halt();
                }
            }
        }
        let mut sim = Simulation::new(RecWorld::new(), 1);
        struct Kick;
        impl Component<RecWorld, u32> for Kick {
            fn handle(&mut self, _msg: u32, ctx: &mut Context<'_, RecWorld, u32>) {
                let now = ctx.now();
                ctx.multicast(
                    &GroupTargets::Strided {
                        first: ComponentId(1),
                        stride: 1,
                        len: 4,
                    },
                    now,
                    GroupSchedule::Simultaneous,
                    5,
                );
            }
        }
        let kick = sim.add_component(Kick);
        for _ in 0..4 {
            sim.add_component(Halter { after: 2 });
        }
        sim.post(SimTime::ZERO, kick, 0);
        sim.run_to_completion();
        assert!(sim.halted());
        // Members 1 and 2 ran; 3 and 4 are parked in the queue, undelivered.
        assert_eq!(sim.world().len(), 2);
        assert_eq!(sim.pending_events(), 1);
        assert_eq!(sim.messages_handled(), 3);
    }

    #[test]
    fn pending_messages_identical_across_delivery_modes() {
        // Recorders log ctx.pending_messages() on every delivery; the
        // sequence must not depend on the fan-out encoding, even while a
        // group is mid-expansion.
        struct PendingRecorder;
        impl Component<RecWorld, u32> for PendingRecorder {
            fn handle(&mut self, _msg: u32, ctx: &mut Context<'_, RecWorld, u32>) {
                let now = ctx.now();
                let id = ctx.self_id().0;
                let pending = u32::try_from(ctx.pending_messages()).unwrap();
                ctx.world().push((now, id, pending));
            }
        }
        let run = |unicast: bool, schedule: GroupSchedule| -> RecWorld {
            let mut sim = Simulation::new(RecWorld::new(), 5);
            let targets = GroupTargets::Strided {
                first: ComponentId(1),
                stride: 1,
                len: 6,
            };
            let fan = sim.add_component(FanOut {
                targets,
                schedule,
                unicast,
            });
            for _ in 0..6 {
                sim.add_component(PendingRecorder);
            }
            sim.post(SimTime::ZERO, fan, 3);
            assert_eq!(sim.pending_messages(), 1);
            sim.run_to_completion();
            sim.into_world()
        };
        for schedule in [
            GroupSchedule::Simultaneous,
            GroupSchedule::FanoutTree {
                per_hop: SimSpan::from_micros(3),
                fanout: 2,
            },
        ] {
            assert_eq!(run(false, schedule), run(true, schedule));
        }
    }

    #[test]
    fn tree_depth_is_correct() {
        // 4-ary tree: ranks 1..=4 at depth 1, 5..=20 at depth 2, …
        assert_eq!(tree_depth(1, 4), 1);
        assert_eq!(tree_depth(4, 4), 1);
        assert_eq!(tree_depth(5, 4), 2);
        assert_eq!(tree_depth(20, 4), 2);
        assert_eq!(tree_depth(21, 4), 3);
        // Binary tree.
        assert_eq!(tree_depth(2, 2), 1);
        assert_eq!(tree_depth(3, 2), 2);
        assert_eq!(tree_depth(6, 2), 2);
        assert_eq!(tree_depth(7, 2), 3);
    }

    #[test]
    fn engine_state_roundtrip_resumes_byte_identically() {
        // Run to a midpoint (with a group mid-flight and traces on),
        // export, import into a freshly built simulation, and finish
        // both: worlds, counters, and traces must match exactly.
        let build = || {
            let mut sim = Simulation::new(RecWorld::new(), 23);
            let fan = sim.add_component(FanOut {
                targets: GroupTargets::Strided {
                    first: ComponentId(1),
                    stride: 1,
                    len: 6,
                },
                schedule: GroupSchedule::FanoutTree {
                    per_hop: SimSpan::from_micros(3),
                    fanout: 2,
                },
                unicast: false,
            });
            for _ in 0..6 {
                sim.add_component(Recorder);
            }
            sim.enable_tracing();
            sim.post(SimTime::ZERO, fan, 7);
            sim.post(SimTime::from_micros(10), fan, 900);
            sim
        };
        let mut orig = build();
        let mut half = build();
        // Stop mid-run, with fan-out remainders still parked.
        orig.run_until(SimTime::from_micros(12));
        half.run_until(SimTime::from_micros(12));
        let state = half.export_engine_state();
        // Import into a fresh sim (events posted at construction get
        // discarded). The world is the harness's to carry — copy it
        // across.
        let mut restored = build();
        *restored.world_mut() = half.world().clone();
        restored.import_engine_state(state).unwrap();
        assert_eq!(restored.now(), orig.now());
        assert_eq!(restored.pending_messages(), orig.pending_messages());
        orig.run_to_completion();
        restored.run_to_completion();
        assert_eq!(restored.now(), orig.now());
        assert_eq!(restored.world(), orig.world());
        assert_eq!(restored.events_delivered(), orig.events_delivered());
        assert_eq!(restored.messages_handled(), orig.messages_handled());
        assert_eq!(
            restored.tracer().records(),
            orig.tracer().records(),
            "trace resumes mid-stream"
        );
        assert_eq!(restored.queue_stats(), orig.queue_stats());
    }

    #[test]
    fn past_sends_are_clamped_to_now() {
        struct PastSender;
        impl Component<World, Msg> for PastSender {
            fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, World, Msg>) {
                // On the initial tick, try to send into the past; the engine
                // must clamp delivery to now (and the Reply itself must not
                // re-trigger a send, or we'd loop at a frozen timestamp).
                if matches!(msg, Msg::Tick(_)) {
                    let id = ctx.self_id();
                    ctx.send_at(id, SimTime::ZERO, Msg::Reply);
                }
            }
        }
        let mut sim = Simulation::new(World::new(), 1);
        let c = sim.add_component(PastSender);
        sim.post(SimTime::from_millis(5), c, Msg::Tick(0));
        sim.run_to_completion();
        assert_eq!(sim.now(), SimTime::from_millis(5));
        assert_eq!(sim.events_delivered(), 2);
    }
}
