//! The mechanism layer: timing + semantics of XFER-AND-SIGNAL, TEST-EVENT
//! and COMPARE-AND-WRITE.
//!
//! [`Mechanisms`] lives in the simulation's shared world; dæmons call into
//! it while handling messages. Each call returns *when* the operation
//! completes in simulated time; the caller is responsible for scheduling its
//! own follow-up messages at those instants (the engine's `send_at`).
//!
//! Semantic points from §2.2 honoured here:
//!
//! * **Atomicity** — under an injected network error, XFER-AND-SIGNAL
//!   delivers to *no* node ([`XferError`]); COMPARE-AND-WRITE's write half
//!   is applied to all nodes of the set as one indivisible action.
//! * **Sequential consistency** — concurrent COMPARE-AND-WRITEs are applied
//!   in the engine's total event order, so all nodes observe the same final
//!   value.
//! * **Non-blocking XFER-AND-SIGNAL** — the only way to detect completion is
//!   TEST-EVENT on an event the transfer signals; events are timestamped so
//!   a poll before the transfer lands correctly reports "not signalled".
//!
//! One simplification: COMPARE-AND-WRITE evaluates its condition against
//! global-variable state at *issue* time rather than at fan-out-arrival
//! time. The in-flight window is the barrier latency (µs) while the dæmons
//! act on heartbeat boundaries (ms), so no STORM protocol can observe the
//! difference; the determinism tests pin this behaviour.

use crate::memory::GlobalMemory;
use crate::types::{CmpOp, EventId, NodeId, NodeSet, VarId};
use storm_net::{BackgroundLoad, BufferPlacement, NetworkKind, QsNetModel};
use storm_sim::{tree_depth, DeterministicRng, GroupSchedule, SimSpan, SimTime};

/// How the mechanisms are implemented on the target network.
#[derive(Debug, Clone, Copy)]
pub enum MechanismImpl {
    /// Direct mapping onto QsNET hardware multicast / network conditionals.
    Hardware(QsNetModel),
    /// Thin software layer organising the nodes in a logarithmic tree
    /// (Ethernet / Myrinet / InfiniBand — §4 "Portability").
    EmulatedTree {
        /// Which network the emulation runs over (sets per-hop costs).
        kind: NetworkKind,
        /// Tree fan-out (the paper's emulations use binary/quaternary trees;
        /// default 4).
        fanout: u32,
    },
}

impl MechanismImpl {
    /// The default software-emulation tree for `kind`.
    pub fn emulated(kind: NetworkKind) -> Self {
        MechanismImpl::EmulatedTree { kind, fanout: 4 }
    }
}

/// Completion times of one XFER-AND-SIGNAL.
#[derive(Debug, Clone, PartialEq)]
pub struct XferTiming {
    /// When the source's local event fires (DMA drained from the source).
    pub source_complete: SimTime,
    /// When the data (and the remote event signal) is visible on each
    /// destination, in `NodeSet` iteration order. On hardware multicast all
    /// entries are equal; on an emulated tree they grow with tree depth.
    pub arrivals: Vec<(NodeId, SimTime)>,
}

impl XferTiming {
    /// The latest destination arrival (the whole set has the data).
    pub fn all_arrived(&self) -> SimTime {
        self.arrivals
            .iter()
            .map(|&(_, t)| t)
            .max()
            .unwrap_or(self.source_complete)
    }
}

/// Completion profile of one XFER-AND-SIGNAL in O(1) space: per-rank
/// arrival instants are *computed* instead of materialised as a `Vec` —
/// the allocation-free counterpart of [`XferTiming`] for hot paths that
/// multicast to thousands of nodes every timeslice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XferFanout {
    /// When the source's local event fires (DMA drained from the source).
    pub source_complete: SimTime,
    /// Number of destinations.
    pub len: u32,
    kind: FanoutKind,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FanoutKind {
    /// Hardware multicast: every destination at one instant.
    Uniform { arrival: SimTime },
    /// Software tree: rank `r` arrives at
    /// `base + per_hop × tree_depth(r+1, fanout)`.
    Tree {
        base: SimTime,
        per_hop: SimSpan,
        fanout: u32,
    },
}

impl XferFanout {
    /// Arrival instant of the `rank`-th destination (in `NodeSet` order).
    pub fn arrival(&self, rank: u32) -> SimTime {
        match self.kind {
            FanoutKind::Uniform { arrival } => arrival,
            FanoutKind::Tree {
                base,
                per_hop,
                fanout,
            } => base + per_hop * tree_depth(u64::from(rank) + 1, u64::from(fanout)),
        }
    }

    /// The latest destination arrival (the whole set has the data).
    pub fn all_arrived(&self) -> SimTime {
        match self.kind {
            FanoutKind::Uniform { arrival } => arrival,
            _ => self.arrival(self.len - 1),
        }
    }

    /// The `(base, schedule)` pair for the engine's group delivery:
    /// `schedule.arrival(base, rank)` equals [`XferFanout::arrival`] for
    /// every rank.
    pub fn delivery_schedule(&self) -> (SimTime, GroupSchedule) {
        match self.kind {
            FanoutKind::Uniform { arrival } => (arrival, GroupSchedule::Simultaneous),
            FanoutKind::Tree {
                base,
                per_hop,
                fanout,
            } => (base, GroupSchedule::FanoutTree { per_hop, fanout }),
        }
    }
}

/// XFER-AND-SIGNAL failure: a network error aborted the transfer; per the
/// paper's atomicity guarantee, **no** destination received anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XferError;

impl std::fmt::Display for XferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "network error: transfer atomically aborted")
    }
}

impl std::error::Error for XferError {}

/// Result of one COMPARE-AND-WRITE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CawResult {
    /// When the initiator learns the outcome.
    pub complete: SimTime,
    /// Whether the condition held on **all** nodes of the set.
    pub satisfied: bool,
}

/// A transient fault window: while `from ≤ now < until`, XFER-AND-SIGNAL
/// operations fail with at least `prob` (layered over the steady-state
/// probability; the maximum wins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBurst {
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Error probability inside the window.
    pub prob: f64,
}

/// Failure injection for the mechanisms.
///
/// Deterministic given the simulation seed: probabilities are evaluated
/// against the engine's seeded RNG, and **no RNG is consumed when the
/// effective probability is zero**, so an inert plan leaves a run
/// bit-identical to one with no plan at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Steady-state probability that any given XFER-AND-SIGNAL suffers a
    /// network error (and is atomically aborted). Zero by default.
    pub xfer_error_prob: f64,
    /// Probability that a COMPARE-AND-WRITE query is lost before reaching
    /// the network: no write is applied anywhere (atomicity) and the
    /// initiator learns nothing, so it must re-poll. Only honoured by
    /// callers that go through [`Mechanisms::compare_and_write_faulty`].
    pub caw_drop_prob: f64,
    /// Transient error-burst windows layered on top of `xfer_error_prob`.
    pub bursts: Vec<ErrorBurst>,
}

impl FaultPlan {
    /// The XFER-AND-SIGNAL error probability in effect at `now` (steady
    /// state plus any active burst; the maximum wins).
    pub fn xfer_error_prob_at(&self, now: SimTime) -> f64 {
        let mut p = self.xfer_error_prob;
        for b in &self.bursts {
            if now >= b.from && now < b.until {
                p = p.max(b.prob);
            }
        }
        p
    }

    /// True when the plan can never inject anything. An inert plan
    /// consumes no RNG anywhere in the mechanism layer, so a run with one
    /// installed is bit-identical to a run with no plan at all; the
    /// per-operation gates ([`FaultPlan::caw_can_drop`],
    /// [`FaultPlan::xfer_error_prob_at`]) enforce it operation by
    /// operation.
    pub fn is_inert(&self) -> bool {
        self.xfer_error_prob == 0.0 && self.caw_drop_prob == 0.0 && self.bursts.is_empty()
    }

    /// True when a COMPARE-AND-WRITE issued now may be dropped — the exact
    /// gate [`Mechanisms::compare_and_write_faulty`] uses to decide
    /// whether to consume RNG. An inert plan never drops.
    pub fn caw_can_drop(&self) -> bool {
        self.caw_drop_prob > 0.0
    }
}

/// The mechanism layer for one cluster.
#[derive(Debug)]
pub struct Mechanisms {
    imp: MechanismImpl,
    /// Global variables and events.
    pub memory: GlobalMemory,
    /// Failure injection plan.
    pub fault: FaultPlan,
    xfer_count: u64,
    caw_count: u64,
}

impl Mechanisms {
    /// Mechanisms over `nodes` nodes with the given implementation.
    pub fn new(imp: MechanismImpl, nodes: u32) -> Self {
        Mechanisms {
            imp,
            memory: GlobalMemory::new(nodes),
            fault: FaultPlan::default(),
            xfer_count: 0,
            caw_count: 0,
        }
    }

    /// Hardware QsNET mechanisms for a cluster of `nodes`.
    pub fn qsnet(nodes: u32) -> Self {
        Self::new(MechanismImpl::Hardware(QsNetModel::for_nodes(nodes)), nodes)
    }

    /// The implementation in use.
    pub fn implementation(&self) -> &MechanismImpl {
        &self.imp
    }

    /// Number of XFER-AND-SIGNAL operations issued.
    pub fn xfer_count(&self) -> u64 {
        self.xfer_count
    }

    /// Number of COMPARE-AND-WRITE operations issued.
    pub fn caw_count(&self) -> u64 {
        self.caw_count
    }

    /// Overwrite the lifetime operation counters — the checkpoint/restore
    /// path uses this so counters continue from the checkpointed values.
    pub fn restore_counters(&mut self, xfer_count: u64, caw_count: u64) {
        self.xfer_count = xfer_count;
        self.caw_count = caw_count;
    }

    /// **XFER-AND-SIGNAL** — PUT `bytes` from the initiator to `dests`,
    /// optionally signalling a local event (on the initiating node
    /// `src_node`) and/or a remote event (on every destination).
    ///
    /// Returns the timing on success. On an injected network error, returns
    /// [`XferError`] and — per the atomicity guarantee — signals nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn xfer_and_signal(
        &mut self,
        now: SimTime,
        src_node: NodeId,
        dests: &NodeSet,
        bytes: u64,
        placement: BufferPlacement,
        local_event: Option<EventId>,
        remote_event: Option<EventId>,
        load: BackgroundLoad,
        rng: &mut DeterministicRng,
    ) -> Result<XferTiming, XferError> {
        let fan = self.xfer_fanout(
            now,
            src_node,
            dests,
            bytes,
            placement,
            local_event,
            remote_event,
            load,
            rng,
        )?;
        Ok(XferTiming {
            source_complete: fan.source_complete,
            arrivals: dests
                .iter()
                .enumerate()
                .map(|(rank, n)| (n, fan.arrival(rank as u32)))
                .collect(),
        })
    }

    /// [`Mechanisms::xfer_and_signal`] without the per-destination `Vec`:
    /// identical semantics, timing and RNG consumption, but the arrival
    /// profile comes back as an O(1) [`XferFanout`] — what the MM's
    /// per-timeslice multicasts (strobe, heartbeat, launch command,
    /// broadcast fragment) use so a fan-out to N nodes allocates nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn xfer_fanout(
        &mut self,
        now: SimTime,
        src_node: NodeId,
        dests: &NodeSet,
        bytes: u64,
        placement: BufferPlacement,
        local_event: Option<EventId>,
        remote_event: Option<EventId>,
        load: BackgroundLoad,
        rng: &mut DeterministicRng,
    ) -> Result<XferFanout, XferError> {
        assert!(!dests.is_empty(), "XFER-AND-SIGNAL needs a destination set");
        self.xfer_count += 1;
        let err_prob = self.fault.xfer_error_prob_at(now);
        if err_prob > 0.0 && rng.uniform() < err_prob {
            return Err(XferError);
        }
        let fan = match &self.imp {
            MechanismImpl::Hardware(model) => {
                // Hardware multicast: one ordered, reliable fan-out; all
                // destinations see the data at the same instant.
                let base = model.broadcast_span(bytes, placement);
                let span = widen_by_load(base, bytes, load, model.broadcast_bw(placement));
                let arrival = now + span;
                XferFanout {
                    source_complete: arrival,
                    len: dests.len(),
                    kind: FanoutKind::Uniform { arrival },
                }
            }
            MechanismImpl::EmulatedTree { kind, fanout } => {
                // Software tree: the source sends to `fanout` children, each
                // forwards, … Depth of the i-th destination (in set order)
                // is ⌈log_fanout⌉ of its rank.
                let hop_cost = kind.emulation_hop_cost();
                let per_node_bw = kind
                    .mechanism_perf(self.memory.nodes())
                    .xfer_aggregate_bw
                    .map(|agg| agg / f64::from(self.memory.nodes()))
                    .unwrap_or(30.0e6); // conservative for GigE/IB store-and-forward
                let per_hop_xfer =
                    SimSpan::for_bytes(bytes, load.effective_bw(per_node_bw).max(1.0));
                let per_hop = load.inflate(hop_cost) + per_hop_xfer;
                XferFanout {
                    source_complete: now + per_hop,
                    len: dests.len(),
                    kind: FanoutKind::Tree {
                        base: now,
                        per_hop,
                        fanout: *fanout,
                    },
                }
            }
        };
        if let Some(ev) = remote_event {
            for (rank, n) in dests.iter().enumerate() {
                self.memory.signal(n, ev, fan.arrival(rank as u32));
            }
        }
        if let Some(ev) = local_event {
            self.memory.signal(src_node, ev, fan.source_complete);
        }
        Ok(fan)
    }

    /// **TEST-EVENT** — poll a local event at `now`. Returns whether it is
    /// signalled; never consumes the signal (use
    /// [`Mechanisms::consume_event`] for test-and-clear).
    pub fn test_event(&self, node: NodeId, event: EventId, now: SimTime) -> bool {
        self.memory.event_signalled(node, event, now)
    }

    /// Blocking-style TEST-EVENT: when the event will become visible (its
    /// signal timestamp, clamped to `now`), or `None` if unsignalled —
    /// callers schedule their wake-up at that instant.
    pub fn wait_event(&self, node: NodeId, event: EventId, now: SimTime) -> Option<SimTime> {
        self.memory.signalled_at(node, event).map(|at| at.max(now))
    }

    /// Test-and-clear: returns true (and clears) if signalled at `now`.
    pub fn consume_event(&mut self, node: NodeId, event: EventId, now: SimTime) -> bool {
        if self.memory.event_signalled(node, event, now) {
            self.memory.clear_event(node, event);
            true
        } else {
            false
        }
    }

    /// **COMPARE-AND-WRITE** — compare `var ⊕ value` on every node of `set`;
    /// if the condition holds on all of them, optionally apply
    /// `write = (target_var, new_value)` to all nodes of the set.
    ///
    /// Sequentially consistent: applied as one indivisible action in the
    /// engine's total order, so concurrent CAWs with different write values
    /// leave every node agreeing on the final value (last in event order
    /// wins).
    #[allow(clippy::too_many_arguments)]
    pub fn compare_and_write(
        &mut self,
        now: SimTime,
        set: &NodeSet,
        var: VarId,
        op: CmpOp,
        value: i64,
        write: Option<(VarId, i64)>,
        load: BackgroundLoad,
    ) -> CawResult {
        assert!(!set.is_empty(), "COMPARE-AND-WRITE needs a node set");
        self.caw_count += 1;
        let latency = match &self.imp {
            MechanismImpl::Hardware(model) => model.barrier_latency(),
            MechanismImpl::EmulatedTree { kind, .. } => {
                load.inflate(kind.mechanism_perf(set.len().max(2)).caw_latency)
            }
        };
        let satisfied = set.iter().all(|n| op.eval(self.memory.read(n, var), value));
        if satisfied {
            if let Some((target, new_value)) = write {
                self.memory.write_set(set, target, new_value);
            }
        }
        CawResult {
            complete: now + latency,
            satisfied,
        }
    }

    /// [`Mechanisms::compare_and_write`] routed through the fault plan: with
    /// probability [`FaultPlan::caw_drop_prob`] the query is lost in the
    /// network — atomically, so no write is applied anywhere and the
    /// initiator learns nothing (`None`); it must re-poll later, exactly as
    /// with a real lost network conditional. No RNG is consumed when the
    /// drop probability is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn compare_and_write_faulty(
        &mut self,
        now: SimTime,
        set: &NodeSet,
        var: VarId,
        op: CmpOp,
        value: i64,
        write: Option<(VarId, i64)>,
        load: BackgroundLoad,
        rng: &mut DeterministicRng,
    ) -> Option<CawResult> {
        if self.fault.caw_can_drop() && rng.uniform() < self.fault.caw_drop_prob {
            self.caw_count += 1; // issued, then lost
            return None;
        }
        Some(self.compare_and_write(now, set, var, op, value, write, load))
    }
}

/// Inflate a hardware-broadcast span by the background network load: the
/// fixed latency part stays, the bandwidth part stretches by 1/(1−load).
fn widen_by_load(base: SimSpan, bytes: u64, load: BackgroundLoad, bw: f64) -> SimSpan {
    if load.network == 0.0 {
        return base;
    }
    let data_part = SimSpan::for_bytes(bytes, bw);
    let fixed = base.saturating_sub(data_part);
    fixed + SimSpan::for_bytes(bytes, load.effective_bw(bw).max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DeterministicRng {
        DeterministicRng::new(1)
    }

    #[test]
    fn hardware_xfer_signals_remote_events_at_arrival() {
        let mut m = Mechanisms::qsnet(64);
        let ev = m.memory.alloc_event();
        let all = NodeSet::All(64);
        let now = SimTime::from_millis(1);
        let t = m
            .xfer_and_signal(
                now,
                NodeId(0),
                &all,
                512 * 1024,
                BufferPlacement::MainMemory,
                Some(ev),
                Some(ev),
                BackgroundLoad::NONE,
                &mut rng(),
            )
            .unwrap();
        // All arrivals identical on hardware multicast.
        let first = t.arrivals[0].1;
        assert!(t.arrivals.iter().all(|&(_, a)| a == first));
        assert_eq!(t.all_arrived(), first);
        assert!(first > now);
        // TEST-EVENT is causally correct: not visible before arrival.
        assert!(!m.test_event(NodeId(5), ev, now));
        assert!(m.test_event(NodeId(5), ev, first));
        assert_eq!(m.wait_event(NodeId(5), ev, now), Some(first));
        // Local event on the source fires at source_complete.
        assert!(m.test_event(NodeId(0), ev, t.source_complete));
        assert_eq!(m.xfer_count(), 1);
    }

    #[test]
    fn nonblocking_semantics_only_observable_via_test_event() {
        let mut m = Mechanisms::qsnet(4);
        let ev = m.memory.alloc_event();
        assert_eq!(m.wait_event(NodeId(1), ev, SimTime::ZERO), None);
        assert!(!m.consume_event(NodeId(1), ev, SimTime::MAX));
        m.memory.signal(NodeId(1), ev, SimTime::from_micros(3));
        assert!(m.consume_event(NodeId(1), ev, SimTime::from_micros(3)));
        // Consumed: gone.
        assert!(!m.test_event(NodeId(1), ev, SimTime::MAX));
    }

    #[test]
    fn xfer_atomicity_under_network_error() {
        let mut m = Mechanisms::qsnet(16);
        m.fault.xfer_error_prob = 1.0;
        let ev = m.memory.alloc_event();
        let r = m.xfer_and_signal(
            SimTime::ZERO,
            NodeId(0),
            &NodeSet::All(16),
            4096,
            BufferPlacement::MainMemory,
            Some(ev),
            Some(ev),
            BackgroundLoad::NONE,
            &mut rng(),
        );
        assert_eq!(r, Err(XferError));
        // Atomic abort: no node (including the source) saw a signal.
        for n in 0..16 {
            assert!(!m.test_event(NodeId(n), ev, SimTime::MAX));
        }
    }

    #[test]
    fn caw_checks_all_nodes() {
        let mut m = Mechanisms::qsnet(8);
        let v = m.memory.alloc_var(0);
        let all = NodeSet::All(8);
        for n in 0..8 {
            m.memory.write(NodeId(n), v, 3);
        }
        let r = m.compare_and_write(
            SimTime::ZERO,
            &all,
            v,
            CmpOp::Ge,
            3,
            None,
            BackgroundLoad::NONE,
        );
        assert!(r.satisfied);
        assert!(r.complete > SimTime::ZERO);
        // One node lags: condition fails on the whole set.
        m.memory.write(NodeId(5), v, 2);
        let r2 = m.compare_and_write(
            SimTime::ZERO,
            &all,
            v,
            CmpOp::Ge,
            3,
            None,
            BackgroundLoad::NONE,
        );
        assert!(!r2.satisfied);
    }

    #[test]
    fn caw_write_applies_to_whole_set_only_when_satisfied() {
        let mut m = Mechanisms::qsnet(8);
        let cond = m.memory.alloc_var(1);
        let target = m.memory.alloc_var(0);
        let set = NodeSet::Range { start: 2, len: 4 };
        let r = m.compare_and_write(
            SimTime::ZERO,
            &set,
            cond,
            CmpOp::Eq,
            1,
            Some((target, 42)),
            BackgroundLoad::NONE,
        );
        assert!(r.satisfied);
        assert_eq!(m.memory.gather(&set, target), vec![42; 4]);
        // Outside the set: untouched.
        assert_eq!(m.memory.read(NodeId(0), target), 0);
        // Unsatisfied condition leaves the target alone.
        let r2 = m.compare_and_write(
            SimTime::ZERO,
            &set,
            cond,
            CmpOp::Ne,
            1,
            Some((target, 7)),
            BackgroundLoad::NONE,
        );
        assert!(!r2.satisfied);
        assert_eq!(m.memory.gather(&set, target), vec![42; 4]);
    }

    #[test]
    fn concurrent_caws_converge_to_single_value() {
        // §2.2 point 2: simultaneous CAWs differing only in write value
        // leave all nodes seeing the same value.
        let mut m = Mechanisms::qsnet(32);
        let cond = m.memory.alloc_var(0);
        let target = m.memory.alloc_var(-1);
        let all = NodeSet::All(32);
        for writer in 0..10 {
            m.compare_and_write(
                SimTime::ZERO,
                &all,
                cond,
                CmpOp::Eq,
                0,
                Some((target, writer)),
                BackgroundLoad::NONE,
            );
        }
        let vals = m.memory.gather(&all, target);
        assert!(
            vals.iter().all(|&v| v == vals[0]),
            "nodes disagree: {vals:?}"
        );
        assert_eq!(vals[0], 9); // last in total order wins
        assert_eq!(m.caw_count(), 10);
    }

    #[test]
    fn emulated_tree_arrivals_grow_logarithmically() {
        let mut m = Mechanisms::new(MechanismImpl::emulated(NetworkKind::Myrinet), 64);
        let t = m
            .xfer_and_signal(
                SimTime::ZERO,
                NodeId(0),
                &NodeSet::All(64),
                320,
                BufferPlacement::MainMemory,
                None,
                None,
                BackgroundLoad::NONE,
                &mut rng(),
            )
            .unwrap();
        let first = t.arrivals[0].1;
        let last = t.all_arrived();
        assert!(last > first, "tree arrivals must be staggered");
        // Depth of a 4-ary tree over 64 destinations is 3.
        let per_hop = first - SimTime::ZERO;
        assert_eq!(last - SimTime::ZERO, per_hop * 3);
    }

    #[test]
    fn hardware_caw_is_orders_of_magnitude_faster_than_emulated() {
        let mut hw = Mechanisms::qsnet(1024);
        let mut sw = Mechanisms::new(MechanismImpl::emulated(NetworkKind::GigabitEthernet), 1024);
        let vh = hw.memory.alloc_var(0);
        let vs = sw.memory.alloc_var(0);
        let all = NodeSet::All(1024);
        let th = hw
            .compare_and_write(
                SimTime::ZERO,
                &all,
                vh,
                CmpOp::Ge,
                0,
                None,
                BackgroundLoad::NONE,
            )
            .complete;
        let ts = sw
            .compare_and_write(
                SimTime::ZERO,
                &all,
                vs,
                CmpOp::Ge,
                0,
                None,
                BackgroundLoad::NONE,
            )
            .complete;
        // QsNET ≈ 6 µs vs GigE ≈ 460 µs at 1024 nodes (Table 5).
        assert!(ts.as_nanos() > 50 * th.as_nanos());
    }

    #[test]
    fn network_load_stretches_transfers() {
        let mut m = Mechanisms::qsnet(64);
        let quiet = m
            .xfer_and_signal(
                SimTime::ZERO,
                NodeId(0),
                &NodeSet::All(64),
                1_000_000,
                BufferPlacement::MainMemory,
                None,
                None,
                BackgroundLoad::NONE,
                &mut rng(),
            )
            .unwrap()
            .all_arrived();
        let loaded = m
            .xfer_and_signal(
                SimTime::ZERO,
                NodeId(0),
                &NodeSet::All(64),
                1_000_000,
                BufferPlacement::MainMemory,
                None,
                None,
                BackgroundLoad::network_loaded(),
                &mut rng(),
            )
            .unwrap()
            .all_arrived();
        assert!(loaded.as_nanos() > 5 * quiet.as_nanos());
    }

    #[test]
    fn fanout_profile_matches_materialised_timing() {
        // Same inputs → XferFanout::arrival(rank) must equal the rank-th
        // entry of XferTiming::arrivals, on both implementations.
        for mut m in [
            Mechanisms::qsnet(64),
            Mechanisms::new(MechanismImpl::emulated(NetworkKind::Myrinet), 64),
        ] {
            let set = NodeSet::Range { start: 3, len: 40 };
            let now = SimTime::from_millis(2);
            let fan = m
                .xfer_fanout(
                    now,
                    NodeId(0),
                    &set,
                    4096,
                    BufferPlacement::MainMemory,
                    None,
                    None,
                    BackgroundLoad::NONE,
                    &mut rng(),
                )
                .unwrap();
            let timing = m
                .xfer_and_signal(
                    now,
                    NodeId(0),
                    &set,
                    4096,
                    BufferPlacement::MainMemory,
                    None,
                    None,
                    BackgroundLoad::NONE,
                    &mut rng(),
                )
                .unwrap();
            assert_eq!(fan.len, 40);
            assert_eq!(fan.source_complete, timing.source_complete);
            assert_eq!(fan.all_arrived(), timing.all_arrived());
            for (rank, &(n, at)) in timing.arrivals.iter().enumerate() {
                assert_eq!(set.get(rank as u32), n);
                assert_eq!(fan.arrival(rank as u32), at, "rank {rank}");
            }
            // The delivery schedule reproduces the same profile.
            let (base, sched) = fan.delivery_schedule();
            for rank in 0..fan.len {
                assert_eq!(sched.arrival(base, rank), fan.arrival(rank));
            }
        }
    }

    #[test]
    fn caw_drop_accounting_counts_lost_queries() {
        let mut m = Mechanisms::qsnet(8);
        m.fault.caw_drop_prob = 1.0;
        assert!(!m.fault.is_inert());
        let v = m.memory.alloc_var(0);
        let all = NodeSet::All(8);
        let mut r = rng();
        for _ in 0..5 {
            let res = m.compare_and_write_faulty(
                SimTime::ZERO,
                &all,
                v,
                CmpOp::Ge,
                0,
                Some((v, 9)),
                BackgroundLoad::NONE,
                &mut r,
            );
            assert_eq!(res, None, "certain drop loses the query");
        }
        // Every lost query was still *issued*: the counter reflects it,
        // and atomicity means no write half was applied anywhere.
        assert_eq!(m.caw_count(), 5);
        assert_eq!(m.memory.gather(&all, v), vec![0; 8]);
    }

    #[test]
    fn caw_retry_path_converges_under_partial_drops() {
        // p = 0.5: the initiator re-polls until a query gets through; the
        // survivor must observe exactly one applied write and a caw_count
        // equal to drops + the successful issue.
        let mut m = Mechanisms::qsnet(4);
        m.fault.caw_drop_prob = 0.5;
        let v = m.memory.alloc_var(0);
        let all = NodeSet::All(4);
        let mut r = rng();
        let mut polls = 0u64;
        let result = loop {
            polls += 1;
            assert!(polls < 1_000, "retry loop must converge");
            if let Some(res) = m.compare_and_write_faulty(
                SimTime::ZERO,
                &all,
                v,
                CmpOp::Eq,
                0,
                Some((v, 7)),
                BackgroundLoad::NONE,
                &mut r,
            ) {
                break res;
            }
        };
        assert!(result.satisfied);
        assert_eq!(m.memory.gather(&all, v), vec![7; 4]);
        assert_eq!(m.caw_count(), polls, "drops + the success are all issues");
    }

    #[test]
    fn quiet_plan_gating_is_exact() {
        // An inert plan must consume no RNG: the next draw after a faulty
        // CAW equals the first draw of a fresh same-seed stream. A non-
        // inert plan must consume exactly one draw per query.
        assert!(FaultPlan::default().is_inert());
        assert!(!FaultPlan {
            caw_drop_prob: 0.1,
            ..FaultPlan::default()
        }
        .is_inert());
        assert!(!FaultPlan {
            xfer_error_prob: 0.1,
            ..FaultPlan::default()
        }
        .is_inert());
        let mut m = Mechanisms::qsnet(4);
        assert!(m.fault.is_inert());
        assert!(!m.fault.caw_can_drop());
        let v = m.memory.alloc_var(0);
        let all = NodeSet::All(4);
        let mut used = rng();
        let res = m.compare_and_write_faulty(
            SimTime::ZERO,
            &all,
            v,
            CmpOp::Ge,
            0,
            None,
            BackgroundLoad::NONE,
            &mut used,
        );
        assert!(res.is_some(), "an inert plan never drops");
        assert_eq!(
            used.uniform(),
            rng().uniform(),
            "inert plan consumed RNG it must not touch"
        );
        // Flip the plan on: exactly one draw per query is consumed.
        m.fault.caw_drop_prob = 1e-9; // can drop, in principle
        assert!(m.fault.caw_can_drop() && !m.fault.is_inert());
        let mut used = rng();
        let res = m.compare_and_write_faulty(
            SimTime::ZERO,
            &all,
            v,
            CmpOp::Ge,
            0,
            None,
            BackgroundLoad::NONE,
            &mut used,
        );
        assert!(res.is_some(), "p = 1e-9 effectively never fires");
        let mut fresh = rng();
        fresh.uniform(); // the one draw the gate spent
        assert_eq!(used.uniform(), fresh.uniform());
    }

    #[test]
    fn caw_audit_catches_torn_writes() {
        let mut m = Mechanisms::qsnet(4);
        m.memory.enable_caw_audit();
        let cond = m.memory.alloc_var(0);
        let target = m.memory.alloc_var(0);
        let set = NodeSet::Range { start: 1, len: 3 };
        m.compare_and_write(
            SimTime::ZERO,
            &set,
            cond,
            CmpOp::Eq,
            0,
            Some((target, 5)),
            BackgroundLoad::NONE,
        );
        let audits: Vec<_> = m.memory.caw_audits().collect();
        assert_eq!(audits.len(), 1);
        let (var, audit) = &audits[0];
        assert_eq!(*var, target);
        assert_eq!(audit.value, 5);
        // Intact: every node of the set reads the audited value.
        assert!(audit.set.iter().all(|n| m.memory.read(n, target) == 5));
        // A later per-node write retires the entry (nodes may diverge).
        m.memory.write(NodeId(2), target, 6);
        assert_eq!(m.memory.caw_audits().count(), 0);
        // A poke does not: the torn state stays audited — and detectable.
        m.compare_and_write(
            SimTime::ZERO,
            &set,
            cond,
            CmpOp::Eq,
            0,
            Some((target, 8)),
            BackgroundLoad::NONE,
        );
        m.memory.poke(NodeId(2), target, 0);
        let (_, audit) = m.memory.caw_audits().next().unwrap();
        assert!(
            !audit
                .set
                .iter()
                .all(|n| m.memory.read(n, target) == audit.value),
            "the tear is visible to the audit"
        );
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
}
