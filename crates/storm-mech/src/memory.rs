//! Global memory: per-node variable and event tables.
//!
//! Both tables are flat and variable-major: one variable's (or event's)
//! copies on every node sit side by side, `table[id * nodes + node]`, so
//! a set-wide read or write and a fan-out that touches each node's copy
//! walk contiguous memory.
//!
//! "Global data refers to data at the same virtual address on all nodes"
//! (§2.2, point 1). We model an allocation as an index that is valid on
//! every node simultaneously; depending on the implementation the paper
//! notes this data may live in main memory or NIC memory — for timing that
//! distinction is captured by the network model, not here.
//!
//! Events are *timestamped*: XFER-AND-SIGNAL is non-blocking and its remote
//! signal only becomes visible when the transfer lands, so an event carries
//! the simulated instant at which it was signalled and
//! [`GlobalMemory::event_signalled`] takes the observer's current time. This
//! keeps TEST-EVENT causally correct inside the discrete-event simulation.

use crate::types::{EventId, NodeId, NodeSet, VarId};
use std::collections::BTreeMap;
use storm_sim::SimTime;

/// Audit record of the most recent set-wide (COMPARE-AND-WRITE) write
/// applied to a variable: the node set it covered and the value it wrote.
/// While no later per-node write supersedes it, sequential consistency
/// demands every node of the set still reads exactly this value — the
/// all-or-nothing visibility probe the `caw_visibility` invariant checks.
#[derive(Debug, Clone, PartialEq)]
pub struct CawAudit {
    /// The node set the write half covered.
    pub set: NodeSet,
    /// The value written to every node of the set.
    pub value: i64,
}

/// Per-node global variables and events for a whole cluster.
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    nodes: u32,
    /// `vars[var * nodes + node]`
    vars: Vec<i64>,
    /// `events[event * nodes + node]` — the instant the event was
    /// signalled, if any.
    events: Vec<Option<SimTime>>,
    /// Why an imported image's rows did not fit its node count, reported
    /// by [`GlobalMemory::check_shape`]; such an image imports empty.
    misshapen: Option<String>,
    /// When enabled, the last set-wide write per variable (keyed by var
    /// id), invalidated by any later per-node write to that variable.
    /// Disabled by default: the audit trail costs a map insert per CAW
    /// write half, so only DST harnesses turn it on.
    caw_audit: Option<BTreeMap<u32, CawAudit>>,
    /// Freed variable ids, descending, so the lowest is last:
    /// [`GlobalMemory::alloc_var`] reuses it before growing the rows.
    free_vars: Vec<u32>,
}

impl GlobalMemory {
    /// Memory for a cluster of `nodes` nodes with no allocations yet.
    pub fn new(nodes: u32) -> Self {
        assert!(nodes > 0);
        GlobalMemory {
            nodes,
            vars: Vec::new(),
            events: Vec::new(),
            misshapen: None,
            caw_audit: None,
            free_vars: Vec::new(),
        }
    }

    /// Index of `node`'s copy of entry `id` in a flat table. A node
    /// outside the cluster panics, as it would index past a per-node row,
    /// instead of reaching another entry's copies.
    fn at(&self, node: NodeId, id: u32) -> usize {
        assert!(node.0 < self.nodes, "{node:?} of {} nodes", self.nodes);
        id as usize * self.nodes as usize + node.index()
    }

    /// Enable the CAW write-visibility audit trail (see [`CawAudit`]).
    /// Idempotent; the trail starts empty. DST harnesses call this before
    /// running so the `caw_visibility` invariant has state to check; the
    /// default-off trail keeps production hot paths at a single branch.
    pub fn enable_caw_audit(&mut self) {
        if self.caw_audit.is_none() {
            self.caw_audit = Some(BTreeMap::new());
        }
    }

    /// The live CAW audit entries — `(var, audit)` in var order — or an
    /// empty iterator when auditing is disabled.
    pub fn caw_audits(&self) -> impl Iterator<Item = (VarId, &CawAudit)> {
        self.caw_audit
            .iter()
            .flat_map(|m| m.iter().map(|(&v, a)| (VarId(v), a)))
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Number of variables allocated on every node.
    pub fn var_count(&self) -> usize {
        self.vars
            .len()
            .checked_div(self.nodes as usize)
            .unwrap_or(0)
    }

    /// Allocate a global variable (same id on all nodes), initialised to
    /// `init` everywhere. The lowest freed id is reused first (its audit
    /// entry retired), so the rows grow only with the variables live at
    /// once.
    pub fn alloc_var(&mut self, init: i64) -> VarId {
        if let Some(id) = self.free_vars.pop() {
            if let Some(audit) = &mut self.caw_audit {
                audit.remove(&id);
            }
            let from = self.at(NodeId(0), id);
            self.vars[from..from + self.nodes as usize].fill(init);
            return VarId(id);
        }
        let id = VarId(u32::try_from(self.var_count()).expect("too many vars"));
        self.vars
            .resize(self.vars.len() + self.nodes as usize, init);
        id
    }

    /// Return `var` to the free list for [`GlobalMemory::alloc_var`] to
    /// reuse. Its value stays readable until then.
    pub fn free_var(&mut self, var: VarId) {
        let pos = self.free_vars.partition_point(|&v| v > var.0);
        debug_assert!(
            self.free_vars.get(pos) != Some(&var.0),
            "{var:?} freed twice"
        );
        self.free_vars.insert(pos, var.0);
    }

    /// The freed variables awaiting reuse, ascending.
    pub fn free_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.free_vars.iter().rev().map(|&v| VarId(v))
    }

    /// Allocate a global event (same id on all nodes), unsignalled.
    pub fn alloc_event(&mut self) -> EventId {
        let count = self
            .events
            .len()
            .checked_div(self.nodes as usize)
            .unwrap_or(0);
        let id = EventId(u32::try_from(count).expect("too many events"));
        self.events
            .resize(self.events.len() + self.nodes as usize, None);
        id
    }

    /// Read a variable on one node.
    pub fn read(&self, node: NodeId, var: VarId) -> i64 {
        self.vars[self.at(node, var.0)]
    }

    /// Write a variable on one node. A per-node write supersedes any
    /// audited set-wide write of the same variable (the nodes are free to
    /// diverge again), so it retires the audit entry.
    pub fn write(&mut self, node: NodeId, var: VarId, value: i64) {
        if let Some(audit) = &mut self.caw_audit {
            audit.remove(&var.0);
        }
        let at = self.at(node, var.0);
        self.vars[at] = value;
    }

    /// Write a variable on a set of nodes (the COMPARE-AND-WRITE write half;
    /// sequentially consistent because the simulation applies it as one
    /// indivisible action). Records the audit entry when auditing is on.
    pub fn write_set(&mut self, set: &NodeSet, var: VarId, value: i64) {
        for node in set.iter() {
            let at = self.at(node, var.0);
            self.vars[at] = value;
        }
        if let Some(audit) = &mut self.caw_audit {
            audit.insert(
                var.0,
                CawAudit {
                    set: set.clone(),
                    value,
                },
            );
        }
    }

    /// Add `delta` to a variable on one node, returning the new value.
    /// Retires any audit entry for the variable, like [`GlobalMemory::
    /// write`].
    pub fn add(&mut self, node: NodeId, var: VarId, delta: i64) -> i64 {
        if let Some(audit) = &mut self.caw_audit {
            audit.remove(&var.0);
        }
        let at = self.at(node, var.0);
        self.vars[at] += delta;
        self.vars[at]
    }

    /// Audit-invisible single-node write: changes one node's copy of `var`
    /// *without* retiring the audit entry — the tamper a DST harness uses
    /// to simulate a torn COMPARE-AND-WRITE (partial write application)
    /// and prove the `caw_visibility` invariant catches it. Never called by
    /// production code.
    pub fn poke(&mut self, node: NodeId, var: VarId, value: i64) {
        let at = self.at(node, var.0);
        self.vars[at] = value;
    }

    /// Is `event` visible as signalled to an observer on `node` at `now`?
    pub fn event_signalled(&self, node: NodeId, event: EventId, now: SimTime) -> bool {
        match self.events[self.at(node, event.0)] {
            Some(at) => at <= now,
            None => false,
        }
    }

    /// When `event` was (or will be) signalled on `node`, if at all.
    pub fn signalled_at(&self, node: NodeId, event: EventId) -> Option<SimTime> {
        self.events[self.at(node, event.0)]
    }

    /// Signal `event` on `node`, visible from instant `at`. An event that is
    /// already signalled keeps its *earlier* timestamp (signals are sticky
    /// until cleared).
    pub fn signal(&mut self, node: NodeId, event: EventId, at: SimTime) {
        let ix = self.at(node, event.0);
        let slot = &mut self.events[ix];
        *slot = Some(match *slot {
            Some(prev) => prev.min(at),
            None => at,
        });
    }

    /// Signal `event` on every node of `set` at instant `at`.
    pub fn signal_set(&mut self, set: &NodeSet, event: EventId, at: SimTime) {
        for node in set.iter() {
            self.signal(node, event, at);
        }
    }

    /// Clear `event` on `node` (consume the signal).
    pub fn clear_event(&mut self, node: NodeId, event: EventId) {
        let at = self.at(node, event.0);
        self.events[at] = None;
    }

    /// Check the tables against the node count: the imported image had
    /// one variable row and one event row per node, each row as wide as
    /// the first, and every CAW audit names an allocated variable and
    /// nodes of the cluster only. Errors name the member (`vars`,
    /// `events[3]`, `caw_audit`), so a restored image can be refused
    /// before anything indexes it.
    pub fn check_shape(&self) -> Result<(), String> {
        if let Some(e) = &self.misshapen {
            return Err(e.clone());
        }
        let vars = self.var_count();
        for (var, audit) in self.caw_audits() {
            let end = match &audit.set {
                NodeSet::All(n) => u64::from(*n),
                NodeSet::Range { start, len } => u64::from(*start) + u64::from(*len),
                NodeSet::List(v) => v.iter().map(|n| u64::from(n.0) + 1).max().unwrap_or(0),
            };
            if var.0 as usize >= vars || end > u64::from(self.nodes) {
                return Err(format!(
                    "caw_audit: variable {} on nodes below {end} is outside the {vars} variables \
                     on {} nodes",
                    var.0, self.nodes
                ));
            }
        }
        Ok(())
    }

    /// Values of `var` across a node set, in ascending node order — used by
    /// monitoring/gather examples.
    pub fn gather(&self, set: &NodeSet, var: VarId) -> Vec<i64> {
        set.iter().map(|n| self.read(n, var)).collect()
    }

    /// Full-fidelity image of the memory for checkpointing: every node's
    /// variable and event tables, the CAW audit trail (if enabled) and the
    /// free list.
    pub fn export_state(&self) -> MemoryState {
        /// Node-major rows of a variable-major table.
        fn rows<T: Copy>(table: &[T], nodes: u32) -> Vec<Vec<T>> {
            let nodes = nodes as usize;
            (0..nodes)
                .map(|n| table.iter().skip(n).step_by(nodes).copied().collect())
                .collect()
        }
        MemoryState {
            nodes: self.nodes,
            vars: rows(&self.vars, self.nodes),
            events: rows(&self.events, self.nodes),
            caw_audit: self
                .caw_audit
                .as_ref()
                .map(|m| m.iter().map(|(&v, a)| (v, a.clone())).collect()),
            free_vars: self.free_vars.iter().rev().copied().collect(),
        }
    }

    /// Rebuild a memory from an exported image. See
    /// [`GlobalMemory::export_state`]. The rows are checked before they
    /// are flattened: an image without one row per node, or with rows of
    /// unequal width, imports with empty tables, and
    /// [`GlobalMemory::check_shape`] names the fault.
    pub fn import_state(state: MemoryState) -> Self {
        /// The rows flattened variable-major, if they fit `nodes`.
        fn flatten<T: Copy>(name: &str, rows: &[Vec<T>], nodes: u32) -> Result<Vec<T>, String> {
            if rows.len() != nodes as usize {
                return Err(format!("{name}: {} rows for {nodes} nodes", rows.len()));
            }
            let width = rows.first().map_or(0, Vec::len);
            if let Some(n) = rows.iter().position(|r| r.len() != width) {
                return Err(format!(
                    "{name}[{n}]: {} entries, row 0 has {width}",
                    rows[n].len()
                ));
            }
            let mut flat = Vec::with_capacity(width * rows.len());
            for id in 0..width {
                flat.extend(rows.iter().map(|r| r[id]));
            }
            Ok(flat)
        }
        let tables = flatten("vars", &state.vars, state.nodes)
            .and_then(|v| Ok((v, flatten("events", &state.events, state.nodes)?)));
        let (vars, events, misshapen) = match tables {
            Ok((vars, events)) => (vars, events, None),
            Err(e) => (Vec::new(), Vec::new(), Some(e)),
        };
        GlobalMemory {
            nodes: state.nodes,
            vars,
            events,
            misshapen,
            caw_audit: state.caw_audit.map(|v| v.into_iter().collect()),
            free_vars: state.free_vars.into_iter().rev().collect(),
        }
    }
}

/// Serializable image of a [`GlobalMemory`], produced by
/// [`GlobalMemory::export_state`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryState {
    /// Number of nodes.
    pub nodes: u32,
    /// `vars[node][var]` values.
    pub vars: Vec<Vec<i64>>,
    /// `events[node][event]` signal instants.
    pub events: Vec<Vec<Option<SimTime>>>,
    /// The CAW audit trail in var order, `None` when auditing is off.
    pub caw_audit: Option<Vec<(u32, CawAudit)>>,
    /// Freed variable ids awaiting reuse, ascending.
    pub free_vars: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CmpOp;

    #[test]
    fn allocation_is_global() {
        let mut m = GlobalMemory::new(4);
        let v = m.alloc_var(7);
        for n in 0..4 {
            assert_eq!(m.read(NodeId(n), v), 7);
        }
        let e = m.alloc_event();
        for n in 0..4 {
            assert!(!m.event_signalled(NodeId(n), e, SimTime::MAX));
        }
    }

    #[test]
    fn ids_are_stable_across_nodes() {
        let mut m = GlobalMemory::new(3);
        let a = m.alloc_var(1);
        let b = m.alloc_var(2);
        assert_ne!(a, b);
        m.write(NodeId(2), b, 99);
        assert_eq!(m.read(NodeId(2), b), 99);
        assert_eq!(m.read(NodeId(0), b), 2);
        assert_eq!(m.read(NodeId(2), a), 1);
    }

    #[test]
    fn set_writes_and_gather() {
        let mut m = GlobalMemory::new(8);
        let v = m.alloc_var(0);
        let set = NodeSet::Range { start: 2, len: 3 };
        m.write_set(&set, v, 5);
        assert_eq!(m.gather(&NodeSet::All(8), v), vec![0, 0, 5, 5, 5, 0, 0, 0]);
        assert_eq!(m.gather(&set, v), vec![5, 5, 5]);
    }

    #[test]
    fn events_become_visible_at_their_timestamp() {
        let mut m = GlobalMemory::new(4);
        let e = m.alloc_event();
        let at = SimTime::from_millis(10);
        m.signal_set(&NodeSet::All(4), e, at);
        // Not yet visible before the signal instant…
        assert!(!m.event_signalled(NodeId(3), e, SimTime::from_millis(9)));
        // …visible at and after it.
        assert!(m.event_signalled(NodeId(3), e, at));
        assert!(m.event_signalled(NodeId(3), e, SimTime::from_millis(11)));
        assert_eq!(m.signalled_at(NodeId(3), e), Some(at));
        m.clear_event(NodeId(3), e);
        assert!(!m.event_signalled(NodeId(3), e, SimTime::from_secs(1)));
        assert!(m.event_signalled(NodeId(2), e, at));
    }

    #[test]
    fn re_signalling_keeps_earliest_timestamp() {
        let mut m = GlobalMemory::new(1);
        let e = m.alloc_event();
        m.signal(NodeId(0), e, SimTime::from_millis(5));
        m.signal(NodeId(0), e, SimTime::from_millis(3));
        assert_eq!(m.signalled_at(NodeId(0), e), Some(SimTime::from_millis(3)));
        m.signal(NodeId(0), e, SimTime::from_millis(8));
        assert_eq!(m.signalled_at(NodeId(0), e), Some(SimTime::from_millis(3)));
    }

    #[test]
    fn add_accumulates() {
        let mut m = GlobalMemory::new(2);
        let v = m.alloc_var(10);
        assert_eq!(m.add(NodeId(1), v, 5), 15);
        assert_eq!(m.add(NodeId(1), v, -3), 12);
        assert_eq!(m.read(NodeId(0), v), 10);
    }

    #[test]
    fn caw_audit_records_and_retires() {
        let mut m = GlobalMemory::new(4);
        let v = m.alloc_var(0);
        // Disabled by default: set writes leave no trail.
        m.write_set(&NodeSet::All(4), v, 1);
        assert_eq!(m.caw_audits().count(), 0);
        m.enable_caw_audit();
        m.enable_caw_audit(); // idempotent
        m.write_set(&NodeSet::All(4), v, 2);
        let (var, audit) = m.caw_audits().next().unwrap();
        assert_eq!((var, audit.value), (v, 2));
        // `add` is a per-node write: it retires the entry.
        m.add(NodeId(3), v, 1);
        assert_eq!(m.caw_audits().count(), 0);
        // A newer set write replaces an older audit for the same var.
        m.write_set(&NodeSet::All(4), v, 7);
        m.write_set(&NodeSet::Range { start: 0, len: 2 }, v, 9);
        let audits: Vec<_> = m.caw_audits().collect();
        assert_eq!(audits.len(), 1);
        assert_eq!(audits[0].1.value, 9);
    }

    #[test]
    fn freed_variables_are_reused_lowest_first_and_reset() {
        let mut m = GlobalMemory::new(3);
        let vars: Vec<VarId> = (0..4).map(|_| m.alloc_var(0)).collect();
        m.enable_caw_audit();
        m.write_set(&NodeSet::All(3), vars[1], 9);
        m.add(NodeId(2), vars[3], 5);
        m.free_var(vars[3]);
        m.free_var(vars[1]);
        assert_eq!(m.free_vars().collect::<Vec<_>>(), [vars[1], vars[3]]);
        // The lowest free id comes back first, at its new initial value
        // on every node, with its audit entry retired.
        assert_eq!(m.alloc_var(7), vars[1]);
        assert_eq!(m.gather(&NodeSet::All(3), vars[1]), vec![7, 7, 7]);
        assert_eq!(m.caw_audits().count(), 0);
        assert_eq!(m.alloc_var(0), vars[3]);
        assert_eq!(m.read(NodeId(2), vars[3]), 0);
        // An empty free list grows the rows again.
        assert_eq!(m.alloc_var(0), VarId(4));
        assert_eq!(m.var_count(), 5);
        // The free list survives an export/import round trip.
        m.free_var(vars[0]);
        let back = GlobalMemory::import_state(m.export_state());
        assert_eq!(back.free_vars().collect::<Vec<_>>(), [vars[0]]);
    }

    #[test]
    fn heartbeat_counter_pattern() {
        // The fault-detection idiom: slaves increment a counter, the master
        // checks `counter ≥ round` on all nodes.
        let mut m = GlobalMemory::new(4);
        let hb = m.alloc_var(0);
        let all = NodeSet::All(4);
        for n in 0..4 {
            m.add(NodeId(n), hb, 1);
        }
        assert!(m.gather(&all, hb).iter().all(|&v| CmpOp::Ge.eval(v, 1)));
        // One node misses a beat.
        for n in [0u32, 1, 3] {
            m.add(NodeId(n), hb, 1);
        }
        assert!(!m.gather(&all, hb).iter().all(|&v| CmpOp::Ge.eval(v, 2)));
    }
}
