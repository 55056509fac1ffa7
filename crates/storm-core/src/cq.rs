//! Continuous queries: registerable predicates over cluster state,
//! evaluated at every timeslice boundary by the active Machine Manager.
//!
//! A continuous query is a named [`Condition`] — "quarantined nodes above
//! N", "queue depth growing for K consecutive slices" — checked against a
//! [`ClusterSample`] taken at each MM tick. When a condition holds, the
//! query fires a deterministic [`Alert`] record into a bounded in-world
//! log and bumps a labelled `cq.alerts` counter in the telemetry
//! registry.
//!
//! # Determinism and the zero-cost contract
//!
//! Evaluation is plain integer bookkeeping over the sample: it posts no
//! simulation events, draws no randomness, and never touches the trace,
//! so a run with queries registered has the same interleaving digest,
//! trace, and scheduling behaviour as the same run without them — alerts
//! are an observation, not an intervention. With **no** queries
//! registered the boundary hook is a single `is_empty()` branch: the run
//! is byte-identical to a build that never heard of continuous queries
//! (asserted in `tests/determinism.rs`).
//!
//! The full registry state (query definitions, growth streaks, the alert
//! log) is plain data and rides along in [`crate::checkpoint`] artifacts,
//! so a restored run raises exactly the alerts the uninterrupted run
//! would have.

use storm_sim::SimTime;
use storm_telemetry::MetricsRegistry;

/// Default bound on the in-world alert log.
pub const DEFAULT_ALERT_CAP: usize = 1024;

/// A predicate over a [`ClusterSample`], checked at each timeslice
/// boundary. All thresholds are strict ("above" means `>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Condition {
    /// More than this many nodes quarantined.
    QuarantinedAbove(u32),
    /// More than this many jobs waiting in the MM queue.
    QueueDepthAbove(u64),
    /// Queue depth strictly grew at each of the last K boundaries.
    QueueDepthGrowingFor(u32),
    /// More than this many nodes currently failed.
    FailedNodesAbove(u32),
    /// More than this many jobs in the `Running` state.
    RunningJobsAbove(u32),
    /// Fewer than this many nodes alive (not failed, not quarantined).
    AliveNodesBelow(u32),
}

/// A point-in-time summary of cluster state, taken at a timeslice
/// boundary and fed to every registered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSample {
    /// Timeslice (MM tick) counter at the boundary.
    pub slice: u64,
    /// Simulated instant of the boundary.
    pub now: SimTime,
    /// Jobs waiting in the MM queue.
    pub queue_depth: u64,
    /// Nodes currently quarantined.
    pub quarantined: u32,
    /// Nodes currently failed.
    pub failed_nodes: u32,
    /// Nodes neither failed nor quarantined.
    pub alive_nodes: u32,
    /// Jobs in the `Running` state.
    pub running_jobs: u32,
}

/// A single firing of a continuous query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Timeslice at which the query fired.
    pub slice: u64,
    /// Simulated instant of the firing boundary.
    pub at: SimTime,
    /// Name the query was registered under.
    pub query: String,
    /// The observed value that satisfied the condition (e.g. the
    /// quarantined count, the queue depth).
    pub observed: u64,
}

/// A registered query plus its evaluation state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContinuousQuery {
    /// Registration name; labels the alert records and the telemetry
    /// counter.
    pub name: String,
    /// The predicate.
    pub cond: Condition,
    /// Queue depth seen at the previous boundary (growth tracking).
    pub(crate) last_depth: Option<u64>,
    /// Consecutive boundaries with strictly growing queue depth.
    pub(crate) streak: u32,
    /// Total boundaries at which this query fired.
    pub firings: u64,
}

impl ContinuousQuery {
    /// Returns `(fired, observed)` and updates growth-tracking state.
    fn check(&mut self, s: &ClusterSample) -> (bool, u64) {
        match self.cond {
            Condition::QuarantinedAbove(n) => (s.quarantined > n, u64::from(s.quarantined)),
            Condition::QueueDepthAbove(n) => (s.queue_depth > n, s.queue_depth),
            Condition::QueueDepthGrowingFor(k) => {
                let grew = self.last_depth.is_some_and(|prev| s.queue_depth > prev);
                self.streak = if grew { self.streak + 1 } else { 0 };
                self.last_depth = Some(s.queue_depth);
                (k > 0 && self.streak >= k, s.queue_depth)
            }
            Condition::FailedNodesAbove(n) => (s.failed_nodes > n, u64::from(s.failed_nodes)),
            Condition::RunningJobsAbove(n) => (s.running_jobs > n, u64::from(s.running_jobs)),
            Condition::AliveNodesBelow(n) => (s.alive_nodes < n, u64::from(s.alive_nodes)),
        }
    }
}

/// The in-world continuous-query registry: the queries plus the bounded
/// alert log they fire into.
#[derive(Debug)]
pub struct ContinuousQueries {
    pub(crate) queries: Vec<ContinuousQuery>,
    pub(crate) alerts: Vec<Alert>,
    pub(crate) cap: usize,
    pub(crate) dropped: u64,
}

impl Default for ContinuousQueries {
    fn default() -> Self {
        Self::new()
    }
}

impl ContinuousQueries {
    /// An empty registry with the default alert-log bound.
    pub fn new() -> Self {
        Self {
            queries: Vec::new(),
            alerts: Vec::new(),
            cap: DEFAULT_ALERT_CAP,
            dropped: 0,
        }
    }

    /// Register a named query. Evaluation starts at the next timeslice
    /// boundary; names need not be unique (each registration fires its
    /// own alerts).
    pub fn register(&mut self, name: impl Into<String>, cond: Condition) {
        self.queries.push(ContinuousQuery {
            name: name.into(),
            cond,
            last_depth: None,
            streak: 0,
            firings: 0,
        });
    }

    /// True when no queries are registered — the boundary hook's fast
    /// path.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The registered queries, in registration order.
    pub fn queries(&self) -> &[ContinuousQuery] {
        &self.queries
    }

    /// The alert log, oldest first, capped at [`Self::capacity`].
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Alert-log bound; alerts past it are counted, not stored.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Change the alert-log bound (existing entries are kept even if
    /// over the new bound; only future alerts are gated).
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap;
    }

    /// Alerts dropped because the log was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Evaluate every query against one boundary sample, appending alert
    /// records and bumping the labelled `cq.alerts` telemetry counter
    /// for each firing.
    pub fn evaluate(&mut self, s: &ClusterSample, metrics: &mut MetricsRegistry) {
        for q in &mut self.queries {
            let (fired, observed) = q.check(s);
            if fired {
                q.firings += 1;
                metrics.inc_with("cq.alerts", vec![("query", q.name.clone())], 1);
                if self.alerts.len() < self.cap {
                    self.alerts.push(Alert {
                        slice: s.slice,
                        at: s.now,
                        query: q.name.clone(),
                        observed,
                    });
                } else {
                    self.dropped += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(slice: u64, depth: u64, quarantined: u32) -> ClusterSample {
        ClusterSample {
            slice,
            now: SimTime::from_nanos(slice * 1_000),
            queue_depth: depth,
            quarantined,
            failed_nodes: 0,
            alive_nodes: 32 - quarantined,
            running_jobs: 0,
        }
    }

    #[test]
    fn threshold_queries_fire_and_log() {
        let mut cq = ContinuousQueries::new();
        let mut m = MetricsRegistry::new(true);
        cq.register("quarantine-watch", Condition::QuarantinedAbove(2));
        cq.evaluate(&sample(1, 0, 2), &mut m); // not strict-above
        cq.evaluate(&sample(2, 0, 3), &mut m);
        assert_eq!(cq.alerts().len(), 1);
        assert_eq!(cq.alerts()[0].query, "quarantine-watch");
        assert_eq!(cq.alerts()[0].observed, 3);
        assert_eq!(cq.alerts()[0].slice, 2);
        assert_eq!(cq.queries()[0].firings, 1);
    }

    #[test]
    fn growth_query_needs_consecutive_growth() {
        let mut cq = ContinuousQueries::new();
        let mut m = MetricsRegistry::new(false);
        cq.register("backlog", Condition::QueueDepthGrowingFor(2));
        for (slice, depth) in [(1, 5), (2, 6), (3, 7), (4, 7), (5, 8), (6, 9)] {
            cq.evaluate(&sample(slice, depth, 0), &mut m);
        }
        // Streak reaches 2 at slice 3, breaks at slice 4 (flat), and
        // reaches 2 again at slice 6.
        let slices: Vec<u64> = cq.alerts().iter().map(|a| a.slice).collect();
        assert_eq!(slices, vec![3, 6]);
    }

    #[test]
    fn alert_log_is_bounded() {
        let mut cq = ContinuousQueries::new();
        let mut m = MetricsRegistry::new(false);
        cq.set_capacity(3);
        cq.register("always", Condition::QueueDepthAbove(0));
        for slice in 1..=10 {
            cq.evaluate(&sample(slice, 1, 0), &mut m);
        }
        assert_eq!(cq.alerts().len(), 3);
        assert_eq!(cq.dropped(), 7);
        assert_eq!(cq.queries()[0].firings, 10);
    }
}
