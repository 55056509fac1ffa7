//! Jobs: specifications, lifecycle state, allocations and metrics.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use storm_apps::{AppSpec, Workload};
use storm_mech::NodeSet;
use storm_sim::{SimSpan, SimTime};

/// Identifies a job within one cluster (dense index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl JobId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// What a user submits.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable name (defaults to the application name). Shared, so
    /// cloning a spec allocates nothing.
    pub name: Arc<str>,
    /// The application to run.
    pub app: AppSpec,
    /// Total processes (one per PE, one-to-one mapping).
    pub ranks: u32,
    /// Cap on ranks per node (defaults to the node's CPU count). The §3.2
    /// experiments place 2 ranks per 4-CPU node (32 nodes / 64 PEs).
    pub max_ranks_per_node: Option<u32>,
    /// User-supplied runtime estimate — required by the EASY-backfill
    /// policy, ignored by the others.
    pub runtime_estimate: Option<SimSpan>,
}

impl JobSpec {
    /// A job running `app` with `ranks` processes.
    pub fn new(app: AppSpec, ranks: u32) -> Self {
        assert!(ranks > 0, "a job needs at least one rank");
        JobSpec {
            name: Arc::from(app.name()),
            app,
            ranks,
            max_ranks_per_node: None,
            runtime_estimate: None,
        }
    }

    /// Builder: cap ranks per node (e.g. 2 for the paper's 32-node / 64-PE
    /// gang-scheduling runs).
    pub fn with_ranks_per_node(mut self, rpn: u32) -> Self {
        assert!(rpn > 0);
        self.max_ranks_per_node = Some(rpn);
        self
    }

    /// Builder: set a name.
    pub fn named(mut self, name: impl Into<Arc<str>>) -> Self {
        self.name = name.into();
        self
    }

    /// Builder: set a runtime estimate (for backfilling).
    pub fn with_estimate(mut self, est: SimSpan) -> Self {
        self.runtime_estimate = Some(est);
        self
    }

    /// Ranks placed per node given a node CPU count.
    pub fn ranks_per_node(&self, cpus_per_node: u32) -> u32 {
        self.max_ranks_per_node
            .unwrap_or(cpus_per_node)
            .min(cpus_per_node)
            .max(1)
    }

    /// Nodes this job needs given a node CPU count.
    pub fn nodes_needed(&self, cpus_per_node: u32) -> u32 {
        self.ranks.div_ceil(self.ranks_per_node(cpus_per_node))
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, waiting for processors.
    Queued,
    /// Allocated; binary image being transferred.
    Transferring,
    /// Transfer done; launch command sent, ranks forking.
    Launching,
    /// All ranks running (being gang-scheduled).
    Running,
    /// All ranks exited and the MM has collected every node's report.
    Completed,
    /// Killed by request (hog programs are stopped this way).
    Killed,
    /// Lost to a node failure.
    Failed,
}

impl JobState {
    /// Terminal states.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Killed | JobState::Failed
        )
    }
}

/// Where a job was placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Matrix time slot.
    pub slot: usize,
    /// Contiguous node range (buddy block).
    pub nodes: Range<u32>,
    /// Ranks per node, final node may have fewer (`ranks_on`).
    pub ranks_per_node: u32,
    /// Total ranks.
    pub ranks: u32,
}

impl Allocation {
    /// How many ranks land on `node` (0 if outside the range).
    pub fn ranks_on(&self, node: u32) -> u32 {
        if !self.nodes.contains(&node) {
            return 0;
        }
        let offset = node - self.nodes.start;
        let before = offset * self.ranks_per_node;
        self.ranks.saturating_sub(before).min(self.ranks_per_node)
    }

    /// The allocated block as a node set: what the MM's fragment, launch
    /// and flow-control multicasts for the job address.
    pub fn node_set(&self) -> NodeSet {
        NodeSet::Range {
            start: self.nodes.start,
            len: self.node_count(),
        }
    }

    /// Number of allocated nodes (the full buddy block, which may exceed
    /// the nodes that actually host ranks — buddy allocation rounds up to
    /// powers of two).
    pub fn node_count(&self) -> u32 {
        self.nodes.end - self.nodes.start
    }

    /// Number of nodes that actually host at least one rank. Launch/
    /// termination reports are counted against this — the block's rounding
    /// tail has nothing to fork and nothing to report.
    pub fn active_node_count(&self) -> u32 {
        self.ranks
            .div_ceil(self.ranks_per_node.max(1))
            .min(self.node_count())
    }
}

/// Timestamps the paper's launch-time breakdown uses (§3.1, §3.3.1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobMetrics {
    /// Submission instant.
    pub submitted: Option<SimTime>,
    /// The MM tick at which the binary transfer began (chunk 0 read issued).
    pub transfer_start: Option<SimTime>,
    /// The MM tick at which the MM learned every node had written every
    /// fragment ("… + notifying the MM").
    pub transfer_done: Option<SimTime>,
    /// When the launch command was broadcast.
    pub launch_cmd: Option<SimTime>,
    /// When the MM learned all ranks were running.
    pub started: Option<SimTime>,
    /// When the last rank actually exited (application-level completion).
    pub app_done: Option<SimTime>,
    /// The MM tick at which every node's termination report was collected.
    pub completed: Option<SimTime>,
}

impl JobMetrics {
    /// The paper's "send" time: read + broadcast + write + notify-MM.
    pub fn send_span(&self) -> Option<SimSpan> {
        Some(self.transfer_done?.since(self.transfer_start?))
    }

    /// The paper's "execute" time: launch command + fork + termination wait
    /// + report back to the MM.
    pub fn execute_span(&self) -> Option<SimSpan> {
        Some(self.completed?.since(self.launch_cmd?))
    }

    /// Total launch time: send + execute.
    pub fn total_launch_span(&self) -> Option<SimSpan> {
        Some(self.completed?.since(self.transfer_start?))
    }

    /// Queued-to-completed turnaround.
    pub fn turnaround(&self) -> Option<SimSpan> {
        Some(self.completed?.since(self.submitted?))
    }

    /// Submission-to-start wait (queueing + transfer + fork).
    pub fn wait_span(&self) -> Option<SimSpan> {
        Some(self.started?.since(self.submitted?))
    }

    /// The lifecycle phases this record can attest to, in pipeline order:
    /// `queue_wait` (submit → allocation + transfer start), `send_pipeline`
    /// (the §3.1 read/broadcast/write fill + drain), `launch_sync`
    /// (transfer confirmed → launch command), `fork` (launch command →
    /// all ranks running), `execute` (running → last rank exit), and
    /// `collect` (exit → all termination reports gathered). Phases whose
    /// boundary timestamps were never recorded (e.g. a job failed before
    /// launch) are omitted.
    pub fn phase_breakdown(&self) -> Vec<(&'static str, SimTime, SimTime)> {
        let boundaries = [
            ("queue_wait", self.submitted, self.transfer_start),
            ("send_pipeline", self.transfer_start, self.transfer_done),
            ("launch_sync", self.transfer_done, self.launch_cmd),
            ("fork", self.launch_cmd, self.started),
            ("execute", self.started, self.app_done),
            ("collect", self.app_done, self.completed),
        ];
        boundaries
            .iter()
            .filter_map(|&(name, start, end)| match (start, end) {
                (Some(s), Some(e)) if e >= s => Some((name, s, e)),
                _ => None,
            })
            .collect()
    }
}

/// Everything the cluster tracks about one job (lives in the shared world).
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job's id.
    pub id: JobId,
    /// The submitted specification.
    pub spec: JobSpec,
    /// Current state.
    pub state: JobState,
    /// Placement, once allocated.
    pub allocation: Option<Allocation>,
    /// The instantiated workload (filled at allocation). Kept after the
    /// job finishes: a fork still in flight reads whether it is empty.
    pub workload: Workload,
    /// Timestamps.
    pub metrics: JobMetrics,
    /// Transfer bookkeeping (see `mm`). Kept after the job finishes, but
    /// for its flow-control variable: a fragment still in flight reads its
    /// chunk size.
    pub transfer: TransferState,
    /// Nodes whose "all local ranks forked" report has arrived this
    /// attempt, each counted once: after an MM failover the resync
    /// protocol makes nodes re-announce, and duplicates must not
    /// double-count. Emptied when the job finishes.
    pub reported_started: ReportSet,
    /// Nodes whose "all local ranks exited" report has arrived this
    /// attempt.
    pub reported_done: ReportSet,
    /// When the final flow-control COMPARE-AND-WRITE confirmed all
    /// fragments written everywhere (the MM records `transfer_done` at the
    /// following collection boundary).
    pub transfer_confirmed: Option<SimTime>,
    /// Latest application-exit instant reported by any node.
    pub app_done_max: Option<SimTime>,
    /// Launch attempt counter: bumped each time the failure-recovery policy
    /// requeues the job, so it is also the job's retry count. Job-scoped
    /// messages carry the attempt they belong to; mismatches are stale
    /// in-flight traffic and are dropped.
    pub attempt: u32,
}

impl JobRecord {
    /// A fresh queued record.
    pub fn new(id: JobId, spec: JobSpec) -> Self {
        JobRecord {
            id,
            spec,
            state: JobState::Queued,
            allocation: None,
            workload: Workload::empty(),
            metrics: JobMetrics::default(),
            transfer: TransferState::default(),
            reported_started: ReportSet::default(),
            reported_done: ReportSet::default(),
            transfer_confirmed: None,
            app_done_max: None,
            attempt: 0,
        }
    }

    /// The allocation, panicking if not yet placed (internal invariant).
    pub fn alloc(&self) -> &Allocation {
        self.allocation.as_ref().expect("job not allocated")
    }

    /// Reset the record back to a clean queued state for a retry after a
    /// node failure: the allocation, workload, transfer and report state
    /// are discarded, the attempt counter is bumped (so in-flight messages
    /// from the lost incarnation are dropped on arrival), and only the
    /// original submission timestamp is kept — the completion metrics then
    /// describe the attempt that finally succeeded.
    pub fn reset_for_retry(&mut self) {
        self.state = JobState::Queued;
        self.allocation = None;
        self.workload = Workload::empty();
        self.transfer = TransferState::default();
        self.reported_started = ReportSet::default();
        self.reported_done = ReportSet::default();
        self.transfer_confirmed = None;
        self.app_done_max = None;
        self.attempt += 1;
        self.metrics = JobMetrics {
            submitted: self.metrics.submitted,
            ..JobMetrics::default()
        };
    }
}

/// A set of node ids, as a bitmap of 64-node words that starts at the
/// word of the lowest node inserted, plus its member count. A job's
/// reports come from its own allocation, so the set is as wide as the
/// job, not the cluster, and insert, lookup and `len` are O(1); a node
/// below every earlier one shifts the words once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReportSet {
    /// The node of bit 0 of `words[0]`, a multiple of 64.
    base: u32,
    words: Vec<u64>,
    len: u32,
}

impl ReportSet {
    /// Add `node`; `true` when it was not in the set yet.
    pub fn insert(&mut self, node: u32) -> bool {
        let floor = node & !63;
        if self.words.is_empty() {
            self.base = floor;
        } else if floor < self.base {
            let shift = ((self.base - floor) / 64) as usize;
            self.words.splice(0..0, std::iter::repeat_n(0, shift));
            self.base = floor;
        }
        let offset = (node - self.base) as usize;
        let (word, bit) = (offset / 64, 1u64 << (offset % 64));
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        self.len += u32::from(fresh);
        fresh
    }

    /// How many nodes the set holds.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when no node has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The nodes, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(move |(i, &word)| {
            let base = u64::from(self.base) + 64 * i as u64;
            // Each step clears the lowest set bit.
            std::iter::successors((word != 0).then_some(word), |&w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| (base + u64::from(w.trailing_zeros())) as u32)
        })
    }
}

/// State of the chunked broadcast transfer for one job.
#[derive(Debug, Clone, Default)]
pub struct TransferState {
    /// Total chunks.
    pub total_chunks: u32,
    /// Size of the final (possibly short) chunk in bytes.
    pub last_chunk_bytes: u64,
    /// Next chunk index to read.
    pub next_read: u32,
    /// Chunks fully read, ready (or already gone) to broadcast.
    pub chunks_read: u32,
    /// Next chunk index to broadcast.
    pub next_bcast: u32,
    /// Whether a read is currently in flight.
    pub read_busy: bool,
    /// Whether the source NIC/helper is currently broadcasting this job's
    /// chunk.
    pub bcast_busy: bool,
    /// Whether a flow-control re-poll is already scheduled (avoids poll
    /// storms).
    pub poll_pending: bool,
    /// COMPARE-AND-WRITE flow-control var: per-node count of fragments
    /// written (allocated at transfer start).
    pub written_var: Option<storm_mech::VarId>,
}

impl TransferState {
    /// Bytes of chunk `idx` (the last chunk may be short).
    pub fn chunk_bytes(&self, idx: u32, chunk_size: u64) -> u64 {
        if idx + 1 == self.total_chunks && self.last_chunk_bytes > 0 {
            self.last_chunk_bytes
        } else {
            chunk_size
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_rank_distribution() {
        // 10 ranks on nodes 4..8 with up to 4 per node: 4,4,2,0.
        let a = Allocation {
            slot: 0,
            nodes: 4..8,
            ranks_per_node: 4,
            ranks: 10,
        };
        assert_eq!(a.ranks_on(4), 4);
        assert_eq!(a.ranks_on(5), 4);
        assert_eq!(a.ranks_on(6), 2);
        assert_eq!(a.ranks_on(7), 0);
        assert_eq!(a.ranks_on(3), 0);
        assert_eq!(a.ranks_on(8), 0);
        assert_eq!(a.node_count(), 4);
        let total: u32 = (0..12).map(|n| a.ranks_on(n)).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn metrics_spans() {
        let mut m = JobMetrics::default();
        assert_eq!(m.send_span(), None);
        m.submitted = Some(SimTime::ZERO);
        m.transfer_start = Some(SimTime::from_millis(1));
        m.transfer_done = Some(SimTime::from_millis(97));
        m.launch_cmd = Some(SimTime::from_millis(98));
        m.started = Some(SimTime::from_millis(100));
        m.completed = Some(SimTime::from_millis(110));
        assert_eq!(m.send_span().unwrap(), SimSpan::from_millis(96));
        assert_eq!(m.execute_span().unwrap(), SimSpan::from_millis(12));
        assert_eq!(m.total_launch_span().unwrap(), SimSpan::from_millis(109));
        assert_eq!(m.turnaround().unwrap(), SimSpan::from_millis(110));
        assert_eq!(m.wait_span().unwrap(), SimSpan::from_millis(100));
    }

    #[test]
    fn phase_breakdown_skips_unknown_boundaries() {
        let mut m = JobMetrics::default();
        assert!(m.phase_breakdown().is_empty());
        m.submitted = Some(SimTime::ZERO);
        m.transfer_start = Some(SimTime::from_millis(1));
        m.transfer_done = Some(SimTime::from_millis(97));
        // launch_cmd/started never recorded: launch_sync and fork are
        // omitted; so are execute and collect.
        m.app_done = Some(SimTime::from_millis(105));
        m.completed = Some(SimTime::from_millis(110));
        let phases = m.phase_breakdown();
        let names: Vec<_> = phases.iter().map(|p| p.0).collect();
        assert_eq!(names, ["queue_wait", "send_pipeline", "collect"]);
        assert_eq!(
            phases[1],
            (
                "send_pipeline",
                SimTime::from_millis(1),
                SimTime::from_millis(97)
            )
        );
    }

    #[test]
    fn chunking_math() {
        let t = TransferState {
            total_chunks: 24,
            last_chunk_bytes: 0, // 12 MB divides evenly by 512 KB? 12e6/524288 = 22.9 — no; see mm tests
            ..Default::default()
        };
        assert_eq!(t.chunk_bytes(0, 524_288), 524_288);
        assert_eq!(t.chunk_bytes(23, 524_288), 524_288);
        let t2 = TransferState {
            total_chunks: 3,
            last_chunk_bytes: 100,
            ..Default::default()
        };
        assert_eq!(t2.chunk_bytes(2, 1000), 100);
        assert_eq!(t2.chunk_bytes(1, 1000), 1000);
    }

    #[test]
    fn job_state_terminality() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Completed.is_terminal());
        assert!(JobState::Killed.is_terminal());
        assert!(JobState::Failed.is_terminal());
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_rank_job_rejected() {
        JobSpec::new(AppSpec::do_nothing_mb(4), 0);
    }

    #[test]
    fn reset_for_retry_keeps_only_submission() {
        let mut rec = JobRecord::new(JobId(0), JobSpec::new(AppSpec::do_nothing_mb(4), 8));
        rec.state = JobState::Transferring;
        rec.metrics.submitted = Some(SimTime::from_millis(1));
        rec.metrics.transfer_start = Some(SimTime::from_millis(2));
        rec.allocation = Some(Allocation {
            slot: 0,
            nodes: 0..2,
            ranks_per_node: 4,
            ranks: 8,
        });
        rec.reported_started.insert(1);
        rec.transfer.total_chunks = 8;
        rec.reset_for_retry();
        assert_eq!(rec.state, JobState::Queued);
        assert!(rec.allocation.is_none());
        assert!(rec.reported_started.is_empty());
        assert_eq!(rec.transfer.total_chunks, 0);
        assert_eq!(rec.metrics.submitted, Some(SimTime::from_millis(1)));
        assert_eq!(rec.metrics.transfer_start, None);
        assert_eq!(rec.attempt, 1);
        rec.reset_for_retry();
        assert_eq!(rec.attempt, 2);
    }

    #[test]
    fn report_set_counts_each_node_once_in_any_order() {
        let mut set = ReportSet::default();
        assert_eq!(set.iter().count(), 0);
        // Above, then below the first word (a shift), then far above it.
        for (node, fresh) in [
            (200, true),
            (70, true),
            (200, false),
            (3, true),
            (1000, true),
            (3, false),
        ] {
            assert_eq!(set.insert(node), fresh, "node {node}");
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), [3, 70, 200, 1000]);
        assert_eq!(set.len(), 4);
        let mut top = ReportSet::default();
        assert!(top.insert(u32::MAX));
        assert!(top.insert(u32::MAX - 64));
        assert_eq!(top.iter().collect::<Vec<_>>(), [u32::MAX - 64, u32::MAX]);
    }

    #[test]
    fn spec_builders() {
        let s = JobSpec::new(AppSpec::do_nothing_mb(4), 8)
            .named("probe")
            .with_estimate(SimSpan::from_secs(10));
        assert_eq!(&*s.name, "probe");
        assert_eq!(s.runtime_estimate, Some(SimSpan::from_secs(10)));
        assert_eq!(s.ranks, 8);
    }
}
