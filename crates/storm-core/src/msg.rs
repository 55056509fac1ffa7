//! The message vocabulary exchanged by the STORM dæmons inside the
//! simulation.
//!
//! Every arrow in the paper's protocol diagrams is one of these variants:
//! the MM's timeslice tick, the chunked-transfer events, the strobe that
//! enacts a coordinated context switch, launch commands, fork/exit
//! notifications, and the heartbeat used for fault detection.
//!
//! ## Attempt tagging
//!
//! Job-scoped messages carry the job's *attempt* counter (bumped each time
//! the failure-recovery policy requeues the job). A message whose attempt
//! does not match the job record's current attempt is from a previous
//! incarnation — still in flight when the node failure was detected — and
//! is dropped by the receiver, so a retried job can never be corrupted by
//! its own ghost.

use crate::job::JobId;
use crate::replica::{Decision, MmCoreState};
use storm_sim::SimTime;

/// What a Node Manager reports to the Machine Manager (buffered locally and
/// flushed at event-collection boundaries — "the MM can … receive the
/// notification of events only at the beginning of a timeslice").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportKind {
    /// All local ranks of the job have been forked and are running.
    Started,
    /// All local ranks of the job have exited; payload is the instant the
    /// last local rank exited.
    Done {
        /// When the last local rank exited on this node.
        app_done: SimTime,
    },
}

/// All simulation messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    // ---------------------------------------------------------------- MM —
    /// A job (pre-registered in the world) has been submitted.
    Submit(JobId),
    /// Timeslice boundary: rotate the gang matrix, run the scheduling
    /// policy, issue launch commands, run fault-detection rounds.
    Tick,
    /// The filesystem finished reading one chunk of a job's binary.
    ReadDone {
        /// Which job's transfer.
        job: JobId,
        /// Chunk index.
        chunk: u32,
        /// Launch attempt this read belongs to.
        attempt: u32,
    },
    /// The source NIC/helper finished broadcasting a chunk (source buffer
    /// freed; next broadcast/read may proceed).
    BcastFreed {
        /// Which job's transfer.
        job: JobId,
        /// Chunk index.
        chunk: u32,
        /// Launch attempt this broadcast belongs to.
        attempt: u32,
    },
    /// Retry the COMPARE-AND-WRITE flow-control check for a transfer that
    /// was blocked on a full remote receive queue.
    FlowPoll {
        /// Which job's transfer.
        job: JobId,
        /// Launch attempt this poll belongs to.
        attempt: u32,
    },
    /// A Node Manager's buffered report, flushed at a collection boundary.
    NmReport {
        /// Reporting node.
        node: u32,
        /// Subject job.
        job: JobId,
        /// What happened.
        kind: ReportKind,
        /// Launch attempt the report refers to.
        attempt: u32,
    },
    /// Kill a job (used to stop the endless hog programs).
    Kill(JobId),
    /// Re-admit a previously-evicted job to the queue after its
    /// failure-recovery backoff elapsed.
    RequeueJob(JobId),

    // ---------------------------------------------------------------- NM —
    /// One broadcast fragment of a job's binary arrived on this node.
    Fragment {
        /// Which job's transfer.
        job: JobId,
        /// Chunk index.
        chunk: u32,
        /// Launch attempt this fragment belongs to.
        attempt: u32,
    },
    /// The local RAM-disk write of a fragment completed.
    WriteDone {
        /// Which job's transfer.
        job: JobId,
        /// Chunk index.
        chunk: u32,
        /// Launch attempt this write belongs to.
        attempt: u32,
    },
    /// Launch command: fork this job's local ranks.
    LaunchCmd {
        /// Subject job.
        job: JobId,
        /// Launch attempt being started.
        attempt: u32,
    },
    /// The coordinated context-switch strobe: slot `slot` becomes active.
    Strobe {
        /// Newly active matrix time slot.
        slot: u32,
        /// MM epoch the strobe was issued in; nodes drop strobes from a
        /// fenced-off (stale) epoch.
        epoch: u64,
    },
    /// Fault-detection heartbeat (round counter).
    Heartbeat {
        /// Monotonic round number.
        round: i64,
        /// MM epoch the round was issued in; stale-epoch rounds are dropped.
        epoch: u64,
    },
    /// A Program Launcher finished forking a rank.
    ForkDone {
        /// Subject job.
        job: JobId,
        /// PL index on this node.
        pl: u32,
        /// Launch attempt the fork belongs to.
        attempt: u32,
    },
    /// A Program Launcher's application process exited (do-nothing jobs).
    PlExited {
        /// Subject job.
        job: JobId,
        /// PL index on this node.
        pl: u32,
        /// Launch attempt the exit belongs to.
        attempt: u32,
    },
    /// Injected node failure: this NM stops responding to everything.
    FailNode,
    /// Injected node revival: the NM comes back with empty local state; the
    /// MM re-admits the node once heartbeats show it caught up.
    RejoinNode,
    /// Injected dæmon stall: defer all message processing until `until`.
    StallNode {
        /// Instant processing resumes.
        until: SimTime,
    },
    /// Flush buffered reports to the MM (self-message at a collection
    /// boundary).
    FlushReports,
    /// Post-failover resynchronisation: the newly promoted MM (epoch
    /// `epoch`) asks every node to clear buffered reports and re-announce
    /// the status of each locally known job incarnation.
    Resync {
        /// The promoting MM's epoch.
        epoch: u64,
    },

    // ------------------------------------------------------- replication —
    /// Active-MM liveness beat to a standby (replication plane).
    MmBeat {
        /// The sender's epoch.
        epoch: u64,
    },
    /// Standby self-timer: check whether the active MM's beats stopped and
    /// promote if this replica is the deterministic successor.
    MmWatchdog,
    /// Injected MM crash: this replica stops participating.
    MmFail,
    /// One replicated scheduling decision, shipped in sequence order.
    ReplLog {
        /// The sender's epoch.
        epoch: u64,
        /// Log sequence number of this record (0-based).
        seq: u64,
        /// The decision itself.
        decision: Decision,
    },
    /// A checkpoint of the active MM's log position and digest.
    ReplCheckpoint {
        /// The sender's epoch.
        epoch: u64,
        /// The sender's replicated state.
        state: MmCoreState,
    },

    // ---------------------------------------------------------------- PL —
    /// Fork one rank of this job.
    Fork {
        /// Subject job.
        job: JobId,
        /// Launch attempt being forked.
        attempt: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::Msg;

    #[test]
    fn a_replication_checkpoint_fits_inline() {
        // `ReplCheckpoint` carries its log position and digest unboxed and
        // is no larger than the other variants: every queued event's
        // payload slot stays 40 bytes.
        assert_eq!(std::mem::size_of::<Msg>(), 40);
    }
}
