//! MM replication: the decision log that standby Machine Managers follow.
//!
//! The paper's MM keeps its scheduling state in the machine's global
//! memory (§2.1). Here that memory is [`crate::World`]: the job queue,
//! the heartbeat round, the quarantine set (the gang matrix's), the active
//! slot and the tick cadence all live there, so a promoted standby reads
//! them the instant it takes over and nothing ships them.
//!
//! What replication carries is the *decision log* ([`Decision`]): the
//! active MM records each scheduling decision and ships it to every live
//! standby in sequence order, plus periodic checkpoints of its log
//! position. A replica's state ([`MmCoreState`]) is that position and a
//! rolling FNV-1a digest of the decisions up to it. A standby applies
//! log records strictly in sequence (`seq == log_len`); anything else is
//! a gap or a duplicate and is counted, not applied. A checkpoint replaces
//! the standby's state wholesale when it is at least as far along. The
//! `repl_consistency` check compares a standby with the active in O(1):
//! never past the active's position, and at the same position with the
//! same digest.

use crate::job::JobId;
use storm_sim::SimTime;

/// Which role an MM replica currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MmRole {
    /// The single MM that schedules, strobes, and heartbeats.
    #[default]
    Active,
    /// A warm replica: applies the decision log, watches for beats.
    Standby,
    /// A dead replica: drops everything except submit trampolining.
    Failed {
        /// When the replica's failure was injected.
        at: SimTime,
    },
}

/// One replicated scheduling decision, shipped from the active MM to every
/// live standby in sequence order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// A job entered the queue for the first time.
    Submit {
        /// The submitted job.
        job: JobId,
    },
    /// A job left the queue and was placed into a matrix slot.
    Place {
        /// The placed job.
        job: JobId,
        /// The timeslice slot it landed in.
        slot: u32,
    },
    /// A previously requeued job was re-admitted to the queue.
    Admit {
        /// The re-admitted job.
        job: JobId,
    },
    /// A launch broadcast went out for this attempt of the job.
    Launch {
        /// The launched job.
        job: JobId,
        /// The attempt (incarnation) number broadcast.
        attempt: u32,
    },
    /// The job reached a terminal Completed state.
    Complete {
        /// The completed job.
        job: JobId,
    },
    /// A retry timer was armed for the job.
    Requeue {
        /// The requeued job.
        job: JobId,
        /// Which retry this is (1-based).
        retry: u32,
    },
    /// A node was declared failed and quarantined.
    Quarantine {
        /// The quarantined node.
        node: u32,
    },
    /// A quarantined node rejoined the membership.
    Rejoin {
        /// The rejoined node.
        node: u32,
    },
    /// The heartbeat round advanced.
    Round {
        /// The new round number.
        round: i64,
    },
    /// The active timeslice slot rotated.
    Slot {
        /// The new active slot.
        slot: u32,
    },
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_step(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A replica's replicated state: how far through the decision log it is,
/// and the digest of the decisions up to there. Equal positions with equal
/// digests mean the replicas applied the same decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmCoreState {
    /// Number of decisions applied.
    pub log_len: u64,
    /// Rolling FNV-1a digest over the encoded decision stream.
    pub digest: u64,
}

impl Default for MmCoreState {
    fn default() -> Self {
        MmCoreState {
            log_len: 0,
            digest: FNV_OFFSET,
        }
    }
}

impl MmCoreState {
    /// Apply one decision: fold its encoding into the digest and count it.
    /// Deterministic and side-effect free: the active MM and every standby
    /// run the exact same function over the exact same sequence, so equal
    /// `log_len` must imply equal `digest`.
    pub fn apply(&mut self, d: &Decision) {
        let (tag, a, b): (u8, u64, u64) = match *d {
            Decision::Submit { job } => (1, u64::from(job.0), 0),
            Decision::Place { job, slot } => (2, u64::from(job.0), u64::from(slot)),
            Decision::Admit { job } => (3, u64::from(job.0), 0),
            Decision::Launch { job, attempt } => (4, u64::from(job.0), u64::from(attempt)),
            Decision::Complete { job } => (5, u64::from(job.0), 0),
            Decision::Requeue { job, retry } => (6, u64::from(job.0), u64::from(retry)),
            Decision::Quarantine { node } => (7, u64::from(node), 0),
            Decision::Rejoin { node } => (8, u64::from(node), 0),
            Decision::Round { round } => (9, round as u64, 0),
            Decision::Slot { slot } => (10, u64::from(slot), 0),
        };
        self.digest = fnv_step(self.digest, &[tag]);
        self.digest = fnv_step(self.digest, &a.to_le_bytes());
        self.digest = fnv_step(self.digest, &b.to_le_bytes());
        self.log_len += 1;
    }
}

/// Replication-plane counters. Kept separate from [`crate::ClusterStats`] so
/// that a standbys-configured, fault-free run stays *byte-identical* to a
/// standby-free run in everything the determinism tests compare.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplStats {
    /// Decision-log records shipped by active MMs.
    pub log_records: u64,
    /// Full checkpoints shipped.
    pub checkpoints: u64,
    /// MM-to-standby liveness beats sent.
    pub beats: u64,
    /// Log records dropped by standbys because a gap preceded them.
    pub log_gaps: u64,
    /// Standby promotions performed.
    pub promotions: u64,
    /// `(rank, at)` for every promotion, in order.
    pub failovers: Vec<(u32, SimTime)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_counts_and_digests_every_decision() {
        let j = JobId(1);
        let every = [
            Decision::Submit { job: j },
            Decision::Place { job: j, slot: 0 },
            Decision::Admit { job: j },
            Decision::Launch { job: j, attempt: 1 },
            Decision::Complete { job: j },
            Decision::Requeue { job: j, retry: 1 },
            Decision::Quarantine { node: 7 },
            Decision::Rejoin { node: 7 },
            Decision::Round { round: 5 },
            Decision::Slot { slot: 1 },
        ];
        let mut s = MmCoreState::default();
        let mut seen = vec![s.digest];
        for (n, d) in (1..).zip(&every) {
            s.apply(d);
            assert_eq!(s.log_len, n, "{d:?} is counted");
            assert!(!seen.contains(&s.digest), "{d:?} moves the digest");
            seen.push(s.digest);
        }
        // Same decision kind, other operands: another digest.
        let mut a = MmCoreState::default();
        let mut b = MmCoreState::default();
        a.apply(&Decision::Quarantine { node: 3 });
        b.apply(&Decision::Quarantine { node: 4 });
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn digest_is_order_sensitive_and_deterministic() {
        let seq = [
            Decision::Submit { job: JobId(1) },
            Decision::Place {
                job: JobId(1),
                slot: 2,
            },
        ];
        let mut a = MmCoreState::default();
        let mut b = MmCoreState::default();
        for d in &seq {
            a.apply(d);
            b.apply(d);
        }
        assert_eq!(a, b);
        assert_eq!(a.digest, b.digest);
        let mut c = MmCoreState::default();
        for d in seq.iter().rev() {
            c.apply(d);
        }
        assert_ne!(a.digest, c.digest, "digest must see ordering");
    }
}
