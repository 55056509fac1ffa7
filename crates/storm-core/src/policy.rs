//! Queueing/scheduling policies.
//!
//! The paper (§4 "Generality of Mechanisms"): "Currently, STORM supports
//! batch scheduling with and without backfilling, gang scheduling, and
//! implicit coscheduling." The policies here decide *which queued jobs to
//! start at a timeslice boundary*; the matrix and the strobe machinery are
//! shared. They are pure functions over a snapshot of the queue and matrix,
//! which keeps them unit-testable in isolation from the simulation.
//!
//! A selection never copies the matrix to ask whether a job fits: it asks
//! [`GangMatrix::fits`], which reads the live matrix. The one copy is made
//! at the selection's first start, so that later fit tests see the jobs
//! started before them. Once a power-of-two block has been refused, later
//! requests for a block at least as large are refused without a test (see
//! `Selection`). A boundary therefore costs one fit test per queued job,
//! not one matrix copy per queued job.

use crate::config::SchedulerKind;
use crate::job::JobId;
use crate::matrix::GangMatrix;
use storm_sim::{SimSpan, SimTime};

/// A queued job as the policies see it.
#[derive(Debug, Clone, Copy)]
pub struct QueuedJob {
    /// Job id.
    pub id: JobId,
    /// Nodes the job needs (already rounded from ranks).
    pub nodes_needed: u32,
    /// User runtime estimate, if provided (backfilling needs it).
    pub estimate: Option<SimSpan>,
}

/// A running job as the policies see it.
#[derive(Debug, Clone, Copy)]
pub struct RunningJob {
    /// Nodes the job holds.
    pub nodes_held: u32,
    /// Estimated completion instant (start + estimate), if an estimate was
    /// given.
    pub est_end: Option<SimTime>,
}

/// Decide which queued jobs to start now. Returned ids are in start order
/// and are guaranteed to fit in the matrix if placed in that order.
pub fn select_starts(
    kind: SchedulerKind,
    now: SimTime,
    queued: &[QueuedJob],
    running: &[RunningJob],
    matrix: &GangMatrix,
) -> Vec<JobId> {
    match kind {
        // Implicit coscheduling admits jobs exactly like gang scheduling —
        // the difference is in how (or rather, whether) switches are
        // coordinated once they run.
        SchedulerKind::Gang | SchedulerKind::ImplicitCosched => {
            first_fit(queued, matrix, /*skip_blocked=*/ true)
        }
        SchedulerKind::Batch => first_fit(queued, matrix, /*skip_blocked=*/ false),
        SchedulerKind::Backfill => easy_backfill(now, queued, running, matrix),
    }
}

/// One selection's view of the matrix. Fit tests read the live matrix
/// until the first start; that start makes the one scratch copy, and
/// every start is placed in it. It also remembers the smallest
/// power-of-two block refused so far: placements only consume free
/// blocks, and a slot opened later is fresh under the same quarantine,
/// which already could not hold that block, so no later request whose
/// block is at least as large can fit within the selection. A request
/// refused for its shape (zero nodes, wider than the cluster) marks no
/// size.
struct Selection<'a> {
    live: &'a GangMatrix,
    scratch: Option<GangMatrix>,
    refused: u32,
    starts: Vec<JobId>,
}

impl<'a> Selection<'a> {
    fn new(live: &'a GangMatrix) -> Self {
        Selection {
            live,
            scratch: None,
            refused: u32::MAX,
            starts: Vec::new(),
        }
    }

    /// Would `q` fit, after the starts so far?
    fn fits(&mut self, q: &QueuedJob) -> bool {
        if q.nodes_needed == 0 || q.nodes_needed > self.live.nodes() {
            return false;
        }
        let block = q.nodes_needed.next_power_of_two();
        if block >= self.refused {
            return false;
        }
        let fits = self
            .scratch
            .as_ref()
            .unwrap_or(self.live)
            .fits(q.nodes_needed);
        if !fits {
            self.refused = block;
        }
        fits
    }

    /// Start `q`, which [`Selection::fits`] has just accepted.
    fn start(&mut self, q: &QueuedJob) {
        let live = self.live;
        self.scratch
            .get_or_insert_with(|| live.clone())
            .place(q.id, q.nodes_needed)
            .expect("a job that fits is placed");
        self.starts.push(q.id);
    }
}

/// Greedy FCFS placement. With `skip_blocked` (gang scheduling) jobs that
/// do not fit are skipped; without it (strict batch FCFS) selection stops
/// at the first blocked job.
fn first_fit(queued: &[QueuedJob], matrix: &GangMatrix, skip_blocked: bool) -> Vec<JobId> {
    let mut sel = Selection::new(matrix);
    for q in queued {
        if sel.fits(q) {
            sel.start(q);
        } else if !skip_blocked {
            break;
        }
    }
    sel.starts
}

/// EASY backfilling: the queue head gets a *reservation* at the earliest
/// instant enough nodes will be free (by the running jobs' estimates);
/// later jobs may start out of order only if they cannot delay that
/// reservation — either they finish (by their own estimate) before the
/// shadow time, or they fit in the nodes still spare at the shadow time
/// after the head's reservation. A job admitted through the spare nodes
/// holds them past the shadow, so it takes its block out of the spare.
///
/// Jobs without estimates are conservatively never backfilled (and block
/// reservations pessimistically by assuming they never end).
fn easy_backfill(
    now: SimTime,
    queued: &[QueuedJob],
    running: &[RunningJob],
    matrix: &GangMatrix,
) -> Vec<JobId> {
    let Some(head) = queued.first() else {
        return Vec::new();
    };
    let mut sel = Selection::new(matrix);

    // If the head fits right now, start it (and continue FCFS greedily).
    if sel.fits(head) {
        sel.start(head);
        for q in &queued[1..] {
            if !sel.fits(q) {
                break; // next blocked job becomes the new reservation holder
            }
            sel.start(q);
        }
        return sel.starts;
    }

    // Head is blocked: compute its shadow time and the extra nodes.
    let total: u32 = matrix.nodes();
    let held_now: u32 = running.iter().map(|r| r.nodes_held).sum();
    let mut free = total.saturating_sub(held_now);
    let mut ends: Vec<(SimTime, u32)> = running
        .iter()
        .map(|r| (r.est_end.unwrap_or(SimTime::MAX), r.nodes_held))
        .collect();
    ends.sort_by_key(|&(t, _)| t);
    let want = head.nodes_needed.next_power_of_two();
    let mut shadow = SimTime::MAX;
    let mut freed_at_shadow = free;
    for (t, n) in ends {
        if free >= want {
            break;
        }
        free += n;
        shadow = t;
        freed_at_shadow = free;
    }
    if free < want {
        shadow = SimTime::MAX; // cannot ever run by estimates; no reservation bound
    }
    // Nodes spare at shadow time beyond the head's claim.
    let mut spare_at_shadow = freed_at_shadow.saturating_sub(want);

    // With no computable shadow time (a running job without an estimate)
    // nothing may safely jump the head: any backfill could delay it.
    if shadow == SimTime::MAX {
        return sel.starts;
    }
    // Try to backfill the rest.
    for q in &queued[1..] {
        let Some(est) = q.estimate else { continue };
        if !sel.fits(q) {
            continue;
        }
        let block = q.nodes_needed.next_power_of_two();
        if now + est <= shadow {
            sel.start(q);
        } else if block <= spare_at_shadow {
            spare_at_shadow -= block;
            sel.start(q);
        }
    }
    sel.starts
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The selection written as clone-and-place: every fit test clones
    /// the matrix and places the job in the copy. It is the reference
    /// `select_starts` must agree with.
    fn reference(
        kind: SchedulerKind,
        now: SimTime,
        queued: &[QueuedJob],
        running: &[RunningJob],
        matrix: &GangMatrix,
    ) -> Vec<JobId> {
        let first_fit = |skip_blocked: bool| {
            let mut scratch = matrix.clone();
            let mut starts = Vec::new();
            for q in queued {
                if scratch.place(q.id, q.nodes_needed).is_some() {
                    starts.push(q.id);
                } else if !skip_blocked {
                    break;
                }
            }
            starts
        };
        match kind {
            SchedulerKind::Gang | SchedulerKind::ImplicitCosched => return first_fit(true),
            SchedulerKind::Batch => return first_fit(false),
            SchedulerKind::Backfill => {}
        }
        let Some(head) = queued.first() else {
            return Vec::new();
        };
        let mut scratch = matrix.clone();
        let mut starts = Vec::new();
        if scratch.place(head.id, head.nodes_needed).is_some() {
            starts.push(head.id);
            for q in &queued[1..] {
                if scratch.place(q.id, q.nodes_needed).is_some() {
                    starts.push(q.id);
                } else {
                    break;
                }
            }
            return starts;
        }
        let held_now: u32 = running.iter().map(|r| r.nodes_held).sum();
        let mut free = matrix.nodes().saturating_sub(held_now);
        let mut ends: Vec<(SimTime, u32)> = running
            .iter()
            .map(|r| (r.est_end.unwrap_or(SimTime::MAX), r.nodes_held))
            .collect();
        ends.sort_by_key(|&(t, _)| t);
        let want = head.nodes_needed.next_power_of_two();
        let mut shadow = SimTime::MAX;
        let mut freed_at_shadow = free;
        for (t, n) in ends {
            if free >= want {
                break;
            }
            free += n;
            shadow = t;
            freed_at_shadow = free;
        }
        if free < want {
            return starts;
        }
        let mut spare_at_shadow = freed_at_shadow.saturating_sub(want);
        if shadow == SimTime::MAX {
            return starts;
        }
        for q in &queued[1..] {
            let Some(est) = q.estimate else { continue };
            if scratch.clone().place(q.id, q.nodes_needed).is_none() {
                continue;
            }
            let block = q.nodes_needed.next_power_of_two();
            let ends_before_shadow = now + est <= shadow;
            if ends_before_shadow || block <= spare_at_shadow {
                if !ends_before_shadow {
                    spare_at_shadow -= block;
                }
                scratch.place(q.id, q.nodes_needed);
                starts.push(q.id);
            }
        }
        starts
    }

    /// A matrix of `nodes` nodes at MPL `mpl` after `ops`: `(0 | 1, n)`
    /// places a job of a size drawn from `n`, `(2, n)` removes a placed
    /// job, `(3, n)` quarantines node `n % nodes` or rejoins it.
    fn matrix_after(nodes: u32, mpl: usize, ops: &[(u8, u32)]) -> GangMatrix {
        let mut m = GangMatrix::new(nodes, mpl);
        let mut placed = Vec::new();
        for (i, &(op, n)) in ops.iter().enumerate() {
            match op {
                0 | 1 => {
                    let size = if n % 2 == 0 {
                        1 << (n / 2 % 5)
                    } else {
                        n / 2 % nodes + 1
                    };
                    let job = JobId(1_000 + i as u32);
                    if m.place(job, size).is_some() {
                        placed.push(job);
                    }
                }
                2 if !placed.is_empty() => {
                    let job = placed.swap_remove(n as usize % placed.len());
                    m.remove(job).unwrap();
                }
                _ => {
                    if !m.quarantine_node(n % nodes) {
                        m.rejoin_node(n % nodes);
                    }
                }
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Fit tests on the live matrix, one copy at the first start and
        /// the blocked-size skip pick exactly the jobs clone-and-place
        /// picks, in the same order, under every policy: on matrices
        /// shaped by placements, removals, quarantines and rejoins, at
        /// widths that are not powers of two, with zero-node and
        /// over-wide requests, estimates present and absent.
        #[test]
        fn select_starts_matches_clone_and_place(
            nodes in 1u32..=40,
            mpl in 1usize..=3,
            ops in prop::collection::vec((0u8..4, 0u32..64), 0..40),
            jobs in prop::collection::vec((0u32..=44, 0u64..=300, any::<bool>()), 0..24),
            ends in prop::collection::vec((1u32..=40, 0u64..=300, any::<bool>()), 0..8),
            now_s in 0u64..=100,
        ) {
            let matrix = matrix_after(nodes, mpl, &ops);
            let queued: Vec<QueuedJob> = (0..)
                .zip(&jobs)
                .map(|(id, &(need, est, has_est))| q(id, need, has_est.then_some(est)))
                .collect();
            let running: Vec<RunningJob> = ends
                .iter()
                .map(|&(held, end, has_end)| r(held, has_end.then_some(end)))
                .collect();
            let now = SimTime::from_secs(now_s);
            for kind in [SchedulerKind::Batch, SchedulerKind::Backfill, SchedulerKind::Gang] {
                prop_assert_eq!(
                    select_starts(kind, now, &queued, &running, &matrix),
                    reference(kind, now, &queued, &running, &matrix),
                    "{:?} on {:?}", kind, matrix.export_state()
                );
            }
        }
    }

    fn q(id: u32, nodes: u32, est_s: Option<u64>) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            nodes_needed: nodes,
            estimate: est_s.map(SimSpan::from_secs),
        }
    }

    fn r(nodes: u32, end_s: Option<u64>) -> RunningJob {
        RunningJob {
            nodes_held: nodes,
            est_end: end_s.map(SimTime::from_secs),
        }
    }

    #[test]
    fn gang_skips_blocked_jobs() {
        let matrix = GangMatrix::new(8, 1);
        let queued = [q(0, 8, None), q(1, 16, None), q(2, 4, None)];
        let starts = select_starts(SchedulerKind::Gang, SimTime::ZERO, &queued, &[], &matrix);
        // Job 1 never fits (16 > 8); 0 fills the machine; 2 cannot fit after 0.
        assert_eq!(starts, vec![JobId(0)]);
        // With MPL 2, job 2 lands in a second slot.
        let matrix2 = GangMatrix::new(8, 2);
        let starts2 = select_starts(SchedulerKind::Gang, SimTime::ZERO, &queued, &[], &matrix2);
        assert_eq!(starts2, vec![JobId(0), JobId(2)]);
    }

    #[test]
    fn batch_is_strict_fcfs() {
        let matrix = GangMatrix::new(8, 1);
        let queued = [q(0, 8, None), q(1, 4, None)];
        // Head fills machine; strict FCFS must NOT start job 1 ahead of later
        // capacity.
        let mut m = matrix.clone();
        m.place(JobId(99), 8).unwrap();
        let starts = select_starts(SchedulerKind::Batch, SimTime::ZERO, &queued, &[], &m);
        assert!(starts.is_empty(), "blocked head blocks everything");
        let starts2 = select_starts(SchedulerKind::Batch, SimTime::ZERO, &queued, &[], &matrix);
        assert_eq!(starts2, vec![JobId(0)], "8-node head fills the machine");
    }

    #[test]
    fn backfill_starts_head_when_it_fits() {
        let matrix = GangMatrix::new(8, 1);
        let queued = [q(0, 4, Some(100)), q(1, 4, Some(100)), q(2, 4, Some(1))];
        let starts = select_starts(
            SchedulerKind::Backfill,
            SimTime::ZERO,
            &queued,
            &[],
            &matrix,
        );
        assert_eq!(starts, vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn backfill_lets_short_job_jump_without_delaying_head() {
        // Machine: 8 nodes, all held by a running job ending at t=100.
        // Head wants 8 nodes → reservation at t=100.
        // A 2-node 50 s job CANNOT backfill (no free nodes at all right now).
        let mut matrix = GangMatrix::new(8, 1);
        matrix.place(JobId(90), 8).unwrap();
        let running = [r(8, Some(100))];
        let queued = [q(0, 8, Some(100)), q(1, 2, Some(50))];
        let starts = select_starts(
            SchedulerKind::Backfill,
            SimTime::from_secs(0),
            &queued,
            &running,
            &matrix,
        );
        assert!(starts.is_empty());

        // Now: 4 of 8 nodes held until t=100; head wants 8 → shadow = 100.
        // A 2-node job with a 50 s estimate ends at t=50 ≤ 100: backfills.
        // A 2-node job with a 200 s estimate would delay the head: must not.
        let mut matrix = GangMatrix::new(8, 1);
        matrix.place(JobId(90), 4).unwrap();
        let running = [r(4, Some(100))];
        let queued = [q(0, 8, Some(100)), q(1, 2, Some(50)), q(2, 2, Some(200))];
        let starts = select_starts(
            SchedulerKind::Backfill,
            SimTime::from_secs(0),
            &queued,
            &running,
            &matrix,
        );
        assert_eq!(starts, vec![JobId(1)], "only the short job may jump");
    }

    #[test]
    fn backfill_never_delays_the_reservation() {
        // The EASY property: after backfilling, the head can still start at
        // its shadow time. 16 nodes; 8 held to t=100, head wants 16 (shadow
        // 100, spare 0). A long 4-node job must not backfill even though 8
        // nodes are free right now.
        let mut matrix = GangMatrix::new(16, 1);
        matrix.place(JobId(90), 8).unwrap();
        let running = [r(8, Some(100))];
        let queued = [q(0, 16, Some(10)), q(1, 4, Some(1_000))];
        let starts = select_starts(
            SchedulerKind::Backfill,
            SimTime::from_secs(0),
            &queued,
            &running,
            &matrix,
        );
        assert!(starts.is_empty());
        // But a 4-node job that *ends* by t=100 may.
        let queued = [q(0, 16, Some(10)), q(1, 4, Some(99))];
        let starts = select_starts(
            SchedulerKind::Backfill,
            SimTime::from_secs(0),
            &queued,
            &running,
            &matrix,
        );
        assert_eq!(starts, vec![JobId(1)]);
        // Jobs admitted through the spare nodes use them up. 64 nodes: 8
        // held to t=50, 16 to t=100, 16 + 8 to t=300; the head wants 32
        // (shadow 100, when 40 nodes are free: spare 8). Two long 8-node
        // jobs fit right now, but only one may start: with both, the head
        // would find 24 nodes at t=100.
        let mut matrix = GangMatrix::new(64, 1);
        for (job, nodes) in [(90, 8), (91, 16), (92, 16), (93, 8)] {
            matrix.place(JobId(job), nodes).unwrap();
        }
        let running = [
            r(8, Some(50)),
            r(16, Some(100)),
            r(16, Some(300)),
            r(8, Some(300)),
        ];
        let queued = [
            q(0, 32, Some(10)),
            q(1, 8, Some(1_000)),
            q(2, 8, Some(1_000)),
        ];
        let starts = select_starts(
            SchedulerKind::Backfill,
            SimTime::from_secs(0),
            &queued,
            &running,
            &matrix,
        );
        assert_eq!(
            starts,
            vec![JobId(1)],
            "the second long job would delay the head"
        );
    }

    #[test]
    fn backfill_without_estimate_never_jumps() {
        let mut matrix = GangMatrix::new(8, 1);
        matrix.place(JobId(90), 4).unwrap();
        let running = [r(4, Some(100))];
        let queued = [q(0, 8, Some(100)), q(1, 2, None)];
        let starts = select_starts(
            SchedulerKind::Backfill,
            SimTime::ZERO,
            &queued,
            &running,
            &matrix,
        );
        assert!(starts.is_empty());
    }

    #[test]
    fn empty_queue_is_fine() {
        let matrix = GangMatrix::new(8, 2);
        for kind in [
            SchedulerKind::Gang,
            SchedulerKind::Batch,
            SchedulerKind::Backfill,
        ] {
            assert!(select_starts(kind, SimTime::ZERO, &[], &[], &matrix).is_empty());
        }
    }
}
