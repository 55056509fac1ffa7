//! Bulk-synchronous workload representation and the cursor the scheduler
//! advances through it.
//!
//! SWEEP3D — the paper's main application — is a wavefront code: each
//! iteration computes on a local grid block and exchanges ghost cells with
//! neighbours; all ranks move through iterations essentially in lock-step
//! (which is precisely why it needs *gang* scheduling: a rank whose peer is
//! descheduled stalls at the exchange). We model a job's execution as a
//! sequence of [`Step`]s whose durations already account for the
//! max-over-ranks skew; under gang scheduling all ranks of a job advance
//! through this shared timeline while their timeslot is active.

use storm_sim::SimSpan;

/// One BSP iteration: compute, then exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Per-iteration computation time (max over ranks, including load
    /// imbalance).
    pub compute: SimSpan,
    /// Bytes exchanged with neighbours at the end of the iteration (per
    /// rank; determines the communication span via the network model).
    pub comm_bytes: u64,
}

/// A job's complete computational structure.
#[derive(Debug, Clone, Default)]
pub struct Workload {
    steps: Vec<Step>,
    /// True for hog programs that never terminate on their own (spin loop,
    /// network loader): the cursor cycles through `steps` forever.
    endless: bool,
}

impl Workload {
    /// A terminating workload from explicit steps.
    pub fn new(steps: Vec<Step>) -> Self {
        Workload {
            steps,
            endless: false,
        }
    }

    /// The empty workload (a do-nothing program: exits immediately).
    pub fn empty() -> Self {
        Workload::default()
    }

    /// An endless workload (spin loop / network loader): cycles through
    /// `steps` until the job is killed.
    pub fn endless(steps: Vec<Step>) -> Self {
        assert!(
            !steps.is_empty(),
            "an endless workload needs at least one step"
        );
        Workload {
            steps,
            endless: true,
        }
    }

    /// The steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Whether this workload never terminates.
    pub fn is_endless(&self) -> bool {
        self.endless
    }

    /// Whether this is the empty workload (a do-nothing program): its
    /// ranks exit as soon as they start, and the PL reports each exit.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty() && !self.endless
    }

    /// Total busy time per rank assuming a given span per communication
    /// step (computed by the caller from the network model). `None` for
    /// endless workloads.
    pub fn total_span(&self, comm_span_of: impl Fn(u64) -> SimSpan) -> Option<SimSpan> {
        if self.endless {
            return None;
        }
        Some(
            self.steps
                .iter()
                .map(|s| s.compute + comm_span_of(s.comm_bytes))
                .sum(),
        )
    }

    /// Start a cursor at the beginning.
    pub fn cursor(&self) -> WorkloadCursor {
        WorkloadCursor {
            step: 0,
            consumed_in_step: SimSpan::ZERO,
            total_consumed: SimSpan::ZERO,
        }
    }
}

/// Progress through a [`Workload`]. The scheduler calls
/// [`WorkloadCursor::advance`] with the CPU time a job's ranks received; the
/// cursor reports how much was actually used (less when the job finishes
/// mid-grant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadCursor {
    step: usize,
    consumed_in_step: SimSpan,
    total_consumed: SimSpan,
}

impl WorkloadCursor {
    /// Advance by up to `grant` of scheduled time; `comm_span_of` converts a
    /// step's exchanged bytes into a span (network-model dependent).
    /// Returns the time actually consumed (`< grant` only if the workload
    /// completed).
    #[inline]
    pub fn advance(
        &mut self,
        workload: &Workload,
        mut grant: SimSpan,
        comm_span_of: impl Fn(u64) -> SimSpan,
    ) -> SimSpan {
        let mut used = SimSpan::ZERO;
        loop {
            if grant.is_zero() {
                break;
            }
            let nsteps = workload.steps.len();
            if nsteps == 0 {
                break; // empty workload: done immediately
            }
            let idx = if workload.endless {
                self.step % nsteps
            } else if self.step >= nsteps {
                break; // finished
            } else {
                self.step
            };
            let s = &workload.steps[idx];
            let step_total = s.compute + comm_span_of(s.comm_bytes);
            let remaining = step_total.saturating_sub(self.consumed_in_step);
            if grant >= remaining {
                grant -= remaining;
                used += remaining;
                self.total_consumed += remaining;
                self.step += 1;
                self.consumed_in_step = SimSpan::ZERO;
            } else {
                self.consumed_in_step += grant;
                self.total_consumed += grant;
                used += grant;
                grant = SimSpan::ZERO;
            }
        }
        used
    }

    /// Whether the workload has been fully consumed (never true for endless
    /// workloads).
    pub fn finished(&self, workload: &Workload) -> bool {
        !workload.endless && self.step >= workload.steps.len()
    }

    /// Completed full steps so far.
    pub fn steps_done(&self) -> usize {
        self.step
    }

    /// Total scheduled time consumed so far.
    pub fn total_consumed(&self) -> SimSpan {
        self.total_consumed
    }

    /// Time consumed inside the current (partial) step.
    pub fn consumed_in_step(&self) -> SimSpan {
        self.consumed_in_step
    }

    /// Rebuild a cursor from checkpointed parts (`steps_done`,
    /// `consumed_in_step`, `total_consumed`). The cursor resumes mid-step
    /// exactly where the exported one stood.
    pub fn from_parts(step: usize, consumed_in_step: SimSpan, total_consumed: SimSpan) -> Self {
        WorkloadCursor {
            step,
            consumed_in_step,
            total_consumed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_comm(_: u64) -> SimSpan {
        SimSpan::ZERO
    }

    fn steps(ms: &[u64]) -> Vec<Step> {
        ms.iter()
            .map(|&m| Step {
                compute: SimSpan::from_millis(m),
                comm_bytes: 0,
            })
            .collect()
    }

    #[test]
    fn empty_workload_finishes_immediately() {
        let w = Workload::empty();
        let mut c = w.cursor();
        assert!(c.finished(&w));
        assert_eq!(c.advance(&w, SimSpan::from_secs(1), no_comm), SimSpan::ZERO);
        assert_eq!(w.total_span(no_comm), Some(SimSpan::ZERO));
    }

    #[test]
    fn cursor_consumes_across_steps() {
        let w = Workload::new(steps(&[10, 10, 10]));
        let mut c = w.cursor();
        // A 25 ms grant finishes two steps and half of the third.
        let used = c.advance(&w, SimSpan::from_millis(25), no_comm);
        assert_eq!(used, SimSpan::from_millis(25));
        assert_eq!(c.steps_done(), 2);
        assert!(!c.finished(&w));
        // 5 ms more completes it; a surplus grant is only partially used.
        let used = c.advance(&w, SimSpan::from_millis(50), no_comm);
        assert_eq!(used, SimSpan::from_millis(5));
        assert!(c.finished(&w));
        assert_eq!(c.total_consumed(), SimSpan::from_millis(30));
        // Further grants are no-ops.
        assert_eq!(c.advance(&w, SimSpan::from_secs(1), no_comm), SimSpan::ZERO);
    }

    #[test]
    fn total_span_includes_communication() {
        let w = Workload::new(vec![
            Step {
                compute: SimSpan::from_millis(10),
                comm_bytes: 1_000_000,
            };
            4
        ]);
        // 1 MB at 100 MB/s = 10 ms comm per step.
        let comm = |b: u64| SimSpan::for_bytes(b, 100.0e6);
        assert_eq!(w.total_span(comm), Some(SimSpan::from_millis(80)));
        // The cursor agrees with total_span.
        let mut c = w.cursor();
        let mut total = SimSpan::ZERO;
        while !c.finished(&w) {
            total += c.advance(&w, SimSpan::from_millis(7), comm);
        }
        assert_eq!(total, SimSpan::from_millis(80));
    }

    #[test]
    fn endless_workload_never_finishes() {
        let w = Workload::endless(steps(&[5]));
        assert!(w.is_endless());
        assert_eq!(w.total_span(no_comm), None);
        let mut c = w.cursor();
        let used = c.advance(&w, SimSpan::from_secs(10), no_comm);
        assert_eq!(used, SimSpan::from_secs(10));
        assert!(!c.finished(&w));
        assert_eq!(c.steps_done(), 2000);
    }

    #[test]
    fn many_small_grants_equal_one_big_grant() {
        let w = Workload::new(steps(&[7, 13, 29, 3]));
        let total = w.total_span(no_comm).unwrap();
        let mut c1 = w.cursor();
        c1.advance(&w, total, no_comm);
        assert!(c1.finished(&w));
        let mut c2 = w.cursor();
        let mut granted = SimSpan::ZERO;
        while !c2.finished(&w) {
            c2.advance(&w, SimSpan::from_micros(900), no_comm);
            granted += SimSpan::from_micros(900);
            assert!(granted < total + SimSpan::from_millis(1), "cursor stuck");
        }
        assert_eq!(c2.total_consumed(), total);
    }

    #[test]
    #[should_panic(expected = "endless workload needs at least one step")]
    fn endless_needs_steps() {
        Workload::endless(vec![]);
    }
}
