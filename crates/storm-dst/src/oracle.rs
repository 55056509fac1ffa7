//! Invariant oracles, checked at every timeslice boundary of a DST run.
//! Each is a safety property the STORM protocols must uphold under *any*
//! legal event interleaving — the whole point of schedule-space
//! exploration is that these stay true no matter how same-instant
//! deliveries are permuted.
//!
//! The stateless invariants live in storm-core, as
//! [`World::check_invariants`], which `Cluster::restore` runs too;
//! [`check_all`] runs it first. The oracles here are the checks that need
//! history: they compare a boundary with earlier ones, so a fresh suite is
//! built per run via [`standard_suite`].

use storm_core::job::JobState;
use storm_core::World;
use storm_sim::SimTime;

/// A violated invariant: which check fired, when, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The check's name — an [`Oracle::name`], a
    /// [`World::check_invariants`] check, or `"panic"` for a caught panic.
    pub oracle: String,
    /// The boundary at which the check failed.
    pub at: SimTime,
    /// Human-readable explanation.
    pub detail: String,
}

/// One invariant over the run's history, checked at every timeslice
/// boundary.
pub trait Oracle {
    /// Stable identifier (appears in violations and repro artifacts).
    fn name(&self) -> &'static str;
    /// Check the invariant; `Err` carries the explanation.
    fn check(&mut self, world: &World, now: SimTime) -> Result<(), String>;
}

/// The history oracles (see DESIGN.md §14). Each shares its name with
/// the [`World::check_invariants`] check of the same property.
pub fn standard_suite() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(JobAccounting::default()),
        Box::new(HeartbeatMonotonic::default()),
        Box::new(SingleActiveMm::default()),
    ]
}

/// Check [`World::check_invariants`], then every oracle in `suite`,
/// returning the first violation.
pub fn check_all(suite: &mut [Box<dyn Oracle>], world: &World, now: SimTime) -> Option<Violation> {
    let violation = |oracle: &str, detail| {
        Some(Violation {
            oracle: oracle.to_string(),
            at: now,
            detail,
        })
    };
    if let Err(e) = world.check_invariants() {
        return violation(e.check, e.detail);
    }
    for oracle in suite.iter_mut() {
        if let Err(detail) = oracle.check(world, now) {
            return violation(oracle.name(), detail);
        }
    }
    None
}

/// A terminal job never leaves its terminal state.
#[derive(Default)]
pub struct JobAccounting {
    terminal: Vec<Option<JobState>>,
}

impl Oracle for JobAccounting {
    fn name(&self) -> &'static str {
        "job_accounting"
    }

    fn check(&mut self, world: &World, _now: SimTime) -> Result<(), String> {
        self.terminal.resize(world.jobs.len(), None);
        for (rec, seen) in world.jobs.iter().zip(&mut self.terminal) {
            match *seen {
                Some(prev) if rec.state != prev => {
                    return Err(format!(
                        "{} left terminal state {prev:?} for {:?}",
                        rec.id, rec.state
                    ))
                }
                None if rec.state.is_terminal() => *seen = Some(rec.state),
                _ => {}
            }
        }
        Ok(())
    }
}

/// The MM's heartbeat round never goes backwards.
#[derive(Default)]
pub struct HeartbeatMonotonic {
    last_round: Option<i64>,
}

impl Oracle for HeartbeatMonotonic {
    fn name(&self) -> &'static str {
        "heartbeat_monotonic"
    }

    fn check(&mut self, world: &World, _now: SimTime) -> Result<(), String> {
        let round = world.hb_round;
        match self.last_round.replace(round) {
            Some(prev) if round < prev => {
                Err(format!("heartbeat round regressed: {prev} -> {round}"))
            }
            _ => Ok(()),
        }
    }
}

/// The MM epoch never goes backwards.
#[derive(Default)]
pub struct SingleActiveMm {
    last_epoch: Option<u64>,
}

impl Oracle for SingleActiveMm {
    fn name(&self) -> &'static str {
        "single_active_mm"
    }

    fn check(&mut self, world: &World, _now: SimTime) -> Result<(), String> {
        let epoch = world.mm_epoch;
        match self.last_epoch.replace(epoch) {
            Some(prev) if epoch < prev => Err(format!("MM epoch regressed: {prev} -> {epoch}")),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storm_core::prelude::*;
    use storm_core::Cluster;

    fn tiny() -> Cluster {
        Cluster::new(
            ClusterConfig::paper_cluster()
                .with_nodes(4)
                .with_seed(0xDE57),
        )
    }

    #[test]
    fn all_oracles_pass_on_a_clean_run() {
        let mut c = tiny();
        c.submit(JobSpec::new(AppSpec::do_nothing_mb(1), 4));
        let mut suite = standard_suite();
        for ms in [0u64, 5, 10, 20, 40] {
            c.run_until(SimTime::from_millis(ms));
            assert_eq!(check_all(&mut suite, c.world(), c.now()), None);
        }
    }

    #[test]
    fn job_accounting_catches_counter_skew() {
        let mut c = tiny();
        c.submit(JobSpec::new(AppSpec::do_nothing_mb(1), 4));
        c.run_until(SimTime::from_millis(40));
        c.with_world_mut(|w| w.stats.completed_jobs += 1);
        let mut suite = standard_suite();
        let v = check_all(&mut suite, c.world(), c.now()).expect("must fire");
        assert_eq!(v.oracle, "job_accounting");
    }

    #[test]
    fn matrix_consistency_catches_a_phantom_placement() {
        let mut c = tiny();
        c.submit(JobSpec::new(AppSpec::do_nothing_mb(1), 4));
        c.run_until(SimTime::from_millis(2));
        // The record claims a node range the matrix never placed it on.
        c.with_world_mut(|w| {
            let alloc = w.jobs[0].allocation.as_mut().expect("placed by 2 ms");
            alloc.nodes = alloc.nodes.end..alloc.nodes.end + 1;
        });
        let mut suite = standard_suite();
        let v = check_all(&mut suite, c.world(), c.now()).expect("must fire");
        assert_eq!(v.oracle, "matrix_consistency");
    }

    #[test]
    fn caw_visibility_catches_a_torn_write() {
        use storm_mech::{CmpOp, NodeId, NodeSet};
        use storm_net::BackgroundLoad;
        let mut c = tiny();
        c.with_world_mut(|w| {
            w.mech.memory.enable_caw_audit();
            let var = w.mech.memory.alloc_var(0);
            w.mech.compare_and_write(
                SimTime::ZERO,
                &NodeSet::All(4),
                var,
                CmpOp::Ge,
                0,
                Some((var, 1)),
                BackgroundLoad::NONE,
            );
            w.mech.memory.poke(NodeId(2), var, 0);
        });
        let mut suite = standard_suite();
        let v = check_all(&mut suite, c.world(), c.now()).expect("must fire");
        assert_eq!(v.oracle, "caw_visibility");
    }

    #[test]
    fn single_active_mm_catches_a_dual_active() {
        let mut c = Cluster::new(
            ClusterConfig::paper_cluster()
                .with_nodes(4)
                .with_mm_standbys(1)
                .with_seed(0xDE57),
        );
        let mut suite = standard_suite();
        assert_eq!(check_all(&mut suite, c.world(), c.now()), None);
        c.with_world_mut(|w| w.mm_roles[1] = MmRole::Active);
        let v = check_all(&mut suite, c.world(), c.now()).expect("must fire");
        assert_eq!(v.oracle, "single_active_mm");
    }

    #[test]
    fn single_active_mm_catches_an_epoch_regression() {
        let mut c = Cluster::new(
            ClusterConfig::paper_cluster()
                .with_nodes(4)
                .with_mm_standbys(1),
        );
        let mut suite = standard_suite();
        c.with_world_mut(|w| w.mm_epoch = 3);
        assert_eq!(check_all(&mut suite, c.world(), c.now()), None);
        c.with_world_mut(|w| w.mm_epoch = 2);
        let v = check_all(&mut suite, c.world(), c.now()).expect("must fire");
        assert_eq!(v.oracle, "single_active_mm");
    }

    #[test]
    fn no_job_lost_catches_a_vanished_queue_entry() {
        let mut c = tiny();
        let mpl = c.world().cfg.mpl_max;
        let full = c.world().cfg.nodes * c.world().cfg.cpus_per_node;
        for _ in 0..=mpl {
            c.submit(JobSpec::new(AppSpec::SpinLoop, full));
        }
        c.run_until(SimTime::from_millis(5));
        assert!(
            !c.world().queue.is_empty(),
            "setup: a job must be waiting in the queue"
        );
        let mut suite = standard_suite();
        assert_eq!(check_all(&mut suite, c.world(), c.now()), None);
        c.with_world_mut(|w| w.queue.clear());
        let v = check_all(&mut suite, c.world(), c.now()).expect("must fire");
        assert_eq!(v.oracle, "no_job_lost");
    }

    #[test]
    fn repl_consistency_catches_a_skewed_replica() {
        let mut c = Cluster::new(
            ClusterConfig::paper_cluster()
                .with_nodes(4)
                .with_mm_standbys(1)
                .with_fault_detection(2),
        );
        c.submit(JobSpec::new(AppSpec::do_nothing_mb(1), 4));
        c.run_until(SimTime::from_millis(20));
        let mut suite = standard_suite();
        assert_eq!(check_all(&mut suite, c.world(), c.now()), None);
        // A replica at the active's log position with another digest is
        // exactly the divergence the digest contract forbids.
        c.with_world_mut(|w| {
            w.mm_replicas[1] = w.mm_core.clone();
            w.mm_replicas[1].digest ^= 1;
        });
        let v = check_all(&mut suite, c.world(), c.now()).expect("must fire");
        assert_eq!(v.oracle, "repl_consistency");
    }

    #[test]
    fn heartbeat_monotonic_catches_a_regression() {
        let mut c = Cluster::new(
            ClusterConfig::paper_cluster()
                .with_nodes(4)
                .with_fault_detection(2),
        );
        let mut suite = standard_suite();
        c.run_until(SimTime::from_millis(10));
        assert_eq!(check_all(&mut suite, c.world(), c.now()), None);
        c.with_world_mut(|w| w.hb_round -= 1);
        let v = check_all(&mut suite, c.world(), c.now()).expect("must fire");
        assert_eq!(v.oracle, "heartbeat_monotonic");
    }
}
