//! The DST runner: build a [`Cluster`] from a [`Scenario`], step it one
//! timeslice boundary at a time, check the invariants at every boundary,
//! and fold the run's trace into a digest so distinct interleavings can be
//! counted and replays compared bit for bit.

use crate::oracle::{check_all, standard_suite, Violation};
use crate::scenario::{AppKind, FaultKind, InjectionKind, OrderSpec, Scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};
use storm_apps::AppSpec;
use storm_core::prelude::*;
use storm_core::Cluster;
use storm_core::MmRole;
use storm_mech::{CmpOp, NodeId, NodeSet};
use storm_sim::DeliveryOrder;

/// What one scenario run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// The first oracle violation, if any.
    pub violation: Option<Violation>,
    /// FNV-1a digest of the run's full event trace plus headline stats —
    /// two runs with the same digest executed the same interleaving.
    pub digest: u64,
    /// Total events pushed onto the queue (the tie-draw count a seeded
    /// order needs to be regenerated as an explicit script).
    pub pushed: u64,
    /// `completed_jobs` at the end of the run.
    pub completed: u64,
    /// The instant the run stopped (the violation boundary or the horizon).
    pub end: SimTime,
}

impl RunOutcome {
    /// Did the run violate an invariant (or panic)?
    pub fn failed(&self) -> bool {
        self.violation.is_some()
    }
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn delivery_order(order: &OrderSpec) -> Option<DeliveryOrder> {
    match order {
        OrderSpec::Default => None,
        OrderSpec::Seeded {
            seed,
            amplitude,
            delay_us,
        } => {
            let order = DeliveryOrder::seeded(*seed, *amplitude);
            Some(if *delay_us > 0 {
                order.with_max_delay(SimSpan::from_micros(*delay_us))
            } else {
                order
            })
        }
        OrderSpec::Script { ties } => Some(DeliveryOrder::script(ties.clone())),
    }
}

fn build_cluster(s: &Scenario) -> Cluster {
    let mut cfg = ClusterConfig::paper_cluster()
        .with_nodes(s.nodes)
        .with_seed(s.seed);
    cfg.cpus_per_node = s.cpus_per_node;
    cfg.mpl_max = s.mpl_max;
    cfg.delivery_order = delivery_order(&s.order);
    cfg = cfg.with_mm_standbys(s.mm_standbys);
    if s.heartbeat_every > 0 {
        cfg = cfg
            .with_fault_detection(s.heartbeat_every)
            .with_failure_policy(FailurePolicy::requeue());
    }
    let mut c = Cluster::new(cfg);
    c.enable_tracing();
    // The CAW audit trail is what gives `caw_visibility` state to check.
    c.with_world_mut(|w| w.mech.memory.enable_caw_audit());
    for j in &s.jobs {
        let app = match j.app {
            AppKind::Binary { mb } => AppSpec::do_nothing_mb(mb),
            AppKind::Compute { ms } => AppSpec::Synthetic {
                compute: SimSpan::from_millis(ms),
            },
        };
        c.submit_at(SimTime::from_millis(j.at_ms), JobSpec::new(app, j.ranks));
    }
    for f in &s.faults {
        let at = SimTime::from_millis(f.at_ms);
        match f.kind {
            FaultKind::Fail => c.fail_node_at(at, f.node),
            FaultKind::Rejoin => c.rejoin_node_at(at, f.node),
            FaultKind::Stall { until_ms } => {
                c.stall_node(f.node, at, SimTime::from_millis(until_ms))
            }
            // For MM kills the spec's `node` is the replica rank.
            FaultKind::MmKill => c.fail_mm_at(at, f.node),
        }
    }
    c
}

fn apply_injection(c: &mut Cluster, kind: &InjectionKind) {
    let now = c.now();
    c.with_world_mut(|w| match *kind {
        InjectionKind::CompletedSkew => w.stats.completed_jobs += 1,
        InjectionKind::HbRegress => w.hb_round -= 1,
        InjectionKind::MatrixTear => {
            let placed = (w.jobs.iter_mut())
                .filter(|j| !j.state.is_terminal())
                .find_map(|j| j.allocation.as_mut());
            if let Some(alloc) = placed {
                alloc.slot += 1;
            }
        }
        InjectionKind::CawTear { node } => {
            let nodes = w.cfg.nodes;
            let var = w.mech.memory.alloc_var(0);
            w.mech.compare_and_write(
                now,
                &NodeSet::All(nodes),
                var,
                CmpOp::Ge,
                0,
                Some((var, 1)),
                storm_net::BackgroundLoad::NONE,
            );
            w.mech.memory.poke(NodeId(node), var, 0);
        }
        InjectionKind::JobVanish => {
            w.queue.pop_front();
        }
        InjectionKind::ReplicaSkew { rank } => {
            let core = w.mm_core.clone();
            let r = &mut w.mm_replicas[rank as usize];
            r.applied = core.log_len;
            r.state = core;
            r.state.queue.push(JobId(u32::MAX));
        }
        InjectionKind::DualActive => {
            w.mm_roles[1] = MmRole::Active;
        }
    });
}

/// Execute `scenario` to its horizon (or its first violation), running
/// [`check_all`] at every timeslice boundary.
pub fn run_scenario(scenario: &Scenario) -> RunOutcome {
    let mut c = build_cluster(scenario);
    let mut suite = standard_suite();
    let step = c.world().cfg.collect_period();
    let horizon = SimTime::from_millis(scenario.horizon_ms);
    let mut injected = false;
    let mut violation = None;
    let mut t = SimTime::ZERO;
    loop {
        c.run_until(t);
        if let Some(inj) = &scenario.injection {
            if !injected && t >= SimTime::from_millis(inj.at_ms) {
                apply_injection(&mut c, &inj.kind);
                injected = true;
            }
        }
        if let Some(v) = check_all(&mut suite, c.world(), c.now()) {
            violation = Some(v);
            break;
        }
        if t >= horizon {
            break;
        }
        t = horizon.min(t + step);
    }
    let trace = c.trace();
    let stats = c.queue_stats();
    let w = c.world();
    let mut digest = fnv1a(trace.as_bytes(), 0xCBF2_9CE4_8422_2325);
    digest = fnv1a(
        format!(
            "interleaving={:#018x} pushed={} completed={} strobes={} fragments={} requeues={}",
            c.interleaving_digest(),
            stats.pushed,
            w.stats.completed_jobs,
            w.stats.strobes,
            w.stats.fragments,
            w.stats.requeues
        )
        .as_bytes(),
        digest,
    );
    RunOutcome {
        violation,
        digest,
        pushed: stats.pushed,
        completed: w.stats.completed_jobs,
        end: c.now(),
    }
}

/// [`run_scenario`] with panics converted into `"panic"` violations — a
/// reordering that trips a `debug_assert!` deep in a protocol handler is a
/// finding, not a harness crash.
pub fn run_scenario_caught(scenario: &Scenario) -> RunOutcome {
    let s = scenario.clone();
    match catch_unwind(AssertUnwindSafe(move || run_scenario(&s))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload")
                .to_string();
            RunOutcome {
                violation: Some(Violation {
                    oracle: "panic".into(),
                    at: SimTime::ZERO,
                    detail,
                }),
                digest: 0,
                pushed: 0,
                completed: 0,
                end: SimTime::ZERO,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Injection;

    #[test]
    fn clean_scenarios_pass_and_are_deterministic() {
        let s = Scenario::two_node_launch();
        let a = run_scenario(&s);
        let b = run_scenario(&s);
        assert!(!a.failed(), "violation: {:?}", a.violation);
        assert_eq!(a, b, "same scenario, same digest");
        assert_eq!(a.completed, 1);
    }

    #[test]
    fn chaos_scenario_passes_all_oracles() {
        let out = run_scenario(&Scenario::small_chaos());
        assert!(!out.failed(), "violation: {:?}", out.violation);
    }

    #[test]
    fn failover_scenario_passes_all_oracles_and_replays() {
        let s = Scenario::mm_failover();
        let a = run_scenario(&s);
        assert!(!a.failed(), "violation: {:?}", a.violation);
        assert_eq!(a.completed, 2, "both jobs survive the failover");
        let b = run_scenario(&s);
        assert_eq!(a, b, "failover run must replay bit-identically");
    }

    #[test]
    fn every_injection_kind_is_caught_by_its_oracle() {
        let cases = [
            (InjectionKind::CompletedSkew, "job_accounting"),
            (InjectionKind::MatrixTear, "matrix_consistency"),
            (InjectionKind::CawTear { node: 0 }, "caw_visibility"),
        ];
        for (kind, oracle) in cases {
            let s = Scenario::two_node_launch().with_injection(Injection {
                at_ms: 10,
                kind: kind.clone(),
            });
            let out = run_scenario(&s);
            let v = out
                .violation
                .unwrap_or_else(|| panic!("{kind:?} not caught"));
            assert_eq!(v.oracle, oracle, "for {kind:?}");
        }
        // HbRegress needs a heartbeat loop to have advanced the round.
        let s = Scenario::small_chaos().with_injection(Injection {
            at_ms: 40,
            kind: InjectionKind::HbRegress,
        });
        let v = run_scenario(&s).violation.expect("hb regress not caught");
        assert_eq!(v.oracle, "heartbeat_monotonic");
        // JobVanish needs a job still sitting in the queue at injection
        // time: inject right at the submission boundary.
        let s = Scenario::two_node_launch().with_injection(Injection {
            at_ms: 0,
            kind: InjectionKind::JobVanish,
        });
        let v = run_scenario(&s).violation.expect("job vanish not caught");
        assert_eq!(v.oracle, "no_job_lost");
        // The replication injections need a replicated-MM scenario.
        for (kind, oracle) in [
            (InjectionKind::ReplicaSkew { rank: 1 }, "repl_consistency"),
            (InjectionKind::DualActive, "single_active_mm"),
        ] {
            let mut s = Scenario::mm_failover().with_injection(Injection {
                at_ms: 20,
                kind: kind.clone(),
            });
            s.faults.clear(); // corrupt a healthy replicated cluster
            let v = run_scenario(&s)
                .violation
                .unwrap_or_else(|| panic!("{kind:?} not caught"));
            assert_eq!(v.oracle, oracle, "for {kind:?}");
        }
    }

    #[test]
    fn caught_runner_reports_panics_as_violations() {
        // An invalid scenario (job larger than the cluster) trips the
        // submit-time assertion; the caught runner turns that into a
        // violation instead of unwinding through the explorer.
        let mut s = Scenario::two_node_launch();
        s.jobs[0].ranks = 4096;
        let out = run_scenario_caught(&s);
        let v = out.violation.expect("panic must surface");
        assert_eq!(v.oracle, "panic");
        assert!(v.detail.contains("nodes"), "detail: {}", v.detail);
    }
}
