//! Schedule-space exploration: bounded-exhaustive enumeration of tie
//! scripts for tiny clusters, and seeded swarm search for everything else.
//! Both tiers cross the delivery-order dimension with whatever fault
//! schedule the base scenario carries.

use crate::runner::{run_scenario_caught, RunOutcome};
use crate::scenario::{OrderSpec, Scenario};
use std::collections::BTreeSet;

/// What an exploration pass covered and found.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Scenario runs executed.
    pub runs: u64,
    /// Distinct trace digests observed — distinct *interleavings actually
    /// exercised*, the coverage number that matters.
    pub distinct: u64,
    /// The first failing `(scenario, outcome)`, if any run failed.
    pub failure: Option<(Scenario, RunOutcome)>,
}

/// Most runs the bounded-exhaustive tier may take.
pub const EXHAUSTIVE_CAP: u64 = 4096;

/// Runs the bounded-exhaustive tier takes for `(amplitude, prefix_len)`:
/// `(amplitude+1) ^ prefix_len`, or `None` when that overflows `u64` —
/// which callers must treat as over [`EXHAUSTIVE_CAP`].
pub fn exhaustive_runs(amplitude: u64, prefix_len: u32) -> Option<u64> {
    amplitude.checked_add(1)?.checked_pow(prefix_len)
}

/// Bounded-exhaustive tier: enumerate **every** tie script over the first
/// `prefix_len` insertions with values `0..=amplitude` — `(amplitude+1) ^
/// prefix_len` runs, so keep both small (panics past [`EXHAUSTIVE_CAP`]).
/// Ties beyond the prefix are zero (insertion order), so the enumeration
/// is exhaustive over a bounded window of the schedule space.
pub fn explore_exhaustive(base: &Scenario, amplitude: u64, prefix_len: u32) -> ExploreReport {
    let total = exhaustive_runs(amplitude, prefix_len)
        .filter(|&runs| runs <= EXHAUSTIVE_CAP)
        .expect("bounded-exhaustive tier capped at 4096 runs");
    let mut digests = BTreeSet::new();
    let mut runs = 0;
    for index in 0..total {
        // Decode `index` as a base-(amplitude+1) numeral: one digit per
        // scripted insertion.
        let mut ties = Vec::with_capacity(prefix_len as usize);
        let mut rest = index;
        for _ in 0..prefix_len {
            ties.push(rest % (amplitude + 1));
            rest /= amplitude + 1;
        }
        let scenario = base.clone().with_order(OrderSpec::Script { ties });
        let outcome = run_scenario_caught(&scenario);
        runs += 1;
        digests.insert(outcome.digest);
        if outcome.failed() {
            return ExploreReport {
                runs,
                distinct: digests.len() as u64,
                failure: Some((scenario, outcome)),
            };
        }
    }
    ExploreReport {
        runs,
        distinct: digests.len() as u64,
        failure: None,
    }
}

/// Swarm tier: one seeded run per seed in `seeds`, each permuting every
/// same-instant tie in `0..=amplitude`. Linear cost, probabilistic
/// coverage — the tier that scales to big clusters and long horizons.
/// `delay_us > 0` additionally perturbs every event by a bounded random
/// delay, which multiplies the reachable schedule space far beyond what
/// same-instant permutation alone can reach on workloads whose event
/// times are mostly unique.
pub fn explore_swarm(
    base: &Scenario,
    amplitude: u64,
    delay_us: u64,
    seeds: impl IntoIterator<Item = u64>,
) -> ExploreReport {
    let mut digests = BTreeSet::new();
    let mut runs = 0;
    for seed in seeds {
        let scenario = base.clone().with_order(OrderSpec::Seeded {
            seed,
            amplitude,
            delay_us,
        });
        let outcome = run_scenario_caught(&scenario);
        runs += 1;
        digests.insert(outcome.digest);
        if outcome.failed() {
            return ExploreReport {
                runs,
                distinct: digests.len() as u64,
                failure: Some((scenario, outcome)),
            };
        }
    }
    ExploreReport {
        runs,
        distinct: digests.len() as u64,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_tier_covers_the_whole_window() {
        // 2^3 = 8 scripts over the first 3 insertions of the tiny launch.
        let report = explore_exhaustive(&Scenario::two_node_launch(), 1, 3);
        assert_eq!(report.runs, 8);
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.distinct >= 1);
    }

    #[test]
    fn run_count_overflow_is_over_the_cap() {
        assert_eq!(exhaustive_runs(3, 4), Some(256));
        assert_eq!(exhaustive_runs(1, 32), Some(1 << 32));
        assert_eq!(exhaustive_runs(3, 32), None, "4^32 overflows u64");
        assert_eq!(exhaustive_runs(u64::MAX, 1), None);
        // A long prefix at amplitude 0 is one all-zero script, not zero runs.
        let report = explore_exhaustive(&Scenario::two_node_launch(), 0, 32);
        assert_eq!(report.runs, 1);
        assert!(report.failure.is_none(), "{:?}", report.failure);
    }

    #[test]
    #[should_panic(expected = "capped at 4096 runs")]
    fn overflowing_window_is_refused_not_wrapped() {
        explore_exhaustive(&Scenario::two_node_launch(), 3, 32);
    }

    #[test]
    fn swarm_tier_finds_many_distinct_interleavings() {
        let report = explore_swarm(&Scenario::two_node_launch(), 3, 0, 0..16);
        assert_eq!(report.runs, 16);
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(
            report.distinct >= 8,
            "only {} distinct interleavings in 16 seeded runs",
            report.distinct
        );
    }

    #[test]
    fn bounded_delay_multiplies_the_reachable_schedule_space() {
        let plain = explore_swarm(&Scenario::two_node_launch(), 3, 0, 0..12);
        let delayed = explore_swarm(&Scenario::two_node_launch(), 3, 20, 0..12);
        assert!(plain.failure.is_none() && delayed.failure.is_none());
        assert!(
            delayed.distinct >= plain.distinct,
            "delay cannot shrink the space: {} < {}",
            delayed.distinct,
            plain.distinct
        );
        assert_eq!(delayed.distinct, 12, "every delayed seed is distinct");
    }
}
