//! Repro artifacts: a failing (ideally shrunk) scenario, the violation it
//! produces, and the run digest — serialised as one self-contained JSON
//! document (`DST_repro_<name>.json`) that [`replay`] re-executes and
//! verifies byte-identically.

use crate::json::{self, num, Value};
use crate::oracle::Violation;
use crate::runner::{run_scenario_caught, RunOutcome};
use crate::scenario::Scenario;
use storm_sim::SimTime;

/// A parsed (or about-to-be-written) repro artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// The (shrunk) failing scenario.
    pub scenario: Scenario,
    /// The violation the scenario produces.
    pub violation: Violation,
    /// The failing run's trace digest.
    pub digest: u64,
    /// The scenario's [`Scenario::event_count`] at write time.
    pub event_count: usize,
}

impl Repro {
    /// Build an artifact from a failing run.
    pub fn from_run(scenario: &Scenario, outcome: &RunOutcome) -> Self {
        Repro {
            scenario: scenario.clone(),
            violation: outcome
                .violation
                .clone()
                .expect("repro needs a failing outcome"),
            digest: outcome.digest,
            event_count: scenario.event_count(),
        }
    }

    /// The artifact's conventional file name.
    pub fn file_name(&self) -> String {
        format!("DST_repro_{}.json", self.scenario.name)
    }

    /// Serialise to the self-contained JSON document.
    pub fn to_json_string(&self) -> String {
        json::render(&Value::Obj(vec![
            ("version".into(), num(1)),
            ("scenario".into(), self.scenario.to_json()),
            (
                "violation".into(),
                Value::Obj(vec![
                    ("oracle".into(), Value::Str(self.violation.oracle.clone())),
                    ("at_ns".into(), num(self.violation.at.as_nanos())),
                    ("detail".into(), Value::Str(self.violation.detail.clone())),
                ]),
            ),
            ("digest".into(), num(self.digest)),
            ("event_count".into(), num(self.event_count)),
        ]))
    }

    /// Parse an artifact document.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let version = doc.req_u64("version")?;
        if version != 1 {
            return Err(format!("unsupported artifact version {version}"));
        }
        let v = doc.req("violation")?;
        Ok(Repro {
            scenario: Scenario::from_json(doc.req("scenario")?)?,
            violation: Violation {
                oracle: v.req_str("oracle")?.to_string(),
                at: SimTime::from_nanos(v.req_u64("at_ns")?),
                detail: v.req_str("detail")?.to_string(),
            },
            digest: doc.req_u64("digest")?,
            event_count: crate::scenario::req_int(&doc, "event_count")?,
        })
    }
}

/// What a replay established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// The replayed run's outcome.
    pub outcome: RunOutcome,
    /// Mismatches against the artifact (empty = faithful replay).
    pub mismatches: Vec<String>,
}

impl ReplayReport {
    /// Did the replay reproduce the artifact exactly?
    pub fn faithful(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Re-execute an artifact's scenario **twice** and verify both runs fire
/// the same oracle at the same instant with the same digest as recorded —
/// deterministic, byte-identical reproduction.
pub fn replay(repro: &Repro) -> ReplayReport {
    let first = run_scenario_caught(&repro.scenario);
    let second = run_scenario_caught(&repro.scenario);
    let mut mismatches = Vec::new();
    if first != second {
        mismatches.push(format!(
            "replay is not deterministic: {first:?} vs {second:?}"
        ));
    }
    match &first.violation {
        None => mismatches.push("replay produced no violation".into()),
        Some(v) => {
            if v.oracle != repro.violation.oracle {
                mismatches.push(format!(
                    "oracle mismatch: recorded {}, replayed {}",
                    repro.violation.oracle, v.oracle
                ));
            }
            if v.at != repro.violation.at {
                mismatches.push(format!(
                    "violation instant mismatch: recorded {}, replayed {}",
                    repro.violation.at, v.at
                ));
            }
        }
    }
    if first.digest != repro.digest {
        mismatches.push(format!(
            "digest mismatch: recorded {:#018x}, replayed {:#018x}",
            repro.digest, first.digest
        ));
    }
    ReplayReport {
        outcome: first,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Injection, InjectionKind};

    fn failing_repro() -> Repro {
        let s = Scenario::two_node_launch().with_injection(Injection {
            at_ms: 10,
            kind: InjectionKind::MatrixTear,
        });
        let out = run_scenario_caught(&s);
        assert!(out.failed());
        Repro::from_run(&s, &out)
    }

    #[test]
    fn artifact_round_trips_and_replays() {
        let repro = failing_repro();
        let text = repro.to_json_string();
        let back = Repro::from_json_str(&text).unwrap();
        assert_eq!(back, repro);
        assert_eq!(back.file_name(), "DST_repro_two-node-launch.json");
        let report = replay(&back);
        assert!(report.faithful(), "mismatches: {:?}", report.mismatches);
    }

    #[test]
    fn replay_detects_a_tampered_artifact() {
        let mut repro = failing_repro();
        repro.digest ^= 1;
        let report = replay(&repro);
        assert!(!report.faithful());
        assert!(report.mismatches[0].contains("digest"));
        let mut repro = failing_repro();
        repro.violation.oracle = "job_accounting".into();
        assert!(!replay(&repro).faithful());
    }

    #[test]
    fn rejects_unknown_versions() {
        let repro = failing_repro();
        let text = repro
            .to_json_string()
            .replacen("\"version\":1", "\"version\":9", 1);
        assert!(Repro::from_json_str(&text).is_err());
    }
}
