//! Scenarios: the self-contained description of one DST run — cluster
//! shape, workload, fault schedule, delivery order and (optionally) a
//! deliberate state injection. A scenario serialises to/from JSON so a
//! repro artifact carries everything needed to re-execute a failure
//! byte-identically on another machine.

use crate::json::{self, num, Value};

/// Which application a scenario job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppKind {
    /// `do-nothing` with an `mb`-megabyte binary (the launch experiment).
    Binary {
        /// Binary image size in MiB.
        mb: u64,
    },
    /// A pure-compute synthetic job running `ms` milliseconds per rank.
    Compute {
        /// Single-rank compute time in milliseconds.
        ms: u64,
    },
}

/// One job submission in a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobEvent {
    /// Submission instant, in milliseconds of simulated time.
    pub at_ms: u64,
    /// Rank count.
    pub ranks: u32,
    /// What the job runs.
    pub app: AppKind,
}

/// One timed fault in a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Injection instant, milliseconds.
    pub at_ms: u64,
    /// Target node.
    pub node: u32,
    /// What happens to it.
    pub kind: FaultKind,
}

/// The kind of a timed fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The node's dæmon dies (stops responding to everything).
    Fail,
    /// A previously failed node comes back.
    Rejoin,
    /// The dæmon stalls (messages deferred) until `until_ms`.
    Stall {
        /// End of the stall window, milliseconds.
        until_ms: u64,
    },
    /// An MM replica dies. For this kind the spec's `node` field is the
    /// replica *rank* (0 = primary); killing the active replica exercises
    /// the regroup/failover protocol.
    MmKill,
}

/// The delivery order a scenario runs under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderSpec {
    /// The engine's classic `(time, seq)` order (no hook installed).
    Default,
    /// Seeded same-instant permutation: tie `i` uniform over
    /// `0..=amplitude` from SplitMix64 over `seed`, optionally with a
    /// bounded random delivery delay.
    Seeded {
        /// The hook's own seed (independent of the simulation seed).
        seed: u64,
        /// Inclusive tie range bound; 0 is the identity order.
        amplitude: u64,
        /// Upper bound (µs) on the per-event random delivery delay; 0
        /// disables delay. Delays only ever push deliveries later, so
        /// time-order legality holds — but a delayed run perturbs event
        /// *times* and is not regenerable as a tie script, so the
        /// shrinker leaves delayed orders seeded.
        delay_us: u64,
    },
    /// An explicit tie script (insertion `i` gets `ties[i]`, 0 after
    /// exhaustion) — what the shrinker reduces a seeded failure to.
    Script {
        /// The per-insertion tie values.
        ties: Vec<u64>,
    },
}

/// A deliberate state corruption applied mid-run — used to prove each
/// oracle actually fires, and to seed shrinker/replay self-tests with a
/// known minimal bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Timeslice boundary (milliseconds) at which to corrupt state.
    pub at_ms: u64,
    /// What to corrupt.
    pub kind: InjectionKind,
}

/// The kinds of deliberate corruption the harness knows how to apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectionKind {
    /// Bump `stats.completed_jobs` without completing anything — a
    /// double-completion, caught by `job_accounting`.
    CompletedSkew,
    /// Regress the MM's heartbeat round counter — caught by
    /// `heartbeat_monotonic`.
    HbRegress,
    /// Move a placed job's recorded allocation to the next slot, leaving
    /// the matrix as it is — caught by `matrix_consistency`.
    MatrixTear,
    /// Apply a COMPARE-AND-WRITE set write, then tamper one node's copy
    /// behind the audit's back (a torn write) — caught by `caw_visibility`.
    CawTear {
        /// The node whose copy is torn.
        node: u32,
    },
    /// Pop a live job out of the MM queue without completing it — a lost
    /// job, caught by `no_job_lost`.
    JobVanish,
    /// Make a standby claim it applied the full decision log while holding
    /// a diverged queue mirror — caught by `repl_consistency`.
    ReplicaSkew {
        /// The standby rank to skew (≥ 1).
        rank: u32,
    },
    /// Flip a standby to the Active role without a promotion — a split
    /// brain, caught by `single_active_mm`.
    DualActive,
}

/// A complete DST scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (becomes part of the artifact name).
    pub name: String,
    /// Cluster node count.
    pub nodes: u32,
    /// CPUs (PEs) per node.
    pub cpus_per_node: u32,
    /// Ousterhout-matrix depth.
    pub mpl_max: usize,
    /// Simulation RNG seed.
    pub seed: u64,
    /// Heartbeat fault round every `k` ticks; 0 disables fault detection.
    pub heartbeat_every: u32,
    /// Standby MM replicas (0 = classic single-MM cluster).
    pub mm_standbys: u32,
    /// Run deadline, milliseconds.
    pub horizon_ms: u64,
    /// Job submissions.
    pub jobs: Vec<JobEvent>,
    /// Timed faults.
    pub faults: Vec<FaultSpec>,
    /// Delivery order under test.
    pub order: OrderSpec,
    /// Optional deliberate corruption.
    pub injection: Option<Injection>,
}

/// Required integer member `key`, converted without truncation: a value
/// that does not fit `T` is an error.
pub(crate) fn req_int<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<T, String> {
    T::try_from(v.req_u64(key)?).map_err(|_| format!("member {key:?} is out of range"))
}

impl Scenario {
    /// The smallest interesting scenario: a two-node cluster launching one
    /// tiny binary — the schedule-space-exploration benchmark workload.
    pub fn two_node_launch() -> Self {
        Scenario {
            name: "two-node-launch".into(),
            nodes: 2,
            cpus_per_node: 2,
            mpl_max: 2,
            seed: 0x5702_2002,
            heartbeat_every: 0,
            mm_standbys: 0,
            horizon_ms: 40,
            jobs: vec![JobEvent {
                at_ms: 0,
                ranks: 4,
                app: AppKind::Binary { mb: 1 },
            }],
            faults: Vec::new(),
            order: OrderSpec::Default,
            injection: None,
        }
    }

    /// A small mixed scenario: 4 nodes, two overlapping jobs, one
    /// fail/rejoin cycle under heartbeat detection — the swarm-tier
    /// workload crossed with fault schedules.
    pub fn small_chaos() -> Self {
        Scenario {
            name: "small-chaos".into(),
            nodes: 4,
            cpus_per_node: 2,
            mpl_max: 2,
            seed: 0xD15C,
            heartbeat_every: 4,
            mm_standbys: 0,
            horizon_ms: 120,
            jobs: vec![
                JobEvent {
                    at_ms: 0,
                    ranks: 4,
                    app: AppKind::Binary { mb: 1 },
                },
                JobEvent {
                    at_ms: 5,
                    ranks: 2,
                    app: AppKind::Compute { ms: 30 },
                },
            ],
            faults: vec![
                FaultSpec {
                    at_ms: 20,
                    node: 3,
                    kind: FaultKind::Fail,
                },
                FaultSpec {
                    at_ms: 60,
                    node: 3,
                    kind: FaultKind::Rejoin,
                },
            ],
            order: OrderSpec::Default,
            injection: None,
        }
    }

    /// The failover scenario: a replicated-MM cluster that loses its
    /// active MM mid-run, with one job in flight and one arriving after
    /// the kill — the regroup protocol under the full oracle suite.
    pub fn mm_failover() -> Self {
        Scenario {
            name: "mm-failover".into(),
            nodes: 4,
            cpus_per_node: 2,
            mpl_max: 2,
            seed: 0xFA11,
            heartbeat_every: 4,
            mm_standbys: 2,
            horizon_ms: 200,
            jobs: vec![
                JobEvent {
                    at_ms: 0,
                    ranks: 4,
                    app: AppKind::Binary { mb: 1 },
                },
                JobEvent {
                    at_ms: 5,
                    ranks: 2,
                    app: AppKind::Compute { ms: 30 },
                },
            ],
            faults: vec![FaultSpec {
                at_ms: 40,
                node: 0,
                kind: FaultKind::MmKill,
            }],
            order: OrderSpec::Default,
            injection: None,
        }
    }

    /// Builder: replace the delivery order.
    pub fn with_order(mut self, order: OrderSpec) -> Self {
        self.order = order;
        self
    }

    /// Builder: install a deliberate corruption.
    pub fn with_injection(mut self, injection: Injection) -> Self {
        self.injection = Some(injection);
        self
    }

    /// Sanity-check ranges (mirrors what `ClusterConfig::validate` and the
    /// submit-time assertions would reject, but as an `Err`).
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 || self.cpus_per_node == 0 || self.mpl_max == 0 {
            return Err("cluster dimensions must be ≥ 1".into());
        }
        for j in &self.jobs {
            let nodes_needed = j.ranks.div_ceil(self.cpus_per_node);
            if j.ranks == 0 || nodes_needed > self.nodes {
                return Err(format!("job with {} ranks does not fit", j.ranks));
            }
        }
        for f in &self.faults {
            if matches!(f.kind, FaultKind::MmKill) {
                if f.node > self.mm_standbys {
                    return Err(format!(
                        "MM kill targets rank {} of {} replicas",
                        f.node,
                        self.mm_standbys + 1
                    ));
                }
            } else if f.node >= self.nodes {
                return Err(format!("fault targets node {} of {}", f.node, self.nodes));
            }
        }
        if self.horizon_ms == 0 {
            return Err("horizon must be positive".into());
        }
        Ok(())
    }

    /// Number of "events" a repro is counted in: scenario inputs (jobs,
    /// faults, injection) plus the nonzero ties of a script order. This is
    /// the quantity the shrinker minimises.
    pub fn event_count(&self) -> usize {
        let ties = match &self.order {
            OrderSpec::Script { ties } => ties.iter().filter(|&&t| t != 0).count(),
            _ => 0,
        };
        ties + self.jobs.len() + self.faults.len() + usize::from(self.injection.is_some())
    }

    // ------------------------------------------------------------- JSON —

    /// Serialise to a JSON [`Value`].
    pub fn to_json(&self) -> Value {
        let app = |a: &AppKind| match a {
            AppKind::Binary { mb } => Value::Obj(vec![
                ("kind".into(), Value::Str("binary".into())),
                ("mb".into(), num(mb)),
            ]),
            AppKind::Compute { ms } => Value::Obj(vec![
                ("kind".into(), Value::Str("compute".into())),
                ("ms".into(), num(ms)),
            ]),
        };
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                Value::Obj(vec![
                    ("at_ms".into(), num(j.at_ms)),
                    ("ranks".into(), num(j.ranks)),
                    ("app".into(), app(&j.app)),
                ])
            })
            .collect();
        let faults = self
            .faults
            .iter()
            .map(|f| {
                let mut members =
                    vec![("at_ms".into(), num(f.at_ms)), ("node".into(), num(f.node))];
                match f.kind {
                    FaultKind::Fail => members.push(("kind".into(), Value::Str("fail".into()))),
                    FaultKind::Rejoin => members.push(("kind".into(), Value::Str("rejoin".into()))),
                    FaultKind::Stall { until_ms } => {
                        members.push(("kind".into(), Value::Str("stall".into())));
                        members.push(("until_ms".into(), num(until_ms)));
                    }
                    FaultKind::MmKill => {
                        members.push(("kind".into(), Value::Str("mm_kill".into())))
                    }
                }
                Value::Obj(members)
            })
            .collect();
        let order = match &self.order {
            OrderSpec::Default => Value::Obj(vec![("kind".into(), Value::Str("default".into()))]),
            OrderSpec::Seeded {
                seed,
                amplitude,
                delay_us,
            } => Value::Obj(vec![
                ("kind".into(), Value::Str("seeded".into())),
                ("seed".into(), num(seed)),
                ("amplitude".into(), num(amplitude)),
                ("delay_us".into(), num(delay_us)),
            ]),
            OrderSpec::Script { ties } => Value::Obj(vec![
                ("kind".into(), Value::Str("script".into())),
                ("ties".into(), Value::Arr(ties.iter().map(num).collect())),
            ]),
        };
        let injection = match &self.injection {
            None => Value::Null,
            Some(inj) => {
                let mut members = vec![("at_ms".into(), num(inj.at_ms))];
                match inj.kind {
                    InjectionKind::CompletedSkew => {
                        members.push(("kind".into(), Value::Str("completed_skew".into())))
                    }
                    InjectionKind::HbRegress => {
                        members.push(("kind".into(), Value::Str("hb_regress".into())))
                    }
                    InjectionKind::MatrixTear => {
                        members.push(("kind".into(), Value::Str("matrix_tear".into())))
                    }
                    InjectionKind::CawTear { node } => {
                        members.push(("kind".into(), Value::Str("caw_tear".into())));
                        members.push(("node".into(), num(node)));
                    }
                    InjectionKind::JobVanish => {
                        members.push(("kind".into(), Value::Str("job_vanish".into())))
                    }
                    InjectionKind::ReplicaSkew { rank } => {
                        members.push(("kind".into(), Value::Str("replica_skew".into())));
                        members.push(("rank".into(), num(rank)));
                    }
                    InjectionKind::DualActive => {
                        members.push(("kind".into(), Value::Str("dual_active".into())))
                    }
                }
                Value::Obj(members)
            }
        };
        Value::Obj(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("nodes".into(), num(self.nodes)),
            ("cpus_per_node".into(), num(self.cpus_per_node)),
            ("mpl_max".into(), num(self.mpl_max)),
            ("seed".into(), num(self.seed)),
            ("heartbeat_every".into(), num(self.heartbeat_every)),
            ("mm_standbys".into(), num(self.mm_standbys)),
            ("horizon_ms".into(), num(self.horizon_ms)),
            ("jobs".into(), Value::Arr(jobs)),
            ("faults".into(), Value::Arr(faults)),
            ("order".into(), order),
            ("injection".into(), injection),
        ])
    }

    /// Deserialise from a JSON [`Value`].
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let jobs = v
            .req("jobs")?
            .as_arr()
            .ok_or("jobs is not an array")?
            .iter()
            .map(|j| {
                let app = j.req("app")?;
                let kind = match app.req_str("kind")? {
                    "binary" => AppKind::Binary {
                        mb: app.req_u64("mb")?,
                    },
                    "compute" => AppKind::Compute {
                        ms: app.req_u64("ms")?,
                    },
                    other => return Err(format!("unknown app kind {other:?}")),
                };
                Ok(JobEvent {
                    at_ms: j.req_u64("at_ms")?,
                    ranks: req_int(j, "ranks")?,
                    app: kind,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let faults = v
            .req("faults")?
            .as_arr()
            .ok_or("faults is not an array")?
            .iter()
            .map(|f| {
                let kind = match f.req_str("kind")? {
                    "fail" => FaultKind::Fail,
                    "rejoin" => FaultKind::Rejoin,
                    "stall" => FaultKind::Stall {
                        until_ms: f.req_u64("until_ms")?,
                    },
                    "mm_kill" => FaultKind::MmKill,
                    other => return Err(format!("unknown fault kind {other:?}")),
                };
                Ok(FaultSpec {
                    at_ms: f.req_u64("at_ms")?,
                    node: req_int(f, "node")?,
                    kind,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let o = v.req("order")?;
        let order = match o.req_str("kind")? {
            "default" => OrderSpec::Default,
            "seeded" => OrderSpec::Seeded {
                seed: o.req_u64("seed")?,
                amplitude: o.req_u64("amplitude")?,
                delay_us: o.get("delay_us").and_then(Value::as_u64).unwrap_or(0),
            },
            "script" => OrderSpec::Script {
                ties: o
                    .req("ties")?
                    .as_arr()
                    .ok_or("ties is not an array")?
                    .iter()
                    .map(|t| t.as_u64().ok_or_else(|| "tie is not a u64".to_string()))
                    .collect::<Result<Vec<_>, String>>()?,
            },
            other => return Err(format!("unknown order kind {other:?}")),
        };
        let injection = match v.req("injection")? {
            Value::Null => None,
            inj => {
                let kind = match inj.req_str("kind")? {
                    "completed_skew" => InjectionKind::CompletedSkew,
                    "hb_regress" => InjectionKind::HbRegress,
                    "matrix_tear" => InjectionKind::MatrixTear,
                    "caw_tear" => InjectionKind::CawTear {
                        node: req_int(inj, "node")?,
                    },
                    "job_vanish" => InjectionKind::JobVanish,
                    "replica_skew" => InjectionKind::ReplicaSkew {
                        rank: req_int(inj, "rank")?,
                    },
                    "dual_active" => InjectionKind::DualActive,
                    other => return Err(format!("unknown injection kind {other:?}")),
                };
                Some(Injection {
                    at_ms: inj.req_u64("at_ms")?,
                    kind,
                })
            }
        };
        Ok(Scenario {
            name: v.req_str("name")?.to_string(),
            nodes: req_int(v, "nodes")?,
            cpus_per_node: req_int(v, "cpus_per_node")?,
            mpl_max: req_int(v, "mpl_max")?,
            seed: v.req_u64("seed")?,
            heartbeat_every: req_int(v, "heartbeat_every")?,
            // Optional for backward compatibility with pre-replication
            // artifacts.
            mm_standbys: match v.get("mm_standbys") {
                Some(_) => req_int(v, "mm_standbys")?,
                None => 0,
            },
            horizon_ms: v.req_u64("horizon_ms")?,
            jobs,
            faults,
            order,
            injection,
        })
    }

    /// Serialise to a compact JSON string.
    pub fn to_json_string(&self) -> String {
        json::render(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_scenarios_validate() {
        assert!(Scenario::two_node_launch().validate().is_ok());
        assert!(Scenario::small_chaos().validate().is_ok());
        assert!(Scenario::mm_failover().validate().is_ok());
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let s = Scenario::small_chaos()
            .with_order(OrderSpec::Script {
                ties: vec![0, 3, 0, 1],
            })
            .with_injection(Injection {
                at_ms: 30,
                kind: InjectionKind::CawTear { node: 1 },
            });
        let text = s.to_json_string();
        let back = Scenario::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        // Every injection kind survives the trip.
        // The failover scenario (standbys + MM kill) round-trips too.
        let s = Scenario::mm_failover();
        let back = Scenario::from_json(&json::parse(&s.to_json_string()).unwrap()).unwrap();
        assert_eq!(back, s);
        for kind in [
            InjectionKind::CompletedSkew,
            InjectionKind::HbRegress,
            InjectionKind::MatrixTear,
            InjectionKind::JobVanish,
            InjectionKind::ReplicaSkew { rank: 1 },
            InjectionKind::DualActive,
        ] {
            let s = Scenario::two_node_launch().with_injection(Injection { at_ms: 5, kind });
            let back = Scenario::from_json(&json::parse(&s.to_json_string()).unwrap()).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn the_retired_quarantine_desync_injection_is_rejected() {
        // It flipped a per-node quarantine flag that no longer exists.
        let Value::Obj(mut members) = Scenario::two_node_launch().to_json() else {
            panic!("a scenario serialises to an object");
        };
        let injection = Value::Obj(vec![
            ("at_ms".into(), num(5)),
            ("kind".into(), Value::Str("quarantine_desync".into())),
            ("node".into(), num(1)),
        ]);
        members.retain(|(k, _)| k != "injection");
        members.push(("injection".into(), injection));
        let err = Scenario::from_json(&Value::Obj(members)).unwrap_err();
        assert!(err.contains("unknown injection kind"), "{err}");
    }

    #[test]
    fn repros_carrying_the_retired_backend_key_still_parse() {
        // Artifacts written before the queue backend stopped being a
        // scenario setting carry a `"backend"` key; keys are read by name,
        // so it is ignored and the rest decodes unchanged.
        let s = Scenario::small_chaos();
        let Value::Obj(mut members) = s.to_json() else {
            panic!("a scenario serialises to an object");
        };
        members.push(("backend".into(), Value::Str("heap".into())));
        let back = Scenario::from_json(&Value::Obj(members)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn integers_that_do_not_fit_are_rejected_not_truncated() {
        // 4294967298 used to decode as `as u32` truncation: 2 nodes.
        let rewrite = |path: &[&str], n: u64| {
            let mut v = Scenario::small_chaos().to_json();
            let mut at = &mut v;
            for key in path {
                at = match at {
                    Value::Obj(m) => &mut m.iter_mut().find(|(k, _)| k == key).unwrap().1,
                    Value::Arr(items) => &mut items[key.parse::<usize>().unwrap()],
                    _ => unreachable!("path runs through containers"),
                };
            }
            *at = json::num(n);
            Scenario::from_json(&v)
        };
        let err = rewrite(&["nodes"], 4_294_967_298).unwrap_err();
        assert!(err.contains("\"nodes\" is out of range"), "{err}");
        for path in [
            &["cpus_per_node"][..],
            &["heartbeat_every"],
            &["mm_standbys"],
            &["jobs", "0", "ranks"],
            &["faults", "0", "node"],
        ] {
            assert!(rewrite(path, 1 << 32).is_err(), "{path:?}");
            assert!(rewrite(path, 3).is_ok(), "{path:?}");
        }
    }

    #[test]
    fn validation_rejects_misfits() {
        let mut s = Scenario::two_node_launch();
        s.jobs[0].ranks = 999;
        assert!(s.validate().is_err());
        let mut s = Scenario::small_chaos();
        s.faults[0].node = 99;
        assert!(s.validate().is_err());
        let mut s = Scenario::two_node_launch();
        s.horizon_ms = 0;
        assert!(s.validate().is_err());
        // An MM kill aimed past the replica set is rejected.
        let mut s = Scenario::mm_failover();
        s.faults[0].node = 3; // ranks 0..=2 exist
        assert!(s.validate().is_err());
    }

    #[test]
    fn event_count_counts_only_meaningful_inputs() {
        let s = Scenario::two_node_launch(); // 1 job
        assert_eq!(s.event_count(), 1);
        let s = s
            .with_order(OrderSpec::Script {
                ties: vec![0, 0, 2, 0, 1],
            })
            .with_injection(Injection {
                at_ms: 5,
                kind: InjectionKind::CompletedSkew,
            });
        // 1 job + 2 nonzero ties + 1 injection.
        assert_eq!(s.event_count(), 4);
    }
}
