//! Checkpoint/restore: serialize a running [`Cluster`] to a
//! self-contained, versioned JSON artifact and rebuild it later — in a
//! different process or on a different machine — such that the resumed
//! run is byte-identical (trace, stats, snapshots, interleaving digest)
//! to the uninterrupted one.
//!
//! The artifact (`CKPT_*.json` by convention, mirroring the DST repro
//! format) captures everything mutable: the engine image (clock, pending
//! queue entries with their `(time, tie, seq)` pop keys, both payload
//! arenas, RNG stream, delivery-order hook, trace), the shared world
//! (global memory, jobs, queue, gang matrix, node health, devices,
//! replication plane, telemetry), and every dæmon's private state (MM,
//! NMs, PLs). The configuration is embedded whole; nothing about a
//! restore depends on the restoring process's environment.
//!
//! Restore works by *reconstruction*: [`Cluster::new`] rebuilds the
//! deterministic layout (component wiring, QsNET model, fault plan) from
//! the embedded config, the engine image then replaces the construction-
//! time event queue wholesale, and the world/component sections overwrite
//! the remaining mutable state. Version mismatches and malformed
//! documents are rejected with descriptive errors, never panics.
//!
//! Encoding conventions: times and spans as integer nanoseconds, `f64`
//! as IEEE-754 bit patterns (`to_bits`), enums as lowercase tagged
//! arrays, `Option` as the value or `null`. All integers round-trip
//! exactly through the shared [`storm_telemetry::json`] value model.

use crate::buddy::BuddyState;
use crate::cluster::Cluster;
use crate::config::{ClusterConfig, DaemonCosts, SchedulerKind};
use crate::fault::{FailurePolicy, FaultEvent, FaultSchedule};
use crate::job::{Allocation, JobId, JobMetrics, JobRecord, JobSpec, JobState, TransferState};
use crate::matrix::{GangMatrix, MatrixState, SlotState};
use crate::mm::{MachineManager, MmState};
use crate::msg::{Msg, ReportKind};
use crate::nm::{NmLocalJobState, NmState, NodeManager};
use crate::pl::ProgramLauncher;
use crate::replica::{Decision, MmCoreState, MmRole, ReplStats, ReplicaState};
use crate::world::{ClusterStats, IdleLeap, NodeTable, World};
use std::sync::Arc;
use storm_apps::{AppSpec, Step, Workload, WorkloadCursor};
use storm_fs::FsKind;
use storm_mech::{CawAudit, ErrorBurst, GlobalMemory, MemoryState, NodeId, NodeSet, VarId};
use storm_net::{BackgroundLoad, BufferPlacement, NetworkKind, Nic};
use storm_sim::{
    intern_label, ArenaState, ComponentId, DeliveryOrder, DeliveryOrderState, EngineState,
    GroupSchedule, GroupState, GroupTargets, OrderModeState, QueueAccounting, QueuedEventState,
    SimSpan, SimTime, TraceRecord,
};
use storm_telemetry::json::{num, parse, render, Value};
use storm_telemetry::registry::HISTOGRAM_BUCKETS;
use storm_telemetry::{
    Histogram, JobSpan, MetricKey, MetricValue, MetricsRegistry, Phase, SpanLog, Telemetry,
};

/// Artifact format version. Bumped on any incompatible layout change;
/// [`Cluster::restore`] rejects artifacts from other versions.
pub const CHECKPOINT_VERSION: u64 = 2;

type R<T> = Result<T, String>;

// ---------------------------------------------------------------------------
// Small encode/decode helpers
// ---------------------------------------------------------------------------

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn tag(name: &str, args: Vec<Value>) -> Value {
    let mut v = vec![Value::Str(name.to_string())];
    v.extend(args);
    Value::Arr(v)
}

fn time(t: SimTime) -> Value {
    num(t.as_nanos())
}

fn span(s: SimSpan) -> Value {
    num(s.as_nanos())
}

fn fbits(x: f64) -> Value {
    num(x.to_bits())
}

fn boolean(b: bool) -> Value {
    Value::Bool(b)
}

fn string(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn opt<T>(v: Option<T>, f: impl FnOnce(T) -> Value) -> Value {
    match v {
        Some(x) => f(x),
        None => Value::Null,
    }
}

fn du64(v: &Value) -> R<u64> {
    v.as_u64().ok_or_else(|| "expected unsigned integer".into())
}

fn di64(v: &Value) -> R<i64> {
    v.as_i64().ok_or_else(|| "expected integer".into())
}

fn du32(v: &Value) -> R<u32> {
    u32::try_from(du64(v)?).map_err(|_| "integer out of u32 range".to_string())
}

fn dusize(v: &Value) -> R<usize> {
    usize::try_from(du64(v)?).map_err(|_| "integer out of usize range".to_string())
}

fn df64(v: &Value) -> R<f64> {
    Ok(f64::from_bits(du64(v)?))
}

fn dbool(v: &Value) -> R<bool> {
    match v {
        Value::Bool(b) => Ok(*b),
        _ => Err("expected boolean".into()),
    }
}

fn dstr(v: &Value) -> R<&str> {
    v.as_str().ok_or_else(|| "expected string".into())
}

fn darr(v: &Value) -> R<&[Value]> {
    v.as_arr().ok_or_else(|| "expected array".into())
}

fn dtime(v: &Value) -> R<SimTime> {
    Ok(SimTime::from_nanos(du64(v)?))
}

fn dspan(v: &Value) -> R<SimSpan> {
    Ok(SimSpan::from_nanos(du64(v)?))
}

fn dopt(v: &Value) -> Option<&Value> {
    match v {
        Value::Null => None,
        other => Some(other),
    }
}

fn arg(a: &[Value], i: usize) -> R<&Value> {
    a.get(i)
        .ok_or_else(|| format!("missing tagged-array argument {i}"))
}

fn untag(v: &Value) -> R<(&str, &[Value])> {
    let a = darr(v)?;
    let t = dstr(a.first().ok_or_else(|| "empty tagged array".to_string())?)?;
    Ok((t, &a[1..]))
}

fn elems<'a>(v: &'a Value, k: &str) -> R<&'a [Value]> {
    darr(v.req(k)?).map_err(|e| format!("{k}: {e}"))
}

fn dvec<T>(v: &Value, f: impl Fn(&Value) -> R<T>) -> R<Vec<T>> {
    darr(v)?.iter().map(f).collect()
}

fn djob(v: &Value) -> R<JobId> {
    Ok(JobId(du32(v)?))
}

// ---------------------------------------------------------------------------
// Config
// ---------------------------------------------------------------------------

fn enc_order_state(s: &DeliveryOrderState) -> Value {
    let mode = match &s.mode {
        OrderModeState::Seeded { state, amplitude } => {
            tag("seeded", vec![num(*state), num(*amplitude)])
        }
        OrderModeState::Script(ties) => tag(
            "script",
            vec![Value::Arr(ties.iter().map(|&t| num(t)).collect())],
        ),
    };
    obj(vec![
        ("mode", mode),
        ("max_delay", span(s.max_delay)),
        ("draws", num(s.draws)),
    ])
}

fn dec_order_state(v: &Value) -> R<DeliveryOrderState> {
    let (t, a) = untag(v.req("mode")?)?;
    let mode = match t {
        "seeded" => OrderModeState::Seeded {
            state: du64(arg(a, 0)?)?,
            amplitude: du64(arg(a, 1)?)?,
        },
        "script" => OrderModeState::Script(dvec(arg(a, 0)?, du64)?),
        other => return Err(format!("unknown delivery-order mode {other:?}")),
    };
    Ok(DeliveryOrderState {
        mode,
        max_delay: dspan(v.req("max_delay")?)?,
        draws: v.req_u64("draws")?,
    })
}

fn enc_fault_event(e: &FaultEvent) -> Value {
    match *e {
        FaultEvent::Crash { at, node } => tag("crash", vec![time(at), num(node)]),
        FaultEvent::Rejoin { at, node } => tag("rejoin", vec![time(at), num(node)]),
        FaultEvent::Stall { node, from, until } => {
            tag("stall", vec![num(node), time(from), time(until)])
        }
        FaultEvent::MmCrash { at, rank } => tag("mm_crash", vec![time(at), num(rank)]),
    }
}

fn dec_fault_event(v: &Value) -> R<FaultEvent> {
    let (t, a) = untag(v)?;
    Ok(match t {
        "crash" => FaultEvent::Crash {
            at: dtime(arg(a, 0)?)?,
            node: du32(arg(a, 1)?)?,
        },
        "rejoin" => FaultEvent::Rejoin {
            at: dtime(arg(a, 0)?)?,
            node: du32(arg(a, 1)?)?,
        },
        "stall" => FaultEvent::Stall {
            node: du32(arg(a, 0)?)?,
            from: dtime(arg(a, 1)?)?,
            until: dtime(arg(a, 2)?)?,
        },
        "mm_crash" => FaultEvent::MmCrash {
            at: dtime(arg(a, 0)?)?,
            rank: du32(arg(a, 1)?)?,
        },
        other => return Err(format!("unknown fault event {other:?}")),
    })
}

fn enc_faults(f: &FaultSchedule) -> Value {
    obj(vec![
        (
            "events",
            Value::Arr(f.events.iter().map(enc_fault_event).collect()),
        ),
        ("xfer_error_prob", fbits(f.xfer_error_prob)),
        ("caw_drop_prob", fbits(f.caw_drop_prob)),
        ("heartbeat_drop_prob", fbits(f.heartbeat_drop_prob)),
        (
            "bursts",
            Value::Arr(
                f.bursts
                    .iter()
                    .map(|b| Value::Arr(vec![time(b.from), time(b.until), fbits(b.prob)]))
                    .collect(),
            ),
        ),
    ])
}

fn dec_faults(v: &Value) -> R<FaultSchedule> {
    Ok(FaultSchedule {
        events: elems(v, "events")?
            .iter()
            .map(dec_fault_event)
            .collect::<R<_>>()?,
        xfer_error_prob: df64(v.req("xfer_error_prob")?)?,
        caw_drop_prob: df64(v.req("caw_drop_prob")?)?,
        heartbeat_drop_prob: df64(v.req("heartbeat_drop_prob")?)?,
        bursts: elems(v, "bursts")?
            .iter()
            .map(|b| {
                let a = darr(b)?;
                Ok(ErrorBurst {
                    from: dtime(arg(a, 0)?)?,
                    until: dtime(arg(a, 1)?)?,
                    prob: df64(arg(a, 2)?)?,
                })
            })
            .collect::<R<_>>()?,
    })
}

fn enc_policy(p: &FailurePolicy) -> Value {
    match *p {
        FailurePolicy::Fail => tag("fail", vec![]),
        FailurePolicy::Requeue {
            max_retries,
            backoff,
        } => tag("requeue", vec![num(max_retries), span(backoff)]),
        FailurePolicy::Shrink => tag("shrink", vec![]),
    }
}

fn dec_policy(v: &Value) -> R<FailurePolicy> {
    let (t, a) = untag(v)?;
    Ok(match t {
        "fail" => FailurePolicy::Fail,
        "requeue" => FailurePolicy::Requeue {
            max_retries: du32(arg(a, 0)?)?,
            backoff: dspan(arg(a, 1)?)?,
        },
        "shrink" => FailurePolicy::Shrink,
        other => return Err(format!("unknown failure policy {other:?}")),
    })
}

fn enc_daemon(d: &DaemonCosts) -> Value {
    obj(vec![
        ("nm_strobe_service", span(d.nm_strobe_service)),
        ("switch_overhead", span(d.switch_overhead)),
        ("nm_msg_service", span(d.nm_msg_service)),
        ("fork_base", span(d.fork_base)),
        ("fork_sigma", fbits(d.fork_sigma)),
        ("helper_bw", fbits(d.helper_bw)),
        ("chunk_fixed", span(d.chunk_fixed)),
        ("tlb_per_extra_slot", span(d.tlb_per_extra_slot)),
        ("caw_poll", span(d.caw_poll)),
        ("write_sigma", fbits(d.write_sigma)),
        ("exit_detect", span(d.exit_detect)),
        ("os_delay_mean", span(d.os_delay_mean)),
        ("mm_report_service", span(d.mm_report_service)),
        ("ics_local_quantum", span(d.ics_local_quantum)),
    ])
}

fn dec_daemon(v: &Value) -> R<DaemonCosts> {
    Ok(DaemonCosts {
        nm_strobe_service: dspan(v.req("nm_strobe_service")?)?,
        switch_overhead: dspan(v.req("switch_overhead")?)?,
        nm_msg_service: dspan(v.req("nm_msg_service")?)?,
        fork_base: dspan(v.req("fork_base")?)?,
        fork_sigma: df64(v.req("fork_sigma")?)?,
        helper_bw: df64(v.req("helper_bw")?)?,
        chunk_fixed: dspan(v.req("chunk_fixed")?)?,
        tlb_per_extra_slot: dspan(v.req("tlb_per_extra_slot")?)?,
        caw_poll: dspan(v.req("caw_poll")?)?,
        write_sigma: df64(v.req("write_sigma")?)?,
        exit_detect: dspan(v.req("exit_detect")?)?,
        os_delay_mean: dspan(v.req("os_delay_mean")?)?,
        mm_report_service: dspan(v.req("mm_report_service")?)?,
        ics_local_quantum: dspan(v.req("ics_local_quantum")?)?,
    })
}

fn enc_config(cfg: &ClusterConfig) -> Value {
    obj(vec![
        ("nodes", num(cfg.nodes)),
        ("cpus_per_node", num(cfg.cpus_per_node)),
        ("timeslice", span(cfg.timeslice)),
        ("max_event_collect", span(cfg.max_event_collect)),
        ("mpl_max", num(cfg.mpl_max)),
        ("chunk_bytes", num(cfg.chunk_bytes)),
        ("queue_slots", num(cfg.queue_slots)),
        (
            "fs",
            string(match cfg.fs {
                FsKind::RamDisk => "ram_disk",
                FsKind::LocalExt2 => "local_ext2",
                FsKind::Nfs => "nfs",
            }),
        ),
        (
            "placement",
            string(match cfg.placement {
                BufferPlacement::MainMemory => "main_memory",
                BufferPlacement::NicMemory => "nic_memory",
            }),
        ),
        (
            "network",
            string(match cfg.network {
                NetworkKind::QsNet => "qsnet",
                NetworkKind::GigabitEthernet => "gigabit_ethernet",
                NetworkKind::Myrinet => "myrinet",
                NetworkKind::Infiniband => "infiniband",
                NetworkKind::BlueGeneL => "bluegene_l",
            }),
        ),
        (
            "load",
            obj(vec![
                ("cpu", fbits(cfg.load.cpu)),
                ("network", fbits(cfg.load.network)),
            ]),
        ),
        (
            "scheduler",
            string(match cfg.scheduler {
                SchedulerKind::Gang => "gang",
                SchedulerKind::Batch => "batch",
                SchedulerKind::Backfill => "backfill",
                SchedulerKind::ImplicitCosched => "implicit_cosched",
            }),
        ),
        ("fault_detection", boolean(cfg.fault_detection)),
        ("heartbeat_every", num(cfg.heartbeat_every)),
        ("faults", enc_faults(&cfg.faults)),
        ("failure_policy", enc_policy(&cfg.failure_policy)),
        ("mm_standbys", num(cfg.mm_standbys)),
        ("group_delivery", boolean(cfg.group_delivery)),
        ("telemetry", boolean(cfg.telemetry)),
        (
            "delivery_order",
            opt(cfg.delivery_order.as_ref(), |o| {
                enc_order_state(&o.export_state())
            }),
        ),
        ("fast_forward", boolean(cfg.fast_forward)),
        ("daemon", enc_daemon(&cfg.daemon)),
        ("seed", num(cfg.seed)),
    ])
}

fn dec_config(v: &Value) -> R<ClusterConfig> {
    Ok(ClusterConfig {
        nodes: du32(v.req("nodes")?)?,
        cpus_per_node: du32(v.req("cpus_per_node")?)?,
        timeslice: dspan(v.req("timeslice")?)?,
        max_event_collect: dspan(v.req("max_event_collect")?)?,
        mpl_max: dusize(v.req("mpl_max")?)?,
        chunk_bytes: v.req_u64("chunk_bytes")?,
        queue_slots: du32(v.req("queue_slots")?)?,
        fs: match v.req_str("fs")? {
            "ram_disk" => FsKind::RamDisk,
            "local_ext2" => FsKind::LocalExt2,
            "nfs" => FsKind::Nfs,
            other => return Err(format!("unknown fs kind {other:?}")),
        },
        placement: match v.req_str("placement")? {
            "main_memory" => BufferPlacement::MainMemory,
            "nic_memory" => BufferPlacement::NicMemory,
            other => return Err(format!("unknown buffer placement {other:?}")),
        },
        network: match v.req_str("network")? {
            "qsnet" => NetworkKind::QsNet,
            "gigabit_ethernet" => NetworkKind::GigabitEthernet,
            "myrinet" => NetworkKind::Myrinet,
            "infiniband" => NetworkKind::Infiniband,
            "bluegene_l" => NetworkKind::BlueGeneL,
            other => return Err(format!("unknown network kind {other:?}")),
        },
        load: {
            let l = v.req("load")?;
            BackgroundLoad {
                cpu: df64(l.req("cpu")?)?,
                network: df64(l.req("network")?)?,
            }
        },
        scheduler: match v.req_str("scheduler")? {
            "gang" => SchedulerKind::Gang,
            "batch" => SchedulerKind::Batch,
            "backfill" => SchedulerKind::Backfill,
            "implicit_cosched" => SchedulerKind::ImplicitCosched,
            other => return Err(format!("unknown scheduler {other:?}")),
        },
        fault_detection: dbool(v.req("fault_detection")?)?,
        heartbeat_every: du32(v.req("heartbeat_every")?)?,
        faults: dec_faults(v.req("faults")?)?,
        failure_policy: dec_policy(v.req("failure_policy")?)?,
        mm_standbys: du32(v.req("mm_standbys")?)?,
        group_delivery: dbool(v.req("group_delivery")?)?,
        telemetry: dbool(v.req("telemetry")?)?,
        delivery_order: dopt(v.req("delivery_order")?)
            .map(|o| Ok::<_, String>(DeliveryOrder::import_state(dec_order_state(o)?)))
            .transpose()?,
        fast_forward: dbool(v.req("fast_forward")?)?,
        daemon: dec_daemon(v.req("daemon")?)?,
        seed: v.req_u64("seed")?,
    })
}

// ---------------------------------------------------------------------------
// Messages, decisions, replicated state
// ---------------------------------------------------------------------------

fn enc_report(k: &ReportKind) -> Value {
    match *k {
        ReportKind::Started => tag("started", vec![]),
        ReportKind::Done { app_done } => tag("done", vec![time(app_done)]),
    }
}

fn dec_report(v: &Value) -> R<ReportKind> {
    let (t, a) = untag(v)?;
    Ok(match t {
        "started" => ReportKind::Started,
        "done" => ReportKind::Done {
            app_done: dtime(arg(a, 0)?)?,
        },
        other => return Err(format!("unknown report kind {other:?}")),
    })
}

fn enc_decision(d: &Decision) -> Value {
    match *d {
        Decision::Submit { job } => tag("submit", vec![num(job.0)]),
        Decision::Place { job, slot } => tag("place", vec![num(job.0), num(slot)]),
        Decision::Admit { job } => tag("admit", vec![num(job.0)]),
        Decision::Launch { job, attempt } => tag("launch", vec![num(job.0), num(attempt)]),
        Decision::Complete { job } => tag("complete", vec![num(job.0)]),
        Decision::Requeue { job, retry } => tag("requeue", vec![num(job.0), num(retry)]),
        Decision::Quarantine { node } => tag("quarantine", vec![num(node)]),
        Decision::Rejoin { node } => tag("rejoin", vec![num(node)]),
        Decision::Round { round } => tag("round", vec![num(round)]),
        Decision::Slot { slot } => tag("slot", vec![num(slot)]),
    }
}

fn dec_decision(v: &Value) -> R<Decision> {
    let (t, a) = untag(v)?;
    Ok(match t {
        "submit" => Decision::Submit {
            job: djob(arg(a, 0)?)?,
        },
        "place" => Decision::Place {
            job: djob(arg(a, 0)?)?,
            slot: du32(arg(a, 1)?)?,
        },
        "admit" => Decision::Admit {
            job: djob(arg(a, 0)?)?,
        },
        "launch" => Decision::Launch {
            job: djob(arg(a, 0)?)?,
            attempt: du32(arg(a, 1)?)?,
        },
        "complete" => Decision::Complete {
            job: djob(arg(a, 0)?)?,
        },
        "requeue" => Decision::Requeue {
            job: djob(arg(a, 0)?)?,
            retry: du32(arg(a, 1)?)?,
        },
        "quarantine" => Decision::Quarantine {
            node: du32(arg(a, 0)?)?,
        },
        "rejoin" => Decision::Rejoin {
            node: du32(arg(a, 0)?)?,
        },
        "round" => Decision::Round {
            round: di64(arg(a, 0)?)?,
        },
        "slot" => Decision::Slot {
            slot: du32(arg(a, 0)?)?,
        },
        other => return Err(format!("unknown decision {other:?}")),
    })
}

fn enc_core(s: &MmCoreState) -> Value {
    obj(vec![
        ("ticks", num(s.ticks)),
        ("hb_round", num(s.hb_round)),
        (
            "detected_failed",
            Value::Arr(s.detected_failed.iter().map(|&n| num(n)).collect()),
        ),
        (
            "queue",
            Value::Arr(s.queue.iter().map(|j| num(j.0)).collect()),
        ),
        ("active_slot", num(s.active_slot)),
        ("log_len", num(s.log_len)),
        ("digest", num(s.digest)),
    ])
}

fn dec_core(v: &Value) -> R<MmCoreState> {
    Ok(MmCoreState {
        ticks: v.req_u64("ticks")?,
        hb_round: di64(v.req("hb_round")?)?,
        detected_failed: dvec(v.req("detected_failed")?, du32)?,
        queue: dvec(v.req("queue")?, djob)?,
        active_slot: du32(v.req("active_slot")?)?,
        log_len: v.req_u64("log_len")?,
        digest: v.req_u64("digest")?,
    })
}

fn enc_msg(m: &Msg) -> Value {
    match m {
        Msg::Submit(j) => tag("submit", vec![num(j.0)]),
        Msg::Tick => tag("tick", vec![]),
        Msg::Collect => tag("collect", vec![]),
        Msg::ReadDone {
            job,
            chunk,
            attempt,
        } => tag("read_done", vec![num(job.0), num(*chunk), num(*attempt)]),
        Msg::BcastFreed {
            job,
            chunk,
            attempt,
        } => tag("bcast_freed", vec![num(job.0), num(*chunk), num(*attempt)]),
        Msg::FlowPoll { job, attempt } => tag("flow_poll", vec![num(job.0), num(*attempt)]),
        Msg::NmReport {
            node,
            job,
            kind,
            attempt,
        } => tag(
            "nm_report",
            vec![num(*node), num(job.0), enc_report(kind), num(*attempt)],
        ),
        Msg::Kill(j) => tag("kill", vec![num(j.0)]),
        Msg::RequeueJob(j) => tag("requeue_job", vec![num(j.0)]),
        Msg::Fragment {
            job,
            chunk,
            attempt,
        } => tag("fragment", vec![num(job.0), num(*chunk), num(*attempt)]),
        Msg::WriteDone {
            job,
            chunk,
            attempt,
        } => tag("write_done", vec![num(job.0), num(*chunk), num(*attempt)]),
        Msg::LaunchCmd { job, attempt } => tag("launch_cmd", vec![num(job.0), num(*attempt)]),
        Msg::Strobe { slot, epoch } => tag("strobe", vec![num(*slot), num(*epoch)]),
        Msg::Heartbeat { round, epoch } => tag("heartbeat", vec![num(*round), num(*epoch)]),
        Msg::ForkDone { job, pl, attempt } => {
            tag("fork_done", vec![num(job.0), num(*pl), num(*attempt)])
        }
        Msg::PlExited { job, pl, attempt } => {
            tag("pl_exited", vec![num(job.0), num(*pl), num(*attempt)])
        }
        Msg::FailNode => tag("fail_node", vec![]),
        Msg::RejoinNode => tag("rejoin_node", vec![]),
        Msg::StallNode { until } => tag("stall_node", vec![time(*until)]),
        Msg::FlushReports => tag("flush_reports", vec![]),
        Msg::Resync { epoch } => tag("resync", vec![num(*epoch)]),
        Msg::MmBeat {
            epoch,
            ticks,
            log_len,
        } => tag("mm_beat", vec![num(*epoch), num(*ticks), num(*log_len)]),
        Msg::MmWatchdog => tag("mm_watchdog", vec![]),
        Msg::MmFail => tag("mm_fail", vec![]),
        Msg::ReplLog {
            epoch,
            seq,
            decision,
        } => tag(
            "repl_log",
            vec![num(*epoch), num(*seq), enc_decision(decision)],
        ),
        Msg::ReplCheckpoint { epoch, state } => {
            tag("repl_checkpoint", vec![num(*epoch), enc_core(state)])
        }
        Msg::Fork { job, attempt } => tag("fork", vec![num(job.0), num(*attempt)]),
    }
}

fn dec_msg(v: &Value) -> R<Msg> {
    let (t, a) = untag(v)?;
    Ok(match t {
        "submit" => Msg::Submit(djob(arg(a, 0)?)?),
        "tick" => Msg::Tick,
        "collect" => Msg::Collect,
        "read_done" => Msg::ReadDone {
            job: djob(arg(a, 0)?)?,
            chunk: du32(arg(a, 1)?)?,
            attempt: du32(arg(a, 2)?)?,
        },
        "bcast_freed" => Msg::BcastFreed {
            job: djob(arg(a, 0)?)?,
            chunk: du32(arg(a, 1)?)?,
            attempt: du32(arg(a, 2)?)?,
        },
        "flow_poll" => Msg::FlowPoll {
            job: djob(arg(a, 0)?)?,
            attempt: du32(arg(a, 1)?)?,
        },
        "nm_report" => Msg::NmReport {
            node: du32(arg(a, 0)?)?,
            job: djob(arg(a, 1)?)?,
            kind: dec_report(arg(a, 2)?)?,
            attempt: du32(arg(a, 3)?)?,
        },
        "kill" => Msg::Kill(djob(arg(a, 0)?)?),
        "requeue_job" => Msg::RequeueJob(djob(arg(a, 0)?)?),
        "fragment" => Msg::Fragment {
            job: djob(arg(a, 0)?)?,
            chunk: du32(arg(a, 1)?)?,
            attempt: du32(arg(a, 2)?)?,
        },
        "write_done" => Msg::WriteDone {
            job: djob(arg(a, 0)?)?,
            chunk: du32(arg(a, 1)?)?,
            attempt: du32(arg(a, 2)?)?,
        },
        "launch_cmd" => Msg::LaunchCmd {
            job: djob(arg(a, 0)?)?,
            attempt: du32(arg(a, 1)?)?,
        },
        "strobe" => Msg::Strobe {
            slot: du32(arg(a, 0)?)?,
            epoch: du64(arg(a, 1)?)?,
        },
        "heartbeat" => Msg::Heartbeat {
            round: di64(arg(a, 0)?)?,
            epoch: du64(arg(a, 1)?)?,
        },
        "fork_done" => Msg::ForkDone {
            job: djob(arg(a, 0)?)?,
            pl: du32(arg(a, 1)?)?,
            attempt: du32(arg(a, 2)?)?,
        },
        "pl_exited" => Msg::PlExited {
            job: djob(arg(a, 0)?)?,
            pl: du32(arg(a, 1)?)?,
            attempt: du32(arg(a, 2)?)?,
        },
        "fail_node" => Msg::FailNode,
        "rejoin_node" => Msg::RejoinNode,
        "stall_node" => Msg::StallNode {
            until: dtime(arg(a, 0)?)?,
        },
        "flush_reports" => Msg::FlushReports,
        "resync" => Msg::Resync {
            epoch: du64(arg(a, 0)?)?,
        },
        "mm_beat" => Msg::MmBeat {
            epoch: du64(arg(a, 0)?)?,
            ticks: du64(arg(a, 1)?)?,
            log_len: du64(arg(a, 2)?)?,
        },
        "mm_watchdog" => Msg::MmWatchdog,
        "mm_fail" => Msg::MmFail,
        "repl_log" => Msg::ReplLog {
            epoch: du64(arg(a, 0)?)?,
            seq: du64(arg(a, 1)?)?,
            decision: dec_decision(arg(a, 2)?)?,
        },
        "repl_checkpoint" => Msg::ReplCheckpoint {
            epoch: du64(arg(a, 0)?)?,
            state: Box::new(dec_core(arg(a, 1)?)?),
        },
        "fork" => Msg::Fork {
            job: djob(arg(a, 0)?)?,
            attempt: du32(arg(a, 1)?)?,
        },
        other => return Err(format!("unknown message tag {other:?}")),
    })
}

// ---------------------------------------------------------------------------
// Engine image
// ---------------------------------------------------------------------------

fn enc_group(g: &GroupState<Msg>) -> Value {
    let targets = match &g.targets {
        GroupTargets::Strided { first, stride, len } => {
            tag("strided", vec![num(first.index()), num(*stride), num(*len)])
        }
        GroupTargets::List(ids) => tag(
            "list",
            vec![Value::Arr(ids.iter().map(|id| num(id.index())).collect())],
        ),
    };
    let schedule = match g.schedule {
        GroupSchedule::Simultaneous => tag("simultaneous", vec![]),
        GroupSchedule::FanoutTree { per_hop, fanout } => {
            tag("fanout_tree", vec![span(per_hop), num(fanout)])
        }
    };
    obj(vec![
        ("targets", targets),
        ("schedule", schedule),
        ("base", time(g.base)),
        ("floor", time(g.floor)),
        ("base_seq", num(g.base_seq)),
        ("cursor", num(g.cursor)),
        ("msg", enc_msg(&g.msg)),
    ])
}

fn dec_group(v: &Value) -> R<GroupState<Msg>> {
    let (t, a) = untag(v.req("targets")?)?;
    let targets = match t {
        "strided" => GroupTargets::Strided {
            first: ComponentId::from_index(du32(arg(a, 0)?)?),
            stride: du32(arg(a, 1)?)?,
            len: du32(arg(a, 2)?)?,
        },
        "list" => GroupTargets::List(
            darr(arg(a, 0)?)?
                .iter()
                .map(|x| Ok(ComponentId::from_index(du32(x)?)))
                .collect::<R<Arc<[ComponentId]>>>()?,
        ),
        other => return Err(format!("unknown group targets {other:?}")),
    };
    let (t, a) = untag(v.req("schedule")?)?;
    let schedule = match t {
        "simultaneous" => GroupSchedule::Simultaneous,
        "fanout_tree" => GroupSchedule::FanoutTree {
            per_hop: dspan(arg(a, 0)?)?,
            fanout: du32(arg(a, 1)?)?,
        },
        other => return Err(format!("unknown group schedule {other:?}")),
    };
    Ok(GroupState {
        targets,
        schedule,
        base: dtime(v.req("base")?)?,
        floor: dtime(v.req("floor")?)?,
        base_seq: v.req_u64("base_seq")?,
        cursor: du32(v.req("cursor")?)?,
        msg: dec_msg(v.req("msg")?)?,
    })
}

fn enc_arena<T>(a: &ArenaState<T>, f: impl Fn(&T) -> Value) -> Value {
    obj(vec![
        (
            "slots",
            Value::Arr(
                a.slots
                    .iter()
                    .map(|(gen, v)| Value::Arr(vec![num(*gen), opt(v.as_ref(), &f)]))
                    .collect(),
            ),
        ),
        ("free", Value::Arr(a.free.iter().map(|&x| num(x)).collect())),
        ("peak", num(a.peak)),
        ("reserve", num(a.reserve)),
    ])
}

fn dec_arena<T>(v: &Value, f: impl Fn(&Value) -> R<T>) -> R<ArenaState<T>> {
    Ok(ArenaState {
        slots: elems(v, "slots")?
            .iter()
            .map(|row| {
                let a = darr(row)?;
                Ok((du32(arg(a, 0)?)?, dopt(arg(a, 1)?).map(&f).transpose()?))
            })
            .collect::<R<_>>()?,
        free: dvec(v.req("free")?, du32)?,
        peak: dusize(v.req("peak")?)?,
        reserve: dusize(v.req("reserve")?)?,
    })
}

fn enc_engine(e: &EngineState<Msg>) -> Value {
    obj(vec![
        ("now", time(e.now)),
        ("halt", boolean(e.halt)),
        ("delivered", num(e.delivered)),
        ("handled", num(e.handled)),
        ("max_events", num(e.max_events)),
        (
            "entries",
            Value::Arr(
                e.entries
                    .iter()
                    .map(|q| {
                        Value::Arr(vec![
                            time(q.time),
                            num(q.tie),
                            num(q.seq),
                            num(q.target),
                            num(q.payload.0),
                            num(q.payload.1),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "accounting",
            obj(vec![
                ("next_seq", num(e.accounting.next_seq)),
                ("pushed", num(e.accounting.pushed)),
                ("popped", num(e.accounting.popped)),
                ("peak", num(e.accounting.peak)),
                ("pop_digest", num(e.accounting.pop_digest)),
            ]),
        ),
        ("order", opt(e.order.as_ref(), enc_order_state)),
        ("msgs", enc_arena(&e.msgs, enc_msg)),
        ("groups", enc_arena(&e.groups, enc_group)),
        ("rng_seed", num(e.rng_seed)),
        (
            "rng_state",
            Value::Arr(e.rng_state.iter().map(|&x| num(x)).collect()),
        ),
        (
            "streams",
            Value::Arr(
                e.streams
                    .iter()
                    .map(|st| Value::Arr(st.iter().map(|&x| num(x)).collect()))
                    .collect(),
            ),
        ),
        ("trace_enabled", boolean(e.trace_enabled)),
        ("trace_capacity", opt(e.trace_capacity, num)),
        (
            "trace_records",
            Value::Arr(
                e.trace_records
                    .iter()
                    .map(|r| {
                        Value::Arr(vec![
                            time(r.time),
                            num(r.component.index()),
                            string(r.label),
                            string(&r.detail),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("trace_dropped", num(e.trace_dropped)),
    ])
}

fn dec_engine(v: &Value) -> R<EngineState<Msg>> {
    let acc = v.req("accounting")?;
    let rng_state_v = dvec(v.req("rng_state")?, du64)?;
    let rng_state: [u64; 4] = rng_state_v
        .try_into()
        .map_err(|_| "rng_state must have exactly 4 words".to_string())?;
    Ok(EngineState {
        now: dtime(v.req("now")?)?,
        halt: dbool(v.req("halt")?)?,
        delivered: v.req_u64("delivered")?,
        handled: v.req_u64("handled")?,
        max_events: v.req_u64("max_events")?,
        entries: elems(v, "entries")?
            .iter()
            .map(|row| {
                let a = darr(row)?;
                Ok(QueuedEventState {
                    time: dtime(arg(a, 0)?)?,
                    tie: du64(arg(a, 1)?)?,
                    seq: du64(arg(a, 2)?)?,
                    target: du32(arg(a, 3)?)?,
                    payload: (du32(arg(a, 4)?)?, du32(arg(a, 5)?)?),
                })
            })
            .collect::<R<_>>()?,
        accounting: QueueAccounting {
            next_seq: acc.req_u64("next_seq")?,
            pushed: acc.req_u64("pushed")?,
            popped: acc.req_u64("popped")?,
            peak: dusize(acc.req("peak")?)?,
            pop_digest: acc.req_u64("pop_digest")?,
        },
        order: dopt(v.req("order")?).map(dec_order_state).transpose()?,
        msgs: dec_arena(v.req("msgs")?, dec_msg)?,
        groups: dec_arena(v.req("groups")?, dec_group)?,
        rng_seed: v.req_u64("rng_seed")?,
        rng_state,
        streams: elems(v, "streams")?
            .iter()
            .map(|row| {
                let st = dvec(row, du64)?;
                st.try_into()
                    .map_err(|_| "stream state must have exactly 4 words".to_string())
            })
            .collect::<R<_>>()?,
        trace_enabled: dbool(v.req("trace_enabled")?)?,
        trace_capacity: dopt(v.req("trace_capacity")?).map(dusize).transpose()?,
        trace_records: elems(v, "trace_records")?
            .iter()
            .map(|row| {
                let a = darr(row)?;
                Ok(TraceRecord {
                    time: dtime(arg(a, 0)?)?,
                    component: ComponentId::from_index(du32(arg(a, 1)?)?),
                    label: intern_label(dstr(arg(a, 2)?)?),
                    detail: dstr(arg(a, 3)?)?.to_string(),
                })
            })
            .collect::<R<_>>()?,
        trace_dropped: v.req_u64("trace_dropped")?,
    })
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

fn enc_node_set(s: &NodeSet) -> Value {
    match s {
        NodeSet::All(n) => tag("all", vec![num(*n)]),
        NodeSet::Range { start, len } => tag("range", vec![num(*start), num(*len)]),
        NodeSet::List(ids) => tag(
            "list",
            vec![Value::Arr(ids.iter().map(|id| num(id.0)).collect())],
        ),
    }
}

fn dec_node_set(v: &Value) -> R<NodeSet> {
    let (t, a) = untag(v)?;
    Ok(match t {
        "all" => NodeSet::All(du32(arg(a, 0)?)?),
        "range" => NodeSet::Range {
            start: du32(arg(a, 0)?)?,
            len: du32(arg(a, 1)?)?,
        },
        "list" => NodeSet::List(
            darr(arg(a, 0)?)?
                .iter()
                .map(|x| Ok(NodeId(du32(x)?)))
                .collect::<R<_>>()?,
        ),
        other => return Err(format!("unknown node set {other:?}")),
    })
}

fn enc_memory(m: &MemoryState) -> Value {
    obj(vec![
        ("nodes", num(m.nodes)),
        (
            "vars",
            Value::Arr(
                m.vars
                    .iter()
                    .map(|per| Value::Arr(per.iter().map(|&x| num(x)).collect()))
                    .collect(),
            ),
        ),
        (
            "events",
            Value::Arr(
                m.events
                    .iter()
                    .map(|per| Value::Arr(per.iter().map(|&e| opt(e, time)).collect()))
                    .collect(),
            ),
        ),
        (
            "caw_audit",
            opt(m.caw_audit.as_ref(), |audit| {
                Value::Arr(
                    audit
                        .iter()
                        .map(|(var, a)| {
                            Value::Arr(vec![num(*var), enc_node_set(&a.set), num(a.value)])
                        })
                        .collect(),
                )
            }),
        ),
    ])
}

fn dec_memory(v: &Value) -> R<MemoryState> {
    Ok(MemoryState {
        nodes: du32(v.req("nodes")?)?,
        vars: elems(v, "vars")?
            .iter()
            .map(|per| dvec(per, di64))
            .collect::<R<_>>()?,
        events: elems(v, "events")?
            .iter()
            .map(|per| {
                darr(per)?
                    .iter()
                    .map(|e| dopt(e).map(dtime).transpose())
                    .collect::<R<Vec<_>>>()
            })
            .collect::<R<_>>()?,
        caw_audit: dopt(v.req("caw_audit")?)
            .map(|audit| {
                darr(audit)?
                    .iter()
                    .map(|row| {
                        let a = darr(row)?;
                        Ok((
                            du32(arg(a, 0)?)?,
                            CawAudit {
                                set: dec_node_set(arg(a, 1)?)?,
                                value: di64(arg(a, 2)?)?,
                            },
                        ))
                    })
                    .collect::<R<Vec<_>>>()
            })
            .transpose()?,
    })
}

fn enc_app(app: &AppSpec) -> Value {
    match *app {
        AppSpec::DoNothing { binary_bytes } => tag("do_nothing", vec![num(binary_bytes)]),
        AppSpec::Sweep3d {
            iterations,
            compute_per_iter,
            comm_bytes_per_iter,
        } => tag(
            "sweep3d",
            vec![
                num(iterations),
                span(compute_per_iter),
                num(comm_bytes_per_iter),
            ],
        ),
        AppSpec::Synthetic { compute } => tag("synthetic", vec![span(compute)]),
        AppSpec::SpinLoop => tag("spin_loop", vec![]),
        AppSpec::NetLoad { msg_bytes } => tag("net_load", vec![num(msg_bytes)]),
    }
}

fn dec_app(v: &Value) -> R<AppSpec> {
    let (t, a) = untag(v)?;
    Ok(match t {
        "do_nothing" => AppSpec::DoNothing {
            binary_bytes: du64(arg(a, 0)?)?,
        },
        "sweep3d" => AppSpec::Sweep3d {
            iterations: du32(arg(a, 0)?)?,
            compute_per_iter: dspan(arg(a, 1)?)?,
            comm_bytes_per_iter: du64(arg(a, 2)?)?,
        },
        "synthetic" => AppSpec::Synthetic {
            compute: dspan(arg(a, 0)?)?,
        },
        "spin_loop" => AppSpec::SpinLoop,
        "net_load" => AppSpec::NetLoad {
            msg_bytes: du64(arg(a, 0)?)?,
        },
        other => return Err(format!("unknown app spec {other:?}")),
    })
}

fn enc_workload(w: &Workload) -> Value {
    obj(vec![
        ("endless", boolean(w.is_endless())),
        (
            "steps",
            Value::Arr(
                w.steps()
                    .iter()
                    .map(|s| Value::Arr(vec![span(s.compute), num(s.comm_bytes)]))
                    .collect(),
            ),
        ),
    ])
}

fn dec_workload(v: &Value) -> R<Workload> {
    let steps = elems(v, "steps")?
        .iter()
        .map(|row| {
            let a = darr(row)?;
            Ok(Step {
                compute: dspan(arg(a, 0)?)?,
                comm_bytes: du64(arg(a, 1)?)?,
            })
        })
        .collect::<R<Vec<_>>>()?;
    Ok(if dbool(v.req("endless")?)? {
        Workload::endless(steps)
    } else if steps.is_empty() {
        Workload::empty()
    } else {
        Workload::new(steps)
    })
}

fn enc_cursor(c: &WorkloadCursor) -> Value {
    Value::Arr(vec![
        num(c.steps_done()),
        span(c.consumed_in_step()),
        span(c.total_consumed()),
    ])
}

fn dec_cursor(v: &Value) -> R<WorkloadCursor> {
    let a = darr(v)?;
    Ok(WorkloadCursor::from_parts(
        dusize(arg(a, 0)?)?,
        dspan(arg(a, 1)?)?,
        dspan(arg(a, 2)?)?,
    ))
}

fn enc_job_state(s: JobState) -> Value {
    string(match s {
        JobState::Queued => "queued",
        JobState::Transferring => "transferring",
        JobState::Launching => "launching",
        JobState::Running => "running",
        JobState::Completed => "completed",
        JobState::Killed => "killed",
        JobState::Failed => "failed",
    })
}

fn dec_job_state(v: &Value) -> R<JobState> {
    Ok(match dstr(v)? {
        "queued" => JobState::Queued,
        "transferring" => JobState::Transferring,
        "launching" => JobState::Launching,
        "running" => JobState::Running,
        "completed" => JobState::Completed,
        "killed" => JobState::Killed,
        "failed" => JobState::Failed,
        other => return Err(format!("unknown job state {other:?}")),
    })
}

fn enc_job(j: &JobRecord) -> Value {
    obj(vec![
        ("id", num(j.id.0)),
        (
            "spec",
            obj(vec![
                ("name", string(&j.spec.name)),
                ("app", enc_app(&j.spec.app)),
                ("ranks", num(j.spec.ranks)),
                ("max_ranks_per_node", opt(j.spec.max_ranks_per_node, num)),
                ("runtime_estimate", opt(j.spec.runtime_estimate, span)),
            ]),
        ),
        ("state", enc_job_state(j.state)),
        (
            "allocation",
            opt(j.allocation.as_ref(), |a| {
                obj(vec![
                    ("slot", num(a.slot)),
                    ("nodes_start", num(a.nodes.start)),
                    ("nodes_end", num(a.nodes.end)),
                    ("ranks_per_node", num(a.ranks_per_node)),
                    ("ranks", num(a.ranks)),
                ])
            }),
        ),
        ("workload", enc_workload(&j.workload)),
        ("cursor", enc_cursor(&j.cursor)),
        (
            "metrics",
            obj(vec![
                ("submitted", opt(j.metrics.submitted, time)),
                ("transfer_start", opt(j.metrics.transfer_start, time)),
                ("transfer_done", opt(j.metrics.transfer_done, time)),
                ("launch_cmd", opt(j.metrics.launch_cmd, time)),
                ("started", opt(j.metrics.started, time)),
                ("app_done", opt(j.metrics.app_done, time)),
                ("completed", opt(j.metrics.completed, time)),
            ]),
        ),
        (
            "transfer",
            obj(vec![
                ("total_chunks", num(j.transfer.total_chunks)),
                ("last_chunk_bytes", num(j.transfer.last_chunk_bytes)),
                ("next_read", num(j.transfer.next_read)),
                ("chunks_read", num(j.transfer.chunks_read)),
                ("next_bcast", num(j.transfer.next_bcast)),
                ("read_busy", boolean(j.transfer.read_busy)),
                ("bcast_busy", boolean(j.transfer.bcast_busy)),
                ("poll_pending", boolean(j.transfer.poll_pending)),
                ("written_var", opt(j.transfer.written_var, |v| num(v.0))),
            ]),
        ),
        ("start_reports", num(j.start_reports)),
        ("done_reports", num(j.done_reports)),
        (
            "reported_started",
            Value::Arr(j.reported_started.iter().map(|&n| num(n)).collect()),
        ),
        (
            "reported_done",
            Value::Arr(j.reported_done.iter().map(|&n| num(n)).collect()),
        ),
        ("transfer_confirmed", opt(j.transfer_confirmed, time)),
        ("app_done_max", opt(j.app_done_max, time)),
        ("attempt", num(j.attempt)),
        ("retries", num(j.retries)),
    ])
}

fn dec_job(v: &Value) -> R<JobRecord> {
    let spec = v.req("spec")?;
    let metrics = v.req("metrics")?;
    let transfer = v.req("transfer")?;
    Ok(JobRecord {
        id: JobId(du32(v.req("id")?)?),
        spec: JobSpec {
            name: spec.req_str("name")?.to_string(),
            app: dec_app(spec.req("app")?)?,
            ranks: du32(spec.req("ranks")?)?,
            max_ranks_per_node: dopt(spec.req("max_ranks_per_node")?)
                .map(du32)
                .transpose()?,
            runtime_estimate: dopt(spec.req("runtime_estimate")?).map(dspan).transpose()?,
        },
        state: dec_job_state(v.req("state")?)?,
        allocation: dopt(v.req("allocation")?)
            .map(|a| {
                Ok::<_, String>(Allocation {
                    slot: dusize(a.req("slot")?)?,
                    nodes: du32(a.req("nodes_start")?)?..du32(a.req("nodes_end")?)?,
                    ranks_per_node: du32(a.req("ranks_per_node")?)?,
                    ranks: du32(a.req("ranks")?)?,
                })
            })
            .transpose()?,
        workload: dec_workload(v.req("workload")?)?,
        cursor: dec_cursor(v.req("cursor")?)?,
        metrics: JobMetrics {
            submitted: dopt(metrics.req("submitted")?).map(dtime).transpose()?,
            transfer_start: dopt(metrics.req("transfer_start")?)
                .map(dtime)
                .transpose()?,
            transfer_done: dopt(metrics.req("transfer_done")?).map(dtime).transpose()?,
            launch_cmd: dopt(metrics.req("launch_cmd")?).map(dtime).transpose()?,
            started: dopt(metrics.req("started")?).map(dtime).transpose()?,
            app_done: dopt(metrics.req("app_done")?).map(dtime).transpose()?,
            completed: dopt(metrics.req("completed")?).map(dtime).transpose()?,
        },
        transfer: TransferState {
            total_chunks: du32(transfer.req("total_chunks")?)?,
            last_chunk_bytes: transfer.req_u64("last_chunk_bytes")?,
            next_read: du32(transfer.req("next_read")?)?,
            chunks_read: du32(transfer.req("chunks_read")?)?,
            next_bcast: du32(transfer.req("next_bcast")?)?,
            read_busy: dbool(transfer.req("read_busy")?)?,
            bcast_busy: dbool(transfer.req("bcast_busy")?)?,
            poll_pending: dbool(transfer.req("poll_pending")?)?,
            written_var: dopt(transfer.req("written_var")?)
                .map(|x| Ok::<_, String>(VarId(du32(x)?)))
                .transpose()?,
        },
        start_reports: du32(v.req("start_reports")?)?,
        done_reports: du32(v.req("done_reports")?)?,
        reported_started: dvec(v.req("reported_started")?, du32)?,
        reported_done: dvec(v.req("reported_done")?, du32)?,
        transfer_confirmed: dopt(v.req("transfer_confirmed")?).map(dtime).transpose()?,
        app_done_max: dopt(v.req("app_done_max")?).map(dtime).transpose()?,
        attempt: du32(v.req("attempt")?)?,
        retries: du32(v.req("retries")?)?,
    })
}

fn enc_matrix(m: &MatrixState) -> Value {
    obj(vec![
        ("nodes", num(m.nodes)),
        ("mpl_max", num(m.mpl_max)),
        (
            "slots",
            Value::Arr(
                m.slots
                    .iter()
                    .map(|s| {
                        obj(vec![
                            (
                                "buddy",
                                obj(vec![
                                    ("usable", num(s.buddy.usable)),
                                    (
                                        "allocated",
                                        Value::Arr(
                                            s.buddy
                                                .allocated
                                                .iter()
                                                .map(|&(start, order)| {
                                                    Value::Arr(vec![num(start), num(order)])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                    (
                                        "quarantined",
                                        Value::Arr(
                                            s.buddy.quarantined.iter().map(|&n| num(n)).collect(),
                                        ),
                                    ),
                                ]),
                            ),
                            (
                                "jobs",
                                Value::Arr(
                                    s.jobs
                                        .iter()
                                        .map(|(j, r)| {
                                            Value::Arr(vec![num(j.0), num(r.start), num(r.end)])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "quarantined",
            Value::Arr(m.quarantined.iter().map(|&n| num(n)).collect()),
        ),
    ])
}

fn dec_matrix(v: &Value) -> R<MatrixState> {
    Ok(MatrixState {
        nodes: du32(v.req("nodes")?)?,
        mpl_max: dusize(v.req("mpl_max")?)?,
        slots: elems(v, "slots")?
            .iter()
            .map(|s| {
                let b = s.req("buddy")?;
                Ok(SlotState {
                    buddy: BuddyState {
                        usable: du32(b.req("usable")?)?,
                        allocated: elems(b, "allocated")?
                            .iter()
                            .map(|row| {
                                let a = darr(row)?;
                                Ok((du32(arg(a, 0)?)?, du32(arg(a, 1)?)?))
                            })
                            .collect::<R<_>>()?,
                        quarantined: dvec(b.req("quarantined")?, du32)?,
                    },
                    jobs: elems(s, "jobs")?
                        .iter()
                        .map(|row| {
                            let a = darr(row)?;
                            Ok((djob(arg(a, 0)?)?, du32(arg(a, 1)?)?..du32(arg(a, 2)?)?))
                        })
                        .collect::<R<_>>()?,
                })
            })
            .collect::<R<_>>()?,
        quarantined: dvec(v.req("quarantined")?, du32)?,
    })
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

fn enc_metric_key(k: &MetricKey) -> Value {
    obj(vec![
        ("name", string(k.name)),
        (
            "labels",
            Value::Arr(
                k.labels
                    .iter()
                    .map(|(lk, lv)| Value::Arr(vec![string(lk), string(lv)]))
                    .collect(),
            ),
        ),
    ])
}

fn dec_metric_key(v: &Value) -> R<MetricKey> {
    Ok(MetricKey {
        name: intern_label(v.req_str("name")?),
        labels: elems(v, "labels")?
            .iter()
            .map(|row| {
                let a = darr(row)?;
                Ok((
                    intern_label(dstr(arg(a, 0)?)?),
                    dstr(arg(a, 1)?)?.to_string(),
                ))
            })
            .collect::<R<_>>()?,
    })
}

fn enc_metric_value(m: &MetricValue) -> Value {
    match m {
        MetricValue::Counter(n) => tag("counter", vec![num(*n)]),
        MetricValue::Gauge(g) => tag("gauge", vec![num(*g)]),
        MetricValue::Histogram(h) => tag(
            "histogram",
            vec![
                Value::Arr(h.bucket_counts().iter().map(|&b| num(b)).collect()),
                num(h.count()),
                num(h.sum()),
                num(h.min()),
                num(h.max()),
            ],
        ),
    }
}

fn dec_metric_value(v: &Value) -> R<MetricValue> {
    let (t, a) = untag(v)?;
    Ok(match t {
        "counter" => MetricValue::Counter(du64(arg(a, 0)?)?),
        "gauge" => MetricValue::Gauge(di64(arg(a, 0)?)?),
        "histogram" => {
            let rows = darr(arg(a, 0)?)?;
            if rows.len() != HISTOGRAM_BUCKETS {
                return Err(format!(
                    "histogram must have {HISTOGRAM_BUCKETS} buckets, got {}",
                    rows.len()
                ));
            }
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            for (slot, row) in buckets.iter_mut().zip(rows) {
                *slot = du64(row)?;
            }
            MetricValue::Histogram(Box::new(Histogram::from_parts(
                buckets,
                du64(arg(a, 1)?)?,
                du64(arg(a, 2)?)?,
                du64(arg(a, 3)?)?,
                du64(arg(a, 4)?)?,
            )))
        }
        other => return Err(format!("unknown metric value {other:?}")),
    })
}

fn enc_condition(c: &crate::cq::Condition) -> Value {
    use crate::cq::Condition as C;
    match c {
        C::QuarantinedAbove(n) => tag("quarantined_above", vec![num(*n)]),
        C::QueueDepthAbove(n) => tag("queue_depth_above", vec![num(*n)]),
        C::QueueDepthGrowingFor(k) => tag("queue_depth_growing_for", vec![num(*k)]),
        C::FailedNodesAbove(n) => tag("failed_nodes_above", vec![num(*n)]),
        C::RunningJobsAbove(n) => tag("running_jobs_above", vec![num(*n)]),
        C::AliveNodesBelow(n) => tag("alive_nodes_below", vec![num(*n)]),
    }
}

fn dec_condition(v: &Value) -> R<crate::cq::Condition> {
    use crate::cq::Condition as C;
    let (name, args) = untag(v)?;
    Ok(match name {
        "quarantined_above" => C::QuarantinedAbove(du32(arg(args, 0)?)?),
        "queue_depth_above" => C::QueueDepthAbove(du64(arg(args, 0)?)?),
        "queue_depth_growing_for" => C::QueueDepthGrowingFor(du32(arg(args, 0)?)?),
        "failed_nodes_above" => C::FailedNodesAbove(du32(arg(args, 0)?)?),
        "running_jobs_above" => C::RunningJobsAbove(du32(arg(args, 0)?)?),
        "alive_nodes_below" => C::AliveNodesBelow(du32(arg(args, 0)?)?),
        other => return Err(format!("unknown condition {other:?}")),
    })
}

fn enc_cq(cq: &crate::cq::ContinuousQueries) -> Value {
    obj(vec![
        (
            "queries",
            Value::Arr(
                cq.queries()
                    .iter()
                    .map(|q| {
                        let (last_depth, streak) = q.eval_state();
                        obj(vec![
                            ("name", string(&q.name)),
                            ("cond", enc_condition(&q.cond)),
                            ("last_depth", opt(last_depth, num)),
                            ("streak", num(streak)),
                            ("firings", num(q.firings)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "alerts",
            Value::Arr(
                cq.alerts()
                    .iter()
                    .map(|a| {
                        Value::Arr(vec![
                            num(a.slice),
                            time(a.at),
                            string(&a.query),
                            num(a.observed),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("cap", num(cq.capacity())),
        ("dropped", num(cq.dropped())),
    ])
}

fn dec_cq(v: &Value) -> R<crate::cq::ContinuousQueries> {
    let queries = elems(v, "queries")?
        .iter()
        .map(|q| {
            Ok(crate::cq::ContinuousQuery::from_parts(
                q.req_str("name")?.to_string(),
                dec_condition(q.req("cond")?)?,
                dopt(q.req("last_depth")?).map(du64).transpose()?,
                du32(q.req("streak")?)?,
                q.req_u64("firings")?,
            ))
        })
        .collect::<R<_>>()?;
    let alerts = elems(v, "alerts")?
        .iter()
        .map(|a| {
            let row = darr(a)?;
            Ok(crate::cq::Alert {
                slice: du64(arg(row, 0)?)?,
                at: dtime(arg(row, 1)?)?,
                query: dstr(arg(row, 2)?)?.to_string(),
                observed: du64(arg(row, 3)?)?,
            })
        })
        .collect::<R<_>>()?;
    Ok(crate::cq::ContinuousQueries::from_parts(
        queries,
        alerts,
        dusize(v.req("cap")?)?,
        v.req_u64("dropped")?,
    ))
}

fn enc_telemetry(t: &Telemetry) -> Value {
    obj(vec![
        ("on", boolean(t.is_enabled())),
        (
            "metrics",
            Value::Arr(
                t.metrics
                    .snapshot()
                    .entries()
                    .iter()
                    .map(|(k, v)| Value::Arr(vec![enc_metric_key(k), enc_metric_value(v)]))
                    .collect(),
            ),
        ),
        (
            "spans",
            Value::Arr(
                t.spans
                    .spans()
                    .iter()
                    .map(|s| {
                        obj(vec![
                            ("job", num(s.job)),
                            ("name", string(&s.name)),
                            ("ranks", num(s.ranks)),
                            ("outcome", string(&s.outcome)),
                            ("attempts", num(s.attempts)),
                            (
                                "phases",
                                Value::Arr(
                                    s.phases
                                        .iter()
                                        .map(|p| {
                                            Value::Arr(vec![
                                                string(p.name),
                                                time(p.start),
                                                time(p.end),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn dec_telemetry(v: &Value) -> R<Telemetry> {
    let on = dbool(v.req("on")?)?;
    let entries = elems(v, "metrics")?
        .iter()
        .map(|row| {
            let a = darr(row)?;
            Ok((dec_metric_key(arg(a, 0)?)?, dec_metric_value(arg(a, 1)?)?))
        })
        .collect::<R<Vec<_>>>()?;
    let spans = elems(v, "spans")?
        .iter()
        .map(|s| {
            Ok(JobSpan {
                job: du32(s.req("job")?)?,
                name: s.req_str("name")?.to_string(),
                ranks: du32(s.req("ranks")?)?,
                outcome: s.req_str("outcome")?.to_string(),
                attempts: du32(s.req("attempts")?)?,
                phases: elems(s, "phases")?
                    .iter()
                    .map(|p| {
                        let a = darr(p)?;
                        Ok(Phase {
                            name: intern_label(dstr(arg(a, 0)?)?),
                            start: dtime(arg(a, 1)?)?,
                            end: dtime(arg(a, 2)?)?,
                        })
                    })
                    .collect::<R<_>>()?,
            })
        })
        .collect::<R<Vec<_>>>()?;
    Ok(Telemetry {
        metrics: MetricsRegistry::import(on, entries),
        spans: SpanLog::import(on, spans),
    })
}

// ---------------------------------------------------------------------------
// World section
// ---------------------------------------------------------------------------

fn enc_world(w: &World) -> Value {
    obj(vec![
        (
            "mech",
            obj(vec![
                ("memory", enc_memory(&w.mech.memory.export_state())),
                ("xfer_count", num(w.mech.xfer_count())),
                ("caw_count", num(w.mech.caw_count())),
            ]),
        ),
        ("jobs", Value::Arr(w.jobs.iter().map(enc_job).collect())),
        (
            "queue",
            Value::Arr(w.queue.iter().map(|j| num(j.0)).collect()),
        ),
        ("matrix", enc_matrix(&w.matrix.export_state())),
        (
            "slot_jobs",
            Value::Arr(
                w.slot_jobs
                    .iter()
                    .map(|per| Value::Arr(per.iter().map(|j| num(j.0)).collect()))
                    .collect(),
            ),
        ),
        ("active_slot", num(w.active_slot)),
        (
            "nodes",
            Value::Arr(
                (0..w.nodes.len() as u32)
                    .map(|n| {
                        Value::Arr(vec![
                            boolean(w.nodes.is_failed(n)),
                            opt(w.nodes.failed_since(n), time),
                            boolean(w.nodes.is_quarantined(n)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("read_dev", time(w.read_dev.next_free())),
        ("bcast_dev", time(w.bcast_dev.next_free())),
        ("hb_var", opt(w.hb_var, |v| num(v.0))),
        ("hb_round", num(w.hb_round)),
        ("mm_core", enc_core(&w.mm_core)),
        (
            "mm_replicas",
            Value::Arr(
                w.mm_replicas
                    .iter()
                    .map(|r| {
                        obj(vec![
                            ("applied", num(r.applied)),
                            ("state", enc_core(&r.state)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "mm_roles",
            Value::Arr(
                w.mm_roles
                    .iter()
                    .map(|r| {
                        string(match r {
                            MmRole::Active => "active",
                            MmRole::Standby => "standby",
                            MmRole::Failed => "failed",
                        })
                    })
                    .collect(),
            ),
        ),
        (
            "mm_failed",
            Value::Arr(w.mm_failed.iter().map(|&b| boolean(b)).collect()),
        ),
        (
            "mm_failed_at",
            Value::Arr(w.mm_failed_at.iter().map(|&t| opt(t, time)).collect()),
        ),
        ("mm_active_rank", num(w.mm_active_rank)),
        ("mm_epoch", num(w.mm_epoch)),
        ("mm_epoch_var", opt(w.mm_epoch_var, |v| num(v.0))),
        (
            "requeue_pending",
            Value::Arr(
                w.requeue_pending
                    .iter()
                    .map(|&(j, at)| Value::Arr(vec![num(j.0), time(at)]))
                    .collect(),
            ),
        ),
        (
            "repl",
            obj(vec![
                ("log_records", num(w.repl.log_records)),
                ("checkpoints", num(w.repl.checkpoints)),
                ("beats", num(w.repl.beats)),
                ("log_gaps", num(w.repl.log_gaps)),
                ("promotions", num(w.repl.promotions)),
                (
                    "failovers",
                    Value::Arr(
                        w.repl
                            .failovers
                            .iter()
                            .map(|&(rank, at)| Value::Arr(vec![num(rank), time(at)]))
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "stats",
            obj(vec![
                ("strobes", num(w.stats.strobes)),
                ("fragments", num(w.stats.fragments)),
                ("flow_stalls", num(w.stats.flow_stalls)),
                ("reports", num(w.stats.reports)),
                ("completed_jobs", num(w.stats.completed_jobs)),
                (
                    "failures_detected",
                    Value::Arr(
                        w.stats
                            .failures_detected
                            .iter()
                            .map(|&(n, at)| Value::Arr(vec![num(n), time(at)]))
                            .collect(),
                    ),
                ),
                (
                    "rejoins",
                    Value::Arr(
                        w.stats
                            .rejoins
                            .iter()
                            .map(|&(n, at)| Value::Arr(vec![num(n), time(at)]))
                            .collect(),
                    ),
                ),
                ("requeues", num(w.stats.requeues)),
                ("caw_drops", num(w.stats.caw_drops)),
                ("hb_drops", num(w.stats.hb_drops)),
                ("xfer_retries", num(w.stats.xfer_retries)),
                ("nm_overruns", num(w.stats.nm_overruns)),
            ]),
        ),
        ("telemetry", enc_telemetry(&w.telemetry)),
        ("cq", enc_cq(&w.cq)),
        (
            "leap",
            opt(w.leap.as_ref(), |l| {
                obj(vec![
                    ("from", time(l.from)),
                    ("parked", time(l.parked)),
                    ("settled", time(l.settled)),
                    ("pending", num(l.pending)),
                    ("pct", opt(l.pct, num)),
                ])
            }),
        ),
        ("sim_leaps", num(w.sim_leaps)),
        ("sim_leaped_slices", num(w.sim_leaped_slices)),
    ])
}

fn dpair_u32_time(v: &Value) -> R<(u32, SimTime)> {
    let a = darr(v)?;
    Ok((du32(arg(a, 0)?)?, dtime(arg(a, 1)?)?))
}

fn dec_world_into(v: &Value, w: &mut World) -> R<()> {
    let mech = v.req("mech")?;
    w.mech.memory = GlobalMemory::import_state(dec_memory(mech.req("memory")?)?);
    w.mech
        .restore_counters(mech.req_u64("xfer_count")?, mech.req_u64("caw_count")?);
    w.jobs = elems(v, "jobs")?.iter().map(dec_job).collect::<R<_>>()?;
    w.queue = dvec(v.req("queue")?, djob)?.into();
    w.matrix = GangMatrix::import_state(dec_matrix(v.req("matrix")?)?);
    w.slot_jobs = elems(v, "slot_jobs")?
        .iter()
        .map(|per| dvec(per, djob))
        .collect::<R<_>>()?;
    w.active_slot = dusize(v.req("active_slot")?)?;
    let rows = elems(v, "nodes")?;
    let mut nodes =
        NodeTable::new(u32::try_from(rows.len()).map_err(|_| "node table too large".to_string())?);
    for (n, row) in rows.iter().enumerate() {
        let a = darr(row)?;
        let failed = dbool(arg(a, 0)?)?;
        let failed_at = dopt(arg(a, 1)?).map(dtime).transpose()?;
        if failed {
            let at = failed_at.ok_or_else(|| "failed node without failure instant".to_string())?;
            nodes.mark_failed(n as u32, at);
        }
        if dbool(arg(a, 2)?)? {
            nodes.set_quarantined(n as u32, true);
        }
    }
    w.nodes = nodes;
    w.read_dev = Nic::from_state(dtime(v.req("read_dev")?)?);
    w.bcast_dev = Nic::from_state(dtime(v.req("bcast_dev")?)?);
    w.hb_var = dopt(v.req("hb_var")?)
        .map(|x| Ok::<_, String>(VarId(du32(x)?)))
        .transpose()?;
    w.hb_round = di64(v.req("hb_round")?)?;
    w.mm_core = dec_core(v.req("mm_core")?)?;
    w.mm_replicas = elems(v, "mm_replicas")?
        .iter()
        .map(|r| {
            Ok(ReplicaState {
                applied: r.req_u64("applied")?,
                state: dec_core(r.req("state")?)?,
            })
        })
        .collect::<R<_>>()?;
    w.mm_roles = elems(v, "mm_roles")?
        .iter()
        .map(|r| {
            Ok(match dstr(r)? {
                "active" => MmRole::Active,
                "standby" => MmRole::Standby,
                "failed" => MmRole::Failed,
                other => return Err(format!("unknown MM role {other:?}")),
            })
        })
        .collect::<R<_>>()?;
    w.mm_failed = dvec(v.req("mm_failed")?, dbool)?;
    w.mm_failed_at = elems(v, "mm_failed_at")?
        .iter()
        .map(|t| dopt(t).map(dtime).transpose())
        .collect::<R<_>>()?;
    w.mm_active_rank = du32(v.req("mm_active_rank")?)?;
    w.mm_epoch = v.req_u64("mm_epoch")?;
    w.mm_epoch_var = dopt(v.req("mm_epoch_var")?)
        .map(|x| Ok::<_, String>(VarId(du32(x)?)))
        .transpose()?;
    w.requeue_pending = elems(v, "requeue_pending")?
        .iter()
        .map(|row| {
            let a = darr(row)?;
            Ok((djob(arg(a, 0)?)?, dtime(arg(a, 1)?)?))
        })
        .collect::<R<_>>()?;
    let repl = v.req("repl")?;
    w.repl = ReplStats {
        log_records: repl.req_u64("log_records")?,
        checkpoints: repl.req_u64("checkpoints")?,
        beats: repl.req_u64("beats")?,
        log_gaps: repl.req_u64("log_gaps")?,
        promotions: repl.req_u64("promotions")?,
        failovers: elems(repl, "failovers")?
            .iter()
            .map(dpair_u32_time)
            .collect::<R<_>>()?,
    };
    let stats = v.req("stats")?;
    w.stats = ClusterStats {
        strobes: stats.req_u64("strobes")?,
        fragments: stats.req_u64("fragments")?,
        flow_stalls: stats.req_u64("flow_stalls")?,
        reports: stats.req_u64("reports")?,
        completed_jobs: stats.req_u64("completed_jobs")?,
        failures_detected: elems(stats, "failures_detected")?
            .iter()
            .map(dpair_u32_time)
            .collect::<R<_>>()?,
        rejoins: elems(stats, "rejoins")?
            .iter()
            .map(dpair_u32_time)
            .collect::<R<_>>()?,
        requeues: stats.req_u64("requeues")?,
        caw_drops: stats.req_u64("caw_drops")?,
        hb_drops: stats.req_u64("hb_drops")?,
        xfer_retries: stats.req_u64("xfer_retries")?,
        nm_overruns: stats.req_u64("nm_overruns")?,
    };
    w.telemetry = dec_telemetry(v.req("telemetry")?)?;
    w.cq = dec_cq(v.req("cq")?)?;
    w.leap = dopt(v.req("leap")?)
        .map(|l| {
            Ok::<_, String>(IdleLeap {
                from: dtime(l.req("from")?)?,
                parked: dtime(l.req("parked")?)?,
                settled: dtime(l.req("settled")?)?,
                pending: l.req_u64("pending")?,
                pct: dopt(l.req("pct")?).map(du64).transpose()?,
            })
        })
        .transpose()?;
    w.sim_leaps = v.req_u64("sim_leaps")?;
    w.sim_leaped_slices = v.req_u64("sim_leaped_slices")?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Dæmon private state
// ---------------------------------------------------------------------------

fn enc_mm_report(r: &(u32, JobId, u32, ReportKind)) -> Value {
    Value::Arr(vec![num(r.0), num(r.1 .0), num(r.2), enc_report(&r.3)])
}

fn dec_mm_report(v: &Value) -> R<(u32, JobId, u32, ReportKind)> {
    let a = darr(v)?;
    Ok((
        du32(arg(a, 0)?)?,
        djob(arg(a, 1)?)?,
        du32(arg(a, 2)?)?,
        dec_report(arg(a, 3)?)?,
    ))
}

fn enc_mm(s: &MmState) -> Value {
    obj(vec![
        ("tick_scheduled", boolean(s.tick_scheduled)),
        ("collect_scheduled", boolean(s.collect_scheduled)),
        (
            "pending_reports",
            Value::Arr(s.pending_reports.iter().map(enc_mm_report).collect()),
        ),
        ("ticks", num(s.ticks)),
        ("last_tick_at", opt(s.last_tick_at, time)),
        (
            "detected_failed",
            Value::Arr(s.detected_failed.iter().map(|&n| num(n)).collect()),
        ),
        ("rank", num(s.rank)),
        (
            "role",
            string(match s.role {
                MmRole::Active => "active",
                MmRole::Standby => "standby",
                MmRole::Failed => "failed",
            }),
        ),
        ("epoch", num(s.epoch)),
        ("last_beat_seen", opt(s.last_beat_seen, time)),
        ("beats_sent", num(s.beats_sent)),
    ])
}

fn dec_mm(v: &Value) -> R<MmState> {
    Ok(MmState {
        tick_scheduled: dbool(v.req("tick_scheduled")?)?,
        collect_scheduled: dbool(v.req("collect_scheduled")?)?,
        pending_reports: elems(v, "pending_reports")?
            .iter()
            .map(dec_mm_report)
            .collect::<R<_>>()?,
        ticks: v.req_u64("ticks")?,
        last_tick_at: dopt(v.req("last_tick_at")?).map(dtime).transpose()?,
        detected_failed: dvec(v.req("detected_failed")?, du32)?,
        rank: du32(v.req("rank")?)?,
        role: match v.req_str("role")? {
            "active" => MmRole::Active,
            "standby" => MmRole::Standby,
            "failed" => MmRole::Failed,
            other => return Err(format!("unknown MM role {other:?}")),
        },
        epoch: v.req_u64("epoch")?,
        last_beat_seen: dopt(v.req("last_beat_seen")?).map(dtime).transpose()?,
        beats_sent: v.req_u64("beats_sent")?,
    })
}

fn enc_nm(s: &NmState) -> Value {
    obj(vec![
        ("node", num(s.node)),
        ("failed", boolean(s.failed)),
        ("busy_until", time(s.busy_until)),
        ("write_free", time(s.write_free)),
        ("current_slot", num(s.current_slot)),
        ("last_strobe", time(s.last_strobe)),
        ("switch_pending", boolean(s.switch_pending)),
        (
            "local",
            Value::Arr(
                s.local
                    .iter()
                    .map(|l| {
                        obj(vec![
                            ("job", num(l.job.0)),
                            ("ranks", num(l.ranks)),
                            ("forked", num(l.forked)),
                            ("exited", num(l.exited)),
                            ("started_at", opt(l.started_at, time)),
                            (
                                "cursor",
                                Value::Arr(vec![
                                    num(l.cursor.0),
                                    span(l.cursor.1),
                                    span(l.cursor.2),
                                ]),
                            ),
                            ("done", boolean(l.done)),
                            ("done_at", opt(l.done_at, time)),
                            ("attempt", num(l.attempt)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "pending_reports",
            Value::Arr(
                s.pending_reports
                    .iter()
                    .map(|&(j, attempt, ref kind)| {
                        Value::Arr(vec![num(j.0), num(attempt), enc_report(kind)])
                    })
                    .collect(),
            ),
        ),
        ("flush_scheduled", boolean(s.flush_scheduled)),
        ("stalled_until", opt(s.stalled_until, time)),
    ])
}

fn dec_nm(v: &Value) -> R<NmState> {
    Ok(NmState {
        node: du32(v.req("node")?)?,
        failed: dbool(v.req("failed")?)?,
        busy_until: dtime(v.req("busy_until")?)?,
        write_free: dtime(v.req("write_free")?)?,
        current_slot: dusize(v.req("current_slot")?)?,
        last_strobe: dtime(v.req("last_strobe")?)?,
        switch_pending: dbool(v.req("switch_pending")?)?,
        local: elems(v, "local")?
            .iter()
            .map(|l| {
                let c = darr(l.req("cursor")?)?;
                Ok(NmLocalJobState {
                    job: djob(l.req("job")?)?,
                    ranks: du32(l.req("ranks")?)?,
                    forked: du32(l.req("forked")?)?,
                    exited: du32(l.req("exited")?)?,
                    started_at: dopt(l.req("started_at")?).map(dtime).transpose()?,
                    cursor: (dusize(arg(c, 0)?)?, dspan(arg(c, 1)?)?, dspan(arg(c, 2)?)?),
                    done: dbool(l.req("done")?)?,
                    done_at: dopt(l.req("done_at")?).map(dtime).transpose()?,
                    attempt: du32(l.req("attempt")?)?,
                })
            })
            .collect::<R<_>>()?,
        pending_reports: elems(v, "pending_reports")?
            .iter()
            .map(|row| {
                let a = darr(row)?;
                Ok((
                    djob(arg(a, 0)?)?,
                    du32(arg(a, 1)?)?,
                    dec_report(arg(a, 2)?)?,
                ))
            })
            .collect::<R<_>>()?,
        flush_scheduled: dbool(v.req("flush_scheduled")?)?,
        stalled_until: dopt(v.req("stalled_until")?).map(dtime).transpose()?,
    })
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

impl Cluster {
    /// Serialize the cluster's complete mutable state to a self-contained
    /// versioned JSON artifact (the `CKPT_*.json` format). Call between
    /// runs, never from inside a handler.
    pub fn checkpoint(&self) -> String {
        let w = self.sim().world();
        let mms: Vec<Value> = w
            .wiring
            .mms
            .iter()
            .map(|&id| {
                let mm = self
                    .sim()
                    .component(id)
                    .as_any()
                    .and_then(|a| a.downcast_ref::<MachineManager>())
                    .expect("MM wiring points at a MachineManager");
                enc_mm(&mm.export_state())
            })
            .collect();
        let nms: Vec<Value> = w
            .wiring
            .nms
            .iter()
            .map(|&id| {
                let nm = self
                    .sim()
                    .component(id)
                    .as_any()
                    .and_then(|a| a.downcast_ref::<NodeManager>())
                    .expect("NM wiring points at a NodeManager");
                enc_nm(&nm.export_state())
            })
            .collect();
        let pls: Vec<Value> = w
            .wiring
            .pls
            .iter()
            .map(|per_node| {
                Value::Arr(
                    per_node
                        .iter()
                        .map(|&id| {
                            let pl = self
                                .sim()
                                .component(id)
                                .as_any()
                                .and_then(|a| a.downcast_ref::<ProgramLauncher>())
                                .expect("PL wiring points at a ProgramLauncher");
                            num(pl.fork_count())
                        })
                        .collect(),
                )
            })
            .collect();
        let doc = Value::Obj(vec![
            ("version".into(), num(CHECKPOINT_VERSION)),
            ("kind".into(), Value::Str("storm-checkpoint".into())),
            ("config".into(), enc_config(&w.cfg)),
            ("next_job".into(), num(self.next_job_counter())),
            (
                "engine".into(),
                enc_engine(&self.sim().export_engine_state()),
            ),
            ("world".into(), enc_world(w)),
            ("mms".into(), Value::Arr(mms)),
            ("nms".into(), Value::Arr(nms)),
            ("pls".into(), Value::Arr(pls)),
        ]);
        render(&doc)
    }

    /// Rebuild a cluster from a [`Cluster::checkpoint`] artifact. The
    /// resumed run is byte-identical — trace, stats, telemetry snapshots,
    /// and interleaving digest — to the run the checkpoint was taken
    /// from. Rejects version mismatches and malformed documents with a
    /// descriptive error.
    pub fn restore(text: &str) -> Result<Cluster, String> {
        let doc = parse(text)?;
        let version = doc.req_u64("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (this build reads version {CHECKPOINT_VERSION})"
            ));
        }
        if doc.req_str("kind")? != "storm-checkpoint" {
            return Err("not a storm-checkpoint artifact".into());
        }
        let cfg = dec_config(doc.req("config")?)?;
        cfg.validate()
            .map_err(|e| format!("embedded config invalid: {e}"))?;
        let mut cluster = Cluster::new(cfg);
        // The engine image replaces construction-time posts wholesale.
        cluster
            .sim_mut()
            .import_engine_state(dec_engine(doc.req("engine")?)?);
        dec_world_into(doc.req("world")?, cluster.sim_mut().world_mut())?;
        let (mm_ids, nm_ids, pl_ids, active_rank) = {
            let w = cluster.sim().world();
            (
                w.wiring.mms.clone(),
                w.wiring.nms.clone(),
                w.wiring.pls.clone(),
                w.mm_active_rank,
            )
        };
        // Repoint the active-MM alias (moved by failover, not by layout).
        cluster.sim_mut().world_mut().wiring.mm = mm_ids.get(active_rank as usize).copied();
        let mm_rows = darr(doc.req("mms")?)?;
        if mm_rows.len() != mm_ids.len() {
            return Err(format!(
                "checkpoint has {} MM replicas, cluster layout has {}",
                mm_rows.len(),
                mm_ids.len()
            ));
        }
        for (&id, row) in mm_ids.iter().zip(mm_rows) {
            let state = dec_mm(row)?;
            let mm = cluster
                .sim_mut()
                .component_mut(id)
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<MachineManager>())
                .ok_or_else(|| "MM wiring does not point at a MachineManager".to_string())?;
            *mm = MachineManager::import_state(state);
        }
        let nm_rows = darr(doc.req("nms")?)?;
        if nm_rows.len() != nm_ids.len() {
            return Err(format!(
                "checkpoint has {} NMs, cluster layout has {}",
                nm_rows.len(),
                nm_ids.len()
            ));
        }
        for (&id, row) in nm_ids.iter().zip(nm_rows) {
            let state = dec_nm(row)?;
            let nm = cluster
                .sim_mut()
                .component_mut(id)
                .as_any_mut()
                .and_then(|a| a.downcast_mut::<NodeManager>())
                .ok_or_else(|| "NM wiring does not point at a NodeManager".to_string())?;
            *nm = NodeManager::import_state(state);
        }
        let pl_rows = darr(doc.req("pls")?)?;
        if pl_rows.len() != pl_ids.len() {
            return Err(format!(
                "checkpoint has PL rows for {} nodes, cluster layout has {}",
                pl_rows.len(),
                pl_ids.len()
            ));
        }
        for (per_node_ids, per_node_row) in pl_ids.iter().zip(pl_rows) {
            let forks = dvec(per_node_row, du64)?;
            if forks.len() != per_node_ids.len() {
                return Err("checkpoint PL count does not match cluster layout".into());
            }
            for (&id, f) in per_node_ids.iter().zip(forks) {
                let pl = cluster
                    .sim_mut()
                    .component_mut(id)
                    .as_any_mut()
                    .and_then(|a| a.downcast_mut::<ProgramLauncher>())
                    .ok_or_else(|| "PL wiring does not point at a ProgramLauncher".to_string())?;
                pl.restore_forks(f);
            }
        }
        let next_job = u32::try_from(doc.req_u64("next_job")?)
            .map_err(|_| "next_job out of range".to_string())?;
        cluster.set_next_job_counter(next_job);
        Ok(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    #[test]
    fn roundtrip_midrun_is_byte_identical_to_the_end() {
        let cfg = ClusterConfig::paper_cluster().with_telemetry(true);
        let mut live = Cluster::new(cfg);
        live.enable_tracing();
        live.submit(JobSpec::new(AppSpec::do_nothing_mb(8), 32));
        // 50 ms lands mid-transfer: queue entries, arena payloads, devices
        // and per-job transfer state are all non-trivial.
        live.run_until(SimTime::from_millis(50));
        let ckpt = live.checkpoint();

        let mut restored = Cluster::restore(&ckpt).expect("restore");
        assert_eq!(restored.now(), live.now());
        assert_eq!(
            restored.interleaving_digest(),
            live.interleaving_digest(),
            "pop digest must resume mid-stream"
        );

        live.run_until_idle();
        restored.run_until_idle();
        assert_eq!(
            live.interleaving_digest(),
            restored.interleaving_digest(),
            "interleaving must be identical after resume"
        );
        assert_eq!(live.trace(), restored.trace(), "traces must match");
        assert_eq!(
            live.checkpoint(),
            restored.checkpoint(),
            "final states must be byte-identical"
        );
    }

    #[test]
    fn fresh_cluster_roundtrips() {
        let live = Cluster::new(ClusterConfig::paper_cluster());
        let restored = Cluster::restore(&live.checkpoint()).expect("restore");
        assert_eq!(live.checkpoint(), restored.checkpoint());
    }

    #[test]
    fn rejects_malformed_and_mismatched_artifacts() {
        assert!(Cluster::restore("not json").is_err());
        assert!(Cluster::restore("{}").is_err());
        let v99 = r#"{"version": 99, "kind": "storm-checkpoint"}"#;
        let err = Cluster::restore(v99).err().expect("v99 must be rejected");
        assert!(err.contains("version"), "got: {err}");
        let wrong_kind = r#"{"version": 2, "kind": "something-else"}"#;
        assert!(Cluster::restore(wrong_kind).is_err());
        // A well-formed checkpoint relabelled as version 1 (the layout that
        // still carried `queue_backend`, `event_batching` and `threads`)
        // must be refused up front, not half-decoded.
        let current = Cluster::new(ClusterConfig::paper_cluster()).checkpoint();
        let key = format!("\"version\":{CHECKPOINT_VERSION}");
        assert!(current.starts_with(&format!("{{{key},")), "{current:.80}");
        let v1 = current.replacen(&key, "\"version\":1", 1);
        let err = Cluster::restore(&v1)
            .err()
            .expect("a version-1 artifact must be rejected");
        assert!(
            err.contains("unsupported checkpoint version 1"),
            "got: {err}"
        );
    }
}
