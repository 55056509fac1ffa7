//! Checkpoint/restore: serialize a running [`Cluster`] to a
//! self-contained, versioned JSON artifact and rebuild it later — in a
//! different process or on a different machine — such that the resumed
//! run is byte-identical (trace, stats, snapshots, interleaving digest)
//! to the uninterrupted one.
//!
//! The artifact (`CKPT_*.json` by convention, mirroring the DST repro
//! format) captures everything mutable: the engine image (clock, pending
//! queue entries with their `(time, tie, seq)` pop keys and payloads,
//! the payload arenas' sizes, the root RNG stream, delivery-order hook,
//! trace), the shared
//! world (global memory, jobs, queue, gang matrix, node health, devices,
//! replication plane, telemetry), and the MMs' and NMs' state. The
//! configuration is embedded whole; nothing about a restore depends on
//! the restoring process's environment.
//!
//! Size grows with the node count, so per-node state stays small: the
//! node table and each NM's state and resident jobs are positional rows,
//! not keyed objects; and of the per-component RNG streams, only those
//! that have moved from the start the root seed derives are listed, as
//! `[index, state]` rows (version 4). PLs keep no state, so they have no
//! section (version 9).
//!
//! Restore works by *reconstruction*: [`Cluster::new`] rebuilds the
//! deterministic layout (component wiring, QsNET model, fault plan) from
//! the embedded config, the engine image then replaces the construction-
//! time event queue wholesale, and the world/component sections overwrite
//! the remaining mutable state. Version mismatches, malformed documents
//! and state that contradicts the layout are rejected with errors naming
//! the offending member, never with a panic. The loaded world must then
//! pass [`World::check_invariants`], the checker the DST harness runs at
//! every timeslice boundary; the error names the broken check first
//! (`matrix_consistency: world.jobs[1]: …`). A finished job keeps only
//! what in-flight messages and the job views read: its report sets are
//! emptied, its flow-control variable is on global memory's free list,
//! and NMs drop its resident entry at their next launch (version 6).
//!
//! Each fact is written once (version 7), so no artifact can contradict
//! itself: MM membership is `world.mm_roles` and `mm_active_rank`, a
//! node's failure its node-table row, the nodes detected failed the
//! matrix's quarantine set, a job's report counts its report sets and
//! its retries its `attempt`. The matrix is written as its shape, open
//! slot count and quarantine set; each live job's block is its record's
//! allocation, carved back into the open slots after the world loads, and
//! a block that does not fit is refused before the invariant check.
//! Version 8 goes on: a replica's replicated state is its log position
//! and digest, a failed replica's role holds its failure instant, the
//! MM's next tick is one instant, and the dæmons are encoded as
//! themselves, field by field, without the node or rank their wiring
//! position already gives. A pending fragment or launch fan-out of a live
//! job's current attempt must address that job's block. Version 9 drops
//! the `pls` section: a Program Launcher's fork counter was read by
//! nothing but the checkpoint, and PLs now keep no state.
//!
//! Each type's layout is declared once. The [`Codec`] impls come from
//! macros over field and variant lists — `record!` (an object keyed by
//! field name), `row!` (a positional array), `tagged!` (an enum as
//! `["tag", fields…]`), `names!` (a fieldless enum as a string) and
//! `via!` (a type stored as another) — so encode and decode cannot drift
//! apart. `enc` writes compact JSON text straight into one
//! [`Writer`], with no value tree in between; `dec` reads the [`Value`]
//! that [`parse`] builds, so decode errors can name the member path.
//! Times and spans are integer nanoseconds, `f64` its IEEE-754 bit
//! pattern, `Option` the value or `null`; all integers round-trip
//! exactly, because a parsed number keeps its source token.

use crate::cluster::Cluster;
use crate::config::{ClusterConfig, DaemonCosts, SchedulerKind};
use crate::cq::{Alert, Condition, ContinuousQueries, ContinuousQuery};
use crate::fault::{FailurePolicy, FaultEvent, FaultSchedule};
use crate::job::{
    Allocation, JobId, JobMetrics, JobRecord, JobSpec, JobState, ReportSet, TransferState,
};
use crate::matrix::GangMatrix;
use crate::mm::MmRow;
use crate::msg::{Msg, ReportKind};
use crate::nm::{LocalJob, NmRow};
use crate::replica::{Decision, MmCoreState, MmRole, ReplStats};
use crate::world::{ClusterStats, Daemon, IdleLeap, NodeTable, World};
use std::collections::VecDeque;
use std::fmt::Arguments;
use std::sync::Arc;
use storm_apps::{AppSpec, Step, Workload, WorkloadCursor};
use storm_fs::FsKind;
use storm_mech::{
    CawAudit, ErrorBurst, GlobalMemory, Mechanisms, MemoryState, NodeId, NodeSet, VarId,
};
use storm_net::{BackgroundLoad, BufferPlacement, NetworkKind, Nic};
use storm_sim::{
    intern_label, ArenaSize, ComponentId, Delivery, DeliveryOrder, DeliveryOrderState, EngineState,
    GroupDelivery, GroupSchedule, GroupTargets, OrderModeState, QueueAccounting, QueuedEventState,
    SimSpan, SimTime, TraceRecord,
};
use storm_telemetry::json::{parse, Value, Writer};
use storm_telemetry::{
    Histogram, JobSpan, MetricKey, MetricValue, MetricsRegistry, Phase, SpanLog, Telemetry,
};

/// Artifact format version. Bumped on any incompatible layout change;
/// [`Cluster::restore`] rejects artifacts from other versions.
pub const CHECKPOINT_VERSION: u64 = 9;

type R<T> = Result<T, String>;

// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

/// A checkpointed type's encoding: `enc` writes its JSON text, `dec`
/// reads it back from the parsed [`Value`].
trait Codec: Sized {
    fn enc(&self, out: &mut Writer);
    fn dec(v: &Value) -> R<Self>;
}

/// Decoding in place, for the types that also hold layout [`Cluster::new`]
/// rebuilds from the config: the world and its mechanism layer. Every
/// [`Codec`] type patches by replacement.
trait Patch {
    fn save(&self, out: &mut Writer);
    fn load(&mut self, v: &Value) -> R<()>;
}

impl<T: Codec> Patch for T {
    fn save(&self, out: &mut Writer) {
        self.enc(out);
    }
    fn load(&mut self, v: &Value) -> R<()> {
        *self = T::dec(v)?;
        Ok(())
    }
}

/// Prefix a decode error with the member it came from (`.key` or `[i]`),
/// so the message reads `world.jobs[3].spec.ranks: expected unsigned
/// integer` once [`Cluster::restore`] trims the leading dot.
fn at(seg: Arguments<'_>, e: String) -> String {
    if e.starts_with(['.', '[']) {
        format!("{seg}{e}")
    } else {
        format!("{seg}: {e}")
    }
}

/// Object member `key`, holding `value`.
fn put<T: Codec>(out: &mut Writer, key: &str, value: &T) {
    out.key(key);
    value.enc(out);
}

/// An array of `items`, each in its own encoding.
fn list<'a, T: Codec + 'a>(out: &mut Writer, items: impl IntoIterator<Item = &'a T>) {
    out.arr(|out| items.into_iter().for_each(|x| x.enc(out)));
}

/// Member `key` of an object.
fn member<'a>(v: &'a Value, key: &str) -> R<&'a Value> {
    match v {
        Value::Obj(_) => v.get(key).ok_or_else(|| format!(".{key}: missing")),
        _ => Err("expected object".into()),
    }
}

/// Decode member `key` of an object.
fn field<T: Codec>(v: &Value, key: &str) -> R<T> {
    T::dec(member(v, key)?).map_err(|e| at(format_args!(".{key}"), e))
}

/// The tag of a `["tag", fields…]` array.
fn tag_of(v: &Value) -> R<&str> {
    v.as_arr()
        .and_then(|a| a.first())
        .and_then(Value::as_str)
        .ok_or_else(|| "expected tagged array".into())
}

/// The elements of a positional array, decoded in order.
struct Items<'a> {
    items: &'a [Value],
    next: usize,
}

impl<'a> Items<'a> {
    /// `v` must hold exactly `skip + n` elements; decoding starts past
    /// the first `skip` (a tag).
    fn new(v: &'a Value, skip: usize, n: usize) -> R<Self> {
        match v.as_arr() {
            Some(items) if items.len() == skip + n => Ok(Items { items, next: skip }),
            _ => Err(format!("expected array of {}", skip + n)),
        }
    }

    fn next<T: Codec>(&mut self) -> R<T> {
        let i = self.next;
        self.next += 1;
        T::dec(&self.items[i]).map_err(|e| at(format_args!("[{i}]"), e))
    }
}

/// An object of the listed fields, keyed by name, in list order. The
/// `into` form decodes in place (see [`Patch`]).
macro_rules! record {
    (into $ty:ty { $($f:ident),* $(,)? }) => {
        impl Patch for $ty {
            fn save(&self, out: &mut Writer) {
                out.obj(|out| { $(out.key(stringify!($f)); self.$f.save(out);)* });
            }
            fn load(&mut self, v: &Value) -> R<()> {
                $(self.$f
                    .load(member(v, stringify!($f))?)
                    .map_err(|e| at(format_args!(".{}", stringify!($f)), e))?;)*
                Ok(())
            }
        }
    };
    (<$g:ident> $ty:ty { $($f:ident),* $(,)? }) => {
        record!(@ [$g: Codec] $ty { $($f),* });
    };
    (@ [$($gen:tt)*] $ty:ty { $($f:ident),* }) => {
        impl<$($gen)*> Codec for $ty {
            fn enc(&self, out: &mut Writer) {
                out.obj(|out| { $(put(out, stringify!($f), &self.$f);)* });
            }
            fn dec(v: &Value) -> R<Self> {
                Ok(Self { $($f: field(v, stringify!($f))?),* })
            }
        }
    };
    ($ty:ty { $($f:ident),* $(,)? }) => {
        record!(@ [] $ty { $($f),* });
    };
}

/// A positional array of the listed fields.
macro_rules! row {
    ($ty:ty [$($f:ident),* $(,)?]) => {
        impl Codec for $ty {
            fn enc(&self, out: &mut Writer) {
                out.arr(|out| { $(self.$f.enc(out);)* });
            }
            fn dec(v: &Value) -> R<Self> {
                let mut items = Items::new(v, 0, <[&str]>::len(&[$(stringify!($f)),*]))?;
                Ok(Self { $($f: items.next()?),* })
            }
        }
    };
}

/// An enum as `["tag", fields…]`: one line per variant, unit, tuple or
/// struct-like, with its fields in encoding order.
macro_rules! tagged {
    ($ty:ty, $what:literal {
        $($tag:literal => $var:ident $(($($p:ident),*))? $({ $($f:ident),* })?),* $(,)?
    }) => {
        impl Codec for $ty {
            fn enc(&self, out: &mut Writer) {
                match self {
                    $(Self::$var $(($($p),*))? $({ $($f),* })? => out.arr(|out| {
                        out.str($tag);
                        $($($p.enc(out);)*)? $($($f.enc(out);)*)?
                    }),)*
                }
            }
            fn dec(v: &Value) -> R<Self> {
                match tag_of(v)? {
                    $($tag => {
                        #[allow(unused_mut, unused_variables)]
                        let mut items = Items::new(
                            v,
                            1,
                            <[&str]>::len(&[$($(stringify!($p)),*)? $($(stringify!($f)),*)?]),
                        )?;
                        Ok(Self::$var $(($({ let $p = items.next()?; $p }),*))?
                            $({ $($f: items.next()?),* })?)
                    })*
                    other => Err(format!("unknown {} {other:?}", $what)),
                }
            }
        }
    };
}

/// A fieldless enum as a string.
macro_rules! names {
    ($ty:ty, $what:literal { $($var:ident => $name:literal),* $(,)? }) => {
        impl Codec for $ty {
            fn enc(&self, out: &mut Writer) {
                out.str(match self { $(Self::$var => $name),* });
            }
            fn dec(v: &Value) -> R<Self> {
                match v.as_str().ok_or("expected string")? {
                    $($name => Ok(Self::$var),)*
                    other => Err(format!("unknown {} {other:?}", $what)),
                }
            }
        }
    };
}

/// A type stored as another codec type.
macro_rules! via {
    ($($ty:ty => $repr:ty: $to:expr, $from:expr;)*) => {$(
        impl Codec for $ty {
            fn enc(&self, out: &mut Writer) {
                <$repr>::enc(&($to)(self), out);
            }
            fn dec(v: &Value) -> R<Self> {
                <$repr>::dec(v).map($from)
            }
        }
    )*};
}

macro_rules! ints {
    ($($t:ty: $what:literal),*) => {$(
        impl Codec for $t {
            fn enc(&self, out: &mut Writer) {
                out.num(*self);
            }
            fn dec(v: &Value) -> R<Self> {
                let n: i128 = match v {
                    Value::Num(tok) => tok.parse().map_err(|_| $what)?,
                    _ => return Err($what.into()),
                };
                <$t>::try_from(n).map_err(|_| format!("integer out of {} range", stringify!($t)))
            }
        }
    )*};
}

ints!(
    u32: "expected unsigned integer",
    u64: "expected unsigned integer",
    usize: "expected unsigned integer",
    i64: "expected integer"
);

macro_rules! tuple {
    ($($t:ident $i:tt),*) => {
        impl<$($t: Codec),*> Codec for ($($t,)*) {
            fn enc(&self, out: &mut Writer) {
                out.arr(|out| { $(self.$i.enc(out);)* });
            }
            fn dec(v: &Value) -> R<Self> {
                let mut items = Items::new(v, 0, <[&str]>::len(&[$(stringify!($t)),*]))?;
                Ok(($(items.next::<$t>()?,)*))
            }
        }
    };
}

tuple!(A 0, B 1);
tuple!(A 0, B 1, C 2);
tuple!(A 0, B 1, C 2, D 3);

impl Codec for bool {
    fn enc(&self, out: &mut Writer) {
        out.bool(*self);
    }
    fn dec(v: &Value) -> R<Self> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err("expected boolean".into()),
        }
    }
}

impl Codec for String {
    fn enc(&self, out: &mut Writer) {
        out.str(self);
    }
    fn dec(v: &Value) -> R<Self> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected string".into())
    }
}

impl Codec for Arc<str> {
    fn enc(&self, out: &mut Writer) {
        out.str(self);
    }
    fn dec(v: &Value) -> R<Self> {
        v.as_str()
            .map(Arc::from)
            .ok_or_else(|| "expected string".into())
    }
}

/// A report set is its nodes, ascending.
impl Codec for ReportSet {
    fn enc(&self, out: &mut Writer) {
        out.arr(|out| self.iter().for_each(|n| n.enc(out)));
    }
    fn dec(v: &Value) -> R<Self> {
        let mut set = ReportSet::default();
        for node in Vec::<u32>::dec(v)? {
            set.insert(node);
        }
        Ok(set)
    }
}

/// Static labels (trace, metric and phase names) are interned on decode.
impl Codec for &'static str {
    fn enc(&self, out: &mut Writer) {
        out.str(self);
    }
    fn dec(v: &Value) -> R<Self> {
        v.as_str()
            .map(intern_label)
            .ok_or_else(|| "expected string".into())
    }
}

impl<T: Codec> Codec for Option<T> {
    fn enc(&self, out: &mut Writer) {
        match self {
            Some(x) => x.enc(out),
            None => out.null(),
        }
    }
    fn dec(v: &Value) -> R<Self> {
        match v {
            Value::Null => Ok(None),
            v => T::dec(v).map(Some),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn enc(&self, out: &mut Writer) {
        list(out, self);
    }
    fn dec(v: &Value) -> R<Self> {
        let items = v.as_arr().ok_or("expected array")?;
        (0..)
            .zip(items)
            .map(|(i, x)| T::dec(x).map_err(|e| at(format_args!("[{i}]"), e)))
            .collect()
    }
}

impl<T: Codec> Codec for VecDeque<T> {
    fn enc(&self, out: &mut Writer) {
        list(out, self);
    }
    fn dec(v: &Value) -> R<Self> {
        Vec::dec(v).map(Into::into)
    }
}

impl<T: Codec> Codec for Arc<[T]> {
    fn enc(&self, out: &mut Writer) {
        list(out, self.iter());
    }
    fn dec(v: &Value) -> R<Self> {
        Vec::dec(v).map(Into::into)
    }
}

impl<const N: usize> Codec for [u64; N] {
    fn enc(&self, out: &mut Writer) {
        list(out, self);
    }
    fn dec(v: &Value) -> R<Self> {
        Vec::dec(v)?
            .try_into()
            .map_err(|_| format!("expected array of {N}"))
    }
}

via! {
    f64 => u64: |x: &f64| x.to_bits(), f64::from_bits;
    SimTime => u64: |t: &SimTime| t.as_nanos(), SimTime::from_nanos;
    SimSpan => u64: |s: &SimSpan| s.as_nanos(), SimSpan::from_nanos;
    JobId => u32: |j: &JobId| j.0, JobId;
    VarId => u32: |v: &VarId| v.0, VarId;
    NodeId => u32: |n: &NodeId| n.0, NodeId;
    ComponentId => u32: |c: &ComponentId| c.index() as u32, ComponentId::from_index;
    Nic => SimTime: Nic::next_free, Nic::from_state;
    DeliveryOrder => DeliveryOrderState: DeliveryOrder::export_state, DeliveryOrder::import_state;
    GlobalMemory => MemoryState: GlobalMemory::export_state, GlobalMemory::import_state;
    WorkloadCursor => (usize, SimSpan, SimSpan):
        |c: &WorkloadCursor| (c.steps_done(), c.consumed_in_step(), c.total_consumed()),
        |(step, in_step, total)| WorkloadCursor::from_parts(step, in_step, total);
}

// ---------------------------------------------------------------------------
// Layouts
// ---------------------------------------------------------------------------

record!(ClusterConfig {
    nodes,
    cpus_per_node,
    timeslice,
    max_event_collect,
    mpl_max,
    chunk_bytes,
    queue_slots,
    fs,
    placement,
    network,
    load,
    scheduler,
    fault_detection,
    heartbeat_every,
    faults,
    failure_policy,
    mm_standbys,
    telemetry,
    delivery_order,
    daemon,
    seed,
});
record!(BackgroundLoad { cpu, network });
record!(FaultSchedule {
    events,
    xfer_error_prob,
    caw_drop_prob,
    heartbeat_drop_prob,
    bursts,
});
row!(ErrorBurst [from, until, prob]);
record!(DaemonCosts {
    nm_strobe_service,
    switch_overhead,
    nm_msg_service,
    fork_base,
    fork_sigma,
    helper_bw,
    chunk_fixed,
    tlb_per_extra_slot,
    caw_poll,
    write_sigma,
    exit_detect,
    os_delay_mean,
    mm_report_service,
    ics_local_quantum,
});
record!(DeliveryOrderState {
    mode,
    max_delay,
    draws
});

names!(FsKind, "fs kind" {
    RamDisk => "ram_disk",
    LocalExt2 => "local_ext2",
    Nfs => "nfs",
});
names!(BufferPlacement, "buffer placement" {
    MainMemory => "main_memory",
    NicMemory => "nic_memory",
});
names!(NetworkKind, "network kind" {
    QsNet => "qsnet",
    GigabitEthernet => "gigabit_ethernet",
    Myrinet => "myrinet",
    Infiniband => "infiniband",
    BlueGeneL => "bluegene_l",
});
names!(SchedulerKind, "scheduler" {
    Gang => "gang",
    Batch => "batch",
    Backfill => "backfill",
    ImplicitCosched => "implicit_cosched",
});
names!(JobState, "job state" {
    Queued => "queued",
    Transferring => "transferring",
    Launching => "launching",
    Running => "running",
    Completed => "completed",
    Killed => "killed",
    Failed => "failed",
});

tagged!(OrderModeState, "delivery-order mode" {
    "seeded" => Seeded { state, amplitude },
    "script" => Script(ties),
});
tagged!(MmRole, "MM role" {
    "active" => Active,
    "standby" => Standby,
    "failed" => Failed { at },
});
tagged!(FaultEvent, "fault event" {
    "crash" => Crash { at, node },
    "rejoin" => Rejoin { at, node },
    "stall" => Stall { node, from, until },
    "mm_crash" => MmCrash { at, rank },
});
tagged!(FailurePolicy, "failure policy" {
    "fail" => Fail,
    "requeue" => Requeue { max_retries, backoff },
    "shrink" => Shrink,
});
tagged!(ReportKind, "report kind" {
    "started" => Started,
    "done" => Done { app_done },
});
tagged!(Decision, "decision" {
    "submit" => Submit { job },
    "place" => Place { job, slot },
    "admit" => Admit { job },
    "launch" => Launch { job, attempt },
    "complete" => Complete { job },
    "requeue" => Requeue { job, retry },
    "quarantine" => Quarantine { node },
    "rejoin" => Rejoin { node },
    "round" => Round { round },
    "slot" => Slot { slot },
});
tagged!(Msg, "message tag" {
    "submit" => Submit(job),
    "tick" => Tick,
    "read_done" => ReadDone { job, chunk, attempt },
    "bcast_freed" => BcastFreed { job, chunk, attempt },
    "flow_poll" => FlowPoll { job, attempt },
    "nm_report" => NmReport { node, job, kind, attempt },
    "kill" => Kill(job),
    "requeue_job" => RequeueJob(job),
    "fragment" => Fragment { job, chunk, attempt },
    "write_done" => WriteDone { job, chunk, attempt },
    "launch_cmd" => LaunchCmd { job, attempt },
    "strobe" => Strobe { slot, epoch },
    "heartbeat" => Heartbeat { round, epoch },
    "fork_done" => ForkDone { job, pl, attempt },
    "pl_exited" => PlExited { job, pl, attempt },
    "fail_node" => FailNode,
    "rejoin_node" => RejoinNode,
    "stall_node" => StallNode { until },
    "flush_reports" => FlushReports,
    "resync" => Resync { epoch },
    "mm_beat" => MmBeat { epoch },
    "mm_watchdog" => MmWatchdog,
    "mm_fail" => MmFail,
    "repl_log" => ReplLog { epoch, seq, decision },
    "repl_checkpoint" => ReplCheckpoint { epoch, state },
    "fork" => Fork { job, attempt },
});
tagged!(GroupTargets, "group targets" {
    "strided" => Strided { first, stride, len },
    "list" => List(ids),
});
tagged!(GroupSchedule, "group schedule" {
    "simultaneous" => Simultaneous,
    "fanout_tree" => FanoutTree { per_hop, fanout },
});
tagged!(NodeSet, "node set" {
    "all" => All(n),
    "range" => Range { start, len },
    "list" => List(ids),
});
tagged!(AppSpec, "app spec" {
    "do_nothing" => DoNothing { binary_bytes },
    "sweep3d" => Sweep3d { iterations, compute_per_iter, comm_bytes_per_iter },
    "synthetic" => Synthetic { compute },
    "spin_loop" => SpinLoop,
    "net_load" => NetLoad { msg_bytes },
});
tagged!(Condition, "condition" {
    "quarantined_above" => QuarantinedAbove(n),
    "queue_depth_above" => QueueDepthAbove(n),
    "queue_depth_growing_for" => QueueDepthGrowingFor(k),
    "failed_nodes_above" => FailedNodesAbove(n),
    "running_jobs_above" => RunningJobsAbove(n),
    "alive_nodes_below" => AliveNodesBelow(n),
});

// Engine image.
record!(EngineState<Msg> {
    now,
    halt,
    delivered,
    handled,
    max_events,
    entries,
    accounting,
    order,
    msgs,
    groups,
    rng_seed,
    rng_state,
    streams,
    trace_enabled,
    trace_capacity,
    trace_records,
    trace_dropped,
});
record!(QueueAccounting {
    next_seq,
    pushed,
    popped,
    peak,
    pop_digest
});
record!(ArenaSize { peak, reserve });
record!(GroupDelivery<Msg> { targets, schedule, base, floor, base_seq, cursor, msg });
row!(TraceRecord [time, component, label, detail]);

/// A queue entry is one flat row with its payload inline: `[time, tie,
/// seq, target, msg]` for a unicast, `[time, tie, seq, group]` for a
/// group delivery.
impl Codec for QueuedEventState<Msg> {
    fn enc(&self, out: &mut Writer) {
        out.arr(|out| {
            self.time.enc(out);
            self.tie.enc(out);
            self.seq.enc(out);
            match &self.delivery {
                Delivery::One { target, msg } => {
                    target.enc(out);
                    msg.enc(out);
                }
                Delivery::Group(group) => group.enc(out),
            }
        });
    }
    fn dec(v: &Value) -> R<Self> {
        let one = v.as_arr().is_some_and(|items| items.len() == 5);
        let mut items = Items::new(v, 0, if one { 5 } else { 4 })?;
        Ok(QueuedEventState {
            time: items.next()?,
            tie: items.next()?,
            seq: items.next()?,
            delivery: if one {
                Delivery::One {
                    target: items.next()?,
                    msg: items.next()?,
                }
            } else {
                Delivery::Group(items.next()?)
            },
        })
    }
}

// World.
record!(into World {
    mech,
    jobs,
    queue,
    matrix,
    active_slot,
    nodes,
    read_dev,
    bcast_dev,
    hb_var,
    hb_round,
    mm_core,
    mm_replicas,
    mm_roles,
    mm_active_rank,
    mm_epoch,
    mm_epoch_var,
    requeue_pending,
    repl,
    stats,
    telemetry,
    cq,
    leap,
    sim_leaps,
    sim_leaped_slices,
});
record!(MemoryState {
    nodes,
    vars,
    events,
    caw_audit,
    free_vars
});
record!(JobRecord {
    id,
    spec,
    state,
    allocation,
    workload,
    metrics,
    transfer,
    reported_started,
    reported_done,
    transfer_confirmed,
    app_done_max,
    attempt,
});
record!(JobSpec {
    name,
    app,
    ranks,
    max_ranks_per_node,
    runtime_estimate
});
record!(JobMetrics {
    submitted,
    transfer_start,
    transfer_done,
    launch_cmd,
    started,
    app_done,
    completed,
});
record!(TransferState {
    total_chunks,
    last_chunk_bytes,
    next_read,
    chunks_read,
    next_bcast,
    read_busy,
    bcast_busy,
    poll_pending,
    written_var,
});
row!(Step [compute, comm_bytes]);
record!(MmCoreState { log_len, digest });
record!(ReplStats {
    log_records,
    checkpoints,
    beats,
    log_gaps,
    promotions,
    failovers
});
record!(ClusterStats {
    strobes,
    fragments,
    flow_stalls,
    reports,
    completed_jobs,
    failures_detected,
    rejoins,
    requeues,
    caw_drops,
    hb_drops,
    xfer_retries,
    nm_overruns,
});
record!(MetricKey { name, labels });
record!(JobSpan {
    job,
    name,
    ranks,
    outcome,
    attempts,
    phases
});
row!(Phase [name, start, end]);
record!(ContinuousQueries {
    queries,
    alerts,
    cap,
    dropped
});
record!(ContinuousQuery {
    name,
    cond,
    last_depth,
    streak,
    firings
});
row!(Alert [slice, at, query, observed]);
record!(IdleLeap {
    from,
    settled,
    pending,
    pct
});

// One row per MM replica, keyed by field name; its rank is its index in
// `World::mm_rows`.
record!(MmRow {
    pending_reports,
    ticks,
    next_tick,
    epoch,
    last_beat_seen,
    beats_sent,
});
// One NM per node, so its state and resident jobs are rows, like the
// node table: keys repeated on every node would be most of the section.
// A row's node is its index in `World::nm_rows`.
row!(NmRow [
    busy_until,
    write_free,
    current_slot,
    last_strobe,
    switch_pending,
    local,
    pending_reports,
    flush_scheduled,
    stalled_until,
]);
row!(LocalJob [
    job,
    ranks,
    forked,
    exited,
    started_at,
    cursor,
    done,
    done_at,
    attempt,
]);

/// The mechanism layer keeps its implementation and fault plan from the
/// config; its state is the global memory and two operation counters.
impl Patch for Mechanisms {
    fn save(&self, out: &mut Writer) {
        out.obj(|out| {
            put(out, "memory", &self.memory);
            put(out, "xfer_count", &self.xfer_count());
            put(out, "caw_count", &self.caw_count());
        });
    }
    fn load(&mut self, v: &Value) -> R<()> {
        self.memory = field(v, "memory")?;
        self.restore_counters(field(v, "xfer_count")?, field(v, "caw_count")?);
        Ok(())
    }
}

/// A CAW audit entry is one flat row: `[var, set, value]`.
impl Codec for (u32, CawAudit) {
    fn enc(&self, out: &mut Writer) {
        out.arr(|out| {
            self.0.enc(out);
            self.1.set.enc(out);
            self.1.value.enc(out);
        });
    }
    fn dec(v: &Value) -> R<Self> {
        let (var, set, value) = Codec::dec(v)?;
        Ok((var, CawAudit { set, value }))
    }
}

/// An allocation's node range is two members, `nodes_start`/`nodes_end`.
impl Codec for Allocation {
    fn enc(&self, out: &mut Writer) {
        out.obj(|out| {
            put(out, "slot", &self.slot);
            put(out, "nodes_start", &self.nodes.start);
            put(out, "nodes_end", &self.nodes.end);
            put(out, "ranks_per_node", &self.ranks_per_node);
            put(out, "ranks", &self.ranks);
        });
    }
    fn dec(v: &Value) -> R<Self> {
        Ok(Allocation {
            slot: field(v, "slot")?,
            nodes: field(v, "nodes_start")?..field(v, "nodes_end")?,
            ranks_per_node: field(v, "ranks_per_node")?,
            ranks: field(v, "ranks")?,
        })
    }
}

/// The matrix is its shape and its quarantine set, `{nodes, mpl_max,
/// slots, quarantined}`, with `slots` the number of open slots. The jobs
/// in them are not written: each live job record's allocation names its
/// block, and restore carves the blocks back once the records are loaded.
impl Codec for GangMatrix {
    fn enc(&self, out: &mut Writer) {
        out.obj(|out| {
            put(out, "nodes", &self.nodes());
            put(out, "mpl_max", &self.mpl_max());
            put(out, "slots", &self.slot_count());
            out.key("quarantined");
            out.arr(|out| self.quarantined_nodes().for_each(|n| n.enc(out)));
        });
    }
    fn dec(v: &Value) -> R<Self> {
        let quarantined: Vec<u32> = field(v, "quarantined")?;
        GangMatrix::open(
            field(v, "nodes")?,
            field(v, "mpl_max")?,
            field(v, "slots")?,
            &quarantined,
        )
    }
}

/// A workload is its step list plus the endless flag.
impl Codec for Workload {
    fn enc(&self, out: &mut Writer) {
        out.obj(|out| {
            put(out, "endless", &self.is_endless());
            out.key("steps");
            list(out, self.steps());
        });
    }
    fn dec(v: &Value) -> R<Self> {
        let steps: Vec<Step> = field(v, "steps")?;
        match (field(v, "endless")?, steps.is_empty()) {
            (true, true) => Err(".steps: an endless workload needs a step".into()),
            (true, false) => Ok(Workload::endless(steps)),
            (false, true) => Ok(Workload::empty()),
            (false, false) => Ok(Workload::new(steps)),
        }
    }
}

/// The node table is stored row-wise: `[failed, failed_at]`.
impl Codec for NodeTable {
    fn enc(&self, out: &mut Writer) {
        out.arr(|out| {
            for n in 0..self.len() as u32 {
                (self.is_failed(n), self.failed_since(n)).enc(out);
            }
        });
    }
    fn dec(v: &Value) -> R<Self> {
        let rows: Vec<(bool, Option<SimTime>)> = Codec::dec(v)?;
        let len = u32::try_from(rows.len()).map_err(|_| "node table too large")?;
        let mut nodes = NodeTable::new(len);
        for (n, (failed, failed_at)) in (0..len).zip(rows) {
            if failed {
                let at = failed_at.ok_or_else(|| format!("[{n}]: failed without an instant"))?;
                nodes.mark_failed(n, at);
            }
        }
        Ok(nodes)
    }
}

/// A histogram's parts are flattened into its tagged array:
/// `["histogram", buckets, count, sum, min, max]`.
impl Codec for MetricValue {
    fn enc(&self, out: &mut Writer) {
        out.arr(|out| match self {
            MetricValue::Counter(n) => {
                out.str("counter");
                n.enc(out);
            }
            MetricValue::Gauge(g) => {
                out.str("gauge");
                g.enc(out);
            }
            MetricValue::Histogram(h) => {
                out.str("histogram");
                h.bucket_counts().enc(out);
                h.count().enc(out);
                h.sum().enc(out);
                h.min().enc(out);
                h.max().enc(out);
            }
        });
    }
    fn dec(v: &Value) -> R<Self> {
        match tag_of(v)? {
            "counter" => Ok(MetricValue::Counter(Items::new(v, 1, 1)?.next()?)),
            "gauge" => Ok(MetricValue::Gauge(Items::new(v, 1, 1)?.next()?)),
            "histogram" => {
                let mut items = Items::new(v, 1, 5)?;
                let h = Histogram::from_parts(
                    items.next()?,
                    items.next()?,
                    items.next()?,
                    items.next()?,
                    items.next()?,
                );
                Ok(MetricValue::Histogram(Box::new(h)))
            }
            other => Err(format!("unknown metric value {other:?}")),
        }
    }
}

/// Telemetry is the on flag, the metric entries and the span log; the
/// flag gates both halves on import.
impl Codec for Telemetry {
    fn enc(&self, out: &mut Writer) {
        out.obj(|out| {
            put(out, "on", &self.is_enabled());
            out.key("metrics");
            list(out, self.metrics.snapshot().entries());
            out.key("spans");
            list(out, self.spans.spans());
        });
    }
    fn dec(v: &Value) -> R<Self> {
        let on = field(v, "on")?;
        Ok(Telemetry {
            metrics: MetricsRegistry::import(on, field(v, "metrics")?),
            spans: SpanLog::import(on, field(v, "spans")?),
        })
    }
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

/// The dæmon kind that handles `msg` (a component's `name()`); each kind
/// panics on the others' messages.
fn addressee(msg: &Msg) -> &'static str {
    match msg {
        Msg::Submit(_)
        | Msg::Tick
        | Msg::ReadDone { .. }
        | Msg::BcastFreed { .. }
        | Msg::FlowPoll { .. }
        | Msg::NmReport { .. }
        | Msg::Kill(_)
        | Msg::RequeueJob(_)
        | Msg::MmBeat { .. }
        | Msg::MmWatchdog
        | Msg::MmFail
        | Msg::ReplLog { .. }
        | Msg::ReplCheckpoint { .. } => "MM",
        Msg::Fragment { .. }
        | Msg::WriteDone { .. }
        | Msg::LaunchCmd { .. }
        | Msg::Strobe { .. }
        | Msg::Heartbeat { .. }
        | Msg::ForkDone { .. }
        | Msg::PlExited { .. }
        | Msg::FailNode
        | Msg::RejoinNode
        | Msg::StallNode { .. }
        | Msg::FlushReports
        | Msg::Resync { .. } => "NM",
        Msg::Fork { .. } => "PL",
    }
}

/// A message's tag as the checkpoint spells it: the text between the
/// first two quotes of its `["tag", fields…]` encoding.
fn tag(msg: &Msg) -> String {
    let mut out = Writer::default();
    msg.enc(&mut out);
    out.finish()
        .split('"')
        .nth(1)
        .unwrap_or_default()
        .to_string()
}

/// The job `msg` names, if any.
fn job_of(msg: &Msg) -> Option<JobId> {
    match *msg {
        Msg::Submit(job)
        | Msg::Kill(job)
        | Msg::RequeueJob(job)
        | Msg::ReadDone { job, .. }
        | Msg::BcastFreed { job, .. }
        | Msg::FlowPoll { job, .. }
        | Msg::NmReport { job, .. }
        | Msg::Fragment { job, .. }
        | Msg::WriteDone { job, .. }
        | Msg::LaunchCmd { job, .. }
        | Msg::ForkDone { job, .. }
        | Msg::PlExited { job, .. }
        | Msg::Fork { job, .. }
        | Msg::ReplLog {
            decision:
                Decision::Submit { job }
                | Decision::Place { job, .. }
                | Decision::Admit { job }
                | Decision::Launch { job, .. }
                | Decision::Complete { job }
                | Decision::Requeue { job, .. },
            ..
        } => Some(job),
        _ => None,
    }
}

/// The engine image must be able to run on. Its event cap may not lie
/// below the events already handled, and every pending message must
/// reach a dæmon of the kind that handles it — a unicast the MM, NM or
/// PL its variant names, a group (the MM's fan-outs) only NMs, with an
/// NM message — and name only jobs that have a record. A fragment or
/// launch fan-out of a live job's current attempt must address the NMs
/// of that job's block. A unicast to no dæmon is left to the engine
/// import, which refuses it. A dæmon's kind is read off its id (see
/// [`Wiring::daemon`](crate::world::Wiring::daemon)).
fn check_engine(engine: &EngineState<Msg>, world: &World) -> R<()> {
    if engine.max_events < engine.handled {
        return Err(format!(
            "engine.max_events: {} is below the {} events already handled",
            engine.max_events, engine.handled
        ));
    }
    let wiring = &world.wiring;
    let kind_of = |ix: u64| {
        let id = ComponentId::from_index(u32::try_from(ix).ok()?);
        Some(match wiring.daemon(id)? {
            Daemon::Mm(_) => "MM",
            Daemon::Nm(_) => "NM",
            Daemon::Pl { .. } => "PL",
        })
    };
    for (i, e) in engine.entries.iter().enumerate() {
        let (msg, group) = match &e.delivery {
            Delivery::Group(g) => {
                let wants = addressee(&g.msg);
                if wants != "NM" {
                    return Err(format!(
                        "engine.entries[{i}]: {wants} message {} in a group delivery",
                        tag(&g.msg)
                    ));
                }
                // The first member that is not an NM. A strided scan stops
                // within one step past the last component; a zero stride
                // repeats its first member.
                let stray = match g.targets {
                    GroupTargets::Strided { first, stride, len } => {
                        let n = if stride == 0 { len.min(1) } else { len };
                        (0..n)
                            .map(|r| first.index() as u64 + u64::from(stride) * u64::from(r))
                            .find(|&ix| kind_of(ix) != Some("NM"))
                    }
                    GroupTargets::List(ref ids) => ids
                        .iter()
                        .map(|id| id.index() as u64)
                        .find(|&ix| kind_of(ix) != Some("NM")),
                };
                if let Some((ix, Some(is))) = stray.map(|ix| (ix, kind_of(ix))) {
                    return Err(format!(
                        "engine.entries[{i}]: group delivery of {} reaches {is} #{ix}",
                        tag(&g.msg)
                    ));
                }
                (&g.msg, Some(&g.targets))
            }
            Delivery::One { target, msg } => {
                let Some(is) = kind_of(target.index() as u64) else {
                    continue;
                };
                let wants = addressee(msg);
                if wants != is {
                    return Err(format!(
                        "engine.entries[{i}]: {wants} message {} addressed to {is} {target}",
                        tag(msg)
                    ));
                }
                (msg, None)
            }
        };
        let Some(job) = job_of(msg) else { continue };
        let Some(rec) = world.jobs.get(job.index()) else {
            return Err(format!(
                "engine.entries[{i}]: {} message names job {}, which has no record",
                tag(msg),
                job.0
            ));
        };
        if let (Msg::Fragment { attempt, .. } | Msg::LaunchCmd { attempt, .. }, Some(targets)) =
            (msg, group)
        {
            // An older attempt's, or a finished job's: its receivers drop it.
            let current = !rec.state.is_terminal() && rec.attempt == *attempt;
            let block = rec.allocation.as_ref();
            if current && block.is_none_or(|a| *targets != wiring.nm_targets(&a.node_set())) {
                return Err(format!(
                    "engine.entries[{i}]: {} fan-out of job {} misses its block {:?}",
                    tag(msg),
                    job.0,
                    block.map(|a| &a.nodes)
                ));
            }
        }
    }
    Ok(())
}

/// The embedded config's layout sizes must match the document's own
/// tables, and job report sets name nodes of the cluster only, so a
/// corrupt size fails here rather than in an allocation [`Cluster::new`]
/// or a report-set decode cannot make. The config's own bound on the
/// dæmon count ([`ClusterConfig::validate`]) caps what `Cluster::new`
/// registers.
fn check_layout(cfg: &ClusterConfig, doc: &Value) -> R<()> {
    let len = |v: &Value| v.as_arr().map_or(0, <[Value]>::len);
    let (mms, nms) = (len(member(doc, "mms")?), len(member(doc, "nms")?));
    let matrix = member(member(doc, "world")?, "matrix")?;
    let slots = member(matrix, "slots")?.as_u64().unwrap_or(0);
    let matrix_nodes = member(matrix, "nodes")?.as_u64();
    if nms != cfg.nodes as usize
        || Some(mms) != (cfg.mm_standbys as usize).checked_add(1)
        || matrix_nodes != Some(u64::from(cfg.nodes))
        || slots > cfg.mpl_max as u64
    {
        return Err(format!(
            "config (nodes {}, mpl_max {}, mm_standbys {}) does not match the checkpoint's \
             {nms} NMs, {mms} MMs and {slots}-slot matrix",
            cfg.nodes, cfg.mpl_max, cfg.mm_standbys,
        ));
    }
    // A report set decodes to a bitmap as wide as the nodes it names, so
    // a node past the cluster is refused before one is built.
    let jobs = member(member(doc, "world")?, "jobs")?;
    for (i, job) in jobs.as_arr().unwrap_or_default().iter().enumerate() {
        for key in ["reported_started", "reported_done"] {
            let listed = job.get(key).and_then(Value::as_arr).unwrap_or_default();
            if let Some(n) =
                (listed.iter().filter_map(Value::as_u64)).find(|&n| n >= u64::from(cfg.nodes))
            {
                return Err(format!(
                    "world.jobs[{i}].{key}: node {n} is outside the {} nodes",
                    cfg.nodes
                ));
            }
        }
    }
    Ok(())
}

impl Cluster {
    /// Serialize the cluster's complete mutable state to a self-contained
    /// versioned JSON artifact (the `CKPT_*.json` format). Call between
    /// runs, never from inside a handler.
    pub fn checkpoint(&self) -> String {
        let sim = self.sim();
        let w = sim.world();
        let mut out = Writer::default();
        // Sections stream one after another, each dæmon encoded in place.
        out.obj(|out| {
            put(out, "version", &CHECKPOINT_VERSION);
            put(out, "kind", &"storm-checkpoint");
            put(out, "config", &w.cfg);
            put(out, "next_job", &self.next_job_counter());
            put(out, "engine", &sim.export_engine_state());
            out.key("world");
            w.save(out);
            put(out, "mms", &w.mm_rows);
            put(out, "nms", &w.nm_rows);
        });
        out.finish()
    }

    /// Rebuild a cluster from a [`Cluster::checkpoint`] artifact. The
    /// resumed run is byte-identical — trace, stats, telemetry snapshots,
    /// and interleaving digest — to the run the checkpoint was taken
    /// from. Rejects version mismatches, malformed documents and state
    /// that contradicts the cluster layout with an error naming the
    /// offending member.
    pub fn restore(text: &str) -> Result<Cluster, String> {
        Self::restore_doc(&parse(text)?).map_err(|e| e.trim_start_matches('.').to_string())
    }

    fn restore_doc(doc: &Value) -> R<Cluster> {
        let version: u64 = field(doc, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (this build reads version {CHECKPOINT_VERSION})"
            ));
        }
        if field::<String>(doc, "kind")? != "storm-checkpoint" {
            return Err("not a storm-checkpoint artifact".into());
        }
        let cfg: ClusterConfig = field(doc, "config")?;
        cfg.validate()
            .map_err(|e| format!("embedded config invalid: {e}"))?;
        check_layout(&cfg, doc)?;
        let engine: EngineState<Msg> = field(doc, "engine")?;
        let next_job: u32 = field(doc, "next_job")?;

        let mut cluster = Cluster::new(cfg);
        cluster.set_next_job_counter(next_job);
        let sim = cluster.sim_mut();
        let w = sim.world_mut();
        w.load(member(doc, "world")?)
            .map_err(|e| at(format_args!(".world"), e))?;
        // The matrix decoded with its slots open and empty: carve each live
        // job's block back, in job-id order.
        for (i, job) in w.jobs.iter().enumerate() {
            if let Some(a) = job.allocation.as_ref().filter(|_| !job.state.is_terminal()) {
                w.matrix
                    .restore_block(job.id, a.slot, a.nodes.clone())
                    .map_err(|e| format!("world.jobs[{i}].allocation: {e}"))?;
            }
        }
        w.check_invariants().map_err(|e| e.to_string())?;
        check_engine(&engine, sim.world())?;
        // The engine image replaces construction-time posts wholesale.
        sim.import_engine_state(engine)
            .map_err(|e| format!("engine: {e}"))?;
        // Each MM row loads at its rank and each NM row at its node
        // (`check_layout` matched the section lengths).
        let rows = |key| member(doc, key).map(|v| v.as_arr().unwrap_or_default());
        let mms = sim.world_mut().mm_rows.iter_mut();
        for (r, (row, v)) in mms.zip(rows("mms")?).enumerate() {
            *row = MmRow::dec(v).map_err(|e| at(format_args!(".mms[{r}]"), e))?;
        }
        let nms = sim.world_mut().nm_rows.iter_mut();
        for (n, (row, v)) in nms.zip(rows("nms")?).enumerate() {
            *row = NmRow::dec(v).map_err(|e| at(format_args!(".nms[{n}]"), e))?;
        }
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
        let wrong_kind =
            format!(r#"{{"version": {CHECKPOINT_VERSION}, "kind": "something-else"}}"#);
        let err = Cluster::restore(&wrong_kind).err().expect("wrong kind");
        assert!(err.contains("not a storm-checkpoint"), "got: {err}");
        // A well-formed checkpoint relabelled as an older version must be
        // refused up front, not half-decoded: version 1 still carried
        // `queue_backend`, `event_batching` and `threads`, version 2 the
        // per-NM delivery switch and the MM's collect flag, version 3
        // every RNG stream and NM state keyed by field name, version 4
        // `world.slot_jobs` and a quarantine column in the node table,
        // version 5 a `cursor` per job record and no variable free list,
        // version 6 every matrix placement, each MM's role and detected
        // set, `world.mm_failed`, an NM `failed` column and per-record
        // report counts and retries, version 7 each standby's mirror of
        // the queue, round, quarantine set, slot and tick count,
        // `world.mm_failed_at`, the MM's tick flag and last-tick instant,
        // each dæmon's rank or node and `config.fast_forward`, version 8
        // a `pls` section of PL fork counts.
        let current = Cluster::new(ClusterConfig::paper_cluster()).checkpoint();
        let key = format!("\"version\":{CHECKPOINT_VERSION}");
        assert!(current.starts_with(&format!("{{{key},")), "{current:.80}");
        for old in 1..=8 {
            let relabelled = current.replacen(&key, &format!("\"version\":{old}"), 1);
            let err = Cluster::restore(&relabelled)
                .err()
                .unwrap_or_else(|| panic!("a version-{old} artifact must be rejected"));
            assert!(
                err.contains(&format!("unsupported checkpoint version {old}")),
                "got: {err}"
            );
        }
    }

    /// One value of every enum variant the format can carry, with its
    /// rendered encoding. The fixture in `tests/checkpoint_format.rs` only
    /// reaches some of these tags; this table pins the rest.
    mod pins {
        use super::super::*;
        use crate::config::SchedulerKind;
        use crate::cq::Condition;
        use crate::fault::{FailurePolicy, FaultEvent};
        use crate::job::{JobId, JobState};
        use crate::mm::MmRow;
        use crate::msg::{Msg, ReportKind};
        use crate::replica::{Decision, MmCoreState, MmRole};
        use storm_apps::AppSpec;
        use storm_fs::FsKind;
        use storm_mech::{NodeId, NodeSet};
        use storm_net::{BufferPlacement, NetworkKind};
        use storm_sim::{
            ComponentId, DeliveryOrderState, GroupDelivery, GroupSchedule, GroupTargets,
            OrderModeState, SimSpan, SimTime,
        };
        use storm_telemetry::json::{parse, render, Value, Writer};
        use storm_telemetry::registry::HISTOGRAM_BUCKETS;
        use storm_telemetry::{Histogram, MetricValue};

        /// Bridge from a checkpointed type to its encoding, so the table
        /// below names no codec function.
        trait Pin: Sized {
            fn pin(&self) -> Value;
            fn unpin(v: &Value) -> Result<Self, String>;
        }

        impl<T: Codec> Pin for T {
            fn pin(&self) -> Value {
                let mut out = Writer::default();
                self.enc(&mut out);
                let text = out.finish();
                let value = parse(&text).expect("the encoder writes JSON");
                assert_eq!(render(&value), text, "the encoder writes compact JSON");
                value
            }
            fn unpin(v: &Value) -> Result<Self, String> {
                T::dec(v)
            }
        }

        /// `value` renders as `want` (or, with a `key`, its member `key`
        /// does), and decoding the encoding renders the same bytes again.
        fn check<T: Pin>(value: &T, key: Option<&str>, want: &str, bad: &mut Vec<String>) {
            let enc = value.pin();
            let back = T::unpin(&enc).map(|t| render(&t.pin()));
            let got = match key {
                Some(k) => enc.get(k).map(render).unwrap_or_default(),
                None => render(&enc),
            };
            if got != want || back.as_deref() != Ok(render(&enc).as_str()) {
                bad.push(format!("{want}\n   got {got}\n  back {back:?}"));
            }
        }

        #[test]
        fn every_variant_has_a_pinned_encoding() {
            let mut bad = Vec::new();
            let j = JobId(3);
            let t = SimTime::from_nanos(1_500);
            let core = MmCoreState {
                log_len: 4,
                digest: 77,
            };
            let msgs = [
                (Msg::Submit(j), r#"["submit",3]"#),
                (Msg::Tick, r#"["tick"]"#),
                (
                    Msg::ReadDone {
                        job: j,
                        chunk: 4,
                        attempt: 1,
                    },
                    r#"["read_done",3,4,1]"#,
                ),
                (
                    Msg::BcastFreed {
                        job: j,
                        chunk: 5,
                        attempt: 2,
                    },
                    r#"["bcast_freed",3,5,2]"#,
                ),
                (Msg::FlowPoll { job: j, attempt: 1 }, r#"["flow_poll",3,1]"#),
                (
                    Msg::NmReport {
                        node: 6,
                        job: j,
                        kind: ReportKind::Started,
                        attempt: 1,
                    },
                    r#"["nm_report",6,3,["started"],1]"#,
                ),
                (
                    Msg::NmReport {
                        node: 7,
                        job: j,
                        kind: ReportKind::Done { app_done: t },
                        attempt: 2,
                    },
                    r#"["nm_report",7,3,["done",1500],2]"#,
                ),
                (Msg::Kill(j), r#"["kill",3]"#),
                (Msg::RequeueJob(j), r#"["requeue_job",3]"#),
                (
                    Msg::Fragment {
                        job: j,
                        chunk: 8,
                        attempt: 1,
                    },
                    r#"["fragment",3,8,1]"#,
                ),
                (
                    Msg::WriteDone {
                        job: j,
                        chunk: 9,
                        attempt: 1,
                    },
                    r#"["write_done",3,9,1]"#,
                ),
                (
                    Msg::LaunchCmd { job: j, attempt: 2 },
                    r#"["launch_cmd",3,2]"#,
                ),
                (Msg::Strobe { slot: 1, epoch: 4 }, r#"["strobe",1,4]"#),
                (
                    Msg::Heartbeat {
                        round: -2,
                        epoch: 5,
                    },
                    r#"["heartbeat",-2,5]"#,
                ),
                (
                    Msg::ForkDone {
                        job: j,
                        pl: 10,
                        attempt: 1,
                    },
                    r#"["fork_done",3,10,1]"#,
                ),
                (
                    Msg::PlExited {
                        job: j,
                        pl: 11,
                        attempt: 1,
                    },
                    r#"["pl_exited",3,11,1]"#,
                ),
                (Msg::FailNode, r#"["fail_node"]"#),
                (Msg::RejoinNode, r#"["rejoin_node"]"#),
                (Msg::StallNode { until: t }, r#"["stall_node",1500]"#),
                (Msg::FlushReports, r#"["flush_reports"]"#),
                (Msg::Resync { epoch: 12 }, r#"["resync",12]"#),
                (Msg::MmBeat { epoch: 1 }, r#"["mm_beat",1]"#),
                (Msg::MmWatchdog, r#"["mm_watchdog"]"#),
                (Msg::MmFail, r#"["mm_fail"]"#),
                (
                    Msg::ReplLog {
                        epoch: 1,
                        seq: 13,
                        decision: Decision::Admit { job: j },
                    },
                    r#"["repl_log",1,13,["admit",3]]"#,
                ),
                (
                    Msg::ReplCheckpoint {
                        epoch: 2,
                        state: core,
                    },
                    r#"["repl_checkpoint",2,{"log_len":4,"digest":77}]"#,
                ),
                (Msg::Fork { job: j, attempt: 1 }, r#"["fork",3,1]"#),
            ];
            for (m, want) in &msgs {
                check(m, None, want, &mut bad);
            }

            let decisions = [
                (Decision::Submit { job: j }, r#"["submit",3]"#),
                (Decision::Place { job: j, slot: 1 }, r#"["place",3,1]"#),
                (Decision::Admit { job: j }, r#"["admit",3]"#),
                (Decision::Launch { job: j, attempt: 2 }, r#"["launch",3,2]"#),
                (Decision::Complete { job: j }, r#"["complete",3]"#),
                (Decision::Requeue { job: j, retry: 1 }, r#"["requeue",3,1]"#),
                (Decision::Quarantine { node: 4 }, r#"["quarantine",4]"#),
                (Decision::Rejoin { node: 5 }, r#"["rejoin",5]"#),
                (Decision::Round { round: -3 }, r#"["round",-3]"#),
                (Decision::Slot { slot: 6 }, r#"["slot",6]"#),
            ];
            for (d, want) in &decisions {
                check(d, None, want, &mut bad);
            }

            let faults = [
                (FaultEvent::Crash { at: t, node: 1 }, r#"["crash",1500,1]"#),
                (
                    FaultEvent::Rejoin { at: t, node: 2 },
                    r#"["rejoin",1500,2]"#,
                ),
                (
                    FaultEvent::Stall {
                        node: 3,
                        from: t,
                        until: SimTime::from_nanos(2_000),
                    },
                    r#"["stall",3,1500,2000]"#,
                ),
                (
                    FaultEvent::MmCrash { at: t, rank: 1 },
                    r#"["mm_crash",1500,1]"#,
                ),
            ];
            for (f, want) in &faults {
                check(f, None, want, &mut bad);
            }

            let policies = [
                (FailurePolicy::Fail, r#"["fail"]"#),
                (
                    FailurePolicy::Requeue {
                        max_retries: 3,
                        backoff: SimSpan::from_nanos(5_000),
                    },
                    r#"["requeue",3,5000]"#,
                ),
                (FailurePolicy::Shrink, r#"["shrink"]"#),
            ];
            for (p, want) in &policies {
                check(p, None, want, &mut bad);
            }

            let apps = [
                (
                    AppSpec::DoNothing { binary_bytes: 4096 },
                    r#"["do_nothing",4096]"#,
                ),
                (
                    AppSpec::Sweep3d {
                        iterations: 2,
                        compute_per_iter: SimSpan::from_nanos(700),
                        comm_bytes_per_iter: 64,
                    },
                    r#"["sweep3d",2,700,64]"#,
                ),
                (
                    AppSpec::Synthetic {
                        compute: SimSpan::from_nanos(800),
                    },
                    r#"["synthetic",800]"#,
                ),
                (AppSpec::SpinLoop, r#"["spin_loop"]"#),
                (AppSpec::NetLoad { msg_bytes: 128 }, r#"["net_load",128]"#),
            ];
            for (a, want) in &apps {
                check(a, None, want, &mut bad);
            }

            let sets = [
                (NodeSet::All(8), r#"["all",8]"#),
                (NodeSet::Range { start: 2, len: 3 }, r#"["range",2,3]"#),
                (
                    NodeSet::List(vec![NodeId(1), NodeId(4)]),
                    r#"["list",[1,4]]"#,
                ),
            ];
            for (s, want) in &sets {
                check(s, None, want, &mut bad);
            }

            let groups = [
                (
                    GroupDelivery {
                        targets: GroupTargets::Strided {
                            first: ComponentId::from_index(5),
                            stride: 9,
                            len: 4,
                        },
                        schedule: GroupSchedule::Simultaneous,
                        base: t,
                        floor: SimTime::from_nanos(1_000),
                        base_seq: 12,
                        cursor: 1,
                        msg: Msg::Tick,
                    },
                    r#"{"targets":["strided",5,9,4],"schedule":["simultaneous"],"base":1500,"floor":1000,"base_seq":12,"cursor":1,"msg":["tick"]}"#,
                ),
                (
                    GroupDelivery {
                        targets: GroupTargets::List(
                            [2, 7].map(ComponentId::from_index).to_vec().into(),
                        ),
                        schedule: GroupSchedule::FanoutTree {
                            per_hop: SimSpan::from_nanos(300),
                            fanout: 4,
                        },
                        base: t,
                        floor: t,
                        base_seq: 13,
                        cursor: 0,
                        msg: Msg::Heartbeat { round: 1, epoch: 0 },
                    },
                    r#"{"targets":["list",[2,7]],"schedule":["fanout_tree",300,4],"base":1500,"floor":1500,"base_seq":13,"cursor":0,"msg":["heartbeat",1,0]}"#,
                ),
            ];
            for (g, want) in &groups {
                check(g, None, want, &mut bad);
            }

            let orders = [
                (
                    DeliveryOrderState {
                        mode: OrderModeState::Seeded {
                            state: 5,
                            amplitude: 3,
                        },
                        max_delay: SimSpan::from_nanos(20_000),
                        draws: 4,
                    },
                    r#"{"mode":["seeded",5,3],"max_delay":20000,"draws":4}"#,
                ),
                (
                    DeliveryOrderState {
                        mode: OrderModeState::Script(vec![2, 0, 1]),
                        max_delay: SimSpan::ZERO,
                        draws: 0,
                    },
                    r#"{"mode":["script",[2,0,1]],"max_delay":0,"draws":0}"#,
                ),
            ];
            for (o, want) in &orders {
                check(o, None, want, &mut bad);
            }

            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            buckets[1] = 1;
            buckets[3] = 1;
            let metrics = [
                (MetricValue::Counter(5), r#"["counter",5]"#.to_string()),
                (MetricValue::Gauge(-2), r#"["gauge",-2]"#.to_string()),
                (
                    MetricValue::Histogram(Box::new(Histogram::from_parts(buckets, 2, 5, 1, 4))),
                    format!(
                        r#"["histogram",[0,1,0,1{}],2,5,1,4]"#,
                        ",0".repeat(HISTOGRAM_BUCKETS - 4)
                    ),
                ),
            ];
            for (m, want) in &metrics {
                check(m, None, want, &mut bad);
            }

            let conditions = [
                (Condition::QuarantinedAbove(1), r#"["quarantined_above",1]"#),
                (Condition::QueueDepthAbove(2), r#"["queue_depth_above",2]"#),
                (
                    Condition::QueueDepthGrowingFor(3),
                    r#"["queue_depth_growing_for",3]"#,
                ),
                (
                    Condition::FailedNodesAbove(4),
                    r#"["failed_nodes_above",4]"#,
                ),
                (
                    Condition::RunningJobsAbove(5),
                    r#"["running_jobs_above",5]"#,
                ),
                (Condition::AliveNodesBelow(6), r#"["alive_nodes_below",6]"#),
            ];
            for (c, want) in &conditions {
                check(c, None, want, &mut bad);
            }

            let states = [
                (JobState::Queued, r#""queued""#),
                (JobState::Transferring, r#""transferring""#),
                (JobState::Launching, r#""launching""#),
                (JobState::Running, r#""running""#),
                (JobState::Completed, r#""completed""#),
                (JobState::Killed, r#""killed""#),
                (JobState::Failed, r#""failed""#),
            ];
            for (s, want) in &states {
                check(s, None, want, &mut bad);
            }

            // A name that needs every escape the writer makes: a quote, a
            // backslash, a newline and a control character; non-ASCII text
            // is written as it is.
            let named = JobSpec::new(AppSpec::SpinLoop, 2)
                .named("a\"b\\c\nd\u{1}é")
                .with_ranks_per_node(1);
            check(
                &named,
                None,
                r#"{"name":"a\"b\\c\nd\u0001é","app":["spin_loop"],"ranks":2,"max_ranks_per_node":1,"runtime_estimate":null}"#,
                &mut bad,
            );
            assert_eq!(JobSpec::unpin(&named.pin()).map(|j| j.name), Ok(named.name));

            // An MM row is its fields by name; its rank is its index.
            let mm = MmRow {
                pending_reports: vec![(1, JobId(2), 3, ReportKind::Started)],
                ticks: 4,
                next_tick: Some(SimTime::from_nanos(5)),
                epoch: 6,
                last_beat_seen: Some(SimTime::from_nanos(7)),
                beats_sent: 8,
            };
            check(
                &mm,
                None,
                r#"{"pending_reports":[[1,2,3,["started"]]],"ticks":4,"next_tick":5,"epoch":6,"last_beat_seen":7,"beats_sent":8}"#,
                &mut bad,
            );
            let roles = [
                (MmRole::Active, r#"["active"]"#),
                (MmRole::Standby, r#"["standby"]"#),
                (MmRole::Failed { at: t }, r#"["failed",1500]"#),
            ];
            for (r, want) in &roles {
                check(r, None, want, &mut bad);
            }

            let base = ClusterConfig::paper_cluster();
            let names = [
                (
                    "fs",
                    ClusterConfig {
                        fs: FsKind::RamDisk,
                        ..base.clone()
                    },
                    r#""ram_disk""#,
                ),
                (
                    "fs",
                    ClusterConfig {
                        fs: FsKind::LocalExt2,
                        ..base.clone()
                    },
                    r#""local_ext2""#,
                ),
                (
                    "fs",
                    ClusterConfig {
                        fs: FsKind::Nfs,
                        ..base.clone()
                    },
                    r#""nfs""#,
                ),
                (
                    "placement",
                    ClusterConfig {
                        placement: BufferPlacement::MainMemory,
                        ..base.clone()
                    },
                    r#""main_memory""#,
                ),
                (
                    "placement",
                    ClusterConfig {
                        placement: BufferPlacement::NicMemory,
                        ..base.clone()
                    },
                    r#""nic_memory""#,
                ),
                (
                    "network",
                    ClusterConfig {
                        network: NetworkKind::QsNet,
                        ..base.clone()
                    },
                    r#""qsnet""#,
                ),
                (
                    "network",
                    ClusterConfig {
                        network: NetworkKind::GigabitEthernet,
                        ..base.clone()
                    },
                    r#""gigabit_ethernet""#,
                ),
                (
                    "network",
                    ClusterConfig {
                        network: NetworkKind::Myrinet,
                        ..base.clone()
                    },
                    r#""myrinet""#,
                ),
                (
                    "network",
                    ClusterConfig {
                        network: NetworkKind::Infiniband,
                        ..base.clone()
                    },
                    r#""infiniband""#,
                ),
                (
                    "network",
                    ClusterConfig {
                        network: NetworkKind::BlueGeneL,
                        ..base.clone()
                    },
                    r#""bluegene_l""#,
                ),
                (
                    "scheduler",
                    ClusterConfig {
                        scheduler: SchedulerKind::Gang,
                        ..base.clone()
                    },
                    r#""gang""#,
                ),
                (
                    "scheduler",
                    ClusterConfig {
                        scheduler: SchedulerKind::Batch,
                        ..base.clone()
                    },
                    r#""batch""#,
                ),
                (
                    "scheduler",
                    ClusterConfig {
                        scheduler: SchedulerKind::Backfill,
                        ..base.clone()
                    },
                    r#""backfill""#,
                ),
                (
                    "scheduler",
                    ClusterConfig {
                        scheduler: SchedulerKind::ImplicitCosched,
                        ..base.clone()
                    },
                    r#""implicit_cosched""#,
                ),
            ];
            for (key, cfg, want) in &names {
                check(cfg, Some(key), want, &mut bad);
            }

            assert!(bad.is_empty(), "encodings drifted:\n{}", bad.join("\n"));
        }
    }
}
