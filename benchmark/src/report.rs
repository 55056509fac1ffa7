//! Turning leg outcomes into checks, end-to-end metrics and per-layer
//! metrics.

use crate::digest::combine;
use crate::inputs::{Plan, Workload};
use crate::run::{mean, Counts, LegOutcome};
use crate::shadow::POLICIES;
use crate::spans::{self_times, Spans};
use std::fmt::Write as _;

/// Fig. 2: a 12 MB launch on 256 PEs takes ≈ 110 ms.
pub const PAPER_LAUNCH_MS: f64 = 110.0;
/// §3.2: SWEEP3D runs ≈ 49 s per MPL on the gang cluster.
pub const PAPER_SWEEP3D_S: f64 = 49.0;

/// One repetition of a workload: every leg, in order.
#[derive(Debug, Clone)]
pub struct Rep {
    pub legs: Vec<LegOutcome>,
}

impl Rep {
    fn measured(&self) -> impl Iterator<Item = &LegOutcome> {
        self.legs.iter().filter(|l| l.measured)
    }

    /// Host seconds building clusters and submitting jobs.
    pub fn setup_s(&self) -> f64 {
        self.measured().map(|l| l.setup_s).sum()
    }

    /// Host seconds per simulated second over the measured legs' runs.
    pub fn wall_per_sim_s(&self) -> f64 {
        let run: f64 = self.measured().map(|l| l.run_s).sum();
        let sim: f64 = self.measured().map(|l| l.sim_s).sum();
        run / sim.max(1e-9)
    }

    /// Host seconds in `Cluster::checkpoint` over the measured legs.
    pub fn checkpoint_s(&self) -> f64 {
        self.measured().map(|l| l.checkpoint_s).sum()
    }

    /// Host seconds in `Cluster::restore`.
    pub fn restore_s(&self) -> f64 {
        self.legs
            .iter()
            .filter_map(|l| l.restore.as_ref())
            .map(|r| r.restore_s)
            .sum()
    }

    /// Bytes of the restored checkpoints.
    pub fn restore_bytes(&self) -> usize {
        self.legs
            .iter()
            .filter_map(|l| l.restore.as_ref())
            .map(|r| r.bytes)
            .sum()
    }

    /// The workload's `sim_digest`: every leg's final-checkpoint digest.
    pub fn digest(&self) -> u64 {
        combine(&self.legs.iter().map(|l| l.digest).collect::<Vec<_>>())
    }

    /// Jobs submitted over all legs.
    pub fn jobs(&self) -> usize {
        self.legs.iter().map(|l| l.jobs).sum()
    }

    /// Jobs not terminal at their leg's horizon.
    pub fn lost(&self) -> usize {
        self.legs.iter().map(|l| l.lost).sum()
    }

    /// Per-leg comparable counts.
    pub fn counts(&self) -> Vec<Counts> {
        self.legs.iter().map(|l| l.counts.comparable()).collect()
    }

    /// Sum of a count over the measured legs.
    fn sum(&self, f: impl Fn(&Counts) -> u64) -> u64 {
        self.measured().map(|l| f(&l.counts)).sum()
    }

    /// Max of a count over the measured legs.
    fn max(&self, f: impl Fn(&Counts) -> u64) -> u64 {
        self.measured().map(|l| f(&l.counts)).max().unwrap_or(0)
    }
}

/// The paper-shape and checkpoint-identity checks of one repetition, as
/// `(description, passed)`.
pub fn checks(plan: &Plan, rep: &Rep) -> Vec<(String, bool)> {
    let mut out = Vec::new();
    for l in &rep.legs {
        if let Some(r) = &l.restore {
            out.push((
                format!(
                    "{}: checkpoint->restore->resume is byte-identical{}",
                    l.label,
                    r.error
                        .as_deref()
                        .map(|e| format!(" (error: {e})"))
                        .unwrap_or_default()
                ),
                r.error.is_none() && r.identical,
            ));
        }
    }
    match plan.workload {
        Workload::LaunchStream => {
            let ms = rep.legs[0].mean_launch_ms;
            out.push((
                format!("mean 12 MB/256 PE launch {ms:.1} ms within Fig. 2's 110 +/- 15 ms"),
                (ms - PAPER_LAUNCH_MS).abs() <= 15.0,
            ));
        }
        Workload::GangHb16k => {
            let big = rep.legs[0].sim_s / 2.0;
            let small = rep.legs[1].sim_s / 2.0;
            out.push((
                format!("SWEEP3D {big:.2} s per MPL at 16384 nodes within 49 +/- 3 s"),
                (big - PAPER_SWEEP3D_S).abs() <= 3.0,
            ));
            out.push((
                format!("SWEEP3D flat: {big:.2} s at 16384 nodes vs {small:.2} s at 1024"),
                small > 0.0 && ((big - small) / small).abs() < 0.10,
            ));
        }
        Workload::TracePolicies => {
            let fcfs = rep.legs[0].mean_wait_s;
            let easy = rep.legs[1].mean_wait_s;
            out.push((
                format!("EASY mean wait {easy:.1} s below FCFS {fcfs:.1} s"),
                easy < fcfs,
            ));
        }
        Workload::FailoverCkpt => {
            let c = &rep.legs[0].counts;
            out.push((
                format!("a standby took over ({} promotions)", c.promotions),
                c.promotions >= 1,
            ));
            out.push((
                format!("node faults were detected ({} detections)", c.detections),
                c.detections >= 1,
            ));
        }
    }
    out
}

/// The workload's paper anchor, as `(label, |simulated − paper| / paper in
/// %)`, where the paper states one.
pub fn model_error_pct(plan: &Plan, rep: &Rep) -> Option<(&'static str, f64)> {
    match plan.workload {
        Workload::LaunchStream => Some((
            "12 MB/256 PE launch vs Fig. 2's 110 ms",
            (rep.legs[0].mean_launch_ms - PAPER_LAUNCH_MS).abs() / PAPER_LAUNCH_MS * 100.0,
        )),
        Workload::GangHb16k => Some((
            "SWEEP3D runtime per MPL vs 49 s",
            (rep.legs[0].sim_s / 2.0 - PAPER_SWEEP3D_S).abs() / PAPER_SWEEP3D_S * 100.0,
        )),
        _ => None,
    }
}

/// Median (the mean of the two middle values for an even count). NaN for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v` (0 for an empty slice).
pub fn percentile(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric value: a measured real or an exact count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// A measured quantity.
    Real(f64),
    /// An exact count.
    Count(u64),
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: Num,
    pub unit: &'static str,
}

fn real(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: Num::Real(value),
        unit,
    }
}

fn count(name: impl Into<String>, value: u64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: Num::Count(value),
        unit,
    }
}

/// The end-to-end metrics over untraced repetitions, with `setup_samples`
/// the set-up times measured in this run.
pub fn end_to_end(reps: &[Rep], setup_samples: &[f64]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    vec![
        real("wall_per_sim_s", med(&|r| r.wall_per_sim_s()), "s/s"),
        real("setup_s", median(setup_samples), "s"),
        real("peak_rss_mb", peak_rss_mb(), "MB"),
        real("checkpoint_s", med(&|r| r.checkpoint_s()), "s"),
        real("restore_s", med(&|r| r.restore_s()), "s"),
        real("checkpoint_mb", reps[0].restore_bytes() as f64 / 1e6, "MB"),
    ]
}

/// Standalone probe results of one traced repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    pub queue_hold_ns: f64,
    pub xfer_ns: f64,
    pub caw_ns: f64,
    pub matrix_ns: f64,
}

/// One untraced/traced pair.
pub struct Pair {
    pub untraced: Rep,
    pub traced: Rep,
    pub probes: Probes,
    pub spans: Spans,
}

/// Span names that are harness structure rather than a layer.
pub const STRUCTURAL: [&str; 3] = ["rep", "leg", "run"];

/// Layer self times (ms) of one traced repetition, plus the structural
/// remainder under `harness`.
pub fn layer_self_ms(spans: &Spans) -> Vec<(String, f64)> {
    let mut harness = 0.0;
    let mut out = Vec::new();
    for (name, ns) in self_times(spans.spans()) {
        let ms = ns as f64 / 1e6;
        if STRUCTURAL.contains(&name) {
            harness += ms;
        } else {
            out.push((name.to_string(), ms));
        }
    }
    out.push(("harness".to_string(), harness));
    out
}

/// Share (%) of the traced repetition's wall time that layer spans account
/// for as self time.
pub fn span_coverage_pct(spans: &Spans) -> f64 {
    let Some(root) = spans.spans().first() else {
        return 0.0;
    };
    let layers: u64 = self_times(spans.spans())
        .into_iter()
        .filter(|(n, _)| !STRUCTURAL.contains(n))
        .map(|(_, ns)| ns)
        .sum();
    layers as f64 / root.duration_ns().max(1) as f64 * 100.0
}

/// Geometric-mean growth of per-slice host cost: the mean slice in the
/// last tenth of each measured leg over the mean in its first tenth.
pub fn slice_growth(rep: &Rep) -> f64 {
    let mut logs = Vec::new();
    for l in rep.measured() {
        let n = l.slices_ns.len();
        let tenth = n / 10;
        if tenth == 0 {
            continue;
        }
        let avg = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
        let first = avg(&l.slices_ns[..tenth]);
        let last = avg(&l.slices_ns[n - tenth..]);
        if first > 0.0 && last > 0.0 {
            logs.push((last / first).ln());
        }
    }
    mean(&logs).exp()
}

/// The per-layer metrics over traced repetitions (timings are medians over
/// pairs; counts come from the first pair and repeat exactly).
pub fn per_layer(pairs: &[Pair]) -> Vec<Metric> {
    let first = &pairs[0];
    let t = &first.traced;
    let u = &first.untraced;
    let med = |f: &dyn Fn(&Pair) -> f64| median(&pairs.iter().map(f).collect::<Vec<_>>());
    let engine_ns = |p: &Pair| -> f64 {
        p.traced
            .measured()
            .map(|l| l.slices_ns.iter().sum::<u64>() as f64)
            .sum()
    };
    let handled = t.sum(|c| c.handled);
    let mut m = vec![
        count("engine.handlers", handled, "count"),
        count("engine.events", t.sum(|c| c.events), "count"),
        real(
            "engine.ns_per_handler",
            med(&|p| engine_ns(p) / handled.max(1) as f64),
            "ns",
        ),
        real(
            "engine.handlers_per_s",
            med(&|p| handled as f64 / (engine_ns(p) / 1e9).max(1e-12)),
            "1/s",
        ),
    ];
    let slices = |p: &Pair| -> Vec<u64> {
        p.traced
            .measured()
            .flat_map(|l| l.slices_ns.iter().copied())
            .collect()
    };
    for (q, name) in [(50.0, "engine.slice_us.p50"), (99.0, "engine.slice_us.p99")] {
        m.push(real(
            name,
            med(&|p| percentile(&slices(p), q) as f64 / 1e3),
            "us",
        ));
    }
    m.push(real(
        "engine.slice_growth",
        med(&|p| slice_growth(&p.traced)),
        "ratio",
    ));
    m.extend([
        count("queue.pushed", t.sum(|c| c.queue_pushed), "count"),
        count("queue.peak", t.max(|c| c.queue_peak), "count"),
        real("queue.hold_ns", med(&|p| p.probes.queue_hold_ns), "ns"),
        count("arena.peak", t.max(|c| c.arena_peak), "count"),
        count(
            "arena.payload_bytes",
            t.max(|c| c.arena_payload_bytes),
            "bytes",
        ),
        count("sim.leaps", u.sum(|c| c.leaps), "count"),
        count("sim.leaped_slices", u.sum(|c| c.leaped_slices), "count"),
        count("mm.ticks", t.measured().map(|l| l.mm_ticks).sum(), "count"),
        count("mm.strobes", t.sum(|c| c.strobes), "count"),
        count("nm.fragments", t.sum(|c| c.fragments), "count"),
        count("nm.reports", t.sum(|c| c.reports), "count"),
        count("nm.flow_stalls", t.sum(|c| c.flow_stalls), "count"),
        count("nm.overruns", t.sum(|c| c.overruns), "count"),
        real("mech.xfer_ns", med(&|p| p.probes.xfer_ns), "ns"),
        real("mech.caw_ns", med(&|p| p.probes.caw_ns), "ns"),
        count("mech.caw_drops", t.sum(|c| c.caw_drops), "count"),
        count("mech.xfer_retries", t.sum(|c| c.xfer_retries), "count"),
        count("mech.hb_drops", t.sum(|c| c.hb_drops), "count"),
    ]);
    for q in [50.0, 99.0] {
        for (i, (key, _)) in POLICIES.iter().enumerate() {
            m.push(real(
                format!("policy.select_us.p{q}.{key}"),
                med(&|p| {
                    let v: Vec<u64> = p
                        .traced
                        .measured()
                        .flat_map(|l| l.shadow.select_ns[i].iter().copied())
                        .collect();
                    percentile(&v, q) as f64 / 1e3
                }),
                "us",
            ));
        }
    }
    let calls: u64 = t.measured().map(|l| l.shadow.calls).sum();
    let mm_calls: u64 = t.measured().map(|l| l.shadow.mm_calls).sum();
    let starts: u64 = t.measured().map(|l| l.shadow.mm_starts).sum();
    m.extend([
        count("policy.calls", calls, "count"),
        count(
            "policy.queue_depth.peak",
            t.measured().map(|l| l.shadow.depth_peak).max().unwrap_or(0),
            "count",
        ),
        real(
            "policy.start_ratio",
            starts as f64 / mm_calls.max(1) as f64,
            "ratio",
        ),
        real("matrix.place_remove_ns", med(&|p| p.probes.matrix_ns), "ns"),
        count("fault.detections", t.sum(|c| c.detections), "count"),
        count("fault.requeues", t.sum(|c| c.requeues), "count"),
        count("replica.promotions", t.sum(|c| c.promotions), "count"),
        count("replica.log_len", t.sum(|c| c.log_len), "count"),
        real(
            "failover.detection_us",
            t.measured().map(|l| l.failover_detection_us).sum(),
            "sim_us",
        ),
    ]);
    let restores = |p: &Pair| -> (f64, f64, usize) {
        p.traced
            .legs
            .iter()
            .filter_map(|l| l.restore.as_ref())
            .fold((0.0, 0.0, 0), |(r, s, b), x| {
                (r + x.restore_s, s + x.parse_s.unwrap_or(0.0), b + x.bytes)
            })
    };
    let bytes = restores(first).2;
    m.extend([
        real(
            "checkpoint.encode_ms",
            med(&|p| p.traced.checkpoint_s() * 1e3),
            "ms",
        ),
        real(
            "checkpoint.decode_ms",
            med(&|p| {
                let (r, s, _) = restores(p);
                (r - s) * 1e3
            }),
            "ms",
        ),
        count("checkpoint.bytes", bytes as u64, "bytes"),
        real("json.parse_ms", med(&|p| restores(p).1 * 1e3), "ms"),
        real(
            "json.parse_ns_per_byte",
            med(&|p| restores(p).1 * 1e9 / bytes.max(1) as f64),
            "ns/byte",
        ),
        real(
            "telemetry.overhead_pct",
            med(&|p| {
                let traced = engine_ns(p) / 1e9;
                let untraced: f64 = p.untraced.measured().map(|l| l.run_s).sum();
                (traced / untraced.max(1e-12) - 1.0) * 100.0
            }),
            "pct",
        ),
        real(
            "query.jobs_ms",
            med(&|p| p.traced.measured().map(|l| l.query_s).sum::<f64>() * 1e3),
            "ms",
        ),
    ]);
    let names: Vec<String> = layer_self_ms(&first.spans)
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    for name in names {
        m.push(real(
            format!("self_ms.{name}"),
            med(&|p| {
                layer_self_ms(&p.spans)
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| v)
            }),
            "ms",
        ));
    }
    m.push(real(
        "spans.coverage_pct",
        med(&|p| span_coverage_pct(&p.spans)),
        "pct",
    ));
    m
}

/// Render the result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = match m.value {
            Num::Real(x) if x.is_finite() => format!("{x:?}"),
            Num::Real(_) => "null".to_string(),
            Num::Count(n) => n.to_string(),
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
