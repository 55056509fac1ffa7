//! Running a workload's legs, untraced (one `run_until` per checkpoint
//! instant, telemetry off) or traced (one `run_until` span per timeslice,
//! shadow policy calls, telemetry on), and collecting what both report.

use crate::digest::sim_digest;
use crate::inputs::Leg;
use crate::shadow::{self, POLICIES};
use crate::spans::Spans;
use std::time::Instant;
use storm::core::prelude::*;

/// Shadow calls per leg at most; boundaries are sampled at a fixed
/// stride to stay under it.
pub const SHADOW_SAMPLES: u64 = 2000;

/// Count-valued observations of one leg.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub handled: u64,
    pub events: u64,
    pub queue_pushed: u64,
    pub queue_peak: u64,
    pub arena_peak: u64,
    pub arena_payload_bytes: u64,
    pub leaps: u64,
    pub leaped_slices: u64,
    pub strobes: u64,
    pub fragments: u64,
    pub reports: u64,
    pub flow_stalls: u64,
    pub overruns: u64,
    pub caw_drops: u64,
    pub xfer_retries: u64,
    pub hb_drops: u64,
    pub detections: u64,
    pub requeues: u64,
    pub promotions: u64,
    pub log_len: u64,
}

impl Counts {
    fn of(c: &Cluster) -> Counts {
        let w = c.world();
        let q = c.queue_stats();
        let a = c.arena_stats();
        let (leaps, leaped_slices) = c.leap_stats();
        Counts {
            handled: c.messages_handled(),
            events: c.events_delivered(),
            queue_pushed: q.pushed,
            queue_peak: q.peak as u64,
            arena_peak: a.peak as u64,
            arena_payload_bytes: a.payload_bytes as u64,
            leaps,
            leaped_slices,
            strobes: w.stats.strobes,
            fragments: w.stats.fragments,
            reports: w.stats.reports,
            flow_stalls: w.stats.flow_stalls,
            overruns: w.stats.nm_overruns,
            caw_drops: w.stats.caw_drops,
            xfer_retries: w.stats.xfer_retries,
            hb_drops: w.stats.hb_drops,
            detections: w.stats.failures_detected.len() as u64,
            requeues: w.stats.requeues,
            promotions: w.repl.promotions,
            log_len: w.mm_core.log_len,
        }
    }

    /// The counts a traced run must reproduce exactly: everything except
    /// the idle-leap counter, which stepping legitimately changes.
    pub fn comparable(&self) -> Counts {
        Counts {
            leaps: 0,
            ..self.clone()
        }
    }
}

/// The checkpoint→restore→resume cycle of a leg.
#[derive(Debug, Clone)]
pub struct RestoreOutcome {
    /// Host seconds in `Cluster::restore`.
    pub restore_s: f64,
    /// Host seconds to parse the same text alone (traced runs only).
    pub parse_s: Option<f64>,
    /// Size of the restored checkpoint.
    pub bytes: usize,
    /// Restore error, if any.
    pub error: Option<String>,
    /// Whether the resumed run ended with the uninterrupted run's digest.
    pub identical: bool,
}

/// Shadow policy-call observations of a traced leg.
#[derive(Debug, Clone, Default)]
pub struct ShadowStats {
    /// Host ns per shadow call, per entry of [`POLICIES`].
    pub select_ns: [Vec<u64>; 3],
    /// Boundaries shadowed.
    pub calls: u64,
    /// Boundaries at which the MM's own policy step had a non-empty queue
    /// (a job started there, or some stayed queued).
    pub mm_calls: u64,
    /// Jobs the MM's policy started at those boundaries.
    pub mm_starts: u64,
    /// Deepest queue seen at any boundary.
    pub depth_peak: u64,
}

/// Everything one leg run reports.
#[derive(Debug, Clone)]
pub struct LegOutcome {
    pub label: &'static str,
    pub measured: bool,
    pub nodes: u32,
    pub setup_s: f64,
    pub run_s: f64,
    /// Simulated makespan: the last job completion.
    pub sim_s: f64,
    pub checkpoint_s: f64,
    pub digest: u64,
    pub jobs: usize,
    pub lost: usize,
    pub counts: Counts,
    pub restore: Option<RestoreOutcome>,
    /// Mean launch time of the do-nothing jobs (Fig. 2's measure), ms.
    pub mean_launch_ms: f64,
    /// Mean arrival-to-start wait, s.
    pub mean_wait_s: f64,
    /// Telemetry `mm.ticks` (traced runs only).
    pub mm_ticks: u64,
    /// Mean simulated failover detection latency from telemetry (traced
    /// runs only), µs.
    pub failover_detection_us: f64,
    /// Host ns per timeslice (traced runs only).
    pub slices_ns: Vec<u64>,
    pub shadow: ShadowStats,
    /// Host seconds in `query::jobs` at the end (traced runs only).
    pub query_s: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn shadow_boundary(cluster: &Cluster, spans: &mut Spans, stats: &mut ShadowStats) {
    spans.open("policy");
    let snap = shadow::snapshot(cluster);
    for (i, &(_, kind)) in POLICIES.iter().enumerate() {
        let t = Instant::now();
        let starts = shadow::select(kind, &snap);
        stats.select_ns[i].push(t.elapsed().as_nanos() as u64);
        std::hint::black_box(starts);
    }
    stats.calls += 1;
    spans.close();
}

/// Record the MM's own policy step at boundary `b`: the jobs whose
/// transfer began there, and whether the queue was non-empty.
fn observe_boundary(cluster: &Cluster, b: SimTime, stats: &mut ShadowStats) {
    let w = cluster.world();
    let depth = w.queue.len() as u64;
    let starts = w
        .jobs
        .iter()
        .filter(|j| j.metrics.transfer_start == Some(b))
        .count() as u64;
    stats.depth_peak = stats.depth_peak.max(depth);
    if starts > 0 || depth > 0 {
        stats.mm_calls += 1;
        stats.mm_starts += starts;
    }
}

/// Build a leg's cluster and submit its jobs.
pub fn setup(leg: &Leg, telemetry: bool) -> (Cluster, Vec<JobId>) {
    let mut cluster = Cluster::new(leg.cfg.clone().with_telemetry(telemetry));
    let ids = leg
        .jobs
        .iter()
        .map(|(at, spec)| cluster.submit_at(*at, spec.clone()))
        .collect();
    (cluster, ids)
}

/// Run one leg. `spans.enabled()` selects the traced mode.
pub fn run_leg(leg: &Leg, spans: &mut Spans) -> LegOutcome {
    let traced = spans.enabled();
    spans.open("leg");

    spans.open("setup");
    let t = Instant::now();
    let (mut cluster, ids) = setup(leg, traced);
    let setup_s = secs(t);
    spans.close();

    let instants = leg.checkpoint_instants();
    let mut checkpoint_s = 0.0;
    let mut run_s = 0.0;
    let mut kept: Option<String> = None;
    let mut slices_ns = Vec::new();
    let mut shadow_stats = ShadowStats::default();
    spans.open("run");
    if traced {
        let period = leg.cfg.collect_period();
        let total = leg.horizon.as_nanos() / period.as_nanos();
        let stride = total.div_ceil(SHADOW_SAMPLES).max(1);
        let mut next_ckpt = instants.iter().peekable();
        let mut k = 0u64;
        let mut b = SimTime::ZERO;
        while b < leg.horizon {
            b = (b + period).min(leg.horizon);
            k += 1;
            spans.open("engine");
            let t = Instant::now();
            cluster.run_until(b);
            run_s += secs(t);
            slices_ns.push(spans.close());
            if next_ckpt.peek().is_some_and(|&&at| at == b) {
                next_ckpt.next();
                spans.open("checkpoint");
                let t = Instant::now();
                let text = cluster.checkpoint();
                checkpoint_s += secs(t);
                spans.close();
                if leg.restore_at == Some(b) {
                    kept = Some(text);
                }
            }
            observe_boundary(&cluster, b, &mut shadow_stats);
            if k.is_multiple_of(stride) {
                shadow_boundary(&cluster, spans, &mut shadow_stats);
            }
            // A leg without heartbeats stops generating events once every
            // job is done; the remaining slices would time nothing.
            if cluster.queue_stats().len == 0 && next_ckpt.peek().is_none() {
                let t = Instant::now();
                cluster.run_until(leg.horizon);
                run_s += secs(t);
                break;
            }
        }
    } else {
        for &at in &instants {
            let t = Instant::now();
            cluster.run_until(at);
            run_s += secs(t);
            let t = Instant::now();
            let text = cluster.checkpoint();
            checkpoint_s += secs(t);
            if leg.restore_at == Some(at) {
                kept = Some(text);
            }
        }
        let t = Instant::now();
        cluster.run_until(leg.horizon);
        run_s += secs(t);
    }
    spans.close();

    spans.open("checkpoint");
    let t = Instant::now();
    let final_text = cluster.checkpoint();
    checkpoint_s += secs(t);
    spans.close();
    let digest = spans.time("digest", || {
        sim_digest(&final_text).expect("Cluster::checkpoint renders well-formed JSON")
    });
    drop(final_text);

    let query_s = if traced {
        spans.open("query");
        let t = Instant::now();
        let table = storm::query::jobs(&cluster);
        let s = secs(t);
        std::hint::black_box(table);
        spans.close();
        s
    } else {
        0.0
    };

    let w = cluster.world();
    let mut lost = 0;
    let mut makespan = SimTime::ZERO;
    let mut launch_ms = Vec::new();
    let mut waits = Vec::new();
    for (&id, (arrival, spec)) in ids.iter().zip(&leg.jobs) {
        let rec = cluster.job(id);
        if !rec.state.is_terminal() {
            lost += 1;
        }
        let m = &rec.metrics;
        if let Some(done) = m.completed {
            makespan = makespan.max(done);
        }
        if matches!(spec.app, AppSpec::DoNothing { .. }) {
            if let Some(span) = m.total_launch_span() {
                launch_ms.push(span.as_millis_f64());
            }
        }
        if let Some(started) = m.started {
            waits.push(started.since(*arrival).as_secs_f64());
        }
    }
    let snap = cluster.metrics_snapshot();
    let failover_detection_us = snap
        .histogram("failover.detection_latency_us")
        .map_or(0.0, |h| h.mean());
    let outcome_counts = Counts::of(&cluster);
    let mm_ticks = snap.counter("mm.ticks").unwrap_or(0);
    let nodes = w.cfg.nodes;
    drop(cluster);

    let restore = kept.map(|text| restore_cycle(leg, &text, digest, spans));
    spans.close();

    LegOutcome {
        label: leg.label,
        measured: leg.measured,
        nodes,
        setup_s,
        run_s,
        sim_s: makespan.as_secs_f64(),
        checkpoint_s,
        digest,
        jobs: ids.len(),
        lost,
        counts: outcome_counts,
        restore,
        mean_launch_ms: mean(&launch_ms),
        mean_wait_s: mean(&waits),
        mm_ticks,
        failover_detection_us,
        slices_ns,
        shadow: shadow_stats,
        query_s,
    }
}

fn restore_cycle(leg: &Leg, text: &str, digest: u64, spans: &mut Spans) -> RestoreOutcome {
    spans.open("restore");
    let t = Instant::now();
    let restored = Cluster::restore(text);
    let restore_s = secs(t);
    spans.close();
    // The parse alone, after the restore, so both see the same allocator
    // and cache state: decode time is the difference.
    let parse_s = spans.enabled().then(|| {
        spans.open("json");
        let t = Instant::now();
        let doc = storm::telemetry::json::parse(text);
        let s = secs(t);
        std::hint::black_box(doc.is_ok());
        spans.close();
        s
    });
    let (identical, error) = match restored {
        Ok(mut c) => {
            spans.open("resume");
            c.run_until(leg.horizon);
            let text = c.checkpoint();
            spans.close();
            (sim_digest(&text).is_ok_and(|d| d == digest), None)
        }
        Err(e) => (false, Some(e)),
    };
    RestoreOutcome {
        restore_s,
        parse_s,
        bytes: text.len(),
        error,
        identical,
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
