//! `storm-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs the named workload serially on one thread for at least `--seconds`
//! of host time and prints, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The traced
//! mode also writes its spans as Chrome trace-event JSON to
//! `TRACE_perfbench_<workload>.json` (override with
//! `STORM_PERFBENCH_TRACE`).

use std::time::{Duration, Instant};
use storm_perfbench::inputs::{self, Plan, Workload};
use storm_perfbench::report::{self, Pair, Probes, Rep};
use storm_perfbench::{probes, run, spans::Spans};

/// Untraced repetitions per run, at least.
const MIN_REPS: usize = 3;
/// Set-up samples per run, at least (extra set-ups top the repetitions'
/// own up to this count, within [`SETUP_BUDGET`]).
const SETUP_SAMPLES: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Layer spans must account for at least this share of traced wall time.
const MIN_COVERAGE_PCT: f64 = 90.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!(
            "--workload is required: one of {names:?} (seeds: default {}, held out {})",
            inputs::DEFAULT_SEED,
            inputs::HELD_OUT_SEED
        ))?,
        seed,
        seconds,
        trace,
    })
}

/// Size the standalone probes from the traced repetition's heaviest
/// measured leg.
fn run_probes(plan: &Plan, rep: &Rep, spans: &mut Spans) -> Probes {
    spans.open("probe");
    let leg = plan
        .legs
        .iter()
        .find(|l| l.measured)
        .expect("a measured leg");
    let measured = || rep.legs.iter().filter(|l| l.measured);
    let depth = measured().map(|l| l.counts.queue_peak).max().unwrap_or(1);
    let nodes = measured().map(|l| l.nodes).max().unwrap_or(1);
    let cpus = leg.cfg.cpus_per_node;
    let widths: Vec<u32> = leg.jobs.iter().map(|(_, s)| s.nodes_needed(cpus)).collect();
    let p = Probes {
        queue_hold_ns: probes::queue_hold_ns(
            depth as usize,
            leg.cfg.collect_period() / 64,
            200_000,
        ),
        xfer_ns: probes::xfer_ns(nodes, leg.cfg.chunk_bytes, 100_000),
        caw_ns: probes::caw_ns(nodes, (20_000_000 / u64::from(nodes)).max(1000)),
        matrix_ns: probes::matrix_place_remove_ns(leg.cfg.nodes, leg.cfg.mpl_max, &widths, 50_000),
    };
    spans.close();
    p
}

fn run_rep(plan: &Plan, traced: bool) -> (Rep, Spans, Probes) {
    let mut spans = Spans::new(traced);
    spans.open("rep");
    let legs = plan
        .legs
        .iter()
        .map(|l| run::run_leg(l, &mut spans))
        .collect();
    let rep = Rep { legs };
    let probes = if traced {
        run_probes(plan, &rep, &mut spans)
    } else {
        Probes::default()
    };
    spans.close();
    (rep, spans, probes)
}

/// Tally of attempted and failed operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if ok {
            println!("   [ok] {what}");
        } else {
            self.failed += 1;
            println!("   [FAILED] {what}");
        }
    }

    fn rep(&mut self, plan: &Plan, rep: &Rep) {
        self.attempted += rep.jobs() as u64;
        self.failed += rep.lost() as u64;
        if rep.lost() > 0 {
            println!(
                "   [FAILED] {} jobs not terminal at the horizon",
                rep.lost()
            );
        }
        for (what, ok) in report::checks(plan, rep) {
            self.check(ok, &what);
        }
    }
}

fn describe(tag: &str, rep: &Rep) {
    println!(
        "{tag}: setup {:.4} s, wall/sim {:.6}, checkpoint {:.4} s, restore {:.4} s, sim_digest {:016x}",
        rep.setup_s(),
        rep.wall_per_sim_s(),
        rep.checkpoint_s(),
        rep.restore_s(),
        rep.digest()
    );
    for l in &rep.legs {
        println!(
            "   leg {:<8} nodes {:>5} jobs {:>4} setup {:.4} s run {:.3} s sim {:.1} s checkpoint {:.4} s{}",
            l.label,
            l.nodes,
            l.jobs,
            l.setup_s,
            l.run_s,
            l.sim_s,
            l.checkpoint_s,
            l.restore
                .as_ref()
                .map(|r| format!(" restore {:.3} s of {} bytes", r.restore_s, r.bytes))
                .unwrap_or_default()
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let plan = inputs::plan(args.workload, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    println!(
        "storm-perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let metrics = if !args.trace {
        let mut reps: Vec<Rep> = Vec::new();
        while reps.len() < MIN_REPS || start.elapsed() < budget {
            let (rep, _, _) = run_rep(&plan, false);
            describe(&format!("rep {}", reps.len()), &rep);
            tally.rep(&plan, &rep);
            reps.push(rep);
        }
        let d0 = reps[0].digest();
        tally.check(
            reps.iter().all(|r| r.digest() == d0),
            &format!(
                "sim_digest {d0:016x} repeats across {} repetitions",
                reps.len()
            ),
        );
        if let Some((what, pct)) = report::model_error_pct(&plan, &reps[0]) {
            println!("model error: {what}: {pct:.2}%");
        }
        let mut samples: Vec<f64> = reps.iter().map(Rep::setup_s).collect();
        let extra = Instant::now();
        while samples.len() < SETUP_SAMPLES && extra.elapsed() < SETUP_BUDGET {
            let t = Instant::now();
            let clusters: Vec<_> = plan
                .legs
                .iter()
                .filter(|l| l.measured)
                .map(|l| run::setup(l, false))
                .collect();
            samples.push(t.elapsed().as_secs_f64());
            drop(clusters);
        }
        report::end_to_end(&reps, &samples)
    } else {
        let mut pairs: Vec<Pair> = Vec::new();
        while pairs.is_empty() || start.elapsed() < budget {
            let (untraced, _, _) = run_rep(&plan, false);
            describe("untraced", &untraced);
            tally.rep(&plan, &untraced);
            let (traced, spans, probes) = run_rep(&plan, true);
            describe("traced", &traced);
            tally.rep(&plan, &traced);
            tally.check(
                traced.digest() == untraced.digest(),
                "traced and untraced runs end with one sim_digest",
            );
            tally.check(
                traced.counts() == untraced.counts(),
                "count-valued layer metrics repeat exactly between traced and untraced runs",
            );
            let cover = report::span_coverage_pct(&spans);
            tally.check(
                cover >= MIN_COVERAGE_PCT,
                &format!("layer spans cover {cover:.1}% of the traced run's wall time"),
            );
            pairs.push(Pair {
                untraced,
                traced,
                probes,
                spans,
            });
        }
        let d0 = pairs[0].untraced.digest();
        tally.check(
            pairs.iter().all(|p| p.untraced.digest() == d0),
            &format!("sim_digest {d0:016x} repeats across {} pairs", pairs.len()),
        );
        let last = pairs.last().expect("a pair");
        storm_bench::write_json_artifact(
            "STORM_PERFBENCH_TRACE",
            &format!("TRACE_perfbench_{}.json", args.workload.name()),
            &last.spans.chrome_json(),
        );
        report::per_layer(&pairs)
    };
    for m in &metrics {
        println!("metric {} = {:?} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_line(tally.attempted, tally.failed, &metrics)
    );
}
