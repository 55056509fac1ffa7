//! Bench-regression gate: compare a freshly produced `BENCH_simcore.json`
//! against a committed baseline and fail (exit 1) when simulator-core
//! throughput regresses.
//!
//! Usage: `bench_gate <baseline.json> <current.json>`
//!
//! Rows are keyed by `nodes`, and the gate compares `handlers_per_sec`,
//! handler invocations per second of wall time. The pass bar applies at
//! the **largest common node count** (16384 on a full run, 256 under
//! `STORM_BENCH_SMOKE=1`), where per-message cost dominates and
//! wall-clock noise is smallest relative to the run length: that row
//! fails when current throughput is more than [`TOLERANCE`] below
//! baseline. Smaller rows are reported but advisory — sub-millisecond
//! runs on shared CI runners are too noisy to gate on.
//!
//! The artifacts are the hand-rolled JSON the benches emit (the repo
//! vendors no serde); rows are one object per line, which is what this
//! parser leans on.

#![forbid(unsafe_code)]

use std::process::ExitCode;

/// Largest tolerated throughput drop, as a fraction of baseline. Loose on
/// purpose: hosted runners vary run to run, so the gate catches gross
/// regressions (a lost fast path, an accidental superlinear hot loop),
/// not single-digit noise.
const TOLERANCE: f64 = 0.5;

/// One parsed throughput row.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    nodes: u64,
    handlers_per_sec: f64,
}

/// Pull `"key": <number>` out of a row line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_rows(contents: &str) -> Vec<Row> {
    contents
        .lines()
        .filter_map(|line| {
            Some(Row {
                nodes: field_num(line, "nodes")? as u64,
                handlers_per_sec: field_num(line, "handlers_per_sec")?,
            })
        })
        .collect()
}

fn load_rows(path: &str) -> Vec<Row> {
    let contents =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("bench_gate: read {path}: {e}"));
    let rows = parse_rows(&contents);
    assert!(!rows.is_empty(), "bench_gate: no throughput rows in {path}");
    rows
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: bench_gate <baseline.json> <current.json>");
        return ExitCode::FAILURE;
    }
    let baseline = load_rows(&args[1]);
    let current = load_rows(&args[2]);

    let gate_nodes = baseline
        .iter()
        .filter(|b| current.iter().any(|c| c.nodes == b.nodes))
        .map(|b| b.nodes)
        .max()
        .expect("bench_gate: no common node count between baseline and current");

    println!(
        "bench_gate: tolerance {:.0}% | gating at {} nodes",
        TOLERANCE * 100.0,
        gate_nodes
    );
    println!(
        "{:>6} {:>16} {:>16} {:>8}  verdict",
        "nodes", "baseline hnd/s", "current hnd/s", "ratio"
    );
    let mut failed = false;
    for b in &baseline {
        let Some(c) = current.iter().find(|c| c.nodes == b.nodes) else {
            continue;
        };
        let ratio = c.handlers_per_sec / b.handlers_per_sec;
        let gated = b.nodes == gate_nodes;
        let ok = ratio >= 1.0 - TOLERANCE;
        let verdict = match (gated, ok) {
            (true, true) => "ok",
            (true, false) => {
                failed = true;
                "REGRESSION"
            }
            (false, true) => "ok (advisory)",
            (false, false) => "slow (advisory)",
        };
        println!(
            "{:>6} {:>16.0} {:>16.0} {:>7.2}x  {}",
            b.nodes, b.handlers_per_sec, c.handlers_per_sec, ratio, verdict
        );
    }
    if failed {
        println!("bench_gate: FAIL — handler invocations/sec regressed beyond tolerance");
        ExitCode::FAILURE
    } else {
        println!("bench_gate: pass");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bench": "simcore",
  "rows": [
    {"nodes": 64, "events_delivered": 794, "messages_handled": 8885, "wall_seconds": 0.000800, "handlers_per_sec": 11106250.0, "events_per_timeslice": 6.25},
    {"nodes": 4096, "events_delivered": 794, "messages_handled": 530000, "wall_seconds": 0.020000, "handlers_per_sec": 26500000.0, "events_per_timeslice": 6.25}
  ],
  "repetitions": 3,
  "handlers_per_event_at_4096": 667.5
}"#;

    #[test]
    fn rows_parse_from_the_bench_artifact_shape() {
        let rows = parse_rows(SAMPLE);
        assert_eq!(
            rows,
            vec![
                Row {
                    nodes: 64,
                    handlers_per_sec: 11_106_250.0
                },
                Row {
                    nodes: 4096,
                    handlers_per_sec: 26_500_000.0
                },
            ]
        );
    }

    #[test]
    fn non_row_lines_are_ignored() {
        assert!(parse_rows("{\n  \"bench\": \"simcore\",\n  \"rows\": []\n}").is_empty());
    }
}
