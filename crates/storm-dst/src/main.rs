//! `storm-dst` — the DST command-line harness.
//!
//! ```text
//! storm-dst explore  [--scenario two-node-launch|small-chaos] [--amplitude A]
//!                    [--prefix P] [--seeds N] [--delay-us D] [--out DIR]
//! storm-dst replay   <DST_repro_*.json | CKPT_*.json>
//! storm-dst selftest [--out DIR]
//! ```
//!
//! `explore` runs the bounded-exhaustive tier then a seeded swarm; on the
//! first oracle violation it shrinks the failure and writes a
//! `DST_repro_*.json` artifact, exiting 1. `replay` re-executes an
//! artifact twice and verifies oracle, instant and digest; its exit code
//! distinguishes the outcomes so CI can triage without parsing output:
//! 10 = the artifact's oracle violation reproduced faithfully (the oracle
//! name is printed), 11 = the artifact could not be read or parsed,
//! 12 = the replay ran but diverged from the artifact. `replay` also
//! accepts a cluster checkpoint (`CKPT_*.json`, written by
//! `Cluster::checkpoint()`): the checkpoint is restored twice, both runs
//! resume over the same horizon, and exit 0 means they agreed
//! byte-for-byte (11/12 keep their meanings). `selftest`
//! seeds a deliberate violation, shrinks it, writes the artifact, replays
//! it, and checks the repro is ≤ 10 events — the full pipeline in one
//! command.

use std::process::ExitCode;
use storm_dst::prelude::*;

/// `replay`: the artifact's violation reproduced faithfully.
const EXIT_VIOLATION_REPRODUCED: u8 = 10;
/// `replay`: the artifact could not be read or parsed.
const EXIT_ARTIFACT_UNREADABLE: u8 = 11;
/// `replay`: the replay executed but diverged from the artifact.
const EXIT_REPLAY_DIVERGED: u8 = 12;

fn usage() -> ExitCode {
    eprintln!(
        "usage: storm-dst explore [--scenario NAME] [--amplitude A] [--prefix P] \
         [--seeds N] [--delay-us D] [--out DIR]\n       \
         storm-dst replay <DST_repro_*.json | CKPT_*.json>  \
         (exit 10: violation reproduced, 0: checkpoint replayed, 11: bad artifact, 12: diverged)\n       \
         storm-dst selftest [--out DIR]\n\
scenarios: two-node-launch, small-chaos, mm-failover"
    );
    ExitCode::from(2)
}

struct Flags {
    scenario: String,
    amplitude: u64,
    prefix: u32,
    seeds: u64,
    delay_us: u64,
    out: String,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        scenario: "two-node-launch".into(),
        amplitude: 3,
        prefix: 4,
        seeds: 64,
        delay_us: 20,
        out: ".".into(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--scenario" => flags.scenario = value("--scenario")?,
            "--amplitude" => {
                flags.amplitude = value("--amplitude")?.parse().map_err(|e| format!("{e}"))?
            }
            "--prefix" => flags.prefix = value("--prefix")?.parse().map_err(|e| format!("{e}"))?,
            "--seeds" => flags.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--delay-us" => {
                flags.delay_us = value("--delay-us")?.parse().map_err(|e| format!("{e}"))?
            }
            "--out" => flags.out = value("--out")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(flags)
}

fn base_scenario(flags: &Flags) -> Result<Scenario, String> {
    match flags.scenario.as_str() {
        "two-node-launch" => Ok(Scenario::two_node_launch()),
        "small-chaos" => Ok(Scenario::small_chaos()),
        "mm-failover" => Ok(Scenario::mm_failover()),
        other => Err(format!("unknown scenario {other:?}")),
    }
}

/// Shrink a failure, write its artifact under `out`, and report.
fn write_artifact(out_dir: &str, scenario: &Scenario, outcome: &RunOutcome) -> Repro {
    let (minimal, min_out) = shrink(scenario, outcome);
    let repro = Repro::from_run(&minimal, &min_out);
    let path = format!("{}/{}", out_dir, repro.file_name());
    std::fs::write(&path, repro.to_json_string()).expect("write artifact");
    let v = &repro.violation;
    println!(
        "violation: {} at {} — {}\nshrunk to {} events; artifact: {path}",
        v.oracle, v.at, v.detail, repro.event_count
    );
    repro
}

/// The tie amplitude for the bounded-exhaustive tier: at most 3, lowered
/// until the run count over `prefix` insertions fits [`EXHAUSTIVE_CAP`].
/// A count that overflows `u64` is over the cap; amplitude 0 (one run)
/// always fits.
fn exhaustive_amplitude(amplitude: u64, prefix: u32) -> u64 {
    let mut amp = amplitude.min(3);
    while exhaustive_runs(amp, prefix).is_none_or(|runs| runs > EXHAUSTIVE_CAP) {
        amp -= 1;
    }
    amp
}

fn cmd_explore(flags: &Flags) -> Result<ExitCode, String> {
    let base = base_scenario(flags)?;
    base.validate()?;
    // Tier 1: bounded-exhaustive over a small window (cap the product).
    let amp = exhaustive_amplitude(flags.amplitude, flags.prefix);
    let exhaustive = explore_exhaustive(&base, amp, flags.prefix);
    println!(
        "exhaustive: {} runs, {} distinct interleavings (amplitude {amp}, prefix {})",
        exhaustive.runs, exhaustive.distinct, flags.prefix
    );
    if let Some((scenario, outcome)) = &exhaustive.failure {
        write_artifact(&flags.out, scenario, outcome);
        return Ok(ExitCode::FAILURE);
    }
    // Tier 2: seeded swarm, with bounded delivery delay widening the
    // reachable schedule space.
    let swarm = explore_swarm(&base, flags.amplitude, flags.delay_us, 0..flags.seeds);
    println!(
        "swarm: {} runs, {} distinct interleavings (amplitude {}, delay {} µs)",
        swarm.runs, swarm.distinct, flags.amplitude, flags.delay_us
    );
    if let Some((scenario, outcome)) = &swarm.failure {
        write_artifact(&flags.out, scenario, outcome);
        return Ok(ExitCode::FAILURE);
    }
    println!(
        "all oracles held across {} runs",
        exhaustive.runs + swarm.runs
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("storm-dst: cannot read artifact: {path}: {e}");
            return ExitCode::from(EXIT_ARTIFACT_UNREADABLE);
        }
    };
    // A cluster checkpoint (`CKPT_*.json`) is also a replayable starting
    // state: restore it twice, resume both runs over the same horizon,
    // and verify they agree byte-for-byte. Exit codes keep their repro
    // meanings (11 = unreadable, 12 = diverged, 0 = replayed cleanly).
    if let Ok(doc) = storm_dst::json::parse(&text) {
        if doc.get("kind").and_then(|k| k.as_str()) == Some("storm-checkpoint") {
            return replay_checkpoint(path, &text);
        }
    }
    let repro = match Repro::from_json_str(&text) {
        Ok(repro) => repro,
        Err(e) => {
            eprintln!("storm-dst: cannot parse artifact: {path}: {e}");
            return ExitCode::from(EXIT_ARTIFACT_UNREADABLE);
        }
    };
    let report = replay(&repro);
    if report.faithful() {
        let v = &repro.violation;
        println!(
            "violation reproduced: {} at {} — {} (digest {:#018x}, {} events)",
            v.oracle, v.at, v.detail, repro.digest, repro.event_count
        );
        ExitCode::from(EXIT_VIOLATION_REPRODUCED)
    } else {
        for m in &report.mismatches {
            eprintln!("mismatch: {m}");
        }
        eprintln!(
            "storm-dst: replay diverged from artifact (expected {} at {})",
            repro.violation.oracle, repro.violation.at
        );
        ExitCode::from(EXIT_REPLAY_DIVERGED)
    }
}

/// Resume a cluster checkpoint twice over the same horizon and verify
/// the runs agree exactly: same delivered-event count, same final
/// checkpoint bytes. Divergence means the artifact (or the build
/// replaying it) is not deterministic — the same triage signal a repro
/// divergence gives, so it shares exit code 12.
fn replay_checkpoint(path: &str, text: &str) -> ExitCode {
    use storm_core::cluster::Cluster;
    use storm_sim::SimSpan;
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut c = match Cluster::restore(text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("storm-dst: cannot restore checkpoint: {path}: {e}");
                return ExitCode::from(EXIT_ARTIFACT_UNREADABLE);
            }
        };
        let from = c.now();
        let horizon = from + SimSpan::from_millis(2_000);
        c.run_until(horizon);
        runs.push((from, c.now(), c.events_delivered(), c.checkpoint()));
    }
    let (from, until, events, ref final_ckpt) = runs[0];
    if runs[1].2 == events && &runs[1].3 == final_ckpt {
        println!(
            "checkpoint replayed: resumed at {from}, ran to {until} \
             ({events} events delivered, final state {} bytes, both runs \
             byte-identical)",
            final_ckpt.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "storm-dst: checkpoint replay diverged: {} vs {} events \
             delivered, final states {}",
            events,
            runs[1].2,
            if runs[1].3 == *final_ckpt {
                "equal"
            } else {
                "differ"
            }
        );
        ExitCode::from(EXIT_REPLAY_DIVERGED)
    }
}

fn cmd_selftest(out_dir: &str) -> Result<ExitCode, String> {
    // Seed a known violation into a noisy scenario, then prove the whole
    // pipeline: detect → shrink → write → parse → replay.
    let seeded = Scenario::small_chaos()
        .with_order(OrderSpec::Seeded {
            seed: 0xDE57,
            amplitude: 2,
            delay_us: 0,
        })
        .with_injection(Injection {
            at_ms: 30,
            kind: InjectionKind::CompletedSkew,
        });
    let outcome = run_scenario_caught(&seeded);
    if !outcome.failed() {
        return Err("seeded violation was not detected".into());
    }
    let repro = write_artifact(out_dir, &seeded, &outcome);
    if repro.event_count > 10 {
        return Err(format!(
            "shrunk repro still has {} events (> 10)",
            repro.event_count
        ));
    }
    let path = format!("{}/{}", out_dir, repro.file_name());
    let back = Repro::from_json_str(&std::fs::read_to_string(&path).map_err(|e| e.to_string())?)?;
    let report = replay(&back);
    if !report.faithful() {
        return Err(format!("replay mismatches: {:?}", report.mismatches));
    }
    println!("selftest passed: detect → shrink → write → replay");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("explore") => parse_flags(&args[1..]).and_then(|f| cmd_explore(&f)),
        Some("replay") => match args.get(1) {
            Some(path) => return cmd_replay(path),
            None => return usage(),
        },
        Some("selftest") => parse_flags(&args[1..]).and_then(|f| cmd_selftest(&f.out)),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("storm-dst: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_32_lowers_the_amplitude_instead_of_overflowing() {
        assert_eq!(exhaustive_amplitude(3, 6), 3, "4^6 = 4096 is at the cap");
        assert_eq!(exhaustive_amplitude(3, 7), 2, "4^7 is over, 3^7 fits");
        // 4^32 overflows u64: it must count as over the cap, leaving the
        // single all-zero script rather than wrapping to zero runs.
        let args = ["--prefix", "32", "--seeds", "2"].map(String::from);
        let f = parse_flags(&args).expect("flags parse");
        assert_eq!(f.prefix, 32);
        assert_eq!(exhaustive_amplitude(f.amplitude, f.prefix), 0);
        assert_eq!(cmd_explore(&f), Ok(ExitCode::SUCCESS));
    }
}
