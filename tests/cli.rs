//! `storm-cli` refuses input it cannot run — a cluster configuration
//! that `ClusterConfig::validate` refuses, a job of zero ranks, a gang
//! of zero jobs, a stream that `StreamConfig::validate` refuses: it
//! exits 1 with the reason on stderr, instead of panicking or aborting
//! on an allocation it cannot make.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run `storm-cli` with `args`: its exit code and stderr. Fails the test
/// if it runs past `limit`.
fn run(args: &[&str], limit: Duration) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_storm-cli"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn storm-cli");
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("wait for storm-cli") {
            let mut stderr = String::new();
            let mut pipe = child.stderr.take().expect("piped stderr");
            pipe.read_to_string(&mut stderr).expect("read stderr");
            return (status.code(), stderr);
        }
        if started.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            panic!("storm-cli {args:?} ran past {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn invalid_input_exits_1_with_the_reason() {
    for (args, reason) in [
        (&["launch", "--nodes", "0"][..], "nodes must be ≥ 1"),
        (
            &["launch", "--chunk-kb", "0"],
            "chunk_bytes must be positive",
        ),
        (&["launch", "--slots", "0"], "queue_slots must be ≥ 2"),
        (&["gang", "--nodes", "0"], "nodes must be ≥ 1"),
        (
            &["launch", "--nodes", "4294967295"],
            "dæmons a cluster may have",
        ),
        (&["launch", "--pes", "0"], "--pes must be ≥ 1"),
        (&["gang", "--mpl", "0"], "--mpl must be ≥ 1"),
        (&["trace", "--jobs", "0"], "stream needs at least one job"),
    ] {
        let (code, stderr) = run(args, Duration::from_secs(60));
        assert_eq!(code, Some(1), "storm-cli {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(reason),
            "storm-cli {args:?}: {stderr}"
        );
    }
}
