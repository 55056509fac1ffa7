//! # storm-bench — the experiment harness
//!
//! One bench target per table and figure of the paper's evaluation (run
//! with `cargo bench -p storm-bench`, or a single one with e.g.
//! `cargo bench -p storm-bench --bench fig2_launch_unloaded`). Each target
//! prints the same rows/series the paper reports, next to the paper's own
//! numbers where the paper states them, and exits non-zero if the
//! reproduced *shape* deviates (who wins, by roughly what factor, where
//! crossovers fall).
//!
//! This crate's library half holds the shared harness: repetition/statistic
//! helpers matching the paper's methodology (mean of 3–20 repetitions;
//! minimum for the §3.2 application runs), a parallel sweep driver, and
//! paper-vs-measured comparison rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use storm_sim::stats::Summary;

/// One paper-vs-measured comparison line.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Row label (e.g. "12 MB, 256 PEs, send").
    pub label: String,
    /// The paper's reported value (None when the paper gives no number).
    pub paper: Option<f64>,
    /// Our measured/modelled value.
    pub measured: f64,
    /// Unit for display.
    pub unit: &'static str,
}

impl Comparison {
    /// Build a comparison row.
    pub fn new(
        label: impl Into<String>,
        paper: Option<f64>,
        measured: f64,
        unit: &'static str,
    ) -> Self {
        Comparison {
            label: label.into(),
            paper,
            measured,
            unit,
        }
    }

    /// measured / paper, when the paper states a value.
    pub fn ratio(&self) -> Option<f64> {
        self.paper.map(|p| self.measured / p)
    }
}

/// Render a block of comparisons as an aligned table.
pub fn render_comparisons(title: &str, rows: &[Comparison]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "== {title}");
    let _ = writeln!(
        out,
        "{:<44} {:>12} {:>12} {:>8}",
        "quantity", "paper", "measured", "ratio"
    );
    for r in rows {
        let paper = match r.paper {
            Some(p) => format!("{p:.3} {}", r.unit),
            None => "-".to_string(),
        };
        let ratio = match r.ratio() {
            Some(x) => format!("{x:.2}x"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<44} {:>12} {:>12} {:>8}",
            r.label,
            paper,
            format!("{:.3} {}", r.measured, r.unit),
            ratio
        );
    }
    out
}

/// Run `reps` repetitions of an experiment with distinct seeds, returning
/// the summary (the paper runs each experiment 3–20 times, §3).
pub fn repeat(reps: u64, base_seed: u64, mut f: impl FnMut(u64) -> f64) -> Summary {
    let mut s = Summary::new();
    for i in 0..reps {
        s.push(f(base_seed.wrapping_add(i).wrapping_mul(0x9E37_79B9)));
    }
    s
}

/// Derive an independent seed for sweep configuration `index` from a base
/// seed (a splitmix64 finalising step). Every configuration gets its own
/// stream regardless of which worker thread runs it or in what order, so
/// parallel sweeps reproduce serial ones bit for bit.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The worker count [`parallel_sweep`] uses for `n_configs`
/// configurations: `available_parallelism` capped by the configuration
/// count, falling back to **1** (a serial sweep) when the runtime cannot
/// report core counts.
fn sweep_workers(n_configs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n_configs.max(1))
}

/// Run independent experiment configurations in parallel across threads
/// (each simulation is single-threaded and deterministic; the sweep across
/// configurations is embarrassingly parallel). The worker count is
/// `available_parallelism` capped by the configuration count, and 1 when
/// the runtime cannot report core counts.
pub fn parallel_sweep<C, R>(configs: Vec<C>, f: impl Fn(&C) -> R + Sync) -> Vec<R>
where
    C: Send + Sync,
    R: Send,
{
    let n = configs.len();
    let threads = sweep_workers(n);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let done = std::sync::Mutex::new(Vec::<(usize, R)>::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&configs[i]);
                done.lock().expect("sweep lock").push((i, r));
            });
        }
    });
    let mut pairs = done.into_inner().expect("sweep lock");
    pairs.sort_by_key(|&(i, _)| i);
    assert_eq!(pairs.len(), n, "every config produced a result");
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// Assert a shape property, printing a clear message and failing the bench
/// process (exit code) when violated.
pub fn check(ok: bool, what: &str) {
    if ok {
        println!("   [shape ok] {what}");
    } else {
        println!("   [SHAPE VIOLATION] {what}");
        std::process::exit(1);
    }
}

/// Write a bench artifact (metrics snapshot, trace dump) to `default_path`,
/// overridable through the environment variable `env_var` — the pattern CI
/// uses to collect `BENCH_*.json` / `METRICS_*.json` uploads.
pub fn write_artifact(env_var: &str, default_path: &str, contents: &str) {
    let path = std::env::var(env_var).unwrap_or_else(|_| default_path.to_string());
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("   [artifact] {path} ({} bytes)", contents.len());
}

/// [`write_artifact`] for JSON payloads: the contents are validated with
/// the telemetry crate's [`validate_json`] first, so a bench emitting a
/// malformed hand-rolled document fails its own process instead of
/// poisoning the CI artifact corpus (and the regression gate that parses
/// it downstream).
///
/// [`validate_json`]: storm_core::prelude::validate_json
pub fn write_json_artifact(env_var: &str, default_path: &str, json: &str) {
    if let Err(e) = storm_core::prelude::validate_json(json) {
        println!("   [SHAPE VIOLATION] artifact {default_path} is not valid JSON: {e}");
        std::process::exit(1);
    }
    write_artifact(env_var, default_path, json);
}

/// Geometric x-axis helper: powers of two from `lo` to `hi` inclusive.
pub fn pow2_range(lo: u32, hi: u32) -> Vec<u32> {
    let mut v = Vec::new();
    let mut x = lo.max(1);
    while x <= hi {
        v.push(x);
        x *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_ratio() {
        let c = Comparison::new("x", Some(100.0), 110.0, "ms");
        assert!((c.ratio().unwrap() - 1.1).abs() < 1e-12);
        assert!(Comparison::new("y", None, 5.0, "s").ratio().is_none());
        let text = render_comparisons("t", &[c]);
        assert!(text.contains("1.10x"));
    }

    #[test]
    fn repeat_uses_distinct_seeds() {
        let mut seeds = Vec::new();
        let s = repeat(5, 7, |seed| {
            seeds.push(seed);
            seed as f64
        });
        assert_eq!(s.count(), 5);
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 5);
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let configs: Vec<u64> = (0..50).collect();
        let results = parallel_sweep(configs, |&c| c * 2);
        assert_eq!(results, (0..50).map(|c| c * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_workers_is_capped_by_config_count() {
        assert_eq!(sweep_workers(1), 1);
        assert_eq!(sweep_workers(0), 1);
        let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(sweep_workers(1_000_000), hw);
        assert!(sweep_workers(2) <= 2);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(7, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 100);
        assert_eq!(
            seeds,
            (0..100).map(|i| derive_seed(7, i)).collect::<Vec<_>>()
        );
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn json_artifact_roundtrips_through_validation() {
        let path = std::env::temp_dir().join("storm_bench_artifact_test.json");
        std::env::set_var("STORM_BENCH_TEST_OUT", &path);
        write_json_artifact(
            "STORM_BENCH_TEST_OUT",
            "unused-default.json",
            "{\"rows\": [1, 2, 3]}",
        );
        let back = std::fs::read_to_string(&path).expect("artifact written");
        assert_eq!(back, "{\"rows\": [1, 2, 3]}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pow2_range_inclusive() {
        assert_eq!(pow2_range(1, 8), vec![1, 2, 4, 8]);
        assert_eq!(pow2_range(4, 5), vec![4]);
        assert_eq!(pow2_range(3, 24), vec![3, 6, 12, 24]);
    }
}
