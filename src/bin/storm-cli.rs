//! `storm-cli` — drive the STORM reproduction from the command line.
//!
//! ```text
//! storm-cli launch  [--nodes 64] [--pes 256] [--mb 12] [--load none|cpu|net]
//!                   [--chunk-kb 512] [--slots 4] [--fs ram|disk|nfs] [--seed N]
//! storm-cli gang    [--nodes 32] [--quantum-us 50000] [--mpl 2]
//!                   [--app sweep3d|synthetic] [--seed N]
//! storm-cli trace   [--jobs 60] [--policy batch|backfill|gang] [--seed N]
//! storm-cli faults  [--fail 17@500] [--fail 55@900] ...
//! ```
//!
//! Every command prints the same quantities the paper's corresponding
//! experiment reports. Argument parsing is deliberately dependency-free.

use std::process::ExitCode;
use storm::apps::{stream_metrics, CompletedJob, StreamConfig};
use storm::core::prelude::*;
use storm::sim::DeterministicRng;

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(rest: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = rest.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got '{a}'"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Args { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}'")),
            None => Ok(default),
        }
    }

    fn all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.flags
            .iter()
            .filter(move |(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

fn usage() -> &'static str {
    "storm-cli — STORM (SC2002) reproduction driver

USAGE:
  storm-cli launch  [--nodes 64] [--pes 256] [--mb 12] [--load none|cpu|net]
                    [--chunk-kb 512] [--slots 4] [--fs ram|disk|nfs] [--seed N]
  storm-cli gang    [--nodes 32] [--quantum-us 50000] [--mpl 2]
                    [--app sweep3d|synthetic] [--seed N]
  storm-cli trace   [--jobs 60] [--policy batch|backfill|gang] [--seed N]
  storm-cli faults  [--fail NODE@MS]...

Full table/figure reproduction: cargo bench -p storm-bench
"
}

/// The cluster for `cfg`, or the reason [`ClusterConfig::validate`]
/// refuses it.
fn build(cfg: ClusterConfig) -> Result<Cluster, String> {
    cfg.validate()?;
    Ok(Cluster::new(cfg))
}

fn cmd_launch(args: &Args) -> Result<(), String> {
    let nodes: u32 = args.num("nodes", 64)?;
    let pes: u32 = args.num("pes", nodes.saturating_mul(4))?;
    let mb: u64 = args.num("mb", 12)?;
    let chunk_kb: u64 = args.num("chunk-kb", 512)?;
    let slots: u32 = args.num("slots", 4)?;
    let seed: u64 = args.num("seed", 0x57)?;
    let load = match args.get("load").unwrap_or("none") {
        "none" => BackgroundLoad::NONE,
        "cpu" => BackgroundLoad::cpu_loaded(),
        "net" => BackgroundLoad::network_loaded(),
        other => return Err(format!("--load: unknown scenario '{other}'")),
    };
    let fs = match args.get("fs").unwrap_or("ram") {
        "ram" => FsKind::RamDisk,
        "disk" => FsKind::LocalExt2,
        "nfs" => FsKind::Nfs,
        other => return Err(format!("--fs: unknown filesystem '{other}'")),
    };
    let mut cfg = ClusterConfig::paper_cluster()
        .with_nodes(nodes)
        .with_transfer_protocol(chunk_kb.saturating_mul(1024), slots)
        .with_load(load)
        .with_seed(seed);
    cfg.fs = fs;
    cfg.validate()?;
    if pes == 0 {
        return Err("--pes must be ≥ 1: a job needs at least one rank".into());
    }
    let mut cluster = Cluster::new(cfg);
    let job =
        cluster.try_submit_at(SimTime::ZERO, JobSpec::new(AppSpec::do_nothing_mb(mb), pes))?;
    cluster.run_until_idle();
    let m = &cluster.job(job).metrics;
    println!("launch of a {mb} MB binary on {pes} PEs / {nodes} nodes:");
    println!("  send    {}", m.send_span().expect("send"));
    println!("  execute {}", m.execute_span().expect("execute"));
    println!("  total   {}", m.total_launch_span().expect("total"));
    println!(
        "  protocol bandwidth {:.1} MB/s over {} fragments",
        mb as f64 * 1000.0 / m.send_span().unwrap().as_millis_f64(),
        cluster.world().stats.fragments
    );
    Ok(())
}

fn cmd_gang(args: &Args) -> Result<(), String> {
    let nodes: u32 = args.num("nodes", 32)?;
    let quantum_us: u64 = args.num("quantum-us", 50_000)?;
    let mpl: u32 = args.num("mpl", 2)?;
    let seed: u64 = args.num("seed", 0x57)?;
    if mpl == 0 {
        return Err("--mpl must be ≥ 1: it is the number of jobs to gang-schedule".into());
    }
    let app = match args.get("app").unwrap_or("sweep3d") {
        "sweep3d" => AppSpec::sweep3d_default(),
        "synthetic" => AppSpec::synthetic_default(),
        other => return Err(format!("--app: unknown application '{other}'")),
    };
    let cfg = ClusterConfig::gang_cluster()
        .with_nodes(nodes)
        .with_timeslice(SimSpan::from_micros(quantum_us))
        .with_seed(seed);
    if cfg.quantum_infeasible() {
        return Err(format!(
            "quantum {} is below the NM control-message floor (~{}): the \
             scheduler cannot keep up (Section 3.2.1)",
            SimSpan::from_micros(quantum_us),
            cfg.daemon.nm_strobe_service
        ));
    }
    let mut cluster = build(cfg)?;
    let jobs = (0..mpl)
        .map(|_| {
            let spec = JobSpec::new(app.clone(), nodes * 2).with_ranks_per_node(2);
            cluster.try_submit_at(SimTime::ZERO, spec)
        })
        .collect::<Result<Vec<JobId>, String>>()?;
    cluster.run_until_idle();
    let last = jobs
        .iter()
        .map(|&j| cluster.job(j).metrics.completed.expect("completed"))
        .max()
        .expect("jobs");
    println!(
        "{} x{} on {} nodes / {} PEs, quantum {}:",
        app.name(),
        mpl,
        nodes,
        nodes * 2,
        SimSpan::from_micros(quantum_us)
    );
    println!(
        "  total runtime {}  normalised (/MPL) {:.2} s  strobes {}",
        last,
        last.as_secs_f64() / f64::from(mpl),
        cluster.world().stats.strobes
    );
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let jobs: usize = args.num("jobs", 60)?;
    let seed: u64 = args.num("seed", 1)?;
    let (policy, mpl) = match args.get("policy").unwrap_or("gang") {
        "batch" => (SchedulerKind::Batch, 1),
        "backfill" => (SchedulerKind::Backfill, 1),
        "gang" => (SchedulerKind::Gang, 2),
        other => return Err(format!("--policy: unknown policy '{other}'")),
    };
    let mut cfg = ClusterConfig::paper_cluster()
        .with_scheduler(policy)
        .with_timeslice(SimSpan::from_millis(50))
        .with_seed(seed);
    cfg.mpl_max = mpl;
    let stream = StreamConfig {
        jobs,
        ..StreamConfig::default()
    };
    stream.validate()?;
    let mut cluster = build(cfg)?;
    let stream = stream.generate(&mut DeterministicRng::new(seed));
    let ids = stream
        .iter()
        .map(|j| {
            cluster.try_submit_at(
                j.arrival,
                JobSpec::new(j.app.clone(), j.ranks).with_estimate(j.estimate),
            )
        })
        .collect::<Result<Vec<JobId>, String>>()?;
    cluster.run_until_idle();
    let completed: Vec<CompletedJob> = ids
        .iter()
        .zip(&stream)
        .map(|(&id, j)| {
            let m = &cluster.job(id).metrics;
            CompletedJob {
                arrival: j.arrival,
                started: m.started.expect("started"),
                completed: m.completed.expect("completed"),
                ranks: j.ranks,
                work: j.runtime,
            }
        })
        .collect();
    let m = stream_metrics(&completed, cluster.world().cfg.total_pes());
    println!("{jobs}-job trace under {policy:?} (MPL {mpl}):");
    println!("  makespan          {}", m.makespan);
    println!("  mean wait         {}", m.mean_wait);
    println!("  bounded slowdown  {:.2}", m.mean_bounded_slowdown);
    println!("  utilisation       {:.1}%", m.utilization * 100.0);
    Ok(())
}

fn cmd_faults(args: &Args) -> Result<(), String> {
    let mut cfg = ClusterConfig::paper_cluster();
    cfg.fault_detection = true;
    cfg.heartbeat_every = 8;
    let mut cluster = build(cfg)?;
    let mut latest = SimTime::ZERO;
    let mut injected = Vec::new();
    for spec in args.all("fail") {
        let (node, ms) = spec
            .split_once('@')
            .ok_or_else(|| format!("--fail expects NODE@MS, got '{spec}'"))?;
        let node: u32 = node.parse().map_err(|_| format!("bad node '{node}'"))?;
        let ms: u64 = ms.parse().map_err(|_| format!("bad time '{ms}'"))?;
        let nodes = cluster.world().cfg.nodes;
        if node >= nodes {
            return Err(format!(
                "node {node} out of range (cluster has {nodes} nodes)"
            ));
        }
        let at = SimTime::from_millis(ms);
        cluster.fail_node_at(at, node);
        injected.push((node, at));
        latest = latest.max(at);
    }
    if injected.is_empty() {
        return Err("give at least one --fail NODE@MS".into());
    }
    cluster.run_until(latest + SimSpan::from_millis(100));
    println!("heartbeat fault detection (round every 8 ms):");
    for (node, at) in &injected {
        match cluster
            .world()
            .stats
            .failures_detected
            .iter()
            .find(|(n, _)| n == node)
        {
            Some((_, det)) => println!(
                "  node {node:>3}: failed {at}, detected {det} (latency {})",
                det.since(*at)
            ),
            None => println!("  node {node:>3}: NOT detected"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprint!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "launch" => cmd_launch(&args),
        "gang" => cmd_gang(&args),
        "trace" => cmd_trace(&args),
        "faults" => cmd_faults(&args),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{}", usage())),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
