//! The Program Launcher (PL).
//!
//! "A PL has the relatively simple task of launching an individual
//! application process. When its application process terminates, the PL
//! notifies its NM" (§2.1). There is one PL per *potential* process —
//! nodes × CPUs per node × multiprogramming level (Table 2) — so a fork
//! never waits for a launcher to become available.

use crate::msg::Msg;
use crate::world::{Daemon, World};
use storm_sim::{Component, Context};

/// One Program Launcher dæmon. It holds no state: its node and index are
/// its wiring position (see [`Wiring`](crate::world::Wiring)), so a
/// cluster registers its PLs without allocating.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProgramLauncher;

impl Component<World, Msg> for ProgramLauncher {
    fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, World, Msg>) {
        match msg {
            Msg::Fork { job, attempt } => {
                let wiring = ctx.world_ref().wiring;
                let Some(Daemon::Pl { node, index: pl }) = wiring.daemon(ctx.self_id()) else {
                    unreachable!("{} is wired as a PL", ctx.self_id());
                };
                ctx.world().metric_inc("pl.forks");
                let (costs, load) = {
                    let w = ctx.world_ref();
                    (w.cfg.daemon, w.cfg.load)
                };
                // fork()+exec() with log-normal OS noise, stretched when a
                // CPU hog is resident.
                let noise = ctx.rng().lognormal_jitter(costs.fork_sigma);
                let fork_span = load.inflate(costs.fork_base.mul_f64(noise));
                let nm = wiring.nm(node.0);
                ctx.send(nm, fork_span, Msg::ForkDone { job, pl, attempt });
                // A do-nothing binary exits as soon as it starts; the PL
                // notices after `exit_detect` and notifies its NM. Jobs with
                // real work terminate through the NM's scheduling path
                // instead.
                if ctx.world_ref().job(job).workload.is_empty() {
                    let detect = load.inflate(costs.exit_detect);
                    ctx.send(nm, fork_span + detect, Msg::PlExited { job, pl, attempt });
                }
            }
            other => panic!("PL received unexpected message {other:?}"),
        }
    }

    fn name(&self) -> &str {
        "PL"
    }
}
