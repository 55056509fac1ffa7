//! The Program Launcher (PL).
//!
//! "A PL has the relatively simple task of launching an individual
//! application process. When its application process terminates, the PL
//! notifies its NM" (§2.1). There is one PL per *potential* process —
//! nodes × CPUs per node × multiprogramming level (Table 2) — so a fork
//! never waits for a launcher to become available.

use crate::msg::Msg;
use crate::world::World;
use storm_sim::{Component, Context};

/// One Program Launcher dæmon.
#[derive(Debug)]
pub struct ProgramLauncher {
    node: u32,
    pl_index: u32,
    forks: u64,
}

impl ProgramLauncher {
    /// The `pl_index`-th launcher on `node`.
    pub fn new(node: u32, pl_index: u32) -> Self {
        ProgramLauncher {
            node,
            pl_index,
            forks: 0,
        }
    }

    /// How many ranks this PL has forked over its lifetime.
    pub fn fork_count(&self) -> u64 {
        self.forks
    }

    /// Restore the lifetime fork counter from a checkpoint.
    pub fn restore_forks(&mut self, forks: u64) {
        self.forks = forks;
    }
}

impl Component<World, Msg> for ProgramLauncher {
    fn handle(&mut self, msg: Msg, ctx: &mut Context<'_, World, Msg>) {
        match msg {
            Msg::Fork { job, attempt } => {
                self.forks += 1;
                ctx.world().metric_inc("pl.forks");
                let (costs, load) = {
                    let w = ctx.world_ref();
                    (w.cfg.daemon, w.cfg.load)
                };
                // fork()+exec() with log-normal OS noise, stretched when a
                // CPU hog is resident.
                let noise = ctx.rng().lognormal_jitter(costs.fork_sigma);
                let fork_span = load.inflate(costs.fork_base.mul_f64(noise));
                let nm = ctx.world_ref().wiring.nms[self.node as usize];
                ctx.send(
                    nm,
                    fork_span,
                    Msg::ForkDone {
                        job,
                        pl: self.pl_index,
                        attempt,
                    },
                );
                // A do-nothing binary exits as soon as it starts; the PL
                // notices after `exit_detect` and notifies its NM. Jobs with
                // real work terminate through the NM's scheduling path
                // instead.
                if ctx.world_ref().job(job).workload.is_empty() {
                    let detect = load.inflate(costs.exit_detect);
                    ctx.send(
                        nm,
                        fork_span + detect,
                        Msg::PlExited {
                            job,
                            pl: self.pl_index,
                            attempt,
                        },
                    );
                }
            }
            other => panic!("PL received unexpected message {other:?}"),
        }
    }

    fn name(&self) -> &str {
        "PL"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}
