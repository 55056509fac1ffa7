//! Cross-crate property-based tests (proptest): invariants that must hold
//! for *arbitrary* configurations and job streams, not just the paper's.

use proptest::prelude::*;
use storm::core::prelude::*;
use storm::core::{BuddyAllocator, GangMatrix};
use storm::mech::{NodeId, NodeSet};
use storm::sim::{ComponentId, GroupTargets};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any launchable job completes, its fragments cover the binary
    /// exactly, and the metric timeline is ordered.
    #[test]
    fn launch_completes_with_ordered_timeline(
        nodes in 1u32..=64,
        mb in 1u64..=16,
        seed in 0u64..1_000,
        chunk_kb in prop::sample::select(vec![64u64, 128, 256, 512, 1024]),
        slots in 2u32..=8,
    ) {
        let ranks = nodes; // 1 rank/node keeps every size feasible
        let cfg = ClusterConfig::paper_cluster()
            .with_nodes(nodes)
            .with_transfer_protocol(chunk_kb * 1024, slots)
            .with_seed(seed);
        let mut c = Cluster::new(cfg);
        let j = c.submit(JobSpec::new(AppSpec::do_nothing_mb(mb), ranks));
        c.run_until_idle();
        let rec = c.job(j);
        prop_assert_eq!(rec.state, JobState::Completed);
        let m = &rec.metrics;
        let seq = [
            m.submitted.unwrap(),
            m.transfer_start.unwrap(),
            m.transfer_done.unwrap(),
            m.launch_cmd.unwrap(),
            m.completed.unwrap(),
        ];
        prop_assert!(seq.windows(2).all(|w| w[0] <= w[1]), "timeline {seq:?}");
        // Byte conservation across the chunking.
        let t = &rec.transfer;
        let chunk = c.world().cfg.chunk_bytes;
        let covered = u64::from(t.total_chunks - 1) * chunk
            + t.chunk_bytes(t.total_chunks - 1, chunk);
        prop_assert_eq!(covered, mb * 1_000_000);
        prop_assert_eq!(c.world().stats.fragments, u64::from(t.total_chunks));
    }

    /// The buddy allocator never double-allocates, never loses nodes, and
    /// its free count is exact under arbitrary alloc/free interleavings.
    #[test]
    fn buddy_is_exact_under_arbitrary_interleavings(
        total_log in 1u32..=8,
        ops in prop::collection::vec((0u8..=1, 0u32..=8), 1..200),
    ) {
        let total = 1u32 << total_log;
        let mut buddy = BuddyAllocator::new(total);
        let mut live: Vec<std::ops::Range<u32>> = Vec::new();
        for (op, arg) in ops {
            if op == 0 {
                let want = (1u32 << (arg % 6)).min(total);
                if let Some(r) = buddy.alloc(want) {
                    for l in &live {
                        prop_assert!(r.end <= l.start || l.end <= r.start,
                            "overlap {r:?} vs {l:?}");
                    }
                    prop_assert!(r.end <= total);
                    live.push(r);
                }
            } else if !live.is_empty() {
                let idx = (arg as usize) % live.len();
                let r = live.swap_remove(idx);
                buddy.free(r.start);
            }
            let live_total: u32 = live.iter().map(|r| r.len() as u32).sum();
            prop_assert_eq!(buddy.free_nodes(), total - live_total);
        }
    }

    /// Send time is monotone (within noise) in binary size for any cluster
    /// size — the Fig. 2 proportionality, generalised.
    #[test]
    fn send_time_monotone_in_binary_size(
        nodes in prop::sample::select(vec![2u32, 8, 32, 64]),
        seed in 0u64..100,
    ) {
        let send = |mb: u64| {
            let mut c = Cluster::new(
                ClusterConfig::paper_cluster().with_nodes(nodes).with_seed(seed),
            );
            let j = c.submit(JobSpec::new(AppSpec::do_nothing_mb(mb), nodes));
            c.run_until_idle();
            c.job(j).metrics.send_span().unwrap().as_millis_f64()
        };
        let (a, b, c_) = (send(2), send(6), send(12));
        prop_assert!(a < b && b < c_, "sends {a:.1} {b:.1} {c_:.1}");
    }

    /// Under any feasible quantum, a gang-scheduled job's measured runtime
    /// never beats its intrinsic workload span, and overhead stays small.
    #[test]
    fn gang_overhead_is_bounded(
        quantum_ms in prop::sample::select(vec![1u64, 2, 10, 50, 200]),
        secs in 1u64..=6,
        nodes in prop::sample::select(vec![2u32, 8, 16]),
        seed in 0u64..100,
    ) {
        let cfg = ClusterConfig::gang_cluster()
            .with_nodes(nodes)
            .with_timeslice(SimSpan::from_millis(quantum_ms))
            .with_seed(seed);
        let mut c = Cluster::new(cfg);
        let j = c.submit(
            JobSpec::new(
                AppSpec::Synthetic { compute: SimSpan::from_secs(secs) },
                nodes * 2,
            )
            .with_ranks_per_node(2),
        );
        c.run_until_idle();
        let turnaround = c.job(j).metrics.turnaround().unwrap().as_secs_f64();
        let work = secs as f64;
        prop_assert!(turnaround >= work, "cannot finish faster than the work");
        prop_assert!(
            turnaround < work * 1.15 + 1.0,
            "overhead bounded: {turnaround:.2} s for {work} s of work"
        );
    }

    /// Quarantine/rejoin invariants (S4): `alloc` never returns a
    /// quarantined node, free-node accounting stays exact while nodes are
    /// out, and capacity after every quarantined node rejoins equals the
    /// capacity before the failures.
    #[test]
    fn buddy_never_allocates_quarantined_nodes(
        total_log in 1u32..=8,
        ops in prop::collection::vec((0u8..=3, 0u32..=255), 1..200),
    ) {
        let total = 1u32 << total_log;
        let mut buddy = BuddyAllocator::new(total);
        let capacity_before = buddy.free_nodes();
        let mut live: Vec<std::ops::Range<u32>> = Vec::new();
        let mut out: Vec<u32> = Vec::new();
        for (op, arg) in ops {
            match op {
                0 => {
                    let want = (1u32 << (arg % 6)).min(total);
                    if let Some(r) = buddy.alloc(want) {
                        for q in &out {
                            prop_assert!(!r.contains(q),
                                "alloc {r:?} returned quarantined node {q}");
                        }
                        live.push(r);
                    }
                }
                1 => {
                    if !live.is_empty() {
                        let idx = (arg as usize) % live.len();
                        let r = live.swap_remove(idx);
                        buddy.free(r.start);
                    }
                }
                2 => {
                    let node = arg % total;
                    if buddy.quarantine(node) {
                        out.push(node);
                    }
                }
                _ => {
                    if !out.is_empty() {
                        let idx = (arg as usize) % out.len();
                        let node = out.swap_remove(idx);
                        prop_assert!(buddy.rejoin(node));
                    }
                }
            }
            let live_total: u32 = live.iter().map(|r| r.len() as u32).sum();
            prop_assert_eq!(
                buddy.free_nodes(),
                total - live_total - out.len() as u32,
                "free-node accounting with {} node(s) quarantined", out.len()
            );
        }
        // Drain everything: after all rejoins + frees, full capacity is back.
        for r in live.drain(..) {
            buddy.free(r.start);
        }
        for node in out.drain(..) {
            prop_assert!(buddy.rejoin(node));
        }
        prop_assert_eq!(buddy.free_nodes(), capacity_before);
        prop_assert!(buddy.alloc(total).is_some(), "full-width block re-forms");
    }

    /// The gang matrix honours quarantine across slots: after evicting
    /// victims and quarantining a node, no placement ever includes it, and
    /// rejoin restores full-machine placement.
    #[test]
    fn matrix_placements_avoid_quarantined_node(
        nodes_log in 2u32..=6,
        victim in 0u32..=63,
        sizes in prop::collection::vec(0u32..=4, 1..12),
    ) {
        let nodes = 1u32 << nodes_log;
        let victim = victim % nodes;
        let mut m = GangMatrix::new(nodes, 4);
        prop_assert!(m.quarantine_node(victim));
        let mut placed = Vec::new();
        for (i, s) in sizes.iter().enumerate() {
            let want = (1u32 << (s % 5)).min(nodes);
            if let Some((slot, range)) = m.place(JobId(i as u32), want) {
                prop_assert!(!range.contains(&victim),
                    "slot {slot} placement {range:?} includes quarantined {victim}");
                placed.push(JobId(i as u32));
            }
        }
        prop_assert!(!m.fits(nodes), "full-width cannot fit minus one node");
        for j in placed {
            m.remove(j);
        }
        prop_assert!(m.rejoin_node(victim));
        prop_assert!(m.fits(nodes), "full capacity restored after rejoin");
    }

    /// After every allocation is freed — in arbitrary order — the buddy
    /// tree must have coalesced all the way back: the free count equals the
    /// full capacity *and* a full-width block can be carved again, which
    /// only works if every split pair merged.
    #[test]
    fn buddy_coalesces_back_to_the_full_tree(
        total_log in 1u32..=8,
        sizes in prop::collection::vec(0u32..=6, 1..32),
        free_order in prop::collection::vec(0u32..=255, 32..33),
    ) {
        let total = 1u32 << total_log;
        let mut buddy = BuddyAllocator::new(total);
        let mut live: Vec<std::ops::Range<u32>> = Vec::new();
        for s in sizes {
            let want = (1u32 << (s % 6)).min(total);
            if let Some(r) = buddy.alloc(want) {
                live.push(r);
            }
        }
        for pick in free_order {
            if live.is_empty() {
                break;
            }
            let r = live.swap_remove(pick as usize % live.len());
            buddy.free(r.start);
        }
        for r in live.drain(..) {
            buddy.free(r.start);
        }
        prop_assert_eq!(buddy.free_nodes(), total);
        prop_assert_eq!(buddy.alloc(total), Some(0..total), "full block re-forms");
    }

    /// Degenerate requests are rejected without disturbing the tree: a
    /// zero-node request and any request wider than the machine both return
    /// `None` and leave the free count untouched — at any fill level.
    #[test]
    fn buddy_rejects_zero_and_oversized_requests(
        total_log in 0u32..=8,
        sizes in prop::collection::vec(0u32..=6, 0..8),
        over in 1u32..=1024,
    ) {
        let total = 1u32 << total_log;
        let mut buddy = BuddyAllocator::new(total);
        for s in sizes {
            let _ = buddy.alloc((1u32 << (s % 6)).min(total));
        }
        let before = buddy.free_nodes();
        prop_assert_eq!(buddy.alloc(0), None, "zero-node request");
        prop_assert_eq!(buddy.alloc(total + over), None, "oversized request");
        prop_assert_eq!(buddy.free_nodes(), before, "rejections are side-effect free");
    }

    /// `can_alloc` answers exactly what `alloc` would, without touching
    /// the tree: after every step of a random run of allocations, frees,
    /// quarantines and rejoins over a width that need not be a power of
    /// two, for every request from zero nodes to wider than the machine.
    #[test]
    fn buddy_can_alloc_matches_alloc(
        total in 1u32..=40,
        ops in prop::collection::vec((0u8..4, 0u32..=64), 0..48),
    ) {
        let mut buddy = BuddyAllocator::new(total);
        let mut live: Vec<u32> = Vec::new();
        let mut out: Vec<u32> = Vec::new();
        for (op, arg) in ops {
            match op {
                0 => live.extend(buddy.alloc(arg % total + 1).map(|r| r.start)),
                1 if !live.is_empty() => buddy.free(live.swap_remove(arg as usize % live.len())),
                2 if buddy.quarantine(arg % total) => out.push(arg % total),
                3 if !out.is_empty() => {
                    prop_assert!(buddy.rejoin(out.swap_remove(arg as usize % out.len())));
                }
                _ => {}
            }
            let free = buddy.free_nodes();
            for count in 0..=total + 2 {
                prop_assert_eq!(
                    buddy.can_alloc(count),
                    buddy.clone().alloc(count).is_some(),
                    "{} of {} nodes, {:?} quarantined", count, total, out
                );
            }
            prop_assert_eq!(buddy.free_nodes(), free, "fit tests change nothing");
        }
    }

    /// `GangMatrix::fits` answers exactly what `place` would — existing
    /// slots and a fresh one under the quarantine alike — after every
    /// step of a random run of placements, removals, quarantines and
    /// rejoins, at widths that need not be powers of two, for every
    /// request from zero nodes to wider than the cluster.
    #[test]
    fn matrix_fits_matches_place(
        nodes in 1u32..=40,
        mpl in 1usize..=3,
        ops in prop::collection::vec((0u8..4, 0u32..=64), 0..48),
    ) {
        let mut m = GangMatrix::new(nodes, mpl);
        let mut placed: Vec<JobId> = Vec::new();
        for (i, (op, arg)) in ops.into_iter().enumerate() {
            match op {
                0 => {
                    let job = JobId(i as u32);
                    if m.place(job, arg % nodes + 1).is_some() {
                        placed.push(job);
                    }
                }
                1 if !placed.is_empty() => {
                    let job = placed.swap_remove(arg as usize % placed.len());
                    prop_assert!(m.remove(job).is_some());
                }
                2 => {
                    m.quarantine_node(arg % nodes);
                }
                _ => {
                    m.rejoin_node(arg % nodes);
                }
            }
            let before = m.export_state();
            for need in 0..=nodes + 2 {
                prop_assert_eq!(
                    m.fits(need),
                    m.clone().place(JobId(u32::MAX), need).is_some(),
                    "{} nodes on {:?}", need, before
                );
            }
            prop_assert_eq!(m.export_state(), before, "fit tests change nothing");
        }
    }

    /// The allocation-free `NodeSet` iterator must agree exactly with the
    /// naive expansion through `get(rank)` — for every variant, including
    /// the empty and single-node edges — and `len`/`contains` must tell
    /// the same story.
    #[test]
    fn node_set_iteration_matches_naive_expansion(
        variant in 0u8..=2,
        n in 0u32..=64,
        start in 0u32..=1000,
        raw in prop::collection::vec(0u32..=100, 0..32),
    ) {
        let set = match variant {
            0 => NodeSet::All(n),
            1 => NodeSet::Range { start, len: n },
            _ => NodeSet::from_list(raw.iter().map(|&i| NodeId(i)).collect()),
        };
        let naive: Vec<NodeId> = (0..set.len()).map(|rank| set.get(rank)).collect();
        let iterated: Vec<NodeId> = set.iter().collect();
        prop_assert_eq!(&iterated, &naive, "iterator vs get(rank) expansion");
        prop_assert_eq!(iterated.len(), set.len() as usize);
        prop_assert_eq!(set.is_empty(), iterated.is_empty());
        prop_assert!(
            iterated.windows(2).all(|w| w[0] < w[1]),
            "ascending, duplicate-free order"
        );
        for &node in &iterated {
            prop_assert!(set.contains(node), "iterated member {node:?} not contained");
        }
        // Probe a few non-members too: contains must not over-approximate.
        for probe in 0..=1101 {
            let node = NodeId(probe);
            prop_assert_eq!(
                set.contains(node),
                naive.contains(&node),
                "contains({probe}) disagrees with the expansion"
            );
        }
    }

    /// `GroupTargets::get` must enumerate exactly the arithmetic
    /// progression (strided) or the backing list, for every rank — the
    /// engine delivers group messages by ranked lookup, so an off-by-one
    /// here would misroute a fan-out. Empty and single-recipient edges
    /// included.
    #[test]
    fn group_targets_ranked_lookup_matches_naive_expansion(
        first in 0u32..=1000,
        stride in 0u32..=64,
        len in 0u32..=64,
        raw in prop::collection::vec(0u32..=10_000, 0..32),
    ) {
        let strided = GroupTargets::Strided {
            first: ComponentId::from_index(first),
            stride,
            len,
        };
        prop_assert_eq!(strided.len(), len);
        prop_assert_eq!(strided.is_empty(), len == 0);
        for rank in 0..len {
            prop_assert_eq!(
                strided.get(rank),
                ComponentId::from_index(first + stride * rank)
            );
        }

        let ids: Vec<ComponentId> = raw.iter().map(|&i| ComponentId::from_index(i)).collect();
        let list = GroupTargets::List(ids.clone().into());
        prop_assert_eq!(list.len() as usize, ids.len());
        prop_assert_eq!(list.is_empty(), ids.is_empty());
        for (rank, &id) in ids.iter().enumerate() {
            prop_assert_eq!(list.get(rank as u32), id, "rank {rank}");
        }
    }

    /// Killing a job at an arbitrary instant always terminates the cluster
    /// cleanly with the job in the Killed (or already Completed) state.
    #[test]
    fn kill_is_always_clean(
        kill_ms in 1u64..3_000,
        seed in 0u64..100,
    ) {
        let mut c = Cluster::new(ClusterConfig::paper_cluster().with_seed(seed));
        let hog = c.submit(JobSpec::new(AppSpec::SpinLoop, 64));
        c.kill_at(SimTime::from_millis(kill_ms), hog);
        c.run_until_idle();
        let st = c.job(hog).state;
        prop_assert!(st == JobState::Killed, "state {st:?}");
    }
}
