//! Corrupt checkpoints are refused with an `Err`, never a panic or an
//! abort. Each test changes one value of the pinned fixture (see
//! `checkpoint_format.rs`) and restores the result.

use storm_core::prelude::*;
use storm_core::telemetry::json::{num, parse, render, Value};

const FIXTURE: &str = include_str!("fixtures/ckpt_v9.json");

/// The value at a dotted path of object keys and array indices.
fn at<'a>(doc: &'a mut Value, path: &str) -> &'a mut Value {
    path.split('.').fold(doc, |v, seg| match v {
        Value::Obj(members) => {
            &mut members
                .iter_mut()
                .find(|(k, _)| k == seg)
                .unwrap_or_else(|| panic!("no member {seg}"))
                .1
        }
        Value::Arr(items) => &mut items[seg.parse::<usize>().expect("array index")],
        _ => panic!("{seg}: not a container"),
    })
}

/// Restore the fixture with `edit` applied, expecting an error that
/// contains `want`.
fn refused(edit: impl FnOnce(&mut Value), want: &str) {
    let mut doc = parse(FIXTURE).expect("fixture parses");
    edit(&mut doc);
    match Cluster::restore(&render(&doc)) {
        Ok(_) => panic!("restored a corrupt checkpoint (expected: {want})"),
        Err(e) => assert!(e.contains(want), "error {e:?} does not mention {want:?}"),
    }
}

fn set(path: &'static str, value: Value) -> impl FnOnce(&mut Value) {
    move |doc| *at(doc, path) = value
}

/// Cut the array at `path` to its first `len` items.
fn truncate(path: impl AsRef<str>, len: usize) -> impl FnOnce(&mut Value) {
    move |doc| match at(doc, path.as_ref()) {
        Value::Arr(items) => items.truncate(len),
        _ => panic!("{}: not an array", path.as_ref()),
    }
}

#[test]
fn the_fixture_itself_restores() {
    Cluster::restore(FIXTURE).expect("uncorrupted fixture");
}

#[test]
fn decode_errors_name_the_member_path() {
    let mut doc = parse(FIXTURE).unwrap();
    *at(&mut doc, "world.jobs.1.spec.ranks") = Value::Str("8".into());
    let err = Cluster::restore(&render(&doc)).err().expect("refused");
    assert_eq!(err, "world.jobs[1].spec.ranks: expected unsigned integer");

    *at(&mut doc, "world.jobs.1.spec.ranks") = num(4_294_967_298u64);
    let err = Cluster::restore(&render(&doc)).err().expect("refused");
    assert_eq!(err, "world.jobs[1].spec.ranks: integer out of u32 range");

    let mut doc = parse(FIXTURE).unwrap();
    *at(&mut doc, "engine.entries.3.4") = Value::Arr(vec![Value::Str("warp".into())]);
    let err = Cluster::restore(&render(&doc)).err().expect("refused");
    assert_eq!(err, r#"engine.entries[3][4]: unknown message tag "warp""#);
}

#[test]
fn oversized_layout_counts_are_refused_before_allocating() {
    // Each size alone asks for more dæmons than a cluster may register.
    for key in ["nodes", "cpus_per_node", "mpl_max", "mm_standbys"] {
        let path = format!("config.{key}");
        let mut doc = parse(FIXTURE).unwrap();
        *at(&mut doc, &path) = num(u32::MAX);
        let err = Cluster::restore(&render(&doc)).err().expect("refused");
        assert!(
            err.starts_with("embedded config invalid: ")
                && err.ends_with("is more than the 16777216 dæmons a cluster may have"),
            "{key}: {err}"
        );
    }
    // A size within the bound that the document's tables do not match.
    let mut doc = parse(FIXTURE).unwrap();
    *at(&mut doc, "config.nodes") = num(9);
    let err = Cluster::restore(&render(&doc)).err().expect("refused");
    assert!(
        err.contains("does not match the checkpoint's 8 NMs"),
        "{err}"
    );
}

#[test]
fn an_unallocatable_arena_reserve_is_refused() {
    refused(
        set("engine.msgs.reserve", num(u32::MAX)),
        "engine: msgs: reserve 4294967295",
    );
}

// The fixture's pending entries, each `[time, tie, seq, target, msg]` or
// `[time, tie, seq, group]`: 0 a tick and 2 and 5 `bcast_freed`s for the
// MM (component 73), 3 an `mm_watchdog` for standby 74, and 1 and 4 the
// fragment fan-outs of jobs 1 and 0.

// The fixture lists the 8 streams that moved (nodes' NMs, components 1,
// 10, …, 64) of its 75 components, as `[index, state]` rows.

#[test]
fn an_rng_stream_index_past_the_components_is_refused() {
    refused(
        set("engine.streams.7.0", num(75)),
        "engine: RNG stream 75 for 75 components",
    );
}

#[test]
fn a_repeated_rng_stream_index_is_refused() {
    refused(
        set("engine.streams.1.0", num(1)),
        "engine: RNG stream 1 listed after stream 1",
    );
}

#[test]
fn a_descending_rng_stream_pair_is_refused() {
    refused(
        set("engine.streams.1.0", num(0)),
        "engine: RNG stream 0 listed after stream 1",
    );
}

#[test]
fn a_queue_entry_for_an_unknown_component_is_refused() {
    refused(
        set("engine.entries.0.3", num(99_999)),
        "is not a pending delivery",
    );
}

#[test]
fn a_group_member_outside_the_cluster_is_refused() {
    // Entry 1 is a group delivery: a fragment of job 1, made an older
    // attempt's so that it need not address the job's block.
    refused(
        |doc| {
            set("engine.entries.1.3.targets.1", num(99_999))(doc);
            set("engine.entries.1.3.msg.3", num(1))(doc);
        },
        "is not a pending delivery",
    );
}

#[test]
fn a_message_for_the_wrong_daemon_kind_is_refused() {
    // Entry 3 delivers the pending `mm_watchdog` to a standby MM;
    // component 1 is node 0's NM, which would panic on it.
    refused(
        set("engine.entries.3.3", num(1)),
        "engine.entries[3]: MM message mm_watchdog addressed to NM #1",
    );
    // Entry 1 is a fragment fan-out: its first member moved onto the MM
    // (component 0), or its message swapped for a tick.
    refused(
        set("engine.entries.1.3.targets.1", num(0)),
        "engine.entries[1]: group delivery of fragment reaches MM #0",
    );
    refused(
        set(
            "engine.entries.1.3.msg",
            Value::Arr(vec![Value::Str("tick".into())]),
        ),
        "engine.entries[1]: MM message tick in a group delivery",
    );
}

#[test]
fn a_zero_event_collection_period_is_refused() {
    // The MM would tick at a zero period and panic on its first boundary.
    refused(
        set("config.max_event_collect", num(0)),
        "embedded config invalid: max_event_collect must be positive",
    );
}

#[test]
fn a_pending_message_naming_a_job_with_no_record_is_refused() {
    // The fixture has jobs 0 and 1. Entry 2 delivers a `bcast_freed` to
    // the MM; entry 1 is a fragment fan-out.
    refused(
        set("engine.entries.2.4.1", num(7)),
        "engine.entries[2]: bcast_freed message names job 7, which has no record",
    );
    refused(
        set("engine.entries.1.3.msg.1", num(7)),
        "engine.entries[1]: fragment message names job 7, which has no record",
    );
}

#[test]
fn a_job_record_off_its_index_is_refused() {
    refused(
        set("world.jobs.1.id", num(7)),
        "world.jobs[1].id: 7 is not its index",
    );
}

// The fixture's jobs are both transferring in matrix slot 0 of an
// 8-node cluster with 4 CPUs per node: job 0 on nodes 4..8, job 1 on
// nodes 0..2.

#[test]
fn an_allocation_outside_the_cluster_or_empty_is_refused() {
    refused(
        set("world.jobs.0.allocation.nodes_end", num(99_999)),
        "world.jobs[0].allocation: nodes 4..99999 are not a range of the 8 nodes",
    );
    refused(
        set("world.jobs.1.allocation.nodes_start", num(7)),
        "world.jobs[1].allocation: nodes 7..2 are not a range of the 8 nodes",
    );
}

#[test]
fn an_allocation_off_its_cpus_is_refused() {
    for rpn in [0, 5, 99_999] {
        refused(
            set("world.jobs.0.allocation.ranks_per_node", num(rpn)),
            &format!("world.jobs[0].allocation.ranks_per_node: {rpn} is outside 1..=4"),
        );
    }
}

// The matrix image holds only the open slot count and the quarantine set;
// restore carves each live record's allocation back into its slot.

#[test]
fn a_live_block_that_does_not_fit_is_refused() {
    refused(
        set("world.jobs.1.allocation.slot", num(1)),
        "world.jobs[1].allocation: slot 1 is not one of the 1 open slots",
    );
    refused(
        set("world.matrix.slots", num(0)),
        "world.jobs[0].allocation: slot 0 is not one of the 0 open slots",
    );
    refused(
        |doc| {
            set("world.jobs.1.allocation.nodes_start", num(1))(doc);
            set("world.jobs.1.allocation.nodes_end", num(3))(doc);
        },
        "world.jobs[1].allocation: nodes 1..3 are not an aligned power-of-two block",
    );
    refused(
        set("world.jobs.1.allocation.nodes_end", num(3)),
        "world.jobs[1].allocation: nodes 0..3 are not an aligned power-of-two block",
    );
    // Job 0 holds 4..8 and is carved first.
    refused(
        |doc| {
            set("world.jobs.1.allocation.nodes_start", num(4))(doc);
            set("world.jobs.1.allocation.nodes_end", num(6))(doc);
        },
        "world.jobs[1].allocation: nodes 4..6 overlap another job's block in slot 0",
    );
}

#[test]
fn a_fan_out_that_misses_its_jobs_block_is_refused() {
    // Job 1's record moved to nodes 2..4, free in slot 0: the block fits,
    // but the fragment in flight (entry 1) still addresses nodes 0..2, so
    // the transfer would never finish.
    refused(
        |doc| {
            set("world.jobs.1.allocation.nodes_start", num(2))(doc);
            set("world.jobs.1.allocation.nodes_end", num(4))(doc);
        },
        "engine.entries[1]: fragment fan-out of job 1 misses its block Some(2..4)",
    );
}

#[test]
fn a_quarantined_node_inside_a_live_block_is_refused() {
    refused(
        set("world.matrix.quarantined", Value::Arr(vec![num(5)])),
        "world.jobs[0].allocation: nodes 4..8 hold quarantined node 5",
    );
    // Node 3 is in no block: quarantining it is a consistent edit.
    let mut doc = parse(FIXTURE).unwrap();
    *at(&mut doc, "world.matrix.quarantined") = Value::Arr(vec![num(3)]);
    let c = Cluster::restore(&render(&doc)).expect("node 3 is free in slot 0");
    assert!(c.world().matrix.is_quarantined(3));
}

#[test]
fn a_bad_quarantine_list_is_refused() {
    let list = |nodes: &[u64]| Value::Arr(nodes.iter().map(|&n| num(n)).collect());
    for (nodes, want) in [
        (
            &[8][..],
            "world.matrix: quarantined node 8 is outside the 8 nodes",
        ),
        (
            &[3, 3],
            "world.matrix: quarantined node 3 is listed after node 3",
        ),
        (
            &[3, 1],
            "world.matrix: quarantined node 1 is listed after node 3",
        ),
    ] {
        refused(set("world.matrix.quarantined", list(nodes)), want);
    }
}

#[test]
fn a_completed_count_off_the_terminal_jobs_is_refused() {
    refused(
        set("world.stats.completed_jobs", num(1)),
        "job_accounting: world.stats.completed_jobs: 1 but 0 jobs are terminal",
    );
}

#[test]
fn a_heartbeat_ahead_of_the_round_is_refused() {
    // Variable 1 is the heartbeat counter; the MM is in round 11.
    refused(
        set("world.mech.memory.vars.7.1", num(99)),
        "heartbeat_monotonic: node 7 heartbeat 99 is ahead of world.hb_round 11",
    );
}

#[test]
fn a_per_node_table_of_the_wrong_length_is_refused() {
    // Without the shape check these restore, then panic on resume (the
    // node table, the variable rows) or run on inconsistent state.
    for (path, want) in [
        ("world.nodes", "world.nodes: 7 rows for 8 nodes"),
        (
            "world.mech.memory.vars",
            "world.mech.memory.vars: 7 rows for 8 nodes",
        ),
        (
            "world.mech.memory.events",
            "world.mech.memory.events: 7 rows for 8 nodes",
        ),
    ] {
        refused(truncate(path, 7), &format!("shape: {want}"));
    }
    refused(
        truncate("world.mech.memory.vars.3", 3),
        "shape: world.mech.memory.vars[3]: 3 entries, row 0 has 4",
    );
    refused(
        set("world.mech.memory.nodes", num(7)),
        "shape: world.mech.memory.nodes: 7 for 8 nodes",
    );
}

#[test]
fn a_per_replica_table_of_the_wrong_length_is_refused() {
    // The fixture runs a primary and two standbys.
    for table in ["mm_replicas", "mm_roles"] {
        refused(
            truncate(format!("world.{table}"), 2),
            &format!("shape: world.{table}: 2 entries for 3 MM replicas"),
        );
    }
}

// Rank 2 stands by at the active's log position, record 28.

#[test]
fn a_standby_at_the_actives_position_with_another_digest_is_refused() {
    refused(
        set("world.mm_replicas.2.digest", num(7)),
        "repl_consistency: standby 2 is at the active's log position 28 but diverged",
    );
}

#[test]
fn a_standby_past_the_actives_position_is_refused() {
    refused(
        set("world.mm_replicas.2.log_len", num(29)),
        "repl_consistency: standby 2 is ahead of the active: at record 29 of 28",
    );
}

#[test]
fn an_active_rank_that_is_no_live_leader_is_refused() {
    // Rank 0 failed and rank 1 took over in epoch 1; rank 2 stands by.
    refused(
        set("world.mm_active_rank", num(7)),
        "shape: world.mm_active_rank: 7 for 3 MM replicas",
    );
    refused(
        set(
            "world.mm_roles.1",
            Value::Arr(vec![Value::Str("standby".into())]),
        ),
        "single_active_mm: world.mm_active_rank 1 is a standby in epoch 1",
    );
    refused(
        set("world.mm_active_rank", num(2)),
        "single_active_mm: rank 1 is Active but world.mm_active_rank is 2",
    );
}

#[test]
fn a_variable_outside_global_memory_is_refused() {
    // Global memory holds 4 variables on every node: the epoch fence (0),
    // the heartbeat counter (1) and the two jobs' flow-control counters.
    for (path, want) in [
        ("world.hb_var", "world.hb_var: variable 4"),
        ("world.mm_epoch_var", "world.mm_epoch_var: variable 4"),
        (
            "world.jobs.0.transfer.written_var",
            "world.jobs[0].transfer.written_var: variable 4",
        ),
    ] {
        refused(set(path, num(4)), want);
    }
}

/// Give every node's variable row a fifth variable, free to list.
fn add_a_variable(doc: &mut Value) {
    for n in 0..8 {
        match at(doc, &format!("world.mech.memory.vars.{n}")) {
            Value::Arr(row) => row.push(num(0)),
            _ => panic!("a variable row is an array"),
        }
    }
}

#[test]
fn a_free_variable_past_the_variable_count_is_refused() {
    refused(
        set("world.mech.memory.free_vars", Value::Arr(vec![num(4)])),
        "references: world.mech.memory.free_vars: variable 4 is outside the 4",
    );
}

#[test]
fn a_free_variable_listed_twice_is_refused() {
    let free = |vars: &[u64]| Value::Arr(vars.iter().map(|&v| num(v)).collect());
    let mut doc = parse(FIXTURE).unwrap();
    add_a_variable(&mut doc);
    *at(&mut doc, "world.mech.memory.free_vars") = free(&[4]);
    Cluster::restore(&render(&doc)).expect("a fifth variable, free once, restores");
    refused(
        |doc| {
            add_a_variable(doc);
            *at(doc, "world.mech.memory.free_vars") = free(&[4, 4]);
        },
        "references: world.mech.memory.free_vars: variable 4 is listed twice",
    );
}

#[test]
fn a_free_variable_still_in_use_is_refused() {
    for (var, owner) in [
        (0, "world.mm_epoch_var"),
        (1, "world.hb_var"),
        (2, "world.jobs[0].transfer.written_var"),
        (3, "world.jobs[1].transfer.written_var"),
    ] {
        refused(
            set("world.mech.memory.free_vars", Value::Arr(vec![num(var)])),
            &format!("references: {owner}: variable {var} is on the free list"),
        );
    }
}

#[test]
fn two_jobs_sharing_a_flow_control_variable_is_refused() {
    refused(
        set("world.jobs.1.transfer.written_var", num(2)),
        "references: world.jobs[1].transfer.written_var: variable 2 is already in use",
    );
}

#[test]
fn a_report_from_outside_the_allocation_is_refused() {
    // Job 0 holds nodes 4..8 of the 8.
    let nodes = |list: &[u64]| Value::Arr(list.iter().map(|&n| num(n)).collect());
    refused(
        set("world.jobs.0.reported_started", nodes(&[3, 5])),
        "references: world.jobs[0].reported_started: node 3 is outside the allocation 4..8",
    );
    refused(
        set("world.jobs.1.reported_done", nodes(&[1, 2])),
        "references: world.jobs[1].reported_done: node 2 is outside the allocation 0..2",
    );
    // A node past the cluster is refused before its bitmap is built.
    refused(
        set(
            "world.jobs.0.reported_done",
            nodes(&[4, u64::from(u32::MAX)]),
        ),
        "world.jobs[0].reported_done: node 4294967295 is outside the 8 nodes",
    );
}

#[test]
fn an_event_cap_below_the_events_handled_is_refused() {
    refused(
        set("engine.max_events", num(7)),
        "engine.max_events: 7 is below the 631 events already handled",
    );
}

#[test]
fn truncated_checkpoints_are_refused() {
    for cut in (0..FIXTURE.len()).step_by(97) {
        assert!(Cluster::restore(&FIXTURE[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn a_matrix_off_the_layout_is_refused_before_allocating() {
    // The fixture's `mpl_max` is 2.
    for slots in [3, u64::MAX] {
        refused(
            set("world.matrix.slots", num(slots)),
            &format!("{slots}-slot matrix"),
        );
    }
    refused(set("world.matrix.nodes", num(7)), "1-slot matrix");
}

#[test]
fn extreme_delivery_order_bounds_restore_and_run() {
    for path in [
        "config.delivery_order.mode.2",
        "config.delivery_order.max_delay",
        "engine.order.mode.2",
        "engine.order.max_delay",
    ] {
        let mut doc = parse(FIXTURE).unwrap();
        *at(&mut doc, path) = num(u64::MAX);
        let mut cluster = Cluster::restore(&render(&doc)).expect(path);
        cluster.run_until(SimTime::from_millis(50));
    }
}
