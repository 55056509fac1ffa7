//! Corrupt checkpoints are refused with an `Err`, never a panic or an
//! abort. Each test changes one value of the pinned fixture (see
//! `checkpoint_format.rs`) and restores the result.

use storm_core::prelude::*;
use storm_core::telemetry::json::{num, parse, render, Value};

const FIXTURE: &str = include_str!("fixtures/ckpt_v5.json");

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
    *at(&mut doc, "engine.msgs.slots.2.1") = Value::Arr(vec![Value::Str("warp".into())]);
    let err = Cluster::restore(&render(&doc)).err().expect("refused");
    assert_eq!(
        err,
        r#"engine.msgs.slots[2][1]: unknown message tag "warp""#
    );
}

#[test]
fn oversized_layout_counts_are_refused_before_allocating() {
    for key in ["nodes", "cpus_per_node", "mpl_max", "mm_standbys"] {
        let path = format!("config.{key}");
        let mut doc = parse(FIXTURE).unwrap();
        *at(&mut doc, &path) = num(u32::MAX);
        let err = Cluster::restore(&render(&doc)).err().expect("refused");
        assert!(
            err.contains("does not match the checkpoint's"),
            "{key}: {err}"
        );
    }
}

#[test]
fn an_unallocatable_arena_reserve_is_refused() {
    refused(
        set("engine.msgs.reserve", num(u32::MAX)),
        "engine: msgs: reserve 4294967295",
    );
}

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
    // Entry 1 is a group delivery whose payload lives in group slot 1.
    refused(
        set("engine.groups.slots.1.1.targets.1", num(99_999)),
        "is not a pending delivery",
    );
}

#[test]
fn a_message_for_the_wrong_daemon_kind_is_refused() {
    // Entry 3 delivers the pending `mm_watchdog` (msgs slot 2) to a
    // standby MM; component 1 is node 0's NM, which would panic on it.
    refused(
        set("engine.entries.3.3", num(1)),
        "engine.entries[3]: MM message mm_watchdog addressed to NM #1",
    );
    // Entry 1 is a fragment fan-out over group slot 1: its first member
    // moved onto the MM (component 0), or its message swapped for a tick.
    refused(
        set("engine.groups.slots.1.1.targets.1", num(0)),
        "engine.entries[1]: group delivery of fragment reaches MM #0",
    );
    refused(
        set(
            "engine.groups.slots.1.1.msg",
            Value::Arr(vec![Value::Str("tick".into())]),
        ),
        "engine.entries[1]: MM message tick in a group delivery",
    );
}

#[test]
fn a_free_list_index_out_of_range_is_refused() {
    refused(
        set("engine.msgs.free.0", num(99_999)),
        "free-list entry 99999 does not name an empty slot",
    );
}

#[test]
fn a_free_list_entry_naming_a_live_slot_is_refused() {
    // Slot 2 holds the pending `mm_watchdog` message.
    refused(
        set("engine.msgs.free.0", num(2)),
        "free-list entry 2 does not name an empty slot",
    );
}

#[test]
fn a_queue_entry_with_a_stale_payload_generation_is_refused() {
    refused(
        set("engine.entries.0.5", num(8)),
        "is not a pending delivery",
    );
}

#[test]
fn an_nm_out_of_its_wiring_position_is_refused() {
    refused(
        set("nms.3.0", num(5)),
        "nms[3].node: 5 is not its wiring position",
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
    // The fixture has jobs 0 and 1. Entry 2 delivers the `bcast_freed`
    // in msgs slot 9 to the MM; entry 1 is the fragment fan-out in group
    // slot 1.
    refused(
        set("engine.msgs.slots.9.1.1", num(7)),
        "engine.entries[2]: bcast_freed message names job 7, which has no record",
    );
    refused(
        set("engine.groups.slots.1.1.msg.1", num(7)),
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
fn an_allocation_off_its_cpus_or_its_matrix_placement_is_refused() {
    for rpn in [0, 5, 99_999] {
        refused(
            set("world.jobs.0.allocation.ranks_per_node", num(rpn)),
            &format!("world.jobs[0].allocation.ranks_per_node: {rpn} is outside 1..=4"),
        );
    }
    refused(
        set("world.jobs.1.allocation.nodes_end", num(4)),
        "world.jobs[1]: the matrix places it at slot 0, nodes 0..2 but its live allocation \
         is slot 0, nodes 0..4",
    );
    refused(
        set("world.jobs.1.allocation.slot", num(1)),
        "its live allocation is slot 1, nodes 0..2",
    );
    // A finished job keeps its allocation but leaves the matrix.
    refused(
        set("world.jobs.1.state", Value::Str("completed".into())),
        "world.jobs[1]: the matrix places it at slot 0, nodes 0..2 but its live allocation \
         is none",
    );
}

#[test]
fn a_slot_member_with_no_job_record_is_refused() {
    refused(
        set("world.matrix.slots.0.jobs.1.0", num(7)),
        "world.matrix: slot 0 places job 7, which has no record",
    );
}

#[test]
fn a_placement_off_its_buddy_tree_is_refused() {
    // Job 1 moved to nodes 2..4 in the matrix and in its record alike:
    // the two agree, but slot 0's buddy tree still allocates 0..2.
    refused(
        |doc| {
            set("world.matrix.slots.0.jobs.1.1", num(2))(doc);
            set("world.matrix.slots.0.jobs.1.2", num(4))(doc);
            set("world.jobs.1.allocation.nodes_start", num(2))(doc);
            set("world.jobs.1.allocation.nodes_end", num(4))(doc);
        },
        "matrix_consistency: world.matrix: slot 0: placements [2..4, 4..8] are not the buddy \
         allocations [0..2, 4..8]",
    );
}

#[test]
fn a_quarantine_the_buddy_trees_do_not_hold_is_refused() {
    refused(
        set("world.matrix.quarantined", Value::Arr(vec![num(3)])),
        "quarantine_safety: world.matrix: slot 0: the buddy quarantines [], the matrix {3}",
    );
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
        truncate("world.mech.memory.vars.3", 6),
        "shape: world.mech.memory.vars[3]: 6 entries, row 0 has 7",
    );
    refused(
        set("world.mech.memory.nodes", num(7)),
        "shape: world.mech.memory.nodes: 7 for 8 nodes",
    );
}

#[test]
fn a_per_replica_table_of_the_wrong_length_is_refused() {
    // The fixture runs a primary and two standbys.
    for table in ["mm_replicas", "mm_roles", "mm_failed", "mm_failed_at"] {
        refused(
            truncate(format!("world.{table}"), 2),
            &format!("shape: world.{table}: 2 entries for 3 MM replicas"),
        );
    }
}

#[test]
fn a_variable_outside_global_memory_is_refused() {
    // Global memory holds 7 variables on every node.
    for (path, want) in [
        ("world.hb_var", "world.hb_var: variable 7"),
        ("world.mm_epoch_var", "world.mm_epoch_var: variable 7"),
        (
            "world.jobs.0.transfer.written_var",
            "world.jobs[0].transfer.written_var: variable 7",
        ),
    ] {
        refused(set(path, num(7)), want);
    }
}

#[test]
fn an_mm_out_of_its_rank_position_is_refused() {
    refused(
        set("mms.2.rank", num(7)),
        "mms[2].rank: 7 is not its position",
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
fn a_matrix_slot_that_does_not_replay_is_refused() {
    refused(
        set("world.matrix.slots.0.buddy.allocated.1.0", num(1)),
        "world.matrix: slot 0: allocation (1, 2) does not replay",
    );
    refused(
        set("world.matrix.slots.0.buddy.usable", num(7)),
        "world.matrix: slot 0: 7 usable nodes of 8",
    );
    refused(set("world.matrix.nodes", num(7)), "-slot matrix");
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
