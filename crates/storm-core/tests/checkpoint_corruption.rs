//! Corrupt checkpoints are refused with an `Err`, never a panic or an
//! abort. Each test changes one value of the pinned fixture (see
//! `checkpoint_format.rs`) and restores the result.

use storm_core::prelude::*;
use storm_core::telemetry::json::{num, parse, render, Value};

const FIXTURE: &str = include_str!("fixtures/ckpt_v3.json");

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

#[test]
fn a_wrong_rng_stream_count_is_refused() {
    refused(
        |doc| {
            let Value::Arr(streams) = at(doc, "engine.streams") else {
                panic!("streams is an array")
            };
            streams.pop();
        },
        "RNG streams for 75 components",
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
        set("nms.3.node", num(5)),
        "nms[3].node: 5 is not its wiring position",
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
