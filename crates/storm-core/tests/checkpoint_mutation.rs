//! A checkpoint with one number changed is either refused or restores to
//! a cluster that passes `World::check_invariants` and resumes 100 ms
//! without a panic.
//!
//! Each case replaces one number of the pinned fixture (see
//! `checkpoint_format.rs`) with 0, 1, 7, 99999, 2³²−1 or 2⁶⁴−1. The
//! property test samples such mutations; the full sweep, every number
//! with every value, is ignored by default:
//! `cargo test --release -p storm-core --test checkpoint_mutation -- --ignored --nocapture`.
//!
//! Both hold for release builds only. With debug assertions on, about 100
//! of the sweep's mutations (mostly 2⁶⁴−1 in a time or counter) trip
//! integer-overflow checks and `debug_assert!`s that release builds
//! compile out; restore does not yet bound those values (ROADMAP item 2).

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use storm_core::prelude::*;
use storm_core::telemetry::json::{num, parse, render, Value};

const FIXTURE: &str = include_str!("fixtures/ckpt_v5.json");

/// The values every number is replaced with.
const VALUES: [u64; 6] = [0, 1, 7, 99_999, u32::MAX as u64, u64::MAX];

/// The numbers in `v`.
fn count(v: &Value) -> usize {
    match v {
        Value::Num(_) => 1,
        Value::Arr(items) => items.iter().map(count).sum(),
        Value::Obj(members) => members.iter().map(|(_, v)| count(v)).sum(),
        _ => 0,
    }
}

/// Replace the `n`-th number of `v`, in document order, with `to`;
/// `false` if `v` holds no more than `n` numbers. `n` counts down the
/// numbers passed over.
fn replace(v: &mut Value, n: &mut usize, to: u64) -> bool {
    match v {
        Value::Num(_) if *n == 0 => {
            *v = num(to);
            true
        }
        Value::Num(_) => {
            *n -= 1;
            false
        }
        Value::Arr(items) => items.iter_mut().any(|v| replace(v, n, to)),
        Value::Obj(members) => members.iter_mut().any(|(_, v)| replace(v, n, to)),
        _ => false,
    }
}

/// Restore the fixture with its `n`-th number set to `to`: `false` if
/// refused, `true` if the restored cluster passes the invariants and
/// resumes 100 ms. A panic propagates.
fn restores(doc: &Value, n: usize, to: u64) -> bool {
    let mut doc = doc.clone();
    assert!(replace(&mut doc, &mut { n }, to), "number {n} exists");
    let Ok(mut cluster) = Cluster::restore(&render(&doc)) else {
        return false;
    };
    if let Err(e) = cluster.world().check_invariants() {
        panic!("number {n} = {to} restored, but {e}");
    }
    cluster.run_until(cluster.now() + SimSpan::from_millis(100));
    true
}

proptest! {
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release builds only (see the file's doc)")]
    fn a_mutated_number_is_refused_or_restores_consistent(
        pick in any::<u64>(),
        to in prop::sample::select(VALUES.to_vec()),
    ) {
        let doc = parse(FIXTURE).unwrap();
        let n = (pick % count(&doc) as u64) as usize;
        restores(&doc, n, to);
    }
}

#[test]
#[ignore = "every number × six values; run in release mode with --ignored"]
fn every_mutated_number_is_refused_or_restores_consistent() {
    let doc = parse(FIXTURE).unwrap();
    let numbers = count(&doc);
    let (mut refused, mut restored, mut panics) = (0, 0, Vec::new());
    for n in 0..numbers {
        for to in VALUES {
            match catch_unwind(AssertUnwindSafe(|| restores(&doc, n, to))) {
                Ok(false) => refused += 1,
                Ok(true) => restored += 1,
                Err(_) => panics.push((n, to)),
            }
        }
    }
    println!(
        "{numbers} numbers × {} values: {refused} refused, {restored} restored, {} panicked",
        VALUES.len(),
        panics.len()
    );
    assert!(panics.is_empty(), "panicked (number, value): {panics:?}");
}
