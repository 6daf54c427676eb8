//! Skeleton calls spawn no thread once the process-wide pool is warm —
//! not even from contexts created per call, as the serving layers do.
//!
//! The only test of this binary on purpose: the thread count it reads is
//! the whole process's, so a neighbour test running in parallel would
//! show up in it.

#![cfg(target_os = "linux")]

use scl_core::prelude::*;
use scl_core::{ParArray, Skel};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads: line in /proc/self/status");
    line.trim().parse().expect("a thread count")
}

/// One request on a fresh context; `seen` collects every thread the `map`
/// closure ran on. `ThreadId`s are never reused, so a spawn-and-join per
/// call — which leaves the process's thread count where it was — still
/// shows up there.
fn one_request(k: i64, seen: &Mutex<HashSet<ThreadId>>) {
    let mut scl = Scl::ap1000(8).with_policy(ExecPolicy::Threads(2));
    let a = ParArray::from_parts((k..k + 8).collect::<Vec<i64>>());
    let b = scl.map(&a, |x| {
        seen.lock().unwrap().insert(std::thread::current().id());
        x + 1
    });
    let c = scl.zip_with(&a, &b, |x, y| x + y);
    let d = scl.map_owned(c, |x| x * 2);
    let plan = Skel::map(|x: &i64| {
        seen.lock().unwrap().insert(std::thread::current().id());
        x - 1
    })
    .then(Skel::map(|x: &i64| x * 3));
    let e = scl.run_fused(&plan, d.clone()).expect("fits the machine");
    let expect: Vec<i64> = (k..k + 8).map(|x| ((x + x + 1) * 2 - 1) * 3).collect();
    assert_eq!(e.to_vec(), expect);
    // the eager walk of the same chain, charged per stage
    assert_eq!(plan.run(&mut scl, d), e);
}

#[test]
fn thread_count_is_flat_across_a_thousand_calls() {
    let seen = Mutex::new(HashSet::new());
    one_request(0, &seen); // warm-up: the pool grows to one helper here
    let before = process_threads();
    for k in 1..=1000 {
        one_request(k, &seen);
    }
    assert_eq!(
        process_threads(),
        before,
        "a skeleton call left a thread behind"
    );
    let seen = seen.into_inner().unwrap();
    assert!(
        seen.len() <= 2,
        "Threads(2) maps ran on {} distinct threads: something spawns per call",
        seen.len()
    );
}
