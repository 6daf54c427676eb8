//! Unit tests for the streaming runtime. The heavyweight differential
//! suite (stream == eager bit-for-bit with identical per-item metrics,
//! across apps and policies) lives in the workspace's
//! `tests/stream_vs_eager.rs`; these cover the graph mechanics.

use super::*;
use scl_core::prelude::*;
use scl_machine::{CostModel, Topology};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn unit_machine(n: usize) -> Machine {
    Machine::new(Topology::FullyConnected { procs: n }, CostModel::unit())
}

fn arr(k: i64) -> ParArray<i64> {
    ParArray::from_parts((k..k + 4).collect())
}

/// map → rotate → map: one farm, one barrier, one trailing farm.
fn mixed_plan() -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    Skel::map(|x: &i64| x * 3)
        .then(Skel::rotate(1))
        .then(Skel::map_costed(|x: &i64| (x + 1, Work::flops(1))))
}

fn eager_outputs(n: i64) -> Vec<Vec<i64>> {
    let plan = mixed_plan();
    let mut scl = Scl::new(unit_machine(4));
    (0..n)
        .map(|k| {
            scl.reset();
            plan.run(&mut scl, arr(k)).to_vec()
        })
        .collect()
}

#[test]
fn push_drain_matches_eager_in_order() {
    for exec in [
        ExecPolicy::Sequential,
        ExecPolicy::Threads(3),
        ExecPolicy::cost_driven(),
    ] {
        let mut s = StreamExec::new(
            mixed_plan(),
            StreamPolicy::new(unit_machine(4)).with_exec(exec),
        );
        for k in 0..40 {
            s.push(arr(k)).unwrap();
        }
        let out = s.drain();
        let got: Vec<Vec<i64>> = out.iter().map(|a| a.to_vec()).collect();
        assert_eq!(got, eager_outputs(40), "{exec:?}");
    }
}

#[test]
fn run_stream_iterates_in_order() {
    let s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(4)),
    );
    let got: Vec<Vec<i64>> = s
        .run_stream((0..100).map(arr))
        .map(|a| a.to_vec())
        .collect();
    assert_eq!(got, eager_outputs(100));
}

#[test]
fn per_item_reports_match_eager() {
    let mut s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(2)),
    );
    for k in 0..10 {
        s.push(arr(k)).unwrap();
    }
    let streamed = s.drain_with_reports();

    let plan = mixed_plan();
    let mut scl = Scl::new(unit_machine(4));
    for (k, (out, report)) in streamed.into_iter().enumerate() {
        scl.reset();
        let eager = plan.run(&mut scl, arr(k as i64));
        assert_eq!(out, eager, "item {k}");
        assert_eq!(report, scl.machine.report(), "item {k}");
    }
}

#[test]
fn sequential_policy_runs_inline_with_no_farms() {
    let mut s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Sequential),
    );
    assert_eq!(s.farm_stages(), 0);
    s.push(arr(0)).unwrap();
    // inline service is synchronous: the item is already done
    assert_eq!(s.in_flight(), 0);
    assert_eq!(s.drain().len(), 1);
    // the inline segments still show up in the stage stats
    let stats = s.stage_stats();
    assert!(stats.iter().any(|st| st.label == "map"), "{stats:?}");
    assert!(stats.iter().any(|st| st.label == "rotate"), "{stats:?}");
}

#[test]
fn threaded_policy_builds_farms_at_segment_boundaries() {
    let s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(4)),
    );
    // map | rotate | map_costed → two farms split by one barrier
    assert_eq!(s.farm_stages(), 2);
    let stats = s.stage_stats();
    let labels: Vec<&str> = stats.iter().map(|st| st.label.as_str()).collect();
    assert_eq!(labels, vec!["map", "rotate", "map_costed"]);
    assert!(stats[0].farm && !stats[1].farm && stats[2].farm);
    assert_eq!(stats[0].max_width, 4);
}

#[test]
fn panicking_opaque_plan_resolves_as_a_barrier_panic() {
    // the host barrier panics on one item: that item resolves as a typed
    // BarrierPanic through pop_outcome, and the rest of the stream drains
    let plan = Skel::map(|x: &i64| x + 1).then(Skel::barrier(
        "host",
        |_scl: &mut Scl, a: ParArray<i64>| {
            if *a.part(0) == 3 {
                panic!("host blew up");
            }
            a
        },
    ));
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(2)),
    );
    for k in 0..6 {
        s.push(arr(k)).unwrap(); // k = 2 reaches the closure as 3
    }
    let mut failed = Vec::new();
    while let Some(outcome) = s.pop_outcome() {
        match outcome {
            Ok((out, _)) => assert_eq!(out.len(), 4),
            Err(e) => {
                assert!(
                    matches!(&e, RequestError::BarrierPanic { stage, message }
                        if stage == "host" && message.contains("host blew up")),
                    "{e}"
                );
                failed.push(e);
            }
        }
    }
    assert_eq!(failed.len(), 1);
    assert_eq!(s.in_flight(), 0);
    assert_eq!(s.throughput().items, 6);
}

#[test]
fn push_rejects_oversized_items() {
    let mut s = StreamExec::new(
        Skel::map(|x: &i64| *x),
        StreamPolicy::new(unit_machine(2)).with_exec(ExecPolicy::Threads(2)),
    );
    let err = s.push(arr(0)).unwrap_err(); // 4 parts on a 2-proc machine
    assert_eq!(
        err,
        scl_core::SclError::MachineTooSmall {
            needed: 4,
            procs: 2
        }
    );
    // the rejected item never entered the graph
    assert_eq!(s.in_flight(), 0);

    // a plan with a host barrier honours the same entry contract (Err,
    // not a panic inside its closure)
    let hosted =
        Skel::map(|x: &i64| *x).then(Skel::barrier("host", |_scl: &mut Scl, a: ParArray<i64>| a));
    let mut s = StreamExec::new(hosted, StreamPolicy::new(unit_machine(2)));
    let err = s.push(arr(0)).unwrap_err();
    assert_eq!(
        err,
        scl_core::SclError::MachineTooSmall {
            needed: 4,
            procs: 2
        }
    );
}

#[test]
fn worker_panic_reraises_labelled_at_completion() {
    let plan = Skel::map(|x: &i64| if *x == 42 { panic!("boom") } else { *x });
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(2)),
    );
    s.push(ParArray::from_parts(vec![40i64, 41, 42, 43]))
        .unwrap();
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = s.drain();
    }))
    .unwrap_err();
    let msg = payload.downcast_ref::<String>().expect("labelled panic");
    assert!(msg.contains("fused stage `map`"), "{msg}");
    assert!(msg.contains("boom"), "{msg}");
}

#[test]
fn poisoned_item_still_lets_the_rest_of_the_stream_drain() {
    // item 2 panics in a farmed stage; the panic must surface once, with
    // the in-flight gauge kept consistent so the healthy items remain
    // collectable afterwards (a regression here hangs this test forever)
    let plan = Skel::map(|x: &i64| if *x == 2 { panic!("poison") } else { *x });
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(unit_machine(1)).with_exec(ExecPolicy::Threads(2)),
    );
    for k in 0..6 {
        s.push(ParArray::from_parts(vec![k])).unwrap();
    }
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = s.drain();
    }))
    .unwrap_err();
    let msg = payload.downcast_ref::<String>().expect("labelled panic");
    assert!(msg.contains("poison"), "{msg}");
    // every item (including the poisoned one) is accounted; what the
    // unwound drain dropped is gone, but nothing hangs
    let _rest = s.drain();
    assert_eq!(s.in_flight(), 0);
}

#[test]
fn barrier_panic_poisons_the_item_with_its_label() {
    let plan = Skel::map(|x: &i64| x + 1).then(Skel::barrier(
        "trap",
        |_scl: &mut Scl, a: ParArray<i64>| {
            if *a.part(0) == 3 {
                panic!("barrier blew up");
            }
            a
        },
    ));
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(2)),
    );
    for k in 0..6 {
        s.push(arr(k)).unwrap(); // k=2 maps to 3 at the barrier
    }
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = s.drain();
    }))
    .unwrap_err();
    let msg = payload.downcast_ref::<String>().expect("labelled panic");
    assert!(msg.contains("stream barrier `trap` panicked"), "{msg}");
    assert!(msg.contains("barrier blew up"), "{msg}");
    // the stream survives the barrier panic too
    let _rest = s.drain();
    assert_eq!(s.in_flight(), 0);
}

#[test]
fn backpressure_bounds_in_flight_items() {
    let plan = || {
        Skel::map(|x: &i64| x + 1)
            .then(Skel::rotate(1))
            .then(Skel::map(|x: &i64| x * 2))
            .then(Skel::rotate(-1))
            .then(Skel::map(|x: &i64| x - 3))
    };
    // (4, 2): every replica's lane holds two items. (2, 4) and (1, 3):
    // fewer slots than policy threads — the farm is clamped to `capacity`
    // replicas and `capacity` stays the backpressure bound.
    for (capacity, width) in [(4usize, 2usize), (2, 4), (1, 3)] {
        let mut s = StreamExec::new(
            plan(),
            StreamPolicy::new(unit_machine(4))
                .with_exec(ExecPolicy::Threads(width))
                .with_capacity(capacity),
        );
        let n_farms = s.farm_stages();
        assert_eq!(n_farms, 3);
        for st in s.stage_stats().iter().filter(|st| st.farm) {
            assert_eq!(
                st.max_width,
                width.min(capacity),
                "{capacity}x{width}: {st:?}"
            );
        }
        let mut streamed = Vec::new();
        for k in 0..2000 {
            s.push(arr(k)).unwrap();
            while let Some(done) = s.try_pop_with_report() {
                streamed.push(done);
            }
        }
        streamed.extend(s.drain_with_reports());
        assert_eq!(streamed.len(), 2000);
        let peak = s.peak_in_flight();
        // per farm: in-queue + replicas + out-queue + reorder (≤ width +
        // capacity) + the hop's park slot; plus the entry slot. All bounds
        // are O(capacity × stages) — nothing scales with the 2000-item
        // stream.
        let per_farm = (3 * capacity + 2 * width + 1) as u64;
        let bound = per_farm * n_farms as u64 + 2;
        assert!(
            peak <= bound,
            "{capacity}x{width}: peak in-flight {peak} exceeded the capacity bound {bound}"
        );
        assert!(
            peak >= 2,
            "{capacity}x{width}: pipeline never overlapped items"
        );
        // the clamp changes how many replicas run, never what they compute
        // or charge
        let eager = plan();
        let mut scl = Scl::new(unit_machine(4));
        for (k, (out, report)) in streamed.into_iter().enumerate() {
            scl.reset();
            assert_eq!(
                out,
                eager.run(&mut scl, arr(k as i64)),
                "{capacity}x{width} item {k}"
            );
            assert_eq!(report, scl.machine.report(), "{capacity}x{width} item {k}");
        }
    }
}

#[test]
fn ring_links_poison_stress_resolves_each_failure_exactly_once() {
    // companion to the 200k two-thread soak in `scl-exec::spsc`: the same
    // lock-free rings, now carrying poisoned envelopes mid-stream. Dozens
    // of stage panics scattered through a long stream over the ring
    // links must each resolve exactly once at the pop side as a typed
    // error — never a lost item, never a double report, and
    // never a stranded pump or private lane (a regression here hangs this
    // test or miscounts the outcomes).
    const N: i64 = 5_000;
    let poisoned = |k: i64| (k..k + 4).any(|x| x % 499 == 13);
    let plan = || {
        Skel::map(|x: &i64| {
            spin_us(40);
            if *x % 499 == 13 {
                panic!("poison {x}");
            }
            x * 3
        })
        .then(Skel::rotate(1))
        .then(Skel::map_costed(|x: &i64| (x + 1, Work::flops(1))))
    };
    // the first stage spins 160 µs per item, so once its first item is
    // measured its farm routes across all four lanes: every lane of both
    // matrices in use
    let mut s = StreamExec::new(
        plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(4)),
    );
    for k in 0..N {
        s.push(arr(k)).unwrap();
    }
    let outcomes = s.drain_outcomes();
    assert_eq!(
        outcomes.len() as i64,
        N,
        "every item accounted exactly once"
    );
    assert_eq!(s.in_flight(), 0);

    let solo = plan();
    let mut scl = Scl::new(unit_machine(4));
    let mut failures = 0usize;
    for (k, outcome) in outcomes.into_iter().enumerate() {
        let k = k as i64;
        match outcome {
            Err(e) => {
                assert!(poisoned(k), "item {k} failed but carries no poison: {e}");
                assert!(
                    matches!(&e, scl_core::RequestError::StagePanic { stage, .. } if stage == "map"),
                    "item {k}: {e}"
                );
                assert!(e.to_string().contains("poison"), "item {k}: {e}");
                failures += 1;
            }
            Ok((out, report)) => {
                assert!(!poisoned(k), "item {k} should have failed");
                scl.reset();
                let expect = solo.run(&mut scl, arr(k));
                assert_eq!(out, expect, "item {k}");
                assert_eq!(report, scl.machine.report(), "item {k} report");
            }
        }
    }
    assert!(
        failures >= 30,
        "the stream actually got poisoned: {failures}"
    );
    let heavy = &s.stage_stats()[0];
    assert_eq!((heavy.width, heavy.max_width), (4, 4), "{heavy:?}");

    // the graph is still serviceable: no lane or pump was stranded
    for k in 0..20 {
        s.push(arr(N + 600 + k)).unwrap();
    }
    for (i, outcome) in s.drain_outcomes().into_iter().enumerate() {
        let k = N + 600 + i as i64;
        let (out, _) = outcome.unwrap_or_else(|e| panic!("item {k} after the storm: {e}"));
        scl.reset();
        assert_eq!(out, solo.run(&mut scl, arr(k)), "item {k} after the storm");
    }
}

/// Busy-wait `us` microseconds: service time that is real on any host.
fn spin_us(us: u64) {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_micros(us) {
        std::hint::spin_loop();
    }
}

/// A `map` stage that logs how many of its runs overlap at once, spinning
/// `spin` µs per part, after [`mixed_plan`]'s first stage.
fn overlap_plan(
    spin: u64,
    inside: &Arc<AtomicUsize>,
    most: &Arc<AtomicUsize>,
) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    let (inside, most) = (Arc::clone(inside), Arc::clone(most));
    Skel::map(move |x: &i64| {
        let now = inside.fetch_add(1, SeqCst) + 1;
        most.fetch_max(now, SeqCst);
        spin_us(spin);
        inside.fetch_sub(1, SeqCst);
        x * 3
    })
    .then(Skel::rotate(1))
}

#[test]
fn a_light_farm_routes_to_one_lane() {
    for exec in [
        ExecPolicy::Threads(2),
        ExecPolicy::CostDriven { threads: 2 },
    ] {
        let inside = Arc::new(AtomicUsize::new(0));
        let most = Arc::new(AtomicUsize::new(0));
        let mut s = StreamExec::new(
            overlap_plan(0, &inside, &most),
            StreamPolicy::new(unit_machine(4)).with_exec(exec),
        );
        // the first round measures the farm (a slow first item, while the
        // process warms up, may route a few items wide); the second is
        // judged on a mean over hundreds of items
        for round in 0..2 {
            most.store(0, SeqCst);
            for k in 0..200 {
                s.push(arr(k)).unwrap();
            }
            let got: Vec<Vec<i64>> = s.drain().iter().map(|a| a.to_vec()).collect();
            for (k, out) in got.iter().enumerate() {
                let k = k as i64;
                assert_eq!(out, &[k + 1, k + 2, k + 3, k].map(|x| x * 3), "item {k}");
            }
            let farm = &s.stage_stats()[0];
            assert!(farm.farm);
            assert_eq!((farm.width, farm.max_width), (1, 2), "{exec:?}: {farm:?}");
            if round == 1 {
                assert_eq!(most.load(SeqCst), 1, "{exec:?}: two lanes overlapped");
            }
        }
    }
}

#[test]
fn a_heavy_farm_routes_across_its_lanes_once_measured() {
    let inside = Arc::new(AtomicUsize::new(0));
    let most = Arc::new(AtomicUsize::new(0));
    let log = Arc::new(Mutex::new(Vec::new()));
    let plan = {
        let log = Arc::clone(&log);
        // 4 parts × 40 µs: at least 160 µs of service per item
        overlap_plan(40, &inside, &most).then(Skel::map(move |x: &i64| {
            log.lock().unwrap().push(std::thread::current().id());
            *x
        }))
    };
    let mut s = StreamExec::new(plan, two_replicas());
    let width = |s: &StreamExec<ParArray<i64>, ParArray<i64>>| s.stage_stats()[0].width;
    assert_eq!(width(&s), 1, "nothing measured yet");
    s.push(arr(0)).unwrap();
    assert!(s.pop().is_some());
    assert_eq!(width(&s), 2, "the first item measured the farm heavy");

    // bursts now alternate between both lanes: their jobs overlap, on
    // two pool threads, once the shared pool has two workers free for
    // them (other tests' farms may hold it for a while)
    let me = std::thread::current().id();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        for k in 0..16 {
            s.push(arr(k)).unwrap();
        }
        assert_eq!(s.drain().len(), 16);
        let threads: std::collections::HashSet<_> = log
            .lock()
            .unwrap()
            .iter()
            .filter(|t| **t != me)
            .copied()
            .collect();
        if most.load(SeqCst) >= 2 && threads.len() >= 2 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "the heavy farm never ran two lanes at once"
        );
    }
}

#[test]
fn vec_boundary_plans_stream_host_data() {
    // partition → balance → gather: Vec<T> in, Vec<T> out, barriers only
    let plan = Skel::partition(Pattern::Block(4))
        .then(Skel::balance())
        .then(Skel::gather());
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(Machine::ap1000(4)).with_exec(ExecPolicy::Threads(2)),
    );
    for k in 0..20i64 {
        s.push((k..k + 13).collect::<Vec<i64>>()).unwrap();
    }
    let out = s.drain();
    for (k, v) in out.into_iter().enumerate() {
        let k = k as i64;
        assert_eq!(v, (k..k + 13).collect::<Vec<i64>>());
    }
}

#[test]
fn throughput_and_gauges_track_the_run() {
    let mut s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(2)),
    );
    assert_eq!(s.throughput().items, 0);
    for k in 0..30 {
        s.push(arr(k)).unwrap();
    }
    let _ = s.drain();
    let t = s.throughput();
    assert_eq!(t.items, 30);
    assert!(t.secs > 0.0);
    assert!(t.items_per_sec() > 0.0);
    assert!(s.peak_in_flight() >= 1);
    assert_eq!(s.in_flight(), 0);
}

#[test]
fn external_width_cap_clamps_farms_and_composes_with_policy() {
    let mut s = StreamExec::new(
        mixed_plan(),
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(4)),
    );
    for st in s.stage_stats().iter().filter(|st| st.farm) {
        assert_eq!((st.width, st.max_width), (1, 4), "unmeasured: {st:?}");
    }

    // a shard scheduler narrows this graph's share to 2 threads
    s.set_share(2);
    for st in s.stage_stats().iter().filter(|st| st.farm) {
        assert_eq!(st.max_width, 2, "{st:?}");
    }
    // the capped graph still serves correctly
    for k in 0..20 {
        s.push(arr(k)).unwrap();
    }
    let got: Vec<Vec<i64>> = s.drain().iter().map(|a| a.to_vec()).collect();
    assert_eq!(got, eager_outputs(20));

    // widening past the lane count restores it, never exceeds it
    s.set_share(16);
    for st in s.stage_stats().iter().filter(|st| st.farm) {
        assert_eq!(st.max_width, 4, "{st:?}");
    }
    // a zero share clamps to one replica instead of wedging the graph
    s.set_share(0);
    for st in s.stage_stats().iter().filter(|st| st.farm) {
        assert_eq!(st.max_width, 1, "{st:?}");
    }
}

#[test]
fn fused_charging_matches_run_fused_reports() {
    // two fused compute stages around a barrier: under fused charging the
    // per-item reports must equal solo `run_fused` calls (one summed
    // "fused" event per part per segment), not solo eager runs
    let plan = || {
        Skel::map_costed(|x: &i64| (x + 1, Work::flops(2)))
            .then(Skel::imap_costed(|i, x: &i64| {
                (x * 3, Work::cmps(i as u64 + 1))
            }))
            .then(Skel::rotate(1))
            .then(Skel::map_costed(|x: &i64| (x - 5, Work::moves(1))))
    };
    for exec in [ExecPolicy::Sequential, ExecPolicy::Threads(3)] {
        let mut s = StreamExec::new(
            plan(),
            StreamPolicy::new(unit_machine(4))
                .with_exec(exec)
                .with_fused_charging(true),
        );
        for k in 0..12 {
            s.push(arr(k)).unwrap();
        }
        let streamed = s.drain_with_reports();
        assert_eq!(streamed.len(), 12);

        let solo = plan();
        let mut scl = Scl::new(unit_machine(4));
        for (k, (out, report)) in streamed.into_iter().enumerate() {
            scl.reset();
            let expect = scl.run_fused(&solo, arr(k as i64)).unwrap();
            assert_eq!(out, expect, "item {k} ({exec:?})");
            assert_eq!(report, scl.machine.report(), "item {k} ({exec:?})");
        }
    }
}

#[test]
fn stateful_barriers_see_items_in_stream_order() {
    // a barrier that folds a running count into each item: only correct
    // if the pump feeds it in stream order
    let plan = Skel::map(|x: &i64| x * 10).then(Skel::barrier("count", {
        let mut count = 0i64;
        move |_scl: &mut Scl, a: ParArray<i64>| {
            count += 1;
            a.map_parts(|x| x + count)
        }
    }));
    let mut s = StreamExec::new(
        plan,
        StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(4)),
    );
    for k in 0..50 {
        s.push(arr(k)).unwrap();
    }
    let out = s.drain();
    for (i, a) in out.iter().enumerate() {
        let k = i as i64;
        let expect: Vec<i64> = (k..k + 4).map(|x| x * 10 + k + 1).collect();
        assert_eq!(a.to_vec(), expect, "item {i}");
    }
}

// ---- the short path: a lone item runs on the blocked caller -------------

/// [`mixed_plan`] with every compute stage logging the thread it runs on.
fn logged_plan(
    log: &Arc<Mutex<Vec<std::thread::ThreadId>>>,
) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    let (first, second) = (Arc::clone(log), Arc::clone(log));
    let here = move |log: &Mutex<Vec<_>>| log.lock().unwrap().push(std::thread::current().id());
    Skel::map(move |x: &i64| {
        here(&first);
        x * 3
    })
    .then(Skel::rotate(1))
    .then(Skel::map_costed(move |x: &i64| {
        here(&second);
        (x + 1, Work::flops(1))
    }))
}

fn two_replicas() -> StreamPolicy {
    StreamPolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(2))
}

/// Output and report of a solo `Skel::run` of [`mixed_plan`] on `arr(k)`.
fn eager_item(k: i64) -> (ParArray<i64>, MachineReport) {
    let mut scl = Scl::new(unit_machine(4));
    let out = mixed_plan().run(&mut scl, arr(k));
    (out, scl.machine.report())
}

#[test]
fn lone_round_trip_runs_every_segment_on_the_caller() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut s = StreamExec::new(logged_plan(&log), two_replicas());
    assert_eq!(s.farm_stages(), 2);
    for k in 0..5 {
        s.push(arr(k)).unwrap();
        assert_eq!(s.pop_with_report(), Some(eager_item(k)), "item {k}");
    }
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 5 * 2 * 4, "5 items × 2 logged stages × 4 parts");
    let me = std::thread::current().id();
    assert!(log.iter().all(|t| *t == me), "a segment ran off the caller");
}

/// [`mixed_plan`] whose first stage sleeps 300 µs per part and logs the
/// thread it runs on: a farm heavy enough for a lone item to fan out.
fn heavy_logged_plan(
    log: &Arc<Mutex<Vec<std::thread::ThreadId>>>,
) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    let log = Arc::clone(log);
    Skel::map(move |x: &i64| {
        std::thread::sleep(Duration::from_micros(300));
        log.lock().unwrap().push(std::thread::current().id());
        x * 3
    })
    .then(Skel::rotate(1))
    .then(Skel::map_costed(|x: &i64| (x + 1, Work::flops(1))))
}

/// One lone round trip of `arr(k)`: checks the report against the eager
/// run and returns the distinct threads the logged stage ran on.
fn lone_trip(
    s: &mut StreamExec<ParArray<i64>, ParArray<i64>>,
    log: &Mutex<Vec<std::thread::ThreadId>>,
    k: i64,
) -> std::collections::HashSet<std::thread::ThreadId> {
    s.push(arr(k)).unwrap();
    assert_eq!(s.pop_with_report(), Some(eager_item(k)), "item {k}");
    log.lock().unwrap().drain(..).collect()
}

#[test]
fn lone_heavy_item_fans_out_once_its_farm_is_measured() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut s = StreamExec::new(heavy_logged_plan(&log), two_replicas());
    let me = std::thread::current().id();
    // nothing measured yet: the farm's first item runs on the caller alone
    assert_eq!(lone_trip(&mut s, &log, 0), [me].into());
    // from then on a lone trip runs the segment at the farm's width; the
    // caller takes its share and a pool worker the rest, so some trip
    // shows both even if a worker wakes late once
    let widest = (1..=8).map(|k| lone_trip(&mut s, &log, k).len()).max();
    assert_eq!(widest, Some(2), "no lone trip fanned out");
}

#[test]
fn width_cap_keeps_a_lone_heavy_item_on_the_caller() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut s = StreamExec::new(heavy_logged_plan(&log), two_replicas());
    s.set_share(1);
    let me = std::thread::current().id();
    for k in 0..4 {
        assert_eq!(lone_trip(&mut s, &log, k), [me].into(), "item {k}");
    }
}

#[test]
fn two_items_in_flight_run_on_a_replica() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut s = StreamExec::new(logged_plan(&log), two_replicas());
    s.push(arr(0)).unwrap();
    s.push(arr(1)).unwrap();
    let got = s.drain_with_reports();
    assert_eq!(got, vec![eager_item(0), eager_item(1)]);
    let me = std::thread::current().id();
    assert!(
        log.lock().unwrap().iter().any(|t| *t != me),
        "with two items in flight no segment reached a replica"
    );
}

#[test]
fn push_and_try_pop_never_run_a_segment_on_the_caller() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut s = StreamExec::new(logged_plan(&log), two_replicas());
    s.push(arr(0)).unwrap();
    let got = loop {
        if let Some(done) = s.try_pop_with_report() {
            break done;
        }
        std::thread::yield_now();
    };
    assert_eq!(got, eager_item(0));
    let me = std::thread::current().id();
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 2 * 4);
    assert!(log.iter().all(|t| *t != me), "a segment ran on the caller");
}

#[test]
fn run_stream_carries_at_most_the_last_item_on_the_caller() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let s = StreamExec::new(logged_plan(&log), two_replicas());
    let got: Vec<ParArray<i64>> = s.run_stream((0..200).map(arr)).collect();
    assert_eq!(got.len(), 200);
    for (k, out) in got.into_iter().enumerate() {
        assert_eq!(out, eager_item(k as i64).0, "item {k}");
    }
    let me = std::thread::current().id();
    let on_caller = log.lock().unwrap().iter().filter(|t| **t == me).count();
    assert!(
        on_caller <= 2 * 4,
        "{on_caller} stage runs on the caller: more than the last item's"
    );
}

#[test]
fn seeded_mix_of_lone_trips_and_bursts_matches_eager() {
    let mut rng = scl_testkit::Rng::seed_from_u64(0x5107_7A1E);
    let mut s = StreamExec::new(mixed_plan(), two_replicas());
    let mut fed = 0i64;
    let mut got = Vec::new();
    while fed < 1000 {
        if rng.bool() {
            s.push(arr(fed)).unwrap();
            fed += 1;
            got.push(s.pop_with_report().expect("one item in flight"));
        } else {
            let burst = rng.range_i64(2, 24).min(1000 - fed);
            for _ in 0..burst {
                s.push(arr(fed)).unwrap();
                fed += 1;
                if rng.bool() {
                    got.extend(s.try_pop_with_report());
                }
            }
            got.extend(s.drain_with_reports());
        }
    }
    assert_eq!(got.len(), 1000);
    for (k, item) in got.into_iter().enumerate() {
        assert_eq!(item, eager_item(k as i64), "item {k}");
    }
}

#[test]
fn short_path_resolves_deadlines_and_panics_as_typed_errors() {
    // the item waits on the entry slot until its deadline passed, so the
    // farm's own deadline check — on the pump — is what rejects it
    let mut s = StreamExec::new(mixed_plan(), two_replicas());
    let deadline = Instant::now() + Duration::from_millis(5);
    s.push_deadline(arr(0), Some(deadline)).unwrap();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(s.pop_outcome(), Some(Err(RequestError::DeadlineExceeded)));
    assert_eq!(s.stage_stats()[0].items, 1, "the farm saw the expired item");

    let plan = Skel::map(|x: &i64| if *x == 42 { panic!("boom") } else { *x });
    let mut s = StreamExec::new(plan, two_replicas());
    s.push(ParArray::from_parts(vec![40i64, 41, 42, 43]))
        .unwrap();
    let err = s.pop_outcome().unwrap().unwrap_err();
    assert!(
        matches!(&err, RequestError::StagePanic { stage, part: 2, .. } if stage == "map"),
        "{err:?}"
    );
    let text = err.to_string();
    assert!(
        text.contains("fused stage `map`") && text.contains("boom"),
        "{text}"
    );
    // the caller survived its own stage panic and keeps serving
    s.push(ParArray::from_parts(vec![1i64, 2, 3, 4])).unwrap();
    assert_eq!(s.pop().unwrap().to_vec(), vec![1, 2, 3, 4]);
}

#[test]
fn stage_stats_count_inlined_items() {
    let mut s = StreamExec::new(mixed_plan(), two_replicas());
    for k in 0..3 {
        s.push(arr(k)).unwrap();
        s.pop().unwrap();
    }
    for st in s.stage_stats() {
        assert_eq!(st.items, 3, "{st:?}");
    }
}

/// 20 000 lone round trips, then 20 000 with two items in flight (the
/// pump parks while replicas work). A lost wake-up costs a 100 ms
/// safety-net park per item, which would blow the watchdog.
#[test]
fn round_trip_soak_never_loses_a_wake_up() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let soak = std::thread::spawn(move || {
        let mut s = StreamExec::new(mixed_plan(), two_replicas());
        let expect: Vec<_> = (0..8).map(eager_item).collect();
        for k in 0..20_000 {
            s.push(arr(k % 8)).unwrap();
            assert_eq!(s.pop_with_report().as_ref(), Some(&expect[k as usize % 8]));
        }
        for k in 0..20_000 {
            s.push(arr(k % 8)).unwrap();
            s.push(arr((k + 1) % 8)).unwrap();
            assert_eq!(s.pop_with_report().as_ref(), Some(&expect[k as usize % 8]));
            assert_eq!(
                s.pop_with_report().as_ref(),
                Some(&expect[(k as usize + 1) % 8])
            );
        }
        done_tx.send(()).unwrap();
    });
    let finished = done_rx.recv_timeout(Duration::from_secs(60));
    if finished.is_err() && !soak.is_finished() {
        panic!("soak still running after 60 s: a wake-up was lost");
    }
    soak.join().unwrap();
}

/// Capacity 1 and 2 at two threads: single-slot lanes fill and empty on
/// almost every item, so a job keeps releasing its lane just as the pump
/// routes the next item into it or frees its output slot. 100 000 items
/// under a seeded mix of `push`, `try_pop` and `pop` must come back
/// exactly in order; an item stranded by a lost claim would cost a 100 ms
/// safety-net park each, which would blow the watchdog.
#[test]
fn lane_race_soak_keeps_every_item_in_order() {
    const N: i64 = 100_000;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let soak = std::thread::spawn(move || {
        for capacity in [1, 2] {
            let plan = Skel::map(|x: &i64| x + 1)
                .then(Skel::rotate(1))
                .then(Skel::map(|x: &i64| x * 2));
            let mut s = StreamExec::new(
                plan,
                StreamPolicy::new(unit_machine(4))
                    .with_exec(ExecPolicy::Threads(2))
                    .with_capacity(capacity),
            );
            let mut rng = scl_testkit::Rng::seed_from_u64(0x1a4e + capacity as u64);
            let (mut pushed, mut popped) = (0i64, 0i64);
            while popped < N {
                let out = match rng.below(4) {
                    0 | 1 if pushed < N => {
                        s.push(ParArray::from_parts(vec![pushed; 4])).unwrap();
                        pushed += 1;
                        None
                    }
                    2 => s.try_pop(),
                    _ => s.pop(),
                };
                if let Some(out) = out {
                    // every part of item k is 2 (k + 1): order is exact
                    assert_eq!(
                        out.to_vec(),
                        vec![2 * (popped + 1); 4],
                        "capacity {capacity}"
                    );
                    popped += 1;
                }
            }
            assert_eq!(s.in_flight(), 0);
        }
        done_tx.send(()).unwrap();
    });
    let finished = done_rx.recv_timeout(Duration::from_secs(120));
    if finished.is_err() && !soak.is_finished() {
        panic!("soak still running after 120 s: a lane was stranded");
    }
    soak.join().unwrap();
}
