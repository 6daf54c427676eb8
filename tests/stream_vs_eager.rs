//! Differential suite for the streaming runtime: serving a plan over a
//! stream of inputs through `StreamExec` must equal running the same plan
//! eagerly once per input — outputs bit-for-bit, in order, with
//! **identical per-item machine metrics and makespan** — under
//! sequential, threaded, and cost-driven policies. Plus the backpressure
//! contract: a long stream through a small-capacity graph keeps peak
//! in-flight items bounded by O(capacity × stages), asserted via the
//! runtime's in-flight gauge.
//!
//! The CI harness pins the policy set through `SCL_EXEC_POLICY`
//! (`seq` / `auto` / `cost`); unset, every policy runs in-process.

use scl::prelude::*;
use scl_apps::psrs::psrs_plan;
use scl_apps::stream_histogram::batch_histogram_plan;
use scl_apps::workloads::uniform_keys;
use scl_core::ParArray;
use scl_testkit::dag::{arb_dag, DagStats};
use scl_testkit::{cases, Rng};
use std::sync::OnceLock;

fn reg() -> &'static Registry {
    // `Registry` is `Sync` but not `Send` (boxed index functions), so the
    // shared static holds a leaked reference rather than the value
    static REG: OnceLock<&'static Registry> = OnceLock::new();
    REG.get_or_init(|| Box::leak(Box::new(Registry::standard())))
}

/// The policy matrix, overridable by the CI harness. An unparseable
/// `SCL_EXEC_POLICY` fails the suite instead of silently testing the
/// wrong thing.
fn policies() -> Vec<ExecPolicy> {
    match ExecPolicy::from_env().expect("SCL_EXEC_POLICY") {
        Some(pinned) => vec![pinned],
        None => vec![
            ExecPolicy::Sequential,
            ExecPolicy::Threads(4),
            ExecPolicy::cost_driven(),
        ],
    }
}

/// One random fusable, `'static` stage: opaque compute stages mixed with
/// communication barriers — the fragment the streaming graph serves with
/// farms and stage boundaries.
fn arb_stage(rng: &mut Rng) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    match rng.below(9) {
        0 => {
            let k = rng.range_i64(-100, 100);
            Skel::map(move |x: &i64| x.wrapping_mul(3).wrapping_add(k))
        }
        1 => Skel::imap(|i, x: &i64| x.wrapping_add(i as i64)),
        2 => {
            let k = rng.range_i64(1, 5) as u64;
            Skel::map_costed(move |x: &i64| (x.wrapping_sub(7), Work::flops(k)))
        }
        3 => Skel::imap_costed(|i, x: &i64| (x ^ i as i64, Work::cmps(1))),
        4 => Skel::rotate(rng.range_i64(-6, 7) as isize),
        5 => {
            let fill = rng.range_i64(-10, 10);
            Skel::shift(rng.range_i64(-3, 4) as isize, fill)
        }
        6 => Skel::fold_all(|a: &i64, b: &i64| a.wrapping_add(*b), Work::flops(1)),
        7 => Skel::scan(|a: &i64, b: &i64| (*a).max(*b)),
        _ => {
            // always in range: source index never exceeds the target's
            let k = rng.range_i64(0, 17) as usize;
            Skel::fetch(move |i| i.saturating_sub(k))
        }
    }
}

fn arb_plan(rng: &mut Rng) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    let len = rng.range_usize(1, 9);
    let mut plan = arb_stage(rng);
    for _ in 1..len {
        plan = plan.then(arb_stage(rng));
    }
    plan
}

fn arb_item(rng: &mut Rng, parts: usize) -> ParArray<i64> {
    ParArray::from_parts(rng.vec_of(parts, |r| r.range_i64(-1_000_000, 1_000_000)))
}

#[test]
fn randomized_streams_agree_with_eager_per_item() {
    for policy in policies() {
        cases(40, 0x57, |rng| {
            let parts = rng.range_usize(2, 12);
            let items: Vec<ParArray<i64>> = (0..rng.range_usize(5, 30))
                .map(|_| arb_item(rng, parts))
                .collect();

            // streamed: one persistent graph serves every item
            let mut exec = StreamExec::new(
                arb_plan(&mut rng.clone()),
                StreamPolicy::new(Machine::ap1000(parts)).with_exec(policy),
            );
            for item in &items {
                exec.push(item.clone()).unwrap();
            }
            let streamed = exec.drain_with_reports();
            assert_eq!(streamed.len(), items.len());

            // eager: one fresh run per item on a reset context
            let plan = arb_plan(&mut rng.clone());
            let mut scl = Scl::ap1000(parts);
            for (i, (got, report)) in streamed.into_iter().enumerate() {
                scl.reset();
                let expect = plan.run(&mut scl, items[i].clone());
                assert_eq!(got.to_vec(), expect.to_vec(), "item {i} ({policy:?})");
                assert_eq!(
                    report,
                    scl.machine.report(),
                    "item {i} metrics/makespan ({policy:?})"
                );
            }
        });
    }
}

/// DAG plans stream too: a persistent graph whose hops include branch
/// nodes (pipelined `pair` farms, inline `choice` / `fanout`) serves
/// every item with output and per-item report identical to a fresh eager
/// run — same contract the linear fragment holds above.
#[test]
fn dag_streams_agree_with_eager_per_item() {
    for policy in policies() {
        cases(12, 0xDA57, |rng| {
            let parts = 8 * rng.range_usize(1, 3);
            let items: Vec<ParArray<i64>> = (0..rng.range_usize(4, 12))
                .map(|_| arb_item(rng, parts))
                .collect();
            // rebuilt from a cloned rng so the streamed graph and the
            // eager baseline are the identical plan
            let build = |rng: &mut Rng| {
                let mut stats = DagStats::default();
                arb_dag(rng, reg(), parts, 3, &mut stats)
            };

            let mut exec = StreamExec::new(
                build(&mut rng.clone()),
                StreamPolicy::new(Machine::ap1000(parts)).with_exec(policy),
            );
            for item in &items {
                exec.push(item.clone()).unwrap();
            }
            let streamed = exec.drain_with_reports();
            assert_eq!(streamed.len(), items.len());

            let plan = build(&mut rng.clone());
            let mut scl = Scl::ap1000(parts);
            for (i, (got, report)) in streamed.into_iter().enumerate() {
                scl.reset();
                let expect = plan.run(&mut scl, items[i].clone());
                assert_eq!(got.to_vec(), expect.to_vec(), "item {i} ({policy:?})");
                assert_eq!(
                    report,
                    scl.machine.report(),
                    "item {i} metrics/makespan ({policy:?})"
                );
            }
        });
    }
}

#[test]
fn run_stream_collects_in_input_order() {
    for policy in policies() {
        let plan = Skel::map(|x: &i64| x * 2)
            .then(Skel::rotate(1))
            .then(Skel::imap_costed(|i, x: &i64| {
                (x + i as i64, Work::flops(1))
            }));
        let items: Vec<ParArray<i64>> = (0..200)
            .map(|k| ParArray::from_parts(vec![k, k + 1, k + 2, k + 3]))
            .collect();

        let exec = StreamExec::new(
            plan,
            StreamPolicy::new(Machine::ap1000(4)).with_exec(policy),
        );
        let streamed: Vec<Vec<i64>> = exec
            .run_stream(items.iter().cloned())
            .map(|a| a.to_vec())
            .collect();

        let plan = Skel::map(|x: &i64| x * 2)
            .then(Skel::rotate(1))
            .then(Skel::imap_costed(|i, x: &i64| {
                (x + i as i64, Work::flops(1))
            }));
        let mut scl = Scl::ap1000(4);
        let eager: Vec<Vec<i64>> = items
            .iter()
            .map(|item| {
                scl.reset();
                plan.run(&mut scl, item.clone()).to_vec()
            })
            .collect();
        assert_eq!(streamed, eager, "{policy:?}");
    }
}

#[test]
fn histogram_batches_stream_like_eager() {
    for policy in policies() {
        let batches: Vec<Vec<u64>> = (0..16)
            .map(|i| {
                uniform_keys(800, 40 + i)
                    .into_iter()
                    .map(|x| x as u64)
                    .collect()
            })
            .collect();

        let mut exec = StreamExec::new(
            batch_histogram_plan(16, 4),
            StreamPolicy::new(Machine::ap1000(4)).with_exec(policy),
        );
        for b in &batches {
            exec.push(b.clone()).unwrap();
        }
        let streamed = exec.drain_with_reports();

        let plan = batch_histogram_plan(16, 4);
        let mut scl = Scl::ap1000(4);
        for (i, (got, report)) in streamed.into_iter().enumerate() {
            scl.reset();
            let expect = plan.run(&mut scl, batches[i].clone());
            assert_eq!(got, expect, "batch {i} ({policy:?})");
            assert_eq!(report, scl.machine.report(), "batch {i} ({policy:?})");
        }
    }
}

#[test]
fn psrs_batches_stream_like_eager() {
    let p = 4;
    for policy in policies() {
        let inputs: Vec<ParArray<Vec<i64>>> = (0..8)
            .map(|i| {
                let mut scl = Scl::ap1000(p);
                scl.partition(Pattern::Block(p), &uniform_keys(1200, 90 + i))
            })
            .collect();

        let mut exec = StreamExec::new(
            psrs_plan(p),
            StreamPolicy::new(Machine::ap1000(p)).with_exec(policy),
        );
        for item in &inputs {
            exec.push(item.clone()).unwrap();
        }
        let streamed = exec.drain();

        let plan = psrs_plan(p);
        let mut scl = Scl::ap1000(p);
        for (i, got) in streamed.into_iter().enumerate() {
            scl.reset();
            let expect = plan.run(&mut scl, inputs[i].clone());
            assert_eq!(got, expect, "sort batch {i} ({policy:?})");
            // and it really is globally sorted
            let flat: Vec<i64> = got.parts().iter().flatten().copied().collect();
            let mut sorted = flat.clone();
            sorted.sort_unstable();
            assert_eq!(flat, sorted);
        }
    }
}

#[test]
fn backpressure_keeps_ten_thousand_items_bounded() {
    // 10k items through a small-capacity graph: peak in-flight items must
    // be bounded by the graph's structural capacity — channels, replicas,
    // reorder buffers, park slots — and never scale with the stream.
    // (8, 4) gives every replica a two-item lane; (2, 4) and (1, 3) have
    // fewer slots than policy threads, so each farm is clamped to
    // `capacity` replicas and `capacity` stays the bound.
    let plan = || {
        Skel::map(|x: &i64| x.wrapping_mul(31))
            .then(Skel::rotate(1))
            .then(Skel::map(|x: &i64| x.wrapping_add(7)))
            .then(Skel::rotate(-1))
            .then(Skel::map_costed(|x: &i64| (x ^ 0x55, Work::flops(1))))
    };
    let input = |k: i64| ParArray::from_parts(vec![k, k + 1, k + 2, k + 3]);
    let eager_plan = plan();
    let mut scl = Scl::new(Machine::ap1000(4));
    let eager: Vec<_> = (0..10_000)
        .map(|k| {
            scl.reset();
            let out = eager_plan.run(&mut scl, input(k));
            (out, scl.machine.report())
        })
        .collect();
    for (capacity, width) in [(8usize, 4usize), (2, 4), (1, 3)] {
        let make = || {
            StreamExec::new(
                plan(),
                StreamPolicy::new(Machine::ap1000(4))
                    .with_exec(ExecPolicy::Threads(width))
                    .with_capacity(capacity),
            )
        };
        let exec = make();
        let stages = exec.farm_stages().max(1);
        for st in exec.stage_stats().iter().filter(|st| st.farm) {
            assert_eq!(
                st.max_width,
                width.min(capacity),
                "{capacity}x{width}: {st:?}"
            );
        }
        let mut iter = exec.run_stream((0..10_000).map(input));
        let mut count = 0usize;
        for out in iter.by_ref() {
            assert_eq!(out, eager[count].0, "{capacity}x{width} item {count}");
            count += 1;
        }
        let exec = iter.into_executor();
        assert_eq!(count, 10_000);
        assert_eq!(exec.in_flight(), 0);
        // per farm stage: in-queue (cap) + out-queue (cap) + busy replicas
        // (width) + reorder buffer (≤ cap + width) + park slot, plus the
        // entry slot — O(capacity × stages), independent of the 10k length
        let per_stage = (3 * capacity + 2 * width + 1) as u64;
        let bound = per_stage * stages as u64 + 2;
        let peak = exec.peak_in_flight();
        assert!(
            peak <= bound,
            "{capacity}x{width}: peak in-flight {peak} exceeded O(capacity × stages) bound {bound}"
        );
        // and the pipeline genuinely overlapped items
        if exec.farm_stages() > 0 {
            assert!(
                peak > 1,
                "{capacity}x{width}: graph never held more than one item"
            );
        }
        let t = exec.throughput();
        assert_eq!(t.items, 10_000);
        assert!(t.items_per_sec() > 0.0);
        // the clamped farm charges exactly what eager does, item for item
        if (capacity, width) == (2, 4) {
            let mut exec = make();
            for k in 0..500 {
                exec.push(input(k)).unwrap();
            }
            for (k, done) in exec.drain_with_reports().into_iter().enumerate() {
                assert_eq!(done, eager[k], "{capacity}x{width} item {k}");
            }
        }
    }
}

#[test]
fn stream_exec_rejects_oversized_items_up_front() {
    let mut exec = StreamExec::new(
        Skel::map(|x: &i64| *x),
        StreamPolicy::new(Machine::ap1000(2)),
    );
    let err = exec
        .push(ParArray::from_parts(vec![1i64, 2, 3, 4]))
        .unwrap_err();
    assert_eq!(
        err,
        scl_core::SclError::MachineTooSmall {
            needed: 4,
            procs: 2
        }
    );
}
