//! Per-stage charging does not depend on the schedule. A three-stage
//! segment run with per-stage charging gives the same output and the same
//! `MachineReport` on one thread as on several, where the segment is one
//! dispatch and the charges are replayed afterwards. A failing run reports
//! the same first failure, in stage-major order, and leaves the same
//! charges behind.
//!
//! The same holds for a `pair` of two such segments, whose arms go out
//! together as one dispatch on several threads: the charges are replayed
//! arm by arm, left first, exactly as running the arms one after the
//! other makes them.

use scl_core::prelude::*;
use scl_core::{PlanOp, RequestError};
use scl_machine::{Event, MachineReport};
use std::panic::{catch_unwind, AssertUnwindSafe};

const PARTS: usize = 16;

fn policies() -> [ExecPolicy; 3] {
    [
        ExecPolicy::Sequential,
        ExecPolicy::Threads(2),
        ExecPolicy::Threads(4),
    ]
}

fn input() -> ParArray<i64> {
    ParArray::from_parts((0..PARTS as i64).collect())
}

/// `map → imap → map_costed`: one segment of three stages. With `fail`,
/// stage 1 (`imap`) panics on part 9 and stage 2 (`map_costed`) on part 3
/// (whose value there is 3·3 = 9).
fn plan(fail: bool) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    Skel::map(|x: &i64| x * 2)
        .then(Skel::imap(move |i, x: &i64| {
            assert!(!(fail && i == 9), "stage 1 fails on part 9");
            x + i as i64
        }))
        .then(Skel::map_costed(move |x: &i64| {
            assert!(!(fail && *x == 9), "stage 2 fails on part 3");
            (x + 1, Work::flops(*x as u64 + 1))
        }))
}

fn ctx(policy: ExecPolicy) -> Scl {
    Scl::ap1000(PARTS).with_policy(policy)
}

#[test]
fn outputs_and_reports_agree_across_schedules() {
    assert_eq!(plan(false).fused_stages().len(), 3);
    let runs: Vec<(Vec<i64>, MachineReport)> = policies()
        .into_iter()
        .map(|policy| {
            let mut scl = ctx(policy);
            let out = plan(false).run(&mut scl, input());
            (out.to_vec(), scl.machine.report())
        })
        .collect();
    let expect: Vec<i64> = (0..PARTS as i64).map(|i| 3 * i + 1).collect();
    assert_eq!(runs[0].0, expect);
    for (policy, run) in policies().iter().zip(&runs) {
        assert_eq!(run, &runs[0], "{policy:?}");
    }
}

#[test]
fn a_failing_segment_reports_the_stage_major_first_failure_under_every_schedule() {
    let mut reports = Vec::new();
    for policy in policies() {
        let ops = plan(true).into_stream_ops();
        assert_eq!(ops.len(), 1, "{policy:?}: one segment");
        let PlanOp::Segment(seg) = &ops[0] else {
            panic!("{policy:?}: the plan is one segment");
        };
        assert_eq!(seg.len(), 3);
        let mut scl = ctx(policy);
        let Err(err) = seg.run(&mut scl, input().erase(), false) else {
            panic!("{policy:?}: the segment succeeded");
        };
        assert!(
            matches!(&err, RequestError::StagePanic { stage, part: 9, .. } if stage == "imap"),
            "{policy:?}: {err:?}"
        );
        reports.push(scl.machine.report());

        // `Skel::run` re-raises the same failure and leaves the same charges
        let mut scl = ctx(policy);
        let raised = catch_unwind(AssertUnwindSafe(|| plan(true).run(&mut scl, input())));
        let payload = raised.expect_err("the plan panics");
        assert_eq!(
            scl_core::panic_message(&*payload),
            err.to_string(),
            "{policy:?}"
        );
        assert_eq!(&scl.machine.report(), reports.last().unwrap(), "{policy:?}");
    }
    for (policy, report) in policies().iter().zip(&reports) {
        assert_eq!(report, &reports[0], "{policy:?}");
    }
    // stage 0 charged all 16 parts, stage 1 the 9 parts before the failure
    let mut expect = ctx(ExecPolicy::Sequential);
    Skel::map(|x: &i64| x * 2).run(&mut expect, input());
    let head = ParArray::from_parts((0..9).map(|i| 2 * i).collect::<Vec<i64>>());
    let _ = expect.imap(&head, |i, x| x + i as i64);
    assert_eq!(reports[0], expect.machine.report());
}

type Pair = (ParArray<i64>, ParArray<i64>);

fn pair_input() -> Pair {
    (
        input(),
        ParArray::from_parts((100..100 + PARTS as i64).collect()),
    )
}

/// `map_costed → imap`: the right arm, a segment of two stages. With
/// `fail`, stage 0 panics on part 14 and stage 1 on part 5, so the
/// stage-major first failure is stage 0's, on the later part.
fn right_arm(fail: bool) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    Skel::map_costed(move |x: &i64| {
        assert!(!(fail && *x == 114), "stage 0 fails on part 14");
        (x - 100, Work::cmps(*x as u64))
    })
    .then(Skel::imap(move |i, x: &i64| {
        assert!(!(fail && i == 5), "stage 1 fails on part 5");
        x * 10 + i as i64
    }))
}

/// The three-stage [`plan`] paired with the two-stage [`right_arm`].
fn pair_plan(fail_left: bool, fail_right: bool) -> Skel<'static, Pair, Pair> {
    plan(fail_left).pair(right_arm(fail_right))
}

#[test]
fn pair_outputs_reports_and_charge_order_agree_across_schedules() {
    // (left output, right output, report, trace)
    type Run = (Vec<i64>, Vec<i64>, MachineReport, Vec<Event>);
    let runs: Vec<Run> = policies()
        .into_iter()
        .map(|policy| {
            let mut scl = ctx(policy);
            scl.machine.trace.enable();
            let (l, r) = pair_plan(false, false).run(&mut scl, pair_input());
            let events = scl.machine.trace.events().to_vec();
            (l.to_vec(), r.to_vec(), scl.machine.report(), events)
        })
        .collect();
    let left: Vec<i64> = (0..PARTS as i64).map(|i| 3 * i + 1).collect();
    let right: Vec<i64> = (0..PARTS as i64).map(|i| 11 * i).collect();
    assert_eq!((&runs[0].0, &runs[0].1), (&left, &right));
    // five charged stages, one event per part each, left arm first
    assert_eq!(runs[0].3.len(), 5 * PARTS);
    let labels: Vec<&str> = runs[0]
        .3
        .iter()
        .step_by(PARTS)
        .map(|e| match e {
            Event::Compute { label, .. } => label.as_str(),
            other => panic!("not a compute event: {other:?}"),
        })
        .collect();
    assert_eq!(labels, ["map", "imap", "map_costed", "map_costed", "imap"]);
    for (policy, run) in policies().iter().zip(&runs) {
        assert_eq!(run, &runs[0], "{policy:?}");
    }
}

/// Run `pair_plan(fail_left, fail_right)` under every policy, through the
/// branch op itself and through `Skel::run`; check that every run reports
/// the same failure and leaves the same charges, and return them.
fn failing_pair(fail_left: bool, fail_right: bool) -> (RequestError, MachineReport) {
    let mut runs = Vec::new();
    for policy in policies() {
        let mut ops = pair_plan(fail_left, fail_right).into_stream_ops();
        assert_eq!(ops.len(), 1, "{policy:?}: one branch");
        let PlanOp::Branch(branch) = &mut ops[0] else {
            panic!("{policy:?}: the plan is one branch");
        };
        let mut scl = ctx(policy);
        let Err(err) = branch.try_apply(&mut scl, pair_input().erase(), false) else {
            panic!("{policy:?}: the branch succeeded");
        };
        let report = scl.machine.report();

        let mut scl = ctx(policy);
        let raised = catch_unwind(AssertUnwindSafe(|| {
            pair_plan(fail_left, fail_right).run(&mut scl, pair_input())
        }));
        let payload = raised.expect_err("the plan panics");
        assert_eq!(
            scl_core::panic_message(&*payload),
            err.to_string(),
            "{policy:?}"
        );
        assert_eq!(scl.machine.report(), report, "{policy:?}");
        runs.push((err, report));
    }
    for (policy, run) in policies().iter().zip(&runs) {
        assert_eq!(run.0.to_string(), runs[0].0.to_string(), "{policy:?}");
        assert_eq!(run.1, runs[0].1, "{policy:?}");
    }
    runs.swap_remove(0)
}

#[test]
fn a_failing_left_arm_wins_and_leaves_no_right_arm_charge() {
    let (err, report) = failing_pair(true, true);
    assert!(
        matches!(&err, RequestError::StagePanic { stage, part: 9, .. } if stage == "imap"),
        "{err:?}"
    );
    // the left arm's stage-major prefix, as in the one-segment test above
    let mut expect = ctx(ExecPolicy::Sequential);
    Skel::map(|x: &i64| x * 2).run(&mut expect, input());
    let head = ParArray::from_parts((0..9).map(|i| 2 * i).collect::<Vec<i64>>());
    let _ = expect.imap(&head, |i, x| x + i as i64);
    assert_eq!(report, expect.machine.report());
}

#[test]
fn a_failing_right_arm_leaves_the_left_arm_fully_charged() {
    let (err, report) = failing_pair(false, true);
    assert!(
        matches!(&err, RequestError::StagePanic { stage, part: 14, .. } if stage == "map_costed"),
        "{err:?}"
    );
    // all of the left arm, then the right arm's stage 0 up to part 14
    let mut expect = ctx(ExecPolicy::Sequential);
    plan(false).run(&mut expect, input());
    let head = ParArray::from_parts((100..114).collect::<Vec<i64>>());
    Skel::map_costed(|x: &i64| (x - 100, Work::cmps(*x as u64))).run(&mut expect, head);
    assert_eq!(report, expect.machine.report());
}
