//! Per-stage charging does not depend on the schedule. A three-stage
//! segment run with per-stage charging gives the same output and the same
//! `MachineReport` on one thread as on several, where the segment is one
//! dispatch and the charges are replayed afterwards. A failing run reports
//! the same first failure, in stage-major order, and leaves the same
//! charges behind.

use scl_core::prelude::*;
use scl_core::{PlanOp, RequestError};
use scl_machine::MachineReport;
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
