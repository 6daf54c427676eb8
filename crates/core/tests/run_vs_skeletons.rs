//! The eager oracle, one level down: every combinator with an op form,
//! run through `Skel::run` (the op chain's walker with per-stage
//! charging), equals a direct call of the `Scl` skeleton method it names
//! — in output and in the full `MachineReport` — under the sequential,
//! threaded and cost-driven policies.

use scl_core::prelude::*;
use scl_core::ParArray;
use scl_transform::FnRef;
use std::fmt::Debug;

const PROCS: usize = 8;

fn policies() -> [ExecPolicy; 3] {
    [
        ExecPolicy::Sequential,
        ExecPolicy::Threads(2),
        ExecPolicy::cost_driven(),
    ]
}

/// `plan.run` and `direct` on twin AP1000 contexts agree in output and
/// report under every policy.
fn agree<A: Clone, B: PartialEq + Debug>(
    name: &str,
    plan: Skel<'_, A, B>,
    input: A,
    direct: impl Fn(&mut Scl, A) -> B,
) {
    for policy in policies() {
        let mut via_run = Scl::ap1000(PROCS).with_policy(policy);
        let mut via_scl = Scl::ap1000(PROCS).with_policy(policy);
        let got = plan.run(&mut via_run, input.clone());
        let want = direct(&mut via_scl, input.clone());
        assert_eq!(got, want, "{name} ({policy:?})");
        assert_eq!(
            via_run.machine.report(),
            via_scl.machine.report(),
            "{name} ({policy:?})"
        );
    }
}

fn ints() -> ParArray<i64> {
    ParArray::from_parts((0..PROCS as i64).map(|i| i * 7 - 20).collect())
}

/// Uneven parts, so `balance` has something to move.
fn runs() -> ParArray<Vec<i64>> {
    ParArray::from_parts((0..PROCS as i64).map(|i| (0..i * 3).collect()).collect())
}

#[test]
fn compute_stages_run_as_the_compute_skeletons() {
    agree("map", Skel::map(|x: &i64| x * 3), ints(), |scl, a| {
        scl.map(&a, |x| x * 3)
    });
    agree(
        "imap",
        Skel::imap(|i, x: &i64| x + i as i64),
        ints(),
        |scl, a| scl.imap(&a, |i, x| x + i as i64),
    );
    agree(
        "map_costed",
        Skel::map_costed(|x: &i64| (x - 1, Work::flops(3))),
        ints(),
        |scl, a| scl.map_costed(&a, |x| (x - 1, Work::flops(3))),
    );
    agree(
        "imap_costed",
        Skel::imap_costed(|i, x: &i64| (x ^ i as i64, Work::cmps(i as u64 + 1))),
        ints(),
        |scl, a| scl.imap_costed(&a, |i, x| (x ^ i as i64, Work::cmps(i as u64 + 1))),
    );
    agree(
        "farm",
        Skel::farm(|k: &i64, x: &i64| x * k, 5i64),
        ints(),
        |scl, a| scl.farm(|k, x| x * k, &5i64, &a),
    );
    agree(
        "zip_with",
        Skel::zip_with(|x: &i64, y: &i64| x * 10 + y),
        (ints(), ints()),
        |scl, (a, b)| scl.zip_with(&a, &b, |x, y| x * 10 + y),
    );
}

#[test]
fn symbolic_stages_run_as_their_registered_meaning() {
    let reg = Registry::standard();
    let square = FnRef::named("square");
    let w = reg.fn_work(&square).unwrap();
    agree(
        "map_sym",
        Skel::map_sym("square", &reg),
        ints(),
        |scl, a| scl.map_costed(&a, |x| (reg.apply_fn(&square, *x).unwrap(), w)),
    );
    agree(
        "zip_sym",
        Skel::zip_sym("add", &reg),
        (ints(), ints()),
        |scl, (a, b)| scl.zip_with(&a, &b, |x, y| reg.apply_op("add", *x, *y).unwrap()),
    );
}

#[test]
fn communication_barriers_run_as_the_comm_skeletons() {
    agree("rotate", Skel::rotate(3), ints(), |scl, a| {
        scl.rotate(3, &a)
    });
    agree("shift", Skel::shift(-2, 99i64), ints(), |scl, a| {
        scl.shift(-2, &a, &99)
    });
    agree(
        "scan",
        Skel::scan(|x: &i64, y: &i64| x.max(y) + 1),
        ints(),
        |scl, a| scl.scan(&a, |x, y| x.max(y) + 1),
    );
    agree(
        "fold_all",
        Skel::fold_all(|x: &i64, y: &i64| x + y, Work::flops(1)),
        ints(),
        |scl, a| scl.fold_all(&a, |x, y| x + y, Work::flops(1)),
    );
    agree("brdcast", Skel::brdcast(7u32), ints(), |scl, a| {
        scl.brdcast(&7u32, &a)
    });
    let buckets: ParArray<Vec<Vec<i64>>> = ParArray::from_parts(
        (0..PROCS as i64)
            .map(|i| (0..PROCS as i64).map(|j| vec![i, j, i * j]).collect())
            .collect(),
    );
    agree(
        "total_exchange",
        Skel::total_exchange(),
        buckets,
        |scl, a| scl.total_exchange(&a),
    );
}

#[test]
fn configuration_barriers_run_as_the_config_skeletons() {
    let data: Vec<i64> = (0..101).map(|x| x * 3 - 50).collect();
    agree(
        "partition",
        Skel::partition(Pattern::Block(PROCS)),
        data,
        |scl, d| scl.partition(Pattern::Block(PROCS), &d),
    );
    agree("gather", Skel::gather(), runs(), |scl, a| scl.gather(&a));
    agree("balance", Skel::balance(), runs(), |scl, a| scl.balance(&a));
}
