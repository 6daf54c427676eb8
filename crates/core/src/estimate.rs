//! The §4 optimiser's cost of a program is what the simulated machine
//! charges for running it.
//!
//! [`dry_run`] raises an `Expr` with [`Skel::from_expr`] and runs it
//! through [`Skel::run`] on one zero part per processor; [`estimate`] is
//! that run's makespan. Registry functions carry a fixed [`Work`] and
//! every route is a function of the index alone, so the charge does not
//! depend on the data: any input of one element per processor is charged
//! what the zero input is, except that a `choice` is charged for the arm
//! the zero input takes.
//!
//! A trailing scalar step is charged as the skeleton it denotes:
//! `fold(op)` as the reduce [`Scl::fold_costed`] charges with `op`'s work
//! per phase, and `foldr(op . g)` as a gather to processor 0 followed by
//! `n` applications of `op` and `g` there.

use crate::array::ParArray;
use crate::bytes::Bytes;
use crate::ctx::Scl;
use crate::plan::Skel;
use scl_machine::{Machine, MachineReport, Time, Work};
use scl_transform::{normalize, Expr, Registry};

/// The makespan of `e` on `machine`: [`dry_run`]'s charge.
pub fn estimate(e: &Expr, reg: &Registry, machine: Machine) -> Result<Time, String> {
    dry_run(e, reg, machine).map(|r| r.makespan)
}

/// Run `e` on `machine` (reset first) over one zero `i64` part per
/// processor, and report what the machine charged. Errors on ill-typed
/// programs (`Skel::from_expr` shape-checks the array prefix), unknown
/// symbols and programs the machine cannot run (a `split` into more
/// groups than there are parts), never panics on them.
pub fn dry_run(e: &Expr, reg: &Registry, mut machine: Machine) -> Result<MachineReport, String> {
    let (prefix, tail) = match normalize(e.clone()) {
        Expr::Compose(mut es) if is_scalar(&es[0]) => {
            let tail = es.remove(0);
            (normalize(Expr::Compose(es)), Some(tail))
        }
        scalar if is_scalar(&scalar) => (Expr::Id, Some(scalar)),
        _ => (e.clone(), None),
    };
    let plan = Skel::from_expr(&prefix, reg)?;
    machine.reset();
    let n = machine.nprocs();
    let mut scl = Scl::new(machine);
    let out = plan
        .try_run(&mut scl, ParArray::from_parts(vec![0i64; n]))
        .map_err(|err| format!("{e}: {err}"))?;
    match tail {
        Some(Expr::Fold(op)) => {
            let w = reg.op_work(&op)?;
            scl.fold_costed(&out, |a, b| reg.apply_op(&op, *a, *b).unwrap_or(0), w);
        }
        Some(Expr::FoldrMap(op, g)) => {
            let per = reg.op_work(&op)? + reg.fn_work(&g)?;
            let work = std::iter::repeat_n(per, out.len()).fold(Work::NONE, Work::plus);
            scl.machine.gather(out.procs(), 0i64.bytes());
            scl.machine.compute(out.procs()[0], work, "foldr");
        }
        _ => {}
    }
    Ok(scl.machine.report())
}

fn is_scalar(e: &Expr) -> bool {
    matches!(e, Expr::Fold(_) | Expr::FoldrMap(..))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_transform::{FnRef, IdxRef};

    fn cost(e: &Expr, n: usize) -> Result<Time, String> {
        estimate(e, &Registry::standard(), Machine::ap1000(n))
    }

    #[test]
    fn id_is_free() {
        assert_eq!(cost(&Expr::Id, 16).unwrap(), Time::ZERO);
    }

    #[test]
    fn rotate_zero_free_nonzero_charged() {
        assert_eq!(cost(&Expr::Rotate(0), 16).unwrap(), Time::ZERO);
        assert!(cost(&Expr::Rotate(1), 16).unwrap() > Time::ZERO);
    }

    #[test]
    fn fused_comm_costs_less() {
        let two = Expr::Compose(vec![
            Expr::Fetch(IdxRef::named("succ")),
            Expr::Fetch(IdxRef::named("succ")),
        ]);
        let one = Expr::Fetch(IdxRef::named("succ").then_after(IdxRef::named("succ")));
        assert!(cost(&one, 16).unwrap() < cost(&two, 16).unwrap());
    }

    #[test]
    fn foldr_is_much_worse_than_fold_map() {
        let seq = Expr::FoldrMap("add".into(), FnRef::named("square"));
        let par = Expr::Compose(vec![
            Expr::Fold("add".into()),
            Expr::Map(FnRef::named("square")),
        ]);
        let (cs, cp) = (cost(&seq, 16).unwrap(), cost(&par, 16).unwrap());
        assert!(cs > cp, "sequential {cs} should exceed parallel {cp}");
    }

    #[test]
    fn nested_equals_segmented_cost_shape() {
        let nested = Expr::pipeline(vec![
            Expr::Split(4),
            Expr::MapGroups(Box::new(Expr::Rotate(1))),
            Expr::Combine,
        ]);
        let flat = Expr::SegRotate { groups: 4, k: 1 };
        assert_eq!(cost(&nested, 16).unwrap(), cost(&flat, 16).unwrap());
    }

    #[test]
    fn fold_is_charged_as_fold_costed() {
        let reg = Registry::standard();
        let mut scl = Scl::ap1000(16);
        let zeros = ParArray::from_parts(vec![0i64; 16]);
        scl.fold_costed(&zeros, |a, b| a + b, reg.op_work("add").unwrap());
        assert_eq!(cost(&Expr::Fold("add".into()), 16).unwrap(), scl.makespan());
    }

    #[test]
    fn choice_is_charged_for_the_arm_zero_takes() {
        let choice = |pred: &str| Expr::Choice {
            pred: FnRef::named(pred),
            left: Box::new(Expr::Rotate(1)),
            right: Box::new(Expr::Id),
        };
        // inc(0) ≠ 0 takes the left arm; double(0) = 0 the right
        assert_eq!(cost(&choice("inc"), 16), cost(&Expr::Rotate(1), 16));
        assert_eq!(cost(&choice("double"), 16).unwrap(), Time::ZERO);
    }

    #[test]
    fn errors_on_bad_programs() {
        // map after fold: ill-typed
        let bad = Expr::pipeline(vec![
            Expr::Fold("add".into()),
            Expr::Map(FnRef::named("inc")),
        ]);
        assert!(cost(&bad, 16).is_err());
        // unknown function
        assert!(cost(&Expr::Map(FnRef::named("nope")), 16).is_err());
        // over-splitting, at the top level and inside a group
        let split = |p| {
            Expr::pipeline(vec![
                Expr::Split(p),
                Expr::MapGroups(Box::new(Expr::Rotate(1))),
                Expr::Combine,
            ])
        };
        assert!(cost(&split(64), 4).is_err());
        assert!(cost(&split(0), 4).is_err());
        let nested = Expr::pipeline(vec![
            Expr::Split(2),
            Expr::MapGroups(Box::new(split(3))),
            Expr::Combine,
        ]);
        assert!(cost(&nested, 4).is_err());
        assert!(cost(&nested, 6).is_ok());
    }

    #[test]
    fn scan_and_fold_scale_with_log_n() {
        for e in [Expr::Fold("add".into()), Expr::Scan("add".into())] {
            let (c4, c64) = (cost(&e, 4).unwrap(), cost(&e, 64).unwrap());
            assert!(c64 > c4, "{e}");
            assert!(
                c64.as_secs() / c4.as_secs() < 6.0,
                "{e}: log growth, not linear"
            );
        }
    }
}
