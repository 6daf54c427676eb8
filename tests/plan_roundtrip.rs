//! Property tests for the plan API's central guarantee: for any plan in
//! the lowerable fragment, eager `Skel::run` and the full
//! lower → `optimize` → raise → run path produce identical results — and
//! the rewrites really fire (they are observable in the `optimize` log).

#![allow(clippy::explicit_auto_deref)] // clippy's suggestion breaks inference on pick()
use scl::prelude::*;
use scl_core::ParArray;
use scl_testkit::{cases, Rng};

const SCALARS: &[&str] = &["inc", "dec", "double", "square", "neg", "halve", "heavy"];
const IDXFNS: &[&str] = &["id", "succ", "pred", "xor1", "half", "rev", "zero"];
const ASSOC_OPS: &[&str] = &["add", "mul", "max", "min"];

/// One random lowerable stage, as (plan, human-readable tag).
fn arb_stage<'r>(rng: &mut Rng, reg: &'r Registry) -> Skel<'r, ParArray<i64>, ParArray<i64>> {
    match rng.below(5) {
        0 => Skel::map_sym(*rng.pick(SCALARS), reg),
        1 => Skel::rotate(rng.range_i64(-6, 7) as isize),
        2 => Skel::fetch_sym(*rng.pick(IDXFNS), reg),
        3 => Skel::send_sym(*rng.pick(IDXFNS), reg),
        _ => Skel::scan_sym(*rng.pick(ASSOC_OPS), reg),
    }
}

/// A random lowerable pipeline of 1–7 stages.
fn arb_plan<'r>(rng: &mut Rng, reg: &'r Registry) -> Skel<'r, ParArray<i64>, ParArray<i64>> {
    let len = rng.range_usize(1, 8);
    let mut plan = arb_stage(rng, reg);
    for _ in 1..len {
        plan = plan.then(arb_stage(rng, reg));
    }
    plan
}

fn arb_input(rng: &mut Rng) -> ParArray<i64> {
    let n = rng.range_usize(4, 24);
    ParArray::from_parts(rng.vec_of(n, |r| r.range_i64(-1_000_000, 1_000_000)))
}

#[test]
fn eager_run_agrees_with_optimize_then_execute() {
    let reg = Registry::standard();
    cases(128, 0xB1, |rng| {
        let plan = arb_plan(rng, &reg);
        let input = arb_input(rng);
        let n = input.len();

        let mut eager_ctx = Scl::ap1000(n);
        let eager = plan.run(&mut eager_ctx, input.clone());

        let mut opt_ctx = Scl::ap1000(n);
        let (optimized, _log) = opt_ctx.run_optimized(&plan, &reg, input);

        assert_eq!(
            eager.to_vec(),
            optimized.to_vec(),
            "plan {} diverged after optimization",
            plan.lower(&reg).unwrap()
        );
        // optimization must never cost *more* virtual time
        assert!(
            opt_ctx.makespan() <= eager_ctx.makespan(),
            "optimized {} vs eager {}",
            opt_ctx.makespan(),
            eager_ctx.makespan()
        );
    });
}

#[test]
fn eager_run_agrees_with_the_reference_interpreter() {
    let reg = Registry::standard();
    cases(128, 0xB2, |rng| {
        let plan = arb_plan(rng, &reg);
        let input = arb_input(rng);
        let e = plan.lower(&reg).expect("generated plans are lowerable");

        let mut scl = Scl::ap1000(input.len());
        let got = plan.run(&mut scl, input.clone()).to_vec();
        let expect = eval(&e, &reg, Value::Arr(input.to_vec())).unwrap();
        assert_eq!(
            Value::Arr(got),
            expect,
            "plan {e} disagrees with the interpreter"
        );
    });
}

#[test]
fn adjacent_maps_always_fuse_observably() {
    let reg = Registry::standard();
    cases(96, 0xB3, |rng| {
        // force a fusible pair: ... map(f) . map(g) ... somewhere
        let prefix = arb_plan(rng, &reg);
        let plan = prefix
            .then(Skel::map_sym(*rng.pick(SCALARS), &reg))
            .then(Skel::map_sym(*rng.pick(SCALARS), &reg));
        let input = arb_input(rng);

        let mut eager_ctx = Scl::ap1000(input.len());
        let eager = plan.run(&mut eager_ctx, input.clone());
        let mut opt_ctx = Scl::ap1000(input.len());
        let (optimized, log) = opt_ctx.run_optimized(&plan, &reg, input);

        assert_eq!(eager.to_vec(), optimized.to_vec());
        // the rewrite must be observable in the optimize log
        assert!(
            log.iter().any(|a| a.rule == "map-fusion"),
            "no map-fusion logged for {}",
            plan.lower(&reg).unwrap()
        );
    });
}

#[test]
fn cancelling_rotations_always_vanish_observably() {
    let reg = Registry::standard();
    cases(96, 0xB4, |rng| {
        let k = rng.range_i64(1, 6) as isize;
        let prefix = arb_plan(rng, &reg);
        let plan = prefix.then(Skel::rotate(k)).then(Skel::rotate(-k));
        let input = arb_input(rng);

        let mut eager_ctx = Scl::ap1000(input.len());
        let eager = plan.run(&mut eager_ctx, input.clone());
        let mut opt_ctx = Scl::ap1000(input.len());
        let (optimized, log) = opt_ctx.run_optimized(&plan, &reg, input);

        assert_eq!(eager.to_vec(), optimized.to_vec());
        assert!(
            log.iter().any(|a| a.rule == "rotate-fusion"),
            "no rotate-fusion logged for {}",
            plan.lower(&reg).unwrap()
        );
        // and the fused rotation must actually be gone from the program
        // that ran: rotate(k) . rotate(-k) contributes zero messages
        let opt_expr = scl::transform::optimize(plan.lower(&reg).unwrap(), &reg).0;
        let rotations = opt_expr.count(&|x| matches!(x, Expr::Rotate(_)));
        let original = plan.lower(&reg).unwrap();
        let before = original.count(&|x| matches!(x, Expr::Rotate(_)));
        assert!(
            rotations < before,
            "{original} kept all its rotations: {opt_expr}"
        );
    });
}

#[test]
fn raised_plans_relower_to_the_same_program() {
    let reg = Registry::standard();
    cases(96, 0xB5, |rng| {
        let plan = arb_plan(rng, &reg);
        let e = plan.lower(&reg).unwrap();
        let raised = Skel::from_expr(&e, &reg).unwrap();
        assert_eq!(
            raised.repr(),
            Some(&e),
            "from_expr keeps its program as the repr"
        );
        assert_eq!(
            raised.lower(&reg),
            Some(e),
            "lower ∘ from_expr must be the identity"
        );
    });
}
