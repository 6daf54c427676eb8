//! Cross-crate integration: the transformation engine's programs executed
//! through the real skeleton runtime, optimised and unoptimised, must
//! agree with each other and with the reference interpreter — and the
//! optimised program must charge the simulated machine no more virtual
//! time than the original.

#[path = "../crates/transform/tests/programs/mod.rs"]
mod programs;

use scl::prelude::*;
use scl_testkit::{cases, Rng};
use scl_transform::normalize;

/// Execute a (flat, array→array) IR program through the *runtime* skeleton
/// layer on a real `Scl` context, one scalar per processor — by raising it
/// into a `Skel` plan (the plan API's `from_expr` back-end).
fn run_on_scl(e: &Expr, reg: &Registry, scl: &mut Scl, input: &[i64]) -> Vec<i64> {
    let arr = scl_core::ParArray::from_parts(input.to_vec());
    let plan = Skel::from_expr(e, reg).expect("program is in the array→array fragment");
    plan.run(scl, arr).to_vec()
}

fn program() -> Expr {
    Expr::pipeline(vec![
        Expr::Map(FnRef::named("inc")),
        Expr::Rotate(2),
        Expr::Map(FnRef::named("double")),
        Expr::Rotate(-2),
        Expr::Fetch(IdxRef::named("succ")),
        Expr::Fetch(IdxRef::named("xor1")),
        Expr::Map(FnRef::named("square")),
        Expr::Map(FnRef::named("neg")),
    ])
}

#[test]
fn optimized_program_agrees_with_original_on_the_runtime() {
    let reg = Registry::standard();
    let input: Vec<i64> = (0..16).map(|i| i * 3 - 7).collect();

    let original = program();
    let (optimized, log) = optimize(original.clone(), &reg);
    assert!(!log.is_empty(), "the program has fusable stages");

    let mut scl1 = Scl::ap1000(16);
    let out1 = run_on_scl(&original, &reg, &mut scl1, &input);
    let mut scl2 = Scl::ap1000(16);
    let out2 = run_on_scl(&optimized, &reg, &mut scl2, &input);

    assert_eq!(out1, out2, "optimization changed runtime semantics");

    // the interpreter agrees with both
    let interp = eval(&original, &reg, Value::Arr(input)).unwrap();
    assert_eq!(Value::Arr(out1), interp);

    // and the optimized program is cheaper in virtual time
    assert!(
        scl2.makespan() <= scl1.makespan(),
        "optimized {} vs original {}",
        scl2.makespan(),
        scl1.makespan()
    );
    // fewer messages, too (fetch fusion halves the permutes; rotates cancel)
    assert!(scl2.machine.metrics.messages < scl1.machine.metrics.messages);
}

/// Run `e` on `scl` over `input` as the runtime would: its array prefix
/// through the raised plan, then a trailing `fold` through
/// `Scl::fold_costed` and a trailing `foldr` as a `gather` to processor 0
/// followed by `n` applications of its operator and function there.
fn run_program(e: &Expr, reg: &Registry, scl: &mut Scl, input: &[i64]) {
    let (prefix, tail) = match normalize(e.clone()) {
        Expr::Compose(mut es) if matches!(es[0], Expr::Fold(_) | Expr::FoldrMap(..)) => {
            let tail = es.remove(0);
            (normalize(Expr::Compose(es)), Some(tail))
        }
        tail @ (Expr::Fold(_) | Expr::FoldrMap(..)) => (Expr::Id, Some(tail)),
        _ => (e.clone(), None),
    };
    let out = scl_core::ParArray::from_parts(run_on_scl(&prefix, reg, scl, input));
    match tail {
        Some(Expr::Fold(op)) => {
            let w = reg.op_work(&op).unwrap();
            scl.fold_costed(&out, |a, b| reg.apply_op(&op, *a, *b).unwrap(), w);
        }
        Some(Expr::FoldrMap(op, g)) => {
            let per = reg.op_work(&op).unwrap() + reg.fn_work(&g).unwrap();
            let work = (0..out.len()).fold(Work::NONE, |w, _| w + per);
            let cells = out.to_vec().into_iter().map(|x| vec![x]).collect();
            let _ = scl.gather_owned(scl_core::ParArray::from_parts(cells));
            scl.machine.compute(0, work, "foldr");
        }
        _ => {}
    }
}

#[test]
fn estimate_equals_the_run_makespan() {
    // The §4 optimiser's cost is the machine's charge: registry functions
    // carry fixed work and routes depend on indices alone, so the dry run
    // on zero parts is charged, bit for bit, what a run on random data is.
    // Every generated program is choice-free; each is checked as generated
    // and optimised.
    let reg = Registry::standard();
    let check = |e: Expr, rng: &mut Rng| {
        let n = rng.range_usize(8, 64);
        let input = rng.vec_of(n, |r| r.range_i64(-1_000_000, 1_000_000));
        for e in [optimize(e.clone(), &reg).0, e] {
            let mut scl = Scl::ap1000(n);
            run_program(&e, &reg, &mut scl, &input);
            assert_eq!(
                estimate(&e, &reg, Machine::ap1000(n)),
                Ok(scl.makespan()),
                "{e} on {n} cells"
            );
        }
    };
    cases(1024, 0xE571, |rng| check(programs::arb_program(rng), rng));
    cases(256, 0xE572, |rng| check(programs::foldr_program(rng), rng));
}

#[test]
fn whole_stack_smoke() {
    // partition (core) -> sort kernels (apps) -> machine report (machine)
    // -> verify with transform's interpreter on a trivial identity program.
    let data = scl::apps::workloads::uniform_keys(5_000, 123);
    let mut scl = Scl::hypercube(8, CostModel::ap1000());
    let sorted = scl::apps::hyperquicksort::hyperquicksort_flat(&mut scl, &data, 3);
    let mut expect = data.clone();
    expect.sort_unstable();
    assert_eq!(sorted, expect);

    let report = scl.machine.report();
    assert_eq!(report.procs, 8);
    assert!(report.makespan.as_secs() > 0.0);
    assert!(report.metrics.messages > 0);

    let reg = Registry::standard();
    let id = Expr::Id;
    assert_eq!(
        eval(&id, &reg, Value::Arr(sorted.clone())).unwrap(),
        Value::Arr(sorted)
    );
}
