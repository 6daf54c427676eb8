//! `Skel::fingerprint` runs on every `Serve::submit`: it must hash the
//! plan's IR rendering without building the string.
//!
//! The counting allocator is process-wide, so this file is its own test
//! binary with a single test.

use scl_core::prelude::*;
use scl_testkit::alloc::{allocations, CountingAlloc};
use scl_transform::FnRef;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn fingerprinting_a_lowerable_plan_allocates_nothing() {
    let reg = Registry::standard();
    // composed function symbols, a nested region and a branch: every
    // `Display` impl the rendering goes through
    let composed = FnRef::named("inc").then_after(FnRef::named("double"));
    let e = PlanExpr::pipeline(vec![
        PlanExpr::Map(composed),
        PlanExpr::Split(2),
        PlanExpr::MapGroups(Box::new(PlanExpr::Rotate(1))),
        PlanExpr::Combine,
        PlanExpr::Choice {
            pred: FnRef::named("halve"),
            left: Box::new(PlanExpr::Scan("add".into())),
            right: Box::new(PlanExpr::Rotate(-2)),
        },
    ]);
    let plan = Skel::from_expr(&e, &reg).unwrap();
    let expect = plan.fingerprint();

    let before = allocations();
    let got = plan.fingerprint();
    assert_eq!(allocations() - before, 0, "fingerprint allocated");
    assert_eq!(got, expect);

    // and a plan with a closure stage (no IR to render) likewise
    let closure = || Skel::map(|x: &i64| x + 1).then(Skel::rotate(1));
    let plan = closure();
    let before = allocations();
    let fp = plan.fingerprint();
    assert_eq!(allocations() - before, 0, "fingerprint allocated");
    assert_eq!(fp, closure().fingerprint());
}
