//! The crate's central guarantee, property-tested: **every transformation
//! preserves meaning**. Random well-typed skeleton programs are generated,
//! optimised to a fixpoint, and checked against the reference interpreter
//! on random data. (Randomised via `scl-testkit`, the workspace's
//! zero-dependency proptest replacement.)
#![allow(clippy::explicit_auto_deref)] // clippy's suggestion breaks inference on pick()

mod programs;

use programs::{arb_fnref, arb_input, arb_program, foldr_program, ASSOC_OPS};
use scl_testkit::cases;
use scl_transform::prelude::*;

#[test]
fn optimize_preserves_semantics() {
    cases(192, 0x71, |rng| {
        let e = arb_program(rng);
        let data = arb_input(rng);
        let reg = Registry::standard();
        let (opt, _) = optimize(e.clone(), &reg);
        let before = eval(&e, &reg, Value::Arr(data.clone()));
        let after = eval(&opt, &reg, Value::Arr(data));
        assert_eq!(before, after, "program: {} => {}", e, opt);
    });
}

#[test]
fn optimize_never_grows_the_term() {
    cases(192, 0x73, |rng| {
        let e = arb_program(rng);
        let reg = Registry::standard();
        let (opt, _) = optimize(e.clone(), &reg);
        assert!(
            opt.size() <= e.size(),
            "{} ({}) => {} ({})",
            e,
            e.size(),
            opt,
            opt.size()
        );
    });
}

#[test]
fn optimize_is_idempotent() {
    cases(192, 0x74, |rng| {
        let e = arb_program(rng);
        let reg = Registry::standard();
        let (once, _) = optimize(e, &reg);
        let (twice, log) = optimize(once.clone(), &reg);
        assert_eq!(once, twice);
        assert!(log.is_empty());
    });
}

#[test]
fn normalize_is_idempotent() {
    cases(192, 0x75, |rng| {
        let e = arb_program(rng);
        let n1 = normalize(e);
        let n2 = normalize(n1.clone());
        assert_eq!(n1, n2);
    });
}

#[test]
fn shapes_preserved_by_optimization() {
    cases(192, 0x76, |rng| {
        let e = arb_program(rng);
        let reg = Registry::standard();
        let (opt, _) = optimize(e.clone(), &reg);
        assert_eq!(shape_of(&e, Shape::Arr), shape_of(&opt, Shape::Arr));
    });
}

#[test]
fn map_distribution_end_to_end() {
    cases(128, 0x77, |rng| {
        // the sequential foldr and the parallel fold∘map agree for
        // associative operators
        let data = arb_input(rng);
        let op = *rng.pick(ASSOC_OPS);
        let f = arb_fnref(rng);
        let reg = Registry::standard();
        let seq = Expr::FoldrMap(op.to_string(), f);
        let (par, log) = optimize(seq.clone(), &reg);
        assert!(log.iter().any(|a| a.rule == "map-distribution"));
        let before = eval(&seq, &reg, Value::Arr(data.clone()));
        let after = eval(&par, &reg, Value::Arr(data));
        assert_eq!(before, after);
    });
}

#[test]
fn print_parse_roundtrip() {
    cases(192, 0x78, |rng| {
        // normalise first: the printer collapses what normalize collapses
        let e = normalize(arb_program(rng));
        let text = e.to_string();
        let back = scl_transform::parse(&text)
            .unwrap_or_else(|err| panic!("could not re-parse `{text}`: {err}"));
        assert_eq!(back, e, "source: {}", text);
    });
}

#[test]
fn parsed_program_means_the_same() {
    cases(128, 0x79, |rng| {
        let e = normalize(arb_program(rng));
        let data = arb_input(rng);
        let reg = Registry::standard();
        let back = scl_transform::parse(&e.to_string()).unwrap();
        assert_eq!(
            eval(&e, &reg, Value::Arr(data.clone())),
            eval(&back, &reg, Value::Arr(data))
        );
    });
}

#[test]
fn foldr_programs_optimize_preserving_semantics() {
    cases(128, 0x7B, |rng| {
        let e = foldr_program(rng);
        let data = arb_input(rng);
        let reg = Registry::standard();
        let (opt, _) = optimize(e.clone(), &reg);
        let before = eval(&e, &reg, Value::Arr(data.clone()));
        let after = eval(&opt, &reg, Value::Arr(data));
        assert_eq!(before, after, "program: {} => {}", e, opt);
    });
}
