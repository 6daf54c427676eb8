//! The crate's central guarantee, property-tested: **every transformation
//! preserves meaning**. Random well-typed skeleton programs are generated,
//! optimised to a fixpoint, and checked against the reference interpreter
//! on random data. (Randomised via `scl-testkit`, the workspace's
//! zero-dependency proptest replacement.)
#![allow(clippy::explicit_auto_deref)] // clippy's suggestion breaks inference on pick()

use scl_testkit::{cases, Rng};
use scl_transform::prelude::*;

/// Names available in `Registry::standard()`.
const SCALARS: &[&str] = &["inc", "dec", "double", "square", "neg", "halve", "heavy"];
const IDXFNS: &[&str] = &["id", "succ", "pred", "xor1", "half", "rev", "zero"];
const ASSOC_OPS: &[&str] = &["add", "mul", "max", "min"];

fn arb_fnref(rng: &mut Rng) -> FnRef {
    if rng.bool() {
        FnRef::named(*rng.pick(SCALARS))
    } else {
        FnRef::named(*rng.pick(SCALARS)).then_after(FnRef::named(*rng.pick(SCALARS)))
    }
}

fn arb_idxref(rng: &mut Rng) -> IdxRef {
    IdxRef::named(*rng.pick(IDXFNS))
}

/// One flat (array → array) step.
fn arb_step(rng: &mut Rng) -> Expr {
    match rng.below(6) {
        0 => Expr::Id,
        1 => Expr::Map(arb_fnref(rng)),
        2 => Expr::Rotate(rng.range_i64(-8, 8)),
        3 => Expr::Fetch(arb_idxref(rng)),
        4 => Expr::Send(arb_idxref(rng)),
        _ => Expr::Scan((*rng.pick(ASSOC_OPS)).to_string()),
    }
}

/// A flattenable group body (what the flatten rule can translate).
fn arb_flattenable_body(rng: &mut Rng) -> Expr {
    let len = rng.range_usize(1, 4);
    let stages = (0..len)
        .map(|_| match rng.below(4) {
            0 => Expr::Map(arb_fnref(rng)),
            1 => Expr::Rotate(rng.range_i64(-4, 4)),
            2 => Expr::Fetch(arb_idxref(rng)),
            _ => Expr::Send(arb_idxref(rng)),
        })
        .collect();
    Expr::pipeline(stages)
}

/// A nested split/mapGroups/combine block with small group counts (inputs
/// in the tests always have ≥ 8 elements, so `split` succeeds).
fn arb_nested_block(rng: &mut Rng) -> Expr {
    let p = rng.range_usize(1, 5);
    let body = arb_flattenable_body(rng);
    Expr::pipeline(vec![
        Expr::Split(p),
        Expr::MapGroups(Box::new(body)),
        Expr::Combine,
    ])
}

/// A random well-typed array→array program.
fn arb_program(rng: &mut Rng) -> Expr {
    let len = rng.range_usize(1, 8);
    let stages = (0..len)
        .map(|_| {
            // ~4:1 flat steps to nested blocks, as the proptest version had
            if rng.below(5) < 4 {
                arb_step(rng)
            } else {
                arb_nested_block(rng)
            }
        })
        .collect();
    Expr::pipeline(stages)
}

fn arb_input(rng: &mut Rng) -> Vec<i64> {
    let len = rng.range_usize(8, 32);
    rng.vec_of(len, |r| r.range_i64(-1_000_000, 1_000_000))
}

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
fn estimated_cost_total_for_valid_programs() {
    cases(192, 0x7A, |rng| {
        let e = arb_program(rng);
        let n = rng.range_usize(8, 64);
        let reg = Registry::standard();
        let params = CostParams::ap1000(n);
        // every generated program estimates successfully and non-negatively
        let c = estimate(&e, &reg, &params);
        assert!(c.is_ok(), "{e}: {c:?}");
        assert!(c.unwrap().as_secs() >= 0.0);
    });
}
