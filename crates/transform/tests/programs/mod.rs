//! The seeded generators of well-typed skeleton programs that the
//! property suites share: random array→array pipelines (`arb_program`)
//! and the same pipelines closed by a sequential `foldr`
//! (`foldr_program`), the only programs `map-distribution` sees. Each
//! suite includes this file as a module and uses what it needs.
#![allow(dead_code, clippy::explicit_auto_deref)] // `pick` needs the deref

use scl_testkit::Rng;
use scl_transform::{Expr, FnRef, IdxRef};

/// Names available in `Registry::standard()`.
pub const SCALARS: &[&str] = &["inc", "dec", "double", "square", "neg", "halve", "heavy"];
pub const IDXFNS: &[&str] = &["id", "succ", "pred", "xor1", "half", "rev", "zero"];
pub const ASSOC_OPS: &[&str] = &["add", "mul", "max", "min"];

pub fn arb_fnref(rng: &mut Rng) -> FnRef {
    if rng.bool() {
        FnRef::named(*rng.pick(SCALARS))
    } else {
        FnRef::named(*rng.pick(SCALARS)).then_after(FnRef::named(*rng.pick(SCALARS)))
    }
}

pub fn arb_idxref(rng: &mut Rng) -> IdxRef {
    IdxRef::named(*rng.pick(IDXFNS))
}

/// One flat (array → array) step.
pub fn arb_step(rng: &mut Rng) -> Expr {
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
pub fn arb_flattenable_body(rng: &mut Rng) -> Expr {
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
pub fn arb_nested_block(rng: &mut Rng) -> Expr {
    let p = rng.range_usize(1, 5);
    let body = arb_flattenable_body(rng);
    Expr::pipeline(vec![
        Expr::Split(p),
        Expr::MapGroups(Box::new(body)),
        Expr::Combine,
    ])
}

/// A random well-typed array→array program.
pub fn arb_program(rng: &mut Rng) -> Expr {
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

/// A random pipeline closed by a sequential `foldr`, over an associative
/// operator or not (`sub`).
pub fn foldr_program(rng: &mut Rng) -> Expr {
    let op = *rng.pick(&["add", "mul", "max", "min", "sub"]);
    Expr::pipeline(vec![
        arb_program(rng),
        Expr::FoldrMap(op.to_string(), arb_fnref(rng)),
    ])
}

pub fn arb_input(rng: &mut Rng) -> Vec<i64> {
    let len = rng.range_usize(8, 32);
    rng.vec_of(len, |r| r.range_i64(-1_000_000, 1_000_000))
}
