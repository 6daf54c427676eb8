//! Seeded generator for arbitrary plan **DAGs**.
//!
//! The differential suites pin the executors against each other over
//! randomized *linear* pipelines; this module grows randomized plan
//! graphs — nesting [`Skel::pair`], [`Skel::fanout_sym`],
//! [`Skel::choice_sym`] and [`Skel::dac`] around the existing symbolic
//! stages — so the same bit-for-bit contract can be held over genuinely
//! branching structure.
//!
//! Every generated plan is:
//!
//! * **array→array over `i64`** with one scalar per virtual processor,
//!   like the rest of the lowerable fragment;
//! * **length-preserving** (every leaf stage is), which is what lets the
//!   generator nest `pair` splits: both halves of an even split stay
//!   conforming all the way to the join;
//! * **deterministic in the seed** — the same [`Rng`] stream yields the
//!   same plan, so failures reproduce exactly.
//!
//! [`DagStats`] accumulates which combinators a generation run actually
//! used and how deeply branches nested, so a suite can *assert* its
//! coverage instead of trusting the distribution.
//!
//! [`Skel::pair`]: scl_core::Skel::pair
//! [`Skel::fanout_sym`]: scl_core::Skel::fanout_sym
//! [`Skel::choice_sym`]: scl_core::Skel::choice_sym
//! [`Skel::dac`]: scl_core::Skel::dac

#![allow(clippy::explicit_auto_deref)] // clippy's suggestion breaks inference on pick()

use crate::Rng;
use scl_core::{ParArray, Skel};
use scl_transform::Registry;

/// Scalar functions registered by [`Registry::standard`], usable as map
/// bodies and choice predicates.
pub const SCALARS: &[&str] = &["inc", "dec", "double", "square", "neg", "halve", "heavy"];
/// Index functions registered by [`Registry::standard`].
pub const IDXFNS: &[&str] = &["id", "succ", "pred", "xor1", "half", "rev", "zero"];
/// Associative operators registered by [`Registry::standard`], usable as
/// scan/fanout combiners.
pub const ASSOC_OPS: &[&str] = &["add", "mul", "max", "min"];

/// Coverage accounting for one or many generator runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DagStats {
    /// `pair` branch nodes emitted (including those inside `dac` trees).
    pub pairs: usize,
    /// `fanout` branch nodes emitted.
    pub fanouts: usize,
    /// `choice` branch nodes emitted.
    pub choices: usize,
    /// `dac` trees emitted.
    pub dacs: usize,
    /// Deepest branch-inside-branch nesting reached (1 = a single
    /// un-nested branch).
    pub deepest: usize,
}

impl DagStats {
    /// True when every combinator family appeared at least once.
    pub fn covers_all(&self) -> bool {
        self.pairs > 0 && self.fanouts > 0 && self.choices > 0 && self.dacs > 0
    }
}

/// Read a `u64` seed from environment variable `var` (decimal or
/// `0x`-prefixed hex), falling back to `default` — so CI can sweep the
/// generator through a seed matrix exactly as the chaos suite sweeps
/// `SCL_FAULT_SEED`.
pub fn env_seed(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| {
            let s = s.trim();
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(default)
}

/// One random **lowerable** leaf stage (length-preserving, fusable by
/// construction).
pub fn arb_sym_stage<'r>(
    rng: &mut Rng,
    reg: &'r Registry,
) -> Skel<'r, ParArray<i64>, ParArray<i64>> {
    match rng.below(5) {
        0 => Skel::map_sym(*rng.pick(SCALARS), reg),
        1 => Skel::rotate(rng.range_i64(-6, 7) as isize),
        2 => Skel::fetch_sym(*rng.pick(IDXFNS), reg),
        3 => Skel::send_sym(*rng.pick(IDXFNS), reg),
        _ => Skel::scan_sym(*rng.pick(ASSOC_OPS), reg),
    }
}

/// A short linear chain of leaf stages.
fn arb_chain<'r>(rng: &mut Rng, reg: &'r Registry) -> Skel<'r, ParArray<i64>, ParArray<i64>> {
    let len = rng.range_usize(1, 4);
    let mut plan = arb_sym_stage(rng, reg);
    for _ in 1..len {
        plan = plan.then(arb_sym_stage(rng, reg));
    }
    plan
}

/// The divide stage of a generated `pair`/`dac` region: an even split
/// into conforming halves. Charges nothing, and the closure is shared
/// between the eager and fused paths (it is a [`Skel::barrier`]), so both
/// executions are identical.
///
/// [`Skel::barrier`]: scl_core::Skel::barrier
pub fn split_half<'r>() -> Skel<'r, ParArray<i64>, (ParArray<i64>, ParArray<i64>)> {
    Skel::barrier("dag-split", |_scl, a: ParArray<i64>| {
        let mut parts = a.into_parts();
        debug_assert!(
            parts.len().is_multiple_of(2),
            "dag-split needs an even length"
        );
        let right = parts.split_off(parts.len() / 2);
        (ParArray::from_parts(parts), ParArray::from_parts(right))
    })
}

/// The join stage undoing [`split_half`]: concatenate the halves back
/// into one array.
pub fn join_concat<'r>() -> Skel<'r, (ParArray<i64>, ParArray<i64>), ParArray<i64>> {
    Skel::barrier(
        "dag-join",
        |_scl, (l, r): (ParArray<i64>, ParArray<i64>)| {
            let mut parts = l.into_parts();
            parts.extend(r.into_parts());
            ParArray::from_parts(parts)
        },
    )
}

/// Grow a random plan DAG over arrays of length `n`, with a nesting
/// budget of `depth` branch levels. Records what it built into `stats`.
///
/// Forms, chosen uniformly where the length admits them:
/// chains (`then`), `choice_sym`, `fanout_sym`, an explicit
/// `split · pair · join` region (even `n` only), and a `dac` tree
/// (`n` divisible by `2^levels`). At `depth == 0` only chains grow.
pub fn arb_dag<'r>(
    rng: &mut Rng,
    reg: &'r Registry,
    n: usize,
    depth: usize,
    stats: &mut DagStats,
) -> Skel<'r, ParArray<i64>, ParArray<i64>> {
    grow(rng, reg, n, depth, 0, stats)
}

fn grow<'r>(
    rng: &mut Rng,
    reg: &'r Registry,
    n: usize,
    depth: usize,
    level: usize,
    stats: &mut DagStats,
) -> Skel<'r, ParArray<i64>, ParArray<i64>> {
    if depth == 0 {
        return arb_chain(rng, reg);
    }
    let branched = |stats: &mut DagStats| {
        stats.deepest = stats.deepest.max(level + 1);
    };
    match rng.below(6) {
        // plain sequencing spends no branch budget on this spine, but
        // both sides may still branch
        0 => grow(rng, reg, n, depth - 1, level, stats).then(grow(
            rng,
            reg,
            n,
            depth - 1,
            level,
            stats,
        )),
        1 => {
            branched(stats);
            stats.choices += 1;
            let l = grow(rng, reg, n, depth - 1, level + 1, stats);
            let r = grow(rng, reg, n, depth - 1, level + 1, stats);
            Skel::choice_sym(*rng.pick(SCALARS), l, r, reg)
        }
        2 => {
            branched(stats);
            stats.fanouts += 1;
            let l = grow(rng, reg, n, depth - 1, level + 1, stats);
            let r = grow(rng, reg, n, depth - 1, level + 1, stats);
            Skel::fanout_sym(l, r, *rng.pick(ASSOC_OPS), reg)
        }
        3 if n.is_multiple_of(2) && n >= 2 => {
            branched(stats);
            stats.pairs += 1;
            let l = grow(rng, reg, n / 2, depth - 1, level + 1, stats);
            let r = grow(rng, reg, n / 2, depth - 1, level + 1, stats);
            split_half().then(l.pair(r)).then(join_concat())
        }
        4 if n.is_multiple_of(4) && n >= 4 => {
            branched(stats);
            let levels = if n.is_multiple_of(8) && rng.bool() {
                3
            } else {
                2
            };
            stats.dacs += 1;
            // every pair level of the tree is a pair branch node
            stats.pairs += (1 << levels) - 1;
            stats.deepest = stats.deepest.max(level + levels);
            let base = *rng.pick(SCALARS);
            Skel::dac(
                levels,
                |_| split_half(),
                move || Skel::map_sym(base, reg),
                |_| join_concat(),
            )
        }
        _ => {
            // a branch sandwiched between leaf stages
            branched(stats);
            stats.choices += 1;
            let l = grow(rng, reg, n, depth - 1, level + 1, stats);
            let r = grow(rng, reg, n, depth - 1, level + 1, stats);
            arb_sym_stage(rng, reg)
                .then(Skel::choice_sym(*rng.pick(SCALARS), l, r, reg))
                .then(arb_sym_stage(rng, reg))
        }
    }
}

/// A random input whose length admits every generator form: a multiple
/// of 8 in `[8, 32]`, values spanning the full useful `i64` range.
pub fn arb_dag_input(rng: &mut Rng) -> ParArray<i64> {
    let n = 8 * rng.range_usize(1, 5);
    ParArray::from_parts(rng.vec_of(n, |r| r.range_i64(-1_000_000, 1_000_000)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;

    #[test]
    fn generator_is_deterministic_in_the_seed() {
        let reg = Registry::standard();
        let build = || {
            let mut rng = Rng::seed_from_u64(0xDA6);
            let mut stats = DagStats::default();
            let plan = arb_dag(&mut rng, &reg, 16, 3, &mut stats);
            (plan.fingerprint(), stats)
        };
        let (fp1, st1) = build();
        let (fp2, st2) = build();
        assert_eq!(fp1, fp2, "same seed, same plan");
        assert_eq!(st1, st2);
    }

    #[test]
    fn generator_covers_every_combinator_across_seeds() {
        let reg = Registry::standard();
        let mut stats = DagStats::default();
        cases(64, 0xDA61, |rng| {
            let _ = arb_dag(rng, &reg, 16, 3, &mut stats);
        });
        assert!(stats.covers_all(), "coverage hole: {stats:?}");
        assert!(stats.deepest >= 3, "never nested 3 deep: {stats:?}");
    }

    #[test]
    fn env_seed_parses_decimal_and_hex() {
        assert_eq!(env_seed("SCL_DAG_SEED_UNSET_TEST", 7), 7);
        std::env::set_var("SCL_DAG_SEED_SET_TEST", "0xAB");
        assert_eq!(env_seed("SCL_DAG_SEED_SET_TEST", 7), 0xAB);
        std::env::set_var("SCL_DAG_SEED_SET_TEST", "123");
        assert_eq!(env_seed("SCL_DAG_SEED_SET_TEST", 7), 123);
        std::env::remove_var("SCL_DAG_SEED_SET_TEST");
    }
}
