//! The programs the ladders and the open loop run, as IR stage lists in
//! **execution order**, with the hand-written kernel that is both the
//! bottom rung and the correctness oracle of every rung above it.

use scl_testkit::Rng;
use scl_transform::{Expr, FnRef, IdxRef, Registry};

/// A skeleton program over one `i64` per part: `map`, `rotate`, `scan`
/// and `fetch` stages in the order they execute.
#[derive(Debug, Clone)]
pub struct Program {
    pub stages: Vec<Expr>,
}

impl Program {
    /// The IR form (composition is written outermost first, so the stage
    /// list is reversed inside [`Expr::pipeline`]).
    pub fn expr(&self) -> Expr {
        Expr::pipeline(self.stages.clone())
    }

    /// The concrete syntax the wire carries.
    pub fn source(&self) -> String {
        self.expr().to_string()
    }

    /// The bottom rung: a plain loop over the registry's scalar functions,
    /// no skeleton layer, no machine accounting.
    pub fn kernel(&self, reg: &Registry, input: &[i64]) -> Vec<i64> {
        let n = input.len();
        let mut cur = input.to_vec();
        for st in &self.stages {
            match st {
                Expr::Map(f) => {
                    for x in cur.iter_mut() {
                        *x = reg.apply_fn(f, *x).expect("registered scalar");
                    }
                }
                Expr::Rotate(k) => {
                    cur = (0..n as i64)
                        .map(|i| cur[(i + k).rem_euclid(n as i64) as usize])
                        .collect();
                }
                Expr::Scan(op) => {
                    for i in 1..n {
                        cur[i] = reg.apply_op(op, cur[i - 1], cur[i]).expect("registered op");
                    }
                }
                Expr::Fetch(h) => {
                    cur = (0..n)
                        .map(|i| cur[reg.apply_idx(h, i, n).expect("registered index fn")])
                        .collect();
                }
                other => panic!("kernel has no loop for `{other}`"),
            }
        }
        cur
    }
}

fn map_of(names: &[&str]) -> Expr {
    match names {
        [one] => Expr::Map(FnRef::named(one)),
        many => Expr::Map(FnRef::Comp(many.iter().map(|n| FnRef::named(n)).collect())),
    }
}

/// `ladder_heavy`: 16 × `map((heavy . heavy . heavy . heavy))` with one
/// `rotate(1)` after the 8th.
pub fn heavy() -> Program {
    let mut stages = Vec::new();
    for i in 0..16 {
        stages.push(map_of(&["heavy"; 4]));
        if i == 7 {
            stages.push(Expr::Rotate(1));
        }
    }
    Program { stages }
}

/// `ladder_tiny`: the same shape with no work — 16 single-op maps and
/// four barriers of four different kinds.
pub fn tiny() -> Program {
    let ops = ["inc", "double", "dec", "neg"];
    let mut stages = Vec::new();
    for i in 0..16 {
        stages.push(map_of(&[ops[i % 4]]));
        match i {
            3 => stages.push(Expr::Rotate(1)),
            7 => stages.push(Expr::Scan("add".to_string())),
            11 => stages.push(Expr::Fetch(IdxRef::named("rev"))),
            13 => stages.push(Expr::Rotate(-1)),
            _ => {}
        }
    }
    Program { stages }
}

/// How many distinct plans tenant `churn` cycles through: more than the
/// plan cache's 32 entries, so an LRU cache misses every time.
pub const CHURN_PLANS: usize = 48;

/// Tenant `churn`'s plan set: 24 symbolic map stages each, a cancelling
/// rotation pair after every fourth (work for the §4 optimiser), closed by
/// a rotation that differs per plan so all fingerprints differ.
pub fn churn_set(seed: u64) -> Vec<Program> {
    let ops = ["inc", "double", "dec", "square", "neg"];
    let mut rng = Rng::seed_from_u64(seed ^ 0xc4_07_2b);
    (0..CHURN_PLANS)
        .map(|p| {
            let mut stages = Vec::new();
            for s in 0..24 {
                stages.push(map_of(&[*rng.pick(&ops)]));
                if s % 4 == 3 {
                    let k = rng.range_i64(1, 6);
                    stages.push(Expr::Rotate(k));
                    stages.push(Expr::Rotate(-k));
                }
            }
            stages.push(Expr::Rotate(p as i64 + 1));
            Program { stages }
        })
        .collect()
}

/// `count` seeded inputs of `parts` values each, small enough that the
/// tiny plan's arithmetic stays readable in a failure message.
pub fn inputs(seed: u64, count: usize, parts: usize) -> Vec<Vec<i64>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| rng.vec_of(parts, |r| r.range_i64(-1000, 1000)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_transform::{eval, parse, Value};

    /// The kernel is the oracle of every rung, so it is itself checked
    /// against the reference interpreter.
    #[test]
    fn kernel_agrees_with_the_reference_interpreter() {
        let reg = Registry::standard();
        let mut programs = vec![heavy(), tiny()];
        programs.extend(churn_set(7));
        for p in programs {
            for input in inputs(11, 3, 8) {
                let want = eval(&p.expr(), &reg, Value::Arr(input.clone()))
                    .and_then(Value::into_arr)
                    .expect("program evaluates");
                assert_eq!(p.kernel(&reg, &input), want, "{}", p.source());
            }
        }
    }

    #[test]
    fn source_parses_back_to_the_same_program() {
        for p in [heavy(), tiny(), churn_set(1).remove(0)] {
            assert_eq!(parse(&p.source()), Ok(p.expr()));
        }
    }

    #[test]
    fn churn_plans_are_distinct_and_seeded() {
        let a: Vec<String> = churn_set(3).iter().map(Program::source).collect();
        let b: Vec<String> = churn_set(3).iter().map(Program::source).collect();
        let c: Vec<String> = churn_set(4).iter().map(Program::source).collect();
        assert_eq!(a, b, "same seed, same plan set");
        assert_ne!(a, c, "another seed, another plan set");
        let mut uniq = a.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), CHURN_PLANS);
    }
}
