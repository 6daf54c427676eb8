//! The in-place rewrite engine against the one it replaced. `reference`
//! is that engine, kept as an oracle: after every rewrite it restarts the
//! search from the root, rebuilds the path it rewrote, normalises the
//! whole program and renders the step. On seeded programs from four
//! sources — the random pipelines of `programs/mod.rs` (the generator
//! `props.rs` uses), lowered plan DAGs (branches), the 37-stage churn
//! shape of the `serve_open` workload, and the same module's pipelines
//! closed by a `foldr` — `optimize` must return the same program and the
//! same rule sequence, and `narrate` the same rendered steps. Every step
//! must also decrease the termination measure stated in
//! `scl_transform::rules`, so the step cap is never reached.
#![allow(clippy::explicit_auto_deref)] // clippy's suggestion breaks inference on pick()

mod programs;

use programs::{arb_program, foldr_program};
use scl_testkit::dag::{arb_dag, arb_dag_input, DagStats};
use scl_testkit::{cases, Rng};
use scl_transform::{narrate, optimize, Expr, FnRef, Registry, Rule};
use std::collections::BTreeSet;

/// The engine as it was before rewriting in place, verbatim apart from
/// the rule form it calls (`apply` below, the rules' cloning form).
mod reference {
    use scl_transform::rules::flatten_body;
    use scl_transform::{Expr, Registry, Rule};

    /// A record of one applied rewrite.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Applied {
        /// Which rule fired.
        pub rule: &'static str,
        /// Pretty-printed expression before.
        pub before: String,
        /// Pretty-printed expression after.
        pub after: String,
    }

    /// Put an expression in normal form:
    /// * nested `Compose` flattened,
    /// * `Id` removed from compositions,
    /// * `Compose([])` → `Id`, `Compose([e])` → `e`,
    /// * normalisation applied recursively inside `MapGroups`.
    pub fn normalize(e: Expr) -> Expr {
        match e {
            Expr::Compose(es) => {
                let mut flat = Vec::with_capacity(es.len());
                for sub in es {
                    match normalize(sub) {
                        Expr::Id => {}
                        Expr::Compose(inner) => flat.extend(inner),
                        other => flat.push(other),
                    }
                }
                match flat.len() {
                    0 => Expr::Id,
                    1 => flat.pop().unwrap(),
                    _ => Expr::Compose(flat),
                }
            }
            Expr::MapGroups(b) => {
                let b = normalize(*b);
                if b == Expr::Id {
                    Expr::Id
                } else {
                    Expr::MapGroups(Box::new(b))
                }
            }
            Expr::Choice { pred, left, right } => Expr::Choice {
                pred,
                left: Box::new(normalize(*left)),
                right: Box::new(normalize(*right)),
            },
            Expr::Fanout {
                left,
                right,
                combine,
            } => Expr::Fanout {
                left: Box::new(normalize(*left)),
                right: Box::new(normalize(*right)),
                combine,
            },
            other => other,
        }
    }

    /// Try one rule application anywhere in `e` (root first, then children,
    /// leftmost-first). Returns the rewritten whole expression.
    pub fn rewrite_once(
        e: &Expr,
        rules: &[Rule],
        reg: &Registry,
        log: &mut Vec<Applied>,
    ) -> Option<Expr> {
        for rule in rules {
            if let Some(out) = apply(rule, e, reg) {
                log.push(Applied {
                    rule: rule.name(),
                    before: e.to_string(),
                    after: normalize(out.clone()).to_string(),
                });
                return Some(out);
            }
        }
        match e {
            Expr::Compose(es) => {
                for (i, sub) in es.iter().enumerate() {
                    if let Some(new_sub) = rewrite_once(sub, rules, reg, log) {
                        let mut out = es.clone();
                        out[i] = new_sub;
                        return Some(Expr::Compose(out));
                    }
                }
                None
            }
            Expr::MapGroups(b) => {
                rewrite_once(b, rules, reg, log).map(|nb| Expr::MapGroups(Box::new(nb)))
            }
            Expr::Choice { pred, left, right } => {
                if let Some(nl) = rewrite_once(left, rules, reg, log) {
                    return Some(Expr::Choice {
                        pred: pred.clone(),
                        left: Box::new(nl),
                        right: right.clone(),
                    });
                }
                rewrite_once(right, rules, reg, log).map(|nr| Expr::Choice {
                    pred: pred.clone(),
                    left: left.clone(),
                    right: Box::new(nr),
                })
            }
            Expr::Fanout {
                left,
                right,
                combine,
            } => {
                if let Some(nl) = rewrite_once(left, rules, reg, log) {
                    return Some(Expr::Fanout {
                        left: Box::new(nl),
                        right: right.clone(),
                        combine: combine.clone(),
                    });
                }
                rewrite_once(right, rules, reg, log).map(|nr| Expr::Fanout {
                    left: left.clone(),
                    right: Box::new(nr),
                    combine: combine.clone(),
                })
            }
            _ => None,
        }
    }

    /// Apply `rules` to a fixpoint (with an iteration cap as a safety net —
    /// the shipped rule set strictly shrinks the term, so the cap is never hit
    /// in practice). Returns the normal form and the log of applications.
    pub fn rewrite_fixpoint(e: Expr, rules: &[Rule], reg: &Registry) -> (Expr, Vec<Applied>) {
        const CAP: usize = 10_000;
        let mut log = Vec::new();
        let mut cur = normalize(e);
        for _ in 0..CAP {
            match rewrite_once(&cur, rules, reg, &mut log) {
                Some(next) => cur = normalize(next),
                None => return (cur, log),
            }
        }
        (cur, log)
    }

    /// Try to apply this rule at the root of `e`.
    pub fn apply(rule: &Rule, e: &Expr, reg: &Registry) -> Option<Expr> {
        match rule {
            Rule::RotateIdentity => match e {
                Expr::Rotate(0) => Some(Expr::Id),
                _ => None,
            },
            Rule::MapDistribution => match e {
                Expr::FoldrMap(op, g) if reg.is_assoc(op) => Some(Expr::Compose(vec![
                    Expr::Fold(op.clone()),
                    Expr::Map(g.clone()),
                ])),
                _ => None,
            },
            Rule::MapFusion => window_rule(e, |a, b| match (a, b) {
                (Expr::Map(f), Expr::Map(g)) => Some(Expr::Map(f.clone().then_after(g.clone()))),
                _ => None,
            }),
            Rule::SendFusion => window_rule(e, |a, b| match (a, b) {
                (Expr::Send(f), Expr::Send(g)) => {
                    // value from k travels g first, then f: dest f(g(k))
                    Some(Expr::Send(f.clone().then_after(g.clone())))
                }
                _ => None,
            }),
            Rule::FetchFusion => window_rule(e, |a, b| match (a, b) {
                (Expr::Fetch(f), Expr::Fetch(g)) => {
                    // z[i] = x[g(f(i))]: apply f first, then g
                    Some(Expr::Fetch(g.clone().then_after(f.clone())))
                }
                _ => None,
            }),
            Rule::RotateFusion => window_rule(e, |a, b| match (a, b) {
                (Expr::Rotate(x), Expr::Rotate(y)) => Some(Expr::Rotate(x + y)),
                _ => None,
            }),
            Rule::Flatten => flatten_rule(e),
            Rule::MapCommCommute => window_rule(e, commute_window),
        }
    }

    /// Is this node a pure data permutation/duplication that commutes with
    /// point-wise maps?
    fn is_commuting_comm(e: &Expr) -> bool {
        matches!(
            e,
            Expr::Rotate(_) | Expr::Fetch(_) | Expr::SegRotate { .. } | Expr::SegFetch { .. }
        )
    }

    /// The `[map f, σ] → [σ, map f]` window (maps drift towards the start of
    /// the dataflow).
    fn commute_window(a: &Expr, b: &Expr) -> Option<Expr> {
        if let (Expr::Map(f), sigma) = (a, b) {
            if is_commuting_comm(sigma) {
                return Some(Expr::Compose(vec![sigma.clone(), Expr::Map(f.clone())]));
            }
        }
        None
    }

    /// Apply a two-element window rule inside a composition:
    /// `Compose([.., a, b, ..])` where `a` runs **after** `b`. The leftmost
    /// window that fires is rewritten.
    fn window_rule(e: &Expr, f: impl Fn(&Expr, &Expr) -> Option<Expr>) -> Option<Expr> {
        let Expr::Compose(es) = e else { return None };
        (0..es.len().saturating_sub(1)).find_map(|i| {
            let merged = f(&es[i], &es[i + 1])?;
            let mut out = es.clone();
            out.splice(i..i + 2, [merged]);
            Some(Expr::Compose(out))
        })
    }

    /// The flattening rule over a 3-element window
    /// `[.., Combine, MapGroups(body), Split(p), ..]`.
    fn flatten_rule(e: &Expr) -> Option<Expr> {
        let Expr::Compose(es) = e else { return None };
        for i in 0..es.len().saturating_sub(2) {
            if let (Expr::Combine, Expr::MapGroups(body), Expr::Split(p)) =
                (&es[i], &es[i + 1], &es[i + 2])
            {
                if let Some(flat) = flatten_body(body, *p) {
                    let mut out = es.clone();
                    out.splice(i..i + 3, [flat]);
                    return Some(Expr::Compose(out));
                }
            }
        }
        None
    }
}

/// The churn shape of the `serve_open` workload: 24 single-op maps, a
/// cancelling rotation pair after every fourth, closed by one more
/// rotation — 37 stages.
fn churn_program(rng: &mut Rng) -> Expr {
    let ops = ["inc", "double", "dec", "square", "neg"];
    let mut stages = Vec::new();
    for s in 0..24 {
        stages.push(Expr::Map(FnRef::named(*rng.pick(&ops))));
        if s % 4 == 3 {
            let k = rng.range_i64(1, 6);
            stages.push(Expr::Rotate(k));
            stages.push(Expr::Rotate(-k));
        }
    }
    stages.push(Expr::Rotate(rng.range_i64(1, 49)));
    Expr::pipeline(stages)
}

/// The termination measure, compared lexicographically: `foldr` nodes,
/// then non-`id` nodes, then the summed distance of every `map` from the
/// start of its composition's dataflow.
fn measure(e: &Expr) -> (usize, usize, usize) {
    fn map_distance(e: &Expr) -> usize {
        match e {
            Expr::Compose(es) => es
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    let here = if matches!(x, Expr::Map(_)) {
                        es.len() - 1 - i
                    } else {
                        0
                    };
                    here + map_distance(x)
                })
                .sum(),
            Expr::MapGroups(b) => map_distance(b),
            Expr::Choice { left, right, .. } | Expr::Fanout { left, right, .. } => {
                map_distance(left) + map_distance(right)
            }
            _ => 0,
        }
    }
    (
        e.count(&|x| matches!(x, Expr::FoldrMap(..))),
        e.count(&|x| !matches!(x, Expr::Id)),
        map_distance(e),
    )
}

/// The engine's step cap (`scl_transform::rewrite`).
const CAP: usize = 10_000;

/// Check one program; returns the rules the reference fired.
fn check(e: &Expr, reg: &Registry) -> Vec<&'static str> {
    let (want, want_log) = reference::rewrite_fixpoint(e.clone(), &Rule::ALL, reg);
    let want_rules: Vec<&str> = want_log.iter().map(|a| a.rule).collect();

    let (got, log) = optimize(e.clone(), reg);
    assert_eq!(got, want, "optimize({e})");
    let rules: Vec<&str> = log.iter().map(|a| a.rule).collect();
    assert_eq!(rules, want_rules, "rule sequence of {e}");

    let (narrated, steps) = narrate(e.clone(), reg);
    assert_eq!(narrated, want, "narrate({e})");
    let rendered: Vec<(&str, &str, &str)> = steps
        .iter()
        .map(|s| (s.rule, s.before.as_str(), s.after.as_str()))
        .collect();
    let want_rendered: Vec<(&str, &str, &str)> = want_log
        .iter()
        .map(|a| (a.rule, a.before.as_str(), a.after.as_str()))
        .collect();
    assert_eq!(rendered, want_rendered, "narrated steps of {e}");

    // every step decreases the measure, so the cap is never reached
    let mut cur = reference::normalize(e.clone());
    let mut taken = 0;
    while let Some(next) = reference::rewrite_once(&cur, &Rule::ALL, reg, &mut Vec::new()) {
        let next = reference::normalize(next);
        assert!(
            measure(&next) < measure(&cur),
            "{cur} => {next}: measure {:?} => {:?}",
            measure(&cur),
            measure(&next)
        );
        cur = next;
        taken += 1;
    }
    assert_eq!(taken, want_log.len());
    assert!(taken < CAP, "{e} reached the step cap");
    want_rules
}

#[test]
fn in_place_engine_matches_the_reference_engine() {
    let reg = Registry::standard();
    let mut programs = 0usize;
    let mut fired = BTreeSet::new();
    let mut run = |e: &Expr| {
        fired.extend(check(e, &reg));
        programs += 1;
    };
    cases(512, 0x0A11, |rng| run(&arb_program(rng)));
    cases(192, 0x0A12, |rng| run(&churn_program(rng)));
    cases(128, 0x0A13, |rng| run(&foldr_program(rng)));
    // `pair` and `dac` regions do not lower, so only some DAGs count
    let mut branched = 0usize;
    cases(512, 0x0A14, |rng| {
        let n = arb_dag_input(rng).len();
        let depth = rng.range_usize(1, 4);
        if let Some(e) = arb_dag(rng, &reg, n, depth, &mut DagStats::default()).lower(&reg) {
            branched += usize::from(
                e.count(&|x| matches!(x, Expr::Choice { .. } | Expr::Fanout { .. })) > 0,
            );
            run(&e);
        }
    });
    assert!(branched >= 64, "only {branched} lowered DAGs branch");
    assert!(programs >= 1000, "only {programs} programs checked");
    let all: BTreeSet<&str> = Rule::ALL.iter().map(Rule::name).collect();
    assert_eq!(fired, all, "every rule fires somewhere in the sweep");
}
