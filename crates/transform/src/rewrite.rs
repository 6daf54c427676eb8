//! The rewrite engine: normalisation and fixpoint rewriting.

use crate::ir::Expr;
use crate::registry::Registry;
use crate::rules::Rule;

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
fn rewrite_once(e: &Expr, rules: &[Rule], reg: &Registry, log: &mut Vec<Applied>) -> Option<Expr> {
    for rule in rules {
        if let Some(out) = rule.apply(e, reg) {
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

/// Optimise with the full safe rule set (the paper's laws) to fixpoint.
pub fn optimize(e: Expr, reg: &Registry) -> (Expr, Vec<Applied>) {
    rewrite_fixpoint(e, &Rule::ALL, reg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::FnRef;

    fn reg() -> Registry {
        Registry::standard()
    }

    #[test]
    fn normalize_flattens_and_prunes() {
        let e = Expr::Compose(vec![
            Expr::Id,
            Expr::Compose(vec![Expr::Rotate(1), Expr::Id, Expr::Rotate(2)]),
            Expr::Id,
        ]);
        assert_eq!(
            normalize(e),
            Expr::Compose(vec![Expr::Rotate(1), Expr::Rotate(2)])
        );
        assert_eq!(normalize(Expr::Compose(vec![])), Expr::Id);
        assert_eq!(
            normalize(Expr::Compose(vec![Expr::Rotate(3)])),
            Expr::Rotate(3)
        );
        assert_eq!(normalize(Expr::MapGroups(Box::new(Expr::Id))), Expr::Id);
    }

    #[test]
    fn fixpoint_fuses_map_chain() {
        let e = Expr::pipeline(vec![
            Expr::Map(FnRef::named("inc")),
            Expr::Map(FnRef::named("double")),
            Expr::Map(FnRef::named("square")),
        ]);
        let (out, log) = optimize(e, &reg());
        assert!(matches!(out, Expr::Map(_)), "got {out}");
        assert_eq!(log.iter().filter(|a| a.rule == "map-fusion").count(), 2);
    }

    #[test]
    fn fixpoint_collapses_rotations() {
        let e = Expr::pipeline(vec![Expr::Rotate(3), Expr::Rotate(-3)]);
        let (out, log) = optimize(e, &reg());
        assert_eq!(out, Expr::Id);
        assert!(log.iter().any(|a| a.rule == "rotate-fusion"));
        assert!(log.iter().any(|a| a.rule == "rotate-identity"));
    }

    #[test]
    fn fixpoint_distributes_foldr() {
        let e = Expr::FoldrMap("add".into(), FnRef::named("square"));
        let (out, log) = optimize(e, &reg());
        assert_eq!(
            out,
            Expr::Compose(vec![
                Expr::Fold("add".into()),
                Expr::Map(FnRef::named("square"))
            ])
        );
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].rule, "map-distribution");
    }

    #[test]
    fn fixpoint_flattens_nested() {
        let e = Expr::pipeline(vec![
            Expr::Split(4),
            Expr::MapGroups(Box::new(Expr::pipeline(vec![
                Expr::Map(FnRef::named("inc")),
                Expr::Rotate(1),
            ]))),
            Expr::Combine,
        ]);
        let (out, log) = optimize(e, &reg());
        assert!(log.iter().any(|a| a.rule == "flatten"), "{log:?}");
        assert!(out.count(&|x| matches!(x, Expr::Split(_))) == 0);
        assert!(out.count(&|x| matches!(x, Expr::SegRotate { .. })) == 1);
    }

    #[test]
    fn rewrites_reach_inside_map_groups() {
        let e = Expr::MapGroups(Box::new(Expr::pipeline(vec![
            Expr::Map(FnRef::named("inc")),
            Expr::Map(FnRef::named("double")),
            Expr::Fold("add".into()),
        ])));
        let (_, log) = optimize(e, &reg());
        assert!(log.iter().any(|a| a.rule == "map-fusion"));
    }

    #[test]
    fn applied_log_is_readable() {
        let e = Expr::pipeline(vec![
            Expr::Map(FnRef::named("inc")),
            Expr::Map(FnRef::named("double")),
        ]);
        let (_, log) = optimize(e, &reg());
        assert_eq!(log[0].rule, "map-fusion");
        assert!(log[0].before.contains("map"));
        assert!(log[0].after.contains("map"));
    }
}
