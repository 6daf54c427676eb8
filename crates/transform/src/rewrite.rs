//! The rewrite engine: normalisation and fixpoint rewriting.
//!
//! The engine keeps the program in normal form and rewrites it in place.
//! Each step searches from the root: at a node every rule is tried in
//! [`Rule::ALL`] order (a window rule at its leftmost window) before the
//! node's children, left to right. The first rule that fires edits its
//! node ([`Edit::splice`]), and the ancestors on the way back up settle
//! into normal form again. Steps repeat until no rule fires. The log
//! records which rules fired; [`narrate`] runs the same engine and also
//! renders every rewritten node before and after.

use crate::ir::Expr;
use crate::registry::Registry;
use crate::rules::{Edit, Rule};

/// A record of one applied rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Applied {
    /// Which rule fired.
    pub rule: &'static str,
}

/// One applied rewrite, rendered by [`narrate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Which rule fired.
    pub rule: &'static str,
    /// The rewritten node as it was.
    pub before: String,
    /// The rewritten node once the rule and normalisation ran.
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

/// Put `node` back in normal form after its part at `i` (an element of a
/// composition, or a `mapGroups` body) changed in place; every other part
/// is already normal. An `id` element drops out, a composed one splices
/// in, a composition left with fewer than two elements collapses, and a
/// `mapGroups` of `id` becomes `id`.
pub(crate) fn settle(node: &mut Expr, i: usize) {
    match node {
        Expr::Compose(es) => {
            match std::mem::replace(&mut es[i], Expr::Id) {
                Expr::Id => {
                    es.remove(i);
                }
                Expr::Compose(inner) => {
                    es.splice(i..=i, inner);
                }
                other => es[i] = other,
            }
            match es.len() {
                0 => *node = Expr::Id,
                1 => *node = es.pop().expect("one element"),
                _ => {}
            }
        }
        Expr::MapGroups(body) if **body == Expr::Id => *node = Expr::Id,
        _ => {}
    }
}

/// One rule application anywhere in `e`, in the engine's search order,
/// made in place. `watch` sees each firing rule with its node and edit
/// before the edit is made. Returns whether a rule fired.
fn rewrite_once(
    e: &mut Expr,
    rules: &[Rule],
    reg: &Registry,
    watch: &mut impl FnMut(Rule, &Expr, &Edit),
) -> bool {
    for &rule in rules {
        if let Some(edit) = rule.apply(e, reg) {
            watch(rule, e, &edit);
            edit.splice(e);
            return true;
        }
    }
    match e {
        Expr::Compose(es) => {
            let Some(i) = (0..es.len()).find(|&i| rewrite_once(&mut es[i], rules, reg, watch))
            else {
                return false;
            };
            settle(e, i);
            true
        }
        Expr::MapGroups(body) => {
            let fired = rewrite_once(body, rules, reg, watch);
            if fired {
                settle(e, 0);
            }
            fired
        }
        Expr::Choice { left, right, .. } | Expr::Fanout { left, right, .. } => {
            rewrite_once(left, rules, reg, watch) || rewrite_once(right, rules, reg, watch)
        }
        _ => false,
    }
}

/// Apply `rules` from the normal form of `e` until none fires, or for at
/// most 10 000 steps. Every step decreases the measure stated in
/// [`crate::rules`], so rewriting terminates without the cap; the cap
/// bounds the work on very large programs, and stopping at it leaves a
/// program that still means the same.
fn fixpoint(
    e: Expr,
    rules: &[Rule],
    reg: &Registry,
    watch: &mut impl FnMut(Rule, &Expr, &Edit),
) -> Expr {
    const CAP: usize = 10_000;
    let mut cur = normalize(e);
    for _ in 0..CAP {
        if !rewrite_once(&mut cur, rules, reg, watch) {
            break;
        }
    }
    cur
}

/// Apply `rules` to a fixpoint. Returns the normal form and the log of
/// applications.
pub fn rewrite_fixpoint(e: Expr, rules: &[Rule], reg: &Registry) -> (Expr, Vec<Applied>) {
    let mut log = Vec::new();
    let out = fixpoint(e, rules, reg, &mut |rule, _, _| {
        log.push(Applied { rule: rule.name() })
    });
    (out, log)
}

/// Optimise with the full safe rule set (the paper's laws) to fixpoint.
pub fn optimize(e: Expr, reg: &Registry) -> (Expr, Vec<Applied>) {
    rewrite_fixpoint(e, &Rule::ALL, reg)
}

/// [`optimize`], with every step rendered: the same rewrites, in the same
/// order, each with its node as it was and as it became. For people
/// reading the rewrites (`sclopt`, the examples); `optimize` renders
/// nothing.
pub fn narrate(e: Expr, reg: &Registry) -> (Expr, Vec<Step>) {
    let mut steps = Vec::new();
    let out = fixpoint(e, &Rule::ALL, reg, &mut |rule, node, edit| {
        let mut after = node.clone();
        edit.clone().splice(&mut after);
        steps.push(Step {
            rule: rule.name(),
            before: node.to_string(),
            after: after.to_string(),
        });
    });
    (out, steps)
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
        let (out, steps) = narrate(e.clone(), &reg());
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].rule, "map-fusion");
        assert_eq!(steps[0].before, "map(double) . map(inc)");
        assert_eq!(steps[0].after, "map((double . inc))");
        assert_eq!(
            (
                out,
                vec![Applied {
                    rule: steps[0].rule
                }]
            ),
            optimize(e, &reg())
        );
    }
}
