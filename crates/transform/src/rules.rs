//! The transformation rules of §4, as local rewrites.
//!
//! | rule | law (paper) |
//! |---|---|
//! | `MapFusion` | `map f ∘ map g → map (f ∘ g)` — removes a barrier |
//! | `MapDistribution` | `foldr (f ∘ g) → fold f ∘ map g` (f associative) — *introduces* parallelism |
//! | `SendFusion` | `send f ∘ send g → send (f ∘ g)` |
//! | `FetchFusion` | `fetch f ∘ fetch g → fetch (g ∘ f)` |
//! | `RotateFusion` | `rotate a ∘ rotate b → rotate (a + b)` |
//! | `RotateIdentity` | `rotate 0 → id` |
//! | `Flatten` | `combine ∘ mapGroups(e) ∘ split p → segmented(e)` — nested SPMD to flat segmented form |
//!
//! Each rule looks at a single node and, where it fires, says what to
//! change there as an [`Edit`]: the node rules (`rotate-identity`,
//! `map-distribution`) replace the node, the window rules replace a window
//! of the node's composition. The engine in [`crate::rewrite`] makes the
//! edit in place with [`Edit::splice`]. Rules never inspect more than one
//! composition window, so they stay cheap.
//!
//! Every engine step (a rule and the normalisation after it) strictly
//! decreases, lexicographically, the number of `foldr` nodes, then the
//! number of non-`id` nodes, then the summed distance of every `map` from
//! the start of its composition's dataflow (the stages that run before
//! it). `map-distribution` trades a `foldr` for two nodes,
//! `map-comm-commute` keeps the node count and moves one map a stage
//! earlier, and every other rule removes nodes. So rewriting terminates.

use crate::ir::Expr;
use crate::registry::Registry;
use crate::rewrite::{normalize, settle};

/// Identifier of a rewrite rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// `map f ∘ map g → map (f ∘ g)`.
    MapFusion,
    /// `foldr (f ∘ g) → fold f ∘ map g`, `f` associative.
    MapDistribution,
    /// `send f ∘ send g → send (f ∘ g)`.
    SendFusion,
    /// `fetch f ∘ fetch g → fetch (g ∘ f)`.
    FetchFusion,
    /// `rotate a ∘ rotate b → rotate (a+b)`.
    RotateFusion,
    /// `rotate 0 → id`.
    RotateIdentity,
    /// `combine ∘ mapGroups(e) ∘ split p → seg(e, p)` for flattenable `e`.
    Flatten,
    /// `map f ∘ σ → σ ∘ map f` for any pure data *permutation or
    /// duplication* σ (`rotate`, `fetch`, and their segmented forms):
    /// point-wise maps commute with data movement. Not a law from the
    /// paper's list, but a direct consequence of its functional semantics;
    /// it canonicalises programs so that maps drift together and the
    /// fusion law can fire across intervening communication.
    ///
    /// (`send` is deliberately excluded — many-to-one accumulation does
    /// not commute with arbitrary `f`.)
    MapCommCommute,
}

impl Rule {
    /// Every rule, in the order the fixpoint engine tries them.
    pub const ALL: [Rule; 8] = [
        Rule::RotateIdentity,
        Rule::RotateFusion,
        Rule::MapFusion,
        Rule::SendFusion,
        Rule::FetchFusion,
        Rule::MapDistribution,
        Rule::Flatten,
        Rule::MapCommCommute,
    ];

    /// Human-readable rule name.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::MapFusion => "map-fusion",
            Rule::MapDistribution => "map-distribution",
            Rule::SendFusion => "send-fusion",
            Rule::FetchFusion => "fetch-fusion",
            Rule::RotateFusion => "rotate-fusion",
            Rule::RotateIdentity => "rotate-identity",
            Rule::Flatten => "flatten",
            Rule::MapCommCommute => "map-comm-commute",
        }
    }

    /// Where this rule fires at the root of `e`, and the edit that
    /// rewrites it there (make it with [`Edit::splice`]). A window rule
    /// fires at its leftmost window.
    pub fn apply(&self, e: &Expr, reg: &Registry) -> Option<Edit> {
        match self {
            Rule::RotateIdentity => match e {
                Expr::Rotate(0) => Some(Edit::Node(Expr::Id)),
                _ => None,
            },
            Rule::MapDistribution => match e {
                Expr::FoldrMap(op, g) if reg.is_assoc(op) => Some(Edit::Node(Expr::Compose(vec![
                    Expr::Fold(op.clone()),
                    Expr::Map(g.clone()),
                ]))),
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
}

/// A rule's rewrite of the node it fired at.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Replace the whole node.
    Node(Expr),
    /// Replace `width` consecutive elements of the node's composition,
    /// starting at `start`, with one expression.
    Window {
        /// Index of the window's first element.
        start: usize,
        /// Number of elements replaced.
        width: usize,
        /// What replaces them.
        with: Expr,
    },
}

impl Edit {
    /// Make the edit in place in `node`, the node the rule fired at. The
    /// replacement is normalised and, when the node was in normal form,
    /// the node is again: an `id` replacement drops out of the
    /// composition, a composed one splices in, and a composition left
    /// with fewer than two elements collapses.
    pub fn splice(self, node: &mut Expr) {
        match self {
            Edit::Node(with) => *node = normalize(with),
            Edit::Window { start, width, with } => {
                let Expr::Compose(es) = node else {
                    panic!("a window edit applies to a composition, not `{node}`")
                };
                es.splice(start..start + width, [normalize(with)]);
                settle(node, start);
            }
        }
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

/// A two-element window rule inside a composition:
/// `Compose([.., a, b, ..])` where `a` runs **after** `b`. Fires at the
/// leftmost window `f` merges.
fn window_rule(e: &Expr, f: impl Fn(&Expr, &Expr) -> Option<Expr>) -> Option<Edit> {
    let Expr::Compose(es) = e else { return None };
    es.windows(2).enumerate().find_map(|(start, w)| {
        Some(Edit::Window {
            start,
            width: 2,
            with: f(&w[0], &w[1])?,
        })
    })
}

/// Translate a group-local body into its segmented (flat) equivalent, if
/// every constituent is segment-translatable.
pub fn flatten_body(e: &Expr, p: usize) -> Option<Expr> {
    match e {
        Expr::Id => Some(Expr::Id),
        Expr::Map(f) => Some(Expr::Map(f.clone())),
        Expr::Rotate(k) => Some(Expr::SegRotate { groups: p, k: *k }),
        Expr::Fetch(h) => Some(Expr::SegFetch {
            groups: p,
            f: h.clone(),
        }),
        Expr::Send(h) => Some(Expr::SegSend {
            groups: p,
            f: h.clone(),
        }),
        Expr::Compose(es) => {
            let flat: Option<Vec<Expr>> = es.iter().map(|x| flatten_body(x, p)).collect();
            Some(Expr::Compose(flat?))
        }
        _ => None,
    }
}

/// The flattening rule over a 3-element window
/// `[.., Combine, MapGroups(body), Split(p), ..]`.
fn flatten_rule(e: &Expr) -> Option<Edit> {
    let Expr::Compose(es) = e else { return None };
    es.windows(3).enumerate().find_map(|(start, w)| match w {
        [Expr::Combine, Expr::MapGroups(body), Expr::Split(p)] => Some(Edit::Window {
            start,
            width: 3,
            with: flatten_body(body, *p)?,
        }),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FnRef, IdxRef};

    fn reg() -> Registry {
        Registry::standard()
    }

    /// Fire `rule` at the root of `e` in place; `None` if it does not fire.
    fn fire(rule: Rule, mut e: Expr) -> Option<Expr> {
        rule.apply(&e, &reg())?.splice(&mut e);
        Some(e)
    }

    #[test]
    fn map_fusion_merges_adjacent_maps() {
        let e = Expr::Compose(vec![
            Expr::Map(FnRef::named("square")),
            Expr::Map(FnRef::named("inc")),
        ]);
        let merged = Expr::Map(FnRef::named("square").then_after(FnRef::named("inc")));
        assert_eq!(
            Rule::MapFusion.apply(&e, &reg()),
            Some(Edit::Window {
                start: 0,
                width: 2,
                with: merged.clone()
            })
        );
        // the composition collapses to its one remaining element
        assert_eq!(fire(Rule::MapFusion, e), Some(merged));
    }

    #[test]
    fn map_fusion_skips_non_adjacent() {
        let e = Expr::Compose(vec![
            Expr::Map(FnRef::named("square")),
            Expr::Rotate(1),
            Expr::Map(FnRef::named("inc")),
        ]);
        assert_eq!(Rule::MapFusion.apply(&e, &reg()), None);
    }

    #[test]
    fn map_distribution_requires_associativity() {
        let ok = Expr::FoldrMap("add".into(), FnRef::named("square"));
        assert_eq!(
            fire(Rule::MapDistribution, ok),
            Some(Expr::Compose(vec![
                Expr::Fold("add".into()),
                Expr::Map(FnRef::named("square"))
            ]))
        );
        let bad = Expr::FoldrMap("sub".into(), FnRef::named("square"));
        assert!(Rule::MapDistribution.apply(&bad, &reg()).is_none());
    }

    #[test]
    fn rotate_rules() {
        let e = Expr::Compose(vec![Expr::Rotate(2), Expr::Rotate(3)]);
        assert_eq!(fire(Rule::RotateFusion, e), Some(Expr::Rotate(5)));
        // the leftmost window fires, spliced into the composition in place
        let e = Expr::Compose(vec![
            Expr::Scan("add".into()),
            Expr::Rotate(1),
            Expr::Rotate(2),
            Expr::Rotate(3),
        ]);
        assert_eq!(
            Rule::RotateFusion.apply(&e, &reg()),
            Some(Edit::Window {
                start: 1,
                width: 2,
                with: Expr::Rotate(3)
            })
        );
        assert_eq!(
            fire(Rule::RotateFusion, e),
            Some(Expr::Compose(vec![
                Expr::Scan("add".into()),
                Expr::Rotate(3),
                Expr::Rotate(3)
            ]))
        );
        assert_eq!(
            Rule::RotateIdentity.apply(&Expr::Rotate(0), &reg()),
            Some(Edit::Node(Expr::Id))
        );
        assert_eq!(fire(Rule::RotateIdentity, Expr::Rotate(0)), Some(Expr::Id));
        assert_eq!(Rule::RotateIdentity.apply(&Expr::Rotate(1), &reg()), None);
    }

    #[test]
    fn send_and_fetch_fusion_orientation() {
        let e = Expr::Compose(vec![
            Expr::Send(IdxRef::named("half")),
            Expr::Send(IdxRef::named("succ")),
        ]);
        // dest = half(succ(k)): half ∘ succ
        assert_eq!(
            fire(Rule::SendFusion, e),
            Some(Expr::Send(
                IdxRef::named("half").then_after(IdxRef::named("succ"))
            ))
        );

        let e = Expr::Compose(vec![
            Expr::Fetch(IdxRef::named("half")),
            Expr::Fetch(IdxRef::named("succ")),
        ]);
        // z[i] = x[succ(half(i))]: succ ∘ half
        assert_eq!(
            fire(Rule::FetchFusion, e),
            Some(Expr::Fetch(
                IdxRef::named("succ").then_after(IdxRef::named("half"))
            ))
        );
    }

    #[test]
    fn flatten_rewrites_nested_rotate() {
        let e = Expr::Compose(vec![
            Expr::Combine,
            Expr::MapGroups(Box::new(Expr::Rotate(1))),
            Expr::Split(4),
        ]);
        assert_eq!(
            fire(Rule::Flatten, e),
            Some(Expr::SegRotate { groups: 4, k: 1 })
        );
    }

    #[test]
    fn flatten_refuses_fold_in_groups() {
        let e = Expr::Compose(vec![
            Expr::Combine,
            Expr::MapGroups(Box::new(Expr::Fold("add".into()))),
            Expr::Split(4),
        ]);
        assert_eq!(Rule::Flatten.apply(&e, &reg()), None);
    }

    #[test]
    fn flatten_handles_composed_bodies() {
        let body = Expr::Compose(vec![Expr::Map(FnRef::named("inc")), Expr::Rotate(2)]);
        let e = Expr::Compose(vec![
            Expr::Scan("add".into()),
            Expr::Combine,
            Expr::MapGroups(Box::new(body)),
            Expr::Split(2),
        ]);
        // the flattened body splices into the enclosing composition
        assert_eq!(
            fire(Rule::Flatten, e),
            Some(Expr::Compose(vec![
                Expr::Scan("add".into()),
                Expr::Map(FnRef::named("inc")),
                Expr::SegRotate { groups: 2, k: 2 }
            ]))
        );
    }

    #[test]
    fn commute_moves_map_past_rotate_and_fetch() {
        let e = Expr::Compose(vec![Expr::Map(FnRef::named("inc")), Expr::Rotate(1)]);
        assert_eq!(
            fire(Rule::MapCommCommute, e),
            Some(Expr::Compose(vec![
                Expr::Rotate(1),
                Expr::Map(FnRef::named("inc"))
            ]))
        );
        let e = Expr::Compose(vec![
            Expr::Map(FnRef::named("inc")),
            Expr::Fetch(IdxRef::named("succ")),
        ]);
        assert!(Rule::MapCommCommute.apply(&e, &reg()).is_some());
    }

    #[test]
    fn commute_refuses_send() {
        // map f . send h  is NOT  send h . map f (accumulation is not
        // homomorphic in general)
        let e = Expr::Compose(vec![
            Expr::Map(FnRef::named("square")),
            Expr::Send(IdxRef::named("half")),
        ]);
        assert_eq!(Rule::MapCommCommute.apply(&e, &reg()), None);
    }

    #[test]
    fn commute_enables_fusion_across_comm() {
        // map f . rotate . map g  --commute-->  rotate . map f . map g
        // --fuse--> rotate . map (f.g)
        let e = Expr::Compose(vec![
            Expr::Map(FnRef::named("inc")),
            Expr::Rotate(2),
            Expr::Map(FnRef::named("double")),
        ]);
        let (out, log) = crate::rewrite::optimize(e, &reg());
        assert!(log.iter().any(|a| a.rule == "map-comm-commute"), "{log:?}");
        assert!(log.iter().any(|a| a.rule == "map-fusion"));
        assert_eq!(out.count(&|x| matches!(x, Expr::Map(_))), 1, "{out}");
    }

    #[test]
    fn rule_names_are_unique() {
        let mut names: Vec<&str> = Rule::ALL.iter().map(Rule::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Rule::ALL.len());
    }
}
