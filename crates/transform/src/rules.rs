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
//! Each rule is a partial function `Expr → Option<Expr>` applied at a single
//! node by the engine in [`crate::rewrite`]. Rules never inspect more than
//! one composition window, so they stay cheap and obviously terminating
//! (each strictly reduces node count or the lexicographic measure used in
//! the engine's iteration cap).

use crate::ir::Expr;
use crate::registry::Registry;

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

    /// Try to apply this rule at the root of `e`.
    pub fn apply(&self, e: &Expr, reg: &Registry) -> Option<Expr> {
        match self {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FnRef, IdxRef};

    fn reg() -> Registry {
        Registry::standard()
    }

    #[test]
    fn map_fusion_merges_adjacent_maps() {
        let e = Expr::Compose(vec![
            Expr::Map(FnRef::named("square")),
            Expr::Map(FnRef::named("inc")),
        ]);
        let out = Rule::MapFusion.apply(&e, &reg()).unwrap();
        assert_eq!(
            out,
            Expr::Compose(vec![Expr::Map(
                FnRef::named("square").then_after(FnRef::named("inc"))
            )])
        );
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
        assert!(Rule::MapDistribution.apply(&ok, &reg()).is_some());
        let bad = Expr::FoldrMap("sub".into(), FnRef::named("square"));
        assert!(Rule::MapDistribution.apply(&bad, &reg()).is_none());
    }

    #[test]
    fn rotate_rules() {
        let e = Expr::Compose(vec![Expr::Rotate(2), Expr::Rotate(3)]);
        assert_eq!(
            Rule::RotateFusion.apply(&e, &reg()),
            Some(Expr::Compose(vec![Expr::Rotate(5)]))
        );
        assert_eq!(
            Rule::RotateIdentity.apply(&Expr::Rotate(0), &reg()),
            Some(Expr::Id)
        );
        assert_eq!(Rule::RotateIdentity.apply(&Expr::Rotate(1), &reg()), None);
    }

    #[test]
    fn send_and_fetch_fusion_orientation() {
        let e = Expr::Compose(vec![
            Expr::Send(IdxRef::named("half")),
            Expr::Send(IdxRef::named("succ")),
        ]);
        let out = Rule::SendFusion.apply(&e, &reg()).unwrap();
        // dest = half(succ(k)): half ∘ succ
        assert_eq!(
            out,
            Expr::Compose(vec![Expr::Send(
                IdxRef::named("half").then_after(IdxRef::named("succ"))
            )])
        );

        let e = Expr::Compose(vec![
            Expr::Fetch(IdxRef::named("half")),
            Expr::Fetch(IdxRef::named("succ")),
        ]);
        let out = Rule::FetchFusion.apply(&e, &reg()).unwrap();
        // z[i] = x[succ(half(i))]: succ ∘ half
        assert_eq!(
            out,
            Expr::Compose(vec![Expr::Fetch(
                IdxRef::named("succ").then_after(IdxRef::named("half"))
            )])
        );
    }

    #[test]
    fn flatten_rewrites_nested_rotate() {
        let e = Expr::Compose(vec![
            Expr::Combine,
            Expr::MapGroups(Box::new(Expr::Rotate(1))),
            Expr::Split(4),
        ]);
        let out = Rule::Flatten.apply(&e, &reg()).unwrap();
        assert_eq!(
            out,
            Expr::Compose(vec![Expr::SegRotate { groups: 4, k: 1 }])
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
            Expr::Combine,
            Expr::MapGroups(Box::new(body)),
            Expr::Split(2),
        ]);
        let out = Rule::Flatten.apply(&e, &reg()).unwrap();
        let Expr::Compose(es) = out else { panic!() };
        assert_eq!(es.len(), 1);
        assert_eq!(
            es[0],
            Expr::Compose(vec![
                Expr::Map(FnRef::named("inc")),
                Expr::SegRotate { groups: 2, k: 2 }
            ])
        );
    }

    #[test]
    fn commute_moves_map_past_rotate_and_fetch() {
        let e = Expr::Compose(vec![Expr::Map(FnRef::named("inc")), Expr::Rotate(1)]);
        let out = Rule::MapCommCommute
            .apply(&e, &reg())
            .map(crate::rewrite::normalize);
        assert_eq!(
            out,
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
