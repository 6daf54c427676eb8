//! The skeleton-expression IR.
//!
//! §4 of the paper treats skeleton programs as *functional expressions* and
//! optimises them with meaning-preserving rewrite rules. This module is the
//! executable form of that idea: an [`Expr`] is a composition of skeleton
//! applications over a distributed array, function symbols are named
//! references resolved in a [`crate::registry::Registry`], and the rewrite
//! engine in [`crate::rewrite`] manipulates `Expr` values directly.
//!
//! The value domain is deliberately small — distributed arrays of `i64`
//! scalars, one element per virtual processor — because the *laws* being
//! exercised (map fusion, communication algebra, flattening) are
//! shape-generic: if they hold here they hold for any element type.

use std::fmt;

/// A reference to a unary scalar function, possibly a composition chain.
///
/// `Comp([f, g])` denotes `f ∘ g` — **g is applied first**.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FnRef {
    /// A function registered by name.
    Named(String),
    /// Composition `fs[0] ∘ fs[1] ∘ …` (rightmost applies first).
    Comp(Vec<FnRef>),
}

impl FnRef {
    /// Shorthand for a named function.
    pub fn named(s: &str) -> FnRef {
        FnRef::Named(s.to_string())
    }

    /// Compose `self ∘ other` (other applies first), flattening chains.
    pub fn then_after(self, other: FnRef) -> FnRef {
        let mut items = Vec::new();
        match self {
            FnRef::Comp(fs) => items.extend(fs),
            f => items.push(f),
        }
        match other {
            FnRef::Comp(fs) => items.extend(fs),
            f => items.push(f),
        }
        FnRef::Comp(items)
    }

    /// All named leaves, leftmost (outermost) first.
    pub fn names(&self) -> Vec<&str> {
        match self {
            FnRef::Named(n) => vec![n.as_str()],
            FnRef::Comp(fs) => fs.iter().flat_map(FnRef::names).collect(),
        }
    }
}

/// A reference to an index-mapping function `(i, n) → usize`, possibly
/// composed. `Comp([f, g])` is `f ∘ g` (g applies first).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IdxRef {
    /// A registered index function.
    Named(String),
    /// Composition (rightmost applies first).
    Comp(Vec<IdxRef>),
}

impl IdxRef {
    /// Shorthand for a named index function.
    pub fn named(s: &str) -> IdxRef {
        IdxRef::Named(s.to_string())
    }

    /// Compose `self ∘ other` (other applies first), flattening chains.
    pub fn then_after(self, other: IdxRef) -> IdxRef {
        let mut items = Vec::new();
        match self {
            IdxRef::Comp(fs) => items.extend(fs),
            f => items.push(f),
        }
        match other {
            IdxRef::Comp(fs) => items.extend(fs),
            f => items.push(f),
        }
        IdxRef::Comp(items)
    }
}

/// A skeleton expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The identity program.
    Id,
    /// `es[0] ∘ es[1] ∘ …` — the **rightmost runs first** (function
    /// composition order, as the paper writes its laws).
    Compose(Vec<Expr>),
    /// `map f`: apply a scalar function at every index.
    Map(FnRef),
    /// `fold ⊕`: reduce the array to a scalar (⊕ must be associative).
    Fold(String),
    /// `foldr (⊕ ∘ g)`: the *sequential* right-fold whose combining
    /// function first applies `g` to the element — the left-hand side of
    /// the map-distribution law. Not parallel as written.
    FoldrMap(String, FnRef),
    /// `scan ⊕`: inclusive parallel prefix.
    Scan(String),
    /// `rotate k`: regular cyclic shift.
    Rotate(i64),
    /// `fetch h`: index `i` pulls from index `h(i)`.
    Fetch(IdxRef),
    /// `send h`: index `k` pushes to index `h(k)`; colliding values are
    /// combined with `+` (the canonical resolution of the paper's
    /// unordered many-to-one accumulation over a commutative monoid).
    Send(IdxRef),
    /// `split p`: divide into `p` contiguous groups (nested array).
    Split(usize),
    /// Apply a sub-program to every group of a nested array.
    MapGroups(Box<Expr>),
    /// Flatten a nested array.
    Combine,
    /// Segmented rotate: rotate within each of `groups` equal segments —
    /// what `combine ∘ mapGroups(rotate k) ∘ split p` flattens to.
    SegRotate {
        /// Number of segments.
        groups: usize,
        /// Rotation distance within each segment.
        k: i64,
    },
    /// Segmented fetch (group-local indices).
    SegFetch {
        /// Number of segments.
        groups: usize,
        /// Group-local index function.
        f: IdxRef,
    },
    /// Segmented send (group-local indices).
    SegSend {
        /// Number of segments.
        groups: usize,
        /// Group-local index function.
        f: IdxRef,
    },
    /// `choice(p)[l][r]`: run `left` when the registered predicate `pred`
    /// is nonzero on the array's first element (0 on an empty array),
    /// `right` otherwise — the Either-style branch of the plan layer's
    /// arrow combinators. Both arms must be array→array.
    Choice {
        /// Registered scalar predicate, applied to the first element.
        pred: FnRef,
        /// Arm taken when the predicate is nonzero.
        left: Box<Expr>,
        /// Arm taken when the predicate is zero.
        right: Box<Expr>,
    },
    /// `fanout(⊕)[l][r]`: run both arms over (copies of) the same input
    /// and zip their outputs element-wise with the registered operator
    /// `combine` — the `&&&` of the plan layer's arrow combinators. Both
    /// arms must be array→array and length-preserving (every array→array
    /// form in this IR is).
    Fanout {
        /// Arm producing the zip's left operand.
        left: Box<Expr>,
        /// Arm producing the zip's right operand.
        right: Box<Expr>,
        /// Registered binary operator zipping the arm outputs.
        combine: String,
    },
}

impl Expr {
    /// `a ∘ b` (b runs first), flattening nested compositions.
    pub fn after(self, b: Expr) -> Expr {
        let mut items = Vec::new();
        match self {
            Expr::Compose(es) => items.extend(es),
            e => items.push(e),
        }
        match b {
            Expr::Compose(es) => items.extend(es),
            e => items.push(e),
        }
        Expr::Compose(items)
    }

    /// Compose a pipeline given in *execution order* (first element runs
    /// first) — often more readable than composition order.
    pub fn pipeline(stages: Vec<Expr>) -> Expr {
        let mut es: Vec<Expr> = stages.into_iter().rev().collect();
        if es.len() == 1 {
            es.pop().unwrap()
        } else {
            Expr::Compose(es)
        }
    }

    /// Number of IR nodes (size metric for the rewriter's termination
    /// arguments and tests).
    pub fn size(&self) -> usize {
        match self {
            Expr::Compose(es) => 1 + es.iter().map(Expr::size).sum::<usize>(),
            Expr::MapGroups(e) => 1 + e.size(),
            Expr::Choice { left, right, .. } | Expr::Fanout { left, right, .. } => {
                1 + left.size() + right.size()
            }
            _ => 1,
        }
    }

    /// Count nodes matching a predicate anywhere in the tree.
    pub fn count(&self, pred: &dyn Fn(&Expr) -> bool) -> usize {
        let here = usize::from(pred(self));
        here + match self {
            Expr::Compose(es) => es.iter().map(|e| e.count(pred)).sum(),
            Expr::MapGroups(e) => e.count(pred),
            Expr::Choice { left, right, .. } | Expr::Fanout { left, right, .. } => {
                left.count(pred) + right.count(pred)
            }
            _ => 0,
        }
    }
}

/// The shape of a value an [`Expr`] consumes or produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A distributed array of scalars.
    Arr,
    /// A single scalar (result of `fold`).
    Scal,
    /// A nested array of `groups` groups.
    Nested(usize),
}

/// Infer the output shape of `e` applied to input of shape `inp`; errors on
/// ill-typed programs (e.g. `map` after `fold`).
pub fn shape_of(e: &Expr, inp: Shape) -> Result<Shape, String> {
    use Expr::*;
    use Shape::*;
    let want_arr = |s: Shape, what: &str| -> Result<(), String> {
        if s == Arr {
            Ok(())
        } else {
            Err(format!("{what} needs an array input, got {s:?}"))
        }
    };
    match e {
        Id => Ok(inp),
        Compose(es) => {
            // rightmost first
            let mut s = inp;
            for sub in es.iter().rev() {
                s = shape_of(sub, s)?;
            }
            Ok(s)
        }
        Map(_)
        | Scan(_)
        | Rotate(_)
        | Fetch(_)
        | Send(_)
        | SegRotate { .. }
        | SegFetch { .. }
        | SegSend { .. } => {
            want_arr(inp, "array skeleton")?;
            Ok(Arr)
        }
        Fold(_) | FoldrMap(_, _) => {
            want_arr(inp, "fold")?;
            Ok(Scal)
        }
        Split(p) => {
            want_arr(inp, "split")?;
            Ok(Nested(*p))
        }
        MapGroups(sub) => match inp {
            Nested(g) => {
                let s = shape_of(sub, Arr)?;
                if s != Arr {
                    return Err(format!(
                        "mapGroups body must map arrays to arrays, got {s:?}"
                    ));
                }
                Ok(Nested(g))
            }
            other => Err(format!("mapGroups needs a nested input, got {other:?}")),
        },
        Combine => match inp {
            Nested(_) => Ok(Arr),
            other => Err(format!("combine needs a nested input, got {other:?}")),
        },
        Choice { left, right, .. } | Fanout { left, right, .. } => {
            want_arr(inp, "branch")?;
            for (name, arm) in [("left", left), ("right", right)] {
                let s = shape_of(arm, Arr)?;
                if s != Arr {
                    return Err(format!("branch {name} arm must be array→array, got {s:?}"));
                }
            }
            Ok(Arr)
        }
    }
}

/// Write `items` joined by the composition dot ` . `, straight into the
/// formatter — rendering builds no intermediate strings, so hashing a
/// rendering (plan fingerprints) allocates nothing.
fn write_composed<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T]) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(" . ")?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

impl fmt::Display for FnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FnRef::Named(n) => write!(f, "{n}"),
            FnRef::Comp(fs) => {
                f.write_str("(")?;
                write_composed(f, fs)?;
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for IdxRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdxRef::Named(n) => write!(f, "{n}"),
            IdxRef::Comp(fs) => {
                f.write_str("(")?;
                write_composed(f, fs)?;
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Expr::*;
        match self {
            Id => write!(f, "id"),
            Compose(es) => write_composed(f, es),
            Map(fr) => write!(f, "map({fr})"),
            Fold(op) => write!(f, "fold({op})"),
            FoldrMap(op, g) => write!(f, "foldr({op} . {g})"),
            Scan(op) => write!(f, "scan({op})"),
            Rotate(k) => write!(f, "rotate({k})"),
            Fetch(h) => write!(f, "fetch({h})"),
            Send(h) => write!(f, "send({h})"),
            Split(p) => write!(f, "split({p})"),
            MapGroups(e) => write!(f, "mapGroups[{e}]"),
            Combine => write!(f, "combine"),
            SegRotate { groups, k } => write!(f, "segRotate(g={groups}, {k})"),
            SegFetch { groups, f: h } => write!(f, "segFetch(g={groups}, {h})"),
            SegSend { groups, f: h } => write!(f, "segSend(g={groups}, {h})"),
            Choice { pred, left, right } => write!(f, "choice({pred})[{left}][{right}]"),
            Fanout {
                left,
                right,
                combine,
            } => write!(f, "fanout({combine})[{left}][{right}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnref_composition_flattens() {
        let f = FnRef::named("f")
            .then_after(FnRef::named("g"))
            .then_after(FnRef::named("h"));
        assert_eq!(
            f,
            FnRef::Comp(vec![
                FnRef::named("f"),
                FnRef::named("g"),
                FnRef::named("h")
            ])
        );
        assert_eq!(f.names(), vec!["f", "g", "h"]);
    }

    #[test]
    fn pipeline_reverses_into_composition() {
        let p = Expr::pipeline(vec![Expr::Rotate(1), Expr::Map(FnRef::named("f"))]);
        // rotate runs first => composition [map, rotate]
        assert_eq!(
            p,
            Expr::Compose(vec![Expr::Map(FnRef::named("f")), Expr::Rotate(1)])
        );
        assert_eq!(Expr::pipeline(vec![Expr::Id]), Expr::Id);
    }

    #[test]
    fn after_flattens() {
        let e = Expr::Map(FnRef::named("f"))
            .after(Expr::Rotate(1))
            .after(Expr::Map(FnRef::named("g")));
        assert_eq!(e.size(), 4); // compose node + 3 children
    }

    #[test]
    fn shapes_check() {
        use Shape::*;
        let e = Expr::pipeline(vec![Expr::Map(FnRef::named("f")), Expr::Fold("add".into())]);
        assert_eq!(shape_of(&e, Arr), Ok(Scal));
        // fold then map is ill-typed
        let bad = Expr::pipeline(vec![Expr::Fold("add".into()), Expr::Map(FnRef::named("f"))]);
        assert!(shape_of(&bad, Arr).is_err());
    }

    #[test]
    fn nested_shapes() {
        use Shape::*;
        let e = Expr::pipeline(vec![
            Expr::Split(4),
            Expr::MapGroups(Box::new(Expr::Map(FnRef::named("f")))),
            Expr::Combine,
        ]);
        assert_eq!(shape_of(&e, Arr), Ok(Arr));
        // a fold inside mapGroups yields scalars per group: ill-typed
        let bad = Expr::MapGroups(Box::new(Expr::Fold("add".into())));
        assert!(shape_of(&bad, Nested(2)).is_err());
    }

    #[test]
    fn count_and_size() {
        let e = Expr::pipeline(vec![
            Expr::Map(FnRef::named("f")),
            Expr::Rotate(1),
            Expr::Map(FnRef::named("g")),
        ]);
        assert_eq!(e.count(&|x| matches!(x, Expr::Map(_))), 2);
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::pipeline(vec![Expr::Rotate(2), Expr::Map(FnRef::named("sq"))]);
        assert_eq!(e.to_string(), "map(sq) . rotate(2)");
    }
}
