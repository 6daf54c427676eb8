//! The function-symbol registry.
//!
//! Skeleton expressions reference sequential functions *by name* — exactly
//! as SCL programs name base-language procedures — and the registry supplies
//! their meaning (for the interpreter), their algebraic attributes (is a
//! binary operator associative? — the side condition of the
//! map-distribution law), and their cost: the fixed [`Work`] the runtime
//! charges per application, so a program's charge does not depend on its
//! data.

use scl_machine::Work;
use std::collections::HashMap;

use crate::ir::{FnRef, IdxRef};

/// A registered unary scalar function.
pub struct ScalarFn {
    /// The meaning.
    pub f: Box<dyn Fn(i64) -> i64 + Sync>,
    /// Cost of one application.
    pub work: Work,
}

/// A registered binary operator.
pub struct BinOp {
    /// The meaning.
    pub f: Box<dyn Fn(i64, i64) -> i64 + Sync>,
    /// Whether the operator is associative — the precondition the paper
    /// attaches to `fold`/`scan` and to the map-distribution law.
    pub assoc: bool,
    /// Cost of one application.
    pub work: Work,
}

/// A registered index-mapping function `(i, n) → usize`.
pub struct IdxFn {
    /// The meaning (receives the index and the array length).
    pub f: Box<dyn Fn(usize, usize) -> usize + Sync>,
}

/// Named sequential functions available to skeleton programs.
#[derive(Default)]
pub struct Registry {
    scalars: HashMap<String, ScalarFn>,
    binops: HashMap<String, BinOp>,
    idxfns: HashMap<String, IdxFn>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The standard library of test functions used throughout the crate's
    /// tests and examples and by the §4 ablations.
    pub fn standard() -> Registry {
        let mut r = Registry::new();
        r.scalar("inc", |x| x.wrapping_add(1), Work::flops(1));
        r.scalar("dec", |x| x.wrapping_sub(1), Work::flops(1));
        r.scalar("double", |x| x.wrapping_mul(2), Work::flops(1));
        r.scalar("square", |x| x.wrapping_mul(x), Work::flops(1));
        r.scalar("neg", |x| x.wrapping_neg(), Work::flops(1));
        r.scalar("halve", |x| x / 2, Work::flops(1));
        r.scalar(
            "heavy",
            |x| (0..32).fold(x, |a, i| a.wrapping_mul(31).wrapping_add(i)),
            Work::flops(32),
        );
        // fault-injection helpers for the chaos suites: `trap` crashes the
        // plan on the sentinel value 666 (any other input is identity),
        // `slow` burns ~2ms of wall clock per element so deadline
        // propagation is exercisable from wire-submitted source
        r.scalar(
            "trap",
            |x| {
                if x == 666 {
                    panic!("trap: hit sentinel 666");
                }
                x
            },
            Work::flops(1),
        );
        r.scalar(
            "slow",
            |x| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                x
            },
            Work::flops(1),
        );
        r.binop("add", |a, b| a.wrapping_add(b), true, Work::flops(1));
        r.binop("mul", |a, b| a.wrapping_mul(b), true, Work::flops(1));
        r.binop("max", i64::max, true, Work::cmps(1));
        r.binop("min", i64::min, true, Work::cmps(1));
        r.binop("sub", |a, b| a.wrapping_sub(b), false, Work::flops(1));
        r.idx("id", |i, _| i);
        r.idx("succ", |i, n| (i + 1) % n.max(1));
        r.idx("pred", |i, n| (i + n.saturating_sub(1)) % n.max(1));
        r.idx("xor1", |i, n| (i ^ 1) % n.max(1));
        r.idx("half", |i, _| i / 2);
        r.idx("rev", |i, n| n.saturating_sub(1).saturating_sub(i));
        r.idx("zero", |_, _| 0);
        r
    }

    /// Register a unary scalar function.
    pub fn scalar(&mut self, name: &str, f: impl Fn(i64) -> i64 + Sync + 'static, work: Work) {
        self.scalars.insert(
            name.to_string(),
            ScalarFn {
                f: Box::new(f),
                work,
            },
        );
    }

    /// Register a binary operator.
    pub fn binop(
        &mut self,
        name: &str,
        f: impl Fn(i64, i64) -> i64 + Sync + 'static,
        assoc: bool,
        work: Work,
    ) {
        self.binops.insert(
            name.to_string(),
            BinOp {
                f: Box::new(f),
                assoc,
                work,
            },
        );
    }

    /// Register an index-mapping function.
    pub fn idx(&mut self, name: &str, f: impl Fn(usize, usize) -> usize + Sync + 'static) {
        self.idxfns
            .insert(name.to_string(), IdxFn { f: Box::new(f) });
    }

    /// Apply a (possibly composed) scalar function reference.
    pub fn apply_fn(&self, r: &FnRef, x: i64) -> Result<i64, String> {
        match r {
            FnRef::Named(n) => {
                let s = self
                    .scalars
                    .get(n)
                    .ok_or_else(|| format!("unknown scalar fn `{n}`"))?;
                Ok((s.f)(x))
            }
            FnRef::Comp(fs) => {
                // rightmost first
                let mut v = x;
                for f in fs.iter().rev() {
                    v = self.apply_fn(f, v)?;
                }
                Ok(v)
            }
        }
    }

    /// Total cost of one application of a (possibly composed) scalar
    /// function.
    pub fn fn_work(&self, r: &FnRef) -> Result<Work, String> {
        match r {
            FnRef::Named(n) => self
                .scalars
                .get(n)
                .map(|s| s.work)
                .ok_or_else(|| format!("unknown scalar fn `{n}`")),
            FnRef::Comp(fs) => {
                let mut w = Work::NONE;
                for f in fs {
                    w += self.fn_work(f)?;
                }
                Ok(w)
            }
        }
    }

    /// Apply a binary operator.
    pub fn apply_op(&self, name: &str, a: i64, b: i64) -> Result<i64, String> {
        let op = self
            .binops
            .get(name)
            .ok_or_else(|| format!("unknown binop `{name}`"))?;
        Ok((op.f)(a, b))
    }

    /// Is the named operator associative?
    pub fn is_assoc(&self, name: &str) -> bool {
        self.binops.get(name).map(|o| o.assoc).unwrap_or(false)
    }

    /// Cost of one application of the named operator.
    pub fn op_work(&self, name: &str) -> Result<Work, String> {
        self.binops
            .get(name)
            .map(|o| o.work)
            .ok_or_else(|| format!("unknown binop `{name}`"))
    }

    /// Apply a (possibly composed) index function.
    pub fn apply_idx(&self, r: &IdxRef, i: usize, n: usize) -> Result<usize, String> {
        match r {
            IdxRef::Named(name) => {
                let f = self
                    .idxfns
                    .get(name)
                    .ok_or_else(|| format!("unknown idx fn `{name}`"))?;
                let j = (f.f)(i, n);
                Ok(j % n.max(1))
            }
            IdxRef::Comp(fs) => {
                let mut v = i;
                for f in fs.iter().rev() {
                    v = self.apply_idx(f, v, n)?;
                }
                Ok(v)
            }
        }
    }

    /// Names of all registered scalar functions (sorted; used by the
    /// property-test generators).
    pub fn scalar_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.scalars.keys().cloned().collect();
        v.sort();
        v
    }

    /// Names of all registered binary operators (sorted).
    pub fn binop_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.binops.keys().cloned().collect();
        v.sort();
        v
    }

    /// Names of all registered index functions (sorted).
    pub fn idx_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.idxfns.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_has_core_symbols() {
        let r = Registry::standard();
        assert!(r.scalar_names().contains(&"square".to_string()));
        assert!(r.binop_names().contains(&"add".to_string()));
        assert!(r.idx_names().contains(&"succ".to_string()));
    }

    #[test]
    fn apply_named_and_composed_scalars() {
        let r = Registry::standard();
        assert_eq!(r.apply_fn(&FnRef::named("inc"), 4).unwrap(), 5);
        // square ∘ inc: inc first
        let f = FnRef::named("square").then_after(FnRef::named("inc"));
        assert_eq!(r.apply_fn(&f, 4).unwrap(), 25);
    }

    #[test]
    fn composed_work_adds() {
        let r = Registry::standard();
        let f = FnRef::named("heavy").then_after(FnRef::named("inc"));
        assert_eq!(r.fn_work(&f).unwrap(), Work::flops(33));
    }

    #[test]
    fn unknown_symbols_error() {
        let r = Registry::standard();
        assert!(r.apply_fn(&FnRef::named("nope"), 0).is_err());
        assert!(r.apply_op("nope", 0, 0).is_err());
        assert!(r.apply_idx(&IdxRef::named("nope"), 0, 4).is_err());
        assert!(r.op_work("nope").is_err());
    }

    #[test]
    fn binop_attributes() {
        let r = Registry::standard();
        assert!(r.is_assoc("add"));
        assert!(!r.is_assoc("sub"));
        assert!(!r.is_assoc("missing"));
        assert_eq!(r.apply_op("max", 3, 9).unwrap(), 9);
    }

    #[test]
    fn idx_functions_wrap_mod_n() {
        let r = Registry::standard();
        assert_eq!(r.apply_idx(&IdxRef::named("succ"), 3, 4).unwrap(), 0);
        assert_eq!(r.apply_idx(&IdxRef::named("rev"), 0, 5).unwrap(), 4);
        // composed: succ ∘ succ
        let f = IdxRef::named("succ").then_after(IdxRef::named("succ"));
        assert_eq!(r.apply_idx(&f, 2, 4).unwrap(), 0);
    }
}
