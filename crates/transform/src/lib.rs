#![warn(missing_docs)]
//! # scl-transform — transformations for optimisation (paper §4)
//!
//! "One of the advantages of the functional abstraction mechanism of SCL is
//! that meaning preserving transformation techniques can be generally
//! applied to optimise the parallelism specified uniformly in terms of
//! skeletons."
//!
//! This crate is that machinery, executable:
//!
//! * [`ir`] — skeleton expressions as data ([`Expr`]), with function symbols
//!   resolved through a [`Registry`];
//! * [`rules`] — the paper's laws: **map fusion**, **map distribution**,
//!   the **communication algebra** (`send`/`fetch`/`rotate` fusion), and
//!   nested-SPMD **flattening**;
//! * [`rewrite`] — normalisation and a fixpoint engine that rewrites the
//!   program in place until no rule fires. [`optimize`]'s log records
//!   only which rules fired; [`narrate`] runs the same engine and renders
//!   each rewritten node before and after, for people reading the steps;
//! * [`interp`] — a reference interpreter used to property-test that every
//!   rewrite preserves meaning.
//!
//! The crate prices nothing itself: a program costs what the simulated
//! machine charges for running it, which `scl_core::estimate` reads off a
//! dry run of the raised program.
//!
//! ```
//! use scl_transform::prelude::*;
//!
//! // map(inc) . map(double) . rotate(2) . rotate(-2)   — wasteful
//! let program = Expr::pipeline(vec![
//!     Expr::Rotate(-2),
//!     Expr::Rotate(2),
//!     Expr::Map(FnRef::named("double")),
//!     Expr::Map(FnRef::named("inc")),
//! ]);
//! let reg = Registry::standard();
//! let (optimized, log) = optimize(program.clone(), &reg);
//!
//! // rotations cancel, maps fuse: a single map remains
//! assert_eq!(optimized.to_string(), "map((inc . double))");
//! assert!(log.len() >= 3);
//!
//! // and the meaning is preserved:
//! let input = Value::Arr((0..16).collect());
//! assert_eq!(
//!     eval(&program, &reg, input.clone()).unwrap(),
//!     eval(&optimized, &reg, input).unwrap(),
//! );
//! ```

pub mod interp;
pub mod ir;
pub mod parse;
pub mod registry;
pub mod rewrite;
pub mod rules;

pub use interp::{eval, Value};
pub use ir::{shape_of, Expr, FnRef, IdxRef, Shape};
pub use parse::{parse, ParseError};
pub use registry::Registry;
pub use rewrite::{narrate, normalize, optimize, rewrite_fixpoint, Applied, Step};
pub use rules::{Edit, Rule};

/// Everything a transformation client usually needs.
pub mod prelude {
    pub use crate::interp::{eval, Value};
    pub use crate::ir::{shape_of, Expr, FnRef, IdxRef, Shape};
    pub use crate::parse::parse;
    pub use crate::registry::Registry;
    pub use crate::rewrite::{narrate, normalize, optimize};
    pub use crate::rules::Rule;
}
