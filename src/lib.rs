#![warn(missing_docs)]
//! # scl — Parallel Skeletons for Structured Composition
//!
//! The façade crate of the `scl-rs` workspace: a Rust reproduction of
//! Darlington, Guo, To & Yang, *"Parallel Skeletons for Structured
//! Composition"* (PPoPP 1995). It re-exports the whole stack:
//!
//! * [`machine`] (`scl-machine`) — the simulated AP1000-like multicomputer:
//!   topologies, cost models, virtual clocks, collectives, traces.
//! * [`exec`] (`scl-exec`) — the from-scratch threaded execution substrate.
//! * [`core`] (`scl-core`) — SCL itself: configuration, elementary,
//!   communication and computational skeletons over distributed arrays,
//!   plus the first-class [`Skel`](scl_core::Skel) plan API (write a
//!   skeleton program once, run it eagerly or optimise-then-execute).
//! * [`transform`] (`scl-transform`) — the §4 transformation engine: map
//!   fusion, map distribution, communication algebra and flattening,
//!   applied to a fixpoint. A program's cost is a dry run on the simulated
//!   machine ([`estimate`](fn@scl_core::estimate)), so the optimiser and every
//!   `MachineReport` read one cost semantics.
//! * [`stream`] (`scl-stream`) — the streaming runtime: compile a plan
//!   into a persistent pipeline/farm operator graph and serve unbounded
//!   input through it with backpressure and measured farm widths.
//! * [`serve`] (`scl-serve`) — the multi-tenant plan service: a
//!   fingerprint-keyed plan cache over compiled stream graphs, a shard
//!   scheduler splitting the host threads into weighted fair
//!   tenant shares, and request batching — shared infrastructure with
//!   per-request machine accounting.
//! * [`apps`] (`scl-apps`) — Gauss–Jordan, hyperquicksort (nested and
//!   flattened), PSRS, Cannon, Jacobi, histogram (batch and streaming).
//!
//! See `examples/quickstart.rs` for a guided tour, `examples/streaming.rs`
//! for the streaming runtime, `examples/serving.rs` for the multi-tenant
//! service, and the `scl-bench` crate for the binaries regenerating the
//! paper's Table 1, Figure 3, cost-model comparison and §4 ablations
//! (`ladder/`, a separate package, is the benchmark that measures every
//! layer). `docs/ARCHITECTURE.md` maps the paper's sections onto this
//! crate graph, with the life of a request end to end.

pub use scl_apps as apps;
pub use scl_core as core;
pub use scl_exec as exec;
pub use scl_machine as machine;
pub use scl_serve as serve;
pub use scl_stream as stream;
pub use scl_transform as transform;

/// One prelude for the whole stack.
pub mod prelude {
    pub use scl_core::prelude::*;
    pub use scl_core::{estimate, Skel};
    pub use scl_serve::{Serve, ServePolicy};
    pub use scl_stream::{StreamExec, StreamPolicy};
    pub use scl_transform::prelude::{
        eval, narrate, optimize, Expr, FnRef, IdxRef, Registry, Value,
    };
}
