#![deny(missing_docs)]
//! # scl-core — Parallel Skeletons for Structured Composition
//!
//! A Rust reproduction of the coordination language **SCL** from
//! Darlington, Guo, To & Yang, *"Parallel Skeletons for Structured
//! Composition"* (PPoPP 1995).
//!
//! SCL structures a parallel program in two tiers: an upper *coordination*
//! layer built by composing **skeletons** — predefined, higher-order
//! parallel forms — and a lower layer of ordinary sequential code (Rust
//! closures here, Fortran/C in the paper). The skeletons abstract *all*
//! parallel behaviour: partitioning, placement, data movement, and control
//! flow. In exchange, programs become portable (retarget the
//! [`scl_machine::CostModel`]), composable, and optimisable by algebraic
//! transformation (see the `scl-transform` crate).
//!
//! ## The three skeleton families — and plans over them
//!
//! | family | skeletons | eager module | plan combinators |
//! |---|---|---|---|
//! | configuration | `partition`, `gather`, `align`, `distribution`, `redistribution`, `split`, `combine` | [`ctx`], [`config`], [`partition`] | [`Skel::partition`], [`Skel::gather`], [`Skel::balance`] |
//! | elementary | `map`, `imap`, `fold`, `scan`, `zip_with` + communication: `rotate`, `rotate_row`, `rotate_col`, `brdcast`, `apply_brdcast`, `send`, `fetch`, `total_exchange` | [`skeletons::elementary`], [`skeletons::comm`] | [`Skel::map`], [`Skel::imap`], [`Skel::fold_all`], [`Skel::scan`], [`Skel::zip_with`], [`Skel::rotate`], [`Skel::shift`], [`Skel::brdcast`], [`Skel::fetch`], [`Skel::total_exchange`] |
//! | computational | `farm`, `spmd`, `iter_until`, `iter_for`, `dc`, `pipeline` | [`skeletons::compute`] | [`Skel::farm`], [`Skel::spmd`], [`Skel::iter_until`], [`Skel::iter_for`], [`Skel::dac`], [`Skel::task_pipeline`] |
//! | streaming | persistent pipeline/farm operator graphs serving a plan over unbounded input — bounded queues, backpressure, measured farm widths | `scl-stream` (`StreamExec`) | [`Skel::into_stream_ops`] → `StreamExec::push`/`drain`/`run_stream` |
//!
//! Every skeleton is available two ways: **eagerly**, as a method on
//! [`Scl`] that executes immediately, and as a **plan combinator** on
//! [`Skel`] that builds a first-class program value. Plans compose with
//! [`Skel::then`] / [`Skel::pipe`], run with [`Skel::run`], and — for the
//! symbolic `i64` fragment ([`Skel::map_sym`], [`Skel::rotate`],
//! [`Skel::fetch_sym`], [`Skel::send_sym`], [`Skel::scan_sym`]) — lower
//! into the `scl-transform` IR so [`Scl::run_optimized`] can apply the
//! paper's §4 rewrite laws *before* executing (see [`plan`]). Such a
//! program costs what the simulated machine charges for running it:
//! [`estimate`](fn@estimate) reads that charge off a dry run.
//!
//! ## Fused, partition-resident execution
//!
//! A plan is one operator chain (module [`fused`]), and [`Skel::run`] walks
//! it as the eager skeletons would, charging every stage as its own
//! compute event. [`Scl::run_fused`] walks the same
//! chain partition-resident: runs of part-local **compute** skeletons
//! (`map`, `imap`, `zip_with`, `farm`, their costed forms) execute
//! back-to-back on the worker owning each partition — no intermediate
//! arrays, one persistent-pool dispatch per run — while
//! **communication** skeletons (`rotate`, `fetch`, `total_exchange`,
//! scans, reductions, repartitioning) are the only barriers between fused
//! segments. Results agree with eager execution bit-for-bit (the
//! `tests/fused_vs_eager.rs` differential suite holds this under
//! sequential, threaded, and cost-driven policies), and the simulated
//! machine is charged the same work *totals* either way — makespan and
//! operation counts agree, though a fused segment charges each partition
//! once with the summed work where eager charges per stage, so
//! `compute_steps` and per-stage trace events differ.
//!
//! Which segments fan out across host threads — and at what scheduling
//! grain — is decided by the [`scl_exec::ExecPolicy`]:
//! `ExecPolicy::Sequential` and `ExecPolicy::Threads` behave as named,
//! while `ExecPolicy::CostDriven` has each segment remember the work its
//! last run measured (wall time × threads) and runs it inline while that
//! stays below [`scl_exec::FAN_OUT_NS`]; a segment never run before fans
//! out.
//! Host computations over the whole configuration join fused chains as
//! explicit barriers via [`Skel::barrier`]. [`Scl::run_optimized`]
//! executes the rewritten program through this executor, so §4
//! optimisation and fusion compose.
//!
//! ## Zero-copy communication: the ownership discipline
//!
//! Every communication and configuration skeleton has **one
//! implementation**, its owned form, and two ways to call it (outputs and
//! machine charges are held against independent reference implementations
//! by the `tests/comm_vs_reference.rs` differential suite):
//!
//! * the **owned** form (`rotate_owned(a)`, `total_exchange_owned(a)`,
//!   `gather_owned(a)`, `partition_owned(data)`, …) consumes the input and
//!   **moves** parts along the routes — permutations
//!   ([`ParArray::permute_owned`]) clone nothing at all; one-to-many
//!   routings ([`ParArray::reindex_owned`], `send_owned`, `fetch_owned`)
//!   move each source's *last* use and clone only the extra copies, which
//!   is exactly the data the simulated machine charges for shipping
//!   anyway;
//! * the **borrowed** form (`rotate(&a)`, `total_exchange(&a)`, …) keeps
//!   the input alive by cloning it once, then routes the copy exactly as
//!   the owned form does — right when the input is reused (Cannon-style
//!   sweeps over a retained array, ablation runs over one dataset).
//!
//! The plan layer uses the owned forms exclusively: every barrier stage of
//! a [`Skel`] receives its array by value and re-emits an owned one, so a
//! fused chain moves part payloads end to end. Heavy local movements — the
//! `total_exchange` bucket transpose, the `gather` concat, the block
//! `partition` scatter — additionally fan out across the process-wide
//! worker pool (`scl_exec::par_permute` / `par_concat` /
//! `par_scatter`) when
//! [`CostModel::comm_decision`](scl_machine::CostModel::comm_decision)
//! says the moved bytes justify a dispatch; small arrays stay inline.
//!
//! Iterative plans double-buffer through the context's recycled-buffer
//! pool: [`Scl::take_buf`] hands out a cleared buffer (reusing a recycled
//! allocation when one fits), [`Scl::recycle_buf`] parks a spent one, so a
//! convergence loop like jacobi's allocates a constant amount per sweep
//! after its first iteration. The pool is host-side performance state, not
//! machine state: [`Scl::reset`] deliberately keeps it (warm buffers carry
//! across runs), and [`Scl::clear_buffers`] drops it explicitly. Resident
//! bytes are capped ([`DEFAULT_BUFFER_CAP_BYTES`] unless overridden with
//! [`Scl::with_buffer_cap`]) with oldest-first eviction, and
//! [`Scl::pooled_bytes`] reads the gauge.
//!
//! All `ParArray`-returning skeletons are `#[must_use]`: dropping a
//! skeleton result silently is almost always a performance bug (the work
//! and communication were still charged), so it warns at compile time.
//!
//! ## Example: distributed dot product
//!
//! ```
//! use scl_core::prelude::*;
//!
//! let mut scl = Scl::ap1000(4);
//! let x: Vec<f64> = (0..1000).map(|i| i as f64).collect();
//! let y: Vec<f64> = (0..1000).map(|i| 2.0 * i as f64).collect();
//!
//! // Configure: block-distribute both vectors and align them.
//! let cfg = scl.distribution2(Pattern::Block(4), &x, Pattern::Block(4), &y);
//!
//! // Local dot products (costed: 2 flops per element), then a global fold.
//! let partials = scl.map_costed(&cfg, |(xs, ys)| {
//!     let dot: f64 = xs.iter().zip(ys).map(|(a, b)| a * b).sum();
//!     (dot, Work::flops(2 * xs.len() as u64))
//! });
//! let dot = scl.fold(&partials, |a, b| a + b);
//!
//! let expect: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
//! assert_eq!(dot, expect);
//! println!("predicted time on 4 AP1000 cells: {}", scl.makespan());
//! ```

pub mod array;
pub mod bytes;
pub mod config;
pub mod ctx;
pub mod error;
pub mod estimate;
pub mod fused;
pub mod partition;
pub mod plan;
pub mod seq;
pub mod skeletons;
pub mod wire;

pub use array::{GridShape, ParArray};
pub use bytes::Bytes;
pub use config::{align, align3, combine, split, try_align, unalign};
pub use ctx::{MeasureMode, Scl, DEFAULT_BUFFER_CAP_BYTES};
pub use error::{RequestError, Result, SclError};
pub use estimate::{dry_run, estimate};
pub use fused::{
    fingerprint_ops, panic_message, BarrierOp, BranchOp, ErasedArr, FusePort, PartVal,
    PipelinedBranch, PlanFingerprint, PlanOp, SegmentOp,
};
pub use partition::{block_ranges, gather, gather2, owner_1d, Pattern};
pub use plan::Skel;
pub use seq::Matrix;
pub use skeletons::{GlobalOp, LocalOp, PipeStageFn, SpmdStage};
pub use wire::{FrameHeader, WireError, WireReader, WireWriter};

/// Everything a skeleton program usually needs.
pub mod prelude {
    pub use crate::array::{GridShape, ParArray};
    pub use crate::bytes::Bytes;
    pub use crate::config::{align, align3, combine, split, unalign};
    pub use crate::ctx::{MeasureMode, Scl};
    pub use crate::fused::FusePort;
    pub use crate::partition::Pattern;
    pub use crate::plan::Skel;
    pub use crate::seq::Matrix;
    pub use crate::skeletons::{PipeStageFn, SpmdStage};
    pub use scl_exec::ExecPolicy;
    pub use scl_machine::{CostModel, Machine, Time, Topology, Work};
    pub use scl_transform::{Expr as PlanExpr, Registry};
}
