//! Fused, partition-resident plan execution.
//!
//! The eager interpretation of a [`Skel`](crate::plan::Skel) plan executes
//! one skeleton at a time: every `.then()` materialises a full
//! [`ParArray`] and pays one more fork-join dispatch. That is
//! faithful to the paper's semantics but leaves performance on the table —
//! a run of purely part-local stages (`map`, `imap`, `zip_with`, `farm` and
//! their costed forms) has **no** cross-partition data flow, so the whole
//! run can execute back-to-back on the worker that owns each partition,
//! with no intermediate arrays and a single dispatch.
//!
//! This module is that executor. A fusable plan carries, next to its eager
//! closure, a fused plan: a chain of type-erased nodes, each either
//!
//! * a **compute** node — part-local, safe to fuse with its neighbours; or
//! * a **barrier** node — anything that needs the whole configuration
//!   (communication skeletons like `rotate` / `fetch` / `total_exchange`,
//!   scans and reductions, repartitioning, opaque whole-array stages).
//!
//! Execution walks the chain, grouping maximal runs of compute nodes into
//! *segments*. Each segment is dispatched **once** through
//! [`scl_exec::par_pipeline`] on the process-wide worker pool (the same
//! dispatch an eager skeleton pays once per call); barrier nodes run on
//! the calling thread through the ordinary eager skeletons. The simulated
//! machine is charged the same *totals* either way — makespan, flops /
//! cmps / moves, message counts agree with eager execution — but a fused
//! segment charges each partition **once** with the summed work (one
//! `"fused"` compute event), where the eager path charges once per stage,
//! so `compute_steps` and per-stage trace events differ by design. Under
//! [`ExecPolicy::CostDriven`] each segment asks the machine's
//! [`CostModel`](scl_machine::CostModel) (via
//! [`CostModel::fused_decision`](scl_machine::CostModel::fused_decision))
//! whether fanning out is worth it and at what grain; small segments fall
//! back to sequential execution on the calling thread.
//!
//! Values flow between nodes in an erased form, [`ErasedArr`]: one boxed
//! payload per partition plus an optional *side* value for non-distributed
//! state (the scalars an `iter_until` threads, host data before a
//! `partition`). The [`FusePort`] trait defines the canonical conversion
//! between a plan's boundary types and this form; every fused constructor
//! uses it, which is what makes node chains composable across `.then()`.
//!
//! Ownership is part of the contract end to end: a barrier node receives
//! its `ErasedArr` **by value** and re-emits an owned one, and the plan
//! layer's barrier closures delegate to the *owned* communication
//! skeletons (`rotate_owned`, `total_exchange_owned`, `gather_owned`, …),
//! so part payloads **move** through an entire fused chain — compute
//! segments hand boxed parts worker-to-worker, barriers re-route the same
//! boxes — and nothing clones partition data between stages. See the
//! "Zero-copy communication" section of the [crate docs](crate) for when
//! data does and does not clone.
//!
//! Failure behaviour is part of the contract: a panic inside a fused
//! compute node is re-raised on the caller **labelled with the stage
//! name** (`fused stage `map` panicked on part 3: …`), and configurations
//! that do not fit the machine surface as
//! [`SclError::MachineTooSmall`](crate::error::SclError) from
//! [`Scl::run_fused`](crate::ctx::Scl::run_fused) instead of a raw panic.

use crate::array::ParArray;
use crate::ctx::Scl;
use crate::error::{RequestError, Result};
use scl_exec::{par_pipeline, ExecPolicy, ThreadPool};
use scl_machine::Work;
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// A type-erased partition payload flowing through a fused segment.
pub type PartVal = Box<dyn Any + Send>;

/// The erased value flowing between fused nodes: a distributed array of
/// erased parts, plus an optional non-distributed *side* payload (scalars
/// threaded by `iter_until`, host data before `partition` / after
/// `gather`).
pub struct ErasedArr {
    pub(crate) arr: ParArray<PartVal>,
    pub(crate) side: Option<PartVal>,
    /// `size_of` of the concrete part type — a static payload estimate for
    /// the cost model (heap-owning parts are under-estimated; the model
    /// treats that as a reason to stay sequential, the cheap mistake).
    pub(crate) elem_bytes: usize,
}

impl ErasedArr {
    /// Number of distributed parts (virtual processors this value spans).
    pub fn parts(&self) -> usize {
        self.arr.len()
    }

    /// Static per-element payload estimate (`size_of` of the concrete part
    /// type) — what the cost model weighs when deciding fan-out.
    pub fn elem_bytes(&self) -> usize {
        self.elem_bytes
    }
}

/// Canonical conversion between a plan boundary type and [`ErasedArr`].
///
/// Every fused stage constructor erases its input and restores its output
/// through this trait, so when two fusable plans compose, the exit
/// conversion of one and the entry conversion of the next are exact
/// inverses and can be dropped — the node chains concatenate directly.
/// Implementations exist for the shapes plans actually cross stage
/// boundaries with: `ParArray<T>`, conforming pairs of arrays (`zip_with`
/// input), host `Vec<T>` (before `partition` / after `gather`), and
/// `(ParArray<T>, S, U)` iteration states.
pub trait FusePort: Sized {
    /// Erase into the fused runtime representation.
    fn erase(self) -> ErasedArr;
    /// Rebuild from the fused runtime representation.
    ///
    /// # Panics
    /// Panics if `e` was not produced by [`FusePort::erase`] of this same
    /// type — impossible through plan composition, which preserves boundary
    /// types.
    fn restore(e: ErasedArr) -> Self;
    /// The number of distributed parts this value will span once erased
    /// ([`ErasedArr::parts`]), read without erasing — what admission
    /// checks (machine-size validation in the streaming and serving
    /// layers) use to avoid boxing every part just to count them.
    fn parts_len(&self) -> usize;
}

fn erase_parts<T: Send + 'static>(a: ParArray<T>) -> ParArray<PartVal> {
    a.map_into(|_, x| Box::new(x) as PartVal)
}

fn restore_parts<T: Send + 'static>(arr: ParArray<PartVal>) -> ParArray<T> {
    arr.map_into(|_, v| {
        *v.downcast::<T>()
            .expect("fused plan boundary type mismatch")
    })
}

impl<T: Send + 'static> FusePort for ParArray<T> {
    fn erase(self) -> ErasedArr {
        ErasedArr {
            arr: erase_parts(self),
            side: None,
            elem_bytes: std::mem::size_of::<T>(),
        }
    }
    fn restore(e: ErasedArr) -> Self {
        restore_parts(e.arr)
    }
    fn parts_len(&self) -> usize {
        self.len()
    }
}

impl<A: Send + 'static, B: Send + 'static> FusePort for (ParArray<A>, ParArray<B>) {
    fn erase(self) -> ErasedArr {
        let (a, b) = self;
        assert!(
            a.conforms(&b),
            "fused pair boundary needs conforming arrays"
        );
        let mut bs = b.into_parts().into_iter();
        ErasedArr {
            arr: a.map_into(|_, x| Box::new((x, bs.next().expect("conforming arrays"))) as PartVal),
            side: None,
            elem_bytes: std::mem::size_of::<(A, B)>(),
        }
    }
    fn restore(e: ErasedArr) -> Self {
        crate::config::unalign(restore_parts::<(A, B)>(e.arr))
    }
    fn parts_len(&self) -> usize {
        self.0.len()
    }
}

impl<T: Send + 'static> FusePort for Vec<T> {
    fn erase(self) -> ErasedArr {
        ErasedArr {
            arr: ParArray::from_parts(Vec::new()),
            side: Some(Box::new(self)),
            elem_bytes: std::mem::size_of::<T>(),
        }
    }
    fn restore(e: ErasedArr) -> Self {
        *e.side
            .expect("fused host-data boundary lost its payload")
            .downcast::<Vec<T>>()
            .expect("fused plan boundary type mismatch")
    }
    fn parts_len(&self) -> usize {
        0 // host data is the side payload; it spans no parts until partitioned
    }
}

impl<T, S, U> FusePort for (ParArray<T>, S, U)
where
    T: Send + 'static,
    S: Send + 'static,
    U: Send + 'static,
{
    fn erase(self) -> ErasedArr {
        let (a, s, u) = self;
        ErasedArr {
            arr: erase_parts(a),
            side: Some(Box::new((s, u))),
            elem_bytes: std::mem::size_of::<T>(),
        }
    }
    fn restore(e: ErasedArr) -> Self {
        let (s, u) = *e
            .side
            .expect("fused iteration-state boundary lost its scalars")
            .downcast::<(S, U)>()
            .expect("fused plan boundary type mismatch");
        (restore_parts(e.arr), s, u)
    }
    fn parts_len(&self) -> usize {
        self.0.len()
    }
}

/// A compute node: part index + erased part in, erased part + reported
/// [`Work`] + measured host seconds out. The seconds are nonzero only for
/// *uncosted* stages (plain `map`/`imap`/`farm`), mirroring the eager
/// layer: costed stages charge exactly their reported work, uncosted ones
/// charge per the context's `MeasureMode`. `Send + Sync` so a streaming
/// runtime can replicate a stage across persistent farm workers.
type ComputeFn<'a> = Box<dyn Fn(usize, PartVal) -> (PartVal, Work, f64) + Send + Sync + 'a>;
type BarrierFn<'a> = Box<dyn FnMut(&mut Scl, ErasedArr) -> Result<ErasedArr> + 'a>;

/// One part-local compute stage of a fused chain.
pub(crate) struct ComputeStage<'a> {
    label: &'static str,
    /// True when the *eager* layer charges a compute event for this stage
    /// (every map flavour does; `zip_with` deliberately charges nothing).
    /// The fused executor ignores this — it charges every segment stage
    /// into one summed event — but per-stage streaming charging
    /// ([`SegmentOp::apply`]) replays exactly the eager charges.
    charged: bool,
    /// Hash of the stage's structural parameters (registered symbol names
    /// for symbolic maps), folded into the plan fingerprint. 0 when the
    /// stage has none beyond its label.
    param: u64,
    f: ComputeFn<'a>,
}

/// Unpack an [`ErasedArr`] into the two independent arm inputs of a
/// branch node — the canonical [`FusePort`] conversions of the branch's
/// boundary types (unzip a pair, clone a fanout input).
type SplitFn<'a> = Box<dyn Fn(ErasedArr) -> (ErasedArr, ErasedArr) + 'a>;
/// Zip two arm outputs back into one [`ErasedArr`] at the branch's join
/// barrier.
type JoinFn<'a> = Box<dyn Fn(ErasedArr, ErasedArr) -> ErasedArr + 'a>;
/// Inspect the value and pick an arm (`true` = left) without consuming it.
type ChooseFn<'a> = Box<dyn Fn(ErasedArr) -> (ErasedArr, bool) + 'a>;

/// How a branch node routes its input between its two arms.
pub(crate) enum BranchKind<'a> {
    /// Both arms run, each over its own half of the input: `pair` (unzip
    /// the tuple) and `fanout` (clone the input). The arms are
    /// independent, so the fused executor may run them concurrently; the
    /// `join` is the zip barrier reuniting them.
    Split {
        split: SplitFn<'a>,
        join: JoinFn<'a>,
    },
    /// Exactly one arm runs, selected per value by a predicate: `choice`.
    Choose(ChooseFn<'a>),
}

impl BranchKind<'_> {
    /// Discriminant byte folded into fingerprints, so a `choice` of two
    /// arms never collides with a `fanout` of the same arms even if
    /// labels were ever aliased.
    fn tag_byte(&self) -> u8 {
        match self {
            BranchKind::Split { .. } => 0x00,
            BranchKind::Choose(_) => 0x01,
        }
    }
}

/// A DAG node of a fused chain: two independent arm chains between a
/// split and a join. Built by the arrow combinators
/// ([`Skel::pair`](crate::plan::Skel::pair),
/// [`Skel::fanout`](crate::plan::Skel::fanout),
/// [`Skel::choice`](crate::plan::Skel::choice)).
pub(crate) struct BranchNode<'a> {
    label: &'static str,
    /// Structural-parameter hash of the branch itself (the arms carry
    /// their own).
    param: u64,
    kind: BranchKind<'a>,
    left: Vec<FusedNode<'a>>,
    right: Vec<FusedNode<'a>>,
}

/// One stage of a fused chain.
pub(crate) enum FusedNode<'a> {
    /// Part-local: output part `i` depends only on input part `i`. Runs of
    /// these execute back-to-back on the owning worker.
    Compute(ComputeStage<'a>),
    /// Whole-configuration: a fusion barrier. Runs on the calling thread
    /// through the eager skeleton layer.
    Barrier {
        label: &'static str,
        /// Hash of the barrier's structural parameters (rotation amount,
        /// shift distance, iteration count, partition pattern, registered
        /// symbol names) — what keeps `rotate(1)` and `rotate(2)` apart
        /// in the plan fingerprint even when the surrounding plan is
        /// opaque. 0 when the stage has none beyond its label.
        param: u64,
        f: BarrierFn<'a>,
    },
    /// A DAG fork: two arm chains between a split and a join (or one of
    /// two, for `choice`). Never part of a fused segment — the split and
    /// join are barriers — but pure-compute arms of a `Split` branch run
    /// as one concurrent dispatch on the shared pool.
    Branch(BranchNode<'a>),
}

impl FusedNode<'_> {
    pub(crate) fn label(&self) -> &'static str {
        match self {
            FusedNode::Compute(ComputeStage { label, .. }) | FusedNode::Barrier { label, .. } => {
                label
            }
            FusedNode::Branch(b) => b.label,
        }
    }

    pub(crate) fn is_barrier(&self) -> bool {
        // a branch bounds fused segments on both sides, like a barrier
        !matches!(self, FusedNode::Compute(_))
    }
}

/// The fused form of a plan from `A` to `B`: entry/exit conversions (always
/// the canonical [`FusePort`] ones) around a node chain.
pub(crate) struct FusedPlan<'a, A, B> {
    entry: Box<dyn Fn(A) -> ErasedArr + 'a>,
    pub(crate) nodes: Vec<FusedNode<'a>>,
    exit: Box<dyn Fn(ErasedArr) -> B + 'a>,
}

impl<'a, A: FusePort + 'a, B: FusePort + 'a> FusedPlan<'a, A, B> {
    fn from_nodes(nodes: Vec<FusedNode<'a>>) -> Self {
        FusedPlan {
            entry: Box::new(A::erase),
            nodes,
            exit: Box::new(B::restore),
        }
    }
}

impl<A, B> FusedPlan<'_, A, B> {
    /// Stamp every node with a structural-parameter hash — called by the
    /// plan constructors that carry hashable parameters (rotation
    /// amounts, iteration counts, symbol names), right after building
    /// their single-node plan.
    pub(crate) fn tag_param(&mut self, p: u64) {
        for node in &mut self.nodes {
            match node {
                FusedNode::Compute(st) => st.param = p,
                FusedNode::Barrier { param, .. } => *param = p,
                // the arms carry their own parameter hashes; the branch
                // itself takes the stamp
                FusedNode::Branch(b) => b.param = p,
            }
        }
    }
}

/// Concatenate two fused plans across a shared boundary type. Sound
/// because every constructor builds entry/exit from [`FusePort`], so
/// `a.exit` and `b.entry` are exact inverses — both are dropped.
pub(crate) fn compose<'a, A, B, C>(
    a: FusedPlan<'a, A, B>,
    b: FusedPlan<'a, B, C>,
) -> FusedPlan<'a, A, C> {
    let mut nodes = a.nodes;
    nodes.extend(b.nodes);
    FusedPlan {
        entry: a.entry,
        nodes,
        exit: b.exit,
    }
}

/// A single part-local stage as a fused plan. `timed` selects the eager
/// layer's charging convention: `true` for uncosted stages (host time is
/// measured and charged per `MeasureMode`, like [`Scl::imap`]), `false`
/// for costed ones (only the reported [`Work`] is charged, like
/// [`Scl::imap_costed`]).
pub(crate) fn compute_node<'a, T, R>(
    label: &'static str,
    timed: bool,
    f: impl Fn(usize, &T) -> (R, Work) + Send + Sync + 'a,
) -> FusedPlan<'a, ParArray<T>, ParArray<R>>
where
    T: Send + 'static,
    R: Send + 'static,
{
    FusedPlan::from_nodes(vec![FusedNode::Compute(ComputeStage {
        label,
        charged: true,
        param: 0,
        f: Box::new(move |i, v| {
            let x = v.downcast::<T>().expect("fused stage input type mismatch");
            // costed stages report their own work: only a wall-clock
            // stage pays for reading the clock
            let t0 = timed.then(Instant::now);
            let (r, w) = f(i, &x);
            let secs = t0.map_or(0.0, |t0| t0.elapsed().as_secs_f64());
            (Box::new(r) as PartVal, w, secs)
        }),
    })])
}

/// A part-local stage over a zipped pair boundary ([`Skel::zip_with`]).
///
/// [`Skel::zip_with`]: crate::plan::Skel::zip_with
pub(crate) fn compute_pair_node<'a, A, B, R>(
    label: &'static str,
    f: impl Fn(&A, &B) -> (R, Work) + Send + Sync + 'a,
) -> FusedPlan<'a, (ParArray<A>, ParArray<B>), ParArray<R>>
where
    A: Send + 'static,
    B: Send + 'static,
    R: Send + 'static,
{
    FusedPlan::from_nodes(vec![FusedNode::Compute(ComputeStage {
        label,
        // like the eager `Scl::zip_with`, this charges nothing locally
        charged: false,
        param: 0,
        f: Box::new(move |_, v| {
            let pair = v
                .downcast::<(A, B)>()
                .expect("fused stage input type mismatch");
            let (r, w) = f(&pair.0, &pair.1);
            (Box::new(r) as PartVal, w, 0.0)
        }),
    })])
}

/// The `pair` combinator as a fused plan: one branch node whose split
/// unzips the canonical pair encoding and whose join re-zips the arm
/// outputs. All four conversions are the [`FusePort`] ones, so the node
/// composes across `.then()` exactly like any single-stage plan.
pub(crate) fn pair_node<'a, A, B, C, D>(
    left: FusedPlan<'a, A, B>,
    right: FusedPlan<'a, C, D>,
) -> FusedPlan<'a, (A, C), (B, D)>
where
    A: FusePort + 'a,
    B: FusePort + 'a,
    C: FusePort + 'a,
    D: FusePort + 'a,
    (A, C): FusePort + 'a,
    (B, D): FusePort + 'a,
{
    FusedPlan::from_nodes(vec![FusedNode::Branch(BranchNode {
        label: "pair",
        param: 0,
        kind: BranchKind::Split {
            split: Box::new(|e| {
                let (a, c) = <(A, C)>::restore(e);
                (a.erase(), c.erase())
            }),
            join: Box::new(|l, r| (B::restore(l), D::restore(r)).erase()),
        },
        left: left.nodes,
        right: right.nodes,
    })])
}

/// The `fanout` combinator as a fused plan: the split clones the input
/// into both arms, the join zips the arm outputs into a pair.
pub(crate) fn fanout_node<'a, A, B, C>(
    left: FusedPlan<'a, A, B>,
    right: FusedPlan<'a, A, C>,
) -> FusedPlan<'a, A, (B, C)>
where
    A: FusePort + Clone + 'a,
    B: FusePort + 'a,
    C: FusePort + 'a,
    (B, C): FusePort + 'a,
{
    FusedPlan::from_nodes(vec![FusedNode::Branch(BranchNode {
        label: "fanout",
        param: 0,
        kind: BranchKind::Split {
            split: Box::new(|e| {
                let a = A::restore(e);
                let twin = a.clone();
                (a.erase(), twin.erase())
            }),
            join: Box::new(|l, r| (B::restore(l), C::restore(r)).erase()),
        },
        left: left.nodes,
        right: right.nodes,
    })])
}

/// The `choice` combinator as a fused plan: the predicate inspects the
/// (restored) value and exactly one arm runs.
pub(crate) fn choice_node<'a, A, B>(
    pred: std::sync::Arc<dyn Fn(&A) -> bool + 'a>,
    left: FusedPlan<'a, A, B>,
    right: FusedPlan<'a, A, B>,
) -> FusedPlan<'a, A, B>
where
    A: FusePort + 'a,
    B: FusePort + 'a,
{
    FusedPlan::from_nodes(vec![FusedNode::Branch(BranchNode {
        label: "choice",
        param: 0,
        kind: BranchKind::Choose(Box::new(move |e| {
            let a = A::restore(e);
            let take_left = pred(&a);
            (a.erase(), take_left)
        })),
        left: left.nodes,
        right: right.nodes,
    })])
}

/// A whole-configuration stage as a fused plan (a barrier).
pub(crate) fn barrier_node<'a, A, B>(
    label: &'static str,
    mut f: impl FnMut(&mut Scl, A) -> Result<B> + 'a,
) -> FusedPlan<'a, A, B>
where
    A: FusePort + 'a,
    B: FusePort + 'a,
{
    FusedPlan::from_nodes(vec![FusedNode::Barrier {
        label,
        param: 0,
        f: Box::new(move |scl, e| Ok(B::erase(f(scl, A::restore(e))?))),
    }])
}

// ---- structural fingerprinting ----------------------------------------------

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an FNV-1a 64-bit running hash. FNV is used instead of
/// the standard library's `DefaultHasher` because its value is **stable** —
/// the same plan fingerprints identically across processes and toolchain
/// versions, so fingerprints can appear in logs, bench JSON, and cache
/// keys that outlive one run.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Per-node tag bytes keeping compute and barrier stages from colliding
/// even when labels coincide.
const TAG_COMPUTE: &[u8] = &[0x01];
const TAG_BARRIER: &[u8] = &[0x02];
// 0x03 / 0x04 are claimed by `fingerprint_with_repr`
const TAG_BRANCH: &[u8] = &[0x05];

/// A structural fingerprint of a plan's fused operator chain — the key of
/// `scl-serve`'s plan cache.
///
/// Two plans fingerprint equal when their fused stage chains are
/// structurally identical: same stages, in the same order, with the same
/// labels, charging conventions (so `map` vs `map_costed`, a reordered
/// pipeline, or a different barrier kind all hash differently), and the
/// same **structural parameters** — the non-closure values a stage is
/// constructed from are hashed into its node, so `rotate(1)` vs
/// `rotate(2)`, `shift(1, _)` vs `shift(2, _)`, iteration counts,
/// partition patterns, task-pipeline lengths, and registered symbol names
/// (`map_sym("inc")` vs `map_sym("double")`) all differ, inside opaque
/// plans too. Plans in the lowerable fragment additionally fold in their
/// whole-program IR.
///
/// **What the fingerprint cannot see:** the *bodies* of opaque closures
/// and opaque captured values. `Skel::map(|x| x + 1)` and
/// `Skel::map(|x| x * 2)` are structurally identical and fingerprint
/// equal; so are two `Skel::shift(1, fill)` plans with different fill
/// values, or two `Skel::fetch(f)` plans with different index closures. A
/// cache keyed on fingerprints therefore assumes structurally-equal
/// submissions are semantically equal — the standard prepared-statement
/// contract. Callers serving semantically different plans with the same
/// shape must disambiguate with [`PlanFingerprint::with_salt`] (e.g. a
/// plan name or parameter string), as `scl-serve`'s `submit_keyed` does.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanFingerprint(u64);

impl PlanFingerprint {
    /// The raw 64-bit hash value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Derive a fingerprint distinguished by `salt` — how callers keep
    /// structurally identical but semantically different plans apart in a
    /// fingerprint-keyed cache. Salting is deterministic: the same
    /// fingerprint and salt always yield the same derived fingerprint, and
    /// any change to the salt changes the result.
    #[must_use]
    pub fn with_salt(self, salt: &str) -> PlanFingerprint {
        let h = fnv(FNV_OFFSET, &self.0.to_le_bytes());
        PlanFingerprint(fnv(h, salt.as_bytes()))
    }
}

impl std::fmt::Display for PlanFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::fmt::Debug for PlanFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PlanFingerprint({:016x})", self.0)
    }
}

impl ComputeStage<'_> {
    /// Fold this stage's structure into a running FNV hash: tag, label,
    /// the charging convention (so conventions that differ only in how
    /// they charge the machine still hash apart), and the stage's
    /// structural-parameter hash.
    fn hash_into(&self, h: u64) -> u64 {
        let h = fnv(h, TAG_COMPUTE);
        let h = fnv(h, self.label.as_bytes());
        let h = fnv(h, &[self.charged as u8]);
        fnv(h, &self.param.to_le_bytes())
    }
}

/// Fold a barrier's structure — tag, label, parameter hash — into a
/// running FNV hash.
fn hash_barrier(h: u64, label: &str, param: u64) -> u64 {
    let h = fnv(h, TAG_BARRIER);
    let h = fnv(h, label.as_bytes());
    fnv(h, &param.to_le_bytes())
}

/// Fold a branch's structure — tag, label, kind discriminant, parameter
/// hash, then the two arm hashes as fixed-width values — into a running
/// FNV hash. The arm hashes are complete sub-chain fingerprints (each
/// restarted from the offset basis), so arm topology is unambiguous:
/// `pair(f, g)` and `pair(g, f)` differ, as do arms of different depth,
/// and a stage can never "leak" across an arm boundary.
fn hash_branch(h: u64, label: &str, kind: u8, param: u64, left: u64, right: u64) -> u64 {
    let h = fnv(h, TAG_BRANCH);
    let h = fnv(h, label.as_bytes());
    let h = fnv(h, &[kind]);
    let h = fnv(h, &param.to_le_bytes());
    let h = fnv(h, &left.to_le_bytes());
    fnv(h, &right.to_le_bytes())
}

/// Hash a stage-parameter rendering into the value plan constructors
/// stamp through `FusedPlan::tag_param`.
pub(crate) fn param_hash(s: &str) -> u64 {
    fnv(FNV_OFFSET, s.as_bytes())
}

/// Hash a fused node chain. Segment grouping is irrelevant by
/// construction: nodes are hashed stage by stage, so this agrees with
/// [`fingerprint_ops`] over the grouped operator list of the same plan.
pub(crate) fn fingerprint_nodes(nodes: &[FusedNode<'_>]) -> u64 {
    let mut h = FNV_OFFSET;
    for node in nodes {
        h = match node {
            FusedNode::Compute(st) => st.hash_into(h),
            FusedNode::Barrier { label, param, .. } => hash_barrier(h, label, *param),
            FusedNode::Branch(b) => hash_branch(
                h,
                b.label,
                b.kind.tag_byte(),
                b.param,
                fingerprint_nodes(&b.left),
                fingerprint_nodes(&b.right),
            ),
        };
    }
    h
}

/// Structurally fingerprint a streaming operator list — the
/// [`PlanOp`]-level hash, usable after
/// [`Skel::into_stream_ops`](crate::plan::Skel::into_stream_ops) has
/// consumed the plan. Hashes the operator chain only;
/// [`Skel::fingerprint`](crate::plan::Skel::fingerprint) additionally
/// folds in the plan's IR representation (or its absence), so the two
/// values are related but not equal.
pub fn fingerprint_ops(ops: &[PlanOp<'_>]) -> PlanFingerprint {
    PlanFingerprint(hash_ops(FNV_OFFSET, ops))
}

/// The recursive body of [`fingerprint_ops`] — hashes stage by stage, so
/// it agrees with [`fingerprint_nodes`] over the ungrouped chain of the
/// same plan (branch arms included).
fn hash_ops(mut h: u64, ops: &[PlanOp<'_>]) -> u64 {
    for op in ops {
        match op {
            PlanOp::Segment(seg) => {
                for st in &seg.stages {
                    h = st.hash_into(h);
                }
            }
            PlanOp::Barrier(b) => h = hash_barrier(h, b.label, b.param),
            PlanOp::Branch(b) => {
                h = hash_branch(
                    h,
                    b.label,
                    b.kind.tag_byte(),
                    b.param,
                    hash_ops(FNV_OFFSET, &b.left),
                    hash_ops(FNV_OFFSET, &b.right),
                )
            }
        }
    }
    h
}

/// Combine a node-chain hash with a plan's optional IR representation into
/// the final fingerprint (the IR distinguishes lowerable stages whose
/// parameters the node chain cannot see, e.g. `rotate(1)` vs `rotate(2)`).
pub(crate) fn fingerprint_with_repr(nodes_hash: u64, repr: Option<String>) -> PlanFingerprint {
    let h = match repr {
        Some(text) => fnv(fnv(nodes_hash, &[0x03]), text.as_bytes()),
        None => fnv(nodes_hash, &[0x04]),
    };
    PlanFingerprint(h)
}

// ---- streaming introspection ------------------------------------------------

/// One operator of a fused plan, as a streaming runtime consumes it: a
/// maximal run of part-local compute stages ([`PlanOp::Segment`], pure and
/// replicable across farm workers) or a whole-configuration barrier
/// ([`PlanOp::Barrier`], stateful and order-serial). Produced by
/// [`Skel::into_stream_ops`](crate::plan::Skel::into_stream_ops); barriers
/// are exactly the stage boundaries of the persistent operator graph.
pub enum PlanOp<'a> {
    /// A maximal fused compute segment.
    Segment(SegmentOp<'a>),
    /// A fusion barrier.
    Barrier(BarrierOp<'a>),
    /// A DAG fork: two independent arm op chains between a split and a
    /// join (or one of two, for `choice`). A streaming runtime either
    /// decomposes it into sibling farm stages
    /// ([`BranchOp::into_pipelined`]) or runs it whole on the pump thread
    /// ([`BranchOp::try_apply`]).
    Branch(BranchOp<'a>),
}

impl PlanOp<'_> {
    /// Display label: the barrier's stage name, the segment's stage
    /// names joined with `+`, or the branch's label with its arm labels
    /// in brackets.
    pub fn label(&self) -> String {
        match self {
            PlanOp::Segment(seg) => seg.label(),
            PlanOp::Barrier(b) => b.label().to_string(),
            PlanOp::Branch(b) => b.display_label(),
        }
    }
}

/// A maximal run of part-local compute stages, extracted from a fused
/// plan. `Send + Sync`: a streaming runtime shares one `SegmentOp` across
/// all replicas of a farm stage.
pub struct SegmentOp<'a> {
    stages: Vec<ComputeStage<'a>>,
}

impl SegmentOp<'_> {
    /// Number of fused compute stages in the segment.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True for a segment with no stages (never produced by plans).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stage labels, in execution order.
    pub fn stage_labels(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.label).collect()
    }

    /// Display label: stage names joined with `+`.
    pub fn label(&self) -> String {
        self.stage_labels().join("+")
    }

    /// Run the whole segment over every part of `val`, charging `scl`
    /// **exactly as the eager layer would**: one compute event per part
    /// per *charged* stage (all map flavours; `zip_with` stays free), in
    /// the same per-processor order as the eager stage-by-stage loops —
    /// so per-item metrics and makespan agree with
    /// [`Skel::run`](crate::plan::Skel::run) bit-for-bit under
    /// [`MeasureMode::None`](crate::ctx::MeasureMode)
    /// and costed stages. (The fused executor instead charges each part
    /// once with the summed work; same totals, different `compute_steps`.)
    ///
    /// # Panics
    /// Re-raises a stage panic labelled
    /// `` fused stage `X` panicked on part i ``, like fused execution.
    pub fn apply(&self, scl: &mut Scl, val: ErasedArr) -> ErasedArr {
        self.try_apply(scl, val).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`SegmentOp::apply`], but a stage panic is caught and returned
    /// as a typed [`RequestError::StagePanic`] carrying the stage label,
    /// part index, and panic payload — failure as a value, for runtimes
    /// that must not unwind. Charges already recorded for earlier stages
    /// and parts stay on `scl` (exactly what the panicking path did too).
    pub fn try_apply(
        &self,
        scl: &mut Scl,
        val: ErasedArr,
    ) -> std::result::Result<ErasedArr, RequestError> {
        let ErasedArr {
            arr,
            side,
            elem_bytes,
        } = val;
        let (parts, procs, shape) = arr.into_raw();
        let mut out = Vec::with_capacity(parts.len());
        for (i, part) in parts.into_iter().enumerate() {
            let mut v = part;
            for st in &self.stages {
                match std::panic::catch_unwind(AssertUnwindSafe(|| (st.f)(i, v))) {
                    Ok((nv, w, secs)) => {
                        if st.charged {
                            let charged = w + scl.measured_work(secs);
                            scl.machine.compute(procs[i], charged, st.label);
                        }
                        v = nv;
                    }
                    Err(payload) => {
                        return Err(RequestError::StagePanic {
                            stage: st.label.to_string(),
                            part: i,
                            message: panic_message(&*payload).to_string(),
                        })
                    }
                }
            }
            out.push(v);
        }
        Ok(ErasedArr {
            arr: ParArray::from_raw(out, procs, shape),
            side,
            elem_bytes,
        })
    }

    /// Run the whole segment over every part of `val`, charging `scl`
    /// **exactly as [`Scl::run_fused`] would**: each part is charged
    /// *once* with the summed work of every stage, as a single `"fused"`
    /// compute event — where [`SegmentOp::apply`] replays the eager
    /// per-stage charges. Same work totals and makespan either way;
    /// `compute_steps` and trace events differ by design.
    ///
    /// A streaming runtime uses this charging mode when its per-item
    /// reports must agree with solo fused execution
    /// ([`Scl::run_fused`] / [`Scl::run_optimized`]) rather than solo
    /// eager execution.
    ///
    /// [`Scl::run_fused`]: crate::ctx::Scl::run_fused
    /// [`Scl::run_optimized`]: crate::ctx::Scl::run_optimized
    ///
    /// # Panics
    /// Re-raises a stage panic labelled
    /// `` fused stage `X` panicked on part i ``, like fused execution.
    pub fn apply_summed(&self, scl: &mut Scl, val: ErasedArr) -> ErasedArr {
        self.try_apply_summed(scl, val)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`SegmentOp::apply_summed`], but a stage panic is caught and
    /// returned as a typed [`RequestError::StagePanic`] instead of
    /// unwinding. Parts already charged stay charged.
    pub fn try_apply_summed(
        &self,
        scl: &mut Scl,
        val: ErasedArr,
    ) -> std::result::Result<ErasedArr, RequestError> {
        let ErasedArr {
            arr,
            side,
            elem_bytes,
        } = val;
        let (parts, procs, shape) = arr.into_raw();
        let mut out = Vec::with_capacity(parts.len());
        for (i, part) in parts.into_iter().enumerate() {
            let mut v = part;
            let mut w = Work::NONE;
            let mut secs = 0.0;
            for st in &self.stages {
                match std::panic::catch_unwind(AssertUnwindSafe(|| (st.f)(i, v))) {
                    Ok((nv, nw, ns)) => {
                        v = nv;
                        w += nw;
                        secs += ns;
                    }
                    Err(payload) => {
                        return Err(RequestError::StagePanic {
                            stage: st.label.to_string(),
                            part: i,
                            message: panic_message(&*payload).to_string(),
                        })
                    }
                }
            }
            let charged = w + scl.measured_work(secs);
            scl.machine.compute(procs[i], charged, "fused");
            out.push(v);
        }
        Ok(ErasedArr {
            arr: ParArray::from_raw(out, procs, shape),
            side,
            elem_bytes,
        })
    }
}

/// A whole-configuration barrier stage, extracted from a fused plan.
/// Stateful (`FnMut`, possibly `Rc`-shared with the plan's eager path), so
/// a streaming runtime must run it on one thread and feed it items in
/// stream order.
pub struct BarrierOp<'a> {
    label: &'static str,
    param: u64,
    f: BarrierFn<'a>,
}

impl BarrierOp<'_> {
    /// The barrier's stage name.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Run the barrier, then validate that the configuration it produced
    /// still fits the machine — the same contract as fused execution.
    pub fn apply(&mut self, scl: &mut Scl, val: ErasedArr) -> Result<ErasedArr> {
        let out = (self.f)(scl, val)?;
        scl.try_check_fits(out.arr.len())?;
        Ok(out)
    }
}

/// A DAG fork extracted from a fused plan: two arm op chains between a
/// split and a join (the `Split` kind — `pair` / `fanout`) or a
/// predicate-selected arm (the `Choose` kind — `choice`).
///
/// A streaming runtime has two ways to run one:
///
/// * [`BranchOp::into_pipelined`] decomposes a `Split` branch whose arms
///   are each a single pure segment into five linear ops — split barrier,
///   left segment, swap barrier, right segment, join barrier — so the arm
///   segments become *sibling farm stages* and independent arms of
///   consecutive items overlap on the shared pool;
/// * [`BranchOp::try_apply`] runs the whole branch on the calling (pump)
///   thread, for branches whose arms contain barriers or nested branches.
pub struct BranchOp<'a> {
    label: &'static str,
    param: u64,
    kind: BranchKind<'a>,
    left: Vec<PlanOp<'a>>,
    right: Vec<PlanOp<'a>>,
}

/// The pipelined decomposition of a `Split` branch whose arms are single
/// pure segments — see [`BranchOp::into_pipelined`]. While the active
/// half flows through one arm's farm, the other half rides along inside
/// the value's *side* slot (which segments never touch), so a linear hop
/// topology carries a forked value without any cross-stage coordination.
pub struct PipelinedBranch<'a> {
    /// Split the input and park the right half in the side slot.
    pub enter: BarrierOp<'a>,
    /// The left arm's compute segment — a farm stage.
    pub left: SegmentOp<'a>,
    /// Swap halves: park the processed left, surface the right.
    pub swap: BarrierOp<'a>,
    /// The right arm's compute segment — a sibling farm stage.
    pub right: SegmentOp<'a>,
    /// Unpark the processed left and zip the halves back together.
    pub exit: BarrierOp<'a>,
}

/// Park `inner` in `host`'s side slot (asserting it was free — branch
/// boundaries in plans over arrays always are).
fn park(mut host: ErasedArr, inner: ErasedArr) -> ErasedArr {
    assert!(
        host.side.is_none() && inner.side.is_none(),
        "pipelined branch halves must not carry side payloads"
    );
    host.side = Some(Box::new(inner));
    host
}

/// Take the parked half back out of `host`'s side slot.
fn unpark(host: &mut ErasedArr) -> ErasedArr {
    *host
        .side
        .take()
        .expect("pipelined branch lost its parked half")
        .downcast::<ErasedArr>()
        .expect("pipelined branch side slot held a foreign payload")
}

impl<'a> BranchOp<'a> {
    /// The branch's own label (`"pair"`, `"fanout"`, `"choice"`).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Display label with arm structure: `pair[map+imap | rotate]`.
    pub fn display_label(&self) -> String {
        let arm = |ops: &[PlanOp<'_>]| {
            ops.iter()
                .map(|op| op.label())
                .collect::<Vec<_>>()
                .join(" . ")
        };
        format!("{}[{} | {}]", self.label, arm(&self.left), arm(&self.right))
    }

    /// Run the whole branch on the calling thread, charging `scl` per
    /// stage (`summed = false`, eager-equivalent charging) or per segment
    /// (`summed = true`, fused-equivalent) — the same flag a streaming
    /// runtime passes to [`SegmentOp::try_apply`] /
    /// [`SegmentOp::try_apply_summed`]. Arm failures come back as typed
    /// [`RequestError`]s: a panicking arm stage is a
    /// [`RequestError::StagePanic`] with the part index *local to the
    /// arm*, a failing arm barrier a [`RequestError::BarrierFailed`].
    /// For a `Split` branch the left arm runs first, exactly like fused
    /// execution, so per-item machine reports agree bit-for-bit.
    pub fn try_apply(
        &mut self,
        scl: &mut Scl,
        val: ErasedArr,
        summed: bool,
    ) -> std::result::Result<ErasedArr, RequestError> {
        match &mut self.kind {
            BranchKind::Choose(decide) => {
                let (val, take_left) = decide(val);
                let arm = if take_left {
                    &mut self.left
                } else {
                    &mut self.right
                };
                apply_ops(arm, scl, val, summed)
            }
            BranchKind::Split { split, join } => {
                let (l, r) = split(val);
                let lo = apply_ops(&mut self.left, scl, l, summed)?;
                let ro = apply_ops(&mut self.right, scl, r, summed)?;
                Ok(join(lo, ro))
            }
        }
    }

    /// Decompose into sibling farm stages, if this is a `Split` branch
    /// whose arms are each exactly one pure compute segment (no barriers,
    /// no nested branches). Returns the branch unchanged otherwise.
    ///
    /// The decomposition is linear — five consecutive ops — so it drops
    /// into a streaming runtime's existing hop/farm topology: the two arm
    /// segments become independent farm stages that overlap across
    /// *items* (item `k`'s right half runs while item `k+1`'s left half
    /// does), and each item still charges its own context left arm first,
    /// keeping per-item reports identical to fused execution.
    #[allow(clippy::result_large_err)] // Err is the undecomposed branch, by design
    pub fn into_pipelined(self) -> std::result::Result<PipelinedBranch<'a>, BranchOp<'a>> {
        let single_segment = |ops: &[PlanOp<'_>]| matches!(ops, [PlanOp::Segment(_)]);
        if !(single_segment(&self.left) && single_segment(&self.right)) {
            return Err(self);
        }
        let BranchKind::Split { split, join } = self.kind else {
            return Err(self);
        };
        let seg = |mut ops: Vec<PlanOp<'a>>| match ops.pop() {
            Some(PlanOp::Segment(seg)) => seg,
            _ => unreachable!("checked single-segment arms"),
        };
        Ok(PipelinedBranch {
            enter: BarrierOp {
                label: "branch-split",
                param: self.param,
                f: Box::new(move |_scl, val| {
                    let (l, r) = split(val);
                    Ok(park(l, r))
                }),
            },
            left: seg(self.left),
            swap: BarrierOp {
                label: "branch-swap",
                param: 0,
                f: Box::new(|_scl, mut l_done| {
                    let r = unpark(&mut l_done);
                    Ok(park(r, l_done))
                }),
            },
            right: seg(self.right),
            exit: BarrierOp {
                label: "branch-join",
                param: 0,
                f: Box::new(move |_scl, mut r_done| {
                    let l_done = unpark(&mut r_done);
                    Ok(join(l_done, r_done))
                }),
            },
        })
    }
}

/// Run an op chain on the calling thread — the recursive body of
/// [`BranchOp::try_apply`].
fn apply_ops<'a>(
    ops: &mut [PlanOp<'a>],
    scl: &mut Scl,
    mut val: ErasedArr,
    summed: bool,
) -> std::result::Result<ErasedArr, RequestError> {
    for op in ops {
        val = match op {
            PlanOp::Segment(seg) => {
                if summed {
                    seg.try_apply_summed(scl, val)?
                } else {
                    seg.try_apply(scl, val)?
                }
            }
            PlanOp::Barrier(b) => {
                b.apply(scl, val)
                    .map_err(|error| RequestError::BarrierFailed {
                        stage: b.label().to_string(),
                        error,
                    })?
            }
            PlanOp::Branch(b) => b.try_apply(scl, val, summed)?,
        };
    }
    Ok(val)
}

/// Group a fused node chain into maximal segments and barriers — the
/// operator list a streaming runtime builds its graph from.
pub(crate) fn plan_ops(nodes: Vec<FusedNode<'_>>) -> Vec<PlanOp<'_>> {
    let mut ops: Vec<PlanOp<'_>> = Vec::new();
    for node in nodes {
        match node {
            FusedNode::Compute(st) => match ops.last_mut() {
                Some(PlanOp::Segment(seg)) => seg.stages.push(st),
                _ => ops.push(PlanOp::Segment(SegmentOp { stages: vec![st] })),
            },
            FusedNode::Barrier { label, param, f } => {
                ops.push(PlanOp::Barrier(BarrierOp { label, param, f }))
            }
            FusedNode::Branch(b) => ops.push(PlanOp::Branch(BranchOp {
                label: b.label,
                param: b.param,
                kind: b.kind,
                left: plan_ops(b.left),
                right: plan_ops(b.right),
            })),
        }
    }
    ops
}

/// Best-effort rendering of a panic payload for the labelled re-raise.
/// Non-string payloads (`panic_any` tokens) are flattened to a
/// placeholder: fused execution trades payload identity for the stage
/// label, unlike the eager path which propagates payloads verbatim.
/// Public so downstream executors (the streaming runtime's poison
/// envelopes) render payloads identically.
pub fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

impl Scl {
    /// Execute a fused plan: walk the node chain, running maximal compute
    /// runs as single partition-resident segments and barriers eagerly.
    pub(crate) fn exec_fused<A, B>(
        &mut self,
        plan: &mut FusedPlan<'_, A, B>,
        input: A,
    ) -> Result<B> {
        let val = (plan.entry)(input);
        self.try_check_fits(val.arr.len())?;
        let out = self.exec_chain(&mut plan.nodes, val)?;
        Ok((plan.exit)(out))
    }

    /// Walk one node chain: maximal compute runs execute as fused
    /// segments, barriers run eagerly, branches recurse into their arms.
    /// Also the executor for each arm of a [`FusedNode::Branch`].
    fn exec_chain(&mut self, nodes: &mut [FusedNode<'_>], mut val: ErasedArr) -> Result<ErasedArr> {
        let mut i = 0;
        while i < nodes.len() {
            match &mut nodes[i] {
                FusedNode::Barrier { f, .. } => {
                    val = f(self, val)?;
                    self.try_check_fits(val.arr.len())?;
                    i += 1;
                }
                FusedNode::Branch(_) => {
                    let FusedNode::Branch(b) = &mut nodes[i] else {
                        unreachable!()
                    };
                    val = self.exec_branch(b, val)?;
                    self.try_check_fits(val.arr.len())?;
                    i += 1;
                }
                FusedNode::Compute(_) => {
                    let mut j = i;
                    while j < nodes.len() && matches!(nodes[j], FusedNode::Compute(_)) {
                        j += 1;
                    }
                    val = self.exec_segment(&nodes[i..j], val);
                    i = j;
                }
            }
        }
        Ok(val)
    }

    /// Execute one branch node. A `Choose` branch runs exactly one arm;
    /// a `Split` branch runs both — concurrently as **one** dispatch over
    /// the concatenated halves when both arms are pure compute chains
    /// (the common `pair`/`fanout` shape), sequentially left-then-right
    /// otherwise. Machine charges are identical either way: each half's
    /// parts are charged in order, left arm first.
    fn exec_branch(&mut self, b: &mut BranchNode<'_>, val: ErasedArr) -> Result<ErasedArr> {
        match &mut b.kind {
            BranchKind::Choose(decide) => {
                let (val, take_left) = decide(val);
                if take_left {
                    self.exec_chain(&mut b.left, val)
                } else {
                    self.exec_chain(&mut b.right, val)
                }
            }
            BranchKind::Split { split, join } => {
                let (l, r) = split(val);
                let pure = |nodes: &[FusedNode<'_>]| {
                    nodes.iter().all(|n| matches!(n, FusedNode::Compute(_)))
                };
                if pure(&b.left) && pure(&b.right) {
                    let (lo, ro) = self.exec_split_segments(&b.left, &b.right, l, r);
                    return Ok(join(lo, ro));
                }
                let lo = self.exec_chain(&mut b.left, l)?;
                let ro = self.exec_chain(&mut b.right, r)?;
                Ok(join(lo, ro))
            }
        }
    }

    /// The branch-parallel fast path: both arms are pure compute chains,
    /// so the left half's parts and the right half's parts are mutually
    /// independent items — run them as a single `par_pipeline` dispatch
    /// over `left parts ++ right parts`, each item routed through its own
    /// arm's stages. Under a multi-thread policy the two arms genuinely
    /// overlap on distinct pool workers. Charging stays deterministic:
    /// after the dispatch, parts are charged in arm order (left first),
    /// exactly like sequential arm-at-a-time execution.
    fn exec_split_segments(
        &mut self,
        left: &[FusedNode<'_>],
        right: &[FusedNode<'_>],
        l: ErasedArr,
        r: ErasedArr,
    ) -> (ErasedArr, ErasedArr) {
        fn stages_of<'n, 'p>(nodes: &'n [FusedNode<'p>]) -> Vec<(&'static str, &'n ComputeFn<'p>)> {
            nodes
                .iter()
                .map(|n| match n {
                    FusedNode::Compute(ComputeStage { label, f, .. }) => (*label, f),
                    _ => unreachable!("pure arms contain only compute nodes"),
                })
                .collect()
        }
        let lstages = stages_of(left);
        let rstages = stages_of(right);

        let ErasedArr {
            arr: larr,
            side: lside,
            elem_bytes: lbytes,
        } = l;
        let ErasedArr {
            arr: rarr,
            side: rside,
            elem_bytes: rbytes,
        } = r;
        let ln = larr.len();
        let (threads, grain) = self.segment_schedule(
            ln + rarr.len(),
            lstages.len().max(rstages.len()),
            lbytes.max(rbytes),
        );
        let (lparts, lprocs, lshape) = larr.into_raw();
        let (rparts, rprocs, rshape) = rarr.into_raw();
        let mut parts = lparts;
        parts.extend(rparts);

        let step = |i: usize, part: PartVal| -> (PartVal, Work, f64) {
            let (local, stages) = if i < ln {
                (i, &lstages)
            } else {
                (i - ln, &rstages)
            };
            let mut v = part;
            let mut w = Work::NONE;
            let mut secs = 0.0;
            for (label, f) in stages {
                match std::panic::catch_unwind(AssertUnwindSafe(|| f(local, v))) {
                    Ok((nv, nw, ns)) => {
                        v = nv;
                        w += nw;
                        secs += ns;
                    }
                    Err(payload) => panic!(
                        "fused stage `{label}` panicked on part {local}: {}",
                        panic_message(&*payload)
                    ),
                }
            }
            (v, w, secs)
        };

        let results: Vec<(PartVal, Work, f64)> = if threads <= 1 || parts.is_empty() {
            parts
                .into_iter()
                .enumerate()
                .map(|(i, p)| step(i, p))
                .collect()
        } else {
            par_pipeline(ThreadPool::shared(threads), parts, threads, grain, step)
        };

        let mut lout = Vec::with_capacity(ln);
        let mut rout = Vec::with_capacity(results.len() - ln);
        for (i, (v, w, secs)) in results.into_iter().enumerate() {
            let charged = w + self.measured_work(secs);
            if i < ln {
                self.machine.compute(lprocs[i], charged, "fused");
                lout.push(v);
            } else {
                self.machine.compute(rprocs[i - ln], charged, "fused");
                rout.push(v);
            }
        }
        (
            ErasedArr {
                arr: ParArray::from_raw(lout, lprocs, lshape),
                side: lside,
                elem_bytes: lbytes,
            },
            ErasedArr {
                arr: ParArray::from_raw(rout, rprocs, rshape),
                side: rside,
                elem_bytes: rbytes,
            },
        )
    }

    /// Run one fused segment — consecutive compute nodes — over every
    /// partition, charging each partition's accumulated work once.
    fn exec_segment(&mut self, segment: &[FusedNode<'_>], val: ErasedArr) -> ErasedArr {
        let ErasedArr {
            arr,
            side,
            elem_bytes,
        } = val;
        if arr.is_empty() {
            return ErasedArr {
                arr,
                side,
                elem_bytes,
            };
        }
        let stages: Vec<(&'static str, &ComputeFn<'_>)> = segment
            .iter()
            .map(|n| match n {
                FusedNode::Compute(ComputeStage { label, f, .. }) => (*label, f),
                _ => unreachable!("fused segments contain only compute nodes"),
            })
            .collect();

        let n = arr.len();
        let (threads, grain) = self.segment_schedule(n, stages.len(), elem_bytes);
        let (parts, procs, shape) = arr.into_raw();

        let step = |i: usize, part: PartVal| -> (PartVal, Work, f64) {
            let mut v = part;
            let mut w = Work::NONE;
            let mut secs = 0.0;
            for (label, f) in &stages {
                match std::panic::catch_unwind(AssertUnwindSafe(|| f(i, v))) {
                    Ok((nv, nw, ns)) => {
                        v = nv;
                        w += nw;
                        secs += ns;
                    }
                    Err(payload) => panic!(
                        "fused stage `{label}` panicked on part {i}: {}",
                        panic_message(&*payload)
                    ),
                }
            }
            (v, w, secs)
        };

        let results: Vec<(PartVal, Work, f64)> = if threads <= 1 {
            parts
                .into_iter()
                .enumerate()
                .map(|(i, p)| step(i, p))
                .collect()
        } else {
            // the shared pool only grows, so pass the cap: an earlier,
            // wider dispatch must not over-commit this smaller one
            par_pipeline(ThreadPool::shared(threads), parts, threads, grain, step)
        };

        let mut out = Vec::with_capacity(results.len());
        for (i, (v, w, secs)) in results.into_iter().enumerate() {
            let charged = w + self.measured_work(secs);
            self.machine.compute(procs[i], charged, "fused");
            out.push(v);
        }
        ErasedArr {
            arr: ParArray::from_raw(out, procs, shape),
            side,
            elem_bytes,
        }
    }

    /// `(threads, grain)` for a segment under the current [`ExecPolicy`] —
    /// also the schedule for the owned compute maps in
    /// [`crate::skeletons::elementary`], which are one-stage segments.
    pub(crate) fn segment_schedule(
        &self,
        parts: usize,
        stages: usize,
        elem_bytes: usize,
    ) -> (usize, usize) {
        match self.policy {
            ExecPolicy::Sequential => (1, 1),
            ExecPolicy::Threads(t) => (t.max(1).min(parts), 1),
            ExecPolicy::CostDriven { threads } => {
                let d = self
                    .machine
                    .model()
                    .fused_decision(parts, stages, elem_bytes, threads);
                (d.threads.min(parts.max(1)), d.grain)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_machine::{CostModel, Machine, Topology};

    fn unit_ctx(n: usize) -> Scl {
        Scl::new(Machine::new(
            Topology::FullyConnected { procs: n },
            CostModel::unit(),
        ))
    }

    #[test]
    fn parray_port_roundtrips() {
        let a = ParArray::with_placement(vec![1i64, 2, 3], vec![4, 5, 6]);
        let e = a.clone().erase();
        assert_eq!(e.elem_bytes, std::mem::size_of::<i64>());
        let back: ParArray<i64> = FusePort::restore(e);
        assert_eq!(back, a);
    }

    #[test]
    fn pair_port_roundtrips() {
        let a = ParArray::from_parts(vec![1i64, 2]);
        let b = ParArray::from_parts(vec!["x".to_string(), "y".to_string()]);
        let e = (a.clone(), b.clone()).erase();
        let (ra, rb): (ParArray<i64>, ParArray<String>) = FusePort::restore(e);
        assert_eq!(ra, a);
        assert_eq!(rb, b);
    }

    #[test]
    #[should_panic(expected = "conforming")]
    fn pair_port_rejects_mismatch() {
        let a = ParArray::from_parts(vec![1i64, 2]);
        let b = ParArray::from_parts(vec![1i64]);
        let _ = (a, b).erase();
    }

    #[test]
    fn vec_and_state_ports_roundtrip() {
        let v = vec![1u64, 2, 3];
        let back: Vec<u64> = FusePort::restore(v.clone().erase());
        assert_eq!(back, v);

        let st = (ParArray::from_parts(vec![1.0f64, 2.0]), 7usize, 0.5f64);
        let (arr, iters, res): (ParArray<f64>, usize, f64) = FusePort::restore(st.clone().erase());
        assert_eq!(arr, st.0);
        assert_eq!(iters, 7);
        assert_eq!(res, 0.5);
    }

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        // pinned value: the fingerprint must not drift across releases
        assert_eq!(fnv(FNV_OFFSET, b"scl"), fnv(FNV_OFFSET, b"scl"));
        assert_ne!(fnv(FNV_OFFSET, b"ab"), fnv(FNV_OFFSET, b"ba"));
        assert_eq!(fnv(FNV_OFFSET, b""), FNV_OFFSET);
    }

    #[test]
    fn salt_derives_deterministically_and_distinctly() {
        let fp = PlanFingerprint(42);
        assert_eq!(fp.with_salt("tenant-a"), fp.with_salt("tenant-a"));
        assert_ne!(fp.with_salt("tenant-a"), fp.with_salt("tenant-b"));
        assert_ne!(fp.with_salt("tenant-a"), fp);
        // display is zero-padded hex of the raw value
        assert_eq!(fp.to_string(), format!("{:016x}", fp.raw()));
    }

    #[test]
    fn segment_schedule_honours_policy() {
        let s = unit_ctx(4);
        assert_eq!(s.segment_schedule(8, 3, 8), (1, 1));
        let s = s.with_policy(ExecPolicy::Threads(4));
        assert_eq!(s.segment_schedule(8, 3, 8), (4, 1));
        assert_eq!(s.segment_schedule(2, 3, 8), (2, 1));
        // unit model: any real work justifies fanning out
        let s = s.with_policy(ExecPolicy::CostDriven { threads: 4 });
        assert_eq!(s.segment_schedule(8, 3, 8), (4, 1));
        assert_eq!(s.segment_schedule(1, 3, 8), (1, 1));
    }
}
