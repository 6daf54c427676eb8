//! The executable form of a plan: one operator chain, five interpreters.
//!
//! The eager interpretation of a [`Skel`](crate::plan::Skel) plan executes
//! one skeleton at a time: every `.then()` materialises a full
//! [`ParArray`] and pays one more fork-join dispatch. That is faithful to
//! the paper's semantics but leaves performance on the table — a run of
//! purely part-local stages (`map`, `imap`, `zip_with`, `farm` and their
//! costed forms) has **no** cross-partition data flow, so the whole run can
//! execute back-to-back on the worker that owns each partition, with no
//! intermediate arrays and a single dispatch.
//!
//! Both are walks of the same data. A plan *is* a chain of type-erased
//! [`PlanOp`]s — its one executable form:
//!
//! * [`PlanOp::Segment`] — a maximal run of part-local compute stages.
//!   Composition merges the seam (`… Segment] ++ [Segment …` becomes one
//!   segment), so segments are maximal by construction, at every depth;
//! * [`PlanOp::Barrier`] — anything that needs the whole configuration
//!   (communication skeletons like `rotate` / `fetch` / `total_exchange`,
//!   scans and reductions, repartitioning, any host computation a plan
//!   wraps with [`Skel::barrier`](crate::plan::Skel::barrier));
//! * [`PlanOp::Branch`] — a DAG fork (`pair` / `fanout` / `choice`): two
//!   arm chains between a split and a join.
//!
//! Everything that gives the chain a meaning is one function over it:
//!
//! | interpreter | entry point | per op |
//! |---|---|---|
//! | eager run | [`Skel::run`](crate::plan::Skel::run) | the chain walker with per-stage charging |
//! | fused run | [`Scl::run_fused`](crate::ctx::Scl::run_fused) | the chain walker with summed charging |
//! | stream compile | [`Skel::into_stream_ops`](crate::plan::Skel::into_stream_ops) | hands the chain over as it is; `scl-stream` turns segments into farms and runs the rest through [`SegmentOp::run`] / [`BarrierOp::apply`] / [`BranchOp::try_apply`] |
//! | fingerprint | [`Skel::fingerprint`](crate::plan::Skel::fingerprint), [`fingerprint_ops`] | one structural hash |
//! | stage listing | [`Skel::fused_stages`](crate::plan::Skel::fused_stages) | the chain flattened to `(label, is_barrier)` |
//!
//! so a new combinator is one constructor plus, at most, one arm in each.
//!
//! **Execution.** The chain walker runs barriers on the calling thread
//! through the ordinary eager skeletons and hands every segment to the one
//! segment kernel, [`SegmentOp::run`]: the per-part stage loop exists once,
//! and its two charging conventions are an argument. *Summed* charging
//! (what [`Scl::run_fused`](crate::ctx::Scl::run_fused) uses) charges each
//! partition **once** with the summed work of the whole segment — one
//! `"fused"` compute event — and dispatches the segment **once** through
//! [`scl_exec::par_pipeline`] on the process-wide worker pool when the
//! context's [`ExecPolicy`] says so. Under [`ExecPolicy::CostDriven`] each
//! segment remembers the work its last run measured (wall time × threads)
//! and fans out only while that reaches [`scl_exec::FAN_OUT_NS`]; a
//! segment never run before fans out. *Per-stage*
//! charging (what [`Skel::run`](crate::plan::Skel::run) uses) runs on the
//! same schedule, also one dispatch per segment, and replays exactly the
//! eager skeletons' compute events. A `Split` branch whose two arms are each
//! one segment fans out as one dispatch under either convention (see
//! [`BranchOp::try_apply`]). Either way the simulated machine is
//! charged the same *totals* — makespan, flops / cmps / moves, message
//! counts agree; only `compute_steps` and per-stage trace events differ,
//! by design.
//!
//! Values flow between ops in an erased form, [`ErasedArr`]: one boxed
//! payload per partition plus an optional *side* value for non-distributed
//! state (the scalars an `iter_until` threads, host data before a
//! `partition`). The [`FusePort`] trait defines the canonical conversion
//! between a plan's boundary types and this form; every fused constructor
//! uses it, which is what makes op chains composable across `.then()`.
//!
//! Ownership is part of the contract end to end: a barrier receives its
//! `ErasedArr` **by value** and re-emits an owned one, and the plan layer's
//! barrier closures delegate to the *owned* communication skeletons
//! (`rotate_owned`, `total_exchange_owned`, `gather_owned`, …), so part
//! payloads **move** through an entire chain — segments hand boxed parts
//! worker-to-worker, barriers re-route the same boxes — and nothing clones
//! partition data between stages. See the "Zero-copy communication" section
//! of the [crate docs](crate) for when data does and does not clone.
//!
//! Failure behaviour is part of the contract: the segment kernel catches a
//! panicking compute stage and returns it as a typed
//! [`RequestError::StagePanic`] carrying the stage name and part index —
//! a streaming runtime keeps it as a value,
//! [`Scl::run_fused`](crate::ctx::Scl::run_fused) re-raises it on the
//! caller (`fused stage `map` panicked on part 3: …`) — and configurations
//! that do not fit the machine surface as
//! [`SclError::MachineTooSmall`](crate::error::SclError) instead of a raw
//! panic.

use crate::array::ParArray;
use crate::ctx::Scl;
use crate::error::{RequestError, Result, SclError};
use scl_exec::{par_pipeline, ExecPolicy, ThreadPool, FAN_OUT_NS};
use scl_machine::Work;
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// A type-erased partition payload flowing through a fused segment.
pub type PartVal = Box<dyn Any + Send>;

/// The erased value flowing between fused ops: a distributed array of
/// erased parts, plus an optional non-distributed *side* payload (scalars
/// threaded by `iter_until`, host data before `partition` / after
/// `gather`).
pub struct ErasedArr {
    pub(crate) arr: ParArray<PartVal>,
    pub(crate) side: Option<PartVal>,
}

impl ErasedArr {
    /// Number of distributed parts (virtual processors this value spans).
    pub fn parts(&self) -> usize {
        self.arr.len()
    }
}

/// Canonical conversion between a plan boundary type and [`ErasedArr`].
///
/// Every fused stage constructor erases its input and restores its output
/// through this trait, so when two fusable plans compose, the exit
/// conversion of one and the entry conversion of the next are exact
/// inverses and can be dropped — the op chains concatenate directly.
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

/// A compute stage: part index + erased part in, erased part + reported
/// [`Work`] + measured host seconds out. The seconds are nonzero only for
/// *uncosted* stages (plain `map`/`imap`/`farm`), mirroring the eager
/// layer: costed stages charge exactly their reported work, uncosted ones
/// charge per the context's `MeasureMode`. `Send + Sync` so a streaming
/// runtime can replicate a stage across farm lanes.
type ComputeFn<'a> = Box<dyn Fn(usize, PartVal) -> (PartVal, Work, f64) + Send + Sync + 'a>;
type BarrierFn<'a> = Box<dyn FnMut(&mut Scl, ErasedArr) -> Result<ErasedArr> + 'a>;

/// One part-local compute stage of a [`SegmentOp`].
struct ComputeStage<'a> {
    label: &'static str,
    /// True when the *eager* layer charges a compute event for this stage
    /// (every map flavour does; `zip_with` deliberately charges nothing).
    /// Summed charging ignores this — every stage of a segment goes into
    /// one event — but per-stage charging replays exactly the eager
    /// charges.
    charged: bool,
    /// Hash of the stage's structural parameters (registered symbol names
    /// for symbolic maps), folded into the plan fingerprint. 0 when the
    /// stage has none beyond its label.
    param: u64,
    f: ComputeFn<'a>,
}

/// Unpack an [`ErasedArr`] into the two independent arm inputs of a
/// branch — the canonical [`FusePort`] conversions of the branch's
/// boundary types (unzip a pair, clone a fanout input).
type SplitFn<'a> = Box<dyn Fn(ErasedArr) -> (ErasedArr, ErasedArr) + 'a>;
/// Zip two arm outputs back into one [`ErasedArr`] at the branch's join
/// barrier.
type JoinFn<'a> = Box<dyn Fn(ErasedArr, ErasedArr) -> ErasedArr + 'a>;
/// Inspect the value and pick an arm (`true` = left) without consuming it.
type ChooseFn<'a> = Box<dyn Fn(ErasedArr) -> (ErasedArr, bool) + 'a>;

/// How a branch routes its input between its two arms.
enum BranchKind<'a> {
    /// Both arms run, each over its own half of the input: `pair` (unzip
    /// the tuple) and `fanout` (clone the input). The arms are
    /// independent, so they may run concurrently; the `join` is the zip
    /// barrier reuniting them.
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

/// One operator of a fused plan — see the [module docs](self) for the
/// interpreters over it.
pub enum PlanOp<'a> {
    /// A maximal run of part-local compute stages: output part `i` depends
    /// only on input part `i`, so the run executes back-to-back on the
    /// owning worker. Pure, hence replicable across farm lanes.
    Segment(SegmentOp<'a>),
    /// Whole-configuration: a fusion barrier, stateful and order-serial.
    /// Runs on the calling thread through the eager skeleton layer.
    Barrier(BarrierOp<'a>),
    /// A DAG fork: two independent arm chains between a split and a join
    /// (or one of two, for `choice`). Bounds segments on both sides, like
    /// a barrier. A streaming runtime either decomposes it into sibling
    /// farm stages ([`BranchOp::into_pipelined`]) or runs it whole on the
    /// pump thread ([`BranchOp::try_apply`]).
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

/// A maximal run of part-local compute stages. `Send + Sync`: a streaming
/// runtime shares one `SegmentOp` across all replicas of a farm stage.
pub struct SegmentOp<'a> {
    stages: Vec<ComputeStage<'a>>,
    /// The work its last successful run measured under
    /// [`ExecPolicy::CostDriven`] — wall time × threads, in ns. It starts
    /// at [`FAN_OUT_NS`], so a segment never run before counts as heavy
    /// and fans out. A statistic that publishes nothing, hence `Relaxed`.
    last_ns: AtomicU64,
}

/// A whole-configuration barrier stage. Stateful (`FnMut`), so a streaming
/// runtime must run it on one thread and feed it items in stream order.
pub struct BarrierOp<'a> {
    label: &'static str,
    /// Hash of the barrier's structural parameters (rotation amount,
    /// shift distance, iteration count, partition pattern, registered
    /// symbol names) — what keeps `rotate(1)` and `rotate(2)` apart in the
    /// plan fingerprint even when the surrounding plan has no IR. 0 when
    /// the stage has none beyond its label.
    param: u64,
    f: BarrierFn<'a>,
}

/// A DAG fork: two arm op chains between a split and a join (the `Split`
/// kind — `pair` / `fanout`) or a predicate-selected arm (the `Choose`
/// kind — `choice`). Built by the arrow combinators
/// ([`Skel::pair`](crate::plan::Skel::pair),
/// [`Skel::fanout`](crate::plan::Skel::fanout),
/// [`Skel::choice`](crate::plan::Skel::choice)).
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
    /// Structural-parameter hash of the branch itself (the arms carry
    /// their own).
    param: u64,
    kind: BranchKind<'a>,
    left: Vec<PlanOp<'a>>,
    right: Vec<PlanOp<'a>>,
}

/// The fused form of a plan from `A` to `B`: entry/exit conversions (always
/// the canonical [`FusePort`] ones) around an op chain.
pub(crate) struct FusedPlan<'a, A, B> {
    entry: Box<dyn Fn(A) -> ErasedArr + 'a>,
    pub(crate) nodes: Vec<PlanOp<'a>>,
    exit: Box<dyn Fn(ErasedArr) -> B + 'a>,
}

impl<'a, A: FusePort + 'a, B: FusePort + 'a> FusedPlan<'a, A, B> {
    fn single(op: PlanOp<'a>) -> Self {
        FusedPlan {
            entry: Box::new(A::erase),
            nodes: vec![op],
            exit: Box::new(B::restore),
        }
    }

    /// A one-stage segment.
    fn stage(label: &'static str, charged: bool, f: ComputeFn<'a>) -> Self {
        let stage = ComputeStage {
            label,
            charged,
            param: 0,
            f,
        };
        Self::single(PlanOp::Segment(SegmentOp {
            stages: vec![stage],
            last_ns: AtomicU64::new(FAN_OUT_NS),
        }))
    }

    fn branch<L, LO, R, RO>(
        label: &'static str,
        kind: BranchKind<'a>,
        left: FusedPlan<'a, L, LO>,
        right: FusedPlan<'a, R, RO>,
    ) -> Self {
        Self::single(PlanOp::Branch(BranchOp {
            label,
            param: 0,
            kind,
            left: left.nodes,
            right: right.nodes,
        }))
    }
}

impl<'a, A: FusePort + 'a> FusedPlan<'a, A, A> {
    /// The empty chain: the identity plan.
    pub(crate) fn empty() -> Self {
        FusedPlan {
            entry: Box::new(A::erase),
            nodes: Vec::new(),
            exit: Box::new(A::restore),
        }
    }
}

impl<A, B> FusedPlan<'_, A, B> {
    /// Stamp every op with a structural-parameter hash — called by the
    /// plan constructors that carry hashable parameters (rotation
    /// amounts, iteration counts, symbol names), right after building
    /// their single-op plan.
    pub(crate) fn tag_param(&mut self, p: u64) {
        for op in &mut self.nodes {
            match op {
                PlanOp::Segment(seg) => seg.stages.iter_mut().for_each(|st| st.param = p),
                PlanOp::Barrier(b) => b.param = p,
                // the arms carry their own parameter hashes; the branch
                // itself takes the stamp
                PlanOp::Branch(b) => b.param = p,
            }
        }
    }
}

/// Concatenate two fused plans across a shared boundary type, merging the
/// seam: a segment ending `a` and a segment starting `b` become one, so
/// segments stay maximal. Sound because every constructor builds entry/exit
/// from [`FusePort`], so `a.exit` and `b.entry` are exact inverses — both
/// are dropped.
pub(crate) fn compose<'a, A, B, C>(
    a: FusedPlan<'a, A, B>,
    b: FusedPlan<'a, B, C>,
) -> FusedPlan<'a, A, C> {
    let mut nodes = a.nodes;
    for op in b.nodes {
        match (nodes.last_mut(), op) {
            (Some(PlanOp::Segment(tail)), PlanOp::Segment(head)) => tail.stages.extend(head.stages),
            (_, op) => nodes.push(op),
        }
    }
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
    FusedPlan::stage(
        label,
        true,
        Box::new(move |i, v| {
            let mut x = v.downcast::<T>().expect("fused stage input type mismatch");
            // costed stages report their own work: only a wall-clock
            // stage pays for reading the clock
            let t0 = timed.then(Instant::now);
            let (r, w) = f(i, &x);
            let secs = t0.map_or(0.0, |t0| t0.elapsed().as_secs_f64());
            // a stage mapping a type to itself writes its result into the
            // spent input's box instead of allocating a new one
            let out: PartVal = match (&mut *x as &mut dyn Any).downcast_mut::<R>() {
                Some(slot) => {
                    *slot = r;
                    x
                }
                None => Box::new(r),
            };
            (out, w, secs)
        }),
    )
}

/// A part-local stage over a zipped pair boundary ([`Skel::zip_with`]).
/// Like the eager `Scl::zip_with`, it charges nothing locally.
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
    FusedPlan::stage(
        label,
        false,
        Box::new(move |_, v| {
            let pair = v
                .downcast::<(A, B)>()
                .expect("fused stage input type mismatch");
            let (r, w) = f(&pair.0, &pair.1);
            (Box::new(r) as PartVal, w, 0.0)
        }),
    )
}

/// The `pair` combinator as a fused plan: one branch whose split unzips
/// the canonical pair encoding and whose join re-zips the arm outputs. All
/// four conversions are the [`FusePort`] ones, so the op composes across
/// `.then()` exactly like any single-stage plan.
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
    let kind = BranchKind::Split {
        split: Box::new(|e| {
            let (a, c) = <(A, C)>::restore(e);
            (a.erase(), c.erase())
        }),
        join: Box::new(|l, r| (B::restore(l), D::restore(r)).erase()),
    };
    FusedPlan::branch("pair", kind, left, right)
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
    let kind = BranchKind::Split {
        split: Box::new(|e| {
            let a = A::restore(e);
            let twin = a.clone();
            (a.erase(), twin.erase())
        }),
        join: Box::new(|l, r| (B::restore(l), C::restore(r)).erase()),
    };
    FusedPlan::branch("fanout", kind, left, right)
}

/// The `choice` combinator as a fused plan: the predicate inspects the
/// (restored) value and exactly one arm runs.
pub(crate) fn choice_node<'a, A, B>(
    pred: impl Fn(&A) -> bool + 'a,
    left: FusedPlan<'a, A, B>,
    right: FusedPlan<'a, A, B>,
) -> FusedPlan<'a, A, B>
where
    A: FusePort + 'a,
    B: FusePort + 'a,
{
    let kind = BranchKind::Choose(Box::new(move |e| {
        let a = A::restore(e);
        let take_left = pred(&a);
        (a.erase(), take_left)
    }));
    FusedPlan::branch("choice", kind, left, right)
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
    FusedPlan::single(PlanOp::Barrier(BarrierOp {
        label,
        param: 0,
        f: Box::new(move |scl, e| Ok(B::erase(f(scl, A::restore(e))?))),
    }))
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

/// Per-op tag bytes keeping compute stages, barriers and branches from
/// colliding even when labels coincide.
const TAG_COMPUTE: &[u8] = &[0x01];
const TAG_BARRIER: &[u8] = &[0x02];
// 0x03 / 0x04 are claimed by `fingerprint_plan`
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
/// (`map_sym("inc")` vs `map_sym("double")`) all differ, in plans with
/// closure stages too. Plans in the lowerable fragment additionally fold
/// in their whole-program IR.
///
/// **What the fingerprint cannot see:** closure bodies and the values
/// they capture. `Skel::map(|x| x + 1)` and `Skel::map(|x| x * 2)` are
/// structurally identical and fingerprint equal; so are two
/// `Skel::shift(1, fill)` plans with different fill values, two
/// `Skel::fetch(f)` plans with different index closures, and two
/// `Skel::barrier(label, f)` plans with one label — a barrier's identity
/// is its label and parameters, as a map's is its label. A cache keyed on
/// fingerprints therefore assumes structurally-equal submissions are
/// semantically equal — the standard prepared-statement contract. Callers serving semantically different plans with the same
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

/// Hash a stage-parameter rendering into the value plan constructors
/// stamp through `FusedPlan::tag_param`.
pub(crate) fn param_hash(s: &str) -> u64 {
    fnv(FNV_OFFSET, s.as_bytes())
}

/// The one structural hash: fold an op chain into a running FNV hash,
/// stage by stage — segment grouping leaves no trace, so a chain hashes
/// the same however its compute stages were composed.
///
/// * a compute stage: tag, label, the charging convention (so conventions
///   that differ only in how they charge the machine still hash apart),
///   parameter hash;
/// * a barrier: tag, label, parameter hash;
/// * a branch: tag, label, kind discriminant, parameter hash, then the two
///   arm hashes as fixed-width values. The arm hashes are complete
///   sub-chain fingerprints (each restarted from the offset basis), so arm
///   topology is unambiguous: `pair(f, g)` and `pair(g, f)` differ, as do
///   arms of different depth, and a stage can never "leak" across an arm
///   boundary.
fn hash_ops(mut h: u64, ops: &[PlanOp<'_>]) -> u64 {
    for op in ops {
        match op {
            PlanOp::Segment(seg) => {
                for st in &seg.stages {
                    h = fnv(h, TAG_COMPUTE);
                    h = fnv(h, st.label.as_bytes());
                    h = fnv(h, &[st.charged as u8]);
                    h = fnv(h, &st.param.to_le_bytes());
                }
            }
            PlanOp::Barrier(b) => {
                h = fnv(h, TAG_BARRIER);
                h = fnv(h, b.label.as_bytes());
                h = fnv(h, &b.param.to_le_bytes());
            }
            PlanOp::Branch(b) => {
                h = fnv(h, TAG_BRANCH);
                h = fnv(h, b.label.as_bytes());
                h = fnv(h, &[b.kind.tag_byte()]);
                h = fnv(h, &b.param.to_le_bytes());
                h = fnv(h, &hash_ops(FNV_OFFSET, &b.left).to_le_bytes());
                h = fnv(h, &hash_ops(FNV_OFFSET, &b.right).to_le_bytes());
            }
        }
    }
    h
}

/// Structurally fingerprint an operator chain — usable after
/// [`Skel::into_stream_ops`](crate::plan::Skel::into_stream_ops) has
/// consumed the plan. Hashes the chain only;
/// [`Skel::fingerprint`](crate::plan::Skel::fingerprint) additionally
/// folds in the plan's IR representation (or its absence), so the two
/// values are related but not equal.
pub fn fingerprint_ops(ops: &[PlanOp<'_>]) -> PlanFingerprint {
    PlanFingerprint(hash_ops(FNV_OFFSET, ops))
}

/// Feeds formatted output straight into a running FNV hash: hashing a
/// `Display` rendering without building the string.
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0 = fnv(self.0, s.as_bytes());
        Ok(())
    }
}

/// The plan-level fingerprint: the chain hash combined with the rendering
/// of the plan's IR, when it has one (the IR distinguishes lowerable
/// stages whose parameters the chain cannot see).
pub(crate) fn fingerprint_plan(
    ops: &[PlanOp<'_>],
    repr: Option<&dyn std::fmt::Display>,
) -> PlanFingerprint {
    use std::fmt::Write;
    let h = hash_ops(FNV_OFFSET, ops);
    PlanFingerprint(match repr {
        Some(text) => {
            let mut w = FnvWriter(fnv(h, &[0x03]));
            write!(w, "{text}").expect("hashing cannot fail");
            w.0
        }
        None => fnv(h, &[0x04]),
    })
}

/// The chain flattened to `(label, is_barrier)` pairs — what
/// [`Skel::fused_stages`](crate::plan::Skel::fused_stages) reports. A
/// branch bounds segments on both sides, so it lists as a barrier.
pub(crate) fn stage_list(ops: &[PlanOp<'_>]) -> Vec<(&'static str, bool)> {
    let mut out = Vec::new();
    for op in ops {
        match op {
            PlanOp::Segment(seg) => out.extend(seg.stages.iter().map(|st| (st.label, false))),
            PlanOp::Barrier(b) => out.push((b.label, true)),
            PlanOp::Branch(b) => out.push((b.label, true)),
        }
    }
    out
}

// ---- the segment kernel -----------------------------------------------------

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

    /// Run the whole segment over every part of `val` — the one segment
    /// kernel, under either charging convention:
    ///
    /// * `summed = true` charges `scl` **exactly as [`Scl::run_fused`]
    ///   does**: each part *once*, with the summed work of every stage, as
    ///   a single `"fused"` compute event. The segment is one dispatch:
    ///   inline, or fanned out through [`par_pipeline`].
    /// * `summed = false` charges **exactly as [`Skel::run`]** — and the
    ///   skeleton methods it replaces, [`Scl::imap`], [`Scl::imap_costed`]
    ///   and [`Scl::zip_with`] — do: one compute event per part per
    ///   *charged* stage (all map flavours; `zip_with` stays free), stage
    ///   by stage, in part order. On one thread, or for a one-stage
    ///   segment, each stage is one pass over the parts. A multi-stage
    ///   segment on more threads is one dispatch: each part runs every
    ///   stage on its worker, and the caller replays the recorded charges
    ///   in that same stage-major order. Per-item metrics and makespan
    ///   agree with the eager skeletons bit-for-bit under
    ///   [`MeasureMode::None`](crate::ctx::MeasureMode) and costed stages,
    ///   whatever the schedule.
    ///
    /// Same work totals and makespan either way; `compute_steps` and trace
    /// events differ by design. A streaming runtime picks the convention
    /// its per-item reports must agree with.
    ///
    /// Either way the schedule is [`ExecPolicy::effective_threads`], except
    /// that under [`ExecPolicy::CostDriven`] a segment whose last run
    /// measured less than [`FAN_OUT_NS`] of work runs inline. Charging
    /// happens on the caller in part order whatever the schedule.
    ///
    /// A stage panic is caught and returned as a typed
    /// [`RequestError::StagePanic`] carrying the stage label, part index,
    /// and panic payload — failure as a value, for runtimes that must not
    /// unwind. With several failures, the one reported is the first in
    /// stage-major order. Charges already recorded for earlier stages and
    /// parts stay on `scl`.
    ///
    /// [`Scl::run_fused`]: crate::ctx::Scl::run_fused
    /// [`Skel::run`]: crate::plan::Skel::run
    pub fn run(
        &self,
        scl: &mut Scl,
        val: ErasedArr,
        summed: bool,
    ) -> std::result::Result<ErasedArr, RequestError> {
        let (parts, procs, shape) = val.arr.into_raw();
        let parts = scl.measured(parts.len(), &[&self.last_ns], |scl, schedule| {
            if summed {
                run_parts(scl, parts, schedule, |i| (i, procs[i], self))
            } else if schedule.0 > 1 && self.len() > 1 {
                run_staged(scl, &[(self, &procs)], parts, schedule)
            } else {
                self.stages.iter().try_fold(parts, |parts, st| {
                    let charge = |i: usize, (v, w, secs): (PartVal, Work, f64)| {
                        if st.charged {
                            scl.charge(procs[i], w, secs, st.label);
                        }
                        v
                    };
                    dispatch(parts, schedule, |i, v| st.apply(i, v), charge)
                })
            }
        })?;
        Ok(ErasedArr {
            arr: ParArray::from_raw(parts, procs, shape),
            ..val
        })
    }
}

/// Per-stage charging of one dispatch on `threads > 1` threads over the
/// parts of one or more segments: `arms` lists each segment with the
/// processors owning its parts, and `parts` holds those parts arm after
/// arm. Each part runs every stage of its own segment on its worker and
/// records what each stage reported. The caller then replays those
/// charges arm by arm, each in the stage-major order a dispatch per stage
/// would have made them — stage by stage, part by part — so the machine
/// sees what running the arms one after the other would have charged.
///
/// A part runs until it finishes or fails. Within an arm, the stage-major
/// loop would have stopped at the least failing `(stage, part)`: the first
/// arm with a failure reports that one (its part index local to the arm),
/// only the charges made before it are replayed, and later arms charge
/// nothing.
fn run_staged(
    scl: &mut Scl,
    arms: &[(&SegmentOp<'_>, &[usize])],
    parts: Vec<PartVal>,
    (threads, grain): (usize, usize),
) -> PartResult<Vec<PartVal>> {
    // part-major within each arm: a part's worker owns one slot per stage
    let slots = arms
        .iter()
        .map(|(seg, procs)| seg.len() * procs.len())
        .sum();
    let mut works = vec![(Work::NONE, 0.0); slots];
    let mut items = Vec::with_capacity(parts.len());
    let (mut parts, mut free) = (parts.into_iter(), &mut works[..]);
    for &(seg, procs) in arms {
        for (i, v) in parts.by_ref().take(procs.len()).enumerate() {
            let (mine, rest) = std::mem::take(&mut free).split_at_mut(seg.len());
            free = rest;
            items.push((v, seg, i, mine));
        }
    }
    let chain = |_, (mut v, seg, i, mine): (PartVal, &SegmentOp<'_>, usize, &mut [_])| {
        for (s, (st, slot)) in seg.stages.iter().zip(mine).enumerate() {
            let (nv, w, secs) = st.apply(i, v).map_err(|e| (s, e))?;
            (v, *slot) = (nv, (w, secs));
        }
        Ok(v)
    };
    // the shared pool only grows, so pass the cap (see `dispatch`)
    let mut results = par_pipeline(ThreadPool::shared(threads), items, threads, grain, chain);
    let (mut first, mut slot0) = (0, 0);
    for &(seg, procs) in arms {
        let k = seg.len();
        let failed = results[first..first + procs.len()]
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().err().map(|(s, _)| (*s, i)))
            .min();
        let stop = failed.unwrap_or((k, 0));
        'replay: for (s, st) in seg.stages.iter().enumerate() {
            for (i, &proc) in procs.iter().enumerate() {
                if (s, i) >= stop {
                    break 'replay;
                }
                if st.charged {
                    let (w, secs) = works[slot0 + i * k + s];
                    scl.charge(proc, w, secs, st.label);
                }
            }
        }
        if let Some((_, i)) = failed {
            let Err((_, e)) = results.swap_remove(first + i) else {
                unreachable!("part {i} failed")
            };
            return Err(e);
        }
        (first, slot0) = (first + procs.len(), slot0 + k * procs.len());
    }
    results.into_iter().map(|r| r.map_err(|(_, e)| e)).collect()
}

/// A part's failure inside a dispatch — boxed, so the per-part results a
/// dispatch collects stay as small as the values they carry.
type PartResult<T> = std::result::Result<T, Box<RequestError>>;

impl ComputeStage<'_> {
    /// Run the stage on part `i` — the only place a compute stage runs. A
    /// panicking stage ends the part as a typed [`RequestError::StagePanic`].
    fn apply(&self, i: usize, v: PartVal) -> PartResult<(PartVal, Work, f64)> {
        std::panic::catch_unwind(AssertUnwindSafe(|| (self.f)(i, v))).map_err(|payload| {
            Box::new(RequestError::StagePanic {
                stage: self.label.to_string(),
                part: i,
                message: panic_message(&*payload).to_string(),
            })
        })
    }
}

/// Run `step` over `parts` — inline, or fanned out through
/// [`par_pipeline`] when `threads > 1` — and hand each result to `collect`
/// in part order, stopping at the first failure. Charging happens in
/// `collect`, on the calling thread, so the machine sees the same event
/// sequence whatever the dispatch.
fn dispatch<T: Send>(
    parts: Vec<PartVal>,
    (threads, grain): (usize, usize),
    step: impl Fn(usize, PartVal) -> PartResult<T> + Sync,
    mut collect: impl FnMut(usize, T) -> PartVal,
) -> PartResult<Vec<PartVal>> {
    if threads <= 1 {
        // collected in place: the output reuses the input vector
        return parts
            .into_iter()
            .enumerate()
            .map(|(i, part)| Ok(collect(i, step(i, part)?)))
            .collect();
    }
    // the shared pool only grows, so pass the cap: an earlier, wider
    // dispatch must not over-commit this smaller one
    let results = par_pipeline(ThreadPool::shared(threads), parts, threads, grain, step);
    let collected = results.into_iter().enumerate();
    collected.map(|(i, res)| Ok(collect(i, res?))).collect()
}

/// Push `parts` through the segments `route` assigns them, summed: global
/// index → (index within the segment's own array, owning processor,
/// segment). One dispatch however many segments share it —
/// [`SegmentOp::run`] routes everything to itself, a `Split` branch routes
/// each half to its arm — and one `"fused"` event per part.
fn run_parts<'s, 'p: 's>(
    scl: &mut Scl,
    parts: Vec<PartVal>,
    schedule: (usize, usize),
    route: impl Fn(usize) -> (usize, usize, &'s SegmentOp<'p>) + Sync,
) -> PartResult<Vec<PartVal>> {
    let total = |g: usize, mut v: PartVal| {
        let (i, _, seg) = route(g);
        let (mut w, mut secs) = (Work::NONE, 0.0);
        for st in &seg.stages {
            let (nv, nw, ns) = st.apply(i, v)?;
            (v, w, secs) = (nv, w + nw, secs + ns);
        }
        Ok((v, w, secs))
    };
    dispatch(parts, schedule, total, |g, (v, w, secs)| {
        scl.charge(route(g).1, w, secs, "fused");
        v
    })
}

// ---- the chain walker -------------------------------------------------------

/// A configuration error at a barrier or branch boundary, as the typed
/// failure the chain walker reports.
fn barrier_failed(stage: &str) -> impl FnOnce(SclError) -> RequestError + '_ {
    move |error| RequestError::BarrierFailed {
        stage: stage.to_string(),
        error,
    }
}

/// Run an op chain on the calling thread — the one chain walker, behind
/// [`Scl::run_fused`](crate::ctx::Scl::run_fused) and every branch arm.
/// Segments go through [`SegmentOp::run`] under the given charging
/// convention; every barrier and branch output is validated against the
/// machine.
fn apply_ops(
    ops: &mut [PlanOp<'_>],
    scl: &mut Scl,
    mut val: ErasedArr,
    summed: bool,
) -> std::result::Result<ErasedArr, RequestError> {
    for op in ops {
        val = match op {
            PlanOp::Segment(seg) => seg.run(scl, val, summed)?,
            PlanOp::Barrier(b) => b.apply(scl, val).map_err(barrier_failed(b.label))?,
            PlanOp::Branch(b) => b.try_apply(scl, val, summed)?,
        };
    }
    Ok(val)
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

    /// The two arm chains, left then right.
    pub fn arms(&self) -> (&[PlanOp<'a>], &[PlanOp<'a>]) {
        (&self.left, &self.right)
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
    /// (`summed = true`, fused-equivalent) — the same flag
    /// [`SegmentOp::run`] takes. A `Choose` branch runs exactly one arm; a
    /// `Split` branch runs both, left arm first. When both arms are a
    /// single pure segment (the shape [`BranchOp::into_pipelined`]
    /// accepts, the common `pair`/`fanout` one, and the lowest `pair`s of
    /// a [`Skel::dac`](crate::plan::Skel::dac) tree over a compute base), the two
    /// halves go out as **one** dispatch over `left parts ++ right parts`,
    /// each part routed through its own arm's stages, so under a
    /// multi-thread policy the arms overlap on distinct pool workers:
    ///
    /// * summed charging always dispatches them together, inline or not;
    /// * per-stage charging dispatches them together when the schedule of
    ///   both arms' parts — [`SegmentOp::run`]'s, on the sum of the arms'
    ///   last measured work — has more than one thread (a one-part arm
    ///   alone would run inline), and replays the recorded charges arm by
    ///   arm; on one thread the arms run one after the other.
    ///
    /// Machine charges are identical either way: each arm is charged as
    /// running it alone would charge it, left arm first. A failing left
    /// arm leaves no charge of the right arm behind.
    ///
    /// Arm failures come back as typed [`RequestError`]s: a panicking arm
    /// stage is a [`RequestError::StagePanic`] with the part index *local
    /// to the arm*, a failing arm barrier — or a join that no longer fits
    /// the machine — a [`RequestError::BarrierFailed`].
    pub fn try_apply(
        &mut self,
        scl: &mut Scl,
        val: ErasedArr,
        summed: bool,
    ) -> std::result::Result<ErasedArr, RequestError> {
        let out = match &mut self.kind {
            BranchKind::Choose(decide) => {
                let (val, take_left) = decide(val);
                let arm = if take_left {
                    &mut self.left
                } else {
                    &mut self.right
                };
                apply_ops(arm, scl, val, summed)?
            }
            BranchKind::Split { split, join } => {
                let (l, r) = split(val);
                let (lo, ro) = match (&mut self.left[..], &mut self.right[..]) {
                    ([PlanOp::Segment(ls)], [PlanOp::Segment(rs)]) => {
                        run_split(scl, ls, rs, l, r, summed)?
                    }
                    (left, right) => (
                        apply_ops(left, scl, l, summed)?,
                        apply_ops(right, scl, r, summed)?,
                    ),
                };
                join(lo, ro)
            }
        };
        scl.try_check_fits(out.arr.len())
            .map_err(barrier_failed(self.label))?;
        Ok(out)
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

/// Both single-segment arms of a `Split` branch as one dispatch over `left
/// parts ++ right parts`, each part routed through its own arm's stages —
/// see [`BranchOp::try_apply`]. Summed charging goes through [`run_parts`],
/// per-stage charging through [`run_staged`], both on the sum of the
/// arms' measured work, which the dispatch then shares out between them.
fn run_split(
    scl: &mut Scl,
    left: &SegmentOp<'_>,
    right: &SegmentOp<'_>,
    l: ErasedArr,
    r: ErasedArr,
    summed: bool,
) -> std::result::Result<(ErasedArr, ErasedArr), RequestError> {
    let (ln, n) = (l.arr.len(), l.arr.len() + r.arr.len());
    let memos = [&left.last_ns, &right.last_ns];
    if !summed && scl.schedule(n, &memos).0 <= 1 {
        // one thread: the arms run one after the other
        return Ok((left.run(scl, l, false)?, right.run(scl, r, false)?));
    }
    let (mut parts, lprocs, lshape) = l.arr.into_raw();
    let (rparts, rprocs, rshape) = r.arr.into_raw();
    parts.extend(rparts);
    let mut lout = scl.measured(n, &memos, |scl, schedule| {
        if summed {
            run_parts(scl, parts, schedule, |g| {
                if g < ln {
                    (g, lprocs[g], left)
                } else {
                    (g - ln, rprocs[g - ln], right)
                }
            })
        } else {
            run_staged(scl, &[(left, &lprocs), (right, &rprocs)], parts, schedule)
        }
    })?;
    let rout = lout.split_off(ln);
    Ok((
        ErasedArr {
            arr: ParArray::from_raw(lout, lprocs, lshape),
            ..l
        },
        ErasedArr {
            arr: ParArray::from_raw(rout, rprocs, rshape),
            ..r
        },
    ))
}

/// Best-effort rendering of a panic payload for the labelled re-raise.
/// Non-string payloads (`panic_any` tokens) are flattened to a
/// placeholder: the chain walker trades payload identity for the stage
/// label. Public so downstream executors (the streaming runtime's poison
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
    /// Execute an op chain: the chain walker under the given charging
    /// convention (summed for [`Scl::run_fused`], per stage for
    /// [`Skel::run`](crate::plan::Skel::run)), between the plan's entry and
    /// exit conversions. A configuration that does not fit the machine
    /// surfaces as its [`SclError`]; a panicking compute stage is re-raised
    /// here, labelled with the stage name and part.
    ///
    /// [`Scl::run_fused`]: crate::ctx::Scl::run_fused
    pub(crate) fn exec_ops<A, B>(
        &mut self,
        plan: &mut FusedPlan<'_, A, B>,
        input: A,
        summed: bool,
    ) -> Result<B> {
        let val = (plan.entry)(input);
        self.try_check_fits(val.arr.len())?;
        match apply_ops(&mut plan.nodes, self, val, summed) {
            Ok(out) => Ok((plan.exit)(out)),
            Err(RequestError::BarrierFailed { error, .. }) => Err(error),
            Err(stage_panic) => panic!("{stage_panic}"),
        }
    }

    /// Charge `proc` one compute event: reported work plus measured host
    /// time per the measure mode.
    fn charge(&mut self, proc: usize, work: Work, host_seconds: f64, label: &'static str) {
        let charged = work + self.measured_work(host_seconds);
        self.machine.compute(proc, charged, label);
    }

    /// `(threads, grain)` for one dispatch over `parts` parts of the
    /// segments whose measured work `memos` hold: the policy's thread
    /// count, one part per claim, except that [`ExecPolicy::CostDriven`]
    /// runs inline what measured less than [`FAN_OUT_NS`] in all and gives
    /// each thread several claims of the rest.
    pub(crate) fn schedule(&self, parts: usize, memos: &[&AtomicU64]) -> (usize, usize) {
        let last_ns: u64 = memos.iter().map(|m| m.load(Relaxed)).sum();
        let threads = self.policy.effective_threads(parts);
        match self.policy {
            ExecPolicy::CostDriven { .. } if last_ns < FAN_OUT_NS => (1, 1),
            ExecPolicy::CostDriven { .. } => (threads, (parts / (threads * 4)).max(1)),
            _ => (threads, 1),
        }
    }

    /// One dispatch over `parts` parts of the segments whose measured work
    /// `memos` hold: `go` runs on [`Scl::schedule`] of their sum, and under
    /// [`ExecPolicy::CostDriven`] the work it measured on the caller —
    /// wall time × threads — is shared out evenly among them (only their
    /// sum is read). A failed dispatch records nothing.
    fn measured<T>(
        &mut self,
        parts: usize,
        memos: &[&AtomicU64],
        go: impl FnOnce(&mut Scl, (usize, usize)) -> PartResult<T>,
    ) -> std::result::Result<T, RequestError> {
        let schedule = self.schedule(parts, memos);
        let t0 = matches!(self.policy, ExecPolicy::CostDriven { .. }).then(Instant::now);
        let out = go(self, schedule).map_err(|e| *e)?;
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64 * schedule.0 as u64 / memos.len() as u64;
            memos.iter().for_each(|m| m.store(ns, Relaxed));
        }
        Ok(out)
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
    fn schedule_follows_policy_and_measured_work() {
        let ns = |v: u64| AtomicU64::new(v);
        let (heavy, light) = (ns(FAN_OUT_NS), ns(FAN_OUT_NS - 1));
        // what a segment never run before holds
        let fresh = Skel::map(|x: &i64| *x).into_stream_ops();
        let unset = &segment(&fresh).last_ns;
        let s = unit_ctx(4);
        assert_eq!(s.schedule(8, &[unset]), (1, 1));
        let s = s.with_policy(ExecPolicy::Threads(4));
        assert_eq!(s.schedule(8, &[&light]), (4, 1));
        assert_eq!(s.schedule(2, &[unset]), (2, 1));
        // cost-driven: fan out what is unmeasured or measured heavy, at
        // several claims per thread; run the rest inline
        let s = s.with_policy(ExecPolicy::CostDriven { threads: 4 });
        assert_eq!(s.schedule(32, &[unset]), (4, 2));
        assert_eq!(s.schedule(8, &[&heavy]), (4, 1));
        assert_eq!(s.schedule(8, &[&light]), (1, 1));
        assert_eq!(s.schedule(8, &[&light, &ns(1)]), (4, 1), "arms add up");
        assert_eq!(s.schedule(8, &[&light, unset]), (4, 1));
        assert_eq!(s.schedule(1, &[unset]), (1, 1));
    }

    /// Notes the threads a plan's parts run on. While `meet` is set it
    /// holds every part until two threads have arrived, so a run that
    /// does not fan out fails; otherwise it holds each part for a few
    /// milliseconds, so a run that does fan out gets a helper to note.
    #[derive(Default)]
    struct Probe {
        seen: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
        two: std::sync::Condvar,
        meet: std::sync::atomic::AtomicBool,
    }

    impl Probe {
        fn visit(&self) {
            let mut seen = self.seen.lock().unwrap();
            seen.insert(std::thread::current().id());
            self.two.notify_all();
            let meet = self.meet.load(Relaxed);
            let wait = std::time::Duration::from_millis(if meet { 20_000 } else { 5 });
            let (_seen, timeout) = self
                .two
                .wait_timeout_while(seen, wait, |s| s.len() < 2)
                .unwrap();
            assert!(!(meet && timeout.timed_out()), "no second thread joined");
        }

        /// Every part so far ran on the calling thread.
        fn stayed_on_caller(&self) -> bool {
            let seen = std::mem::take(&mut *self.seen.lock().unwrap());
            seen == std::collections::HashSet::from([std::thread::current().id()])
        }

        fn stage(&self) -> Skel<'_, ParArray<i64>, ParArray<i64>> {
            Skel::imap(move |i, x: &i64| {
                self.visit();
                x + i as i64
            })
        }
    }

    use crate::plan::Skel;

    fn parts(n: i64) -> ParArray<i64> {
        ParArray::from_parts((0..n).collect())
    }

    fn segment<'p>(ops: &'p [PlanOp<'_>]) -> &'p SegmentOp<'p> {
        match ops {
            [PlanOp::Segment(seg)] => seg,
            _ => panic!("one segment"),
        }
    }

    #[test]
    fn cost_driven_segments_follow_their_measured_work() {
        let cost = || unit_ctx(8).with_policy(ExecPolicy::CostDriven { threads: 2 });
        for (stages, summed) in [(1, false), (2, false), (1, true), (2, true)] {
            let probe = Probe::default();
            let mut plan = probe.stage();
            if stages == 2 {
                plan = plan.then(probe.stage());
            }
            let ops = plan.into_stream_ops();
            let seg = segment(&ops);
            let at = format!("{stages} stage(s), summed {summed}");
            // measured light: inline, and the run's own work is recorded
            seg.last_ns.store(FAN_OUT_NS - 1, Relaxed);
            seg.run(&mut cost(), parts(8).erase(), summed).unwrap();
            assert!(probe.stayed_on_caller(), "{at}: fanned out");
            assert_ne!(seg.last_ns.load(Relaxed), FAN_OUT_NS - 1, "{at}");
            // measured heavy: fans out, or the probe times out
            seg.last_ns.store(FAN_OUT_NS, Relaxed);
            probe.meet.store(true, Relaxed);
            seg.run(&mut cost(), parts(8).erase(), summed).unwrap();
            probe.meet.store(false, Relaxed);
            // other policies neither read nor write the memo
            seg.last_ns.store(7, Relaxed);
            let mut threads = unit_ctx(8).with_policy(ExecPolicy::Threads(2));
            seg.run(&mut threads, parts(8).erase(), summed).unwrap();
            assert_eq!(seg.last_ns.load(Relaxed), 7, "{at}");
        }
    }

    #[test]
    fn a_failed_dispatch_records_nothing() {
        let s = Skel::imap(|i, x: &i64| {
            assert!(i != 3, "part 3 fails");
            *x
        });
        let ops = s.into_stream_ops();
        let seg = segment(&ops);
        for summed in [true, false] {
            seg.last_ns.store(FAN_OUT_NS + 5, Relaxed);
            let mut scl = unit_ctx(8).with_policy(ExecPolicy::CostDriven { threads: 2 });
            assert!(seg.run(&mut scl, parts(8).erase(), summed).is_err());
            assert_eq!(seg.last_ns.load(Relaxed), FAN_OUT_NS + 5, "summed {summed}");
        }
    }

    #[test]
    fn a_pair_of_segments_follows_the_sum_of_their_work() {
        let cost = || unit_ctx(8).with_policy(ExecPolicy::CostDriven { threads: 2 });
        for summed in [true, false] {
            let probe = Probe::default();
            let mut ops = probe.stage().pair(probe.stage()).into_stream_ops();
            let [PlanOp::Branch(b)] = &mut ops[..] else {
                panic!("one branch");
            };
            let memos = |b: &BranchOp<'_>, l: u64, r: u64| {
                segment(&b.left).last_ns.store(l, Relaxed);
                segment(&b.right).last_ns.store(r, Relaxed);
            };
            let input = || (parts(4), parts(4)).erase();
            // each arm light, and light together: inline
            memos(b, FAN_OUT_NS / 2 - 1, FAN_OUT_NS / 2);
            b.try_apply(&mut cost(), input(), summed).unwrap();
            assert!(probe.stayed_on_caller(), "summed {summed}: fanned out");
            // each arm light, heavy together: one dispatch on two threads
            memos(b, FAN_OUT_NS / 2, FAN_OUT_NS / 2);
            probe.meet.store(true, Relaxed);
            b.try_apply(&mut cost(), input(), summed).unwrap();
            probe.meet.store(false, Relaxed);
        }
    }
}
