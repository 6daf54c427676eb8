//! First-class skeleton plans: write a skeleton program **once**, then run
//! it eagerly or optimise it first.
//!
//! The paper's central claim is that skeleton programs are *functional
//! expressions* amenable to meaning-preserving transformation. The eager
//! methods on [`Scl`] execute immediately, so by the time a program exists
//! there is nothing left to transform. A [`Skel<A, B>`] closes that gap: it
//! is a *value* describing a skeleton program from input `A` to output `B`,
//! built from typed combinators ([`Skel::map`], [`Skel::fold_all`],
//! [`Skel::rotate`], [`Skel::farm`], [`Skel::iter_until`], [`Skel::dac`], …)
//! and composed with [`Skel::then`] / [`Skel::pipe`].
//!
//! A plan **is** its operator chain — the compute stages, barriers and
//! branches of [`crate::fused`]; a whole-configuration host computation
//! enters it as a labelled [`Skel::barrier`], and [`Skel::identity`] is the
//! empty chain. The back-ends interpret that one form:
//!
//! 1. [`Skel::run`] walks the chain eagerly, at the eager skeletons'
//!    schedule and charged per stage — the same events the skeleton
//!    methods on [`Scl`] emit;
//! 2. [`Scl::run_fused`] walks the same chain partition-resident: runs of
//!    compute skeletons (`map` / `imap` / `zip_with` / `farm` and their
//!    costed forms) execute back-to-back on the worker that owns each
//!    partition with **no** intermediates, while communication skeletons
//!    (`rotate`, `fetch`, `total_exchange`, …) act as the only barriers.
//!    Same results bit-for-bit, one thread-pool dispatch per fused segment;
//! 3. [`Skel::lower`] bridges the *lowerable fragment* (maps over registered
//!    function symbols, rotations, fetches/sends over registered index
//!    functions, scans, and pipelines thereof) into the `scl-transform`
//!    [`Expr`] IR, where [`optimize`] applies the paper's §4 laws — map
//!    fusion, communication algebra, flattening — and [`Skel::from_expr`]
//!    raises the optimised program back into an executable plan.
//!
//! [`Scl::run_optimized`] wires the full path: plan → lower → optimise →
//! raise → **fused** execute, falling back to [`Skel::run`] for plans
//! outside the lowerable fragment.
//!
//! ```
//! use scl_core::prelude::*;
//!
//! let reg = Registry::standard();
//! // map(double) then map(inc) with two cancelling rotations in between
//! let plan = Skel::map_sym("double", &reg)
//!     .then(Skel::rotate(3))
//!     .then(Skel::rotate(-3))
//!     .then(Skel::map_sym("inc", &reg));
//!
//! let input = ParArray::from_parts((0..8).collect::<Vec<i64>>());
//!
//! // eager
//! let mut scl = Scl::ap1000(8);
//! let eager = plan.run(&mut scl, input.clone());
//!
//! // optimise-then-execute: rotations cancel, maps fuse
//! let mut scl = Scl::ap1000(8);
//! let (opt, log) = scl.run_optimized(&plan, &reg, input);
//! assert_eq!(eager, opt);
//! assert!(!log.is_empty());
//! ```

use crate::array::ParArray;
use crate::bytes::Bytes;
use crate::ctx::Scl;
use crate::error::{Result as SclResult, SclError};
use crate::fused::{self, FusePort, FusedPlan, PlanOp};
use crate::partition::Pattern;
use crate::skeletons::SpmdStage;
use scl_machine::Work;
use scl_transform::rewrite::Applied;
use scl_transform::{optimize, shape_of, Expr, FnRef, IdxRef, Registry, Shape};
use std::cell::RefCell;

/// A first-class, typed skeleton program from `A` to `B`.
///
/// Built by the constructors in this module and composed with
/// [`Skel::then`]. A plan is an op chain (see [`crate::fused`]), and two
/// interpreters run it: [`Skel::run`] (charged per stage) and
/// [`Scl::run_fused`] (partition-resident). Optimised through
/// [`Skel::lower`] / [`Skel::from_expr`] when it stays inside the lowerable
/// fragment. The lifetime `'a` bounds everything the plan borrows
/// (closures, a [`Registry`] for symbolic stages); plans over owned
/// closures are `'static`.
pub struct Skel<'a, A, B> {
    /// The op chain; the `RefCell` lets `run` stay `&self` over stateful
    /// (`FnMut`) barriers.
    plan: RefCell<FusedPlan<'a, A, B>>,
    /// `Some` iff every stage of the plan is in the lowerable fragment;
    /// composition preserves it, any closure stage forfeits it.
    repr: Option<Expr>,
}

impl<'a, A, B> Skel<'a, A, B> {
    fn from_ops(plan: FusedPlan<'a, A, B>) -> Skel<'a, A, B> {
        Skel {
            plan: RefCell::new(plan),
            repr: None,
        }
    }

    /// Run the plan eagerly on `scl`, consuming `input`: the op chain's
    /// walker with per-stage charging, scheduled as [`Scl::imap`] is, at
    /// [`ExecPolicy::effective_threads`](scl_exec::ExecPolicy::effective_threads).
    /// A configuration that does not fit the machine panics, as the
    /// skeleton methods on [`Scl`] do, and a panicking compute stage
    /// re-raises labelled, with the text [`Scl::run_fused`] uses.
    pub fn run(&self, scl: &mut Scl, input: A) -> B {
        self.try_run(scl, input).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Skel::run`] with a configuration that does not fit the machine
    /// returned as its error.
    pub(crate) fn try_run(&self, scl: &mut Scl, input: A) -> SclResult<B> {
        scl.exec_ops(&mut self.plan.borrow_mut(), input, false)
    }

    /// The fused stage structure as `(label, is_barrier)` pairs.
    /// Consecutive non-barrier stages execute as one fused segment.
    pub fn fused_stages(&self) -> Vec<(&'static str, bool)> {
        fused::stage_list(&self.plan.borrow().nodes)
    }

    /// Sequential composition: run `self`, feed its output to `next`. The
    /// op chains concatenate, and lowerability is preserved when both
    /// sides have it.
    pub fn then<C>(self, next: Skel<'a, B, C>) -> Skel<'a, A, C> {
        let repr = match (self.repr, next.repr) {
            // `next` applies after `self`: composition order is next ∘ self.
            // Normalised so identity seeds (Skel::pipe) leave no `id` term.
            (Some(a), Some(b)) => Some(scl_transform::normalize(b.after(a))),
            _ => None,
        };
        Skel {
            plan: RefCell::new(fused::compose(
                self.plan.into_inner(),
                next.plan.into_inner(),
            )),
            repr,
        }
    }

    /// The IR of this plan, if every stage was lowerable (no symbol
    /// validation — see [`Skel::lower`]).
    pub fn repr(&self) -> Option<&Expr> {
        self.repr.as_ref()
    }

    /// The plan's structural fingerprint — the key `scl-serve`'s plan
    /// cache compiles under.
    ///
    /// The fingerprint hashes the op chain (stage kinds, labels, order,
    /// charging conventions, structural parameters) and, when the plan is
    /// in the lowerable fragment, its IR representation. It deliberately
    /// does **not** hash closure bodies — see
    /// [`PlanFingerprint`](fused::PlanFingerprint) for the equality
    /// contract and the salting escape hatch.
    pub fn fingerprint(&self) -> fused::PlanFingerprint {
        let repr = self.repr.as_ref().map(|e| e as &dyn std::fmt::Display);
        fused::fingerprint_plan(&self.plan.borrow().nodes, repr)
    }

    /// Hand the plan's operator chain to a streaming runtime, as it is:
    /// maximal fused compute segments ([`PlanOp::Segment`], pure and
    /// replicable) separated by barriers ([`PlanOp::Barrier`], stateful,
    /// order-serial) and branches. This is the compilation input of the
    /// `scl-stream` runtime: each segment becomes a long-lived farm stage,
    /// each barrier a stage boundary. Consumes the plan (the ops own the
    /// stage closures).
    pub fn into_stream_ops(self) -> Vec<PlanOp<'a>> {
        self.plan.into_inner().nodes
    }
}

impl<'a, A, B> Skel<'a, A, B>
where
    A: FusePort + 'a,
    B: FusePort + 'a,
{
    /// A whole-configuration host computation as one **barrier** between
    /// fused segments: use it for global phases (gathers, broadcasts,
    /// anything touching the whole configuration) inside plans whose other
    /// stages should fuse. `label` names the stage in
    /// [`Skel::fused_stages`] and in panic messages, and it is the stage's
    /// cache identity: two barriers with one label fingerprint equal
    /// whatever their closures do (see
    /// [`PlanFingerprint`](fused::PlanFingerprint)).
    pub fn barrier(
        label: &'static str,
        mut f: impl FnMut(&mut Scl, A) -> B + 'a,
    ) -> Skel<'a, A, B> {
        Skel::from_ops(fused::barrier_node(label, move |scl, a| Ok(f(scl, a))))
    }

    // ---- arrow combinators: plans as DAGs -----------------------------------

    /// Product composition (the arrow `***`): run `self` on the first
    /// component and `other` on the second, independently. The plan's
    /// input is the pair of both inputs; its output the pair of both
    /// outputs.
    ///
    /// A single **branch op** whose arms are the two sides' op chains.
    /// When each arm is one pure segment, both walks schedule the arms as
    /// siblings of one pool dispatch: [`Scl::run_fused`] on the fused
    /// schedule, [`Skel::run`] whenever the policy gives both arms' parts
    /// more than one thread (see
    /// [`BranchOp::try_apply`](crate::fused::BranchOp::try_apply)). Arms
    /// holding a barrier or a nested branch run one after the other, left
    /// first. The machine is charged the same either way. Not lowerable (the
    /// IR's branch forms are the symbolic [`Skel::fanout_sym`] /
    /// [`Skel::choice_sym`]).
    ///
    /// ```
    /// use scl_core::prelude::*;
    /// let plan = Skel::map(|x: &i64| x + 1).pair(Skel::map(|x: &i64| x * 2));
    /// let mut scl = Scl::ap1000(4);
    /// let a = ParArray::from_parts(vec![1i64, 2, 3, 4]);
    /// let b = ParArray::from_parts(vec![10i64, 20, 30, 40]);
    /// let (l, r) = scl.run_fused(&plan, (a, b)).unwrap();
    /// assert_eq!(l.to_vec(), vec![2, 3, 4, 5]);
    /// assert_eq!(r.to_vec(), vec![20, 40, 60, 80]);
    /// ```
    pub fn pair<C, D>(self, other: Skel<'a, C, D>) -> Skel<'a, (A, C), (B, D)>
    where
        C: FusePort + 'a,
        D: FusePort + 'a,
        (A, C): FusePort + 'a,
        (B, D): FusePort + 'a,
    {
        Skel::from_ops(fused::pair_node(
            self.plan.into_inner(),
            other.plan.into_inner(),
        ))
    }

    /// Fan-out composition (the arrow `&&&`): feed one input to both
    /// `self` and `other` (the second arm receives a clone) and pair the
    /// results. One branch op, exactly as for [`Skel::pair`].
    ///
    /// ```
    /// use scl_core::prelude::*;
    /// let plan = Skel::map(|x: &i64| x + 1).fanout(Skel::map(|x: &i64| x * 2));
    /// let mut scl = Scl::ap1000(3);
    /// let a = ParArray::from_parts(vec![1i64, 2, 3]);
    /// let (l, r) = scl.run_fused(&plan, a).unwrap();
    /// assert_eq!(l.to_vec(), vec![2, 3, 4]);
    /// assert_eq!(r.to_vec(), vec![2, 4, 6]);
    /// ```
    pub fn fanout<C>(self, other: Skel<'a, A, C>) -> Skel<'a, A, (B, C)>
    where
        A: Clone,
        C: FusePort + 'a,
        (B, C): FusePort + 'a,
    {
        Skel::from_ops(fused::fanout_node(
            self.plan.into_inner(),
            other.plan.into_inner(),
        ))
    }

    /// Predicate-driven branching (Either-style choice): inspect the input
    /// with `pred`, run `left` when it holds, `right` otherwise. Exactly
    /// one arm executes (and is charged). One branch op, as for
    /// [`Skel::pair`].
    pub fn choice(
        pred: impl Fn(&A) -> bool + 'a,
        left: Skel<'a, A, B>,
        right: Skel<'a, A, B>,
    ) -> Skel<'a, A, B> {
        Skel::from_ops(fused::choice_node(
            pred,
            left.plan.into_inner(),
            right.plan.into_inner(),
        ))
    }
}

impl<'a, A: FusePort + 'a> Skel<'a, A, A> {
    /// The identity plan: the empty chain, lowering to [`Expr::Id`].
    /// Composing with it leaves a plan's stages and fingerprint unchanged.
    pub fn identity() -> Skel<'a, A, A> {
        Skel {
            plan: RefCell::new(FusedPlan::empty()),
            repr: Some(Expr::Id),
        }
    }

    /// Compose a pipeline of same-typed stages given in **execution order**
    /// (first element runs first) — the plan-level analogue of
    /// [`Expr::pipeline`].
    pub fn pipe(stages: Vec<Skel<'a, A, A>>) -> Skel<'a, A, A> {
        stages.into_iter().fold(Skel::identity(), Skel::then)
    }
}

// ---- elementary skeletons ---------------------------------------------------

/// Stamp a stage's structural parameters into its fused op, so the
/// plan fingerprint distinguishes e.g. `rotate(1)` from `rotate(2)` even
/// when a closure stage elsewhere in the plan drops the composed IR.
/// `rendered` is any stable textual rendering of the parameters.
fn tag_param<A, B>(plan: &Skel<'_, A, B>, rendered: &str) {
    plan.plan
        .borrow_mut()
        .tag_param(fused::param_hash(rendered));
}

impl<'a, T, R> Skel<'a, ParArray<T>, ParArray<R>>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
{
    /// The paper's `map f`: apply `f` to every part ([`Scl::map`]).
    /// Part-local, so runs of these fuse under [`Scl::run_fused`].
    pub fn map(f: impl Fn(&T) -> R + Send + Sync + 'a) -> Self {
        Skel::from_ops(fused::compute_node("map", true, move |_, x| {
            (f(x), Work::NONE)
        }))
    }

    /// Index-aware map ([`Scl::imap`]).
    pub fn imap(f: impl Fn(usize, &T) -> R + Send + Sync + 'a) -> Self {
        Skel::from_ops(fused::compute_node("imap", true, move |i, x| {
            (f(i, x), Work::NONE)
        }))
    }

    /// Map with self-reported cost ([`Scl::map_costed`]).
    pub fn map_costed(f: impl Fn(&T) -> (R, Work) + Send + Sync + 'a) -> Self {
        Skel::from_ops(fused::compute_node("map_costed", false, move |_, x| f(x)))
    }

    /// Index-aware costed map ([`Scl::imap_costed`]).
    pub fn imap_costed(f: impl Fn(usize, &T) -> (R, Work) + Send + Sync + 'a) -> Self {
        Skel::from_ops(fused::compute_node("imap_costed", false, f))
    }

    /// The paper's `farm f env`: map with a shared environment
    /// ([`Scl::farm`]).
    pub fn farm<E: Send + Sync + 'a>(f: impl Fn(&E, &T) -> R + Send + Sync + 'a, env: E) -> Self {
        Skel::from_ops(fused::compute_node("farm", true, move |_, x| {
            (f(&env, x), Work::NONE)
        }))
    }
}

impl<'a, A2, B2, R> Skel<'a, (ParArray<A2>, ParArray<B2>), ParArray<R>>
where
    A2: Send + Sync + 'static,
    B2: Send + Sync + 'static,
    R: Send + 'static,
{
    /// Element-wise combination of two conforming arrays
    /// ([`Scl::zip_with`]). The plan's input is the pair of arrays.
    /// Part-local, so it fuses with neighbouring compute stages.
    pub fn zip_with(f: impl Fn(&A2, &B2) -> R + Send + Sync + 'a) -> Self {
        Skel::from_ops(fused::compute_pair_node("zip_with", move |x, y| {
            (f(x, y), Work::NONE)
        }))
    }
}

impl<'a, T> Skel<'a, ParArray<T>, ParArray<T>>
where
    T: Clone + Bytes + Send + 'static,
{
    /// Inclusive parallel prefix ([`Scl::scan`]); `op` must be associative.
    /// Cross-partition data flow, so a fusion **barrier**.
    pub fn scan(op: impl Fn(&T, &T) -> T + 'a) -> Self {
        Skel::barrier("scan", move |scl: &mut Scl, a: ParArray<T>| {
            scl.scan(&a, &op)
        })
    }

    // ---- communication skeletons -------------------------------------------

    /// Regular rotation by `k` ([`Scl::rotate`]). Lowerable: becomes
    /// [`Expr::Rotate`], so cancelling rotations vanish under
    /// [`optimize`]. A fusion barrier.
    pub fn rotate(k: isize) -> Self {
        let mut plan = Skel::barrier("rotate", move |scl: &mut Scl, a: ParArray<T>| {
            scl.rotate_owned(k, a)
        });
        plan.repr = Some(Expr::Rotate(k as i64));
        tag_param(&plan, &format!("rotate({k})"));
        plan
    }

    /// Boundary-filled shift ([`Scl::shift`]). A fusion barrier.
    pub fn shift(k: isize, fill: T) -> Self {
        let plan = Skel::barrier("shift", move |scl: &mut Scl, a: ParArray<T>| {
            scl.shift_owned(k, a, &fill)
        });
        tag_param(&plan, &format!("shift({k})"));
        plan
    }

    /// Irregular fetch through an opaque index function ([`Scl::fetch`]).
    /// A fusion barrier.
    pub fn fetch(f: impl Fn(usize) -> usize + 'a) -> Self {
        Skel::barrier("fetch", move |scl: &mut Scl, a: ParArray<T>| {
            scl.fetch_owned(&f, a)
        })
    }

    /// All-reduce: the fold result lands on every part
    /// ([`Scl::fold_all`]). A fusion barrier.
    pub fn fold_all(op: impl Fn(&T, &T) -> T + 'a, combine: Work) -> Self {
        Skel::barrier("fold_all", move |scl: &mut Scl, a: ParArray<T>| {
            scl.fold_all(&a, &op, combine)
        })
    }

    /// Counted iteration ([`Scl::iter_for`]): apply `body` `terminator`
    /// times, passing the iteration number. A fusion barrier (the body is
    /// an opaque whole-configuration computation).
    pub fn iter_for(
        terminator: usize,
        mut body: impl FnMut(&mut Scl, usize, ParArray<T>) -> ParArray<T> + 'a,
    ) -> Self {
        let plan = Skel::barrier("iter_for", move |scl: &mut Scl, a: ParArray<T>| {
            scl.iter_for(terminator, &mut body, a)
        });
        tag_param(&plan, &format!("iter_for({terminator})"));
        plan
    }
}

impl<'a, I, U> Skel<'a, ParArray<U>, ParArray<(I, U)>>
where
    I: Clone + Bytes + Send + 'static,
    U: Clone + Send + 'static,
{
    /// Broadcast one value (captured at plan-construction time) to all
    /// parts, pairing it with the local data ([`Scl::brdcast`]). A fusion
    /// barrier.
    pub fn brdcast(item: I) -> Skel<'a, ParArray<U>, ParArray<(I, U)>> {
        Skel::barrier("brdcast", move |scl: &mut Scl, a: ParArray<U>| {
            scl.brdcast_owned(&item, a)
        })
    }
}

impl<'a, T> Skel<'a, ParArray<Vec<Vec<T>>>, ParArray<Vec<Vec<T>>>>
where
    T: Clone + Bytes + Send + 'static,
{
    /// Bucket transpose ([`Scl::total_exchange`]): part `i` ends up holding
    /// bucket `i` from every source. The canonical fusion barrier.
    pub fn total_exchange() -> Self {
        Skel::barrier(
            "total_exchange",
            |scl: &mut Scl, a: ParArray<Vec<Vec<T>>>| scl.total_exchange_owned(a),
        )
    }
}

// ---- configuration skeletons ------------------------------------------------

impl<'a, T> Skel<'a, Vec<T>, ParArray<Vec<T>>>
where
    T: Clone + Bytes + Send + 'static,
{
    /// Scatter a sequential array across the machine ([`Scl::partition`]).
    /// A fusion barrier; under [`Scl::run_fused`] an oversized pattern
    /// surfaces as [`SclError::MachineTooSmall`](crate::error::SclError)
    /// instead of panicking.
    pub fn partition(pattern: Pattern) -> Self {
        let plan = Skel::from_ops(fused::barrier_node(
            "partition",
            move |scl: &mut Scl, data: Vec<T>| scl.try_partition_owned(pattern, data),
        ));
        tag_param(&plan, &format!("partition({pattern:?})"));
        plan
    }
}

impl<'a, T> Skel<'a, ParArray<Vec<T>>, Vec<T>>
where
    T: Clone + Bytes + Send + 'static,
{
    /// Collect a distributed array back to processor 0 ([`Scl::gather`]).
    /// A fusion barrier.
    pub fn gather() -> Self {
        Skel::barrier("gather", |scl: &mut Scl, a: ParArray<Vec<T>>| {
            scl.gather_owned(a)
        })
    }
}

impl<'a, T> Skel<'a, ParArray<Vec<T>>, ParArray<Vec<T>>>
where
    T: Clone + Bytes + Send + 'static,
{
    /// Rebalance part sizes to ±1, preserving global order
    /// ([`Scl::balance`]). A fusion barrier.
    pub fn balance() -> Self {
        Skel::barrier("balance", |scl: &mut Scl, a: ParArray<Vec<T>>| {
            scl.balance_owned(a)
        })
    }
}

// ---- computational skeletons ------------------------------------------------

impl<'a, T> Skel<'a, ParArray<T>, ParArray<T>>
where
    T: Sync + Send + Clone + 'static,
{
    /// SPMD stages ([`Scl::spmd`]). Takes a *factory* producing the stage
    /// list so the plan can be run more than once (stages are consumed per
    /// run). A fusion barrier.
    pub fn spmd(factory: impl Fn() -> Vec<SpmdStage<'a, T>> + 'a) -> Self {
        Skel::barrier("spmd", move |scl: &mut Scl, a: ParArray<T>| {
            scl.spmd(factory(), a)
        })
    }
}

impl<'a, X: FusePort + 'a> Skel<'a, X, X> {
    /// Condition-driven iteration ([`Scl::iter_until`]): apply `iter_solve`
    /// until `con` holds, then `final_solve`. The state type `X` is
    /// anything the loop threads through that has a fused boundary form
    /// (arrays, tuples of arrays and scalars, …). The whole loop
    /// participates in fused execution as a single **barrier** stage (the
    /// loop body is free to run its own skeletons), so surrounding compute
    /// stages still fuse and [`Scl::run_fused`] validates the configuration
    /// instead of panicking.
    pub fn iter_until(
        iter_solve: impl FnMut(&mut Scl, X) -> X + 'a,
        final_solve: impl FnMut(&mut Scl, X) -> X + 'a,
        con: impl Fn(&X) -> bool + 'a,
    ) -> Skel<'a, X, X> {
        let mut solvers = (iter_solve, final_solve);
        Skel::barrier("iter_until", move |scl: &mut Scl, x: X| {
            scl.iter_until(&mut solvers.0, &mut solvers.1, &con, x)
        })
    }

    /// First-class divide-and-conquer over [`Skel::pair`]: unfold `levels`
    /// levels of
    /// `divide(l) · (recurse ∥ recurse) · combine(l)`, bottoming out in
    /// `base()` at level 0. The recursion tree is a static plan DAG — the
    /// two recursive halves at every level are a [`Skel::pair`]. Where
    /// both halves are a pure base (the level just above the leaves, when
    /// `base` is compute only), they run as siblings of one pool dispatch
    /// under [`Scl::run_fused`] and [`Skel::run`] alike; higher levels
    /// hold barriers in their halves, so those run one after the other,
    /// and any parallelism there is the barriers' own.
    ///
    /// The factories are invoked once per node of the unfolded tree
    /// (`divide`/`combine` get the level, `1..=levels`); compare
    /// [`Scl::dc`], the eager recursion whose structure is rediscovered
    /// on every run.
    pub fn dac(
        levels: usize,
        divide: impl Fn(usize) -> Skel<'a, X, (X, X)>,
        base: impl Fn() -> Skel<'a, X, X>,
        combine: impl Fn(usize) -> Skel<'a, (X, X), X>,
    ) -> Skel<'a, X, X>
    where
        (X, X): FusePort + 'a,
    {
        // monomorphisation-safe recursion: the helper takes the factories
        // as `&dyn Fn`, so every level shares one instantiation
        fn build<'a, X>(
            level: usize,
            divide: &dyn Fn(usize) -> Skel<'a, X, (X, X)>,
            base: &dyn Fn() -> Skel<'a, X, X>,
            combine: &dyn Fn(usize) -> Skel<'a, (X, X), X>,
        ) -> Skel<'a, X, X>
        where
            X: FusePort + 'a,
            (X, X): FusePort + 'a,
        {
            if level == 0 {
                return base();
            }
            let l = build(level - 1, divide, base, combine);
            let r = build(level - 1, divide, base, combine);
            divide(level).then(l.pair(r)).then(combine(level))
        }
        build(levels, &divide, &base, &combine)
    }
}

/// A boxed task-pipeline stage, as consumed by [`Skel::task_pipeline`].
pub type BoxedStage<'a, T> = Box<dyn Fn(&T) -> (T, Work) + Sync + 'a>;

impl<'a, T> Skel<'a, Vec<T>, Vec<T>>
where
    T: Clone + Bytes + Send + 'static,
{
    /// Task-parallel pipeline over a stream of items ([`Scl::pipeline`]):
    /// stage `s` lives on processor `s`, items stream through. A fusion
    /// barrier (the stream is host-side, not partitioned).
    pub fn task_pipeline(stages: Vec<BoxedStage<'a, T>>) -> Self {
        let n_stages = stages.len();
        let plan = Skel::barrier("task_pipeline", move |scl: &mut Scl, items: Vec<T>| {
            let refs: Vec<crate::skeletons::PipeStageFn<'_, T>> =
                stages.iter().map(|b| &**b as _).collect();
            scl.pipeline(&refs, items)
        });
        tag_param(&plan, &format!("task_pipeline({n_stages})"));
        plan
    }
}

// ---- the lowerable i64 fragment ---------------------------------------------

/// Check that every symbol an expression references resolves in `reg`.
fn symbols_resolve(e: &Expr, reg: &Registry) -> bool {
    let idx_ok = |h: &IdxRef| reg.apply_idx(h, 0, 1).is_ok();
    match e {
        Expr::Id | Expr::Rotate(_) | Expr::Split(_) | Expr::Combine | Expr::SegRotate { .. } => {
            true
        }
        Expr::Compose(es) => es.iter().all(|sub| symbols_resolve(sub, reg)),
        Expr::Map(f) => reg.fn_work(f).is_ok(),
        Expr::Fold(op) | Expr::Scan(op) => reg.op_work(op).is_ok(),
        Expr::FoldrMap(op, g) => reg.op_work(op).is_ok() && reg.fn_work(g).is_ok(),
        Expr::Fetch(h) | Expr::Send(h) => idx_ok(h),
        Expr::SegFetch { f, .. } | Expr::SegSend { f, .. } => idx_ok(f),
        Expr::MapGroups(b) => symbols_resolve(b, reg),
        Expr::Choice { pred, left, right } => {
            reg.fn_work(pred).is_ok() && symbols_resolve(left, reg) && symbols_resolve(right, reg)
        }
        Expr::Fanout {
            left,
            right,
            combine,
        } => {
            reg.op_work(combine).is_ok()
                && symbols_resolve(left, reg)
                && symbols_resolve(right, reg)
        }
    }
}

/// Runtime value threaded through a nested region: flat, or nested (inside
/// `split … combine`).
enum RtVal {
    Flat(ParArray<i64>),
    Nested(ParArray<ParArray<i64>>),
}

/// One step of an IR fragment with no stage form of its own, compiled once
/// when its barrier is built (`Skel::expr_barrier`). Flat sub-programs
/// are **raised** — a `mapGroups` body, a leaf inside a nested composition
/// — and run through [`Skel::run`], so every IR leaf has one runtime
/// meaning: the stage `from_expr` builds for it.
enum RegionStep<'a> {
    Split(usize),
    /// A raised flat stage applied to the whole (flat) array.
    Flat(Skel<'a, ParArray<i64>, ParArray<i64>>),
    /// A raised flat body applied to each group of a nested array.
    MapGroups(Skel<'a, ParArray<i64>, ParArray<i64>>),
    Combine,
}

impl<'a> Skel<'a, ParArray<i64>, ParArray<i64>> {
    /// A lowerable map over a scalar function **registered by name**: runs
    /// eagerly through the registry's meaning (charged its registered
    /// [`Work`]) and lowers to [`Expr::Map`].
    ///
    /// Running a plan whose symbol is missing from the registry it was
    /// built against evaluates that stage to `0` per element; [`lower`]
    /// (and therefore [`Scl::run_optimized`]) validates symbols up front.
    ///
    /// [`lower`]: Skel::lower
    pub fn map_sym(name: &str, reg: &'a Registry) -> Self {
        Self::map_ref(FnRef::named(name), reg)
    }

    /// As [`Skel::map_sym`] for an arbitrary (possibly composed) [`FnRef`].
    /// Part-local, so it fuses with neighbouring compute stages.
    pub fn map_ref(f: FnRef, reg: &'a Registry) -> Self {
        let repr = Expr::Map(f.clone());
        // the registry is borrowed immutably for 'a, so the per-application
        // work is a constant of the stage — resolve it once, not per element
        let w = reg.fn_work(&f).unwrap_or(Work::NONE);
        let mut plan = Skel::from_ops(fused::compute_node("map_sym", false, move |_, x: &i64| {
            (reg.apply_fn(&f, *x).unwrap_or(0), w)
        }));
        tag_param(&plan, &repr.to_string());
        plan.repr = Some(repr);
        plan
    }

    /// A lowerable scan over a binary operator registered by name. A
    /// fusion barrier.
    pub fn scan_sym(op: &str, reg: &'a Registry) -> Self {
        let name = op.to_string();
        let repr = Expr::Scan(name.clone());
        let mut plan = Skel::barrier("scan_sym", move |scl: &mut Scl, a: ParArray<i64>| {
            scl.scan(&a, |x, y| reg.apply_op(&name, *x, *y).unwrap_or(0))
        });
        tag_param(&plan, &repr.to_string());
        plan.repr = Some(repr);
        plan
    }

    /// A lowerable fetch through an index function registered by name.
    pub fn fetch_sym(name: &str, reg: &'a Registry) -> Self {
        Self::fetch_ref(IdxRef::named(name), reg)
    }

    /// As [`Skel::fetch_sym`] for an arbitrary [`IdxRef`]. A fusion
    /// barrier.
    pub fn fetch_ref(h: IdxRef, reg: &'a Registry) -> Self {
        let repr = Expr::Fetch(h.clone());
        let mut plan = Skel::barrier("fetch_sym", move |scl: &mut Scl, a: ParArray<i64>| {
            let n = a.len();
            scl.fetch_owned(|i| reg.apply_idx(&h, i, n).unwrap_or(i), a)
        });
        tag_param(&plan, &repr.to_string());
        plan.repr = Some(repr);
        plan
    }

    /// A lowerable send through an index function registered by name;
    /// colliding values combine with wrapping `+` (the IR's canonical
    /// monoid).
    pub fn send_sym(name: &str, reg: &'a Registry) -> Self {
        Self::send_ref(IdxRef::named(name), reg)
    }

    /// As [`Skel::send_sym`] for an arbitrary [`IdxRef`]. A fusion
    /// barrier.
    pub fn send_ref(h: IdxRef, reg: &'a Registry) -> Self {
        let repr = Expr::Send(h.clone());
        let mut plan = Skel::barrier("send_sym", move |scl: &mut Scl, a: ParArray<i64>| {
            let n = a.len();
            let inboxes = scl.send_owned(|k| vec![reg.apply_idx(&h, k, n).unwrap_or(k)], a);
            scl.map_costed(&inboxes, |v| {
                (
                    v.iter().fold(0i64, |acc, x| acc.wrapping_add(*x)),
                    Work::flops(v.len() as u64),
                )
            })
        });
        tag_param(&plan, &repr.to_string());
        plan.repr = Some(repr);
        plan
    }

    /// Element-wise combination of two conforming `i64` arrays through an
    /// operator registered by name — the join stage of
    /// [`Skel::fanout_sym`]. Part-local and uncharged, like
    /// [`Skel::zip_with`].
    pub fn zip_sym(
        op: &str,
        reg: &'a Registry,
    ) -> Skel<'a, (ParArray<i64>, ParArray<i64>), ParArray<i64>> {
        let name = op.to_string();
        let plan = Skel::from_ops(fused::compute_pair_node(
            "zip_sym",
            move |x: &i64, y: &i64| (reg.apply_op(&name, *x, *y).unwrap_or(0), Work::NONE),
        ));
        tag_param(&plan, &format!("zip({op})"));
        plan
    }

    /// Lowerable predicate-driven branching: [`Skel::choice`] whose
    /// predicate is a scalar function registered by name, probed on the
    /// array's **first element** (an empty array probes `0`); nonzero
    /// selects `left`. Lowers to [`Expr::Choice`] when both arms lower.
    pub fn choice_sym(pred: &str, left: Self, right: Self, reg: &'a Registry) -> Self {
        Self::choice_ref(FnRef::named(pred), left, right, reg)
    }

    /// As [`Skel::choice_sym`] for an arbitrary (possibly composed)
    /// [`FnRef`] predicate.
    pub fn choice_ref(pref: FnRef, left: Self, right: Self, reg: &'a Registry) -> Self {
        let repr = match (left.repr.clone(), right.repr.clone()) {
            (Some(l), Some(r)) => Some(Expr::Choice {
                pred: pref.clone(),
                left: Box::new(l),
                right: Box::new(r),
            }),
            _ => None,
        };
        let p = pref.clone();
        let mut plan = Skel::choice(
            move |a: &ParArray<i64>| {
                let probe = a.parts().first().copied().unwrap_or(0);
                reg.apply_fn(&p, probe).unwrap_or(0) != 0
            },
            left,
            right,
        );
        tag_param(&plan, &format!("choice({pref})"));
        plan.repr = repr;
        plan
    }

    /// Lowerable fan-out: run both arms on (copies of) the input, then
    /// zip the results element-wise with an operator registered by name —
    /// `left.fanout(right).then(zip_sym(combine))` with an
    /// [`Expr::Fanout`] representation when both arms lower.
    pub fn fanout_sym(left: Self, right: Self, combine: &str, reg: &'a Registry) -> Self {
        let repr = match (left.repr.clone(), right.repr.clone()) {
            (Some(l), Some(r)) => Some(Expr::Fanout {
                left: Box::new(l),
                right: Box::new(r),
                combine: combine.to_string(),
            }),
            _ => None,
        };
        let mut plan = left.fanout(right).then(Skel::zip_sym(combine, reg));
        plan.repr = repr;
        plan
    }

    /// Lower the plan into the `scl-transform` IR, if every stage is in
    /// the lowerable fragment **and** every referenced symbol resolves in
    /// `reg` **and** the program is array→array. Returns `None` otherwise.
    pub fn lower(&self, reg: &Registry) -> Option<Expr> {
        let e = self.repr.clone()?;
        if shape_of(&e, Shape::Arr) != Ok(Shape::Arr) {
            return None;
        }
        symbols_resolve(&e, reg).then_some(e)
    }

    /// Raise an array→array IR program back into an executable plan whose
    /// stages delegate to the runtime skeleton layer (one scalar per
    /// virtual processor). The inverse of [`Skel::lower`], used after
    /// [`optimize`].
    ///
    /// The raised plan is built stage by stage: maps become compute
    /// stages (which fuse), branches become branch ops with recursively
    /// raised arms, and everything else becomes a barrier.
    pub fn from_expr(e: &Expr, reg: &'a Registry) -> Result<Self, String> {
        match shape_of(e, Shape::Arr) {
            Ok(Shape::Arr) => {}
            Ok(other) => return Err(format!("plan must be array→array, got {other:?}")),
            Err(err) => return Err(err),
        }
        if !symbols_resolve(e, reg) {
            return Err(format!("{e}: references unregistered symbols"));
        }

        // Top-level stages in execution order (Compose applies right to
        // left).
        let elements: Vec<Expr> = match e {
            Expr::Compose(es) => es.iter().rev().cloned().collect(),
            other => vec![other.clone()],
        };

        // Group the stages so that every emitted piece is array→array:
        // shape-preserving leaves become their own (possibly fused)
        // stage; a `split … combine` region accumulates until the shape is
        // flat again and runs as one barrier. Only the op chains compose
        // here: the plan's `repr` is `e` itself, set once.
        let mut chain = FusedPlan::empty();
        let mut region: Vec<Expr> = Vec::new(); // execution order
        let mut shape = Shape::Arr;
        for st in elements {
            shape = shape_of(&st, shape)?;
            let stage = if region.is_empty() && shape == Shape::Arr {
                Self::expr_stage(st, reg)?
            } else {
                region.push(st);
                if shape != Shape::Arr {
                    continue;
                }
                Self::expr_barrier(Expr::pipeline(std::mem::take(&mut region)), reg)?
            };
            chain = fused::compose(chain, stage.plan.into_inner());
        }
        Ok(Skel {
            plan: RefCell::new(chain),
            repr: Some(e.clone()),
        })
    }

    /// One shape-preserving IR form as a plan stage, fused where the form
    /// is part-local. Branch arms are raised **recursively**, so nested
    /// maps keep their compute-stage form and the raised plan is a real
    /// DAG, not a flattened chain.
    fn expr_stage(st: Expr, reg: &'a Registry) -> Result<Self, String> {
        Ok(match st {
            Expr::Map(f) => Skel::map_ref(f, reg),
            Expr::Rotate(k) => Skel::rotate(k as isize),
            Expr::Scan(op) => Skel::scan_sym(&op, reg),
            Expr::Fetch(h) => Skel::fetch_ref(h, reg),
            Expr::Send(h) => Skel::send_ref(h, reg),
            Expr::Choice { pred, left, right } => Skel::choice_ref(
                pred,
                Self::from_expr(&left, reg)?,
                Self::from_expr(&right, reg)?,
                reg,
            ),
            Expr::Fanout {
                left,
                right,
                combine,
            } => Skel::fanout_sym(
                Self::from_expr(&left, reg)?,
                Self::from_expr(&right, reg)?,
                &combine,
                reg,
            ),
            other => Self::expr_barrier(other, reg)?,
        })
    }

    /// Compile an IR fragment with no stage form of its own into
    /// [`RegionStep`]s, in execution order.
    fn region_steps(
        e: &Expr,
        reg: &'a Registry,
        out: &mut Vec<RegionStep<'a>>,
    ) -> Result<(), String> {
        // The flattened segmented forms run as their nested equivalents
        // (split ∘ mapGroups ∘ combine) — same routes, same charges.
        let seg = |groups: usize, body: Expr| -> Result<[RegionStep<'a>; 3], String> {
            Ok([
                RegionStep::Split(groups),
                RegionStep::MapGroups(Self::expr_stage(body, reg)?),
                RegionStep::Combine,
            ])
        };
        match e {
            Expr::Id => {}
            Expr::Compose(es) => {
                for sub in es.iter().rev() {
                    Self::region_steps(sub, reg, out)?;
                }
            }
            Expr::Split(p) => out.push(RegionStep::Split(*p)),
            Expr::MapGroups(body) => out.push(RegionStep::MapGroups(Self::from_expr(body, reg)?)),
            Expr::Combine => out.push(RegionStep::Combine),
            Expr::SegRotate { groups, k } => out.extend(seg(*groups, Expr::Rotate(*k))?),
            Expr::SegFetch { groups, f } => out.extend(seg(*groups, Expr::Fetch(f.clone()))?),
            Expr::SegSend { groups, f } => out.extend(seg(*groups, Expr::Send(f.clone()))?),
            Expr::Fold(_) | Expr::FoldrMap(_, _) => {
                return Err(format!(
                    "{e}: scalar-producing programs are outside the array→array plan fragment"
                ))
            }
            staged => out.push(RegionStep::Flat(Self::expr_stage(staged.clone(), reg)?)),
        }
        Ok(())
    }

    /// An array→array IR fragment with no stage form of its own — a
    /// `split … combine` region, a segmented form — as one barrier stage
    /// over its compiled [`RegionStep`]s. A `split` into more groups than
    /// the array has parts fails the barrier with
    /// [`SclError::BadPattern`].
    fn expr_barrier(st: Expr, reg: &'a Registry) -> Result<Self, String> {
        let mut steps = Vec::new();
        Self::region_steps(&st, reg, &mut steps)?;
        let region = move |scl: &mut Scl, a: ParArray<i64>| {
            let mut val = RtVal::Flat(a);
            for step in &steps {
                val = match (step, val) {
                    (RegionStep::Split(p), RtVal::Flat(a)) => {
                        if *p == 0 || a.len() < *p {
                            return Err(SclError::BadPattern(format!(
                                "cannot split {} parts into {p} groups",
                                a.len()
                            )));
                        }
                        RtVal::Nested(scl.split(Pattern::Block(*p), a))
                    }
                    (RegionStep::Flat(stage), RtVal::Flat(a)) => {
                        RtVal::Flat(stage.try_run(scl, a)?)
                    }
                    (RegionStep::MapGroups(body), RtVal::Nested(groups)) => {
                        // `Scl::map_groups`, stopping at the first failing group
                        let (groups, leaders, _) = groups.into_raw();
                        let out = groups.into_iter().map(|g| body.try_run(scl, g));
                        RtVal::Nested(ParArray::with_placement(
                            out.collect::<SclResult<_>>()?,
                            leaders,
                        ))
                    }
                    (RegionStep::Combine, RtVal::Nested(groups)) => {
                        RtVal::Flat(scl.combine(groups))
                    }
                    _ => unreachable!("from_expr shape-checks every fragment it raises"),
                };
            }
            match val {
                RtVal::Flat(out) => Ok(out),
                RtVal::Nested(_) => unreachable!("shape-checked to Arr"),
            }
        };
        let mut plan = Skel::from_ops(fused::barrier_node("expr", region));
        tag_param(&plan, &st.to_string());
        plan.repr = Some(st);
        Ok(plan)
    }
}

impl Scl {
    /// The plan → optimise → execute entry point: lower `plan`, apply the
    /// §4 rewrite laws with [`optimize`], raise the optimised program and
    /// execute it here **through the fused executor** (surviving map runs
    /// execute partition-resident).
    /// Returns the result and the rewrite log (empty when the plan is
    /// outside the lowerable fragment, in which case it runs eagerly
    /// instead — same answer either way).
    pub fn run_optimized<'r>(
        &mut self,
        plan: &Skel<'r, ParArray<i64>, ParArray<i64>>,
        reg: &'r Registry,
        input: ParArray<i64>,
    ) -> (ParArray<i64>, Vec<Applied>) {
        match plan.lower(reg) {
            Some(e) => {
                let (opt, log) = optimize(e, reg);
                let raised =
                    Skel::from_expr(&opt, reg).expect("optimize preserves the array→array shape");
                let out = self
                    .run_fused(&raised, input)
                    .unwrap_or_else(|err| panic!("optimized plan failed: {err}"));
                (out, log)
            }
            None => (plan.run(self, input), Vec::new()),
        }
    }

    /// Execute `plan` through the fused, partition-resident executor (see
    /// [`crate::fused`]): the op chain under summed charging — the same
    /// answer as [`Skel::run`]. Oversized configurations surface as
    /// [`SclError::MachineTooSmall`](crate::error::SclError) instead of
    /// panicking.
    pub fn run_fused<'r, A, B>(&mut self, plan: &Skel<'r, A, B>, input: A) -> SclResult<B> {
        self.exec_ops(&mut plan.plan.borrow_mut(), input, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_machine::{CostModel, Machine, Topology};
    use scl_transform::{eval, Value};

    fn unit_ctx(n: usize) -> Scl {
        Scl::new(Machine::new(
            Topology::FullyConnected { procs: n },
            CostModel::unit(),
        ))
    }

    fn arr(n: i64) -> ParArray<i64> {
        ParArray::from_parts((0..n).collect())
    }

    #[test]
    fn map_plan_matches_eager_map() {
        let plan = Skel::map(|x: &i64| x * 10);
        let mut s1 = unit_ctx(4);
        let out = plan.run(&mut s1, arr(4));
        let mut s2 = unit_ctx(4);
        let eager = s2.map(&arr(4), |x| x * 10);
        assert_eq!(out, eager);
    }

    #[test]
    fn then_composes_in_execution_order() {
        let plan = Skel::map(|x: &i64| x + 1).then(Skel::map(|x: &i64| x * 2));
        let mut s = unit_ctx(3);
        assert_eq!(plan.run(&mut s, arr(3)).to_vec(), vec![2, 4, 6]);
    }

    #[test]
    fn pipe_runs_first_stage_first() {
        let plan = Skel::pipe(vec![Skel::map(|x: &i64| x + 1), Skel::rotate(1)]);
        let mut s = unit_ctx(3);
        // (0,1,2) -> +1 -> (1,2,3) -> rotate 1 -> (2,3,1)
        assert_eq!(plan.run(&mut s, arr(3)).to_vec(), vec![2, 3, 1]);
    }

    #[test]
    fn plans_are_rerunnable() {
        let plan = Skel::map(|x: &i64| x + 1);
        let mut s = unit_ctx(3);
        let a = plan.run(&mut s, arr(3));
        let b = plan.run(&mut s, arr(3));
        assert_eq!(a, b);
    }

    #[test]
    fn symbolic_stages_lower_and_opaque_stages_do_not() {
        let reg = Registry::standard();
        let lowerable = Skel::map_sym("inc", &reg).then(Skel::rotate(2));
        assert!(lowerable.lower(&reg).is_some());

        let opaque = Skel::map(|x: &i64| x + 1).then(Skel::rotate(2));
        assert!(opaque.lower(&reg).is_none());

        // one opaque stage poisons the whole chain
        let mixed = Skel::map_sym("inc", &reg).then(Skel::map(|x: &i64| x + 1));
        assert!(mixed.lower(&reg).is_none());
    }

    #[test]
    fn lower_validates_symbols() {
        let reg = Registry::standard();
        let mut empty = Registry::new();
        empty.scalar("only", |x| x, Work::NONE);
        let plan = Skel::map_sym("inc", &reg);
        assert!(plan.lower(&reg).is_some());
        assert!(
            plan.lower(&empty).is_none(),
            "`inc` is not in the empty registry"
        );
    }

    #[test]
    fn lowered_repr_matches_the_program() {
        let reg = Registry::standard();
        let plan = Skel::map_sym("double", &reg)
            .then(Skel::rotate(1))
            .then(Skel::map_sym("inc", &reg));
        let e = plan.lower(&reg).unwrap();
        assert_eq!(e.to_string(), "map(inc) . rotate(1) . map(double)");
    }

    #[test]
    fn pipe_lowers_without_spurious_identity() {
        let reg = Registry::standard();
        let plan = Skel::pipe(vec![Skel::map_sym("inc", &reg)]);
        assert_eq!(plan.lower(&reg), Some(Expr::Map(FnRef::named("inc"))));
    }

    #[test]
    fn run_matches_interpreter_on_the_lowerable_fragment() {
        let reg = Registry::standard();
        let plan = Skel::map_sym("square", &reg)
            .then(Skel::rotate(-2))
            .then(Skel::send_sym("half", &reg))
            .then(Skel::fetch_sym("succ", &reg))
            .then(Skel::scan_sym("add", &reg));
        let e = plan.lower(&reg).unwrap();

        let input: Vec<i64> = (0..12).map(|i| i * 3 - 5).collect();
        let mut s = unit_ctx(12);
        let got = plan
            .run(&mut s, ParArray::from_parts(input.clone()))
            .to_vec();
        let expect = eval(&e, &reg, Value::Arr(input)).unwrap();
        assert_eq!(Value::Arr(got), expect);
    }

    #[test]
    fn run_optimized_agrees_with_eager_and_shrinks() {
        let reg = Registry::standard();
        let plan = Skel::map_sym("double", &reg)
            .then(Skel::rotate(3))
            .then(Skel::rotate(-3))
            .then(Skel::map_sym("inc", &reg));

        let input = arr(8);
        let mut s1 = unit_ctx(8);
        let eager = plan.run(&mut s1, input.clone());
        let mut s2 = unit_ctx(8);
        let (opt, log) = s2.run_optimized(&plan, &reg, input);

        assert_eq!(eager, opt);
        assert!(log.iter().any(|a| a.rule == "map-fusion"), "{log:?}");
        assert!(log.iter().any(|a| a.rule == "rotate-fusion"), "{log:?}");
        // the optimised run moved strictly less data
        assert!(s2.machine.metrics.messages < s1.machine.metrics.messages);
    }

    #[test]
    fn run_optimized_falls_back_for_opaque_plans() {
        let reg = Registry::standard();
        let plan = Skel::map(|x: &i64| x * 7);
        let mut s = unit_ctx(4);
        let (out, log) = s.run_optimized(&plan, &reg, arr(4));
        assert_eq!(out.to_vec(), vec![0, 7, 14, 21]);
        assert!(log.is_empty());
    }

    #[test]
    fn from_expr_executes_nested_programs() {
        let reg = Registry::standard();
        let e = Expr::pipeline(vec![
            Expr::Split(2),
            Expr::MapGroups(Box::new(Expr::Rotate(1))),
            Expr::Combine,
        ]);
        let raised = Skel::from_expr(&e, &reg).unwrap();
        let mut s = unit_ctx(4);
        let out = raised.run(&mut s, arr(4));
        assert_eq!(out.to_vec(), vec![1, 0, 3, 2]);
        // agrees with the reference interpreter
        let expect = eval(&e, &reg, Value::Arr((0..4).collect())).unwrap();
        assert_eq!(Value::Arr(out.to_vec()), expect);
    }

    #[test]
    fn a_raised_split_that_does_not_fit_is_an_error() {
        let reg = Registry::standard();
        let split = |p| {
            Expr::pipeline(vec![
                Expr::Split(p),
                Expr::MapGroups(Box::new(Expr::Rotate(1))),
                Expr::Combine,
            ])
        };
        let nested = Expr::pipeline(vec![
            Expr::Split(2),
            Expr::MapGroups(Box::new(split(3))),
            Expr::Combine,
        ]);
        for e in [split(8), nested] {
            let raised = Skel::from_expr(&e, &reg).unwrap();
            let err = unit_ctx(4).run_fused(&raised, arr(4)).unwrap_err();
            assert!(matches!(err, SclError::BadPattern(_)), "{e}: {err}");
        }
    }

    #[test]
    fn from_expr_executes_segmented_forms() {
        let reg = Registry::standard();
        for e in [
            Expr::SegRotate { groups: 3, k: 1 },
            Expr::SegFetch {
                groups: 3,
                f: IdxRef::named("rev"),
            },
            Expr::SegSend {
                groups: 3,
                f: IdxRef::named("half"),
            },
        ] {
            let raised = Skel::from_expr(&e, &reg).unwrap();
            let mut s = unit_ctx(12);
            let out = raised.run(&mut s, arr(12));
            let expect = eval(&e, &reg, Value::Arr((0..12).collect())).unwrap();
            assert_eq!(Value::Arr(out.to_vec()), expect, "{e}");
        }
    }

    #[test]
    fn from_expr_rejects_scalar_programs_and_bad_symbols() {
        let reg = Registry::standard();
        assert!(Skel::from_expr(&Expr::Fold("add".into()), &reg).is_err());
        assert!(Skel::from_expr(&Expr::Map(FnRef::named("nope")), &reg).is_err());
    }

    #[test]
    fn fold_and_scan_plans() {
        let plan = Skel::scan(|a: &i64, b: &i64| a + b)
            .then(Skel::fold_all(|a: &i64, b: &i64| *a.max(b), Work::NONE));
        let mut s = unit_ctx(4);
        // scan: 0,1,3,6 -> fold max -> 6 on every part
        assert_eq!(plan.run(&mut s, arr(4)).to_vec(), vec![6; 4]);
    }

    #[test]
    fn partition_gather_roundtrip_plan() {
        let plan = Skel::partition(Pattern::Block(4)).then(Skel::gather());
        let mut s = Scl::ap1000(4);
        let data: Vec<i64> = (0..10).collect();
        assert_eq!(plan.run(&mut s, data.clone()), data);
    }

    // ---- structural fingerprinting ------------------------------------------

    #[test]
    fn equal_plans_fingerprint_equal() {
        let a = Skel::map(|x: &i64| x + 1)
            .then(Skel::rotate(2))
            .then(Skel::map_costed(|x: &i64| (x * 2, Work::flops(1))));
        let b = Skel::map(|x: &i64| x + 1)
            .then(Skel::rotate(2))
            .then(Skel::map_costed(|x: &i64| (x * 2, Work::flops(1))));
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn stage_order_changes_the_fingerprint() {
        let ab = Skel::map(|x: &i64| x + 1).then(Skel::map_costed(|x: &i64| (*x, Work::NONE)));
        let ba = Skel::map_costed(|x: &i64| (*x, Work::NONE)).then(Skel::map(|x: &i64| x + 1));
        assert_ne!(ab.fingerprint(), ba.fingerprint());
    }

    #[test]
    fn costed_and_uncosted_stages_fingerprint_apart() {
        let plain = Skel::map(|x: &i64| x + 1);
        let costed = Skel::map_costed(|x: &i64| (x + 1, Work::NONE));
        let imap = Skel::imap(|_, x: &i64| x + 1);
        let fp = |p: &Skel<'_, ParArray<i64>, ParArray<i64>>| p.fingerprint();
        assert_ne!(fp(&plain), fp(&costed));
        assert_ne!(fp(&plain), fp(&imap));
        assert_ne!(fp(&costed), fp(&imap));
    }

    #[test]
    fn barrier_kinds_fingerprint_apart() {
        let rot = Skel::map(|x: &i64| x + 1).then(Skel::rotate(1));
        let shift = Skel::map(|x: &i64| x + 1).then(Skel::shift(1, 0));
        let scan = Skel::map(|x: &i64| x + 1).then(Skel::scan(|a, b| a + b));
        let fold = Skel::map(|x: &i64| x + 1).then(Skel::fold_all(|a, b| a + b, Work::NONE));
        let fps: Vec<_> = [&rot, &shift, &scan, &fold]
            .iter()
            .map(|p| p.fingerprint())
            .collect();
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "barrier kinds {i} and {j} collide");
            }
        }
    }

    #[test]
    fn lowerable_parameters_fingerprint_apart() {
        // same op chain (one `rotate` barrier), different IR parameter
        assert_ne!(
            Skel::<'_, ParArray<i64>, ParArray<i64>>::rotate(1).fingerprint(),
            Skel::<'_, ParArray<i64>, ParArray<i64>>::rotate(2).fingerprint()
        );
        let reg = Registry::standard();
        assert_ne!(
            Skel::map_sym("inc", &reg).fingerprint(),
            Skel::map_sym("double", &reg).fingerprint()
        );
    }

    #[test]
    fn barrier_parameters_survive_opaque_composition() {
        // regression: an opaque stage drops the composed IR, but the
        // barrier's own parameters must still reach the fingerprint — a
        // plan cache keyed on it would otherwise serve rotate(1) answers
        // to rotate(2) requests
        let fp = |k: isize| {
            Skel::map(|x: &i64| x + 1)
                .then(Skel::rotate(k))
                .fingerprint()
        };
        assert_ne!(fp(1), fp(2));
        assert_eq!(fp(2), fp(2));

        let sh = |k: isize| {
            Skel::map(|x: &i64| x + 1)
                .then(Skel::shift(k, 0))
                .fingerprint()
        };
        assert_ne!(sh(1), sh(2));

        let it = |n: usize| {
            Skel::map(|x: &i64| x + 1)
                .then(Skel::iter_for(n, |_, _, a| a))
                .fingerprint()
        };
        assert_ne!(it(3), it(4));

        let pt = |p: usize| {
            Skel::<'_, Vec<i64>, ParArray<Vec<i64>>>::partition(Pattern::Block(p)).fingerprint()
        };
        assert_ne!(pt(2), pt(4));

        let reg = Registry::standard();
        let sym = |name: &str| {
            Skel::map(|x: &i64| x + 1)
                .then(Skel::map_sym(name, &reg))
                .fingerprint()
        };
        assert_ne!(sym("inc"), sym("double"));

        // closure-captured values remain invisible — the documented
        // submit_keyed case
        let fill = |v: i64| Skel::<'_, ParArray<i64>, ParArray<i64>>::shift(1, v).fingerprint();
        assert_eq!(fill(0), fill(9));
    }

    #[test]
    fn barrier_plans_fingerprint_by_label() {
        // a barrier's cache identity is its label: two closures under one
        // label alias, as two maps do, and another label splits them
        let pass = Skel::barrier("b", |_, a: ParArray<i64>| a);
        let rot = Skel::barrier("b", |scl: &mut Scl, a: ParArray<i64>| {
            scl.rotate_owned(1, a)
        });
        let other = Skel::barrier("c", |_, a: ParArray<i64>| a);
        assert_eq!(pass.fingerprint(), rot.fingerprint());
        assert_ne!(pass.fingerprint(), other.fingerprint());
    }

    #[test]
    fn identity_is_the_empty_chain() {
        let reg = Registry::standard();
        let closure = || Skel::map(|x: &i64| x + 1).then(Skel::rotate(1));
        let symbolic = || Skel::map_sym("inc", &reg).then(Skel::rotate(1));
        for (p, q) in [(closure(), closure()), (symbolic(), symbolic())] {
            let (stages, fp, repr) = (q.fused_stages(), q.fingerprint(), q.repr().cloned());
            let wrapped = Skel::identity().then(p).then(Skel::identity());
            assert_eq!(wrapped.fused_stages(), stages);
            assert_eq!(wrapped.fingerprint(), fp);
            assert_eq!(wrapped.repr().cloned(), repr);
            let mut s = unit_ctx(4);
            assert_eq!(
                s.run_fused(&wrapped, arr(4)).unwrap().to_vec(),
                vec![2, 3, 4, 1]
            );
        }
        let empty = Skel::<'_, ParArray<i64>, ParArray<i64>>::pipe(vec![]);
        assert!(empty.fused_stages().is_empty());
        assert_eq!(empty.repr(), Some(&Expr::Id));
        let mut s = unit_ctx(4);
        assert_eq!(empty.run(&mut s, arr(4)), arr(4));
    }

    // ---- fused execution ----------------------------------------------------

    use scl_exec::ExecPolicy;

    #[test]
    fn fused_stage_structure_groups_compute_runs() {
        let plan = Skel::map(|x: &i64| x + 1)
            .then(Skel::map(|x: &i64| x * 2))
            .then(Skel::rotate(1))
            .then(Skel::map_costed(|x: &i64| (x - 1, Work::flops(1))));
        assert_eq!(
            plan.fused_stages(),
            vec![
                ("map", false),
                ("map", false),
                ("rotate", true),
                ("map_costed", false),
            ]
        );
    }

    #[test]
    fn opaque_from_fn_forfeits_fusion_but_barrier_does_not() {
        // a host stage enters the chain as one barrier: the compute stages
        // on either side keep their segments
        let with_barrier = Skel::map(|x: &i64| x + 1)
            .then(Skel::barrier("pass", |_, a: ParArray<i64>| a))
            .then(Skel::map(|x: &i64| x * 3));
        assert_eq!(
            with_barrier.fused_stages(),
            vec![("map", false), ("pass", true), ("map", false)]
        );
        let mut s = unit_ctx(4);
        let out = s.run_fused(&with_barrier, arr(4)).unwrap();
        assert_eq!(out.to_vec(), vec![3, 6, 9, 12]);
    }

    #[test]
    fn opaque_branch_arm_is_an_opaque_barrier() {
        // a host stage inside a branch arm is one barrier of that arm:
        // both interpreters agree, and the arm's label keys the fingerprint
        let arm = |label| Skel::barrier(label, |scl: &mut Scl, a: ParArray<i64>| scl.rotate(1, &a));
        let plan = || Skel::map(|x: &i64| x * 3).pair(arm("rot"));
        assert_eq!(plan().fused_stages(), vec![("pair", true)]);
        assert_eq!(plan().fingerprint(), plan().fingerprint());
        assert_ne!(
            plan().fingerprint(),
            Skel::map(|x: &i64| x * 3).pair(arm("other")).fingerprint()
        );
        for policy in [
            ExecPolicy::Sequential,
            ExecPolicy::Threads(2),
            ExecPolicy::cost_driven(),
        ] {
            let mut s1 = unit_ctx(4).with_policy(policy);
            let eager = plan().run(&mut s1, (arr(4), arr(4)));
            let mut s2 = unit_ctx(4).with_policy(policy);
            let fused = s2.run_fused(&plan(), (arr(4), arr(4))).unwrap();
            assert_eq!(eager, fused, "{policy:?}");
            assert_eq!(eager.1.to_vec(), vec![1, 2, 3, 0], "{policy:?}");
            assert_eq!(s1.machine.report(), s2.machine.report(), "{policy:?}");
        }
    }

    #[test]
    fn run_fused_matches_eager_under_every_policy() {
        for policy in [
            ExecPolicy::Sequential,
            ExecPolicy::Threads(4),
            ExecPolicy::cost_driven(),
        ] {
            let plan = Skel::map(|x: &i64| x * 3)
                .then(Skel::imap(|i, x: &i64| x + i as i64))
                .then(Skel::rotate(2))
                .then(Skel::map_costed(|x: &i64| (x * x, Work::flops(1))))
                .then(Skel::scan(|a: &i64, b: &i64| a.wrapping_add(*b)));
            let mut s1 = unit_ctx(8);
            let eager = plan.run(&mut s1, arr(8));
            let mut s2 = unit_ctx(8).with_policy(policy);
            let fused = s2.run_fused(&plan, arr(8)).unwrap();
            assert_eq!(eager, fused, "{policy:?}");
        }
    }

    #[test]
    fn run_fused_charges_like_eager_for_costed_stages() {
        let plan = Skel::map_costed(|x: &i64| (x + 1, Work::flops(2)))
            .then(Skel::map_costed(|x: &i64| (x * 2, Work::cmps(1))))
            .then(Skel::rotate(1));
        let mut s1 = unit_ctx(4);
        let _ = plan.run(&mut s1, arr(4));
        let mut s2 = unit_ctx(4);
        let _ = s2.run_fused(&plan, arr(4)).unwrap();
        assert_eq!(s1.makespan(), s2.makespan());
        assert_eq!(s1.machine.metrics.flops, s2.machine.metrics.flops);
        assert_eq!(s1.machine.metrics.messages, s2.machine.metrics.messages);
    }

    #[test]
    fn fused_costed_stages_never_pick_up_wallclock_charges() {
        use crate::ctx::MeasureMode;
        // Costed stages charge exactly their reported work in both
        // executors, even under WallClock measurement — measured host time
        // applies only to *uncosted* stages, as in the eager layer.
        let plan = Skel::map_costed(|x: &i64| (x + 1, Work::flops(3)));
        let mut s1 = unit_ctx(4).with_measure(MeasureMode::WallClock { scale: 1000.0 });
        let eager = plan.run(&mut s1, arr(4));
        let mut s2 = unit_ctx(4).with_measure(MeasureMode::WallClock { scale: 1000.0 });
        let fused = s2.run_fused(&plan, arr(4)).unwrap();
        assert_eq!(eager, fused);
        assert_eq!(s1.makespan(), s2.makespan());
    }

    #[test]
    fn fused_uncosted_stages_do_charge_wallclock() {
        use crate::ctx::MeasureMode;
        use scl_machine::Time;
        let plan = Skel::map(|n: &u64| (0..200_000u64).fold(*n, |a, i| a.wrapping_add(i)));
        let mut s = unit_ctx(2).with_measure(MeasureMode::WallClock { scale: 1.0 });
        let _ = s
            .run_fused(&plan, ParArray::from_parts(vec![1u64, 2]))
            .unwrap();
        assert!(s.makespan() > Time::ZERO);
    }

    #[test]
    fn run_fused_zip_with_and_pair_input() {
        let plan = Skel::zip_with(|a: &i64, b: &i64| a * 10 + b);
        let input = (arr(4), arr(4));
        let mut s1 = unit_ctx(4);
        let eager = plan.run(&mut s1, input.clone());
        let mut s2 = unit_ctx(4).with_policy(ExecPolicy::Threads(2));
        let fused = s2.run_fused(&plan, input).unwrap();
        assert_eq!(eager, fused);
    }

    #[test]
    fn run_fused_partition_gather_roundtrip() {
        let plan = Skel::partition(Pattern::Block(4)).then(Skel::gather());
        let mut s = Scl::ap1000(4);
        let data: Vec<i64> = (0..10).collect();
        assert_eq!(s.run_fused(&plan, data.clone()).unwrap(), data);
    }

    #[test]
    fn run_fused_reports_machine_too_small() {
        // partition wider than the machine: eager panics, fused errors
        let plan = Skel::partition(Pattern::Block(8)).then(Skel::gather());
        let mut s = Scl::ap1000(2);
        let err = s
            .run_fused(&plan, (0..16).collect::<Vec<i64>>())
            .unwrap_err();
        assert_eq!(
            err,
            crate::error::SclError::MachineTooSmall {
                needed: 8,
                procs: 2
            }
        );

        // input configuration wider than the machine
        let plan = Skel::map(|x: &i64| x + 1);
        let mut s = unit_ctx(2);
        let err = s.run_fused(&plan, arr(6)).unwrap_err();
        assert!(matches!(
            err,
            crate::error::SclError::MachineTooSmall {
                needed: 6,
                procs: 2
            }
        ));
    }

    #[test]
    fn fused_panic_carries_stage_label_sequential() {
        let plan = Skel::map(|x: &i64| if *x == 2 { panic!("boom") } else { *x });
        let mut s = unit_ctx(4);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.run_fused(&plan, arr(4));
        }))
        .unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("fused stage `map`"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn fused_panic_carries_stage_label_threaded() {
        let plan = Skel::map_costed(|x: &i64| {
            if *x == 5 {
                panic!("kaboom")
            }
            (*x, Work::NONE)
        });
        let mut s = unit_ctx(8).with_policy(ExecPolicy::Threads(4));
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.run_fused(&plan, arr(8));
        }))
        .unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("fused stage `map_costed`"), "{msg}");
        assert!(msg.contains("kaboom"), "{msg}");
    }

    #[test]
    fn pipe_preserves_fusability() {
        let plan = Skel::pipe(vec![
            Skel::map(|x: &i64| x + 1),
            Skel::rotate(1),
            Skel::map(|x: &i64| x * 2),
        ]);
        let mut s = unit_ctx(3);
        // (0,1,2) -> +1 -> (1,2,3) -> rotate 1 -> (2,3,1) -> *2 -> (4,6,2)
        assert_eq!(s.run_fused(&plan, arr(3)).unwrap().to_vec(), vec![4, 6, 2]);
    }

    #[test]
    fn from_expr_raises_fusable_plans() {
        let reg = Registry::standard();
        let e = Expr::pipeline(vec![
            Expr::Map(FnRef::named("inc")),
            Expr::Map(FnRef::named("double")),
            Expr::Rotate(1),
            Expr::Map(FnRef::named("square")),
        ]);
        let raised = Skel::from_expr(&e, &reg).unwrap();
        let stages = raised.fused_stages();
        assert_eq!(
            stages,
            vec![
                ("map_sym", false),
                ("map_sym", false),
                ("rotate", true),
                ("map_sym", false),
            ]
        );
        // and the raised repr still round-trips
        assert_eq!(raised.lower(&reg), Some(e.clone()));

        let mut s = unit_ctx(6);
        let fused = s.run_fused(&raised, arr(6)).unwrap();
        let expect = scl_transform::eval(&e, &reg, Value::Arr((0..6).collect())).unwrap();
        assert_eq!(Value::Arr(fused.to_vec()), expect);
    }

    #[test]
    fn from_expr_nested_regions_stay_one_barrier() {
        let reg = Registry::standard();
        let e = Expr::pipeline(vec![
            Expr::Map(FnRef::named("inc")),
            Expr::Split(2),
            Expr::MapGroups(Box::new(Expr::Rotate(1))),
            Expr::Combine,
            Expr::Map(FnRef::named("double")),
        ]);
        let raised = Skel::from_expr(&e, &reg).unwrap();
        let stages = raised.fused_stages();
        assert_eq!(
            stages,
            vec![("map_sym", false), ("expr", true), ("map_sym", false),]
        );
        let mut s = unit_ctx(4);
        let fused = s.run_fused(&raised, arr(4)).unwrap();
        let expect = scl_transform::eval(&e, &reg, Value::Arr((0..4).collect())).unwrap();
        assert_eq!(Value::Arr(fused.to_vec()), expect);
    }

    #[test]
    fn run_optimized_takes_the_fused_path() {
        let reg = Registry::standard();
        let plan = Skel::map_sym("double", &reg)
            .then(Skel::rotate(3))
            .then(Skel::rotate(-3))
            .then(Skel::map_sym("inc", &reg));
        let input = arr(8);
        let mut s1 = unit_ctx(8);
        let eager = plan.run(&mut s1, input.clone());
        let mut s2 = unit_ctx(8).with_policy(ExecPolicy::Threads(4));
        let (opt, log) = s2.run_optimized(&plan, &reg, input);
        assert_eq!(eager, opt);
        assert!(!log.is_empty());
    }

    #[test]
    fn iter_until_fused_is_a_barrier_stage() {
        let plan = Skel::iter_until(
            |scl: &mut Scl, (a, n, r): (ParArray<i64>, usize, f64)| {
                (scl.map(&a, |x| x + 1), n + 1, r)
            },
            |_, s| s,
            |(_, n, _): &(ParArray<i64>, usize, f64)| *n >= 3,
        );
        assert_eq!(plan.fused_stages(), vec![("iter_until", true)]);
        let mut s = unit_ctx(4);
        let (out, n, _) = s.run_fused(&plan, (arr(4), 0usize, 0.0f64)).unwrap();
        assert_eq!(n, 3);
        assert_eq!(out.to_vec(), vec![3, 4, 5, 6]);
    }

    #[test]
    fn fused_plans_are_rerunnable() {
        let plan = Skel::map(|x: &i64| x + 1).then(Skel::rotate(1));
        let mut s = unit_ctx(3);
        let a = s.run_fused(&plan, arr(3)).unwrap();
        let b = s.run_fused(&plan, arr(3)).unwrap();
        assert_eq!(a, b);
        // and eager still works on the same plan value afterwards
        assert_eq!(plan.run(&mut s, arr(3)), a);
    }
}
