//! Under `ExecPolicy::CostDriven` a segment fans out only while the work
//! its last run measured (wall time × threads) reaches
//! `scl_exec::FAN_OUT_NS`; a segment never run before fans out. One plan
//! object run again and again therefore changes schedule after its first
//! run when it is light, and keeps fanning out when it is heavy.
//!
//! The schedule is all that changes. Every run computes and charges what
//! a `Sequential` run does, and a failing run reports the same first
//! failure and leaves the same charges behind, fanned out or inline.
//!
//! What a dispatch measures is wall time, so it is checked from outside
//! by an implication that holds whatever the build and the load: when a
//! whole run took less than `FAN_OUT_NS / threads`, none of its
//! dispatches can have measured `FAN_OUT_NS`, so the next run must stay
//! on the calling thread. An optimised build meets the premise from the
//! first run on; in an unoptimised one a first fan-out of eight light
//! parts can take 50 µs, and a second fanned-out run may come first.
//!
//! The policy is `CostDriven { threads: 2 }` rather than
//! `ExecPolicy::cost_driven()`, so that the two-thread rendezvous below
//! can be met on a one-core host too.

use scl_core::prelude::*;
use scl_core::{PlanOp, RequestError};
use scl_exec::FAN_OUT_NS;
use scl_machine::MachineReport;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

const PARTS: usize = 8;
const RUNS: usize = 6;
const THREADS: usize = 2;
const COST_DRIVEN: ExecPolicy = ExecPolicy::CostDriven { threads: THREADS };

type Arr = ParArray<i64>;
type Pair = (Arr, Arr);

fn ctx(policy: ExecPolicy) -> Scl {
    Scl::ap1000(PARTS).with_policy(policy)
}

fn input() -> Arr {
    ParArray::from_parts((0..PARTS as i64).collect())
}

/// Two arms of `PARTS / 2` parts: the pair dispatches as many parts as
/// the single-chain plans.
fn pair_input() -> Pair {
    let half = PARTS as i64 / 2;
    (
        ParArray::from_parts((0..half).collect()),
        ParArray::from_parts((10..10 + half).collect()),
    )
}

/// Part 5 is poisoned.
fn poisoned() -> Arr {
    ParArray::from_parts(
        (0..PARTS as i64)
            .map(|i| if i == 5 { -1 } else { i })
            .collect(),
    )
}

/// The two ways to run a plan: per-stage charging (`Skel::run`) and
/// summed charging (`Scl::run_fused`).
#[derive(Debug, Clone, Copy)]
enum Entry {
    Run,
    Fused,
}

const ENTRIES: [Entry; 2] = [Entry::Run, Entry::Fused];

fn run<A, B>(entry: Entry, plan: &Skel<'_, A, B>, scl: &mut Scl, input: A) -> B {
    match entry {
        Entry::Run => plan.run(scl, input),
        Entry::Fused => scl
            .run_fused(plan, input)
            .expect("the plan fits the machine"),
    }
}

/// `f`'s result and how long it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Whether a run that took `wall` leaves every dispatch it made measured
/// below [`FAN_OUT_NS`]: each dispatch took at most `wall`, on at most
/// [`THREADS`] threads.
fn leaves_it_light(wall: Duration) -> bool {
    wall.as_nanos() * (THREADS as u128) < FAN_OUT_NS as u128
}

/// The threads the stages of one run ran on.
#[derive(Default)]
struct Threads(Mutex<HashSet<ThreadId>>);

impl Threads {
    fn note(&self) {
        self.0
            .lock()
            .expect("no stage panics holding the set")
            .insert(thread::current().id());
    }

    /// The threads noted since the last call.
    fn take(&self) -> HashSet<ThreadId> {
        std::mem::take(&mut self.0.lock().expect("no stage panics holding the set"))
    }
}

/// Blocks every arriving part until two distinct threads have been seen:
/// with the caller stuck in its first part, only a pool helper can be the
/// second.
#[derive(Default)]
struct Rendezvous {
    seen: Mutex<HashSet<ThreadId>>,
    two: Condvar,
}

impl Rendezvous {
    fn arrive(&self) {
        let mut seen = self.seen.lock().expect("no part panics holding the set");
        seen.insert(thread::current().id());
        self.two.notify_all();
        let (_seen, timeout) = self
            .two
            .wait_timeout_while(seen, Duration::from_secs(20), |s| s.len() < 2)
            .expect("no part panics holding the set");
        assert!(!timeout.timed_out(), "no second thread joined the segment");
    }
}

/// Run the tests one at a time, so that a test spinning on both cores
/// does not stretch another's runs.
fn alone() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    // a failed test poisons the lock; the next one still runs alone
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Get the pool worker started and awake, as it is between the
/// dispatches of a busy program: a fan-out then really has a helper.
fn wake_pool() {
    let _ = ctx(ExecPolicy::Threads(THREADS)).map(&input(), |x| x + 1);
}

/// The shape of the benchmark ladder's tiny plan: two segments of
/// one-line stages around a `rotate`, a few hundred nanoseconds of work.
fn light(threads: &Threads) -> Skel<'_, Arr, Arr> {
    Skel::map_costed(move |x: &i64| {
        threads.note();
        (x + 1, Work::flops(1))
    })
    .then(Skel::imap(move |i, x: &i64| {
        threads.note();
        x * 2 + i as i64
    }))
    .then(Skel::rotate(1))
    .then(Skel::map_costed(move |x: &i64| {
        threads.note();
        (x - 3, Work::flops(2))
    }))
}

/// A `pair` of light one-segment arms.
fn pair(threads: &Threads) -> Skel<'_, Pair, Pair> {
    let left = Skel::map_costed(move |x: &i64| {
        threads.note();
        (x * 5, Work::cmps(3))
    })
    .then(Skel::map(move |x: &i64| {
        threads.note();
        x - 1
    }));
    let right = Skel::imap(move |i, x: &i64| {
        threads.note();
        x + i as i64
    });
    left.pair(right)
}

/// One segment whose stage spins for 200 µs per part — 1.6 ms a run —
/// and, once `meet` is set, waits at `rendezvous` for a second thread.
fn heavy<'a>(meet: &'a AtomicBool, rendezvous: &'a Rendezvous) -> Skel<'a, Arr, Arr> {
    Skel::map_costed(move |x: &i64| {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(200) {
            std::hint::spin_loop();
        }
        if meet.load(Ordering::Relaxed) {
            rendezvous.arrive();
        }
        (x * 3, Work::flops(5))
    })
    .then(Skel::map(|x: &i64| x + 7))
}

/// `map_costed → imap`, one segment: stage 1 panics on a part whose value
/// is negative, and stage 0 waits at `rendezvous` while `meet` is set.
fn failing<'a>(
    meet: &'a AtomicBool,
    rendezvous: &'a Rendezvous,
    threads: &'a Threads,
) -> Skel<'a, Arr, Arr> {
    Skel::map_costed(move |x: &i64| {
        threads.note();
        if meet.load(Ordering::Relaxed) {
            rendezvous.arrive();
        }
        (x * 2, Work::flops((*x).max(0) as u64 + 1))
    })
    .then(Skel::imap(move |i, x: &i64| {
        assert!(*x >= 0, "negative value on part {i}");
        x + i as i64
    }))
}

/// What a `Sequential` run of `plan` computes and charges.
fn sequential<A, B>(entry: Entry, plan: &Skel<'_, A, B>, input: A) -> (B, MachineReport) {
    let mut scl = ctx(ExecPolicy::Sequential);
    let out = run(entry, plan, &mut scl, input);
    (out, scl.machine.report())
}

/// Run one fresh light plan `RUNS` times through `entry`: every run
/// computes and charges what a `Sequential` run does, and every run after
/// one that [`leaves_it_light`] stays on the calling thread.
fn settles_inline<A: PartialEq + std::fmt::Debug>(
    entry: Entry,
    plan: impl Fn(&Threads) -> Skel<'_, A, A>,
    input: impl Fn() -> A,
) {
    let me = thread::current().id();
    let threads = Threads::default();
    let want = sequential(entry, &plan(&threads), input());
    let plan = plan(&threads);
    let mut checked = 0;
    let mut light_before = false;
    wake_pool();
    threads.take();
    for k in 0..RUNS {
        let mut scl = ctx(COST_DRIVEN);
        let (out, wall) = timed(|| run(entry, &plan, &mut scl, input()));
        assert_eq!((out, scl.machine.report()), want, "{entry:?} run {k}");
        let seen = threads.take();
        if light_before {
            assert_eq!(
                seen,
                HashSet::from([me]),
                "{entry:?} run {k} ran off the caller"
            );
            checked += 1;
        }
        light_before = leaves_it_light(wall);
    }
    // an unoptimised build on a busy host may spend 50 µs on every run's
    // barriers and conversions alone; an optimised one never does
    assert!(
        checked > 0 || cfg!(debug_assertions),
        "{entry:?}: no run was light enough to judge"
    );
}

#[test]
fn a_light_plan_runs_inline_once_measured() {
    let _alone = alone();
    for entry in ENTRIES {
        settles_inline(entry, light, input);
    }
}

#[test]
fn a_light_pair_runs_inline_once_measured() {
    let _alone = alone();
    for entry in ENTRIES {
        settles_inline(entry, pair, pair_input);
    }
}

#[test]
fn a_heavy_plan_keeps_fanning_out() {
    let _alone = alone();
    wake_pool();
    for entry in ENTRIES {
        let (meet, rendezvous) = (AtomicBool::new(false), Rendezvous::default());
        let want = sequential(entry, &heavy(&meet, &rendezvous), input());
        let plan = heavy(&meet, &rendezvous);
        for k in 0..RUNS {
            // the last run only goes through if a second thread joins it
            meet.store(k == RUNS - 1, Ordering::Relaxed);
            let mut scl = ctx(COST_DRIVEN);
            let out = run(entry, &plan, &mut scl, input());
            assert_eq!((out, scl.machine.report()), want, "{entry:?} run {k}");
        }
    }
}

#[test]
fn a_failure_is_the_same_fanned_out_and_inline() {
    let _alone = alone();
    wake_pool();
    let me = thread::current().id();
    for summed in [true, false] {
        let (meet, rendezvous, threads) = (
            AtomicBool::new(false),
            Rendezvous::default(),
            Threads::default(),
        );
        let ops = failing(&meet, &rendezvous, &threads).into_stream_ops();
        assert_eq!(ops.len(), 1, "one segment");
        let PlanOp::Segment(seg) = &ops[0] else {
            panic!("the plan is one segment");
        };
        let fail = |policy: ExecPolicy| -> (RequestError, MachineReport) {
            let mut scl = ctx(policy);
            let Err(err) = seg.run(&mut scl, poisoned().erase(), summed) else {
                panic!("summed {summed}: the poisoned run succeeded");
            };
            (err, scl.machine.report())
        };

        // first run: nothing measured, so it fans out — proven by the
        // rendezvous — and fails, which records nothing
        meet.store(true, Ordering::Relaxed);
        let first = fail(COST_DRIVEN);
        meet.store(false, Ordering::Relaxed);
        assert!(
            matches!(&first.0, RequestError::StagePanic { stage, part: 5, .. } if stage == "imap"),
            "summed {summed}: {:?}",
            first.0
        );
        assert_eq!(fail(ExecPolicy::Sequential), first, "summed {summed}");

        // clean runs measure the light segment; a poisoned run after one
        // that leaves it light runs inline, with the same outcome
        let mut inline = false;
        for _ in 0..RUNS {
            let mut scl = ctx(COST_DRIVEN);
            let (clean, wall) = timed(|| seg.run(&mut scl, input().erase(), summed));
            clean.expect("a clean run succeeds");
            threads.take();
            assert_eq!(fail(COST_DRIVEN), first, "summed {summed}");
            if leaves_it_light(wall) {
                assert_eq!(threads.take(), HashSet::from([me]), "summed {summed}");
                inline = true;
                break;
            }
        }
        assert!(inline, "summed {summed}: no clean run was light enough");
    }

    // `Skel::run` re-raises the same failure over the same charges
    let (meet, rendezvous, threads) = (
        AtomicBool::new(false),
        Rendezvous::default(),
        Threads::default(),
    );
    let plan = failing(&meet, &rendezvous, &threads);
    let mut want = None;
    for k in 0..3 {
        let mut scl = ctx(COST_DRIVEN);
        let raised = catch_unwind(AssertUnwindSafe(|| plan.run(&mut scl, poisoned())));
        let payload = raised.expect_err("the plan panics");
        let got = (
            scl_core::panic_message(&*payload).to_string(),
            scl.machine.report(),
        );
        assert_eq!(want.get_or_insert_with(|| got.clone()), &got, "run {k}");
        let mut scl = ctx(COST_DRIVEN);
        plan.run(&mut scl, input());
    }
}
