//! The fork-join dispatch every data-parallel skeleton goes through.
//!
//! One mechanism serves the fused and owned maps ([`par_pipeline`]) and,
//! through it, the borrowed maps ([`par_map_indexed`]) and the zero-copy
//! communication skeletons ([`par_permute`], [`par_concat`],
//! [`par_scatter`]): the **calling thread is worker 0** and starts on the work at once, while
//! `threads − 1` helper *tickets* are offered to a persistent
//! [`ThreadPool`]. No thread is created, and nothing is joined that did
//! not actually start.
//!
//! # Tickets
//!
//! A ticket is one byte of state shared between the caller and whichever
//! pool worker pops it:
//!
//! ```text
//!            helper wins the CAS              helper's share returned
//!  PENDING ─────────────────────▶ CLAIMED ─────────────────────────▶ DONE
//!     │
//!     └──── caller wins the CAS ─▶ REVOKED      (helper never looks at the job)
//! ```
//!
//! The job a dispatch runs borrows the caller's stack frame, but pool jobs
//! must be `'static`, so the borrow is transmuted away. That is sound
//! because of two rules, both enforced in `Fork`: a helper dereferences
//! the job **only after** winning `PENDING → CLAIMED`, and the caller
//! leaves the dispatch **only after** every ticket is `REVOKED` (by its
//! own CAS) or `DONE` (awaited, spin-then-park) — on every path, a panic
//! in its own share included. A revoked ticket may sit in the pool's queue
//! long after the frame is gone; whoever pops it loses the CAS and drops
//! it unread.
//!
//! The caller revokes only once its own share has returned, and every
//! share returns only when no unclaimed work is left. So a dispatch too
//! small to be worth a wake-up costs one enqueue, and a dispatch from
//! *inside* a step — every pool worker already busy in the outer one —
//! still completes, on its caller alone.
//!
//! Results come back **in input order** regardless of completion order.
//! The first panic from any share is re-raised on the caller once every
//! claimed helper has stopped; the pool itself is untouched by it.

use crate::backoff::{Backoff, ParkSlot, PARK_SAFETY};
use crate::deque::StealRange;
use crate::policy::ExecPolicy;
use crate::pool::ThreadPool;
use std::any::Any;
use std::ops::Range;
use std::sync::atomic::{fence, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// Offered to the pool; nobody has decided yet.
const PENDING: u8 = 0;
/// A helper won the ticket and is running its share of the job.
const CLAIMED: u8 = 1;
/// The helper's share has returned; it will not touch the job again.
const DONE: u8 = 2;
/// The caller took the ticket back; no helper will ever touch the job.
const REVOKED: u8 = 3;

/// One dispatch's shared state: the lifetime-erased job and the helper
/// tickets. Lives in an `Arc` because a revoked ticket can outlive the
/// dispatch in the pool's queue.
struct Fork {
    /// The job, run as `job(worker)`: 0 is the caller, `k + 1` the holder
    /// of ticket `k`. Borrowed from [`run_static_jobs`]'s caller; see the
    /// [module docs](self) for when it may be dereferenced.
    job: *const (dyn Fn(usize) + Sync),
    tickets: Box<[AtomicU8]>,
    /// First panic payload out of a helper's share.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Where the caller parks while a claimed ticket is still running.
    caller: ParkSlot,
}

// SAFETY: `job` points at a `Sync` closure, so calling it from several
// threads at once is allowed; the pointer is dereferenced only while the
// dispatch that owns the pointee is provably still on its caller's stack
// (ticket protocol, module docs). The other fields are `Send + Sync`.
unsafe impl Send for Fork {}
unsafe impl Sync for Fork {}

impl Fork {
    /// A pool worker's side of ticket `k`.
    fn help(&self, k: usize) {
        let ticket = &self.tickets[k];
        // Claim and revoke are two read-modify-writes of one byte, so
        // exactly one of them wins; no data rides on either (the job and
        // its inputs were published to this worker by the pool queue's
        // lock), which is why both can be Relaxed.
        if ticket
            .compare_exchange(PENDING, CLAIMED, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return; // revoked: the job may already be gone
        }
        // SAFETY: the ticket is CLAIMED, so the caller is still inside
        // `run_static_jobs` and cannot leave before this ticket is DONE.
        let job = unsafe { &*self.job };
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(k + 1)))
        {
            self.panic
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get_or_insert(payload);
        }
        // Release: everything this share wrote — result slots, and the
        // raw copies of `par_concat`/`par_scatter` — happens-before the
        // caller's Acquire load of DONE. From here on only `self` (kept
        // alive by this worker's Arc) is touched, never the job.
        ticket.store(DONE, Ordering::Release);
        // StoreLoad point of the park handshake (see backoff.rs)
        fence(Ordering::SeqCst);
        if self.caller.is_waiting() {
            self.caller.wake();
        }
    }

    /// The caller's way out: take back every ticket nobody claimed, then
    /// wait for the claimed ones. After this no helper can reach the job.
    fn revoke_or_await(&self) {
        // revoke all first, so no straggler claims a ticket — only to
        // find the work gone — while an earlier one is being awaited
        for ticket in self.tickets.iter() {
            let _ = ticket.compare_exchange(PENDING, REVOKED, Ordering::Relaxed, Ordering::Relaxed);
        }
        for ticket in self.tickets.iter() {
            let mut backoff = Backoff::new();
            while !matches!(ticket.load(Ordering::Acquire), DONE | REVOKED) {
                if backoff.snooze() {
                    self.caller.prepare();
                    // SeqCst re-check after publishing `waiting`: either
                    // this load sees DONE or the helper's probe sees us
                    if ticket.load(Ordering::SeqCst) == CLAIMED {
                        self.caller.park(PARK_SAFETY);
                    }
                    self.caller.clear();
                }
            }
        }
    }
}

/// Runs [`Fork::revoke_or_await`] when dropped, so the caller cannot leave
/// [`run_static_jobs`] — not even by unwinding out of the enqueue loop —
/// while a helper might still dereference the borrowed job.
struct JoinTickets<'f>(&'f Fork);
impl Drop for JoinTickets<'_> {
    fn drop(&mut self) {
        self.0.revoke_or_await();
    }
}

/// Run `job(0)` on the calling thread while offering `job(1)` …
/// `job(workers − 1)` to the pool as revocable tickets, and return once
/// every share that started has finished. Re-raises the first panic: the
/// caller's own if it had one, otherwise the first helper's.
///
/// `job(w)` must return only when no unclaimed work is left (as
/// [`par_pipeline`]'s deque drain does), because the caller revokes all
/// unclaimed tickets as soon as `job(0)` returns.
///
/// # Safety
/// The pool's workers require `'static` jobs; this function transmutes the
/// borrow away. That is sound **only** because of the ticket protocol in
/// the [module docs](self). The caller must not stash `job` anywhere that
/// outlives the call.
unsafe fn run_static_jobs(pool: &ThreadPool, workers: usize, job: &(dyn Fn(usize) + Sync)) {
    // SAFETY: only the lifetime changes; `Fork::help` upholds it.
    let job: &'static (dyn Fn(usize) + Sync) = std::mem::transmute(job);
    let fork = Arc::new(Fork {
        job,
        tickets: (1..workers).map(|_| AtomicU8::new(PENDING)).collect(),
        panic: Mutex::new(None),
        caller: ParkSlot::default(),
    });
    let joined = JoinTickets(&fork);
    for k in 0..fork.tickets.len() {
        let fork = Arc::clone(&fork);
        pool.execute(move || fork.help(k));
    }
    let mine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(0)));
    drop(joined);
    let helpers = fork.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(payload) = mine.err().or(helpers) {
        std::panic::resume_unwind(payload);
    }
}

/// Apply `f(index, &item)` to every element, returning results in input
/// order.
///
/// With [`ExecPolicy::Sequential`] this is a plain loop; with a threaded
/// policy the borrowed items go through [`par_pipeline`] on the
/// [process-wide pool](ThreadPool::shared) (`&T` is `Send` because
/// `T: Sync`), one item per claim so unevenly sized partitions — the
/// `farm` skeleton's raison d'être — balance across the workers.
///
/// # Panics
/// Propagates the first panic raised by `f`.
pub fn par_map_indexed<T, R, F>(policy: ExecPolicy, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = policy.effective_threads(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let pool = ThreadPool::shared(threads);
    par_pipeline(pool, items.iter().collect(), threads, 1, f)
}

/// [`par_map_indexed`] without the index.
pub fn par_map<T, R, F>(policy: ExecPolicy, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(policy, items, |_, x| f(x))
}

/// Run `f(index, &item)` for side effects only.
pub fn par_for_each<T, F>(policy: ExecPolicy, items: &[T], f: F)
where
    T: Sync,
    F: Fn(usize, &T) + Sync,
{
    let _: Vec<()> = par_map_indexed(policy, items, |i, x| f(i, x));
}

/// Carry every item of a batch through a per-item stage chain — the
/// partition-resident primitive behind fused plan execution and the one
/// data path of every `par_*` map in this module.
///
/// `step(index, item)` is the whole chain for one item (the caller composes
/// the stages). Dispatch is by **per-worker deques with work stealing**
/// ([`StealRange`]): the index space is pre-split into
/// one contiguous block per worker — zero scheduling traffic and perfect
/// locality while the load is balanced — and a worker that runs dry steals
/// about half of the richest victim's remainder, so the `farm` skeleton's
/// unevenly sized items still balance. The owner claims `grain` consecutive
/// indices per dip into its own deque. Results come back in input order.
///
/// `threads` is the scheduler's cap for *this* batch and **counts the
/// caller**: the calling thread is worker 0 and `threads − 1` tickets are
/// offered to `pool` (at most one per pool worker, and never more workers
/// than grain blocks). A block whose ticket no helper claims in time is
/// simply stolen by whoever runs dry first — in the limit the caller runs
/// the whole batch, which is also what happens with `threads <= 1`.
///
/// # Panics
/// Propagates the first panic raised by `step`, after every helper that
/// joined in has finished; the pool itself survives.
pub fn par_pipeline<T, R, F>(
    pool: &ThreadPool,
    items: Vec<T>,
    threads: usize,
    grain: usize,
    step: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let grain = grain.max(1);
    let workers = threads.min(pool.size() + 1).min(n.div_ceil(grain));
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| step(i, x))
            .collect();
    }

    struct Shared<'s, T, R, F> {
        items: Vec<Mutex<Option<T>>>,
        out: Vec<Mutex<Option<R>>>,
        /// One deque per worker; worker `w` owns `ranges[w]` and steals
        /// from the others when it runs dry.
        ranges: Vec<StealRange>,
        grain: usize,
        step: &'s F,
    }
    impl<T: Send, R: Send, F: Fn(usize, T) -> R + Sync> Shared<'_, T, R, F> {
        fn run(&self, range: std::ops::Range<usize>) {
            for i in range {
                // The guard drops before `step` runs, so a panicking
                // step never poisons a lock.
                let x = self.items[i]
                    .lock()
                    .expect("scl-exec: poisoned pipeline slot")
                    .take()
                    .expect("scl-exec: pipeline item claimed twice");
                let r = (self.step)(i, x);
                *self.out[i].lock().expect("scl-exec: poisoned result slot") = Some(r);
            }
        }
        fn drain(&self, me: usize) {
            loop {
                if let Some(r) = self.ranges[me].take_front(self.grain) {
                    self.run(r);
                    continue;
                }
                // own deque dry: steal about half of the richest
                // victim's remainder, then work it off our own deque so
                // it stays stealable in turn
                let victim = (0..self.ranges.len())
                    .filter(|&v| v != me)
                    .map(|v| (self.ranges[v].remaining(), v))
                    .max();
                match victim {
                    Some((rem, v)) if rem > 0 => {
                        if let Some(stolen) = self.ranges[v].steal_back(usize::MAX) {
                            self.ranges[me].refill(stolen);
                        }
                        // a lost steal race just re-scans for a victim
                    }
                    _ => break, // every deque empty: batch fully claimed
                }
            }
        }
    }

    let shared = Shared {
        items: items.into_iter().map(|x| Mutex::new(Some(x))).collect(),
        out: (0..n).map(|_| Mutex::new(None)).collect(),
        ranges: (0..workers)
            .map(|w| StealRange::new(w * n / workers, (w + 1) * n / workers))
            .collect(),
        grain,
        step: &step,
    };

    let job: &(dyn Fn(usize) + Sync) = &|me| shared.drain(me);
    // SAFETY: `job` borrows `shared` (and through it `step` and the items)
    // from this stack frame, and `run_static_jobs` returns only once every
    // helper ticket is revoked or done, so no worker can outlive `shared`.
    // `drain` returns only when every deque is empty.
    unsafe { run_static_jobs(pool, workers, job) };

    shared
        .out
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("scl-exec: poisoned result slot")
                .expect("scl-exec: pipeline worker skipped an item")
        })
        .collect()
}

/// Move every cell of `items` to its destination — `out[j] =
/// items[src_of[j]]` — with **no clones**: the owned counterpart of a
/// routing table, used by the owned communication skeletons
/// (`total_exchange` bucket transpose, owned rotations over grids) when the
/// cost model says the cell count justifies fanning out.
///
/// `src_of` must be a permutation of `0..items.len()`: a repeated source
/// panics, and (by pigeonhole, since lengths match) every cell is then
/// consumed exactly once. One [`par_pipeline`] dispatch over the
/// destinations, `grain` consecutive indices per claim.
///
/// # Panics
/// Panics if `src_of.len() != items.len()`, if an index is out of range, or
/// if a source index repeats.
pub fn par_permute<T>(
    pool: &ThreadPool,
    items: Vec<T>,
    src_of: &[usize],
    threads: usize,
    grain: usize,
) -> Vec<T>
where
    T: Send,
{
    assert_eq!(
        src_of.len(),
        items.len(),
        "par_permute: routing table length mismatch"
    );
    let cells: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    par_pipeline(pool, src_of.to_vec(), threads, grain, |_, s| {
        cells[s]
            .lock()
            .expect("scl-exec: poisoned permute cell")
            .take()
            .expect("par_permute: source index used twice")
    })
}

/// Wrapper making a raw pointer shareable across pool workers. Soundness is
/// the caller's obligation: workers must touch disjoint ranges only.
struct RawCursor<T>(*mut T);
unsafe impl<T: Send> Sync for RawCursor<T> {}
unsafe impl<T: Send> Send for RawCursor<T> {}
impl<T> RawCursor<T> {
    /// The element pointer `i` places in. (A method, so that closures
    /// capture the `Sync` wrapper and not the bare pointer inside it.)
    ///
    /// # Safety
    /// As `pointer::add`: `i` must stay within the allocation.
    unsafe fn add(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

/// Move-concatenate `parts` into one flat vector — the pool-parallel form
/// of the `gather` skeleton's concat. Each part's elements are *moved*
/// (byte-copied, never cloned, never dropped twice) into a pre-sized
/// destination; one [`par_pipeline`] dispatch with a part per claim, so
/// the memcpys of different parts proceed in parallel.
///
/// On an internal invariant failure (a worker panicking inside the pool
/// plumbing — element moves themselves cannot panic) the destination is
/// abandoned un-lengthened: elements already moved leak rather than
/// double-drop.
pub fn par_concat<T: Send>(pool: &ThreadPool, parts: Vec<Vec<T>>, threads: usize) -> Vec<T> {
    let mut total = 0usize;
    let placed: Vec<(usize, Vec<T>)> = parts
        .into_iter()
        .map(|v| {
            let at = total;
            total += v.len();
            (at, v)
        })
        .collect();
    let mut out: Vec<T> = Vec::with_capacity(total);
    let base = RawCursor(out.as_mut_ptr());
    par_pipeline(pool, placed, threads, 1, |_, (at, mut src)| {
        // SAFETY: destination range [at, at+len) is disjoint per source and
        // within the `total`-element allocation; the source's len is zeroed
        // after the copy so its elements are owned exactly once (by the
        // destination).
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), base.add(at), src.len());
            src.set_len(0);
        }
    });
    // SAFETY: all `total` elements were initialised by the disjoint copies,
    // which happened-before `par_pipeline` returned.
    unsafe { out.set_len(total) };
    out
}

/// Split `data` into the given contiguous `ranges` by **moving** elements —
/// the pool-parallel form of the `partition` skeleton's scatter (block
/// patterns). Ranges must be ascending, contiguous, and cover the whole
/// vector; one [`par_pipeline`] dispatch with a range per claim, each
/// byte-copying its span into a fresh exactly-sized vector.
///
/// # Panics
/// Panics if the ranges are not an ascending contiguous cover of
/// `0..data.len()`.
pub fn par_scatter<T: Send>(
    pool: &ThreadPool,
    mut data: Vec<T>,
    ranges: &[Range<usize>],
    threads: usize,
) -> Vec<Vec<T>> {
    let mut expect = 0usize;
    for r in ranges {
        assert_eq!(
            r.start, expect,
            "par_scatter: ranges must be ascending and contiguous"
        );
        assert!(r.end >= r.start, "par_scatter: inverted range");
        expect = r.end;
    }
    assert_eq!(
        expect,
        data.len(),
        "par_scatter: ranges must cover the data"
    );

    let base = RawCursor(data.as_mut_ptr());
    // SAFETY: zero the length *before* sharing so the moved-from vector can
    // never drop elements that workers copied out; on an internal panic the
    // un-copied elements leak rather than double-drop.
    unsafe { data.set_len(0) };
    par_pipeline(pool, ranges.to_vec(), threads, 1, |_, r| {
        let mut v: Vec<T> = Vec::with_capacity(r.len());
        // SAFETY: source spans are disjoint per range and within the
        // original allocation, whose len was zeroed up front — the copies
        // are the sole owners of the moved elements.
        unsafe {
            std::ptr::copy_nonoverlapping(base.add(r.start), v.as_mut_ptr(), r.len());
            v.set_len(r.len());
        }
        v
    })
    // `data` drops here with len 0: frees the allocation, drops no elements
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    const POLICIES: [ExecPolicy; 3] = [
        ExecPolicy::Sequential,
        ExecPolicy::Threads(2),
        ExecPolicy::Threads(8),
    ];

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        for p in POLICIES {
            let out = par_map(p, &items, |x| x * 2);
            assert_eq!(
                out,
                items.iter().map(|x| x * 2).collect::<Vec<_>>(),
                "{p:?}"
            );
        }
    }

    #[test]
    fn indexed_map_sees_indices() {
        let items = vec!["a", "b", "c"];
        for p in POLICIES {
            let out = par_map_indexed(p, &items, |i, s| format!("{i}{s}"));
            assert_eq!(out, vec!["0a", "1b", "2c"], "{p:?}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        for p in POLICIES {
            let empty: Vec<i32> = vec![];
            assert!(par_map(p, &empty, |x| *x).is_empty());
            assert_eq!(par_map(p, &[42], |x| x + 1), vec![43]);
        }
    }

    #[test]
    fn unbalanced_work_self_schedules() {
        // Heavily skewed task sizes: correctness must not depend on balance.
        let items: Vec<u64> = (0..64).map(|i| if i == 0 { 200_000 } else { 10 }).collect();
        let spin = |n: &u64| -> u64 { (0..*n).fold(0u64, |a, i| a.wrapping_add(i)) };
        let seq = par_map(ExecPolicy::Sequential, &items, spin);
        let par = par_map(ExecPolicy::Threads(4), &items, spin);
        assert_eq!(seq, par);
    }

    #[test]
    fn for_each_runs_every_item() {
        for p in POLICIES {
            let hits = AtomicU64::new(0);
            let items: Vec<u64> = (0..257).collect();
            par_for_each(p, &items, |_, x| {
                hits.fetch_add(*x + 1, Ordering::Relaxed);
            });
            assert_eq!(
                hits.load(Ordering::Relaxed),
                (0..257).map(|x| x + 1).sum::<u64>()
            );
        }
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates_threaded() {
        let items: Vec<u32> = (0..32).collect();
        let _ = par_map(ExecPolicy::Threads(4), &items, |x| {
            if *x == 17 {
                panic!("boom");
            }
            *x
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates_sequential() {
        let items: Vec<u32> = (0..32).collect();
        let _ = par_map(ExecPolicy::Sequential, &items, |x| {
            if *x == 17 {
                panic!("boom");
            }
            *x
        });
    }

    #[test]
    fn borrows_from_environment() {
        let base = [10, 20, 30];
        let items = vec![0usize, 1, 2];
        let out = par_map(ExecPolicy::Threads(2), &items, |i| base[*i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn pipeline_matches_sequential_chain() {
        let pool = ThreadPool::new(4);
        for grain in [1, 2, 7, 100] {
            let items: Vec<u64> = (0..257).collect();
            let out = par_pipeline(&pool, items.clone(), 4, grain, |i, x| {
                // a three-stage chain, fused into one step
                let a = x * 2;
                let b = a + i as u64;
                b * 3
            });
            let expect: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, x)| (x * 2 + i as u64) * 3)
                .collect();
            assert_eq!(out, expect, "grain={grain}");
        }
    }

    #[test]
    fn pipeline_borrows_from_environment() {
        let pool = ThreadPool::new(3);
        let base = [100u64, 200, 300, 400];
        let out = par_pipeline(&pool, vec![0usize, 1, 2, 3], 3, 1, |_, i| base[i] + 1);
        assert_eq!(out, vec![101, 201, 301, 401]);
    }

    #[test]
    fn pipeline_reuses_one_pool_across_calls() {
        let pool = ThreadPool::new(2);
        for round in 0..50u64 {
            let out = par_pipeline(&pool, vec![1u64, 2, 3, 4, 5], 2, 1, |_, x| x + round);
            assert_eq!(
                out,
                vec![1 + round, 2 + round, 3 + round, 4 + round, 5 + round]
            );
        }
        assert_eq!(pool.size(), 2, "pool survives every dispatch");
    }

    #[test]
    fn pipeline_empty_and_single() {
        let pool = ThreadPool::new(2);
        let empty: Vec<u8> = vec![];
        assert!(par_pipeline(&pool, empty, 2, 1, |_, x: u8| x).is_empty());
        assert_eq!(par_pipeline(&pool, vec![9u8], 2, 1, |_, x| x + 1), vec![10]);
    }

    #[test]
    fn pipeline_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let items: Vec<u32> = (0..64).collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_pipeline(&pool, items, 4, 1, |_, x| {
                if x == 33 {
                    panic!("stage blew up");
                }
                x
            })
        }));
        assert!(r.is_err());
        // pool still works afterwards
        assert_eq!(
            par_pipeline(&pool, vec![1u32, 2], 4, 1, |_, x| x * 2),
            vec![2, 4]
        );
    }

    #[test]
    fn pipeline_balances_skewed_items_via_stealing() {
        let pool = ThreadPool::new(4);
        // every heavy item lands in worker 0's initial block: the other
        // workers run dry immediately and must steal — and stealing must
        // still claim each index exactly once
        let items: Vec<u64> = (0..256).map(|i| if i < 32 { 20_000 } else { 1 }).collect();
        let spin = |n: u64| (0..n).fold(0u64, |a, i| a.wrapping_add(i));
        let expect: Vec<u64> = items.iter().map(|&n| spin(n)).collect();
        let out = par_pipeline(&pool, items, 4, 4, |_, n| spin(n));
        assert_eq!(out, expect);
    }

    #[test]
    fn pipeline_thread_cap_overrides_pool_size() {
        // a pool kept large by an earlier dispatch must not over-commit a
        // later batch whose scheduler asked for 1 thread: cap 1 runs
        // inline on the caller
        let pool = ThreadPool::new(4);
        let caller = std::thread::current().id();
        let out = par_pipeline(&pool, vec![1u8, 2, 3], 1, 1, |_, x| {
            assert_eq!(std::thread::current().id(), caller);
            x * 2
        });
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn pipeline_moves_owned_items() {
        let pool = ThreadPool::new(2);
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i; 8]).collect();
        let out = par_pipeline(&pool, items, 2, 2, |_, v| v.iter().sum::<u64>());
        assert_eq!(out, (0..16).map(|i| i * 8).collect::<Vec<u64>>());
    }

    #[test]
    fn permute_matches_indexing_all_widths() {
        let pool = ThreadPool::new(4);
        for n in [0usize, 1, 2, 7, 64, 257] {
            // a deterministic non-trivial permutation: reversal
            let src_of: Vec<usize> = (0..n).map(|j| n - 1 - j).collect();
            let items: Vec<Vec<u64>> = (0..n as u64).map(|i| vec![i; 3]).collect();
            for threads in [1usize, 2, 4] {
                for grain in [1usize, 3] {
                    let out = par_permute(&pool, items.clone(), &src_of, threads, grain);
                    let expect: Vec<Vec<u64>> = src_of.iter().map(|&s| items[s].clone()).collect();
                    assert_eq!(out, expect, "n={n} threads={threads} grain={grain}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "source index used twice")]
    fn permute_rejects_duplicate_sources() {
        let pool = ThreadPool::new(2);
        let _ = par_permute(&pool, vec![1, 2, 3], &[0, 0, 1], 1, 1);
    }

    #[test]
    fn concat_moves_all_elements_in_order() {
        let pool = ThreadPool::new(4);
        for sizes in [vec![], vec![0usize, 0], vec![3, 0, 5, 1], vec![100; 9]] {
            let mut next = 0u64;
            let parts: Vec<Vec<u64>> = sizes
                .iter()
                .map(|&len| {
                    (0..len)
                        .map(|_| {
                            next += 1;
                            next
                        })
                        .collect()
                })
                .collect();
            let expect: Vec<u64> = parts.iter().flatten().copied().collect();
            for threads in [1usize, 3] {
                assert_eq!(
                    par_concat(&pool, parts.clone(), threads),
                    expect,
                    "sizes={sizes:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn concat_handles_heap_elements_without_double_drop() {
        // Strings exercise real drops: a double-drop or a leak-into-drop
        // bug would abort under the allocator long before the assert.
        let pool = ThreadPool::new(3);
        let parts: Vec<Vec<String>> = (0..8)
            .map(|k| (0..50).map(|i| format!("s{k}_{i}")).collect())
            .collect();
        let expect: Vec<String> = parts.iter().flatten().cloned().collect();
        assert_eq!(par_concat(&pool, parts, 3), expect);
    }

    #[test]
    fn scatter_splits_by_ranges() {
        let pool = ThreadPool::new(4);
        let data: Vec<String> = (0..23).map(|i| format!("x{i}")).collect();
        let ranges = [0usize..7, 7..7, 7..20, 20..23];
        for threads in [1usize, 4] {
            let parts = par_scatter(&pool, data.clone(), &ranges, threads);
            assert_eq!(parts.len(), 4);
            for (r, part) in ranges.iter().zip(&parts) {
                assert_eq!(part.as_slice(), &data[r.clone()], "{r:?} threads={threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "cover the data")]
    fn scatter_rejects_partial_cover() {
        let pool = ThreadPool::new(2);
        let _ = par_scatter(&pool, vec![1, 2, 3, 4], &[0..2, 2..3], 2);
    }

    #[test]
    fn scatter_concat_roundtrip() {
        let pool = ThreadPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let ranges = [0..250, 250..251, 251..999, 999..1000];
        let parts = par_scatter(&pool, data.clone(), &ranges, 4);
        assert_eq!(par_concat(&pool, parts, 4), data);
    }

    // ---- the fork-join dispatch itself --------------------------------------

    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    /// Generous bound for "the other side never showed up"; no test waits
    /// this long unless it is about to fail.
    const GIVE_UP: Duration = Duration::from_secs(20);

    fn wait_for(flag: &AtomicBool) {
        let deadline = Instant::now() + GIVE_UP;
        while !flag.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "rendezvous timed out");
            std::thread::yield_now();
        }
    }

    /// Run `f` on its own thread and fail if it has not finished in time —
    /// for tests whose failure mode is a deadlock.
    fn under_watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(GIVE_UP)
            .expect("dispatch deadlocked (or panicked) under the watchdog")
    }

    /// Occupy every worker of `pool` with a job that blocks until the test
    /// meets it at the returned barrier a second time.
    fn pin_every_worker(pool: &ThreadPool) -> Arc<Barrier> {
        let gate = Arc::new(Barrier::new(pool.size() + 1));
        for _ in 0..pool.size() {
            let gate = Arc::clone(&gate);
            pool.execute(move || {
                gate.wait(); // pinned
                gate.wait(); // released
            });
        }
        gate.wait();
        gate
    }

    #[test]
    fn saturated_pool_leaves_the_caller_to_finish_alone() {
        let pool = ThreadPool::new(3);
        let pinned = pin_every_worker(&pool);
        let caller = std::thread::current().id();
        let steps = Arc::new(AtomicUsize::new(0));

        let out = par_pipeline(&pool, (0..64u64).collect(), 4, 1, |_, x| {
            assert_eq!(std::thread::current().id(), caller);
            steps.fetch_add(1, Ordering::SeqCst);
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<u64>>());
        assert_eq!(steps.load(Ordering::SeqCst), 64);

        // the three tickets are still queued behind the blockers; once
        // the workers get to them they must find them revoked
        pinned.wait();
        drop(pool); // drains the queue and joins the workers
        assert_eq!(
            steps.load(Ordering::SeqCst),
            64,
            "a revoked ticket ran the job after the dispatch returned"
        );
    }

    #[test]
    fn nested_dispatch_on_a_saturated_pool_completes() {
        let out = under_watchdog(|| {
            let pool = ThreadPool::new(3);
            let everyone_in = Barrier::new(pool.size() + 1);
            par_pipeline(&pool, (0..4u64).collect(), 4, 1, |_, x| {
                // one item per block: nobody gets past here until the
                // caller and all three workers are inside the outer step
                everyone_in.wait();
                par_pipeline(&pool, (0..16u64).collect(), 4, 1, |_, y| x * 100 + y)
                    .into_iter()
                    .sum::<u64>()
            })
        });
        let inner: u64 = (0..16).sum();
        assert_eq!(out, (0..4u64).map(|x| x * 1600 + inner).collect::<Vec<_>>());
    }

    /// Counts a helper share in and out, unwinding included.
    struct InFlight<'a>(&'a AtomicUsize);
    impl<'a> InFlight<'a> {
        fn enter(n: &'a AtomicUsize) -> Self {
            n.fetch_add(1, Ordering::SeqCst);
            InFlight(n)
        }
    }
    impl Drop for InFlight<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn caller_share_panic_waits_for_claimed_helpers() {
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        let helper_in = AtomicBool::new(false);
        let caller_panicking = AtomicBool::new(false);
        let in_flight = AtomicUsize::new(0);
        let helper_steps = AtomicUsize::new(0);

        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_pipeline(&pool, (0..8u32).collect(), 2, 1, |_, x| {
                if std::thread::current().id() == caller {
                    wait_for(&helper_in);
                    caller_panicking.store(true, Ordering::SeqCst);
                    panic!("caller share blew up");
                }
                let _share = InFlight::enter(&in_flight);
                helper_in.store(true, Ordering::SeqCst);
                // still inside the step while the caller unwinds
                wait_for(&caller_panicking);
                helper_steps.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        assert_eq!(
            r.unwrap_err().downcast_ref::<&str>().copied(),
            Some("caller share blew up")
        );
        assert_eq!(in_flight.load(Ordering::SeqCst), 0, "helper still running");
        // the helper went on to drain what the caller abandoned
        assert_eq!(helper_steps.load(Ordering::SeqCst), 7);
        assert_eq!(
            par_pipeline(&pool, vec![1u32, 2, 3, 4], 2, 1, |_, x| x * 2),
            vec![2, 4, 6, 8]
        );
    }

    #[test]
    fn helper_share_panic_is_reraised_on_the_caller() {
        let pool = ThreadPool::new(1);
        let caller = std::thread::current().id();
        let helper_in = AtomicBool::new(false);
        let in_flight = AtomicUsize::new(0);

        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_pipeline(&pool, (0..8u32).collect(), 2, 1, |_, x| {
                if std::thread::current().id() == caller {
                    wait_for(&helper_in);
                    return x;
                }
                let _share = InFlight::enter(&in_flight);
                helper_in.store(true, Ordering::SeqCst);
                panic!("helper share blew up");
            })
        }));
        assert_eq!(
            r.unwrap_err().downcast_ref::<&str>().copied(),
            Some("helper share blew up")
        );
        assert_eq!(in_flight.load(Ordering::SeqCst), 0, "helper still running");
        assert_eq!(
            par_pipeline(&pool, vec![1u32, 2, 3, 4], 2, 1, |_, x| x * 2),
            vec![2, 4, 6, 8]
        );
    }

    #[test]
    fn back_to_back_dispatches_claim_each_index_once() {
        let pool = ThreadPool::new(2);
        let claims: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        for round in 0..100_000u64 {
            let out = par_pipeline(&pool, (0..8u64).collect(), 3, 1, |i, x| {
                claims[i].fetch_add(1, Ordering::Relaxed);
                x + round
            });
            assert_eq!(out, (round..round + 8).collect::<Vec<u64>>());
            for (i, c) in claims.iter().enumerate() {
                assert_eq!(c.swap(0, Ordering::Relaxed), 1, "round {round} index {i}");
            }
        }
    }

    #[test]
    fn shared_pool_grows_to_the_widest_dispatch() {
        assert!(ThreadPool::shared(2).size() >= 1);
        assert!(ThreadPool::shared(5).size() >= 4);
        // never shrinks, and a narrower ask is served by the same pool
        assert!(ThreadPool::shared(2).size() >= 4);
        assert!(std::ptr::eq(ThreadPool::shared(2), ThreadPool::shared(5)));
    }
}
