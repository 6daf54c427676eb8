//! A persistent thread pool: joinable `'static` jobs and the
//! fire-and-forget lane the fork-join dispatch rides.
//!
//! [`ThreadPool`] owns long-lived workers fed from one shared queue.
//! [`ThreadPool::submit`] returns a [`JobHandle`] that can be joined for
//! the job's result (the stream runtime's stage crews live this way);
//! panics inside a job are caught and surfaced at join time, never
//! killing a worker. `ThreadPool::execute` is the bare lane under it:
//! one boxed closure into the queue, no result channel — what
//! [`crate::scope`] uses to offer helper tickets.
//!
//! The queue is a plain mutex-guarded deque; what makes it cheap is when
//! the condvar beside it is *not* touched. An idle worker first searches
//! awake — the [`Backoff`] ladder, then yields for `LINGER` — counted in
//! the queue's `searching`, and only then sleeps on the condvar (which
//! releases the lock while it waits, so a submitter never queues behind a
//! sleeper). A submitter signals the condvar only when somebody is asleep
//! **and** the queue is longer than the number of searching workers, so
//! back-to-back submissions cost no system call.
//!
//! [`ThreadPool::shared`] is the process-wide pool the data-parallel
//! skeletons dispatch onto: contexts come and go (one per request in the
//! serving layers) but the workers persist, so no skeleton call spawns a
//! thread once the pool has grown to the widest dispatch seen.

use crate::backoff::Backoff;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle worker keeps yield-polling after its [`Backoff`]
/// ladder, before it sleeps. Waking a sleeper costs the *submitter* a
/// system call (about 10 µs on a 2-vCPU VM, against about 1 µs for a whole
/// 8-part dispatch that finds its helper awake), so — the usual
/// spin-then-park bargain — a worker stays up for a few such wake-ups'
/// worth of time: a run of small dispatches pays for one wake-up, not one
/// each, and an idle pool still burns nothing.
const LINGER: Duration = Duration::from_micros(50);

/// The queue proper; everything here is guarded by [`Shared::queue`].
struct Queue {
    jobs: VecDeque<Job>,
    /// Idle workers that are still awake, polling [`Shared::queued`]. Each
    /// of them re-checks `jobs` under the lock before it sleeps, so a job
    /// pushed while one is counted here is picked up without a wake-up.
    searching: usize,
    /// Workers asleep on [`Shared::wake`].
    sleepers: usize,
    /// Set by `Drop`: workers drain what is queued, then exit.
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Racy mirror of `jobs.len()`, so a searching worker polls without
    /// touching the lock. Only a hint: a worker's decision to sleep and a
    /// submitter's decision to wake are both taken under the lock.
    queued: AtomicUsize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        // no code path panics while holding this lock (push, pop and
        // counter updates), so a poisoned queue is still a valid queue
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn pop(&self, q: &mut Queue) -> Option<Job> {
        let job = q.jobs.pop_front();
        self.queued.store(q.jobs.len(), Ordering::Relaxed);
        job
    }

    fn worker_loop(&self) {
        let mut backoff = Backoff::new();
        let mut idle_since = None;
        let mut q = self.lock();
        loop {
            if let Some(job) = self.pop(&mut q) {
                drop(q);
                // `submit` catches inside the job to report the payload; a
                // bare `execute` job that panics must not take the worker
                // down
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                backoff.reset();
                idle_since = None;
                q = self.lock();
                continue;
            }
            if q.closed {
                return;
            }
            // nothing queued: search awake for a while — the backoff
            // ladder, then yields until LINGER has passed since the last
            // job — so submitters need not pay for a wake-up
            q.searching += 1;
            drop(q);
            let mut lingering = true;
            while lingering && self.queued.load(Ordering::Relaxed) == 0 {
                if backoff.snooze() {
                    std::thread::yield_now();
                    lingering = idle_since.get_or_insert_with(Instant::now).elapsed() < LINGER;
                }
            }
            q = self.lock();
            q.searching -= 1;
            if !lingering {
                // sleep until a submit or shutdown (the loop absorbs
                // spurious wake-ups); the check and the count are under
                // the lock the submitter pushes under, so no job is missed
                while q.jobs.is_empty() && !q.closed {
                    q.sleepers += 1;
                    q = self.wake.wait(q).unwrap_or_else(|e| e.into_inner());
                    q.sleepers -= 1;
                }
            }
        }
    }
}

/// A pool of persistent worker threads.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    size: AtomicUsize,
}

/// The result of a submitted job: either its return value or the panic
/// payload it raised.
pub struct JobHandle<R> {
    rx: Receiver<std::thread::Result<R>>,
}

impl<R> JobHandle<R> {
    /// Wait for the job and return its result; a panicking job yields
    /// `Err(payload)` just like [`std::thread::JoinHandle::join`].
    pub fn join(self) -> std::thread::Result<R> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(Box::new("scl-exec: job dropped before completion") as Box<dyn Any + Send>)
        })
    }

    /// Non-blocking poll: `Some(result)` once the job has finished — or
    /// once its result channel died, which yields the same "job dropped
    /// before completion" panic payload [`JobHandle::join`] synthesizes.
    /// (Mapping disconnection to `None`, as this used to, turns every
    /// poll loop over a dead job into an infinite spin.)
    pub fn try_join(&self) -> Option<std::thread::Result<R>>
    where
        R: Send,
    {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(Box::new(
                "scl-exec: job dropped before completion",
            ) as Box<dyn Any + Send>)),
        }
    }
}

impl ThreadPool {
    /// Spawn a pool with `size` workers (at least 1).
    pub fn new(size: usize) -> ThreadPool {
        let pool = ThreadPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue {
                    jobs: VecDeque::new(),
                    searching: 0,
                    sleepers: 0,
                    closed: false,
                }),
                wake: Condvar::new(),
                queued: AtomicUsize::new(0),
            }),
            workers: Mutex::new(Vec::new()),
            size: AtomicUsize::new(0),
        };
        pool.grow_to(size.max(1));
        pool
    }

    /// The process-wide pool the data-parallel skeletons dispatch onto,
    /// grown (never shrunk) so that a dispatch asking for `threads`
    /// threads — the caller plus `threads − 1` helpers — finds that many
    /// workers. Growing is the only time a skeleton call spawns a thread.
    pub fn shared(threads: usize) -> &'static ThreadPool {
        static POOL: OnceLock<ThreadPool> = OnceLock::new();
        let helpers = threads.saturating_sub(1).max(1);
        let pool = POOL.get_or_init(|| ThreadPool::new(helpers));
        if pool.size() < helpers {
            pool.grow_to(helpers);
        }
        pool
    }

    /// Spawn workers until there are `size` of them.
    fn grow_to(&self, size: usize) {
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        while workers.len() < size {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("scl-worker-{}", workers.len()))
                .spawn(move || shared.worker_loop())
                .expect("failed to spawn scl-exec worker");
            workers.push(handle);
        }
        self.size.store(workers.len(), Ordering::Relaxed);
    }

    /// Number of worker threads. (A gauge: the shared pool may be growing
    /// concurrently, and an older value only means fewer helpers asked.)
    pub fn size(&self) -> usize {
        self.size.load(Ordering::Relaxed)
    }

    /// Fire-and-forget: queue `job` for the next free worker. No handle,
    /// no result channel; a panic inside `job` is caught by the worker and
    /// dropped.
    pub(crate) fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let wake = {
            let mut q = self.shared.lock();
            q.jobs.push_back(Box::new(job));
            self.shared.queued.store(q.jobs.len(), Ordering::Relaxed);
            // every searching worker will take one queued job before it
            // can sleep; only jobs beyond those need a sleeper woken
            q.sleepers > 0 && q.jobs.len() > q.searching
        };
        if wake {
            self.shared.wake.notify_one();
        }
    }

    /// Submit a job, returning a handle to its eventual result.
    pub fn submit<R, F>(&self, f: F) -> JobHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let (rtx, rrx) = sync_channel::<std::thread::Result<R>>(1);
        self.execute(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let _ = rtx.send(result);
        });
        JobHandle { rx: rrx }
    }

    /// Submit a batch and wait for all results, in submission order.
    ///
    /// # Panics
    /// Re-raises the first job panic encountered.
    pub fn submit_all<R, F, I>(&self, jobs: I) -> Vec<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
        I: IntoIterator<Item = F>,
    {
        let handles: Vec<JobHandle<R>> = jobs.into_iter().map(|f| self.submit(f)).collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("size", &self.size())
            .finish()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing lets each worker drain what is queued and exit.
        self.shared.lock().closed = true;
        self.shared.wake.notify_all();
        let workers = self.workers.get_mut().unwrap_or_else(|e| e.into_inner());
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_submitted_jobs() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.size(), 4);
        let h = pool.submit(|| 21 * 2);
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn size_is_at_least_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
        assert_eq!(pool.submit(|| 1).join().unwrap(), 1);
    }

    #[test]
    fn submit_all_preserves_order() {
        let pool = ThreadPool::new(3);
        let jobs: Vec<_> = (0..100).map(|i| move || i * i).collect();
        let out = pool.submit_all(jobs);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn job_panic_is_caught_at_join() {
        let pool = ThreadPool::new(2);
        let h = pool.submit(|| -> u32 { panic!("job exploded") });
        assert!(h.join().is_err());
        // the worker survived and keeps serving:
        assert_eq!(pool.submit(|| 7).join().unwrap(), 7);
    }

    #[test]
    #[should_panic(expected = "job exploded")]
    fn submit_all_reraises_panics() {
        let pool = ThreadPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("job exploded"))];
        let _ = pool.submit_all(jobs);
    }

    #[test]
    fn drop_joins_workers_after_draining() {
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..50 {
                let hits = hits.clone();
                // fire-and-forget handles: results discarded
                let _ = pool.submit(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            // pool dropped here: must drain all 50 jobs before joining
        }
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn try_join_eventually_ready() {
        let pool = ThreadPool::new(1);
        let h = pool.submit(|| 5u32);
        // the property is "ready eventually", not "ready within N yields":
        // poll until a deadline generous enough for a loaded host
        let deadline = Instant::now() + Duration::from_secs(10);
        let val = loop {
            if let Some(r) = h.try_join() {
                break r.unwrap();
            }
            assert!(Instant::now() < deadline, "job not ready after 10 s");
            std::thread::yield_now();
        };
        assert_eq!(val, 5);
    }

    /// Regression (issue 7): a dropped result channel used to come back
    /// as `None` from `try_join`, indistinguishable from "still running"
    /// — a poll loop on such a job spins forever. It must surface the
    /// same panic payload `join` synthesizes.
    #[test]
    fn try_join_reports_dropped_job_instead_of_none() {
        let (tx, rx) = sync_channel::<std::thread::Result<u32>>(1);
        drop(tx); // the job's result can never arrive
        let h = JobHandle { rx };
        let result = h
            .try_join()
            .expect("disconnection must be reported, not polled forever");
        let payload = result.expect_err("a lost job is an error, not a value");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("scl-exec: job dropped before completion")
        );
        // and join agrees with try_join on the payload
        let (tx, rx) = sync_channel::<std::thread::Result<u32>>(1);
        drop(tx);
        let payload = JobHandle { rx }.join().unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("scl-exec: job dropped before completion")
        );
    }

    #[test]
    fn many_concurrent_submitters() {
        let pool = Arc::new(ThreadPool::new(4));
        let mut joins = vec![];
        for t in 0..8 {
            let pool = pool.clone();
            joins.push(std::thread::spawn(move || {
                let jobs: Vec<_> = (0..50u64).map(|i| move || i + t).collect();
                pool.submit_all(jobs).iter().sum::<u64>()
            }));
        }
        let total: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        let expect: u64 = (0..8u64)
            .map(|t| (0..50u64).map(|i| i + t).sum::<u64>())
            .sum();
        assert_eq!(total, expect);
    }
}
