//! A persistent thread pool: fire-and-forget `'static` jobs on
//! long-lived workers.
//!
//! [`ThreadPool`] owns workers fed from one shared queue, and
//! [`ThreadPool::execute`] is its one submit path: a boxed closure into
//! the queue, no result channel. A panic inside a job is caught by the
//! worker and dropped, never killing it; a caller that wants a result or
//! a panic report sends it back itself. The fork-join dispatch
//! ([`crate::scope`]) offers its helper tickets this way, and a stream
//! graph's farm lanes are served by run-to-empty jobs on the same pool.
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
//! skeletons dispatch onto and the farm jobs run on: contexts and graphs
//! come and go (one per request or cached plan in the serving layers) but
//! the workers persist, so no skeleton call or graph build spawns a
//! thread once the pool has grown to the widest demand seen.
//! [`ThreadPool::live_workers`] counts the workers of every pool alive
//! in the process.

use crate::backoff::Backoff;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Workers alive across every pool in the process; see
/// [`ThreadPool::live_workers`].
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

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
                // a job that panics must not take the worker down
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

    /// The process-wide pool the data-parallel skeletons dispatch onto
    /// and stream farms run their jobs on, grown (never shrunk) so that a
    /// dispatch asking for `threads` threads — the caller plus
    /// `threads − 1` helpers — finds that many workers. Growing is the
    /// only time a skeleton call or a farm spawns a thread.
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
            // counted before the spawn, uncounted as the loop returns: the
            // gauge never misses a thread that can still run a job
            LIVE_WORKERS.fetch_add(1, Ordering::Relaxed);
            let handle = std::thread::Builder::new()
                .name(format!("scl-worker-{}", workers.len()))
                .spawn(move || {
                    shared.worker_loop();
                    LIVE_WORKERS.fetch_sub(1, Ordering::Relaxed);
                })
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

    /// Worker threads alive right now across every pool in the process —
    /// the shared pool and any built with [`ThreadPool::new`] (a read-only
    /// gauge; a dropped pool's workers leave it as they are joined).
    pub fn live_workers() -> usize {
        LIVE_WORKERS.load(Ordering::Relaxed)
    }

    /// Fire-and-forget: queue `job` for the next free worker. No handle,
    /// no result channel; a panic inside `job` is caught by the worker and
    /// dropped.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
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
    use std::sync::mpsc::channel;

    #[test]
    fn executes_submitted_jobs() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.size(), 4);
        let (tx, rx) = channel();
        pool.execute(move || tx.send(21 * 2).unwrap());
        assert_eq!(rx.recv().unwrap(), 42);
    }

    #[test]
    fn size_is_at_least_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
        let (tx, rx) = channel();
        pool.execute(move || tx.send(1).unwrap());
        assert_eq!(rx.recv().unwrap(), 1);
    }

    #[test]
    fn panicking_job_leaves_its_worker_alive() {
        let pool = ThreadPool::new(1);
        let (tx, rx) = channel::<u32>();
        pool.execute(move || {
            let _tx = tx; // dropped by the unwind: the receiver sees it
            panic!("job exploded");
        });
        assert!(rx.recv().is_err(), "the panicking job sent nothing");
        // the pool's only worker survived and keeps serving
        let (tx, rx) = channel();
        pool.execute(move || tx.send(7).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn drop_joins_workers_after_draining() {
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..50 {
                let hits = hits.clone();
                pool.execute(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            // pool dropped here: must drain all 50 jobs before joining
        }
        assert_eq!(hits.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn many_concurrent_submitters() {
        let pool = Arc::new(ThreadPool::new(4));
        let (tx, rx) = channel();
        let mut joins = vec![];
        for t in 0..8u64 {
            let pool = pool.clone();
            let tx = tx.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let tx = tx.clone();
                    pool.execute(move || tx.send(i + t).unwrap());
                }
            }));
        }
        drop(tx);
        for j in joins {
            j.join().unwrap();
        }
        // every sender clone lives in a job: the channel closes once all
        // 400 jobs have run
        let total: u64 = rx.iter().sum();
        let expect: u64 = (0..8u64)
            .map(|t| (0..50u64).map(|i| i + t).sum::<u64>())
            .sum();
        assert_eq!(total, expect);
    }
}
