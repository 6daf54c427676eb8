#![warn(missing_docs)]
//! # scl-exec — execution substrate for SCL skeletons
//!
//! The paper's skeletons were "implemented in a problem independent manner"
//! as templates over Fortran + MPI. In this reproduction the equivalent
//! substrate is this crate: a small, from-scratch threaded runtime (no
//! `rayon`) that the skeleton layer uses to apply sequential base-language
//! fragments to the partitions of a distributed array — really in parallel
//! when the host has cores to spare, or sequentially for deterministic
//! debugging.
//!
//! Every data-parallel skeleton reaches the host through **one
//! dispatcher** ([`scope`]): a caller-participating fork-join on a
//! persistent [`ThreadPool`]. The calling thread is worker 0 and starts on
//! the work at once; the other `threads − 1` shares are offered to the
//! pool as *revocable tickets*, taken back by the caller if it drains the
//! work first. No skeleton call creates a thread, a dispatch too small to
//! be worth a wake-up costs one enqueue, and a dispatch from inside a
//! step can always finish on its own caller. On top of it:
//!
//! * [`par_pipeline`] — carry a batch of owned items through a whole
//!   per-item stage chain over per-worker stealing deques ([`StealRange`]):
//!   a run of fused plan stages costs one dispatch, and each partition
//!   stays resident on one worker with no materialised intermediates.
//! * [`par_map`] / [`par_map_indexed`] / [`par_for_each`] — the borrowed
//!   form the eager skeletons use: the same dispatch over `&T` items on
//!   the process-wide pool ([`ThreadPool::shared`]), picked by an
//!   [`ExecPolicy`].
//! * [`par_permute`] / [`par_concat`] / [`par_scatter`] — the *zero-copy
//!   communication* path: move cells along a routing table, move-concatenate
//!   parts, and move-split a vector into contiguous ranges, with no clones.
//!   These back the owned communication skeletons (`total_exchange` bucket
//!   transpose, `gather` concat, `partition` scatter) when the cost model
//!   says the payload justifies fanning out.
//! * [`ThreadPool`] — the persistent workers themselves, also usable
//!   directly for fire-and-forget `'static` jobs
//!   ([`ThreadPool::execute`]). Idle workers spin, then yield, then sleep
//!   on a condvar that releases the queue lock; a submitter pays a wake-up
//!   only when nobody awake is free to take its job.
//!   [`ThreadPool::live_workers`] counts the workers alive in the process.
//!
//! For *streaming* execution (the `scl-stream` crate) one queue family
//! lives here — lock-free rings — and every stage-to-stage link is built
//! from it:
//!
//! * a cache-padded SPSC ring ([`ring`], [`spsc`]) and its MPMC
//!   composition into per-producer / per-consumer lane matrices
//!   ([`ring_mpmc`], [`mpmc`]), with spin-then-park waiting ([`Backoff`],
//!   [`backoff`]): links whose hot path takes no lock and whose idle path
//!   costs nothing;
//! * per-lane gauges ([`RingSender::lane_len`],
//!   [`RingReceiver::lane_is_full`]) and prefix routing
//!   ([`RingSender::try_send_within`]) — what a stream graph needs to
//!   serve each lane of a farm with run-to-empty jobs on
//!   [`ThreadPool::shared`] and to widen or narrow the farm by storing
//!   one integer;
//! * [`StealRange`] ([`deque`]) — the per-worker stealing deques under
//!   [`par_pipeline`];
//! * [`Bounded`] — the textbook mutex+condvar channel, carried by no
//!   runtime path: the baseline the benchmark ladder's
//!   `exec.bounded_ns_per_msg` measures beside `exec.ring_ns_per_msg`.
//!
//! Every thread this crate starts belongs to a [`ThreadPool`], and every
//! runtime above it — fork-join dispatch and stream farms alike — runs on
//! the one shared pool, so a process serving many graphs holds the widest
//! demand's worth of workers, not a set per graph.
//!
//! An [`ExecPolicy`] selects between sequential, threaded, and
//! cost-driven execution (fan out only work measured at [`FAN_OUT_NS`] or
//! more) and is threaded through `scl-core`'s context type. Host
//! parallelism is queried once per process ([`host_threads`]) — never per
//! call. [`ExecPolicy::from_env`] reads the `SCL_EXEC_POLICY`
//! pin the CI matrix sets, erroring (never silently falling back) on
//! unrecognised values.

pub mod backoff;
pub mod chan;
pub mod deque;
pub mod mpmc;
pub mod policy;
pub mod pool;
pub mod scope;
pub mod spsc;

pub use backoff::{Backoff, ParkSlot};
pub use chan::{Bounded, TryRecv};
pub use deque::StealRange;
pub use mpmc::{ring_mpmc, ring_mpmc_parked, RingReceiver, RingSender};
pub use policy::{host_threads, ExecPolicy, FAN_OUT_NS, POLICY_ENV_VAR};
pub use pool::ThreadPool;
pub use scope::{
    par_concat, par_for_each, par_map, par_map_indexed, par_permute, par_pipeline, par_scatter,
};
pub use spsc::{ring, SpscReceiver, SpscSender};
