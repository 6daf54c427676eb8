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
//!   directly for `'static` jobs with joinable [`JobHandle`]s. Idle
//!   workers spin, then yield, then sleep on a condvar that releases the
//!   queue lock; a submitter pays a wake-up only when nobody awake is free
//!   to take its job.
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
//! * [`spawn_farm_workers`] — long-lived farm replicas on a
//!   [`ThreadPool`], each owning a private ring pair and looping
//!   `recv → work → send`; admission control lives in the pump's routing
//!   ([`RingSender::try_send_within`]), so an autonomic controller widens
//!   or narrows a farm by storing one integer;
//! * [`StealRange`] ([`deque`]) — the per-worker stealing deques under
//!   [`par_pipeline`];
//! * [`Bounded`] — the textbook mutex+condvar channel, carried by no
//!   runtime path: the baseline the benchmark ladder's
//!   `exec.bounded_ns_per_msg` measures beside `exec.ring_ns_per_msg`.
//!
//! When several such runtimes share one process — a multi-tenant plan
//! service running many graphs against one machine — [`ThreadBudget`]
//! accounts for the host-wide thread capacity: consumers claim
//! [`BudgetLease`]s and cap their width gates at the grant, keeping the
//! sum of *active* replicas across all tenants within the host budget
//! whenever capacity is claimable. The budget accounts rather than
//! enforces: a consumer that chooses to run after an empty grant (as a
//! serving layer may, preferring admission over stalling) does so at
//! minimum width, outside the accounted total.
//!
//! An [`ExecPolicy`] selects between sequential, threaded, and
//! cost-model-driven execution and is threaded through `scl-core`'s context
//! type. Host parallelism is queried once per process ([`host_threads`]) —
//! never per call. [`ExecPolicy::from_env`] reads the `SCL_EXEC_POLICY`
//! pin the CI matrix sets, erroring (never silently falling back) on
//! unrecognised values.

pub mod backoff;
pub mod budget;
pub mod chan;
pub mod deque;
pub mod mpmc;
pub mod policy;
pub mod pool;
pub mod scope;
pub mod spsc;
pub mod stage;

pub use backoff::{Backoff, ParkSlot};
pub use budget::{BudgetLease, ThreadBudget};
pub use chan::{Bounded, TryRecv};
pub use deque::StealRange;
pub use mpmc::{ring_mpmc, ring_mpmc_parked, RingReceiver, RingSender};
pub use policy::{host_threads, ExecPolicy, POLICY_ENV_VAR};
pub use pool::{JobHandle, ThreadPool};
pub use scope::{
    par_concat, par_for_each, par_map, par_map_indexed, par_permute, par_pipeline, par_scatter,
};
pub use spsc::{ring, SpscReceiver, SpscSender};
pub use stage::spawn_farm_workers;
