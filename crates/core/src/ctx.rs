//! The SCL evaluation context.
//!
//! [`Scl`] bundles everything a skeleton needs to run: the simulated
//! [`Machine`] (virtual clocks + cost model + counters) and the host
//! [`ExecPolicy`] (sequential or threaded execution of the sequential
//! base-language fragments). Every skeleton is a method on `Scl`, grouped
//! by the paper's taxonomy:
//!
//! * configuration skeletons — this module ([`Scl::partition`],
//!   [`Scl::gather`], [`Scl::distribution2`], …)
//! * elementary skeletons — [`crate::skeletons::elementary`]
//! * communication skeletons — [`crate::skeletons::comm`]
//! * computational skeletons — [`crate::skeletons::compute`]

use crate::array::ParArray;
use crate::bytes::Bytes;
use crate::config;
use crate::error::{Result, SclError};
use crate::partition::{self, Pattern};
use crate::seq::Matrix;
use scl_exec::{par_concat, par_scatter, ExecPolicy, ThreadPool};
use scl_machine::{CostModel, Machine, Time, Work};
use std::any::{Any, TypeId};
use std::collections::{HashMap, VecDeque};

/// Default cap on the bytes the recycled-buffer pool may keep resident
/// (64 MiB): enough for double-buffered sweeps over sizeable fields,
/// small enough that a one-off wide phase cannot pin memory forever.
pub const DEFAULT_BUFFER_CAP_BYTES: usize = 64 << 20;

/// One recycled allocation: a cleared `Vec<T>` behind `dyn Any`, with the
/// recycle stamp tying it to its slot in the pool's eviction order and
/// its capacity-bytes remembered for accounting.
struct PooledBuf {
    stamp: u64,
    bytes: usize,
    buf: Box<dyn Any + Send>,
}

/// Type-erased recycled-buffer storage behind [`Scl::take_buf`] /
/// [`Scl::recycle_buf`]: cleared `Vec<T>`s kept so iterative plans
/// (jacobi's sweep, `iter_until` bodies) double-buffer instead of
/// allocating fresh vectors every iteration.
///
/// Takes and recycles are O(1): buffers live in per-type stacks
/// (`slots`, newest at the back — the buffer most likely cache-warm).
/// Resident bytes are capped (`cap`) with **oldest-first** eviction, so a
/// one-off phase of giant buffers ages out instead of pinning memory for
/// the life of the context; the global age order is the stamped `order`
/// queue, whose entries go stale when a buffer is taken and are lazily
/// skipped (and periodically compacted) rather than searched for.
pub(crate) struct BufPool {
    /// Per-type stacks: front = oldest of that type, back = newest.
    slots: HashMap<TypeId, VecDeque<PooledBuf>>,
    /// Global recycle order, oldest first. May contain stale entries for
    /// buffers already taken; an entry is live iff its stamp still heads
    /// its type's stack front when eviction reaches it.
    order: VecDeque<(u64, TypeId)>,
    next_stamp: u64,
    buffers: usize,
    resident: usize,
    cap: usize,
}

impl Default for BufPool {
    fn default() -> BufPool {
        BufPool {
            slots: HashMap::new(),
            order: VecDeque::new(),
            next_stamp: 0,
            buffers: 0,
            resident: 0,
            cap: DEFAULT_BUFFER_CAP_BYTES,
        }
    }
}

impl BufPool {
    /// Evict oldest-first until resident bytes are within the cap.
    ///
    /// Invariant making the stale check sound: `order` holds type markers
    /// in global stamp order and per-type stacks are stamp-sorted, so
    /// when a marker `(stamp, ty)` reaches the front, the oldest live
    /// buffer of `ty` has `front.stamp >= stamp` — equality means the
    /// marker's buffer still exists (evict it), a greater stamp means it
    /// was taken (skip the stale marker).
    fn evict_to_cap(&mut self) {
        while self.resident > self.cap {
            let (stamp, ty) = self
                .order
                .pop_front()
                .expect("resident bytes imply order entries");
            let Some(stack) = self.slots.get_mut(&ty) else {
                continue; // stale: every buffer of this type was taken
            };
            if stack.front().is_some_and(|e| e.stamp == stamp) {
                let dropped = stack.pop_front().expect("front just observed");
                self.resident -= dropped.bytes;
                self.buffers -= 1;
            }
        }
    }

    /// Drop stale `order` markers once they outnumber live buffers 2:1 —
    /// keeps the queue O(live buffers) without a per-take search.
    fn compact_order(&mut self) {
        if self.order.len() < 2 * self.buffers + 32 {
            return;
        }
        let live: std::collections::HashSet<u64> = self
            .slots
            .values()
            .flat_map(|stack| stack.iter().map(|e| e.stamp))
            .collect();
        self.order.retain(|(stamp, _)| live.contains(stamp));
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool")
            .field("buffers", &self.buffers)
            .field("resident_bytes", &self.resident)
            .field("cap_bytes", &self.cap)
            .finish()
    }
}

/// How local (base-language) computation is charged to the virtual clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeasureMode {
    /// Charge nothing for un-costed closures (communication is still
    /// charged). Right for pure data-flow tests.
    None,
    /// Time each closure on the host and charge `host_seconds * scale`
    /// to the owning processor. `scale` maps host speed to target speed
    /// (e.g. a 1995 cell is several hundred times slower than one modern
    /// core).
    WallClock {
        /// Host-seconds → target-seconds multiplier.
        scale: f64,
    },
}

/// The SCL coordination context.
#[derive(Debug)]
pub struct Scl {
    /// The simulated machine being charged.
    pub machine: Machine,
    /// Host execution policy for partition-local work.
    pub policy: ExecPolicy,
    /// Charging mode for un-costed local closures.
    pub measure: MeasureMode,
    /// Recycled-buffer pool for double-buffered iteration — host-side
    /// perf state, deliberately **not** cleared by [`Scl::reset`].
    bufs: BufPool,
}

impl Scl {
    /// A context over an explicit machine, sequential host execution, no
    /// wall-clock charging.
    pub fn new(machine: Machine) -> Scl {
        Scl {
            machine,
            policy: ExecPolicy::Sequential,
            measure: MeasureMode::None,
            bufs: BufPool::default(),
        }
    }

    /// An AP1000-like machine with `procs` cells.
    pub fn ap1000(procs: usize) -> Scl {
        Scl::new(Machine::ap1000(procs))
    }

    /// A hypercube machine of `procs` (a power of two) with the given cost
    /// model.
    pub fn hypercube(procs: usize, model: CostModel) -> Scl {
        Scl::new(Machine::hypercube(procs, model))
    }

    /// Builder-style: set the host execution policy.
    pub fn with_policy(mut self, policy: ExecPolicy) -> Scl {
        self.policy = policy;
        self
    }

    /// Builder-style: set the local-work charging mode.
    pub fn with_measure(mut self, measure: MeasureMode) -> Scl {
        self.measure = measure;
        self
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.machine.nprocs()
    }

    /// Predicted elapsed virtual time so far.
    pub fn makespan(&self) -> Time {
        self.machine.makespan()
    }

    /// Reset clocks/counters/trace for a fresh run.
    ///
    /// Host-side performance state — the recycled-buffer pool — deliberately
    /// survives: it models nothing on the simulated machine, and the whole
    /// point of recycling is to carry warm buffers across runs. (The worker
    /// pool is process-wide, [`ThreadPool::shared`], and outlives every
    /// context.) Use [`Scl::clear_buffers`] to drop the
    /// recycled memory explicitly.
    pub fn reset(&mut self) {
        self.machine.reset();
    }

    // ---- recycled buffers --------------------------------------------------

    /// Take a buffer with room for `capacity` elements, reusing the most
    /// recently recycled one of this type when available (cleared,
    /// capacity retained — the steady state of a double-buffered loop
    /// allocates nothing). Pair with [`Scl::recycle_buf`].
    #[must_use]
    pub fn take_buf<T: Send + 'static>(&mut self, capacity: usize) -> Vec<T> {
        let ty = TypeId::of::<Vec<T>>();
        // newest of this type first: the most recently recycled matching
        // buffer is the most likely to still be cache-warm. Its marker in
        // the eviction order goes stale and is skipped/compacted lazily.
        if let Some(entry) = self.bufs.slots.get_mut(&ty).and_then(VecDeque::pop_back) {
            self.bufs.resident -= entry.bytes;
            self.bufs.buffers -= 1;
            let mut v = *entry
                .buf
                .downcast::<Vec<T>>()
                .expect("buffer pool entries are keyed by their exact type");
            v.reserve(capacity);
            return v;
        }
        Vec::with_capacity(capacity)
    }

    /// Return a buffer to the pool for a later [`Scl::take_buf`]. The
    /// contents are dropped (`clear`); the allocation is kept while the
    /// pool's resident bytes stay within [`Scl::buffer_cap`] — past the
    /// cap the **oldest** pooled buffers are evicted first (and a single
    /// buffer larger than the whole cap is simply dropped).
    pub fn recycle_buf<T: Send + 'static>(&mut self, mut buf: Vec<T>) {
        buf.clear();
        let bytes = buf.capacity() * std::mem::size_of::<T>();
        if bytes == 0 || bytes > self.bufs.cap {
            return;
        }
        let ty = TypeId::of::<Vec<T>>();
        let stamp = self.bufs.next_stamp;
        self.bufs.next_stamp += 1;
        self.bufs.slots.entry(ty).or_default().push_back(PooledBuf {
            stamp,
            bytes,
            buf: Box::new(buf),
        });
        self.bufs.order.push_back((stamp, ty));
        self.bufs.buffers += 1;
        self.bufs.resident += bytes;
        self.bufs.evict_to_cap();
        self.bufs.compact_order();
    }

    /// Number of buffers currently parked in the recycle pool (all types).
    pub fn pooled_buffers(&self) -> usize {
        self.bufs.buffers
    }

    /// Bytes currently resident in the recycle pool (the capacity bytes of
    /// every parked buffer) — the pool-size metric the cap enforces.
    pub fn pooled_bytes(&self) -> usize {
        self.bufs.resident
    }

    /// The pool's resident-byte cap (default
    /// [`DEFAULT_BUFFER_CAP_BYTES`]).
    pub fn buffer_cap(&self) -> usize {
        self.bufs.cap
    }

    /// Builder-style: set the recycled-buffer pool's resident-byte cap.
    /// Evicts oldest-first immediately if already above it; `0` disables
    /// recycling entirely.
    pub fn with_buffer_cap(mut self, bytes: usize) -> Scl {
        self.set_buffer_cap(bytes);
        self
    }

    /// Set the recycled-buffer pool's resident-byte cap (see
    /// [`Scl::with_buffer_cap`]).
    pub fn set_buffer_cap(&mut self, bytes: usize) {
        self.bufs.cap = bytes;
        self.bufs.evict_to_cap();
    }

    /// Drop every recycled buffer ([`Scl::reset`] keeps them on purpose).
    pub fn clear_buffers(&mut self) {
        self.bufs.slots.clear();
        self.bufs.order.clear();
        self.bufs.buffers = 0;
        self.bufs.resident = 0;
    }

    // ---- configuration skeletons -------------------------------------------

    /// Partition a sequential array across the machine (the data starts on
    /// processor 0 and is scattered — the paper's Fig. 2(a)→(b) step).
    ///
    /// # Panics
    /// Panics if the pattern needs more parts than the machine has
    /// processors.
    #[must_use]
    pub fn partition<T: Clone + Bytes + Send>(
        &mut self,
        pattern: Pattern,
        data: &[T],
    ) -> ParArray<Vec<T>> {
        self.partition_owned(pattern, data.to_vec())
    }

    /// [`Scl::partition`] that **consumes** the host data, moving elements
    /// into the parts instead of cloning them. Block patterns additionally
    /// move their contiguous ranges on the persistent pool
    /// ([`scl_exec::par_scatter`]) when the cost model says the payload
    /// justifies it.
    #[must_use]
    pub fn partition_owned<T: Clone + Bytes + Send>(
        &mut self,
        pattern: Pattern,
        data: Vec<T>,
    ) -> ParArray<Vec<T>> {
        self.try_partition_owned(pattern, data)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Scl::partition_owned`] returning [`SclError::MachineTooSmall`]
    /// instead of panicking when the pattern needs more parts than the
    /// machine has processors — the entry point fused execution uses.
    pub fn try_partition_owned<T: Clone + Bytes + Send>(
        &mut self,
        pattern: Pattern,
        data: Vec<T>,
    ) -> Result<ParArray<Vec<T>>> {
        pattern.check();
        let threads = match pattern {
            Pattern::Block(p) => {
                let per_part = data.len() / p * std::mem::size_of::<T>();
                self.comm_schedule(p, per_part).0
            }
            _ => 1,
        };
        let out = if threads > 1 {
            let ranges = partition::block_ranges(data.len(), pattern.parts());
            ParArray::from_parts(par_scatter(
                ThreadPool::shared(threads),
                data,
                &ranges,
                threads,
            ))
        } else {
            partition::partition_owned(pattern, data)
        };
        self.try_check_fits(out.len())?;
        let per_part = out.parts().iter().map(Bytes::bytes).max().unwrap_or(0);
        self.machine.scatter(out.procs(), per_part);
        Ok(out)
    }

    /// Partition a matrix across the machine.
    #[must_use]
    pub fn partition2<T: Clone + Bytes>(
        &mut self,
        pattern: Pattern,
        m: &Matrix<T>,
    ) -> ParArray<Matrix<T>> {
        let out = partition::partition2(pattern, m);
        self.check_fits(out.len());
        let per_part = out.parts().iter().map(Bytes::bytes).max().unwrap_or(0);
        self.machine.scatter(out.procs(), per_part);
        out
    }

    /// Collect a distributed array back to processor 0 (the paper's
    /// `gather` skeleton), concatenating parts in part order.
    pub fn gather<T: Clone + Bytes + Send>(&mut self, a: &ParArray<Vec<T>>) -> Vec<T> {
        self.gather_owned(a.clone())
    }

    /// [`Scl::gather`] that **consumes** the distributed array, moving
    /// elements into the result instead of cloning them. The concat itself
    /// runs on the persistent pool ([`scl_exec::par_concat`]) when the cost
    /// model says the moved bytes justify fanning out.
    pub fn gather_owned<T: Bytes + Send>(&mut self, a: ParArray<Vec<T>>) -> Vec<T> {
        let per_part = a.parts().iter().map(Bytes::bytes).max().unwrap_or(0);
        self.machine.gather(a.procs(), per_part);
        let (threads, _) = self.comm_schedule(a.len(), per_part);
        let parts = a.into_parts();
        if threads <= 1 {
            let total = parts.iter().map(Vec::len).sum();
            let mut out = Vec::with_capacity(total);
            for v in parts {
                out.extend(v);
            }
            out
        } else {
            par_concat(ThreadPool::shared(threads), parts, threads)
        }
    }

    /// Pattern-aware gather: exact inverse of [`Scl::partition`].
    pub fn gather_pattern<T: Clone + Bytes>(
        &mut self,
        pattern: Pattern,
        a: &ParArray<Vec<T>>,
    ) -> Vec<T> {
        let per_part = a.parts().iter().map(Bytes::bytes).max().unwrap_or(0);
        self.machine.gather(a.procs(), per_part);
        partition::gather(pattern, a)
    }

    /// Pattern-aware matrix gather: exact inverse of [`Scl::partition2`].
    pub fn gather2<T: Clone + Bytes>(
        &mut self,
        pattern: Pattern,
        a: &ParArray<Matrix<T>>,
    ) -> Matrix<T> {
        let per_part = a.parts().iter().map(Bytes::bytes).max().unwrap_or(0);
        self.machine.gather(a.procs(), per_part);
        partition::gather2(pattern, a)
    }

    /// The paper's `distribution` skeleton for two arrays: partition each
    /// with its own strategy and align the results into a configuration.
    #[must_use]
    pub fn distribution2<A: Clone + Bytes + Send, B: Clone + Bytes + Send>(
        &mut self,
        pa: Pattern,
        a: &[A],
        pb: Pattern,
        b: &[B],
    ) -> ParArray<(Vec<A>, Vec<B>)> {
        let da = self.partition(pa, a);
        let db = self.partition(pb, b);
        config::align(da, db)
    }

    /// The paper's `redistribution` skeleton: apply one bulk-movement
    /// function per component of a configuration. The closures receive this
    /// context so they can use communication skeletons (and be charged).
    #[must_use]
    pub fn redistribution2<A, B>(
        &mut self,
        cfg: ParArray<(A, B)>,
        fa: impl FnOnce(&mut Scl, ParArray<A>) -> ParArray<A>,
        fb: impl FnOnce(&mut Scl, ParArray<B>) -> ParArray<B>,
    ) -> ParArray<(A, B)> {
        let (da, db) = config::unalign(cfg);
        let da = fa(self, da);
        let db = fb(self, db);
        config::align(da, db)
    }

    /// Divide a configuration into sub-configurations (processor groups);
    /// pure renaming of processors, so cost-free.
    #[must_use]
    pub fn split<T>(&mut self, pattern: Pattern, a: ParArray<T>) -> ParArray<ParArray<T>> {
        config::split(pattern, a)
    }

    /// Flatten a nested configuration; cost-free.
    #[must_use]
    pub fn combine<T>(&mut self, nested: ParArray<ParArray<T>>) -> ParArray<T> {
        config::combine(nested)
    }

    // ---- internals ---------------------------------------------------------

    /// Assert that a configuration of `parts` parts fits on this machine.
    pub fn check_fits(&self, parts: usize) {
        if let Err(e) = self.try_check_fits(parts) {
            panic!("{e}");
        }
    }

    /// [`Scl::check_fits`] as a `Result` — fused execution reports
    /// oversized configurations as [`SclError::MachineTooSmall`] instead of
    /// panicking.
    pub fn try_check_fits(&self, parts: usize) -> Result<()> {
        if parts <= self.nprocs() {
            Ok(())
        } else {
            Err(SclError::MachineTooSmall {
                needed: parts,
                procs: self.nprocs(),
            })
        }
    }

    /// `(threads, grain)` for the local data movement of a communication
    /// barrier moving `parts` pieces of about `per_part_bytes` each, under
    /// the current [`ExecPolicy`]: sequential stays inline, threaded and
    /// cost-driven policies consult
    /// [`CostModel::comm_decision`] so
    /// small payloads never pay a pool dispatch. Charging is unaffected —
    /// the simulated machine sees the same routes either way.
    pub(crate) fn comm_schedule(&self, parts: usize, per_part_bytes: usize) -> (usize, usize) {
        let cap = match self.policy {
            ExecPolicy::Sequential => return (1, 1),
            ExecPolicy::Threads(t) | ExecPolicy::CostDriven { threads: t } => t,
        };
        let d = self
            .machine
            .model()
            .comm_decision(parts, per_part_bytes, cap);
        (d.threads.min(parts.max(1)), d.grain)
    }

    /// Charge local work to the owner of part `i` of `a`.
    pub(crate) fn charge_part<T>(&mut self, a: &ParArray<T>, i: usize, work: Work, label: &str) {
        let p = a.procs()[i];
        self.machine.compute(p, work, label);
    }

    /// Convert a measured host duration into charged work per the measure
    /// mode.
    pub(crate) fn measured_work(&self, host_seconds: f64) -> Work {
        match self.measure {
            MeasureMode::None => Work::NONE,
            MeasureMode::WallClock { scale } => Work::seconds(host_seconds * scale),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_machine::Topology;

    fn unit_ctx(n: usize) -> Scl {
        Scl::new(Machine::new(
            Topology::FullyConnected { procs: n },
            CostModel::unit(),
        ))
    }

    #[test]
    fn constructors() {
        let s = Scl::ap1000(8);
        assert_eq!(s.nprocs(), 8);
        let s = Scl::hypercube(8, CostModel::unit());
        assert_eq!(s.nprocs(), 8);
        let s = unit_ctx(2).with_policy(ExecPolicy::Threads(2));
        assert_eq!(s.policy, ExecPolicy::Threads(2));
    }

    #[test]
    fn partition_charges_scatter() {
        let mut s = unit_ctx(4);
        let data: Vec<i64> = (0..16).collect();
        let d = s.partition(Pattern::Block(4), &data);
        assert_eq!(d.len(), 4);
        assert!(s.makespan() > Time::ZERO);
        assert_eq!(s.machine.metrics.gathers, 1); // scatter counted as gather-family
    }

    #[test]
    fn gather_roundtrip_charges() {
        let mut s = unit_ctx(4);
        let data: Vec<i64> = (0..10).collect();
        let d = s.partition(Pattern::Block(4), &data);
        let t1 = s.makespan();
        let back = s.gather_pattern(Pattern::Block(4), &d);
        assert_eq!(back, data);
        assert!(s.makespan() > t1);
    }

    #[test]
    fn gather_concat_order() {
        let mut s = unit_ctx(2);
        let a = ParArray::from_parts(vec![vec![1, 2], vec![3]]);
        assert_eq!(s.gather(&a), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "machine has 2")]
    fn partition_too_wide_panics() {
        let mut s = unit_ctx(2);
        let _ = s.partition(Pattern::Block(4), &[1, 2, 3, 4]);
    }

    #[test]
    fn matrix_partition_roundtrip() {
        let mut s = unit_ctx(6);
        let m = Matrix::from_fn(4, 6, |r, c| (r * 6 + c) as i64);
        for pat in [
            Pattern::ColBlock(3),
            Pattern::RowBlock(2),
            Pattern::Grid { pr: 2, pc: 3 },
        ] {
            let d = s.partition2(pat, &m);
            assert_eq!(s.gather2(pat, &d), m, "{pat:?}");
        }
    }

    #[test]
    fn distribution2_aligns() {
        let mut s = unit_ctx(3);
        let cfg = s.distribution2(
            Pattern::Block(3),
            &[1, 2, 3],
            Pattern::Cyclic(3),
            &[4, 5, 6],
        );
        assert_eq!(cfg.len(), 3);
        assert_eq!(*cfg.part(0), (vec![1], vec![4]));
    }

    #[test]
    fn redistribution2_applies_components() {
        let mut s = unit_ctx(2);
        let cfg = config::align(
            ParArray::from_parts(vec![1, 2]),
            ParArray::from_parts(vec![10, 20]),
        );
        let out = s.redistribution2(
            cfg,
            |_, a| a.map_parts(|x| x + 1),
            |_, b| b.map_parts(|x| x * 2),
        );
        assert_eq!(out.to_vec(), vec![(2, 20), (3, 40)]);
    }

    #[test]
    fn measured_work_modes() {
        let s = unit_ctx(1);
        assert_eq!(s.measured_work(2.0), Work::NONE);
        let s = s.with_measure(MeasureMode::WallClock { scale: 3.0 });
        assert_eq!(s.measured_work(2.0), Work::seconds(6.0));
    }

    #[test]
    fn reset_zeroes_clocks() {
        let mut s = unit_ctx(2);
        let _ = s.partition(Pattern::Block(2), &[1i64, 2]);
        s.reset();
        assert_eq!(s.makespan(), Time::ZERO);
    }

    // ---- recycled-buffer pool ----------------------------------------------

    #[test]
    fn buf_pool_retains_capacity_across_recycle() {
        let mut s = unit_ctx(1);
        let mut v: Vec<u64> = s.take_buf(100);
        v.extend(0..100);
        let ptr = v.as_ptr();
        let cap = v.capacity();
        s.recycle_buf(v);
        assert_eq!(s.pooled_buffers(), 1);
        assert_eq!(s.pooled_bytes(), cap * std::mem::size_of::<u64>());
        let v2: Vec<u64> = s.take_buf(50);
        assert!(v2.is_empty(), "recycled buffers come back cleared");
        assert!(v2.capacity() >= cap);
        assert_eq!(v2.as_ptr(), ptr, "same allocation reused");
        assert_eq!(s.pooled_bytes(), 0);
    }

    #[test]
    fn buf_pool_keeps_types_apart() {
        let mut s = unit_ctx(1);
        s.recycle_buf::<u64>(Vec::with_capacity(16));
        s.recycle_buf::<f32>(Vec::with_capacity(8));
        assert_eq!(s.pooled_buffers(), 2);
        // a take of a third type allocates fresh and leaves both parked
        let v: Vec<String> = s.take_buf(4);
        assert!(v.capacity() >= 4);
        assert_eq!(s.pooled_buffers(), 2);
        // matching takes hit their own slots
        let a: Vec<u64> = s.take_buf(1);
        assert!(a.capacity() >= 16);
        let b: Vec<f32> = s.take_buf(1);
        assert!(b.capacity() >= 8);
        assert_eq!(s.pooled_buffers(), 0);
    }

    #[test]
    fn buf_pool_survives_reset_but_not_clear() {
        let mut s = unit_ctx(1);
        s.recycle_buf::<u8>(Vec::with_capacity(32));
        s.reset();
        assert_eq!(s.pooled_buffers(), 1, "reset keeps warm buffers");
        s.clear_buffers();
        assert_eq!(s.pooled_buffers(), 0);
        assert_eq!(s.pooled_bytes(), 0);
    }

    #[test]
    fn buf_pool_cap_evicts_oldest_first() {
        // cap fits exactly two 128-byte buffers
        let mut s = unit_ctx(1).with_buffer_cap(256);
        assert_eq!(s.buffer_cap(), 256);
        let mk = |tag: u8| {
            let mut v: Vec<u8> = Vec::with_capacity(128);
            v.push(tag);
            v
        };
        let (a, b, c) = (mk(1), mk(2), mk(3));
        let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_ptr());
        s.recycle_buf(a);
        s.recycle_buf(b);
        assert_eq!(s.pooled_bytes(), 256);
        s.recycle_buf(c); // over cap: evicts `a`, the oldest
        assert_eq!(s.pooled_buffers(), 2);
        assert!(s.pooled_bytes() <= 256);
        // takes come back newest-first: c then b, never a
        let x: Vec<u8> = s.take_buf(1);
        let y: Vec<u8> = s.take_buf(1);
        assert_eq!(x.as_ptr(), pc);
        assert_eq!(y.as_ptr(), pb);
        assert_ne!(x.as_ptr(), pa);
        let z: Vec<u8> = s.take_buf(1);
        assert_ne!(z.as_ptr(), pa, "evicted allocation is gone");
    }

    #[test]
    fn buf_pool_eviction_skips_stale_markers_from_takes() {
        // cap fits three 100-byte buffers
        let mut s = unit_ctx(1).with_buffer_cap(300);
        s.recycle_buf::<u8>(Vec::with_capacity(100)); // stamp 0
        let y: Vec<f32> = Vec::with_capacity(25); // 100 bytes
        let py = y.as_ptr();
        s.recycle_buf(y); // stamp 1
        let _taken: Vec<u8> = s.take_buf(1); // stamp 0's marker goes stale
        let x2: Vec<u8> = Vec::with_capacity(100);
        let px2 = x2.as_ptr();
        s.recycle_buf(x2); // stamp 2
        s.recycle_buf::<u16>(Vec::with_capacity(50)); // stamp 3, resident 300
        assert_eq!(s.pooled_bytes(), 300);
        s.recycle_buf::<u32>(Vec::with_capacity(25)); // stamp 4: over cap
                                                      // the stale u8 marker (stamp 0) must be skipped — the oldest *live*
                                                      // buffer is the f32 one (stamp 1), not the newer u8 (stamp 2)
        assert_eq!(s.pooled_buffers(), 3);
        assert_eq!(s.pooled_bytes(), 300);
        let back_u8: Vec<u8> = s.take_buf(1);
        assert_eq!(back_u8.as_ptr(), px2, "newer u8 buffer survived");
        let back_f32: Vec<f32> = s.take_buf(1);
        assert_ne!(back_f32.as_ptr(), py, "oldest live buffer was evicted");
    }

    #[test]
    fn buf_pool_rejects_oversized_and_empty_buffers() {
        let mut s = unit_ctx(1).with_buffer_cap(64);
        s.recycle_buf::<u8>(Vec::with_capacity(128)); // larger than the whole cap
        s.recycle_buf::<u8>(Vec::new()); // zero capacity
        assert_eq!(s.pooled_buffers(), 0);
        assert_eq!(s.pooled_bytes(), 0);
    }

    #[test]
    fn buf_pool_shrinking_cap_evicts_immediately() {
        let mut s = unit_ctx(1);
        for _ in 0..4 {
            s.recycle_buf::<u8>(Vec::with_capacity(100));
        }
        assert_eq!(s.pooled_bytes(), 400);
        s.set_buffer_cap(150);
        assert_eq!(s.pooled_buffers(), 1);
        assert_eq!(s.pooled_bytes(), 100);
        s.set_buffer_cap(0); // disables recycling
        assert_eq!(s.pooled_buffers(), 0);
        s.recycle_buf::<u8>(Vec::with_capacity(100));
        assert_eq!(s.pooled_buffers(), 0);
    }
}
