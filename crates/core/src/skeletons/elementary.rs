//! Elementary skeletons: `map`, `imap`, `fold`, `scan` and friends.
//!
//! These are the paper's §2.2 data-parallel basics. Each comes in two
//! flavours:
//!
//! * the plain form (`map`, `imap`, …) runs an opaque closure per part and
//!   charges local time according to the context's [`MeasureMode`]
//!   (nothing, or measured host wall time);
//! * the `_costed` form takes a closure that *reports its own work*
//!   (`(result, Work)`), which instrumented sequential kernels use for
//!   deterministic, machine-independent cost accounting.
//!
//! Host execution goes through `scl-exec`, so with a threaded
//! [`ExecPolicy`](scl_exec::ExecPolicy) the parts really are processed in
//! parallel.
//!
//! [`MeasureMode`]: crate::ctx::MeasureMode

use crate::array::{GridShape, ParArray};
use crate::bytes::Bytes;
use crate::ctx::Scl;
use scl_exec::{par_map_indexed, par_pipeline, ThreadPool};
use scl_machine::{ProcId, Work};
use std::time::Instant;

impl Scl {
    /// Apply `f` to every part: the paper's
    /// `map f ⟨x₀,…,xₙ⟩ = ⟨f x₀,…,f xₙ⟩`.
    #[must_use]
    pub fn map<T, R>(&mut self, a: &ParArray<T>, f: impl Fn(&T) -> R + Sync) -> ParArray<R>
    where
        T: Sync,
        R: Send,
    {
        self.imap(a, |_, x| f(x))
    }

    /// Index-aware map: the paper's
    /// `imap f ⟨x₀,…,xₙ⟩ = ⟨f 0 x₀,…,f n xₙ⟩`.
    #[must_use]
    pub fn imap<T, R>(&mut self, a: &ParArray<T>, f: impl Fn(usize, &T) -> R + Sync) -> ParArray<R>
    where
        T: Sync,
        R: Send,
    {
        let timed: Vec<(R, f64)> = par_map_indexed(self.policy, a.parts(), |i, x| {
            let t0 = Instant::now();
            let r = f(i, x);
            (r, t0.elapsed().as_secs_f64())
        });
        let mut parts = Vec::with_capacity(timed.len());
        for (i, (r, secs)) in timed.into_iter().enumerate() {
            let w = self.measured_work(secs);
            self.charge_part(a, i, w, "map");
            parts.push(r);
        }
        ParArray::like(a, parts)
    }

    /// Map with self-reported cost: `f` returns `(result, work)` and the
    /// work is charged to the owning processor.
    #[must_use]
    pub fn map_costed<T, R>(
        &mut self,
        a: &ParArray<T>,
        f: impl Fn(&T) -> (R, Work) + Sync,
    ) -> ParArray<R>
    where
        T: Sync,
        R: Send,
    {
        self.imap_costed(a, |_, x| f(x))
    }

    /// Index-aware [`Scl::map_costed`].
    #[must_use]
    pub fn imap_costed<T, R>(
        &mut self,
        a: &ParArray<T>,
        f: impl Fn(usize, &T) -> (R, Work) + Sync,
    ) -> ParArray<R>
    where
        T: Sync,
        R: Send,
    {
        let results: Vec<(R, Work)> = par_map_indexed(self.policy, a.parts(), |i, x| f(i, x));
        let mut parts = Vec::with_capacity(results.len());
        for (i, (r, w)) in results.into_iter().enumerate() {
            self.charge_part(a, i, w, "map");
            parts.push(r);
        }
        ParArray::like(a, parts)
    }

    /// Element-wise combination of two conforming arrays.
    #[must_use]
    pub fn zip_with<A, B, R>(
        &mut self,
        a: &ParArray<A>,
        b: &ParArray<B>,
        f: impl Fn(&A, &B) -> R + Sync,
    ) -> ParArray<R>
    where
        A: Sync,
        B: Sync,
        R: Send,
    {
        assert!(a.conforms(b), "zip_with needs conforming arrays");
        let results: Vec<R> = par_map_indexed(self.policy, a.parts(), |i, x| f(x, b.part(i)));
        // zip_with charges nothing locally (use map_costed over an aligned
        // configuration when cost matters).
        ParArray::like(a, results)
    }

    /// Tree reduction over the parts: the paper's
    /// `fold ⊕ ⟨x₀,…,xₙ⟩ = x₀ ⊕ … ⊕ xₙ`. `op` **must be associative**
    /// or the result is undefined (the paper says exactly the same).
    ///
    /// Charges a log-depth reduction; per-phase local combine work can be
    /// supplied with [`Scl::fold_costed`].
    ///
    /// # Panics
    /// Panics on an empty array.
    pub fn fold<T>(&mut self, a: &ParArray<T>, op: impl Fn(&T, &T) -> T) -> T
    where
        T: Clone + Bytes,
    {
        self.fold_costed(a, op, Work::NONE)
    }

    /// [`Scl::fold`] with explicit per-phase combine work.
    pub fn fold_costed<T>(&mut self, a: &ParArray<T>, op: impl Fn(&T, &T) -> T, combine: Work) -> T
    where
        T: Clone + Bytes,
    {
        assert!(!a.is_empty(), "fold of an empty ParArray is undefined");
        let bytes = a.parts().iter().map(Bytes::bytes).max().unwrap_or(0);
        self.machine.reduce(a.procs(), bytes, combine);
        let mut acc = a.part(0).clone();
        for x in &a.parts()[1..] {
            acc = op(&acc, x);
        }
        acc
    }

    /// Inclusive parallel prefix: the paper's
    /// `scan ⊕ ⟨x₀,x₁,…⟩ = ⟨x₀, x₀⊕x₁, …⟩`. `op` must be associative.
    #[must_use]
    pub fn scan<T>(&mut self, a: &ParArray<T>, op: impl Fn(&T, &T) -> T) -> ParArray<T>
    where
        T: Clone + Bytes,
    {
        self.scan_costed(a, op, Work::NONE)
    }

    /// [`Scl::scan`] with explicit per-phase combine work.
    #[must_use]
    pub fn scan_costed<T>(
        &mut self,
        a: &ParArray<T>,
        op: impl Fn(&T, &T) -> T,
        combine: Work,
    ) -> ParArray<T>
    where
        T: Clone + Bytes,
    {
        assert!(!a.is_empty(), "scan of an empty ParArray is undefined");
        let bytes = a.parts().iter().map(Bytes::bytes).max().unwrap_or(0);
        self.machine.scan(a.procs(), bytes, combine);
        let mut parts = Vec::with_capacity(a.len());
        let mut acc = a.part(0).clone();
        parts.push(acc.clone());
        for x in &a.parts()[1..] {
            acc = op(&acc, x);
            parts.push(acc.clone());
        }
        ParArray::like(a, parts)
    }

    // ---- owned (consuming) maps --------------------------------------------
    //
    // The owned maps take the array by value and hand each part to the
    // closure **by value**, so iterative kernels can mutate buffers in
    // place or return their spent input for recycling
    // ([`Scl::recycle_buf`]) instead of cloning every element each sweep.
    // Charging matches the borrowed forms exactly. Threaded execution is
    // the same [`scl_exec::par_pipeline`] dispatch the borrowed maps use,
    // at the same thread count.

    /// [`Scl::map`] consuming the array: `f` receives each part by value.
    #[must_use]
    pub fn map_owned<T, R>(&mut self, a: ParArray<T>, f: impl Fn(T) -> R + Sync) -> ParArray<R>
    where
        T: Send,
        R: Send,
    {
        let (pairs, procs, shape) = self.run_owned(a, |_, x| {
            let t0 = Instant::now();
            let r = f(x);
            (r, t0.elapsed().as_secs_f64())
        });
        let mut parts = Vec::with_capacity(pairs.len());
        for (i, (r, secs)) in pairs.into_iter().enumerate() {
            let w = self.measured_work(secs);
            self.machine.compute(procs[i], w, "map");
            parts.push(r);
        }
        ParArray::from_raw(parts, procs, shape)
    }

    /// [`Scl::map_costed`] consuming the array.
    #[must_use]
    pub fn map_costed_owned<T, R>(
        &mut self,
        a: ParArray<T>,
        f: impl Fn(T) -> (R, Work) + Sync,
    ) -> ParArray<R>
    where
        T: Send,
        R: Send,
    {
        self.imap_costed_owned(a, |_, x| f(x))
    }

    /// [`Scl::imap_costed`] consuming the array.
    #[must_use]
    pub fn imap_costed_owned<T, R>(
        &mut self,
        a: ParArray<T>,
        f: impl Fn(usize, T) -> (R, Work) + Sync,
    ) -> ParArray<R>
    where
        T: Send,
        R: Send,
    {
        let (pairs, procs, shape) = self.run_owned(a, f);
        let mut parts = Vec::with_capacity(pairs.len());
        for (i, (r, w)) in pairs.into_iter().enumerate() {
            self.machine.compute(procs[i], w, "map");
            parts.push(r);
        }
        ParArray::from_raw(parts, procs, shape)
    }

    /// Dispatch an owned per-part step over the policy's threads; the
    /// results come back raw, in part order, for the caller to charge.
    fn run_owned<T, R>(
        &self,
        a: ParArray<T>,
        step: impl Fn(usize, T) -> R + Sync,
    ) -> (Vec<R>, Vec<ProcId>, GridShape)
    where
        T: Send,
        R: Send,
    {
        // at the policy's thread count, as the borrowed maps are: an owned
        // map has no op to remember its measured work in, so even
        // `CostDriven` fans it out
        let threads = self.policy.effective_threads(a.len());
        let (parts, procs, shape) = a.into_raw();
        let results = if threads <= 1 {
            parts
                .into_iter()
                .enumerate()
                .map(|(i, x)| step(i, x))
                .collect()
        } else {
            par_pipeline(ThreadPool::shared(threads), parts, threads, 1, step)
        };
        (results, procs, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::MeasureMode;
    use scl_exec::ExecPolicy;
    use scl_machine::{CostModel, Machine, Time, Topology};

    fn unit_ctx(n: usize) -> Scl {
        Scl::new(Machine::new(
            Topology::FullyConnected { procs: n },
            CostModel::unit(),
        ))
    }

    #[test]
    fn map_applies_per_part() {
        let mut s = unit_ctx(4);
        let a = ParArray::from_parts(vec![1, 2, 3, 4]);
        let b = s.map(&a, |x| x * 10);
        assert_eq!(b.to_vec(), vec![10, 20, 30, 40]);
        assert!(b.conforms(&a));
    }

    #[test]
    fn map_threaded_matches_sequential() {
        let a = ParArray::from_parts((0..64).collect::<Vec<i64>>());
        let mut s1 = unit_ctx(64);
        let r1 = s1.map(&a, |x| x * x);
        let mut s2 = unit_ctx(64).with_policy(ExecPolicy::Threads(4));
        let r2 = s2.map(&a, |x| x * x);
        assert_eq!(r1, r2);
    }

    #[test]
    fn imap_sees_index() {
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts(vec![0, 0, 0]);
        let b = s.imap(&a, |i, x| x + i as i32);
        assert_eq!(b.to_vec(), vec![0, 1, 2]);
    }

    #[test]
    fn map_costed_charges_owner() {
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts(vec![1u64, 2, 3]);
        let _ = s.map_costed(&a, |x| (*x, Work::cmps(*x)));
        assert_eq!(s.machine.clocks.get(0).as_secs(), 1.0);
        assert_eq!(s.machine.clocks.get(1).as_secs(), 2.0);
        assert_eq!(s.machine.clocks.get(2).as_secs(), 3.0);
        assert_eq!(s.machine.metrics.cmps, 6);
    }

    #[test]
    fn map_uncharged_without_wallclock() {
        let mut s = unit_ctx(2);
        let a = ParArray::from_parts(vec![1, 2]);
        let _ = s.map(&a, |x| x + 1);
        assert_eq!(s.makespan(), Time::ZERO);
    }

    #[test]
    fn map_wallclock_charges_time() {
        let mut s = unit_ctx(2).with_measure(MeasureMode::WallClock { scale: 1.0 });
        let a = ParArray::from_parts(vec![200_000u64, 200_000]);
        let _ = s.map(&a, |n| (0..*n).fold(0u64, |acc, i| acc.wrapping_add(i)));
        assert!(s.makespan() > Time::ZERO);
    }

    #[test]
    fn zip_with_combines() {
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts(vec![1, 2, 3]);
        let b = ParArray::from_parts(vec![10, 20, 30]);
        let c = s.zip_with(&a, &b, |x, y| x + y);
        assert_eq!(c.to_vec(), vec![11, 22, 33]);
    }

    #[test]
    #[should_panic(expected = "conforming")]
    fn zip_with_rejects_mismatch() {
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts(vec![1, 2, 3]);
        let b = ParArray::from_parts(vec![10, 20]);
        let _ = s.zip_with(&a, &b, |x, y| x + y);
    }

    #[test]
    fn fold_sums() {
        let mut s = unit_ctx(4);
        let a = ParArray::from_parts(vec![1i64, 2, 3, 4]);
        assert_eq!(s.fold(&a, |x, y| x + y), 10);
        assert_eq!(s.machine.metrics.reductions, 1);
        assert!(s.makespan() > Time::ZERO); // reduction phases charged
    }

    #[test]
    fn fold_singleton_is_free() {
        let mut s = unit_ctx(1);
        let a = ParArray::from_parts(vec![7i64]);
        assert_eq!(s.fold(&a, |x, y| x + y), 7);
        assert_eq!(s.makespan(), Time::ZERO); // group of 1: no comm
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn fold_empty_panics() {
        let mut s = unit_ctx(1);
        let a: ParArray<i64> = ParArray::from_parts(vec![]);
        let _ = s.fold(&a, |x, y| x + y);
    }

    #[test]
    fn scan_prefixes() {
        let mut s = unit_ctx(4);
        let a = ParArray::from_parts(vec![1i64, 2, 3, 4]);
        let b = s.scan(&a, |x, y| x + y);
        assert_eq!(b.to_vec(), vec![1, 3, 6, 10]);
        assert_eq!(s.machine.metrics.scans, 1);
    }

    #[test]
    fn fold_scan_agree_on_last() {
        let mut s = unit_ctx(5);
        let a = ParArray::from_parts(vec![3i64, 1, 4, 1, 5]);
        let total = s.fold(&a, |x, y| x + y);
        let prefix = s.scan(&a, |x, y| x + y);
        assert_eq!(*prefix.part(4), total);
    }

    #[test]
    fn owned_maps_match_borrowed_and_charge_identically() {
        let a = ParArray::with_placement((0..8u64).collect(), (0..8).rev().collect());
        for policy in [ExecPolicy::Sequential, ExecPolicy::Threads(4)] {
            let mut s1 = unit_ctx(8).with_policy(policy);
            let borrowed = s1.imap_costed(&a, |i, x| (x * 2 + i as u64, Work::cmps(*x)));
            let mut s2 = unit_ctx(8).with_policy(policy);
            let owned = s2.imap_costed_owned(a.clone(), |i, x| (x * 2 + i as u64, Work::cmps(x)));
            assert_eq!(borrowed, owned, "{policy:?}");
            assert_eq!(s1.machine.metrics, s2.machine.metrics, "{policy:?}");
            assert_eq!(s1.makespan(), s2.makespan(), "{policy:?}");
        }
    }

    /// Blocks every arriving part until two distinct threads have been
    /// seen: with the caller stuck in its first part, only a pool helper
    /// can be the second.
    #[derive(Default)]
    struct Rendezvous {
        seen: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
        two: std::sync::Condvar,
    }

    impl Rendezvous {
        fn arrive(&self) {
            let mut seen = self.seen.lock().unwrap();
            seen.insert(std::thread::current().id());
            self.two.notify_all();
            let (_seen, timeout) = self
                .two
                .wait_timeout_while(seen, std::time::Duration::from_secs(20), |s| s.len() < 2)
                .unwrap();
            assert!(!timeout.timed_out(), "no second thread joined the map");
        }
    }

    #[test]
    fn maps_admit_a_helper_under_threads_policy() {
        // The caller works too, so trivial parts may well all run on it;
        // what `Threads(2)` must guarantee is that a pool helper *can*
        // join in.
        let a = ParArray::from_parts((0..8i64).collect());
        let mut s = unit_ctx(8).with_policy(ExecPolicy::Threads(2));

        let meet = Rendezvous::default();
        let out = s.map(&a, |x| {
            meet.arrive();
            x + 1
        });
        assert_eq!(out.to_vec(), (1..=8).collect::<Vec<i64>>());

        let meet = Rendezvous::default();
        let out = s.map_owned(a, |x| {
            meet.arrive();
            x + 1
        });
        assert_eq!(out.to_vec(), (1..=8).collect::<Vec<i64>>());
    }

    #[test]
    fn owned_maps_admit_a_helper_under_cost_driven() {
        // jacobi's sweep: eight parts of 8 192 `f64`, each moved into the
        // step. An owned map remembers no measured work, so it fans out
        // at the policy's cap whatever the machine's cost model.
        let a = ParArray::from_parts((0..8).map(|i| vec![i as f64; 8192]).collect());
        let mut s = Scl::ap1000(8).with_policy(ExecPolicy::CostDriven { threads: 2 });
        let meet = Rendezvous::default();
        let out = s.imap_costed_owned(a, |_, v: Vec<f64>| {
            meet.arrive();
            (v.iter().sum::<f64>(), Work::flops(v.len() as u64))
        });
        let want: Vec<f64> = (0..8).map(|i| i as f64 * 8192.0).collect();
        assert_eq!(out.to_vec(), want);
    }

    #[test]
    fn skel_run_keeps_the_eager_threads_under_cost_driven() {
        // `Skel::run` schedules a stage as `Scl::imap` does — at the
        // policy's thread count — until the segment has measured its own
        // work: a first run has measured nothing, so it fans out, however
        // small the parts (eight 4-element `Vec`s on the AP1000 here).
        use crate::plan::Skel;
        let a = ParArray::from_parts((0..8i64).map(|i| vec![i; 4]).collect());
        let mut s = Scl::ap1000(8).with_policy(ExecPolicy::CostDriven { threads: 2 });
        let meet = Rendezvous::default();
        let plan = Skel::map_costed(|v: &Vec<i64>| {
            meet.arrive();
            (v.iter().sum::<i64>(), Work::flops(4))
        });
        let out = plan.run(&mut s, a);
        assert_eq!(out.to_vec(), (0..8i64).map(|i| 4 * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_owned_consumes_parts_in_place() {
        // the closure receives the part by value and may reuse its buffer
        let a = ParArray::from_parts(vec![vec![1i64, 2], vec![3, 4]]);
        let mut s = unit_ctx(2);
        let b = s.map_owned(a, |mut v: Vec<i64>| {
            for x in &mut v {
                *x *= 10;
            }
            v
        });
        assert_eq!(b.to_vec(), vec![vec![10, 20], vec![30, 40]]);
    }

    #[test]
    fn fold_over_group_charges_group_only() {
        let mut s = unit_ctx(8);
        // array placed on procs 4..8
        let a = ParArray::with_placement(vec![1i64, 2, 3, 4], vec![4, 5, 6, 7]);
        let _ = s.fold(&a, |x, y| x + y);
        assert_eq!(s.machine.clocks.get(0), Time::ZERO);
        assert!(s.machine.clocks.get(4) > Time::ZERO);
    }
}
