//! Communication skeletons: bulk data movement between parts.
//!
//! The paper divides these into *regular* movements, where the routing is a
//! fixed function of the index space (`rotate`, `rotate_row`, `rotate_col`,
//! `brdcast`, `apply_brdcast`), and *irregular* movements, where the
//! destination is computed per index (`send`, `fetch`). All of them are
//! synchronous permutation phases on the simulated machine: the
//! participating processors meet, the routes are delivered in bulk, and the
//! group leaves together ([`scl_machine::Machine::permute`]).
//!
//! Each skeleton has one implementation, its owned form (`rotate_owned`,
//! `total_exchange_owned`, …): it builds the route table, charges the
//! machine, and **moves** parts along the routes. The borrowed form
//! (`rotate(&a)`, …) keeps the input alive by cloning it once and calling
//! the owned form, so the two cannot differ in output or charge.
//!
//! Many-to-one `send` accumulates a vector at each destination. The paper
//! leaves the element order unspecified ("the underlying implementation is
//! nondeterministic"); this implementation uses ascending source index,
//! which callers must treat as unspecified — there is a property test that
//! only checks multiset equality, and `scl-apps` code never relies on the
//! order.

use crate::array::ParArray;
use crate::bytes::Bytes;
use crate::ctx::Scl;
use scl_machine::{ProcId, Work};
use std::time::Instant;

/// Normalise a possibly-negative rotation distance into `0..n`.
fn norm(k: isize, n: usize) -> usize {
    debug_assert!(n > 0);
    k.rem_euclid(n as isize) as usize
}

impl Scl {
    /// Regular rotation: the paper's
    /// `rotate k A = ⟨i ↦ A[(i+k) mod n]⟩`.
    ///
    /// `rotate 0` is the identity and costs nothing (the communication
    /// algebra's `rotate 0 → id` law holds by construction).
    #[must_use]
    pub fn rotate<T: Clone + Bytes>(&mut self, k: isize, a: &ParArray<T>) -> ParArray<T> {
        self.rotate_owned(k, a.clone())
    }

    /// Rotate every row of a 2-D grid: the paper's
    /// `rotate_row df A = ⟨(i,j) ↦ A[i, (j + df i) mod cols]⟩`.
    #[must_use]
    pub fn rotate_row<T: Clone + Bytes>(
        &mut self,
        df: impl Fn(usize) -> isize,
        a: &ParArray<T>,
    ) -> ParArray<T> {
        self.rotate_row_owned(df, a.clone())
    }

    /// Rotate every column of a 2-D grid: the paper's
    /// `rotate_col df A = ⟨(i,j) ↦ A[(i + df j) mod rows, j]⟩`.
    #[must_use]
    pub fn rotate_col<T: Clone + Bytes>(
        &mut self,
        df: impl Fn(usize) -> isize,
        a: &ParArray<T>,
    ) -> ParArray<T> {
        self.rotate_col_owned(df, a.clone())
    }

    /// Shift without wraparound: part `i` receives part `i - k` (for
    /// `k > 0`), with `fill` entering at the boundary. The stencil
    /// workhorse (halo exchange).
    #[must_use]
    pub fn shift<T: Clone + Bytes>(&mut self, k: isize, a: &ParArray<T>, fill: &T) -> ParArray<T> {
        self.shift_owned(k, a.clone(), fill)
    }

    /// Broadcast one value to all parts, pairing it with the local data:
    /// the paper's `brdcast a A = map (align_pair a) A`.
    #[must_use]
    pub fn brdcast<T, U>(&mut self, item: &T, a: &ParArray<U>) -> ParArray<(T, U)>
    where
        T: Clone + Bytes,
        U: Clone,
    {
        self.brdcast_owned(item, a.clone())
    }

    /// The paper's `applybrdcast f i A = brdcast (f A[i]) A`: apply `f` to
    /// the data on part `i` locally, broadcast the result to the group. The
    /// local work is charged per the context's measure mode.
    #[must_use]
    pub fn apply_brdcast<T, R>(
        &mut self,
        f: impl Fn(&T) -> R,
        i: usize,
        a: &ParArray<T>,
    ) -> ParArray<(R, T)>
    where
        T: Clone,
        R: Clone + Bytes,
    {
        let t0 = Instant::now();
        let r = f(a.part(i));
        let w = self.measured_work(t0.elapsed().as_secs_f64());
        self.charge_part(a, i, w, "apply_brdcast");
        self.brdcast(&r, a)
    }

    /// [`Scl::apply_brdcast`] with self-reported local work.
    #[must_use]
    pub fn apply_brdcast_costed<T, R>(
        &mut self,
        f: impl Fn(&T) -> (R, Work),
        i: usize,
        a: &ParArray<T>,
    ) -> ParArray<(R, T)>
    where
        T: Clone,
        R: Clone + Bytes,
    {
        let (r, w) = f(a.part(i));
        self.charge_part(a, i, w, "apply_brdcast");
        self.brdcast(&r, a)
    }

    /// Irregular send: `f(k)` names the destination indices of part `k`
    /// (one-to-many allowed). Destination `j` accumulates every part sent
    /// to it — *in unspecified order* (see module docs).
    #[must_use]
    pub fn send<T: Clone + Bytes>(
        &mut self,
        f: impl Fn(usize) -> Vec<usize>,
        a: &ParArray<T>,
    ) -> ParArray<Vec<T>> {
        self.send_owned(f, a.clone())
    }

    /// Irregular fetch: part `i` pulls part `f(i)` (one-to-one or
    /// one-to-many sources; the paper notes `fetch` cannot express
    /// many-to-one).
    #[must_use]
    pub fn fetch<T: Clone + Bytes>(
        &mut self,
        f: impl Fn(usize) -> usize,
        a: &ParArray<T>,
    ) -> ParArray<T> {
        self.fetch_owned(f, a.clone())
    }

    /// All-gather: every part receives the full sequence of parts (in part
    /// order). The data-parallel `allgather` of MPI.
    #[must_use]
    pub fn all_gather<T: Clone + Bytes>(&mut self, a: &ParArray<T>) -> ParArray<Vec<T>> {
        let per = a.parts().iter().map(Bytes::bytes).max().unwrap_or(0);
        self.machine.all_gather(a.procs(), per);
        let everything: Vec<T> = a.parts().to_vec();
        ParArray::like(a, (0..a.len()).map(|_| everything.clone()).collect())
    }

    /// All-reduce: `fold` whose result lands on *every* part (MPI's
    /// `allreduce`). `op` must be associative.
    ///
    /// # Panics
    /// Panics on an empty array.
    #[must_use]
    pub fn fold_all<T: Clone + Bytes>(
        &mut self,
        a: &ParArray<T>,
        op: impl Fn(&T, &T) -> T,
        combine: Work,
    ) -> ParArray<T> {
        assert!(!a.is_empty(), "fold_all of an empty ParArray is undefined");
        let bytes = a.parts().iter().map(Bytes::bytes).max().unwrap_or(0);
        self.machine.all_reduce(a.procs(), bytes, combine);
        let mut acc = a.part(0).clone();
        for x in &a.parts()[1..] {
            acc = op(&acc, x);
        }
        ParArray::like(a, vec![acc; a.len()])
    }

    /// Transpose a 2-D grid of parts: result part `(i, j)` is input part
    /// `(j, i)`. Requires a square grid (placement is preserved, data
    /// moves).
    #[must_use]
    pub fn transpose<T: Clone + Bytes>(&mut self, a: &ParArray<T>) -> ParArray<T> {
        let (rows, cols) = a.shape().dims2();
        assert_eq!(
            rows, cols,
            "transpose needs a square grid, got {rows}x{cols}"
        );
        self.rotate_grid_owned(a.clone(), rows, cols, |i, j| j * cols + i)
    }

    /// Rebalance a distributed sequence: redistribute the elements of the
    /// concatenated parts so every part holds a balanced (±1) contiguous
    /// block, preserving global order. The standard fix-up after skewing
    /// operations like hyperquicksort's pivot exchanges.
    #[must_use]
    pub fn balance<T: Clone + Bytes>(&mut self, a: &ParArray<Vec<T>>) -> ParArray<Vec<T>> {
        self.balance_owned(a.clone())
    }

    /// Total exchange: part `i` holds one bucket per destination; after the
    /// exchange, part `i` holds bucket `i` *from* every source (bucket
    /// transpose). The backbone of sample-sort style algorithms.
    ///
    /// Charged **per route**: each cross-processor bucket pays for the
    /// bytes it actually ships
    /// ([`Machine::all_to_all_v`](scl_machine::Machine::all_to_all_v)),
    /// not `g·(g−1)` copies of the globally largest bucket — skewed
    /// exchanges (the common case after sampling-based bucketing) cost
    /// what they move.
    #[must_use]
    pub fn total_exchange<T: Clone + Bytes + Send>(
        &mut self,
        a: &ParArray<Vec<Vec<T>>>,
    ) -> ParArray<Vec<Vec<T>>> {
        self.total_exchange_owned(a.clone())
    }
}

/// Validate a total-exchange configuration and produce its route table:
/// one `(src, dst, bytes)` entry per non-empty cross-processor bucket (the
/// diagonal stays home, and an empty bucket ships no message at all).
///
/// # Panics
/// Panics if any part does not hold exactly one bucket per destination.
fn total_exchange_routes<T: Bytes>(a: &ParArray<Vec<Vec<T>>>) -> Vec<(ProcId, ProcId, usize)> {
    let n = a.len();
    let mut routes = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)));
    for (k, part) in a.parts().iter().enumerate() {
        assert_eq!(
            part.len(),
            n,
            "total_exchange: part {k} has {} buckets, need {n}",
            part.len()
        );
        for (i, bucket) in part.iter().enumerate() {
            if i != k && !bucket.is_empty() {
                routes.push((a.procs()[k], a.procs()[i], bucket.bytes()));
            }
        }
    }
    routes
}

// ---- the implementations ----------------------------------------------------
//
// Each owned form *consumes* its input and **moves** parts along the routes
// (relaxed bounds: `rotate_owned` needs no `Clone` at all). Routes are
// computed from the input before any part moves. The plan layer's barrier
// stages call these directly: a `BarrierFn` receives its array by value,
// so nothing in a fused chain clones part payloads between stages.

impl Scl {
    /// [`Scl::rotate`] consuming its input: parts **move** along the
    /// rotation, no clones (note the relaxed bound — `T` need not be
    /// `Clone`).
    #[must_use]
    pub fn rotate_owned<T: Bytes>(&mut self, k: isize, a: ParArray<T>) -> ParArray<T> {
        let n = a.len();
        if n == 0 {
            return a;
        }
        let k = norm(k, n);
        if k == 0 {
            return a;
        }
        let routes: Vec<(ProcId, ProcId, usize)> = (0..n)
            .map(|i| {
                let src = (i + k) % n;
                (a.procs()[src], a.procs()[i], a.part(src).bytes())
            })
            .collect();
        self.machine.permute(a.procs(), &routes);
        a.permute_owned(|i| (i + k) % n)
    }

    /// [`Scl::rotate_row`] consuming its input — parts move.
    #[must_use]
    pub fn rotate_row_owned<T: Bytes>(
        &mut self,
        df: impl Fn(usize) -> isize,
        a: ParArray<T>,
    ) -> ParArray<T> {
        let (rows, cols) = a.shape().dims2();
        let src_of = |i: usize, j: usize| -> usize {
            let jj = norm(df(i), cols.max(1));
            i * cols + (j + jj) % cols
        };
        self.rotate_grid_owned(a, rows, cols, src_of)
    }

    /// [`Scl::rotate_col`] consuming its input — parts move.
    #[must_use]
    pub fn rotate_col_owned<T: Bytes>(
        &mut self,
        df: impl Fn(usize) -> isize,
        a: ParArray<T>,
    ) -> ParArray<T> {
        let (rows, cols) = a.shape().dims2();
        let src_of = |i: usize, j: usize| -> usize {
            let ii = norm(df(j), rows.max(1));
            ((i + ii) % rows) * cols + j
        };
        self.rotate_grid_owned(a, rows, cols, src_of)
    }

    fn rotate_grid_owned<T: Bytes>(
        &mut self,
        a: ParArray<T>,
        rows: usize,
        cols: usize,
        src_of: impl Fn(usize, usize) -> usize,
    ) -> ParArray<T> {
        let mut routes = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                let dst = i * cols + j;
                let src = src_of(i, j);
                if src != dst {
                    routes.push((a.procs()[src], a.procs()[dst], a.part(src).bytes()));
                }
            }
        }
        if !routes.is_empty() {
            self.machine.permute(a.procs(), &routes);
        }
        a.permute_owned(|d| src_of(d / cols, d % cols))
    }

    /// [`Scl::shift`] consuming its input: surviving parts move, only the
    /// boundary clones `fill`.
    #[must_use]
    pub fn shift_owned<T: Clone + Bytes>(
        &mut self,
        k: isize,
        a: ParArray<T>,
        fill: &T,
    ) -> ParArray<T> {
        let n = a.len() as isize;
        let mut routes = Vec::new();
        for i in 0..n {
            let src = i - k;
            if src >= 0 && src < n && src != i {
                routes.push((
                    a.procs()[src as usize],
                    a.procs()[i as usize],
                    a.part(src as usize).bytes(),
                ));
            }
        }
        if !routes.is_empty() {
            self.machine.permute(a.procs(), &routes);
        }
        let (parts, procs, shape) = a.into_raw();
        let mut cells: Vec<Option<T>> = parts.into_iter().map(Some).collect();
        let out: Vec<T> = (0..n)
            .map(|i| {
                let src = i - k;
                if src >= 0 && src < n {
                    cells[src as usize]
                        .take()
                        .expect("shift sources are distinct")
                } else {
                    fill.clone()
                }
            })
            .collect();
        ParArray::from_raw(out, procs, shape)
    }

    /// [`Scl::brdcast`] consuming the array: local data moves into the
    /// pairs, only the broadcast item clones (it genuinely lands on every
    /// part).
    #[must_use]
    pub fn brdcast_owned<T, U>(&mut self, item: &T, a: ParArray<U>) -> ParArray<(T, U)>
    where
        T: Clone + Bytes,
    {
        self.machine.broadcast(a.procs(), item.bytes());
        a.map_into(|_, u| (item.clone(), u))
    }

    /// [`Scl::send`] consuming its input: each part **moves** to its last
    /// destination and clones only for the earlier ones (one-to-one
    /// routings clone nothing). Inbox order is the
    /// unspecified-but-deterministic ascending source order.
    #[must_use]
    pub fn send_owned<T: Clone + Bytes>(
        &mut self,
        f: impl Fn(usize) -> Vec<usize>,
        a: ParArray<T>,
    ) -> ParArray<Vec<T>> {
        let n = a.len();
        let mut routes = Vec::new();
        let mut dests: Vec<Vec<usize>> = Vec::with_capacity(n);
        for k in 0..n {
            let ds = f(k);
            for &j in &ds {
                assert!(j < n, "send: destination {j} out of range ({n} parts)");
                if j != k {
                    routes.push((a.procs()[k], a.procs()[j], a.part(k).bytes()));
                }
            }
            dests.push(ds);
        }
        self.machine.permute(a.procs(), &routes);
        let (parts, procs, shape) = a.into_raw();
        let mut inboxes: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
        for (k, x) in parts.into_iter().enumerate() {
            if let Some((&last, init)) = dests[k].split_last() {
                for &j in init {
                    inboxes[j].push(x.clone());
                }
                inboxes[last].push(x);
            }
        }
        ParArray::from_raw(inboxes, procs, shape)
    }

    /// [`Scl::fetch`] consuming its input: each source moves to its last
    /// fetcher and clones only for additional ones (a permutation clones
    /// nothing).
    #[must_use]
    pub fn fetch_owned<T: Clone + Bytes>(
        &mut self,
        f: impl Fn(usize) -> usize,
        a: ParArray<T>,
    ) -> ParArray<T> {
        let n = a.len();
        let mut routes = Vec::new();
        for i in 0..n {
            let src = f(i);
            assert!(src < n, "fetch: source {src} out of range ({n} parts)");
            if src != i {
                routes.push((a.procs()[src], a.procs()[i], a.part(src).bytes()));
            }
        }
        self.machine.permute(a.procs(), &routes);
        a.reindex_owned(f)
    }

    /// [`Scl::balance`] consuming its input: elements **move** into their
    /// rebalanced parts (no per-element clones).
    #[must_use]
    pub fn balance_owned<T: Bytes>(&mut self, a: ParArray<Vec<T>>) -> ParArray<Vec<T>> {
        let p = a.len();
        if p == 0 {
            return a;
        }
        let total: usize = a.parts().iter().map(Vec::len).sum();
        let targets = crate::partition::block_ranges(total, p);

        let mut offsets = Vec::with_capacity(p);
        let mut acc = 0usize;
        for part in a.parts() {
            offsets.push(acc);
            acc += part.len();
        }

        let elem_bytes = |v: &Vec<T>| if v.is_empty() { 0 } else { v.bytes() / v.len() };
        let mut routes = Vec::new();
        for (src, part) in a.parts().iter().enumerate() {
            let s0 = offsets[src];
            for (dst, target) in targets.iter().enumerate() {
                let lo = s0.max(target.start);
                let hi = (s0 + part.len()).min(target.end);
                if lo < hi && src != dst {
                    routes.push((a.procs()[src], a.procs()[dst], (hi - lo) * elem_bytes(part)));
                }
            }
        }
        if !routes.is_empty() {
            self.machine.permute(a.procs(), &routes);
        }

        let (parts, procs, shape) = a.into_raw();
        let mut stream = parts.into_iter().flatten();
        let out: Vec<Vec<T>> = targets
            .iter()
            .map(|r| stream.by_ref().take(r.len()).collect())
            .collect();
        ParArray::from_raw(out, procs, shape)
    }

    /// [`Scl::total_exchange`] consuming its input: buckets **move** to
    /// their destinations (a pure permutation of `n²` bucket cells — zero
    /// clones), on the persistent pool
    /// ([`scl_exec::par_permute`]) when the cost model
    /// says the cell count justifies fanning out.
    #[must_use]
    pub fn total_exchange_owned<T: Clone + Bytes + Send>(
        &mut self,
        a: ParArray<Vec<Vec<T>>>,
    ) -> ParArray<Vec<Vec<T>>> {
        let n = a.len();
        let routes = total_exchange_routes(&a);
        self.machine.all_to_all_v(a.procs(), &routes);

        let (parts, procs, shape) = a.into_raw();
        // flatten to n*n bucket cells; destination cell (i, k) takes source
        // cell (k, i) — moving Vec headers, so the payload estimate for the
        // fan-out gate is pointer-sized, not the bucket contents
        let cells: Vec<Vec<T>> = parts.into_iter().flatten().collect();
        let src_of = |c: usize| -> usize {
            let (i, k) = (c / n.max(1), c % n.max(1));
            k * n + i
        };
        let (threads, grain) = self.comm_schedule(n * n, std::mem::size_of::<Vec<T>>());
        let shuffled: Vec<Vec<T>> = if threads <= 1 {
            let mut cells: Vec<Option<Vec<T>>> = cells.into_iter().map(Some).collect();
            (0..n * n)
                .map(|c| cells[src_of(c)].take().expect("bucket transpose is 1:1"))
                .collect()
        } else {
            let table: Vec<usize> = (0..n * n).map(src_of).collect();
            let pool = scl_exec::ThreadPool::shared(threads);
            scl_exec::par_permute(pool, cells, &table, threads, grain)
        };
        let mut out = Vec::with_capacity(n);
        let mut it = shuffled.into_iter();
        for _ in 0..n {
            out.push(it.by_ref().take(n).collect());
        }
        ParArray::from_raw(out, procs, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scl_machine::{CostModel, Machine, Time, Topology};

    fn unit_ctx(n: usize) -> Scl {
        Scl::new(Machine::new(
            Topology::FullyConnected { procs: n },
            CostModel::unit(),
        ))
    }

    #[test]
    fn rotate_matches_paper_definition() {
        let mut s = unit_ctx(4);
        let a = ParArray::from_parts(vec![10, 20, 30, 40]);
        // result[i] = a[(i+1) mod 4]
        let r = s.rotate(1, &a);
        assert_eq!(r.to_vec(), vec![20, 30, 40, 10]);
        assert_eq!(s.machine.metrics.messages, 4);
    }

    #[test]
    fn rotate_negative_and_wrap() {
        let mut s = unit_ctx(4);
        let a = ParArray::from_parts(vec![10, 20, 30, 40]);
        assert_eq!(s.rotate(-1, &a).to_vec(), vec![40, 10, 20, 30]);
        assert_eq!(s.rotate(5, &a).to_vec(), s.rotate(1, &a).to_vec());
    }

    #[test]
    fn rotate_zero_is_free_identity() {
        let mut s = unit_ctx(4);
        let a = ParArray::from_parts(vec![1, 2, 3, 4]);
        let r = s.rotate(0, &a);
        assert_eq!(r, a);
        assert_eq!(s.makespan(), Time::ZERO);
        assert_eq!(s.machine.metrics.messages, 0);
    }

    #[test]
    fn rotate_composes_additively() {
        let mut s = unit_ctx(5);
        let a = ParArray::from_parts(vec![1, 2, 3, 4, 5]);
        let first = s.rotate(3, &a);
        let twice = s.rotate(2, &first);
        let once = s.rotate(3 + 2, &a);
        assert_eq!(twice.to_vec(), once.to_vec());
    }

    #[test]
    fn rotate_row_per_row_distance() {
        let mut s = unit_ctx(6);
        // 2x3 grid: [0 1 2; 3 4 5]
        let a = ParArray::from_grid(2, 3, (0..6).collect::<Vec<i32>>());
        // row 0 unrotated, row 1 rotated by 1
        let r = s.rotate_row(|i| i as isize, &a);
        assert_eq!(r.to_vec(), vec![0, 1, 2, 4, 5, 3]);
    }

    #[test]
    fn rotate_col_per_col_distance() {
        let mut s = unit_ctx(6);
        // 3x2 grid: [0 1; 2 3; 4 5]
        let a = ParArray::from_grid(3, 2, (0..6).collect::<Vec<i32>>());
        let r = s.rotate_col(|j| j as isize, &a);
        // col 0 unrotated; col 1 rotated down by... A[(i+1) mod 3, 1]
        assert_eq!(r.to_vec(), vec![0, 3, 2, 5, 4, 1]);
    }

    #[test]
    fn shift_fills_boundary() {
        let mut s = unit_ctx(4);
        let a = ParArray::from_parts(vec![1, 2, 3, 4]);
        assert_eq!(s.shift(1, &a, &0).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(s.shift(-1, &a, &9).to_vec(), vec![2, 3, 4, 9]);
        assert_eq!(s.shift(0, &a, &9).to_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn brdcast_pairs_item_with_parts() {
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts(vec![1, 2, 3]);
        let r = s.brdcast(&99, &a);
        assert_eq!(r.to_vec(), vec![(99, 1), (99, 2), (99, 3)]);
        assert_eq!(s.machine.metrics.broadcasts, 1);
    }

    #[test]
    fn apply_brdcast_uses_part_i() {
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts(vec![10, 20, 30]);
        let r = s.apply_brdcast(|x| x + 1, 1, &a);
        assert_eq!(r.to_vec(), vec![(21, 10), (21, 20), (21, 30)]);
    }

    #[test]
    fn apply_brdcast_costed_charges_source() {
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts(vec![10u64, 20, 30]);
        let _ = s.apply_brdcast_costed(|x| (*x, Work::cmps(7)), 2, &a);
        assert_eq!(s.machine.metrics.cmps, 7);
    }

    #[test]
    fn fetch_pulls_by_source_index() {
        let mut s = unit_ctx(4);
        let a = ParArray::from_parts(vec![10, 20, 30, 40]);
        // hypercube partner pattern, dim 0
        let r = s.fetch(|i| i ^ 1, &a);
        assert_eq!(r.to_vec(), vec![20, 10, 40, 30]);
        assert_eq!(s.machine.metrics.messages, 4);
    }

    #[test]
    fn fetch_one_to_many() {
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts(vec![7, 8, 9]);
        let r = s.fetch(|_| 0, &a);
        assert_eq!(r.to_vec(), vec![7, 7, 7]);
        // only two real messages (0 -> 1, 0 -> 2)
        assert_eq!(s.machine.metrics.messages, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fetch_bad_source_panics() {
        let mut s = unit_ctx(2);
        let a = ParArray::from_parts(vec![1, 2]);
        let _ = s.fetch(|_| 5, &a);
    }

    #[test]
    fn send_many_to_one_accumulates() {
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts(vec![10, 20, 30]);
        // everyone sends to part 0
        let r = s.send(|_| vec![0], &a);
        assert_eq!(r.part(0).len(), 3);
        assert!(r.part(1).is_empty());
        let mut got = r.part(0).clone();
        got.sort();
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn send_one_to_many_duplicates() {
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts(vec![5, 6, 7]);
        let r = s.send(|k| if k == 0 { vec![1, 2] } else { vec![] }, &a);
        assert_eq!(r.part(1), &vec![5]);
        assert_eq!(r.part(2), &vec![5]);
        assert!(r.part(0).is_empty());
    }

    #[test]
    fn total_exchange_transposes_buckets() {
        let mut s = unit_ctx(2);
        let a = ParArray::from_parts(vec![
            vec![vec![1], vec![2]], // part 0's buckets for 0 and 1
            vec![vec![3], vec![4]], // part 1's buckets for 0 and 1
        ]);
        let r = s.total_exchange(&a);
        assert_eq!(r.part(0), &vec![vec![1], vec![3]]);
        assert_eq!(r.part(1), &vec![vec![2], vec![4]]);
        assert_eq!(s.machine.metrics.exchanges, 1);
    }

    #[test]
    #[should_panic(expected = "buckets")]
    fn total_exchange_checks_bucket_count() {
        let mut s = unit_ctx(2);
        let a = ParArray::from_parts(vec![vec![vec![1]], vec![vec![2], vec![3]]]);
        let _ = s.total_exchange(&a);
    }

    #[test]
    fn all_gather_replicates_everything() {
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts(vec![1, 2, 3]);
        let g = s.all_gather(&a);
        for part in g.parts() {
            assert_eq!(part, &vec![1, 2, 3]);
        }
        assert_eq!(s.machine.metrics.gathers, 1);
    }

    #[test]
    fn fold_all_lands_on_every_part() {
        let mut s = unit_ctx(4);
        let a = ParArray::from_parts(vec![1i64, 2, 3, 4]);
        let r = s.fold_all(&a, |x, y| x + y, Work::NONE);
        assert_eq!(r.to_vec(), vec![10, 10, 10, 10]);
        assert_eq!(s.machine.metrics.reductions, 1);
    }

    #[test]
    fn fold_all_matches_fold() {
        let mut s = unit_ctx(5);
        let a = ParArray::from_parts(vec![3i64, 1, 4, 1, 5]);
        let f = s.fold(&a, |x, y| x + y);
        let fa = s.fold_all(&a, |x, y| x + y, Work::NONE);
        assert!(fa.parts().iter().all(|x| *x == f));
    }

    #[test]
    fn transpose_square_grid() {
        let mut s = unit_ctx(9);
        let a = ParArray::from_grid(3, 3, (0..9).collect::<Vec<i32>>());
        let t = s.transpose(&a);
        assert_eq!(t.to_vec(), vec![0, 3, 6, 1, 4, 7, 2, 5, 8]);
        // transpose twice = identity
        let tt = s.transpose(&t);
        assert_eq!(tt.to_vec(), a.to_vec());
    }

    #[test]
    #[should_panic(expected = "square grid")]
    fn transpose_rejects_rectangles() {
        let mut s = unit_ctx(6);
        let a = ParArray::from_grid(2, 3, (0..6).collect::<Vec<i32>>());
        let _ = s.transpose(&a);
    }

    #[test]
    fn balance_evens_out_skew() {
        let mut s = unit_ctx(4);
        let a = ParArray::from_parts(vec![
            vec![1i64, 2, 3, 4, 5, 6, 7],
            vec![],
            vec![8],
            vec![9, 10],
        ]);
        let b = s.balance(&a);
        let sizes: Vec<usize> = b.parts().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        // global order preserved
        let flat: Vec<i64> = b.parts().iter().flatten().copied().collect();
        assert_eq!(flat, (1..=10).collect::<Vec<_>>());
        assert!(s.machine.metrics.messages > 0);
    }

    #[test]
    fn balance_is_idempotent_and_free_when_balanced() {
        let mut s = unit_ctx(2);
        let a = ParArray::from_parts(vec![vec![1i64, 2], vec![3, 4]]);
        let b = s.balance(&a);
        assert_eq!(b, a);
        assert_eq!(s.machine.metrics.messages, 0);
    }

    #[test]
    fn balance_empty_everything() {
        let mut s = unit_ctx(3);
        let a: ParArray<Vec<i64>> = ParArray::from_parts(vec![vec![], vec![], vec![]]);
        let b = s.balance(&a);
        assert!(b.parts().iter().all(Vec::is_empty));
    }

    #[test]
    fn total_exchange_charges_per_route_bucket_bytes() {
        // 2 procs, unit model, fully connected (1 hop). Buckets:
        //   part 0: [len 1 (stays), len 2 -> proc 1]   (i64 = 8 bytes each)
        //   part 1: [len 3 -> proc 0, len 1 (stays)]
        // Routes: (0 -> 1, 16 B) and (1 -> 0, 24 B).
        // ptp = t_msg(1) + t_hop(1) + bytes; each endpoint sources one route
        // and sinks the other, so the phase is max(1+1+16, 1+1+24) = 26 s.
        let mut s = unit_ctx(2);
        let a = ParArray::from_parts(vec![
            vec![vec![1i64], vec![2, 3]],
            vec![vec![4, 5, 6], vec![7]],
        ]);
        let r = s.total_exchange(&a);
        assert_eq!(r.part(0), &vec![vec![1], vec![4, 5, 6]]);
        assert_eq!(s.makespan().as_secs(), 26.0);
        assert_eq!(s.machine.metrics.exchanges, 1);
        assert_eq!(s.machine.metrics.messages, 2);
        assert_eq!(s.machine.metrics.bytes, 40);

        // the old uniform charge would have been phase(max bucket = 24 B)
        // per pair: (1 + 1 + 24) * (2-1) = 26 only because symmetric; with
        // a skewed third proc the saving is strict:
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts(vec![
            vec![vec![], vec![1i64], vec![]],
            vec![vec![], vec![], vec![]],
            vec![vec![], vec![], vec![]],
        ]);
        let _ = s.total_exchange(&a);
        // single real route 0 -> 1 of 8 bytes: 1 + 1 + 8 = 10 s
        assert_eq!(s.makespan().as_secs(), 10.0);
    }

    #[test]
    fn owned_rotate_moves_non_clone_parts() {
        // rotate_owned needs no Clone bound at all
        #[derive(Debug, PartialEq)]
        struct Heavy(Vec<u8>);
        impl Bytes for Heavy {
            fn bytes(&self) -> usize {
                self.0.len()
            }
        }
        let mut s = unit_ctx(3);
        let a = ParArray::from_parts((0..3).map(|i| Heavy(vec![i; 4])).collect());
        let r = s.rotate_owned(1, a);
        assert_eq!(
            r.parts(),
            &[Heavy(vec![1; 4]), Heavy(vec![2; 4]), Heavy(vec![0; 4])]
        );
        assert_eq!(s.machine.metrics.messages, 3);
    }

    #[test]
    fn comm_on_subgroup_charges_subgroup() {
        let mut s = unit_ctx(8);
        let a = ParArray::with_placement(vec![1, 2], vec![6, 7]);
        let _ = s.rotate(1, &a);
        assert_eq!(s.machine.clocks.get(0), Time::ZERO);
        assert!(s.machine.clocks.get(6) > Time::ZERO);
        assert!(s.machine.clocks.get(7) > Time::ZERO);
    }
}
