//! MPMC by composition: a P×C matrix of SPSC rings.
//!
//! The FastFlow recipe (PAPERS.md) for a lock-free multi-producer /
//! multi-consumer queue is not a CAS loop over one shared array — it is
//! **no shared array at all**: producer `p` and consumer `c` communicate
//! over a private [`spsc`](crate::spsc) ring `(p, c)`, so every queue
//! operation in the matrix is still the wait-free single-writer /
//! single-reader protocol, and the only cross-thread contention is the
//! cache traffic of the rings themselves.
//!
//! * [`RingSender`] `p` owns row `p`: it round-robins its pushes over the
//!   open, non-full lanes of the row ([`RingSender::try_send_within`]
//!   restricts the dispatch to a prefix of the consumers — how a farm
//!   pump honours its width without the workers ever taking a lock);
//! * [`RingReceiver`] `c` owns column `c`: it round-robins its pops over
//!   the column and reports [`TryRecv::Closed`] only when **every** lane
//!   is closed and drained — one producer (or worker) leaving never
//!   strands another's in-flight items;
//! * each side parks on one `ParkSlot` shared by all its lanes (a pop
//!   anywhere in row `p` wakes producer `p`; a push anywhere in column
//!   `c` wakes consumer `c`), with the same SeqCst handshake as the
//!   underlying rings; [`ring_mpmc_parked`] lets one thread that owns
//!   handles of several matrices park on a single slot for all of them.
//!
//! Capacity: each lane holds `max(1, capacity / max(P, C))` items, so the
//! 1×C and P×1 matrices a farm actually builds (emitter→replicas,
//! replicas→collector) hold ≈ `capacity` items in total — the farm's
//! backpressure bound — as long as the farm has at most `capacity` lanes.
//! A general P×C matrix (both > 1) holds up to `min(P, C) × capacity`.
//!
//! Handles are `Send` but neither `Clone` nor `Sync` — the type system
//! keeps every lane single-producer/single-consumer.

use crate::backoff::{Backoff, ParkSlot, PARK_SAFETY};
use crate::chan::TryRecv;
use crate::spsc::{ring_shared, SpscReceiver, SpscSender};
use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Producer handle over one row of the ring matrix; see the
/// [module docs](self).
pub struct RingSender<T> {
    lanes: Vec<SpscSender<T>>,
    cursor: Cell<usize>,
    park: Arc<ParkSlot>,
    cap: usize,
}

/// Consumer handle over one column of the ring matrix; see the
/// [module docs](self).
pub struct RingReceiver<T> {
    lanes: Vec<SpscReceiver<T>>,
    cursor: Cell<usize>,
    park: Arc<ParkSlot>,
    cap: usize,
}

/// A `producers` × `consumers` ring matrix holding ≈ `capacity` items in
/// total (see the [module docs](self) for the per-lane split). Returns
/// one [`RingSender`] per producer and one [`RingReceiver`] per consumer;
/// dropping a handle closes its lanes, so the matrix shuts down like
/// `mpsc`: receivers observe `Closed` once every producer is gone (and
/// the lanes are drained), senders fail once every consumer is gone.
pub fn ring_mpmc<T: Send>(
    producers: usize,
    consumers: usize,
    capacity: usize,
) -> (Vec<RingSender<T>>, Vec<RingReceiver<T>>) {
    ring_mpmc_parked(producers, consumers, capacity, None, None)
}

/// [`ring_mpmc`] whose producers (`producer_park`) or consumers
/// (`consumer_park`) park on a caller-owned slot instead of one fresh slot
/// each. A slot has one waiting thread at a time, so share one only where
/// a single thread owns every handle it parks: a stream pump, the one
/// producer of each farm's 1×W input matrix and the one consumer of each
/// W×1 output matrix, parks on one slot that every replica's pop or push
/// wakes.
pub fn ring_mpmc_parked<T: Send>(
    producers: usize,
    consumers: usize,
    capacity: usize,
    producer_park: Option<Arc<ParkSlot>>,
    consumer_park: Option<Arc<ParkSlot>>,
) -> (Vec<RingSender<T>>, Vec<RingReceiver<T>>) {
    let producers = producers.max(1);
    let consumers = consumers.max(1);
    let lane_cap = (capacity / producers.max(consumers)).max(1);
    let prod_parks: Vec<Arc<ParkSlot>> = (0..producers)
        .map(|_| producer_park.clone().unwrap_or_default())
        .collect();
    let cons_parks: Vec<Arc<ParkSlot>> = (0..consumers)
        .map(|_| consumer_park.clone().unwrap_or_default())
        .collect();
    let mut rows: Vec<Vec<SpscSender<T>>> = (0..producers)
        .map(|_| Vec::with_capacity(consumers))
        .collect();
    let mut cols: Vec<Vec<SpscReceiver<T>>> = (0..consumers)
        .map(|_| Vec::with_capacity(producers))
        .collect();
    for (p, row) in rows.iter_mut().enumerate() {
        for (c, col) in cols.iter_mut().enumerate() {
            let (tx, rx) = ring_shared(
                lane_cap,
                Arc::new(AtomicBool::new(false)),
                Arc::clone(&prod_parks[p]),
                Arc::clone(&cons_parks[c]),
            );
            row.push(tx);
            col.push(rx);
        }
    }
    let senders = rows
        .into_iter()
        .enumerate()
        .map(|(p, lanes)| RingSender {
            lanes,
            cursor: Cell::new(0),
            park: Arc::clone(&prod_parks[p]),
            cap: capacity.max(1),
        })
        .collect();
    let receivers = cols
        .into_iter()
        .enumerate()
        .map(|(c, lanes)| RingReceiver {
            lanes,
            cursor: Cell::new(0),
            park: Arc::clone(&cons_parks[c]),
            cap: capacity.max(1),
        })
        .collect();
    (senders, receivers)
}

/// Why a non-blocking matrix push failed.
enum PushErr<T> {
    Full(T),
    Closed(T),
}

impl<T: Send> RingSender<T> {
    /// The total capacity the matrix was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Items currently queued across this row's lanes (racy gauge).
    pub fn len(&self) -> usize {
        self.lanes.iter().map(SpscSender::len).sum()
    }

    /// True when the row gauge reads zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items queued on this row's lane to consumer `c` (racy gauge).
    pub fn lane_len(&self, c: usize) -> usize {
        self.lanes[c].len()
    }

    /// Whether this row's lane to consumer `c` is at its capacity (racy
    /// gauge; only a push by this producer can fill it).
    pub fn lane_is_full(&self, c: usize) -> bool {
        self.lanes[c].len() >= self.lanes[c].capacity()
    }

    /// Close this producer's lanes: each consumer drains what this row
    /// published, then stops counting it.
    pub fn close(&self) {
        for lane in &self.lanes {
            lane.close();
        }
    }

    /// Round-robin push over the first `cols` open, non-full lanes.
    fn push_within(&self, mut item: T, cols: usize) -> Result<(), PushErr<T>> {
        let n = cols.min(self.lanes.len()).max(1);
        let start = self.cursor.get() % n;
        let mut any_open = false;
        for i in 0..n {
            let lane_idx = (start + i) % n;
            let lane = &self.lanes[lane_idx];
            if lane.is_closed() {
                continue;
            }
            any_open = true;
            match lane.try_send(item) {
                Ok(()) => {
                    self.cursor.set((lane_idx + 1) % n);
                    return Ok(());
                }
                // closed-vs-full is racy here; the retry loop re-checks
                Err(x) => item = x,
            }
        }
        if any_open {
            Err(PushErr::Full(item))
        } else {
            Err(PushErr::Closed(item))
        }
    }

    /// Enqueue without blocking. `Err(item)` when every lane is full or
    /// closed.
    pub fn try_send(&self, item: T) -> Result<(), T> {
        self.try_send_within(item, self.lanes.len())
    }

    /// [`RingSender::try_send`] restricted to the first `cols` consumers
    /// — the pump-side routing hook for a farm's width: replicas outside
    /// it simply receive no new items (they still drain their own ring,
    /// so nothing is ever stranded when the width narrows).
    pub fn try_send_within(&self, item: T, cols: usize) -> Result<(), T> {
        self.push_within(item, cols).map_err(|e| match e {
            PushErr::Full(x) | PushErr::Closed(x) => x,
        })
    }

    /// Enqueue, blocking (spin-then-park) while every lane is full.
    /// `Err(item)` once every lane is closed.
    pub fn send(&self, item: T) -> Result<(), T> {
        let mut item = item;
        let mut backoff = Backoff::new();
        loop {
            match self.push_within(item, self.lanes.len()) {
                Ok(()) => return Ok(()),
                Err(PushErr::Closed(x)) => return Err(x),
                Err(PushErr::Full(x)) => item = x,
            }
            if backoff.snooze() {
                self.park.prepare();
                // order the re-check after the published waiting flag
                // (see backoff.rs: the peer's pop fences then probes it)
                fence(Ordering::SeqCst);
                match self.push_within(item, self.lanes.len()) {
                    Ok(()) => {
                        self.park.clear();
                        return Ok(());
                    }
                    Err(PushErr::Closed(x)) => {
                        self.park.clear();
                        return Err(x);
                    }
                    Err(PushErr::Full(x)) => {
                        item = x;
                        self.park.park(PARK_SAFETY);
                        self.park.clear();
                    }
                }
                backoff.reset();
            }
        }
    }
}

impl<T: Send> RingReceiver<T> {
    /// The total capacity the matrix was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Items currently queued across this column's lanes (racy gauge).
    pub fn len(&self) -> usize {
        self.lanes.iter().map(SpscReceiver::len).sum()
    }

    /// True when the column gauge reads zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this column's lane from producer `p` is at its capacity
    /// (racy gauge; only a pop by this consumer can free it).
    pub fn lane_is_full(&self, p: usize) -> bool {
        self.lanes[p].len() >= self.lanes[p].capacity()
    }

    /// Close this consumer's lanes: producers stop routing to this
    /// column; blocked producers fail once every column is closed.
    pub fn close(&self) {
        for lane in &self.lanes {
            lane.close();
        }
    }

    /// Dequeue without blocking. [`TryRecv::Closed`] only once every lane
    /// is closed **and** drained.
    pub fn try_recv(&self) -> TryRecv<T> {
        let n = self.lanes.len();
        let start = self.cursor.get() % n;
        let mut all_closed = true;
        for i in 0..n {
            let lane_idx = (start + i) % n;
            match self.lanes[lane_idx].try_recv() {
                TryRecv::Item(x) => {
                    self.cursor.set((lane_idx + 1) % n);
                    return TryRecv::Item(x);
                }
                TryRecv::Empty => all_closed = false,
                TryRecv::Closed => {}
            }
        }
        if all_closed {
            TryRecv::Closed
        } else {
            TryRecv::Empty
        }
    }

    /// Dequeue, blocking (spin-then-park) while every lane is open and
    /// empty. `None` once every lane is closed and drained.
    pub fn recv(&self) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            match self.try_recv() {
                TryRecv::Item(x) => return Some(x),
                TryRecv::Closed => return None,
                TryRecv::Empty => {}
            }
            if backoff.snooze() {
                if let Some(done) = self.park_empty(PARK_SAFETY) {
                    return done;
                }
                backoff.reset();
            }
        }
    }

    /// [`RingReceiver::recv`] that gives up at a **deadline**: the total
    /// wait never exceeds `timeout` (plus scheduling noise), no matter
    /// how many wakeups occur in between.
    pub fn recv_timeout(&self, timeout: Duration) -> TryRecv<T> {
        let deadline = Instant::now() + timeout;
        let mut backoff = Backoff::new();
        loop {
            match self.try_recv() {
                TryRecv::Item(x) => return TryRecv::Item(x),
                TryRecv::Closed => return TryRecv::Closed,
                TryRecv::Empty => {}
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return TryRecv::Empty;
            };
            if backoff.snooze() {
                if let Some(done) = self.park_empty(remaining.min(PARK_SAFETY)) {
                    return match done {
                        Some(x) => TryRecv::Item(x),
                        None => TryRecv::Closed,
                    };
                }
                backoff.reset();
            }
        }
    }

    /// Park until a producer publishes or closes (bounded by `limit`).
    /// `Some(outcome)` short-circuits the caller's loop when the
    /// pre-park re-check already resolved the receive.
    fn park_empty(&self, limit: Duration) -> Option<Option<T>> {
        self.park.prepare();
        // order the re-check after the published waiting flag (see
        // backoff.rs: the peer's push fences then probes it)
        fence(Ordering::SeqCst);
        match self.try_recv() {
            TryRecv::Item(x) => {
                self.park.clear();
                Some(Some(x))
            }
            TryRecv::Closed => {
                self.park.clear();
                Some(None)
            }
            TryRecv::Empty => {
                self.park.park(limit);
                self.park.clear();
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn one_by_one_matrix_is_a_plain_ring() {
        let (mut txs, mut rxs) = ring_mpmc::<u32>(1, 1, 4);
        let (tx, rx) = (txs.remove(0), rxs.remove(0));
        assert_eq!(tx.capacity(), 4);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.try_recv(), TryRecv::Item(1));
        assert_eq!(rx.try_recv(), TryRecv::Item(2));
        assert_eq!(rx.try_recv(), TryRecv::Empty);
        tx.close();
        assert_eq!(rx.try_recv(), TryRecv::Closed);
    }

    #[test]
    fn send_within_routes_only_to_the_admitted_prefix() {
        let (mut txs, rxs) = ring_mpmc::<u32>(1, 3, 9);
        let tx = txs.remove(0);
        // width narrowed to 1: every item lands in column 0
        for i in 0..3 {
            tx.try_send_within(i, 1).unwrap();
        }
        assert_eq!(tx.try_send_within(99, 1), Err(99), "lane 0 is full");
        assert_eq!(rxs[0].len(), 3);
        assert_eq!(rxs[1].len(), 0);
        assert_eq!(rxs[2].len(), 0);
        // widened back: the overflow item now fits elsewhere
        tx.try_send_within(99, 3).unwrap();
        assert_eq!(rxs[1].len() + rxs[2].len(), 1);
    }

    #[test]
    fn dropping_one_producer_does_not_strand_the_others() {
        let (mut txs, mut rxs) = ring_mpmc::<u32>(2, 1, 8);
        let rx = rxs.remove(0);
        let tx1 = txs.remove(1);
        let tx0 = txs.remove(0);
        tx0.try_send(10).unwrap();
        drop(tx0); // closes row 0 only
        tx1.try_send(20).unwrap();
        let mut got = vec![];
        while let TryRecv::Item(x) = rx.try_recv() {
            got.push(x);
        }
        got.sort_unstable();
        assert_eq!(got, vec![10, 20]);
        assert_eq!(rx.try_recv(), TryRecv::Empty, "tx1 still open");
        drop(tx1);
        assert_eq!(rx.try_recv(), TryRecv::Closed);
    }

    /// A stream pump's wiring: one slot is the consumer park of two W×1
    /// matrices and the producer park of a 1×W one. A push into either
    /// output matrix, and a pop that frees an input slot, each wake the
    /// thread parked on it. The park bound is 10 s, so a lost wake-up
    /// shows as a join far beyond the 5 s the test allows.
    #[test]
    fn one_slot_shared_by_several_matrices_is_woken_by_each() {
        let slot = Arc::new(ParkSlot::default());
        let (a_txs, mut a_rxs) = ring_mpmc_parked::<u32>(2, 1, 4, None, Some(Arc::clone(&slot)));
        let (b_txs, mut b_rxs) = ring_mpmc_parked::<u32>(2, 1, 4, None, Some(Arc::clone(&slot)));
        let (mut in_txs, in_rxs) = ring_mpmc_parked::<u32>(1, 2, 2, Some(Arc::clone(&slot)), None);
        let (a_rx, b_rx, in_tx) = (a_rxs.remove(0), b_rxs.remove(0), in_txs.remove(0));
        in_tx.try_send(1).unwrap();
        in_tx.try_send(2).unwrap();
        assert!(in_tx.try_send(3).is_err(), "input matrix full");

        let waiter_slot = Arc::clone(&slot);
        let waker = std::thread::spawn(move || {
            let wait_parked = || {
                while !slot.is_waiting() {
                    std::thread::yield_now();
                }
            };
            wait_parked();
            a_txs[1].try_send(10).unwrap();
            wait_parked();
            b_txs[0].try_send(20).unwrap();
            wait_parked();
            // a replica claims an input: the pump may route again
            assert!(in_rxs
                .iter()
                .any(|rx| matches!(rx.try_recv(), TryRecv::Item(_))));
            (a_txs, b_txs, in_rxs)
        });
        // the pump's wait: re-check after publishing, park only if nothing
        // moved, loop on spurious wakes
        let wait_until = |ready: &dyn Fn() -> bool| {
            let t0 = Instant::now();
            while !ready() {
                waiter_slot.prepare();
                fence(Ordering::SeqCst);
                if !ready() {
                    waiter_slot.park(Duration::from_secs(10));
                }
                waiter_slot.clear();
            }
            t0.elapsed()
        };
        let waited = [
            wait_until(&|| a_rx.try_recv() == TryRecv::Item(10)),
            wait_until(&|| b_rx.try_recv() == TryRecv::Item(20)),
            wait_until(&|| in_tx.try_send(3).is_ok()),
        ];
        let _links = waker.join().unwrap();
        for w in waited {
            assert!(w < Duration::from_secs(5), "lost wake-up: {w:?}");
        }
    }

    /// The issue's claim-once test, mirroring
    /// `chan.rs::multi_consumer_claims_each_item_once` over the ring
    /// composition: 4 producers × 4 consumers, 500 distinct items, every
    /// one delivered exactly once.
    #[test]
    fn multi_consumer_claims_each_item_once() {
        let (txs, rxs) = ring_mpmc::<u32>(4, 4, 64);
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let mut joins = Vec::new();
        for rx in rxs {
            let seen = Arc::clone(&seen);
            joins.push(std::thread::spawn(move || {
                while let Some(x) = rx.recv() {
                    assert!(seen.lock().unwrap().insert(x), "item {x} claimed twice");
                }
            }));
        }
        let mut prod = Vec::new();
        for (p, tx) in txs.into_iter().enumerate() {
            prod.push(std::thread::spawn(move || {
                for i in 0..125u32 {
                    tx.send(p as u32 * 1000 + i).expect("consumers alive");
                }
                // tx drops here: closes row p
            }));
        }
        for j in prod {
            j.join().unwrap();
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(seen.lock().unwrap().len(), 500);
    }
}
