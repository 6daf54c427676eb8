//! Persistent farm replicas: the farm form of a streaming pipeline stage.
//!
//! [`par_pipeline`](crate::par_pipeline) dispatches one *batch* onto the
//! pool and joins; a streaming runtime instead needs workers that live as
//! long as the stream does. [`spawn_farm_workers`] puts one such worker per
//! ring lane pair on a [`ThreadPool`], each looping `recv → work → send`.
//!
//! * **Shutdown** is by closing the rings: a replica whose input closes
//!   drains what is queued and exits, dropping its lane ends — which
//!   closes them, so shutdown propagates downstream. The pool's drop joins
//!   the threads.
//! * **Admission** lives upstream, in the pump's routing
//!   ([`RingSender::try_send_within`]): a narrowed-off replica simply stops
//!   receiving new items, drains its ring, and parks in `recv` at zero
//!   cost. Widening or narrowing a farm never spawns, joins or wakes a
//!   thread.

use crate::mpmc::{RingReceiver, RingSender};
use crate::pool::ThreadPool;
use std::sync::Arc;

/// Spawn one persistent worker per `(input, output)` ring pair on `pool`,
/// each looping `recv → work(worker_index, item) → send` until its input
/// closes (or its output rejects a send). Each replica **owns** both ends
/// of its private lanes — typically one column of an input
/// [`ring_mpmc`](crate::mpmc::ring_mpmc) matrix and one row of an output
/// one — so the loop body takes no lock anywhere.
///
/// Worker index `r` is the pair's position in `links`. The pool must have
/// at least `links.len()` threads to spare: each worker occupies one pool
/// thread until its input closes. A panic in `work` ends that replica only
/// (its lanes close as it unwinds); callers that need the item back turn
/// failure into a value inside `work`.
pub fn spawn_farm_workers<T, U>(
    pool: &ThreadPool,
    links: Vec<(RingReceiver<T>, RingSender<U>)>,
    work: Arc<dyn Fn(usize, T) -> U + Send + Sync>,
) where
    T: Send + 'static,
    U: Send + 'static,
{
    for (r, (rx, tx)) in links.into_iter().enumerate() {
        let work = Arc::clone(&work);
        pool.execute(move || {
            while let Some(x) = rx.recv() {
                if tx.send(work(r, x)).is_err() {
                    break;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpmc::ring_mpmc;

    #[test]
    fn farm_workers_move_items_over_private_rings() {
        let pool = ThreadPool::new(3);
        let (mut in_txs, in_rxs) = ring_mpmc::<u64>(1, 3, 12);
        let (out_txs, mut out_rxs) = ring_mpmc::<u64>(3, 1, 12);
        let in_tx = in_txs.remove(0);
        let out_rx = out_rxs.remove(0);
        let links: Vec<_> = in_rxs.into_iter().zip(out_txs).collect();
        spawn_farm_workers(&pool, links, Arc::new(|_, x: u64| x * 2));
        let feeder = std::thread::spawn(move || {
            for i in 0..300 {
                in_tx.send(i).unwrap();
            }
            // in_tx drops: workers drain, exit, drop their out rows
        });
        // `None` only once every replica has exited and its row is drained
        let mut got = Vec::new();
        while let Some(x) = out_rx.recv() {
            got.push(x);
        }
        feeder.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..300).map(|i| i * 2).collect::<Vec<u64>>());
    }
}
