//! The mutex+condvar baseline the rings are measured against.
//!
//! [`Bounded<T>`] is the textbook bounded multi-producer / multi-consumer
//! channel — a `Mutex<VecDeque>` and two condvars — and nothing in the
//! runtime sends a message through it: every stage-to-stage link is a
//! lock-free ring ([`spsc`](crate::spsc), [`mpmc`](crate::mpmc)). It stays
//! as the **measured baseline**: the benchmark ladder's
//! `exec.bounded_ns_per_msg` probe drives the same traffic through it that
//! `exec.ring_ns_per_msg` drives through a ring, so what the lock-free path
//! buys is a number.
//! Its surface is what those measurements use:
//!
//! * a hard **capacity** — [`Bounded::send`] blocks while the queue is
//!   full;
//! * a **close** bit — [`Bounded::close`] wakes every blocked sender and
//!   receiver; receivers drain the remaining items and then observe
//!   disconnection.
//!
//! Handles are cheap clones sharing one queue (`Arc` internally); any
//! handle may send, receive, or close. [`TryRecv`], the outcome type of
//! the rings' non-blocking and timed receives, is defined here too.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

struct State<T> {
    buf: VecDeque<T>,
    closed: bool,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

/// A bounded MPMC channel; see the [module docs](self).
pub struct Bounded<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Bounded<T> {
    fn clone(&self) -> Self {
        Bounded {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Outcome of a non-blocking or timed receive on a ring.
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecv<T> {
    /// An item was dequeued.
    Item(T),
    /// The queue is currently empty but the channel is open.
    Empty,
    /// The channel is closed and fully drained.
    Closed,
}

impl<T> Bounded<T> {
    /// A channel holding at most `cap` items (at least 1).
    pub fn new(cap: usize) -> Bounded<T> {
        Bounded {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    buf: VecDeque::with_capacity(cap.max(1)),
                    closed: false,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                cap: cap.max(1),
            }),
        }
    }

    /// Close the channel: blocked senders fail, receivers drain what is
    /// left and then observe `None`.
    pub fn close(&self) {
        self.inner.state.lock().expect("poisoned channel").closed = true;
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// Enqueue, blocking while the channel is full. `Err(item)` if the
    /// channel closed (the item is handed back).
    pub fn send(&self, item: T) -> Result<(), T> {
        let mut st = self.inner.state.lock().expect("poisoned channel");
        loop {
            if st.closed {
                return Err(item);
            }
            if st.buf.len() < self.inner.cap {
                st.buf.push_back(item);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            st = self.inner.not_full.wait(st).expect("poisoned channel");
        }
    }

    /// Dequeue, blocking while the channel is open and empty. `None` once
    /// the channel is closed *and* drained.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.inner.state.lock().expect("poisoned channel");
        loop {
            if let Some(x) = st.buf.pop_front() {
                self.inner.not_full.notify_one();
                return Some(x);
            }
            if st.closed {
                return None;
            }
            st = self.inner.not_empty.wait(st).expect("poisoned channel");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn fifo_order() {
        let ch = Bounded::new(4);
        ch.send(1).unwrap();
        ch.send(2).unwrap();
        assert_eq!(ch.recv(), Some(1));
        assert_eq!(ch.recv(), Some(2));
    }

    #[test]
    fn close_drains_then_disconnects() {
        let ch = Bounded::new(4);
        ch.send("a").unwrap();
        ch.close();
        assert_eq!(ch.send("b"), Err("b"));
        assert_eq!(ch.recv(), Some("a"));
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn blocked_sender_resumes_when_room_appears() {
        let ch = Bounded::new(1);
        ch.send(0u64).unwrap();
        let tx = ch.clone();
        let sender = std::thread::spawn(move || tx.send(1).is_ok());
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(ch.recv(), Some(0)); // frees the slot
        assert!(sender.join().unwrap());
        assert_eq!(ch.recv(), Some(1));
    }

    #[test]
    fn close_wakes_blocked_sender() {
        let ch = Bounded::new(1);
        ch.send(0u64).unwrap();
        let tx = ch.clone();
        let sender = std::thread::spawn(move || tx.send(1));
        std::thread::sleep(Duration::from_millis(5));
        ch.close();
        assert_eq!(sender.join().unwrap(), Err(1));
    }

    #[test]
    fn multi_consumer_claims_each_item_once() {
        let ch = Bounded::new(64);
        let taken = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let rx = ch.clone();
            let taken = Arc::clone(&taken);
            joins.push(std::thread::spawn(move || {
                while rx.recv().is_some() {
                    taken.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for i in 0..500 {
            ch.send(i).unwrap();
        }
        ch.close();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(taken.load(Ordering::Relaxed), 500);
    }
}
