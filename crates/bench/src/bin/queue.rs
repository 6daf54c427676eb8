//! Queue-layer micro-benchmark: throughput of the lock-free SPSC ring
//! and its MPMC lane-matrix composition — the only transport under the
//! stream farms — against two baselines nothing in the runtime sends
//! through: the mutex+condvar [`Bounded`] channel (kept for exactly this
//! measurement) and `std::sync::mpsc::sync_channel`. Emitted as
//! `BENCH_queue.json`.
//!
//! ```text
//! cargo run --release -p scl-bench --bin queue [items] [capacity]
//! ```
//!
//! Three shapes, all moving `u64` payloads so the numbers measure the
//! transport, not the item:
//!
//! * **spsc 1p1c** — one producer thread, the main thread consuming:
//!   [`ring`] vs [`Bounded`] vs `sync_channel`. This is the shape every
//!   farm link in `scl-stream` reduces to per lane, and the headline
//!   ratio (`speedup_spsc_ring_vs_bounded`) is the acceptance gate: the
//!   ring must beat the locked channel even on a small host.
//! * **mpmc t×t** for t ∈ {2, 4} — `t` producer threads and `t` consumer
//!   threads over one transport: [`ring_mpmc`]'s per-pair lanes vs one
//!   shared [`Bounded`]. Every consumer checksums what it claims and the
//!   sums must reconcile — a throughput number that lost items would be
//!   meaningless.
//!
//! Results record [`host_threads`] (as every `BENCH_*.json` does): on a
//! single-core runner the two sides of a queue time-slice one CPU, so
//! absolute rates are far below multi-core figures and the interesting
//! signal is the *ratio* between transports.

use scl_exec::{host_threads, ring, ring_mpmc, Bounded};
use std::time::Instant;

struct Row {
    family: &'static str,
    shape: String,
    transport: &'static str,
    items: usize,
    millis: f64,
    items_per_sec: f64,
}

fn row(family: &'static str, shape: &str, transport: &'static str, items: usize, secs: f64) -> Row {
    Row {
        family,
        shape: shape.to_string(),
        transport,
        items,
        millis: secs * 1e3,
        items_per_sec: items as f64 / secs,
    }
}

/// Expected checksum of `0..n` as u64.
fn checksum(n: usize) -> u64 {
    let n = n as u64;
    n * (n - 1) / 2
}

fn spsc_ring(n: usize, cap: usize) -> f64 {
    let (tx, rx) = ring::<u64>(cap);
    let t0 = Instant::now();
    let prod = std::thread::spawn(move || {
        for i in 0..n as u64 {
            tx.send(i).expect("receiver alive");
        }
    });
    let mut sum = 0u64;
    while let Some(x) = rx.recv() {
        sum += x;
    }
    prod.join().expect("producer clean");
    assert_eq!(sum, checksum(n), "spsc ring lost or duplicated items");
    t0.elapsed().as_secs_f64()
}

fn spsc_bounded(n: usize, cap: usize) -> f64 {
    let q = Bounded::<u64>::new(cap);
    let tx = q.clone();
    let t0 = Instant::now();
    let prod = std::thread::spawn(move || {
        for i in 0..n as u64 {
            tx.send(i).expect("receiver alive");
        }
        tx.close();
    });
    let mut sum = 0u64;
    while let Some(x) = q.recv() {
        sum += x;
    }
    prod.join().expect("producer clean");
    assert_eq!(sum, checksum(n), "bounded lost or duplicated items");
    t0.elapsed().as_secs_f64()
}

fn spsc_std_mpsc(n: usize, cap: usize) -> f64 {
    let (tx, rx) = std::sync::mpsc::sync_channel::<u64>(cap);
    let t0 = Instant::now();
    let prod = std::thread::spawn(move || {
        for i in 0..n as u64 {
            tx.send(i).expect("receiver alive");
        }
    });
    let mut sum = 0u64;
    while let Ok(x) = rx.recv() {
        sum += x;
    }
    prod.join().expect("producer clean");
    assert_eq!(sum, checksum(n), "std mpsc lost or duplicated items");
    t0.elapsed().as_secs_f64()
}

fn mpmc_ring(n: usize, threads: usize, cap: usize) -> f64 {
    let (txs, rxs) = ring_mpmc::<u64>(threads, threads, cap);
    let per = n / threads;
    let t0 = Instant::now();
    let mut joins = Vec::new();
    for (p, tx) in txs.into_iter().enumerate() {
        joins.push(std::thread::spawn(move || {
            for i in 0..per as u64 {
                tx.send((p * per) as u64 + i).expect("consumers alive");
            }
            0u64 // senders close their lanes on drop
        }));
    }
    for rx in rxs {
        joins.push(std::thread::spawn(move || {
            let mut sum = 0u64;
            while let Some(x) = rx.recv() {
                sum += x;
            }
            sum
        }));
    }
    let sum: u64 = joins.into_iter().map(|j| j.join().expect("clean")).sum();
    assert_eq!(sum, checksum(per * threads), "mpmc ring lost items");
    t0.elapsed().as_secs_f64()
}

fn mpmc_bounded(n: usize, threads: usize, cap: usize) -> f64 {
    let q = Bounded::<u64>::new(cap);
    let per = n / threads;
    let done = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let t0 = Instant::now();
    let mut joins = Vec::new();
    for p in 0..threads {
        let tx = q.clone();
        let done = std::sync::Arc::clone(&done);
        joins.push(std::thread::spawn(move || {
            for i in 0..per as u64 {
                tx.send((p * per) as u64 + i).expect("consumers alive");
            }
            // last producer out closes the shared channel
            if done.fetch_add(1, std::sync::atomic::Ordering::AcqRel) + 1 == threads {
                tx.close();
            }
            0u64
        }));
    }
    for _ in 0..threads {
        let rx = q.clone();
        joins.push(std::thread::spawn(move || {
            let mut sum = 0u64;
            while let Some(x) = rx.recv() {
                sum += x;
            }
            sum
        }));
    }
    let sum: u64 = joins.into_iter().map(|j| j.join().expect("clean")).sum();
    assert_eq!(sum, checksum(per * threads), "mpmc bounded lost items");
    t0.elapsed().as_secs_f64()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut next = |d: usize| args.next().and_then(|s| s.parse().ok()).unwrap_or(d);
    let n_items = next(1_000_000).max(1000);
    let capacity = next(256).max(2);
    let host = host_threads();

    println!("queue-layer benchmark");
    println!("  {n_items} u64 items, capacity {capacity}, {host} host threads");
    println!();

    // warm-up: touch every transport once so first-use costs (thread
    // spawn paths, allocator) land outside the timed runs
    let warm = 10_000;
    spsc_ring(warm, capacity);
    spsc_bounded(warm, capacity);
    spsc_std_mpsc(warm, capacity);

    let mut rows = Vec::new();
    let ring_secs = spsc_ring(n_items, capacity);
    rows.push(row("spsc", "1p1c", "ring", n_items, ring_secs));
    let bounded_secs = spsc_bounded(n_items, capacity);
    rows.push(row("spsc", "1p1c", "bounded", n_items, bounded_secs));
    let mpsc_secs = spsc_std_mpsc(n_items, capacity);
    rows.push(row("spsc", "1p1c", "std_mpsc", n_items, mpsc_secs));

    for threads in [2usize, 4] {
        let shape = format!("{threads}p{threads}c");
        let secs = mpmc_ring(n_items, threads, capacity);
        rows.push(row("mpmc", &shape, "ring", n_items, secs));
        let secs = mpmc_bounded(n_items, threads, capacity);
        rows.push(row("mpmc", &shape, "bounded", n_items, secs));
    }

    println!(
        "{:<6} {:<6} {:<9} {:>10} {:>10} {:>14}",
        "family", "shape", "transport", "items", "millis", "items/sec"
    );
    for r in &rows {
        println!(
            "{:<6} {:<6} {:<9} {:>10} {:>10.2} {:>14.0}",
            r.family, r.shape, r.transport, r.items, r.millis, r.items_per_sec
        );
    }
    let speedup = bounded_secs / ring_secs;
    let speedup_mpsc = mpsc_secs / ring_secs;
    println!();
    println!("spsc ring vs Bounded:  {speedup:.2}x");
    println!("spsc ring vs std mpsc: {speedup_mpsc:.2}x");

    // ---- BENCH_queue.json -------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"queue_layer\",\n");
    json.push_str(&format!("  \"items\": {n_items},\n"));
    json.push_str(&format!("  \"capacity\": {capacity},\n"));
    json.push_str(&format!("  \"host_threads\": {host},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"family\": \"{}\", \"shape\": \"{}\", \"transport\": \"{}\", \
             \"items\": {}, \"millis\": {:.3}, \"items_per_sec\": {:.1}}}{}\n",
            r.family,
            r.shape,
            r.transport,
            r.items,
            r.millis,
            r.items_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_spsc_ring_vs_bounded\": {speedup:.4},\n"
    ));
    json.push_str(&format!(
        "  \"speedup_spsc_ring_vs_std_mpsc\": {speedup_mpsc:.4}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_queue.json", &json).expect("write BENCH_queue.json");
    println!();
    println!("wrote BENCH_queue.json");
}
