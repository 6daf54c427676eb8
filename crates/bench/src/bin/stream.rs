//! Streaming-runtime benchmark: items/sec of one persistent operator
//! graph serving a stream vs repeated eager `run`, across channel
//! capacities and farm widths, emitted as `BENCH_stream.json`.
//!
//! ```text
//! cargo run --release -p scl-bench --bin stream [items] [partitions] [stages] [elems_per_part]
//! ```
//!
//! The plan is a pipeline of `stages` part-local multiply-add maps with a
//! `rotate` barrier in the middle — under the streaming runtime that is
//! two farm stages split by one stage boundary:
//!
//! * **eager** — one `plan.run` per item on a reset context under
//!   `Threads(max(host, 4))` (the same budget `BENCH_fused.json` uses):
//!   every stage of every item is its own fork-join dispatch;
//! * **stream** — `StreamExec::run_stream` over the same items: replicas
//!   and ring links persist, items overlap across stages (fixed farm
//!   widths, autonomic control off, so each `(capacity, width)` cell
//!   measures exactly one configuration).
//!
//! Every cell runs on the one link family there is, lock-free ring lane
//! matrices. A ring needs one slot per lane, so a farm spawns
//! `min(width, capacity)` replicas: the `(2, 4)` cell runs 2-wide farms.
//! A cell's worker-thread count is therefore read back from the graph
//! (`stage_stats()`: each farm owns its replicas), reported per cell as
//! `workers`, and the headline `speedup_stream_vs_eager` is taken over
//! **budget-matched** cells only (`workers ≤` the eager thread budget);
//! the unconstrained best is reported separately as
//! `speedup_stream_vs_eager_best`.

use scl_core::prelude::*;
use scl_stream::{StreamExec, StreamPolicy};
use std::time::Instant;

/// One part-local stage: elementwise multiply-add over the part.
fn stage() -> Skel<'static, ParArray<Vec<f64>>, ParArray<Vec<f64>>> {
    Skel::map_costed(|v: &Vec<f64>| {
        let out: Vec<f64> = v.iter().map(|x| x.mul_add(1.0001, 0.25)).collect();
        (out, Work::flops(2 * v.len() as u64))
    })
}

/// `stages` maps with one rotate barrier in the middle: two fused
/// segments → two farm stages under the streaming runtime.
fn plan(stages: usize) -> Skel<'static, ParArray<Vec<f64>>, ParArray<Vec<f64>>> {
    let mut p = stage();
    for s in 1..stages.max(2) {
        if s == stages / 2 {
            p = p.then(Skel::rotate(1)).then(Skel::rotate(-1));
        }
        p = p.then(stage());
    }
    p
}

fn items(n: usize, partitions: usize, elems: usize) -> Vec<ParArray<Vec<f64>>> {
    (0..n)
        .map(|k| {
            ParArray::from_parts(
                (0..partitions)
                    .map(|p| {
                        (0..elems)
                            .map(|i| ((k * partitions + p) * elems + i) as f64 * 1e-4)
                            .collect()
                    })
                    .collect(),
            )
        })
        .collect()
}

struct Row {
    mode: String,
    capacity: usize,
    width: usize,
    workers: usize,
    items_per_sec: f64,
    millis: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut next = |d: usize| args.next().and_then(|s| s.parse().ok()).unwrap_or(d);
    let n_items = next(256);
    let partitions = next(8);
    let stages = next(16);
    let elems = next(1024);
    let host = scl_exec::host_threads();
    let tmax = host.max(4);

    println!("streaming runtime benchmark");
    println!(
        "  {n_items} items x {partitions} partitions x {stages} stages x {elems} elems/part, \
         {host} host threads, eager policy Threads({tmax})"
    );
    println!();

    let data = items(n_items, partitions, elems);
    let the_plan = plan(stages);

    // ---- eager baseline: one full run per item ----------------------------
    let mut eager_ctx = Scl::ap1000(partitions).with_policy(ExecPolicy::Threads(tmax));
    // warm-up
    let expect = the_plan.run(&mut eager_ctx, data[0].clone());
    let t0 = Instant::now();
    for item in &data {
        eager_ctx.reset();
        std::hint::black_box(the_plan.run(&mut eager_ctx, item.clone()));
    }
    let eager_secs = t0.elapsed().as_secs_f64();
    let eager_rate = n_items as f64 / eager_secs;
    let mut rows = vec![Row {
        mode: "eager".into(),
        capacity: 0,
        width: tmax,
        workers: tmax,
        items_per_sec: eager_rate,
        millis: eager_secs * 1e3,
    }];

    // ---- streaming: capacity × width sweep --------------------------------
    let mut widths = vec![1usize, 2, 4];
    if tmax > 4 {
        widths.push(tmax);
    }
    let mut best_matched = 0.0f64; // workers ≤ eager's thread budget
    let mut best_any = 0.0f64;
    for &capacity in &[2usize, 8, 32] {
        for &width in &widths {
            let policy = StreamPolicy::new(Machine::ap1000(partitions))
                .with_exec(ExecPolicy::Threads(width))
                .with_capacity(capacity)
                .with_adaptive(false);
            let exec = StreamExec::new(plan(stages), policy);
            let workers: usize = exec
                .stage_stats()
                .iter()
                .filter(|st| st.farm)
                .map(|st| st.max_width)
                .sum();
            let t0 = Instant::now();
            let mut outputs = exec.run_stream(data.iter().cloned());
            let first = outputs.next().expect("stream yields every item");
            assert_eq!(first, expect, "stream must agree with eager");
            let count = 1 + outputs.by_ref().count();
            let secs = t0.elapsed().as_secs_f64();
            assert_eq!(count, n_items);
            let rate = n_items as f64 / secs;
            best_any = best_any.max(rate);
            if workers <= tmax {
                best_matched = best_matched.max(rate);
            }
            rows.push(Row {
                mode: "stream".into(),
                capacity,
                width,
                workers,
                items_per_sec: rate,
                millis: secs * 1e3,
            });
        }
    }

    println!(
        "{:<8} {:>9} {:>6} {:>8} {:>14} {:>10}",
        "mode", "capacity", "width", "workers", "items/sec", "millis"
    );
    for r in &rows {
        println!(
            "{:<8} {:>9} {:>6} {:>8} {:>14.1} {:>10.2}",
            r.mode, r.capacity, r.width, r.workers, r.items_per_sec, r.millis
        );
    }
    let speedup = best_matched / eager_rate;
    let speedup_best = best_any / eager_rate;
    println!();
    println!("stream vs repeated eager run (workers <= {tmax}): {speedup:.2}x");
    println!("stream vs repeated eager run (any width):       {speedup_best:.2}x");

    // ---- BENCH_stream.json ------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"stream_pipeline\",\n");
    json.push_str(&format!("  \"items\": {n_items},\n"));
    json.push_str(&format!("  \"partitions\": {partitions},\n"));
    json.push_str(&format!("  \"stages\": {stages},\n"));
    json.push_str(&format!("  \"elems_per_part\": {elems},\n"));
    json.push_str(&format!("  \"host_threads\": {host},\n"));
    json.push_str(&format!("  \"eager_threads\": {tmax},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"capacity\": {}, \"width\": {}, \"workers\": {}, \
             \"items_per_sec\": {:.3}, \"millis\": {:.3}}}{}\n",
            r.mode,
            r.capacity,
            r.width,
            r.workers,
            r.items_per_sec,
            r.millis,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"speedup_stream_vs_eager\": {speedup:.4},\n"));
    json.push_str(&format!(
        "  \"speedup_stream_vs_eager_best\": {speedup_best:.4}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_stream.json", &json).expect("write BENCH_stream.json");
    println!();
    println!("wrote BENCH_stream.json");
}
