//! Fused-executor benchmark: eager vs fused vs optimized+fused wall time
//! on a compute pipeline, emitted as `BENCH_fused.json`.
//!
//! ```text
//! cargo run --release -p scl-bench --bin fused [partitions] [stages] [elems_per_part] [reps]
//! ```
//!
//! The pipeline experiment builds a plan of `stages` part-local map stages
//! over `partitions` partitions of `elems_per_part` floats and times, under
//! the **same** threaded policy (`Threads(max(host, 4))`, so the dispatch
//! difference is visible even on small hosts):
//!
//! * **eager** — `Skel::run`: one fork-join dispatch and one materialised
//!   intermediate array per stage;
//! * **fused** — `Scl::run_fused`: the whole chain as one partition-resident
//!   segment on the persistent pool;
//!
//! plus `fused_cost_driven` (the cost model picks threads/grain per
//! segment) and `fused_sequential` for reference.
//!
//! The symbolic experiment separates compile from run, the way the paper
//! means optimisation to be used (optimise once, execute many times): it
//! times the eager original pipeline per run vs the optimised+raised plan
//! per run through the fused executor, reporting the one-off
//! `optimize_ms` alongside.

use scl_core::prelude::*;
use std::time::Instant;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Median wall-clock milliseconds of `f` over `reps` runs (one warm-up).
fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(samples)
}

/// One part-local stage: elementwise multiply-add over the part.
fn stage() -> Skel<'static, ParArray<Vec<f64>>, ParArray<Vec<f64>>> {
    Skel::map_costed(|v: &Vec<f64>| {
        let out: Vec<f64> = v.iter().map(|x| x.mul_add(1.0001, 0.25)).collect();
        (out, Work::flops(2 * v.len() as u64))
    })
}

fn pipeline_plan(stages: usize) -> Skel<'static, ParArray<Vec<f64>>, ParArray<Vec<f64>>> {
    let mut plan = stage();
    for _ in 1..stages {
        plan = plan.then(stage());
    }
    plan
}

fn input(partitions: usize, elems: usize) -> ParArray<Vec<f64>> {
    ParArray::from_parts(
        (0..partitions)
            .map(|p| (0..elems).map(|i| (p * elems + i) as f64 * 1e-3).collect())
            .collect(),
    )
}

struct Row {
    mode: &'static str,
    millis: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut next = |d: usize| args.next().and_then(|s| s.parse().ok()).unwrap_or(d);
    let partitions = next(8);
    let stages = next(16);
    let elems = next(4096);
    let reps = next(15);
    let threads = scl_exec::host_threads();
    // both executors get the same thread budget; at least 4 so the
    // spawn-per-skeleton vs persistent-pool difference is measured even on
    // single-core CI runners
    let pol = ExecPolicy::Threads(threads.max(4));

    println!("fused-executor pipeline benchmark");
    println!(
        "  {partitions} partitions x {stages} stages x {elems} elems/part, \
         {reps} reps (median), {threads} host threads, policy {pol:?}"
    );
    println!();

    // ---- pipeline experiment: eager vs fused ------------------------------
    let plan = pipeline_plan(stages);
    let data = input(partitions, elems);

    let mut eager_ctx = Scl::ap1000(partitions).with_policy(pol);
    let eager_ms = time_ms(reps, || {
        eager_ctx.reset();
        plan.run(&mut eager_ctx, data.clone())
    });
    // one context per mode, reused across reps: the persistent pool is the
    // point of the fused executor
    let mut fused_ctx = Scl::ap1000(partitions).with_policy(pol);
    let fused_ms = time_ms(reps, || {
        fused_ctx.reset();
        fused_ctx.run_fused(&plan, data.clone()).unwrap()
    });
    let mut cost_ctx = Scl::ap1000(partitions).with_policy(ExecPolicy::cost_driven());
    let cost_ms = time_ms(reps, || {
        cost_ctx.reset();
        cost_ctx.run_fused(&plan, data.clone()).unwrap()
    });
    let mut seq_ctx = Scl::ap1000(partitions);
    let seq_ms = time_ms(reps, || {
        seq_ctx.reset();
        seq_ctx.run_fused(&plan, data.clone()).unwrap()
    });

    // sanity: the two executors agree bit-for-bit
    {
        let mut a = Scl::ap1000(partitions).with_policy(pol);
        let mut b = Scl::ap1000(partitions).with_policy(pol);
        assert_eq!(
            plan.run(&mut a, data.clone()),
            b.run_fused(&plan, data.clone()).unwrap(),
            "fused execution must agree with eager"
        );
    }

    // ---- symbolic experiment: optimise once, run many ---------------------
    let reg = Registry::standard();
    let mut sym = Skel::map_sym("inc", &reg);
    for i in 1..stages {
        sym = sym.then(Skel::map_sym(
            ["double", "inc", "square", "dec"][i % 4],
            &reg,
        ));
        if i % 4 == 3 {
            // cancelling rotations for the rewrite engine to erase
            sym = sym.then(Skel::rotate(2)).then(Skel::rotate(-2));
        }
    }
    let sym_parts = 256usize; // simulated processors are free
    let sym_input = ParArray::from_parts((0..sym_parts as i64).collect::<Vec<i64>>());
    let mut sym_eager_ctx = Scl::ap1000(sym_parts);
    let sym_eager_ms = time_ms(reps, || {
        sym_eager_ctx.reset();
        sym.run(&mut sym_eager_ctx, sym_input.clone())
    });
    let t0 = Instant::now();
    let lowered = sym.lower(&reg).expect("symbolic pipeline is lowerable");
    let (opt_expr, _log) = scl_transform::optimize(lowered, &reg);
    let raised = Skel::from_expr(&opt_expr, &reg).expect("optimise preserves shape");
    let optimize_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut sym_opt_ctx = Scl::ap1000(sym_parts);
    let sym_opt_ms = time_ms(reps, || {
        sym_opt_ctx.reset();
        sym_opt_ctx.run_fused(&raised, sym_input.clone()).unwrap()
    });

    let rows = [
        Row {
            mode: "eager_threads",
            millis: eager_ms,
        },
        Row {
            mode: "fused_threads",
            millis: fused_ms,
        },
        Row {
            mode: "fused_cost_driven",
            millis: cost_ms,
        },
        Row {
            mode: "fused_sequential",
            millis: seq_ms,
        },
        Row {
            mode: "symbolic_eager",
            millis: sym_eager_ms,
        },
        Row {
            mode: "symbolic_optimized_fused",
            millis: sym_opt_ms,
        },
    ];
    println!("{:<26} {:>12}", "mode", "millis");
    for r in &rows {
        println!("{:<26} {:>12.4}", r.mode, r.millis);
    }
    let speedup = eager_ms / fused_ms;
    let sym_speedup = sym_eager_ms / sym_opt_ms;
    println!();
    println!("fused vs eager speedup:              {speedup:.2}x");
    println!("optimized+fused vs eager (symbolic): {sym_speedup:.2}x (one-off optimize: {optimize_ms:.3} ms)");

    // ---- BENCH_fused.json -------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"fused_pipeline\",\n");
    json.push_str(&format!("  \"partitions\": {partitions},\n"));
    json.push_str(&format!("  \"stages\": {stages},\n"));
    json.push_str(&format!("  \"elems_per_part\": {elems},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"host_threads\": {threads},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"millis\": {:.6}}}{}\n",
            r.mode,
            r.millis,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"speedup_fused_vs_eager\": {speedup:.4},\n"));
    json.push_str(&format!("  \"symbolic_partitions\": {sym_parts},\n"));
    json.push_str(&format!(
        "  \"symbolic_optimize_once_ms\": {optimize_ms:.6},\n"
    ));
    json.push_str(&format!(
        "  \"speedup_optimized_fused_vs_eager_symbolic\": {sym_speedup:.4}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_fused.json", &json).expect("write BENCH_fused.json");
    println!();
    println!("wrote BENCH_fused.json");
}
