//! Quickstart: the two-tier SCL programming model in one file.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! An SCL program has an upper coordination layer (skeletons, here) and a
//! lower sequential layer (plain Rust closures). This example walks the
//! three skeleton families on a simulated 8-cell AP1000: configuration
//! (partition/align), elementary (map/fold + communication), and
//! computational (iterFor), then prints the machine's verdict — predicted
//! runtime, message counts, and a Gantt chart of the virtual timeline.
//!
//! Every skeleton comes in two styles: the **eager** methods on `Scl`
//! used below, and the **plan** combinators on `Skel` (same skeletons as
//! first-class values, composable with `.then`, optimisable before
//! execution) — the final section shows both side by side.

use scl::prelude::*;

fn main() {
    // A simulated AP1000 with 8 cells; trace enabled for the Gantt chart.
    let mut scl = Scl::ap1000(8);
    scl.machine.trace.enable();

    // ---- configuration skeletons ---------------------------------------
    // Block-distribute two 80k-element vectors and align them into a
    // configuration (a distributed array of co-located pairs).
    let n = 80_000;
    let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
    let cfg = scl.distribution2(Pattern::Block(8), &x, Pattern::Block(8), &y);

    // ---- elementary skeletons -------------------------------------------
    // Local dot products (each part reports its own work), then a global
    // tree reduction.
    let partials = scl.map_costed(&cfg, |(xs, ys)| {
        let dot: f64 = xs.iter().zip(ys).map(|(a, b)| a * b).sum();
        (dot, Work::flops(2 * xs.len() as u64))
    });
    let dot = scl.fold(&partials, |a, b| a + b);
    println!("dot(x, y)           = {dot:.6}");

    // A regular communication skeleton: rotate the partial sums one
    // processor to the left and take pairwise differences.
    let rotated = scl.rotate(1, &partials);
    let diffs = scl.zip_with(&partials, &rotated, |a, b| a - b);
    println!(
        "neighbour diffs     = {:?}",
        diffs
            .to_vec()
            .iter()
            .map(|d| (d * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );

    // ---- computational skeletons ----------------------------------------
    // iterFor: three sweeps of a toy smoothing iteration over the partials.
    let smoothed = scl.iter_for(
        3,
        |scl, _, arr: ParArray<f64>| {
            let left = scl.rotate(-1, &arr);
            let right = scl.rotate(1, &arr);
            let cfg = align(align(left, right), arr);
            scl.map_costed(&cfg, |((l, r), c)| ((l + r + c) / 3.0, Work::flops(3)))
        },
        partials,
    );
    println!(
        "smoothed partials   = {:?}",
        smoothed
            .to_vec()
            .iter()
            .map(|d| (d * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );

    // ---- the plan API: the same program as a value -----------------------
    // The eager calls above execute as they are written. A `Skel` plan is
    // the same skeleton program held as a *value*: write once, run against
    // any context — or, for the symbolic fragment, let the §4 rewrite laws
    // shrink it first.
    let reg = Registry::standard();
    let plan = Skel::map_sym("square", &reg) // map with a registered symbol
        .then(Skel::rotate(2)) // ... a rotation
        .then(Skel::rotate(-2)) // ... that cancels
        .then(Skel::map_sym("inc", &reg)); // ... and a second map
    let ints = scl::core::ParArray::from_parts((0..8).collect::<Vec<i64>>());

    // eager run: executes stage by stage, exactly as composed
    let mut plan_ctx = Scl::ap1000(8);
    let eager = plan.run(&mut plan_ctx, ints.clone());

    // optimise-then-execute: rotations cancel, the maps fuse into one
    let mut opt_ctx = Scl::ap1000(8);
    let (optimized, log) = opt_ctx.run_optimized(&plan, &reg, ints.clone());
    assert_eq!(eager, optimized);
    println!();
    println!("plan:      {}", plan.lower(&reg).unwrap());
    println!(
        "optimized: {} rewrites applied, identical result ✓",
        log.len()
    );

    // ---- fused, partition-resident execution -----------------------------
    // `run_fused` compiles the plan into per-partition stage chains: runs
    // of compute skeletons execute back-to-back on the worker that owns
    // each partition (no intermediate arrays, one thread-pool dispatch per
    // segment), with communication skeletons as the only barriers. Same
    // answer as the eager run, bit for bit; under
    // `ExecPolicy::cost_driven()` a segment fans out across host threads
    // only while the work its last run measured is worth it.
    let mut fused_ctx = Scl::ap1000(8).with_policy(ExecPolicy::cost_driven());
    let fused = fused_ctx
        .run_fused(&plan, ints)
        .expect("configuration fits the machine");
    assert_eq!(eager, fused);
    let stages = plan.fused_stages();
    let barriers = stages.iter().filter(|(_, b)| *b).count();
    println!(
        "fused:     {} stages, {} barriers, identical result ✓",
        stages.len(),
        barriers
    );

    // ---- the machine's verdict -------------------------------------------
    println!();
    println!("predicted runtime on 8 AP1000 cells: {}", scl.makespan());
    println!("{}", scl.machine.report());
    println!();
    println!("virtual timeline (# compute, = collective, | barrier):");
    print!("{}", scl.machine.trace.gantt(8, 64));
}
