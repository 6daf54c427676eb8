//! The §4 transformation engine in action — through the first-class plan
//! API. A wasteful skeleton program is written **once** as a `Skel` plan,
//! then run two ways: eagerly, and via `Scl::run_optimized`, which lowers
//! the plan into the transformation IR, applies the paper's laws (map
//! fusion, communication algebra, flattening), raises the optimised
//! program back, and executes it — same answer, less virtual time.
//!
//! ```text
//! cargo run --release --example optimizer
//! ```

use scl::prelude::*;

fn main() {
    let reg = Registry::standard();

    // A deliberately naive program as a typed plan: two fetches, two
    // cancelling rotations, two separate maps. Written in execution order
    // (first stage first) — `.then` is flipped function composition.
    let plan = Skel::map_sym("inc", &reg)
        .then(Skel::map_sym("double", &reg))
        .then(Skel::rotate(3))
        .then(Skel::rotate(-3))
        .then(Skel::fetch_sym("succ", &reg))
        .then(Skel::fetch_sym("succ", &reg));

    let program = plan
        .lower(&reg)
        .expect("every stage is in the lowerable fragment");
    println!("plan lowers to:\n  {program}\n");
    // The cost is a dry run on the machine every run below is charged on.
    let c0 = estimate(&program, &reg, Machine::ap1000(1024)).unwrap();
    println!("estimated cost (1024 cells, AP1000): {c0}\n");

    // Run it both ways on the simulated machine.
    let input = scl::core::ParArray::from_parts((0..1024).collect::<Vec<i64>>());

    let mut eager_ctx = Scl::ap1000(1024);
    let eager = plan.run(&mut eager_ctx, input.clone());
    // registry functions carry fixed work: the zero-input dry run is
    // charged exactly what this input is
    assert_eq!(c0, eager_ctx.makespan());

    let mut opt_ctx = Scl::ap1000(1024);
    let (optimized_out, log) = opt_ctx.run_optimized(&plan, &reg, input.clone());

    // The log names the rules that fired; `narrate` runs the same rewrites
    // again and renders each rewritten node before and after.
    let (optimized, steps) = narrate(program.clone(), &reg);
    assert_eq!(
        log.iter().map(|a| a.rule).collect::<Vec<_>>(),
        steps.iter().map(|s| s.rule).collect::<Vec<_>>()
    );
    println!("applied rewrites:");
    for step in &steps {
        println!("  [{}]", step.rule);
        println!("      {}", step.before);
        println!("   => {}", step.after);
    }
    println!("\noptimized program:\n  {optimized}\n");
    let c1 = estimate(&optimized, &reg, Machine::ap1000(1024)).unwrap();
    println!(
        "estimated cost after: {c1}  ({:.1}% saved)",
        100.0 * (1.0 - c1 / c0)
    );

    // The guarantee that makes this safe: identical results...
    assert_eq!(eager, optimized_out);
    // ...and the interpreter agrees too.
    let flat: Vec<i64> = (0..1024).collect();
    let interp = eval(&program, &reg, Value::Arr(flat)).unwrap();
    assert_eq!(interp, Value::Arr(eager.to_vec()));
    println!("\neager run and optimize-then-execute computed identical results ✓");

    // Plans with nested structure optimise too: the flatten law turns
    // split/mapGroups/combine into a segmented rotate.
    let nested = scl_transform::parse("combine . mapGroups[rotate(1)] . split(4)").unwrap();
    let nested_plan = Skel::from_expr(&nested, &reg).unwrap();
    let mut ctx = Scl::ap1000(1024);
    let (_, nested_log) = ctx.run_optimized(&nested_plan, &reg, input);
    let (_, nested_steps) = narrate(nested, &reg);
    assert_eq!(nested_log.len(), nested_steps.len());
    println!("\nnested plan rewrites:");
    for step in &nested_steps {
        println!("  [{}] {} => {}", step.rule, step.before, step.after);
    }
}
