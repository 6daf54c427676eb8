//! `sclopt` — optimise a textual skeleton program from the command line.
//!
//! ```text
//! cargo run --release --bin sclopt -- "map(inc) . map(double) . rotate(2) . rotate(-2)" [n]
//! ```
//!
//! Parses the program (the grammar is the pretty-printer's output — see
//! `scl_transform::parse`), applies the paper's §4 laws to fixpoint, prints
//! each rewrite (`scl_transform::narrate`) and the cost before and after:
//! the makespan of a dry run on an `n`-processor AP1000 machine
//! (`scl_core::estimate`, default `n` 32), the virtual time every
//! `MachineReport` reads. Verifies meaning preservation on a sample input
//! through the reference interpreter. Exits 2 on bad arguments (a missing
//! program, an `n` that is not a positive integer), and 1 when the program
//! does not parse, type-check or run on the machine, or when the optimised
//! program means something else.

use scl::prelude::*;
use scl_transform::shape_of;

fn usage() -> ! {
    eprintln!("usage: sclopt \"<program>\" [n-processors, at least 1]");
    eprintln!("example: sclopt \"map(inc) . map(double) . rotate(2) . rotate(-2)\" 32");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(src) = args.next() else { usage() };
    let n = match args.next().map(|s| s.parse::<usize>()) {
        None => 32,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => usage(),
    };

    let program = match scl_transform::parse(&src) {
        Ok(e) => e,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    };
    let reg = Registry::standard();

    println!("input:     {program}");
    match shape_of(&program, scl_transform::Shape::Arr) {
        Ok(shape) => println!("type:      Arr -> {shape:?}"),
        Err(e) => {
            eprintln!("type error: {e}");
            std::process::exit(1);
        }
    }
    let before = match estimate(&program, &reg, Machine::ap1000(n)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cost error: {e}");
            std::process::exit(1);
        }
    };

    let (optimized, log) = narrate(program.clone(), &reg);
    println!("optimized: {optimized}");
    let after = estimate(&optimized, &reg, Machine::ap1000(n)).unwrap();
    println!("cost:      {before} -> {after} on {n} AP1000 cells");
    println!();
    if log.is_empty() {
        println!("(already in normal form — no law applies)");
    } else {
        println!("rewrites applied:");
        for step in &log {
            println!("  {:<18} {}", step.rule, step.after);
        }
    }

    // semantic check on a sample input (array programs only)
    if shape_of(&program, scl_transform::Shape::Arr).is_ok() {
        let input: Vec<i64> = (0..n as i64).collect();
        let a = eval(&program, &reg, Value::Arr(input.clone()));
        let b = eval(&optimized, &reg, Value::Arr(input));
        match (a, b) {
            (Ok(x), Ok(y)) if x == y => println!("\nsemantics preserved on a sample input ✓"),
            (Ok(_), Ok(_)) => {
                eprintln!("\nBUG: optimization changed semantics!");
                std::process::exit(1);
            }
            (Err(e), _) | (_, Err(e)) => println!("\n(interpreter skipped: {e})"),
        }
    }
}
