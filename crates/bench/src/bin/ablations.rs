//! §4 transformation ablations — no table in the paper: what each rewrite
//! law buys on a representative program, as the makespan of a dry run on
//! the machine (`scl_core::estimate`); a law the machine does not charge
//! for is marked cost-neutral. Plus the communication share of the
//! hyperquicksort prediction.
//!
//! ```text
//! cargo run --release -p scl-bench --bin ablations [n]
//! ```

use scl_bench::{ablation_rows, comm_share};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4096);

    println!("Transformation ablations (dry runs on {n} AP1000 cells)");
    println!();
    println!(
        "{:<22} {:>12} {:>12} {:>8} {:>6}",
        "rule", "before_us", "after_us", "saved%", "apps"
    );
    for row in ablation_rows(n) {
        let saved = if row.cost_before > 0.0 {
            100.0 * (row.cost_before - row.cost_after) / row.cost_before
        } else {
            0.0
        };
        let neutral = if row.cost_after == row.cost_before {
            "  cost-neutral"
        } else {
            ""
        };
        println!(
            "{:<22} {:>12.3} {:>12.3} {:>7.1}% {:>6}{neutral}",
            row.rule,
            row.cost_before * 1e6,
            row.cost_after * 1e6,
            saved,
            row.applications
        );
        println!("    before: {}", row.before);
        println!("    after:  {}", row.after);
    }

    println!();
    println!("Communication share of hyperquicksort (100k keys):");
    for dim in [2u32, 3, 4, 5] {
        let (full, zero) = comm_share(100_000, dim, 1995);
        println!(
            "  p={:>2}: full model {:>8.3}s, zero-comm {:>8.3}s  -> comm share {:>5.1}%",
            1usize << dim,
            full,
            zero,
            100.0 * (full - zero) / full
        );
    }
}
