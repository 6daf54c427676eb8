#![warn(missing_docs)]
//! # scl-bench — the evaluation harness
//!
//! One function per table/figure of the paper's §5, shared by the
//! row-printing binaries (`table1`, `figure3`, `ablations`). Everything
//! here runs on the simulated machine and is deterministic given the seed,
//! so the regenerated rows are stable across hosts.

use scl_apps::hyperquicksort::hyperquicksort_flat;
use scl_apps::psrs::psrs_sort;
use scl_apps::workloads::uniform_keys;
use scl_core::estimate;
use scl_core::prelude::*;
use scl_transform::prelude::*;

/// One row of the Table 1 / Figure 3 data: a sort on `procs` processors.
#[derive(Debug, Clone, PartialEq)]
pub struct SortRow {
    /// Processor count.
    pub procs: usize,
    /// Predicted runtime in (virtual) seconds.
    pub seconds: f64,
    /// Speedup relative to the 1-processor row of the same sweep.
    pub speedup: f64,
    /// Parallel efficiency (`speedup / procs`).
    pub efficiency: f64,
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Payload bytes moved.
    pub bytes: u64,
}

/// The Table 1 experiment: flattened hyperquicksort of `n` random keys on
/// `P ∈ dims` processors of an AP1000-like machine.
///
/// The paper's table reports total execution seconds for six processor
/// counts; the OCR of the paper lost the literal numbers, so the
/// reproduction targets the *shape*: monotonically falling runtime,
/// clearly sublinear speedup.
pub fn table1_rows(n: usize, seed: u64, dims: &[u32], model: CostModel) -> Vec<SortRow> {
    let data = uniform_keys(n, seed);
    let mut expect = data.clone();
    expect.sort_unstable();
    let mut rows = Vec::with_capacity(dims.len());
    let mut t1 = None;
    for &dim in dims {
        let p = 1usize << dim;
        let mut scl = Scl::hypercube(p, model);
        let out = hyperquicksort_flat(&mut scl, &data, dim);
        assert_eq!(out, expect, "harness sanity: sort must be correct");
        let secs = scl.makespan().as_secs();
        let base = *t1.get_or_insert(secs);
        rows.push(SortRow {
            procs: p,
            seconds: secs,
            speedup: base / secs,
            efficiency: base / secs / p as f64,
            messages: scl.machine.metrics.messages,
            bytes: scl.machine.metrics.bytes,
        });
    }
    rows
}

/// The Figure 3 comparison series: PSRS on the same machine/input (the
/// "best available speedup" reference the paper compares against).
pub fn psrs_rows(n: usize, seed: u64, procs: &[usize], model: CostModel) -> Vec<SortRow> {
    let data = uniform_keys(n, seed);
    let mut expect = data.clone();
    expect.sort_unstable();
    let mut rows = Vec::with_capacity(procs.len());
    let mut t1 = None;
    for &p in procs {
        let mut scl = Scl::new(Machine::new(Topology::torus_for(p), model));
        let out = psrs_sort(&mut scl, &data, p);
        assert_eq!(out, expect, "harness sanity: sort must be correct");
        let secs = scl.makespan().as_secs();
        let base = *t1.get_or_insert(secs);
        rows.push(SortRow {
            procs: p,
            seconds: secs,
            speedup: base / secs,
            efficiency: base / secs / p as f64,
            messages: scl.machine.metrics.messages,
            bytes: scl.machine.metrics.bytes,
        });
    }
    rows
}

/// Render Table 1 in the paper's format (`no procs | runtime secs`), plus
/// the derived columns the analysis uses.
pub fn format_table1(rows: &[SortRow]) -> String {
    let mut out = String::new();
    out.push_str("no_procs  runtime_secs  speedup  efficiency  messages      bytes\n");
    for r in rows {
        out.push_str(&format!(
            "{:>8}  {:>12.3}  {:>7.2}  {:>10.3}  {:>8}  {:>9}\n",
            r.procs, r.seconds, r.speedup, r.efficiency, r.messages, r.bytes
        ));
    }
    out
}

/// A named plot series: label, glyph, points.
pub type Series<'a> = (&'a str, char, Vec<(f64, f64)>);

/// ASCII scatter/line plot of `(x, y)` series, used for the Figure 3
/// speedup curve. Each series gets its own glyph; a linear-speedup
/// reference can be added by the caller as another series.
pub fn ascii_plot(series: &[Series<'_>], width: usize, height: usize) -> String {
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, _, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() {
        return "(no data)\n".to_string();
    }
    let xmax = all.iter().map(|p| p.0).fold(1.0f64, f64::max);
    let ymax = all.iter().map(|p| p.1).fold(1.0f64, f64::max);
    let mut grid = vec![vec![b' '; width]; height];
    for (_, glyph, pts) in series {
        for &(x, y) in pts {
            let col = ((x / xmax) * (width as f64 - 1.0)).round() as usize;
            let row = height - 1 - ((y / ymax) * (height as f64 - 1.0)).round() as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = *glyph as u8;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("speedup (max {ymax:.1})\n"));
    for row in grid {
        out.push('|');
        out.push_str(&String::from_utf8_lossy(&row));
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push_str(&format!("\n  processors (max {xmax:.0})   "));
    for (name, glyph, _) in series {
        out.push_str(&format!("[{glyph}] {name}  "));
    }
    out.push('\n');
    out
}

/// Result of one transformation-ablation measurement.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which law is being isolated.
    pub rule: &'static str,
    /// Program before rewriting (pretty-printed).
    pub before: String,
    /// Program after rewriting.
    pub after: String,
    /// Makespan of the program before rewriting (`scl_core::estimate`).
    pub cost_before: f64,
    /// Makespan after rewriting.
    pub cost_after: f64,
    /// Number of rule applications.
    pub applications: usize,
}

/// §4 ablations: what each transformation law buys on a representative
/// program, charged by a dry run on an `n`-cell AP1000 machine. Four laws
/// are cost-neutral there: the machine charges no barrier per
/// data-parallel step and composed work as the sum of its parts (map
/// fusion, map-comm commuting), runs a segmented form as its nested
/// equivalent (flattening), and charges nothing for `rotate(0)`.
pub fn ablation_rows(n: usize) -> Vec<AblationRow> {
    let reg = Registry::standard();
    let cases: Vec<(&'static str, Expr)> = vec![
        (
            "map-fusion",
            Expr::pipeline(vec![
                Expr::Map(FnRef::named("inc")),
                Expr::Map(FnRef::named("double")),
                Expr::Map(FnRef::named("square")),
                Expr::Map(FnRef::named("heavy")),
            ]),
        ),
        (
            "map-distribution",
            Expr::FoldrMap("add".to_string(), FnRef::named("square")),
        ),
        (
            "comm-algebra(fetch)",
            Expr::pipeline(vec![
                Expr::Fetch(IdxRef::named("succ")),
                Expr::Fetch(IdxRef::named("succ")),
                Expr::Fetch(IdxRef::named("xor1")),
            ]),
        ),
        (
            "comm-algebra(send)",
            Expr::pipeline(vec![
                Expr::Send(IdxRef::named("succ")),
                Expr::Send(IdxRef::named("half")),
            ]),
        ),
        (
            "comm-algebra(rotate)",
            Expr::pipeline(vec![Expr::Rotate(3), Expr::Rotate(5), Expr::Rotate(-8)]),
        ),
        (
            "flattening",
            Expr::pipeline(vec![
                Expr::Split(4),
                Expr::MapGroups(Box::new(Expr::pipeline(vec![
                    Expr::Map(FnRef::named("inc")),
                    Expr::Rotate(1),
                ]))),
                Expr::Combine,
            ]),
        ),
        (
            "map-comm-commute",
            Expr::pipeline(vec![Expr::Rotate(1), Expr::Map(FnRef::named("heavy"))]),
        ),
        (
            "rotate-identity",
            Expr::pipeline(vec![Expr::Map(FnRef::named("inc")), Expr::Rotate(0)]),
        ),
    ];
    let cost = |e: &Expr| estimate(e, &reg, Machine::ap1000(n)).unwrap().as_secs();
    cases
        .into_iter()
        .map(|(name, program)| {
            let cost_before = cost(&program);
            let (optimized, log) = optimize(program.clone(), &reg);
            let cost_after = cost(&optimized);
            AblationRow {
                rule: name,
                before: program.to_string(),
                after: optimized.to_string(),
                cost_before,
                cost_after,
                applications: log.len(),
            }
        })
        .collect()
}

/// Runtime ablation: how much of hyperquicksort's predicted time is
/// communication? Runs the same sort under the full AP1000 model and a
/// zero-communication model; the gap is the communication share.
pub fn comm_share(n: usize, dim: u32, seed: u64) -> (f64, f64) {
    let data = uniform_keys(n, seed);
    let mut full = Scl::hypercube(1 << dim, CostModel::ap1000());
    let _ = hyperquicksort_flat(&mut full, &data, dim);
    let mut zero = Scl::hypercube(1 << dim, CostModel::zero_comm());
    let _ = hyperquicksort_flat(&mut zero, &data, dim);
    (full.makespan().as_secs(), zero.makespan().as_secs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let rows = table1_rows(20_000, 1995, &[0, 1, 2, 3, 4, 5], CostModel::ap1000());
        assert_eq!(rows.len(), 6);
        // runtime falls monotonically over the measured range
        for w in rows.windows(2) {
            assert!(
                w[1].seconds < w[0].seconds,
                "runtime should fall: {} -> {}",
                w[0].seconds,
                w[1].seconds
            );
        }
        // speedup is real but sublinear at 32 procs
        let last = rows.last().unwrap();
        assert_eq!(last.procs, 32);
        assert!(last.speedup > 4.0, "speedup {}", last.speedup);
        assert!(
            last.speedup < 32.0,
            "speedup must be sublinear: {}",
            last.speedup
        );
    }

    #[test]
    fn psrs_is_comparable() {
        let hqs = table1_rows(20_000, 7, &[0, 3], CostModel::ap1000());
        let psrs = psrs_rows(20_000, 7, &[1, 8], CostModel::ap1000());
        // both achieve real speedup at 8 procs
        assert!(hqs[1].speedup > 2.0);
        assert!(psrs[1].speedup > 2.0);
    }

    #[test]
    fn format_contains_paper_columns() {
        let rows = table1_rows(2_000, 3, &[0, 1], CostModel::ap1000());
        let s = format_table1(&rows);
        assert!(s.contains("no_procs"));
        assert!(s.contains("runtime_secs"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn ascii_plot_renders_points() {
        let s = ascii_plot(
            &[
                ("x", '*', vec![(1.0, 1.0), (32.0, 16.0)]),
                ("lin", '.', vec![(32.0, 32.0)]),
            ],
            40,
            10,
        );
        assert!(s.contains('*'));
        assert!(s.contains("processors"));
    }

    #[test]
    fn ablations_all_improve_or_hold() {
        for row in ablation_rows(1024) {
            assert!(
                row.cost_after <= row.cost_before,
                "{}: {} -> {}",
                row.rule,
                row.cost_before,
                row.cost_after
            );
            assert!(row.applications > 0, "{} never fired", row.rule);
        }
    }

    #[test]
    fn communication_is_a_real_share() {
        let (full, zero) = comm_share(20_000, 4, 2);
        assert!(full > zero, "comm must cost something: {full} vs {zero}");
    }
}
