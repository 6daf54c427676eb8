//! `scl-ladder compare <a> <b>`: one row per workload × end-to-end metric
//! with both medians, quartiles, the ratio with its base, and a verdict
//! against the metric's bound. `a` is the base (the parent commit, or the
//! first set of runs), `b` the change.
//!
//! Each file holds one record per line, as `--out <file>` appends them.
//! With three or more runs of a workload on both sides the rows compare
//! the runs' values and their run-to-run spread; with fewer, the rounds
//! inside the runs.

use crate::json::{self, Json};
use crate::stats::{quartiles, spread};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b`'s median is no worse than `a`'s by more than the bound.
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The spread between rounds exceeds the bound on either side, so the
    /// medians cannot be told apart at this bound — reported as
    /// unresolved, not as unchanged, unless every round of `b` reads
    /// better than every round of `a`.
    Unresolved,
}

/// Judge `b` against base `a` for a lower-is-better metric.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let (_, med_a, _) = quartiles(a);
    let (_, med_b, _) = quartiles(b);
    let all_better =
        b.iter().copied().fold(f64::MIN, f64::max) < a.iter().copied().fold(f64::MAX, f64::min);
    if (spread(a) > bound || spread(b) > bound) && !all_better {
        Verdict::Unresolved
    } else if med_b > med_a * (1.0 + bound) {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// One workload × metric on one side of the comparison.
#[derive(Default)]
struct Cell {
    holds: String,
    bound: f64,
    /// One value per run.
    values: Vec<f64>,
    /// Every round of every run.
    rounds: Vec<f64>,
}

/// workload → metric → cell
type Table = BTreeMap<String, BTreeMap<String, Cell>>;

/// One side of the comparison: the metric table, the worst `fail_share`
/// per workload, and each run's `effective_cores`.
type Side = (Table, BTreeMap<String, f64>, Vec<f64>);

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut table = Table::new();
    let mut fail_share = BTreeMap::new();
    let mut cores = Vec::new();
    for (lineno, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", lineno + 1))?
            .to_string();
        let Some(Json::Obj(e2e)) = rec.get("e2e") else {
            return Err(format!("{path}:{}: no e2e table", lineno + 1));
        };
        cores.extend(rec.get("effective_cores").and_then(Json::as_f64));
        let share = fail_share.entry(workload.clone()).or_insert(0.0f64);
        *share = share.max(rec.num("fail_share"));
        let row = table.entry(workload).or_default();
        for (name, m) in e2e {
            let cell = row.entry(name.clone()).or_default();
            cell.holds = m
                .get("holds")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            cell.bound = m.num("bound");
            cell.values.push(m.num("value"));
            let rounds = m.get("rounds").map(Json::as_arr).unwrap_or(&[]);
            cell.rounds.extend(rounds.iter().filter_map(Json::as_f64));
        }
    }
    Ok((table, fail_share, cores))
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let ((a, a_fail, a_cores), (b, b_fail, b_cores)) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("scl-ladder compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<13} {:<34} {:<22} {:>12} {:>21} {:>12} {:>21} {:>9} {:>6} {:<10}",
        "workload",
        "metric",
        "holds",
        "a median",
        "a q1..q3",
        "b median",
        "b q1..q3",
        "b/a",
        "bound",
        "verdict"
    );
    let mut worse = 0;
    let mut unresolved = 0;
    for (workload, metrics) in &a {
        for (name, cell_a) in metrics {
            let Some(cell_b) = b.get(workload).and_then(|m| m.get(name)) else {
                println!("{workload:<13} {name:<34} missing from {b_path}");
                unresolved += 1;
                continue;
            };
            let by_runs = cell_a.values.len() >= 3 && cell_b.values.len() >= 3;
            let (a_rounds, b_rounds) = if by_runs {
                (&cell_a.values, &cell_b.values)
            } else {
                (&cell_a.rounds, &cell_b.rounds)
            };
            if a_rounds.is_empty() || b_rounds.is_empty() {
                println!("{workload:<13} {name:<34} no rounds recorded");
                unresolved += 1;
                continue;
            }
            let (holds, bound) = (&cell_a.holds, &cell_a.bound);
            let (a1, am, a3) = quartiles(a_rounds);
            let (b1, bm, b3) = quartiles(b_rounds);
            let v = verdict(a_rounds, b_rounds, *bound);
            match v {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{workload:<13} {name:<34} {holds:<22} {am:>12.5} {:>21} {bm:>12.5} {:>21} {:>9.4} {bound:>6.2} {:<10}",
                format!("{a1:.4}..{a3:.4}"),
                format!("{b1:.4}..{b3:.4}"),
                bm / am,
                format!("{v:?}").to_lowercase(),
            );
        }
        // fail_share: errors + shed + rejected + wrong outputs ÷ attempted
        // may rise by 0.001 absolute
        let (fa, fb) = (
            a_fail[workload],
            b_fail.get(workload).copied().unwrap_or(0.0),
        );
        let v = if fb > fa + 0.001 { "worse" } else { "ok" };
        if v == "worse" {
            worse += 1;
        }
        println!(
            "{workload:<13} {:<34} {:<22} {fa:>12.5} {:>21} {fb:>12.5} {:>21} {:>9} {:>6} {v:<10}",
            "fail_share", "", "", "", "", "+0.001"
        );
    }
    println!("{worse} worse, {unresolved} unresolved (base: {a_path})");
    if let (false, false) = (a_cores.is_empty(), b_cores.is_empty()) {
        let (ca, cb) = (quartiles(&a_cores).1, quartiles(&b_cores).1);
        println!("effective cores while measuring: a {ca:.2}, b {cb:.2}");
        if (ca - cb).abs() > 0.15 * ca.max(cb) {
            println!(
                "WARNING: the host gave the two sides different CPU; threaded rows compare machines, not code"
            );
        }
    }
    if worse > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9];
        let same: Vec<f64> = base.iter().map(|x| x * 1.02).collect();
        let slow: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&base, &same, 0.10), Verdict::Ok);
        assert_eq!(verdict(&base, &slow, 0.10), Verdict::Worse);
        // an improvement is never "worse"
        let fast: Vec<f64> = base.iter().map(|x| x * 0.5).collect();
        assert_eq!(verdict(&base, &fast, 0.10), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_round_wins() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 13.0, 7.0, 10.0, 10.0];
        let also_noisy: Vec<f64> = noisy.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&noisy, &also_noisy, 0.10), Verdict::Unresolved);
        let clear_win: Vec<f64> = noisy.iter().map(|x| x * 0.3).collect();
        assert_eq!(verdict(&noisy, &clear_win, 0.10), Verdict::Ok);
    }
}
