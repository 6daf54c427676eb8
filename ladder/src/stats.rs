//! The arithmetic every reported number goes through: a value is the
//! **median over rounds**, printed with its quartiles; a latency
//! percentile is taken inside one round (or one pooled sample set) by
//! nearest rank.

/// Quartiles `(q1, median, q3)` as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method:
/// position `q·(n+1)`, linear interpolation, clamped to the ends) — the
/// same rule the benchmark driver applies to ten runs, so a spread
/// computed here reads like one computed there. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let n = v.len();
        let pos = q * (n as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    (at(0.25), at(0.5), at(0.75))
}

/// The median over rounds.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Distance between the quartiles as a share of the median — the
/// run-to-run spread a bound is judged against.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Nearest-rank percentile of an unsorted sample set (`p` in `0..=100`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.5, 5.0, 7.5));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        assert_eq!(quartiles(&[40.0, 10.0, 30.0, 20.0]), (12.5, 25.0, 37.5));
        // ten values: positions 2.75, 5.5, 8.25
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn quartiles_clamp_on_tiny_inputs() {
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] extrapolates;
        // clamping to the observed range is the one deliberate difference
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 1.5, 2.0));
    }

    #[test]
    fn median_of_rounds_ignores_one_wild_round() {
        let rounds = [10.0, 10.2, 9.9, 10.1, 55.0, 10.0, 9.8, 10.3, 10.1];
        assert_eq!(median(&rounds), 10.1);
        assert!(spread(&rounds) < 0.05, "one outlier must not widen the IQR");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 99.0), 3.0);
        assert_eq!(percentile(&[5.0], 50.0), 5.0);
    }
}
