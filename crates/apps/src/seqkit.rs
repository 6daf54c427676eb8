//! Instrumented sequential kernels — the "base language" procedures.
//!
//! The paper's two-tier model leaves all sequential computation to ordinary
//! procedures (`SEQ_QUICKSORT`, `MIDVALUE`, `SPLIT`, `MERGE`,
//! `PARTIALPIVOT`, `UPDATE`, …). These are those procedures, in Rust, with
//! one addition: each *counts the abstract operations it performs*
//! (comparisons, element moves, flops) and reports them as
//! [`Work`], so the simulated machine can charge deterministic,
//! host-independent costs. The counts — not host timing — are what make the
//! reproduced Table 1 / Figure 3 exactly reproducible.

use scl_machine::Work;
use std::ops::Range;

/// Quicksort (Hoare partition, median-of-three pivot), counting key
/// comparisons. This is the paper's `SEQ_QUICKSORT`.
pub fn seq_quicksort(v: &mut [i64]) -> Work {
    let mut cmps = 0u64;
    let mut moves = 0u64;
    quicksort_rec(v, &mut cmps, &mut moves);
    Work {
        cmps,
        moves,
        ..Work::NONE
    }
}

fn quicksort_rec(v: &mut [i64], cmps: &mut u64, moves: &mut u64) {
    let n = v.len();
    if n <= 16 {
        // insertion sort for small runs
        for i in 1..n {
            let mut j = i;
            while j > 0 {
                *cmps += 1;
                if v[j - 1] > v[j] {
                    v.swap(j - 1, j);
                    *moves += 1;
                    j -= 1;
                } else {
                    break;
                }
            }
        }
        return;
    }
    // median-of-three pivot selection
    let mid = n / 2;
    *cmps += 3;
    let (a, b, c) = (v[0], v[mid], v[n - 1]);
    let pivot = if (a <= b) == (b <= c) {
        b
    } else if (b <= a) == (a <= c) {
        a
    } else {
        c
    };
    // Hoare partition
    let (mut i, mut j) = (0usize, n - 1);
    loop {
        loop {
            *cmps += 1;
            if v[i] >= pivot {
                break;
            }
            i += 1;
        }
        loop {
            *cmps += 1;
            if v[j] <= pivot {
                break;
            }
            j -= 1;
        }
        if i >= j {
            break;
        }
        v.swap(i, j);
        *moves += 1;
        i += 1;
        j -= 1;
    }
    let split = j + 1;
    let (lo, hi) = v.split_at_mut(split);
    quicksort_rec(lo, cmps, moves);
    quicksort_rec(hi, cmps, moves);
}

/// Median of a **sorted** slice — the paper's `MIDVALUE`. O(1).
///
/// # Panics
/// Panics on an empty slice.
pub fn midvalue(sorted: &[i64]) -> (i64, Work) {
    assert!(!sorted.is_empty(), "MIDVALUE of empty data");
    (sorted[sorted.len() / 2], Work::cmps(1))
}

/// Split a **sorted** slice around a pivot — the paper's `SPLIT`: returns
/// `(low, high)` with `low ≤ pivot < high`. Binary search, so O(log n)
/// comparisons.
pub fn split_sorted(sorted: &[i64], pivot: i64) -> (Vec<i64>, Vec<i64>, Work) {
    let cut = sorted.partition_point(|&x| x <= pivot);
    let cmps = (sorted.len().max(1) as f64).log2().ceil() as u64 + 1;
    let moves = sorted.len() as u64;
    (
        sorted[..cut].to_vec(),
        sorted[cut..].to_vec(),
        Work {
            cmps,
            moves,
            ..Work::NONE
        },
    )
}

/// Merge two **sorted** slices — the paper's `MERGE`. O(n + m).
pub fn merge_sorted(a: &[i64], b: &[i64]) -> (Vec<i64>, Work) {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    let mut cmps = 0u64;
    while i < a.len() && j < b.len() {
        cmps += 1;
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    let moves = out.len() as u64;
    (
        out,
        Work {
            cmps,
            moves,
            ..Work::NONE
        },
    )
}

/// The [`Work`] [`merge_sorted`] reports for `a` and `b`, from the run
/// sizes and one binary search instead of a merge: every key moves
/// once, and the merge compares until the run whose last key leaves first
/// is used up — ties go to `a`, so that is `a` when `last(a) ≤ last(b)`.
pub fn merge_work(a: &[i64], b: &[i64]) -> Work {
    let cmps = match (a.last(), b.last()) {
        (Some(&la), Some(&lb)) if la <= lb => a.len() + b.partition_point(|&x| x < la),
        (Some(_), Some(&lb)) => b.len() + a.partition_point(|&x| x <= lb),
        _ => 0,
    };
    Work {
        cmps: cmps as u64,
        moves: (a.len() + b.len()) as u64,
        ..Work::NONE
    }
}

/// The co-rank of output position `k` in the merge of two **sorted**
/// slices: how many of the merge's first `k` keys come from `a`, ties
/// going to `a` as in [`merge_sorted`]. A binary search, so O(log n).
///
/// # Panics
/// Panics if `k > a.len() + b.len()`.
pub fn co_rank(k: usize, a: &[i64], b: &[i64]) -> usize {
    assert!(k <= a.len() + b.len(), "co-rank past the end of the merge");
    let (mut lo, mut hi) = (k.saturating_sub(b.len()), k.min(a.len()));
    // take `a[i]` ahead of `b[k - i - 1]` exactly when it is no greater
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        if a[i] <= b[k - i - 1] {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    lo
}

/// Output positions `range` of the merge of two **sorted** slices, merged
/// on their own: the co-ranks of the range's ends bound the slice of each
/// run it draws on. Disjoint ranges merge independently — the rank-split
/// merge — and their results concatenate to [`merge_sorted`]`(a, b)`.
pub fn merge_range(a: &[i64], b: &[i64], range: Range<usize>) -> Vec<i64> {
    let (i0, i1) = (co_rank(range.start, a, b), co_rank(range.end, a, b));
    let (j0, j1) = (range.start - i0, range.end - i1);
    merge_sorted(&a[i0..i1], &b[j0..j1]).0
}

/// Is the slice sorted ascending?
pub fn is_sorted(v: &[i64]) -> bool {
    v.windows(2).all(|w| w[0] <= w[1])
}

/// `PARTIALPIVOT` for Gauss–Jordan: among rows `from..`, find the row with
/// the largest `|column[row]|`. Returns `(row_index, work)`.
pub fn partial_pivot(column: &[f64], from: usize) -> (usize, Work) {
    assert!(from < column.len(), "pivot search past end of column");
    let mut best = from;
    let mut cmps = 0u64;
    for r in from + 1..column.len() {
        cmps += 1;
        if column[r].abs() > column[best].abs() {
            best = r;
        }
    }
    (best, Work::cmps(cmps))
}

/// One `UPDATE` step of Gauss–Jordan elimination applied to a column
/// fragment: given the pivot column values and the pivot row index,
/// annihilate all non-pivot entries of `col` (scale pivot row entry,
/// subtract multiples elsewhere). Returns flops performed.
///
/// `col` is this processor's fragment of some matrix column; `pivot_col`
/// holds the *whole* pivot column (broadcast), `prow` the pivot row.
pub fn gauss_update(col: &mut [f64], pivot_col: &[f64], prow: usize) -> Work {
    assert_eq!(col.len(), pivot_col.len(), "column length mismatch");
    let piv = pivot_col[prow];
    assert!(piv != 0.0, "zero pivot — singular system");
    let mut flops = 0u64;
    let scaled = col[prow] / piv;
    flops += 1;
    for r in 0..col.len() {
        if r != prow {
            col[r] -= pivot_col[r] * scaled;
            flops += 2;
        }
    }
    col[prow] = scaled;
    Work::flops(flops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quicksort_sorts_and_counts() {
        let mut v = vec![5, 3, 9, 1, 7, 2, 8, 0, 4, 6, 5, 5, -3, 100, 42, 17, 23, 11];
        let w = seq_quicksort(&mut v);
        assert!(is_sorted(&v));
        assert!(w.cmps > 0);
        let mut expect = v.clone();
        expect.sort_unstable();
        assert_eq!(v, expect);
    }

    #[test]
    fn quicksort_handles_edges() {
        let mut empty: Vec<i64> = vec![];
        assert_eq!(seq_quicksort(&mut empty).cmps, 0);
        let mut one = vec![7];
        seq_quicksort(&mut one);
        assert_eq!(one, vec![7]);
        let mut dup = vec![2i64; 100];
        seq_quicksort(&mut dup);
        assert_eq!(dup, vec![2i64; 100]);
        let mut rev: Vec<i64> = (0..200).rev().collect();
        seq_quicksort(&mut rev);
        assert!(is_sorted(&rev));
    }

    #[test]
    fn quicksort_work_scales_near_nlogn() {
        let mk = |n: usize| -> u64 {
            let mut v: Vec<i64> = (0..n as i64).map(|i| (i * 2654435761) % 1000003).collect();
            seq_quicksort(&mut v).cmps
        };
        let c1k = mk(1000) as f64;
        let c8k = mk(8000) as f64;
        let ratio = c8k / c1k;
        // n log n predicts 8 * log(8000)/log(1000) ≈ 10.4; accept broad band
        assert!(ratio > 6.0 && ratio < 16.0, "ratio {ratio}");
    }

    #[test]
    fn midvalue_of_sorted() {
        assert_eq!(midvalue(&[1, 3, 5]).0, 3);
        assert_eq!(midvalue(&[1, 3, 5, 9]).0, 5);
        assert_eq!(midvalue(&[42]).0, 42);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn midvalue_empty_panics() {
        let _ = midvalue(&[]);
    }

    #[test]
    fn split_respects_pivot() {
        let v = vec![1, 2, 4, 4, 6, 9];
        let (lo, hi, _) = split_sorted(&v, 4);
        assert_eq!(lo, vec![1, 2, 4, 4]);
        assert_eq!(hi, vec![6, 9]);
        let (lo, hi, _) = split_sorted(&v, 0);
        assert!(lo.is_empty());
        assert_eq!(hi.len(), 6);
        let (lo, hi, _) = split_sorted(&v, 100);
        assert_eq!(lo.len(), 6);
        assert!(hi.is_empty());
        let (lo, hi, _) = split_sorted(&[], 5);
        assert!(lo.is_empty() && hi.is_empty());
    }

    #[test]
    fn merge_is_correct_and_counts_moves() {
        let (m, w) = merge_sorted(&[1, 4, 6], &[2, 3, 5, 7]);
        assert_eq!(m, vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(w.moves, 7);
        assert!(w.cmps >= 5);
        let (m, _) = merge_sorted(&[], &[1, 2]);
        assert_eq!(m, vec![1, 2]);
        let (m, _) = merge_sorted(&[1, 2], &[]);
        assert_eq!(m, vec![1, 2]);
    }

    /// Pairs of sorted runs covering the merge's edge cases — an empty
    /// run, all-equal keys, keys shared across the runs, disjoint ranges in
    /// either order — plus seeded random runs over narrow and wide ranges.
    fn run_pairs() -> Vec<(Vec<i64>, Vec<i64>)> {
        let sorted = |mut v: Vec<i64>| {
            v.sort_unstable();
            v
        };
        let mut pairs = vec![
            (vec![], vec![]),
            (vec![], vec![1, 2, 3]),
            (vec![4, 5], vec![]),
            (vec![7; 13], vec![7; 6]),
            (vec![1, 3, 3, 5, 9], vec![3, 3, 5, 5, 9, 9]),
            ((0..20).collect(), (100..111).collect()),
            ((100..111).collect(), (0..20).collect()),
        ];
        let mut rng = scl_testkit::Rng::seed_from_u64(0x5eed);
        for _ in 0..48 {
            let (n, m) = (rng.range_usize(0, 40), rng.range_usize(0, 40));
            let hi = [3, 50, 1_000_000][rng.range_usize(0, 3)];
            let a = sorted((0..n).map(|_| rng.range_i64(0, hi)).collect());
            let b = sorted((0..m).map(|_| rng.range_i64(0, hi)).collect());
            pairs.push((a, b));
        }
        pairs
    }

    #[test]
    fn merge_work_is_what_merge_sorted_counts() {
        for (a, b) in run_pairs() {
            assert_eq!(merge_work(&a, &b), merge_sorted(&a, &b).1, "{a:?} {b:?}");
        }
    }

    #[test]
    fn rank_split_parts_concatenate_to_the_merge() {
        for (a, b) in run_pairs() {
            let merged = merge_sorted(&a, &b).0;
            for k in 1..=9 {
                let blocks = scl_core::block_ranges(merged.len(), k);
                let parts: Vec<Vec<i64>> = blocks
                    .iter()
                    .map(|rg| merge_range(&a, &b, rg.clone()))
                    .collect();
                for (part, rg) in parts.iter().zip(&blocks) {
                    assert_eq!(part.len(), rg.len(), "k={k} {a:?} {b:?}");
                }
                assert_eq!(parts.concat(), merged, "k={k} {a:?} {b:?}");
            }
        }
    }

    #[test]
    fn co_rank_sends_ties_left() {
        let (a, b) = ([2, 2, 2], [2, 2]);
        let ranks: Vec<usize> = (0..=5).map(|k| co_rank(k, &a, &b)).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn partial_pivot_finds_largest_abs() {
        let col = vec![1.0, -9.0, 3.0, 8.5];
        assert_eq!(partial_pivot(&col, 0).0, 1);
        assert_eq!(partial_pivot(&col, 2).0, 3);
        assert_eq!(partial_pivot(&col, 3).0, 3);
    }

    #[test]
    fn gauss_update_annihilates() {
        // pivot column after elimination must be e_prow
        let pivot_col = vec![2.0, 4.0, -2.0];
        let mut col = pivot_col.clone();
        let w = gauss_update(&mut col, &pivot_col, 0);
        assert_eq!(col, vec![1.0, 0.0, 0.0]);
        assert!(w.flops > 0);
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn gauss_update_zero_pivot_panics() {
        let pivot_col = vec![0.0, 1.0];
        let mut col = vec![1.0, 1.0];
        let _ = gauss_update(&mut col, &pivot_col, 0);
    }
}
