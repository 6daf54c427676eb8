//! Partitioning strategies — the heart of SCL's configuration model.
//!
//! A [`Pattern`] is the paper's `Partition_pattern`: a function from
//! sequential-array indices to parallel-array indices. [`partition`] divides
//! a sequential array into a [`ParArray`] of sequential sub-arrays, and
//! [`gather`] is its exact inverse. The 2-D strategies (`row_block`,
//! `col_block`, `row_col_block`, `row_cyclic`, `col_cyclic`) mirror the
//! built-ins the paper lists, which themselves follow HPF's distribution
//! directives.
//!
//! These functions are *pure data* transformations; the costed versions that
//! charge the simulated machine live on [`crate::ctx::Scl`].

use crate::array::ParArray;
use crate::seq::Matrix;
use std::ops::Range;

/// A distribution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Contiguous blocks over `p` parts (sizes balanced to ±1).
    Block(usize),
    /// Round-robin elements over `p` parts.
    Cyclic(usize),
    /// Round-robin blocks of `block` elements over `p` parts.
    BlockCyclic {
        /// Number of parts.
        p: usize,
        /// Elements per dealt block.
        block: usize,
    },
    /// Contiguous row blocks of a matrix over `p` parts.
    RowBlock(usize),
    /// Contiguous column blocks of a matrix over `p` parts.
    ColBlock(usize),
    /// Rows dealt round-robin over `p` parts.
    RowCyclic(usize),
    /// Columns dealt round-robin over `p` parts.
    ColCyclic(usize),
    /// 2-D blocks over a `pr × pc` processor grid (`row_col_block`).
    Grid {
        /// Processor-grid rows.
        pr: usize,
        /// Processor-grid columns.
        pc: usize,
    },
}

impl Pattern {
    /// Number of parts this pattern produces.
    pub fn parts(&self) -> usize {
        match *self {
            Pattern::Block(p)
            | Pattern::Cyclic(p)
            | Pattern::BlockCyclic { p, .. }
            | Pattern::RowBlock(p)
            | Pattern::ColBlock(p)
            | Pattern::RowCyclic(p)
            | Pattern::ColCyclic(p) => p,
            Pattern::Grid { pr, pc } => pr * pc,
        }
    }

    /// True for patterns that apply to one-dimensional data.
    pub fn is_1d(&self) -> bool {
        matches!(
            self,
            Pattern::Block(_) | Pattern::Cyclic(_) | Pattern::BlockCyclic { .. }
        )
    }

    /// Validate the pattern itself (non-zero part counts, block sizes).
    pub fn check(&self) {
        assert!(
            self.parts() > 0,
            "pattern must produce at least one part: {self:?}"
        );
        if let Pattern::BlockCyclic { block, .. } = self {
            assert!(*block > 0, "block size must be positive");
        }
    }
}

/// Balanced contiguous ranges: `n` items over `p` parts, first `n % p`
/// parts one longer.
pub fn block_ranges(n: usize, p: usize) -> Vec<Range<usize>> {
    assert!(p > 0, "cannot partition over zero parts");
    let base = n / p;
    let extra = n % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0;
    for i in 0..p {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Which part element `j` of an `n`-element array lands on.
pub fn owner_1d(pattern: Pattern, n: usize, j: usize) -> usize {
    debug_assert!(j < n);
    match pattern {
        Pattern::Block(p) => {
            // Invert the balanced ranges analytically.
            let base = n / p;
            let extra = n % p;
            let fat = (base + 1) * extra; // elements in the fat prefix
            if base == 0 {
                // p > n: element j on part j
                j
            } else if j < fat {
                j / (base + 1)
            } else {
                extra + (j - fat) / base
            }
        }
        Pattern::Cyclic(p) => j % p,
        Pattern::BlockCyclic { p, block } => (j / block) % p,
        _ => panic!("owner_1d on a 2-D pattern {pattern:?}"),
    }
}

/// Divide a sequential array into a distributed array of sub-arrays.
///
/// # Panics
/// Panics if `pattern` is not one-dimensional.
pub fn partition<T: Clone>(pattern: Pattern, data: &[T]) -> ParArray<Vec<T>> {
    partition_owned(pattern, data.to_vec())
}

/// [`partition`] that **consumes** the host data, moving each element into
/// its part — no clones. Block patterns split off contiguous ranges;
/// cyclic patterns deal elements out by move.
///
/// # Panics
/// Panics if `pattern` is not one-dimensional.
pub fn partition_owned<T>(pattern: Pattern, data: Vec<T>) -> ParArray<Vec<T>> {
    pattern.check();
    let n = data.len();
    match pattern {
        Pattern::Block(p) => {
            let ranges = block_ranges(n, p);
            let mut data = data;
            let mut parts = Vec::with_capacity(p);
            for r in ranges.iter().rev() {
                parts.push(data.split_off(r.start));
            }
            parts.reverse();
            ParArray::from_parts(parts)
        }
        Pattern::Cyclic(p) => {
            let mut parts: Vec<Vec<T>> = (0..p).map(|_| Vec::with_capacity(n / p + 1)).collect();
            for (j, x) in data.into_iter().enumerate() {
                parts[j % p].push(x);
            }
            ParArray::from_parts(parts)
        }
        Pattern::BlockCyclic { p, block } => {
            let mut parts: Vec<Vec<T>> =
                (0..p).map(|_| Vec::with_capacity(n / p + block)).collect();
            for (j, x) in data.into_iter().enumerate() {
                parts[(j / block) % p].push(x);
            }
            ParArray::from_parts(parts)
        }
        _ => panic!("partition of a 1-D array needs a 1-D pattern, got {pattern:?}"),
    }
}

/// Exact inverse of [`partition`].
pub fn gather<T: Clone>(pattern: Pattern, dist: &ParArray<Vec<T>>) -> Vec<T> {
    pattern.check();
    let p = pattern.parts();
    assert_eq!(
        dist.len(),
        p,
        "distributed array has {} parts, pattern expects {p}",
        dist.len()
    );
    let n: usize = dist.parts().iter().map(Vec::len).sum();
    match pattern {
        Pattern::Block(_) => dist
            .parts()
            .iter()
            .flat_map(|v| v.iter().cloned())
            .collect(),
        Pattern::Cyclic(_) | Pattern::BlockCyclic { .. } => {
            let mut cursors = vec![0usize; p];
            let mut out = Vec::with_capacity(n);
            for j in 0..n {
                let o = owner_1d(pattern, n, j);
                out.push(dist.part(o)[cursors[o]].clone());
                cursors[o] += 1;
            }
            out
        }
        _ => panic!("gather of a 1-D array needs a 1-D pattern, got {pattern:?}"),
    }
}

/// Divide a matrix into a distributed array of sub-matrices.
///
/// `RowBlock`/`RowCyclic`/`ColBlock`/`ColCyclic` produce a 1-D `ParArray`;
/// `Grid` produces a 2-D one.
///
/// # Panics
/// Panics if `pattern` is one-dimensional.
pub fn partition2<T: Clone>(pattern: Pattern, m: &Matrix<T>) -> ParArray<Matrix<T>> {
    pattern.check();
    match pattern {
        Pattern::RowBlock(p) => ParArray::from_parts(
            block_ranges(m.rows(), p)
                .into_iter()
                .map(|r| m.row_range(r.start, r.end))
                .collect(),
        ),
        Pattern::ColBlock(p) => ParArray::from_parts(
            block_ranges(m.cols(), p)
                .into_iter()
                .map(|r| m.col_range(r.start, r.end))
                .collect(),
        ),
        Pattern::RowCyclic(p) => ParArray::from_parts(
            (0..p)
                .map(|i| {
                    let rows: Vec<usize> = (i..m.rows()).step_by(p).collect();
                    Matrix::from_fn(rows.len(), m.cols(), |r, c| m.get(rows[r], c).clone())
                })
                .collect(),
        ),
        Pattern::ColCyclic(p) => ParArray::from_parts(
            (0..p)
                .map(|i| {
                    let cols: Vec<usize> = (i..m.cols()).step_by(p).collect();
                    Matrix::from_fn(m.rows(), cols.len(), |r, c| m.get(r, cols[c]).clone())
                })
                .collect(),
        ),
        Pattern::Grid { pr, pc } => {
            let row_rs = block_ranges(m.rows(), pr);
            let col_rs = block_ranges(m.cols(), pc);
            let mut parts = Vec::with_capacity(pr * pc);
            for rr in &row_rs {
                for cr in &col_rs {
                    parts.push(Matrix::from_fn(rr.len(), cr.len(), |r, c| {
                        m.get(rr.start + r, cr.start + c).clone()
                    }));
                }
            }
            ParArray::from_grid(pr, pc, parts)
        }
        _ => panic!("partition2 of a matrix needs a 2-D pattern, got {pattern:?}"),
    }
}

/// Exact inverse of [`partition2`].
pub fn gather2<T: Clone>(pattern: Pattern, dist: &ParArray<Matrix<T>>) -> Matrix<T> {
    pattern.check();
    assert_eq!(
        dist.len(),
        pattern.parts(),
        "part count mismatch in gather2"
    );
    match pattern {
        Pattern::RowBlock(_) => Matrix::vcat(dist.parts()),
        Pattern::ColBlock(_) => Matrix::hcat(dist.parts()),
        Pattern::RowCyclic(p) => {
            let rows: usize = dist.parts().iter().map(Matrix::rows).sum();
            let cols = dist.part(0).cols();
            Matrix::from_fn(rows, cols, |r, c| dist.part(r % p).get(r / p, c).clone())
        }
        Pattern::ColCyclic(p) => {
            let cols: usize = dist.parts().iter().map(Matrix::cols).sum();
            let rows = dist.part(0).rows();
            Matrix::from_fn(rows, cols, |r, c| dist.part(c % p).get(r, c / p).clone())
        }
        Pattern::Grid { pr, pc } => {
            let row_blocks: Vec<Matrix<T>> = (0..pr)
                .map(|i| {
                    let row: Vec<Matrix<T>> = (0..pc).map(|j| dist.part2(i, j).clone()).collect();
                    Matrix::hcat(&row)
                })
                .collect();
            Matrix::vcat(&row_blocks)
        }
        _ => panic!("gather2 of a matrix needs a 2-D pattern, got {pattern:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ranges_balanced() {
        let rs = block_ranges(10, 3);
        assert_eq!(rs, vec![0..4, 4..7, 7..10]);
        let rs = block_ranges(3, 5);
        assert_eq!(
            rs.iter().map(|r| r.len()).collect::<Vec<_>>(),
            vec![1, 1, 1, 0, 0]
        );
        let rs = block_ranges(0, 2);
        assert!(rs.iter().all(|r| r.is_empty()));
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn block_ranges_rejects_zero() {
        let _ = block_ranges(4, 0);
    }

    #[test]
    fn block_partition_and_owner_agree() {
        let data: Vec<u32> = (0..17).collect();
        for p in 1..=6 {
            let d = partition(Pattern::Block(p), &data);
            for (i, part) in d.parts().iter().enumerate() {
                for x in part {
                    assert_eq!(owner_1d(Pattern::Block(p), 17, *x as usize), i);
                }
            }
        }
    }

    #[test]
    fn cyclic_deals_round_robin() {
        let d = partition(Pattern::Cyclic(3), &[0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(d.part(0), &vec![0, 3, 6]);
        assert_eq!(d.part(1), &vec![1, 4]);
        assert_eq!(d.part(2), &vec![2, 5]);
    }

    #[test]
    fn block_cyclic_deals_blocks() {
        let data: Vec<u32> = (0..12).collect();
        let d = partition(Pattern::BlockCyclic { p: 2, block: 3 }, &data);
        assert_eq!(d.part(0), &vec![0, 1, 2, 6, 7, 8]);
        assert_eq!(d.part(1), &vec![3, 4, 5, 9, 10, 11]);
    }

    #[test]
    fn gather_inverts_partition_1d() {
        let data: Vec<u32> = (0..23).collect();
        for pattern in [
            Pattern::Block(4),
            Pattern::Cyclic(4),
            Pattern::BlockCyclic { p: 4, block: 3 },
            Pattern::Block(1),
            Pattern::Cyclic(23),
            Pattern::Block(40),
        ] {
            let d = partition(pattern, &data);
            assert_eq!(gather(pattern, &d), data, "{pattern:?}");
        }
    }

    #[test]
    fn partition_empty_data() {
        let d = partition(Pattern::Block(3), &[] as &[u8]);
        assert_eq!(d.len(), 3);
        assert!(d.parts().iter().all(Vec::is_empty));
        assert_eq!(gather(Pattern::Block(3), &d), Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "needs a 1-D pattern")]
    fn partition_rejects_2d_pattern() {
        let _ = partition(Pattern::RowBlock(2), &[1, 2, 3]);
    }

    fn sample() -> Matrix<i32> {
        Matrix::from_fn(4, 6, |r, c| (r * 6 + c) as i32)
    }

    #[test]
    fn row_block_splits_rows() {
        let d = partition2(Pattern::RowBlock(2), &sample());
        assert_eq!(d.len(), 2);
        assert_eq!(d.part(0).dims(), (2, 6));
        assert_eq!(d.part(0).row(0), sample().row(0));
    }

    #[test]
    fn col_block_splits_cols() {
        let d = partition2(Pattern::ColBlock(3), &sample());
        assert_eq!(d.len(), 3);
        assert_eq!(d.part(1).dims(), (4, 2));
        assert_eq!(*d.part(1).get(0, 0), 2);
    }

    #[test]
    fn grid_partitions_both_ways() {
        let d = partition2(Pattern::Grid { pr: 2, pc: 3 }, &sample());
        assert_eq!(d.shape().dims2(), (2, 3));
        assert_eq!(d.part2(1, 2).dims(), (2, 2));
        assert_eq!(*d.part2(1, 2).get(0, 0), 16);
    }

    #[test]
    fn cyclic_2d_variants() {
        let d = partition2(Pattern::RowCyclic(3), &sample());
        assert_eq!(d.part(0).rows(), 2); // rows 0, 3
        assert_eq!(*d.part(0).get(1, 0), 18);
        let d = partition2(Pattern::ColCyclic(2), &sample());
        assert_eq!(d.part(1).cols(), 3); // cols 1, 3, 5
        assert_eq!(*d.part(1).get(0, 2), 5);
    }

    #[test]
    fn gather2_inverts_partition2() {
        let m = sample();
        for pattern in [
            Pattern::RowBlock(3),
            Pattern::ColBlock(4),
            Pattern::RowCyclic(3),
            Pattern::ColCyclic(5),
            Pattern::Grid { pr: 2, pc: 2 },
            Pattern::Grid { pr: 4, pc: 6 },
            Pattern::RowBlock(1),
        ] {
            let d = partition2(pattern, &m);
            assert_eq!(gather2(pattern, &d), m, "{pattern:?}");
        }
    }

    #[test]
    fn pattern_parts_counts() {
        assert_eq!(Pattern::Block(4).parts(), 4);
        assert_eq!(Pattern::Grid { pr: 2, pc: 3 }.parts(), 6);
        assert!(Pattern::Block(1).is_1d());
        assert!(!Pattern::RowBlock(1).is_1d());
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_rejected() {
        Pattern::BlockCyclic { p: 2, block: 0 }.check();
    }
}
