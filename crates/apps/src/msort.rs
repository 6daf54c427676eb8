//! Divide-and-conquer merge sort as a first-class plan **DAG**.
//!
//! Hyperquicksort (§3) is written twice in this crate — once nested, once
//! flattened — because the original skeleton language had no first-class
//! `dc` form to hang the recursion on. [`Skel::dac`] closes that gap:
//! `msort_plan` *is* the recursion tree, built from `pair` branches, and
//! both walks of the plan see it whole.
//!
//! The shape is the textbook one: `levels = log2(p)` splits halve the
//! part set until each leaf owns a single part, the base sorts that part
//! with the instrumented quicksort, and each combine merges two globally
//! sorted runs back into one, blocked evenly across the united parts so
//! every level stays load-balanced.
//!
//! What overlaps on the host, under a multi-thread policy: the two leaf
//! sorts below each last-level `pair` go out as one pool dispatch
//! ([`BranchOp::try_apply`](scl_core::BranchOp::try_apply)), and every
//! merge is rank-split, each output part merging its own slice of the two
//! runs. Higher-level sibling subtrees hold barriers, so they run one
//! after the other. The simulated machine is charged the same whatever
//! the host does.

use crate::seqkit::{merge_range, merge_work, seq_quicksort};
use scl_core::{block_ranges, prelude::*};
use scl_exec::par_map;

/// A distributed run: one sorted-or-not `Vec<i64>` chunk per part.
pub type Run = ParArray<Vec<i64>>;

/// The divide stage: split the run's parts into conforming halves.
/// Pure data placement — charges nothing.
fn split_stage() -> Skel<'static, Run, (Run, Run)> {
    Skel::barrier("msort-split", |_scl: &mut Scl, a: ParArray<Vec<i64>>| {
        let mut parts = a.into_parts();
        debug_assert!(
            parts.len().is_multiple_of(2),
            "msort splits need an even part count"
        );
        let right = parts.split_off(parts.len() / 2);
        (ParArray::from_parts(parts), ParArray::from_parts(right))
    })
}

/// The base stage: each leaf owns one part; sort it locally with the
/// instrumented quicksort so the cost accounting matches the sequential
/// kernels everywhere else in the crate.
fn local_sort_stage() -> Skel<'static, Run, Run> {
    Skel::map_costed(|part: &Vec<i64>| {
        let mut v = part.clone();
        let w = seq_quicksort(&mut v);
        (v, w)
    })
}

/// The combine stage: both inputs are globally sorted runs, merged into
/// the united parts' even blocks by rank split — each output part finds
/// its slice of both runs by co-rank search and merges it into its own
/// `Vec`, the parts in parallel under the context's policy. The machine
/// is charged one linear merge of the two runs, as a single event on
/// processor 0.
fn merge_stage() -> Skel<'static, (Run, Run), Run> {
    Skel::barrier(
        "msort-merge",
        |scl: &mut Scl, (l, r): (ParArray<Vec<i64>>, ParArray<Vec<i64>>)| {
            let k = l.parts().len() + r.parts().len();
            let (a, b) = (l.into_parts().concat(), r.into_parts().concat());
            scl.machine.compute(0, merge_work(&a, &b), "merge runs");
            let blocks = block_ranges(a.len() + b.len(), k);
            ParArray::from_parts(par_map(scl.policy, &blocks, |rg| {
                merge_range(&a, &b, rg.clone())
            }))
        },
    )
}

/// The whole merge sort (for `p` a power of two, `p >= 2`) as a plan
/// DAG over a partitioned input: `log2(p)` levels of split ·
/// `pair` · merge around a local-sort base. Output is the globally
/// sorted run, re-blocked over `p` parts.
pub fn msort_plan(p: usize) -> Skel<'static, Run, Run> {
    assert!(
        p.is_power_of_two() && p >= 2,
        "msort_plan needs a power-of-two processor count >= 2"
    );
    let levels = p.trailing_zeros() as usize;
    Skel::dac(
        levels,
        |_| split_stage(),
        local_sort_stage,
        |_| merge_stage(),
    )
}

/// Sort `data` on `p` processors with the DAG merge sort. Returns the
/// sorted vector; read `scl.makespan()` for the predicted time.
/// Configure/partition eagerly, then run [`msort_plan`].
pub fn msort_sort(scl: &mut Scl, data: &[i64], p: usize) -> Vec<i64> {
    scl.check_fits(p);
    let input = ParArray::from_parts(
        block_ranges(data.len(), p)
            .into_iter()
            .map(|rg| data[rg].to_vec())
            .collect::<Vec<Vec<i64>>>(),
    );
    let out = msort_plan(p).run(scl, input);
    out.into_parts().concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_and_balances() {
        for p in [2usize, 4, 8] {
            let data: Vec<i64> = (0..257).map(|i| (i * 7919) % 2003 - 1000).collect();
            let mut scl = Scl::ap1000(p);
            let sorted = msort_sort(&mut scl, &data, p);
            let mut expect = data.clone();
            expect.sort_unstable();
            assert_eq!(sorted, expect, "p={p}");
            assert!(scl.makespan().as_secs() > 0.0);
        }
    }

    #[test]
    fn plan_is_a_fusable_dag_with_a_stable_fingerprint() {
        let plan = msort_plan(4);
        let fp = plan.fingerprint();
        assert_eq!(fp, msort_plan(4).fingerprint(), "stable key");
        assert_ne!(fp, msort_plan(8).fingerprint(), "tree depth is structural");
    }
}
