//! Parallel Sorting by Regular Sampling (PSRS) — the comparison algorithm.
//!
//! The paper claims hyperquicksort's "achieved performance compares well
//! with the best speedup available for this problem"; PSRS (Shi & Schaeffer
//! 1992, also in Quinn's textbook) is the classic contender, so we build it
//! from the same skeletons and the same instrumented kernels and plot both
//! in the Figure 3 reproduction.
//!
//! Unlike hyperquicksort, PSRS works for any processor count (not just
//! powers of two) and balances data via regular sampling instead of median
//! pivots; the price is an all-to-all exchange.

use crate::seqkit::{merge_sorted, seq_quicksort};
use scl_core::prelude::*;

/// Phase 1 as a plan stage: sort each local run with the instrumented
/// quicksort.
fn local_sort_stage() -> Skel<'static, ParArray<Vec<i64>>, ParArray<Vec<i64>>> {
    Skel::map_costed(|part: &Vec<i64>| {
        let mut v = part.clone();
        let w = seq_quicksort(&mut v);
        (v, w)
    })
}

/// The whole PSRS pipeline (for `p >= 2`) as a first-class plan over a
/// partitioned input: local sort → regular sampling → pivot selection and
/// broadcast → bucketing → all-to-all exchange → p-way merge. Output is
/// the sorted run per processor (globally ordered by part index).
pub fn psrs_plan(p: usize) -> Skel<'static, ParArray<Vec<i64>>, ParArray<Vec<i64>>> {
    assert!(
        p >= 2,
        "psrs_plan needs at least two processors (p=1 is a local sort)"
    );

    // Phases 2+3: sampling and pivot broadcast need the whole
    // configuration (a gather to processor 0), so they form one opaque
    // global stage that pairs every sorted run with the pivot vector — a
    // fusion *barrier*, so the surrounding sort/bucket/merge stages still
    // fuse under `run_fused`. The sorted runs themselves are never cloned:
    // the samples gather by move and the broadcast moves the runs into the
    // (pivots, run) pairs.
    let pivot_stage = Skel::barrier("pivots", move |scl: &mut Scl, da: ParArray<Vec<i64>>| {
        // each processor takes p regular samples of its sorted run
        let samples = scl.map_costed(&da, |v| {
            let mut s = Vec::with_capacity(p);
            if !v.is_empty() {
                for k in 0..p {
                    s.push(v[k * v.len() / p]);
                }
            }
            (s, Work::moves(p as u64))
        });

        // gather the samples, sort them on processor 0, pick p-1 pivots,
        // broadcast them back
        let mut all_samples = scl.gather_owned(samples);
        let w = seq_quicksort(&mut all_samples);
        scl.machine.compute(0, w, "sort samples");
        // exactly p-1 pivots, even for tiny or empty sample sets
        let pivots: Vec<i64> = (1..p)
            .map(|k| {
                if all_samples.is_empty() {
                    0
                } else {
                    all_samples[(k * all_samples.len() / p).min(all_samples.len() - 1)]
                }
            })
            .collect();
        scl.brdcast_owned(&pivots, da)
    });

    // Phase 4a: bucket local runs by the broadcast pivots.
    let bucket_stage = Skel::map_costed(move |(pivots, v): &(Vec<i64>, Vec<i64>)| {
        let mut out: Vec<Vec<i64>> = Vec::with_capacity(p);
        let mut start = 0usize;
        for piv in pivots.iter() {
            let cut = start + v[start..].partition_point(|x| x <= piv);
            out.push(v[start..cut].to_vec());
            start = cut;
        }
        out.push(v[start..].to_vec());
        let cmps = (p as u64) * ((v.len().max(1) as f64).log2().ceil() as u64 + 1);
        (
            out,
            Work {
                cmps,
                moves: v.len() as u64,
                ..Work::NONE
            },
        )
    });

    // Phase 5: merge the p received runs on each processor.
    let merge_stage = Skel::map_costed(|runs: &Vec<Vec<i64>>| {
        let mut acc: Vec<i64> = Vec::new();
        let mut work = Work::NONE;
        for run in runs {
            let (m, w) = merge_sorted(&acc, run);
            acc = m;
            work += w;
        }
        (acc, work)
    });

    local_sort_stage()
        .then(pivot_stage)
        .then(bucket_stage)
        .then(Skel::total_exchange())
        .then(merge_stage)
}

/// Sort `data` on `p` processors with PSRS. Returns the sorted vector;
/// read `scl.makespan()` for the predicted time. Configure/partition
/// eagerly, then run [`psrs_plan`].
pub fn psrs_sort(scl: &mut Scl, data: &[i64], p: usize) -> Vec<i64> {
    assert!(p >= 1, "need at least one processor");
    scl.check_fits(p);
    scl.machine.barrier();

    let da = scl.partition(Pattern::Block(p), data);
    if p == 1 {
        let sorted = local_sort_stage().run(scl, da);
        return scl.gather_owned(sorted);
    }
    let merged = psrs_plan(p).run(scl, da);
    scl.gather_owned(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{few_unique_keys, reverse_keys, sorted_keys, uniform_keys};

    fn check(data: &[i64], p: usize) {
        let mut expect = data.to_vec();
        expect.sort_unstable();
        let mut scl = Scl::ap1000(p);
        let got = psrs_sort(&mut scl, data, p);
        assert_eq!(got, expect, "psrs failed (p={p}, n={})", data.len());
    }

    #[test]
    fn sorts_various_inputs() {
        for p in [1, 2, 3, 4, 7, 8] {
            check(&uniform_keys(1000, 42), p);
        }
        check(&sorted_keys(500), 4);
        check(&reverse_keys(500), 4);
        check(&few_unique_keys(500, 2, 3), 4);
        check(&[], 4);
        check(&[9], 4);
        check(&uniform_keys(5, 8), 8);
    }

    #[test]
    fn non_power_of_two_procs_work() {
        check(&uniform_keys(2000, 1), 5);
        check(&uniform_keys(2000, 1), 6);
    }

    #[test]
    fn plan_is_fusable_with_barriers_at_comm_points() {
        let plan = psrs_plan(4);
        assert_eq!(
            plan.fused_stages(),
            vec![
                ("map_costed", false), // local sort
                ("pivots", true),      // gather + broadcast
                ("map_costed", false), // bucket
                ("total_exchange", true),
                ("map_costed", false), // merge
            ]
        );
    }

    #[test]
    fn run_fused_matches_eager() {
        for p in [2usize, 4, 7] {
            let data = uniform_keys(2000, 11);
            let mut s1 = Scl::ap1000(p);
            let da = s1.partition(Pattern::Block(p), &data);
            let eager = psrs_plan(p).run(&mut s1, da);

            let mut s2 = Scl::ap1000(p).with_policy(ExecPolicy::Threads(4));
            let da = s2.partition(Pattern::Block(p), &data);
            let fused = s2.run_fused(&psrs_plan(p), da).unwrap();
            assert_eq!(eager, fused, "p={p}");
        }
    }

    #[test]
    fn charges_all_to_all() {
        let mut scl = Scl::ap1000(4);
        let _ = psrs_sort(&mut scl, &uniform_keys(1000, 2), 4);
        assert_eq!(scl.machine.metrics.exchanges, 1);
        assert!(scl.machine.metrics.broadcasts >= 1);
    }

    #[test]
    fn speedup_exists_and_is_sublinear() {
        let data = uniform_keys(20_000, 6);
        let time = |p: usize| {
            let mut scl = Scl::ap1000(p);
            let _ = psrs_sort(&mut scl, &data, p);
            scl.makespan().as_secs()
        };
        let t1 = time(1);
        let t8 = time(8);
        assert!(t8 < t1);
        assert!(t1 / t8 < 8.0);
    }
}
