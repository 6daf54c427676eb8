//! Hyperquicksort — the paper's flagship example (§3 and §5).
//!
//! Two formulations are provided, exactly mirroring the paper:
//!
//! * [`hyperquicksort_nested`] — the §3 recursive divide-and-conquer
//!   program: `spreadPivot`, `exPart`, `mergeAndDiv`, then `combine ∘ map
//!   hsort ∘ split` over dynamically created processor sub-groups (nested
//!   parallelism on sub-hypercubes).
//! * [`hyperquicksort_flat`] — the §5 hand-flattened iterative SPMD program
//!   (`iterFor d step`), the version the paper actually measured on the
//!   AP1000 for Table 1 / Figure 3.
//!
//! Both compose the same sequential procedures (`SEQ_QUICKSORT`,
//! `MIDVALUE`, `SPLIT`, `MERGE` from [`crate::seqkit`]) with SCL skeletons,
//! and both charge the simulated machine, so `scl.makespan()` after a run
//! is the predicted parallel runtime.

use crate::seqkit::{merge_sorted, midvalue, seq_quicksort, split_sorted};
use scl_core::prelude::*;
use scl_core::{align, unalign};

/// Local sort step: the paper's `map SEQ_QUICKSORT ∘ partition block p`.
fn distribute_and_sort(scl: &mut Scl, data: &[i64], p: usize) -> ParArray<Vec<i64>> {
    let da = scl.partition(Pattern::Block(p), data);
    scl.map_costed(&da, |part| {
        let mut v = part.clone();
        let w = seq_quicksort(&mut v);
        (v, w)
    })
}

/// `MIDVALUE` lifted to possibly-empty parts (an empty part contributes a
/// neutral pivot — its group's data is all elsewhere).
#[allow(clippy::ptr_arg)] // must be Fn(&Vec<i64>) to pass to map_costed directly
fn part_midvalue(v: &Vec<i64>) -> (i64, Work) {
    if v.is_empty() {
        (0, Work::cmps(1))
    } else {
        midvalue(v)
    }
}

/// One iteration of the flattened program: groups of size `g = 2^dd`
/// pivot / split / exchange-partner / merge. Exposed for the stage-by-stage
/// trace tests (the paper's Figure 2).
pub fn hqs_step(scl: &mut Scl, da: ParArray<Vec<i64>>, g: usize) -> ParArray<Vec<i64>> {
    debug_assert!(g >= 2 && g.is_power_of_two());
    let half = g / 2;

    // wpivot: every part computes its median locally (cheap), then fetches
    // the *group leader's* median — the paper's
    //   pivots = SPMD [⟨fetch (mf d), MIDVALUE⟩],  mf d i = ⌊i/d⌋·d
    let medians = scl.map_costed(&da, part_midvalue);
    let pivots = scl.fetch_owned(move |i| (i / g) * g, medians);

    // exPart: SPLIT local data around the pivot; the lower half of each
    // group keeps the low portion and sends the high portion to its
    // partner (i xor half), and vice versa.
    let cfg = align(pivots, da);
    let splits = scl.imap_costed(&cfg, move |i, (pivot, v)| {
        let (lo, hi, w) = split_sorted(v, *pivot);
        if (i / half).is_multiple_of(2) {
            ((lo, hi), w) // lower half keeps low
        } else {
            ((hi, lo), w) // upper half keeps high
        }
    });
    let (keeps, gives) = unalign(splits);
    let received = scl.fetch_owned(move |i| i ^ half, gives);

    // merge: MERGE the kept portion with the received portion.
    let merged = align(keeps, received);
    scl.map_costed(&merged, |(a, b)| merge_sorted(a, b))
}

/// The §5 flattened hyperquicksort: sort `data` on a `2^dim`-processor
/// hypercube pattern. Returns the globally sorted vector; read
/// `scl.makespan()` afterwards for the predicted runtime.
///
/// # Panics
/// Panics if the machine has fewer than `2^dim` processors.
pub fn hyperquicksort_flat(scl: &mut Scl, data: &[i64], dim: u32) -> Vec<i64> {
    let p = 1usize << dim;
    scl.machine.barrier(); // program start: everyone synchronised
    let da = distribute_and_sort(scl, data, p);
    let sorted = scl.iter_for(
        dim as usize,
        |scl, i, da| {
            let g = 1usize << (dim as usize - i); // group size shrinks each round
            hqs_step(scl, da, g)
        },
        da,
    );
    scl.gather_owned(sorted)
}

/// The §3 nested-parallel hyperquicksort: the recursive `hsort` over
/// processor sub-groups created with `split`, combined back with
/// `combine`. Semantically identical to the flattened version.
pub fn hyperquicksort_nested(scl: &mut Scl, data: &[i64], dim: u32) -> Vec<i64> {
    let p = 1usize << dim;
    scl.machine.barrier();
    let da = distribute_and_sort(scl, data, p);
    let sorted = hsort(scl, da);
    scl.gather_owned(sorted)
}

/// The recursive kernel: pivot broadcast, partner exchange, merge, then
/// recurse into the two sub-hypercubes.
fn hsort(scl: &mut Scl, da: ParArray<Vec<i64>>) -> ParArray<Vec<i64>> {
    let g = da.len();
    if g == 1 {
        return da;
    }
    assert!(
        g.is_power_of_two(),
        "hsort needs a power-of-two group, got {g}"
    );
    let half = g / 2;

    // spreadPivot = applybrdcast MIDVALUE 0
    let cfg = scl.apply_brdcast_costed(part_midvalue, 0, &da);

    // exPart: split by the broadcast pivot, exchange with partner
    let splits = scl.imap_costed(&cfg, move |i, (pivot, v)| {
        let (lo, hi, w) = split_sorted(v, *pivot);
        if i < half {
            ((lo, hi), w)
        } else {
            ((hi, lo), w)
        }
    });
    let (keeps, gives) = unalign(splits);
    let received = scl.fetch_owned(move |i| i ^ half, gives);

    // mergeAndDiv: MERGE, then divide into sub-cubes
    let merged_cfg = align(keeps, received);
    let merged = scl.map_costed(&merged_cfg, |(a, b)| merge_sorted(a, b));

    let subcubes = scl.split(Pattern::Block(2), merged);
    let solved = scl.map_groups(subcubes, &mut |scl, sub| hsort(scl, sub));
    scl.combine(solved)
}

/// A third formulation: the same algorithm expressed through the *generic*
/// divide-and-conquer skeleton [`Scl::dc`] — pivot/exchange/merge as the
/// pre-division `step`, identity base case, two branches. Demonstrates
/// that the paper's recursive program is an instance of a reusable
/// computational skeleton rather than bespoke control flow.
pub fn hyperquicksort_dc(scl: &mut Scl, data: &[i64], dim: u32) -> Vec<i64> {
    let p = 1usize << dim;
    scl.machine.barrier();
    let da = distribute_and_sort(scl, data, p);
    let sorted = scl.dc(da, 2, &|g| g.len() == 1, &mut |_, g| g, &mut |scl, g| {
        // one pivot/split/exchange/merge round over the current group
        let half = g.len() / 2;
        let cfg = scl.apply_brdcast_costed(part_midvalue, 0, &g);
        let splits = scl.imap_costed(&cfg, move |i, (pivot, v)| {
            let (lo, hi, w) = split_sorted(v, *pivot);
            if i < half {
                ((lo, hi), w)
            } else {
                ((hi, lo), w)
            }
        });
        let (keeps, gives) = unalign(splits);
        let received = scl.fetch_owned(move |i| i ^ half, gives);
        let merged = align(keeps, received);
        scl.map_costed(&merged, |(a, b)| merge_sorted(a, b))
    });
    scl.gather_owned(sorted)
}

/// Sequential baseline: one processor, plain quicksort. Returns the sorted
/// data and the work performed (used to compute speedups against the same
/// cost model).
pub fn sequential_sort(data: &[i64]) -> (Vec<i64>, Work) {
    let mut v = data.to_vec();
    let w = seq_quicksort(&mut v);
    (v, w)
}

/// Cross-part sortedness: every element of part `i` ≤ every element of
/// part `i+1`, and each part locally sorted — the invariant hyperquicksort
/// maintains (the paper's Figure 2(e)/(g) states).
pub fn globally_sorted(da: &ParArray<Vec<i64>>) -> bool {
    let mut prev_max: Option<i64> = None;
    for part in da.parts() {
        if !crate::seqkit::is_sorted(part) {
            return false;
        }
        if let (Some(pm), Some(first)) = (prev_max, part.first()) {
            if pm > *first {
                return false;
            }
        }
        if let Some(last) = part.last() {
            prev_max = Some(*last);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{few_unique_keys, reverse_keys, sorted_keys, uniform_keys};

    fn check_sorts(data: &[i64], dim: u32) {
        let mut expect = data.to_vec();
        expect.sort_unstable();

        let mut scl = Scl::hypercube(1 << dim, CostModel::ap1000());
        let flat = hyperquicksort_flat(&mut scl, data, dim);
        assert_eq!(flat, expect, "flat failed (dim={dim}, n={})", data.len());
        assert!(scl.makespan() > Time::ZERO);

        let mut scl = Scl::hypercube(1 << dim, CostModel::ap1000());
        let nested = hyperquicksort_nested(&mut scl, data, dim);
        assert_eq!(
            nested,
            expect,
            "nested failed (dim={dim}, n={})",
            data.len()
        );
    }

    #[test]
    fn sorts_uniform_inputs() {
        for dim in 0..=4 {
            check_sorts(&uniform_keys(500, 42), dim);
        }
    }

    #[test]
    fn sorts_adversarial_inputs() {
        check_sorts(&sorted_keys(300), 3);
        check_sorts(&reverse_keys(300), 3);
        check_sorts(&few_unique_keys(400, 3, 7), 3);
        check_sorts(&[], 2);
        check_sorts(&[5], 2);
        check_sorts(&uniform_keys(7, 1), 3); // fewer keys than procs
    }

    #[test]
    fn dc_formulation_agrees_with_both() {
        let data = uniform_keys(800, 17);
        let mut expect = data.clone();
        expect.sort_unstable();
        for dim in 0..=3u32 {
            let mut s = Scl::hypercube(1 << dim, CostModel::ap1000());
            assert_eq!(hyperquicksort_dc(&mut s, &data, dim), expect, "dim={dim}");
        }
        // identical virtual time to the hand-written nested recursion
        let mut s1 = Scl::hypercube(8, CostModel::ap1000());
        let _ = hyperquicksort_nested(&mut s1, &data, 3);
        let mut s2 = Scl::hypercube(8, CostModel::ap1000());
        let _ = hyperquicksort_dc(&mut s2, &data, 3);
        assert_eq!(s1.makespan(), s2.makespan());
        assert_eq!(s1.machine.metrics, s2.machine.metrics);
    }

    #[test]
    fn flat_and_nested_charge_comparable_time() {
        let data = uniform_keys(4000, 11);
        let mut s1 = Scl::hypercube(8, CostModel::ap1000());
        let _ = hyperquicksort_flat(&mut s1, &data, 3);
        let mut s2 = Scl::hypercube(8, CostModel::ap1000());
        let _ = hyperquicksort_nested(&mut s2, &data, 3);
        let (t1, t2) = (s1.makespan().as_secs(), s2.makespan().as_secs());
        // same algorithm, same kernels: within 2x of each other
        assert!(t1 / t2 < 2.0 && t2 / t1 < 2.0, "flat {t1} vs nested {t2}");
    }

    #[test]
    fn step_maintains_figure2_invariants() {
        // The paper's Figure 2 walk-through: on a 2-dim hypercube (4 procs),
        // after the first step the lower sub-cube holds values <= pivot and
        // the upper sub-cube values > pivot; after the second, the array is
        // globally sorted.
        let data = uniform_keys(64, 99);
        let mut scl = Scl::hypercube(4, CostModel::ap1000());
        let da = distribute_and_sort(&mut scl, &data, 4);

        let after1 = hqs_step(&mut scl, da, 4);
        // pivot was proc 0's median; check the cube split invariant
        let lower_max = after1.parts()[..2].iter().flatten().copied().max();
        let upper_min = after1.parts()[2..].iter().flatten().copied().min();
        if let (Some(lm), Some(um)) = (lower_max, upper_min) {
            assert!(lm <= um, "cube split violated: {lm} > {um}");
        }
        for part in after1.parts() {
            assert!(crate::seqkit::is_sorted(part));
        }

        let after2 = hqs_step(&mut scl, after1, 2);
        assert!(
            globally_sorted(&after2),
            "not globally sorted after d steps"
        );
    }

    #[test]
    fn speedup_is_positive_and_sublinear() {
        // The qualitative content of Figure 3: more processors help, but
        // communication keeps the speedup below linear.
        let data = uniform_keys(20_000, 5);
        let mut times = vec![];
        for dim in [0u32, 2, 4] {
            let mut scl = Scl::hypercube(1 << dim, CostModel::ap1000());
            let _ = hyperquicksort_flat(&mut scl, &data, dim);
            times.push(scl.makespan().as_secs());
        }
        let (t1, t4, t16) = (times[0], times[1], times[2]);
        assert!(t4 < t1, "4 procs should beat 1 ({t4} vs {t1})");
        assert!(t16 < t4, "16 procs should beat 4 ({t16} vs {t4})");
        let speedup16 = t1 / t16;
        assert!(
            speedup16 > 2.0,
            "some real speedup expected, got {speedup16}"
        );
        assert!(
            speedup16 < 16.0,
            "speedup must be sublinear, got {speedup16}"
        );
    }

    #[test]
    fn metrics_show_expected_structure() {
        let data = uniform_keys(1000, 3);
        let mut scl = Scl::hypercube(8, CostModel::ap1000());
        let _ = hyperquicksort_flat(&mut scl, &data, 3);
        let m = &scl.machine.metrics;
        // d=3 rounds, each: median fetch + give fetch => permutes; plus
        // scatter + gather collectives
        assert!(m.messages > 0);
        assert!(m.gathers >= 2, "scatter + gather");
        assert!(m.cmps > 0 && m.moves > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let data = uniform_keys(2000, 8);
        let run = || {
            let mut scl = Scl::hypercube(8, CostModel::ap1000());
            let out = hyperquicksort_flat(&mut scl, &data, 3);
            (out, scl.makespan().as_secs(), scl.machine.metrics.messages)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn threaded_host_execution_matches() {
        let data = uniform_keys(3000, 13);
        let mut seq_ctx = Scl::hypercube(8, CostModel::ap1000());
        let a = hyperquicksort_flat(&mut seq_ctx, &data, 3);
        let mut par_ctx =
            Scl::hypercube(8, CostModel::ap1000()).with_policy(ExecPolicy::Threads(4));
        let b = hyperquicksort_flat(&mut par_ctx, &data, 3);
        assert_eq!(a, b);
        // virtual time identical regardless of host threading
        assert_eq!(seq_ctx.makespan(), par_ctx.makespan());
    }

    #[test]
    fn sequential_baseline_agrees() {
        let data = uniform_keys(1234, 21);
        let (sorted, w) = sequential_sort(&data);
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        assert!(w.cmps > 1234);
    }
}
