//! Distributed histogram — the irregular many-to-one workload.
//!
//! Each processor counts its local values into `buckets` bins, then the
//! partial counts travel to the processor that *owns* each bin range
//! (block distribution of bins over processors) via a total exchange; the
//! owners reduce their incoming partials and the result is gathered. This
//! is the paper's motivating case for the irregular `send` family: the
//! destination of a datum is a function of its *value*, not its index.

use scl_core::block_ranges;
use scl_core::prelude::*;

/// Sequential baseline.
pub fn histogram_seq(values: &[u64], buckets: usize) -> Vec<u64> {
    let mut h = vec![0u64; buckets];
    for &v in values {
        h[(v as usize) % buckets] += 1;
    }
    h
}

/// The distributed phase of the histogram as a first-class plan:
/// count locally, slice the local histograms into per-owner fragments,
/// total-exchange them, and reduce at each owner. Input is the partitioned
/// values; output is one `Vec<u64>` of owned-bucket counts per processor.
pub fn histogram_plan(
    buckets: usize,
    p: usize,
) -> Skel<'static, ParArray<Vec<u64>>, ParArray<Vec<u64>>> {
    assert!(buckets > 0, "need at least one bucket");
    let ranges = block_ranges(buckets, p);

    // local counting
    let count = Skel::map_costed(move |part: &Vec<u64>| {
        let mut h = vec![0u64; buckets];
        for &v in part {
            h[(v as usize) % buckets] += 1;
        }
        (h, Work::cmps(part.len() as u64))
    });

    // slice each local histogram into per-owner fragments
    let fragment = Skel::map_costed(move |h: &Vec<u64>| {
        let frags: Vec<Vec<u64>> = ranges.iter().map(|r| h[r.clone()].to_vec()).collect();
        (frags, Work::moves(h.len() as u64))
    });

    // each owner sums the p incoming partials for its bin range
    let reduce = Skel::map_costed(|partials: &Vec<Vec<u64>>| {
        let width = partials.first().map(Vec::len).unwrap_or(0);
        let mut acc = vec![0u64; width];
        for part in partials {
            for (a, x) in acc.iter_mut().zip(part) {
                *a += x;
            }
        }
        let flops = (width * partials.len()) as u64;
        (acc, Work::flops(flops))
    });

    count
        .then(fragment)
        .then(Skel::total_exchange())
        .then(reduce)
}

/// SCL histogram on `p` processors. `values` are binned by `value %
/// buckets`. Returns counts per bucket; read `scl.makespan()` for the
/// predicted time. Configure/partition eagerly, then run
/// [`histogram_plan`].
pub fn histogram_scl(scl: &mut Scl, values: &[u64], buckets: usize, p: usize) -> Vec<u64> {
    assert!(buckets > 0, "need at least one bucket");
    scl.check_fits(p);
    scl.machine.barrier();
    let da = scl.partition(Pattern::Block(p), values);
    let reduced = histogram_plan(buckets, p).run(scl, da);
    scl.gather_owned(reduced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::uniform_keys;

    fn values(n: usize, seed: u64) -> Vec<u64> {
        uniform_keys(n, seed)
            .into_iter()
            .map(|x| x as u64)
            .collect()
    }

    #[test]
    fn matches_sequential() {
        let v = values(5000, 3);
        for (buckets, p) in [(16usize, 4usize), (10, 3), (64, 8), (5, 8), (1, 2)] {
            let expect = histogram_seq(&v, buckets);
            let mut scl = Scl::ap1000(p);
            let got = histogram_scl(&mut scl, &v, buckets, p);
            assert_eq!(got, expect, "buckets={buckets} p={p}");
        }
    }

    #[test]
    fn plan_fuses_count_and_fragment_into_one_segment() {
        let plan = histogram_plan(16, 4);
        // count + fragment fuse back-to-back; the exchange is the barrier
        assert_eq!(
            plan.fused_stages(),
            vec![
                ("map_costed", false),
                ("map_costed", false),
                ("total_exchange", true),
                ("map_costed", false),
            ]
        );
    }

    #[test]
    fn run_fused_matches_eager_and_seq() {
        let v = values(3000, 17);
        for (buckets, p) in [(16usize, 4usize), (10, 3), (5, 8)] {
            let expect = histogram_seq(&v, buckets);
            let mut scl = Scl::ap1000(p).with_policy(ExecPolicy::Threads(4));
            let da = scl.partition(Pattern::Block(p), &v);
            let reduced = scl.run_fused(&histogram_plan(buckets, p), da).unwrap();
            let got = scl.gather(&reduced);
            assert_eq!(got, expect, "buckets={buckets} p={p}");
        }
    }

    #[test]
    fn counts_sum_to_n() {
        let v = values(1234, 9);
        let mut scl = Scl::ap1000(4);
        let h = histogram_scl(&mut scl, &v, 32, 4);
        assert_eq!(h.iter().sum::<u64>(), 1234);
    }

    #[test]
    fn empty_input() {
        let mut scl = Scl::ap1000(4);
        let h = histogram_scl(&mut scl, &[], 8, 4);
        assert_eq!(h, vec![0u64; 8]);
    }

    #[test]
    fn more_buckets_than_needed() {
        let mut scl = Scl::ap1000(2);
        let h = histogram_scl(&mut scl, &[1, 1, 1], 100, 2);
        assert_eq!(h[1], 3);
        assert_eq!(h.iter().sum::<u64>(), 3);
    }

    #[test]
    fn charges_exchange_traffic() {
        let v = values(1000, 4);
        let mut scl = Scl::ap1000(4);
        let _ = histogram_scl(&mut scl, &v, 16, 4);
        assert_eq!(scl.machine.metrics.exchanges, 1);
        assert!(scl.makespan() > Time::ZERO);
    }
}
