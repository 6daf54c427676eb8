//! Windowed histogram over a stream of batches — the streaming workload.
//!
//! The batch pipeline is the ordinary distributed histogram
//! ([`histogram_plan`]) wrapped configuration-to-configuration:
//! `partition → count → fragment → total_exchange → reduce → gather`, a
//! plan from host `Vec<u64>` to host `Vec<u64>`. Served through
//! [`StreamExec`], the count/fragment segment farms across stream items
//! while the exchange barrier runs per item in stream order — batch `k+1`
//! counts while batch `k` exchanges.
//!
//! On top of the per-batch histograms, [`windowed_histogram_stream`]
//! maintains a sliding window: result `i` is the histogram of the last
//! `window` batches up to and including batch `i` (all batches, before
//! the window fills). The window state is a host-side ring — O(window ×
//! buckets) memory, with the stream itself bounded by the graph's channel
//! capacities, so arbitrarily long streams run in constant memory.

use crate::histogram::{histogram_plan, histogram_seq};
use scl_core::prelude::*;
use scl_stream::{StreamExec, StreamPolicy};
use std::collections::VecDeque;

/// The per-batch plan: scatter a host batch over `p` processors, run the
/// distributed histogram, gather the owned-bucket counts back — a full
/// `Vec<u64> → Vec<u64>` pipeline the streaming runtime can serve.
pub fn batch_histogram_plan(buckets: usize, p: usize) -> Skel<'static, Vec<u64>, Vec<u64>> {
    assert!(buckets > 0, "need at least one bucket");
    Skel::partition(Pattern::Block(p))
        .then(histogram_plan(buckets, p))
        .then(Skel::gather())
}

/// Serve a stream of batches through the distributed histogram and fold a
/// sliding window over the results: output `i` is the bucket counts of
/// the last `window` batches ending at batch `i`. Lazy on both sides —
/// batches are pulled as the consumer pulls windows — so memory really
/// does stay bounded (graph channels + the O(window × buckets) ring)
/// regardless of how many batches flow through.
///
/// # Panics
/// Panics if `window` is zero or `buckets` is zero.
pub fn windowed_histogram_stream(
    batches: impl IntoIterator<Item = Vec<u64>>,
    window: usize,
    buckets: usize,
    p: usize,
    policy: StreamPolicy,
) -> impl Iterator<Item = Vec<u64>> {
    assert!(window > 0, "need a positive window");
    let exec = StreamExec::new(batch_histogram_plan(buckets, p), policy);
    let mut ring: VecDeque<Vec<u64>> = VecDeque::with_capacity(window);
    let mut acc = vec![0u64; buckets];
    exec.run_stream(batches).map(move |h| {
        for (a, x) in acc.iter_mut().zip(&h) {
            *a += x;
        }
        ring.push_back(h);
        if ring.len() > window {
            let expired = ring.pop_front().expect("ring just exceeded window");
            for (a, x) in acc.iter_mut().zip(&expired) {
                *a -= x;
            }
        }
        acc.clone()
    })
}

/// Sequential reference for [`windowed_histogram_stream`].
pub fn windowed_histogram_seq(
    batches: &[Vec<u64>],
    window: usize,
    buckets: usize,
) -> Vec<Vec<u64>> {
    assert!(window > 0, "need a positive window");
    (0..batches.len())
        .map(|i| {
            let lo = (i + 1).saturating_sub(window);
            let mut h = vec![0u64; buckets];
            for batch in &batches[lo..=i] {
                for (a, x) in h.iter_mut().zip(&histogram_seq(batch, buckets)) {
                    *a += x;
                }
            }
            h
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::uniform_keys;
    use scl_machine::Machine;

    fn batches(n: usize, len: usize, seed: u64) -> Vec<Vec<u64>> {
        (0..n)
            .map(|i| {
                uniform_keys(len, seed + i as u64)
                    .into_iter()
                    .map(|x| x as u64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn batch_plan_matches_sequential_histogram() {
        let plan = batch_histogram_plan(16, 4);
        let mut scl = Scl::ap1000(4);
        let b = batches(1, 3000, 7).pop().unwrap();
        assert_eq!(plan.run(&mut scl, b.clone()), histogram_seq(&b, 16));
    }

    #[test]
    fn batch_plan_farms_the_count_segment() {
        let ops = batch_histogram_plan(16, 4).into_stream_ops();
        let ops: Vec<String> = ops.iter().map(|op| op.label()).collect();
        assert_eq!(
            ops,
            vec![
                "partition",
                "map_costed+map_costed", // count + fragment fuse into one farm
                "total_exchange",
                "map_costed",
                "gather",
            ]
        );
    }

    #[test]
    fn windowed_stream_matches_sequential_reference() {
        let bs = batches(24, 400, 3);
        let expect = windowed_histogram_seq(&bs, 5, 16);
        for exec in [
            ExecPolicy::Sequential,
            ExecPolicy::Threads(4),
            ExecPolicy::cost_driven(),
        ] {
            let got: Vec<Vec<u64>> = windowed_histogram_stream(
                bs.iter().cloned(),
                5,
                16,
                4,
                StreamPolicy::new(Machine::ap1000(4)).with_exec(exec),
            )
            .collect();
            assert_eq!(got, expect, "{exec:?}");
        }
    }

    #[test]
    fn window_wider_than_stream_accumulates_everything() {
        let bs = batches(4, 200, 11);
        let got = windowed_histogram_stream(
            bs.iter().cloned(),
            100,
            8,
            2,
            StreamPolicy::new(Machine::ap1000(2)),
        )
        .last();
        // last output covers every batch
        let all: Vec<u64> = bs.concat();
        assert_eq!(got.unwrap(), histogram_seq(&all, 8));
    }

    #[test]
    fn counts_in_each_window_sum_to_window_sizes() {
        let bs = batches(10, 123, 5);
        let got = windowed_histogram_stream(
            bs.iter().cloned(),
            3,
            32,
            4,
            StreamPolicy::new(Machine::ap1000(4)).with_exec(ExecPolicy::Threads(2)),
        );
        for (i, h) in got.enumerate() {
            let covered = (i + 1).min(3) * 123;
            assert_eq!(h.iter().sum::<u64>(), covered as u64, "window {i}");
        }
    }
}
