//! The shard scheduler's apportionment rule: split the host's threads
//! into weighted fair shares over the currently active tenants.
//!
//! The rule is largest-remainder (Hamilton) apportionment with a
//! one-thread floor:
//!
//! 1. every active tenant's ideal share is `budget · wᵢ / Σw`;
//! 2. each receives the floor of its ideal share, raised to at least 1
//!    (admission beats strict proportionality: a tenant with a pending
//!    request is never starved outright);
//! 3. leftover threads go to the largest fractional remainders, ties
//!    broken by tenant id for determinism.
//!
//! Because of the one-thread floor the shares may *sum above* the budget
//! whenever any tenant's proportional share rounds to zero — active
//! tenants outnumbering threads, or heavily skewed weights (budget 4 over
//! weights 100:1 yields shares 4 and 1). A share caps how many farm lanes
//! one graph routes to; what actually runs at once is bounded by the
//! shared `scl-exec` pool, which holds the widest farm's worth of workers
//! whatever the shares add up to.

use crate::TenantId;

/// Split `budget` threads across `weights` (active tenants and their
/// weights) by largest-remainder apportionment with a one-thread floor
/// (see this module's docs above). Returns one `(tenant, share)` per input
/// tenant, in input order. Empty input yields an empty split.
pub fn fair_shares(budget: usize, weights: &[(TenantId, u32)]) -> Vec<(TenantId, usize)> {
    if weights.is_empty() {
        return Vec::new();
    }
    let budget = budget.max(1);
    let total_w: u64 = weights.iter().map(|(_, w)| u64::from((*w).max(1))).sum();
    // base shares and fractional remainders (scaled by total_w)
    let mut out: Vec<(TenantId, usize)> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(u64, TenantId, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0usize;
    for (idx, (t, w)) in weights.iter().enumerate() {
        let ideal_num = budget as u64 * u64::from((*w).max(1));
        let base = (ideal_num / total_w) as usize;
        let rem = ideal_num % total_w;
        assigned += base;
        out.push((*t, base));
        remainders.push((rem, *t, idx));
    }
    // distribute the leftover to the largest remainders, ties by id
    let mut leftover = budget.saturating_sub(assigned);
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for (_, _, idx) in remainders {
        if leftover == 0 {
            break;
        }
        out[idx].1 += 1;
        leftover -= 1;
    }
    // the admission floor, applied last so it never eats the leftover
    for share in &mut out {
        share.1 = share.1.max(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TenantId {
        TenantId(i)
    }

    fn shares(budget: usize, ws: &[u32]) -> Vec<usize> {
        let weights: Vec<(TenantId, u32)> =
            ws.iter().enumerate().map(|(i, &w)| (t(i), w)).collect();
        fair_shares(budget, &weights)
            .into_iter()
            .map(|(_, s)| s)
            .collect()
    }

    #[test]
    fn equal_weights_split_evenly() {
        assert_eq!(shares(8, &[1, 1]), vec![4, 4]);
        assert_eq!(shares(8, &[1, 1, 1, 1]), vec![2, 2, 2, 2]);
        assert_eq!(shares(1, &[1]), vec![1]);
    }

    #[test]
    fn weights_scale_shares() {
        assert_eq!(shares(8, &[3, 1]), vec![6, 2]);
        assert_eq!(shares(4, &[1, 3]), vec![1, 3]);
    }

    #[test]
    fn leftovers_go_to_largest_remainders_deterministically() {
        // 7 across three equal tenants: 2+2+2 base, one leftover → equal
        // remainders, tie broken toward the lowest id
        assert_eq!(shares(7, &[1, 1, 1]), vec![3, 2, 2]);
        // 10 across 1:1:2 → ideals 2.5, 2.5, 5 → the two halves tie,
        // lowest id takes the leftover (and the total is exact)
        let s = shares(10, &[1, 1, 2]);
        assert_eq!(s.iter().sum::<usize>(), 10);
        assert_eq!(s, vec![3, 2, 5]);
    }

    #[test]
    fn floor_admits_everyone_even_when_oversubscribed() {
        // 2 threads, 5 active tenants: everyone still gets 1
        let s = shares(2, &[1, 1, 1, 1, 1]);
        assert!(s.iter().all(|&x| x >= 1), "{s:?}");
        // a heavy weight cannot starve a light one
        let s = shares(4, &[100, 1]);
        assert_eq!(s, vec![4, 1].into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn exact_budgets_are_fully_distributed() {
        for budget in 1..=16 {
            for ws in [vec![1u32, 1], vec![2, 3, 5], vec![1, 1, 1, 1]] {
                let s = shares(budget, &ws);
                let total: usize = s.iter().sum();
                // with enough threads for a floor each, the split is exact
                if budget >= ws.len() {
                    assert_eq!(total, budget, "budget={budget} ws={ws:?} s={s:?}");
                }
            }
        }
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        assert!(fair_shares(8, &[]).is_empty());
        // zero weights are treated as 1
        assert_eq!(shares(4, &[0, 0]), vec![2, 2]);
        // zero budget is raised to 1; the floor still admits both
        let s = shares(0, &[1, 1]);
        assert!(s.iter().all(|&x| x >= 1));
    }

    #[test]
    fn floor_tenants_keep_their_thread_under_churn() {
        // regression: a lightweight tenant whose proportional share rounds
        // to zero must hold its 1-thread floor no matter how the rest of
        // the active set churns (joins, leaves, weight bumps, budget
        // resizes). Model churn as a random walk and pin the invariants
        // every step.
        scl_testkit::cases(200, 0x5c1_5eed, |rng| {
            let mut weights: Vec<(TenantId, u32)> = vec![(t(0), 1)];
            let mut next_id = 1usize;
            let mut budget = rng.range_usize(1, 16);
            for _ in 0..rng.range_usize(5, 30) {
                match rng.below(4) {
                    0 if weights.len() < 12 => {
                        // a heavy tenant joins and skews the ideals
                        weights.push((t(next_id), rng.range_usize(1, 1000) as u32));
                        next_id += 1;
                    }
                    1 if weights.len() > 1 => {
                        // churn out anyone but the floor-bound tenant 0
                        let gone = rng.range_usize(1, weights.len());
                        weights.remove(gone);
                    }
                    2 => {
                        let i = rng.range_usize(0, weights.len());
                        weights[i].1 = rng.range_usize(0, 1000) as u32;
                    }
                    _ => budget = rng.range_usize(1, 16),
                }
                let s = fair_shares(budget, &weights);
                assert_eq!(s.len(), weights.len());
                // every active tenant is admitted — the floor holds
                assert!(
                    s.iter().all(|&(_, sh)| sh >= 1),
                    "budget={budget} weights={weights:?} shares={s:?}"
                );
                // the floor only ever pushes the total above budget by
                // the number of rounded-to-zero tenants; it never grants
                // anyone beyond the whole budget
                assert!(
                    s.iter().all(|&(_, sh)| sh <= budget.max(1)),
                    "budget={budget} weights={weights:?} shares={s:?}"
                );
                let total: usize = s.iter().map(|&(_, sh)| sh).sum();
                assert!(
                    total >= budget.max(1).min(weights.len())
                        && total <= budget.max(1) + weights.len(),
                    "budget={budget} total={total} weights={weights:?}"
                );
                // shares are reported in input order for the input tenants
                for (got, want) in s.iter().zip(weights.iter()) {
                    assert_eq!(got.0, want.0);
                }
                // determinism: the same inputs always split the same way
                assert_eq!(s, fair_shares(budget, &weights));
            }
        });
    }

    #[test]
    fn floored_tenant_never_silently_loses_its_share_to_a_heavyweight() {
        // budget 4, weights 100:1 → 4 and the floor's 1; the heavyweight's
        // share is uncut (the shared pool's size bounds what runs instead)
        assert_eq!(shares(4, &[100, 1]), vec![4, 1]);
        // ... and the same holds as more floor-bound tenants pile in
        assert_eq!(shares(4, &[100, 1, 1, 1]), vec![4, 1, 1, 1]);
    }
}
