//! One thread set: a service churning many plans through a small cache
//! holds the widest farm's worth of `scl-exec` workers, however many
//! graphs it builds and evicts. Farm lanes are served by jobs on the one
//! shared pool; a graph owns no thread, so building one spawns none and
//! evicting one joins none.
//!
//! This file is its own test binary, so the process-wide worker gauge
//! counts this service's workers and nothing else.

use scl_core::{ParArray, Scl, Skel};
use scl_exec::{ExecPolicy, ThreadPool};
use scl_machine::{CostModel, Machine, Topology};
use scl_serve::{Serve, ServePolicy};

const KEYS: i64 = 48;
const CACHE: usize = 32;
const PARTS: usize = 8;

fn machine() -> Machine {
    Machine::new(Topology::FullyConnected { procs: PARTS }, CostModel::unit())
}

/// Plan `k`: maps between four rotates — four farm stages under a
/// threaded policy — with `k` folded into the first map, so every key is
/// a different plan.
fn plan(k: i64) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    Skel::map(move |x: &i64| x + k)
        .then(Skel::rotate(1))
        .then(Skel::map(|x: &i64| x * 3))
        .then(Skel::rotate(-1))
        .then(Skel::map(|x: &i64| x - 1))
        .then(Skel::rotate(2))
        .then(Skel::map(|x: &i64| x ^ 5))
        .then(Skel::rotate(-2))
        .then(Skel::map(|x: &i64| x + 7))
}

fn input(k: i64) -> ParArray<i64> {
    ParArray::from_parts((k..k + PARTS as i64).collect())
}

#[test]
fn churning_plans_hold_the_widest_farm_of_workers() {
    for exec in [
        ExecPolicy::Threads(2),
        ExecPolicy::CostDriven { threads: 2 },
    ] {
        let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
            ServePolicy::new(machine())
                .with_exec(exec)
                .with_plan_cache_cap(CACHE),
        );
        let t = srv.add_tenant("churn");
        for round in 1..=3 {
            for k in 0..KEYS {
                // two requests per visit: a batch of two goes through the
                // farms' lanes, where a lone request would run on this
                // thread and never touch the pool
                let tickets: Vec<_> = [k, k + 1]
                    .map(|x| {
                        srv.submit_keyed(t, &format!("plan-{k}"), plan(k), input(x))
                            .unwrap()
                    })
                    .to_vec();
                srv.run_until_idle();
                for (x, ticket) in [k, k + 1].into_iter().zip(tickets) {
                    let (out, _) = srv.take(ticket).unwrap();
                    let mut scl = Scl::new(machine());
                    assert_eq!(out, plan(k).run(&mut scl, input(x)), "{exec:?} key {k}");
                }
            }
            if round == 1 || round == 3 {
                let workers = ThreadPool::live_workers();
                assert!(
                    (1..=2).contains(&workers),
                    "{exec:?} round {round}: {workers} scl-exec workers alive, \
                     want the widest farm's 2 (and at least one job run)"
                );
            }
        }
        // 48 keys cycling through 32 entries: every request missed, so
        // the service built 144 graphs and evicted 112
        assert_eq!(srv.stats().cache_misses, 3 * KEYS as u64, "{exec:?}");
        assert_eq!(srv.stats().evictions, 3 * KEYS as u64 - CACHE as u64);
    }
}
