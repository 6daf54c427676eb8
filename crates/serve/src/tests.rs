//! Unit tests for the service mechanics (cache, batching, scheduler
//! wiring, accounting isolation). The heavyweight differential suite —
//! N tenants through `Serve` == N solo runs, outputs and reports
//! bit-for-bit, across policies and app plans — lives in the workspace's
//! `tests/serve_vs_solo.rs`.

use super::*;
use scl_core::{ParArray, Scl};
use scl_machine::Work;
use scl_machine::{CostModel, Topology};

fn unit_machine(n: usize) -> Machine {
    Machine::new(Topology::FullyConnected { procs: n }, CostModel::unit())
}

fn arr(k: i64) -> ParArray<i64> {
    ParArray::from_parts((k..k + 4).collect())
}

fn mixed_plan() -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    Skel::map(|x: &i64| x * 3)
        .then(Skel::rotate(1))
        .then(Skel::map_costed(|x: &i64| (x + 1, Work::flops(1))))
}

fn serve(exec: ExecPolicy) -> Serve<ParArray<i64>, ParArray<i64>> {
    Serve::new(ServePolicy::new(unit_machine(4)).with_exec(exec))
}

#[test]
fn same_plan_compiles_once_and_answers_match_solo() {
    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    let tickets: Vec<Ticket> = (0..10)
        .map(|k| srv.submit(t, mixed_plan(), arr(k)).unwrap())
        .collect();
    assert_eq!(srv.cached_plans(), 1, "ten submissions, one graph");
    assert_eq!(srv.stats().cache_misses, 1);
    assert_eq!(srv.stats().cache_hits, 9);
    srv.run_until_idle();

    let solo_plan = mixed_plan();
    let mut scl = Scl::new(unit_machine(4));
    for (k, ticket) in tickets.into_iter().enumerate() {
        let (out, report) = srv.take(ticket).unwrap();
        scl.reset();
        let expect = solo_plan.run(&mut scl, arr(k as i64));
        assert_eq!(out, expect, "request {k}");
        assert_eq!(report, scl.machine.report(), "request {k}");
    }
    assert_eq!(srv.tenant_served(t), 10);
    assert_eq!(srv.tenant_pending(t), 0);
}

#[test]
fn barrier_parameters_split_the_cache_without_keys() {
    // regression (code review): with an opaque map ahead of the barrier,
    // rotate(1) and rotate(2) used to collide on one cache entry and the
    // second tenant silently received the first plan's answers
    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    let p1 = Skel::map(|x: &i64| x + 1).then(Skel::rotate(1));
    let p2 = Skel::map(|x: &i64| x + 1).then(Skel::rotate(2));
    let a = srv.submit(t, p1, arr(0)).unwrap();
    let b = srv.submit(t, p2, arr(0)).unwrap();
    assert_eq!(srv.cached_plans(), 2, "distinct rotations, distinct graphs");
    srv.run_until_idle();
    assert_eq!(srv.take(a).unwrap().0.to_vec(), vec![2, 3, 4, 1]);
    assert_eq!(srv.take(b).unwrap().0.to_vec(), vec![3, 4, 1, 2]);
}

#[test]
fn submit_keyed_separates_structural_twins() {
    // structurally identical plans with different closure semantics MUST
    // be kept apart by the caller's key — this is the documented contract
    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    let double = Skel::map(|x: &i64| x * 2);
    let triple = Skel::map(|x: &i64| x * 3);
    let a = srv.submit_keyed(t, "double", double, arr(0)).unwrap();
    let b = srv.submit_keyed(t, "triple", triple, arr(0)).unwrap();
    assert_eq!(srv.cached_plans(), 2, "keys split the cache entries");
    srv.run_until_idle();
    assert_eq!(srv.take(a).unwrap().0.to_vec(), vec![0, 2, 4, 6]);
    assert_eq!(srv.take(b).unwrap().0.to_vec(), vec![0, 3, 6, 9]);
}

#[test]
fn barrier_plans_cache_by_label_and_salt() {
    // a barrier's cache identity is its label: two closures under one
    // label share a graph (the first one's), and only a key splits them
    let pass = || Skel::barrier("b", |_: &mut Scl, a: ParArray<i64>| a);
    let rot = || {
        Skel::barrier("b", |scl: &mut Scl, a: ParArray<i64>| {
            scl.rotate_owned(1, a)
        })
    };
    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    let a = srv.submit(t, pass(), arr(0)).unwrap();
    let b = srv.submit(t, rot(), arr(0)).unwrap();
    assert_eq!(srv.cached_plans(), 1, "one label, one graph");
    assert_eq!(srv.stats().cache_misses, 1);
    srv.run_until_idle();
    assert_eq!(srv.take(a).unwrap().0, srv.take(b).unwrap().0);

    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    let a = srv.submit_keyed(t, "pass", pass(), arr(0)).unwrap();
    let b = srv.submit_keyed(t, "rot", rot(), arr(0)).unwrap();
    assert_eq!(srv.cached_plans(), 2, "keys split the cache entries");
    srv.run_until_idle();
    assert_eq!(srv.take(a).unwrap().0.to_vec(), vec![0, 1, 2, 3]);
    assert_eq!(srv.take(b).unwrap().0.to_vec(), vec![1, 2, 3, 0]);
}

#[test]
fn batch_window_bounds_each_round() {
    let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
        ServePolicy::new(unit_machine(4))
            .with_exec(ExecPolicy::Sequential)
            .with_batch_window(4),
    );
    let t = srv.add_tenant("t");
    for k in 0..10 {
        srv.submit(t, mixed_plan(), arr(k)).unwrap();
    }
    assert_eq!(srv.step(), 4, "first round serves one window");
    assert_eq!(srv.pending_requests(), 6);
    assert_eq!(srv.step(), 4);
    assert_eq!(srv.step(), 2, "last round serves the remainder");
    assert_eq!(srv.stats().batches, 3);
}

#[test]
fn oversized_inputs_are_rejected_at_submit() {
    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    let err = srv
        .submit(t, mixed_plan(), ParArray::from_parts((0..9).collect()))
        .unwrap_err();
    assert_eq!(
        err,
        SclError::MachineTooSmall {
            needed: 9,
            procs: 4
        }
    );
    assert_eq!(srv.stats().requests, 0, "rejected requests never count");
    assert_eq!(srv.pending_requests(), 0);
}

#[test]
fn lru_eviction_keeps_the_cache_at_cap() {
    let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
        ServePolicy::new(unit_machine(4))
            .with_exec(ExecPolicy::Sequential)
            .with_plan_cache_cap(2),
    );
    let t = srv.add_tenant("t");
    // three distinct plans (distinct keys), interleaved with service
    for (i, key) in ["a", "b", "c"].iter().enumerate() {
        srv.submit_keyed(t, key, mixed_plan(), arr(i as i64))
            .unwrap();
        srv.run_until_idle();
    }
    assert_eq!(srv.cached_plans(), 2, "cap holds");
    assert_eq!(srv.stats().evictions, 1, "oldest idle entry evicted");
    // resubmitting the evicted plan recompiles: 3 initial misses + 1
    srv.submit_keyed(t, "a", mixed_plan(), arr(9)).unwrap();
    srv.run_until_idle();
    assert_eq!(srv.stats().cache_misses, 4);
}

#[test]
fn cache_cap_zero_recompiles_every_submission() {
    let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
        ServePolicy::new(unit_machine(4))
            .with_exec(ExecPolicy::Sequential)
            .with_plan_cache_cap(0),
    );
    let t = srv.add_tenant("t");
    for k in 0..3 {
        srv.submit(t, mixed_plan(), arr(k)).unwrap();
        srv.run_until_idle();
    }
    assert_eq!(srv.stats().cache_misses, 3, "cold path: compile per call");
    assert_eq!(srv.cached_plans(), 0);
}

#[test]
fn shares_follow_weights_and_activity() {
    let mut srv: Serve<ParArray<i64>, ParArray<i64>> =
        Serve::new(ServePolicy::new(unit_machine(4)).with_exec(ExecPolicy::Threads(8)));
    let a = srv.add_tenant("a");
    let b = srv.add_tenant_weighted("b", 3);
    assert!(srv.shares().is_empty(), "no pending work, no shares");

    srv.submit(a, mixed_plan(), arr(0)).unwrap();
    assert_eq!(srv.shares(), vec![(a, 8)], "sole active tenant takes all");

    srv.submit(b, mixed_plan(), arr(1)).unwrap();
    let shares: std::collections::HashMap<TenantId, usize> = srv.shares().into_iter().collect();
    assert_eq!(shares[&a], 2);
    assert_eq!(shares[&b], 6, "weight 3 takes 3x the share");

    srv.run_until_idle();
    assert!(srv.shares().is_empty(), "finished tenants leave the split");
}

#[test]
fn reports_isolate_tenants_from_each_other() {
    // two tenants share one compiled graph; each request's report must be
    // exactly a solo run's — tenant b's heavier traffic must not leak
    // into tenant a's accounting
    let mut srv = serve(ExecPolicy::Sequential);
    let a = srv.add_tenant("a");
    let b = srv.add_tenant("b");
    let ta = srv.submit(a, mixed_plan(), arr(0)).unwrap();
    let tb: Vec<Ticket> = (1..6)
        .map(|k| srv.submit(b, mixed_plan(), arr(k)).unwrap())
        .collect();
    srv.run_until_idle();

    let solo = mixed_plan();
    let mut scl = Scl::new(unit_machine(4));
    let (_, report_a) = srv.take(ta).unwrap();
    let expect_a = {
        scl.reset();
        let _ = solo.run(&mut scl, arr(0));
        scl.machine.report()
    };
    assert_eq!(report_a, expect_a, "tenant a's report is solo-identical");
    for (i, tk) in tb.into_iter().enumerate() {
        let (_, report) = srv.take(tk).unwrap();
        scl.reset();
        let _ = solo.run(&mut scl, arr(i as i64 + 1));
        assert_eq!(report, scl.machine.report(), "tenant b request {i}");
    }
}

#[test]
fn optimized_submissions_cache_the_raised_plan() {
    let reg: &'static Registry = Box::leak(Box::new(Registry::standard()));
    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    let plan = || {
        Skel::map_sym("double", reg)
            .then(Skel::rotate(3))
            .then(Skel::rotate(-3))
            .then(Skel::map_sym("inc", reg))
    };
    let tickets: Vec<Ticket> = (0..6)
        .map(|k| srv.submit_optimized(t, "", &plan(), reg, arr(k)).unwrap())
        .collect();
    assert_eq!(srv.stats().cache_misses, 1, "optimize+raise+compile once");
    assert_eq!(srv.stats().cache_hits, 5);
    srv.run_until_idle();

    let solo = plan();
    for (k, ticket) in tickets.into_iter().enumerate() {
        let (out, report) = srv.take(ticket).unwrap();
        let mut scl = Scl::new(unit_machine(4));
        let (expect, log) = scl.run_optimized(&solo, reg, arr(k as i64));
        assert!(!log.is_empty(), "rotations cancel, maps fuse");
        assert_eq!(out, expect, "request {k}");
        assert_eq!(report, scl.machine.report(), "request {k}");
    }
}

#[test]
fn optimized_and_plain_submissions_never_share_a_graph() {
    let reg: &'static Registry = Box::leak(Box::new(Registry::standard()));
    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    let plan = || Skel::map_sym("inc", reg).then(Skel::rotate(1));
    let p = srv.submit(t, plan(), arr(0)).unwrap();
    let o = srv.submit_optimized(t, "", &plan(), reg, arr(0)).unwrap();
    assert_eq!(srv.cached_plans(), 2, "modes salt the fingerprint apart");
    srv.run_until_idle();
    // same program, same answer, different execution paths
    assert_eq!(srv.take(p).unwrap().0, srv.take(o).unwrap().0);
}

#[test]
fn non_lowerable_optimized_submissions_are_rejected() {
    let reg: &'static Registry = Box::leak(Box::new(Registry::standard()));
    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    let closure = Skel::map(|x: &i64| x * 7); // no IR: nothing to optimise
    let err = srv
        .submit_optimized(t, "", &closure, reg, arr(1))
        .unwrap_err();
    assert_eq!(err, SclError::NotLowerable);
    assert_eq!(srv.stats().requests, 0, "rejected requests never count");
    assert_eq!(srv.tenant_pending(t), 0);
    assert_eq!(srv.cached_plans(), 0);
}

#[test]
fn threaded_service_matches_sequential_answers() {
    let mk = |exec| {
        let mut srv = serve(exec);
        let t = srv.add_tenant("t");
        let tickets: Vec<Ticket> = (0..20)
            .map(|k| srv.submit(t, mixed_plan(), arr(k)).unwrap())
            .collect();
        srv.run_until_idle();
        tickets
            .into_iter()
            .map(|tk| srv.take(tk).unwrap())
            .collect::<Vec<_>>()
    };
    let seq = mk(ExecPolicy::Sequential);
    let thr = mk(ExecPolicy::Threads(3));
    let cost = mk(ExecPolicy::cost_driven());
    for (k, ((s, sr), (t, tr))) in seq.iter().zip(&thr).enumerate() {
        assert_eq!(s, t, "request {k}");
        assert_eq!(sr, tr, "request {k} report");
    }
    for (k, ((s, sr), (c, cr))) in seq.iter().zip(&cost).enumerate() {
        assert_eq!(s, c, "request {k}");
        assert_eq!(sr, cr, "request {k} report");
    }
}

#[test]
fn panicking_plan_fails_only_its_batch_with_a_typed_error() {
    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    // one healthy plan and one that panics on a specific input, in the
    // same service round
    let healthy = srv.submit(t, mixed_plan(), arr(0)).unwrap();
    let bomb = Skel::map(|x: &i64| if *x == 42 { panic!("boom") } else { *x });
    let doomed = srv
        .submit_keyed(
            t,
            "bomb",
            bomb,
            ParArray::from_parts(vec![41i64, 42, 43, 44]),
        )
        .unwrap();

    // the round never unwinds: the crashing plan resolves its own ticket
    // to a typed error, the healthy request delivers normally
    srv.run_until_idle();
    assert!(srv.is_ready(healthy), "healthy batch still delivered");
    assert!(srv.is_ready(doomed), "failed ticket resolves, not leaks");
    match srv.outcome(doomed).unwrap() {
        Err(RequestError::StagePanic {
            stage,
            part,
            message,
        }) => {
            assert_eq!(stage, "map");
            assert_eq!(part, 1, "the 42 sits in part 1");
            assert_eq!(message, "boom");
        }
        other => panic!("expected a typed stage panic, got {other:?}"),
    }
    assert_eq!(srv.stats().failed, 1);
    assert_eq!(srv.stats().panics, 1);
    assert_eq!(srv.tenant_failed(t), 1);
    assert_eq!(srv.tenant_pending(t), 0, "no leaked pending counts");
    assert_eq!(srv.pending_requests(), 0);

    // the crashed graph is torn down (its entry stays, graphless) and
    // the service keeps serving
    assert_eq!(srv.cached_plans(), 1, "only the healthy graph stays live");
    let after = srv.submit(t, mixed_plan(), arr(5)).unwrap();
    srv.run_until_idle();
    assert!(srv.is_ready(after));
    let mut scl = Scl::new(unit_machine(4));
    assert_eq!(
        srv.take(after).unwrap().0,
        mixed_plan().run(&mut scl, arr(5))
    );
}

#[test]
fn crashed_plan_fails_queued_requests_beyond_the_batch() {
    // window 1: the second request is still queued when the first one's
    // batch crashes — it must fail with the plan (same typed error), not
    // leak as forever-pending
    let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
        ServePolicy::new(unit_machine(4))
            .with_exec(ExecPolicy::Sequential)
            .with_batch_window(1),
    );
    let t = srv.add_tenant("t");
    let bomb = || Skel::map(|x: &i64| if *x >= 0 { panic!("boom") } else { *x });
    let first = srv.submit(t, bomb(), arr(0)).unwrap();
    let queued = srv.submit(t, bomb(), arr(1)).unwrap();
    assert_eq!(srv.pending_requests(), 2);

    srv.step();
    assert!(matches!(
        srv.outcome(first),
        Some(Err(RequestError::StagePanic { .. }))
    ));
    assert!(
        matches!(
            srv.outcome(queued),
            Some(Err(RequestError::StagePanic { .. }))
        ),
        "queued request fails with the plan"
    );
    assert_eq!(srv.stats().failed, 2);
    assert_eq!(srv.stats().panics, 2);
    assert_eq!(srv.tenant_pending(t), 0, "no leaked pending counts");
    assert_eq!(srv.pending_requests(), 0);
    assert_eq!(srv.cached_plans(), 0, "the crashed graph is torn down");
}

#[test]
fn crashed_plan_rebuilds_on_next_submission() {
    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    // panics only on inputs containing 42: the resubmission (structurally
    // equal, healthy input) must succeed through a rebuilt graph
    let flaky = || Skel::map(|x: &i64| if *x == 42 { panic!("boom") } else { x * 2 });
    let doomed = srv
        .submit(t, flaky(), ParArray::from_parts(vec![41i64, 42, 43, 44]))
        .unwrap();
    srv.run_until_idle();
    assert!(matches!(
        srv.outcome(doomed),
        Some(Err(RequestError::StagePanic { .. }))
    ));
    assert_eq!(srv.cached_plans(), 0, "torn down");

    let retry = srv.submit(t, flaky(), arr(0)).unwrap();
    assert_eq!(srv.stats().rebuilds, 1, "the hit rebuilt the graph");
    assert_eq!(srv.cached_plans(), 1);
    srv.run_until_idle();
    let (out, _) = srv.take(retry).unwrap();
    assert_eq!(out.to_vec(), vec![0, 2, 4, 6]);
    assert_eq!(srv.stats().quarantines, 0, "a success resets the count");
}

#[test]
fn repeated_crashes_quarantine_the_plan_until_eviction() {
    let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
        ServePolicy::new(unit_machine(4))
            .with_exec(ExecPolicy::Sequential)
            .with_quarantine_after(2)
            .with_plan_cache_cap(1),
    );
    let t = srv.add_tenant("t");
    let bomb = || Skel::map(|x: &i64| if *x >= 0 { panic!("boom") } else { *x });

    // two consecutive crashed batches hit the limit
    for _ in 0..2 {
        let tk = srv.submit(t, bomb(), arr(0)).unwrap();
        srv.run_until_idle();
        assert!(matches!(
            srv.outcome(tk),
            Some(Err(RequestError::StagePanic { .. }))
        ));
    }
    assert_eq!(srv.stats().quarantines, 1);
    assert_eq!(srv.quarantined_plans(), 1);

    // further submissions fail fast without compiling or running
    let rejected = srv.submit(t, bomb(), arr(0)).unwrap();
    assert!(
        matches!(
            srv.outcome(rejected),
            Some(Err(RequestError::Quarantined { crashes: 2 }))
        ),
        "quarantined plans reject at submit"
    );
    assert_eq!(srv.stats().rebuilds, 1, "only the pre-quarantine rebuild");
    assert_eq!(srv.pending_requests(), 0);

    // eviction pardons: a second plan pushes the quarantined one out of
    // the one-entry cache, and the next submission recompiles from scratch
    let other = srv
        .submit_keyed(t, "other", Skel::map(|x: &i64| x + 1), arr(0))
        .unwrap();
    srv.run_until_idle();
    assert!(srv.take(other).is_some());
    assert_eq!(srv.stats().evictions, 1, "LRU evicted the quarantined plan");
    assert_eq!(srv.quarantined_plans(), 0);
    let pardoned = srv
        .submit(
            t,
            Skel::map(|x: &i64| if *x > 100 { panic!() } else { *x }),
            arr(0),
        )
        .unwrap();
    srv.run_until_idle();
    assert!(srv.take(pardoned).is_some());
}

#[test]
fn panicking_eager_fallback_settles_accounting() {
    // a host barrier that panics must not leak a forever-pending ticket
    // (which would dilute every future fair-share split) — and must not
    // unwind through submit or the service round
    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    let bomb = Skel::barrier("bomb", |_: &mut Scl, _: ParArray<i64>| -> ParArray<i64> {
        panic!("boom")
    });
    let tk = srv.submit(t, bomb, arr(0)).unwrap();
    srv.run_until_idle();
    match srv.outcome(tk).unwrap() {
        Err(RequestError::BarrierPanic { stage, message }) => {
            assert_eq!(stage, "bomb");
            assert_eq!(message, "boom");
        }
        other => panic!("expected a typed barrier panic, got {other:?}"),
    }
    assert_eq!(srv.tenant_pending(t), 0, "no leaked pending count");
    assert_eq!(srv.stats().failed, 1);
    assert_eq!(srv.stats().completed, 0, "failed runs are not served runs");
    assert!(srv.shares().is_empty(), "tenant no longer counts as active");
    // the service keeps serving
    let ok = srv.submit(t, mixed_plan(), arr(1)).unwrap();
    srv.run_until_idle();
    assert!(srv.is_ready(ok));
}

#[test]
fn expired_deadlines_shed_queued_work_and_short_circuit() {
    let mut srv = serve(ExecPolicy::Sequential);
    let t = srv.add_tenant("t");
    let past = std::time::Instant::now() - std::time::Duration::from_millis(1);
    let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);

    // an already-expired cached-path request fails typed, without running
    let dead = srv
        .submit_keyed_deadline(t, "", mixed_plan(), arr(0), Some(past))
        .unwrap();
    // a far-future deadline behaves exactly like no deadline
    let alive = srv
        .submit_keyed_deadline(t, "", mixed_plan(), arr(1), Some(far))
        .unwrap();
    srv.run_until_idle();
    assert!(matches!(
        srv.outcome(dead),
        Some(Err(RequestError::DeadlineExceeded))
    ));
    let mut scl = Scl::new(unit_machine(4));
    assert_eq!(
        srv.take(alive).unwrap().0,
        mixed_plan().run(&mut scl, arr(1))
    );
    assert_eq!(srv.stats().deadline_expired, 1);
    assert_eq!(srv.stats().panics, 0, "expiry is not a crash");
    assert_eq!(srv.cached_plans(), 1, "no teardown on expiry");

    // a plan with a host barrier honours the same contract
    let hosted = Skel::barrier("host", |scl: &mut Scl, a: ParArray<i64>| scl.rotate(1, &a));
    let dead_hosted = srv
        .submit_keyed_deadline(t, "", hosted, arr(0), Some(past))
        .unwrap();
    srv.run_until_idle();
    assert!(matches!(
        srv.outcome(dead_hosted),
        Some(Err(RequestError::DeadlineExceeded))
    ));
    assert_eq!(srv.tenant_pending(t), 0);
}

#[test]
#[should_panic(expected = "unregistered tenant")]
fn unknown_tenants_are_rejected() {
    let mut srv = serve(ExecPolicy::Sequential);
    let _ = srv.submit(TenantId(3), mixed_plan(), arr(0));
}

#[test]
fn lru_eviction_waits_for_queued_work_to_drain() {
    // cap 0 evicts every idle entry at the end of a round; window 1 leaves
    // the second request queued after the first round
    let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
        ServePolicy::new(unit_machine(4))
            .with_exec(ExecPolicy::Sequential)
            .with_plan_cache_cap(0)
            .with_batch_window(1),
    );
    let t = srv.add_tenant("t");
    let double = || Skel::map(|x: &i64| x * 2);
    let first = srv.submit_keyed(t, "busy", double(), arr(1)).unwrap();
    let second = srv.submit_keyed(t, "busy", double(), arr(2)).unwrap();

    assert_eq!(srv.step(), 1);
    assert_eq!(srv.take(first).unwrap().0.to_vec(), vec![2, 4, 6, 8]);
    assert_eq!(srv.pending_requests(), 1);
    assert_eq!(srv.cached_plans(), 1, "an entry with queued work survives");
    assert_eq!(srv.stats().evictions, 0);

    assert_eq!(srv.step(), 1);
    assert_eq!(srv.take(second).unwrap().0.to_vec(), vec![4, 6, 8, 10]);
    assert_eq!(srv.cached_plans(), 0, "drained, the entry is evicted");
    assert_eq!(srv.stats().evictions, 1);

    // a re-submission of the evicted key recompiles: observable as a miss
    let (h0, m0) = (srv.stats().cache_hits, srv.stats().cache_misses);
    let again = srv.submit_keyed(t, "busy", double(), arr(0)).unwrap();
    assert_eq!(
        srv.stats().cache_misses,
        m0 + 1,
        "eviction forced a rebuild"
    );
    assert_eq!(srv.stats().cache_hits, h0);
    srv.run_until_idle();
    assert_eq!(srv.take(again).unwrap().0.to_vec(), vec![0, 2, 4, 6]);
}

/// Six graphs × 40 requests a round under a 64-request window at two
/// threads: phase 1 of every step pushes all six batches, so one graph's
/// lanes fill their outputs while the drain is still busy with another.
/// A job that waited for output room there would hold a pool worker
/// until the drain reached its graph — and with both workers so held,
/// the graph being drained could never run. Jobs return instead; the
/// watchdog turns a hang into a failure.
#[test]
fn six_graphs_drain_with_jobs_that_never_block() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
            ServePolicy::new(unit_machine(4))
                .with_exec(ExecPolicy::Threads(2))
                .with_batch_window(64),
        );
        let t = srv.add_tenant("t");
        let solo = mixed_plan();
        let mut scl = Scl::new(unit_machine(4));
        for round in 0..20 {
            let mut tickets = Vec::new();
            for g in 0..6 {
                for k in 0..40 {
                    let ticket = srv
                        .submit_keyed(t, &format!("graph-{g}"), mixed_plan(), arr(k))
                        .unwrap();
                    tickets.push((k, ticket));
                }
            }
            srv.run_until_idle();
            for (k, ticket) in tickets {
                scl.reset();
                let expect = solo.run(&mut scl, arr(k));
                assert_eq!(srv.take(ticket).unwrap().0, expect, "round {round}");
            }
        }
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("six graphs still draining after 30 s: a job blocked the pool");
}
