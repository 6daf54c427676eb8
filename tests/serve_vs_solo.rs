//! Differential suite for the multi-tenant plan service: N concurrent
//! tenants submitting through `scl-serve` must produce outputs **and**
//! per-request `MachineReport`s identical to N solo `Skel::run` (or, for
//! optimized submissions, `Scl::run_optimized`) calls — under sequential,
//! threaded, and cost-driven policies, for randomized plans and for the
//! app plans (PSRS, histogram, batch histogram, Jacobi). Plus the cache
//! contract: the plan-cache hit path produces results identical to the
//! cold compile-per-request path.
//!
//! The CI harness pins the policy set through `SCL_EXEC_POLICY`
//! (`seq` / `auto` / `cost`); unset, every policy runs in-process.

#![allow(clippy::explicit_auto_deref)] // clippy's suggestion breaks inference on pick()
use scl::prelude::*;
use scl_apps::histogram::{histogram_plan, histogram_seq};
use scl_apps::jacobi::{jacobi_plan, JacobiState};
use scl_apps::psrs::psrs_plan;
use scl_apps::stream_histogram::batch_histogram_plan;
use scl_apps::workloads::uniform_keys;
use scl_core::{block_ranges, ParArray};
use scl_machine::MachineReport;
use scl_serve::{Serve, ServePolicy, TenantId, Ticket};
use scl_testkit::dag::{arb_dag, DagStats};
use scl_testkit::{cases, Rng};
use std::sync::OnceLock;

const SCALARS: &[&str] = &["inc", "dec", "double", "square", "neg", "halve", "heavy"];
const IDXFNS: &[&str] = &["id", "succ", "pred", "xor1", "half", "rev", "zero"];
const ASSOC_OPS: &[&str] = &["add", "mul", "max", "min"];

fn reg() -> &'static Registry {
    // `Registry` is `Sync` but not `Send` (boxed index functions), so the
    // shared static holds a leaked reference rather than the value
    static REG: OnceLock<&'static Registry> = OnceLock::new();
    REG.get_or_init(|| Box::leak(Box::new(Registry::standard())))
}

/// The policy matrix, overridable by the CI harness. An unparseable
/// `SCL_EXEC_POLICY` fails the suite instead of silently testing the
/// wrong thing.
fn policies() -> Vec<ExecPolicy> {
    match ExecPolicy::from_env().expect("SCL_EXEC_POLICY") {
        Some(pinned) => vec![pinned],
        None => vec![
            ExecPolicy::Sequential,
            ExecPolicy::Threads(4),
            ExecPolicy::cost_driven(),
        ],
    }
}

fn unit_machine(n: usize) -> Machine {
    Machine::new(Topology::FullyConnected { procs: n }, CostModel::unit())
}

/// One random fusable stage — same fragment the streaming differential
/// suite serves. Seed-deterministic, so rebuilding a plan from the same
/// seed reproduces the identical closures for the solo baseline.
fn arb_stage(rng: &mut Rng) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    match rng.below(9) {
        0 => {
            let k = rng.range_i64(-100, 100);
            Skel::map(move |x: &i64| x.wrapping_mul(3).wrapping_add(k))
        }
        1 => Skel::imap(|i, x: &i64| x.wrapping_add(i as i64)),
        2 => {
            let k = rng.range_i64(1, 5) as u64;
            Skel::map_costed(move |x: &i64| (x.wrapping_sub(7), Work::flops(k)))
        }
        3 => Skel::imap_costed(|i, x: &i64| (x ^ i as i64, Work::cmps(1))),
        4 => Skel::rotate(rng.range_i64(-6, 7) as isize),
        5 => {
            let fill = rng.range_i64(-10, 10);
            Skel::shift(rng.range_i64(-3, 4) as isize, fill)
        }
        6 => Skel::fold_all(|a: &i64, b: &i64| a.wrapping_add(*b), Work::flops(1)),
        7 => Skel::scan(|a: &i64, b: &i64| (*a).max(*b)),
        _ => {
            let k = rng.range_i64(0, 17) as usize;
            Skel::fetch(move |i| i.saturating_sub(k))
        }
    }
}

fn arb_plan(seed: u64) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    let mut rng = Rng::seed_from_u64(seed);
    let len = rng.range_usize(1, 7);
    let mut plan = arb_stage(&mut rng);
    for _ in 1..len {
        plan = plan.then(arb_stage(&mut rng));
    }
    plan
}

/// One random **lowerable** plan (the `submit_optimized` fragment).
fn arb_sym_plan(seed: u64) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    let mut rng = Rng::seed_from_u64(seed);
    let r = reg();
    let stage = |rng: &mut Rng| match rng.below(5) {
        0 => Skel::map_sym(*rng.pick(SCALARS), r),
        1 => Skel::rotate(rng.range_i64(-6, 7) as isize),
        2 => Skel::fetch_sym(*rng.pick(IDXFNS), r),
        3 => Skel::send_sym(*rng.pick(IDXFNS), r),
        _ => Skel::scan_sym(*rng.pick(ASSOC_OPS), r),
    };
    let len = rng.range_usize(1, 7);
    let mut plan = stage(&mut rng);
    for _ in 1..len {
        plan = plan.then(stage(&mut rng));
    }
    plan
}

/// One random **DAG** plan (branching through `pair` / `fanout` /
/// `choice` / `dac`), rebuilt deterministically from its seed so the
/// solo baseline and the cache key are both reproducible.
fn arb_dag_plan(seed: u64) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut stats = DagStats::default();
    arb_dag(&mut rng, reg(), 8, 3, &mut stats)
}

fn arb_item(rng: &mut Rng, parts: usize) -> ParArray<i64> {
    ParArray::from_parts(rng.vec_of(parts, |r| r.range_i64(-1_000_000, 1_000_000)))
}

/// Split `values` into `p` block parts, placed like the apps place them.
fn block_parts<T: Clone + Send + 'static>(values: &[T], p: usize) -> ParArray<Vec<T>> {
    ParArray::from_parts(
        block_ranges(values.len(), p)
            .into_iter()
            .map(|r| values[r].to_vec())
            .collect(),
    )
}

#[test]
fn n_tenants_through_serve_equal_n_solo_runs() {
    for policy in policies() {
        cases(6, 0x5E7E, |rng| {
            let machine = unit_machine(8);
            let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
                ServePolicy::new(machine.clone())
                    .with_exec(policy)
                    .with_batch_window(rng.range_usize(1, 6)),
            );
            let n_tenants = rng.range_usize(2, 5);
            let tenants: Vec<(TenantId, u64)> = (0..n_tenants)
                .map(|i| {
                    let weight = rng.range_usize(1, 4) as u32;
                    let seed = rng.next_u64();
                    (srv.add_tenant_weighted(&format!("t{i}"), weight), seed)
                })
                .collect();

            // interleaved submissions: every tenant has requests in
            // flight concurrently, all against shared infrastructure
            let mut ledger: Vec<(Ticket, u64, ParArray<i64>)> = Vec::new();
            for _round in 0..3 {
                for (t, plan_seed) in &tenants {
                    let input = arb_item(rng, 8);
                    let ticket = srv
                        .submit_keyed(
                            *t,
                            &format!("plan-{plan_seed}"),
                            arb_plan(*plan_seed),
                            input.clone(),
                        )
                        .unwrap();
                    ledger.push((ticket, *plan_seed, input));
                }
            }
            assert_eq!(
                srv.stats().cache_misses,
                n_tenants as u64,
                "one compile per distinct plan"
            );
            srv.run_until_idle();

            // every request: output and report identical to a solo run
            let mut scl = Scl::new(machine.clone()).with_policy(policy);
            for (i, (ticket, plan_seed, input)) in ledger.into_iter().enumerate() {
                let (out, report) = srv.take(ticket).expect("request completed");
                scl.reset();
                let expect = arb_plan(plan_seed).run(&mut scl, input);
                assert_eq!(out, expect, "request {i} output ({policy:?})");
                assert_eq!(
                    report,
                    scl.machine.report(),
                    "request {i} report ({policy:?})"
                );
            }
        });
    }
}

#[test]
fn optimized_submissions_equal_solo_run_optimized() {
    for policy in policies() {
        cases(6, 0x0071, |rng| {
            let machine = unit_machine(8);
            let mut srv: Serve<ParArray<i64>, ParArray<i64>> =
                Serve::new(ServePolicy::new(machine.clone()).with_exec(policy));
            let seeds: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
            let tenants: Vec<TenantId> = (0..3).map(|i| srv.add_tenant(&format!("t{i}"))).collect();

            let mut ledger: Vec<(Ticket, u64, ParArray<i64>)> = Vec::new();
            for _round in 0..2 {
                for (t, seed) in tenants.iter().zip(&seeds) {
                    let input = arb_item(rng, 8);
                    let plan = arb_sym_plan(*seed);
                    let ticket = srv
                        .submit_optimized(*t, &format!("sym-{seed}"), &plan, reg(), input.clone())
                        .unwrap();
                    ledger.push((ticket, *seed, input));
                }
            }
            srv.run_until_idle();

            for (i, (ticket, seed, input)) in ledger.into_iter().enumerate() {
                let (out, report) = srv.take(ticket).expect("request completed");
                let mut scl = Scl::new(machine.clone()).with_policy(policy);
                let (expect, _log) = scl.run_optimized(&arb_sym_plan(seed), reg(), input);
                assert_eq!(out, expect, "request {i} output ({policy:?})");
                assert_eq!(
                    report,
                    scl.machine.report(),
                    "request {i} report ({policy:?})"
                );
            }
        });
    }
}

#[test]
fn cache_hit_path_equals_cold_path() {
    for policy in policies() {
        let machine = unit_machine(8);
        let input = || ParArray::from_parts((0..8).map(|i| i * 11 - 40).collect::<Vec<i64>>());

        // warm service: second submission of the same plan is a cache hit
        let mut warm: Serve<ParArray<i64>, ParArray<i64>> =
            Serve::new(ServePolicy::new(machine.clone()).with_exec(policy));
        let t = warm.add_tenant("t");
        let first = warm.submit(t, arb_plan(99), input()).unwrap();
        let second = warm.submit(t, arb_plan(99), input()).unwrap();
        assert_eq!(warm.stats().cache_misses, 1);
        assert_eq!(warm.stats().cache_hits, 1);
        warm.run_until_idle();
        let hit_first = warm.take(first).unwrap();
        let hit_second = warm.take(second).unwrap();

        // cold service: retention disabled, every submission recompiles
        let mut cold: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
            ServePolicy::new(machine.clone())
                .with_exec(policy)
                .with_plan_cache_cap(0),
        );
        let t = cold.add_tenant("t");
        let mut cold_results: Vec<(ParArray<i64>, MachineReport)> = Vec::new();
        for _ in 0..2 {
            let tk = cold.submit(t, arb_plan(99), input()).unwrap();
            cold.run_until_idle();
            cold_results.push(cold.take(tk).unwrap());
        }
        assert_eq!(cold.stats().cache_misses, 2, "cold path compiled twice");

        assert_eq!(hit_first, cold_results[0], "({policy:?})");
        assert_eq!(hit_second, cold_results[1], "({policy:?})");
        assert_eq!(hit_first, hit_second, "same plan, same input ({policy:?})");

        // the optimized mode honours the same contract
        let mut warm: Serve<ParArray<i64>, ParArray<i64>> =
            Serve::new(ServePolicy::new(machine.clone()).with_exec(policy));
        let t = warm.add_tenant("t");
        let plan = arb_sym_plan(7);
        let a = warm.submit_optimized(t, "", &plan, reg(), input()).unwrap();
        let b = warm.submit_optimized(t, "", &plan, reg(), input()).unwrap();
        assert_eq!(warm.stats().cache_misses, 1);
        warm.run_until_idle();
        let (ra, rb) = (warm.take(a).unwrap(), warm.take(b).unwrap());
        assert_eq!(ra, rb);
        let mut scl = Scl::new(machine.clone()).with_policy(policy);
        let (expect, _) = scl.run_optimized(&plan, reg(), input());
        assert_eq!(ra.0, expect);
        assert_eq!(ra.1, scl.machine.report());
    }
}

/// DAG plans ride the same fingerprint-keyed compile cache as linear
/// ones: resubmitting a branching plan compiles once, and every request
/// matches a solo eager run — output and report.
#[test]
fn dag_plans_serve_with_one_compile_and_match_solo_runs() {
    for policy in policies() {
        cases(6, 0xDA65, |rng| {
            let machine = unit_machine(8);
            let mut srv: Serve<ParArray<i64>, ParArray<i64>> =
                Serve::new(ServePolicy::new(machine.clone()).with_exec(policy));
            let t = srv.add_tenant("t");
            let plan_seed = rng.next_u64();

            let mut ledger: Vec<(Ticket, ParArray<i64>)> = Vec::new();
            for _ in 0..3 {
                let input = arb_item(rng, 8);
                let ticket = srv
                    .submit(t, arb_dag_plan(plan_seed), input.clone())
                    .unwrap();
                ledger.push((ticket, input));
            }
            assert_eq!(
                srv.stats().cache_misses,
                1,
                "one compile for a resubmitted DAG"
            );
            assert_eq!(srv.stats().cache_hits, 2, "rebuilt DAGs hit the cache");
            srv.run_until_idle();

            let mut scl = Scl::new(machine.clone()).with_policy(policy);
            for (i, (ticket, input)) in ledger.into_iter().enumerate() {
                let (out, report) = srv.take(ticket).expect("request completed");
                scl.reset();
                let expect = arb_dag_plan(plan_seed).run(&mut scl, input);
                assert_eq!(out, expect, "dag request {i} output ({policy:?})");
                assert_eq!(
                    report,
                    scl.machine.report(),
                    "dag request {i} report ({policy:?})"
                );
            }
        });
    }
}

/// The cache key for a DAG is stable across rebuilds (fresh closures and
/// all) and separates plans that differ only inside a branch arm.
#[test]
fn dag_plan_fingerprints_are_stable_cache_keys() {
    let fp = |seed: u64| arb_dag_plan(seed).fingerprint();
    cases(16, 0xDA66, |rng| {
        let seed = rng.next_u64();
        assert_eq!(fp(seed), fp(seed), "rebuild must produce the cache key");
    });
    assert_ne!(fp(1), fp(2), "different DAGs must not share a cache key");
}

#[test]
fn psrs_tenants_match_solo_runs() {
    for policy in policies() {
        let p = 6;
        let machine = Machine::ap1000(p);
        let mut srv: Serve<ParArray<Vec<i64>>, ParArray<Vec<i64>>> =
            Serve::new(ServePolicy::new(machine.clone()).with_exec(policy));
        let tenants: Vec<TenantId> = (0..3).map(|i| srv.add_tenant(&format!("t{i}"))).collect();

        let mut ledger: Vec<(Ticket, ParArray<Vec<i64>>)> = Vec::new();
        for round in 0..2u64 {
            for (i, t) in tenants.iter().enumerate() {
                let keys = uniform_keys(600 + 90 * i, 1000 * round + i as u64);
                let input = block_parts(&keys, p);
                let ticket = srv.submit(*t, psrs_plan(p), input.clone()).unwrap();
                ledger.push((ticket, input));
            }
        }
        assert_eq!(srv.stats().cache_misses, 1, "all tenants share one graph");
        srv.run_until_idle();

        let solo = psrs_plan(p);
        let mut scl = Scl::new(machine.clone()).with_policy(policy);
        for (i, (ticket, input)) in ledger.into_iter().enumerate() {
            let (out, report) = srv.take(ticket).unwrap();
            scl.reset();
            let expect = solo.run(&mut scl, input);
            assert_eq!(out, expect, "psrs request {i} ({policy:?})");
            assert_eq!(report, scl.machine.report(), "psrs request {i} report");
            // sanity: globally sorted
            let flat: Vec<i64> = out.parts().iter().flat_map(|v| v.iter().copied()).collect();
            assert!(flat.windows(2).all(|w| w[0] <= w[1]), "psrs output sorted");
        }
    }
}

#[test]
fn histogram_tenants_match_solo_and_sequential() {
    for policy in policies() {
        let (buckets, p) = (16, 4);
        let machine = Machine::ap1000(p);
        let mut srv: Serve<ParArray<Vec<u64>>, ParArray<Vec<u64>>> =
            Serve::new(ServePolicy::new(machine.clone()).with_exec(policy));
        let a = srv.add_tenant("a");
        let b = srv.add_tenant_weighted("b", 2);

        let mut ledger: Vec<(Ticket, Vec<u64>)> = Vec::new();
        for (i, t) in [a, b, a, b].into_iter().enumerate() {
            let values: Vec<u64> = uniform_keys(2000, i as u64)
                .into_iter()
                .map(|x| x as u64)
                .collect();
            let ticket = srv
                .submit(t, histogram_plan(buckets, p), block_parts(&values, p))
                .unwrap();
            ledger.push((ticket, values));
        }
        srv.run_until_idle();

        let solo = histogram_plan(buckets, p);
        let mut scl = Scl::new(machine.clone()).with_policy(policy);
        for (i, (ticket, values)) in ledger.into_iter().enumerate() {
            let (out, report) = srv.take(ticket).unwrap();
            scl.reset();
            let expect = solo.run(&mut scl, block_parts(&values, p));
            assert_eq!(out, expect, "histogram request {i}");
            assert_eq!(report, scl.machine.report(), "histogram request {i}");
            // sanity: concatenated owner counts equal the sequential histogram
            let flat: Vec<u64> = out.parts().iter().flat_map(|v| v.iter().copied()).collect();
            assert_eq!(flat, histogram_seq(&values, buckets));
        }
    }
}

#[test]
fn batch_histogram_streams_host_data_through_the_service() {
    for policy in policies() {
        let (buckets, p) = (10, 4);
        let machine = Machine::ap1000(p);
        let mut srv: Serve<Vec<u64>, Vec<u64>> =
            Serve::new(ServePolicy::new(machine.clone()).with_exec(policy));
        let t = srv.add_tenant("t");

        let batches: Vec<Vec<u64>> = (0..5)
            .map(|i| {
                uniform_keys(700, 77 + i)
                    .into_iter()
                    .map(|x| x as u64)
                    .collect()
            })
            .collect();
        let tickets: Vec<Ticket> = batches
            .iter()
            .map(|batch| {
                srv.submit(t, batch_histogram_plan(buckets, p), batch.clone())
                    .unwrap()
            })
            .collect();
        srv.run_until_idle();

        let solo = batch_histogram_plan(buckets, p);
        let mut scl = Scl::new(machine.clone()).with_policy(policy);
        for (i, (ticket, batch)) in tickets.into_iter().zip(batches).enumerate() {
            let (out, report) = srv.take(ticket).unwrap();
            scl.reset();
            let expect = solo.run(&mut scl, batch.clone());
            assert_eq!(out, expect, "batch {i}");
            assert_eq!(report, scl.machine.report(), "batch {i} report");
            assert_eq!(out, histogram_seq(&batch, buckets), "batch {i} counts");
        }
    }
}

#[test]
fn jacobi_states_round_trip_the_service() {
    for policy in policies() {
        let p = 4;
        let n = 64;
        let machine = Machine::ap1000(p);
        let mut srv: Serve<JacobiState, JacobiState> =
            Serve::new(ServePolicy::new(machine.clone()).with_exec(policy));
        let t = srv.add_tenant("t");

        let starts: Vec<usize> = block_ranges(n, p).into_iter().map(|r| r.start).collect();
        let field = |seed: u64| -> Vec<f64> {
            uniform_keys(n, seed)
                .into_iter()
                .map(|x| (x % 1000) as f64 / 10.0)
                .collect()
        };
        let state =
            |seed: u64| -> JacobiState { (block_parts(&field(seed), p), 0usize, f64::INFINITY) };

        let tickets: Vec<(Ticket, u64)> = (0..3u64)
            .map(|seed| {
                let tk = srv
                    .submit(t, jacobi_plan(n, starts.clone(), 1e-3, 40), state(seed))
                    .unwrap();
                (tk, seed)
            })
            .collect();
        assert_eq!(srv.stats().cache_misses, 1, "one compile for all sweeps");
        srv.run_until_idle();

        let solo = jacobi_plan(n, starts.clone(), 1e-3, 40);
        let mut scl = Scl::new(machine.clone()).with_policy(policy);
        for (tk, seed) in tickets {
            let ((arr, iters, res), report) = srv.take(tk).unwrap();
            scl.reset();
            scl.clear_buffers(); // host-side pool must not leak across baselines
            let (earr, eiters, eres) = solo.run(&mut scl, state(seed));
            assert_eq!(arr, earr, "jacobi field (seed {seed})");
            assert_eq!(iters, eiters, "jacobi iterations (seed {seed})");
            assert_eq!(res.to_bits(), eres.to_bits(), "jacobi residual");
            assert_eq!(report, scl.machine.report(), "jacobi report (seed {seed})");
            assert!(iters > 0, "the loop ran");
        }
    }
}

#[test]
fn app_plans_fingerprint_stably_and_apart() {
    // equal constructions fingerprint equal, for every app plan
    let starts: Vec<usize> = block_ranges(64, 4).into_iter().map(|r| r.start).collect();
    let psrs = psrs_plan(4).fingerprint();
    let hist = histogram_plan(16, 4).fingerprint();
    let batch = batch_histogram_plan(16, 4).fingerprint();
    let jac = jacobi_plan(64, starts.clone(), 1e-6, 50).fingerprint();
    assert_eq!(psrs, psrs_plan(4).fingerprint());
    assert_eq!(hist, histogram_plan(16, 4).fingerprint());
    assert_eq!(batch, batch_histogram_plan(16, 4).fingerprint());
    assert_eq!(jac, jacobi_plan(64, starts.clone(), 1e-6, 50).fingerprint());

    // the four app plans are structurally distinct — pairwise different
    let all = [
        ("psrs", psrs),
        ("hist", hist),
        ("batch", batch),
        ("jac", jac),
    ];
    for i in 0..all.len() {
        for j in i + 1..all.len() {
            assert_ne!(all[i].1, all[j].1, "{} vs {}", all[i].0, all[j].0);
        }
    }

    // parameters living only in closures are invisible to the structural
    // hash: psrs_plan(4) and psrs_plan(6) are structural twins — exactly
    // the case `Serve::submit_keyed` exists for
    assert_eq!(psrs, psrs_plan(6).fingerprint());
    assert_ne!(
        psrs.with_salt("p=4"),
        psrs.with_salt("p=6"),
        "keyed submissions split them"
    );
}

#[test]
fn batch_window_never_changes_answers() {
    for policy in policies() {
        let machine = unit_machine(8);
        let mut results: Vec<Vec<(ParArray<i64>, MachineReport)>> = Vec::new();
        for window in [1usize, 3, 16] {
            let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
                ServePolicy::new(machine.clone())
                    .with_exec(policy)
                    .with_batch_window(window),
            );
            let t = srv.add_tenant("t");
            let tickets: Vec<Ticket> = (0..10)
                .map(|k| {
                    srv.submit(
                        t,
                        arb_plan(1234),
                        ParArray::from_parts((k..k + 8).collect::<Vec<i64>>()),
                    )
                    .unwrap()
                })
                .collect();
            srv.run_until_idle();
            results.push(
                tickets
                    .into_iter()
                    .map(|tk| srv.take(tk).unwrap())
                    .collect(),
            );
        }
        assert_eq!(results[0], results[1], "window 1 vs 3 ({policy:?})");
        assert_eq!(results[0], results[2], "window 1 vs 16 ({policy:?})");
    }
}
