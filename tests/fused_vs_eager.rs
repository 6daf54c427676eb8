//! Differential suite for the fused executor: for every app plan and for
//! randomized `Skel` pipelines, eager `run`, partition-resident
//! `run_fused`, and (where lowerable) `run_optimized` and the reference
//! interpreter `eval` must agree bit-for-bit — under sequential,
//! threaded, and cost-driven policies.
//!
//! The CI harness pins the policy set through `SCL_EXEC_POLICY`
//! (`seq` / `auto` / `cost`); unset, every policy runs in-process.

#![allow(clippy::explicit_auto_deref)] // clippy's suggestion breaks inference on pick()
use scl::prelude::*;
use scl_apps::histogram::{histogram_plan, histogram_seq};
use scl_apps::jacobi::{jacobi_plan, jacobi_seq};
use scl_apps::msort::msort_plan;
use scl_apps::psrs::psrs_plan;
use scl_apps::workloads::uniform_keys;
use scl_core::{block_ranges, ParArray, SclError};
use scl_testkit::{cases, Rng};

const SCALARS: &[&str] = &["inc", "dec", "double", "square", "neg", "halve", "heavy"];
const IDXFNS: &[&str] = &["id", "succ", "pred", "xor1", "half", "rev", "zero"];
const ASSOC_OPS: &[&str] = &["add", "mul", "max", "min"];

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

/// One random **lowerable** stage (also fusable by construction).
fn arb_sym_stage<'r>(rng: &mut Rng, reg: &'r Registry) -> Skel<'r, ParArray<i64>, ParArray<i64>> {
    match rng.below(5) {
        0 => Skel::map_sym(*rng.pick(SCALARS), reg),
        1 => Skel::rotate(rng.range_i64(-6, 7) as isize),
        2 => Skel::fetch_sym(*rng.pick(IDXFNS), reg),
        3 => Skel::send_sym(*rng.pick(IDXFNS), reg),
        _ => Skel::scan_sym(*rng.pick(ASSOC_OPS), reg),
    }
}

/// One random stage from the wider fusable fragment: opaque compute
/// stages (which forfeit lowering but not fusion) mixed with
/// communication barriers.
fn arb_fusable_stage<'r>(
    rng: &mut Rng,
    reg: &'r Registry,
) -> Skel<'r, ParArray<i64>, ParArray<i64>> {
    match rng.below(8) {
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
        4 => {
            let fill = rng.range_i64(-10, 10);
            Skel::shift(rng.range_i64(-3, 4) as isize, fill)
        }
        5 => Skel::fold_all(|a: &i64, b: &i64| a.wrapping_add(*b), Work::flops(1)),
        6 => Skel::scan(|a: &i64, b: &i64| (*a).max(*b)),
        _ => arb_sym_stage(rng, reg),
    }
}

fn arb_input(rng: &mut Rng) -> ParArray<i64> {
    let n = rng.range_usize(2, 24);
    ParArray::from_parts(rng.vec_of(n, |r| r.range_i64(-1_000_000, 1_000_000)))
}

/// Wherever `plan` lowers, its eager output equals the reference
/// interpreter's evaluation of the lowered program.
fn assert_matches_reference(
    plan: &Skel<'_, ParArray<i64>, ParArray<i64>>,
    reg: &Registry,
    input: &ParArray<i64>,
    eager: &ParArray<i64>,
) {
    if let Some(e) = plan.lower(reg) {
        let expect = eval(&e, reg, Value::Arr(input.to_vec())).unwrap();
        assert_eq!(Value::Arr(eager.to_vec()), expect, "{e}");
    }
}

#[test]
fn randomized_fusable_pipelines_agree() {
    let reg = Registry::standard();
    for policy in policies() {
        cases(96, 0xF0, |rng| {
            let len = rng.range_usize(1, 9);
            let mut plan = arb_fusable_stage(rng, &reg);
            for _ in 1..len {
                plan = plan.then(arb_fusable_stage(rng, &reg));
            }
            let input = arb_input(rng);
            let n = input.len();

            let mut eager_ctx = Scl::ap1000(n);
            let eager = plan.run(&mut eager_ctx, input.clone());
            assert_matches_reference(&plan, &reg, &input, &eager);

            let mut fused_ctx = Scl::ap1000(n).with_policy(policy);
            let fused = fused_ctx.run_fused(&plan, input).unwrap();

            assert_eq!(eager.to_vec(), fused.to_vec(), "policy {policy:?}");
            // charging agrees too: fused segments report the same costed
            // work, barriers run the same eager skeletons. (Approximate:
            // a segment charges one summed Work per part, so the clock
            // additions associate differently at the last ulp.)
            let (te, tf) = (
                eager_ctx.makespan().as_secs(),
                fused_ctx.makespan().as_secs(),
            );
            assert!(
                (te - tf).abs() <= 1e-9 * te.abs().max(1.0),
                "makespan diverged: eager {te} vs fused {tf} ({policy:?})"
            );
        });
    }
}

#[test]
fn randomized_lowerable_pipelines_agree_three_ways() {
    let reg = Registry::standard();
    for policy in policies() {
        cases(96, 0xF1, |rng| {
            let len = rng.range_usize(1, 8);
            let mut plan = arb_sym_stage(rng, &reg);
            for _ in 1..len {
                plan = plan.then(arb_sym_stage(rng, &reg));
            }
            let input = arb_input(rng);
            let n = input.len();

            let mut eager_ctx = Scl::ap1000(n);
            let eager = plan.run(&mut eager_ctx, input.clone());
            assert_matches_reference(&plan, &reg, &input, &eager);

            let mut fused_ctx = Scl::ap1000(n).with_policy(policy);
            let fused = fused_ctx.run_fused(&plan, input.clone()).unwrap();

            let mut opt_ctx = Scl::ap1000(n).with_policy(policy);
            let (optimized, _log) = opt_ctx.run_optimized(&plan, &reg, input);

            let tag = plan.lower(&reg).unwrap();
            assert_eq!(eager.to_vec(), fused.to_vec(), "{tag} ({policy:?})");
            assert_eq!(eager.to_vec(), optimized.to_vec(), "{tag} ({policy:?})");
        });
    }
}

#[test]
fn psrs_plan_agrees_on_all_paths() {
    for policy in policies() {
        for p in [2usize, 4, 8] {
            let data = uniform_keys(4000, 42 + p as u64);

            let mut eager_ctx = Scl::ap1000(p);
            let da = eager_ctx.partition(Pattern::Block(p), &data);
            let eager = psrs_plan(p).run(&mut eager_ctx, da);

            let mut fused_ctx = Scl::ap1000(p).with_policy(policy);
            let da = fused_ctx.partition(Pattern::Block(p), &data);
            let fused = fused_ctx.run_fused(&psrs_plan(p), da).unwrap();

            assert_eq!(eager, fused, "psrs p={p} ({policy:?})");

            // sanity against plain sort
            let mut expect = data.clone();
            expect.sort_unstable();
            let flat: Vec<i64> = fused.parts().iter().flatten().copied().collect();
            assert_eq!(flat, expect, "psrs p={p} ({policy:?})");
        }
    }
}

#[test]
fn msort_plan_agrees_on_all_paths() {
    for policy in policies() {
        for p in [2usize, 4, 8] {
            let data = uniform_keys(3000, 7 + p as u64);

            let mut eager_ctx = Scl::ap1000(p);
            let da = eager_ctx.partition(Pattern::Block(p), &data);
            let eager = msort_plan(p).run(&mut eager_ctx, da);

            let mut fused_ctx = Scl::ap1000(p).with_policy(policy);
            let da = fused_ctx.partition(Pattern::Block(p), &data);
            let fused = fused_ctx.run_fused(&msort_plan(p), da).unwrap();

            assert_eq!(eager, fused, "msort p={p} ({policy:?})");

            // the dc tree charges like the eager recursion
            let (te, tf) = (
                eager_ctx.makespan().as_secs(),
                fused_ctx.makespan().as_secs(),
            );
            assert!(
                (te - tf).abs() <= 1e-9 * te.abs().max(1.0),
                "msort makespan diverged: eager {te} vs fused {tf} (p={p}, {policy:?})"
            );

            // sanity against plain sort
            let mut expect = data.clone();
            expect.sort_unstable();
            let flat: Vec<i64> = fused.parts().iter().flatten().copied().collect();
            assert_eq!(flat, expect, "msort p={p} ({policy:?})");
        }
    }
}

#[test]
fn jacobi_plan_agrees_on_all_paths() {
    let u0: Vec<f64> = {
        let mut v = vec![0.0; 48];
        v[47] = 100.0;
        v
    };
    let n = u0.len();
    for policy in policies() {
        for p in [2usize, 4, 8] {
            let starts: Vec<usize> = block_ranges(n, p).iter().map(|r| r.start).collect();
            let seq = jacobi_seq(&u0, 1e-6, 400);

            let mut eager_ctx = Scl::ap1000(p);
            let da = eager_ctx.partition(Pattern::Block(p), &u0);
            let plan = jacobi_plan(n, starts.clone(), 1e-6, 400);
            let (ue, ie, re) = plan.run(&mut eager_ctx, (da, 0usize, f64::INFINITY));

            let mut fused_ctx = Scl::ap1000(p).with_policy(policy);
            let da = fused_ctx.partition(Pattern::Block(p), &u0);
            let plan = jacobi_plan(n, starts, 1e-6, 400);
            let (uf, if_, rf) = fused_ctx
                .run_fused(&plan, (da, 0usize, f64::INFINITY))
                .unwrap();

            assert_eq!(ue, uf, "jacobi p={p} ({policy:?})");
            assert_eq!((ie, re), (if_, rf), "jacobi p={p} ({policy:?})");
            assert_eq!(fused_ctx.gather(&uf), seq.u, "jacobi p={p} ({policy:?})");
        }
    }
}

#[test]
fn histogram_plan_agrees_on_all_paths() {
    let values: Vec<u64> = uniform_keys(5000, 9)
        .into_iter()
        .map(|x| x as u64)
        .collect();
    for policy in policies() {
        for (buckets, p) in [(16usize, 4usize), (10, 3), (64, 8)] {
            let expect = histogram_seq(&values, buckets);

            let mut eager_ctx = Scl::ap1000(p);
            let da = eager_ctx.partition(Pattern::Block(p), &values);
            let eager = histogram_plan(buckets, p).run(&mut eager_ctx, da);

            let mut fused_ctx = Scl::ap1000(p).with_policy(policy);
            let da = fused_ctx.partition(Pattern::Block(p), &values);
            let fused = fused_ctx
                .run_fused(&histogram_plan(buckets, p), da)
                .unwrap();

            assert_eq!(eager, fused, "histogram b={buckets} p={p} ({policy:?})");
            assert_eq!(
                fused_ctx.gather(&fused),
                expect,
                "histogram b={buckets} p={p} ({policy:?})"
            );
        }
    }
}

// ---- error and panic paths --------------------------------------------------

#[test]
fn fused_worker_panic_carries_the_stage_label() {
    for policy in policies() {
        let plan = Skel::map(|x: &i64| x + 1).then(Skel::map_costed(|x: &i64| {
            if *x == 3 {
                panic!("poisoned part");
            }
            (*x, Work::NONE)
        }));
        let mut scl = Scl::ap1000(8).with_policy(policy);
        let input = ParArray::from_parts((0..8).collect::<Vec<i64>>());
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = scl.run_fused(&plan, input);
        }))
        .unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .expect("fused panics re-raise as labelled strings");
        assert!(
            msg.contains("fused stage `map_costed`"),
            "{msg} ({policy:?})"
        );
        assert!(msg.contains("poisoned part"), "{msg} ({policy:?})");
    }
}

#[test]
fn oversized_configurations_error_instead_of_panicking() {
    // a partition wider than the machine, reached mid-plan
    let plan = Skel::partition(Pattern::Block(8))
        .then(Skel::balance())
        .then(Skel::gather());
    let mut scl = Scl::ap1000(4);
    let err = scl
        .run_fused(&plan, (0..64).collect::<Vec<i64>>())
        .unwrap_err();
    assert_eq!(
        err,
        SclError::MachineTooSmall {
            needed: 8,
            procs: 4
        }
    );

    // an input configuration wider than the machine, caught at entry
    let plan = histogram_plan(16, 8);
    let mut scl = Scl::ap1000(4);
    let wide = ParArray::from_parts(vec![vec![1u64]; 8]);
    assert_eq!(
        scl.run_fused(&plan, wide).unwrap_err(),
        SclError::MachineTooSmall {
            needed: 8,
            procs: 4
        }
    );
}
