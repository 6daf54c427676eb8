//! Differential suite for plan **DAGs**: randomized graphs built from
//! `pair` / `fanout` / `choice` / `dac` (nested around the usual symbolic
//! stages) must agree bit-for-bit between eager `run`, branch-parallel
//! `run_fused`, `run_optimized` and — wherever the DAG lowers — the
//! reference interpreter `eval` — under sequential, threaded, and
//! cost-driven policies — and neither the eager nor the fused machine
//! report may depend on the policy that produced it.
//!
//! The CI harness pins the policy set through `SCL_EXEC_POLICY`
//! (`seq` / `auto` / `cost`) and sweeps the generator seed through
//! `SCL_DAG_SEED`, mirroring the chaos suite's `SCL_FAULT_SEED`.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use scl::prelude::*;
use scl_core::ParArray;
use scl_testkit::cases;
use scl_testkit::dag::{arb_dag, arb_dag_input, env_seed, join_concat, split_half, DagStats};

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

fn dag_seed() -> u64 {
    env_seed("SCL_DAG_SEED", 0xDA60)
}

/// The tentpole invariant: 112 seeded DAGs per policy (each nesting
/// branches up to three levels deep) agree across all three executors,
/// and the fused clock stays within float-association noise of the eager
/// one. Coverage is asserted, not assumed: across the sweep every
/// combinator family must appear and nesting must actually reach depth 3.
#[test]
fn randomized_dags_agree_three_ways() {
    let reg = Registry::standard();
    let mut stats = DagStats::default();
    let mut lowered = 0usize;
    for policy in policies() {
        cases(112, dag_seed(), |rng| {
            let input = arb_dag_input(rng);
            let n = input.len();
            let plan = arb_dag(rng, &reg, n, 3, &mut stats);

            let mut eager_ctx = Scl::ap1000(n);
            let eager = plan.run(&mut eager_ctx, input.clone());
            if let Some(e) = plan.lower(&reg) {
                let expect = eval(&e, &reg, Value::Arr(input.to_vec())).unwrap();
                assert_eq!(Value::Arr(eager.to_vec()), expect, "{e}");
                lowered += 1;
            }

            // the eager walk under this policy: same output, same report
            let mut policy_ctx = Scl::ap1000(n).with_policy(policy);
            let eager_here = plan.run(&mut policy_ctx, input.clone());
            assert_eq!(eager_here.to_vec(), eager.to_vec(), "policy {policy:?}");
            assert_eq!(
                policy_ctx.machine.report(),
                eager_ctx.machine.report(),
                "eager report drifted under {policy:?}"
            );

            let mut fused_ctx = Scl::ap1000(n).with_policy(policy);
            let fused = fused_ctx.run_fused(&plan, input.clone()).unwrap();

            let mut opt_ctx = Scl::ap1000(n).with_policy(policy);
            let (optimized, _log) = opt_ctx.run_optimized(&plan, &reg, input);

            assert_eq!(eager.to_vec(), fused.to_vec(), "policy {policy:?}");
            assert_eq!(eager.to_vec(), optimized.to_vec(), "policy {policy:?}");

            // Charging agrees too: both walks charge branch arms the same
            // costed work in the same order, left arm first.
            // (Approximate only in the last ulp: a fused segment charges
            // one summed Work per part, so clock additions associate
            // differently.)
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
    assert!(stats.covers_all(), "coverage hole in the sweep: {stats:?}");
    assert!(stats.deepest >= 3, "never nested 3 deep: {stats:?}");
    assert!(
        lowered > 0,
        "no generated DAG lowered: the eval check never ran"
    );
}

/// The machine report of a fused DAG run is a pure function of the plan
/// and input — scheduling policy must not leak into it. (Pinned CI runs
/// see a single policy and degrade to a smoke check; the unpinned suite
/// compares all three pairwise.)
#[test]
fn fused_dag_reports_are_policy_independent() {
    let reg = Registry::standard();
    cases(24, dag_seed() ^ 0x1, |rng| {
        let input = arb_dag_input(rng);
        let n = input.len();
        let mut stats = DagStats::default();
        let plan = arb_dag(rng, &reg, n, 3, &mut stats);

        let mut runs = policies().into_iter().map(|policy| {
            let mut ctx = Scl::ap1000(n).with_policy(policy);
            let out = ctx.run_fused(&plan, input.clone()).unwrap();
            (policy, out.to_vec(), ctx.machine.report())
        });
        let (first_policy, first_out, first_report) = runs.next().unwrap();
        for (policy, out, report) in runs {
            assert_eq!(out, first_out, "{first_policy:?} vs {policy:?}");
            assert_eq!(
                report, first_report,
                "fused report drifted between {first_policy:?} and {policy:?}"
            );
        }
    });
}

/// Rendezvous proof that independent `pair` arms really run concurrently
/// on distinct workers: each arm publishes a flag and waits (bounded) for
/// the other's. Under `Threads(2)` with one part per arm the split
/// segment dispatches both arms in a single pool call, so the handshake
/// completes; a sequential scheduler could never satisfy the left arm's
/// wait. Retries absorb a temporarily saturated shared pool.
#[test]
fn pair_arms_run_concurrently_on_distinct_workers() {
    const ATTEMPTS: usize = 4;
    const WAIT: Duration = Duration::from_millis(2500);

    for attempt in 0..ATTEMPTS {
        let left_up = Arc::new(AtomicBool::new(false));
        let right_up = Arc::new(AtomicBool::new(false));
        let met = Arc::new(AtomicBool::new(true));
        let tids: Arc<Mutex<HashSet<ThreadId>>> = Arc::default();

        let arm = |mine: Arc<AtomicBool>, theirs: Arc<AtomicBool>| {
            let met = Arc::clone(&met);
            let tids = Arc::clone(&tids);
            move |x: &i64| {
                tids.lock().unwrap().insert(std::thread::current().id());
                mine.store(true, Ordering::SeqCst);
                let deadline = Instant::now() + WAIT;
                while !theirs.load(Ordering::SeqCst) {
                    if Instant::now() > deadline {
                        met.store(false, Ordering::SeqCst);
                        break;
                    }
                    std::thread::yield_now();
                }
                *x
            }
        };
        let left = Skel::map(arm(Arc::clone(&left_up), Arc::clone(&right_up)));
        let right = Skel::map(arm(Arc::clone(&right_up), Arc::clone(&left_up)));
        let plan = split_half().then(left.pair(right)).then(join_concat());

        let mut ctx = Scl::ap1000(2).with_policy(ExecPolicy::Threads(2));
        let input = ParArray::from_parts(vec![10, 20]);
        let out = ctx.run_fused(&plan, input).unwrap();
        assert_eq!(out.to_vec(), vec![10, 20]);

        let distinct = tids.lock().unwrap().len();
        if met.load(Ordering::SeqCst) && distinct >= 2 {
            return; // both arms saw each other in flight, on distinct threads
        }
        assert!(
            attempt + 1 < ATTEMPTS,
            "pair arms never rendezvoused: met={} distinct_workers={}",
            met.load(Ordering::SeqCst),
            distinct
        );
    }
}

/// The same rendezvous through the eager walk: `Skel::run` charges per
/// stage, and under `Threads(2)` it still sends a `pair` whose arms are
/// one part and one segment each out as a single pool dispatch, so the
/// handshake completes there too.
#[test]
fn pair_arms_run_concurrently_under_skel_run() {
    const ATTEMPTS: usize = 4;
    const WAIT: Duration = Duration::from_millis(2500);

    for attempt in 0..ATTEMPTS {
        let left_up = Arc::new(AtomicBool::new(false));
        let right_up = Arc::new(AtomicBool::new(false));
        let met = Arc::new(AtomicBool::new(true));
        let tids: Arc<Mutex<HashSet<ThreadId>>> = Arc::default();

        let arm = |mine: Arc<AtomicBool>, theirs: Arc<AtomicBool>| {
            let met = Arc::clone(&met);
            let tids = Arc::clone(&tids);
            move |x: &i64| {
                tids.lock().unwrap().insert(std::thread::current().id());
                mine.store(true, Ordering::SeqCst);
                let deadline = Instant::now() + WAIT;
                while !theirs.load(Ordering::SeqCst) {
                    if Instant::now() > deadline {
                        met.store(false, Ordering::SeqCst);
                        break;
                    }
                    std::thread::yield_now();
                }
                *x
            }
        };
        let left = Skel::map(arm(Arc::clone(&left_up), Arc::clone(&right_up)));
        let right = Skel::map(arm(Arc::clone(&right_up), Arc::clone(&left_up)));
        let plan = split_half().then(left.pair(right)).then(join_concat());

        let mut ctx = Scl::ap1000(2).with_policy(ExecPolicy::Threads(2));
        let out = plan.run(&mut ctx, ParArray::from_parts(vec![10, 20]));
        assert_eq!(out.to_vec(), vec![10, 20]);

        let distinct = tids.lock().unwrap().len();
        if met.load(Ordering::SeqCst) && distinct >= 2 {
            return; // both arms saw each other in flight, on distinct threads
        }
        assert!(
            attempt + 1 < ATTEMPTS,
            "pair arms never rendezvoused under Skel::run: met={} distinct_workers={}",
            met.load(Ordering::SeqCst),
            distinct
        );
    }
}

/// Structural fingerprints hash arm *topology*: swapping arms, changing
/// the branch kind, or deepening one arm all change the fingerprint,
/// while rebuilding the identical graph (fresh closures and all)
/// collides.
#[test]
fn dag_fingerprints_hash_arm_topology() {
    let reg = Registry::standard();
    let inc = || Skel::map_sym("inc", &reg);
    let dbl = || Skel::map_sym("double", &reg);

    let fp = |plan: &Skel<ParArray<i64>, ParArray<i64>>| plan.fingerprint();

    // pair(f, g) != pair(g, f)
    fn pf<'r>(
        l: Skel<'r, ParArray<i64>, ParArray<i64>>,
        r: Skel<'r, ParArray<i64>, ParArray<i64>>,
    ) -> Skel<'r, ParArray<i64>, ParArray<i64>> {
        split_half().then(l.pair(r)).then(join_concat())
    }
    let pair_fg = pf(inc(), dbl());
    let pair_gf = pf(dbl(), inc());
    assert_ne!(fp(&pair_fg), fp(&pair_gf), "swapped pair arms must differ");

    // fanout(f, g) != fanout(g, f)
    let fan_fg = Skel::fanout_sym(inc(), dbl(), "add", &reg);
    let fan_gf = Skel::fanout_sym(dbl(), inc(), "add", &reg);
    assert_ne!(fp(&fan_fg), fp(&fan_gf), "swapped fanout arms must differ");

    // same arms, different branch kind
    let choice_fg = Skel::choice_sym("inc", inc(), dbl(), &reg);
    assert_ne!(
        fp(&choice_fg),
        fp(&Skel::fanout_sym(inc(), dbl(), "add", &reg)),
        "choice and fanout of the same arms must differ"
    );

    // deepening one arm changes the topology hash
    let shallow = Skel::choice_sym("inc", inc(), dbl(), &reg);
    let deep = Skel::choice_sym("inc", inc().then(inc()), dbl(), &reg);
    assert_ne!(fp(&shallow), fp(&deep), "arm depth must be hashed");

    // identical construction (fresh closures) collides
    assert_eq!(fp(&pair_fg), fp(&pf(inc(), dbl())));
    assert_eq!(
        fp(&choice_fg),
        fp(&Skel::choice_sym("inc", inc(), dbl(), &reg))
    );
}

/// Generator determinism holds at the fingerprint level end-to-end: the
/// same seed rebuilds a structurally identical DAG (the serve cache key
/// for it), different seeds essentially never collide.
#[test]
fn generated_dags_fingerprint_deterministically() {
    let reg = Registry::standard();
    let mut fps = HashSet::new();
    cases(32, dag_seed() ^ 0x2, |rng| {
        let n = arb_dag_input(rng).len();
        let mut twin = rng.clone();
        let mut stats = DagStats::default();
        let a = arb_dag(rng, &reg, n, 3, &mut stats);
        let mut twin_stats = DagStats::default();
        let b = arb_dag(&mut twin, &reg, n, 3, &mut twin_stats);
        let (fa, fb) = (a.fingerprint(), b.fingerprint());
        assert_eq!(fa, fb, "same seed must rebuild the same DAG");
        assert_eq!(stats, twin_stats);
        fps.insert(fa);
    });
    assert!(
        fps.len() > 16,
        "seeded DAGs collapsed to {} shapes",
        fps.len()
    );
}
