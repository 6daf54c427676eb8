//! Chaos differential suite (tentpole): a tenant running a crashing or
//! stalling plan must be *invisible* to its co-tenants. Tenant A drives
//! seeded faults from the `scl-testkit` [`FaultPlan`] harness — stage
//! panics inside farm workers, barrier panics at sequential hops,
//! artificial delays, and lane stalls — while tenant B's outputs **and**
//! per-request `MachineReport`s must stay bit-for-bit equal to solo
//! runs, under every execution policy. Plus the recovery contract: a
//! crashed plan's next submission rebuilds the graph and succeeds.
//!
//! The CI harness pins the policy through `SCL_EXEC_POLICY`
//! (`seq` / `auto` / `cost`) and the fault seed through
//! `SCL_FAULT_SEED`; unset, a fixed seed and every policy run
//! in-process. Every fault decision is a pure function of
//! `(seed, site, value)`, so any failure reproduces exactly by
//! re-exporting the seed the suite prints on entry.

use scl::prelude::*;
use scl_core::{ParArray, RequestError};
use scl_machine::MachineReport;
use scl_serve::{Serve, ServePolicy, Ticket};
use scl_testkit::dag::{join_concat, split_half};
use scl_testkit::FaultPlan;

/// The policy matrix, overridable by the CI harness.
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

fn fault() -> FaultPlan {
    let f = FaultPlan::from_env(0xC4A0_5EED);
    eprintln!("chaos suite: SCL_FAULT_SEED={:#x}", f.seed());
    f
}

/// Tenant B's plan: deterministic, healthy, closure-built so the solo
/// baseline reconstructs the identical graph.
fn victim_plan() -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    Skel::map(|x: &i64| x.wrapping_mul(3))
        .then(Skel::rotate(1))
        .then(Skel::map_costed(|x: &i64| {
            (x.wrapping_add(1), Work::flops(2))
        }))
}

fn victim_input(k: i64) -> ParArray<i64> {
    ParArray::from_parts((k..k + 8).collect::<Vec<i64>>())
}

/// Tenant A's crashing plan: the seeded `stage` site panics inside a
/// farm worker for roughly one value in three.
fn crashing_plan(f: FaultPlan) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    Skel::map(move |x: &i64| {
        f.maybe_panic("stage", *x, 3);
        x.wrapping_mul(2)
    })
    .then(Skel::rotate(1))
}

/// Tenant A's turbulent plan: seeded delays perturb worker interleaving
/// and seeded stalls wedge one lane at a time — timing chaos only, the
/// answer must stay exact.
fn turbulent_plan(f: FaultPlan) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    Skel::map(move |x: &i64| {
        f.maybe_delay("delay", *x, 2, 300);
        x.wrapping_sub(5)
    })
    .then(Skel::map_costed(move |x: &i64| {
        f.maybe_stall("stall", *x, 7, 2);
        (x.wrapping_mul(3), Work::flops(1))
    }))
}

/// Tenant A's barrier-crashing plan: the seeded `barrier` site panics
/// inside a sequential hop (the other poisoning path).
fn barrier_crashing_plan(f: FaultPlan) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    Skel::map(|x: &i64| x.wrapping_add(1)).then(Skel::barrier(
        "chaos-barrier",
        move |_scl: &mut Scl, a: ParArray<i64>| {
            for x in a.parts() {
                f.maybe_panic("barrier", *x, 2);
            }
            a
        },
    ))
}

/// Tenant A's branch-crashing plan: the seeded `arm` site panics inside
/// the **left** arm of a `pair` while the right arm stays healthy — the
/// fault must resolve typed without stranding the sibling arm.
fn arm_crashing_plan(f: FaultPlan) -> Skel<'static, ParArray<i64>, ParArray<i64>> {
    let left = Skel::map(move |x: &i64| {
        f.maybe_panic("arm", *x, 2);
        x.wrapping_mul(2)
    });
    let right = Skel::map(|x: &i64| x.wrapping_add(9));
    split_half().then(left.pair(right)).then(join_concat())
}

/// An input guaranteed (by seed-deterministic search) to trip `site`.
fn hot_input(f: FaultPlan, site: &str, one_in: u64) -> ParArray<i64> {
    let hot = (0..100_000)
        .find(|&v| f.fires(site, v, one_in))
        .expect("some value trips the fault");
    ParArray::from_parts(vec![hot.wrapping_sub(1), hot, hot.wrapping_add(1), hot])
}

/// An input guaranteed to *miss* `site` for every element.
fn cold_input(f: FaultPlan, site: &str, one_in: u64) -> ParArray<i64> {
    let spared: Vec<i64> = (0..100_000)
        .filter(|&v| !f.fires(site, v, one_in))
        .take(8)
        .collect();
    assert_eq!(spared.len(), 8, "enough values dodge the fault");
    ParArray::from_parts(spared)
}

#[test]
fn co_tenant_outputs_and_reports_survive_chaos_bit_for_bit() {
    let f = fault();
    for policy in policies() {
        let machine = unit_machine(8);
        let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
            ServePolicy::new(machine.clone())
                .with_exec(policy)
                .with_quarantine_after(1_000_000), // keep the crashes coming
        );
        let a = srv.add_tenant("chaos");
        let b = srv.add_tenant("victim");

        // interleaved rounds: A keeps crashing one plan and churning a
        // turbulent one while B streams healthy work through the same
        // shared service
        let mut crashers: Vec<Ticket> = Vec::new();
        let mut turbulent: Vec<(Ticket, ParArray<i64>)> = Vec::new();
        let mut victims: Vec<(Ticket, i64)> = Vec::new();
        for round in 0..4i64 {
            crashers.push(
                srv.submit_keyed(a, "crash", crashing_plan(f), hot_input(f, "stage", 3))
                    .unwrap(),
            );
            let tin = victim_input(1_000 + round);
            turbulent.push((
                srv.submit_keyed(a, "turb", turbulent_plan(f), tin.clone())
                    .unwrap(),
                tin,
            ));
            victims.push((
                srv.submit_keyed(b, "victim", victim_plan(), victim_input(round))
                    .unwrap(),
                round,
            ));
        }
        srv.run_until_idle();

        // every crashing submission resolved to a typed fault — none
        // lost, none unwound through the service
        for tk in crashers {
            let err = srv.outcome(tk).expect("resolved").unwrap_err();
            assert!(err.is_fault(), "expected a fault, got {err}");
            assert!(
                err.to_string().contains("injected fault at `stage`"),
                "{err}"
            );
        }
        assert!(
            srv.stats().panics >= 1,
            "the seeded faults actually fired ({policy:?})"
        );

        // A's turbulent plan: timing chaos only — answers stay exact
        let mut scl = Scl::new(machine.clone()).with_policy(policy);
        for (i, (tk, tin)) in turbulent.into_iter().enumerate() {
            let (out, report) = srv
                .outcome(tk)
                .expect("resolved")
                .expect("turbulence is not failure");
            scl.reset();
            let expect = turbulent_plan(f).run(&mut scl, tin);
            assert_eq!(out, expect, "turbulent {i} ({policy:?})");
            assert_eq!(report, scl.machine.report(), "turbulent {i} report");
        }

        // tenant B: outputs and reports bit-for-bit equal to solo runs
        for (tk, round) in victims {
            let (out, report) = srv.outcome(tk).expect("resolved").expect("victim unharmed");
            scl.reset();
            let expect = victim_plan().run(&mut scl, victim_input(round));
            assert_eq!(out, expect, "victim round {round} ({policy:?})");
            assert_eq!(
                report,
                scl.machine.report(),
                "victim round {round} report ({policy:?})"
            );
        }

        // and the service is still alive for everyone
        let tk = srv
            .submit_keyed(b, "victim", victim_plan(), victim_input(99))
            .unwrap();
        srv.run_until_idle();
        assert!(
            srv.outcome(tk).unwrap().is_ok(),
            "service survived the chaos"
        );
    }
}

#[test]
fn crashed_plans_rebuild_and_succeed_on_resubmission() {
    let f = fault();
    for policy in policies() {
        let machine = unit_machine(8);
        let mut srv: Serve<ParArray<i64>, ParArray<i64>> =
            Serve::new(ServePolicy::new(machine.clone()).with_exec(policy));
        let t = srv.add_tenant("t");

        // crash it
        let doomed = srv
            .submit_keyed(t, "flaky", crashing_plan(f), hot_input(f, "stage", 3))
            .unwrap();
        srv.run_until_idle();
        assert!(srv.outcome(doomed).unwrap().is_err());

        // resubmit with spared values: the graph rebuilds from the
        // cached plan and the answer matches a solo run exactly
        let clean = cold_input(f, "stage", 3);
        let retry = srv
            .submit_keyed(t, "flaky", crashing_plan(f), clean.clone())
            .unwrap();
        srv.run_until_idle();
        let (out, report) = srv.outcome(retry).unwrap().expect("rebuilt and ran");
        let mut scl = Scl::new(machine.clone()).with_policy(policy);
        let expect = crashing_plan(f).run(&mut scl, clean);
        assert_eq!(out, expect, "({policy:?})");
        assert_eq!(report, scl.machine.report(), "({policy:?})");
        assert_eq!(srv.stats().rebuilds, 1, "one teardown, one rebuild");
    }
}

/// A panic in one `pair` arm resolves as a typed fault; the sibling arm
/// is not stranded (a cold input through the same keyed plan still
/// completes, bit-for-bit with a solo run) and the co-tenant's request
/// stays untouched.
#[test]
fn branch_arm_panics_resolve_typed_and_spare_sibling_and_co_tenant() {
    let f = fault();
    for policy in policies() {
        let machine = unit_machine(8);
        let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(
            ServePolicy::new(machine.clone())
                .with_exec(policy)
                .with_quarantine_after(1_000_000), // the retry must run
        );
        let a = srv.add_tenant("chaos");
        let b = srv.add_tenant("victim");

        // the split sends the first half of the parts into the left arm,
        // so an all-hot input is guaranteed to trip it
        let doomed = srv
            .submit_keyed(a, "arm", arm_crashing_plan(f), hot_input(f, "arm", 2))
            .unwrap();
        let safe = srv
            .submit_keyed(b, "victim", victim_plan(), victim_input(11))
            .unwrap();
        let retry_input = cold_input(f, "arm", 2);
        let retry = srv
            .submit_keyed(a, "arm", arm_crashing_plan(f), retry_input.clone())
            .unwrap();
        srv.run_until_idle();

        let err = srv.outcome(doomed).expect("resolved").unwrap_err();
        assert!(
            err.is_fault(),
            "expected a typed fault, got {err} ({policy:?})"
        );
        assert!(
            err.to_string().contains("injected fault at `arm`"),
            "fault site lost: {err} ({policy:?})"
        );

        // sibling arm / shared graph not stranded: the cold retry of the
        // same keyed plan completes and matches a solo run exactly
        let (out, report): (ParArray<i64>, MachineReport) =
            srv.outcome(retry).unwrap().expect("cold retry completes");
        let mut scl = Scl::new(machine.clone()).with_policy(policy);
        let expect = arm_crashing_plan(f).run(&mut scl, retry_input);
        assert_eq!(out, expect, "retry output ({policy:?})");
        assert_eq!(report, scl.machine.report(), "retry report ({policy:?})");

        // co-tenant unharmed
        let (out, report): (ParArray<i64>, MachineReport) =
            srv.outcome(safe).unwrap().expect("victim unharmed");
        scl.reset();
        let expect = victim_plan().run(&mut scl, victim_input(11));
        assert_eq!(out, expect, "victim output ({policy:?})");
        assert_eq!(report, scl.machine.report(), "victim report ({policy:?})");
    }
}

#[test]
fn barrier_panics_resolve_typed_and_spare_the_co_tenant() {
    let f = fault();
    for policy in policies() {
        let machine = unit_machine(8);
        let mut srv: Serve<ParArray<i64>, ParArray<i64>> =
            Serve::new(ServePolicy::new(machine.clone()).with_exec(policy));
        let a = srv.add_tenant("chaos");
        let b = srv.add_tenant("victim");

        // an input whose *mapped* values (x+1) trip the barrier site
        let hot = (0..100_000)
            .find(|&v| f.fires("barrier", v + 1, 2))
            .expect("some value trips the barrier fault");
        let doomed = srv
            .submit_keyed(
                a,
                "bar",
                barrier_crashing_plan(f),
                ParArray::from_parts(vec![hot; 4]),
            )
            .unwrap();
        let safe = srv
            .submit_keyed(b, "victim", victim_plan(), victim_input(7))
            .unwrap();
        srv.run_until_idle();

        match srv.outcome(doomed).unwrap() {
            Err(RequestError::BarrierPanic { stage, message }) => {
                assert_eq!(stage, "chaos-barrier", "({policy:?})");
                assert!(message.contains("injected fault at `barrier`"), "{message}");
            }
            other => panic!("expected a barrier panic, got {other:?} ({policy:?})"),
        }
        let (out, report): (ParArray<i64>, MachineReport) =
            srv.outcome(safe).unwrap().expect("victim unharmed");
        let mut scl = Scl::new(machine.clone()).with_policy(policy);
        let expect = victim_plan().run(&mut scl, victim_input(7));
        assert_eq!(out, expect, "({policy:?})");
        assert_eq!(report, scl.machine.report(), "({policy:?})");
    }
}
