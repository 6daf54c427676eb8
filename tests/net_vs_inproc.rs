//! Differential suite for the TCP front door: a reply that crosses the
//! wire must be **bit-for-bit** identical — output payload AND the
//! per-request machine accounting — to what an in-process
//! [`Serve::submit`] returns for the same tenant, plan, and payload.
//! Randomized multi-tenant traffic over loopback, under the seq / auto /
//! cost policy matrix (`SCL_EXEC_POLICY`, as in `serve_vs_solo.rs`),
//! in plain and optimize-then-execute modes.

use scl::prelude::*;
use scl_core::ParArray;
use scl_machine::MachineReport;
use scl_net::{Mode, NetClient, NetConfig, NetServer, TenantSpec};
use scl_serve::{Serve, ServePolicy, TenantId};
use scl_testkit::{cases, Rng};

const SCALARS: &[&str] = &["inc", "dec", "double", "square", "neg", "halve", "heavy"];
const IDXFNS: &[&str] = &["id", "succ", "pred", "xor1", "half", "rev", "zero"];
const ASSOC_OPS: &[&str] = &["add", "mul", "max", "min"];

const PROCS: usize = 8;

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

/// A random plan in the textual grammar — the wire ships *source*, so
/// the generator produces text and the in-process twin compiles the
/// same text through the same `parse` + `Skel::from_expr` path.
fn arb_source(seed: u64) -> String {
    let mut rng = Rng::seed_from_u64(seed);
    let stage = |rng: &mut Rng| match rng.below(5) {
        0 => format!("map({})", rng.pick(SCALARS)),
        1 => format!("rotate({})", rng.range_i64(-6, 7)),
        2 => format!("fetch({})", rng.pick(IDXFNS)),
        3 => format!("send({})", rng.pick(IDXFNS)),
        _ => format!("scan({})", rng.pick(ASSOC_OPS)),
    };
    let len = rng.range_usize(1, 5);
    (0..len)
        .map(|_| stage(&mut rng))
        .collect::<Vec<_>>()
        .join(" . ")
}

fn arb_payload(rng: &mut Rng, parts: usize) -> Vec<i64> {
    rng.vec_of(parts, |r| r.range_i64(-1_000_000, 1_000_000))
}

fn reg() -> &'static Registry {
    use std::sync::OnceLock;
    static REG: OnceLock<&'static Registry> = OnceLock::new();
    REG.get_or_init(|| Box::leak(Box::new(Registry::standard())))
}

/// The in-process twin of one wire submission: same machine template,
/// same policy, same key/mode submission path through `Serve`.
fn inproc_submit(
    srv: &mut Serve<ParArray<i64>, ParArray<i64>>,
    t: TenantId,
    mode: Mode,
    source: &str,
    key: &str,
    payload: &[i64],
) -> (Vec<i64>, MachineReport) {
    let expr = scl_transform::parse(source).expect("generator emits valid grammar");
    let skel = scl_core::Skel::from_expr(&expr, reg()).expect("generator emits servable plans");
    let input = ParArray::from_parts(payload.to_vec());
    let ticket = match mode {
        Mode::Plain => srv.submit_keyed(t, key, skel, input).unwrap(),
        Mode::Optimized => srv.submit_optimized(t, key, &skel, reg(), input).unwrap(),
    };
    srv.run_until_idle();
    let (out, report) = srv.take(ticket).expect("in-process request completes");
    (out.parts().to_vec(), report)
}

/// One request description, shared by the wire and in-process sides.
#[derive(Clone)]
struct Call {
    tenant: u32,
    mode: Mode,
    source: String,
    key: String,
    payload: Vec<i64>,
}

fn arb_calls(rng: &mut Rng, n_tenants: usize, rounds: usize) -> Vec<Call> {
    // a small pool of distinct plans per tenant exercises both the
    // compile path and the cache-hit path on both sides
    let seeds: Vec<u64> = (0..n_tenants).map(|_| rng.next_u64()).collect();
    let mut calls = Vec::new();
    for _ in 0..rounds {
        for (t, &seed) in seeds.iter().enumerate() {
            let variant = rng.below(2); // two plans per tenant
            let plan_seed = seed.wrapping_add(variant);
            let mode = if rng.bool() {
                Mode::Plain
            } else {
                Mode::Optimized
            };
            calls.push(Call {
                tenant: t as u32,
                mode,
                source: arb_source(plan_seed),
                key: format!("plan-{plan_seed}"),
                payload: arb_payload(rng, PROCS),
            });
        }
    }
    calls
}

fn server_config(policy: ExecPolicy, n_tenants: usize) -> NetConfig {
    NetConfig {
        procs: PROCS,
        exec: policy,
        tenants: (0..n_tenants)
            .map(|i| TenantSpec::new(&format!("t{i}")).with_weight(1 + i as u32))
            .collect(),
        ..NetConfig::default()
    }
}

#[test]
fn wire_replies_equal_in_process_serve_bit_for_bit() {
    for policy in policies() {
        cases(3, 0x000e_7011, |rng| {
            let n_tenants = rng.range_usize(2, 4);
            let calls = arb_calls(rng, n_tenants, 3);

            let server = NetServer::start(server_config(policy, n_tenants)).unwrap();
            let mut client = NetClient::connect(server.local_addr()).unwrap();
            let wire: Vec<(Vec<i64>, MachineReport)> = calls
                .iter()
                .map(|c| {
                    let r = client
                        .submit_source(c.tenant, c.mode, &c.source, &c.key, &c.payload)
                        .unwrap_or_else(|e| panic!("{policy:?} `{}`: {e}", c.source));
                    (r.output, r.report)
                })
                .collect();
            server.shutdown();

            let mut srv: Serve<ParArray<i64>, ParArray<i64>> =
                Serve::new(ServePolicy::new(unit_machine(PROCS)).with_exec(policy));
            let ids: Vec<TenantId> = (0..n_tenants)
                .map(|i| srv.add_tenant_weighted(&format!("t{i}"), 1 + i as u32))
                .collect();
            for (i, (c, (wire_out, wire_report))) in calls.iter().zip(&wire).enumerate() {
                let (out, report) = inproc_submit(
                    &mut srv,
                    ids[c.tenant as usize],
                    c.mode,
                    &c.source,
                    &c.key,
                    &c.payload,
                );
                assert_eq!(
                    *wire_out, out,
                    "call {i} `{}` output ({policy:?}, {:?})",
                    c.source, c.mode
                );
                assert_eq!(
                    *wire_report, report,
                    "call {i} `{}` accounting ({policy:?}, {:?})",
                    c.source, c.mode
                );
            }
        });
    }
}

#[test]
fn concurrent_tenants_over_loopback_match_in_process_replay() {
    // Several client threads hammer the server concurrently — requests
    // interleave arbitrarily in the admission queue and batch windows —
    // yet every reply must still equal the in-process twin, because
    // per-request accounting is isolated by construction.
    for policy in policies() {
        let n_tenants = 3;
        let server = NetServer::start(server_config(policy, n_tenants)).unwrap();
        let addr = server.local_addr();

        let handles: Vec<_> = (0..n_tenants as u32)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut rng = Rng::seed_from_u64(0xc0_fe + u64::from(t));
                    let mut client = NetClient::connect(addr).unwrap();
                    let mut log = Vec::new();
                    for round in 0..6 {
                        let plan_seed = u64::from(t) * 100 + u64::from(round % 2u32);
                        let source = arb_source(plan_seed);
                        let key = format!("plan-{plan_seed}");
                        let payload = arb_payload(&mut rng, PROCS);
                        let r = client
                            .submit_source(t, Mode::Plain, &source, &key, &payload)
                            .unwrap();
                        log.push((source, key, payload, r.output, r.report));
                    }
                    (t, log)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        server.shutdown();

        let mut srv: Serve<ParArray<i64>, ParArray<i64>> =
            Serve::new(ServePolicy::new(unit_machine(PROCS)).with_exec(policy));
        let ids: Vec<TenantId> = (0..n_tenants)
            .map(|i| srv.add_tenant_weighted(&format!("t{i}"), 1 + i as u32))
            .collect();
        for (t, log) in results {
            for (i, (source, key, payload, wire_out, wire_report)) in log.into_iter().enumerate() {
                let (out, report) = inproc_submit(
                    &mut srv,
                    ids[t as usize],
                    Mode::Plain,
                    &source,
                    &key,
                    &payload,
                );
                assert_eq!(wire_out, out, "tenant {t} call {i} output ({policy:?})");
                assert_eq!(
                    wire_report, report,
                    "tenant {t} call {i} accounting ({policy:?})"
                );
            }
        }
    }
}
