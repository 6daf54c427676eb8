//! Direct calls into single layers: the per-layer numbers that no span
//! around a request can give (a queue's cost per message, a codec's cost
//! per frame, one compile step). Each probe returns its rounds, so the
//! report can print a median with quartiles like everything else.

use crate::harness::{machine, policy};
use crate::json::Json;
use crate::report::Report;
use scl_core::prelude::*;
use scl_core::FrameHeader;
use scl_exec::{par_pipeline, ring, ring_mpmc, Bounded, ThreadPool};
use scl_machine::MachineReport;
use scl_net::{Reply, Request};
use scl_stream::{StreamExec, StreamPolicy};
use scl_transform::{optimize, parse, Expr};
use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 9;

/// `ROUNDS` rounds of `calls` calls each; a round's figure is its mean
/// nanoseconds per call.
fn rounds_ns(calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    f(); // warm
    (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect()
}

fn scale(v: Vec<f64>, k: f64) -> Vec<f64> {
    v.into_iter().map(|x| x * k).collect()
}

/// scl-transform on the request path: parse, §4 optimise, raise — per
/// plan, as microseconds, over `sources` (one ladder plan, or the churn
/// set). `transform.rewrites_fired` is exact and must not move unless an
/// issue says so.
pub fn transform(rep: &mut Report, sources: &[String], reg: &'static Registry, reps: usize) {
    let per_plan = 1e-3 / sources.len() as f64;
    let exprs: Vec<Expr> = sources
        .iter()
        .map(|s| parse(s).expect("benchmark source parses"))
        .collect();
    let optimized: Vec<Expr> = exprs.iter().map(|e| optimize(e.clone(), reg).0).collect();
    let fired: usize = exprs.iter().map(|e| optimize(e.clone(), reg).1.len()).sum();

    let parse_ns = rounds_ns(reps, || {
        for s in sources {
            black_box(parse(black_box(s)).expect("parses"));
        }
    });
    let optimize_ns = rounds_ns(reps, || {
        for e in &exprs {
            black_box(optimize(e.clone(), reg));
        }
    });
    let raise_ns = rounds_ns(reps, || {
        for e in &optimized {
            black_box(Skel::from_expr(e, reg).expect("raises"));
        }
    });
    let n = (reps * sources.len()) as u64;
    rep.set_layer("transform.parse_us", scale(parse_ns, per_plan), n);
    rep.set_layer("transform.optimize_us", scale(optimize_ns, per_plan), n);
    rep.set_layer("transform.raise_us", scale(raise_ns, per_plan), n);
    rep.set_layer_value("transform.rewrites_fired", fired as f64);
}

/// `Skel::fingerprint` on the raised plan: what a serve-cache hit pays.
pub fn fingerprint(rep: &mut Report, expr: &Expr, reg: &'static Registry) {
    let plan = Skel::from_expr(expr, reg).expect("raises");
    let ns = rounds_ns(2000, || {
        black_box(plan.fingerprint());
    });
    rep.set_layer("core.fingerprint_ns", ns, 2000);
}

/// `StreamExec::new` per plan: graph construction and worker spawn, the
/// part of a cache miss scl-stream owns. Teardown (worker joins) is not
/// timed.
pub fn stream_build(rep: &mut Report, exprs: &[Expr], reg: &'static Registry, procs: usize) {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut total = 0.0;
            for e in exprs {
                let plan = Skel::from_expr(e, reg).expect("raises");
                let t0 = Instant::now();
                let exec =
                    StreamExec::new(plan, StreamPolicy::new(machine(procs)).with_exec(policy()));
                total += t0.elapsed().as_secs_f64();
                drop(exec);
            }
            total * 1e6 / exprs.len() as f64
        })
        .collect();
    rep.set_layer("stream.build_us", rounds, (ROUNDS * exprs.len()) as u64);
}

/// The wire codec on this workload's payload: one request frame plus one
/// result frame, encode and decode.
pub fn codec(rep: &mut Report, payload: &[i64], report: &MachineReport) {
    let req = Request::SubmitHandle {
        tenant: 0,
        handle: 0x5c1_1add3,
        deadline_ms: 0,
        payload: payload.to_vec(),
    };
    let reply = Reply::Result {
        handle: 0x5c1_1add3,
        payload: payload.to_vec(),
        report: report.clone(),
    };
    let req_bytes = req.encode();
    let reply_bytes = reply.encode();
    let split = |bytes: &[u8]| {
        let header: [u8; scl_core::wire::HEADER_LEN] = bytes[..scl_core::wire::HEADER_LEN]
            .try_into()
            .expect("a whole header");
        let h = FrameHeader::decode(&header).expect("own frame");
        (h.kind, bytes[scl_core::wire::HEADER_LEN..].to_vec())
    };
    let (req_kind, req_body) = split(&req_bytes);
    let (reply_kind, reply_body) = split(&reply_bytes);
    assert_eq!(Request::decode(req_kind, &req_body).as_ref(), Ok(&req));
    assert_eq!(Reply::decode(reply_kind, &reply_body).as_ref(), Ok(&reply));

    let calls = (200_000 / payload.len().max(8)).max(50);
    let encode = rounds_ns(calls, || {
        black_box(black_box(&req).encode());
        black_box(black_box(&reply).encode());
    });
    let decode = rounds_ns(calls, || {
        black_box(Request::decode(req_kind, black_box(&req_body)).expect("decodes"));
        black_box(Reply::decode(reply_kind, black_box(&reply_body)).expect("decodes"));
    });
    rep.set_layer("net.encode_ns", encode, calls as u64);
    rep.set_layer("net.decode_ns", decode, calls as u64);
}

/// A `PING` round trip: the socket, the reader thread and the frame
/// header, with no plan behind them.
pub fn ping(client: &mut scl_net::NetClient) -> Vec<f64> {
    scale(rounds_ns(50, || client.ping().expect("server alive")), 1e-3)
}

/// scl-exec's primitives with nothing on top: one `par_pipeline` dispatch
/// over 8 no-op parts, and the cost per message of the three queue
/// families every stream link and the admission queue are built from.
/// Independent of the workload, so measured on each.
pub fn exec(rep: &mut Report, quick: bool) {
    let threads = scl_exec::host_threads();
    let pool = ThreadPool::new(threads);
    let dispatch = rounds_ns(if quick { 200 } else { 2000 }, || {
        black_box(par_pipeline(
            &pool,
            (0..8u64).collect::<Vec<_>>(),
            threads,
            1,
            |_, x| x,
        ));
    });
    rep.set_layer("exec.dispatch_ns", dispatch, 2000);

    let n: u64 = if quick { 20_000 } else { 200_000 };
    let per_msg = |secs: f64| secs * 1e9 / n as f64;
    let checksum = n * (n - 1) / 2;

    let spsc = (0..ROUNDS)
        .map(|_| {
            let (tx, rx) = ring::<u64>(256);
            let t0 = Instant::now();
            let sum = std::thread::scope(|s| {
                s.spawn(move || {
                    for i in 0..n {
                        tx.send(i).expect("receiver alive");
                    }
                });
                let mut sum = 0u64;
                while let Some(x) = rx.recv() {
                    sum += x;
                }
                sum
            });
            assert_eq!(sum, checksum, "spsc ring lost or duplicated items");
            per_msg(t0.elapsed().as_secs_f64())
        })
        .collect();
    rep.set_layer("exec.ring_ns_per_msg", spsc, n);

    let mpmc = (0..ROUNDS)
        .map(|_| {
            let (txs, rxs) = ring_mpmc::<u64>(2, 2, 256);
            let per = n / 2;
            let t0 = Instant::now();
            let sum: u64 = std::thread::scope(|s| {
                for (p, tx) in txs.into_iter().enumerate() {
                    s.spawn(move || {
                        for i in 0..per {
                            tx.send(p as u64 * per + i).expect("consumers alive");
                        }
                    });
                }
                let consumers: Vec<_> = rxs
                    .into_iter()
                    .map(|rx| {
                        s.spawn(move || {
                            let mut sum = 0u64;
                            while let Some(x) = rx.recv() {
                                sum += x;
                            }
                            sum
                        })
                    })
                    .collect();
                consumers
                    .into_iter()
                    .map(|c| c.join().expect("consumer clean"))
                    .sum()
            });
            assert_eq!(sum, checksum, "mpmc ring lost or duplicated items");
            per_msg(t0.elapsed().as_secs_f64())
        })
        .collect();
    rep.set_layer("exec.mpmc_ns_per_msg", mpmc, n);

    let bounded = (0..ROUNDS)
        .map(|_| {
            let q = Bounded::<u64>::new(256);
            let tx = q.clone();
            let t0 = Instant::now();
            let sum = std::thread::scope(|s| {
                s.spawn(move || {
                    for i in 0..n {
                        tx.send(i).expect("receiver alive");
                    }
                    tx.close();
                });
                let mut sum = 0u64;
                while let Some(x) = q.recv() {
                    sum += x;
                }
                sum
            });
            assert_eq!(sum, checksum, "bounded channel lost or duplicated items");
            per_msg(t0.elapsed().as_secs_f64())
        })
        .collect();
    rep.set_layer("exec.bounded_ns_per_msg", bounded, n);
}

/// The TCP server's own counters, from its stats document.
pub fn server_counters(rep: &mut Report, stats_json: &str, queue_depth_max: usize) {
    let stats = crate::json::parse(stats_json).expect("server stats are JSON");
    let tenants = stats.get("tenants").map(Json::as_arr).unwrap_or(&[]);
    let sum = |key: &str| tenants.iter().map(|t| t.num(key)).sum::<f64>();
    rep.set_layer_value("net.shed", sum("shed"));
    rep.set_layer_value("net.rejected", sum("rejected"));
    rep.set_layer_value(
        "net.server_p99_ms",
        tenants.first().map_or(0.0, |t| t.num("p99_ms")),
    );
    rep.set_layer_value(
        "net.manager_actions",
        stats.get("manager_actions").map_or(0, |a| a.as_arr().len()) as f64,
    );
    rep.set_layer_value("net.queue_depth_max", queue_depth_max as f64);
}
