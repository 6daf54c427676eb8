//! The TCP front door: the plan service behind a socket.
//!
//! Starts an `scl-net` server on loopback with two tenants — `gold`
//! holding a `p99 < 25ms` latency contract, `bulk` running best-effort —
//! then drives it from plain `NetClient` connections:
//!
//! 1. submit plan *source* (compiled, cached, answered with a handle),
//! 2. resubmit by *handle* (no source on the wire, same answer, same
//!    per-request `MachineReport`),
//! 3. trip a typed error (a parse error never kills the connection),
//! 4. read the stats document, which reports whether `gold`'s contract
//!    holds,
//! 5. drain and shut down gracefully.
//!
//! ```text
//! cargo run --release --example net_serve [requests]
//! ```

use scl_net::{Mode, NetClient, NetConfig, NetServer, SloContract, TenantSpec};

fn main() {
    let requests: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);

    let server = NetServer::start(NetConfig {
        procs: 8,
        tenants: vec![
            TenantSpec::new("gold")
                .with_weight(3)
                .with_slo(SloContract::parse("p99<25ms").unwrap()),
            TenantSpec::new("bulk"),
        ],
        ..NetConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr();
    println!("scl-net listening on {addr}");

    // --- 1. ship source, get a compiled handle back ---------------------
    let mut gold = NetClient::connect(addr).expect("connect");
    let input: Vec<i64> = (1..=8).collect();
    let first = gold
        .submit_source(
            0,
            Mode::Plain,
            "map(square) . rotate(1) . scan(add)",
            "",
            &input,
        )
        .expect("gold submit");
    println!(
        "gold:  source submit -> {:?}  (handle {:#018x}, {} msgs, {} flops)",
        first.output, first.handle, first.report.metrics.messages, first.report.metrics.flops
    );

    // --- 2. the handle fast path: no source on the wire -----------------
    for k in 0..requests {
        let shifted: Vec<i64> = input.iter().map(|x| x + k as i64).collect();
        let r = gold
            .submit_handle(0, first.handle, &shifted)
            .expect("handle resubmit");
        if k == 0 {
            assert_eq!(r.output, first.output);
            assert_eq!(r.report, first.report, "same plan, same private accounting");
        }
    }
    println!("gold:  {requests} handle resubmissions served from the plan cache");

    // --- 3. typed errors leave the connection alive ---------------------
    let mut bulk = NetClient::connect(addr).expect("connect");
    match bulk.submit_source(1, Mode::Plain, "map(", "", &input) {
        Err(scl_net::ClientError::Server { code, message, .. }) => {
            println!("bulk:  typed error as designed: {code:?}: {message}")
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    let ok = bulk
        .submit_source(
            1,
            Mode::Optimized,
            "map(double) . rotate(2) . rotate(-2)",
            "",
            &input,
        )
        .expect("bulk optimized submit — the connection survived the error");
    println!(
        "bulk:  optimized submit (rotations cancel under §4 laws) -> {:?}",
        ok.output
    );

    // --- 4. the stats document ------------------------------------------
    let stats = gold.stats().expect("stats");
    assert!(stats.contains("\"slo_p99_ms\": 25.000"), "{stats}");
    println!("\nstats (gold's `slo_met` says whether its p99 holds):\n{stats}\n");

    // --- 5. graceful drain ----------------------------------------------
    gold.drain().expect("drain");
    match gold.submit_source(0, Mode::Plain, "map(inc)", "", &input) {
        Err(scl_net::ClientError::Server { code, .. }) => {
            println!("draining: new work refused with {code:?}")
        }
        other => panic!("expected Draining, got {other:?}"),
    }
    server.shutdown();
    println!("server drained and shut down cleanly");
}
