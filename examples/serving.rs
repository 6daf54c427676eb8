//! The multi-tenant plan service: many clients, one shared machine.
//!
//! Three tenants with different weights submit requests against a shared
//! `scl-serve` front-end: two of them serve the *same* plan (so they
//! share one compiled graph — watch the cache hit counter), the third
//! submits a symbolic plan through the optimize-then-execute path (the
//! §4 rewrite laws run once, at compile time, not per request). The
//! shard scheduler splits the host's threads into weighted fair
//! shares each round, and every request completes with its own
//! `MachineReport`, exactly as a solo run would have produced.
//!
//! ```text
//! cargo run --release --example serving [requests_per_tenant]
//! ```

use scl::prelude::*;
use scl_serve::Ticket;

fn main() {
    let requests: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let p = 8;

    let policy = ServePolicy::new(Machine::ap1000(p))
        .with_exec(ExecPolicy::Threads(4)) // the host threads every tenant shares
        .with_batch_window(8)
        .with_plan_cache_cap(16);
    let mut srv: Serve<ParArray<i64>, ParArray<i64>> = Serve::new(policy);

    let alice = srv.add_tenant("alice");
    let bob = srv.add_tenant_weighted("bob", 2);
    let carol = srv.add_tenant_weighted("carol", 1);

    // alice and bob run the same pipeline: square, exchange with the
    // neighbour, accumulate — structurally equal submissions, one graph
    let pipeline = || {
        Skel::map_costed(|x: &i64| (x * x, Work::flops(1)))
            .then(Skel::rotate(1))
            .then(Skel::scan(|a: &i64, b: &i64| a.wrapping_add(*b)))
    };

    // carol's plan is symbolic: lower → optimise (the cancelling
    // rotations vanish, the maps fuse) → raise, compiled once, cached
    let reg: &'static Registry = Box::leak(Box::new(Registry::standard()));
    let symbolic = Skel::map_sym("double", reg)
        .then(Skel::rotate(3))
        .then(Skel::rotate(-3))
        .then(Skel::map_sym("inc", reg));

    let input = |k: usize| ParArray::from_parts((0..p as i64).map(|i| i + k as i64).collect());

    let mut tickets: Vec<(&str, Ticket)> = Vec::new();
    for k in 0..requests {
        tickets.push(("alice", srv.submit(alice, pipeline(), input(k)).unwrap()));
        tickets.push(("bob", srv.submit(bob, pipeline(), input(k + 100)).unwrap()));
        tickets.push((
            "carol",
            srv.submit_optimized(carol, "", &symbolic, reg, input(k + 200))
                .unwrap(),
        ));
    }

    println!("request queues before service:");
    println!(
        "  {} requests pending over {} compiled plans",
        srv.pending_requests(),
        srv.cached_plans()
    );
    println!("  weighted fair shares of {} host threads:", srv.threads());
    for (t, share) in srv.shares() {
        println!("    {:<6} -> {} threads", srv.tenant_name(t), share);
    }

    srv.run_until_idle();

    println!("\nafter service:");
    let stats = srv.stats();
    println!(
        "  requests={} completed={} batches={}",
        stats.requests, stats.completed, stats.batches
    );
    println!(
        "  plan cache: {} misses (compiles), {} hits (reused graphs)",
        stats.cache_misses, stats.cache_hits
    );

    // each tenant's first request, with its private machine accounting
    for name in ["alice", "bob", "carol"] {
        let (_, ticket) = *tickets
            .iter()
            .find(|(n, _)| *n == name)
            .expect("tenant submitted");
        let (out, report) = srv.take(ticket).expect("request completed");
        println!(
            "  {:<6} first result: [{} ...]  report: {}",
            name,
            out.part(0),
            report
        );
    }
    println!(
        "  served per tenant: alice={} bob={} carol={}",
        srv.tenant_served(alice),
        srv.tenant_served(bob),
        srv.tenant_served(carol)
    );
}
