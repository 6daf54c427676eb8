//! `serve_open`: an open loop over TCP. Two paced connections share one
//! server with the autonomic manager on: tenant `hot` (SLO `p99<5ms`)
//! resubmits the `ladder_tiny` plan by handle, tenant `churn` cycles by
//! source through 48 distinct Optimized-mode plans — more than the plan
//! cache holds, so every one of its requests compiles (parse, §4 optimise,
//! raise, graph build) on the service thread beside `hot`'s cached hits.
//!
//! Requests are sent on a seeded Poisson schedule whatever the server
//! does; each is timed **from when it was due**, so the wait a stall
//! imposes on later requests counts, and how late the generator itself ran
//! is reported.

use crate::harness::{error_code, machine, policy, Opts};
use crate::json::{self, Json};
use crate::probes;
use crate::program::{self, Program, CHURN_PLANS};
use crate::report::{Check, Report};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use scl_core::prelude::*;
use scl_machine::MachineReport;
use scl_net::{Mode, NetClient, NetConfig, NetServer, SloContract, TenantSpec};
use scl_serve::{Serve, ServePolicy};
use scl_testkit::Rng;
use scl_transform::parse;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The three fixed total arrival rates (requests per second, split evenly
/// between the two tenants): ≈ 25 / 50 / 75 % of the closed-loop capacity
/// of this mix measured once on the seed commit (see README.md), then
/// frozen so that later commits are offered the same load.
pub const RATES: [f64; 3] = [200.0, 400.0, 600.0];
/// Tenant `hot`'s contract, and the limit `open.max_rate_ok` applies.
const SLO_P99_MS: f64 = 5.0;
const HOT: u32 = 0;
const CHURN: u32 = 1;
const PARTS: usize = 8;
const INPUT_POOL: usize = 32;

/// Due times (seconds from the segment's start) of a Poisson arrival
/// process of `rate` per second over `secs` seconds.
pub fn schedule(seed: u64, rate: f64, secs: f64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        // inverse-CDF exponential gap; `1 - u` keeps the log finite
        t += -(1.0 - rng.range_f64(0.0, 1.0)).ln() / rate;
        if t >= secs {
            return due;
        }
        due.push(t);
    }
}

/// One request as the generator saw it.
struct Sample {
    /// Completion minus due time.
    latency_ms: f64,
    /// Send minus due time: how late the generator ran.
    late_ms: f64,
    /// Position in the segment, 0..1.
    at: f64,
}

struct Rig {
    reg: &'static Registry,
    server: Option<NetServer>,
    clients: Vec<NetClient>,
    hot: Program,
    hot_handle: u64,
    inputs: Vec<Vec<i64>>,
    hot_expected: Vec<Vec<i64>>,
    churn: Vec<Program>,
    churn_sources: Vec<String>,
    churn_expected: Vec<Vec<i64>>,
    /// Churn requests the server accepted so far (warm-up included): the
    /// number `serve.cache_misses` must equal, plus `hot`'s one compile.
    churn_served: u64,
    hot_report: MachineReport,
}

impl Rig {
    fn new(opts: &Opts, check: &mut Check) -> Rig {
        let reg: &'static Registry = Box::leak(Box::new(Registry::standard()));
        let hot = program::tiny();
        let churn = program::churn_set(opts.seed);
        let churn_sources: Vec<String> = churn.iter().map(Program::source).collect();
        let inputs = program::inputs(opts.seed, INPUT_POOL, PARTS);
        let hot_expected: Vec<Vec<i64>> = inputs.iter().map(|x| hot.kernel(reg, x)).collect();
        let churn_expected: Vec<Vec<i64>> = churn
            .iter()
            .enumerate()
            .map(|(p, plan)| plan.kernel(reg, &inputs[p % INPUT_POOL]))
            .collect();
        let server = NetServer::start(NetConfig {
            procs: PARTS,
            exec: policy(),
            tenants: vec![
                TenantSpec::new("hot").with_slo(
                    SloContract::parse(&format!("p99<{SLO_P99_MS}ms")).expect("contract parses"),
                ),
                TenantSpec::new("churn"),
            ],
            ..NetConfig::default()
        })
        .expect("loopback server starts on an ephemeral port");
        let mut clients: Vec<NetClient> = (0..2)
            .map(|_| NetClient::connect(server.local_addr()).expect("loopback connect"))
            .collect();
        let first = clients[0]
            .submit_source(HOT, Mode::Plain, &hot.source(), "", &inputs[0])
            .expect("hot plan compiles");
        check.output("hot first submission", &first.output, &hot_expected[0]);
        // warm-up: every churn plan once, a hot request between each so
        // the hot plan stays the most recently used and is never the LRU
        // victim — from here on, every miss is one of churn's
        let mut churn_served = 0;
        for (p, source) in churn_sources.iter().enumerate() {
            let idx = p % INPUT_POOL;
            match clients[1].submit_source(CHURN, Mode::Optimized, source, "", &inputs[idx]) {
                Ok(r) => {
                    churn_served += 1;
                    check.output("churn warm-up", &r.output, &churn_expected[p]);
                }
                Err(e) => check.error(&error_code(&e)),
            }
            match clients[0].submit_handle(HOT, first.handle, &inputs[idx]) {
                Ok(r) => check.output("hot warm-up", &r.output, &hot_expected[idx]),
                Err(e) => check.error(&error_code(&e)),
            }
        }
        Rig {
            reg,
            server: Some(server),
            clients,
            hot_handle: first.handle,
            hot_report: first.report,
            hot,
            inputs,
            hot_expected,
            churn,
            churn_sources,
            churn_expected,
            churn_served,
        }
    }

    /// `serve.cache_misses` == churn's request count (+ warm-up) + hot's
    /// one compile, exactly: the workload really does miss every time.
    /// Returns the server's stats document.
    fn check_misses(&self, check: &mut Check) -> String {
        let doc = self.server.as_ref().expect("server running").stats_json();
        let stats = json::parse(&doc).expect("server stats are JSON");
        let misses = stats.get("serve").map_or(0.0, |s| s.num("cache_misses")) as u64;
        check.invariant(misses == self.churn_served + 1, || {
            format!(
                "serve.cache_misses = {misses}, want churn's {} requests + hot's one compile",
                self.churn_served
            )
        });
        doc
    }

    /// Check the miss count one last time, shut the server down and join
    /// every thread it started.
    fn teardown(mut self, check: &mut Check) {
        self.check_misses(check);
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    /// One segment: both tenants paced at `rate / 2` for `secs` seconds.
    /// Returns `hot`'s and `churn`'s samples and the deepest admission
    /// queue seen (sampled only when `watch_queue`).
    fn segment(
        &mut self,
        seed: u64,
        rate: f64,
        secs: f64,
        tr: &mut Tracer,
        check: &mut Check,
        watch_queue: bool,
    ) -> (Vec<Sample>, Vec<Sample>, usize) {
        let hot_due = schedule(seed ^ 0x407, rate / 2.0, secs);
        let churn_due = schedule(seed ^ 0xc4a, rate / 2.0, secs);
        let churn_base = self.churn_served as usize;
        let (inputs, hot_expected, churn_expected) =
            (&self.inputs, &self.hot_expected, &self.churn_expected);
        let (sources, handle) = (&self.churn_sources, self.hot_handle);
        let [hot_client, churn_client] = &mut self.clients[..] else {
            unreachable!("two connections")
        };
        let server = self.server.as_ref().expect("server running");
        let (mut hot_tr, mut churn_tr) = (tr.fork(), tr.fork());
        let done = AtomicBool::new(false);
        let t0 = Instant::now();
        // stop sending once the segment has overrun by this much: a
        // saturated server must not stretch the run
        let give_up = Duration::from_secs_f64(secs + 1.0);

        let mut depth = 0usize;
        let ((hot_samples, hot_check, _), (churn_samples, churn_check, churn_served)) =
            std::thread::scope(|s| {
                let hot_thread = s.spawn(|| {
                    let out = pace(t0, secs, give_up, &hot_due, &mut hot_tr, &mut |i| {
                        let idx = i % INPUT_POOL;
                        hot_client
                            .submit_handle(HOT, handle, &inputs[idx])
                            .map(|r| r.output == hot_expected[idx])
                    });
                    done.store(true, Ordering::SeqCst);
                    out
                });
                let churn_thread = s.spawn(|| {
                    pace(t0, secs, give_up, &churn_due, &mut churn_tr, &mut |i| {
                        let p = (churn_base + i) % CHURN_PLANS;
                        churn_client
                            .submit_source(
                                CHURN,
                                Mode::Optimized,
                                &sources[p],
                                "",
                                &inputs[p % INPUT_POOL],
                            )
                            .map(|r| r.output == churn_expected[p])
                    })
                });
                while watch_queue && !done.load(Ordering::SeqCst) {
                    depth = depth.max(server.queue_depth());
                    std::thread::sleep(Duration::from_millis(2));
                }
                (
                    hot_thread.join().expect("hot generator clean"),
                    churn_thread.join().expect("churn generator clean"),
                )
            });
        self.churn_served += churn_served;
        check.merge(hot_check);
        check.merge(churn_check);
        tr.absorb(hot_tr);
        tr.absorb(churn_tr);
        (hot_samples, churn_samples, depth)
    }
}

/// Send one tenant's requests at their due times and time each from its
/// due time. A request whose turn comes after the segment has overrun by
/// `give_up` is not sent and counts as failed.
fn pace(
    t0: Instant,
    secs: f64,
    give_up: Duration,
    due: &[f64],
    tr: &mut Tracer,
    send: &mut dyn FnMut(usize) -> Result<bool, scl_net::ClientError>,
) -> (Vec<Sample>, Check, u64) {
    let mut samples = Vec::with_capacity(due.len());
    let mut check = Check::default();
    let mut served = 0u64;
    for (i, &d) in due.iter().enumerate() {
        let due_at = t0 + Duration::from_secs_f64(d);
        let now = Instant::now();
        if now < due_at {
            std::thread::sleep(due_at - now);
        } else if now - t0 > give_up {
            check.error("Unsent");
            continue;
        }
        let root = tr.begin("bench.request", 0, i as u64);
        let span = tr.begin("net.call", root, i as u64);
        let sent = Instant::now();
        let res = send(i);
        let finished = Instant::now();
        tr.end(span);
        tr.end(root);
        match res {
            Ok(right) => {
                served += 1;
                check.output("open loop", &right, &true);
                samples.push(Sample {
                    latency_ms: (finished - due_at).as_secs_f64() * 1e3,
                    late_ms: sent.saturating_duration_since(due_at).as_secs_f64() * 1e3,
                    at: d / secs,
                });
            }
            Err(e) => check.error(&error_code(&e)),
        }
    }
    (samples, check, served)
}

/// Everything measured at one arrival rate, pooled over its segments.
#[derive(Default)]
struct AtRate {
    hot_p50: Vec<f64>,
    hot_p75: Vec<f64>,
    churn_p50: Vec<f64>,
    hot_all: Vec<f64>,
    late_all: Vec<f64>,
    /// Mean generator lateness, second half minus first half, per segment.
    backlog_growth_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

pub fn run(opts: &Opts, rep: &mut Report) {
    let mut check = Check::default();
    let rounds = opts.rounds(9);
    let segment_secs = opts.seconds / (rounds * RATES.len()) as f64;
    rep.header.extend([
        ("rounds".to_string(), json::num(rounds as f64)),
        ("round_s".to_string(), json::num(segment_secs)),
    ]);
    let mut tracer = Tracer::new(Instant::now());
    let mut untraced: [AtRate; 3] = Default::default();
    let mut traced: [AtRate; 3] = Default::default();
    let mut setups = Vec::new();
    let mut queue_depth_max = 0usize;

    // ---- set-up, several times (`setup_s` is the median); the last
    // server is the one measured, through every round: an open loop
    // models a long-running service, and a server a second old answers
    // differently from one that has settled -------------------------------
    let setup_count = if opts.quick { 1 } else { 5 };
    let mut rig: Option<Rig> = None;
    for _ in 0..setup_count {
        if let Some(old) = rig.take() {
            old.teardown(&mut check);
        }
        let t0 = Instant::now();
        rig = Some(Rig::new(opts, &mut check));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    rep.set_e2e(0, setups, setup_count as u64);

    // ---- rounds: the three rates in turn, interleaved round-robin -------
    for round in 0..rounds {
        // the open loop's own load is too light to keep the host from
        // folding both vCPUs onto one core part-way through a run
        opts.waker.wake(Duration::from_millis(500));
        // a traced run alternates: even rounds untraced (the end-to-end
        // numbers), odd rounds traced (spans, and the overhead between them)
        let on = opts.trace && round % 2 == 1;
        tracer.set_on(on);
        for (r, &rate) in RATES.iter().enumerate() {
            let before = (check.attempted, check.failed());
            let seed = opts.seed ^ ((round * RATES.len() + r) as u64) << 20;
            let (hot, churn, depth) = rig.segment(
                seed,
                rate,
                segment_secs,
                &mut tracer,
                &mut check,
                opts.trace,
            );
            queue_depth_max = queue_depth_max.max(depth);
            let at = if on { &mut traced[r] } else { &mut untraced[r] };
            at.attempted += check.attempted - before.0;
            at.failed += check.failed() - before.1;
            let lat = |s: &[Sample]| s.iter().map(|x| x.latency_ms).collect::<Vec<_>>();
            if !hot.is_empty() {
                at.hot_p50.push(percentile(&lat(&hot), 50.0));
                at.hot_p75.push(percentile(&lat(&hot), 75.0));
            }
            if !churn.is_empty() {
                at.churn_p50.push(percentile(&lat(&churn), 50.0));
            }
            let half = |second: bool| {
                mean(
                    &hot.iter()
                        .chain(&churn)
                        .filter(|s| (s.at >= 0.5) == second)
                        .map(|s| s.late_ms)
                        .collect::<Vec<_>>(),
                )
            };
            at.backlog_growth_ms.push(half(true) - half(false));
            at.hot_all.extend(lat(&hot));
            at.late_all
                .extend(hot.iter().chain(&churn).map(|s| s.late_ms));
        }
    }
    let stats_doc = rig.check_misses(&mut check);
    let stats = json::parse(&stats_doc).expect("server stats are JSON");

    let [lo, mid, hi] = &untraced;
    let n = |a: &AtRate| a.hot_all.len() as u64;
    for (a, what) in [(lo, "lo"), (mid, "mid"), (hi, "hi")] {
        check.invariant(!a.hot_p50.is_empty() && !a.churn_p50.is_empty(), || {
            format!("no request completed at the {what} rate")
        });
    }
    if !check.correct() {
        // nothing to report a median of
        rig.teardown(&mut check);
        rep.check.merge(check);
        return;
    }
    rep.set_e2e(1, lo.hot_p50.clone(), n(lo));
    rep.set_e2e(2, mid.hot_p50.clone(), n(mid));
    rep.set_e2e(3, lo.churn_p50.clone(), n(lo));
    rep.set_e2e(4, mid.churn_p50.clone(), n(mid));
    rep.set_e2e(5, mid.hot_p75.clone(), n(mid));
    if !opts.trace {
        rig.teardown(&mut check);
        rep.check.merge(check);
        return;
    }

    // ---- per-layer metrics ----------------------------------------------
    rep.set_layer("open.lo_p99_ms", vec![percentile(&lo.hot_all, 99.0)], n(lo));
    rep.set_layer("open.hi_p99_ms", vec![percentile(&hi.hot_all, 99.0)], n(hi));
    rep.set_layer("open.hi_p50_ms", hi.hot_p50.clone(), n(hi));
    rep.set_layer(
        "open.mid_p99_ms",
        vec![percentile(&mid.hot_all, 99.0)],
        n(mid),
    );
    let all_late: Vec<f64> = untraced
        .iter()
        .flat_map(|a| a.late_all.iter().copied())
        .collect();
    rep.set_layer(
        "net.gen_late_p99_ms",
        vec![percentile(&all_late, 99.0)],
        all_late.len() as u64,
    );
    // the highest fixed rate that meets the limit without a growing backlog
    let ok = |a: &AtRate| {
        percentile(&a.hot_all, 99.0) <= SLO_P99_MS
            && a.failed as f64 <= 0.01 * a.attempted as f64
            && median(&a.backlog_growth_ms) <= 0.25
    };
    let max_ok = RATES
        .iter()
        .zip(&untraced)
        .filter(|(_, a)| ok(a))
        .map(|(r, _)| *r)
        .fold(0.0, f64::max);
    rep.set_layer_value("open.max_rate_ok", max_ok);
    rep.set_layer_value("open.churn_requests", rig.churn_served as f64);
    rep.set_layer_value(
        "trace.overhead_share",
        median(&traced[1].hot_p50) / median(&mid.hot_p50) - 1.0,
    );
    rep.set_layer_value(
        "trace.root_gap_share",
        crate::trace::worst_root_gap(tracer.spans()),
    );

    probes::server_counters(rep, &stats_doc, queue_depth_max);
    let serve = stats.get("serve").cloned().unwrap_or(Json::Null);
    rep.set_layer_value("serve.cache_hits", serve.num("cache_hits"));
    rep.set_layer_value("serve.cache_misses", serve.num("cache_misses"));
    rep.set_layer_value("serve.batches", serve.num("batches"));
    rep.set_layer_value("machine.makespan_s", rig.hot_report.makespan.as_secs());
    rep.set_layer_value("machine.messages", rig.hot_report.metrics.messages as f64);
    rep.set_layer_value("machine.bytes", rig.hot_report.metrics.bytes as f64);

    // closed loop, both connections flat out: the capacity RATES are a
    // fixed share of (reported so a drifted constant is visible)
    let closed: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let stop = Duration::from_secs_f64(if opts.quick { 0.1 } else { 0.5 });
            let (inputs, sources, handle) = (&rig.inputs, &rig.churn_sources, rig.hot_handle);
            let base = rig.churn_served as usize;
            let [hot_client, churn_client] = &mut rig.clients[..] else {
                unreachable!("two connections")
            };
            let (a, b) = std::thread::scope(|s| {
                let hot = s.spawn(|| {
                    let mut n = 0u64;
                    while t0.elapsed() < stop {
                        let _ =
                            hot_client.submit_handle(HOT, handle, &inputs[n as usize % INPUT_POOL]);
                        n += 1;
                    }
                    n
                });
                let churn = s.spawn(|| {
                    let mut n = 0u64;
                    // only requests the server accepted count as misses
                    while t0.elapsed() < stop {
                        let p = (base + n as usize) % CHURN_PLANS;
                        let sent = churn_client.submit_source(
                            CHURN,
                            Mode::Optimized,
                            &sources[p],
                            "",
                            &inputs[p % INPUT_POOL],
                        );
                        n += u64::from(sent.is_ok());
                    }
                    n
                });
                (hot.join().expect("clean"), churn.join().expect("clean"))
            });
            rig.churn_served += b;
            (a + b) as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    rep.set_layer("open.closed_loop_rps", closed, 3);

    rep.set_layer("net.ping_us", probes::ping(&mut rig.clients[0]), 450);

    // the compile path, layer by layer, in process
    let kernel_ns: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for x in &rig.inputs {
                std::hint::black_box(rig.hot.kernel(rig.reg, x));
            }
            t0.elapsed().as_nanos() as f64 / rig.inputs.len() as f64
        })
        .collect();
    rep.set_layer("kernel.ns_per_item", kernel_ns, 9 * INPUT_POOL as u64);
    probes::transform(
        rep,
        &rig.churn_sources,
        rig.reg,
        if opts.quick { 2 } else { 10 },
    );
    let exprs: Vec<_> = rig.churn.iter().take(8).map(Program::expr).collect();
    probes::fingerprint(rep, &exprs[0], rig.reg);
    probes::stream_build(rep, &exprs, rig.reg, PARTS);
    compile_per_miss(rep, &rig);
    probes::codec(rep, &rig.inputs[0], &rig.hot_report);
    probes::exec(rep, opts.quick);

    rig.teardown(&mut check);
    rep.check.merge(check);
    crate::write_trace(opts, &tracer, rep);
}

/// `Serve::submit_optimized` on a miss, in process: the whole compile a
/// churn request puts on the service thread (lower, §4 optimise, raise,
/// graph build), cycling the same 48 plans through a 32-entry cache.
fn compile_per_miss(rep: &mut Report, rig: &Rig) {
    let mut srv: Serve<ParArray<i64>, ParArray<i64>> =
        Serve::new(ServePolicy::new(machine(PARTS)).with_exec(policy()));
    let tenant = srv.add_tenant("churn");
    let mut rounds = Vec::new();
    for _ in 0..3 {
        let mut total = 0.0;
        for (p, source) in rig.churn_sources.iter().enumerate() {
            let expr = parse(source).expect("parses");
            let plan = Skel::from_expr(&expr, rig.reg).expect("raises");
            let input = ParArray::from_parts(rig.inputs[p % INPUT_POOL].clone());
            let t0 = Instant::now();
            let ticket = srv
                .submit_optimized(tenant, "", &plan, rig.reg, input)
                .expect("fits");
            total += t0.elapsed().as_secs_f64();
            srv.run_until_idle();
            let (out, _) = srv.take(ticket).expect("served");
            assert_eq!(
                out.parts(),
                rig.churn_expected[p],
                "in-process compile path"
            );
        }
        rounds.push(total * 1e6 / CHURN_PLANS as f64);
    }
    assert_eq!(
        srv.stats().cache_misses as usize,
        3 * CHURN_PLANS,
        "48 plans through a 32-entry LRU cache miss every time"
    );
    rep.set_layer("serve.compile_us_per_miss", rounds, 3 * CHURN_PLANS as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_ordered_and_at_the_asked_rate() {
        let a = schedule(9, 500.0, 4.0);
        assert_eq!(a, schedule(9, 500.0, 4.0), "same seed, same schedule");
        assert_ne!(a, schedule(10, 500.0, 4.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times increase");
        assert!(a.iter().all(|&t| (0.0..4.0).contains(&t)));
        // 2000 expected arrivals, standard deviation ~45
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn schedule_gaps_are_exponential_not_fixed() {
        let a = schedule(3, 1000.0, 10.0);
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let m = mean(&gaps);
        assert!((m - 1e-3).abs() < 1e-4, "mean gap {m}");
        // for an exponential the median gap is ln 2 of the mean
        let med = median(&gaps);
        assert!(
            (med / m - std::f64::consts::LN_2).abs() < 0.05,
            "median/mean {}",
            med / m
        );
    }
}
