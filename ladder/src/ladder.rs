//! `ladder_heavy` and `ladder_tiny`: one plan, the same inputs, driven
//! through every rung — kernel loop → `Skel::run` → `Scl::run_fused` →
//! `StreamExec::run_stream` → `Serve` → `NetClient` over loopback — each
//! timed from outside, by calling the layer's public functions.

use crate::harness::{
    each, error_code, machine, median_of, policy, AllocMeter, Budget, Opts, Round,
};
use crate::probes;
use crate::program::{self, Program};
use crate::report::{Check, Report};
use crate::stats::{median, percentile};
use crate::trace::{self_times, Tracer};
use scl_core::prelude::*;
use scl_exec::ExecPolicy;
use scl_machine::MachineReport;
use scl_net::{Mode, NetClient, NetConfig, NetServer};
use scl_serve::{Serve, ServePolicy, TenantId, Ticket};
use scl_stream::{StreamExec, StreamPolicy};
use scl_transform::{eval, parse, Expr, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

type Arr = ParArray<i64>;
type Plan = Skel<'static, Arr, Arr>;

/// Distinct seeded inputs a round cycles through.
const INPUT_POOL: usize = 32;
/// The serve rung's batch: submit all, `run_until_idle`, take all.
const SERVE_BATCH: u64 = 256;
/// Items of the warm-up round each rung runs inside set-up.
const WARM_ITEMS: u64 = 32;

/// A rung of the ladder (plus the variants only a traced run times).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    Kernel,
    Eager,
    FusedSeq,
    FusedAuto,
    Fused,
    Stream,
    Serve,
    ServeSingle,
    Net1,
    NetN,
    NetSource,
}

impl Rung {
    fn is_fused(self) -> bool {
        matches!(self, Rung::Fused | Rung::FusedSeq | Rung::FusedAuto)
    }
}

/// The five rungs whose numbers are end-to-end metrics.
const E2E_RUNGS: [Rung; 5] = [
    Rung::Fused,
    Rung::Stream,
    Rung::Serve,
    Rung::NetN,
    Rung::Net1,
];

/// What the rungs run: the plan and its inputs (built once per run), and
/// the one layer under test (built per rung and round by
/// [`Rig::bring_up`], dropped by [`Rig::tear_down`]). Only the layer being
/// timed is alive while its clock runs, so no idle server thread or farm
/// worker of another rung takes a core from it, and every round samples a
/// fresh set of threads, connections and pools.
pub struct Rig {
    parts: usize,
    /// Rounds of an untraced run. The heavy plan's set-up costs half a
    /// second (its warm-up items are milliseconds each), so it gets nine;
    /// the tiny plan's costs little, and its wake-up-bound rungs settle
    /// into a different regime with every fresh set of threads, so it
    /// samples 36 of them in shorter rounds.
    full_rounds: usize,
    clients_wanted: usize,
    program: Program,
    reg: &'static Registry,
    expr: Expr,
    source: String,
    inputs: Vec<Vec<i64>>,
    expected: Vec<Vec<i64>>,
    plan: Plan,
    ctx: Option<Scl>,
    stream: Option<StreamExec<Arr, Arr>>,
    serve: Option<(Serve<Arr, Arr>, TenantId)>,
    server: Option<NetServer>,
    clients: Vec<NetClient>,
    handle: u64,
}

impl Rig {
    pub fn new(workload: &str, opts: &Opts, check: &mut Check) -> Rig {
        let (program, parts, full_rounds) = match workload {
            "ladder_heavy" => (program::heavy(), if opts.quick { 64 } else { 1024 }, 9),
            _ => (program::tiny(), 8, 36),
        };
        let reg: &'static Registry = Box::leak(Box::new(Registry::standard()));
        let source = program.source();
        let expr = parse(&source).expect("ladder source parses");
        let inputs = program::inputs(opts.seed, INPUT_POOL, parts);
        let expected: Vec<Vec<i64>> = inputs.iter().map(|x| program.kernel(reg, x)).collect();
        // the oracle itself, once, against the reference interpreter
        let reference = eval(&expr, reg, Value::Arr(inputs[0].clone())).and_then(Value::into_arr);
        check.invariant(reference.as_ref() == Ok(&expected[0]), || {
            "kernel oracle disagrees with scl_transform::eval".to_string()
        });
        Rig {
            parts,
            full_rounds,
            clients_wanted: opts.clients,
            plan: Skel::from_expr(&expr, reg).expect("ladder plan raises"),
            program,
            reg,
            expr,
            source,
            inputs,
            expected,
            ctx: None,
            stream: None,
            serve: None,
            server: None,
            clients: Vec::new(),
            handle: 0,
        }
    }

    /// Build the layer `rung` runs on, under the benchmark's policy.
    fn bring_up(&mut self, rung: Rung, check: &mut Check) {
        let raise = || Skel::from_expr(&self.expr, self.reg).expect("ladder plan raises");
        match rung {
            Rung::Kernel => {}
            Rung::Eager | Rung::Fused | Rung::FusedSeq | Rung::FusedAuto => {
                let exec = match rung {
                    Rung::FusedSeq => ExecPolicy::Sequential,
                    Rung::FusedAuto => ExecPolicy::auto(),
                    _ => policy(),
                };
                self.ctx = Some(Scl::new(machine(self.parts)).with_policy(exec));
            }
            Rung::Stream => {
                self.stream = Some(StreamExec::new(
                    raise(),
                    StreamPolicy::new(machine(self.parts)).with_exec(policy()),
                ));
            }
            Rung::Serve | Rung::ServeSingle => {
                let mut serve =
                    Serve::new(ServePolicy::new(machine(self.parts)).with_exec(policy()));
                let tenant = serve.add_tenant("bench");
                self.serve = Some((serve, tenant));
            }
            Rung::Net1 | Rung::NetN | Rung::NetSource => {
                let server = NetServer::start(NetConfig {
                    procs: self.parts,
                    exec: policy(),
                    ..NetConfig::default()
                })
                .expect("loopback server starts on an ephemeral port");
                let wanted = if rung == Rung::NetN {
                    self.clients_wanted
                } else {
                    1
                };
                self.clients = (0..wanted)
                    .map(|_| NetClient::connect(server.local_addr()).expect("loopback connect"))
                    .collect();
                let first = self.clients[0]
                    .submit_source(0, Mode::Plain, &self.source, "", &self.inputs[0])
                    .expect("first submission compiles the plan");
                check.output("net first submission", &first.output, &self.expected[0]);
                self.handle = first.handle;
                self.server = Some(server);
            }
        }
    }

    /// Drop the layer under test: the server is shut down and every
    /// thread it, the stream graph or the service started is joined.
    fn tear_down(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.ctx = None;
        self.stream = None;
        self.serve = None;
    }

    fn input(&self, idx: usize) -> Arr {
        Arr::from_parts(self.inputs[idx].clone())
    }

    /// One round of one rung. With `tr` switched on every call into a
    /// layer is recorded as a span under a `bench.request` root.
    pub fn run(&mut self, rung: Rung, budget: Budget, tr: &mut Tracer, check: &mut Check) -> Round {
        match rung {
            Rung::Kernel => self.closed_loop("kernel", budget, tr, check, |rig, idx, _, _| {
                Ok((rig.program.kernel(rig.reg, &rig.inputs[idx]), None))
            }),
            Rung::Eager => self.closed_loop("eager", budget, tr, check, |rig, idx, tr, root| {
                let input = rig.input(idx);
                let ctx = rig.ctx.as_mut().expect("context brought up");
                ctx.reset();
                let s = tr.begin("core.run", root, idx as u64);
                let out = rig.plan.run(ctx, input);
                tr.end(s);
                Ok((out.into_parts(), Some(ctx.machine.report())))
            }),
            Rung::Fused | Rung::FusedSeq | Rung::FusedAuto => {
                self.closed_loop("fused", budget, tr, check, |rig, idx, tr, root| {
                    let input = rig.input(idx);
                    let ctx = rig.ctx.as_mut().expect("context brought up");
                    ctx.reset();
                    let s = tr.begin("core.run_fused", root, idx as u64);
                    let out = ctx.run_fused(&rig.plan, input);
                    tr.end(s);
                    let out = out.map_err(|e| e.to_string())?;
                    Ok((out.into_parts(), Some(ctx.machine.report())))
                })
            }
            Rung::Stream => self.stream_round(budget, tr, check),
            Rung::Serve => self.serve_round(SERVE_BATCH, budget, tr, check),
            Rung::ServeSingle => self.serve_round(1, budget, tr, check),
            Rung::Net1 | Rung::NetSource => {
                let by_source = rung == Rung::NetSource;
                self.closed_loop("net", budget, tr, check, move |rig, idx, tr, root| {
                    let s = tr.begin("net.call", root, idx as u64);
                    let res = if by_source {
                        rig.clients[0].submit_source(
                            0,
                            Mode::Plain,
                            &rig.source,
                            "",
                            &rig.inputs[idx],
                        )
                    } else {
                        rig.clients[0].submit_handle(0, rig.handle, &rig.inputs[idx])
                    };
                    tr.end(s);
                    res.map(|r| (r.output, Some(r.report)))
                        .map_err(|e| error_code(&e))
                })
            }
            Rung::NetN => self.net_clients_round(budget, check),
        }
    }

    /// The shared closed loop: one item at a time, the next only after the
    /// previous completed; outputs are kept and checked after the clock
    /// stops.
    fn closed_loop(
        &mut self,
        label: &str,
        budget: Budget,
        tr: &mut Tracer,
        check: &mut Check,
        mut one: impl FnMut(
            &mut Rig,
            usize,
            &mut Tracer,
            u32,
        ) -> Result<(Vec<i64>, Option<MachineReport>), String>,
    ) -> Round {
        let mut outs: Vec<(usize, Vec<i64>)> = Vec::new();
        let mut round = Round::default();
        let meter = AllocMeter::start();
        let t0 = Instant::now();
        let mut prev = t0;
        let mut n = 0u64;
        while !budget.done(n, t0) {
            let idx = n as usize % INPUT_POOL;
            let root = tr.begin("bench.request", 0, n);
            let res = one(self, idx, tr, root);
            tr.end(root);
            let now = Instant::now();
            round.lat_ns.push((now - prev).as_nanos() as f64);
            prev = now;
            match res {
                Ok((out, report)) => {
                    if n == 0 {
                        round.report = report;
                    }
                    outs.push((idx, out));
                }
                Err(code) => check.error(&code),
            }
            n += 1;
        }
        round.secs = t0.elapsed().as_secs_f64();
        (round.allocs, round.alloc_bytes) = meter.stop();
        round.items = n;
        for (idx, out) in &outs {
            check.output(label, out, &self.expected[*idx]);
        }
        round
    }

    /// `StreamExec::run_stream` over the round's items. The first item
    /// goes through `push`/`pop_with_report` alone so its report can be
    /// compared; a traced round drives `push`/`try_pop` by hand, the way
    /// the `run_stream` adaptor does, to get a span per call.
    fn stream_round(&mut self, budget: Budget, tr: &mut Tracer, check: &mut Check) -> Round {
        let mut exec = self.stream.take().expect("stream graph brought up");
        let inputs = &self.inputs;
        let item = |n: u64| Arr::from_parts(inputs[n as usize % INPUT_POOL].clone());
        let mut outs: Vec<Vec<i64>> = Vec::new();
        let mut round = Round::default();
        let meter = AllocMeter::start();
        let t0 = Instant::now();

        exec.push(item(0)).expect("input fits the machine");
        let (first, report) = exec.pop_with_report().expect("one item in flight");
        outs.push(first.into_parts());
        round.report = Some(report);

        let mut fed = 1u64;
        if tr.is_on() {
            let root = tr.begin("bench.request", 0, 0);
            let mut exhausted = false;
            loop {
                let s = tr.begin("stream.pop", root, fed);
                let got = if exhausted {
                    exec.pop()
                } else {
                    exec.try_pop()
                };
                tr.end(s);
                match got {
                    Some(out) => outs.push(out.into_parts()),
                    None if exhausted => break,
                    None if budget.done(fed, t0) => exhausted = true,
                    None => {
                        let s = tr.begin("stream.push", root, fed);
                        exec.push(item(fed)).expect("input fits the machine");
                        tr.end(s);
                        fed += 1;
                    }
                }
            }
            tr.end(root);
        } else {
            let feed = std::iter::from_fn(|| {
                (!budget.done(fed, t0)).then(|| {
                    fed += 1;
                    item(fed - 1)
                })
            });
            let mut it = exec.run_stream(feed);
            outs.extend(it.by_ref().map(Arr::into_parts));
            exec = it.into_executor();
        }
        round.secs = t0.elapsed().as_secs_f64();
        (round.allocs, round.alloc_bytes) = meter.stop();
        round.items = outs.len() as u64;
        for (i, out) in outs.iter().enumerate() {
            check.output("stream", out, &self.expected[i % INPUT_POOL]);
        }
        self.stream = Some(exec);
        round
    }

    /// `Serve` in batches of `batch`: submit all (the plan rebuilt per
    /// submit from the pre-parsed `Expr`, as the API consumes it), run the
    /// service rounds, take all.
    fn serve_round(
        &mut self,
        batch: u64,
        budget: Budget,
        tr: &mut Tracer,
        check: &mut Check,
    ) -> Round {
        let batch = match budget {
            Budget::Items(k) => batch.min(k),
            Budget::Time(_) => batch,
        };
        let (mut serve, tenant) = self.serve.take().expect("service brought up");
        let mut outs: Vec<Vec<i64>> = Vec::new();
        let mut round = Round::default();
        let meter = AllocMeter::start();
        let t0 = Instant::now();
        let mut n = 0u64;
        while !budget.done(n, t0) {
            let root = tr.begin("bench.request", 0, n);
            let tickets: Vec<Ticket> = (n..n + batch)
                .map(|i| {
                    let input = self.input(i as usize % INPUT_POOL);
                    let s = tr.begin("serve.plan_build", root, i);
                    let plan = Skel::from_expr(&self.expr, self.reg).expect("ladder plan raises");
                    tr.end(s);
                    let s = tr.begin("serve.submit", root, i);
                    let ticket = serve.submit(tenant, plan, input);
                    tr.end(s);
                    ticket.expect("input fits the machine")
                })
                .collect();
            if tr.is_on() {
                // `run_until_idle`, one span per service round
                while serve.pending_requests() > 0 {
                    let s = tr.begin("serve.step", root, n);
                    serve.step();
                    tr.end(s);
                }
            } else {
                serve.run_until_idle();
            }
            for (i, ticket) in tickets.into_iter().enumerate() {
                let s = tr.begin("serve.take", root, n + i as u64);
                let (out, report) = serve.take(ticket).expect("served by run_until_idle");
                tr.end(s);
                if n == 0 && i == 0 {
                    round.report = Some(report);
                }
                outs.push(out.into_parts());
            }
            tr.end(root);
            n += batch;
        }
        round.secs = t0.elapsed().as_secs_f64();
        (round.allocs, round.alloc_bytes) = meter.stop();
        round.items = n;
        for (i, out) in outs.iter().enumerate() {
            check.output("serve", out, &self.expected[i % INPUT_POOL]);
        }
        self.serve = Some((serve, tenant));
        round
    }

    /// Every client connection in its own thread, each a closed loop of
    /// `submit_handle`; the round's figure is requests per second across
    /// all of them. (Never traced: the one-client rung has the spans.)
    fn net_clients_round(&mut self, budget: Budget, check: &mut Check) -> Round {
        let per_client = match budget {
            Budget::Items(k) => Budget::Items((k / self.clients.len() as u64).max(1)),
            time => time,
        };
        let (inputs, expected, handle) = (&self.inputs, &self.expected, self.handle);
        let meter = AllocMeter::start();
        let t0 = Instant::now();
        let results: Vec<(u64, Option<MachineReport>, Check)> = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let mut check = Check::default();
                        let mut report = None;
                        let mut n = 0u64;
                        while !per_client.done(n, t0) {
                            // clients start at different inputs
                            let idx = (n as usize + c * 7) % INPUT_POOL;
                            match client.submit_handle(0, handle, &inputs[idx]) {
                                Ok(r) => {
                                    check.output("net", &r.output, &expected[idx]);
                                    if n == 0 {
                                        report = Some(r.report);
                                    }
                                }
                                Err(e) => {
                                    check.error(&error_code(&e));
                                    if !matches!(e, scl_net::ClientError::Server { .. }) {
                                        break; // transport gone: this client is done
                                    }
                                }
                            }
                            n += 1;
                        }
                        (n, report, check)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread clean"))
                .collect()
        });
        let mut round = Round {
            secs: t0.elapsed().as_secs_f64(),
            ..Round::default()
        };
        (round.allocs, round.alloc_bytes) = meter.stop();
        for (n, report, c) in results {
            round.items += n;
            round.report = round.report.or(report);
            check.merge(c);
        }
        round
    }
}

/// Counters read off the layer under test before it is torn down (traced
/// runs only; the last round's values stand).
#[derive(Default)]
struct Counters {
    farm_service_ns: f64,
    barrier_service_ns: f64,
    peak_in_flight: f64,
    cache_hits: f64,
    cache_misses: f64,
    batches: f64,
    server_stats: String,
    queue_depth_max: usize,
    ping_us: Vec<f64>,
}

impl Counters {
    fn read(&mut self, rig: &mut Rig, rung: Rung, check: &mut Check) {
        if let (Rung::Stream, Some(stream)) = (rung, &rig.stream) {
            let stages = stream.stage_stats();
            let service = |farm: bool| {
                let v: Vec<f64> = stages
                    .iter()
                    .filter(|s| s.farm == farm && s.items > 0)
                    .map(|s| s.mean_service_secs * 1e9)
                    .collect();
                if v.is_empty() {
                    0.0
                } else {
                    median(&v)
                }
            };
            self.farm_service_ns = service(true);
            self.barrier_service_ns = service(false);
            self.peak_in_flight = stream.peak_in_flight() as f64;
        }
        if let (Rung::Serve, Some((serve, _))) = (rung, &rig.serve) {
            let stats = serve.stats();
            self.cache_hits = stats.cache_hits as f64;
            self.cache_misses = stats.cache_misses as f64;
            self.batches = stats.batches as f64;
            check.invariant(stats.cache_misses == 1, || {
                format!(
                    "one plan, one compile: serve.cache_misses = {}",
                    stats.cache_misses
                )
            });
        }
        if let Some(server) = &rig.server {
            self.queue_depth_max = self.queue_depth_max.max(server.queue_depth());
            if rung == Rung::Net1 {
                self.ping_us = probes::ping(&mut rig.clients[0]);
                self.server_stats = server.stats_json();
            }
        }
    }
}

/// Run a ladder workload and fill the report.
pub fn run(opts: &Opts, rep: &mut Report) {
    let mut check = Check::default();
    let mut rig = Rig::new(&opts.workload, opts, &mut check);

    // ---- what is timed: the five end-to-end rungs; a traced run adds the
    // per-layer variants and a traced pass of each call path -------------
    let mut things: Vec<(Rung, bool)> = E2E_RUNGS.iter().map(|r| (*r, false)).collect();
    if opts.trace {
        things.extend(
            [
                Rung::Kernel,
                Rung::Eager,
                Rung::FusedSeq,
                Rung::FusedAuto,
                Rung::ServeSingle,
                Rung::NetSource,
            ]
            .map(|r| (r, false)),
        );
        things.extend(
            [
                Rung::Eager,
                Rung::Fused,
                Rung::Stream,
                Rung::Serve,
                Rung::Net1,
            ]
            .map(|r| (r, true)),
        );
    }
    let rounds = opts.rounds(rig.full_rounds);
    let slice = Duration::from_secs_f64(opts.seconds / (rounds * things.len()) as f64);
    rep.header.extend([
        ("rounds".to_string(), crate::json::num(rounds as f64)),
        ("round_s".to_string(), crate::json::num(slice.as_secs_f64())),
    ]);
    let mut tracer = Tracer::new(Instant::now());
    let mut off = Tracer::new(Instant::now());
    let mut results: BTreeMap<(Rung, bool), Vec<Round>> = BTreeMap::new();
    let mut setups = Vec::new();
    let mut counters = Counters::default();

    // ---- rounds, the rungs interleaved round-robin. Each rung of each
    // round: bring its layer up and warm it (one untimed round: caches
    // filled, pools spawned, plan compiled) — that is the set-up `setup_s`
    // times, summed over the five end-to-end rungs — then the timed slice,
    // then tear it down ---------------------------------------------------
    for _ in 0..rounds {
        let mut setup = 0.0;
        let mut reports: Vec<(Rung, MachineReport)> = Vec::new();
        for &(rung, traced) in &things {
            let t0 = Instant::now();
            rig.bring_up(rung, &mut check);
            rig.run(rung, Budget::Items(WARM_ITEMS), &mut off, &mut check);
            if !traced && E2E_RUNGS.contains(&rung) {
                setup += t0.elapsed().as_secs_f64();
            }
            tracer.set_on(traced);
            let round = rig.run(rung, Budget::Time(slice), &mut tracer, &mut check);
            if let Some(r) = &round.report {
                reports.push((rung, r.clone()));
            }
            if opts.trace && !traced {
                counters.read(&mut rig, rung, &mut check);
            }
            rig.tear_down();
            results.entry((rung, traced)).or_default().push(round);
        }
        setups.push(setup);
        // the first item of every round: one accounting at every rung
        if let Some((base_rung, base)) = reports.iter().find(|(rung, _)| !rung.is_fused()) {
            for (rung, r) in &reports {
                let mut r = r.clone();
                if rung.is_fused() {
                    // by design the fused executor charges one summed
                    // compute event per part per segment where the other
                    // rungs replay one per stage: same work, same makespan,
                    // fewer steps — every other field must still agree
                    r.metrics.compute_steps = base.metrics.compute_steps;
                }
                check.invariant(&r == base, || {
                    format!(
                        "MachineReport differs between {base_rung:?} and {rung:?}: {base} vs {r}"
                    )
                });
            }
        }
    }
    rep.set_e2e(0, setups, rounds as u64);

    // ---- end-to-end metrics (always from untraced rounds) ---------------
    let get = |rung: Rung, traced: bool| {
        results
            .get(&(rung, traced))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    };
    let items = |rung: Rung| get(rung, false).iter().map(|r| r.items).sum::<u64>();
    for (slot, rung) in [
        (1, Rung::Fused),
        (2, Rung::Stream),
        (3, Rung::Serve),
        (4, Rung::NetN),
    ] {
        rep.set_e2e(
            slot,
            each(get(rung, false), Round::ms_per_item),
            items(rung),
        );
    }
    let net1 = get(Rung::Net1, false);
    rep.set_e2e(
        5,
        each(net1, |r| percentile(&r.lat_ns, 50.0) / 1e6),
        items(Rung::Net1),
    );
    rep.check.merge(check);
    if !opts.trace {
        return;
    }

    // ---- per-layer metrics (traced run) ---------------------------------
    let ns = |rung: Rung| median_of(get(rung, false), Round::ns_per_item);
    let layer_ns = |rep: &mut Report, name: &str, rung: Rung| {
        rep.set_layer(
            name,
            each(get(rung, false), Round::ns_per_item),
            items(rung),
        );
    };
    layer_ns(rep, "kernel.ns_per_item", Rung::Kernel);
    layer_ns(rep, "core.eager_ns_per_item", Rung::Eager);
    layer_ns(rep, "core.fused_seq_ns_per_item", Rung::FusedSeq);
    layer_ns(rep, "core.fused_auto_ns_per_item", Rung::FusedAuto);
    layer_ns(rep, "serve.single_ns_per_item", Rung::ServeSingle);
    rep.set_layer_value(
        "core.fused_over_kernel_ns",
        ns(Rung::Fused) - ns(Rung::Kernel),
    );
    rep.set_layer_value("stream.over_fused_ns", ns(Rung::Stream) - ns(Rung::Fused));
    rep.set_layer_value("serve.over_stream_ns", ns(Rung::Serve) - ns(Rung::Stream));
    rep.set_layer_value("exec.par_speedup", ns(Rung::FusedSeq) / ns(Rung::FusedAuto));
    rep.set_layer_value(
        "exec.cost_vs_best",
        ns(Rung::Fused) / ns(Rung::FusedSeq).min(ns(Rung::FusedAuto)),
    );
    let per_item = |rounds: &[Round], f: fn(&Round) -> u64| {
        each(rounds, |r| f(r) as f64 / r.items.max(1) as f64)
    };
    rep.set_layer(
        "core.fused_allocs_per_item",
        per_item(get(Rung::Fused, false), |r| r.allocs),
        items(Rung::Fused),
    );
    rep.set_layer(
        "core.fused_alloc_bytes_per_item",
        per_item(get(Rung::Fused, false), |r| r.alloc_bytes),
        items(Rung::Fused),
    );
    rep.set_layer(
        "stream.allocs_per_item",
        per_item(get(Rung::Stream, false), |r| r.allocs),
        items(Rung::Stream),
    );
    rep.set_layer(
        "serve.allocs_per_item",
        per_item(get(Rung::Serve, false), |r| r.allocs),
        items(Rung::Serve),
    );

    let p50 = |rung: Rung| median_of(get(rung, false), |r| percentile(&r.lat_ns, 50.0));
    let pooled: Vec<f64> = net1.iter().flat_map(|r| r.lat_ns.iter().copied()).collect();
    rep.set_layer(
        "net.p99_ms",
        vec![percentile(&pooled, 99.0) / 1e6],
        pooled.len() as u64,
    );
    rep.set_layer(
        "net.rps_1_client",
        each(net1, |r| r.items as f64 / r.secs),
        items(Rung::Net1),
    );
    rep.set_layer_value("net.over_serve_ns", p50(Rung::Net1) - ns(Rung::ServeSingle));
    rep.set_layer_value(
        "net.source_vs_handle_ns",
        p50(Rung::NetSource) - p50(Rung::Net1),
    );

    // spans: what each public call costs, and where a request's time goes
    let by_name = self_times(tracer.spans());
    let span_mean = |name: &str| by_name.get(name).map_or(0.0, |t| t.mean_ns());
    let traced_items =
        |rung: Rung| get(rung, true).iter().map(|r| r.items).sum::<u64>().max(1) as f64;
    rep.set_layer_value("serve.plan_build_ns", span_mean("serve.plan_build"));
    rep.set_layer_value("serve.submit_ns", span_mean("serve.submit"));
    rep.set_layer_value("serve.take_ns", span_mean("serve.take"));
    rep.set_layer_value(
        "serve.step_ns_per_item",
        by_name.get("serve.step").map_or(0.0, |t| t.total_ns as f64) / traced_items(Rung::Serve),
    );
    rep.set_layer_value("stream.push_ns", span_mean("stream.push"));
    rep.set_layer_value(
        "stream.pop_wait_ns",
        by_name.get("stream.pop").map_or(0.0, |t| t.total_ns as f64) / traced_items(Rung::Stream),
    );
    rep.set_layer_value(
        "trace.root_gap_share",
        crate::trace::worst_root_gap(tracer.spans()),
    );
    // tracing overhead: traced over untraced medians, averaged over the
    // rungs that ran both ways
    let overheads: Vec<f64> = [
        Rung::Eager,
        Rung::Fused,
        Rung::Stream,
        Rung::Serve,
        Rung::Net1,
    ]
    .iter()
    .map(|&r| median_of(get(r, true), Round::ns_per_item) / ns(r) - 1.0)
    .collect();
    rep.set_layer_value("trace.overhead_share", crate::stats::mean(&overheads));

    // counters at the same boundaries
    rep.set_layer_value("stream.farm_service_ns", counters.farm_service_ns);
    rep.set_layer_value("stream.barrier_service_ns", counters.barrier_service_ns);
    rep.set_layer_value("stream.peak_in_flight", counters.peak_in_flight);
    rep.set_layer_value("serve.cache_hits", counters.cache_hits);
    rep.set_layer_value("serve.cache_misses", counters.cache_misses);
    rep.set_layer_value("serve.batches", counters.batches);
    let report = net1[0].report.clone().expect("the first item's report");
    rep.set_layer_value("machine.makespan_s", report.makespan.as_secs());
    rep.set_layer_value("machine.messages", report.metrics.messages as f64);
    rep.set_layer_value("machine.bytes", report.metrics.bytes as f64);
    rep.set_layer("net.ping_us", counters.ping_us.clone(), 450);
    probes::server_counters(rep, &counters.server_stats, counters.queue_depth_max);

    // direct calls
    let sources = [rig.source.clone()];
    probes::transform(rep, &sources, rig.reg, if opts.quick { 5 } else { 50 });
    // the first compile: plan build + graph build on a cold service
    let compile: Vec<f64> = (0..9)
        .map(|_| {
            let mut cold: Serve<Arr, Arr> =
                Serve::new(ServePolicy::new(machine(rig.parts)).with_exec(policy()));
            let tenant = cold.add_tenant("cold");
            let plan = Skel::from_expr(&rig.expr, rig.reg).expect("raises");
            let input = rig.input(0);
            let t0 = Instant::now();
            cold.submit(tenant, plan, input).expect("fits");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    rep.set_layer("serve.compile_us_per_miss", compile, 9);
    probes::fingerprint(rep, &rig.expr, rig.reg);
    probes::stream_build(rep, std::slice::from_ref(&rig.expr), rig.reg, rig.parts);
    probes::codec(rep, &rig.inputs[0], &report);
    probes::exec(rep, opts.quick);

    crate::write_trace(opts, &tracer, rep);
}
