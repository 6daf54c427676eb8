//! `apps_batch`: the paper's §5 programs on coarse `Vec` parts the wire
//! cannot carry — `psrs_sort`, `hyperquicksort_flat`, `msort_sort` and
//! `jacobi_scl` — in-process, beside plain baselines. Where the ladders
//! use the communication skeletons as 8-byte control barriers, these move
//! megabytes per call through them.

use crate::harness::{policy, AllocMeter, Opts};
use crate::probes;
use crate::report::{Check, Report};
use crate::stats::median;
use crate::trace::Tracer;
use scl_apps::workloads::uniform_keys;
use scl_apps::{hyperquicksort_flat, jacobi_scl, jacobi_seq, msort_sort, psrs_sort, JacobiResult};
use scl_core::prelude::*;
use scl_exec::ExecPolicy;
use scl_machine::MachineReport;
use scl_testkit::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Processors every application runs on (hypercube dimension 3).
const PARTS: usize = 8;
const APPS: [&str; 4] = ["psrs", "hqs", "msort", "jacobi"];

struct Rig {
    keys: Vec<i64>,
    sorted: Vec<i64>,
    field: Vec<f64>,
    relaxed: JacobiResult,
    sweeps: usize,
    /// One persistent context per application and policy: buffer pools and
    /// worker pools survive `reset`, as in a long-running program.
    cost: [Scl; 4],
    seq: [Scl; 4],
}

fn contexts(exec: ExecPolicy) -> [Scl; 4] {
    [
        Scl::ap1000(PARTS).with_policy(exec),
        Scl::hypercube(PARTS, CostModel::ap1000()).with_policy(exec),
        Scl::ap1000(PARTS).with_policy(exec),
        Scl::ap1000(PARTS).with_policy(exec),
    ]
}

/// What one application call produced.
struct Call {
    ms: f64,
    report: MachineReport,
    allocs: u64,
}

impl Rig {
    fn new(opts: &Opts, check: &mut Check) -> Rig {
        let (n_keys, n_points, sweeps) = if opts.quick {
            (1 << 14, 1 << 10, 20)
        } else {
            (1 << 20, 1 << 16, 200)
        };
        let keys = uniform_keys(n_keys, opts.seed);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let mut rng = Rng::seed_from_u64(opts.seed ^ 0x1ac0b1);
        let mut field = rng.vec_of(n_points, |r| r.range_f64(0.0, 100.0));
        field[0] = 0.0;
        field[n_points - 1] = 100.0;
        let relaxed = jacobi_seq(&field, 0.0, sweeps);
        let mut rig = Rig {
            keys,
            sorted,
            field,
            relaxed,
            sweeps,
            cost: contexts(policy()),
            seq: contexts(ExecPolicy::Sequential),
        };
        // one untimed warm-up call per application and policy
        for app in 0..APPS.len() {
            rig.call(app, false, check);
            rig.call(app, true, check);
        }
        rig
    }

    /// Run application `app` once on its persistent context and check its
    /// output against the plain baseline's (outside the clock).
    fn call(&mut self, app: usize, sequential: bool, check: &mut Check) -> Call {
        let scl = if sequential {
            &mut self.seq[app]
        } else {
            &mut self.cost[app]
        };
        scl.reset();
        let meter = AllocMeter::start();
        let t0 = Instant::now();
        let (keys, field) = match app {
            0 => (Some(psrs_sort(scl, &self.keys, PARTS)), None),
            1 => (
                Some(hyperquicksort_flat(scl, &self.keys, PARTS.trailing_zeros())),
                None,
            ),
            2 => (Some(msort_sort(scl, &self.keys, PARTS)), None),
            _ => (
                None,
                Some(jacobi_scl(scl, &self.field, PARTS, 0.0, self.sweeps)),
            ),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (allocs, _) = meter.stop();
        // sorts against `sort_unstable`, jacobi bitwise against `jacobi_seq`
        let right =
            keys.is_none_or(|k| k == self.sorted) && field.is_none_or(|f| f == self.relaxed);
        check.output(APPS[app], &right, &true);
        Call {
            ms,
            report: scl.machine.report(),
            allocs,
        }
    }
}

pub fn run(opts: &Opts, rep: &mut Report) {
    let mut check = Check::default();
    let mut setups = Vec::new();
    let mut tracer = Tracer::new(Instant::now());
    let mut cost_ms: [Vec<f64>; 4] = Default::default();
    let mut seq_ms: [Vec<f64>; 4] = Default::default();
    let mut traced_ms: Vec<f64> = Vec::new();
    let mut untraced_ms: Vec<f64> = Vec::new();
    let mut allocs: [Vec<f64>; 4] = Default::default();
    let mut reports: Vec<MachineReport> = Vec::new();
    let mut round = 0usize;

    // ---- a fresh set of contexts (pools, buffers) several times over, the
    // timed rounds shared between them: every application once per round,
    // under the benchmark's policy and under Sequential, interleaved -----
    let rigs = if opts.quick { 1 } else { 5 };
    let mut rig = None;
    for r in 0..rigs {
        drop(rig.take()); // contexts drop: worker pools join
        let t0 = Instant::now();
        let rig = rig.insert(Rig::new(opts, &mut check));
        setups.push(t0.elapsed().as_secs_f64());

        let share = opts.seconds / rigs as f64;
        let t0 = Instant::now();
        let first = round;
        while round < first + 2 || t0.elapsed().as_secs_f64() < share {
            tracer.set_on(opts.trace && round % 2 == 1);
            let mut total = 0.0;
            for app in 0..APPS.len() {
                let root = tracer.begin("bench.request", 0, round as u64);
                let span = tracer.begin(
                    ["apps.psrs", "apps.hqs", "apps.msort", "apps.jacobi"][app],
                    root,
                    round as u64,
                );
                let call = rig.call(app, false, &mut check);
                tracer.end(span);
                tracer.end(root);
                let seq = rig.call(app, true, &mut check);
                // layers differ in how they execute, never in what they charge
                check.invariant(call.report == seq.report, || {
                    format!(
                        "{}: MachineReport differs between CostDriven and Sequential: {} vs {}",
                        APPS[app], call.report, seq.report
                    )
                });
                if r == 0 && round == 0 {
                    reports.push(call.report.clone());
                } else {
                    check.invariant(call.report == reports[app], || {
                        format!("{}: MachineReport differs between rounds", APPS[app])
                    });
                }
                total += call.ms;
                cost_ms[app].push(call.ms);
                seq_ms[app].push(seq.ms);
                allocs[app].push(call.allocs as f64);
            }
            if tracer.is_on() {
                traced_ms.push(total);
            } else {
                untraced_ms.push(total);
            }
            round += 1;
        }
    }
    let rig = rig.expect("at least one set-up");
    rep.set_e2e(0, setups, rigs as u64);
    rep.header
        .push(("rounds".to_string(), crate::json::num(round as f64)));

    let n = round as u64;
    for (app, ms) in cost_ms.iter().enumerate() {
        rep.set_e2e(1 + app, ms.clone(), n);
    }
    let seq_suite: Vec<f64> = (0..round)
        .map(|r| seq_ms.iter().map(|v| v[r]).sum())
        .collect();
    rep.set_e2e(5, seq_suite, n);
    rep.check.merge(check);
    if !opts.trace {
        return;
    }

    // ---- per-layer metrics ----------------------------------------------
    let keys_sorted_ms: Vec<f64> = (0..9)
        .map(|_| {
            let mut v = rig.keys.clone();
            let t0 = Instant::now();
            v.sort_unstable();
            black_box(&v);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let jacobi_plain_ms: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            black_box(jacobi_seq(&rig.field, 0.0, rig.sweeps));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    for (app, name) in APPS.into_iter().enumerate() {
        let plain = if app == 3 {
            median(&jacobi_plain_ms)
        } else {
            median(&keys_sorted_ms)
        };
        rep.set_layer(&format!("apps.{name}_seq_ms"), seq_ms[app].clone(), n);
        rep.set_layer_value(
            &format!("apps.{name}_vs_plain"),
            median(&cost_ms[app]) / plain,
        );
        rep.set_layer(&format!("apps.{name}_allocs"), allocs[app].clone(), n);
    }
    let wall_cost: f64 = cost_ms.iter().map(|v| median(v)).sum();
    let wall_seq: f64 = seq_ms.iter().map(|v| median(v)).sum();
    rep.set_layer_value("apps.wall_speedup", wall_seq / wall_cost);
    rep.set_layer_value("exec.par_speedup", wall_seq / wall_cost);
    // plain baselines: per key sorted / per point relaxed, summed — the
    // floor the four applications sit on
    rep.set_layer_value(
        "kernel.ns_per_item",
        (3.0 * median(&keys_sorted_ms) + median(&jacobi_plain_ms)) * 1e6
            / (3 * rig.keys.len() + rig.field.len()) as f64,
    );

    // the simulated machine: what the four applications charge (exact;
    // identical under every policy and in every round, checked above),
    // and the speed-up its cost model predicts for 8 processors over 1
    let makespan: f64 = reports.iter().map(|r| r.makespan.as_secs()).sum();
    rep.set_layer_value("machine.makespan_s", makespan);
    rep.set_layer_value(
        "machine.messages",
        reports.iter().map(|r| r.metrics.messages).sum::<u64>() as f64,
    );
    rep.set_layer_value(
        "machine.bytes",
        reports.iter().map(|r| r.metrics.bytes).sum::<u64>() as f64,
    );
    let mut one = contexts(ExecPolicy::Sequential);
    black_box(psrs_sort(&mut one[0], &rig.keys, 1));
    black_box(hyperquicksort_flat(&mut one[1], &rig.keys, 0));
    black_box(jacobi_scl(&mut one[3], &rig.field, 1, 0.0, rig.sweeps));
    // `msort_plan` needs two processors; on one it would be the plain
    // local sort PSRS runs at p = 1, so that stands in
    let makespan_1: f64 = [0, 1, 0, 3]
        .iter()
        .map(|&i| one[i].makespan().as_secs())
        .sum();
    rep.set_layer_value("machine.model_speedup", makespan_1 / makespan);

    comm(rep, &rig.keys);
    probes::exec(rep, opts.quick);
    rep.set_layer_value(
        "trace.overhead_share",
        median(&traced_ms) / median(&untraced_ms) - 1.0,
    );
    rep.set_layer_value(
        "trace.root_gap_share",
        crate::trace::worst_root_gap(tracer.spans()),
    );
    crate::write_trace(opts, &tracer, rep);
}

/// scl-core's communication skeletons called directly on parts the size
/// `apps_batch` moves: 8 parts of `keys.len() / 8` keys each. The owned
/// skeletons consume their input, so one input per call is staged outside
/// the clock.
fn comm(rep: &mut Report, keys: &[i64]) {
    const CALLS: usize = 9;
    let mut scl = Scl::ap1000(PARTS).with_policy(policy());
    let parted = scl.partition_owned(Pattern::Block(PARTS), keys.to_vec());
    fn timed<I, O>(scl: &mut Scl, staged: Vec<I>, f: impl Fn(&mut Scl, I) -> O) -> Vec<f64> {
        staged
            .into_iter()
            .map(|input| {
                scl.reset();
                let t0 = Instant::now();
                black_box(f(scl, input));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect()
    }
    let partition = timed(&mut scl, vec![keys.to_vec(); CALLS], |scl, v| {
        scl.partition_owned(Pattern::Block(PARTS), v)
    });
    let rotate = timed(&mut scl, vec![parted.clone(); CALLS], |scl, a| {
        scl.rotate_owned(1, a)
    });
    // every part cut into 8 buckets, one per destination
    let bucketed = ParArray::from_parts(
        parted
            .parts()
            .iter()
            .map(|p| {
                p.chunks(p.len().div_ceil(PARTS))
                    .map(<[i64]>::to_vec)
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>(),
    );
    let exchange = timed(&mut scl, vec![bucketed; CALLS], |scl, a| {
        scl.total_exchange_owned(a)
    });
    let gather = timed(&mut scl, vec![parted; CALLS], |scl, a| scl.gather_owned(a));
    rep.set_layer("core.partition_ms", partition, CALLS as u64);
    rep.set_layer("core.rotate_ms", rotate, CALLS as u64);
    rep.set_layer("core.total_exchange_ms", exchange, CALLS as u64);
    rep.set_layer("core.gather_ms", gather, CALLS as u64);
}
