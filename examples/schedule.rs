//! How each execution policy schedules a light plan and a heavy sweep.
//!
//! Two workloads, each under `Sequential`, `Threads(2)` and
//! `ExecPolicy::cost_driven()`:
//!
//! * the benchmark ladder's tiny plan — sixteen one-line symbolic maps
//!   between four barriers, over eight `i64` parts — run as one reused
//!   plan object through `Scl::run_fused` and `Skel::run`, ns per item;
//! * jacobi's relaxation sweep — eight parts of 8 192 `f64`, each mapped
//!   by value — ns per sweep.
//!
//! The cost-driven policy fans a segment out only while its last run
//! measured at least `scl_exec::FAN_OUT_NS` of work, so the tiny plan's
//! segments should run inline from their second run on, near the
//! `Sequential` figure, while the sweep gets both threads. The example
//! checks that every policy computes the same outputs and the same
//! `MachineReport`s; the timings are printed, never asserted. The table
//! is markdown.
//!
//! ```text
//! cargo run --release --example schedule [items]
//! ```

use scl::apps::jacobi::jacobi_scl;
use scl::exec::FAN_OUT_NS;
use scl::machine::MachineReport;
use scl::prelude::*;
use std::time::Instant;

const PARTS: usize = 8;
const ROUNDS: usize = 3;
const POINTS: usize = 1 << 16;
const SWEEPS: usize = 100;

type Arr = ParArray<i64>;

fn policies() -> [(&'static str, ExecPolicy); 3] {
    [
        ("seq", ExecPolicy::Sequential),
        ("threads:2", ExecPolicy::Threads(2)),
        ("cost", ExecPolicy::cost_driven()),
    ]
}

/// The ladder's tiny plan, in execution order.
fn tiny(reg: &Registry) -> Skel<'_, Arr, Arr> {
    let ops = ["inc", "double", "dec", "neg"];
    let mut plan = Skel::identity();
    for i in 0..16 {
        plan = plan.then(Skel::map_sym(ops[i % 4], reg));
        plan = match i {
            3 => plan.then(Skel::rotate(1)),
            7 => plan.then(Skel::scan_sym("add", reg)),
            11 => plan.then(Skel::fetch_sym("rev", reg)),
            13 => plan.then(Skel::rotate(-1)),
            _ => plan,
        };
    }
    plan
}

/// The median of `ROUNDS` timings of `round`, in ns per item.
fn median_ns(items: usize, mut round: impl FnMut()) -> f64 {
    let mut ns: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            round();
            t0.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ROUNDS / 2]
}

/// A table row: label, unit, and the run under one policy.
type Workload<'a> = (&'a str, &'a str, &'a dyn Fn(ExecPolicy) -> Row);

/// What one policy computed and charged, and how fast.
struct Row {
    ns: f64,
    outputs: Vec<Vec<i64>>,
    report: MachineReport,
}

/// `items` inputs through one reused tiny plan, by `run_fused` or
/// `Skel::run`.
fn tiny_row(reg: &Registry, policy: ExecPolicy, fused: bool, items: usize) -> Row {
    let inputs: Vec<Arr> = (0..PARTS as i64)
        .map(|k| Arr::from_parts((0..PARTS as i64).map(|i| i * 13 - k * 7).collect()))
        .collect();
    let machine = Machine::new(Topology::FullyConnected { procs: PARTS }, CostModel::unit());
    let mut scl = Scl::new(machine).with_policy(policy);
    let plan = tiny(reg);
    let one = |scl: &mut Scl, k: usize| {
        scl.reset();
        let input = inputs[k % inputs.len()].clone();
        if fused {
            scl.run_fused(&plan, input)
                .expect("the plan fits the machine")
        } else {
            plan.run(scl, input)
        }
    };
    let outputs: Vec<Vec<i64>> = (0..inputs.len())
        .map(|k| one(&mut scl, k).to_vec())
        .collect();
    let report = scl.machine.report();
    let ns = median_ns(items, || {
        for k in 0..items {
            std::hint::black_box(one(&mut scl, k));
        }
    });
    Row {
        ns,
        outputs,
        report,
    }
}

/// `SWEEPS` jacobi sweeps over eight parts of 8 192 points.
fn jacobi_row(policy: ExecPolicy) -> Row {
    let mut field: Vec<f64> = (0..POINTS).map(|i| (i * 37 % 101) as f64).collect();
    field[0] = 0.0;
    field[POINTS - 1] = 100.0;
    let mut scl = Scl::ap1000(PARTS).with_policy(policy);
    let run = |scl: &mut Scl| {
        scl.reset();
        jacobi_scl(scl, &field, PARTS, 0.0, SWEEPS)
    };
    let out = run(&mut scl);
    let report = scl.machine.report();
    let ns = median_ns(SWEEPS, || {
        std::hint::black_box(run(&mut scl));
    });
    Row {
        ns,
        outputs: vec![out.u.iter().map(|x| x.to_bits() as i64).collect()],
        report,
    }
}

fn main() {
    let items: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let reg = Registry::standard();

    println!(
        "### Schedule by policy ({PARTS} parts, fan-out at {} µs of measured work)\n",
        FAN_OUT_NS / 1_000
    );
    print!("| workload | unit |");
    for (name, _) in policies() {
        print!(" `{name}` |");
    }
    println!("\n|---|---|---:|---:|---:|");

    let workloads: [Workload; 3] = [
        ("tiny, `run_fused`", "ns/item", &|p| {
            tiny_row(&reg, p, true, items)
        }),
        ("tiny, `Skel::run`", "ns/item", &|p| {
            tiny_row(&reg, p, false, items)
        }),
        ("jacobi sweep", "ns/sweep", &jacobi_row),
    ];
    for (label, unit, row) in workloads {
        let rows: Vec<Row> = policies().into_iter().map(|(_, p)| row(p)).collect();
        for ((name, _), r) in policies().iter().zip(&rows) {
            assert_eq!(
                r.outputs, rows[0].outputs,
                "{label}: `{name}` computes otherwise"
            );
            assert_eq!(
                r.report, rows[0].report,
                "{label}: `{name}` charges otherwise"
            );
        }
        print!("| {label} | {unit} |");
        for r in &rows {
            print!(" {:.0} |", r.ns);
        }
        println!();
    }
    println!("\nEvery policy computed the same outputs and charged the same reports.");
}
