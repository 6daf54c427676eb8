//! Host-threading sweep: every application must produce identical results
//! and identical *virtual* time whether its partition-local closures run
//! sequentially or on the from-scratch thread pool. (Virtual time models
//! the simulated machine; host threading is a pure implementation detail.)

use scl::apps::workloads::{diag_dominant_system, random_matrix, uniform_keys};
use scl::prelude::*;

fn two_ctxs(p: usize) -> (Scl, Scl) {
    (
        Scl::ap1000(p),
        Scl::ap1000(p).with_policy(ExecPolicy::Threads(4)),
    )
}

#[test]
fn hyperquicksort_threaded_equivalence() {
    let data = uniform_keys(8_000, 1);
    let (mut a, mut b) = (
        Scl::hypercube(8, CostModel::ap1000()),
        Scl::hypercube(8, CostModel::ap1000()).with_policy(ExecPolicy::Threads(4)),
    );
    let ra = scl::apps::hyperquicksort::hyperquicksort_flat(&mut a, &data, 3);
    let rb = scl::apps::hyperquicksort::hyperquicksort_flat(&mut b, &data, 3);
    assert_eq!(ra, rb);
    assert_eq!(a.makespan(), b.makespan());
    assert_eq!(a.machine.metrics, b.machine.metrics);
}

#[test]
fn gauss_threaded_equivalence() {
    let (m, rhs) = diag_dominant_system(24, 2);
    let (mut a, mut b) = two_ctxs(6);
    let ra = scl::apps::gauss::gauss_jordan_scl(&mut a, &m, &rhs, 6);
    let rb = scl::apps::gauss::gauss_jordan_scl(&mut b, &m, &rhs, 6);
    assert_eq!(ra, rb);
    assert_eq!(a.makespan(), b.makespan());
}

#[test]
fn cannon_threaded_equivalence() {
    let x = random_matrix(12, 12, 3);
    let y = random_matrix(12, 12, 4);
    let (mut a, mut b) = two_ctxs(4);
    let ra = scl::apps::cannon::cannon_matmul(&mut a, &x, &y, 2);
    let rb = scl::apps::cannon::cannon_matmul(&mut b, &x, &y, 2);
    assert_eq!(ra, rb);
    assert_eq!(a.makespan(), b.makespan());
}

#[test]
fn jacobi_threaded_equivalence() {
    let mut u0 = vec![0.0f64; 64];
    u0[63] = 100.0;
    let (mut a, mut b) = two_ctxs(4);
    let ra = scl::apps::jacobi::jacobi_scl(&mut a, &u0, 4, 1e-4, 200);
    let rb = scl::apps::jacobi::jacobi_scl(&mut b, &u0, 4, 1e-4, 200);
    assert_eq!(ra, rb);
    assert_eq!(a.makespan(), b.makespan());
}

#[test]
fn psrs_threaded_equivalence() {
    let data = uniform_keys(6_000, 5);
    let (mut a, mut b) = two_ctxs(6);
    let ra = scl::apps::psrs::psrs_sort(&mut a, &data, 6);
    let rb = scl::apps::psrs::psrs_sort(&mut b, &data, 6);
    assert_eq!(ra, rb);
    assert_eq!(a.makespan(), b.makespan());
}

#[test]
fn fft_threaded_equivalence() {
    let x: Vec<(f64, f64)> = (0..512)
        .map(|i| ((i as f64 * 0.1).sin(), (i as f64 * 0.07).cos()))
        .collect();
    let (mut a, mut b) = (
        Scl::hypercube(8, CostModel::ap1000()),
        Scl::hypercube(8, CostModel::ap1000()).with_policy(ExecPolicy::Threads(4)),
    );
    let ra = scl::apps::fft::fft_scl(&mut a, &x, 8);
    let rb = scl::apps::fft::fft_scl(&mut b, &x, 8);
    assert_eq!(ra, rb);
    assert_eq!(a.makespan(), b.makespan());
}

#[test]
fn nbody_threaded_equivalence() {
    let bodies = scl::apps::nbody::random_bodies(128, 7);
    let (mut a, mut b) = two_ctxs(8);
    let ra = scl::apps::nbody::forces_scl(&mut a, &bodies, 8);
    let rb = scl::apps::nbody::forces_scl(&mut b, &bodies, 8);
    assert_eq!(ra, rb);
    assert_eq!(a.makespan(), b.makespan());
}

#[test]
fn kmeans_threaded_equivalence() {
    let pts = scl::apps::kmeans::random_points(500, 9);
    let init: Vec<[f64; 2]> = vec![[0.2, 0.2], [0.8, 0.8], [0.5, 0.1]];
    let (mut a, mut b) = two_ctxs(4);
    let ra = scl::apps::kmeans::kmeans_scl(&mut a, &pts, &init, 4, 50);
    let rb = scl::apps::kmeans::kmeans_scl(&mut b, &pts, &init, 4, 50);
    assert_eq!(ra, rb);
    assert_eq!(a.makespan(), b.makespan());
}

#[test]
fn histogram_threaded_equivalence() {
    let values: Vec<u64> = uniform_keys(4_000, 11)
        .into_iter()
        .map(|x| x as u64)
        .collect();
    let (mut a, mut b) = two_ctxs(8);
    let ra = scl::apps::histogram::histogram_scl(&mut a, &values, 64, 8);
    let rb = scl::apps::histogram::histogram_scl(&mut b, &values, 64, 8);
    assert_eq!(ra, rb);
    assert_eq!(a.makespan(), b.makespan());
}

#[test]
fn msort_threaded_equivalence() {
    let data = uniform_keys(6_000, 21);
    let (mut a, mut b) = two_ctxs(8);
    let ra = scl::apps::msort::msort_sort(&mut a, &data, 8);
    let rb = scl::apps::msort::msort_sort(&mut b, &data, 8);
    assert_eq!(ra, rb);
    assert_eq!(a.machine.report(), b.machine.report());
}

/// The merge sort's charges, pinned: the `MachineReport` of `msort_sort`
/// on a fixed input at p = 2, 4 and 8, bit for bit, under every policy.
/// A change to how the sort is scheduled or merged on the host must leave
/// these untouched; only a deliberate change to what the simulated
/// machine is charged may move them.
#[test]
fn msort_reports_match_golden() {
    use scl::machine::{MachineReport, Metrics, Time};
    // (p, makespan bits, compute steps, cmps, moves)
    const GOLDEN: [(usize, u64, u64, u64, u64); 3] = [
        (2, 0x3f93_e872_44c0_fa2f, 3, 40_625, 15_957),
        (4, 0x3f93_e765_d546_eed1, 7, 39_602, 17_983),
        (8, 0x3f94_03d0_6f18_bc8e, 15, 38_730, 20_269),
    ];
    let data = uniform_keys(3_001, 35);
    let mut expect = data.clone();
    expect.sort_unstable();
    for policy in [
        ExecPolicy::Sequential,
        ExecPolicy::Threads(2),
        ExecPolicy::cost_driven(),
    ] {
        for (p, makespan, compute_steps, cmps, moves) in GOLDEN {
            let mut scl = Scl::ap1000(p).with_policy(policy);
            let sorted = scl::apps::msort::msort_sort(&mut scl, &data, p);
            assert_eq!(sorted, expect, "p={p} ({policy:?})");
            // every leaf sort and merge lands on processor 0 (see ROADMAP
            // item 10), so the imbalance is exactly p
            let golden = MachineReport {
                procs: p,
                makespan: Time(f64::from_bits(makespan)),
                imbalance: p as f64,
                metrics: Metrics {
                    compute_steps,
                    cmps,
                    moves,
                    ..Metrics::default()
                },
            };
            assert_eq!(scl.machine.report(), golden, "p={p} ({policy:?})");
        }
    }
}
