//! Jacobi iteration on a 1-D grid (heat diffusion) under `iterUntil`.
//!
//! Exercises the skeletons the other applications don't: boundary-filled
//! [`Scl::shift`] halo exchange, convergence-driven [`Scl::iter_until`],
//! and a global `fold(max)` residual reduction every sweep — the standard
//! shape of every stencil code written in a coordination language.
//!
//! The update is `u'[i] = (u[i-1] + u[i+1]) / 2` with fixed (Dirichlet)
//! boundary values; the iteration stops when the max pointwise change
//! drops below `tol` or after `max_iters` sweeps.

use scl_core::prelude::*;
use scl_core::{align3, block_ranges, unalign};

/// Result of a Jacobi run.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiResult {
    /// Final field values.
    pub u: Vec<f64>,
    /// Sweeps actually performed.
    pub iterations: usize,
    /// Final max pointwise change.
    pub residual: f64,
}

/// Sequential baseline, identical arithmetic.
pub fn jacobi_seq(u0: &[f64], tol: f64, max_iters: usize) -> JacobiResult {
    let n = u0.len();
    let mut u = u0.to_vec();
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    while iterations < max_iters && residual > tol {
        let mut next = u.clone();
        let mut diff = 0.0f64;
        for i in 1..n.saturating_sub(1) {
            next[i] = 0.5 * (u[i - 1] + u[i + 1]);
            diff = diff.max((next[i] - u[i]).abs());
        }
        residual = if n > 2 { diff } else { 0.0 };
        u = next;
        iterations += 1;
    }
    JacobiResult {
        u,
        iterations,
        residual,
    }
}

/// The iteration state a Jacobi plan threads: the distributed field, the
/// sweep count, and the latest residual.
pub type JacobiState = (ParArray<Vec<f64>>, usize, f64);

/// The convergence loop as a first-class plan: a
/// [`Skel::iter_until`] whose body is one relaxation sweep (halo
/// exchange via `shift`, local update, global `fold(max)` residual). `n` is
/// the global field length, `starts` the global offset of each part.
///
/// The sweep **double-buffers** through the context's recycled-buffer pool:
/// each part writes its new values into a buffer from [`Scl::take_buf`] and
/// recycles its spent input with [`Scl::recycle_buf`], so after the first
/// sweep warms the pool the loop performs no per-element heap allocation —
/// the owned halo shift moves the boundary values and
/// [`Scl::imap_costed_owned`] hands each part to the kernel by value.
///
/// The whole loop is a single fusion *barrier* (every sweep needs the halo
/// exchange), so under [`Scl::run_fused`] the plan composes with
/// neighbouring fused stages and oversized configurations error instead of
/// panicking; the body itself still runs through the eager skeletons.
pub fn jacobi_plan(
    n: usize,
    starts: Vec<usize>,
    tol: f64,
    max_iters: usize,
) -> Skel<'static, JacobiState, JacobiState> {
    Skel::iter_until(
        move |scl, (da, iters, _): JacobiState| {
            // halo exchange: my left halo is my left neighbour's last
            // element; my right halo is my right neighbour's first.
            let lasts = scl.map(&da, |v: &Vec<f64>| v.last().copied());
            let firsts = scl.map(&da, |v: &Vec<f64>| v.first().copied());
            let left_halo = scl.shift_owned(1, lasts, &None);
            let right_halo = scl.shift_owned(-1, firsts, &None);

            // one write buffer per part, recycled sweep over sweep
            let spares: Vec<Vec<f64>> = da.parts().iter().map(|v| scl.take_buf(v.len())).collect();
            let spares = ParArray::like(&da, spares);

            // local sweep, skipping global boundary cells
            let cfg = align(align3(left_halo, right_halo, da), spares);
            let starts = starts.clone();
            let swept = scl.imap_costed_owned(cfg, move |part_idx, ((lh, rh, v), mut next)| {
                let base = starts[part_idx];
                let m = v.len();
                next.extend_from_slice(&v); // one memcpy into the recycled buffer
                let mut diff = 0.0f64;
                for i in 0..m {
                    let g = base + i;
                    if g == 0 || g == n - 1 {
                        continue; // fixed boundary
                    }
                    let left = if i == 0 {
                        lh.expect("interior cell needs left halo")
                    } else {
                        v[i - 1]
                    };
                    let right = if i + 1 == m {
                        rh.expect("interior cell needs right halo")
                    } else {
                        v[i + 1]
                    };
                    next[i] = 0.5 * (left + right);
                    diff = diff.max((next[i] - v[i]).abs());
                }
                (((next, diff), v), Work::flops(2 * m as u64))
            });
            let (next_diff, olds) = unalign(swept);
            let (next, diffs) = unalign(next_diff);
            for spent in olds.into_parts() {
                scl.recycle_buf(spent);
            }
            let residual = if n > 2 {
                scl.fold(&diffs, |a, b| a.max(*b))
            } else {
                0.0
            };
            (next, iters + 1, residual)
        },
        |_, s| s,
        move |(_, iters, res): &JacobiState| *iters >= max_iters || *res <= tol,
    )
}

/// SCL Jacobi on `p` processors (block distribution + shift-based halo
/// exchange). Bitwise-identical to [`jacobi_seq`] given the same inputs.
/// Configure/partition eagerly, then run [`jacobi_plan`].
pub fn jacobi_scl(scl: &mut Scl, u0: &[f64], p: usize, tol: f64, max_iters: usize) -> JacobiResult {
    let n = u0.len();
    scl.check_fits(p);
    scl.machine.barrier();
    let da = scl.partition(Pattern::Block(p), u0);
    let starts: Vec<usize> = block_ranges(n, p).iter().map(|r| r.start).collect();

    let plan = jacobi_plan(n, starts, tol, max_iters);
    let (u, iterations, residual) = plan.run(scl, (da, 0usize, f64::INFINITY));

    JacobiResult {
        u: scl.gather_owned(u),
        iterations,
        residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // boundary 0 and 100; interior zeroed — classic heat rod
        let mut v = vec![0.0; n];
        if n > 1 {
            v[n - 1] = 100.0;
        }
        v
    }

    #[test]
    fn seq_converges_to_linear_profile() {
        let r = jacobi_seq(&ramp(32), 1e-8, 100_000);
        assert!(r.residual <= 1e-8);
        // steady state of the discrete Laplace equation is a straight line
        for i in 0..32 {
            let expect = 100.0 * i as f64 / 31.0;
            assert!(
                (r.u[i] - expect).abs() < 1e-4,
                "u[{i}]={} vs {expect}",
                r.u[i]
            );
        }
    }

    #[test]
    fn scl_matches_seq_bitwise() {
        for p in [1, 2, 3, 4, 8] {
            let u0 = ramp(40);
            let seq = jacobi_seq(&u0, 1e-6, 500);
            let mut scl = Scl::ap1000(p);
            let par = jacobi_scl(&mut scl, &u0, p, 1e-6, 500);
            assert_eq!(par.u, seq.u, "p={p}");
            assert_eq!(par.iterations, seq.iterations, "p={p}");
            assert_eq!(par.residual, seq.residual, "p={p}");
        }
    }

    #[test]
    fn plan_is_fusable_and_run_fused_matches_seq() {
        let u0 = ramp(40);
        let n = u0.len();
        for p in [2usize, 4] {
            let starts: Vec<usize> = block_ranges(n, p).iter().map(|r| r.start).collect();
            let plan = jacobi_plan(n, starts, 1e-6, 500);

            let seq = jacobi_seq(&u0, 1e-6, 500);
            let mut scl = Scl::ap1000(p);
            let da = scl.partition(Pattern::Block(p), &u0);
            let (u, iterations, residual) =
                scl.run_fused(&plan, (da, 0usize, f64::INFINITY)).unwrap();
            assert_eq!(scl.gather(&u), seq.u, "p={p}");
            assert_eq!(iterations, seq.iterations, "p={p}");
            assert_eq!(residual, seq.residual, "p={p}");
        }
    }

    #[test]
    fn respects_max_iters() {
        let u0 = ramp(64);
        let mut scl = Scl::ap1000(4);
        let r = jacobi_scl(&mut scl, &u0, 4, 0.0, 7);
        assert_eq!(r.iterations, 7);
        assert!(r.residual > 0.0);
    }

    #[test]
    fn tiny_fields_are_fixed_points() {
        for n in [0usize, 1, 2] {
            let u0 = ramp(n);
            let mut scl = Scl::ap1000(2);
            let r = jacobi_scl(&mut scl, &u0, 2, 1e-9, 100);
            assert_eq!(r.u, u0, "n={n}");
            assert_eq!(r.iterations, 1); // one sweep discovers residual 0
        }
    }

    #[test]
    fn sweep_buffers_recycle_through_the_pool() {
        let u0 = ramp(64);
        let mut scl = Scl::ap1000(4);
        let _ = jacobi_scl(&mut scl, &u0, 4, 0.0, 10);
        // steady state: each sweep takes p buffers and returns p — after
        // the run the spent field's buffers sit parked for the next run
        assert_eq!(scl.pooled_buffers(), 4);
        let before = scl.pooled_buffers();
        let _ = jacobi_scl(&mut scl, &u0, 4, 0.0, 10);
        assert_eq!(scl.pooled_buffers(), before, "reruns reuse, not grow");
        scl.clear_buffers();
        assert_eq!(scl.pooled_buffers(), 0);
    }

    #[test]
    fn charges_halo_traffic() {
        let u0 = ramp(64);
        let mut scl = Scl::ap1000(4);
        let _ = jacobi_scl(&mut scl, &u0, 4, 0.0, 5);
        // two shifts per sweep, 5 sweeps
        assert!(scl.machine.metrics.messages >= 5 * 2 * 3);
        assert!(scl.machine.metrics.reductions >= 5);
    }
}
