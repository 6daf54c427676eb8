//! All-pairs N-body force computation on a ring — the classic systolic
//! `rotate` workload.
//!
//! Bodies are block-distributed; a travelling copy of every block rotates
//! around the ring (`iter_for p` steps of `rotate 1`), and each processor
//! accumulates the forces its resident bodies feel from the visiting
//! block. After `p` rotations every pair has interacted exactly once — an
//! O(n²/p) compute per processor with p cheap neighbour messages, the
//! textbook coordination-language example after sorting.

use crate::workloads;
use scl_core::prelude::*;
use scl_core::{align, unalign, Bytes};

/// A point mass in 2-D.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body {
    /// Position.
    pub pos: [f64; 2],
    /// Velocity.
    pub vel: [f64; 2],
    /// Mass.
    pub mass: f64,
}

impl Bytes for Body {
    fn bytes(&self) -> usize {
        5 * 8
    }
}

/// Gravitational constant (arbitrary units) and softening to avoid
/// singularities.
const G: f64 = 6.674e-3;
const SOFTENING: f64 = 1e-3;

/// Force body `on` feels from body `from`.
fn pair_force(on: &Body, from: &Body) -> [f64; 2] {
    let dx = from.pos[0] - on.pos[0];
    let dy = from.pos[1] - on.pos[1];
    let d2 = dx * dx + dy * dy + SOFTENING;
    let inv = 1.0 / (d2 * d2.sqrt());
    let f = G * on.mass * from.mass * inv;
    [f * dx, f * dy]
}

/// Accumulate forces of `sources` on `targets` (skipping self-pairs by
/// identity of position+mass is unnecessary: `i == j` only happens within
/// the resident block, which passes `skip_same_index`).
fn block_forces(targets: &[Body], sources: &[Body], same_block: bool, acc: &mut [[f64; 2]]) -> u64 {
    let mut flops = 0u64;
    for (i, t) in targets.iter().enumerate() {
        for (j, s) in sources.iter().enumerate() {
            if same_block && i == j {
                continue;
            }
            let f = pair_force(t, s);
            acc[i][0] += f[0];
            acc[i][1] += f[1];
            flops += 20;
        }
    }
    flops
}

/// Sequential baseline: all-pairs forces.
pub fn forces_seq(bodies: &[Body]) -> Vec<[f64; 2]> {
    let mut acc = vec![[0.0f64; 2]; bodies.len()];
    block_forces(bodies, bodies, true, &mut acc);
    acc
}

/// SCL all-pairs forces on `p` processors via the rotating-ring scheme.
/// Returns per-body force vectors in input order; read `scl.makespan()`
/// for the predicted time.
pub fn forces_scl(scl: &mut Scl, bodies: &[Body], p: usize) -> Vec<[f64; 2]> {
    scl.check_fits(p);
    scl.machine.barrier();
    let resident = scl.partition(Pattern::Block(p), bodies);

    // travelling copy + zeroed accumulators, aligned with the residents
    let travelling = resident.clone();
    let acc = scl.map(&resident, |blk| vec![[0.0f64; 2]; blk.len()]);
    let zipped = align(resident, acc);

    type Resident = ParArray<(Vec<Body>, Vec<[f64; 2]>)>;
    let (zipped, _) = scl.iter_for(
        p,
        |scl, step, (zipped, travelling): (Resident, ParArray<Vec<Body>>)| {
            // interact residents with the currently visiting block
            let cfg = align(zipped, travelling);
            let out = scl.map_costed(&cfg, |((res, acc), vis)| {
                let mut acc = acc.clone();
                let flops = block_forces(res, vis, step == 0, &mut acc);
                ((res.clone(), acc), Work::flops(flops))
            });
            // pass the travelling blocks one processor around the ring
            let (_, visiting) = unalign(cfg);
            (out, scl.rotate_owned(1, visiting))
        },
        (zipped, travelling),
    );

    let (_, acc) = unalign(zipped);
    scl.gather_owned(acc)
}

/// One leapfrog integration step (used by the example binary; kept here so
/// it is tested).
pub fn integrate(bodies: &mut [Body], forces: &[[f64; 2]], dt: f64) {
    for (b, f) in bodies.iter_mut().zip(forces) {
        b.vel[0] += f[0] / b.mass * dt;
        b.vel[1] += f[1] / b.mass * dt;
        b.pos[0] += b.vel[0] * dt;
        b.pos[1] += b.vel[1] * dt;
    }
}

/// Random bodies in the unit square with masses in `[0.5, 1.5)`.
pub fn random_bodies(n: usize, seed: u64) -> Vec<Body> {
    let xs = workloads::uniform_keys(3 * n, seed);
    (0..n)
        .map(|i| Body {
            pos: [
                (xs[3 * i] % 1_000_000) as f64 / 1e6,
                (xs[3 * i + 1] % 1_000_000) as f64 / 1e6,
            ],
            vel: [0.0, 0.0],
            mass: 0.5 + (xs[3 * i + 2] % 1_000_000) as f64 / 1e6,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[[f64; 2]], b: &[[f64; 2]], tol: f64) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x[0] - y[0]).abs() < tol && (x[1] - y[1]).abs() < tol)
    }

    #[test]
    fn forces_are_antisymmetric() {
        let a = Body {
            pos: [0.0, 0.0],
            vel: [0.0; 2],
            mass: 1.0,
        };
        let b = Body {
            pos: [1.0, 0.0],
            vel: [0.0; 2],
            mass: 2.0,
        };
        let fab = pair_force(&a, &b);
        let fba = pair_force(&b, &a);
        assert!((fab[0] + fba[0]).abs() < 1e-15);
        assert!((fab[1] + fba[1]).abs() < 1e-15);
        assert!(fab[0] > 0.0, "a is pulled towards b");
    }

    #[test]
    fn scl_matches_sequential() {
        let bodies = random_bodies(60, 42);
        let seq = forces_seq(&bodies);
        for p in [1usize, 2, 3, 4, 6] {
            let mut scl = Scl::ap1000(p);
            let par = forces_scl(&mut scl, &bodies, p);
            assert!(close(&par, &seq, 1e-9), "p={p}");
        }
    }

    #[test]
    fn every_pair_interacts_exactly_once() {
        // two bodies on different processors must feel each other
        let bodies = vec![
            Body {
                pos: [0.0, 0.0],
                vel: [0.0; 2],
                mass: 1.0,
            },
            Body {
                pos: [0.5, 0.0],
                vel: [0.0; 2],
                mass: 1.0,
            },
        ];
        let mut scl = Scl::ap1000(2);
        let f = forces_scl(&mut scl, &bodies, 2);
        assert!(f[0][0] > 0.0);
        assert!(f[1][0] < 0.0);
        assert!((f[0][0] + f[1][0]).abs() < 1e-15, "Newton's third law");
    }

    #[test]
    fn rotation_count_is_p() {
        let bodies = random_bodies(32, 7);
        let mut scl = Scl::ap1000(4);
        let _ = forces_scl(&mut scl, &bodies, 4);
        // p rotations, each a 4-message permute; the last one included
        assert!(scl.machine.metrics.messages >= 3 * 4);
    }

    #[test]
    fn speedup_with_more_processors() {
        let bodies = random_bodies(256, 3);
        let time = |p: usize| {
            let mut scl = Scl::ap1000(p);
            let _ = forces_scl(&mut scl, &bodies, p);
            scl.makespan().as_secs()
        };
        let t1 = time(1);
        let t8 = time(8);
        assert!(t8 < t1, "t1={t1} t8={t8}");
        assert!(t1 / t8 < 8.0, "sublinear");
    }

    #[test]
    fn integrate_moves_bodies() {
        let mut bodies = vec![
            Body {
                pos: [0.0, 0.0],
                vel: [0.0; 2],
                mass: 1.0,
            },
            Body {
                pos: [1.0, 0.0],
                vel: [0.0; 2],
                mass: 1.0,
            },
        ];
        let f = forces_seq(&bodies);
        integrate(&mut bodies, &f, 0.1);
        assert!(bodies[0].pos[0] > 0.0, "attracted rightwards");
        assert!(bodies[1].pos[0] < 1.0, "attracted leftwards");
    }

    #[test]
    fn random_bodies_deterministic_and_in_range() {
        let a = random_bodies(100, 5);
        let b = random_bodies(100, 5);
        assert_eq!(a, b);
        assert!(a.iter().all(|b| (0.0..1.0).contains(&b.pos[0])
            && (0.0..1.0).contains(&b.pos[1])
            && (0.5..1.5).contains(&b.mass)));
    }
}
