//! Differential suite for the communication layer: every communication
//! and configuration skeleton must agree **bit-for-bit** with an
//! independent reference implementation *and* leave identical
//! `machine.metrics` (messages, bytes, exchanges, …) and makespan — under
//! sequential, threaded, and cost-driven policies, on both the unit and
//! AP1000 cost models (the latter exercises the pool-parallel gate's "stay
//! sequential" branch, the former its fan-out branch).
//!
//! Each skeleton has one implementation, its owned form; the borrowed form
//! clones its input and calls it. Both are checked against the reference
//! functions below, which build their own route tables, charge the machine
//! themselves and clone every part they route.
//!
//! The CI harness pins the policy set through `SCL_EXEC_POLICY`
//! (`seq` / `auto` / `cost`); unset, every policy runs in-process.

use scl::machine::ProcId;
use scl::prelude::*;
use scl_core::ParArray;
use scl_testkit::{cases, Rng};
use std::ops::Range;

/// The policy matrix, overridable by the CI harness. An unparseable
/// `SCL_EXEC_POLICY` fails the suite instead of silently testing the
/// wrong thing.
fn policies() -> Vec<ExecPolicy> {
    match ExecPolicy::from_env().expect("SCL_EXEC_POLICY") {
        Some(pinned) => vec![pinned],
        None => vec![
            ExecPolicy::Sequential,
            ExecPolicy::Threads(4),
            ExecPolicy::cost_driven(),
        ],
    }
}

/// The two machines the suite runs on: unit (`which == 0`, cheap
/// coordination — the pool-parallel gate fans out) and AP1000 (expensive
/// coordination — small movements stay inline).
fn machine(which: usize, n: usize, policy: ExecPolicy) -> Scl {
    let s = if which == 0 {
        Scl::new(Machine::new(
            Topology::FullyConnected { procs: n },
            CostModel::unit(),
        ))
    } else {
        Scl::ap1000(n)
    };
    s.with_policy(policy)
}

/// Run `reference` and each of `products` on fresh contexts and require
/// identical outputs, metrics, and makespan.
fn check<T: PartialEq + std::fmt::Debug>(
    label: &str,
    n: usize,
    policy: ExecPolicy,
    reference: impl Fn(&mut Scl) -> T,
    products: &[&dyn Fn(&mut Scl) -> T],
) {
    for which in 0..2 {
        let mut r = machine(which, n, policy);
        let want = reference(&mut r);
        for (k, product) in products.iter().enumerate() {
            let mut s = machine(which, n, policy);
            let got = product(&mut s);
            assert_eq!(got, want, "{label} #{k}: outputs diverged ({policy:?})");
            assert_eq!(
                s.machine.metrics, r.machine.metrics,
                "{label} #{k}: metrics diverged ({policy:?})"
            );
            assert_eq!(
                s.makespan(),
                r.makespan(),
                "{label} #{k}: makespan diverged ({policy:?})"
            );
        }
    }
}

fn arb_parts(rng: &mut Rng) -> ParArray<Vec<i64>> {
    let n = rng.range_usize(1, 10);
    ParArray::from_parts(rng.vec_of(n, |r| {
        let len = r.range_usize(0, 40);
        r.vec_of(len, |r| r.range_i64(-1_000, 1_000))
    }))
}

// ---- reference implementations ---------------------------------------------

type Route = (ProcId, ProcId, usize);

/// Normalise a possibly-negative distance into `0..n`.
fn wrap(k: isize, n: usize) -> usize {
    k.rem_euclid(n as isize) as usize
}

/// `n` items over `p` parts, the first `n % p` parts one longer.
fn balanced(n: usize, p: usize) -> Vec<Range<usize>> {
    let mut start = 0;
    (0..p)
        .map(|i| {
            let len = n / p + usize::from(i < n % p);
            start += len;
            start - len..start
        })
        .collect()
}

/// Charge a permutation phase unless no part leaves its processor.
fn permute_unless_empty(s: &mut Scl, group: &[ProcId], routes: &[Route]) {
    if !routes.is_empty() {
        s.machine.permute(group, routes);
    }
}

fn ref_rotate<T: Clone + Bytes>(s: &mut Scl, k: isize, a: &ParArray<T>) -> ParArray<T> {
    let n = a.len();
    if n == 0 || wrap(k, n) == 0 {
        return a.clone();
    }
    let k = wrap(k, n);
    let routes: Vec<Route> = (0..n)
        .map(|i| {
            let src = (i + k) % n;
            (a.procs()[src], a.procs()[i], a.part(src).bytes())
        })
        .collect();
    s.machine.permute(a.procs(), &routes);
    ParArray::like(a, (0..n).map(|i| a.part((i + k) % n).clone()).collect())
}

/// Grid part `(i, j)` receives part `src_of(i, j)` (a flat index).
fn ref_rotate_grid<T: Clone + Bytes>(
    s: &mut Scl,
    a: &ParArray<T>,
    src_of: impl Fn(usize, usize) -> usize,
) -> ParArray<T> {
    let (rows, cols) = a.shape().dims2();
    let mut routes = Vec::new();
    let mut parts = Vec::with_capacity(a.len());
    for i in 0..rows {
        for j in 0..cols {
            let (dst, src) = (i * cols + j, src_of(i, j));
            if src != dst {
                routes.push((a.procs()[src], a.procs()[dst], a.part(src).bytes()));
            }
            parts.push(a.part(src).clone());
        }
    }
    permute_unless_empty(s, a.procs(), &routes);
    ParArray::like(a, parts)
}

fn ref_rotate_row<T: Clone + Bytes>(
    s: &mut Scl,
    df: impl Fn(usize) -> isize,
    a: &ParArray<T>,
) -> ParArray<T> {
    let (_, cols) = a.shape().dims2();
    ref_rotate_grid(s, a, |i, j| i * cols + (j + wrap(df(i), cols)) % cols)
}

fn ref_rotate_col<T: Clone + Bytes>(
    s: &mut Scl,
    df: impl Fn(usize) -> isize,
    a: &ParArray<T>,
) -> ParArray<T> {
    let (rows, cols) = a.shape().dims2();
    ref_rotate_grid(s, a, |i, j| ((i + wrap(df(j), rows)) % rows) * cols + j)
}

fn ref_transpose<T: Clone + Bytes>(s: &mut Scl, a: &ParArray<T>) -> ParArray<T> {
    let (_, cols) = a.shape().dims2();
    ref_rotate_grid(s, a, |i, j| j * cols + i)
}

fn ref_shift<T: Clone + Bytes>(s: &mut Scl, k: isize, a: &ParArray<T>, fill: &T) -> ParArray<T> {
    let n = a.len() as isize;
    let mut routes = Vec::new();
    let mut parts = Vec::with_capacity(a.len());
    for i in 0..n {
        let src = i - k;
        if (0..n).contains(&src) {
            let (si, di) = (src as usize, i as usize);
            if si != di {
                routes.push((a.procs()[si], a.procs()[di], a.part(si).bytes()));
            }
            parts.push(a.part(si).clone());
        } else {
            parts.push(fill.clone());
        }
    }
    permute_unless_empty(s, a.procs(), &routes);
    ParArray::like(a, parts)
}

fn ref_brdcast<T: Clone + Bytes, U: Clone>(
    s: &mut Scl,
    item: &T,
    a: &ParArray<U>,
) -> ParArray<(T, U)> {
    s.machine.broadcast(a.procs(), item.bytes());
    ParArray::like(
        a,
        a.parts()
            .iter()
            .map(|u| (item.clone(), u.clone()))
            .collect(),
    )
}

fn ref_apply_brdcast_costed<T: Clone, R: Clone + Bytes>(
    s: &mut Scl,
    f: impl Fn(&T) -> (R, Work),
    i: usize,
    a: &ParArray<T>,
) -> ParArray<(R, T)> {
    let (r, w) = f(a.part(i));
    s.machine.compute(a.procs()[i], w, "apply_brdcast");
    ref_brdcast(s, &r, a)
}

fn ref_send<T: Clone + Bytes>(
    s: &mut Scl,
    f: impl Fn(usize) -> Vec<usize>,
    a: &ParArray<T>,
) -> ParArray<Vec<T>> {
    let n = a.len();
    let mut routes = Vec::new();
    let mut inboxes: Vec<Vec<T>> = vec![Vec::new(); n];
    for k in 0..n {
        for j in f(k) {
            if j != k {
                routes.push((a.procs()[k], a.procs()[j], a.part(k).bytes()));
            }
            inboxes[j].push(a.part(k).clone());
        }
    }
    s.machine.permute(a.procs(), &routes);
    ParArray::like(a, inboxes)
}

fn ref_fetch<T: Clone + Bytes>(
    s: &mut Scl,
    f: impl Fn(usize) -> usize,
    a: &ParArray<T>,
) -> ParArray<T> {
    let n = a.len();
    let mut routes = Vec::new();
    for i in 0..n {
        let src = f(i);
        if src != i {
            routes.push((a.procs()[src], a.procs()[i], a.part(src).bytes()));
        }
    }
    s.machine.permute(a.procs(), &routes);
    ParArray::like(a, (0..n).map(|i| a.part(f(i)).clone()).collect())
}

fn ref_balance<T: Clone + Bytes>(s: &mut Scl, a: &ParArray<Vec<T>>) -> ParArray<Vec<T>> {
    let p = a.len();
    let total: usize = a.parts().iter().map(Vec::len).sum();
    let targets = balanced(total, p);
    let mut routes = Vec::new();
    let mut parts: Vec<Vec<T>> = vec![Vec::new(); p];
    let mut s0 = 0;
    for (src, part) in a.parts().iter().enumerate() {
        let elem_bytes = if part.is_empty() {
            0
        } else {
            part.bytes() / part.len()
        };
        for (dst, target) in targets.iter().enumerate() {
            let lo = s0.max(target.start);
            let hi = (s0 + part.len()).min(target.end);
            if lo < hi {
                parts[dst].extend_from_slice(&part[lo - s0..hi - s0]);
                if src != dst {
                    routes.push((a.procs()[src], a.procs()[dst], (hi - lo) * elem_bytes));
                }
            }
        }
        s0 += part.len();
    }
    permute_unless_empty(s, a.procs(), &routes);
    ParArray::like(a, parts)
}

fn ref_total_exchange<T: Clone + Bytes>(
    s: &mut Scl,
    a: &ParArray<Vec<Vec<T>>>,
) -> ParArray<Vec<Vec<T>>> {
    let n = a.len();
    let mut routes = Vec::new();
    for k in 0..n {
        for i in 0..n {
            let bucket = &a.part(k)[i];
            if i != k && !bucket.is_empty() {
                routes.push((a.procs()[k], a.procs()[i], bucket.bytes()));
            }
        }
    }
    s.machine.all_to_all_v(a.procs(), &routes);
    ParArray::like(
        a,
        (0..n)
            .map(|i| (0..n).map(|k| a.part(k)[i].clone()).collect())
            .collect(),
    )
}

fn ref_partition<T: Clone + Bytes>(s: &mut Scl, pattern: Pattern, data: &[T]) -> ParArray<Vec<T>> {
    let parts: Vec<Vec<T>> = match pattern {
        Pattern::Block(p) => balanced(data.len(), p)
            .into_iter()
            .map(|r| data[r].to_vec())
            .collect(),
        Pattern::Cyclic(p) => (0..p)
            .map(|i| data.iter().skip(i).step_by(p).cloned().collect())
            .collect(),
        Pattern::BlockCyclic { p, block } => (0..p)
            .map(|i| {
                let mine = data
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| (j / block) % p == i);
                mine.map(|(_, x)| x.clone()).collect()
            })
            .collect(),
        _ => unreachable!("the suite partitions 1-D data only"),
    };
    let out = ParArray::from_parts(parts);
    s.check_fits(out.len());
    let per_part = out.parts().iter().map(Bytes::bytes).max().unwrap_or(0);
    s.machine.scatter(out.procs(), per_part);
    out
}

fn ref_gather<T: Clone + Bytes>(s: &mut Scl, a: &ParArray<Vec<T>>) -> Vec<T> {
    let per_part = a.parts().iter().map(Bytes::bytes).max().unwrap_or(0);
    s.machine.gather(a.procs(), per_part);
    a.parts().concat()
}

// ---- the suite --------------------------------------------------------------

#[test]
fn rotate_shift_match_reference() {
    for policy in policies() {
        cases(64, 0xA0, |rng| {
            let a = arb_parts(rng);
            let n = a.len();
            let k = rng.range_i64(-12, 13) as isize;
            check(
                "rotate",
                n,
                policy,
                |s| ref_rotate(s, k, &a),
                &[&|s| s.rotate(k, &a), &|s| s.rotate_owned(k, a.clone())],
            );
            let fill = vec![rng.range_i64(-5, 5)];
            // k = 0 keeps every part home: no route, no charge
            for k in [k, 0] {
                check(
                    "shift",
                    n,
                    policy,
                    |s| ref_shift(s, k, &a, &fill),
                    &[&|s| s.shift(k, &a, &fill), &|s| {
                        s.shift_owned(k, a.clone(), &fill)
                    }],
                );
            }
        });
    }
}

#[test]
fn grid_rotations_match_reference() {
    for policy in policies() {
        cases(48, 0xA1, |rng| {
            let rows = rng.range_usize(1, 5);
            let cols = rng.range_usize(1, 5);
            let g = ParArray::from_grid(
                rows,
                cols,
                rng.vec_of(rows * cols, |r| r.vec_of(8, |r| r.any_i64())),
            );
            let d = rng.range_i64(-3, 4);
            let row_d = |i: usize| (d * i as i64) as isize;
            check(
                "rotate_row",
                rows * cols,
                policy,
                |s| ref_rotate_row(s, row_d, &g),
                &[&|s| s.rotate_row(row_d, &g), &|s| {
                    s.rotate_row_owned(row_d, g.clone())
                }],
            );
            let col_d = |j: usize| (d + j as i64) as isize;
            check(
                "rotate_col",
                rows * cols,
                policy,
                |s| ref_rotate_col(s, col_d, &g),
                &[&|s| s.rotate_col(col_d, &g), &|s| {
                    s.rotate_col_owned(col_d, g.clone())
                }],
            );
        });
    }
}

#[test]
fn transpose_matches_reference() {
    for policy in policies() {
        cases(32, 0xA7, |rng| {
            let side = rng.range_usize(1, 5);
            let g = ParArray::from_grid(
                side,
                side,
                rng.vec_of(side * side, |r| {
                    let len = r.range_usize(0, 12);
                    r.vec_of(len, |r| r.any_i64())
                }),
            );
            check(
                "transpose",
                side * side,
                policy,
                |s| ref_transpose(s, &g),
                &[&|s| s.transpose(&g)],
            );
        });
    }
}

#[test]
fn fetch_send_match_reference() {
    for policy in policies() {
        cases(64, 0xA2, |rng| {
            let a = arb_parts(rng);
            let n = a.len();
            // a random (possibly many-to-one) index map
            let srcs: Vec<usize> = (0..n).map(|_| rng.range_usize(0, n)).collect();
            check(
                "fetch",
                n,
                policy,
                |s| ref_fetch(s, |i| srcs[i], &a),
                &[&|s| s.fetch(|i| srcs[i], &a), &|s| {
                    s.fetch_owned(|i| srcs[i], a.clone())
                }],
            );
            // random one-to-many destination lists
            let dests: Vec<Vec<usize>> = (0..n)
                .map(|_| {
                    let d = rng.range_usize(0, 4);
                    (0..d).map(|_| rng.range_usize(0, n)).collect()
                })
                .collect();
            check(
                "send",
                n,
                policy,
                |s| ref_send(s, |k| dests[k].clone(), &a),
                &[&|s| s.send(|k| dests[k].clone(), &a), &|s| {
                    s.send_owned(|k| dests[k].clone(), a.clone())
                }],
            );
        });
    }
}

#[test]
fn brdcast_matches_reference() {
    let f = |v: &Vec<i64>| (v.iter().sum::<i64>(), Work::cmps(v.len() as u64));
    for policy in policies() {
        cases(32, 0xA3, |rng| {
            let a = arb_parts(rng);
            let n = a.len();
            let item_len = rng.range_usize(0, 10);
            let item: Vec<i64> = rng.vec_of(item_len, |r| r.any_i64());
            check(
                "brdcast",
                n,
                policy,
                |s| ref_brdcast(s, &item, &a),
                &[&|s| s.brdcast(&item, &a), &|s| {
                    s.brdcast_owned(&item, a.clone())
                }],
            );
            let i = rng.range_usize(0, n);
            check(
                "apply_brdcast_costed",
                n,
                policy,
                |s| ref_apply_brdcast_costed(s, f, i, &a),
                &[&|s| s.apply_brdcast_costed(f, i, &a)],
            );
        });
    }
}

#[test]
fn total_exchange_matches_reference() {
    for policy in policies() {
        cases(48, 0xA4, |rng| {
            let n = rng.range_usize(1, 9);
            let a = ParArray::from_parts(rng.vec_of(n, |r| {
                (0..n)
                    .map(|_| {
                        let len = r.range_usize(0, 24);
                        r.vec_of(len, |r| r.range_i64(-99, 99))
                    })
                    .collect::<Vec<Vec<i64>>>()
            }));
            check(
                "total_exchange",
                n,
                policy,
                |s| ref_total_exchange(s, &a),
                &[&|s| s.total_exchange(&a), &|s| {
                    s.total_exchange_owned(a.clone())
                }],
            );
        });
    }
}

#[test]
fn balance_gather_partition_match_reference() {
    for policy in policies() {
        cases(48, 0xA5, |rng| {
            let a = arb_parts(rng);
            let n = a.len();
            check(
                "balance",
                n,
                policy,
                |s| ref_balance(s, &a),
                &[&|s| s.balance(&a), &|s| s.balance_owned(a.clone())],
            );
            check(
                "gather",
                n,
                policy,
                |s| ref_gather(s, &a),
                &[&|s| s.gather(&a), &|s| s.gather_owned(a.clone())],
            );

            let data_len = rng.range_usize(0, 200);
            let data: Vec<i64> = rng.vec_of(data_len, |r| r.any_i64());
            let p = rng.range_usize(1, 9);
            let pattern = *rng.pick(&[
                Pattern::Block(p),
                Pattern::Cyclic(p),
                Pattern::BlockCyclic { p, block: 3 },
            ]);
            check(
                "partition",
                p,
                policy,
                |s| ref_partition(s, pattern, &data),
                &[&|s| s.partition(pattern, &data), &|s| {
                    s.partition_owned(pattern, data.clone())
                }],
            );
        });
    }
}

#[test]
fn block_partition_and_gather_fan_out_match_reference() {
    // 4096 keys over 8 parts is 4 KiB a part: far past the unit model's
    // dispatch threshold, so under `Threads(4)` the block scatter and the
    // gather concat run on the pool
    let (p, per_part) = (8, 512 * std::mem::size_of::<i64>());
    assert!(CostModel::unit().comm_decision(p, per_part, 4).threads > 1);
    let data: Vec<i64> = (0..4096).map(|i| (i * 7919) % 4099 - 2048).collect();
    let pattern = Pattern::Block(p);
    let da = ParArray::from_parts(data.chunks(512).map(<[i64]>::to_vec).collect());
    for policy in policies().into_iter().chain([ExecPolicy::Threads(4)]) {
        check(
            "block partition",
            p,
            policy,
            |s| ref_partition(s, pattern, &data),
            &[&|s| s.partition(pattern, &data), &|s| {
                s.partition_owned(pattern, data.clone())
            }],
        );
        check(
            "block gather",
            p,
            policy,
            |s| ref_gather(s, &da),
            &[&|s| s.gather(&da), &|s| s.gather_owned(da.clone())],
        );
    }
}

#[test]
fn barrier_plans_match_reference_composition() {
    // The plan layer's barriers consume their arrays; a pipeline mixing
    // every owned barrier must match the same composition of reference
    // skeletons, charges included.
    for policy in policies() {
        let data: Vec<i64> = (0..64).map(|i| (i * 37) % 101 - 50).collect();
        let double = |v: &Vec<i64>| {
            (
                v.iter().map(|x| x * 2).collect::<Vec<i64>>(),
                Work::flops(1),
            )
        };

        let plan = Skel::partition(Pattern::Block(8))
            .then(Skel::balance())
            .then(Skel::map_costed(double))
            .then(Skel::rotate(3))
            .then(Skel::shift(-1, Vec::new()))
            .then(Skel::gather());
        let mut s1 = Scl::ap1000(8).with_policy(policy);
        let via_plan = plan.run(&mut s1, data.clone());

        let mut s2 = Scl::ap1000(8).with_policy(policy);
        let da = ref_partition(&mut s2, Pattern::Block(8), &data);
        let da = ref_balance(&mut s2, &da);
        let da = s2.map_costed(&da, double);
        let da = ref_rotate(&mut s2, 3, &da);
        let da = ref_shift(&mut s2, -1, &da, &Vec::new());
        let via_reference = ref_gather(&mut s2, &da);

        assert_eq!(via_plan, via_reference, "{policy:?}");
        assert_eq!(s1.machine.metrics, s2.machine.metrics, "{policy:?}");
        assert_eq!(s1.makespan(), s2.makespan(), "{policy:?}");

        // and the fused path agrees too
        let mut s3 = Scl::ap1000(8).with_policy(policy);
        let via_fused = s3.run_fused(&plan, data).unwrap();
        assert_eq!(via_fused, via_plan, "{policy:?}");
        assert_eq!(s3.machine.metrics, s1.machine.metrics, "{policy:?}");
    }
}

#[test]
fn owned_maps_match_borrowed_forms() {
    // the map twins stay two implementations: the borrowed maps run at the
    // policy's thread count, the owned maps by the segment schedule
    let f = |i: usize, v: &Vec<i64>| (v.iter().sum::<i64>() + i as i64, Work::cmps(v.len() as u64));
    for policy in policies() {
        cases(32, 0xA6, |rng| {
            let a = arb_parts(rng);
            let n = a.len();
            check(
                "imap_costed",
                n,
                policy,
                |s| s.imap_costed(&a, f),
                &[&|s| s.imap_costed_owned(a.clone(), |i, v| f(i, &v))],
            );
        });
    }
}
