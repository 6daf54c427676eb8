//! Property-based tests for scl-core invariants:
//! partition/gather inverses, skeleton algebra, placement preservation,
//! and a dry run for every generated §4 program.
//! (Randomised via `scl-testkit`, the workspace's proptest replacement.)

#[path = "../../transform/tests/programs/mod.rs"]
mod programs;

use scl_core::partition::{gather, gather2, partition, Pattern};
use scl_core::prelude::*;
use scl_testkit::{cases, Rng};

fn unit_ctx(n: usize) -> Scl {
    Scl::new(Machine::new(
        Topology::FullyConnected { procs: n },
        CostModel::unit(),
    ))
}

fn arb_pattern_1d(rng: &mut Rng) -> Pattern {
    match rng.below(3) {
        0 => Pattern::Block(rng.range_usize(1, 9)),
        1 => Pattern::Cyclic(rng.range_usize(1, 9)),
        _ => Pattern::BlockCyclic {
            p: rng.range_usize(1, 9),
            block: rng.range_usize(1, 6),
        },
    }
}

fn arb_pattern_2d(rng: &mut Rng) -> Pattern {
    match rng.below(5) {
        0 => Pattern::RowBlock(rng.range_usize(1, 6)),
        1 => Pattern::ColBlock(rng.range_usize(1, 6)),
        2 => Pattern::RowCyclic(rng.range_usize(1, 6)),
        3 => Pattern::ColCyclic(rng.range_usize(1, 6)),
        _ => Pattern::Grid {
            pr: rng.range_usize(1, 5),
            pc: rng.range_usize(1, 5),
        },
    }
}

#[test]
fn gather_inverts_partition() {
    cases(128, 0xC1, |rng| {
        let len = rng.range_usize(0, 200);
        let data = rng.vec_of(len, Rng::any_i64);
        let pattern = arb_pattern_1d(rng);
        let d = partition(pattern, &data);
        assert_eq!(gather(pattern, &d), data);
    });
}

#[test]
fn partition_conserves_elements() {
    cases(128, 0xC2, |rng| {
        let len = rng.range_usize(0, 200);
        let data = rng.vec_of(len, |r| r.any_i64() as i32);
        let pattern = arb_pattern_1d(rng);
        let d = partition(pattern, &data);
        let total: usize = d.parts().iter().map(Vec::len).sum();
        assert_eq!(total, data.len());
        let mut all: Vec<i32> = d.parts().iter().flatten().copied().collect();
        let mut expect = data.clone();
        all.sort_unstable();
        expect.sort_unstable();
        assert_eq!(all, expect);
    });
}

#[test]
fn block_partition_is_balanced() {
    cases(128, 0xC3, |rng| {
        let n = rng.range_usize(0, 500);
        let p = rng.range_usize(1, 16);
        let data: Vec<u8> = vec![0; n];
        let d = partition(Pattern::Block(p), &data);
        let sizes: Vec<usize> = d.parts().iter().map(Vec::len).collect();
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    });
}

#[test]
fn gather2_inverts_partition2() {
    cases(96, 0xC4, |rng| {
        let rows = rng.range_usize(1, 12);
        let cols = rng.range_usize(1, 12);
        let pattern = arb_pattern_2d(rng);
        let m = Matrix::from_fn(rows, cols, |r, c| (r * 100 + c) as i64);
        let d = scl_core::partition::partition2(pattern, &m);
        assert_eq!(gather2(pattern, &d), m);
    });
}

#[test]
fn combine_inverts_split_block() {
    cases(96, 0xC5, |rng| {
        let n_parts = rng.range_usize(1, 32);
        let groups = rng.range_usize(1, 8);
        if groups > n_parts {
            return;
        }
        let a = ParArray::from_parts((0..n_parts as i64).collect::<Vec<_>>());
        let nested = split(Pattern::Block(groups), a.clone());
        assert_eq!(combine(nested), a);
    });
}

#[test]
fn rotate_composition_law() {
    cases(128, 0xC6, |rng| {
        // communication algebra: rotate a . rotate b == rotate (a+b)
        let n = rng.range_usize(1, 16);
        let a = rng.range_i64(-20, 20) as isize;
        let b = rng.range_i64(-20, 20) as isize;
        let mut s = unit_ctx(n);
        let data = ParArray::from_parts((0..n as i64).collect::<Vec<_>>());
        let r1 = s.rotate(b, &data);
        let r1 = s.rotate(a, &r1);
        let r2 = s.rotate(a + b, &data);
        assert_eq!(r1.to_vec(), r2.to_vec());
    });
}

#[test]
fn rotate_full_cycle_is_identity() {
    cases(64, 0xC7, |rng| {
        let n = rng.range_usize(1, 16);
        let mut s = unit_ctx(n);
        let data = ParArray::from_parts((0..n as i64).collect::<Vec<_>>());
        assert_eq!(s.rotate(n as isize, &data).to_vec(), data.to_vec());
    });
}

#[test]
fn fetch_fusion_law() {
    cases(128, 0xC8, |rng| {
        // fetch f . fetch g == fetch (g . f)   (paper §4, communication algebra)
        let n = rng.range_usize(1, 12);
        let fa = rng.range_usize(0, 12);
        let fb = rng.range_usize(0, 12);
        let f = move |i: usize| (i + fa) % n;
        let g = move |i: usize| (i * 7 + fb) % n;
        let mut s = unit_ctx(n);
        let data = ParArray::from_parts((0..n as i64).collect::<Vec<_>>());
        let lhs = s.fetch(g, &data);
        let lhs = s.fetch(f, &lhs);
        let rhs = s.fetch(move |i| g(f(i)), &data);
        assert_eq!(lhs.to_vec(), rhs.to_vec());
    });
}

#[test]
fn map_fusion_law() {
    cases(96, 0xC9, |rng| {
        // map f . map g == map (f . g)
        let len = rng.range_usize(1, 32);
        let data = rng.vec_of(len, |r| r.any_i64() as i32);
        let n = data.len();
        let mut s = unit_ctx(n);
        let a = ParArray::from_parts(data);
        let g = |x: &i32| x.wrapping_mul(3);
        let f = |x: &i32| x.wrapping_add(17);
        let lhs_inner = s.map(&a, g);
        let lhs = s.map(&lhs_inner, f);
        let rhs = s.map(&a, |x| f(&g(x)));
        assert_eq!(lhs.to_vec(), rhs.to_vec());
    });
}

#[test]
fn map_distribution_law() {
    cases(96, 0xCA, |rng| {
        // foldr (f . g) == fold f . map g  for associative f (here +, g = square)
        let len = rng.range_usize(1, 32);
        let data = rng.vec_of(len, |r| r.range_i64(-1000, 1000));
        let n = data.len();
        let mut s = unit_ctx(n);
        let a = ParArray::from_parts(data.clone());
        let mapped = s.map(&a, |x| x * x);
        let parallel = s.fold(&mapped, |x, y| x + y);
        let sequential: i64 = data.iter().map(|x| x * x).sum();
        assert_eq!(parallel, sequential);
    });
}

#[test]
fn scan_last_equals_fold() {
    cases(96, 0xCB, |rng| {
        let len = rng.range_usize(1, 32);
        let data = rng.vec_of(len, |r| r.range_i64(-100, 100));
        let n = data.len();
        let mut s = unit_ctx(n);
        let a = ParArray::from_parts(data);
        let scanned = s.scan(&a, |x, y| x + y);
        let folded = s.fold(&a, |x, y| x + y);
        assert_eq!(*scanned.part(n - 1), folded);
    });
}

#[test]
fn send_delivers_multiset() {
    cases(96, 0xCC, |rng| {
        let n = rng.range_usize(1, 10);
        let dests: Vec<Vec<usize>> = (0..n)
            .map(|_| {
                let fanout = rng.range_usize(0, 4);
                rng.vec_of(fanout, |r| r.range_usize(0, 10) % n)
            })
            .collect();
        let mut s = unit_ctx(n);
        let a = ParArray::from_parts((0..n as i64).collect::<Vec<_>>());
        let d2 = dests.clone();
        let out = s.send(move |k| d2[k].clone(), &a);
        // every (src, dst) pair delivered exactly once, nothing invented
        let mut sent: Vec<(usize, i64)> = vec![];
        for (k, ds) in dests.iter().enumerate() {
            for &d in ds {
                sent.push((d, k as i64));
            }
        }
        let mut got: Vec<(usize, i64)> = vec![];
        for (j, inbox) in out.parts().iter().enumerate() {
            for &v in inbox {
                got.push((j, v));
            }
        }
        sent.sort_unstable();
        got.sort_unstable();
        assert_eq!(sent, got);
    });
}

#[test]
fn skeletons_preserve_placement() {
    cases(64, 0xCD, |rng| {
        let n = rng.range_usize(1, 12);
        let k = rng.range_i64(-5, 5) as isize;
        let mut s = unit_ctx(n);
        let a = ParArray::from_parts((0..n as i64).collect::<Vec<_>>());
        let m = s.map(&a, |x| x + 1);
        assert_eq!(m.procs(), a.procs());
        let r = s.rotate(k, &a);
        assert_eq!(r.procs(), a.procs());
        let f = s.fetch(|i| i, &a);
        assert_eq!(f.procs(), a.procs());
    });
}

#[test]
fn threaded_and_sequential_skeletons_agree() {
    cases(48, 0xCE, |rng| {
        let len = rng.range_usize(1, 64);
        let data = rng.vec_of(len, Rng::any_i64);
        let threads = rng.range_usize(2, 6);
        let n = data.len();
        let a = ParArray::from_parts(data);
        let mut s1 = unit_ctx(n);
        let mut s2 = unit_ctx(n).with_policy(ExecPolicy::Threads(threads));
        let m1 = s1.map(&a, |x| x.wrapping_mul(5));
        let m2 = s2.map(&a, |x| x.wrapping_mul(5));
        let f1 = s1.fold(&m1, |x, y| x.wrapping_add(*y));
        let f2 = s2.fold(&m2, |x, y| x.wrapping_add(*y));
        assert_eq!(m1, m2);
        assert_eq!(f1, f2);
    });
}

#[test]
fn comm_skeletons_preserve_multisets() {
    cases(96, 0xCF, |rng| {
        let len = rng.range_usize(1, 24);
        let data = rng.vec_of(len, Rng::any_i64);
        let k = rng.range_i64(-9, 9) as isize;
        let f_add = rng.range_usize(0, 24);
        let n = data.len();
        let mut s = unit_ctx(n);
        let a = ParArray::from_parts(data.clone());
        let mut expect = data.clone();
        expect.sort_unstable();

        let mut r = s.rotate(k, &a).to_vec();
        r.sort_unstable();
        assert_eq!(&r, &expect, "rotate must permute");

        // bijective fetch (a rotation expressed as fetch) also permutes
        let mut r = s.fetch(move |i| (i + f_add) % n, &a).to_vec();
        r.sort_unstable();
        assert_eq!(&r, &expect, "bijective fetch must permute");
    });
}

#[test]
fn balance_preserves_order_and_evens() {
    cases(96, 0xD0, |rng| {
        let len = rng.range_usize(1, 10);
        let sizes = rng.vec_of(len, |r| r.range_usize(0, 12));
        let p = sizes.len();
        let mut s = unit_ctx(p);
        let mut next = 0i64;
        let parts: Vec<Vec<i64>> = sizes
            .iter()
            .map(|&len| {
                (0..len)
                    .map(|_| {
                        next += 1;
                        next
                    })
                    .collect()
            })
            .collect();
        let total: usize = sizes.iter().sum();
        let a = ParArray::from_parts(parts);
        let b = s.balance(&a);
        // order preserved
        let flat: Vec<i64> = b.parts().iter().flatten().copied().collect();
        assert_eq!(flat, (1..=total as i64).collect::<Vec<_>>());
        // sizes balanced to +-1
        let min = b.parts().iter().map(Vec::len).min().unwrap();
        let max = b.parts().iter().map(Vec::len).max().unwrap();
        assert!(
            max - min <= 1,
            "sizes {:?}",
            b.parts().iter().map(Vec::len).collect::<Vec<_>>()
        );
    });
}

#[test]
fn all_gather_and_fold_all_agree_with_basics() {
    cases(64, 0xD1, |rng| {
        let len = rng.range_usize(1, 16);
        let data = rng.vec_of(len, |r| r.range_i64(-100, 100));
        let n = data.len();
        let mut s = unit_ctx(n);
        let a = ParArray::from_parts(data.clone());
        let gathered = s.all_gather(&a);
        for part in gathered.parts() {
            assert_eq!(part, &data);
        }
        let folded = s.fold(&a, |x, y| x + y);
        let folded_all = s.fold_all(&a, |x, y| x + y, Work::NONE);
        assert!(folded_all.parts().iter().all(|x| *x == folded));
    });
}

#[test]
fn virtual_time_deterministic() {
    cases(48, 0xD2, |rng| {
        let len = rng.range_usize(1, 32);
        let data = rng.vec_of(len, |r| r.below(1000));
        let n = data.len();
        let run = |data: &[u64]| -> (f64, u64) {
            let mut s = Scl::ap1000(n);
            let a = ParArray::from_parts(data.to_vec());
            let m = s.map_costed(&a, |x| (*x, Work::cmps(*x)));
            let _ = s.fold(&m, |x, y| x + y);
            (s.makespan().as_secs(), s.machine.metrics.messages)
        };
        assert_eq!(run(&data), run(&data));
    });
}

#[test]
fn estimated_cost_total_for_valid_programs() {
    cases(192, 0x7A, |rng| {
        let e = programs::arb_program(rng);
        let n = rng.range_usize(8, 64);
        let reg = Registry::standard();
        // every generated program runs on the machine, charged a
        // non-negative time
        let c = scl_core::estimate(&e, &reg, Machine::ap1000(n));
        assert!(c.is_ok(), "{e}: {c:?}");
        assert!(c.unwrap().as_secs() >= 0.0);
    });
}
