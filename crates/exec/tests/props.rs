//! Property tests: threaded execution is observationally equivalent to
//! sequential execution for pure functions. (Randomised via `scl-testkit`,
//! the workspace's zero-dependency proptest replacement.)

use scl_exec::{par_map, par_map_indexed, ExecPolicy, ThreadPool};
use scl_testkit::{cases, Rng};

#[test]
fn par_map_equals_seq_map() {
    cases(64, 0xE1, |rng: &mut Rng| {
        let len = rng.range_usize(0, 200);
        let items = rng.vec_of(len, Rng::any_i64);
        let threads = rng.range_usize(1, 8);
        let f = |x: &i64| x.wrapping_mul(31).wrapping_add(7);
        let seq: Vec<i64> = items.iter().map(f).collect();
        let par = par_map(ExecPolicy::Threads(threads), &items, f);
        assert_eq!(seq, par);
    });
}

#[test]
fn indexed_map_equals_enumerate() {
    cases(64, 0xE2, |rng: &mut Rng| {
        let len = rng.range_usize(0, 200);
        let items = rng.vec_of(len, |r| r.next_u64() as u32);
        let f = |i: usize, x: &u32| (i as u64) * 1000 + *x as u64 % 997;
        let seq: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        let par = par_map_indexed(ExecPolicy::Threads(4), &items, f);
        assert_eq!(seq, par);
    });
}

#[test]
fn pool_submit_all_matches_direct() {
    cases(32, 0xE3, |rng: &mut Rng| {
        let len = rng.range_usize(0, 100);
        let values = rng.vec_of(len, |r| r.next_u64() as u16);
        let pool = ThreadPool::new(3);
        let (tx, rx) = std::sync::mpsc::channel();
        for (i, &v) in values.iter().enumerate() {
            let tx = tx.clone();
            pool.execute(move || tx.send((i, v as u32 + 1)).unwrap());
        }
        drop(tx);
        let mut out = vec![0u32; values.len()];
        for (i, x) in rx {
            out[i] = x;
        }
        let expect: Vec<u32> = values.iter().map(|&v| v as u32 + 1).collect();
        assert_eq!(out, expect);
    });
}
