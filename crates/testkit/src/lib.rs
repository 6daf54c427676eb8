#![warn(missing_docs)]
//! # scl-testkit — deterministic randomness without external crates
//!
//! The workspace's tests, benchmark and workload generators need seeded,
//! reproducible pseudo-randomness. The container this repo builds in has no
//! crates-io access, so instead of `rand`/`proptest` this crate provides:
//!
//! * [`Rng`] — a small, fast, seedable PRNG (xoshiro256** core seeded by
//!   SplitMix64, the standard construction) with the handful of sampling
//!   helpers the workspace actually uses;
//! * [`cases`] — a mini property-test driver: run a closure `n` times with
//!   independently seeded generators, reporting the failing case index and
//!   seed so a failure reproduces exactly.
//!
//! Determinism is part of the contract: the same seed yields the same
//! stream on every platform, so test failures and benchmark tables
//! reproduce bit-for-bit.

pub mod dag;

/// A seedable xoshiro256** pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed via SplitMix64 (never yields the all-zero state).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Uniform `u64` in `[0, bound)` (debiased by rejection).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below needs a positive bound");
        // Lemire-style rejection: retry while in the biased zone.
        let zone = u64::MAX - (u64::MAX - bound + 1) % bound;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform `i64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add(self.below(span) as i64)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_i64(lo as i64, hi as i64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        // 53 random mantissa bits -> uniform in [0, 1)
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }

    /// An unconstrained `i64` (full domain, like proptest's `any::<i64>()`).
    pub fn any_i64(&mut self) -> i64 {
        self.next_u64() as i64
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Pick a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "Rng::pick of an empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// A vector of `len` elements drawn by `f`.
    pub fn vec_of<T>(&mut self, len: usize, mut f: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        (0..len).map(|_| f(self)).collect()
    }
}

/// A deterministic fault-injection plan.
///
/// Chaos suites need faults that are *reproducible*: whether a fault
/// fires must depend only on the seed and on what is being processed,
/// never on timing, thread interleaving, or how many other tenants are
/// active. Every decision here is a pure function of
/// `(seed, site, value)` — a stage applied to the same element under the
/// same seed always makes the same choice, so a co-tenant differential
/// suite can run the victim solo and chaotic side by side and demand
/// bit-for-bit equal outputs.
///
/// The four injection points mirror the ways a streamed plan can
/// misbehave:
///
/// * [`FaultPlan::maybe_panic`] in a map closure — a **stage panic**
///   (poisons one envelope in a farm worker);
/// * [`FaultPlan::maybe_panic`] in a barrier closure — a **barrier
///   panic** (poisons the item at a sequential hop);
/// * [`FaultPlan::maybe_delay`] — an **artificial delay**, a short
///   seeded sleep perturbing worker interleaving;
/// * [`FaultPlan::maybe_stall`] — a **lane stall**, a long sleep
///   modeling one wedged worker holding a lane while the rest of the
///   stream flows around it.
///
/// The seed comes from the test (or [`FaultPlan::from_env`], which reads
/// `SCL_FAULT_SEED` so CI can sweep a seed matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
}

impl FaultPlan {
    /// A plan making every decision from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed }
    }

    /// Seed from the `SCL_FAULT_SEED` environment variable (decimal or
    /// `0x`-prefixed hex), falling back to `default_seed` when unset or
    /// unparsable.
    pub fn from_env(default_seed: u64) -> FaultPlan {
        let seed = std::env::var("SCL_FAULT_SEED")
            .ok()
            .and_then(|s| {
                let s = s.trim();
                match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => s.parse().ok(),
                }
            })
            .unwrap_or(default_seed);
        FaultPlan::new(seed)
    }

    /// The seed every decision derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The raw 64-bit decision word for `(site, value)` — FNV-1a over
    /// the site name and value bytes, salted by the seed, then
    /// avalanched. Stable across platforms and runs.
    pub fn decide(&self, site: &str, value: i64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in site.bytes().chain(value.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // SplitMix64 finalizer: FNV alone avalanches poorly in the low bits
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    /// Whether the fault at `site` fires for `value`, with odds of one
    /// in `one_in` (`1` = always, `0` = never).
    pub fn fires(&self, site: &str, value: i64, one_in: u64) -> bool {
        one_in > 0 && self.decide(site, value).is_multiple_of(one_in)
    }

    /// Panic with a labelled, reproducible message when the seeded
    /// decision for `(site, value)` fires.
    pub fn maybe_panic(&self, site: &str, value: i64, one_in: u64) {
        if self.fires(site, value, one_in) {
            panic!(
                "injected fault at `{site}` on {value} (seed {:#x})",
                self.seed
            );
        }
    }

    /// Sleep a seeded duration in `[0, max_micros]` µs when the decision
    /// fires — an artificial delay that perturbs worker interleaving
    /// without changing any answer.
    pub fn maybe_delay(&self, site: &str, value: i64, one_in: u64, max_micros: u64) {
        if self.fires(site, value, one_in) && max_micros > 0 {
            let us = self.decide(site, value.wrapping_add(1)) % (max_micros + 1);
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }

    /// Sleep a fixed `millis` when the decision fires — a lane stall:
    /// one worker wedges while the rest of the stream flows around it.
    pub fn maybe_stall(&self, site: &str, value: i64, one_in: u64, millis: u64) {
        if self.fires(site, value, one_in) {
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
    }
}

/// A counting global allocator for allocation-budget benchmarks.
///
/// Install it in a bench binary with
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: scl_testkit::alloc::CountingAlloc = scl_testkit::alloc::CountingAlloc;
/// ```
///
/// and read [`alloc::allocations`] / [`alloc::allocated_bytes`] before and
/// after the measured section; the deltas are the section's heap traffic.
/// Counters are process-global atomics (never reset), so concurrent
/// measurement sections must be serialised by the caller.
pub mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper counting every allocation (and realloc)
    /// and the bytes requested.
    pub struct CountingAlloc;

    // SAFETY: delegates directly to `System`; the counters are monotonic
    // atomics with no further invariants.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    /// Total allocations (+ reallocs) since process start.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }

    /// Total bytes requested since process start.
    pub fn allocated_bytes() -> u64 {
        BYTES.load(Ordering::Relaxed)
    }
}

/// Run `body` for `n` independently seeded cases. On panic, the failing
/// case's index and seed are printed before the panic propagates, so
/// `Rng::seed_from_u64(seed)` reproduces it exactly.
pub fn cases(n: usize, base_seed: u64, mut body: impl FnMut(&mut Rng)) {
    for i in 0..n {
        let seed = base_seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(i as u64);
        let mut rng = Rng::seed_from_u64(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!("testkit case {i}/{n} failed (seed = {seed:#x})");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.range_i64(-5, 17);
            assert!((-5..17).contains(&x));
            let u = r.range_usize(3, 9);
            assert!((3..9).contains(&u));
            let f = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn below_covers_all_residues() {
        let mut r = Rng::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cases_reports_and_runs_all() {
        let mut count = 0;
        cases(25, 9, |rng| {
            let _ = rng.any_i64();
            count += 1;
        });
        assert_eq!(count, 25);
    }

    #[test]
    fn pick_and_vec_of() {
        let mut r = Rng::seed_from_u64(3);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.pick(&items)));
        }
        let v = r.vec_of(12, |rng| rng.below(4));
        assert_eq!(v.len(), 12);
        assert!(v.iter().all(|&x| x < 4));
    }

    #[test]
    fn fault_decisions_are_pure_functions_of_seed_site_and_value() {
        let a = FaultPlan::new(0xfa11);
        let b = FaultPlan::new(0xfa11);
        for v in -50..50 {
            assert_eq!(a.decide("stage", v), b.decide("stage", v));
            assert_eq!(a.fires("stage", v, 8), b.fires("stage", v, 8));
        }
        // different seeds and different sites decorrelate
        let c = FaultPlan::new(0xfa12);
        assert!((-50..50).any(|v| a.fires("stage", v, 8) != c.fires("stage", v, 8)));
        assert!((-50..50).any(|v| a.fires("stage", v, 8) != a.fires("barrier", v, 8)));
    }

    #[test]
    fn fault_rates_are_roughly_honoured() {
        let p = FaultPlan::new(99);
        let hits = (0..10_000).filter(|&v| p.fires("site", v, 10)).count();
        assert!((700..1_300).contains(&hits), "one-in-10 gave {hits}/10000");
        assert!((0..10_000).all(|v| !p.fires("site", v, 0)), "0 = never");
        assert!((0..10_000).all(|v| p.fires("site", v, 1)), "1 = always");
    }

    #[test]
    fn maybe_panic_carries_the_site_and_value() {
        let p = FaultPlan::new(7);
        let v = (0..1_000).find(|&v| p.fires("boom", v, 2)).unwrap();
        let err = std::panic::catch_unwind(|| p.maybe_panic("boom", v, 2)).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("injected fault at `boom`"), "{msg}");
        assert!(msg.contains(&v.to_string()), "{msg}");
        // a value the plan spares must pass through untouched
        let spared = (0..1_000).find(|&v| !p.fires("boom", v, 2)).unwrap();
        p.maybe_panic("boom", spared, 2);
    }
}
