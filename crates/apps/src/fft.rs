//! Parallel FFT via binary exchange on a hypercube — the canonical
//! `fetch (xor 2^s)` butterfly workload.
//!
//! The radix-2 Cooley–Tukey stages whose partner bit falls *inside* a
//! processor's block are pure local compute; the top `log₂ p` stages pair
//! whole blocks across the cube dimensions, exactly the partner-exchange
//! pattern hyperquicksort uses — one `fetch(xor mask)` per stage. This is
//! the textbook demonstration that SCL's skeleton set covers the classic
//! hypercube algorithms beyond sorting.

use scl_core::align;
use scl_core::prelude::*;
use std::f64::consts::PI;

/// A complex number as `(re, im)` (keeps the wire format trivial).
pub type Cplx = (f64, f64);

#[inline]
fn c_add(a: Cplx, b: Cplx) -> Cplx {
    (a.0 + b.0, a.1 + b.1)
}

#[inline]
fn c_sub(a: Cplx, b: Cplx) -> Cplx {
    (a.0 - b.0, a.1 - b.1)
}

#[inline]
fn c_mul(a: Cplx, b: Cplx) -> Cplx {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// `e^{-2πi k / n}` (forward transform twiddle).
fn twiddle(k: usize, n: usize) -> Cplx {
    let ang = -2.0 * PI * k as f64 / n as f64;
    (ang.cos(), ang.sin())
}

/// Bit-reversal permutation of a power-of-two-length slice.
pub fn bit_reverse<T: Clone>(x: &[T]) -> Vec<T> {
    let n = x.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    let bits = n.trailing_zeros();
    if bits == 0 {
        return x.to_vec();
    }
    (0..n)
        .map(|i| {
            let j = i.reverse_bits() >> (usize::BITS - bits);
            x[j].clone()
        })
        .collect()
}

/// The butterfly update of element with global index `g` at stage `s`
/// (`half = 2^s`), given its own value and its partner's.
#[inline]
fn butterfly(g: usize, half: usize, own: Cplx, partner: Cplx) -> Cplx {
    let j = g & (half - 1);
    let w = twiddle(j, 2 * half);
    if g & half == 0 {
        c_add(own, c_mul(w, partner))
    } else {
        c_sub(partner, c_mul(w, own))
    }
}

/// Sequential iterative radix-2 FFT (the baseline and the reference the
/// parallel version must match element-for-element).
pub fn fft_seq(input: &[Cplx]) -> Vec<Cplx> {
    let n = input.len();
    let mut x = bit_reverse(input);
    let mut half = 1usize;
    while half < n {
        let prev = x.clone();
        for (g, slot) in x.iter_mut().enumerate() {
            *slot = butterfly(g, half, prev[g], prev[g ^ half]);
        }
        half <<= 1;
    }
    x
}

/// Naive O(n²) DFT — the independent ground truth for tests.
pub fn dft_naive(input: &[Cplx]) -> Vec<Cplx> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = (0.0, 0.0);
            for (j, &v) in input.iter().enumerate() {
                acc = c_add(acc, c_mul(v, twiddle(k * j, n)));
            }
            acc
        })
        .collect()
}

/// SCL binary-exchange FFT on `p = 2^d` processors (`p` must divide `n`).
/// Returns the transform in natural frequency order; read `scl.makespan()`
/// for the predicted time.
pub fn fft_scl(scl: &mut Scl, input: &[Cplx], p: usize) -> Vec<Cplx> {
    let n = input.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    assert!(
        p.is_power_of_two(),
        "processor count must be a power of two, got {p}"
    );
    assert!(n >= p, "need at least one point per processor");
    scl.check_fits(p);
    scl.machine.barrier();

    let blk = n / p;
    // bit-reversal reorder, then scatter
    let reordered = bit_reverse(input);
    let da = scl.partition_owned(Pattern::Block(p), reordered);

    // local stages: partner index inside the block
    let mut da = scl.imap_costed(&da, |pid, part| {
        let mut x = part.clone();
        let base = pid * blk;
        let mut half = 1usize;
        let mut flops = 0u64;
        while half < blk {
            let prev = x.clone();
            for (l, slot) in x.iter_mut().enumerate() {
                let g = base + l;
                *slot = butterfly(g, half, prev[l], prev[l ^ half]);
                flops += 10;
            }
            half <<= 1;
        }
        (x, Work::flops(flops))
    });

    // exchange stages: partner block across cube dimension
    let mut half = blk;
    while half < n {
        let mask = half / blk; // which processor bit flips
        let partner_blocks = scl.fetch(move |i| i ^ mask, &da);
        let cfg = align(da, partner_blocks);
        da = scl.imap_costed(&cfg, move |pid, (own, partner)| {
            let base = pid * blk;
            let mut x = Vec::with_capacity(blk);
            for l in 0..blk {
                let g = base + l;
                x.push(butterfly(g, half, own[l], partner[l]));
            }
            (x, Work::flops(10 * blk as u64))
        });
        half <<= 1;
    }

    scl.gather_owned(da)
}

/// Inverse FFT via the conjugation trick (used by the round-trip tests).
pub fn ifft_seq(input: &[Cplx]) -> Vec<Cplx> {
    let conj: Vec<Cplx> = input.iter().map(|&(re, im)| (re, -im)).collect();
    let n = input.len() as f64;
    fft_seq(&conj)
        .iter()
        .map(|&(re, im)| (re / n, -im / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::uniform_keys;

    fn signal(n: usize, seed: u64) -> Vec<Cplx> {
        uniform_keys(2 * n, seed)
            .chunks(2)
            .map(|c| {
                (
                    (c[0] % 1000) as f64 / 500.0 - 1.0,
                    (c[1] % 1000) as f64 / 500.0 - 1.0,
                )
            })
            .collect()
    }

    fn close(a: &[Cplx], b: &[Cplx], tol: f64) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x.0 - y.0).abs() < tol && (x.1 - y.1).abs() < tol)
    }

    #[test]
    fn bit_reverse_involution() {
        let v: Vec<usize> = (0..16).collect();
        assert_eq!(bit_reverse(&bit_reverse(&v)), v);
        assert_eq!(bit_reverse(&[0, 1, 2, 3]), vec![0, 2, 1, 3]);
    }

    #[test]
    fn fft_matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let x = signal(n, n as u64);
            assert!(close(&fft_seq(&x), &dft_naive(&x), 1e-9), "n={n}");
        }
    }

    #[test]
    fn known_transform_of_impulse() {
        // FFT of a unit impulse is all ones
        let mut x = vec![(0.0, 0.0); 8];
        x[0] = (1.0, 0.0);
        let f = fft_seq(&x);
        assert!(f
            .iter()
            .all(|&(re, im)| (re - 1.0).abs() < 1e-12 && im.abs() < 1e-12));
    }

    #[test]
    fn inverse_round_trip() {
        let x = signal(64, 3);
        let back = ifft_seq(&fft_seq(&x));
        assert!(close(&back, &x, 1e-9));
    }

    #[test]
    fn scl_fft_matches_sequential() {
        let x = signal(256, 7);
        let seq = fft_seq(&x);
        for p in [1usize, 2, 4, 8, 16] {
            let mut scl = Scl::hypercube(p.max(1), CostModel::ap1000());
            let par = fft_scl(&mut scl, &x, p);
            assert!(close(&par, &seq, 1e-9), "p={p}");
        }
    }

    #[test]
    fn exchange_stage_count_is_log_p() {
        let x = signal(256, 9);
        let msgs = |p: usize| {
            let mut scl = Scl::hypercube(p, CostModel::ap1000());
            let _ = fft_scl(&mut scl, &x, p);
            scl.machine.metrics.messages
        };
        // each exchange stage is a p-message fetch permute: log2(p) stages
        assert_eq!(msgs(2), 2);
        assert_eq!(msgs(4), 2 * 4);
        assert_eq!(msgs(8), 3 * 8);
    }

    #[test]
    fn fft_speedup_sublinear() {
        let x = signal(4096, 2);
        let time = |p: usize| {
            let mut scl = Scl::hypercube(p, CostModel::ap1000());
            let _ = fft_scl(&mut scl, &x, p);
            scl.makespan().as_secs()
        };
        let t1 = time(1);
        let t16 = time(16);
        assert!(t16 < t1);
        assert!(t1 / t16 < 16.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = fft_seq(&signal(12, 1));
    }
}
