//! A small, dependency-free, deterministic PRNG.
//!
//! The repository runs in environments with no network access, so it cannot
//! pull in the `rand` crate. Everything that needs seeded randomness —
//! workload generators, property-style test suites, benches — shares this
//! PCG32 implementation (O'Neill's `pcg32_xsh_rr_64_32`), seeded through a
//! SplitMix64 scramble so that small consecutive seeds yield uncorrelated
//! streams. All generators are fully deterministic per seed: adaptive and
//! non-adaptive runs of the same experiment see byte-identical workloads.

/// A PCG32 generator (64-bit state, 32-bit output, XSH-RR output function).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6_364_136_223_846_793_005;

/// One round of SplitMix64 — used to scramble user seeds into PCG state.
#[must_use]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Pcg32 {
    /// A generator seeded deterministically from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let init_state = splitmix64(&mut s);
        let init_inc = splitmix64(&mut s) | 1; // stream selector must be odd
        let mut rng = Self { state: 0, inc: init_inc };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(init_state);
        rng.next_u32();
        rng
    }

    /// The next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// The next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// A uniform `f64` in `[0, 1)` (53 bits of entropy).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// If `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Rejection-sample the biased zone away.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = u128::from(x).wrapping_mul(u128::from(n));
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    /// If `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        usize::try_from(self.below(n as u64)).expect("n fits usize")
    }

    /// A uniform `i64` in `[lo, hi)`.
    ///
    /// # Panics
    /// If `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi.wrapping_sub(lo) as u64;
        lo.wrapping_add(self.below(span) as i64)
    }

    /// A uniform `u32` in `[lo, hi)`.
    ///
    /// # Panics
    /// If `lo >= hi`.
    pub fn range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + u32::try_from(self.below(u64::from(hi - lo))).expect("span fits u32")
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A uniformly chosen element of `slice`.
    ///
    /// # Panics
    /// If `slice` is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.index(slice.len())]
    }

    /// Fill `buf` with uniformly random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(4) {
            let w = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

/// Run `f` `cases` times with a fresh generator per case, each derived from
/// `seed` — the shared shape of the repository's property-style tests. The
/// case index is folded into the seed so failures report a reproducible
/// sub-seed.
///
/// # Panics
/// Propagates panics from `f` (that is the point: a failing case fails the
/// test, and the printed case index pinpoints the reproduction seed).
pub fn run_cases(seed: u64, cases: u32, mut f: impl FnMut(&mut Pcg32)) {
    for case in 0..cases {
        let mut rng = Pcg32::new(seed ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        f(&mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Pcg32::new(42);
        let mut b = Pcg32::new(42);
        let mut c = Pcg32::new(43);
        let xs: Vec<u32> = (0..64).map(|_| a.next_u32()).collect();
        let ys: Vec<u32> = (0..64).map(|_| b.next_u32()).collect();
        let zs: Vec<u32> = (0..64).map(|_| c.next_u32()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Pcg32::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = rng.below(10);
            assert!(x < 10);
            seen[usize::try_from(x).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
    }

    #[test]
    fn range_i64_spans_negatives() {
        let mut rng = Pcg32::new(9);
        for _ in 0..100 {
            let x = rng.range_i64(-5, 5);
            assert!((-5..5).contains(&x));
        }
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut rng = Pcg32::new(11);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 1000.0;
        assert!((0.4..0.6).contains(&mean), "mean {mean} should be near 0.5");
    }

    #[test]
    fn fill_bytes_fills_every_length() {
        let mut rng = Pcg32::new(13);
        for len in 0..17 {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len} all zero");
            }
        }
    }

    #[test]
    fn run_cases_runs_each_case() {
        let mut n = 0;
        run_cases(1, 32, |_| n += 1);
        assert_eq!(n, 32);
    }
}
