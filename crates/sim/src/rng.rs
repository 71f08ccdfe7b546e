//! Seeded randomness for reproducible simulations.
//!
//! Implemented in-tree on SplitMix64 (Steele, Lea & Flood, *Fast
//! splittable pseudorandom number generators*, OOPSLA 2014) so the
//! workspace builds hermetically with no registry access. SplitMix64
//! passes BigCrush, is trivially seedable from a `u64`, and — unlike
//! most xorshift-family generators — splits into provably independent
//! streams, which [`SimRng::split`] relies on.

/// A seeded random source. Every experiment takes an explicit seed so
/// results are reproducible run-to-run and across machines.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

/// The SplitMix64 odd increment (the "golden gamma", ⌊2^64/φ⌋ | 1).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SimRng {
    /// Creates a source from a seed.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// The next raw 64-bit sample.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform sample from an inclusive range.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the sample is
    /// exactly uniform over the range (no modulo bias).
    pub fn range(&mut self, r: std::ops::RangeInclusive<u64>) -> u64 {
        let (lo, hi) = (*r.start(), *r.end());
        assert!(lo <= hi, "empty range");
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            // Full 64-bit range.
            return self.next_u64();
        }
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (span as u128);
            let low = m as u64;
            if low >= span.wrapping_neg() % span {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// A biased coin.
    pub fn chance(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // 53 random bits give a uniform f64 in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Splits off an independent stream (for per-component randomness
    /// that stays stable when other components change their draw
    /// counts).
    pub fn split(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }
}

/// Runs `property` on `cases` generated inputs: the in-tree property
/// test runner.
///
/// Case `k` draws its input from a [`SimRng`] whose seed depends only
/// on `name` and `k`, so every run checks the same cases and rerunning
/// a failed test replays its failure. A failing case panics again,
/// after its own message, naming the property, `k` and the seed.
pub fn check_cases<F: FnMut(&mut SimRng)>(name: &str, cases: u32, mut property: F) {
    // FNV-1a of the name seeds the property's stream of case seeds.
    let mut seeds = SimRng::new(
        name.bytes()
            .fold(0xCBF2_9CE4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)),
    );
    for k in 0..cases {
        let seed = seeds.next_u64();
        let run = std::panic::AssertUnwindSafe(|| property(&mut SimRng::new(seed)));
        if std::panic::catch_unwind(run).is_err() {
            panic!("property `{name}` failed on case {k} of {cases} (seed {seed:#018x})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(3);
        let mut b = SimRng::new(3);
        for _ in 0..50 {
            assert_eq!(a.range(0..=1000), b.range(0..=1000));
        }
    }

    #[test]
    fn split_streams_are_independent_of_parent_usage() {
        let mut a = SimRng::new(3);
        let mut split_early = a.split();
        let mut b = SimRng::new(3);
        let mut split_early_b = b.split();
        // Use the parents differently…
        let _ = a.range(0..=10);
        for _ in 0..5 {
            let _ = b.range(0..=10);
        }
        // …the earlier splits still agree.
        for _ in 0..20 {
            assert_eq!(split_early.range(0..=1000), split_early_b.range(0..=1000));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn range_stays_in_bounds_and_hits_endpoints() {
        let mut r = SimRng::new(42);
        let (mut saw_lo, mut saw_hi) = (false, false);
        for _ in 0..2000 {
            let v = r.range(5..=8);
            assert!((5..=8).contains(&v));
            saw_lo |= v == 5;
            saw_hi |= v == 8;
        }
        assert!(saw_lo && saw_hi, "a 4-value range should hit both endpoints in 2000 draws");
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::new(7);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_600..3_400).contains(&hits), "p=0.3 gave {hits}/10000");
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 0 from the SplitMix64 paper's
        // published implementation.
        let mut r = SimRng::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn check_cases_draws_the_same_cases_per_name() {
        let draws = |name: &str| {
            let mut seen = Vec::new();
            check_cases(name, 8, |rng| seen.push(rng.next_u64()));
            seen
        };
        assert_eq!(draws("p"), draws("p"));
        assert_ne!(draws("p"), draws("q"));
    }

    #[test]
    #[should_panic(expected = "property `even` failed on case")]
    fn check_cases_names_the_failing_case() {
        check_cases("even", 64, |rng| assert_eq!(rng.next_u64() % 2, 0));
    }
}
