//! Seeded input generation: every offset, length and payload byte the
//! benchmark hands to the engine comes from here, so one `--seed` gives
//! one input.

/// SplitMix64: tiny, and every stream position is a pure function of the
/// seed, which is what "same seed, same op stream" needs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, tag)`; tags name the use
    /// (ageing, probe offsets, ...), so adding a stream never shifts
    /// another one.
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut r = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero. Multiply-shift: the
    /// bias is below 2⁻⁴⁰ for the ranges used here (≤ 2²⁴).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// Fill `buf` with bytes that depend on `tag` and on the position, so a
/// read that lands on the wrong bytes cannot compare equal by accident.
pub fn fill(buf: &mut [u8], tag: u64) {
    let mut x = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for chunk in buf.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let take = |seed, tag| {
            let mut r = Rng::new(seed, tag);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 1), take(7, 1));
        assert_ne!(take(7, 1), take(8, 1));
        assert_ne!(take(7, 1), take(7, 2));
    }

    #[test]
    fn range_stays_inside() {
        let mut r = Rng::new(1, 1);
        for _ in 0..10_000 {
            let v = r.range(50, 150);
            assert!((50..=150).contains(&v));
        }
        assert!((0..1000).map(|_| r.below(3)).any(|v| v == 2));
    }

    #[test]
    fn fill_depends_on_tag_and_is_not_constant() {
        let (mut a, mut b) = (vec![0u8; 1001], vec![0u8; 1001]);
        fill(&mut a, 3);
        fill(&mut b, 3);
        assert_eq!(a, b);
        fill(&mut b, 4);
        assert_ne!(a, b);
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }
}
