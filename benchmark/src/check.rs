//! Content checks. Two folds over an object's bytes, both independent of
//! how the bytes arrive in slices:
//!
//! * [`Digest`] reads every byte; it runs outside the timed segments.
//! * [`Sampler`] reads one byte per 4 KB and is cheap enough (2 560
//!   bytes of a 10 MB object) to run inside a timed pass, where it also
//!   keeps the compiler from dropping the read. Every insert or delete
//!   shifts all later bytes, so a pass over the wrong version, or one
//!   that lands a segment at the wrong offset, changes nearly every
//!   sample.

const K: u64 = 0x0000_0100_0000_01B3;
const SAMPLE_STRIDE: u64 = 4096;

/// Whole-content digest, eight bytes a step.
#[derive(Clone, Debug)]
pub struct Digest {
    h: u64,
    pend: [u8; 8],
    n: usize,
}

impl Digest {
    pub fn new() -> Digest {
        Digest {
            h: 0xCBF2_9CE4_8422_2325,
            pend: [0; 8],
            n: 0,
        }
    }

    fn word(&mut self, w: u64) {
        self.h = (self.h ^ w).wrapping_mul(K).rotate_left(29);
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.n > 0 {
            let take = (8 - self.n).min(bytes.len());
            self.pend[self.n..self.n + take].copy_from_slice(&bytes[..take]);
            self.n += take;
            bytes = &bytes[take..];
            if self.n < 8 {
                return;
            }
            self.word(u64::from_le_bytes(self.pend));
            self.n = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.pend[..rest.len()].copy_from_slice(rest);
        self.n = rest.len();
    }

    pub fn finish(mut self) -> u64 {
        let tail = self.n as u64;
        self.pend[self.n..].fill(0);
        self.word(u64::from_le_bytes(self.pend));
        self.word(tail);
        self.h
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Digest::new();
        d.update(bytes);
        d.finish()
    }
}

/// Fold of the bytes at object offsets 0, 4096, 8192, ...
#[derive(Clone, Debug)]
pub struct Sampler {
    h: u64,
    pos: u64,
    next: u64,
}

impl Sampler {
    pub fn new() -> Sampler {
        Sampler {
            h: 0xCBF2_9CE4_8422_2325,
            pos: 0,
            next: 0,
        }
    }

    /// Feed the next `bytes` of the object, in order.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let end = self.pos + bytes.len() as u64;
        while self.next < end {
            let b = bytes[(self.next - self.pos) as usize];
            self.h = (self.h ^ u64::from(b)).wrapping_mul(K);
            self.next += SAMPLE_STRIDE;
        }
        self.pos = end;
    }

    /// The fold, mixed with the number of bytes seen.
    pub fn finish(self) -> u64 {
        (self.h ^ self.pos).wrapping_mul(K)
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut s = Sampler::new();
        s.update(bytes);
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fill;

    fn content() -> Vec<u8> {
        let mut v = vec![0u8; 70_001];
        fill(&mut v, 9);
        v
    }

    #[test]
    fn folds_do_not_depend_on_slicing() {
        let v = content();
        for step in [1usize, 7, 8, 4096, 5000, 70_001] {
            let (mut d, mut s) = (Digest::new(), Sampler::new());
            for c in v.chunks(step) {
                d.update(c);
                s.update(c);
            }
            assert_eq!(d.finish(), Digest::of(&v), "digest, step {step}");
            assert_eq!(s.finish(), Sampler::of(&v), "sampler, step {step}");
        }
    }

    #[test]
    fn folds_see_a_shift_a_flip_and_a_truncation() {
        let v = content();
        let mut shifted = v.clone();
        shifted.insert(10, 0);
        assert_ne!(Digest::of(&v), Digest::of(&shifted));
        assert_ne!(Sampler::of(&v), Sampler::of(&shifted));
        let mut flipped = v.clone();
        flipped[4096 * 3] ^= 1;
        assert_ne!(Digest::of(&v), Digest::of(&flipped));
        assert_ne!(Sampler::of(&v), Sampler::of(&flipped));
        flipped[4096 * 3] ^= 1;
        flipped[4096 * 3 + 1] ^= 1;
        assert_ne!(Digest::of(&v), Digest::of(&flipped), "unsampled byte");
        assert_ne!(Digest::of(&v), Digest::of(&v[..v.len() - 1]));
        assert_ne!(Sampler::of(&v), Sampler::of(&v[..v.len() - 1]));
    }
}
