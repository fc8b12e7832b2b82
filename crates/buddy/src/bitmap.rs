//! The free-page bitmap stored in a buddy-space directory page, plus the
//! buddy-level logic (aligned power-of-two run search) built on top of it.
//!
//! Bit `i` set ⇒ page `i` of the space is **free**. Coalescing of buddies
//! is implicit: a buddy block is free exactly when all its bits are set,
//! so freeing any range automatically re-forms larger blocks. Searching
//! and marking are O(words) and allocate nothing: a block of up to 64
//! pages is found by folding each `u64` onto itself, a larger one as an
//! aligned chunk of full words, first fit in both cases.
//!
//! [`Bitmap`] is a view: every algorithm here runs over the bitmap's
//! little-endian words where they lie, so the manager searches and marks
//! the fixed directory page in place — a search reads words until it
//! finds its block, a mark rewrites only the words its range touches, and
//! nothing is decoded, copied or written back. [`BuddyBitmap`] is the same
//! code over a buffer of its own, for callers that have no page to hold.

use lobstore_simdisk::{bytes, cast};

/// The in-word buddy fold: with bit `i` of `t` saying "the order-`k-1`
/// block at page `i` is free", `t & (t >> FOLDS[k].0) & FOLDS[k].1` says it
/// for order `k` (`FOLDS[0]` is the identity: order 0 is the bitmap).
const FOLDS: [(u32, u64); 7] = [
    (0, u64::MAX),
    (1, 0x5555_5555_5555_5555),
    (2, 0x1111_1111_1111_1111),
    (4, 0x0101_0101_0101_0101),
    (8, 0x0001_0001_0001_0001),
    (16, 0x0000_0001_0000_0001),
    (32, 1),
];

/// A directory bitmap over the bytes `B` holds: `&[u8]` or `&mut [u8]`
/// for the bitmap region of a directory page, `Vec<u8>` for a copy.
///
/// `pages` must be a power of two so that the buddy levels line up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap<B> {
    /// At least `pages / 8` bytes; the bitmap is the first `pages / 8`.
    bytes: B,
    pages: u32,
}

/// A directory bitmap with a buffer of its own.
pub type BuddyBitmap = Bitmap<Vec<u8>>;

impl BuddyBitmap {
    /// A bitmap with every page free.
    pub fn all_free(pages: u32) -> Self {
        Bitmap::over(vec![0xFF; cast::u32_to_usize(pages / 8)], pages)
    }

    /// Deserialize from directory-page bytes (little-endian u64 words).
    pub fn from_bytes(bytes: &[u8], pages: u32) -> Self {
        let view = Bitmap::over(bytes, pages);
        Bitmap::over(view.bytes().to_vec(), pages)
    }
}

impl<B: AsRef<[u8]>> Bitmap<B> {
    /// The bitmap of a `pages`-page space stored at the start of `bytes`.
    ///
    /// # Panics
    /// If `pages` is not a power of two ≥ 64 or `bytes` is too short.
    pub fn over(bytes: B, pages: u32) -> Self {
        assert!(pages.is_power_of_two(), "buddy space size must be 2^k");
        assert!(pages >= 64, "buddy space must hold at least 64 pages");
        let bm = Bitmap { bytes, pages };
        assert!(
            bm.bytes.as_ref().len() >= bm.byte_len(),
            "directory bytes too short"
        );
        bm
    }

    /// The bitmap's bytes: `pages / 64` little-endian words.
    fn bytes(&self) -> &[u8] {
        // In range: `over` checked the length.
        self.bytes
            .as_ref()
            .get(..self.byte_len())
            .unwrap_or_default()
    }

    /// The bitmap's words, in page order.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.bytes().chunks_exact(8).map(bytes::le_u64)
    }

    /// Serialize into directory-page bytes.
    ///
    /// # Panics
    /// If `out` is shorter than [`Self::byte_len`].
    pub fn write_bytes(&self, out: &mut [u8]) {
        let Some(out) = out.get_mut(..self.byte_len()) else {
            panic!("directory buffer too short");
        };
        out.copy_from_slice(self.bytes());
    }

    /// Number of bytes the serialized bitmap occupies.
    pub fn byte_len(&self) -> usize {
        cast::u32_to_usize(self.pages / 8)
    }

    /// Pages covered by this bitmap (the buddy-space size).
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// log2 of the space size: the maximum buddy order.
    pub fn max_order(&self) -> u32 {
        self.pages.trailing_zeros()
    }

    /// Whether `page` is free.
    #[inline]
    pub fn is_free(&self, page: u32) -> bool {
        assert!(page < self.pages, "page out of space");
        // Little-endian words: bit `page % 64` of word `page / 64` is bit
        // `page % 8` of byte `page / 8`, in range by the assert.
        let byte = self.bytes().get(cast::u32_to_usize(page / 8));
        byte.copied().unwrap_or(0) & (1u8 << (page % 8)) != 0
    }

    /// The first page of `[start, start + n)` that is free (`free`) or
    /// allocated (`!free`), if there is one.
    fn first_in(&self, start: u32, n: u32, free: bool) -> Option<u32> {
        let flip = if free { 0 } else { u64::MAX };
        let (first, masks) = range_masks(self.pages, start, n);
        let mut words = self.words().skip(first).zip(masks);
        words.find_map(|(w, (base, mask))| {
            let hits = (w ^ flip) & mask;
            (hits != 0).then(|| base + hits.trailing_zeros())
        })
    }

    /// Whether all pages in `[start, start + n)` are free.
    ///
    /// # Panics
    /// If the range leaves the space.
    pub fn run_free(&self, start: u32, n: u32) -> bool {
        self.first_in(start, n, false).is_none()
    }

    /// Number of free pages.
    pub fn free_pages(&self) -> u32 {
        self.words().map(u64::count_ones).sum()
    }

    /// Every maximal run of free (`free`) or allocated (`!free`) pages as
    /// `(start, length)`, ascending.
    pub(crate) fn runs(&self, free: bool) -> impl Iterator<Item = (u32, u32)> + '_ {
        let mut next = 0;
        std::iter::from_fn(move || {
            let start = self.first_in(next, self.pages.saturating_sub(next), free)?;
            let rest = self.pages.saturating_sub(start);
            next = self.first_in(start, rest, !free).unwrap_or(self.pages);
            Some((start, next.saturating_sub(start)))
        })
    }

    /// Find the first free buddy block of order `order` (an aligned run of
    /// `2^order` free pages) and return its start page.
    pub fn find_block(&self, order: u32) -> Option<u32> {
        assert!(order <= self.max_order(), "order beyond space size");
        // Up to 64 pages a block sits inside one word: fold, lowest bit.
        let Some(folds) = FOLDS.get(..=cast::u32_to_usize(order)) else {
            return self.find_full_chunk(order);
        };
        let mut words = self.words().zip((0u32..).step_by(64));
        words.find_map(|(w, base)| {
            let t = folds.iter().fold(w, |t, &(s, m)| t & (t >> s) & m);
            (t != 0).then(|| base + t.trailing_zeros())
        })
    }

    /// [`Self::find_block`] above 64 pages: the first aligned chunk of
    /// completely free words. A chunk is given up at its first word that
    /// is not.
    fn find_full_chunk(&self, order: u32) -> Option<u32> {
        let chunk = self.byte_len() >> (self.max_order() - order);
        let mut chunks = (self.bytes().chunks_exact(chunk)).zip((0u32..).step_by(chunk * 8));
        chunks.find_map(|(c, base)| {
            let mut words = c.chunks_exact(8).map(bytes::le_u64);
            words.all(|w| w == u64::MAX).then_some(base)
        })
    }

    /// The largest order for which a free aligned block exists, or `None`
    /// if the space is completely full.
    ///
    /// Top down, because an aged space usually still has a large block: the
    /// first order above 6 with a free chunk is the answer, found after
    /// about one chunk's worth of words. At worst every chunk of an order
    /// above the answer reads two answer-sized chunks of words before it
    /// meets one that is not full, so those orders together read under two
    /// bitmaps' worth and the answering order under one more; only a space
    /// with no free block above 64 pages goes on to fold every word.
    pub fn max_free_order(&self) -> Option<u32> {
        let mut above = (7..=self.max_order()).rev();
        if let Some(order) = above.find(|&o| self.find_full_chunk(o).is_some()) {
            return Some(order);
        }
        // `levels[k]`: every word's order-`k` fold, ORed together.
        let mut levels = [0u64; FOLDS.len()];
        for w in self.words() {
            let mut t = w;
            for (level, &(s, m)) in levels.iter_mut().zip(&FOLDS) {
                t &= (t >> s) & m;
                *level |= t;
            }
        }
        levels.iter().rposition(|&l| l != 0).map(cast::usize_to_u32)
    }
}

impl<B: AsRef<[u8]> + AsMut<[u8]>> Bitmap<B> {
    /// Replace each word `w` that `[start, start + n)` touches by
    /// `f(w, mask of the range's bits in it)`; no other word is written.
    fn rewrite(&mut self, start: u32, n: u32, mut f: impl FnMut(u64, u64) -> u64) {
        let (first, masks) = range_masks(self.pages, start, n);
        let len = self.byte_len();
        // In range: `over` checked the length.
        let bytes = self.bytes.as_mut().get_mut(..len).unwrap_or_default();
        for (word, (_, mask)) in bytes.chunks_exact_mut(8).skip(first).zip(masks) {
            let w = f(bytes::le_u64(word), mask);
            word.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Mark `[start, start + n)` allocated.
    ///
    /// # Panics
    /// In debug builds, if any page in the range is already allocated.
    pub fn mark_used(&mut self, start: u32, n: u32) {
        debug_assert!(
            self.run_free(start, n),
            "double allocation of page {}",
            self.first_in(start, n, false).unwrap_or(start)
        );
        self.claim(start, n);
    }

    /// Mark `[start, start + n)` allocated wherever it is not yet, and
    /// return how many pages that flipped.
    pub(crate) fn claim(&mut self, start: u32, n: u32) -> u32 {
        let mut flipped = 0;
        self.rewrite(start, n, |w, mask| {
            flipped += (w & mask).count_ones();
            w & !mask
        });
        flipped
    }

    /// Mark `[start, start + n)` free wherever it is not yet, and return
    /// how many pages that flipped.
    pub(crate) fn unclaim(&mut self, start: u32, n: u32) -> u32 {
        let mut flipped = 0;
        self.rewrite(start, n, |w, mask| {
            flipped += (!w & mask).count_ones();
            w | mask
        });
        flipped
    }

    /// Mark `[start, start + n)` free.
    ///
    /// # Panics
    /// In debug builds, if any page in the range is already free
    /// (double free).
    pub fn mark_free(&mut self, start: u32, n: u32) {
        debug_assert!(
            self.first_in(start, n, true).is_none(),
            "double free of page {}",
            self.first_in(start, n, true).unwrap_or(start)
        );
        self.rewrite(start, n, |w, mask| w | mask);
    }
}

/// The words `[start, start + n)` of a `pages`-page space touches: the
/// index of the first, and for each in turn `(page of its bit 0, mask of
/// its bits inside the range)`.
///
/// # Panics
/// If the range leaves the space.
fn range_masks(pages: u32, start: u32, n: u32) -> (usize, impl Iterator<Item = (u32, u64)>) {
    let Some(end) = start.checked_add(n).filter(|&end| end <= pages) else {
        panic!("range out of space");
    };
    let low_bits = |k: u32| u64::MAX.checked_shr(64 - k).unwrap_or(0);
    let first = start / 64;
    let masks = (first * 64..end).step_by(64).map(move |base| {
        let lo = start.max(base) - base;
        let hi = end.min(base + 64) - base;
        (base, low_bits(hi) & !low_bits(lo))
    });
    (cast::u32_to_usize(first), masks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::SplitMix;

    /// One buddy fold, a bit at a time: output bit `i` = input bit `2i`
    /// AND input bit `2i+1`. The search this crate shipped before the
    /// word-parallel one, kept as its oracle.
    fn fold_level(level: &[u64]) -> Vec<u64> {
        let out_bits = level.len() * 64 / 2;
        let n_words = out_bits.div_ceil(64);
        let mut out = vec![0u64; n_words];
        let bit = |at: usize| level.get(at / 64).copied().unwrap_or(0) >> (at % 64) & 1;
        for i in 0..out_bits {
            if bit(2 * i) & bit(2 * i + 1) == 1 {
                if let Some(w) = out.get_mut(i / 64) {
                    *w |= 1u64 << (i % 64);
                }
            }
        }
        out
    }

    impl BuddyBitmap {
        /// Bit vector for buddy order `order` (order 0 = the page bitmap):
        /// bit `i` means "the block starting at page `i·2^order` is free".
        fn level(&self, order: u32) -> Vec<u64> {
            let mut cur: Vec<u64> = self.words().collect();
            for _ in 0..order {
                cur = fold_level(&cur);
            }
            cur
        }

        fn oracle_find_block(&self, order: u32) -> Option<u32> {
            let level = self.level(order);
            for (wi, &w) in level.iter().enumerate() {
                if w != 0 {
                    let bit = w.trailing_zeros();
                    let block = wi as u32 * 64 + bit;
                    return Some(block << order);
                }
            }
            None
        }

        fn oracle_max_free_order(&self) -> Option<u32> {
            // Fold upward until a level has no set bits.
            let mut cur: Vec<u64> = self.words().collect();
            if cur.iter().all(|&w| w == 0) {
                return None;
            }
            let mut best = 0u32;
            for order in 1..=self.max_order() {
                cur = fold_level(&cur);
                if cur.iter().all(|&w| w == 0) {
                    break;
                }
                best = order;
            }
            Some(best)
        }

        /// Force `[start, start + n)` free or allocated whatever it held,
        /// through every range operation.
        fn set(&mut self, start: u32, n: u32, free: bool) {
            self.claim(start, n);
            self.mark_free(start, n);
            assert!(self.run_free(start, n));
            if !free {
                self.mark_used(start, n);
                assert_eq!(self.first_in(start, n, true), None);
            }
        }
    }

    #[track_caller]
    fn assert_matches_fold(b: &BuddyBitmap) {
        for o in 0..=b.max_order() {
            assert_eq!(b.find_block(o), b.oracle_find_block(o), "order {o}");
        }
        assert_eq!(b.max_free_order(), b.oracle_max_free_order());
    }

    /// One step of the seeded scripts: single pages, short runs, runs that
    /// straddle a word, Starburst-sized tails, the whole space.
    fn random_step(b: &mut BuddyBitmap, rng: &mut SplitMix) -> (u32, u32, bool) {
        let pages = b.pages();
        let n = match rng.below(16) {
            0..=5 => 1,
            6..=10 => 2 + rng.below(15),
            11..=13 => 40 + rng.below(90),
            14 => 1000 + rng.below(2001),
            _ if rng.below(8) == 0 => pages,
            _ => 64 << rng.below(3),
        }
        .min(pages);
        // Long runs sit at the end of the space, like a trimmed tail; the
        // 64/128/256-page ones are aligned half of the time.
        let start = match n {
            1000.. => pages - n,
            64 | 128 | 256 if rng.below(2) == 0 => rng.below(pages / n) * n,
            _ => rng.below(pages - n + 1),
        };
        let free = rng.below(2) == 0;
        b.set(start, n, free);
        (start, n, free)
    }

    #[test]
    fn word_parallel_search_matches_the_fold() {
        // The oracle is the slow side: ~2 x pages bit reads per order.
        let budget: u32 = if cfg!(debug_assertions) {
            1 << 20
        } else {
            1 << 25
        };
        for pages in [64u32, 128, 256, 4096, 16384] {
            let mut rng = SplitMix(u64::from(pages));
            for start_full in [false, true] {
                let mut b = BuddyBitmap::all_free(pages);
                if start_full {
                    b.mark_used(0, pages);
                }
                assert_matches_fold(&b);
                for _ in 0..(budget / pages).clamp(48, 4096) {
                    random_step(&mut b, &mut rng);
                    assert_matches_fold(&b);
                }
            }
        }
    }

    #[test]
    fn search_at_the_word_and_chunk_seams() {
        // A free 64-run across two words is no order-6 block.
        let mut b = BuddyBitmap::all_free(128);
        b.mark_used(0, 32);
        b.mark_used(96, 32);
        assert_eq!(b.find_block(6), None, "64 free pages, not aligned");
        assert_eq!(b.find_block(5), Some(32));
        assert_eq!(b.max_free_order(), Some(5));
        assert_matches_fold(&b);

        // Orders 5/6/7 where the in-word fold hands over to word chunks.
        let mut b = BuddyBitmap::all_free(256);
        b.mark_used(0, 256);
        b.mark_free(96, 32);
        assert_eq!((b.find_block(5), b.find_block(6)), (Some(96), None));
        b.mark_free(64, 32);
        assert_eq!((b.find_block(6), b.find_block(7)), (Some(64), None));
        b.mark_free(128, 64);
        assert_eq!(b.find_block(7), None, "words 1-2: a 128-run off its seam");
        assert_eq!(b.max_free_order(), Some(6));
        assert_matches_fold(&b);
        b.mark_free(192, 64);
        assert_eq!(b.find_block(7), Some(128));
        assert_eq!(b.max_free_order(), Some(7));
        assert_matches_fold(&b);

        // The smallest space is one word and tops out at order 6.
        let mut b = BuddyBitmap::all_free(64);
        assert_eq!(b.max_order(), 6);
        assert_eq!((b.find_block(6), b.max_free_order()), (Some(0), Some(6)));
        b.mark_used(63, 1);
        assert_eq!((b.find_block(6), b.find_block(5)), (None, Some(0)));
        assert_eq!(b.max_free_order(), Some(5));
        assert_matches_fold(&b);

        // Paper scale: half of a 64 MB space gone to one 32 MB segment.
        let mut b = BuddyBitmap::all_free(16384);
        assert_matches_fold(&b);
        b.mark_used(0, 8192);
        assert_eq!(b.find_block(13), Some(8192));
        assert_matches_fold(&b);
    }

    /// Shapes the seeded scripts rarely make, each a corner of the
    /// top-down hint search: nothing to find at any order, everything at
    /// the first, only in-word blocks, the answer in the last chunk looked
    /// at, and chunks that are free in part but never in full.
    #[test]
    fn hint_matches_the_fold_on_adversarial_shapes() {
        for pages in [64u32, 128, 1024, 16384] {
            let full = || {
                let mut b = BuddyBitmap::all_free(pages);
                b.mark_used(0, pages);
                b
            };
            let top = pages.trailing_zeros();
            let mut shapes = vec![(BuddyBitmap::all_free(pages), Some(top)), (full(), None)];
            for page in [0, 63, pages / 2, pages - 1] {
                let mut b = full();
                b.mark_free(page, 1);
                shapes.push((b, Some(0)));
            }
            // Every word keeps its low half: order-5 blocks everywhere, no
            // full word anywhere.
            let mut b = BuddyBitmap::all_free(pages);
            (32..pages).step_by(64).for_each(|p| b.mark_used(p, 32));
            shapes.push((b, Some(5)));
            // One free block of order 6, then of order 7 (where there is
            // room for one), at the very end of an otherwise full space.
            for order in [6, 7].into_iter().filter(|&o| o <= top) {
                let mut b = full();
                b.mark_free(pages - (1 << order), 1 << order);
                shapes.push((b, Some(order)));
            }
            // Alternating full and empty words: half the space is free and
            // no two free words are buddies. Then the other phase, and the
            // same with a page missing from each half of every free word.
            for phase in [0, 64] {
                for dent in [false, true] {
                    let mut b = full();
                    for p in (phase..pages).step_by(128) {
                        b.mark_free(p, 64);
                        if dent {
                            b.mark_used(p + 17, 1);
                            b.mark_used(p + 49, 1);
                        }
                    }
                    let want = (pages > phase).then_some(if dent { 4 } else { 6 });
                    shapes.push((b, want));
                }
            }
            // A free run of half the space, off its seam by one word.
            if pages >= 256 {
                let mut b = full();
                b.mark_free(64, pages / 2);
                shapes.push((b, Some(top - 2)));
            }
            for (b, want) in &shapes {
                assert_eq!(b.max_free_order(), *want, "{pages} pages");
                assert_matches_fold(b);
            }
        }
    }

    #[test]
    fn range_ops_and_runs_match_a_page_model() {
        for pages in [64u32, 256, 4096] {
            let mut rng = SplitMix(u64::from(pages) + 1);
            let mut b = BuddyBitmap::all_free(pages);
            let mut model = vec![true; pages as usize];
            for _ in 0..400 {
                let (start, n, free) = random_step(&mut b, &mut rng);
                model[start as usize..(start + n) as usize].fill(free);
                let got: Vec<bool> = (0..pages).map(|p| b.is_free(p)).collect();
                assert_eq!(got, model, "after [{start}, +{n}) := {free}");
                for free in [true, false] {
                    let mut want = Vec::new();
                    let mut p = 0;
                    while p < model.len() {
                        let len = model[p..].iter().take_while(|&&f| f == free).count();
                        if len > 0 {
                            want.push((p as u32, len as u32));
                        }
                        p += len.max(1);
                    }
                    assert_eq!(b.runs(free).collect::<Vec<_>>(), want);
                }
            }
        }
    }

    #[test]
    fn ranges_that_leave_the_space_fail_alike() {
        let panics = |f: fn(&mut BuddyBitmap)| {
            let err = std::panic::catch_unwind(|| f(&mut BuddyBitmap::all_free(64))).unwrap_err();
            err.downcast_ref::<&str>().map(|s| s.to_string())
        };
        let want = Some("range out of space".to_string());
        assert_eq!(panics(|b| assert!(b.run_free(60, 5))), want);
        assert_eq!(panics(|b| b.mark_used(60, 5)), want);
        assert_eq!(panics(|b| b.mark_free(64, 1)), want);
        assert_eq!(panics(|b| assert!(b.run_free(1, u32::MAX))), want);
        // An empty range at the very end is inside the space.
        let mut b = BuddyBitmap::all_free(64);
        assert!(b.run_free(64, 0));
        b.mark_used(64, 0);
        b.mark_free(13, 0);
        assert_eq!(b.free_pages(), 64);
    }

    #[test]
    fn fresh_space_is_all_free() {
        let b = BuddyBitmap::all_free(256);
        assert_eq!(b.free_pages(), 256);
        assert_eq!(b.max_free_order(), Some(8));
        assert_eq!(b.find_block(8), Some(0));
        assert_eq!(b.find_block(0), Some(0));
    }

    #[test]
    fn mark_and_find() {
        let mut b = BuddyBitmap::all_free(256);
        b.mark_used(0, 3); // trimmed allocation of 3 pages out of a 4-block
        assert!(!b.is_free(0));
        assert!(b.is_free(3));
        // The first order-2 (4-page, aligned) free block starts at 4.
        assert_eq!(b.find_block(2), Some(4));
        // Order-0 block: page 3 is the trim remainder.
        assert_eq!(b.find_block(0), Some(3));
        assert_eq!(
            b.max_free_order(),
            Some(7),
            "half the space still free as one block"
        );
    }

    #[test]
    fn coalescing_is_implicit() {
        let mut b = BuddyBitmap::all_free(128);
        b.mark_used(0, 128);
        assert_eq!(b.max_free_order(), None);
        b.mark_free(0, 64);
        assert_eq!(b.max_free_order(), Some(6));
        b.mark_free(64, 64);
        assert_eq!(b.max_free_order(), Some(7), "buddies coalesce");
        assert_eq!(b.find_block(7), Some(0));
    }

    #[test]
    fn alignment_is_respected() {
        let mut b = BuddyBitmap::all_free(64);
        // Free pages 1..=8: 8 consecutive free pages but no aligned 8-run.
        b.mark_used(0, 64);
        b.mark_free(1, 8);
        assert!(b.run_free(1, 8));
        assert_eq!(b.find_block(3), None, "8-run not aligned");
        assert_eq!(b.find_block(2), Some(4), "pages 4..8 are an aligned 4-run");
        assert_eq!(b.max_free_order(), Some(2));
    }

    #[test]
    fn serialization_roundtrips() {
        let mut b = BuddyBitmap::all_free(512);
        b.mark_used(17, 100);
        let mut buf = vec![0u8; b.byte_len()];
        b.write_bytes(&mut buf);
        let b2 = BuddyBitmap::from_bytes(&buf, 512);
        assert_eq!(b, b2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double allocation")]
    fn double_alloc_panics_in_debug() {
        let mut b = BuddyBitmap::all_free(64);
        b.mark_used(0, 4);
        b.mark_used(2, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_panics_in_debug() {
        let mut b = BuddyBitmap::all_free(64);
        b.mark_free(0, 1);
    }

    #[test]
    fn full_space_reports_none() {
        let mut b = BuddyBitmap::all_free(64);
        b.mark_used(0, 64);
        assert_eq!(b.find_block(0), None);
        assert_eq!(b.free_pages(), 0);
    }

    #[test]
    fn paper_scale_space() {
        // 16384 pages = 64 MB of 4 KB pages per space.
        let mut b = BuddyBitmap::all_free(16384);
        assert_eq!(b.max_order(), 14);
        let s = b.find_block(13).unwrap(); // a 32 MB segment
        b.mark_used(s, 8192);
        assert_eq!(b.max_free_order(), Some(13));
        assert_eq!(b.byte_len(), 2048, "bitmap fits a 4 KB directory page");
    }
}
