//! Disk-image serialization: save a [`SimDisk`]'s full state to a writer
//! and load it back. Only materialized pages are stored, so images stay
//! proportional to actual content.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! [magic  8B "LOBIMG01"]
//! [seek_us u64][transfer_us_per_kb u64]
//! [n_areas u8]
//! per area:
//!   [n_pages u32]
//!   n_pages × ( [page_no u32][PAGE_SIZE bytes] )
//! ```

use std::io::{self, Read, Write};

use crate::cost::CostModel;
use crate::disk::SimDisk;
use crate::{cast, AreaId, PAGE_SIZE};

const MAGIC: &[u8; 8] = b"LOBIMG01";

impl SimDisk {
    /// Serialize the disk (cost model + every materialized page).
    pub fn write_image(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        let cost = self.cost_model();
        w.write_all(&cost.seek_us.to_le_bytes())?;
        w.write_all(&cost.transfer_us_per_kb.to_le_bytes())?;
        w.write_all(&[self.n_areas()])?;
        for a in 0..self.n_areas() {
            let area = AreaId(a);
            let pages = self.materialized_page_numbers(area);
            w.write_all(&cast::usize_to_u32(pages.len()).to_le_bytes())?;
            let mut buf = [0u8; PAGE_SIZE];
            for page in pages {
                w.write_all(&page.to_le_bytes())?;
                self.peek(area, page, &mut buf);
                w.write_all(&buf)?;
            }
        }
        Ok(())
    }

    /// Load a disk from an image produced by [`Self::write_image`]. The
    /// image's cost model is restored; statistics start at zero. A header
    /// that cannot be real — a bad magic, or a cost model under which the
    /// largest I/O's cost overflows — is `InvalidData`; a short image is
    /// `UnexpectedEof`. Memory grows with the pages the image holds, never
    /// with a count it claims.
    pub fn read_image(r: &mut impl Read) -> io::Result<SimDisk> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("not a lobstore disk image"));
        }
        let mut u64buf = [0u8; 8];
        r.read_exact(&mut u64buf)?;
        let seek_us = u64::from_le_bytes(u64buf);
        r.read_exact(&mut u64buf)?;
        let transfer_us_per_kb = u64::from_le_bytes(u64buf);
        let largest_io = (PAGE_SIZE as u64 / 1024)
            .checked_mul(transfer_us_per_kb)
            .and_then(|page| page.checked_mul(u64::from(u32::MAX)))
            .and_then(|pages| pages.checked_add(seek_us));
        if largest_io.is_none() {
            return Err(bad("cost model overflows the cost of an I/O"));
        }
        let mut n_areas = [0u8; 1];
        r.read_exact(&mut n_areas)?;
        let disk = SimDisk::new(
            n_areas[0],
            CostModel {
                seek_us,
                transfer_us_per_kb,
            },
        );
        let mut u32buf = [0u8; 4];
        let mut page_buf = [0u8; PAGE_SIZE];
        for a in 0..n_areas[0] {
            r.read_exact(&mut u32buf)?;
            let n_pages = u32::from_le_bytes(u32buf);
            for _ in 0..n_pages {
                r.read_exact(&mut u32buf)?;
                let page_no = u32::from_le_bytes(u32buf);
                r.read_exact(&mut page_buf)?;
                disk.poke(AreaId(a), page_no, &page_buf);
            }
        }
        Ok(disk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_roundtrips_pages_and_cost_model() {
        let d = SimDisk::new(2, CostModel::default());
        d.poke(AreaId(0), 3, &[7u8; PAGE_SIZE]);
        d.poke(AreaId(1), 100, &[9u8; 100]);
        d.poke(AreaId(1), 0, b"hello");
        let mut img = Vec::new();
        d.write_image(&mut img).unwrap();

        let d2 = SimDisk::read_image(&mut img.as_slice()).unwrap();
        assert_eq!(d2.cost_model(), CostModel::default());
        assert_eq!(d2.n_areas(), 2);
        let mut buf = [0u8; PAGE_SIZE];
        d2.peek(AreaId(0), 3, &mut buf);
        assert_eq!(buf, [7u8; PAGE_SIZE]);
        d2.peek(AreaId(1), 100, &mut buf);
        assert_eq!(&buf[..100], &[9u8; 100]);
        d2.peek(AreaId(1), 0, &mut buf);
        assert_eq!(&buf[..5], b"hello");
        // Unmaterialized pages are still zero.
        d2.peek(AreaId(0), 50, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn image_size_tracks_content() {
        let d = SimDisk::new(1, CostModel::FREE);
        let mut empty = Vec::new();
        d.write_image(&mut empty).unwrap();
        d.poke(AreaId(0), 0, &[1u8; PAGE_SIZE]);
        let mut one = Vec::new();
        d.write_image(&mut one).unwrap();
        assert_eq!(one.len() - empty.len(), 4 + PAGE_SIZE);
    }

    /// Load `img`: an error is `InvalidData` or `UnexpectedEof`, and a
    /// disk has the header's cost model and area count, every I/O's cost
    /// computable, and each listed page's last copy.
    fn check_image(img: &[u8]) {
        let disk = match SimDisk::read_image(&mut &img[..]) {
            Err(e) => {
                let kind = e.kind();
                assert!(
                    matches!(
                        kind,
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ),
                    "{e}"
                );
                return;
            }
            Ok(disk) => disk,
        };
        let u64_at = |at: usize| u64::from_le_bytes(img[at..at + 8].try_into().unwrap());
        let cost = disk.cost_model();
        assert_eq!(
            (cost.seek_us, cost.transfer_us_per_kb),
            (u64_at(8), u64_at(16))
        );
        cost.io_cost_us(u32::MAX);
        assert_eq!(disk.n_areas(), img[24]);
        let mut last = std::collections::BTreeMap::new();
        let mut at = 25;
        for a in 0..img[24] {
            let n = u32::from_le_bytes(img[at..at + 4].try_into().unwrap());
            at += 4;
            for _ in 0..n {
                let page = u32::from_le_bytes(img[at..at + 4].try_into().unwrap());
                last.insert((a, page), &img[at + 4..at + 4 + PAGE_SIZE]);
                at += 4 + PAGE_SIZE;
            }
        }
        let mut buf = [0u8; PAGE_SIZE];
        for ((a, page), bytes) in last {
            disk.peek(AreaId(a), page, &mut buf);
            assert_eq!(&buf[..], bytes);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: if cfg!(debug_assertions) { 64 } else { 256 },
            ..proptest::prelude::ProptestConfig::default()
        })]
        /// `read_image` is total over arbitrary bytes, arbitrary bytes
        /// behind the magic, valid images and valid images with bits
        /// flipped; a valid image writes back byte for byte.
        #[test]
        fn image_headers_decode_totally(
            (noise, pages, flips) in (
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
                proptest::collection::vec((0u8..2, 0u32..100_000, proptest::prelude::any::<u8>()), 0..4),
                proptest::collection::vec(proptest::prelude::any::<u32>(), 1..6),
            )
        ) {
            check_image(&noise);
            let mut img = MAGIC.to_vec();
            img.extend_from_slice(&noise);
            check_image(&img);
            let d = SimDisk::new(2, CostModel::default());
            for &(area, page, fill) in &pages {
                d.poke(AreaId(area), page, &[fill; 100]);
            }
            let mut img = Vec::new();
            d.write_image(&mut img).unwrap();
            let mut again = Vec::new();
            SimDisk::read_image(&mut img.as_slice()).unwrap().write_image(&mut again).unwrap();
            assert_eq!(again, img);
            for bit in &flips {
                let bit = *bit as usize % (img.len() * 8);
                img[bit / 8] ^= 1 << (bit % 8);
            }
            check_image(&img);
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(SimDisk::read_image(&mut &b"not an image"[..]).is_err());
        let mut truncated = Vec::new();
        let d = SimDisk::new(1, CostModel::FREE);
        d.poke(AreaId(0), 0, &[1u8; 10]);
        d.write_image(&mut truncated).unwrap();
        truncated.truncate(truncated.len() - 100);
        assert!(SimDisk::read_image(&mut truncated.as_slice()).is_err());
    }
}
