//! Deep runtime verification (the `paranoid` cargo feature).
//!
//! When the feature is enabled, every mutating operation of the three
//! managers re-verifies its object before returning: the structure's own
//! invariants ([`crate::LargeObject::check_invariants`]: count-tree
//! separator sums, bounds, and balance), physical disjointness of the
//! object's segments, the EOS threshold rule around the update window
//! (§2.3), the Starburst descriptor shape (§2.2: only the last extent
//! trimmed, extent-size ceiling), and the buddy allocators' bitmap /
//! bookkeeping consistency. A failed check surfaces as
//! [`LobError::InvariantViolated`] from the operation itself, so fuzzing
//! and stress tests fail at the operation that corrupted state rather
//! than at some later read.
//!
//! The checks read pages through the cost-free peek path, so enabling
//! the feature does not perturb the simulated I/O measurements — only
//! wall-clock time.

use lobstore_simdisk::{pages_for_bytes, PAGE_SIZE_U64};

use crate::db::Db;
use crate::eos::EosObject;
use crate::error::{LobError, Result};
use crate::object::LargeObject;
use crate::starburst::StarburstObject;

/// Structure-independent deep checks: the object's own invariants plus
/// physical disjointness of its segment extents (no two segments may
/// share a disk page, including over-allocated tails).
pub fn verify_segments(obj: &dyn LargeObject, db: &Db) -> Result<()> {
    obj.check_invariants(db)?;
    let mut segs = obj.segments(db);
    segs.sort_by_key(|s| s.start_page);
    for w in segs.windows(2) {
        if w[0].start_page + w[0].pages > w[1].start_page {
            return Err(LobError::InvariantViolated(format!(
                "segments alias: pages {}+{} overlap {}+{}",
                w[0].start_page, w[0].pages, w[1].start_page, w[1].pages
            )));
        }
    }
    Ok(())
}

/// §2.3 threshold rule over the update window `[lo, hi]` (object byte
/// offsets): no segment boundary inside the window may separate two
/// adjacent segments whose combined bytes fit in `T` pages. Only the
/// window is checked because append growth legitimately leaves small
/// doubling segments adjacent — the rule is an *update* postcondition.
pub fn verify_eos_threshold(obj: &EosObject, db: &Db, lo: u64, hi: u64) -> Result<()> {
    let segs = obj.segments(db); // ascending object offsets
    let t = obj.threshold_pages();
    for w in segs.windows(2) {
        let boundary = w[1].offset;
        if boundary < lo || boundary > hi {
            continue;
        }
        if pages_for_bytes(w[0].bytes + w[1].bytes) <= t {
            return Err(LobError::InvariantViolated(format!(
                "threshold rule violated at offset {boundary}: adjacent segments of {} and {} \
                 bytes fit in {t} pages",
                w[0].bytes, w[1].bytes
            )));
        }
    }
    Ok(())
}

/// §2.2 descriptor shape: every segment but the last holds an exact
/// page multiple (only the last extent may be trimmed), and no segment
/// exceeds the configured MaxSeg extent ceiling.
///
/// Monotone doubling growth is deliberately *not* asserted: it only
/// holds for append-only histories. A §3.5 tail rewrite ends with an
/// exact-size extent that may be smaller than its predecessor, and a
/// later append freezes that extent mid-descriptor — e.g. sizes
/// `[14, 11, 22]` pages are a legal outcome of insert-then-append.
pub fn verify_starburst_descriptor(obj: &StarburstObject, db: &Db) -> Result<()> {
    let segs = obj.segments(db);
    for (i, s) in segs.iter().enumerate() {
        if i + 1 < segs.len() && s.bytes % PAGE_SIZE_U64 != 0 {
            return Err(LobError::InvariantViolated(format!(
                "non-last segment {i} holds {} bytes — only the last extent may be trimmed",
                s.bytes
            )));
        }
        let pages = pages_for_bytes(s.bytes);
        if pages > obj.max_seg_pages() {
            return Err(LobError::InvariantViolated(format!(
                "segment {i} uses {pages} pages, above the {}-page extent ceiling",
                obj.max_seg_pages()
            )));
        }
    }
    Ok(())
}

/// Everything a manager re-checks after a mutating operation, bundled:
/// object-level checks, both buddy allocators, the MVCC version chain,
/// and (when configured) an arithmetic replay of the allocation log
/// against the live allocator maps (DESIGN.md §16).
pub fn verify_object(obj: &dyn LargeObject, db: &mut Db) -> Result<()> {
    verify_segments(obj, db)?;
    db.paranoid_verify_allocators()?;
    db.paranoid_verify_versions()?;
    db.verify_alloc_log()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use crate::node::ROOT_ENTRIES_OFF;
    use crate::{EosParams, EsmObject, EsmParams, StarburstParams};

    fn db() -> Db {
        Db::new(DbConfig::default())
    }

    #[test]
    fn healthy_objects_verify_clean() {
        let mut db = db();
        let mut esm = EsmObject::create(&mut db, EsmParams { leaf_pages: 4 }).unwrap();
        let mut eos = EosObject::create(&mut db, EosParams::default()).unwrap();
        let mut star = StarburstObject::create(&mut db, StarburstParams::default()).unwrap();
        for obj in [
            &mut esm as &mut dyn LargeObject,
            &mut eos as &mut dyn LargeObject,
            &mut star as &mut dyn LargeObject,
        ] {
            obj.append(&mut db, &vec![9u8; 60_000]).unwrap();
            obj.insert(&mut db, 10_000, &vec![1u8; 5_000]).unwrap();
            obj.delete(&mut db, 20_000, 7_000).unwrap();
            verify_object(obj, &mut db).unwrap();
        }
        verify_starburst_descriptor(&star, &db).unwrap();
    }

    // Seeded violation, ESM / count tree: desynchronize the stored object
    // size from the tree's separator totals.
    #[test]
    fn esm_detects_size_total_mismatch() {
        let mut db = db();
        let mut obj = EsmObject::create(&mut db, EsmParams { leaf_pages: 4 }).unwrap();
        obj.append(&mut db, &vec![3u8; 50_000]).unwrap();
        let root = obj.root_page();
        // hdr.size lives at bytes 8..16 of the root page.
        db.with_meta_page_mut(root, |p| p[8] = p[8].wrapping_add(1));
        let err = verify_segments(&obj, &db).unwrap_err();
        assert!(matches!(err, LobError::InvariantViolated(_)), "{err}");
    }

    // Seeded violation, ESM: alias two leaves onto the same disk pages.
    #[test]
    fn esm_detects_aliased_leaves() {
        let mut db = db();
        let mut obj = EsmObject::create(&mut db, EsmParams { leaf_pages: 4 }).unwrap();
        obj.append(&mut db, &vec![3u8; 100_000]).unwrap();
        let root = obj.root_page();
        // Copy leaf 0's pointer over leaf 1's (each root entry is a
        // (count u32, ptr u32) pair starting at ROOT_ENTRIES_OFF).
        db.with_meta_page_mut(root, |p| {
            let first_ptr_at = ROOT_ENTRIES_OFF + 4;
            let second_ptr_at = ROOT_ENTRIES_OFF + 8 + 4;
            let ptr0: [u8; 4] = [
                p[first_ptr_at],
                p[first_ptr_at + 1],
                p[first_ptr_at + 2],
                p[first_ptr_at + 3],
            ];
            p[second_ptr_at..second_ptr_at + 4].copy_from_slice(&ptr0);
        });
        let err = verify_segments(&obj, &db).unwrap_err();
        assert!(err.to_string().contains("alias"), "{err}");
    }

    // Seeded violation, EOS: raise the threshold parameter on disk after
    // segments were laid out for a smaller T — pairs that were legal
    // under the old T now violate the merge rule.
    #[test]
    fn eos_detects_threshold_violation() {
        let mut db = db();
        let mut obj = EosObject::create(
            &mut db,
            EosParams {
                threshold_pages: 1,
                max_seg_pages: 64,
            },
        )
        .unwrap();
        // Two adjacent multi-page segments (T=1 never merges them).
        obj.append(&mut db, &vec![5u8; 3 * 4096]).unwrap();
        obj.insert(&mut db, 4096, &vec![6u8; 2 * 4096]).unwrap();
        let size = obj.size(&mut db);
        verify_eos_threshold(&obj, &db, 0, size).unwrap();
        // Tamper: rewrite the params word (bytes 16..24: T | max << 32)
        // to claim T=64, then reopen.
        let root = obj.root_page();
        db.with_meta_page_mut(root, |p| {
            let params = 64u64 | (64u64 << 32);
            p[16..24].copy_from_slice(&params.to_le_bytes());
        });
        let obj = EosObject::open(&mut db, root).unwrap();
        let err = verify_eos_threshold(&obj, &db, 0, size).unwrap_err();
        assert!(err.to_string().contains("threshold rule"), "{err}");
    }

    // Regression: a tail rewrite (insert) ends with an exact-size extent
    // that can be smaller than its predecessor; a later append freezes
    // it mid-descriptor. That shape is legal and must verify clean —
    // only append-only histories grow monotonically.
    #[test]
    fn starburst_accepts_post_rewrite_append_shape() {
        let mut db = db();
        let mut obj = StarburstObject::create(&mut db, StarburstParams::default()).unwrap();
        obj.append(&mut db, &vec![7u8; 56_000]).unwrap();
        obj.insert(&mut db, 50_000, &vec![8u8; 9_000]).unwrap();
        obj.append(&mut db, &vec![9u8; 120_000]).unwrap();
        verify_starburst_descriptor(&obj, &db).unwrap();
        verify_object(&obj, &mut db).unwrap();
    }

    // Seeded violation, Starburst: lower the on-disk MaxSeg parameter
    // after large extents were laid out — segments that were legal under
    // the old ceiling now exceed it.
    #[test]
    fn starburst_detects_oversized_segment() {
        let mut db = db();
        let mut obj = StarburstObject::create(&mut db, StarburstParams::default()).unwrap();
        obj.append(&mut db, &vec![4u8; 80_000]).unwrap();
        verify_starburst_descriptor(&obj, &db).unwrap();
        let root = obj.root_page();
        db.with_meta_page_mut(root, |p| {
            // params word (bytes 16..24): max_seg_pages | known << 32.
            let params = 2u64;
            p[16..24].copy_from_slice(&params.to_le_bytes());
        });
        let obj = StarburstObject::open(&mut db, root).unwrap();
        let err = verify_starburst_descriptor(&obj, &db).unwrap_err();
        assert!(err.to_string().contains("extent ceiling"), "{err}");
    }

    // Seeded violation, Starburst: trim a byte off a non-last segment in
    // the descriptor (keeping the size sum consistent so only the deep
    // shape check can notice).
    #[test]
    fn starburst_detects_trimmed_interior_segment() {
        let mut db = db();
        let mut obj = StarburstObject::create(&mut db, StarburstParams::default()).unwrap();
        // Two appends: the second one outgrows the first segment, so the
        // descriptor ends up with several doubling entries.
        obj.append(&mut db, &vec![7u8; 4096]).unwrap();
        obj.append(&mut db, &vec![7u8; 30_000]).unwrap();
        assert!(obj.segments(&db).len() >= 2, "need at least two segments");
        verify_starburst_descriptor(&obj, &db).unwrap();
        let root = obj.root_page();
        db.with_meta_page_mut(root, |p| {
            // Entry 0 count (u32) at ROOT_ENTRIES_OFF; knock one byte off
            // it and off hdr.size (u64 at 8) to keep total == size.
            let c = u32::from_le_bytes([
                p[ROOT_ENTRIES_OFF],
                p[ROOT_ENTRIES_OFF + 1],
                p[ROOT_ENTRIES_OFF + 2],
                p[ROOT_ENTRIES_OFF + 3],
            ]);
            p[ROOT_ENTRIES_OFF..ROOT_ENTRIES_OFF + 4].copy_from_slice(&(c - 1).to_le_bytes());
            let s = u64::from_le_bytes([p[8], p[9], p[10], p[11], p[12], p[13], p[14], p[15]]);
            p[8..16].copy_from_slice(&(s - 1).to_le_bytes());
        });
        let err = verify_starburst_descriptor(&obj, &db).unwrap_err();
        assert!(err.to_string().contains("only the last extent"), "{err}");
    }

    // The wired checks fire from inside the operations themselves: after
    // on-disk tampering, the next mutating op must return the violation
    // instead of silently building on corrupt state.
    #[test]
    fn operations_surface_violations() {
        let mut db = db();
        let mut obj = EsmObject::create(&mut db, EsmParams { leaf_pages: 4 }).unwrap();
        obj.append(&mut db, &vec![3u8; 50_000]).unwrap();
        let root = obj.root_page();
        db.with_meta_page_mut(root, |p| p[8] = p[8].wrapping_add(1));
        let err = obj.append(&mut db, b"more").unwrap_err();
        assert!(matches!(err, LobError::InvariantViolated(_)), "{err}");
    }
}
