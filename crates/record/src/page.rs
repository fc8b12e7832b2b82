//! Slotted heap pages for small records.
//!
//! Classic slotted layout: a fixed header, a slot directory growing
//! forward from the header, and record cells growing backward from the
//! page end. Deleting a record leaves a tombstone slot (so record ids
//! stay stable); the freed bytes are reclaimed by compaction when an
//! insert needs them.
//!
//! ```text
//! ┌──────────┬───────────────┬────── free ──────┬────────┬────────┐
//! │ header   │ slot dir →    │                  │ cell 1 │ cell 0 │
//! └──────────┴───────────────┴──────────────────┴────────┴────────┘
//! 0          16              16+4·n      cell_start          4096
//! ```
//!
//! All functions are pure over a page buffer, so this module is fully
//! testable without a database. Each checks the header and every slot it
//! reads against the page, so a damaged page is [`RecordError::Corrupt`],
//! never a panic or a read past the page.

use std::ops::Range;

use lobstore_simdisk::{bytes, cast, PAGE_SIZE};

use crate::error::{RecordError, Result};

const MAGIC: u32 = 0x4845_4150; // "HEAP"
const HDR: usize = 16;
const SLOT_BYTES: usize = 4;
/// Tombstone marker in a slot's offset field.
const DEAD: u16 = u16::MAX;

fn get_u16(p: &[u8], at: usize) -> u16 {
    bytes::le_u16(&p[at..])
}

fn put_u16(p: &mut [u8], at: usize, v: u16) {
    p[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

fn corrupt(what: String) -> RecordError {
    RecordError::Corrupt(format!("heap page: {what}"))
}

/// The slot count, checked against the page: the directory ends at or
/// before the cells start, and they at or before the page end.
fn n_slots(p: &[u8]) -> Result<u16> {
    if p.len() < HDR {
        return Err(corrupt(format!(
            "{} bytes, shorter than its header",
            p.len()
        )));
    }
    let n = get_u16(p, 4);
    let dir_end = HDR + usize::from(n) * SLOT_BYTES;
    let cells = usize::from(cell_start(p));
    if dir_end > cells || cells > p.len() {
        return Err(corrupt(format!(
            "{n} slots end at byte {dir_end}, cells start at byte {cells}"
        )));
    }
    Ok(n)
}

fn cell_start(p: &[u8]) -> u16 {
    get_u16(p, 6)
}

/// Slot `slot`'s raw `(offset, length)`; `slot` is below the checked
/// slot count, so the entry lies inside the directory.
fn slot_at(p: &[u8], slot: u16) -> (u16, u16) {
    let at = HDR + usize::from(slot) * SLOT_BYTES;
    (get_u16(p, at), get_u16(p, at + 2))
}

/// Slot `slot`'s cell, the byte range it holds, `None` for a tombstone:
/// `Corrupt` when a live cell lies outside `[cell_start, page end)`.
/// `slot` is below the checked slot count.
fn cell(p: &[u8], slot: u16) -> Result<Option<Range<usize>>> {
    let (off, len) = slot_at(p, slot);
    if off == DEAD {
        return Ok(None);
    }
    let start = usize::from(off);
    let cell = start..start.saturating_add(usize::from(len));
    if start < usize::from(cell_start(p)) || cell.end > p.len() {
        return Err(corrupt(format!(
            "slot {slot} holds bytes {cell:?}, outside the cells"
        )));
    }
    Ok(Some(cell))
}

fn set_slot(p: &mut [u8], slot: u16, off: u16, len: u16) {
    let at = HDR + usize::from(slot) * SLOT_BYTES;
    put_u16(p, at, off);
    put_u16(p, at + 2, len);
}

/// Format `page` as an empty heap page.
pub fn init(page: &mut [u8]) {
    page.fill(0);
    page[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    put_u16(page, 4, 0); // n_slots
    put_u16(page, 6, cast::usize_to_u16(PAGE_SIZE)); // cell_start: cells grow downward
}

/// Whether `page` carries the heap-page magic.
pub fn is_heap(page: &[u8]) -> bool {
    page.get(..4).is_some_and(|m| bytes::le_u32(m) == MAGIC)
}

/// Contiguous free bytes between the slot directory and the cells
/// (ignoring reclaimable dead-cell space).
pub fn contiguous_free(page: &[u8]) -> Result<usize> {
    let n = n_slots(page)?;
    Ok(usize::from(cell_start(page)) - (HDR + usize::from(n) * SLOT_BYTES))
}

/// Total reclaimable free space: everything compaction can recover —
/// the contiguous gap, dead cells, and residue left by in-place
/// shrinking updates. (Tombstone *directory entries* stay, so they count
/// as used.) An insert of `n` bytes succeeds iff
/// `usable_free(page) >= n + 4` (or `>= n` when a dead slot can be
/// recycled).
pub fn usable_free(page: &[u8]) -> Result<usize> {
    let n = n_slots(page)?;
    let live: usize = live_cells(page)?.iter().map(|(_, cell)| cell.len()).sum();
    (PAGE_SIZE - HDR - usize::from(n) * SLOT_BYTES)
        .checked_sub(live)
        .ok_or_else(|| corrupt(format!("live cells hold {live} bytes, more than the page")))
}

/// Every live record's slot and cell.
fn live_cells(page: &[u8]) -> Result<Vec<(u16, Range<usize>)>> {
    let n = n_slots(page)?;
    let mut live = Vec::new();
    for s in 0..n {
        if let Some(cell) = cell(page, s)? {
            live.push((s, cell));
        }
    }
    Ok(live)
}

/// Number of live records on the page.
pub fn live_records(page: &[u8]) -> Result<usize> {
    Ok(live_cells(page)?.len())
}

/// The slots holding live records, in slot order.
pub fn live_slots(page: &[u8]) -> Result<Vec<u16>> {
    Ok(live_cells(page)?.into_iter().map(|(s, _)| s).collect())
}

/// Insert `bytes`; returns the slot number, or `None` if the page cannot
/// hold them even after compaction.
pub fn insert(page: &mut [u8], bytes: &[u8]) -> Result<Option<u16>> {
    if !is_heap(page) {
        return Err(corrupt("no heap magic".into()));
    }
    let need = bytes.len();
    if need > usize::from(u16::MAX) {
        return Ok(None);
    }
    let n = n_slots(page)?;
    // Prefer recycling a dead slot (keeps the directory compact).
    let recycled = (0..n).find(|&s| slot_at(page, s).0 == DEAD);
    let slot_cost = if recycled.is_some() { 0 } else { SLOT_BYTES };
    if contiguous_free(page)? < need + slot_cost {
        if usable_free(page)? < need + slot_cost {
            return Ok(None);
        }
        compact(page)?;
        if contiguous_free(page)? < need + slot_cost {
            return Ok(None);
        }
    }
    let new_start = usize::from(cell_start(page)) - need;
    page[new_start..new_start + need].copy_from_slice(bytes);
    put_u16(page, 6, cast::usize_to_u16(new_start));
    let slot = match recycled {
        Some(s) => s,
        None => {
            put_u16(page, 4, n + 1);
            n
        }
    };
    set_slot(
        page,
        slot,
        cast::usize_to_u16(new_start),
        cast::usize_to_u16(need),
    );
    Ok(Some(slot))
}

/// The record in `slot`, or `None` for a tombstone / out-of-range slot.
pub fn get(page: &[u8], slot: u16) -> Result<Option<&[u8]>> {
    if slot >= n_slots(page)? {
        return Ok(None);
    }
    Ok(cell(page, slot)?.and_then(|cell| page.get(cell)))
}

/// Delete the record in `slot` (tombstoned; the id is never reused for a
/// *different* record until the slot is recycled by an insert).
/// Returns whether a live record was removed.
pub fn delete(page: &mut [u8], slot: u16) -> Result<bool> {
    if slot >= n_slots(page)? {
        return Ok(false);
    }
    let (off, len) = slot_at(page, slot);
    if off == DEAD {
        return Ok(false);
    }
    set_slot(page, slot, DEAD, len); // keep len so usable_free can count it
    Ok(true)
}

/// Replace the record in `slot` with `bytes`. Fails (returns `false`,
/// page unchanged) if the slot is dead or the page cannot host the new
/// version.
pub fn update(page: &mut [u8], slot: u16, bytes: &[u8]) -> Result<bool> {
    if slot >= n_slots(page)? {
        return Ok(false);
    }
    let Some(cell) = cell(page, slot)? else {
        return Ok(false);
    };
    if bytes.len() <= cell.len() {
        // Shrinking in place; the residue is reclaimed at compaction.
        page[cell.start..cell.start + bytes.len()].copy_from_slice(bytes);
        set_slot(
            page,
            slot,
            cast::usize_to_u16(cell.start),
            cast::usize_to_u16(bytes.len()),
        );
        return Ok(true);
    }
    let (off, len) = slot_at(page, slot);
    // Grow: tombstone then re-insert into the same slot if space allows.
    set_slot(page, slot, DEAD, len);
    if usable_free(page)? < bytes.len() {
        set_slot(page, slot, off, len); // roll back
        return Ok(false);
    }
    if contiguous_free(page)? < bytes.len() {
        compact(page)?;
    }
    let new_start = usize::from(cell_start(page)) - bytes.len();
    page[new_start..new_start + bytes.len()].copy_from_slice(bytes);
    put_u16(page, 6, cast::usize_to_u16(new_start));
    set_slot(
        page,
        slot,
        cast::usize_to_u16(new_start),
        cast::usize_to_u16(bytes.len()),
    );
    Ok(true)
}

/// Squeeze out dead cells and shrink-residue so the free space is one
/// contiguous run again. Slot numbers are preserved. `Corrupt` (the page
/// untouched) when the live cells could not all fit below the directory.
pub fn compact(page: &mut [u8]) -> Result<()> {
    usable_free(page)?;
    let mut live = live_cells(page)?;
    // Right to left, by offset descending.
    live.sort_by_key(|(_, cell)| std::cmp::Reverse(cell.start));
    let mut write_end = PAGE_SIZE;
    for (slot, cell) in live {
        let len = cell.len();
        let new_start = write_end - len;
        page.copy_within(cell, new_start);
        set_slot(
            page,
            slot,
            cast::usize_to_u16(new_start),
            cast::usize_to_u16(len),
        );
        write_end = new_start;
    }
    put_u16(page, 6, cast::usize_to_u16(write_end));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        init(&mut p);
        p
    }

    /// Decode `page` every way the store does: no call panics, the
    /// editing calls on copies included, and the slot reads agree with
    /// each other and with the directory's bytes.
    fn check_page(page: &[u8]) {
        let Ok(n) = n_slots(page) else {
            assert!(live_records(page).is_err() && get(page, 0).is_err());
            return;
        };
        let mut found = Vec::new();
        let mut broken = false;
        for s in 0..=n {
            match get(page, s) {
                Ok(Some(bytes)) => {
                    let (off, len) = slot_at(page, s);
                    let (off, len) = (usize::from(off), usize::from(len));
                    assert_eq!(bytes, &page[off..off + len]);
                    found.push(s);
                }
                Ok(None) => {}
                Err(_) => broken = true,
            }
        }
        match (live_slots(page), live_records(page)) {
            (Ok(slots), Ok(count)) => {
                assert!(!broken);
                assert_eq!((&slots, count), (&found, found.len()));
            }
            (Err(_), Err(_)) => assert!(broken),
            other => panic!("live_slots and live_records disagree: {other:?}"),
        }
        let _ = (usable_free(page), contiguous_free(page));
        let _ = compact(&mut page.to_vec());
        let mut copy = page.to_vec();
        let _ = insert(&mut copy, b"probe");
        let _ = update(&mut copy, 0, &[7; 300]);
        let _ = delete(&mut copy, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: if cfg!(debug_assertions) { 64 } else { 256 },
            ..proptest::prelude::ProptestConfig::default()
        })]
        /// The heap-page decoders are total over arbitrary pages, pages
        /// with the magic and arbitrary bytes behind it, pages built by
        /// inserts and deletes, and those with bits flipped.
        #[test]
        fn heap_pages_decode_totally(
            (noise, records, flips) in (
                proptest::collection::vec(proptest::prelude::any::<u8>(), PAGE_SIZE..PAGE_SIZE + 1),
                proptest::collection::vec((0usize..400, proptest::prelude::any::<bool>()), 0..24),
                proptest::collection::vec(proptest::prelude::any::<u32>(), 1..8),
            )
        ) {
            check_page(&noise);
            let mut page = noise.clone();
            page[..4].copy_from_slice(&MAGIC.to_le_bytes());
            check_page(&page);
            let mut page = fresh();
            for (i, &(len, keep)) in records.iter().enumerate() {
                if let Some(s) = insert(&mut page, &vec![i as u8; len]).unwrap() {
                    if !keep {
                        assert!(delete(&mut page, s).unwrap());
                    }
                }
            }
            check_page(&page);
            let mut compacted = page.clone();
            compact(&mut compacted).unwrap();
            for s in live_slots(&page).unwrap() {
                assert_eq!(get(&compacted, s).unwrap(), get(&page, s).unwrap());
            }
            for bit in &flips {
                let bit = *bit as usize % (PAGE_SIZE * 8);
                page[bit / 8] ^= 1 << (bit % 8);
            }
            check_page(&page);
        }
    }

    #[test]
    fn init_and_capacity() {
        let p = fresh();
        assert!(is_heap(&p));
        assert_eq!(live_records(&p).unwrap(), 0);
        assert_eq!(contiguous_free(&p).unwrap(), PAGE_SIZE - HDR);
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut p = fresh();
        let a = insert(&mut p, b"alpha").unwrap().unwrap();
        let b = insert(&mut p, b"beta").unwrap().unwrap();
        assert_ne!(a, b);
        assert_eq!(get(&p, a).unwrap().unwrap(), b"alpha");
        assert_eq!(get(&p, b).unwrap().unwrap(), b"beta");
        assert_eq!(live_records(&p).unwrap(), 2);
        assert!(get(&p, 99).unwrap().is_none());
    }

    #[test]
    fn delete_tombstones_and_recycles() {
        let mut p = fresh();
        let a = insert(&mut p, b"first").unwrap().unwrap();
        let b = insert(&mut p, b"second").unwrap().unwrap();
        assert!(delete(&mut p, a).unwrap());
        assert!(!delete(&mut p, a).unwrap(), "double delete is a no-op");
        assert!(get(&p, a).unwrap().is_none());
        assert_eq!(get(&p, b).unwrap().unwrap(), b"second");
        // New insert recycles the dead slot.
        let c = insert(&mut p, b"third").unwrap().unwrap();
        assert_eq!(c, a);
        assert_eq!(get(&p, c).unwrap().unwrap(), b"third");
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = fresh();
        let big = vec![7u8; 1000];
        let mut n = 0;
        while insert(&mut p, &big).unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 4, "4 x (1000+4) fits in a 4 KB page; 5 do not");
        assert!(insert(&mut p, &[0u8; 900]).unwrap().is_none());
        assert!(
            insert(&mut p, &[0u8; 10]).unwrap().is_some(),
            "small ones still fit"
        );
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut p = fresh();
        let slots: Vec<u16> = (0..4)
            .map(|i| insert(&mut p, &vec![i as u8; 900]).unwrap().unwrap())
            .collect();
        // Free two interior cells; contiguous space is now too small...
        delete(&mut p, slots[1]).unwrap();
        delete(&mut p, slots[2]).unwrap();
        assert!(contiguous_free(&p).unwrap() < 1800);
        // ...but an insert that needs the dead space triggers compaction.
        let s = insert(&mut p, &vec![9u8; 1700]).unwrap().unwrap();
        assert_eq!(get(&p, s).unwrap().unwrap(), &vec![9u8; 1700][..]);
        assert_eq!(get(&p, slots[0]).unwrap().unwrap(), &vec![0u8; 900][..]);
        assert_eq!(get(&p, slots[3]).unwrap().unwrap(), &vec![3u8; 900][..]);
    }

    #[test]
    fn update_shrink_grow() {
        let mut p = fresh();
        let s = insert(&mut p, &[1u8; 500]).unwrap().unwrap();
        let other = insert(&mut p, b"anchor").unwrap().unwrap();
        assert!(update(&mut p, s, &[2u8; 100]).unwrap(), "shrink in place");
        assert_eq!(get(&p, s).unwrap().unwrap(), &vec![2u8; 100][..]);
        assert!(update(&mut p, s, &[3u8; 2000]).unwrap(), "grow within page");
        assert_eq!(get(&p, s).unwrap().unwrap(), &vec![3u8; 2000][..]);
        assert_eq!(get(&p, other).unwrap().unwrap(), b"anchor");
        // A grow that fits only because the old version's space is
        // reclaimed (page capacity minus header, 2 slots, and the
        // 6-byte anchor record).
        assert!(update(&mut p, s, &[4u8; 4000]).unwrap());
        assert_eq!(get(&p, s).unwrap().unwrap(), &vec![4u8; 4000][..]);
        // A truly hopeless grow fails and leaves the record intact.
        assert!(!update(&mut p, s, &[5u8; 4080]).unwrap());
        assert_eq!(get(&p, s).unwrap().unwrap(), &vec![4u8; 4000][..]);
        assert_eq!(get(&p, other).unwrap().unwrap(), b"anchor");
    }

    #[test]
    fn empty_record_is_allowed() {
        let mut p = fresh();
        let s = insert(&mut p, b"").unwrap().unwrap();
        assert_eq!(get(&p, s).unwrap().unwrap(), b"");
        assert_eq!(live_records(&p).unwrap(), 1);
    }

    #[test]
    fn compact_preserves_slot_numbers() {
        let mut p = fresh();
        let a = insert(&mut p, b"aaa").unwrap().unwrap();
        let b = insert(&mut p, b"bbbbbb").unwrap().unwrap();
        let c = insert(&mut p, b"ccccccccc").unwrap().unwrap();
        delete(&mut p, b).unwrap();
        compact(&mut p).unwrap();
        assert_eq!(get(&p, a).unwrap().unwrap(), b"aaa");
        assert_eq!(get(&p, c).unwrap().unwrap(), b"ccccccccc");
        assert!(get(&p, b).unwrap().is_none());
    }
}
