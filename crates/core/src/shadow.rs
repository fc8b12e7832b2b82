//! Per-operation shadowing context (§3.3).
//!
//! The paper's recovery assumption: *"all updates on index pages, except
//! the root, are shadowed and the new copy that contains the update is
//! flushed out to disk at the end of the operation that caused the
//! update."* An [`OpCtx`] tracks, for one logical operation:
//!
//! * which index pages have been shadowed (each page is copied at most
//!   once per operation, even if updated repeatedly); the pages the
//!   operation allocates are the commit interval's `created` set on the
//!   [`Db`] (`version.rs`), which the META write funnel also reads to
//!   tell a fresh page's write from an overwrite of committed content;
//! * the set of new/updated pages to flush when the operation ends;
//! * the old page versions to return to the allocator afterwards.
//!
//! When the database is configured with `shadowing: false` (the ablation
//! case), pages are updated in place but still flushed at operation end.

use std::collections::HashMap;

use lobstore_buddy::Extent;
use lobstore_simdisk::{AreaId, PageId};

use crate::db::Db;
use crate::metrics;

/// State for one logical large-object operation.
pub(crate) struct OpCtx {
    /// Old page → shadow copy, so re-shadowing the old number within one
    /// operation lands on the same copy.
    remap: HashMap<u32, u32>,
    /// META pages to flush at the end of the operation.
    flush: Vec<u32>,
    /// Old META page versions to free at the end of the operation.
    free_old: Vec<u32>,
    /// Superseded LEAF extents, released only when the operation ends so
    /// that no allocation inside the operation can reuse — and clobber —
    /// pages the pre-operation state still references ("leaving the old
    /// one intact until it is no longer needed for recovery", §3.3).
    free_extents: Vec<Extent>,
}

impl OpCtx {
    /// Start an empty operation context.
    pub fn new() -> Self {
        OpCtx {
            remap: HashMap::new(),
            flush: Vec::new(),
            free_old: Vec::new(),
            free_extents: Vec::new(),
        }
    }

    /// Release a superseded data extent when the operation ends.
    pub fn free_extent_later(&mut self, ext: Extent) {
        if ext.pages > 0 {
            self.free_extents.push(ext);
        }
    }

    /// Prepare META page `page` for update: returns the page number the
    /// update must be applied to. With shadowing on, this is a fresh page
    /// holding a copy of the old content; the old page is freed when the
    /// operation finishes. Idempotent within one operation: a page the
    /// operation created is its own shadow.
    pub fn shadow_page(&mut self, db: &mut Db, page: u32) -> u32 {
        if !db.config().shadowing || db.interval.created.contains(&page) {
            self.note_flush(page);
            return page;
        }
        if let Some(&new) = self.remap.get(&page) {
            self.note_flush(new);
            return new;
        }
        let new = db.alloc_meta_page();
        metrics::SHADOW_PAGES.add(1);
        // Copy old content into the new frame.
        let mut buf = [0u8; lobstore_simdisk::PAGE_SIZE];
        db.with_meta_page(page, |p| buf.copy_from_slice(p));
        db.with_new_meta_page(new, |p| p.copy_from_slice(&buf));
        db.interval.created.insert(new);
        self.remap.insert(page, new);
        self.note_flush(new);
        self.free_old.push(page);
        new
    }

    /// Allocate a brand-new META index page (e.g. for a node split). It is
    /// flushed at operation end like any shadow copy.
    pub fn fresh_page(&mut self, db: &mut Db) -> u32 {
        metrics::SHADOW_FRESH_PAGES.add(1);
        let page = db.alloc_meta_page();
        db.interval.created.insert(page);
        self.note_flush(page);
        page
    }

    /// Free a META page at operation end (e.g. a node emptied by a merge).
    pub fn free_page_later(&mut self, page: u32) {
        self.free_old.push(page);
    }

    fn note_flush(&mut self, page: u32) {
        if !self.flush.contains(&page) {
            self.flush.push(page);
        }
    }

    /// End of operation: flush every updated index page (one 1-page write
    /// call each), release the superseded page versions and extents, and
    /// advance the committed version (DESIGN.md §16). Inside a
    /// transaction the flushes and frees are absorbed instead — the
    /// transaction commits them as one batch with a single version
    /// advance.
    pub fn finish(self, db: &mut Db) {
        db.interval.created.clear();
        if db.txn_active() {
            db.txn_absorb_op(self.flush, self.free_old, self.free_extents);
            return;
        }
        for page in self.flush {
            db.pool.flush_page(PageId::new(AreaId::META, page));
        }
        for page in self.free_old {
            db.free_meta_page(page);
        }
        for ext in self.free_extents {
            db.free_leaf(ext);
        }
        db.commit_version();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;

    #[test]
    fn shadow_copies_content_and_frees_old_at_finish() {
        let mut db = Db::paper_default();
        let old = db.alloc_meta_page();
        db.with_new_meta_page(old, |p| p[0] = 7);
        let pages_before = db.meta_pages_allocated();

        let mut ctx = OpCtx::new();
        let new = ctx.shadow_page(&mut db, old);
        assert_ne!(new, old);
        assert_eq!(db.with_meta_page(new, |p| p[0]), 7, "content copied");
        // Shadowing the same page again within the op is a no-op.
        assert_eq!(ctx.shadow_page(&mut db, new), new);
        ctx.finish(&mut db);
        assert_eq!(
            db.meta_pages_allocated(),
            pages_before,
            "old freed, new retained"
        );
    }

    #[test]
    fn finish_flushes_the_new_copy() {
        let mut db = Db::paper_default();
        let old = db.alloc_meta_page();
        db.with_new_meta_page(old, |p| p[0] = 1);
        let mut ctx = OpCtx::new();
        let new = ctx.shadow_page(&mut db, old);
        db.with_meta_page_mut(new, |p| p[1] = 2);
        let writes_before = db.io_stats().write_calls;
        ctx.finish(&mut db);
        assert_eq!(
            db.io_stats().write_calls,
            writes_before + 1,
            "exactly one flush write for the shadow copy"
        );
        // The flushed content is on disk.
        let mut out = [0u8; 2];
        db.pool().disk().peek(AreaId::META, new, &mut out);
        assert_eq!(out, [1, 2]);
    }

    /// A page an operation queues for free twice reaches the allocator as
    /// a double free, which the directory bitmap refuses in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn a_page_queued_twice_is_a_double_free() {
        let mut db = Db::paper_default();
        let p = db.alloc_meta_page();
        let mut ctx = OpCtx::new();
        ctx.free_page_later(p);
        ctx.free_page_later(p);
        ctx.finish(&mut db);
    }

    #[test]
    fn shadowing_disabled_updates_in_place() {
        let mut db = Db::new(DbConfig {
            shadowing: false,
            ..DbConfig::default()
        });
        let page = db.alloc_meta_page();
        db.with_new_meta_page(page, |p| p[0] = 3);
        let mut ctx = OpCtx::new();
        assert_eq!(ctx.shadow_page(&mut db, page), page, "no copy");
        let allocated = db.meta_pages_allocated();
        let writes_before = db.io_stats().write_calls;
        ctx.finish(&mut db);
        assert_eq!(db.meta_pages_allocated(), allocated, "nothing freed");
        assert_eq!(
            db.io_stats().write_calls,
            writes_before + 1,
            "the updated page is still flushed at op end"
        );
    }
}
