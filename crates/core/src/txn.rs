//! Atomic multi-operation transactions (DESIGN.md §16.2).
//!
//! [`Db::txn`] runs a closure of ordinary object operations as one
//! atomic unit. While the transaction is open:
//!
//! * each operation's shadow context *absorbs* instead of executing —
//!   shadow-page flushes and frees queue on the transaction, so nothing
//!   superseded is released and nothing new is made durable early;
//! * the write funnel captures each committed META page (object roots,
//!   catalog pages) at its first in-place overwrite: the commit
//!   interval's one pre-image (`version.rs`). A transaction begins on an
//!   interval boundary, so the interval's images are its own;
//! * allocations are tracked so rollback can return them.
//!
//! Commit is the single header/root flip discipline, batched: flush
//! every queued shadow page, release every queued free (deferred if a
//! snapshot pins it), write one allocation-log commit marker, and
//! advance the version — exactly once for the whole batch. Rollback
//! restores the interval's pre-images in capture order, frees the
//! transaction's allocations (unregistering the roots among them) and
//! discards the queued frees; it writes nothing to the allocation log.

use std::collections::HashSet;

use lobstore_buddy::Extent;
use lobstore_simdisk::{AreaId, PageId};

use crate::db::Db;
use crate::error::Result;
use crate::metrics;

/// Queued effects of an open transaction (owned by [`Db`]).
#[derive(Default)]
pub(crate) struct TxnState {
    /// META pages to flush at commit (shadow copies, fresh index pages),
    /// deduplicated, in first-queued order.
    flush: Vec<u32>,
    /// META pages whose free is queued for commit.
    free_meta: Vec<u32>,
    /// LEAF extents whose free is queued for commit.
    free_extents: Vec<Extent>,
    /// META pages allocated during the transaction: no committed state,
    /// so rollback frees them instead of restoring their images.
    pub(crate) alloc_meta: HashSet<u32>,
    /// LEAF extents allocated during the transaction.
    alloc_leaf: Vec<Extent>,
    /// Operations absorbed so far (observability).
    ops: u32,
}

impl Db {
    /// Is a transaction currently open?
    pub fn txn_active(&self) -> bool {
        self.txn.is_some()
    }

    /// Run `f` as one atomic transaction. Every object operation inside
    /// the closure batches onto a single commit: one flush of all shadow
    /// pages, one release of all superseded storage, one allocation-log
    /// commit marker, one version advance. If `f` returns `Err`, the
    /// database rolls back to its pre-transaction state (in-place page
    /// updates restored, allocations returned) and the error is passed
    /// through.
    ///
    /// A write that commits nothing (an EOS `trim`, a catalog or
    /// record-store page) may have left the commit interval open; it is
    /// committed first, so that a rollback undoes this transaction only.
    /// A crash (see [`Db::crash_and_reboot`]) while the transaction is
    /// open aborts it: with the allocation log enabled, replay recovers
    /// the last committed version.
    ///
    /// # Panics
    /// If a transaction is already open (transactions do not nest) or
    /// shadowing is disabled (in-place leaf updates cannot be rolled
    /// back).
    pub fn txn<R>(&mut self, f: impl FnOnce(&mut Db) -> Result<R>) -> Result<R> {
        assert!(!self.txn_active(), "transactions do not nest");
        assert!(
            self.cfg.shadowing,
            "transactions require the shadowing discipline (DbConfig::shadowing)"
        );
        if !self.interval.images.is_empty() {
            self.commit_version();
        }
        self.txn = Some(TxnState::default());
        match f(self) {
            Ok(r) => {
                self.txn_commit();
                Ok(r)
            }
            Err(e) => {
                self.txn_rollback();
                Err(e)
            }
        }
    }

    /// Commit the open transaction (see [`Db::txn`] for the sequence).
    fn txn_commit(&mut self) {
        let Some(t) = self.txn.take() else {
            unreachable!("commit without an open transaction")
        };
        for page in t.flush {
            self.pool.flush_page(PageId::new(AreaId::META, page));
        }
        for page in t.free_meta {
            self.release_extent(Extent::new(AreaId::META, page, 1));
        }
        for ext in t.free_extents {
            self.release_extent(ext);
        }
        metrics::MVCC_TXN_COMMITS.add(1);
        metrics::MVCC_TXN_OPS.add(u64::from(t.ops));
        self.commit_version();
    }

    /// Roll the open transaction back: restore the interval's pre-images
    /// of the pages it did not allocate, return its allocations, and drop
    /// the queued flushes and frees. The interval stays open: the log
    /// still names its pages at the next commit.
    fn txn_rollback(&mut self) {
        let Some(t) = self.txn.take() else {
            unreachable!("rollback without an open transaction")
        };
        let images = std::mem::take(&mut self.interval.images);
        for (page, img) in images.iter().filter(|(p, _)| !t.alloc_meta.contains(p)) {
            self.with_log_page_mut(*page, |p| p.copy_from_slice(&img[..]));
            // The overwrite may already be durable (a catalog self-flush,
            // a pool write-back); make the restored content durable too.
            self.pool.flush_page(PageId::new(AreaId::META, *page));
        }
        self.interval.images = images;
        // An operation the closure's error cut short never finished.
        self.interval.created.clear();
        // Pages and extents allocated inside the transaction were never
        // reachable from any committed state, so they bypass deferral.
        for &page in &t.alloc_meta {
            self.log_unroot(page);
            self.free_now(Extent::new(AreaId::META, page, 1));
        }
        for &ext in &t.alloc_leaf {
            self.free_now(ext);
        }
        metrics::MVCC_TXN_ROLLBACKS.add(1);
    }

    /// Absorb one finished operation's shadow effects into the open
    /// transaction (shadow.rs calls this instead of executing them).
    pub(crate) fn txn_absorb_op(
        &mut self,
        flush: Vec<u32>,
        free_meta: Vec<u32>,
        free_extents: Vec<Extent>,
    ) {
        let Some(t) = &mut self.txn else {
            unreachable!("absorb without an open transaction")
        };
        for page in flush {
            if !t.flush.contains(&page) {
                t.flush.push(page);
            }
        }
        t.free_meta.extend(free_meta);
        t.free_extents.extend(free_extents);
        t.ops += 1;
    }

    /// Transaction hook of the allocation path.
    pub(crate) fn txn_note_alloc(&mut self, ext: Extent) {
        if let Some(t) = &mut self.txn {
            if ext.area == AreaId::META {
                for p in ext.start..ext.end() {
                    t.alloc_meta.insert(p);
                }
            } else {
                t.alloc_leaf.push(ext);
            }
        }
    }

    /// Queue a free on the open transaction instead of releasing now.
    /// Returns `false` when no transaction is open (the caller releases
    /// immediately).
    pub(crate) fn txn_queue_free(&mut self, ext: Extent) -> bool {
        let Some(t) = &mut self.txn else { return false };
        if ext.area == AreaId::META {
            for p in ext.start..ext.end() {
                t.free_meta.push(p);
            }
        } else if ext.pages > 0 {
            t.free_extents.push(ext);
        }
        true
    }
}
