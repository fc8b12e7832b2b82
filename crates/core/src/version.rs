//! MVCC object versioning over the shadow/copy-on-write path (DESIGN.md
//! §16).
//!
//! The shadowing discipline (§3.3) already guarantees that an update
//! never overwrites committed bytes *except* at the root page, which is
//! updated in place. That gap is exactly what this module closes, turning
//! the copy-on-write cost every update already pays into a versioning
//! mechanism:
//!
//! * every committed operation (or [`crate::Db::txn`] batch) advances a
//!   database-global **version number**; the writes between two commits
//!   are one **commit interval**;
//! * the META write funnel ([`crate::Db::with_meta_page_mut`]) copies a
//!   committed page at its first in-place overwrite in the interval, while
//!   a pin, a transaction or the allocation log is active: one pre-image
//!   per page, which the log writes as an `UndoImage` (`alloclog.rs`), a
//!   rollback restores (`txn.rs`) and, under a pin, the commit moves into
//!   an in-memory **overlay** tagged with the version it was valid for.
//!   `commit_version`, `checkpoint` and a crash end an interval;
//! * [`crate::Db::snapshot`] pins a version. While any pin is held, every
//!   `free` of a committed page or extent is **deferred** — the pages stay
//!   allocated (so nothing can reuse and clobber them) until no pin needs
//!   them;
//! * the read cursor's pinned source ([`crate::SpanCursor::pinned`])
//!   reads an object *as of* the pinned version: the root comes from the
//!   overlay, the open interval or the live page, everything below the
//!   root is immutable while pinned, so ordinary costed reads serve the
//!   rest.
//!
//! Old versions are reclaimed incrementally: whenever a pin is released
//! or a version commits, overlay copies older than the oldest pin are
//! dropped and deferred frees whose version has passed are executed.
//! Snapshots are in-memory handles — a crash releases all of them, and
//! recovery (the allocation log, `alloclog.rs`) replays to the last
//! *committed* version.
//!
//! Default-path neutrality: with no snapshot pinned, no transaction open
//! and no log, the funnel captures nothing and every hook in this module
//! reduces to an integer bump — the golden traces of the paper's three
//! schemes are bit-identical.

use std::collections::{BTreeMap, HashSet};

use lobstore_buddy::Extent;
use lobstore_simdisk::{cast, PAGE_SIZE};

use crate::db::Db;
use crate::metrics;

/// The commit interval in flight (owned by [`Db`]).
#[derive(Default)]
pub(crate) struct Interval {
    /// META pages the operation in flight allocated (shadow copies, fresh
    /// index pages): their writes are no overwrite of committed content.
    pub created: HashSet<u32>,
    /// Committed META pages overwritten in place, each with its content
    /// at the interval's start, in first-capture order.
    pub images: Images,
}

/// Pre-images of META pages, one per page.
type Images = Vec<(u32, Box<[u8; PAGE_SIZE]>)>;

/// The image of `page` in `images`, if any.
fn image_of(images: &Images, page: u32) -> Option<&[u8; PAGE_SIZE]> {
    images.iter().find(|(p, _)| *p == page).map(|(_, c)| &**c)
}

/// Does `images` hold two images of one page?
fn holds_a_page_twice(images: &Images) -> bool {
    let mut pages: Vec<u32> = images.iter().map(|(p, _)| *p).collect();
    pages.sort_unstable();
    pages.dedup();
    pages.len() != images.len()
}

/// A free that is being held back because a pinned snapshot may still
/// read the pages.
struct DeferredFree {
    /// The version whose commit superseded these pages: pins at versions
    /// `<= free_after` still need them; once every pin is newer, the
    /// free executes.
    free_after: u64,
    ext: Extent,
}

/// Per-database version state (owned by [`Db`]).
pub(crate) struct VersionState {
    /// Last committed version number. Version 0 is the empty database.
    current: u64,
    /// Pinned version → number of open snapshots at that version.
    pins: BTreeMap<u64, u32>,
    /// The images of the intervals closed under a pin, oldest first, each
    /// tagged with the last version it was valid for (strictly
    /// increasing): a reader pinned at `v` wants the first interval
    /// tagged `>= v` that holds the page.
    overlay: Vec<(u64, Images)>,
    /// Frees held back for pinned snapshots, in the order they arrived.
    deferred: Vec<DeferredFree>,
}

impl VersionState {
    /// Version 0 (the empty database), nothing pinned, nothing deferred.
    pub fn new() -> Self {
        VersionState {
            current: 0,
            pins: BTreeMap::new(),
            overlay: Vec::new(),
            deferred: Vec::new(),
        }
    }

    /// Is at least one snapshot pinned?
    pub fn pinned(&self) -> bool {
        !self.pins.is_empty()
    }

    fn oldest_pin(&self) -> Option<u64> {
        self.pins.keys().next().copied()
    }
}

/// A read handle pinned to a committed version. Obtain one with
/// [`Db::snapshot`]; release it with [`Db::release_snapshot`] so the
/// storage it pins can be reclaimed.
#[must_use = "an unreleased snapshot pins old versions forever"]
#[derive(Debug)]
pub struct Snapshot {
    version: u64,
}

impl Snapshot {
    /// The committed version this snapshot reads.
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl Db {
    /// Pin the current committed version and return a read handle for it.
    /// Reads through the returned [`Snapshot`] (see [`crate::SpanCursor::pinned`])
    /// observe exactly the bytes committed at this version, no matter how
    /// many updates or transactions commit afterwards.
    ///
    /// # Panics
    /// If shadowing is disabled (in-place leaf updates make old versions
    /// unreconstructible) or a transaction is open (its writes are not
    /// yet a committed version).
    pub fn snapshot(&mut self) -> Snapshot {
        assert!(
            self.config().shadowing,
            "snapshots require the shadowing discipline (DbConfig::shadowing)"
        );
        assert!(
            !self.txn_active(),
            "cannot open a snapshot inside a transaction"
        );
        let v = self.versions.current;
        *self.versions.pins.entry(v).or_insert(0) += 1;
        metrics::MVCC_SNAPSHOTS_OPENED.add(1);
        self.publish_version_gauges();
        Snapshot { version: v }
    }

    /// Release a snapshot, allowing the versions it pinned to be
    /// reclaimed (archived root images dropped, deferred frees executed).
    pub fn release_snapshot(&mut self, snap: Snapshot) {
        let v = snap.version;
        match self.versions.pins.get_mut(&v) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                self.versions.pins.remove(&v);
            }
            None => unreachable!("snapshot {v} released but never pinned"),
        }
        metrics::MVCC_SNAPSHOTS_RELEASED.add(1);
        self.reclaim_versions();
        self.publish_version_gauges();
    }

    /// The last committed version number.
    pub fn current_version(&self) -> u64 {
        self.versions.current
    }

    /// Number of snapshots currently pinned.
    pub fn pinned_snapshots(&self) -> usize {
        self.versions
            .pins
            .values()
            .map(|&n| cast::u32_to_usize(n))
            .sum()
    }

    /// Is `version` still pinned by at least one snapshot?
    pub(crate) fn is_pinned(&self, version: u64) -> bool {
        self.versions.pins.contains_key(&version)
    }

    /// Extents whose free is deferred for pinned snapshots (the fsck path
    /// treats these as owned by the version store, not leaked).
    pub fn deferred_extents(&self) -> Vec<Extent> {
        self.versions.deferred.iter().map(|d| d.ext).collect()
    }

    /// The write funnel's one capture, run before an in-place write to
    /// META `page`: on the page's first overwrite in the interval, copy
    /// the content it holds now — unless the operation in flight
    /// allocated it (by the shadowing discipline, everything else written
    /// in place is a root, header or catalog flip of committed content),
    /// or no pin, transaction or log will read the copy.
    pub(crate) fn capture_preimage(&mut self, page: u32) {
        let wanted = self.versions.pinned() || self.txn_active() || self.log.is_some();
        let iv = &self.interval;
        if !wanted || iv.created.contains(&page) || image_of(&iv.images, page).is_some() {
            return;
        }
        let img = self.peek_meta(page);
        self.log_undo_image(page, &img[..]);
        if self
            .txn
            .as_ref()
            .is_some_and(|t| !t.alloc_meta.contains(&page))
        {
            metrics::MVCC_TXN_PREIMAGES.add(1);
        }
        self.interval.images.push((page, img));
    }

    /// End the commit interval (`commit_version`, `checkpoint`): under a
    /// pin its images join the overlay, tagged with the version being
    /// closed, at most one per page per version — a checkpoint may have
    /// handed over an earlier image of the same version.
    pub(crate) fn end_interval(&mut self) {
        let images = std::mem::take(&mut self.interval.images);
        if images.is_empty() || !self.versions.pinned() {
            return;
        }
        let current = self.versions.current;
        let overlay = &mut self.versions.overlay;
        if overlay.last().is_none_or(|(tag, _)| *tag < current) {
            overlay.push((current, Images::new()));
        }
        let Some((_, kept)) = overlay.last_mut() else {
            return;
        };
        for (page, img) in images {
            if image_of(kept, page).is_none() {
                kept.push((page, img));
                metrics::MVCC_PAGES_ARCHIVED.add(1);
            }
        }
    }

    /// Queue `ext` to be freed once no pin at a version `<= free_after`
    /// remains. Caller has already decided the free cannot run now.
    pub(crate) fn defer_free(&mut self, ext: Extent) {
        let free_after = self.versions.current;
        self.versions
            .deferred
            .push(DeferredFree { free_after, ext });
        metrics::MVCC_FREES_DEFERRED.add(1);
    }

    /// Commit point of one operation (or one transaction batch): write
    /// the allocation-log commit marker for the next version, then
    /// advance it. Called by the shadow context's `finish` (outside a
    /// transaction) and by the transaction commit.
    pub(crate) fn commit_version(&mut self) {
        let v = self.versions.current + 1;
        self.log_commit(v);
        self.end_interval();
        self.bump_version();
    }

    /// End-of-operation commit for managers that run no [`crate::shadow::OpCtx`]
    /// (Starburst writes no index pages — §4.2, so its operations have
    /// no shadow context whose `finish` would commit). Inside a
    /// transaction this is a no-op: the batch commits as one version.
    pub(crate) fn op_commit(&mut self) {
        if !self.txn_active() {
            self.commit_version();
        }
    }

    /// Advance the version and reclaim whatever the oldest pin no longer
    /// needs.
    fn bump_version(&mut self) {
        self.versions.current += 1;
        metrics::MVCC_VERSIONS_COMMITTED.add(1);
        self.reclaim_versions();
        self.publish_version_gauges();
    }

    /// Drop overlay copies and execute deferred frees that no pin can
    /// reach any more.
    pub(crate) fn reclaim_versions(&mut self) {
        let min_pin = self.versions.oldest_pin();
        // Overlay images tagged `t` serve only pins at versions <= t.
        let keep_tag = |t: u64| min_pin.is_some_and(|m| m <= t);
        self.versions.overlay.retain(|&(tag, _)| keep_tag(tag));
        // A deferred free tagged `free_after` is still needed by pins at
        // versions <= free_after.
        let mut run = Vec::new();
        self.versions.deferred.retain(|d| {
            if keep_tag(d.free_after) {
                true
            } else {
                run.push(d.ext);
                false
            }
        });
        for ext in run {
            metrics::MVCC_FREES_RECLAIMED.add(1);
            self.free_now(ext);
        }
    }

    /// Publish the version gauges: how far behind the oldest snapshot is
    /// and how much storage reclamation is waiting on it.
    fn publish_version_gauges(&self) {
        let age = self
            .versions
            .oldest_pin()
            .map_or(0, |m| self.versions.current - m);
        metrics::MVCC_SNAPSHOT_AGE.set(age as f64);
        metrics::MVCC_PINNED_SNAPSHOTS.set(self.pinned_snapshots() as f64);
        let held: u64 = self
            .versions
            .deferred
            .iter()
            .map(|d| u64::from(d.ext.pages))
            .sum();
        metrics::MVCC_DEFERRED_PAGES.set(held as f64);
    }

    /// Read META `page` as of `version`: its image in the first closed
    /// interval still valid at that version, else the open interval's
    /// image (the content of the current version), else the live page
    /// (costed, like any read).
    pub(crate) fn versioned_meta_page<R>(
        &self,
        page: u32,
        version: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let archived = self
            .versions
            .overlay
            .iter()
            .filter(|(tag, _)| *tag >= version)
            .find_map(|(_, images)| image_of(images, page))
            .or_else(|| image_of(&self.interval.images, page));
        match archived {
            Some(c) => f(&c[..]),
            None => self.with_meta_page(page, f),
        }
    }

    /// The version store's own rules, checked by [`Db::verify`]: the open
    /// interval and each closed one hold one image per page, overlay
    /// tags strictly increase and are no newer than the current version,
    /// pins reference committed versions, and deferred frees are tagged
    /// with committed versions and never overlap (an overlap would become
    /// a double free at reclamation).
    pub(crate) fn check_versions(&self) -> Result<(), String> {
        let current = self.versions.current;
        if holds_a_page_twice(&self.interval.images) {
            return Err("the open interval holds a page twice".into());
        }
        let mut last = None;
        for &(tag, ref images) in &self.versions.overlay {
            if holds_a_page_twice(images) {
                return Err(format!("overlay images tagged {tag} hold a page twice"));
            }
            if tag > current {
                return Err(format!(
                    "overlay images tagged {tag} beyond current version {current}"
                ));
            }
            if last.is_some_and(|l| l >= tag) {
                return Err(format!("overlay images tagged {tag} twice or out of order"));
            }
            last = Some(tag);
        }
        if let Some((&v, _)) = self.versions.pins.last_key_value() {
            if v > current {
                return Err(format!(
                    "snapshot pinned at {v} beyond current version {current}"
                ));
            }
        }
        let mut exts: Vec<&Extent> = self.versions.deferred.iter().map(|d| &d.ext).collect();
        exts.sort_by_key(|e| (e.area, e.start));
        for (a, b) in exts.iter().zip(exts.iter().skip(1)) {
            if a.area == b.area && a.end() > b.start {
                return Err(format!("deferred frees overlap: {a} and {b}"));
            }
        }
        for d in &self.versions.deferred {
            if d.free_after > current {
                return Err(format!(
                    "deferred free of {} tagged {} beyond current version {current}",
                    d.ext, d.free_after
                ));
            }
        }
        Ok(())
    }

    /// Forget all snapshots, archived pages, and deferred frees — the
    /// crash path. Snapshots are in-memory handles; after a reboot the
    /// committed on-disk state is the only version. Deferred frees are
    /// *not* executed here: with the allocation log enabled, replay
    /// rebuilds the allocators from what the committed roots reach, and
    /// no root reaches them; without it, the reboot releases those the
    /// last checkpoint made durable (see [`Db::crash_and_reboot`]).
    pub(crate) fn clear_version_state(&mut self) {
        self.versions = VersionState::new();
        self.publish_version_gauges();
    }
}

#[cfg(test)]
mod tests {
    use lobstore_simdisk::AreaId;

    use super::*;
    use crate::spec::ManagerSpec;
    use crate::Finding;

    /// A pinned database whose delete deferred a free, and the walk's
    /// version-store finding once `tamper` has edited the deferred list.
    fn broken_by(tamper: impl FnOnce(&mut Vec<DeferredFree>, u64)) -> Vec<Finding> {
        let mut db = Db::paper_default();
        let mut obj = ManagerSpec::esm(4).create(&mut db).unwrap();
        obj.append(&mut db, &[5u8; 60_000]).unwrap();
        let snap = db.snapshot();
        obj.delete(&mut db, 0, 30_000).unwrap();
        let clean = db.verify(&[("a", obj.as_ref())], &[]);
        assert!(clean.is_empty(), "{clean:?}");
        let current = db.versions.current;
        tamper(&mut db.versions.deferred, current);
        let findings = db.verify(&[("a", obj.as_ref())], &[]);
        // Not released: reclaiming the tampered list would free twice.
        drop(snap);
        findings
            .into_iter()
            .filter(|f| matches!(f, Finding::VersionsBroken { .. }))
            .collect()
    }

    #[test]
    fn overlapping_deferred_frees_are_reported() {
        let findings = broken_by(|deferred, _| {
            let d = &deferred[0];
            let again = Extent::new(d.ext.area, d.ext.start, 1);
            let free_after = d.free_after;
            deferred.push(DeferredFree {
                free_after,
                ext: again,
            });
        });
        assert!(
            matches!(&findings[..], [Finding::VersionsBroken { detail }] if detail.contains("overlap")),
            "{findings:?}"
        );
    }

    #[test]
    fn future_tagged_deferred_frees_are_reported() {
        let findings = broken_by(|deferred, current| {
            deferred.push(DeferredFree {
                free_after: current + 1,
                ext: Extent::new(AreaId::LEAF, 10_000, 1),
            });
        });
        assert!(
            matches!(&findings[..], [Finding::VersionsBroken { detail }] if detail.contains("beyond current version")),
            "{findings:?}"
        );
    }
}
