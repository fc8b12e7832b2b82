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
//!   database-global **version number**;
//! * [`crate::Db::snapshot`] pins a version. While any pin is held,
//!   in-place writes to committed META pages first **archive** the old
//!   page content into an in-memory overlay, tagged with the last version
//!   it was valid for, and every `free` of a committed page or extent is
//!   **deferred** — the pages stay allocated (so nothing can reuse and
//!   clobber them) until no pin needs them;
//! * [`crate::SnapshotReader`] walks an object's index *as of* the pinned
//!   version: the root comes from the overlay (or the live page when it
//!   was never overwritten since), everything below the root is immutable
//!   while pinned, so ordinary costed reads serve the rest.
//!
//! Old versions are reclaimed incrementally: whenever a pin is released
//! or a version commits, overlay copies older than the oldest pin are
//! dropped and deferred frees whose version has passed are executed.
//! Snapshots are in-memory handles — a crash releases all of them, and
//! recovery (the allocation log, `alloclog.rs`) replays to the last
//! *committed* version.
//!
//! Default-path neutrality: with no snapshot pinned and no transaction
//! open, every hook in this module reduces to an integer bump — the
//! golden traces of the paper's three schemes are bit-identical.

use std::collections::{BTreeMap, HashMap};

use lobstore_buddy::Extent;
use lobstore_simdisk::{cast, PAGE_SIZE};

use crate::db::Db;
use crate::metrics;

/// One archived pre-image of a META page that was overwritten in place.
struct ArchivedPage {
    /// Last committed version this content was valid for: a reader
    /// pinned at `v` wants the first archived copy with
    /// `valid_through >= v`, else the live page.
    valid_through: u64,
    content: Box<[u8; PAGE_SIZE]>,
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
    /// META page → archived pre-images, oldest first, strictly
    /// increasing `valid_through` tags.
    overlay: HashMap<u32, Vec<ArchivedPage>>,
    /// Frees held back for pinned snapshots, in the order they arrived.
    deferred: Vec<DeferredFree>,
}

impl VersionState {
    /// Version 0 (the empty database), nothing pinned, nothing deferred.
    pub fn new() -> Self {
        VersionState {
            current: 0,
            pins: BTreeMap::new(),
            overlay: HashMap::new(),
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
    /// Reads through the returned [`Snapshot`] (see [`crate::SnapshotReader`])
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

    /// Archive the pre-image of META `page` before an in-place overwrite,
    /// when at least one snapshot is pinned. Called by the META write
    /// funnel for pages that were *not* allocated by the current
    /// operation — by the shadowing discipline those in-place writes are
    /// exactly the root/header updates. Idempotent per committed version:
    /// the second overwrite within one version finds the tag and skips.
    pub(crate) fn archive_page_preimage(&mut self, page: u32) {
        if !self.versions.pinned() {
            return;
        }
        let current = self.versions.current;
        if let Some(copies) = self.versions.overlay.get(&page) {
            if copies.last().is_some_and(|c| c.valid_through == current) {
                return;
            }
        }
        let content = self.peek_meta(page);
        self.versions
            .overlay
            .entry(page)
            .or_default()
            .push(ArchivedPage {
                valid_through: current,
                content,
            });
        metrics::MVCC_PAGES_ARCHIVED.add(1);
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
        // Overlay copy tagged `t` serves only pins at versions <= t.
        let keep_tag = |t: u64| min_pin.is_some_and(|m| m <= t);
        self.versions.overlay.retain(|_, copies| {
            copies.retain(|c| keep_tag(c.valid_through));
            !copies.is_empty()
        });
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

    /// Read META `page` as of `version`: the first archived copy still
    /// valid at that version, else the live page (costed, like any read).
    pub(crate) fn versioned_meta_page<R>(
        &mut self,
        page: u32,
        version: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let archived = self
            .versions
            .overlay
            .get(&page)
            .and_then(|copies| copies.iter().find(|c| c.valid_through >= version));
        match archived {
            Some(c) => f(&c.content[..]),
            None => self.with_meta_page(page, f),
        }
    }

    /// The version store's own rules, checked by [`Db::verify`]: overlay
    /// tags strictly increase and are no newer than the current version,
    /// pins reference committed versions, and deferred frees are tagged
    /// with committed versions and never overlap (an overlap would become
    /// a double free at reclamation).
    pub(crate) fn check_versions(&self) -> Result<(), String> {
        let current = self.versions.current;
        for (&page, copies) in &self.versions.overlay {
            let mut last = None;
            for c in copies {
                if c.valid_through > current {
                    return Err(format!(
                        "overlay for META page {page} tagged {} beyond current version {current}",
                        c.valid_through
                    ));
                }
                if last.is_some_and(|l| l >= c.valid_through) {
                    return Err(format!(
                        "overlay for META page {page} has non-increasing tags"
                    ));
                }
                last = Some(c.valid_through);
            }
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
