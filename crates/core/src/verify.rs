//! The consistency walk — an fsck — behind [`Db::verify`].
//!
//! §3.3's shadowing keeps committed pages intact until an operation ends
//! and frees what it superseded, so between operations the allocated pages
//! are exactly the reachable ones. The walk checks that, and everything it
//! rests on:
//!
//! 1. every object's own invariants ([`LargeObject::check_invariants`]);
//! 2. that no page is claimed twice: by two objects, twice by one object,
//!    or by an object and a deferred free;
//! 3. that each area's allocator map is exactly the claimed set: the
//!    objects' segments and index pages ([`crate::object::claims`], the
//!    walk allocation-log replay rebuilds the allocators from), the
//!    caller's other META pages (a catalog chain), the allocation log's
//!    chain, and the frees deferred for pinned snapshots (DESIGN.md §16);
//! 4. both buddy allocators' directories against their own bookkeeping;
//! 5. the allocation log: its chain reads back whole, and its root set
//!    is the one the caller walked from;
//! 6. the version store (overlay tags, pins, deferred frees).
//!
//! The walk reads only cost-free — peeked pages and in-memory state — so
//! running it after every operation moves no simulated number.

use std::collections::{BTreeMap, BTreeSet};

use lobstore_buddy::Extent;
use lobstore_simdisk::AreaId;

use crate::alloclog::Roots;
use crate::db::Db;
use crate::object::{claims, LargeObject};

/// Owner name of the allocation log's chain pages.
const ALLOC_LOG: &str = "<alloc-log>";
/// Owner name of extents whose free waits for a pinned snapshot.
const DEFERRED: &str = "<deferred-free>";
/// Owner name of the caller's other META pages.
const OTHER_META: &str = "<other-meta>";

/// One problem found by [`Db::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// An object failed its own structural invariants.
    ObjectBroken {
        /// The object's name.
        name: String,
        /// What failed.
        detail: String,
    },
    /// A LEAF page is claimed more than once.
    LeafOverlap {
        /// The page.
        page: u32,
        /// The earlier claim and the later one (the same name twice when
        /// one object aliases its own page).
        owners: Vec<String>,
    },
    /// A LEAF page is allocated but claimed by no one.
    LeafLeaked {
        /// The page.
        page: u32,
    },
    /// An object references an unallocated LEAF page.
    LeafDangling {
        /// The object's name.
        name: String,
        /// The page.
        page: u32,
    },
    /// A META page is claimed more than once.
    MetaOverlap {
        /// The page.
        page: u32,
        /// The earlier claim and the later one.
        owners: Vec<String>,
    },
    /// A META page is allocated but claimed by no one.
    MetaLeaked {
        /// The page.
        page: u32,
    },
    /// A claimed META page is not allocated.
    MetaDangling {
        /// The claimant.
        owner: String,
        /// The page.
        page: u32,
    },
    /// A buddy allocator's directories disagree with its bookkeeping.
    AllocatorBroken {
        /// The allocator's area.
        area: AreaId,
        /// What failed.
        detail: String,
    },
    /// The allocation log's chain does not read back whole, or its root
    /// set is not the one the caller walked from.
    AllocLogBroken {
        /// What failed.
        detail: String,
    },
    /// The version store broke one of its own rules.
    VersionsBroken {
        /// What failed.
        detail: String,
    },
}

impl Finding {
    /// Stable machine-readable name of this finding class (the `kind`
    /// field of `lobctl check --json`).
    pub fn kind(&self) -> &'static str {
        match self {
            Finding::ObjectBroken { .. } => "object-broken",
            Finding::LeafOverlap { .. } => "leaf-overlap",
            Finding::LeafLeaked { .. } => "leaf-leaked",
            Finding::LeafDangling { .. } => "leaf-dangling",
            Finding::MetaOverlap { .. } => "meta-overlap",
            Finding::MetaLeaked { .. } => "meta-leaked",
            Finding::MetaDangling { .. } => "meta-dangling",
            Finding::AllocatorBroken { .. } => "allocator-broken",
            Finding::AllocLogBroken { .. } => "alloc-log-broken",
            Finding::VersionsBroken { .. } => "versions-broken",
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Finding::ObjectBroken { name, detail } => {
                write!(f, "object '{name}' failed invariants: {detail}")
            }
            Finding::LeafOverlap { page, owners } => {
                write!(f, "leaf page {page} claimed twice: {owners:?}")
            }
            Finding::LeafLeaked { page } => {
                write!(f, "leaf page {page} allocated but unreachable (leak)")
            }
            Finding::LeafDangling { name, page } => {
                write!(f, "object '{name}' references unallocated leaf page {page}")
            }
            Finding::MetaOverlap { page, owners } => {
                write!(f, "meta page {page} claimed twice: {owners:?}")
            }
            Finding::MetaLeaked { page } => {
                write!(f, "meta page {page} allocated but unreachable (leak)")
            }
            Finding::MetaDangling { owner, page } => {
                write!(f, "'{owner}' references unallocated meta page {page}")
            }
            Finding::AllocatorBroken { area, detail } => {
                let name = if *area == AreaId::META {
                    "META"
                } else {
                    "LEAF"
                };
                write!(f, "{name} allocator failed its self-check: {detail}")
            }
            Finding::AllocLogBroken { detail } => {
                write!(f, "allocation log failed verification: {detail}")
            }
            Finding::VersionsBroken { detail } => {
                write!(f, "version store failed verification: {detail}")
            }
        }
    }
}

/// Who claims each page of the two areas, and what the walk found.
#[derive(Default)]
struct Walk {
    meta: BTreeMap<u32, String>,
    leaf: BTreeMap<u32, String>,
    findings: Vec<Finding>,
}

impl Walk {
    /// Record `owner`'s claim on every page of `ext`; a page claimed
    /// already is an overlap.
    fn claim(&mut self, ext: Extent, owner: &str) {
        let meta = ext.area == AreaId::META;
        let map = if meta { &mut self.meta } else { &mut self.leaf };
        for page in ext.start..ext.end() {
            if let Some(prev) = map.insert(page, owner.to_string()) {
                let owners = vec![prev, owner.to_string()];
                self.findings.push(if meta {
                    Finding::MetaOverlap { page, owners }
                } else {
                    Finding::LeafOverlap { page, owners }
                });
            }
        }
    }

    /// Hold `area`'s claims against its allocator map `ranges`: a claimed
    /// page must be allocated, an allocated page claimed.
    fn reconcile(&mut self, area: AreaId, ranges: &[Extent]) {
        let meta = area == AreaId::META;
        let claims = if meta { &self.meta } else { &self.leaf };
        let allocated: BTreeSet<u32> = ranges.iter().flat_map(|e| e.start..e.end()).collect();
        for (&page, owner) in claims {
            if !allocated.contains(&page) {
                let owner = owner.clone();
                self.findings.push(if meta {
                    Finding::MetaDangling { owner, page }
                } else {
                    Finding::LeafDangling { name: owner, page }
                });
            }
        }
        for page in allocated.into_iter().filter(|p| !claims.contains_key(p)) {
            self.findings.push(if meta {
                Finding::MetaLeaked { page }
            } else {
                Finding::LeafLeaked { page }
            });
        }
    }
}

impl Db {
    /// Walk the database from the caller's root set: `objects` (named
    /// for the findings) and `other_meta`, the META pages the caller
    /// keeps beside them (a catalog chain). The allocation log's chain
    /// and the deferred frees are the database's own and need not be
    /// passed; with the log on, its root set must be exactly the
    /// objects' roots plus `other_meta`. An empty result means the
    /// database is consistent.
    ///
    /// Cost-free: every page is peeked, so `IoStats`, `PoolStats` and the
    /// disk trace are untouched. Call it between operations — inside a
    /// transaction, queued frees are allocated but unreachable.
    pub fn verify(&self, objects: &[(&str, &dyn LargeObject)], other_meta: &[u32]) -> Vec<Finding> {
        let mut walk = Walk::default();
        for page in self.alloc_log_pages() {
            walk.claim(Extent::new(AreaId::META, page, 1), ALLOC_LOG);
        }
        for ext in self.deferred_extents() {
            walk.claim(ext, DEFERRED);
        }
        let mut roots = Roots::new();
        for &page in other_meta {
            walk.claim(Extent::new(AreaId::META, page, 1), OTHER_META);
            roots.insert(page, None);
        }
        for &(name, obj) in objects {
            if let Err(e) = obj.check_invariants(self) {
                walk.findings.push(Finding::ObjectBroken {
                    name: name.to_string(),
                    detail: e.to_string(),
                });
            }
            for ext in claims(obj, self) {
                walk.claim(ext, name);
            }
            roots.insert(obj.root_page(), Some(obj.kind()));
        }

        let allocators = [&self.meta_alloc, &self.leaf_alloc];
        for alloc in allocators {
            let area = alloc.config().area;
            match alloc.verify(&self.pool) {
                Ok(ranges) => walk.reconcile(area, &ranges),
                Err(detail) => walk
                    .findings
                    .push(Finding::AllocatorBroken { area, detail }),
            }
        }
        if let Err(detail) = self.check_log(&roots) {
            walk.findings.push(Finding::AllocLogBroken { detail });
        }
        if let Err(detail) = self.check_versions() {
            walk.findings.push(Finding::VersionsBroken { detail });
        }
        walk.findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use crate::node::ROOT_ENTRIES_OFF;
    use crate::spec::ManagerSpec;
    use crate::{
        object_health, publish_object_health, EsmObject, EsmParams, StarburstObject,
        StarburstParams,
    };

    const CLEAN: [Finding; 0] = [];

    fn logged_db() -> Db {
        Db::new(DbConfig {
            alloc_log: true,
            ..DbConfig::default()
        })
    }

    fn specs() -> [ManagerSpec; 3] {
        [
            ManagerSpec::esm(4),
            ManagerSpec::eos(16),
            ManagerSpec::starburst(),
        ]
    }

    /// With the log on and a pin held, a short history leaves a clean
    /// walk — log chain and deferred frees owned — and the walk itself,
    /// like the health recounts (`sample_health`, `object_health`,
    /// `publish_object_health`), costs no I/O, no pool fix and no trace
    /// event.
    #[test]
    fn the_walk_is_clean_and_costs_nothing() {
        for spec in specs() {
            let mut db = logged_db();
            db.pool().disk().enable_trace(1 << 16);
            let mut obj = spec.create(&mut db).unwrap();
            obj.append(&mut db, &vec![1u8; 120_000]).unwrap();
            let snap = db.snapshot();
            obj.insert(&mut db, 7_000, &vec![2u8; 9_000]).unwrap();
            obj.delete(&mut db, 30_000, 60_000).unwrap();
            obj.replace(&mut db, 100, &vec![3u8; 5_000]).unwrap();
            assert!(
                !db.deferred_extents().is_empty(),
                "{spec:?}: frees deferred"
            );
            assert!(!db.alloc_log_pages().is_empty());

            let events = db.pool().disk().take_trace().len();
            assert!(events > 0, "the history was traced");
            let dropped = db.pool().disk().trace_dropped();
            let (io, fixes) = (db.io_stats(), db.pool().pool_stats());
            let findings = db.verify(&[("x", obj.as_ref())], &[]);
            assert!(findings.is_empty(), "{spec:?}: {findings:?}");
            // The health recounts read the same way.
            db.sample_health();
            publish_object_health(&[object_health(obj.as_ref(), &db)]);
            assert_eq!(db.io_stats(), io, "{spec:?}: IoStats moved");
            assert_eq!(db.pool().pool_stats(), fixes, "{spec:?}: PoolStats moved");
            assert!(db.pool().disk().take_trace().is_empty(), "{spec:?}: traced");
            assert_eq!(db.pool().disk().trace_dropped(), dropped);

            db.release_snapshot(snap);
            obj.append(&mut db, b"reclaim").unwrap();
            assert!(db.deferred_extents().is_empty());
            let findings = db.verify(&[("x", obj.as_ref())], &[]);
            assert!(findings.is_empty(), "{spec:?} after release: {findings:?}");
        }
    }

    #[test]
    fn the_callers_meta_pages_are_owned() {
        let mut db = Db::paper_default();
        let page = db.alloc_meta_page();
        assert_eq!(db.verify(&[], &[]), [Finding::MetaLeaked { page }]);
        assert_eq!(db.verify(&[], &[page]), CLEAN);
    }

    #[test]
    fn leaked_leaf_pages_are_reported() {
        let mut db = Db::paper_default();
        let ext = db.alloc_leaf(3);
        let leaks: Vec<Finding> = (ext.start..ext.end())
            .map(|page| Finding::LeafLeaked { page })
            .collect();
        assert_eq!(db.verify(&[], &[]), leaks);
    }

    #[test]
    fn dangling_references_are_reported() {
        let mut db = Db::paper_default();
        let mut obj = ManagerSpec::eos(16).create(&mut db).unwrap();
        obj.append(&mut db, &vec![7u8; 100_000]).unwrap();
        let page = obj.segments(&db)[0].start_page;
        db.free_leaf(Extent::new(AreaId::LEAF, page, 1));
        let findings = db.verify(&[("b", obj.as_ref())], &[]);
        let name = "b".to_string();
        assert_eq!(findings, [Finding::LeafDangling { name, page }]);
    }

    // Seeded violation, ESM / count tree: desynchronize the stored object
    // size from the tree's separator totals.
    #[test]
    fn size_total_mismatch_is_reported() {
        let mut db = Db::paper_default();
        let mut obj = EsmObject::create(&mut db, EsmParams { leaf_pages: 4 }).unwrap();
        obj.append(&mut db, &vec![3u8; 50_000]).unwrap();
        // hdr.size lives at bytes 8..16 of the root page.
        db.with_meta_page_mut(obj.root_page(), |p| p[8] = p[8].wrapping_add(1));
        let findings = db.verify(&[("a", &obj)], &[]);
        assert!(
            matches!(&findings[..], [Finding::ObjectBroken { name, .. }] if name == "a"),
            "{findings:?}"
        );
    }

    // Seeded violation, ESM: alias two leaves of one object onto the same
    // disk pages. Leaf 1's own pages then leak.
    #[test]
    fn leaves_aliased_within_one_object_are_reported() {
        let mut db = Db::paper_default();
        let mut obj = EsmObject::create(&mut db, EsmParams { leaf_pages: 4 }).unwrap();
        obj.append(&mut db, &vec![3u8; 100_000]).unwrap();
        // Copy leaf 0's pointer over leaf 1's (each root entry is a
        // (count u32, ptr u32) pair starting at ROOT_ENTRIES_OFF).
        let first_ptr_at = ROOT_ENTRIES_OFF + 4;
        let second_ptr_at = ROOT_ENTRIES_OFF + 8 + 4;
        db.with_meta_page_mut(obj.root_page(), |p| {
            p.copy_within(first_ptr_at..first_ptr_at + 4, second_ptr_at);
        });
        let findings = db.verify(&[("a", &obj)], &[]);
        let segs = obj.segments(&db);
        let aliased = |f: &Finding| {
            matches!(f, Finding::LeafOverlap { page, owners }
                if *page == segs[0].start_page && owners[..] == ["a", "a"])
        };
        assert!(findings.iter().any(aliased), "{findings:?}");
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, Finding::LeafLeaked { .. })),
            "{findings:?}"
        );
    }

    // Seeded violation, Starburst: lower the on-disk MaxSeg parameter
    // after large extents were laid out — segments that were legal under
    // the old ceiling now exceed it.
    #[test]
    fn a_segment_above_a_lowered_max_seg_is_reported() {
        let mut db = Db::paper_default();
        let mut obj = StarburstObject::create(&mut db, StarburstParams::default()).unwrap();
        obj.append(&mut db, &vec![4u8; 80_000]).unwrap();
        assert_eq!(db.verify(&[("c", &obj)], &[]), CLEAN);
        db.with_meta_page_mut(obj.root_page(), |p| {
            // params word (bytes 16..24): max_seg_pages | known << 32.
            p[16..24].copy_from_slice(&2u64.to_le_bytes());
        });
        let obj = StarburstObject::open(&mut db, obj.root_page()).unwrap();
        let findings = db.verify(&[("c", &obj)], &[]);
        assert!(
            matches!(&findings[..], [Finding::ObjectBroken { detail, .. }]
                if detail.contains("byte max")),
            "{findings:?}"
        );
    }

    // Seeded violation, Starburst: trim a byte off a non-last segment in
    // the descriptor, keeping the size sum consistent.
    #[test]
    fn a_trimmed_interior_starburst_segment_is_reported() {
        let mut db = Db::paper_default();
        let mut obj = StarburstObject::create(&mut db, StarburstParams::default()).unwrap();
        // The second append outgrows the first segment: the descriptor
        // ends up with several doubling entries.
        obj.append(&mut db, &vec![7u8; 4096]).unwrap();
        obj.append(&mut db, &vec![7u8; 30_000]).unwrap();
        assert!(obj.segments(&db).len() >= 2, "need at least two segments");
        assert_eq!(db.verify(&[("c", &obj)], &[]), CLEAN);
        db.with_meta_page_mut(obj.root_page(), |p| {
            // Entry 0's count (u32 at ROOT_ENTRIES_OFF) and hdr.size (u64
            // at 8) each lose one byte.
            let at = ROOT_ENTRIES_OFF;
            let c = u32::from_le_bytes(p[at..at + 4].try_into().unwrap());
            p[at..at + 4].copy_from_slice(&(c - 1).to_le_bytes());
            let s = u64::from_le_bytes(p[8..16].try_into().unwrap());
            p[8..16].copy_from_slice(&(s - 1).to_le_bytes());
        });
        let findings = db.verify(&[("c", &obj)], &[]);
        assert!(
            matches!(&findings[..], [Finding::ObjectBroken { detail, .. }]
                if detail.contains("only the last extent")),
            "{findings:?}"
        );
    }

    // Stamp garbage over the log head's magic: the chain walk stops dead,
    // so the chain no longer reads back as the log's own.
    #[test]
    fn a_broken_alloc_log_chain_is_reported() {
        let mut db = logged_db();
        let mut obj = ManagerSpec::eos(16).create(&mut db).unwrap();
        obj.append(&mut db, &vec![2u8; 40_000]).unwrap();
        assert_eq!(db.verify(&[("a", obj.as_ref())], &[]), CLEAN);
        let head = db.alloc_log_pages()[0];
        db.with_meta_page_mut(head, |p| p[0..4].copy_from_slice(b"XXXX"));
        let findings = db.verify(&[("a", obj.as_ref())], &[]);
        assert!(
            matches!(&findings[..], [Finding::AllocLogBroken { .. }]),
            "{findings:?}"
        );
    }

    // Replay rebuilds the allocators from the log's root set, so a root
    // missing from it would come back free and one too many would keep
    // its pages: either way the set is not the one the walk started from.
    #[test]
    fn a_root_set_that_is_not_the_walked_one_is_reported() {
        let seeds: [fn(&mut Db, u32); 2] = [
            |db, root| db.log_unroot(root),
            |db, _| db.log_root(9_999, None),
        ];
        for seed in seeds {
            let mut db = logged_db();
            let mut obj = ManagerSpec::starburst().create(&mut db).unwrap();
            obj.append(&mut db, &vec![2u8; 40_000]).unwrap();
            assert_eq!(db.verify(&[("a", obj.as_ref())], &[]), CLEAN);
            seed(&mut db, obj.root_page());
            let findings = db.verify(&[("a", obj.as_ref())], &[]);
            assert!(
                matches!(&findings[..], [Finding::AllocLogBroken { detail }]
                    if detail.contains("root set")),
                "{findings:?}"
            );
        }
    }

    // A directory the allocator cannot read is reported, and its area is
    // not held against reachability.
    #[test]
    fn a_broken_allocator_is_reported() {
        let mut db = logged_db();
        let mut obj = ManagerSpec::esm(4).create(&mut db).unwrap();
        obj.append(&mut db, &vec![2u8; 40_000]).unwrap();
        // LEAF page 0 is the directory of the first LEAF buddy space.
        let dir = lobstore_simdisk::PageId::new(AreaId::LEAF, 0);
        let mut g = db.pool().guard_mut(dir);
        g[0..4].copy_from_slice(b"XXXX");
        drop(g);
        let findings = db.verify(&[("a", obj.as_ref())], &[]);
        assert!(
            matches!(&findings[..], [Finding::AllocatorBroken { area, detail }]
                if *area == AreaId::LEAF && detail.contains("magic")),
            "{findings:?}"
        );
    }
}
