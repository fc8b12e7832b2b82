//! The one large-object type, [`Lob`], and its policy, [`ManagerSpec`]:
//! the scheme and parameters an object's root header stores.
//!
//! ESM, EOS and Starburst keep their objects under one positional count
//! tree (Starburst's descriptor is a level-0 root of it), so one handle
//! holds every read, lookup, destruction and inspection. Only updates and
//! each scheme's own invariants differ: a `match` on the spec calls that
//! scheme's code (`esm.rs`, `eos.rs`, `starburst.rs`). Every costed
//! operation of the handle is observed (`observe.rs`).

use lobstore_simdisk::{cast, AreaId, PageId};

use crate::db::Db;
use crate::eos::Eos;
use crate::error::{or_panic, LobError, Result};
use crate::esm::{self, Esm, EsmInsertAlgo};
use crate::node::{Entry, RootHdr};
use crate::object::{LargeObject, SegSpan, SegmentInfo, StorageKind, Utilization};
use crate::observe::{OpName, OpObserver};
use crate::starburst::Starburst;
use crate::tree::PosTree;

/// Which manager to instantiate, with its paper-relevant parameters: an
/// object's update policy, stored in its root header.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ManagerSpec {
    /// ESM with a fixed leaf size in pages (1, 4, 16, 64 in the paper).
    Esm {
        /// Leaf segment size in pages; fixed for the object's lifetime.
        leaf_pages: u32,
    },
    /// Starburst with a maximum segment size in pages.
    Starburst {
        /// Maximum segment size in pages. The paper's space manager
        /// supports 32 MB segments (8192 × 4 KB pages, §3.1).
        max_seg_pages: u32,
        /// Whether the eventual size is known in advance; if so,
        /// maximum-size segments are used from the start (§2.2).
        known_size: bool,
    },
    /// EOS with a segment-size threshold and maximum segment size.
    Eos {
        /// Segment-size threshold `T` in pages (§2.3). The paper
        /// evaluates 1, 4, 16, and 64.
        threshold_pages: u32,
        /// Maximum segment size in pages (32 MB with 4 KB pages, §3.1).
        max_seg_pages: u32,
    },
}

impl ManagerSpec {
    /// The paper's default Starburst configuration (32 MB max segments).
    pub fn starburst() -> Self {
        ManagerSpec::Starburst {
            max_seg_pages: 8192,
            known_size: false,
        }
    }

    /// The paper's EOS configuration for threshold `t`.
    pub fn eos(t: u32) -> Self {
        ManagerSpec::Eos {
            threshold_pages: t,
            max_seg_pages: 8192,
        }
    }

    /// The paper's ESM configuration for a leaf of `pages` pages.
    pub fn esm(pages: u32) -> Self {
        ManagerSpec::Esm { leaf_pages: pages }
    }

    /// The [`StorageKind`] this spec instantiates.
    pub fn kind(&self) -> StorageKind {
        match *self {
            ManagerSpec::Esm { .. } => StorageKind::Esm,
            ManagerSpec::Starburst { .. } => StorageKind::Starburst,
            ManagerSpec::Eos { .. } => StorageKind::Eos,
        }
    }

    /// Instantiate a fresh object of this kind in `db` ([`Lob::create`]).
    pub fn create(&self, db: &mut Db) -> Result<Box<dyn LargeObject>> {
        Ok(Box::new(Lob::create(db, *self)?))
    }

    /// Re-open an existing object of this kind by its root page.
    pub fn open(&self, db: &mut Db, root_page: u32) -> Result<Box<dyn LargeObject>> {
        open_object(db, self.kind(), root_page)
    }

    /// Short label for tables ("ESM/4", "EOS/16", "Starburst").
    pub fn label(&self) -> String {
        match *self {
            ManagerSpec::Esm { leaf_pages } => format!("ESM/{leaf_pages}"),
            ManagerSpec::Starburst { .. } => "Starburst".to_string(),
            ManagerSpec::Eos {
                threshold_pages, ..
            } => format!("EOS/{threshold_pages}"),
        }
    }

    /// `InvalidArgument` unless every size is at least one page and no
    /// segment exceeds what `db` allocates.
    fn check(&self, db: &Db) -> Result<()> {
        let max = db.max_segment_pages();
        let bad = |pages: u32| pages == 0 || pages > max;
        let msg = match *self {
            ManagerSpec::Esm { leaf_pages } if bad(leaf_pages) => {
                format!("leaf size {leaf_pages} pages out of range")
            }
            ManagerSpec::Eos {
                threshold_pages,
                max_seg_pages,
            } if threshold_pages == 0 || bad(max_seg_pages) => {
                format!("invalid EOS parameters: T={threshold_pages} max={max_seg_pages}")
            }
            ManagerSpec::Starburst { max_seg_pages, .. } if bad(max_seg_pages) => {
                format!("max segment of {max_seg_pages} pages out of range")
            }
            _ => return Ok(()),
        };
        Err(LobError::InvalidArgument(msg))
    }

    /// The root header's `params` word: the first parameter in the low
    /// half, the second (if any) in the high one.
    fn params(&self) -> u64 {
        let (lo, hi) = match *self {
            ManagerSpec::Esm { leaf_pages } => (leaf_pages, 0),
            ManagerSpec::Eos {
                threshold_pages,
                max_seg_pages,
            } => (threshold_pages, max_seg_pages),
            ManagerSpec::Starburst {
                max_seg_pages,
                known_size,
            } => (max_seg_pages, u32::from(known_size)),
        };
        u64::from(lo) | (u64::from(hi) << 32)
    }

    /// The spec a `kind` root whose header holds `params` was created
    /// with; inverse of [`Self::params`].
    fn from_params(kind: StorageKind, params: u64) -> ManagerSpec {
        let (lo, hi) = (cast::to_u32(params & 0xFFFF_FFFF), params >> 32);
        match kind {
            StorageKind::Esm => ManagerSpec::Esm { leaf_pages: lo },
            StorageKind::Eos => ManagerSpec::Eos {
                threshold_pages: lo,
                max_seg_pages: cast::to_u32(hi),
            },
            StorageKind::Starburst => ManagerSpec::Starburst {
                max_seg_pages: lo,
                known_size: hi & 1 == 1,
            },
        }
    }
}

/// Handle to one large object of any scheme: its root page and the
/// [`ManagerSpec`] stored there.
///
/// Every costed operation, [`Self::create`] and [`Self::open`] included,
/// is observed: it counts an `op.<scheme>.<operation>` span (see the
/// `lobstore-obs` crate) and adds its I/O to the `span.io.*` counters.
#[derive(Debug)]
pub struct Lob {
    pub(crate) tree: PosTree,
    spec: ManagerSpec,
    /// ESM's insert algorithm; the paper's results use
    /// [`EsmInsertAlgo::Improved`]. Per handle, not stored.
    pub insert_algo: EsmInsertAlgo,
    /// Ablation switch reproducing the \[Care86\] prototype assumption the
    /// paper criticizes in §4.5: a bulk read fetches entire leaf segments
    /// even when only a few pages are needed. Per handle, not stored.
    pub whole_leaf_io: bool,
}

/// The update policy a [`Lob`]'s spec names, over its tree.
enum Policy {
    Esm(Esm),
    Eos(Eos),
    Starburst(Starburst),
}

impl Lob {
    /// Create a new, empty object of `spec`'s scheme: validate the spec,
    /// allocate and write the root, flush it and commit.
    pub fn create(db: &mut Db, spec: ManagerSpec) -> Result<Lob> {
        let create = |db: &mut Db| {
            spec.check(db)?;
            let root = db.alloc_root(Some(spec.kind()));
            let hdr = RootHdr::new(spec.kind(), spec.params());
            db.with_new_meta_page(root, |p| hdr.write(p));
            db.pool.flush_page(PageId::new(AreaId::META, root));
            db.op_commit();
            Ok(Lob::new(PosTree::new(root), spec))
        };
        OpObserver::around(spec.kind(), OpName::Create, db, create, Self::built_bytes)
    }

    /// Open the `kind` object whose root is `root_page` — the `(kind,
    /// root)` pair a long-field descriptor holds (§2). One root fix;
    /// `Corrupt` unless the page is a `kind` root.
    pub fn open(db: &mut Db, kind: StorageKind, root_page: u32) -> Result<Lob> {
        let open = |db: &mut Db| Self::open_raw(db, kind, root_page);
        OpObserver::around(kind, OpName::Open, db, open, Self::built_bytes)
    }

    /// [`Self::open`] unobserved: no span and no health tick, for
    /// allocation-log replay.
    pub(crate) fn open_raw(db: &mut Db, kind: StorageKind, root_page: u32) -> Result<Lob> {
        let tree = PosTree::new(root_page);
        let hdr = tree.read_hdr(db)?;
        hdr.check_root(root_page, Some(kind))?;
        Ok(Lob::new(tree, ManagerSpec::from_params(kind, hdr.params)))
    }

    fn new(tree: PosTree, spec: ManagerSpec) -> Lob {
        Lob {
            tree,
            spec,
            insert_algo: EsmInsertAlgo::default(),
            whole_leaf_io: false,
        }
    }

    /// The scheme and parameters this object was created with.
    pub fn spec(&self) -> ManagerSpec {
        self.spec
    }

    fn policy(&self) -> Policy {
        let tree = self.tree;
        match self.spec {
            ManagerSpec::Esm { leaf_pages } => Policy::Esm(Esm {
                tree,
                leaf_pages,
                insert_algo: self.insert_algo,
            }),
            ManagerSpec::Eos {
                threshold_pages,
                max_seg_pages,
            } => Policy::Eos(Eos {
                tree,
                threshold_pages,
                max_seg_pages,
            }),
            ManagerSpec::Starburst {
                max_seg_pages,
                known_size,
            } => Policy::Starburst(Starburst {
                tree,
                max_seg_pages,
                known_size,
            }),
        }
    }

    /// Pages the segment behind `e` owns: ESM's fixed leaf, else what
    /// the header's over-allocation rule says.
    fn pages_of(&self, hdr: &RootHdr, e: &Entry) -> u32 {
        match self.spec {
            ManagerSpec::Esm { leaf_pages } => leaf_pages,
            _ => hdr.alloc_of(e),
        }
    }

    /// The object's bytes for a span, summed over its leaves (cost-free,
    /// so the operation's own I/O stays its own); `None` if the tree does
    /// not parse.
    fn object_bytes(&self, db: &Db) -> Option<u64> {
        let leaves = self.tree.collect_leaves(db).ok()?;
        Some(leaves.iter().map(|(_, e)| e.count).sum())
    }

    /// [`Self::object_bytes`] of a created or opened object.
    fn built_bytes(db: &Db, built: &Result<Lob>) -> Option<u64> {
        built.as_ref().ok()?.object_bytes(db)
    }

    /// Run `f` as this object's observed `op`, its span annotated with
    /// the object's bytes after it.
    fn observed<R>(
        &self,
        op: OpName,
        db: &mut Db,
        f: impl FnOnce(&mut Db) -> Result<R>,
    ) -> Result<R> {
        OpObserver::around(self.kind(), op, db, f, |db, _| self.object_bytes(db))
    }
}

impl LargeObject for Lob {
    fn kind(&self) -> StorageKind {
        self.spec.kind()
    }

    fn root_page(&self) -> u32 {
        self.tree.root_page
    }

    fn size(&self, db: &mut Db) -> u64 {
        let size = |db: &mut Db| self.tree.size(db);
        let bytes = |_: &Db, n: &Result<u64>| n.as_ref().ok().copied();
        let kind = self.kind();
        or_panic(OpObserver::around(kind, OpName::Size, db, size, bytes))
    }

    fn append(&mut self, db: &mut Db, bytes: &[u8]) -> Result<()> {
        self.observed(OpName::Append, db, |db| match self.policy() {
            Policy::Esm(p) => p.append(db, bytes),
            Policy::Eos(p) => p.append(db, bytes),
            Policy::Starburst(p) => p.append(db, bytes),
        })
    }

    fn read(&self, db: &mut Db, off: u64, out: &mut [u8]) -> Result<()> {
        let whole = self.whole_leaf_io;
        self.observed(OpName::Read, db, |db| {
            self.tree.read(db, off, out, |db, pos, piece| {
                esm::fetch(whole, db, pos, piece)
            })
        })
    }

    fn locate(&self, db: &mut Db, off: u64) -> Result<SegSpan> {
        self.observed(OpName::Locate, db, |db| self.tree.locate(db, off))
    }

    fn insert(&mut self, db: &mut Db, off: u64, bytes: &[u8]) -> Result<()> {
        self.observed(OpName::Insert, db, |db| match self.policy() {
            Policy::Esm(p) => p.insert(db, off, bytes),
            Policy::Eos(p) => p.insert(db, off, bytes),
            Policy::Starburst(p) => p.insert(db, off, bytes),
        })
    }

    fn delete(&mut self, db: &mut Db, off: u64, len: u64) -> Result<()> {
        self.observed(OpName::Delete, db, |db| match self.policy() {
            Policy::Esm(p) => p.delete(db, off, len),
            Policy::Eos(p) => p.delete(db, off, len),
            Policy::Starburst(p) => p.delete(db, off, len),
        })
    }

    fn replace(&mut self, db: &mut Db, off: u64, bytes: &[u8]) -> Result<()> {
        self.observed(OpName::Replace, db, |db| match self.policy() {
            Policy::Esm(p) => p.replace(db, off, bytes),
            Policy::Eos(p) => p.replace(db, off, bytes),
            Policy::Starburst(p) => p.replace(db, off, bytes),
        })
    }

    fn trim(&mut self, db: &mut Db) -> Result<()> {
        self.observed(OpName::Trim, db, |db| match self.policy() {
            // ESM leaves are fixed-size; nothing to trim.
            Policy::Esm(_) => Ok(()),
            Policy::Eos(p) => p.trim(db),
            Policy::Starburst(p) => p.trim(db),
        })
    }

    fn destroy(&mut self, db: &mut Db) -> Result<()> {
        let destroy = |db: &mut Db| self.tree.destroy(db, |h, e| self.pages_of(h, e));
        // The object is gone; no size annotation.
        OpObserver::around(self.kind(), OpName::Destroy, db, destroy, |_, _| None)
    }

    fn utilization(&self, db: &Db) -> Utilization {
        or_panic(self.tree.utilization(db, |h, e| self.pages_of(h, e)))
    }

    fn segments(&self, db: &Db) -> Vec<SegmentInfo> {
        or_panic(self.tree.segments(db, |h, e| self.pages_of(h, e)))
    }

    fn index_page_numbers(&self, db: &Db) -> Vec<u32> {
        or_panic(self.tree.index_page_numbers(db))
    }

    fn check_invariants(&self, db: &Db) -> Result<()> {
        match self.policy() {
            Policy::Esm(p) => p.check_invariants(db),
            Policy::Eos(p) => p.check_invariants(db),
            Policy::Starburst(p) => p.check_invariants(db),
        }
    }

    fn snapshot(&self, db: &Db) -> Vec<u8> {
        or_panic(self.tree.peek_content(db))
    }
}

/// Re-open an existing large object by its storage kind and root page —
/// the operation a long-field *descriptor* encodes (§2: the small object
/// holds a `(kind, root)` pair per long field). `Corrupt` when the root
/// is not a `kind` root.
pub fn open_object(db: &mut Db, kind: StorageKind, root_page: u32) -> Result<Box<dyn LargeObject>> {
    Ok(Box::new(Lob::open(db, kind, root_page)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LobError;

    #[test]
    fn create_all_kinds_and_use_through_dyn() {
        let mut db = Db::paper_default();
        for spec in [
            ManagerSpec::esm(4),
            ManagerSpec::starburst(),
            ManagerSpec::eos(16),
        ] {
            let mut obj = spec.create(&mut db).unwrap();
            obj.append(&mut db, b"dyn dispatch works").unwrap();
            let mut out = vec![0u8; 3];
            obj.read(&mut db, 4, &mut out).unwrap();
            assert_eq!(&out, b"dis");
            obj.check_invariants(&db).unwrap();
            obj.destroy(&mut db).unwrap();
        }
        assert_eq!(db.leaf_pages_allocated(), 0);
    }

    /// A root whose header claims 600 pairs, more than the 507 a root
    /// page holds, is `Corrupt` to every read and update of all three
    /// schemes, and to the consistency check.
    #[test]
    fn a_root_claiming_600_entries_is_corrupt() {
        let corrupt = |got: Result<()>| {
            assert!(
                matches!(&got, Err(LobError::Corrupt(m)) if m.contains("root of 600 entries")),
                "{got:?}"
            );
        };
        for spec in [
            ManagerSpec::esm(4),
            ManagerSpec::starburst(),
            ManagerSpec::eos(16),
        ] {
            let mut db = Db::paper_default();
            let mut obj = spec.create(&mut db).unwrap();
            obj.append(&mut db, &[5u8; 30_000]).unwrap();
            db.with_meta_page_mut(obj.root_page(), |p| {
                p[6..8].copy_from_slice(&600u16.to_le_bytes())
            });
            let mut out = [0u8; 10];
            corrupt(obj.read(&mut db, 100, &mut out));
            corrupt(obj.locate(&mut db, 100).map(drop));
            corrupt(obj.append(&mut db, b"more"));
            corrupt(obj.insert(&mut db, 10, b"in"));
            corrupt(obj.delete(&mut db, 10, 5));
            corrupt(obj.replace(&mut db, 10, b"re"));
            corrupt(obj.check_invariants(&db));
            corrupt(obj.destroy(&mut db));
        }
    }

    /// A root whose size field claims more bytes than its pairs count
    /// sends a read past the tree's counts: `Corrupt`, not a panic.
    #[test]
    fn a_size_beyond_the_counts_is_corrupt() {
        for spec in [
            ManagerSpec::esm(4),
            ManagerSpec::starburst(),
            ManagerSpec::eos(16),
        ] {
            let mut db = Db::paper_default();
            let mut obj = spec.create(&mut db).unwrap();
            obj.append(&mut db, &[5u8; 30_000]).unwrap();
            db.with_meta_page_mut(obj.root_page(), |p| {
                p[8..16].copy_from_slice(&40_000u64.to_le_bytes());
            });
            let mut out = [0u8; 10];
            let got = obj.read(&mut db, 35_000, &mut out);
            assert!(
                matches!(got, Err(LobError::Corrupt(_))),
                "{}: {got:?}",
                spec.label()
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(ManagerSpec::esm(16).label(), "ESM/16");
        assert_eq!(ManagerSpec::starburst().label(), "Starburst");
        assert_eq!(ManagerSpec::eos(64).label(), "EOS/64");
    }
}
