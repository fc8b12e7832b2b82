//! Declarative manager selection, so bench binaries and examples can
//! sweep configurations uniformly.

use crate::db::Db;
use crate::eos::{EosObject, EosParams};
use crate::error::Result;
use crate::esm::{EsmObject, EsmParams};
use crate::object::{LargeObject, StorageKind};
use crate::observe::{observe_create, observe_open};
use crate::starburst::{StarburstObject, StarburstParams};

/// Which manager to instantiate, with its paper-relevant parameters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ManagerSpec {
    /// ESM with a fixed leaf size in pages (1, 4, 16, 64 in the paper).
    Esm {
        /// See [`EsmParams::leaf_pages`].
        leaf_pages: u32,
    },
    /// Starburst with a maximum segment size in pages.
    Starburst {
        /// See [`StarburstParams::max_seg_pages`].
        max_seg_pages: u32,
        /// See [`StarburstParams::known_size`].
        known_size: bool,
    },
    /// EOS with a segment-size threshold and maximum segment size.
    Eos {
        /// See [`EosParams::threshold_pages`].
        threshold_pages: u32,
        /// See [`EosParams::max_seg_pages`].
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

    /// Instantiate a fresh object of this kind in `db`. The returned
    /// handle is observed: every operation records an
    /// `op.<scheme>.<operation>` span (see the `lobstore-obs` crate).
    pub fn create(&self, db: &mut Db) -> Result<Box<dyn LargeObject>> {
        let spec = *self;
        observe_create(self.kind(), db, move |db| {
            Ok(match spec {
                ManagerSpec::Esm { leaf_pages } => {
                    Box::new(EsmObject::create(db, EsmParams { leaf_pages })?)
                        as Box<dyn LargeObject>
                }
                ManagerSpec::Starburst {
                    max_seg_pages,
                    known_size,
                } => Box::new(StarburstObject::create(
                    db,
                    StarburstParams {
                        max_seg_pages,
                        known_size,
                    },
                )?),
                ManagerSpec::Eos {
                    threshold_pages,
                    max_seg_pages,
                } => Box::new(EosObject::create(
                    db,
                    EosParams {
                        threshold_pages,
                        max_seg_pages,
                    },
                )?),
            })
        })
    }

    /// Re-open an existing object of this kind by its root page. The
    /// returned handle is observed, like [`Self::create`]'s.
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
}

/// Re-open an existing large object by its storage kind and root page —
/// the operation a long-field *descriptor* encodes (§2: the small object
/// holds a `(kind, root)` pair per long field).
pub fn open_object(db: &mut Db, kind: StorageKind, root_page: u32) -> Result<Box<dyn LargeObject>> {
    observe_open(kind, db, move |db| open_raw(db, kind, root_page))
}

/// [`open_object`] unobserved: no span and no health tick, for
/// allocation-log replay.
pub(crate) fn open_raw(
    db: &mut Db,
    kind: StorageKind,
    root_page: u32,
) -> Result<Box<dyn LargeObject>> {
    Ok(match kind {
        StorageKind::Esm => Box::new(EsmObject::open(db, root_page)?) as Box<dyn LargeObject>,
        StorageKind::Eos => Box::new(EosObject::open(db, root_page)?),
        StorageKind::Starburst => Box::new(StarburstObject::open(db, root_page)?),
    })
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
