//! A named directory of large objects.
//!
//! The paper's managers hand back a root page number; any real deployment
//! needs a way to find those roots again. [`Catalog`] is a minimal,
//! persistent name → (storage kind, root page) map stored in a chain of
//! META pages, so databases survive restarts and images (see
//! [`crate::Db::crash_and_reboot`] and the image format in `lobstore-cli`).
//! Its pages are plain roots ([`crate::Db::alloc_root`]); with the
//! allocation log on, a catalog change is durable at the next commit,
//! like every in-place write of a committed page.
//!
//! Page layout (little-endian):
//!
//! ```text
//! [0..4)  magic "CATL"
//! [4..6)  n_entries u16
//! [6..10) next page u32 (0 = end of chain)
//! [10..)  entries: [name_len u8][name bytes][kind u8][root u32]
//! ```

use lobstore_simdisk::{bytes as le, cast, AreaId, PageId, PAGE_SIZE};

use crate::db::Db;
use crate::error::{LobError, Result};
use crate::object::StorageKind;

const CAT_MAGIC: u32 = 0x4341_544C; // "CATL"
const HDR: usize = 10;
/// Longest allowed object name.
pub const MAX_NAME: usize = 128;

/// One catalog entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogEntry {
    /// The name the object was registered under (1..=[`MAX_NAME`] bytes).
    pub name: String,
    /// Which manager owns the object.
    pub kind: StorageKind,
    /// META page of the object's root.
    pub root_page: u32,
}

/// A persistent name directory for large objects.
pub struct Catalog {
    root: u32,
}

impl Catalog {
    /// Create an empty catalog; its first page is flushed immediately so
    /// the catalog itself survives a crash.
    pub fn create(db: &mut Db) -> Result<Self> {
        let root = db.alloc_root(None);
        db.with_new_meta_page(root, init_page);
        db.pool.flush_page(PageId::new(AreaId::META, root));
        Ok(Catalog { root })
    }

    /// Open an existing catalog by its first page.
    pub fn open(db: &mut Db, root: u32) -> Result<Self> {
        let magic = db.with_meta_page(root, |p| le::le_u32(p));
        if magic != CAT_MAGIC {
            return Err(LobError::Corrupt(format!(
                "page {root} is not a catalog page"
            )));
        }
        Ok(Catalog { root })
    }

    /// The first page of the catalog chain.
    pub fn root_page(&self) -> u32 {
        self.root
    }

    /// Register `name`. Fails if the name exists or is too long.
    pub fn put(
        &mut self,
        db: &mut Db,
        name: &str,
        kind: StorageKind,
        root_page: u32,
    ) -> Result<()> {
        let name_len = match u8::try_from(name.len()) {
            Ok(n) if (1..=MAX_NAME).contains(&name.len()) => n,
            _ => {
                return Err(LobError::InvalidArgument(format!(
                    "catalog name must be 1..={MAX_NAME} bytes"
                )))
            }
        };
        if self.get(db, name)?.is_some() {
            return Err(LobError::InvalidArgument(format!(
                "name '{name}' already exists"
            )));
        }
        let needed = 1 + name.len() + 1 + 4;
        let mut page = self.root;
        loop {
            let (n, next, used) = db.with_meta_page(page, |p| {
                let (n, next) = header(p);
                (n, next, used_bytes(p, n))
            });
            if PAGE_SIZE - used >= needed {
                db.with_meta_page_mut(page, |p| {
                    let mut at = used;
                    p[at] = name_len;
                    at += 1;
                    p[at..at + name.len()].copy_from_slice(name.as_bytes());
                    at += name.len();
                    p[at] = kind.as_u8();
                    at += 1;
                    p[at..at + 4].copy_from_slice(&root_page.to_le_bytes());
                    p[4..6].copy_from_slice(&(n + 1).to_le_bytes());
                });
                self.flush(db, page);
                return Ok(());
            }
            if next == 0 {
                // Chain a fresh page and retry there.
                let new = db.alloc_root(None);
                db.with_new_meta_page(new, init_page);
                db.with_meta_page_mut(page, |p| {
                    p[6..10].copy_from_slice(&new.to_le_bytes());
                });
                self.flush(db, page);
                page = new;
            } else {
                page = next;
            }
        }
    }

    /// Look up a name.
    pub fn get(&self, db: &mut Db, name: &str) -> Result<Option<CatalogEntry>> {
        Ok(self.list(db)?.into_iter().find(|e| e.name == name))
    }

    /// Remove a name, returning its entry. The object itself is *not*
    /// destroyed — that is the caller's decision.
    pub fn remove(&mut self, db: &mut Db, name: &str) -> Result<Option<CatalogEntry>> {
        let mut removed = None;
        let mut page = self.root;
        while page != 0 {
            let (entries, next) = db.with_meta_page(page, |p| {
                let (n, next) = header(p);
                (parse_entries(p, n), next)
            });
            let entries = entries?;
            if let Some(pos) = entries.iter().position(|e| e.name == name) {
                let mut keep = entries;
                removed = Some(keep.remove(pos));
                // Lengths before the page is touched: a name `parse_entries`
                // had to repair (invalid UTF-8 on a damaged page) may no
                // longer fit the length byte it was read from.
                let lens = keep
                    .iter()
                    .map(|e| u8::try_from(e.name.len()))
                    .collect::<std::result::Result<Vec<u8>, _>>()
                    .map_err(|_| {
                        LobError::Corrupt("catalog name outgrew its length byte".into())
                    })?;
                db.with_meta_page_mut(page, |p| {
                    let next = header(p).1;
                    init_page(p);
                    p[6..10].copy_from_slice(&next.to_le_bytes());
                    let mut at = HDR;
                    for (e, &len) in keep.iter().zip(&lens) {
                        p[at] = len;
                        at += 1;
                        p[at..at + e.name.len()].copy_from_slice(e.name.as_bytes());
                        at += e.name.len();
                        p[at] = e.kind.as_u8();
                        at += 1;
                        p[at..at + 4].copy_from_slice(&e.root_page.to_le_bytes());
                        at += 4;
                    }
                    p[4..6].copy_from_slice(&cast::usize_to_u16(keep.len()).to_le_bytes());
                });
                self.flush(db, page);
                break;
            }
            page = next;
        }
        Ok(removed)
    }

    /// Every entry, in chain order.
    pub fn list(&self, db: &mut Db) -> Result<Vec<CatalogEntry>> {
        let mut out = Vec::new();
        let mut page = self.root;
        while page != 0 {
            let (entries, next) = db.with_meta_page(page, |p| {
                if le::le_u32(p) != CAT_MAGIC {
                    return (None, 0);
                }
                let (n, next) = header(p);
                (Some(parse_entries(p, n)), next)
            });
            let entries =
                entries.ok_or_else(|| LobError::Corrupt("broken catalog chain".into()))??;
            out.extend(entries);
            page = next;
        }
        Ok(out)
    }

    /// The catalog's own page chain (for consistency checking).
    pub fn pages(&self, db: &mut Db) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        let mut page = self.root;
        while page != 0 {
            out.push(page);
            let next =
                db.with_meta_page(page, |p| (le::le_u32(p) == CAT_MAGIC).then(|| header(p).1));
            page = next.ok_or_else(|| LobError::Corrupt("broken catalog chain".into()))?;
        }
        Ok(out)
    }

    /// Number of registered names.
    pub fn len(&self, db: &mut Db) -> Result<usize> {
        Ok(self.list(db)?.len())
    }

    /// Whether the catalog holds no names.
    pub fn is_empty(&self, db: &mut Db) -> Result<bool> {
        Ok(self.len(db)? == 0)
    }

    fn flush(&self, db: &mut Db, page: u32) {
        db.pool.flush_page(PageId::new(AreaId::META, page));
    }
}

fn init_page(p: &mut [u8]) {
    p.fill(0);
    p[0..4].copy_from_slice(&CAT_MAGIC.to_le_bytes());
}

fn header(p: &[u8]) -> (u16, u32) {
    (le::le_u16(&p[4..]), le::le_u32(&p[6..]))
}

fn parse_entries(p: &[u8], n: u16) -> Result<Vec<CatalogEntry>> {
    let mut out = Vec::with_capacity(usize::from(n));
    let mut at = HDR;
    for _ in 0..n {
        let len = usize::from(p[at]);
        at += 1;
        let name = String::from_utf8_lossy(&p[at..at + len]).into_owned();
        at += len;
        let kind = StorageKind::from_u8(p[at]).ok_or_else(|| {
            LobError::Corrupt(format!("bad storage-kind byte {} in catalog", p[at]))
        })?;
        at += 1;
        let root = le::le_u32(&p[at..]);
        at += 4;
        out.push(CatalogEntry {
            name,
            kind,
            root_page: root,
        });
    }
    Ok(out)
}

fn used_bytes(p: &[u8], n: u16) -> usize {
    let mut at = HDR;
    for _ in 0..n {
        let len = usize::from(p[at]);
        at += 1 + len + 1 + 4;
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ManagerSpec;

    #[test]
    fn put_get_remove_roundtrip() {
        let mut db = Db::paper_default();
        let mut cat = Catalog::create(&mut db).unwrap();
        cat.put(&mut db, "alpha", StorageKind::Eos, 10).unwrap();
        cat.put(&mut db, "beta", StorageKind::Esm, 20).unwrap();
        assert_eq!(cat.len(&mut db).unwrap(), 2);
        let e = cat.get(&mut db, "alpha").unwrap().unwrap();
        assert_eq!((e.kind, e.root_page), (StorageKind::Eos, 10));
        assert!(cat.get(&mut db, "gamma").unwrap().is_none());
        let gone = cat.remove(&mut db, "alpha").unwrap().unwrap();
        assert_eq!(gone.name, "alpha");
        assert!(cat.get(&mut db, "alpha").unwrap().is_none());
        assert_eq!(cat.len(&mut db).unwrap(), 1);
        assert!(cat.remove(&mut db, "alpha").unwrap().is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut db = Db::paper_default();
        let mut cat = Catalog::create(&mut db).unwrap();
        cat.put(&mut db, "x", StorageKind::Esm, 1).unwrap();
        let long = "n".repeat(MAX_NAME + 1);
        for name in ["x", "", long.as_str()] {
            let got = cat.put(&mut db, name, StorageKind::Eos, 2);
            assert!(
                matches!(got, Err(LobError::InvalidArgument(_))),
                "{name:?}: {got:?}"
            );
        }
        assert_eq!(cat.list(&mut db).unwrap().len(), 1, "nothing was added");
    }

    #[test]
    fn chains_past_one_page() {
        let mut db = Db::paper_default();
        let mut cat = Catalog::create(&mut db).unwrap();
        // ~40 bytes per entry → several hundred entries need chaining.
        for i in 0..400 {
            cat.put(
                &mut db,
                &format!("object-number-{i:04}"),
                StorageKind::Eos,
                i,
            )
            .unwrap();
        }
        assert_eq!(cat.len(&mut db).unwrap(), 400);
        let e = cat.get(&mut db, "object-number-0399").unwrap().unwrap();
        assert_eq!(e.root_page, 399);
        // Remove from a middle page; the rest survives.
        cat.remove(&mut db, "object-number-0200").unwrap().unwrap();
        assert_eq!(cat.len(&mut db).unwrap(), 399);
        assert!(cat.get(&mut db, "object-number-0200").unwrap().is_none());
        assert!(cat.get(&mut db, "object-number-0201").unwrap().is_some());
    }

    #[test]
    fn survives_crash_after_flush() {
        let mut db = Db::paper_default();
        let mut cat = Catalog::create(&mut db).unwrap();
        let mut obj = ManagerSpec::eos(4).create(&mut db).unwrap();
        obj.append(&mut db, b"persistent bytes").unwrap();
        cat.put(&mut db, "thing", obj.kind(), obj.root_page())
            .unwrap();
        let cat_root = cat.root_page();
        db.checkpoint();
        db.crash_and_reboot();

        let cat = Catalog::open(&mut db, cat_root).unwrap();
        let e = cat.get(&mut db, "thing").unwrap().unwrap();
        let obj = crate::spec::open_object(&mut db, e.kind, e.root_page).unwrap();
        assert_eq!(obj.snapshot(&db), b"persistent bytes");
    }

    #[test]
    fn open_rejects_non_catalog_pages() {
        let mut db = Db::paper_default();
        let p = db.alloc_meta_page();
        db.with_new_meta_page(p, |page| page[0] = 1);
        assert!(Catalog::open(&mut db, p).is_err());
    }
}
