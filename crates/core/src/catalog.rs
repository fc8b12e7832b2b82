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
//!
//! The decoders are total: a page without the magic, an entry that runs
//! past the page or names no scheme, and a chain that returns to a page
//! it has visited are [`LobError::Corrupt`].

use std::collections::BTreeSet;

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
        let mut seen = Seen::default();
        let mut page = seen.visit(self.root)?;
        loop {
            let (n, next, used) = db.with_meta_page(page, |p| {
                let (n, next) = header(p)?;
                Ok::<_, LobError>((n, next, used_bytes(p, n)?))
            })?;
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
                page = seen.visit(new)?;
            } else {
                page = seen.visit(next)?;
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
        let mut seen = Seen::default();
        let mut page = self.root;
        while page != 0 {
            seen.visit(page)?;
            let (entries, next) = db.with_meta_page(page, entries_and_next)?;
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
        let mut seen = Seen::default();
        let mut page = self.root;
        while page != 0 {
            seen.visit(page)?;
            let (entries, next) = db.with_meta_page(page, entries_and_next)?;
            out.extend(entries);
            page = next;
        }
        Ok(out)
    }

    /// The catalog's own page chain (for consistency checking).
    pub fn pages(&self, db: &mut Db) -> Result<Vec<u32>> {
        let mut out = Vec::new();
        let mut seen = Seen::default();
        let mut page = self.root;
        while page != 0 {
            out.push(seen.visit(page)?);
            page = db.with_meta_page(page, header)?.1;
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

/// The pages one walk of the chain has visited: following `next` back to
/// one of them is `Corrupt`, so a damaged chain ends.
#[derive(Default)]
struct Seen(BTreeSet<u32>);

impl Seen {
    /// Record a visit to `page`: `Corrupt` if this walk has been there.
    fn visit(&mut self, page: u32) -> Result<u32> {
        if !self.0.insert(page) {
            return Err(LobError::Corrupt(format!(
                "catalog chain returns to page {page}"
            )));
        }
        Ok(page)
    }
}

/// A page's entry count and next page: `Corrupt` unless it carries the
/// catalog magic.
fn header(p: &[u8]) -> Result<(u16, u32)> {
    match (p.get(..4), p.get(4..6), p.get(6..HDR)) {
        (Some(magic), Some(n), Some(next)) if le::le_u32(magic) == CAT_MAGIC => {
            Ok((le::le_u16(n), le::le_u32(next)))
        }
        _ => Err(LobError::Corrupt("broken catalog chain".into())),
    }
}

/// A page's entries and the next page of the chain.
fn entries_and_next(p: &[u8]) -> Result<(Vec<CatalogEntry>, u32)> {
    let (n, next) = header(p)?;
    Ok((parse_entries(p, n)?, next))
}

/// Walk a page's `n` entries, handing each to `visit` as `(name bytes,
/// kind byte, root page)`; returns the offset past the last one.
/// `Corrupt` if an entry runs past the page.
fn walk_entries(
    p: &[u8],
    n: u16,
    mut visit: impl FnMut(&[u8], u8, u32) -> Result<()>,
) -> Result<usize> {
    let mut at = HDR;
    for i in 0..n {
        let entry = p.get(at).and_then(|&len| {
            let name_end = at + 1 + usize::from(len);
            let (&kind, root) = p.get(name_end..name_end + 5)?.split_first()?;
            Some((
                p.get(at + 1..name_end)?,
                kind,
                le::le_u32(root),
                name_end + 5,
            ))
        });
        let Some((name, kind, root, end)) = entry else {
            return Err(LobError::Corrupt(format!(
                "catalog entry {i} of {n} runs past its page"
            )));
        };
        visit(name, kind, root)?;
        at = end;
    }
    Ok(at)
}

/// A page's `n` entries. Each takes at least six bytes of the page, so
/// the list grows no larger than the page can hold.
fn parse_entries(p: &[u8], n: u16) -> Result<Vec<CatalogEntry>> {
    let mut out = Vec::new();
    walk_entries(p, n, |name, kind, root_page| {
        let kind = StorageKind::from_u8(kind)
            .ok_or_else(|| LobError::Corrupt(format!("bad storage-kind byte {kind} in catalog")))?;
        out.push(CatalogEntry {
            name: String::from_utf8_lossy(name).into_owned(),
            kind,
            root_page,
        });
        Ok(())
    })?;
    Ok(out)
}

/// Bytes a page's header and `n` entries take.
fn used_bytes(p: &[u8], n: u16) -> Result<usize> {
    walk_entries(p, n, |_, _, _| Ok(()))
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

    /// Every call that walks the chain on a damaged `cat`.
    fn walks(cat: &mut Catalog, db: &mut Db) -> Vec<Result<()>> {
        vec![
            cat.pages(db).map(drop),
            cat.list(db).map(drop),
            cat.get(db, "a").map(drop),
            cat.put(db, "new", StorageKind::Esm, 9),
            cat.remove(db, "zz").map(drop),
        ]
    }

    #[test]
    fn a_chain_that_loops_is_corrupt() {
        let is_corrupt = |got: &Result<()>| matches!(got, Err(LobError::Corrupt(m)) if m.contains("returns to page"));
        // One page whose next is itself.
        let mut db = Db::paper_default();
        let mut cat = Catalog::create(&mut db).unwrap();
        cat.put(&mut db, "a", StorageKind::Eos, 3).unwrap();
        let root = cat.root_page();
        db.with_meta_page_mut(root, |p| p[6..10].copy_from_slice(&root.to_le_bytes()));
        for got in walks(&mut cat, &mut db) {
            assert!(is_corrupt(&got), "{got:?}");
        }
        // Two pages that name each other.
        let mut db = Db::paper_default();
        let mut cat = Catalog::create(&mut db).unwrap();
        let mut i = 0;
        while cat.pages(&mut db).unwrap().len() < 2 {
            cat.put(&mut db, &format!("{i:0100}"), StorageKind::Esm, i)
                .unwrap();
            i += 1;
        }
        let root = cat.root_page();
        let second = cat.pages(&mut db).unwrap()[1];
        db.with_meta_page_mut(second, |p| p[6..10].copy_from_slice(&root.to_le_bytes()));
        for got in walks(&mut cat, &mut db) {
            assert!(is_corrupt(&got), "{got:?}");
        }
    }

    /// `entries` and `next` as a catalog page.
    fn encode(entries: &[CatalogEntry], next: u32) -> Vec<u8> {
        let mut p = vec![0u8; PAGE_SIZE];
        init_page(&mut p);
        p[4..6].copy_from_slice(&(entries.len() as u16).to_le_bytes());
        p[6..10].copy_from_slice(&next.to_le_bytes());
        let mut at = HDR;
        for e in entries {
            p[at] = e.name.len() as u8;
            p[at + 1..at + 1 + e.name.len()].copy_from_slice(e.name.as_bytes());
            at += 1 + e.name.len();
            p[at] = e.kind.as_u8();
            p[at + 1..at + 5].copy_from_slice(&e.root_page.to_le_bytes());
            at += 5;
        }
        p
    }

    /// Decode `page` as the chain walks do: the header is `Corrupt`
    /// unless the magic is there; the entries and their byte count agree
    /// with each other and with the header, and re-encode to the page's
    /// bytes wherever no name needed repair.
    fn check_page(page: &[u8]) {
        let Ok((n, next)) = header(page) else {
            assert_ne!(le::le_u32(page), CAT_MAGIC);
            return;
        };
        let (entries, used) = (parse_entries(page, n), used_bytes(page, n));
        let (Ok(entries), Ok(used)) = (entries, used) else {
            return;
        };
        assert_eq!(entries.len(), usize::from(n));
        assert!(used <= page.len());
        if entries.iter().all(|e| !e.name.contains('\u{FFFD}')) {
            let stored: usize = entries.iter().map(|e| 6 + e.name.len()).sum();
            assert_eq!(HDR + stored, used);
            assert_eq!(encode(&entries, next)[..used], page[..used]);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: if cfg!(debug_assertions) { 64 } else { 256 },
            ..proptest::prelude::ProptestConfig::default()
        })]
        /// The page decoders are total over arbitrary pages, pages with
        /// the magic and arbitrary bytes behind it, valid pages and valid
        /// pages with bits flipped: a consistent `Ok` or `Corrupt`, never
        /// a panic.
        #[test]
        fn catalog_pages_decode_totally(
            (noise, names, flips) in (
                proptest::collection::vec(proptest::prelude::any::<u8>(), PAGE_SIZE..PAGE_SIZE + 1),
                proptest::collection::vec((1usize..MAX_NAME, 0u8..3, proptest::prelude::any::<u32>()), 0..40),
                proptest::collection::vec(proptest::prelude::any::<u32>(), 1..8),
            )
        ) {
            check_page(&noise);
            let mut page = noise.clone();
            page[..4].copy_from_slice(&CAT_MAGIC.to_le_bytes());
            check_page(&page);
            let entries: Vec<CatalogEntry> = names
                .iter()
                .map(|&(len, kind, root_page)| CatalogEntry {
                    name: "n".repeat(len),
                    kind: StorageKind::from_u8(kind + 1).unwrap(),
                    root_page,
                })
                .take_while({
                    let mut at = HDR;
                    move |e| {
                        at += 6 + e.name.len();
                        at <= PAGE_SIZE
                    }
                })
                .collect();
            let mut page = encode(&entries, 7);
            assert_eq!(parse_entries(&page, entries.len() as u16).unwrap(), entries);
            check_page(&page);
            for bit in &flips {
                let bit = *bit as usize % (PAGE_SIZE * 8);
                page[bit / 8] ^= 1 << (bit % 8);
            }
            check_page(&page);
        }
    }

    #[test]
    fn open_rejects_non_catalog_pages() {
        let mut db = Db::paper_default();
        let p = db.alloc_meta_page();
        db.with_new_meta_page(p, |page| page[0] = 1);
        assert!(Catalog::open(&mut db, p).is_err());
    }
}
