//! The record store: heap pages of small records whose long fields live
//! in the large-object managers.

use lobstore_core::{open_object, Db, LargeObject, ManagerSpec};
use lobstore_simdisk::{bytes as le, cast, AreaId, PageId, PAGE_SIZE};

use crate::error::{RecordError, Result};
use crate::page;
use crate::schema::{decode, encode, LongHandle, Value};

const STORE_MAGIC: u32 = 0x5245_4353; // "RECS"
const HDR: usize = 8;
const MAX_HEAP_PAGES: usize = (PAGE_SIZE - HDR) / 4;

/// Stable address of a record: heap page + slot.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// The heap page (a META-area page number) holding the record.
    pub page: u32,
    /// Slot within that heap page.
    pub slot: u16,
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}:{}", self.page, self.slot)
    }
}

/// Input for one field of a new record.
pub enum FieldInput<'a> {
    /// Store inline in the record.
    Short(&'a [u8]),
    /// Create a fresh large object of the given shape and store its
    /// descriptor.
    Long {
        /// Manager and parameters of the new object.
        spec: ManagerSpec,
        /// Its initial bytes.
        content: &'a [u8],
    },
    /// Adopt an already existing large object (the record takes ownership:
    /// deleting the record destroys it).
    Adopt(LongHandle),
}

/// A collection of small records with externally stored long fields —
/// the "person (name, picture, voice)" shape of §2.
pub struct RecordStore {
    root: u32,
}

impl RecordStore {
    /// Create an empty store; its state lives in one META root page.
    pub fn create(db: &mut Db) -> Result<Self> {
        let root = db.alloc_root(None);
        db.with_new_meta_page(root, |p| {
            p[0..4].copy_from_slice(&STORE_MAGIC.to_le_bytes());
            p[4..6].copy_from_slice(&0u16.to_le_bytes());
        });
        db.pool().flush_page(PageId::new(AreaId::META, root));
        Ok(RecordStore { root })
    }

    /// Re-open a store by its root page.
    pub fn open(db: &mut Db, root: u32) -> Result<Self> {
        let magic = db.with_meta_page(root, |p| le::le_u32(p));
        if magic != STORE_MAGIC {
            return Err(RecordError::Corrupt(format!(
                "page {root} is not a record-store root"
            )));
        }
        Ok(RecordStore { root })
    }

    /// The META page anchoring this store.
    pub fn root_page(&self) -> u32 {
        self.root
    }

    /// The heap pages the root lists: `Corrupt` when it counts more than
    /// it can hold.
    fn heap_pages(&self, db: &mut Db) -> Result<Vec<u32>> {
        let root = self.root;
        db.with_meta_page(root, |p| {
            let n = p.get(4..6).map_or(0, |n| usize::from(le::le_u16(n)));
            let list = p.get(HDR..HDR + n * 4).filter(|_| n <= MAX_HEAP_PAGES);
            let Some(list) = list else {
                return Err(RecordError::Corrupt(format!(
                    "record-store root {root} lists {n} heap pages"
                )));
            };
            Ok(list.chunks_exact(4).map(le::le_u32).collect())
        })
    }

    fn add_heap_page(&self, db: &mut Db) -> Result<u32> {
        let pages = self.heap_pages(db)?;
        if pages.len() >= MAX_HEAP_PAGES {
            return Err(RecordError::Corrupt("record store full".into()));
        }
        let new = db.alloc_root(None);
        db.with_new_meta_page(new, page::init);
        let idx = pages.len();
        db.with_meta_page_mut(self.root, |p| {
            p[4..6].copy_from_slice(&cast::usize_to_u16(idx + 1).to_le_bytes());
            p[HDR + idx * 4..HDR + idx * 4 + 4].copy_from_slice(&new.to_le_bytes());
        });
        Ok(new)
    }

    /// Insert a record, creating its long fields. Long fields created
    /// before a later failure are cleaned up, so errors do not leak
    /// storage.
    pub fn insert(&mut self, db: &mut Db, fields: &[FieldInput<'_>]) -> Result<RecordId> {
        let mut values = Vec::with_capacity(fields.len());
        let mut created: Vec<LongHandle> = Vec::new();
        let build = |db: &mut Db, values: &mut Vec<Value>, created: &mut Vec<LongHandle>| {
            for f in fields {
                match f {
                    FieldInput::Short(b) => values.push(Value::Short(b.to_vec())),
                    FieldInput::Long { spec, content } => {
                        let mut obj = spec.create(db)?;
                        if !content.is_empty() {
                            obj.append(db, content)?;
                            obj.trim(db)?;
                        }
                        let h = LongHandle {
                            kind: obj.kind(),
                            root_page: obj.root_page(),
                        };
                        created.push(h);
                        values.push(Value::Long(h));
                    }
                    FieldInput::Adopt(h) => values.push(Value::Long(*h)),
                }
            }
            Ok(())
        };
        let placed: Result<RecordId> = build(db, &mut values, &mut created)
            .and_then(|()| encode(&values))
            .and_then(|bytes| self.place(db, &bytes));
        match placed {
            Ok(id) => Ok(id),
            Err(e) => {
                // Roll back the long fields we created.
                for h in created {
                    let mut obj = open_object(db, h.kind, h.root_page)?;
                    obj.destroy(db)?;
                }
                Err(e)
            }
        }
    }

    /// Put encoded record bytes on some heap page with room.
    fn place(&mut self, db: &mut Db, bytes: &[u8]) -> Result<RecordId> {
        if bytes.len() > PAGE_SIZE - 32 {
            return Err(RecordError::RecordTooLarge(bytes.len()));
        }
        for hp in self.heap_pages(db)? {
            let slot = self.with_heap_page(db, hp, |p| page::insert(p, bytes))?;
            if let Some(slot) = slot {
                return Ok(RecordId { page: hp, slot });
            }
        }
        let hp = self.add_heap_page(db)?;
        let slot = self
            .with_heap_page(db, hp, |p| page::insert(p, bytes))?
            .ok_or(RecordError::RecordTooLarge(bytes.len()))?;
        Ok(RecordId { page: hp, slot })
    }

    /// Fix a heap page for update, run `f`, flush it (record operations
    /// persist at operation end, like leaf flushes in §3.3).
    fn with_heap_page<R>(
        &self,
        db: &mut Db,
        hp: u32,
        f: impl FnOnce(&mut [u8]) -> Result<R>,
    ) -> Result<R> {
        let out = db.with_meta_page_mut(hp, |p| {
            if !page::is_heap(p) {
                return Err(RecordError::Corrupt(format!(
                    "page {hp} is not a heap page"
                )));
            }
            f(p)
        })?;
        db.pool().flush_page(PageId::new(AreaId::META, hp));
        Ok(out)
    }

    /// Fetch a record's fields (descriptors for long fields; use
    /// [`Self::read_long`] to reach their bytes).
    pub fn get(&self, db: &mut Db, id: RecordId) -> Result<Vec<Value>> {
        let bytes = db.with_meta_page(id.page, |p| {
            if !page::is_heap(p) {
                return Err(RecordError::NoSuchRecord);
            }
            page::get(p, id.slot)?
                .map(<[u8]>::to_vec)
                .ok_or(RecordError::NoSuchRecord)
        })?;
        decode(&bytes)
    }

    /// Open the large object behind a long-field descriptor.
    pub fn read_long(&self, db: &mut Db, handle: LongHandle) -> Result<Box<dyn LargeObject>> {
        Ok(open_object(db, handle.kind, handle.root_page)?)
    }

    /// Replace short field `idx` of an existing record.
    pub fn update_short(
        &mut self,
        db: &mut Db,
        id: RecordId,
        idx: usize,
        bytes: &[u8],
    ) -> Result<()> {
        let mut values = self.get(db, id)?;
        match values.get_mut(idx) {
            Some(Value::Short(b)) => *b = bytes.to_vec(),
            Some(Value::Long(_)) | None => return Err(RecordError::WrongFieldType),
        }
        let encoded = encode(&values)?;
        let ok = self.with_heap_page(db, id.page, |p| page::update(p, id.slot, &encoded))?;
        if !ok {
            return Err(RecordError::RecordTooLarge(encoded.len()));
        }
        Ok(())
    }

    /// Delete a record and destroy the long fields it owns.
    pub fn delete(&mut self, db: &mut Db, id: RecordId) -> Result<()> {
        let values = self.get(db, id)?;
        for v in &values {
            if let Value::Long(h) = v {
                let mut obj = open_object(db, h.kind, h.root_page)?;
                obj.destroy(db)?;
            }
        }
        let existed = self.with_heap_page(db, id.page, |p| page::delete(p, id.slot))?;
        debug_assert!(existed, "get() above succeeded");
        Ok(())
    }

    /// Every live record id, in heap order.
    pub fn scan(&self, db: &mut Db) -> Result<Vec<RecordId>> {
        let mut out = Vec::new();
        for hp in self.heap_pages(db)? {
            let slots = db.with_meta_page(hp, page::live_slots)?;
            out.extend(slots.into_iter().map(|slot| RecordId { page: hp, slot }));
        }
        Ok(out)
    }

    /// Number of live records.
    pub fn len(&self, db: &mut Db) -> Result<usize> {
        let mut n = 0;
        for hp in self.heap_pages(db)? {
            n += db.with_meta_page(hp, page::live_records)?;
        }
        Ok(n)
    }

    /// Whether the store holds no live records.
    pub fn is_empty(&self, db: &mut Db) -> Result<bool> {
        Ok(self.len(db)? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lobstore_core::{DbConfig, LobError, StorageKind};

    fn db() -> Db {
        Db::paper_default()
    }

    /// With the allocation log on, inserts committed as transactions
    /// survive a crash: the store's root and heap pages (plain roots) and
    /// its long fields (object roots) stay allocated, and replay leaves
    /// every byte in place.
    #[test]
    fn committed_records_survive_a_logged_crash() {
        let mut db = Db::new(DbConfig {
            alloc_log: true,
            ..DbConfig::default()
        });
        let mut store = RecordStore::create(&mut db).unwrap();
        let blob = vec![5u8; 20_000];
        let mut ids = Vec::new();
        for i in 0..30u8 {
            let fields = [
                FieldInput::Short(&[i; 300]),
                FieldInput::Long {
                    spec: ManagerSpec::eos(4),
                    content: &blob,
                },
            ];
            let insert = |db: &mut Db| {
                store
                    .insert(db, &fields)
                    .map_err(|e| LobError::Corrupt(e.to_string()))
            };
            ids.push(db.txn(insert).unwrap());
        }
        db.crash_and_reboot();

        let store = RecordStore::open(&mut db, store.root_page()).unwrap();
        let mut longs = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let fields = store.get(&mut db, id).unwrap();
            assert_eq!(fields[0].as_short().unwrap(), [i as u8; 300]);
            let long = store
                .read_long(&mut db, fields[1].as_long().unwrap())
                .unwrap();
            assert_eq!(long.snapshot(&db), blob);
            longs.push(long);
        }
        let mut pages = store.heap_pages(&mut db).unwrap();
        assert!(pages.len() > 1, "the records span heap pages");
        pages.push(store.root_page());
        let objects: Vec<(&str, &dyn LargeObject)> =
            longs.iter().map(|o| ("long", o.as_ref())).collect();
        assert_eq!(db.verify(&objects, &pages), []);
    }

    #[test]
    fn a_slot_past_the_page_end_is_corrupt() {
        let mut db = db();
        let mut store = RecordStore::create(&mut db).unwrap();
        let id = store.insert(&mut db, &[FieldInput::Short(b"x")]).unwrap();
        // Slot `id.slot` now claims 100 bytes from offset 4090.
        let at = 16 + 4 * usize::from(id.slot);
        db.with_meta_page_mut(id.page, |p| {
            p[at..at + 2].copy_from_slice(&4090u16.to_le_bytes());
            p[at + 2..at + 4].copy_from_slice(&100u16.to_le_bytes());
        });
        let got = store.get(&mut db, id);
        assert!(matches!(got, Err(RecordError::Corrupt(_))), "{got:?}");
    }

    #[test]
    fn create_open_roundtrip() {
        let mut db = db();
        let store = RecordStore::create(&mut db).unwrap();
        let again = RecordStore::open(&mut db, store.root_page()).unwrap();
        assert_eq!(again.root_page(), store.root_page());
        assert!(RecordStore::open(&mut db, 12345).is_err());
    }

    #[test]
    fn person_record_of_section_2() {
        // "a person object with attributes name, picture, and voice" —
        // name short, picture and voice as long fields with *different*
        // storage (the §2 motivation for long fields).
        let mut db = db();
        let mut store = RecordStore::create(&mut db).unwrap();
        let picture: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let voice: Vec<u8> = (0..80_000).map(|i| (i % 13) as u8).collect();
        let id = store
            .insert(
                &mut db,
                &[
                    FieldInput::Short(b"Alexandros"),
                    FieldInput::Long {
                        spec: ManagerSpec::eos(16),
                        content: &picture,
                    },
                    FieldInput::Long {
                        spec: ManagerSpec::starburst(),
                        content: &voice,
                    },
                ],
            )
            .unwrap();

        let fields = store.get(&mut db, id).unwrap();
        assert_eq!(fields[0].as_short().unwrap(), b"Alexandros");
        let pic = fields[1].as_long().unwrap();
        let voc = fields[2].as_long().unwrap();
        assert_eq!(pic.kind, StorageKind::Eos);
        assert_eq!(voc.kind, StorageKind::Starburst);

        let pic_obj = store.read_long(&mut db, pic).unwrap();
        assert_eq!(pic_obj.snapshot(&db), picture);
        let mut buf = vec![0u8; 1000];
        pic_obj.read(&mut db, 100_000, &mut buf).unwrap();
        assert_eq!(buf[..], picture[100_000..101_000]);

        let voice_obj = store.read_long(&mut db, voc).unwrap();
        assert_eq!(voice_obj.snapshot(&db), voice);
    }

    #[test]
    fn many_records_span_heap_pages() {
        let mut db = db();
        let mut store = RecordStore::create(&mut db).unwrap();
        let payload = vec![7u8; 300];
        let ids: Vec<RecordId> = (0..50)
            .map(|i| {
                store
                    .insert(
                        &mut db,
                        &[FieldInput::Short(&payload), FieldInput::Short(&[i as u8])],
                    )
                    .unwrap()
            })
            .collect();
        assert_eq!(store.len(&mut db).unwrap(), 50);
        assert!(
            ids.iter()
                .map(|id| id.page)
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1,
            "50 x 300 B records must span multiple heap pages"
        );
        // Every record readable, ids unique.
        for (i, id) in ids.iter().enumerate() {
            let f = store.get(&mut db, *id).unwrap();
            assert_eq!(f[1].as_short().unwrap(), &[i as u8]);
        }
        assert_eq!(store.scan(&mut db).unwrap().len(), 50);
    }

    #[test]
    fn update_short_field() {
        let mut db = db();
        let mut store = RecordStore::create(&mut db).unwrap();
        let id = store
            .insert(
                &mut db,
                &[FieldInput::Short(b"old"), FieldInput::Short(b"keep")],
            )
            .unwrap();
        store
            .update_short(&mut db, id, 0, b"brand new value")
            .unwrap();
        let f = store.get(&mut db, id).unwrap();
        assert_eq!(f[0].as_short().unwrap(), b"brand new value");
        assert_eq!(f[1].as_short().unwrap(), b"keep");
        // Updating a long field through update_short is rejected.
        assert!(store.update_short(&mut db, id, 5, b"x").is_err());
    }

    #[test]
    fn delete_destroys_owned_long_fields() {
        let mut db = db();
        let mut store = RecordStore::create(&mut db).unwrap();
        let blob = vec![3u8; 100_000];
        let id = store
            .insert(
                &mut db,
                &[
                    FieldInput::Short(b"x"),
                    FieldInput::Long {
                        spec: ManagerSpec::esm(4),
                        content: &blob,
                    },
                ],
            )
            .unwrap();
        assert!(db.leaf_pages_allocated() > 0);
        store.delete(&mut db, id).unwrap();
        assert_eq!(db.leaf_pages_allocated(), 0, "long field storage freed");
        assert!(matches!(
            store.get(&mut db, id),
            Err(RecordError::NoSuchRecord)
        ));
        assert_eq!(store.len(&mut db).unwrap(), 0);
    }

    #[test]
    fn editing_a_long_field_through_the_record() {
        let mut db = db();
        let mut store = RecordStore::create(&mut db).unwrap();
        let doc = b"The quick brown fox".to_vec();
        let id = store
            .insert(
                &mut db,
                &[FieldInput::Long {
                    spec: ManagerSpec::eos(4),
                    content: &doc,
                }],
            )
            .unwrap();
        let h = store.get(&mut db, id).unwrap()[0].as_long().unwrap();
        let mut obj = store.read_long(&mut db, h).unwrap();
        obj.insert(&mut db, 4, b"very ").unwrap();
        obj.delete(&mut db, 0, 4).unwrap();
        let again = store.read_long(&mut db, h).unwrap();
        assert_eq!(again.snapshot(&db), b"very quick brown fox");
    }

    #[test]
    fn oversized_record_is_rejected_and_leaks_nothing() {
        let mut db = db();
        let mut store = RecordStore::create(&mut db).unwrap();
        let huge = vec![0u8; 5000];
        let blob = vec![1u8; 10_000];
        let before = db.leaf_pages_allocated();
        let err = store.insert(
            &mut db,
            &[
                FieldInput::Long {
                    spec: ManagerSpec::eos(4),
                    content: &blob,
                },
                FieldInput::Short(&huge),
            ],
        );
        assert!(matches!(err, Err(RecordError::RecordTooLarge(_))));
        assert_eq!(
            db.leaf_pages_allocated(),
            before,
            "rolled-back insert must not leak the created long field"
        );
    }

    #[test]
    fn adopted_long_fields_are_shared_until_deleted() {
        let mut db = db();
        let mut store = RecordStore::create(&mut db).unwrap();
        let mut obj = ManagerSpec::eos(4).create(&mut db).unwrap();
        obj.append(&mut db, b"shared content").unwrap();
        let h = LongHandle {
            kind: obj.kind(),
            root_page: obj.root_page(),
        };
        let id = store
            .insert(&mut db, &[FieldInput::Adopt(h), FieldInput::Short(b"meta")])
            .unwrap();
        let got = store.get(&mut db, id).unwrap()[0].as_long().unwrap();
        assert_eq!(got, h);
        assert_eq!(
            store.read_long(&mut db, got).unwrap().snapshot(&db),
            b"shared content"
        );
    }
}
