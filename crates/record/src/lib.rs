//! Small records with externally stored **long fields** — the second view
//! of large objects in §2 of Biliris (SIGMOD 1992):
//!
//! > "a person object with attributes name, picture, and voice [...] can
//! > be mapped to a small database object that contains the short field
//! > name and two long field descriptors corresponding to long fields
//! > picture and voice [...] Some applications may prefer the second view
//! > of objects because it is easier to treat the long fields within the
//! > same object in different ways."
//!
//! This crate provides exactly that mapping:
//!
//! * [`RecordStore`] — slotted heap pages of small records, addressed by
//!   stable [`RecordId`]s;
//! * [`Value::Long`] fields hold a [`LongHandle`] descriptor (storage
//!   kind + root page); the bytes live in whichever large-object manager
//!   each field chose — a picture in EOS, a voice track in Starburst, a
//!   frequently edited transcript in ESM, side by side in one record.
//!
//! ```
//! use lobstore_core::{Db, ManagerSpec};
//! use lobstore_record::{FieldInput, RecordStore};
//!
//! let mut db = Db::paper_default();
//! let mut store = RecordStore::create(&mut db).unwrap();
//! let id = store.insert(&mut db, &[
//!     FieldInput::Short(b"Ada"),
//!     FieldInput::Long { spec: ManagerSpec::eos(16), content: b"...portrait bytes..." },
//! ]).unwrap();
//! let fields = store.get(&mut db, id).unwrap();
//! let portrait = store.read_long(&mut db, fields[1].as_long().unwrap()).unwrap();
//! assert_eq!(portrait.snapshot(&db), b"...portrait bytes...");
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::cast_possible_truncation
    )
)]

mod error;
/// Pure slotted heap-page primitives (insert/get/delete/compact over a
/// raw page buffer).
pub mod page;
mod schema;
mod store;

pub use error::{RecordError, Result};
pub use schema::{decode, encode, LongHandle, Value};
pub use store::{FieldInput, RecordId, RecordStore};
