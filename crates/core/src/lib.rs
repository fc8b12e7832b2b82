//! The three large-object storage structures of Biliris (SIGMOD 1992):
//! **ESM** (EXODUS), **Starburst**, and **EOS**, implemented over a shared
//! substrate of simulated disk, buffer manager, and buddy-system space
//! allocation.
//!
//! # Overview
//!
//! A *large object* is an uninterpreted byte sequence too big for one
//! page. All three managers store it in **segments** — runs of physically
//! adjacent disk pages — and differ in how segments are sized and indexed:
//!
//! * ESM: fixed-size multi-page leaf segments under a positional B+-tree
//!   of `(count, pointer)` pairs (§2.1);
//! * Starburst: a flat descriptor pointing to segments that double in
//!   size up to a maximum, with the last segment trimmed (§2.2);
//! * EOS: variable-size segments under the same positional tree, governed
//!   by a segment-size threshold `T` (§2.3).
//!
//! One handle type, [`Lob`], holds an object of any of them; its
//! [`ManagerSpec`] names the scheme and its parameters. It implements
//! [`LargeObject`], whose operations are the ones the paper measures:
//! append, sequential/random byte-range read, byte insert and delete at
//! arbitrary offsets, plus byte-range replace.
//!
//! # Example
//!
//! ```
//! use lobstore_core::{Db, DbConfig, LargeObject, Lob, ManagerSpec};
//!
//! let mut db = Db::new(DbConfig::default());
//! let mut obj = Lob::create(&mut db, ManagerSpec::esm(4)).unwrap();
//! obj.append(&mut db, b"hello, large object world").unwrap();
//! obj.insert(&mut db, 5, b" there").unwrap();
//! let mut buf = vec![0u8; 11];
//! obj.read(&mut db, 0, &mut buf).unwrap();
//! assert_eq!(&buf, b"hello there");
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

mod alloclog;
mod catalog;
mod db;
mod eos;
mod error;
mod esm;
mod health;
mod layout;
mod metrics;
mod node;
mod object;
mod observe;
mod segdata;
mod shadow;
mod shared;
mod spec;
mod starburst;
mod stream;
mod tree;
mod txn;
mod verify;
mod version;

pub use catalog::{Catalog, CatalogEntry, MAX_NAME};
pub use db::{Db, DbConfig, TreeConfig};
pub use error::{LobError, Result};
pub use esm::EsmInsertAlgo;
pub use health::{object_health, publish_object_health, HealthSample, ObjectHealth};
pub use lobstore_buddy::{Extent, FragStats};
pub use metrics::NAMES as METRIC_NAMES;
pub use object::{LargeObject, SegSpan, SegmentInfo, StorageKind, Utilization};
pub use shared::{SharedDb, SharedPin, SharedSnapshotReader};
pub use spec::{open_object, Lob, ManagerSpec};
pub use stream::{Live, ObjectReader, ObjectWriter, Pinned, ReadAccess, SpanCursor};
pub use verify::Finding;
pub use version::Snapshot;

/// Maximum bytes any single operation may carry, a sanity bound
/// (object sizes themselves are limited only by disk space).
pub const MAX_OP_BYTES: usize = 1 << 30;
