//! # lobstore
//!
//! A from-scratch Rust reproduction of **Biliris, "The Performance of
//! Three Database Storage Structures for Managing Large Objects"
//! (SIGMOD 1992)** — the comparative study of the EXODUS (ESM),
//! Starburst, and EOS large-object ("BLOB") storage structures.
//!
//! The workspace contains the full stack the paper's prototype was built
//! on, reimplemented as independent crates and re-exported here:
//!
//! * [`simdisk`] — simulated multi-area disk with the paper's analytical
//!   seek/transfer cost model (33 ms seek, 1 KB/ms transfer, 4 KB pages);
//! * [`buddy`] — binary buddy disk-space manager with buddy spaces,
//!   on-disk directory pages and an in-memory superdirectory;
//! * [`bufpool`] — 12-page buffer manager with hybrid multi-page segment
//!   buffering and 3-step I/O on page-boundary mismatch;
//! * [`core`] — the three large-object managers over a shared positional
//!   count tree, with shadow-based update costing;
//! * [`workload`] — the paper's workload generators and experiment
//!   drivers (append builds, sequential scans, the 40/30/30 update mix);
//! * [`obs`] — zero-dependency metrics registry and structured event
//!   tracing every layer reports into (see DESIGN.md, "Observability").
//!
//! ## Quick start
//!
//! ```
//! use lobstore::{Db, LargeObject, Lob, ManagerSpec};
//!
//! let mut db = Db::paper_default();
//! let mut blob = Lob::create(&mut db, ManagerSpec::eos(4)).unwrap();
//! blob.append(&mut db, b"first, some video frames...").unwrap();
//! blob.insert(&mut db, 7, b"hold on, ").unwrap();
//! blob.delete(&mut db, 0, 7).unwrap();
//!
//! let mut out = vec![0u8; blob.size(&mut db) as usize];
//! blob.read(&mut db, 0, &mut out).unwrap();
//! assert_eq!(&out, b"hold on, some video frames...");
//!
//! // Every byte moved through the simulated disk; the cost is recorded:
//! println!("simulated I/O: {}", db.io_stats());
//! ```
//!
//! See `DESIGN.md` for the system inventory, `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure, and
//! `crates/bench/src/bin/` for the binaries that regenerate them.

pub use lobstore_buddy as buddy;
pub use lobstore_bufpool as bufpool;
pub use lobstore_core as core;
pub use lobstore_obs as obs;
pub use lobstore_record as record;
pub use lobstore_simdisk as simdisk;
pub use lobstore_workload as workload;

pub use lobstore_core::{
    object_health, open_object, publish_object_health, Catalog, CatalogEntry, Db, DbConfig,
    EsmInsertAlgo, FragStats, HealthSample, LargeObject, Lob, LobError, ManagerSpec, ObjectHealth,
    ObjectReader, ObjectWriter, ReadAccess, Result, SegmentInfo, SharedDb, SharedSnapshotReader,
    Snapshot, SpanCursor, StorageKind, TreeConfig, Utilization,
};
pub use lobstore_record::{FieldInput, LongHandle, RecordId, RecordStore, Value};
pub use lobstore_simdisk::{AreaId, CostModel, IoStats, PageId, PAGE_SIZE};
pub use lobstore_workload::{
    build_by_appends, build_object, random_reads, sequential_scan, MixedConfig, MixedWorkload,
};
