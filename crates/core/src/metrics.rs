//! The engine's metric handles (DESIGN.md §10), declared once so every
//! update is a slot index instead of a name lookup. `health.rs` computes
//! its `health.<area>.<metric>` names and stays on the name-keyed API.

lobstore_obs::metrics! {
    pub(crate) static TREE_DESCENTS: Counter = "core.tree.descents";
    pub(crate) static TREE_DESCEND_DEPTH: Counter = "core.tree.descend_depth";
    pub(crate) static SEG_READS: Counter = "core.seg.reads";
    pub(crate) static SEG_WRITES: Counter = "core.seg.writes";
    pub(crate) static SHADOW_PAGES: Counter = "core.shadow.pages";
    pub(crate) static SHADOW_FRESH_PAGES: Counter = "core.shadow.fresh_pages";
    pub(crate) static SHARED_READ_WAITS: Counter = "core.shared.read_waits";
    pub(crate) static SHARED_WRITE_WAITS: Counter = "core.shared.write_waits";

    pub(crate) static MVCC_SNAPSHOTS_OPENED: Counter = "core.mvcc.snapshots_opened";
    pub(crate) static MVCC_SNAPSHOTS_RELEASED: Counter = "core.mvcc.snapshots_released";
    pub(crate) static MVCC_PAGES_ARCHIVED: Counter = "core.mvcc.pages_archived";
    pub(crate) static MVCC_FREES_DEFERRED: Counter = "core.mvcc.frees_deferred";
    pub(crate) static MVCC_FREES_RECLAIMED: Counter = "core.mvcc.frees_reclaimed";
    pub(crate) static MVCC_VERSIONS_COMMITTED: Counter = "core.mvcc.versions_committed";
    pub(crate) static MVCC_TXN_COMMITS: Counter = "core.mvcc.txn_commits";
    pub(crate) static MVCC_TXN_OPS: Counter = "core.mvcc.txn_ops";
    pub(crate) static MVCC_TXN_ROLLBACKS: Counter = "core.mvcc.txn_rollbacks";
    pub(crate) static MVCC_TXN_PREIMAGES: Counter = "core.mvcc.txn_preimages";
    pub(crate) static MVCC_SNAPSHOT_AGE: Gauge = "mvcc.snapshot_age";
    pub(crate) static MVCC_PINNED_SNAPSHOTS: Gauge = "mvcc.pinned_snapshots";
    pub(crate) static MVCC_DEFERRED_PAGES: Gauge = "mvcc.deferred_pages";

    pub(crate) static ALLOCLOG_RECORDS: Counter = "core.alloclog.records";
    pub(crate) static ALLOCLOG_UNDO_IMAGES: Counter = "core.alloclog.undo_images";
    pub(crate) static ALLOCLOG_ROOT_IMAGES: Counter = "core.alloclog.root_images";
    pub(crate) static ALLOCLOG_COMMITS: Counter = "core.alloclog.commits";
    pub(crate) static ALLOCLOG_CHAIN_GROWTH: Counter = "core.alloclog.chain_growth";
    pub(crate) static ALLOCLOG_REPLAYS: Counter = "core.alloclog.replays";
    pub(crate) static ALLOCLOG_REPLAY_FALLBACKS: Counter = "core.alloclog.replay_fallbacks";
    pub(crate) static ALLOCLOG_COMPACTIONS: Counter = "core.alloclog.compactions";
    pub(crate) static ALLOCLOG_CHAIN_PAGES: Gauge = "alloclog.chain_pages";

    // Accounting closure (`observe.rs`): every observed operation's
    // `IoStats` delta.
    pub(crate) static SPAN_IO_READ_CALLS: Counter = "span.io.read_calls";
    pub(crate) static SPAN_IO_WRITE_CALLS: Counter = "span.io.write_calls";
    pub(crate) static SPAN_IO_PAGES_READ: Counter = "span.io.pages_read";
    pub(crate) static SPAN_IO_PAGES_WRITTEN: Counter = "span.io.pages_written";
    pub(crate) static SPAN_IO_TIME_US: Counter = "span.io.time_us";

    // One counter per observed operation; also the span's name.
    pub(crate) static OP_ESM_CREATE: Counter = "op.esm.create";
    pub(crate) static OP_ESM_OPEN: Counter = "op.esm.open";
    pub(crate) static OP_ESM_SIZE: Counter = "op.esm.size";
    pub(crate) static OP_ESM_APPEND: Counter = "op.esm.append";
    pub(crate) static OP_ESM_READ: Counter = "op.esm.read";
    pub(crate) static OP_ESM_LOCATE: Counter = "op.esm.locate";
    pub(crate) static OP_ESM_INSERT: Counter = "op.esm.insert";
    pub(crate) static OP_ESM_DELETE: Counter = "op.esm.delete";
    pub(crate) static OP_ESM_REPLACE: Counter = "op.esm.replace";
    pub(crate) static OP_ESM_TRIM: Counter = "op.esm.trim";
    pub(crate) static OP_ESM_DESTROY: Counter = "op.esm.destroy";
    pub(crate) static OP_STARBURST_CREATE: Counter = "op.starburst.create";
    pub(crate) static OP_STARBURST_OPEN: Counter = "op.starburst.open";
    pub(crate) static OP_STARBURST_SIZE: Counter = "op.starburst.size";
    pub(crate) static OP_STARBURST_APPEND: Counter = "op.starburst.append";
    pub(crate) static OP_STARBURST_READ: Counter = "op.starburst.read";
    pub(crate) static OP_STARBURST_LOCATE: Counter = "op.starburst.locate";
    pub(crate) static OP_STARBURST_INSERT: Counter = "op.starburst.insert";
    pub(crate) static OP_STARBURST_DELETE: Counter = "op.starburst.delete";
    pub(crate) static OP_STARBURST_REPLACE: Counter = "op.starburst.replace";
    pub(crate) static OP_STARBURST_TRIM: Counter = "op.starburst.trim";
    pub(crate) static OP_STARBURST_DESTROY: Counter = "op.starburst.destroy";
    pub(crate) static OP_EOS_CREATE: Counter = "op.eos.create";
    pub(crate) static OP_EOS_OPEN: Counter = "op.eos.open";
    pub(crate) static OP_EOS_SIZE: Counter = "op.eos.size";
    pub(crate) static OP_EOS_APPEND: Counter = "op.eos.append";
    pub(crate) static OP_EOS_READ: Counter = "op.eos.read";
    pub(crate) static OP_EOS_LOCATE: Counter = "op.eos.locate";
    pub(crate) static OP_EOS_INSERT: Counter = "op.eos.insert";
    pub(crate) static OP_EOS_DELETE: Counter = "op.eos.delete";
    pub(crate) static OP_EOS_REPLACE: Counter = "op.eos.replace";
    pub(crate) static OP_EOS_TRIM: Counter = "op.eos.trim";
    pub(crate) static OP_EOS_DESTROY: Counter = "op.eos.destroy";
}
