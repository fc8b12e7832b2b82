//! Span-per-operation observability for large objects.
//!
//! [`OpObserver`] brackets one I/O-bearing operation with a `lobstore-obs`
//! span named `op.<scheme>.<operation>` (e.g. `op.esm.append`). Each name
//! is a static counter handle in [`crate::metrics`]; with no sink
//! installed an operation bumps that handle and opens no span at all.
//! Every costed operation of [`crate::Lob`], its `create` and `open`
//! included, runs inside one, so every handle is observed; a read
//! cursor's refills are the cursor's, not an object operation, and
//! [`crate::ObjectReader`] brackets each one as an `op.<scheme>.read`
//! itself.
//!
//! Two invariants the bracket maintains:
//!
//! * **No simulated I/O of its own.** Annotations only use cost-free
//!   inspection (peeked pages); an operation's [`IoStats`] are the same
//!   with a sink and without one.
//! * **Accounting closure.** Every operation's `IoStats` delta is
//!   accumulated into the `span.io.*` counters, with or without a sink,
//!   so a run whose I/O goes only through observed operations satisfies
//!   `span.io.* == Db::io_stats()` — the consistency check the
//!   integration tests pin.

use lobstore_obs::json::Value;
use lobstore_obs::{sink_installed, Counter, Span};
use lobstore_simdisk::IoStats;

use crate::db::Db;
use crate::error::Result;
use crate::metrics as m;
use crate::object::StorageKind;

/// The logical operations an observed span can describe.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum OpName {
    /// Object creation (empty object, root/descriptor allocated).
    Create,
    /// Re-opening an existing object by root page.
    Open,
    /// Size lookup (may fix the root page).
    Size,
    /// Append at the object's end.
    Append,
    /// Byte-range read: bulk, or a streaming reader's span refill.
    Read,
    /// Segment-span lookup (a costed descent), for probes and tooling;
    /// streaming readers find their segment inside a `Read`.
    Locate,
    /// Byte insertion at an arbitrary offset.
    Insert,
    /// Byte deletion at an arbitrary offset.
    Delete,
    /// In-place byte-range overwrite.
    Replace,
    /// Tail over-allocation release.
    Trim,
    /// Object destruction.
    Destroy,
}

/// The counter of `(kind, op)`; its name doubles as the span name, and
/// bumping it is all an operation does when no sink is installed.
fn op_counter(kind: StorageKind, op: OpName) -> &'static Counter {
    use OpName as O;
    use StorageKind as K;
    match (kind, op) {
        (K::Esm, O::Create) => &m::OP_ESM_CREATE,
        (K::Esm, O::Open) => &m::OP_ESM_OPEN,
        (K::Esm, O::Size) => &m::OP_ESM_SIZE,
        (K::Esm, O::Append) => &m::OP_ESM_APPEND,
        (K::Esm, O::Read) => &m::OP_ESM_READ,
        (K::Esm, O::Locate) => &m::OP_ESM_LOCATE,
        (K::Esm, O::Insert) => &m::OP_ESM_INSERT,
        (K::Esm, O::Delete) => &m::OP_ESM_DELETE,
        (K::Esm, O::Replace) => &m::OP_ESM_REPLACE,
        (K::Esm, O::Trim) => &m::OP_ESM_TRIM,
        (K::Esm, O::Destroy) => &m::OP_ESM_DESTROY,
        (K::Starburst, O::Create) => &m::OP_STARBURST_CREATE,
        (K::Starburst, O::Open) => &m::OP_STARBURST_OPEN,
        (K::Starburst, O::Size) => &m::OP_STARBURST_SIZE,
        (K::Starburst, O::Append) => &m::OP_STARBURST_APPEND,
        (K::Starburst, O::Read) => &m::OP_STARBURST_READ,
        (K::Starburst, O::Locate) => &m::OP_STARBURST_LOCATE,
        (K::Starburst, O::Insert) => &m::OP_STARBURST_INSERT,
        (K::Starburst, O::Delete) => &m::OP_STARBURST_DELETE,
        (K::Starburst, O::Replace) => &m::OP_STARBURST_REPLACE,
        (K::Starburst, O::Trim) => &m::OP_STARBURST_TRIM,
        (K::Starburst, O::Destroy) => &m::OP_STARBURST_DESTROY,
        (K::Eos, O::Create) => &m::OP_EOS_CREATE,
        (K::Eos, O::Open) => &m::OP_EOS_OPEN,
        (K::Eos, O::Size) => &m::OP_EOS_SIZE,
        (K::Eos, O::Append) => &m::OP_EOS_APPEND,
        (K::Eos, O::Read) => &m::OP_EOS_READ,
        (K::Eos, O::Locate) => &m::OP_EOS_LOCATE,
        (K::Eos, O::Insert) => &m::OP_EOS_INSERT,
        (K::Eos, O::Delete) => &m::OP_EOS_DELETE,
        (K::Eos, O::Replace) => &m::OP_EOS_REPLACE,
        (K::Eos, O::Trim) => &m::OP_EOS_TRIM,
        (K::Eos, O::Destroy) => &m::OP_EOS_DESTROY,
    }
}

/// Operation label used as a span field ("append", "read", ...).
fn op_label(op: OpName) -> &'static str {
    match op {
        OpName::Create => "create",
        OpName::Open => "open",
        OpName::Size => "size",
        OpName::Append => "append",
        OpName::Read => "read",
        OpName::Locate => "locate",
        OpName::Insert => "insert",
        OpName::Delete => "delete",
        OpName::Replace => "replace",
        OpName::Trim => "trim",
        OpName::Destroy => "destroy",
    }
}

/// Snapshot of the instrumentation counters core's internals bump
/// (tree descents, segment reads/writes, shadow allocations); captured
/// before and after an operation to annotate its span with deltas.
#[derive(Copy, Clone)]
struct HookCounters {
    descents: u64,
    descend_depth: u64,
    seg_reads: u64,
    seg_writes: u64,
    shadow_pages: u64,
    fresh_pages: u64,
}

impl HookCounters {
    fn capture() -> HookCounters {
        HookCounters {
            descents: m::TREE_DESCENTS.value(),
            descend_depth: m::TREE_DESCEND_DEPTH.value(),
            seg_reads: m::SEG_READS.value(),
            seg_writes: m::SEG_WRITES.value(),
            shadow_pages: m::SHADOW_PAGES.value(),
            fresh_pages: m::SHADOW_FRESH_PAGES.value(),
        }
    }
}

/// Bracketing state for one observed operation ([`OpObserver::around`]):
/// the before-snapshot of the disk's [`IoStats`] and (when a sink is
/// listening) of the hook counters. Whether one is listening is read
/// once, when the operation begins, and holds for the whole operation.
pub(crate) struct OpObserver {
    kind: StorageKind,
    op: OpName,
    before_io: IoStats,
    hooks: Option<HookCounters>,
}

impl OpObserver {
    /// Capture the before-state of one operation on a `kind` object.
    fn begin(kind: StorageKind, op: OpName, db: &Db) -> OpObserver {
        OpObserver {
            kind,
            op,
            before_io: db.io_stats(),
            hooks: if sink_installed() {
                Some(HookCounters::capture())
            } else {
                None
            },
        }
    }

    /// Close the operation: accumulate its [`IoStats`] delta into the
    /// `span.io.*` counters, count the operation (as an annotated span
    /// when a sink is listening, as a bare counter bump otherwise), and
    /// advance the database's operation tick.
    fn finish(self, db: &mut Db, object_bytes: Option<u64>, ok: bool) {
        db.note_op();
        let delta = db.io_stats() - self.before_io;
        m::SPAN_IO_READ_CALLS.add(delta.read_calls);
        m::SPAN_IO_WRITE_CALLS.add(delta.write_calls);
        m::SPAN_IO_PAGES_READ.add(delta.pages_read);
        m::SPAN_IO_PAGES_WRITTEN.add(delta.pages_written);
        m::SPAN_IO_TIME_US.add(delta.time_us);
        let counter = op_counter(self.kind, self.op);
        let Some(before) = self.hooks else {
            counter.add(1);
            return;
        };
        // Ending the span bumps `counter` by name.
        let mut span = Span::begin(counter.name());
        let now = HookCounters::capture();
        span.field_str("scheme", self.kind.name());
        span.field_str("op", op_label(self.op));
        if let Some(bytes) = object_bytes {
            span.field_u64("object_bytes", bytes);
        }
        span.field_u64("io_read_calls", delta.read_calls);
        span.field_u64("io_write_calls", delta.write_calls);
        span.field_u64("io_pages_read", delta.pages_read);
        span.field_u64("io_pages_written", delta.pages_written);
        span.field_u64("io_time_us", delta.time_us);
        span.field_u64("tree_descents", now.descents - before.descents);
        span.field_u64(
            "tree_descend_depth",
            now.descend_depth - before.descend_depth,
        );
        span.field_u64("segments_read", now.seg_reads - before.seg_reads);
        span.field_u64("segments_written", now.seg_writes - before.seg_writes);
        span.field_u64("shadow_pages", now.shadow_pages - before.shadow_pages);
        span.field_u64("fresh_index_pages", now.fresh_pages - before.fresh_pages);
        span.field("ok", Value::Bool(ok));
        span.end();
    }

    /// Run `f` as one observed `op` on a `kind` object: [`Self::begin`],
    /// `f`, [`Self::finish`]. `bytes` names the object's size for the
    /// span from `f`'s result; it is asked only when a sink listens.
    pub(crate) fn around<R>(
        kind: StorageKind,
        op: OpName,
        db: &mut Db,
        f: impl FnOnce(&mut Db) -> Result<R>,
        bytes: impl FnOnce(&Db, &Result<R>) -> Option<u64>,
    ) -> Result<R> {
        let obs = OpObserver::begin(kind, op, db);
        let r = f(db);
        let bytes = if obs.hooks.is_some() {
            bytes(db, &r)
        } else {
            None
        };
        obs.finish(db, bytes, r.is_ok());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Lob, ManagerSpec};
    use crate::LargeObject;
    use lobstore_obs::{counter_value, install_sink, json, reset, snapshot, take_sink, MemorySink};

    #[test]
    fn spans_count_without_a_sink() {
        reset();
        let _ = take_sink();
        let mut db = Db::paper_default();
        db.reset_io_stats();
        let mut obj = ManagerSpec::esm(4).create(&mut db).unwrap();
        obj.append(&mut db, &[7u8; 10_000]).unwrap();
        let mut out = [0u8; 100];
        obj.read(&mut db, 50, &mut out).unwrap();
        assert_eq!(counter_value("op.esm.create"), 1);
        assert_eq!(counter_value("op.esm.append"), 1);
        assert_eq!(counter_value("op.esm.read"), 1);
        // Accounting closure: every simulated I/O happened inside an
        // observed operation, so the span.io.* counters equal the disk's
        // cumulative stats.
        let io = db.io_stats();
        assert_eq!(counter_value("span.io.read_calls"), io.read_calls);
        assert_eq!(counter_value("span.io.write_calls"), io.write_calls);
        assert_eq!(counter_value("span.io.pages_read"), io.pages_read);
        assert_eq!(counter_value("span.io.pages_written"), io.pages_written);
        assert_eq!(counter_value("span.io.time_us"), io.time_us);
    }

    #[test]
    fn spans_annotate_with_a_sink() {
        reset();
        let sink = MemorySink::new();
        install_sink(Box::new(sink.clone()));
        let mut db = Db::paper_default();
        let mut obj = ManagerSpec::eos(16).create(&mut db).unwrap();
        obj.append(&mut db, &[1u8; 60_000]).unwrap();
        obj.insert(&mut db, 10, &[2u8; 500]).unwrap();
        let _ = take_sink();
        let lines = sink.lines();
        assert_eq!(lines.len(), 3, "create + append + insert");
        let insert = json::parse(&lines[2]).unwrap();
        assert_eq!(
            insert.get("name").and_then(json::Value::as_str),
            Some("op.eos.insert")
        );
        assert_eq!(
            insert.get("scheme").and_then(json::Value::as_str),
            Some("EOS")
        );
        assert_eq!(
            insert.get("object_bytes").and_then(json::Value::as_u64),
            Some(60_500)
        );
        assert!(
            insert
                .get("tree_descents")
                .and_then(json::Value::as_u64)
                .unwrap()
                >= 1,
            "at least one descent to find the insert position"
        );
        assert!(
            insert
                .get("io_read_calls")
                .and_then(json::Value::as_u64)
                .unwrap()
                > 0,
            "insert reads the affected segment"
        );
        match insert.get("ok") {
            Some(json::Value::Bool(true)) => {}
            other => panic!("expected ok: true, got {other:?}"),
        }
    }

    /// The same operations with a sink and without one cost the same
    /// simulated I/O: annotating a span reads nothing through the pool.
    #[test]
    fn annotation_is_simulated_io_free() {
        let run = |sink: Option<MemorySink>| {
            reset();
            if let Some(sink) = sink {
                install_sink(Box::new(sink));
            }
            let mut db = Db::paper_default();
            let mut obj = ManagerSpec::starburst().create(&mut db).unwrap();
            obj.append(&mut db, &[3u8; 20_000]).unwrap();
            obj.insert(&mut db, 100, &[4u8; 300]).unwrap();
            let mut out = [0u8; 50];
            obj.read(&mut db, 9_000, &mut out).unwrap();
            obj.delete(&mut db, 0, 1_000).unwrap();
            let _ = take_sink();
            db.io_stats()
        };
        let sink = MemorySink::new();
        let observed = run(Some(sink.clone()));
        assert_eq!(
            sink.lines().len(),
            5,
            "create, append, insert, read, delete"
        );
        assert_eq!(observed, run(None));
    }

    #[test]
    fn health_sample_is_ticked_by_observed_ops_and_costs_no_io() {
        reset();
        let _ = take_sink();
        let mut db = Db::paper_default();
        let mut obj = ManagerSpec::esm(4).create(&mut db).unwrap(); // op 1
        obj.append(&mut db, &[1u8; 30_000]).unwrap(); // op 2
        let io_mid = db.io_stats();
        let sample = db.sample_health();
        assert_eq!(sample.tick, 2);
        assert_eq!(db.io_stats(), io_mid, "sampling itself is cost-free");
        assert_eq!(
            lobstore_obs::gauge_value("health.leaf.allocated_pages"),
            Some(db.leaf_pages_allocated() as f64),
            "the gauge tracks the allocator"
        );
        obj.append(&mut db, &[2u8; 10_000]).unwrap(); // op 3
        assert_eq!(db.health_ops(), 3);
    }

    /// A handle built by `Lob::create`/`Lob::open` directly, not through
    /// `ManagerSpec`, is observed too: its operations count under its
    /// scheme and every I/O lands in `span.io.*`.
    #[test]
    fn a_directly_built_handle_is_observed() {
        for (spec, scheme) in [
            (ManagerSpec::esm(4), "esm"),
            (ManagerSpec::eos(16), "eos"),
            (ManagerSpec::starburst(), "starburst"),
        ] {
            reset();
            let _ = take_sink();
            let mut db = Db::paper_default();
            db.reset_io_stats();
            let mut obj = Lob::create(&mut db, spec).unwrap();
            obj.append(&mut db, &[7u8; 30_000]).unwrap();
            let mut obj = Lob::open(&mut db, spec.kind(), obj.root_page()).unwrap();
            obj.delete(&mut db, 100, 5_000).unwrap();
            obj.trim(&mut db).unwrap();
            let mut out = [0u8; 100];
            obj.read(&mut db, 50, &mut out).unwrap();
            assert_eq!(obj.size(&mut db), 25_000);
            for op in ["create", "open", "append", "delete", "trim", "read", "size"] {
                assert_eq!(
                    counter_value(&format!("op.{scheme}.{op}")),
                    1,
                    "{scheme} {op}"
                );
            }
            let io = db.io_stats();
            assert_eq!(
                counter_value("span.io.read_calls"),
                io.read_calls,
                "{scheme}"
            );
            assert_eq!(
                counter_value("span.io.write_calls"),
                io.write_calls,
                "{scheme}"
            );
            assert_eq!(
                counter_value("span.io.pages_read"),
                io.pages_read,
                "{scheme}"
            );
            assert_eq!(
                counter_value("span.io.pages_written"),
                io.pages_written,
                "{scheme}"
            );
            assert_eq!(counter_value("span.io.time_us"), io.time_us, "{scheme}");
        }
    }

    /// An insert at the end is the scheme's append, run inside the one
    /// observed insert: one `op.<scheme>.insert`, no `op.<scheme>.append`.
    #[test]
    fn an_insert_at_the_end_counts_once() {
        for spec in [
            ManagerSpec::esm(4),
            ManagerSpec::eos(16),
            ManagerSpec::starburst(),
        ] {
            let mut db = Db::paper_default();
            let mut obj = spec.create(&mut db).unwrap();
            reset();
            obj.insert(&mut db, 0, &[1u8; 9_000]).unwrap();
            obj.insert(&mut db, 9_000, &[2u8; 3_000]).unwrap();
            let scheme = spec.kind().name().to_lowercase();
            assert_eq!(counter_value(&format!("op.{scheme}.insert")), 2, "{scheme}");
            assert_eq!(counter_value(&format!("op.{scheme}.append")), 0, "{scheme}");
            assert_eq!(obj.snapshot(&db).len(), 12_000);
        }
    }

    #[test]
    fn per_scheme_counters_are_separate() {
        reset();
        let mut db = Db::paper_default();
        for spec in [
            ManagerSpec::esm(4),
            ManagerSpec::starburst(),
            ManagerSpec::eos(16),
        ] {
            let mut obj = spec.create(&mut db).unwrap();
            obj.append(&mut db, &[9u8; 5_000]).unwrap();
            obj.destroy(&mut db).unwrap();
        }
        let snap = snapshot();
        for scheme in ["esm", "starburst", "eos"] {
            assert_eq!(snap.counter(&format!("op.{scheme}.create")), 1);
            assert_eq!(snap.counter(&format!("op.{scheme}.append")), 1);
            assert_eq!(snap.counter(&format!("op.{scheme}.destroy")), 1);
        }
    }
}
