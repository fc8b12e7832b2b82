//! One reference model for every model-checked test. The paper's §3.3
//! promise (a crash recovers the last flushed state), `Db::txn`'s (a
//! rolled-back transaction leaves no trace) and the snapshot's (a pinned
//! version never changes) are stated here once:
//!
//! * [`Op`] — one abstract operation. Offsets are fractions of the
//!   object's current size and lengths byte counts, both clamped by one
//!   rule, so a sequence stays meaningful as the object grows and shrinks.
//! * [`Model`] — the live bytes and the durable bytes a crash must give
//!   back. The crash rule: a crash during an op (a transaction is one op)
//!   gives back the durable bytes from before it or from after it. With
//!   the allocation log on, every committed op or transaction is durable;
//!   with it off only a checkpoint is, and a crash is defined one
//!   unflushed update deep (§3.3 defers frees per operation).
//! * [`OpGen`] — the one seeded generator, over a weighted mix of [`Kind`]s.
//! * [`Driver`] — applies each op to a store object and to the model and
//!   checks every read's bytes, the size and the database walk
//!   (`Db::verify`) after every op; the whole object after a transaction
//!   and after a crash (rebooted, reopened through `ManagerSpec::open`),
//!   at an op boundary ([`Op::Crash`]) or at any disk write call of an op
//!   ([`Driver::crash_during`]); every pinned version when it is
//!   released; at [`Driver::finish`] the final bytes and that `destroy`
//!   leaves the walk nothing to claim.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Once;

use lobstore_core::{Db, Finding, LargeObject, LobError, ManagerSpec, Snapshot, SnapshotReader};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fill;

/// One abstract operation. `(at, len)`: `at` a fraction of the current
/// size, `len` bytes.
#[derive(Clone, Debug)]
pub enum Op {
    Append(usize),
    Insert(f64, usize),
    Delete(f64, usize),
    Replace(f64, usize),
    Read(f64, usize),
    /// Destroy the object and create an empty one of the same spec.
    Recreate,
    Checkpoint,
    /// `crash_and_reboot`, then reopen the object by its root page. Every
    /// pin is dropped: snapshots are in-memory handles.
    Crash,
    /// Pin the current version and record the model's bytes.
    Snapshot,
    /// Stream the oldest pinned version, compare it with the bytes
    /// recorded at its pin, and release it (nothing when none is pinned).
    Release,
    /// `ops` as one `Db::txn`; `abort` fails the closure after them all.
    Txn {
        ops: Vec<Op>,
        abort: bool,
    },
}

/// The kinds an [`OpGen`] mix weighs; a `Txn` draws its members from the
/// mix's data kinds (`Append` to `Read`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    Append,
    Insert,
    Delete,
    Replace,
    Read,
    Snapshot,
    Release,
    Recreate,
    Checkpoint,
    Crash,
    Txn,
}

/// The one clamping rule: `at` picks an offset in the current `size` (an
/// insert may land at the end, every other op starts on a byte) and
/// `len` is cut at the end of the object. `None` when nothing is touched.
fn resolve(size: usize, at: f64, len: usize, insert: bool) -> Option<(usize, usize)> {
    let last = if insert { size } else { size.checked_sub(1)? };
    let off = ((at * size as f64) as usize).min(last);
    let len = if insert { len } else { len.min(size - off) };
    (len > 0).then_some((off, len))
}

/// The fraction the clamping rule turns into byte `off` of `size`, for
/// fixed op lists.
pub fn at(off: usize, size: usize) -> f64 {
    (off as f64 + 0.5) / size as f64
}

/// The bytes the store must hold now and the bytes a crash must give
/// back. An open transaction edits a scratch copy of the live bytes (see
/// [`Driver`]) that replaces them only on commit.
#[derive(Debug, Default)]
pub struct Model {
    live: Vec<u8>,
    durable: Vec<u8>,
    alloc_log: bool,
    /// Updates since the last checkpoint or crash.
    unflushed: usize,
}

impl Model {
    /// The bytes the store must hold now.
    pub fn bytes(&self) -> &[u8] {
        &self.live
    }

    /// An op or a transaction committed: with the log on it is durable.
    fn committed(&mut self) {
        if self.alloc_log {
            self.durable.clone_from(&self.live);
        } else {
            self.unflushed += 1;
        }
    }

    fn checkpoint(&mut self) {
        self.durable.clone_from(&self.live);
        self.unflushed = 0;
    }

    /// The crash rule: the durable bytes a crash during `op` may give
    /// back, `live_after` being the live bytes once `op` has run — those
    /// from before `op` and those from after it. After an op the durable
    /// bytes are the live ones with the log on (every committed op or
    /// transaction is durable), and without it only after a checkpoint.
    fn crash_states(&self, op: &Op, live_after: Vec<u8>) -> [Vec<u8>; 2] {
        let update = !matches!(
            op,
            Op::Read(..) | Op::Snapshot | Op::Release | Op::Checkpoint | Op::Crash
        );
        assert!(
            self.alloc_log || self.unflushed + usize::from(update) <= 1,
            "without the allocation log a crash is defined one unflushed update deep (§3.3), \
             not {} before {op:?}",
            self.unflushed
        );
        let after = if self.alloc_log || matches!(op, Op::Checkpoint) {
            live_after
        } else {
            self.durable.clone()
        };
        [self.durable.clone(), after]
    }

    /// A reboot gave back `bytes`: they are live and durable.
    fn recovered(&mut self, bytes: Vec<u8>) {
        self.durable.clone_from(&bytes);
        self.live = bytes;
        self.unflushed = 0;
    }
}

/// Where [`Driver::crash_during`] cuts an op: at its `write`-th disk
/// write call (from 0), of which the first `torn` pages still land.
#[derive(Copy, Clone, Debug)]
pub struct CrashPoint {
    pub write: u64,
    pub torn: u32,
}

/// The one seeded op generator: an endless stream over a weighted `mix`,
/// lengths in `1..=max_len`, fractions uniform in `[0, 1]`. A `Txn` holds
/// one to three ops of the mix's data kinds and aborts half the time.
/// When the mix holds `Crash`, a `Checkpoint` goes before a second
/// unflushed update, so every crash lands where the log-off rule is defined.
pub struct OpGen {
    rng: StdRng,
    mix: &'static [(u32, Kind)],
    max_len: usize,
    /// An update ran since the last checkpoint or crash.
    dirty: bool,
    /// A drawn update waiting behind the checkpoint emitted for it.
    held: Option<Op>,
}

impl OpGen {
    pub fn new(seed: u64, mix: &'static [(u32, Kind)], max_len: usize) -> Self {
        OpGen {
            rng: StdRng::seed_from_u64(seed),
            mix,
            max_len,
            dirty: false,
            held: None,
        }
    }

    fn pick(&mut self, data_only: bool) -> Kind {
        let arms = self
            .mix
            .iter()
            .filter(|(_, k)| !data_only || (*k as u8) <= Kind::Read as u8);
        let mut n = self
            .rng
            .gen_range(0..arms.clone().map(|&(w, _)| w).sum::<u32>());
        for &(w, kind) in arms {
            if n < w {
                return kind;
            }
            n -= w;
        }
        unreachable!("weighted pick out of range")
    }

    fn draw(&mut self, kind: Kind) -> Op {
        let (at, len) = (
            self.rng.gen_range(0.0..=1.0),
            self.rng.gen_range(1..=self.max_len),
        );
        match kind {
            Kind::Append => Op::Append(len),
            Kind::Insert => Op::Insert(at, len),
            Kind::Delete => Op::Delete(at, len),
            Kind::Replace => Op::Replace(at, len),
            Kind::Read => Op::Read(at, len),
            Kind::Snapshot => Op::Snapshot,
            Kind::Release => Op::Release,
            Kind::Recreate => Op::Recreate,
            Kind::Checkpoint => Op::Checkpoint,
            Kind::Crash => Op::Crash,
            Kind::Txn => {
                let n = self.rng.gen_range(1..=3);
                let kinds: Vec<Kind> = (0..n).map(|_| self.pick(true)).collect();
                let ops = kinds.into_iter().map(|k| self.draw(k)).collect();
                Op::Txn {
                    ops,
                    abort: self.rng.gen(),
                }
            }
        }
    }
}

impl Iterator for OpGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if let Some(op) = self.held.take() {
            self.dirty = true;
            return Some(op);
        }
        let kind = self.pick(false);
        let op = self.draw(kind);
        match kind {
            Kind::Checkpoint | Kind::Crash => self.dirty = false,
            Kind::Read | Kind::Snapshot | Kind::Release => {}
            _ if self.dirty && self.mix.iter().any(|&(_, k)| k == Kind::Crash) => {
                self.held = Some(op);
                return Some(Op::Checkpoint);
            }
            _ => self.dirty = true,
        }
        Some(op)
    }
}

/// Run `case` for every seed a model configuration covers: 256 optimized,
/// `debug_cases` otherwise (the idiom of Starburst's proptest and obs's
/// model test). A failing seed is named before the panic goes on.
pub fn for_seeds(debug_cases: u64, mut case: impl FnMut(u64)) {
    let cases = if cfg!(debug_assertions) {
        debug_cases
    } else {
        256
    };
    for seed in 0..cases {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| case(seed))) {
            eprintln!("model configuration failed at seed {seed}");
            resume_unwind(panic);
        }
    }
}

/// Panic with the first differing offset unless `got == want`.
pub fn assert_same(got: &[u8], want: &[u8], what: &str) {
    if got != want {
        let at = got.iter().zip(want).position(|(a, b)| a != b);
        let (n, m) = (got.len(), want.len());
        panic!("{what}: {n} bytes where {m} are expected, first difference at {at:?}");
    }
}

/// A version pinned by [`Op::Snapshot`]: the handle, the object's root
/// then, and the bytes the model held.
struct Pin {
    snap: Snapshot,
    root: u32,
    bytes: Vec<u8>,
}

/// One object driven in lockstep with its [`Model`]. The database is
/// passed to every call, so it may live inside a `SharedDb`.
pub struct Driver {
    spec: ManagerSpec,
    /// The object under test (reopened after every crash).
    pub obj: Box<dyn LargeObject>,
    /// Its reference model.
    pub model: Model,
    /// META pages the database keeps beside the object (a catalog
    /// chain): the walk's other roots. With the log on they must be the
    /// log's plain roots (`Db::alloc_root(None)`).
    pub other_meta: Vec<u32>,
    /// Pinned versions, oldest first.
    pins: Vec<Pin>,
    /// Ops applied so far, transaction members included; seeds payloads.
    step: u64,
}

impl Driver {
    /// Create an empty object of `spec` in `db`.
    pub fn new(db: &mut Db, spec: ManagerSpec) -> Self {
        Driver {
            obj: spec.create(db).expect("create"),
            model: Model {
                alloc_log: db.config().alloc_log,
                ..Model::default()
            },
            spec,
            other_meta: Vec::new(),
            pins: Vec::new(),
            step: 0,
        }
    }

    /// [`Driver::apply`] each of `ops` in turn.
    pub fn run(&mut self, db: &mut Db, ops: impl IntoIterator<Item = Op>) {
        for op in ops {
            self.apply(db, &op);
        }
    }

    /// Apply `op` to the object and the model, then check them.
    pub fn apply(&mut self, db: &mut Db, op: &Op) {
        let what = format!("{} op {} {op:?}", self.spec.label(), self.step);
        let whole = match op {
            Op::Checkpoint => {
                db.checkpoint();
                self.model.checkpoint();
                false
            }
            Op::Crash => {
                let states = self.model.crash_states(op, self.live_after(op));
                let root = self.obj.root_page();
                self.reboot(db, root, &states, &what);
                true
            }
            Op::Snapshot => {
                self.pins.push(Pin {
                    snap: db.snapshot(),
                    root: self.obj.root_page(),
                    bytes: self.model.live.clone(),
                });
                false
            }
            Op::Release => {
                if !self.pins.is_empty() {
                    release(db, self.pins.remove(0), &what);
                }
                false
            }
            Op::Recreate => {
                self.obj.destroy(db).expect("destroy");
                self.obj = self.spec.create(db).expect("create");
                self.model.live.clear();
                self.model.committed();
                false
            }
            Op::Txn { ops, abort } => {
                let mut scratch = self.model.live.clone();
                let (obj, step) = (&mut self.obj, &mut self.step);
                let result = db.txn(|db| {
                    for op in ops {
                        edit(db, obj.as_mut(), &mut scratch, op, step);
                    }
                    if *abort {
                        Err(LobError::Corrupt("injected abort".into()))
                    } else {
                        Ok(())
                    }
                });
                match result {
                    Err(LobError::Corrupt(_)) if *abort => {}
                    Ok(()) if !abort => {
                        self.model.live = scratch;
                        self.model.committed();
                    }
                    other => panic!("{what}: {other:?}"),
                }
                true
            }
            _ => {
                if edit(
                    db,
                    self.obj.as_mut(),
                    &mut self.model.live,
                    op,
                    &mut self.step,
                ) {
                    self.model.committed();
                }
                false
            }
        };
        self.step += 1;
        let label = self.spec.label();
        self.verify(db, &[(label.as_str(), self.obj.as_ref())], &what);
        assert_eq!(
            self.obj.size(db),
            self.model.live.len() as u64,
            "{what}: size"
        );
        if whole {
            assert_same(&self.obj.snapshot(db), &self.model.live, &what);
        }
    }

    /// Run `op` with the disk failing from its `at.write`-th write call on
    /// (`SimDisk::fail_stop`), then crash, reboot and hold the store to
    /// the crash rule: the object reads back as the durable bytes from
    /// before `op` or from after it, and those become the model's. A
    /// panic once writes are lost is expected, since later reads may see
    /// stale pages, and is caught; a panic before the fault would have
    /// failed the fault-free run of the same history already. Returns the
    /// walk's findings: none, except after a log-off checkpoint cut
    /// short — only the log makes a checkpoint atomic, and a half-flushed
    /// one leaves pages that are referenced but free on disk, or
    /// allocated and unreachable (dangling and leaked findings, nothing
    /// else).
    ///
    /// # Panics
    /// On `Op::Recreate`, which commits twice (destroy, then create), so
    /// is not one op for the crash rule; and where the rule fails.
    pub fn crash_during(&mut self, db: &mut Db, op: &Op, at: CrashPoint) -> Vec<Finding> {
        assert!(
            !matches!(op, Op::Recreate),
            "Recreate commits twice: not one op for the crash rule"
        );
        let what = format!(
            "{} op {} {op:?} cut at {at:?}",
            self.spec.label(),
            self.step
        );
        let states = self.model.crash_states(op, self.live_after(op));
        let root = self.obj.root_page();
        let first = db.io_stats().write_calls;
        db.pool()
            .disk()
            .fail_stop(Some((first + at.write, at.torn)));
        let _expected = quietly(|| self.apply(db, op));
        db.pool().disk().fail_stop(None);
        self.reboot(db, root, &states, &what);
        let label = self.spec.label();
        let findings = db.verify(&[(label.as_str(), self.obj.as_ref())], &self.other_meta);
        let gap = !self.model.alloc_log && matches!(op, Op::Checkpoint);
        let half_flushed = |f: &Finding| {
            gap && matches!(
                f,
                Finding::LeafDangling { .. }
                    | Finding::MetaDangling { .. }
                    | Finding::LeafLeaked { .. }
                    | Finding::MetaLeaked { .. }
            )
        };
        if !findings.iter().all(half_flushed) {
            let lines: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
            panic!("{what}: {}", lines.join("; "));
        }
        findings
    }

    /// The live bytes once `op` has run: a data op's splice, a committed
    /// transaction's splices in turn, nothing else (payloads seeded as
    /// [`Self::apply`] seeds them).
    fn live_after(&self, op: &Op) -> Vec<u8> {
        let mut bytes = self.model.live.clone();
        let members = match op {
            Op::Txn { abort: true, .. } => &[][..],
            Op::Txn { ops, .. } => ops.as_slice(),
            op => std::slice::from_ref(op),
        };
        for (step, op) in (self.step + 1..).zip(members) {
            if let Some((off, cut, put)) = splice(op, &bytes, step) {
                bytes.splice(off..off + cut, put);
            }
        }
        bytes
    }

    /// Crash and reboot, reopen the object at `root`, and take whichever
    /// of the crash rule's `states` it reads back as the model's bytes.
    /// Every pin is dropped: snapshots are in-memory handles.
    fn reboot(&mut self, db: &mut Db, root: u32, states: &[Vec<u8>; 2], what: &str) {
        db.crash_and_reboot();
        self.pins.clear();
        self.obj = self
            .spec
            .open(db, root)
            .unwrap_or_else(|e| panic!("{what}: reopen after crash: {e}"));
        let got = self.obj.snapshot(db);
        if !states.contains(&got) {
            assert_same(&got, &states[0], &format!("{what}: crash before the op"));
            assert_same(&got, &states[1], &format!("{what}: crash after the op"));
        }
        self.model.recovered(got);
    }

    /// Panic with every finding unless the walk from `objects` and
    /// [`Self::other_meta`] is clean.
    fn verify(&self, db: &Db, objects: &[(&str, &dyn LargeObject)], what: &str) {
        let findings = db.verify(objects, &self.other_meta);
        if !findings.is_empty() {
            let lines: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
            panic!("{what}: {}", lines.join("; "));
        }
    }

    /// Every pinned version reads back as recorded, the final bytes equal
    /// the model, and after `destroy` the walk finds no page left.
    pub fn finish(mut self, db: &mut Db) {
        let label = self.spec.label();
        for pin in std::mem::take(&mut self.pins) {
            release(db, pin, &label);
        }
        assert_same(&self.obj.snapshot(db), &self.model.live, &label);
        self.obj.destroy(db).expect("destroy");
        self.verify(db, &[], &format!("{label}: after destroy"));
    }
}

/// Stream `pin`'s version, compare it with the bytes recorded at the pin,
/// and release it.
fn release(db: &mut Db, pin: Pin, what: &str) {
    let mut reader = SnapshotReader::new(db, &pin.snap, pin.root).expect("pinned root");
    let got = reader.read_to_end(db);
    assert_same(&got, &pin.bytes, &format!("{what}: pinned version"));
    db.release_snapshot(pin.snap);
}

/// Run `f`, catching a panic without printing it: a panic after a
/// fail-stop point is expected. Other threads' panics print as before.
fn quietly<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    thread_local! {
        static QUIET: Cell<bool> = const { Cell::new(false) };
    }
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let loud = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                loud(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let r = catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    r
}

/// The splice update `op` makes to `bytes`, its payload seeded by
/// `step`: `(offset, bytes cut, bytes put)`. Inserts cut nothing,
/// deletes put nothing. `None` for a read, an op that touches nothing,
/// and an op that is not a data op.
fn splice(op: &Op, bytes: &[u8], step: u64) -> Option<(usize, usize, Vec<u8>)> {
    let (at, len, insert) = match *op {
        Op::Append(len) => (1.0, len, true),
        Op::Insert(at, len) => (at, len, true),
        Op::Delete(at, len) | Op::Replace(at, len) => (at, len, false),
        _ => return None,
    };
    let (off, len) = resolve(bytes.len(), at, len, insert)?;
    Some(match op {
        Op::Delete(..) => (off, len, Vec::new()),
        Op::Replace(..) => (off, len, fill(len, step)),
        _ => (off, 0, fill(len, step)),
    })
}

/// Apply data op `op` to `obj` and to `bytes`, payloads seeded by `step`
/// (advanced); a read compares. `false` when `op` changed nothing.
fn edit(
    db: &mut Db,
    obj: &mut dyn LargeObject,
    bytes: &mut Vec<u8>,
    op: &Op,
    step: &mut u64,
) -> bool {
    *step += 1;
    if let Op::Read(at, len) = *op {
        if let Some((off, len)) = resolve(bytes.len(), at, len, false) {
            let mut out = vec![0u8; len];
            obj.read(db, off as u64, &mut out).expect("read");
            assert_same(&out, &bytes[off..off + len], &format!("read({off}, {len})"));
        }
        return false;
    }
    let Some((off, cut, put)) = splice(op, bytes, *step) else {
        return false;
    };
    match op {
        Op::Append(_) => obj.append(db, &put),
        Op::Insert(..) => obj.insert(db, off as u64, &put),
        Op::Delete(..) => obj.delete(db, off as u64, cut as u64),
        _ => obj.replace(db, off as u64, &put),
    }
    .unwrap_or_else(|e| panic!("{op:?}: {e}"));
    bytes.splice(off..off + cut, put);
    true
}
