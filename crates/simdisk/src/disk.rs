//! The simulated disk itself.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use lobstore_obs::sync::{self, Guard, Rank};

use crate::cost::CostModel;
use crate::metrics as m;
use crate::stats::IoStats;
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::{cast, AreaId, PAGE_SIZE};

type PageBox = Box<[u8; PAGE_SIZE]>;

/// How far past the contiguous frontier a write may land and still grow
/// the arena (rather than falling back to the sparse map): 4096 pages of
/// zero-filled slack at most (16 MB), so densely packed areas stay in one
/// allocation while a stray far-off write cannot balloon memory.
const ARENA_GROW_SLACK_PAGES: usize = 4096;

/// The smallest arena copy a read splits across cores. Below it, starting
/// and joining a helper thread costs more than the half copy it takes
/// over (DESIGN.md §12, "Extent-backed page store").
const SPLIT_MIN_BYTES: usize = 1 << 20;

/// The smallest piece of a split copy: a copy is cut into at most
/// `len / SPLIT_PIECE_BYTES` pieces, one per core.
const SPLIT_PIECE_BYTES: usize = 512 << 10;

/// Stack of a copy helper thread, which only runs one `copy_from_slice`.
const SPLIT_HELPER_STACK: usize = 64 << 10;

/// How many cores this process may use, read once: the standard library
/// asks the cgroup files each time, far too slow for every read.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many pieces an arena copy of `len` bytes is cut into: one below
/// [`SPLIT_MIN_BYTES`] or on one core, else one per core, each at least
/// [`SPLIT_PIECE_BYTES`].
fn split_pieces(len: usize) -> usize {
    if len < SPLIT_MIN_BYTES {
        1
    } else {
        cores().min(len / SPLIT_PIECE_BYTES)
    }
}

/// The length of each piece but the last when a `len`-byte copy is cut
/// into `pieces`: whole pages, so every cut falls on a page boundary, and
/// 0 when the copy has fewer pages than pieces (or no pieces).
fn piece_bytes(len: usize, pieces: usize) -> usize {
    len.checked_div(pieces).unwrap_or(0) / PAGE_SIZE * PAGE_SIZE
}

/// `dst.copy_from_slice(src)`, cut into `pieces` pieces that run at once:
/// the calling thread copies the last, scoped helper threads the others,
/// and all are joined before this returns. Each piece but the last is
/// [`piece_bytes`] long, and the last takes the remainder; with fewer
/// than two pieces, or pages, it is one serial copy. A piece whose helper
/// cannot be started is copied by the caller after the others.
///
/// # Panics
/// If `dst` and `src` differ in length, as `copy_from_slice` does.
fn copy_split(dst: &mut [u8], src: &[u8], pieces: usize) {
    // A serial copy, the common case, pays no division.
    let step = if pieces < 2 {
        0
    } else {
        piece_bytes(dst.len(), pieces)
    };
    if step == 0 {
        dst.copy_from_slice(src);
        return;
    }
    // `step * (pieces - 1) <= dst.len()` by `piece_bytes`'s division.
    let cut = step * (pieces - 1);
    let (helped, own) = dst.split_at_mut(cut);
    let (helped_src, own_src) = src.split_at(cut);
    // A helper takes its piece out of its slot, so a piece whose thread
    // never started is still in its slot after the scope.
    let mut slots: Vec<_> = helped
        .chunks_mut(step)
        .zip(helped_src.chunks(step))
        .map(Some)
        .collect();
    std::thread::scope(|s| {
        for slot in &mut slots {
            let copy = move || {
                if let Some((d, from)) = slot.take() {
                    d.copy_from_slice(from);
                }
            };
            // A failed start hands back nothing; its slot stays full.
            let _started = std::thread::Builder::new()
                .stack_size(SPLIT_HELPER_STACK)
                .spawn_scoped(s, copy);
        }
        own.copy_from_slice(own_src);
    });
    for (d, from) in slots.into_iter().flatten() {
        d.copy_from_slice(from);
    }
}

/// One database area: an extent-backed page store.
///
/// Pages `[0, arena_pages)` live contiguously in `arena` (page `p` at
/// byte offset `p * PAGE_SIZE`), so a multi-page run moves with one
/// slice copy instead of one map lookup and copy per page; a read of
/// 1 MiB or more of the arena is cut into page-aligned pieces copied on
/// every core at once ([`copy_split`]). Writes far beyond the frontier
/// land in the `sparse` fallback map and are migrated into the arena
/// when it later grows over them.
///
/// Pages are still materialized lazily — a never-written page reads as
/// zeroes, like a freshly formatted volume — with one bit per arena page
/// tracking what has actually been written (`materialized_*` metrics and
/// the image format depend on this, so the arena's zero slack is not
/// "materialized").
#[derive(Default)]
struct Area {
    arena: Vec<u8>,
    /// One bit per arena page: has it ever been written?
    present: Vec<u64>,
    /// Pages beyond the arena frontier. Invariant: every key is
    /// `>= arena_pages()`.
    sparse: std::collections::BTreeMap<u32, PageBox>,
}

impl Area {
    fn arena_pages(&self) -> usize {
        self.arena.len() / PAGE_SIZE
    }

    fn bit(&self, idx: usize) -> bool {
        (self.present[idx / 64] >> (idx % 64)) & 1 == 1
    }

    fn set_bit(&mut self, idx: usize) {
        self.present[idx / 64] |= 1 << (idx % 64);
    }

    /// Grow the arena to hold pages `[0, pages)`, migrating sparse pages
    /// that now fall inside the frontier.
    fn grow_arena(&mut self, pages: usize) {
        if pages <= self.arena_pages() {
            return;
        }
        // `pages` fits the 32-bit page-number space, so the byte product
        // fits a 64-bit usize.
        // loblint: allow(arith-overflow)
        self.arena.resize(pages * PAGE_SIZE, 0);
        self.present.resize(pages.div_ceil(64), 0);
        let beyond = self.sparse.split_off(&cast::usize_to_u32(pages));
        let moved = std::mem::replace(&mut self.sparse, beyond);
        for (page, content) in moved {
            let idx = cast::u32_to_usize(page);
            self.arena[idx * PAGE_SIZE..(idx + 1) * PAGE_SIZE].copy_from_slice(&content[..]);
            self.set_bit(idx);
        }
    }

    /// Store `data` on pages starting at `start`; a partial final page
    /// keeps its remaining bytes (read-modify-write).
    fn copy_in(&mut self, start: u32, data: &[u8]) {
        let n_pages = data.len().div_ceil(PAGE_SIZE);
        let first = cast::u32_to_usize(start);
        if first <= self.arena_pages() + ARENA_GROW_SLACK_PAGES {
            self.grow_arena(first + n_pages);
            let off = first * PAGE_SIZE;
            self.arena[off..off + data.len()].copy_from_slice(data);
            for p in first..first + n_pages {
                self.set_bit(p);
            }
        } else {
            for (i, chunk) in data.chunks(PAGE_SIZE).enumerate() {
                let page = self
                    .sparse
                    .entry(start + cast::usize_to_u32(i))
                    .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
                page[..chunk.len()].copy_from_slice(chunk);
            }
        }
    }

    /// Fetch pages starting at `start` into `out`. Never materializes;
    /// absent pages read as zeroes (arena slack already holds zeroes).
    /// The arena part is one [`copy_split`] (cut across cores from 1 MiB,
    /// counted in `simdisk.split_reads`); sparse pages are copied one by
    /// one on the calling thread.
    fn copy_out(&self, start: u32, out: &mut [u8]) {
        let first = cast::u32_to_usize(start);
        let arena_bytes = self
            .arena_pages()
            .saturating_sub(first)
            .saturating_mul(PAGE_SIZE)
            .min(out.len());
        if arena_bytes > 0 {
            let off = first * PAGE_SIZE;
            let pieces = split_pieces(arena_bytes);
            if pieces > 1 {
                m::SPLIT_READS.add(1);
            }
            // `arena_bytes` was clamped to both the arena extent past
            // `off` and `out.len()` above, so neither slice can be out
            // of range.
            // loblint: allow(arith-overflow, panic-path)
            let (dst, src) = (&mut out[..arena_bytes], &self.arena[off..off + arena_bytes]);
            copy_split(dst, src, pieces);
        }
        // `first + served pages` stays within the 32-bit page space.
        // loblint: allow(arith-overflow)
        let next = first + arena_bytes / PAGE_SIZE;
        // `arena_bytes <= out.len()` by the clamp above.
        // loblint: allow(panic-path)
        for (i, chunk) in out[arena_bytes..].chunks_mut(PAGE_SIZE).enumerate() {
            match self.sparse.get(&cast::usize_to_u32(next + i)) {
                // `chunk.len() <= PAGE_SIZE`, the length of `p`.
                // loblint: allow(panic-path)
                Some(p) => chunk.copy_from_slice(&p[..chunk.len()]),
                None => chunk.fill(0),
            }
        }
    }

    fn materialized_count(&self) -> usize {
        self.present
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            + self.sparse.len()
    }

    fn materialized_numbers(&self) -> Vec<u32> {
        // Arena pages (bit-set, ascending) first, then sparse keys — the
        // sparse invariant keeps the concatenation sorted.
        let mut out: Vec<u32> = (0..self.arena_pages())
            .filter(|&i| self.bit(i))
            .map(cast::usize_to_u32)
            .collect();
        out.extend(self.sparse.keys().copied());
        out
    }
}

/// One area behind its own reader/writer latch, so concurrent readers of
/// *different* (or even the same) area proceed in parallel: `copy_out`
/// never materializes pages, so a read call only needs the read side.
/// The helper threads of a split copy borrow the two slices under the
/// latch their caller holds and take none of their own.
struct AreaSlot {
    store: RwLock<Area>,
}

impl AreaSlot {
    fn read(&self) -> Guard<RwLockReadGuard<'_, Area>> {
        sync::read(&self.store, Rank::AreaStore)
    }

    fn write(&self) -> Guard<RwLockWriteGuard<'_, Area>> {
        sync::write(&self.store, Rank::AreaStore)
    }
}

/// The five [`IoStats`] counters as atomics, so accounting works through
/// `&self` from concurrent readers without a lock on the hot path.
#[derive(Default)]
struct AtomicIoStats {
    read_calls: AtomicU64,
    write_calls: AtomicU64,
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    time_us: AtomicU64,
}

impl AtomicIoStats {
    fn snapshot(&self) -> IoStats {
        IoStats {
            read_calls: self.read_calls.load(Ordering::Acquire),
            write_calls: self.write_calls.load(Ordering::Acquire),
            pages_read: self.pages_read.load(Ordering::Acquire),
            pages_written: self.pages_written.load(Ordering::Acquire),
            time_us: self.time_us.load(Ordering::Acquire),
        }
    }

    fn reset(&self) {
        self.read_calls.store(0, Ordering::Release);
        self.write_calls.store(0, Ordering::Release);
        self.pages_read.store(0, Ordering::Release);
        self.pages_written.store(0, Ordering::Release);
        self.time_us.store(0, Ordering::Release);
    }
}

/// A simulated multi-area disk that stores real page contents and accounts
/// for every access with the paper's seek/transfer cost model.
///
/// The unit of I/O is the page; one *call* moves `n` physically contiguous
/// pages of a single area and is charged one seek plus `n` page transfers
/// (§3.3, §4.1). There is no notion of caching here — that is the buffer
/// manager's job one layer up.
///
/// Every operation takes `&self`: areas sit behind per-area `RwLock`s
/// (reads share, writes exclude), the statistics are atomics, and the
/// optional trace is mutex-guarded — a mutex no call takes until a trace
/// has been enabled. A call is charged on the calling thread before any
/// byte moves, so costs, counter order and the trace stream depend only
/// on the sequence of calls. A read or peek of 1 MiB or more of an
/// area's dense arena copies its bytes on every core the process may
/// use, on scoped threads joined before the call returns; writes and
/// the pages past the arena are always copied by the calling thread.
///
/// A fail-stop point ([`Self::fail_stop`]) simulates a crash at a write
/// call: from that call on, writes are charged but their bytes are lost.
pub struct SimDisk {
    areas: Vec<AreaSlot>,
    cost: CostModel,
    stats: AtomicIoStats,
    trace: Mutex<Option<Trace>>,
    /// Set, and never cleared, once [`Self::enable_trace`] has stored a
    /// trace; `charge` leaves the `trace` mutex alone until then. A call
    /// racing `enable_trace` may go unrecorded, as it could before by
    /// winning the race for the mutex.
    tracing: AtomicBool,
    /// The write call (numbered as `write_calls` counts them) from which
    /// writes are lost; `u64::MAX` when no fail-stop point is set.
    fail_at: AtomicU64,
    /// Pages of the write call at `fail_at` that still land.
    torn_pages: AtomicU32,
}

impl SimDisk {
    /// Create a disk with `n_areas` empty areas and the given cost model.
    pub fn new(n_areas: u8, cost: CostModel) -> Self {
        SimDisk {
            areas: (0..n_areas)
                .map(|_| AreaSlot {
                    store: RwLock::new(Area::default()),
                })
                .collect(),
            cost,
            stats: AtomicIoStats::default(),
            trace: Mutex::new(None),
            tracing: AtomicBool::new(false),
            fail_at: AtomicU64::new(u64::MAX),
            torn_pages: AtomicU32::new(0),
        }
    }

    /// A two-area disk (META + LEAF) with the paper's default cost model.
    pub fn paper_default() -> Self {
        SimDisk::new(2, CostModel::default())
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Cumulative statistics since creation (or the last [`Self::reset_stats`]).
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Zero all counters. Page contents are unaffected.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Start recording up to `capacity` I/O calls; see [`Self::take_trace`].
    pub fn enable_trace(&self, capacity: usize) {
        let trace = Trace::new(capacity);
        let mut g = self.lock_trace();
        *g = Some(trace);
        self.tracing.store(true, Ordering::Release);
    }

    /// Drain the recorded trace (empty if tracing was never enabled).
    /// Also resets the dropped-event count.
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        let mut g = self.lock_trace();
        g.as_mut().map(Trace::take).unwrap_or_default()
    }

    /// Number of I/O calls the trace discarded because its buffer was
    /// full since the last [`Self::take_trace`]. A test asserting on an
    /// exact trace must check this is zero, or its assertions run
    /// against a truncated event stream.
    pub fn trace_dropped(&self) -> u64 {
        let g = self.lock_trace();
        g.as_ref().map(Trace::dropped).unwrap_or(0)
    }

    fn lock_trace(&self) -> Guard<MutexGuard<'_, Option<Trace>>> {
        sync::lock(&self.trace, Rank::DiskTrace)
    }

    fn slot(&self, area: AreaId) -> &AreaSlot {
        self.areas
            .get(area.0 as usize)
            .unwrap_or_else(|| panic!("no such disk area {area}"))
    }

    /// Set or lift ([`None`]) a fail-stop point: `Some((call, torn_pages))`
    /// loses every write from write call `call` on, numbered as
    /// [`IoStats::write_calls`] counts them (the next write is call
    /// `stats().write_calls`; [`Self::reset_stats`] renumbers), except the
    /// first `torn_pages` pages of call `call` itself — a torn write.
    /// Lost writes are charged and traced like any other; reads are still
    /// served, so a page whose write was lost reads back stale. `poke` is
    /// not a write call and always lands.
    pub fn fail_stop(&self, at: Option<(u64, u32)>) {
        let (call, torn) = at.unwrap_or((u64::MAX, 0));
        self.torn_pages.store(torn, Ordering::Release);
        self.fail_at.store(call, Ordering::Release);
    }

    /// Charge one call and return its number among the calls of its kind.
    fn charge(&self, kind: TraceKind, area: AreaId, start: u32, pages: u32) -> u64 {
        let cost = self.cost.io_cost_us(pages);
        // Monotone counters: saturation past u64::MAX is not observable
        // in practice, so plain atomic adds keep the hot path lock-free.
        let call = match kind {
            TraceKind::Read => {
                let call = self.stats.read_calls.fetch_add(1, Ordering::AcqRel);
                self.stats
                    .pages_read
                    .fetch_add(u64::from(pages), Ordering::AcqRel);
                call
            }
            TraceKind::Write => {
                let call = self.stats.write_calls.fetch_add(1, Ordering::AcqRel);
                self.stats
                    .pages_written
                    .fetch_add(u64::from(pages), Ordering::AcqRel);
                call
            }
        };
        self.stats.time_us.fetch_add(cost, Ordering::AcqRel);
        // Observability: per-area call/page counters and cost-shape
        // histograms, through static handles.
        let (calls, moved) = match (kind, area.0) {
            (TraceKind::Read, 0) => (&m::META_READ_CALLS, &m::META_PAGES_READ),
            (TraceKind::Read, 1) => (&m::LEAF_READ_CALLS, &m::LEAF_PAGES_READ),
            (TraceKind::Read, _) => (&m::OTHER_READ_CALLS, &m::OTHER_PAGES_READ),
            (TraceKind::Write, 0) => (&m::META_WRITE_CALLS, &m::META_PAGES_WRITTEN),
            (TraceKind::Write, 1) => (&m::LEAF_WRITE_CALLS, &m::LEAF_PAGES_WRITTEN),
            (TraceKind::Write, _) => (&m::OTHER_WRITE_CALLS, &m::OTHER_PAGES_WRITTEN),
        };
        calls.add(1);
        moved.add(u64::from(pages));
        m::SEEK_US.record(self.cost.seek_us);
        m::TRANSFER_US.record(cost - self.cost.seek_us);
        m::CALL_PAGES.record(u64::from(pages));
        if self.tracing.load(Ordering::Acquire) {
            let event = TraceEvent {
                kind,
                area,
                start,
                pages,
                cost_us: cost,
            };
            let mut g = self.lock_trace();
            if let Some(t) = g.as_mut() {
                t.record(event);
            }
        }
        call
    }

    /// One read call: fetch `ceil(out.len() / PAGE_SIZE)` contiguous pages
    /// starting at `start_page` into `out`.
    ///
    /// Cost: one seek + one page transfer per page touched, even if `out`
    /// ends mid-page — the disk always moves whole pages. The call is
    /// charged before the copy; a copy of 1 MiB or more of the arena is
    /// split across cores (see [`SimDisk`]), which changes no count.
    ///
    /// # Panics
    /// If `out` is empty or the area does not exist.
    pub fn read(&self, area: AreaId, start_page: u32, out: &mut [u8]) {
        assert!(!out.is_empty(), "zero-length disk read");
        let n_pages = cast::usize_to_u32(out.len().div_ceil(PAGE_SIZE));
        let slot = self.slot(area);
        self.charge(TraceKind::Read, area, start_page, n_pages);
        let a = slot.read();
        a.copy_out(start_page, out);
    }

    /// One write call: store `data` on `ceil(data.len() / PAGE_SIZE)`
    /// contiguous pages starting at `start_page`.
    ///
    /// If `data` ends mid-page, the remaining bytes of the final page are
    /// left untouched (read-modify-write of the trailing page); the cost
    /// still charges the whole page, as the disk moves whole pages. Past
    /// a fail-stop point ([`Self::fail_stop`]) the call is charged and
    /// stores nothing, or only a page-prefix of `data`.
    ///
    /// # Panics
    /// If `data` is empty or the area does not exist.
    pub fn write(&self, area: AreaId, start_page: u32, data: &[u8]) {
        assert!(!data.is_empty(), "zero-length disk write");
        let n_pages = cast::usize_to_u32(data.len().div_ceil(PAGE_SIZE));
        let slot = self.slot(area);
        let call = self.charge(TraceKind::Write, area, start_page, n_pages);
        let fail_at = self.fail_at.load(Ordering::Acquire);
        let data = if call < fail_at {
            data
        } else if call == fail_at {
            let torn = cast::u32_to_usize(self.torn_pages.load(Ordering::Acquire));
            data.get(..torn.saturating_mul(PAGE_SIZE)).unwrap_or(data)
        } else {
            return;
        };
        if data.is_empty() {
            return;
        }
        let mut a = slot.write();
        a.copy_in(start_page, data);
    }

    /// Cost-free read used by verification code and by the buffer manager
    /// when overlaying already-resident pages. Not part of the simulated
    /// I/O stream. Its copy is [`Self::read`]'s, split across cores from
    /// 1 MiB of arena alike.
    pub fn peek(&self, area: AreaId, start_page: u32, out: &mut [u8]) {
        let slot = self.slot(area);
        let a = slot.read();
        a.copy_out(start_page, out);
    }

    /// Cost-free write, for tests and debugging only.
    pub fn poke(&self, area: AreaId, start_page: u32, data: &[u8]) {
        let slot = self.slot(area);
        let mut a = slot.write();
        a.copy_in(start_page, data);
    }

    /// Number of pages ever materialized in `area` (a memory-usage metric,
    /// not a cost metric).
    pub fn materialized_pages(&self, area: AreaId) -> usize {
        let slot = self.slot(area);
        let a = slot.read();
        a.materialized_count()
    }

    /// Page numbers of every materialized page in `area`, ascending.
    pub fn materialized_page_numbers(&self, area: AreaId) -> Vec<u32> {
        let slot = self.slot(area);
        let a = slot.read();
        a.materialized_numbers()
    }

    /// Number of areas on this disk.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "`new` builds `areas` from a `u8` count and nothing grows it"
    )]
    pub fn n_areas(&self) -> u8 {
        self.areas.len() as u8
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the device's own tests drive it without a pool"
)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::paper_default()
    }

    #[test]
    fn read_of_unwritten_pages_is_zeroes() {
        let d = disk();
        let mut buf = vec![0xAAu8; PAGE_SIZE * 2];
        d.read(AreaId::META, 7, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_then_read_roundtrips() {
        let d = disk();
        let data: Vec<u8> = (0..PAGE_SIZE * 3).map(|i| (i % 251) as u8).collect();
        d.write(AreaId::LEAF, 10, &data);
        let mut out = vec![0u8; data.len()];
        d.read(AreaId::LEAF, 10, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn costs_match_paper_examples() {
        let d = disk();
        let mut buf = vec![0u8; PAGE_SIZE * 3];
        d.read(AreaId::LEAF, 0, &mut buf);
        // One call, 3 pages: 33 + 4*3 = 45 ms.
        assert_eq!(d.stats().time_us, 45_000);
        d.reset_stats();
        for p in 0..3 {
            d.read(AreaId::LEAF, p, &mut buf[..PAGE_SIZE]);
        }
        // Three calls of 1 page: (33 + 4) * 3 = 111 ms.
        assert_eq!(d.stats().time_us, 111_000);
        assert_eq!(d.stats().read_calls, 3);
        assert_eq!(d.stats().pages_read, 3);
    }

    #[test]
    fn partial_page_write_preserves_rest_of_page() {
        let d = disk();
        let full = vec![0xFFu8; PAGE_SIZE];
        d.write(AreaId::META, 0, &full);
        d.write(AreaId::META, 0, &[1, 2, 3]);
        let mut out = vec![0u8; PAGE_SIZE];
        d.read(AreaId::META, 0, &mut out);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert!(out[3..].iter().all(|&b| b == 0xFF));
        // Both writes charged one full page.
        assert_eq!(d.stats().pages_written, 2);
    }

    #[test]
    fn partial_page_read_charges_whole_page() {
        let d = disk();
        let mut small = [0u8; 100];
        d.read(AreaId::META, 0, &mut small);
        assert_eq!(d.stats().pages_read, 1);
        assert_eq!(d.stats().time_us, 37_000); // 33 + 4 ms
    }

    #[test]
    fn peek_and_poke_are_free() {
        let d = disk();
        d.poke(AreaId::META, 0, &[9u8; 64]);
        let mut out = [0u8; 64];
        d.peek(AreaId::META, 0, &mut out);
        assert_eq!(out, [9u8; 64]);
        assert_eq!(d.stats(), IoStats::default());
    }

    /// From the fail-stop call on, writes are charged and lost, but the
    /// call at the point keeps its torn page-prefix; reads are served,
    /// and lifting the point lets writes land again.
    #[test]
    fn a_fail_stop_point_loses_later_writes_and_tears_its_own() {
        let d = disk();
        let page = |b: u8, n: usize| vec![b; PAGE_SIZE * n];
        d.write(AreaId::LEAF, 0, &page(1, 3));
        d.fail_stop(Some((2, 1)));
        d.write(AreaId::LEAF, 0, &page(2, 3));
        d.write(AreaId::LEAF, 0, &page(3, 3));
        d.write(AreaId::LEAF, 0, &page(4, 3));
        let mut out = page(0, 3);
        d.read(AreaId::LEAF, 0, &mut out);
        assert_eq!(out[..PAGE_SIZE], page(3, 1)[..], "call 2 keeps one page");
        assert_eq!(out[PAGE_SIZE..], page(2, 2)[..], "the rest is call 1's");
        assert_eq!(d.stats().write_calls, 4, "lost writes are charged");
        assert_eq!(d.stats().pages_written, 12);
        d.fail_stop(None);
        d.write(AreaId::LEAF, 0, &page(5, 1));
        d.read(AreaId::LEAF, 0, &mut out[..PAGE_SIZE]);
        assert_eq!(out[..PAGE_SIZE], page(5, 1)[..]);
    }

    #[test]
    fn trace_records_calls() {
        let d = disk();
        d.enable_trace(16);
        d.write(AreaId::LEAF, 5, &[0u8; PAGE_SIZE * 2]);
        let mut buf = [0u8; 10];
        d.read(AreaId::LEAF, 5, &mut buf);
        let t = d.take_trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].kind, TraceKind::Write);
        assert_eq!(t[0].pages, 2);
        assert_eq!(t[1].kind, TraceKind::Read);
        assert_eq!(t[1].pages, 1);
    }

    #[test]
    fn trace_overflow_is_counted() {
        let d = disk();
        d.enable_trace(2);
        assert_eq!(d.trace_dropped(), 0);
        let mut buf = [0u8; 8];
        for p in 0..5 {
            d.read(AreaId::META, p, &mut buf);
        }
        assert_eq!(d.trace_dropped(), 3);
        assert_eq!(d.take_trace().len(), 2);
        assert_eq!(d.trace_dropped(), 0, "take_trace resets the count");
    }

    #[test]
    fn trace_dropped_is_zero_without_tracing() {
        let d = disk();
        let mut buf = [0u8; 8];
        d.read(AreaId::META, 0, &mut buf);
        assert_eq!(d.trace_dropped(), 0);
    }

    #[test]
    fn charge_bumps_per_area_obs_counters() {
        lobstore_obs::reset();
        let d = disk();
        d.write(AreaId::LEAF, 0, &[0u8; PAGE_SIZE * 3]);
        let mut buf = [0u8; PAGE_SIZE];
        d.read(AreaId::META, 0, &mut buf);
        assert_eq!(lobstore_obs::counter_value("simdisk.leaf.write_calls"), 1);
        assert_eq!(lobstore_obs::counter_value("simdisk.leaf.pages_written"), 3);
        assert_eq!(lobstore_obs::counter_value("simdisk.meta.read_calls"), 1);
        assert_eq!(lobstore_obs::counter_value("simdisk.meta.pages_read"), 1);
        let snap = lobstore_obs::snapshot();
        let pages = snap.histogram("simdisk.call_pages").expect("histogram");
        assert_eq!(pages.count, 2);
        assert_eq!(pages.sum, 4);
    }

    #[test]
    #[should_panic(expected = "no such disk area")]
    fn bad_area_panics() {
        let d = SimDisk::new(1, CostModel::FREE);
        let mut buf = [0u8; 1];
        d.read(AreaId(3), 0, &mut buf);
    }

    /// A call on an area that does not exist is rejected before anything
    /// is charged: no `IoStats`, no `simdisk.other.*`, no histogram.
    #[test]
    fn bad_area_charges_nothing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        lobstore_obs::reset();
        let d = SimDisk::new(1, CostModel::default());
        let mut buf = [0u8; 1];
        let panics = |call: &mut dyn FnMut()| catch_unwind(AssertUnwindSafe(call)).is_err();
        assert!(panics(&mut || d.read(AreaId(3), 0, &mut buf)));
        assert!(panics(&mut || d.write(AreaId(3), 0, &[1u8; 8])));
        assert_eq!(d.stats(), IoStats::default());
        assert_eq!(
            lobstore_obs::snapshot(),
            lobstore_obs::MetricsSnapshot::default()
        );
    }

    /// `charge` skips the trace mutex until a trace is enabled; enabling
    /// one later records exactly the calls made from then on.
    #[test]
    fn trace_enabled_late_records_only_later_calls() {
        let d = disk();
        let mut buf = [0u8; 8];
        for p in 0..3 {
            d.read(AreaId::META, p, &mut buf);
        }
        assert!(d.take_trace().is_empty());
        assert_eq!(d.trace_dropped(), 0);
        d.enable_trace(2);
        d.write(AreaId::LEAF, 7, &[1u8; PAGE_SIZE]);
        d.read(AreaId::LEAF, 7, &mut buf);
        d.read(AreaId::LEAF, 8, &mut buf);
        assert_eq!(d.trace_dropped(), 1);
        let t = d.take_trace();
        assert_eq!(
            t.iter().map(|e| (e.kind, e.start)).collect::<Vec<_>>(),
            vec![(TraceKind::Write, 7), (TraceKind::Read, 7)]
        );
        assert_eq!(d.trace_dropped(), 0, "take_trace resets the count");
        // The trace stays on after a take, and the untraced prefix was
        // still counted.
        d.read(AreaId::META, 0, &mut buf);
        assert_eq!(d.take_trace().len(), 1);
        assert_eq!(d.stats().read_calls, 6);
    }

    #[test]
    fn materialized_pages_counts_lazily() {
        let d = disk();
        assert_eq!(d.materialized_pages(AreaId::LEAF), 0);
        d.write(AreaId::LEAF, 100, &[0u8; PAGE_SIZE]);
        assert_eq!(d.materialized_pages(AreaId::LEAF), 1);
        let mut buf = [0u8; 8];
        d.read(AreaId::LEAF, 0, &mut buf); // reads don't materialize
        assert_eq!(d.materialized_pages(AreaId::LEAF), 1);
    }

    #[test]
    fn far_write_falls_back_to_sparse_and_migrates_on_growth() {
        let d = disk();
        let far = (ARENA_GROW_SLACK_PAGES as u32) + 50_000;
        d.write(AreaId::LEAF, far, &[7u8; PAGE_SIZE]);
        d.write(AreaId::LEAF, far + 1, &[8u8; 100]);
        assert_eq!(d.materialized_pages(AreaId::LEAF), 2);
        assert_eq!(
            d.materialized_page_numbers(AreaId::LEAF),
            vec![far, far + 1]
        );
        // Sparse pages read back (and partial final pages read as zero).
        let mut out = vec![0xAAu8; 3 * PAGE_SIZE];
        d.read(AreaId::LEAF, far, &mut out);
        assert!(out[..PAGE_SIZE].iter().all(|&b| b == 7));
        assert!(out[PAGE_SIZE..PAGE_SIZE + 100].iter().all(|&b| b == 8));
        assert!(out[PAGE_SIZE + 100..].iter().all(|&b| b == 0));
        // A dense write train marches the arena over the sparse pages;
        // their content must survive the migration.
        let step = ARENA_GROW_SLACK_PAGES as u32;
        let mut at = 0u32;
        while at <= far + 2 {
            d.poke(AreaId::LEAF, at, &[1u8; PAGE_SIZE]);
            at += step;
        }
        let mut back = vec![0u8; PAGE_SIZE + 100];
        d.peek(AreaId::LEAF, far, &mut back);
        assert!(back[..PAGE_SIZE].iter().all(|&b| b == 7));
        assert!(back[PAGE_SIZE..].iter().all(|&b| b == 8));
    }

    #[test]
    fn arena_and_sparse_reads_span_the_frontier() {
        let d = disk();
        d.write(AreaId::LEAF, 0, &[3u8; 2 * PAGE_SIZE]); // arena: pages 0..2
        let far = (ARENA_GROW_SLACK_PAGES as u32) * 3;
        d.write(AreaId::LEAF, far, &[4u8; PAGE_SIZE]); // sparse
        let mut out = vec![0xAAu8; PAGE_SIZE * 4];
        d.read(AreaId::LEAF, 1, &mut out);
        assert!(out[..PAGE_SIZE].iter().all(|&b| b == 3), "arena page");
        assert!(
            out[PAGE_SIZE..].iter().all(|&b| b == 0),
            "past the frontier"
        );
    }

    #[test]
    fn concurrent_readers_see_consistent_pages_and_stats() {
        let d = std::sync::Arc::new(disk());
        let data: Vec<u8> = (0..PAGE_SIZE * 2).map(|i| (i % 241) as u8).collect();
        d.write(AreaId::LEAF, 0, &data);
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let d = d.clone();
                let data = data.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let mut out = vec![0u8; data.len()];
                        d.read(AreaId::LEAF, 0, &mut out);
                        assert_eq!(out, data);
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader");
        }
        let s = d.stats();
        assert_eq!(s.read_calls, 200);
        assert_eq!(s.pages_read, 400);
        assert_eq!(s.write_calls, 1);
    }

    const MIB: usize = 1 << 20;

    fn pattern(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i / 7 + salt) % 251) as u8).collect()
    }

    /// The split copy is `copy_from_slice` cut at page boundaries, for
    /// any piece count, so this runs the same on one core as on many.
    #[test]
    fn split_copy_matches_copy_from_slice() {
        for len in [MIB - 1, MIB, MIB + 1, 3 * MIB + 100, 4 * MIB] {
            let src = pattern(len, len);
            for pieces in [1, 2, 3, 7] {
                let step = piece_bytes(len, pieces);
                assert_eq!(step % PAGE_SIZE, 0, "cuts fall on page boundaries");
                assert!(step > 0, "{len} bytes in {pieces} pieces");
                let last = len - step * (pieces - 1);
                assert!(last >= step, "the last piece takes the remainder");
                let mut dst = vec![0xAAu8; len];
                copy_split(&mut dst, &src, pieces);
                assert!(dst == src, "{len} bytes in {pieces} pieces");
            }
        }
        // Fewer pages than pieces: one serial copy.
        let mut dst = [0u8; 3 * PAGE_SIZE];
        copy_split(&mut dst, &[5u8; 3 * PAGE_SIZE], 7);
        assert!(dst.iter().all(|&b| b == 5));
    }

    #[test]
    fn only_a_large_arena_copy_on_several_cores_splits() {
        assert_eq!(split_pieces(MIB - 1), 1);
        assert_eq!(split_pieces(256 << 10), 1);
        // Two pieces of 512 KiB at most from 1 MiB, eight from 4 MiB.
        assert_eq!(split_pieces(MIB), cores().min(2));
        assert_eq!(split_pieces(4 * MIB), cores().min(8));
    }

    /// A 3 MiB read that crosses the arena frontier into sparse pages:
    /// the arena part (split once it reaches 1 MiB), the zero slack and
    /// the sparse pages all read back.
    #[test]
    fn split_read_across_the_frontier_into_sparse_pages() {
        lobstore_obs::reset();
        let d = disk();
        // Sparse first, while the arena is empty; then the data run that
        // grows the arena to page 4000.
        let (near, far) = (4_200u32, 4_700u32);
        d.write(AreaId::LEAF, near, &[7u8; PAGE_SIZE]);
        d.write(AreaId::LEAF, far, &[8u8; 100]);
        let data = pattern(500 * PAGE_SIZE, 3);
        d.write(AreaId::LEAF, 3_500, &data);
        assert_eq!(d.materialized_page_numbers(AreaId::LEAF).last(), Some(&far));
        let frontier = 4_000u32;
        let expect = |start: u32, len: usize| -> Vec<u8> {
            let mut want = vec![0u8; len];
            for (i, byte) in want.iter_mut().enumerate() {
                let page = start + (i / PAGE_SIZE) as u32;
                *byte = match page {
                    3_500..=3_999 => data[(page - 3_500) as usize * PAGE_SIZE + i % PAGE_SIZE],
                    p if p == near => 7,
                    p if p == far && i % PAGE_SIZE < 100 => 8,
                    _ => 0,
                };
            }
            want
        };
        for (start, arena_pages) in [(frontier - 2, 2usize), (frontier - 300, 300)] {
            let before = lobstore_obs::counter_value("simdisk.split_reads");
            let mut out = vec![0xAAu8; 3 * MIB];
            d.read(AreaId::LEAF, start, &mut out);
            assert!(out == expect(start, 3 * MIB), "read at {start}");
            let split = u64::from(split_pieces(arena_pages * PAGE_SIZE) > 1);
            assert_eq!(
                lobstore_obs::counter_value("simdisk.split_reads") - before,
                split
            );
        }
        if cores() > 1 {
            assert_eq!(lobstore_obs::counter_value("simdisk.split_reads"), 1);
        }
    }

    /// A split read is charged exactly as an unsplit one: one call, its
    /// pages, its cost and one trace event, before the copy.
    #[test]
    fn split_read_charges_one_call() {
        lobstore_obs::reset();
        let d = disk();
        let data = pattern(4 * MIB, 1);
        d.write(AreaId::LEAF, 0, &data);
        d.reset_stats();
        d.enable_trace(4);
        let mut out = vec![0u8; 3 * MIB];
        d.read(AreaId::LEAF, 10, &mut out);
        assert!(out == data[10 * PAGE_SIZE..10 * PAGE_SIZE + 3 * MIB]);
        let pages = (3 * MIB / PAGE_SIZE) as u32;
        let cost = d.cost_model().io_cost_us(pages);
        assert_eq!(
            d.stats(),
            IoStats {
                read_calls: 1,
                pages_read: u64::from(pages),
                time_us: cost,
                ..IoStats::default()
            }
        );
        assert_eq!(
            d.take_trace(),
            vec![TraceEvent {
                kind: TraceKind::Read,
                area: AreaId::LEAF,
                start: 10,
                pages,
                cost_us: cost,
            }]
        );
        assert_eq!(lobstore_obs::counter_value("simdisk.leaf.read_calls"), 1);
        assert_eq!(
            lobstore_obs::counter_value("simdisk.leaf.pages_read"),
            u64::from(pages)
        );
        assert_eq!(
            lobstore_obs::counter_value("simdisk.split_reads"),
            u64::from(cores() > 1)
        );
    }

    /// Four readers split 4 MiB reads of one area at once, every one
    /// spawning helpers under the shared area latch, while a fifth thread
    /// writes a disjoint range of the same area.
    #[test]
    fn concurrent_large_reads_split_under_the_shared_latch() {
        const ROUNDS: u64 = 6;
        const WRITES: u32 = 16;
        let d = disk();
        let data = pattern(4 * MIB, 9);
        d.write(AreaId::LEAF, 0, &data);
        let run_pages = (4 * MIB / PAGE_SIZE) as u32;
        let piece = pattern(16 * PAGE_SIZE, 5);
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..ROUNDS {
                        let mut out = vec![0u8; data.len()];
                        d.read(AreaId::LEAF, 0, &mut out);
                        assert!(out == data, "a split read diverges");
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for i in 0..WRITES {
                    d.write(AreaId::LEAF, run_pages + 16 * i, &piece);
                }
            });
        });
        let s = d.stats();
        assert_eq!(s.read_calls, 4 * ROUNDS);
        assert_eq!(s.pages_read, 4 * ROUNDS * u64::from(run_pages));
        assert_eq!(s.write_calls, 1 + u64::from(WRITES));
        assert_eq!(
            s.pages_written,
            u64::from(run_pages) + u64::from(WRITES) * 16
        );
        let cost = CostModel::default();
        assert_eq!(
            s.time_us,
            4 * ROUNDS * cost.io_cost_us(run_pages)
                + cost.io_cost_us(run_pages)
                + u64::from(WRITES) * cost.io_cost_us(16)
        );
        for i in 0..WRITES {
            let mut back = vec![0u8; piece.len()];
            d.peek(AreaId::LEAF, run_pages + 16 * i, &mut back);
            assert!(back == piece, "write {i}");
        }
    }
}
