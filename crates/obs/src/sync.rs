//! Lock acquisition for the whole workspace: the lock order ([`Rank`])
//! and the only functions that take a lock ([`lock`], [`read`],
//! [`write()`], [`try_read`], [`try_write`]; `clippy.toml` disallows the
//! `std` methods everywhere else).
//!
//! Each helper recovers a poisoned lock. Every lock in the workspace
//! guards state that each update leaves whole, so a panic in another
//! thread's critical section leaves nothing to repair.
//!
//! In builds with `debug_assertions`, and only there, each acquisition
//! also
//!
//! * checks the lock order: it panics with a held/wanted table if the
//!   thread holds a lock of a later [`Rank`], or the very lock it asks
//!   for;
//! * is a yield point of [`schedule`] when the thread runs under one.
//!
//! Release builds compile each helper to the acquisition it replaces.

use std::ops::{Deref, DerefMut};
use std::sync::{
    Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
    TryLockResult,
};

/// The workspace lock order, outermost first. A thread that holds a lock
/// may take another only of the same or a later rank, and never the one
/// it already holds; the same rank on another instance (a second frame's
/// latch) is allowed.
///
/// | rank | lock | guards |
/// |---|---|---|
/// | [`Rank::SharedDb`] | `SharedDb.inner` | the database: writers exclusive, snapshot scans shared |
/// | [`Rank::PoolCtl`] | `BufferPool.ctl` | the pool's frame table, LRU clock and counters |
/// | [`Rank::FrameBytes`] | `Frame.bytes` | one frame's page bytes; a page guard holds it for its lifetime |
/// | [`Rank::AreaStore`] | `AreaSlot.store` | one disk area's pages |
/// | [`Rank::DiskTrace`] | `SimDisk.trace` | the disk's I/O trace |
/// | [`Rank::MetricSlots`] | `obs::SLOTS` | the process-wide metric slot ↔ name table |
///
/// Not ranked, because none of them can make one thread wait for
/// another's lock:
///
/// * a page pin, which is a fix count in the frame table, not a lock. A
///   page guard's lock is its frame latch, so a thread that holds a page
///   guard makes no other pool call until it drops the guard: every pool
///   call takes `BufferPool.ctl`, an earlier rank;
/// * the thread-local `RefCell`s (metric cells, event sink), which no
///   other thread can reach;
/// * simdisk's `cores()` `OnceLock`, whose initialiser takes no lock.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// `SharedDb.inner`.
    SharedDb,
    /// `BufferPool.ctl`.
    PoolCtl,
    /// `Frame.bytes`.
    FrameBytes,
    /// `AreaSlot.store`.
    AreaStore,
    /// `SimDisk.trace`.
    DiskTrace,
    /// `obs::SLOTS`.
    MetricSlots,
}

/// A held lock: derefs to the `std` guard's target and releases the lock
/// when dropped.
pub struct Guard<G> {
    guard: G,
    // Declared after `guard`, so the lock is released before the thread
    // stops counting it as held.
    #[cfg(debug_assertions)]
    _held: check::Held,
}

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

/// The guard inside a poisoned lock: every acquisition recovers here.
fn recover<G>(poisoned: PoisonError<G>) -> G {
    poisoned.into_inner()
}

/// A try-acquisition's guard, `None` if the lock is taken.
fn taken<G>(attempt: TryLockResult<G>) -> Option<G> {
    match attempt {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(p)) => Some(recover(p)),
        Err(TryLockError::WouldBlock) => None,
    }
}

impl<G> Guard<G> {
    /// Take a lock of `rank` with `wait`, after checking the order; under
    /// a schedule, retry `attempt` at each turn instead.
    #[cfg(debug_assertions)]
    fn blocking<L: ?Sized>(
        rank: Rank,
        lock: &L,
        attempt: impl FnMut() -> Option<G>,
        wait: impl FnOnce() -> G,
    ) -> Self {
        let addr = check::addr(lock);
        check::allowed(rank, addr);
        let guard = sched::acquire(rank, addr, attempt, wait);
        Guard {
            guard,
            _held: check::Held::new(rank, addr),
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn blocking<L: ?Sized>(
        _rank: Rank,
        _lock: &L,
        _attempt: impl FnMut() -> Option<G>,
        wait: impl FnOnce() -> G,
    ) -> Self {
        Guard { guard: wait() }
    }

    /// Take a lock of `rank` if `attempt` can now, after checking the
    /// order; under a schedule a failed attempt passes the turn on.
    #[cfg(debug_assertions)]
    fn trying<L: ?Sized>(
        rank: Rank,
        lock: &L,
        attempt: impl FnOnce() -> Option<G>,
    ) -> Option<Self> {
        let addr = check::addr(lock);
        check::allowed(rank, addr);
        let guard = sched::attempt(attempt)?;
        Some(Guard {
            guard,
            _held: check::Held::new(rank, addr),
        })
    }

    #[cfg(not(debug_assertions))]
    #[inline]
    fn trying<L: ?Sized>(
        _rank: Rank,
        _lock: &L,
        attempt: impl FnOnce() -> Option<G>,
    ) -> Option<Self> {
        attempt().map(|guard| Guard { guard })
    }
}

/// Lock `m`, of rank `rank`.
#[allow(clippy::disallowed_methods, reason = "the one place a mutex is locked")]
pub fn lock<T: ?Sized>(m: &Mutex<T>, rank: Rank) -> Guard<MutexGuard<'_, T>> {
    Guard::blocking(
        rank,
        m,
        || taken(m.try_lock()),
        || m.lock().unwrap_or_else(recover),
    )
}

/// Take the read side of `l`, of rank `rank`.
#[allow(
    clippy::disallowed_methods,
    reason = "the one place a read lock is taken"
)]
pub fn read<T: ?Sized>(l: &RwLock<T>, rank: Rank) -> Guard<RwLockReadGuard<'_, T>> {
    Guard::blocking(
        rank,
        l,
        || taken(l.try_read()),
        || l.read().unwrap_or_else(recover),
    )
}

/// Take the write side of `l`, of rank `rank`.
#[allow(
    clippy::disallowed_methods,
    reason = "the one place a write lock is taken"
)]
pub fn write<T: ?Sized>(l: &RwLock<T>, rank: Rank) -> Guard<RwLockWriteGuard<'_, T>> {
    Guard::blocking(
        rank,
        l,
        || taken(l.try_write()),
        || l.write().unwrap_or_else(recover),
    )
}

/// The read side of `l`, of rank `rank`, if no writer holds it.
#[allow(
    clippy::disallowed_methods,
    reason = "the one place a read lock is tried"
)]
pub fn try_read<T: ?Sized>(l: &RwLock<T>, rank: Rank) -> Option<Guard<RwLockReadGuard<'_, T>>> {
    Guard::trying(rank, l, || taken(l.try_read()))
}

/// The write side of `l`, of rank `rank`, if nobody holds it.
#[allow(
    clippy::disallowed_methods,
    reason = "the one place a write lock is tried"
)]
pub fn try_write<T: ?Sized>(l: &RwLock<T>, rank: Rank) -> Option<Guard<RwLockWriteGuard<'_, T>>> {
    Guard::trying(rank, l, || taken(l.try_write()))
}

/// The value inside `l`, poisoned or not.
pub fn into_inner<T>(l: RwLock<T>) -> T {
    l.into_inner().unwrap_or_else(recover)
}

/// One logical thread of a [`schedule`].
pub type Thread<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Run `threads` as the logical threads of one seeded schedule and return
/// each one's outcome, in order: `Err` holds the message it panicked
/// with.
///
/// Under `debug_assertions` one logical thread runs at a time. At every
/// lock acquisition the seed picks which ready thread runs next, and a
/// failed try-acquisition passes the turn on; a thread whose lock is
/// taken waits until another thread has run, and then tries again. When
/// no thread can run, every waiting thread panics with the same
/// held/wanted table, which starts with `deadlock`, instead of hanging.
/// A lock that a thread outside the schedule holds (another test's) is
/// waited for, not reported. Without `debug_assertions` the threads run
/// at once.
pub fn schedule<'env>(seed: u64, threads: Vec<Thread<'env>>) -> Vec<Result<(), String>> {
    #[cfg(debug_assertions)]
    let baton = std::sync::Arc::new(sched::Baton::new(seed, threads.len()));
    #[cfg(not(debug_assertions))]
    let _ = seed;
    std::thread::scope(|s| {
        let running: Vec<_> = threads
            .into_iter()
            .enumerate()
            .map(|(_i, body)| {
                #[cfg(debug_assertions)]
                let baton = std::sync::Arc::clone(&baton);
                s.spawn(move || {
                    #[cfg(debug_assertions)]
                    let _seat = sched::Seat::take(baton, _i);
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
                })
            })
            .collect();
        running
            .into_iter()
            .map(|t| match t.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(payload)) | Err(payload) => Err(message(payload.as_ref())),
            })
            .collect()
    })
}

/// Run `body` on one thread of a [`schedule`] while another holds what
/// `hold` returns, from before `body` starts until it ends. `Err` is
/// `body`'s panic, or the other thread's: under `debug_assertions`, a
/// `body` that waits for what is held is a reported deadlock, not a hang.
pub fn while_held<G>(
    seed: u64,
    hold: impl FnOnce() -> G + Send,
    body: impl FnOnce() + Send,
) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    let (held, done) = (AtomicBool::new(false), AtomicBool::new(false));
    let holder = || {
        let g = hold();
        held.store(true, SeqCst);
        wait_until(|| done.load(SeqCst));
        drop(g);
    };
    let runner = || {
        wait_until(|| held.load(SeqCst));
        body();
        done.store(true, SeqCst);
    };
    let out = schedule(seed, vec![Box::new(holder), Box::new(runner)]);
    out.into_iter().rev().find(Result::is_err).unwrap_or(Ok(()))
}

/// Wait until `ready()` holds. Under a [`schedule`] this is a yield
/// point, and the thread then checks again each time another thread has
/// run, so a condition nobody can make true is reported as a deadlock;
/// outside one it spins.
pub fn wait_until(mut ready: impl FnMut() -> bool) {
    #[cfg(debug_assertions)]
    if sched::wait(&mut ready) {
        return;
    }
    while !ready() {
        std::thread::yield_now();
    }
}

/// The text a panic payload carries.
fn message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic without a message".to_string()
    }
}

/// The per-thread record of held locks and the order check.
#[cfg(debug_assertions)]
mod check {
    use std::cell::RefCell;
    use std::fmt::Write;

    use super::Rank;

    thread_local! {
        static HELD: RefCell<Vec<(Rank, usize)>> = const { RefCell::new(Vec::new()) };
    }

    /// A lock's identity: its address.
    pub(super) fn addr<L: ?Sized>(lock: &L) -> usize {
        std::ptr::from_ref(lock).cast::<()>().addr()
    }

    /// Panic with the held/wanted table unless this thread may take the
    /// lock of `rank` at `addr`.
    pub(super) fn allowed(rank: Rank, addr: usize) {
        let clash = HELD.with_borrow(|held| held.iter().any(|&(r, a)| r > rank || a == addr));
        if clash {
            panic!("lock order violation: {}", table(Some((rank, addr))));
        }
    }

    /// What this thread holds and, if given, the lock it wants.
    pub(super) fn table(wanted: Option<(Rank, usize)>) -> String {
        let mut out = String::from("holds [");
        HELD.with_borrow(|held| {
            for (i, &(r, a)) in held.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}{r:?} @{a:#x}");
            }
        });
        out.push(']');
        if let Some((r, a)) = wanted {
            let _ = write!(out, "; wants {r:?} @{a:#x}");
        }
        out
    }

    /// The addresses of the locks this thread holds.
    pub(super) fn held() -> Vec<usize> {
        HELD.with_borrow(|held| held.iter().map(|&(_, a)| a).collect())
    }

    /// The entry of this thread's held list for the lock at an address,
    /// removed on drop.
    pub(super) struct Held(usize);

    impl Held {
        pub(super) fn new(rank: Rank, addr: usize) -> Held {
            HELD.with_borrow_mut(|held| held.push((rank, addr)));
            Held(addr)
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // A guard dropped while the thread's locals are torn down
            // finds no list left to update.
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(i) = held.iter().position(|&(_, a)| a == self.0) {
                    held.remove(i);
                }
            });
        }
    }
}

/// The seeded baton scheduler behind [`schedule`].
#[cfg(debug_assertions)]
mod sched {
    #![allow(
        clippy::disallowed_methods,
        reason = "the scheduler's own lock is not ranked"
    )]

    use std::cell::RefCell;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    use super::{check, recover, Rank};

    /// What a logical thread is doing.
    #[derive(Clone, PartialEq)]
    enum Status {
        Ready,
        Waiting(Wait),
        Done,
    }

    /// A thread waiting for a lock or a condition.
    #[derive(Clone, PartialEq)]
    struct Wait {
        /// Its row of the held/wanted table.
        row: String,
        /// The locks it holds.
        holds: Vec<usize>,
        /// The lock it wants; `None` for a condition.
        wants: Option<usize>,
    }

    impl Wait {
        fn status(wants: Option<(Rank, usize)>) -> Status {
            let mut row = check::table(wants);
            if wants.is_none() {
                row.push_str("; waits for a condition");
            }
            Status::Waiting(Wait {
                row,
                holds: check::held(),
                wants: wants.map(|(_, addr)| addr),
            })
        }
    }

    struct State {
        rng: u64,
        /// The thread whose turn it is; `None` once all are done.
        turn: Option<usize>,
        threads: Vec<Status>,
        /// Set when no thread can run: the held/wanted table.
        deadlock: Option<String>,
    }

    impl State {
        /// splitmix64.
        fn next(&mut self) -> u64 {
            self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Hand the turn to a seeded pick among the ready threads, or
        /// record the deadlock if only waiting ones are left. A lock that
        /// no thread of the schedule holds is held outside it and will be
        /// released, so with no thread ready its waiters try again.
        fn pass(&mut self) {
            let mut ready: Vec<usize> = (0..self.threads.len())
                .filter(|&i| self.threads.get(i) == Some(&Status::Ready))
                .collect();
            if ready.is_empty() {
                let inside: Vec<usize> = self
                    .threads
                    .iter()
                    .filter_map(|s| match s {
                        Status::Waiting(w) => Some(w.holds.iter().copied()),
                        _ => None,
                    })
                    .flatten()
                    .collect();
                ready = (0..self.threads.len())
                    .filter(|&i| {
                        matches!(self.threads.get(i), Some(Status::Waiting(w))
                            if w.wants.is_some_and(|a| !inside.contains(&a)))
                    })
                    .collect();
            }
            let pick = self.next().checked_rem(ready.len() as u64).unwrap_or(0);
            let pick = usize::try_from(pick).unwrap_or(0);
            self.turn = ready.get(pick).copied();
            if self.turn.is_none() && self.threads.iter().any(|s| s != &Status::Done) {
                let mut report = String::from("deadlock: no scheduled thread can run");
                for (i, s) in self.threads.iter().enumerate() {
                    if let Status::Waiting(w) = s {
                        report.push_str(&format!("\n  thread {i}: {}", w.row));
                    }
                }
                self.deadlock = Some(report);
            }
        }

        /// Another thread ran: every waiting thread may be able to go on.
        fn wake(&mut self) {
            for s in &mut self.threads {
                if matches!(s, Status::Waiting(_)) {
                    *s = Status::Ready;
                }
            }
        }
    }

    pub(super) struct Baton {
        state: Mutex<State>,
        moved: Condvar,
    }

    impl Baton {
        pub(super) fn new(seed: u64, threads: usize) -> Baton {
            let mut state = State {
                rng: seed,
                turn: None,
                threads: vec![Status::Ready; threads],
                deadlock: None,
            };
            state.pass();
            Baton {
                state: Mutex::new(state),
                moved: Condvar::new(),
            }
        }

        fn state(&self) -> MutexGuard<'_, State> {
            self.state.lock().unwrap_or_else(recover)
        }

        /// Give up the turn (marking this thread `now`) and wait for it
        /// to come back; panic with the table if it never can. A thread
        /// that yields ready has run since its turn began, so every
        /// waiting thread gets to check again; one that yields waiting
        /// has only failed its check.
        fn yield_as(&self, me: usize, now: Status) {
            let mut st = self.state();
            if now == Status::Ready {
                st.wake();
            }
            if let Some(s) = st.threads.get_mut(me) {
                *s = now;
            }
            st.pass();
            self.moved.notify_all();
            self.wait_turn(me, st);
        }

        fn wait_turn(&self, me: usize, mut st: MutexGuard<'_, State>) {
            while st.turn != Some(me) && st.deadlock.is_none() {
                st = self.moved.wait(st).unwrap_or_else(recover);
            }
            if let Some(report) = st.deadlock.clone() {
                drop(st);
                self.moved.notify_all();
                panic!("{report}");
            }
        }
    }

    thread_local! {
        /// The schedule this thread runs under, and its number there.
        static SEAT: RefCell<Option<(Arc<Baton>, usize)>> = const { RefCell::new(None) };
    }

    fn seated() -> Option<(Arc<Baton>, usize)> {
        SEAT.try_with(|s| s.borrow().clone()).ok().flatten()
    }

    /// A logical thread's place in its schedule: taken before its body
    /// runs, and its drop ends the thread.
    pub(super) struct Seat;

    impl Seat {
        pub(super) fn take(baton: Arc<Baton>, me: usize) -> Seat {
            let st = baton.state();
            SEAT.with_borrow_mut(|s| *s = Some((Arc::clone(&baton), me)));
            baton.wait_turn(me, st);
            Seat
        }
    }

    impl Drop for Seat {
        fn drop(&mut self) {
            let Some((baton, me)) = SEAT.with_borrow_mut(Option::take) else {
                return;
            };
            let mut st = baton.state();
            if let Some(s) = st.threads.get_mut(me) {
                *s = Status::Done;
            }
            st.wake();
            if st.deadlock.is_none() {
                st.pass();
            }
            baton.moved.notify_all();
        }
    }

    /// Acquire through `attempt` under a schedule, or `wait` outside one.
    pub(super) fn acquire<G>(
        rank: Rank,
        addr: usize,
        mut attempt: impl FnMut() -> Option<G>,
        wait: impl FnOnce() -> G,
    ) -> G {
        let Some((baton, me)) = seated() else {
            return wait();
        };
        baton.yield_as(me, Status::Ready);
        loop {
            if let Some(g) = attempt() {
                return g;
            }
            baton.yield_as(me, Wait::status(Some((rank, addr))));
        }
    }

    /// One try-acquisition: a yield point, and a failed attempt gives up
    /// the turn once more.
    pub(super) fn attempt<G>(attempt: impl FnOnce() -> Option<G>) -> Option<G> {
        let Some((baton, me)) = seated() else {
            return attempt();
        };
        baton.yield_as(me, Status::Ready);
        let got = attempt();
        if got.is_none() {
            baton.yield_as(me, Status::Ready);
        }
        got
    }

    /// [`super::wait_until`] under a schedule: a yield point, then a turn
    /// given up at each failed check; `false` outside a schedule.
    pub(super) fn wait(ready: &mut impl FnMut() -> bool) -> bool {
        let Some((baton, me)) = seated() else {
            return false;
        };
        baton.yield_as(me, Status::Ready);
        while !ready() {
            baton.yield_as(me, Wait::status(None));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(debug_assertions)]
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn helpers_recover_a_poisoned_lock() {
        let m = Mutex::new(1);
        let l = RwLock::new(2);
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _a = lock(&m, Rank::PoolCtl);
                let _b = write(&l, Rank::FrameBytes);
                panic!("poison both");
            })
            .join()
        });
        assert!(m.is_poisoned() && l.is_poisoned());
        assert_eq!(*lock(&m, Rank::PoolCtl), 1);
        assert_eq!(*read(&l, Rank::PoolCtl), 2);
        assert_eq!(try_write(&l, Rank::PoolCtl).map(|g| *g), Some(2));
        assert_eq!(try_read(&l, Rank::PoolCtl).map(|g| *g), Some(2));
    }

    #[test]
    fn order_in_rank_and_instances_of_one_rank_are_allowed() {
        let (a, b, c) = (Mutex::new(()), Mutex::new(()), Mutex::new(()));
        let _x = lock(&a, Rank::PoolCtl);
        let _y = lock(&b, Rank::FrameBytes);
        let _z = lock(&c, Rank::FrameBytes);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock order violation: holds [FrameBytes")]
    fn taking_an_earlier_rank_panics() {
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        let _x = lock(&a, Rank::FrameBytes);
        let _y = lock(&b, Rank::PoolCtl);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock order violation")]
    fn taking_a_held_lock_again_panics() {
        let l = RwLock::new(());
        let _x = read(&l, Rank::SharedDb);
        let _y = read(&l, Rank::SharedDb);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn released_locks_leave_the_order_free() {
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        drop(lock(&a, Rank::FrameBytes));
        let _y = lock(&b, Rank::PoolCtl);
        assert_eq!(
            check::table(None),
            format!("holds [PoolCtl @{:#x}]", check::addr(&b))
        );
    }

    #[test]
    fn a_schedule_runs_every_thread_and_reports_panics() {
        let m = Mutex::new(Vec::new());
        for seed in 0..20 {
            lock(&m, Rank::PoolCtl).clear();
            let push = |t: u32| {
                let m = &m;
                Box::new(move || {
                    for i in 0..5 {
                        lock(m, Rank::PoolCtl).push(t * 10 + i);
                    }
                    assert!(t != 2, "thread 2 fails");
                }) as Thread
            };
            let out = schedule(seed, vec![push(0), push(1), push(2)]);
            assert_eq!(out[..2], [Ok(()), Ok(())]);
            assert_eq!(out[2], Err("thread 2 fails".to_string()));
            let mut seen = lock(&m, Rank::PoolCtl).clone();
            seen.sort_unstable();
            assert_eq!(
                seen,
                [0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 20, 21, 22, 23, 24]
            );
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn the_seed_picks_the_interleaving() {
        let order = |seed| {
            let m = Mutex::new(Vec::new());
            let push = |t: u32| {
                let m = &m;
                Box::new(move || {
                    for _ in 0..4 {
                        lock(m, Rank::PoolCtl).push(t);
                    }
                }) as Thread
            };
            let out = schedule(seed, vec![push(0), push(1)]);
            assert!(out.iter().all(Result::is_ok));
            m.into_inner().unwrap_or_else(recover)
        };
        assert_eq!(order(3), order(3), "one seed, one interleaving");
        assert!(
            (0..16)
                .map(order)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 1,
            "different seeds interleave differently"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_lock_cycle_is_reported_not_hung() {
        let (a, b) = (RwLock::new(()), RwLock::new(()));
        for seed in 0..32 {
            let (a_held, b_held) = (AtomicBool::new(false), AtomicBool::new(false));
            let one = || {
                let _a = write(&a, Rank::FrameBytes);
                a_held.store(true, Ordering::SeqCst);
                wait_until(|| b_held.load(Ordering::SeqCst));
                let _b = write(&b, Rank::FrameBytes);
            };
            let two = || {
                let _b = write(&b, Rank::FrameBytes);
                b_held.store(true, Ordering::SeqCst);
                wait_until(|| a_held.load(Ordering::SeqCst));
                let _a = write(&a, Rank::FrameBytes);
            };
            let out = schedule(seed, vec![Box::new(one), Box::new(two)]);
            for o in out {
                let err = o.expect_err("both threads wait for each other");
                assert!(err.starts_with("deadlock"), "{err}");
                assert!(err.contains("thread 0: holds [FrameBytes"), "{err}");
                assert!(err.contains("thread 1: holds [FrameBytes"), "{err}");
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn while_held_reports_a_body_that_waits_for_the_held_lock() {
        let (l, m) = (RwLock::new(()), RwLock::new(()));
        for seed in 0..8 {
            assert_eq!(
                while_held(
                    seed,
                    || read(&l, Rank::SharedDb),
                    || drop(read(&l, Rank::SharedDb))
                ),
                Ok(())
            );
            assert_eq!(
                while_held(
                    seed,
                    || read(&l, Rank::SharedDb),
                    || drop(write(&m, Rank::SharedDb))
                ),
                Ok(())
            );
            let err = while_held(
                seed,
                || read(&l, Rank::SharedDb),
                || drop(write(&l, Rank::SharedDb)),
            )
            .expect_err("the writer waits for the held read lock");
            assert!(err.starts_with("deadlock"), "{err}");
            assert!(err.contains("waits for a condition"), "{err}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_lock_held_outside_the_schedule_is_waited_for() {
        let l = Mutex::new(0);
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let l = &l;
            s.spawn(move || {
                let mut g = lock(l, Rank::MetricSlots);
                held_tx.send(()).unwrap();
                go_rx.recv().unwrap();
                *g += 1;
            });
            held_rx.recv().unwrap();
            let out = schedule(
                0,
                vec![Box::new(move || {
                    go_tx.send(()).unwrap();
                    *lock(l, Rank::MetricSlots) += 1;
                })],
            );
            assert_eq!(out, [Ok(())]);
        });
        assert_eq!(*lock(&l, Rank::MetricSlots), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_failed_try_passes_the_turn() {
        // Thread 0 yields while it holds `l`; a thread 1 that kept the
        // turn after a failed try would spin here for ever.
        for seed in 0..16 {
            let (l, m) = (RwLock::new(0), Mutex::new(()));
            let out = schedule(
                seed,
                vec![
                    Box::new(|| {
                        let mut g = write(&l, Rank::SharedDb);
                        let _m = lock(&m, Rank::PoolCtl);
                        *g += 1;
                    }),
                    Box::new(|| loop {
                        if let Some(mut g) = try_write(&l, Rank::SharedDb) {
                            *g += 1;
                            break;
                        }
                    }),
                ],
            );
            assert!(out.iter().all(Result::is_ok));
            assert_eq!(*read(&l, Rank::SharedDb), 2);
        }
    }
}
