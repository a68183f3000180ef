//! Lock ranks, checked where a lock is taken.
//!
//! Every `Mutex` in the workspace's library code is taken through
//! [`lock`] with its [`Rank`], and every condvar wait goes through
//! [`wait`] or [`wait_timeout`]. In builds with debug assertions, and in
//! this crate's tests, one thread-local stack of held ranks asserts two
//! things:
//!
//! * ranks strictly ascend on acquisition, so no two threads can take
//!   two locks in opposite orders, and no thread re-takes a lock class
//!   it already holds;
//! * a wait parks a thread that holds only the guard it waits with,
//!   apart from ranks marked [`Rank::held_across_wait`].
//!
//! In release builds both checks compile out: [`lock`] is the plain
//! acquisition with poison recovery, and a [`Guard`] holds nothing
//! beside its `MutexGuard`.
//! Poison is recovered everywhere because every guarded state in the
//! workspace is updated one whole field at a time; a panicking holder
//! cannot leave it torn.
//!
//! The root `clippy.toml` disallows `Mutex::lock` and the
//! `Condvar::wait*` family, so a bare acquisition in library code fails
//! the clippy step.

#![expect(
    clippy::disallowed_methods,
    reason = "the one module that takes std locks and waits on condvars directly"
)]

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// The workspace's lock classes, lowest rank first. A thread may take a
/// lock only while every lock it holds ranks below it.
///
/// The order, outermost first:
///
/// 1. the connection-thread registries ([`Rank::Conns`]);
/// 2. the router's shard address slots and prober parking lot;
/// 3. the server's job queue and connection-statistics list;
/// 4. the refresher's request state;
/// 5. the workload monitor, which logs into the WAL while held, so it
///    ranks below every WAL lock (the edge monitor → `Wal.inner`);
/// 6. the WAL's base snapshot, held from a delta's encode to its commit,
///    which charges the log state and the crash plan;
/// 7. the WAL's log state, which writes through the crash plan;
/// 8. the crash plan's budget and site counters;
/// 9. the index cell's current snapshot;
/// 10. a connection's response frame;
/// 11. a buffer pool, then a buffer handle's local counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rank {
    /// `net::Server`'s and `shard::Router`'s connection-thread handles.
    Conns,
    /// `shard::Router`'s per-shard address slot.
    ShardAddr,
    /// `shard::Router`'s prober parking lot, waited on between probes.
    ProberPark,
    /// `net::Server`'s job queue, waited on by pool workers.
    JobQueue,
    /// `net::Server`'s list of per-connection counters.
    ConnStats,
    /// `core::serve::Refresher`'s request state, waited on by the
    /// refresher and by `wait_idle`.
    RefreshState,
    /// The `WorkloadMonitor`, which serializes recording, draining and
    /// checkpoint rotation.
    Monitor,
    /// `core::wal::Wal`'s last committed base snapshot.
    WalBase,
    /// `core::wal::Wal`'s log state, waited on for an in-flight fsync.
    WalLog,
    /// `core::wal::CrashPlan`'s byte budget and site counters.
    CrashPlan,
    /// `core::serve::IndexCell`'s current snapshot.
    Snapshot,
    /// `net::Server`'s per-connection response frame (the writer lock).
    ResponseFrame,
    /// A `BufferHandle`'s shared pool.
    BufferPool,
    /// A `BufferHandle`'s local counter.
    BufferLocal,
}

impl Rank {
    /// True for a rank that may stay held while the thread waits on a
    /// condvar of a higher rank. Only the monitor: it is held across the
    /// WAL's wait for an in-flight fsync (a checkpoint's rotation, a
    /// drain's swap record, a record whose commit is settled under the
    /// monitor), and the fsync leader that wait depends on never takes
    /// the monitor while another thread holds it, because no thread can.
    pub const fn held_across_wait(self) -> bool {
        matches!(self, Rank::Monitor)
    }
}

/// A held lock: derefs to the guarded value; dropping it releases the
/// lock and its rank.
#[derive(Debug)]
#[must_use = "dropping the guard releases the lock at once"]
pub struct Guard<'a, T> {
    // Declared first, so the mutex unlocks before the rank is popped.
    inner: MutexGuard<'a, T>,
    held: Held,
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Takes `m` at `rank`, recovering a poisoned lock.
pub fn lock<T>(m: &Mutex<T>, rank: Rank) -> Guard<'_, T> {
    let held = Held::acquire(rank);
    Guard {
        inner: m.lock().unwrap_or_else(PoisonError::into_inner),
        held,
    }
}

/// Waits on `cv` with `guard`'s lock released, as `Condvar::wait`.
pub fn wait<'a, T>(cv: &Condvar, guard: Guard<'a, T>) -> Guard<'a, T> {
    guard.held.check_wait();
    let Guard { inner, held } = guard;
    Guard {
        inner: cv.wait(inner).unwrap_or_else(PoisonError::into_inner),
        held,
    }
}

/// Waits on `cv` for at most `dur`, as `Condvar::wait_timeout`.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: Guard<'a, T>,
    dur: Duration,
) -> (Guard<'a, T>, WaitTimeoutResult) {
    guard.held.check_wait();
    let Guard { inner, held } = guard;
    let (inner, timeout) = cv
        .wait_timeout(inner, dur)
        .unwrap_or_else(PoisonError::into_inner);
    (Guard { inner, held }, timeout)
}

#[cfg(any(debug_assertions, test))]
use checked::Held;

#[cfg(any(debug_assertions, test))]
mod checked {
    use super::Rank;
    use std::cell::RefCell;

    thread_local! {
        /// The ranks this thread holds, ascending.
        static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
    }

    /// One entry on the thread's rank stack, popped on drop.
    #[derive(Debug)]
    pub(super) struct Held(Rank);

    impl Held {
        pub(super) fn acquire(rank: Rank) -> Held {
            let top = HELD.with(|h| h.borrow().last().copied());
            if let Some(top) = top {
                assert!(
                    top < rank,
                    "lock rank {rank:?} taken while holding {top:?}: ranks must strictly ascend"
                );
            }
            HELD.with(|h| h.borrow_mut().push(rank));
            Held(rank)
        }

        pub(super) fn check_wait(&self) {
            let other = HELD.with(|h| {
                h.borrow()
                    .iter()
                    .copied()
                    .find(|&r| r != self.0 && !r.held_across_wait())
            });
            assert!(
                other.is_none(),
                "waiting on {:?} while also holding {other:?}: a parked thread may hold \
                 only the guard it waits with",
                self.0
            );
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // A guard dropped while the thread's locals are torn down
            // finds no stack; there is nothing left to check.
            let _ = HELD.try_with(|h| {
                let mut h = h.borrow_mut();
                if let Some(i) = h.iter().rposition(|&r| r == self.0) {
                    h.remove(i);
                }
            });
        }
    }
}

#[cfg(not(any(debug_assertions, test)))]
#[derive(Debug)]
struct Held;

#[cfg(not(any(debug_assertions, test)))]
impl Held {
    #[inline(always)]
    fn acquire(_: Rank) -> Held {
        Held
    }

    #[inline(always)]
    fn check_wait(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "ranks must strictly ascend")]
    fn a_lower_rank_under_a_higher_one_panics() {
        let (log, monitor) = (Mutex::new(()), Mutex::new(()));
        let _log = lock(&log, Rank::WalLog);
        let _monitor = lock(&monitor, Rank::Monitor);
    }

    #[test]
    #[should_panic(expected = "ranks must strictly ascend")]
    fn re_taking_the_same_rank_panics() {
        let (a, b) = (Mutex::new(()), Mutex::new(()));
        let _a = lock(&a, Rank::BufferPool);
        let _b = lock(&b, Rank::BufferPool);
    }

    #[test]
    #[should_panic(expected = "a parked thread may hold only the guard it waits with")]
    fn waiting_under_two_guards_panics() {
        let (queue, frame, cv) = (Mutex::new(()), Mutex::new(()), Condvar::new());
        let _queue = lock(&queue, Rank::JobQueue);
        let frame = lock(&frame, Rank::ResponseFrame);
        let _ = wait_timeout(&cv, frame, Duration::from_millis(1));
    }

    #[test]
    fn the_monitor_then_the_log_in_their_real_order() {
        let (monitor, log, cv) = (Mutex::new(0u32), Mutex::new(0u32), Condvar::new());
        let mut m = lock(&monitor, Rank::Monitor);
        let mut l = lock(&log, Rank::WalLog);
        *m += 1;
        *l += 1;
        // The WAL's wait for an in-flight fsync, under the monitor.
        let (l, _) = wait_timeout(&cv, l, Duration::from_millis(1));
        drop(l);
        drop(m);
        // Released in either order, both ranks can be taken again.
        let l = lock(&log, Rank::WalLog);
        drop(l);
        assert_eq!(*lock(&monitor, Rank::Monitor), 1);
    }
}
