//! Reader–writer gate guarding a handler-owned object.
//!
//! Shared-read reservations let many clients execute queries against one
//! handler's object concurrently.  That is sound only while no command runs:
//! the [`ReadGate`] is the synchronisation point.  Readers (clients holding a
//! read reservation) take the gate in *read* mode; every `&mut` access to the
//! object — the handler main loop applying a batch, or a client-executed
//! query under an exclusive reservation — takes it in *write* mode.
//!
//! The design goals, in order:
//!
//! 1. **Free when unused.** A handler with no read reservations must pay one
//!    uncontended CAS per batch to take the gate and one RMW to release it,
//!    nothing more — the exclusive-only fast paths of the runtime must not
//!    regress.  A release with no waiter is that one RMW: the waiter list's
//!    lock is taken only when the state word says someone enlisted.
//! 2. **Writer preference.** A stream of readers must not starve the handler:
//!    once a writer announces itself, new readers are refused until it has
//!    run, so the reader population can only shrink while a writer waits.
//!    This also makes the deadlock detector's writer-blocked-behind-readers
//!    edges sound: the blocking set never grows.
//! 3. **No blocking inside the gate.** All acquisition entry points are
//!    `try_`-shaped plus an explicit waiter list ([`enlist`](ReadGate::enlist)),
//!    so callers choose how to wait — parking a client thread
//!    ([`park_round`](ReadGate::park_round)), or re-arming a pooled handler
//!    through its scheduler hook.
//!
//! The state packs into one `AtomicU64`:
//!
//! | bits   | meaning                                              |
//! |--------|------------------------------------------------------|
//! | 0..32  | active readers                                       |
//! | 32     | `WRITER_ACTIVE`: a writer holds the gate             |
//! | 33     | `HAS_WAITERS`: the waiter list may be non-empty      |
//! | 34..64 | announced (waiting) writers                          |
//!
//! A single load classifies the gate; acquisition is a single CAS and a
//! release a single RMW.  `HAS_WAITERS` is set by [`enlist`](ReadGate::enlist)
//! and cleared by the wake round that drains the list, both under the list's
//! lock; acquisition ignores it, so a set bit never refuses anyone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::parker::Parker;
use crate::spinlock::SpinLock;

/// Active-reader count mask (bits 0..32).
const READERS_MASK: u64 = (1 << 32) - 1;
/// Set while a writer holds the gate.
const WRITER_ACTIVE: u64 = 1 << 32;
/// Set while the waiter list may hold entries: releases skip the list's lock
/// when their own RMW returned a state without it.
const HAS_WAITERS: u64 = 1 << 33;
/// One announced (waiting) writer; the count occupies bits 34 and up.
const WRITER_WAITING_UNIT: u64 = 1 << 34;
/// Everything that refuses a new reader: an active or announced writer.
const REFUSES_READERS: u64 = !(READERS_MASK | HAS_WAITERS);

/// How a party blocked on the gate wants to be woken: a callback fired once,
/// at the next release round after it was [enlisted](ReadGate::enlist) —
/// e.g. re-arming a pooled handler through its scheduler wake hook.  Must be
/// cheap and must not block.  Threads wait through
/// [`park_round`](ReadGate::park_round) instead.
pub type GateWake = Arc<dyn Fn() + Send + Sync>;

/// A reader-counting, writer-preferring gate over one object.
///
/// See the [module docs](self) for the protocol.  The lost-wake discipline is
/// the usual one: a blocked party *first* [`enlist`](ReadGate::enlist)s its
/// waker, *then* re-tries acquisition; a releasing party *first* publishes
/// the new state (with `Release` ordering), *then* drains and fires the
/// waiter list if its RMW saw `HAS_WAITERS`.  Enlisting sets that bit with
/// an RMW on the same word, so the two RMWs are totally ordered: either the
/// release's RMW sees the bit (and drains — or a wake round that cleared the
/// bit in between drained the entry under the lock), or the enlist came
/// later and the retry reads a state at least as new as the release.  Wakes
/// may be spurious (the state can be re-taken before the woken party
/// retries); callers loop.
pub struct ReadGate {
    state: AtomicU64,
    waiters: SpinLock<Vec<GateWake>>,
}

impl Default for ReadGate {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadGate {
    /// Creates an open gate: no readers, no writer.
    pub fn new() -> Self {
        ReadGate {
            state: AtomicU64::new(0),
            waiters: SpinLock::new(Vec::new()),
        }
    }

    /// Tries to take the gate in read mode.  Fails (returning `false`) while
    /// a writer is active *or announced* — writer preference means readers
    /// queue behind any waiting writer.
    pub fn try_read(&self) -> bool {
        let mut current = self.state.load(Ordering::Relaxed);
        loop {
            if current & REFUSES_READERS != 0 {
                return false;
            }
            debug_assert!(current & READERS_MASK < READERS_MASK, "reader overflow");
            match self.state.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    // `a` = reader count after this acquisition.
                    qs_obs::trace(
                        qs_obs::TraceKind::ReadAcquire,
                        (current & READERS_MASK) + 1,
                        0,
                    );
                    return true;
                }
                Err(now) => current = now,
            }
        }
    }

    /// Releases one read hold.  The last reader out wakes enlisted waiters
    /// so an announced writer can proceed.
    pub fn end_read(&self) {
        let prev = self.state.fetch_sub(1, Ordering::Release);
        debug_assert!(prev & READERS_MASK > 0, "end_read without a read hold");
        // `a` = reader count after this release.
        qs_obs::trace(qs_obs::TraceKind::ReadRelease, (prev & READERS_MASK) - 1, 0);
        if prev & READERS_MASK == 1 && prev & HAS_WAITERS != 0 {
            self.wake_waiters();
        }
    }

    /// Tries to take the gate in write mode: succeeds iff no reader and no
    /// other writer is active.  Announced-writer bits do not block this —
    /// any writer may win the CAS, announced or not — so the uncontended
    /// exclusive path stays a single CAS.
    pub fn try_write(&self) -> bool {
        let mut current = self.state.load(Ordering::Relaxed);
        loop {
            if current & (READERS_MASK | WRITER_ACTIVE) != 0 {
                return false;
            }
            match self.state.compare_exchange_weak(
                current,
                current | WRITER_ACTIVE,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => current = now,
            }
        }
    }

    /// Announces a waiting writer: from here until
    /// [`retract_writer`](ReadGate::retract_writer) (or the writer gets in
    /// and [`end_write`](ReadGate::end_write)s after winning), new readers
    /// are refused, so the active-reader set can only shrink.
    pub fn announce_writer(&self) {
        self.state.fetch_add(WRITER_WAITING_UNIT, Ordering::AcqRel);
    }

    /// Withdraws one [`announce_writer`](ReadGate::announce_writer).  Wakes
    /// waiters: readers refused purely because of this announcement can now
    /// get in.
    pub fn retract_writer(&self) {
        let prev = self.state.fetch_sub(WRITER_WAITING_UNIT, Ordering::AcqRel);
        debug_assert!(prev >= WRITER_WAITING_UNIT, "retract without announce");
        if prev & HAS_WAITERS != 0 {
            self.wake_waiters();
        }
    }

    /// Releases the write hold and wakes all enlisted waiters (readers and
    /// writers alike; whoever retries first wins).  With none enlisted the
    /// release is the one RMW.
    pub fn end_write(&self) {
        let prev = self.state.fetch_and(!WRITER_ACTIVE, Ordering::Release);
        debug_assert!(prev & WRITER_ACTIVE != 0, "end_write without a write hold");
        if prev & HAS_WAITERS != 0 {
            self.wake_waiters();
        }
    }

    /// Takes the gate in write mode, spinning/parking the calling thread
    /// until it succeeds.  Convenience for dedicated (thread-per-handler)
    /// paths where blocking the OS thread is fine.
    pub fn write(&self) {
        if self.try_write() {
            return;
        }
        self.announce_writer();
        let parker = Arc::new(Parker::new());
        while !self.try_write() && !self.park_round(&parker, || self.try_write(), || false) {}
        self.retract_writer();
    }

    /// One round of the lost-wake protocol for a blocked thread: enlists a
    /// wake for `parker`, retries `acquire`, and if that fails parks until
    /// the next release round fired the wake or `interrupted` holds (its
    /// setter must wake `parker` too).  Returns whether `acquire`
    /// succeeded; callers loop on `false`.
    ///
    /// The park waits for the wake itself, not for a look at the state: a
    /// release may fire the wake before the thread parks and another party
    /// take the gate right after; the entry is consumed then, so no later
    /// release would wake a thread parked on "the gate looks free".
    pub fn park_round(
        &self,
        parker: &Arc<Parker>,
        acquire: impl FnOnce() -> bool,
        mut interrupted: impl FnMut() -> bool,
    ) -> bool {
        // Set before the wake and re-checked by `park_until` after the
        // parker publishes itself (the parker's protocol), so a wake that
        // beat the park ends it; Release/Acquire publish nothing else.
        let fired = Arc::new(AtomicBool::new(false));
        let (flag, wake) = (Arc::clone(&fired), Arc::clone(parker));
        self.enlist(Arc::new(move || {
            flag.store(true, Ordering::Release);
            wake.wake();
        }));
        if acquire() {
            return true;
        }
        parker.park_until(|| fired.load(Ordering::Acquire) || interrupted());
        false
    }

    /// Registers a waiter to be woken at the next release event.  One-shot:
    /// the entry is consumed (or becomes stale) at the next wake round, so
    /// blocked parties re-enlist on every failed retry.
    pub fn enlist(&self, wake: GateWake) {
        let mut waiters = self.waiters.lock();
        waiters.push(wake);
        // Relaxed suffices: what orders this against a release is the
        // modification order of `state` (both are RMWs on it), and the list
        // itself is published by the lock.
        self.state.fetch_or(HAS_WAITERS, Ordering::Relaxed);
    }

    /// Drains and fires the waiter list.  The bit is cleared under the lock,
    /// before the drain, so an entry enlisted after the clear sets it again
    /// and is seen by the next release.
    fn wake_waiters(&self) {
        let drained = {
            let mut waiters = self.waiters.lock();
            self.state.fetch_and(!HAS_WAITERS, Ordering::Relaxed);
            std::mem::take(&mut *waiters)
        };
        for wake in drained {
            wake();
        }
    }

    /// Number of active readers right now (racy snapshot).
    pub fn readers(&self) -> u32 {
        (self.state.load(Ordering::Acquire) & READERS_MASK) as u32
    }

    /// `true` while a writer is announced or active — the signal that
    /// readers are (or are about to be) refused (racy snapshot).
    pub fn writer_contended(&self) -> bool {
        self.state.load(Ordering::Acquire) & REFUSES_READERS != 0
    }
}

impl std::fmt::Debug for ReadGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.load(Ordering::Relaxed);
        f.debug_struct("ReadGate")
            .field("readers", &(state & READERS_MASK))
            .field("writer_active", &(state & WRITER_ACTIVE != 0))
            .field("has_waiters", &(state & HAS_WAITERS != 0))
            .field("writers_waiting", &(state / WRITER_WAITING_UNIT))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn readers_share_writers_exclude() {
        let gate = ReadGate::new();
        assert!(gate.try_read());
        assert!(gate.try_read());
        assert_eq!(gate.readers(), 2);
        assert!(!gate.try_write(), "readers block writers");
        gate.end_read();
        assert!(!gate.try_write());
        gate.end_read();
        assert!(gate.try_write());
        assert!(!gate.try_read(), "active writer blocks readers");
        assert!(!gate.try_write(), "writers are exclusive");
        gate.end_write();
        assert!(gate.try_read());
        gate.end_read();
    }

    #[test]
    fn announced_writer_refuses_new_readers() {
        let gate = ReadGate::new();
        assert!(gate.try_read());
        gate.announce_writer();
        assert!(!gate.try_read(), "writer preference");
        assert!(gate.writer_contended());
        gate.end_read();
        assert!(gate.try_write());
        gate.end_write();
        gate.retract_writer();
        assert!(gate.try_read());
        gate.end_read();
        assert!(!gate.writer_contended());
    }

    #[test]
    fn blocking_write_waits_for_readers() {
        let gate = Arc::new(ReadGate::new());
        assert!(gate.try_read());
        let g2 = Arc::clone(&gate);
        let writer = thread::spawn(move || {
            g2.write();
            let got_it = g2.state.load(Ordering::SeqCst) & WRITER_ACTIVE != 0;
            g2.end_write();
            got_it
        });
        thread::sleep(Duration::from_millis(20));
        gate.end_read();
        assert!(writer.join().unwrap());
    }

    #[test]
    fn hook_waiters_fire_on_release() {
        let gate = ReadGate::new();
        let fired = Arc::new(AtomicUsize::new(0));
        assert!(gate.try_read());
        gate.enlist(counting_hook(&fired));
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        gate.end_read();
        assert_eq!(fired.load(Ordering::SeqCst), 1, "last reader out wakes");
        // The list is one-shot: a second release round does not re-fire.
        assert!(gate.try_write());
        gate.end_write();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    /// A hook that counts its firings.
    fn counting_hook(fired: &Arc<AtomicUsize>) -> GateWake {
        let fired = Arc::clone(fired);
        Arc::new(move || {
            fired.fetch_add(1, Ordering::SeqCst);
        })
    }

    /// The three releases that fire the waiter list, each with the hold it
    /// releases and the acquisition that hold refuses.
    #[derive(Clone, Copy, Debug)]
    enum ReleasePath {
        LastReader,
        Writer,
        Retract,
    }

    const RELEASE_PATHS: [ReleasePath; 3] = [
        ReleasePath::LastReader,
        ReleasePath::Writer,
        ReleasePath::Retract,
    ];

    impl ReleasePath {
        fn hold(self, gate: &ReadGate) {
            match self {
                ReleasePath::LastReader => assert!(gate.try_read()),
                ReleasePath::Writer => assert!(gate.try_write()),
                ReleasePath::Retract => gate.announce_writer(),
            }
        }

        fn release(self, gate: &ReadGate) {
            match self {
                ReleasePath::LastReader => gate.end_read(),
                ReleasePath::Writer => gate.end_write(),
                ReleasePath::Retract => gate.retract_writer(),
            }
        }

        /// The acquisition the hold refuses; on success the caller holds the
        /// gate in that mode.
        fn try_blocked(self, gate: &ReadGate) -> bool {
            match self {
                ReleasePath::LastReader => gate.try_write(),
                ReleasePath::Writer | ReleasePath::Retract => gate.try_read(),
            }
        }

        /// Releases what a successful [`try_blocked`](Self::try_blocked)
        /// took.
        fn release_blocked(self, gate: &ReadGate) {
            match self {
                ReleasePath::LastReader => gate.end_write(),
                ReleasePath::Writer | ReleasePath::Retract => gate.end_read(),
            }
        }

        /// `true` once this release's RMW is visible in `state`.
        fn released(self, state: u64) -> bool {
            match self {
                ReleasePath::LastReader => state & READERS_MASK == 0,
                ReleasePath::Writer => state & WRITER_ACTIVE == 0,
                ReleasePath::Retract => state < WRITER_WAITING_UNIT,
            }
        }
    }

    fn has_waiters_bit(gate: &ReadGate) -> bool {
        gate.state.load(Ordering::SeqCst) & HAS_WAITERS != 0
    }

    #[test]
    fn stale_waiter_state_refuses_no_one() {
        let gate = ReadGate::new();
        let fired = Arc::new(AtomicUsize::new(0));
        // A wake round drains the list and clears the bit.
        gate.enlist(counting_hook(&fired));
        assert!(has_waiters_bit(&gate));
        assert!(gate.try_write());
        gate.end_write();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert!(!has_waiters_bit(&gate), "the wake round clears the bit");

        // An entry enlisted on the open gate sits unfired with the bit set:
        // neither refuses readers nor reads as writer contention.
        gate.enlist(counting_hook(&fired));
        assert!(has_waiters_bit(&gate));
        assert!(!gate.writer_contended());
        assert!(gate.try_read());
        assert!(gate.try_read());
        assert!(!gate.writer_contended());
        gate.end_read();
        assert_eq!(
            fired.load(Ordering::SeqCst),
            1,
            "only the last reader wakes"
        );
        gate.end_read();
        assert_eq!(fired.load(Ordering::SeqCst), 2);

        // Nor does it refuse a writer.
        gate.enlist(counting_hook(&fired));
        assert!(gate.try_write());
        gate.end_write();
        assert_eq!(fired.load(Ordering::SeqCst), 3);

        // A bit with no entry behind it refuses no one either, and the next
        // release clears it.
        gate.state.fetch_or(HAS_WAITERS, Ordering::SeqCst);
        assert!(!gate.writer_contended());
        assert!(gate.try_read());
        gate.end_read();
        assert!(!has_waiters_bit(&gate));
        assert_eq!(gate.state.load(Ordering::SeqCst), 0, "open and empty");
    }

    #[test]
    fn every_release_fires_a_waiter_enlisted_before_it() {
        for path in RELEASE_PATHS {
            let gate = ReadGate::new();
            let fired = Arc::new(AtomicUsize::new(0));
            path.hold(&gate);
            assert!(!path.try_blocked(&gate), "{path:?}: the hold refuses");
            gate.enlist(counting_hook(&fired));
            assert!(!path.try_blocked(&gate), "{path:?}: the retry is refused");
            path.release(&gate);
            assert_eq!(fired.load(Ordering::SeqCst), 1, "{path:?}: waiter fired");
            assert!(!has_waiters_bit(&gate), "{path:?}: bit cleared");
            assert!(path.try_blocked(&gate), "{path:?}: woken retry gets in");
        }
    }

    #[test]
    fn park_round_returns_after_a_wake_that_beat_the_park() {
        let gate = Arc::new(ReadGate::new());
        assert!(gate.try_write());
        let (done, finished) = std::sync::mpsc::channel();
        let round = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                let parker = Arc::new(Parker::new());
                // Between the enlist and the park, the holder releases
                // (firing the wake) and another writer takes the gate: the
                // retry fails and the gate no longer looks free.
                let acquired = gate.park_round(
                    &parker,
                    || {
                        gate.end_write();
                        assert!(gate.try_write());
                        false
                    },
                    || false,
                );
                done.send(acquired).unwrap();
            })
        };
        let acquired = finished
            .recv_timeout(Duration::from_secs(30))
            .expect("the round must end on its fired wake, not park forever");
        assert!(!acquired);
        round.join().unwrap();
        gate.end_write();
        assert_eq!(gate.state.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn waiter_enlisted_after_a_drain_gets_in_on_retry() {
        for path in RELEASE_PATHS {
            let gate = Arc::new(ReadGate::new());
            path.hold(&gate);
            // The first waiter's hook stalls the releaser after its RMW and
            // its drain, while it fires.
            let in_hook = Arc::new(Barrier::new(2));
            let resume = Arc::new(Barrier::new(2));
            let (hook_in, hook_resume) = (Arc::clone(&in_hook), Arc::clone(&resume));
            gate.enlist(Arc::new(move || {
                hook_in.wait();
                hook_resume.wait();
            }));
            let releaser = {
                let gate = Arc::clone(&gate);
                thread::spawn(move || path.release(&gate))
            };
            in_hook.wait();
            let late = Arc::new(AtomicUsize::new(0));
            gate.enlist(counting_hook(&late));
            assert!(path.try_blocked(&gate), "{path:?}: retry sees the release");
            resume.wait();
            releaser.join().unwrap();
            assert_eq!(late.load(Ordering::SeqCst), 0, "{path:?}: missed the drain");
            assert!(
                has_waiters_bit(&gate),
                "{path:?}: left for the next release"
            );
            path.release_blocked(&gate);
            assert_eq!(
                late.load(Ordering::SeqCst),
                1,
                "{path:?}: next release fires"
            );
        }
    }

    #[test]
    fn waiter_enlisted_between_rmw_and_drain_gets_in_on_retry() {
        for round in 0..20 {
            for path in RELEASE_PATHS {
                let gate = Arc::new(ReadGate::new());
                path.hold(&gate);
                let early = Arc::new(AtomicUsize::new(0));
                gate.enlist(counting_hook(&early));
                // Holding the list's lock stalls the releaser after its RMW,
                // before its drain.
                let list = gate.waiters.lock();
                let releaser = {
                    let gate = Arc::clone(&gate);
                    thread::spawn(move || path.release(&gate))
                };
                while !path.released(gate.state.load(Ordering::SeqCst)) {
                    std::hint::spin_loop();
                }
                let late = Arc::new(AtomicUsize::new(0));
                let enlisted = Arc::new(Barrier::new(2));
                let waiter = {
                    let (gate, late, enlisted) =
                        (Arc::clone(&gate), Arc::clone(&late), Arc::clone(&enlisted));
                    thread::spawn(move || {
                        gate.enlist(counting_hook(&late));
                        enlisted.wait();
                        path.try_blocked(&gate)
                    })
                };
                // The late enlist and the drain now race for the lock.
                drop(list);
                enlisted.wait();
                assert!(waiter.join().unwrap(), "{path:?} round {round}: retry");
                releaser.join().unwrap();
                assert_eq!(early.load(Ordering::SeqCst), 1, "{path:?}: early fired");
                let listed = gate.waiters.lock().len();
                assert_eq!(
                    late.load(Ordering::SeqCst) + listed,
                    1,
                    "{path:?}: the late entry is fired or still listed"
                );
                assert_eq!(has_waiters_bit(&gate), listed != 0);
            }
        }
    }

    #[test]
    fn stress_readers_never_overlap_a_writer() {
        let gate = Arc::new(ReadGate::new());
        let in_write = Arc::new(AtomicUsize::new(0));
        let violations = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        for _ in 0..4 {
            let gate = Arc::clone(&gate);
            let in_write = Arc::clone(&in_write);
            let violations = Arc::clone(&violations);
            threads.push(thread::spawn(move || {
                for _ in 0..20_000 {
                    if gate.try_read() {
                        if in_write.load(Ordering::SeqCst) != 0 {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        gate.end_read();
                    }
                }
            }));
        }
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            let in_write = Arc::clone(&in_write);
            let violations = Arc::clone(&violations);
            threads.push(thread::spawn(move || {
                for _ in 0..5_000 {
                    gate.write();
                    if in_write.fetch_add(1, Ordering::SeqCst) != 0 {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    if gate.readers() != 0 {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                    in_write.fetch_sub(1, Ordering::SeqCst);
                    gate.end_write();
                }
            }));
        }
        // Hook waiters enlisted throughout the run, against every release
        // path the readers and writers take.
        const HOOKS: usize = 20_000;
        let fired = Arc::new(AtomicUsize::new(0));
        {
            let gate = Arc::clone(&gate);
            let fired = Arc::clone(&fired);
            threads.push(thread::spawn(move || {
                for i in 0..HOOKS {
                    gate.enlist(counting_hook(&fired));
                    if i % 64 == 0 {
                        thread::yield_now();
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(violations.load(Ordering::SeqCst), 0);
        assert_eq!(
            gate.state.load(Ordering::SeqCst) & (READERS_MASK | WRITER_ACTIVE),
            0,
            "no hold left behind"
        );
        let listed = gate.waiters.lock().len();
        assert_eq!(
            fired.load(Ordering::SeqCst) + listed,
            HOOKS,
            "every hook is fired once or still listed"
        );
        assert_eq!(has_waiters_bit(&gate), listed != 0);
    }
}
