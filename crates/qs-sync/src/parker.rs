//! A one-thread parking slot with a lost-wakeup-free publish protocol.
//!
//! The queue crate's blocking paths (a consumer waiting for work, a bounded
//! producer waiting for space) all follow the same shape: register the
//! current thread, publish a "parked" flag, re-check the awaited condition,
//! and park until a waker observes the flag.  The subtle part is the memory
//! ordering: the flag publish and the condition re-check must not be
//! StoreLoad-reordered, or the parker and the waker can miss each other and
//! the thread parks forever.  That protocol lives here *once*, so every
//! blocking queue path shares the same proven sequence instead of carrying
//! its own copy.

use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::thread::Thread;

use crate::SpinLock;

/// A parking slot for a single waiting thread.
///
/// The waiter calls [`park_until`](Parker::park_until) with the condition it
/// is waiting for; any other thread calls [`wake`](Parker::wake) after
/// making that condition true.  Either the waker's SeqCst swap observes the
/// parked flag (and unparks), or the waiter's post-fence re-check observes
/// the state the waker published first — a plain Release store + Acquire
/// re-check would allow both sides to miss each other (StoreLoad
/// reordering) and lose the wakeup.
#[derive(Debug, Default)]
pub struct Parker {
    thread: SpinLock<Option<Thread>>,
    parked: AtomicBool,
}

impl Parker {
    /// Creates an empty parking slot.
    pub fn new() -> Self {
        Parker {
            thread: SpinLock::new(None),
            parked: AtomicBool::new(false),
        }
    }

    /// Blocks the current thread until `condition` returns `true` or a
    /// [`wake`](Parker::wake) arrives (callers re-check in their outer
    /// retry loop, so an early wake costs one extra iteration, never a
    /// missed state change).
    ///
    /// The condition is re-checked after the parked flag is published (and
    /// after every wakeup), so a state change racing with the registration
    /// is never missed.  Spurious returns of the underlying `thread::park`
    /// are absorbed.
    pub fn park_until(&self, mut condition: impl FnMut() -> bool) {
        *self.thread.lock() = Some(std::thread::current());
        self.parked.store(true, Ordering::Release);
        // Orders the parked-flag publish before the re-check; pairs with the
        // SeqCst swap in `wake`.
        fence(Ordering::SeqCst);
        if condition() {
            self.unregister();
            return;
        }
        while self.parked.load(Ordering::Acquire) {
            std::thread::park();
            if condition() {
                self.unregister();
                return;
            }
        }
    }

    /// [`park_until`](Parker::park_until) with a deadline: gives up once
    /// `Instant::now() >= deadline` even if neither the condition nor a wake
    /// arrived.  Returns the final observation of `condition` — `true` when
    /// the awaited state was seen (possibly right at the deadline), `false`
    /// on a pure timeout.  Like `park_until`, a wake may also return early
    /// with the condition still false; callers re-check in their outer loop.
    pub fn park_until_deadline(
        &self,
        mut condition: impl FnMut() -> bool,
        deadline: std::time::Instant,
    ) -> bool {
        *self.thread.lock() = Some(std::thread::current());
        self.parked.store(true, Ordering::Release);
        // Same publish protocol as `park_until`; pairs with the SeqCst swap
        // in `wake`.
        fence(Ordering::SeqCst);
        if condition() {
            self.unregister();
            return true;
        }
        while self.parked.load(Ordering::Acquire) {
            let now = std::time::Instant::now();
            if now >= deadline {
                self.unregister();
                return condition();
            }
            std::thread::park_timeout(deadline - now);
            if condition() {
                self.unregister();
                return true;
            }
        }
        condition()
    }

    fn unregister(&self) {
        self.parked.store(false, Ordering::Release);
        self.thread.lock().take();
    }

    /// Wakes the parked thread, if any.
    ///
    /// Call *after* publishing the state change the waiter is waiting for.
    /// The SeqCst swap pairs with the fence in [`park_until`].
    ///
    /// The registration is only borrowed, never taken: a waker preempted
    /// between its swap and the unpark may find the waiter already parked
    /// again in a later round.  Taking the slot then would leave `parked`
    /// set with no thread registered, and the next waker would unpark no
    /// one.  Only the waiter clears the slot.
    pub fn wake(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            if let Some(thread) = self.thread.lock().as_ref() {
                thread.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn condition_true_up_front_never_parks() {
        let parker = Parker::new();
        parker.park_until(|| true);
    }

    #[test]
    fn wake_releases_a_parked_thread() {
        let parker = Arc::new(Parker::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (parker, flag) = (Arc::clone(&parker), Arc::clone(&flag));
            thread::spawn(move || parker.park_until(|| flag.load(Ordering::Acquire)))
        };
        thread::sleep(Duration::from_millis(30));
        flag.store(true, Ordering::Release);
        parker.wake();
        waiter.join().unwrap();
    }

    #[test]
    fn wake_without_waiter_is_harmless() {
        let parker = Parker::new();
        parker.wake();
        parker.park_until(|| true);
    }

    #[test]
    fn deadline_park_times_out_without_a_wake() {
        let parker = Parker::new();
        let deadline = std::time::Instant::now() + Duration::from_millis(40);
        let started = std::time::Instant::now();
        let observed = parker.park_until_deadline(|| false, deadline);
        assert!(!observed, "nothing ever made the condition true");
        assert!(started.elapsed() >= Duration::from_millis(40));
        // The slot is fully unregistered: a later plain park still works.
        parker.park_until(|| true);
    }

    #[test]
    fn deadline_park_returns_promptly_on_wake() {
        let parker = Arc::new(Parker::new());
        let flag = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (parker, flag) = (Arc::clone(&parker), Arc::clone(&flag));
            thread::spawn(move || {
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                parker.park_until_deadline(|| flag.load(Ordering::Acquire), deadline)
            })
        };
        thread::sleep(Duration::from_millis(30));
        flag.store(true, Ordering::Release);
        parker.wake();
        assert!(waiter.join().unwrap(), "wake must deliver the condition");
    }

    #[test]
    fn deadline_park_with_condition_already_true_never_blocks() {
        let parker = Parker::new();
        // A deadline in the past still observes a true condition.
        let deadline = std::time::Instant::now() - Duration::from_millis(1);
        assert!(parker.park_until_deadline(|| true, deadline));
    }

    #[test]
    fn repeated_rounds_lose_no_wakeups() {
        let parker = Arc::new(Parker::new());
        let turn = Arc::new(AtomicUsize::new(0));
        let rounds = 10_000;
        let waker = {
            let (parker, turn) = (Arc::clone(&parker), Arc::clone(&turn));
            thread::spawn(move || {
                for round in 0..rounds {
                    while turn.load(Ordering::Acquire) != round {
                        std::hint::spin_loop();
                    }
                    turn.store(round + 1, Ordering::Release);
                    parker.wake();
                }
            })
        };
        for round in 0..rounds {
            parker.park_until(|| turn.load(Ordering::Acquire) > round);
        }
        waker.join().unwrap();
    }

    /// Several wakers racing one waiter that reuses the parker: a waker
    /// preempted between its swap and its unpark must not consume the
    /// waiter's next registration, or a later wake finds `parked` set with
    /// no thread to unpark and the waiter sleeps forever.
    #[test]
    fn racing_wakers_never_strand_a_reused_parker() {
        const WAKERS: usize = 3;
        const WAKES_PER_WAKER: usize = 20_000;
        let parker = Arc::new(Parker::new());
        let posted = Arc::new(AtomicUsize::new(0));
        let wakers: Vec<_> = (0..WAKERS)
            .map(|_| {
                let (parker, posted) = (Arc::clone(&parker), Arc::clone(&posted));
                thread::spawn(move || {
                    for _ in 0..WAKES_PER_WAKER {
                        posted.fetch_add(1, Ordering::SeqCst);
                        parker.wake();
                    }
                })
            })
            .collect();
        // Every park waits for a wake posted after the previous round, so
        // each round re-registers while wakers may still be mid-`wake`.
        let total = WAKERS * WAKES_PER_WAKER;
        let mut seen = 0;
        while seen < total {
            parker.park_until(|| posted.load(Ordering::SeqCst) > seen);
            seen = posted.load(Ordering::SeqCst);
        }
        for waker in wakers {
            waker.join().unwrap();
        }
    }
}
