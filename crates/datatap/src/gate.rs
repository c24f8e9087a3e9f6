//! The one gate: the pause/drain, close/fail and deadline-wait protocol,
//! written once for both transports (DESIGN.md, "One gate").
//!
//! A [`Gate<S>`] is one mutex over a [`Gated<S>`] plus a writer and a
//! reader condvar. `S` is the transport's own queue state (the staged
//! channel's FIFO, the stream engine's step log, the pull scheduler's slot
//! count); `Gated` adds the protocol flags, the parked-waiter counts and
//! the wake decisions of the operation holding the lock. An operation
//! *decides* under the lock whom to wake and [`Gate::release`] *notifies*
//! after unlocking, and only a condvar someone is parked on: waking a
//! parked thread costs the waker tens of microseconds on a small VM, and
//! under the mutex that is time the other side spends queueing for the lock.
//! (The methods that take closures or hand the guard back by value are
//! `#[inline]` for the same reason: out of line they lengthen every critical
//! section, which cost `stream_fanout` 4 % and `stream.pause_resume_ns` 13 %.)
//!
//! This is also the workspace's one `--cfg loom` seam: under
//! `RUSTFLAGS="--cfg loom"` the primitives below are the loom stand-in's
//! (seeded preemption points at every acquisition and wake), so both
//! transports are model-checked through the same code.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

use sim_core::SimTime;

use crate::channel::{PauseAborted, PullError, WriteError};
use crate::clock::{to_sim, Clock};

#[cfg(loom)]
use loom::sync::{Condvar, Mutex, MutexGuard};
#[cfg(not(loom))]
use parking_lot::{Condvar, Mutex, MutexGuard};

/// The gate's lock, held. Hand it to [`Gate::release`] when the operation
/// may have decided a wake.
pub type Guard<'a, S> = MutexGuard<'a, Gated<S>>;

/// A transport's queue state `S` (reached through `Deref`) under the
/// protocol flags.
pub struct Gated<S> {
    queue: S,
    paused: bool,
    /// Active [`Gate::pause`] drains. The write gate holds while this is
    /// non-zero, even after a concurrent resume cleared `paused`.
    drainers: usize,
    closed: bool,
    failed: Option<&'static str>,
    /// Writers parked in [`Gate::admit`] (drains, the other waiters on the
    /// writer condvar, are `drainers`) and takers parked in
    /// [`Gate::take_until`].
    writers_parked: usize,
    readers_parked: usize,
    /// Set to have [`Gate::release`] wake the writer side: parked writers
    /// and pause drains.
    pub wake_writers: bool,
    /// Set to have [`Gate::release`] wake the parked takers.
    pub wake_readers: bool,
}

impl<S> Deref for Gated<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.queue
    }
}

impl<S> DerefMut for Gated<S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.queue
    }
}

impl<S> Gated<S> {
    /// True while writes are refused: explicitly paused, or quiescing
    /// because a pause drain is still in progress.
    pub fn is_paused(&self) -> bool {
        self.paused || self.drainers > 0
    }

    /// True while a pause drain is watching the backlog.
    pub fn draining(&self) -> bool {
        self.drainers > 0
    }

    /// The failure reason, once failed.
    pub fn failure(&self) -> Option<&'static str> {
        self.failed
    }

    /// Writers parked on the gate right now.
    pub fn writers_parked(&self) -> usize {
        self.writers_parked
    }

    /// Takers parked on the gate right now.
    pub fn readers_parked(&self) -> usize {
        self.readers_parked
    }

    /// Clears the paused flag. A drain still in progress keeps the write
    /// gate held until it finishes.
    pub fn resume(&mut self) {
        self.paused = false;
        self.wake_writers = true;
    }

    /// Closes: writers are refused, takers drain what is queued and then
    /// end, drains abort. True if this call was the one that closed.
    pub fn close(&mut self) -> bool {
        self.wake_writers = true;
        self.wake_readers = true;
        !std::mem::replace(&mut self.closed, true)
    }

    /// Enters the failed state and has `discard` drop what is queued (it
    /// lived in crashed memory); returns what `discard` counted, or `None`
    /// if the gate had already failed.
    pub fn fail(
        &mut self,
        reason: &'static str,
        discard: impl FnOnce(&mut S) -> usize,
    ) -> Option<usize> {
        if self.failed.is_some() {
            return None;
        }
        self.failed = Some(reason);
        self.wake_writers = true;
        self.wake_readers = true;
        Some(discard(&mut self.queue))
    }
}

/// One lock, two condvars and a clock: see the module docs.
pub struct Gate<S> {
    state: Mutex<Gated<S>>,
    writer_cv: Condvar,
    reader_cv: Condvar,
    clock: Arc<dyn Clock>,
}

impl<S> Gate<S> {
    /// An open gate over `queue`, timing its deadlines on `clock`.
    pub fn new(queue: S, clock: Arc<dyn Clock>) -> Gate<S> {
        let state = Gated {
            queue,
            paused: false,
            drainers: 0,
            closed: false,
            failed: None,
            writers_parked: 0,
            readers_parked: 0,
            wake_writers: false,
            wake_readers: false,
        };
        Gate {
            state: Mutex::new(state),
            writer_cv: Condvar::new(),
            reader_cv: Condvar::new(),
            clock,
        }
    }

    /// The time source every deadline of this gate is measured on.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// `timeout` from now, on the gate's clock.
    pub fn deadline(&self, timeout: Duration) -> SimTime {
        self.clock.now() + to_sim(timeout)
    }

    /// Takes the lock.
    pub fn lock(&self) -> Guard<'_, S> {
        self.state.lock()
    }

    /// Ends an operation: releases the lock, then notifies what the
    /// operation decided to wake — each condvar only if someone is parked
    /// on it.
    #[inline]
    pub fn release(&self, mut st: Guard<'_, S>) {
        let writers = std::mem::take(&mut st.wake_writers) && st.writers_parked + st.drainers > 0;
        let readers = std::mem::take(&mut st.wake_readers) && st.readers_parked > 0;
        drop(st);
        if readers {
            self.reader_cv.notify_all();
        }
        if writers {
            self.writer_cv.notify_all();
        }
    }

    /// Admits one write and returns the lock for the caller to push under.
    /// Refusals come in the order failed → closed → `room`'s own error →
    /// [`WriteError::Paused`] → [`WriteError::QueueFull`] (`room` said
    /// `false`). With `block`, the last two park the writer instead, until
    /// whoever made room or lifted the pause wakes it.
    #[inline]
    pub fn admit<E: From<WriteError>>(
        &self,
        block: bool,
        mut room: impl FnMut(&mut Gated<S>) -> Result<bool, E>,
    ) -> Result<Guard<'_, S>, E> {
        let mut st = self.lock();
        loop {
            if let Some(reason) = st.failed {
                return Err(WriteError::Failed(reason).into());
            }
            if st.closed {
                return Err(WriteError::Closed.into());
            }
            let room = room(&mut st)?;
            let paused = st.is_paused();
            if room && !paused {
                return Ok(st);
            }
            if !block {
                return Err(if paused { WriteError::Paused } else { WriteError::QueueFull }.into());
            }
            st.writers_parked += 1;
            self.writer_cv.wait(&mut st);
            st.writers_parked -= 1;
        }
    }

    /// Engages the write gate, then blocks until `backlog` reaches zero;
    /// `engaged` runs in between, with the lock (it may release and retake
    /// it: the drain is already counted, so the gate holds across the gap).
    /// Returns the lock and the backlog at the instant the gate engaged, or
    /// why the drain gave up — an abort is never a success-shaped count.
    /// The gate survives a racing resume until the drain is over, so a
    /// resumed writer cannot refill the queue and stall the pauser.
    #[inline]
    pub fn pause<'g>(
        &'g self,
        backlog: impl Fn(&S) -> usize,
        engaged: impl FnOnce(Guard<'g, S>) -> Guard<'g, S>,
    ) -> (Guard<'g, S>, Result<usize, PauseAborted>) {
        let mut st = self.lock();
        st.paused = true;
        st.drainers += 1;
        let draining = backlog(&st);
        let mut st = engaged(st);
        let outcome = loop {
            // Failure first: a failed transport discarded its queue, so an
            // empty backlog there means lost steps, not drained ones.
            if let Some(reason) = st.failed {
                break Err(PauseAborted::Failed(reason));
            }
            let remaining = backlog(&st);
            if remaining == 0 {
                break Ok(draining);
            }
            if st.closed {
                break Err(PauseAborted::Closed { remaining });
            }
            self.writer_cv.wait(&mut st);
        };
        st.drainers -= 1;
        if st.drainers == 0 && !st.paused {
            // A resume landed mid-drain: the gate opens only now.
            st.wake_writers = true;
        }
        (st, outcome)
    }

    /// The one blocking take: retries `attempt` until it yields, parking in
    /// between, and gives up when `attempt` itself fails, the gate has
    /// failed or closed (what was queued before a close is taken first), or
    /// `deadline` passes on the gate's clock — one deadline for the whole
    /// wait; the clock is only read when there is one. Returns the lock
    /// with the value, for the caller to release.
    #[inline]
    pub fn take_until<T>(
        &self,
        deadline: Option<SimTime>,
        mut attempt: impl FnMut(&mut Gated<S>) -> Result<Option<T>, PullError>,
    ) -> Result<(Guard<'_, S>, T), PullError> {
        let mut st = self.lock();
        loop {
            if let Some(out) = attempt(&mut st)? {
                return Ok((st, out));
            }
            if let Some(reason) = st.failed {
                return Err(PullError::Failed(reason));
            }
            if st.closed {
                return Err(PullError::Closed);
            }
            let slice = match deadline {
                None => None,
                Some(deadline) => {
                    let now = self.clock.now();
                    if now >= deadline {
                        return Err(PullError::TimedOut);
                    }
                    Some(self.clock.block_slice(deadline.since(now)))
                }
            };
            // A taker that decided a wake carries it out before it parks,
            // lock held: nobody else may be left to. Its wait releases the
            // lock at once, so the woken writer does not queue.
            if std::mem::take(&mut st.wake_writers) && st.writers_parked + st.drainers > 0 {
                self.writer_cv.notify_all();
            }
            st.readers_parked += 1;
            match slice {
                None => self.reader_cv.wait(&mut st),
                Some(slice) => {
                    self.reader_cv.wait_for(&mut st, slice);
                }
            }
            st.readers_parked -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn admission_refuses_in_the_order_failed_closed_own_paused_full() {
        let gate = Gate::new(0u32, Arc::new(ManualClock::new()));
        let try_admit = |room: Result<bool, WriteError>| gate.admit(false, |_| room).map(drop);
        assert_eq!(try_admit(Ok(true)), Ok(()));
        assert_eq!(try_admit(Ok(false)), Err(WriteError::QueueFull));
        let (st, drained) = gate.pause(|_| 0, |st| st);
        assert_eq!(drained, Ok(0));
        gate.release(st);
        assert_eq!(try_admit(Ok(false)), Err(WriteError::Paused), "paused before full");
        assert_eq!(try_admit(Err(WriteError::Failed("own"))), Err(WriteError::Failed("own")));
        let _ = gate.lock().close();
        assert_eq!(try_admit(Err(WriteError::Failed("own"))), Err(WriteError::Closed));
        assert_eq!(gate.lock().fail("crash", |_| 3), Some(3));
        assert_eq!(gate.lock().fail("again", |_| 3), None, "failing twice is idempotent");
        assert_eq!(try_admit(Ok(true)), Err(WriteError::Failed("crash")));
    }

    #[test]
    fn a_take_spends_one_deadline_and_closed_drains_first() {
        let clock = Arc::new(ManualClock::new());
        let gate = Gate::new(vec![7u32], clock.clone());
        let pop = |st: &mut Gated<Vec<u32>>| Ok(st.pop());
        let _ = gate.lock().close();
        assert_eq!(gate.take_until(None, pop).map(|(_, v)| v), Ok(7), "queued before the close");
        assert_eq!(gate.take_until(None, pop).map(|(_, v)| v), Err(PullError::Closed));
        let open = Gate::new(Vec::<u32>::new(), clock.clone());
        let deadline = open.deadline(Duration::from_secs(60));
        assert_eq!(open.take_until(Some(deadline), pop).map(|(_, v)| v), Err(PullError::TimedOut));
        assert_eq!(clock.now(), SimTime::from_secs(60), "the wait passed virtually, once");
        assert_eq!(open.lock().readers_parked(), 0);
    }
}
