//! Server-directed pulls for the threaded runtime.
//!
//! [`ScheduledReader`] wraps a pull endpoint and enforces a [`PullPolicy`]
//! across any number of consumer threads: a pull slot must be acquired
//! before data moves, and is held (via an RAII guard) until the consumer
//! finishes with the payload — bounding how much bulk data is in flight
//! at once, which is how DataStager keeps bulk movement from perturbing
//! the interconnect.
//!
//! The endpoint is anything implementing [`PullSource`]: the staged
//! channel's [`Reader`] is the original, and the step-streaming engine's
//! cursors implement it too, so one policy layer serves both transports.

use std::sync::Arc;
use std::time::Duration;

use adios::StepData;
use sim_core::SimTime;

use crate::channel::{Reader, StepMeta};
use crate::clock::{to_std, Clock};
use crate::gate::{Gate, Gated};
use crate::scheduler::PullPolicy;

/// A pull endpoint the scheduler can wrap: blocking and deadline-bounded
/// pulls over one [`Clock`] time axis.
pub trait PullSource {
    /// Pulls the next step, blocking until one is available; `None` once
    /// the source is closed and drained (or has failed).
    fn pull(&self) -> Option<(StepMeta, StepData)>;

    /// Pulls with a timeout measured on [`PullSource::clock`]; `None` on
    /// timeout, closed-and-drained, or failure.
    fn pull_timeout(&self, timeout: Duration) -> Option<(StepMeta, StepData)>;

    /// The time source every deadline is measured on. The scheduler's
    /// slot-wait deadlines live on the same axis, so slot time and data
    /// time share one budget.
    fn clock(&self) -> Arc<dyn Clock>;
}

/// The scheduler's own state under its gate: pulls in flight.
struct Slots {
    in_flight: usize,
}

struct Inner<S> {
    source: S,
    policy: PullPolicy,
    /// Slot waiters park here as the gate's takers: a freed slot is what
    /// they take, on the source's clock.
    slots: Gate<Slots>,
}

/// A policy-enforcing, clonable reader handle over any [`PullSource`].
pub struct ScheduledReader<S: PullSource = Reader> {
    inner: Arc<Inner<S>>,
}

impl<S: PullSource> Clone for ScheduledReader<S> {
    fn clone(&self) -> Self {
        ScheduledReader { inner: self.inner.clone() }
    }
}

/// RAII pull slot: while alive, the pull counts against the policy's
/// concurrency cap.
pub struct PullGuard<S: PullSource = Reader> {
    inner: Arc<Inner<S>>,
}

impl<S: PullSource> Drop for PullGuard<S> {
    fn drop(&mut self) {
        let mut st = self.inner.slots.lock();
        st.in_flight -= 1;
        st.wake_readers = true;
        self.inner.slots.release(st);
    }
}

impl<S: PullSource> ScheduledReader<S> {
    /// Wraps a pull endpoint with a pull policy.
    pub fn new(source: S, policy: PullPolicy) -> ScheduledReader<S> {
        let slots = Gate::new(Slots { in_flight: 0 }, source.clock());
        ScheduledReader { inner: Arc::new(Inner { source, policy, slots }) }
    }

    /// Pulls currently in flight (guards alive).
    pub fn in_flight(&self) -> usize {
        self.inner.slots.lock().in_flight
    }

    /// Takes a pull slot, waiting while the policy's cap is reached; `None`
    /// if `deadline` passed first. Dropping the guard gives the slot back.
    fn acquire(&self, deadline: Option<SimTime>) -> Option<PullGuard<S>> {
        let policy = self.inner.policy;
        let free =
            |st: &mut Gated<Slots>| Ok(policy.may_start(st.in_flight).then(|| st.in_flight += 1));
        let (st, ()) = self.inner.slots.take_until(deadline, free).ok()?;
        self.inner.slots.release(st);
        Some(PullGuard { inner: self.inner.clone() })
    }

    /// Acquires a pull slot (blocking while the policy's cap is reached),
    /// then pulls the next step. Returns `None` when the channel is closed
    /// and drained.
    pub fn pull(&self) -> Option<(PullGuard<S>, StepMeta, StepData)> {
        let slot = self.acquire(None)?;
        let (meta, data) = self.inner.source.pull()?;
        Some((slot, meta, data))
    }

    /// As [`ScheduledReader::pull`] but gives up after `timeout` waiting
    /// for a slot *and* data combined (a held slot is released on
    /// timeout).
    ///
    /// One deadline governs the whole call: time spent waiting for a pull
    /// slot is charged against the same budget the inner pull gets, so the
    /// total block time never exceeds `timeout` on the channel's
    /// [`Clock`]. (It used to hand the inner pull a fresh full budget
    /// after the slot wait, blocking for up to twice the stated timeout.)
    pub fn pull_timeout(&self, timeout: Duration) -> Option<(PullGuard<S>, StepMeta, StepData)> {
        let slots = &self.inner.slots;
        let deadline = slots.deadline(timeout);
        let slot = self.acquire(Some(deadline))?;
        // The slot wait may have consumed part (or all) of the budget:
        // hand the inner pull only what remains.
        let now = slots.clock().now();
        if now >= deadline {
            return None;
        }
        let (meta, data) = self.inner.source.pull_timeout(to_std(deadline.since(now)))?;
        Some((slot, meta, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::channel;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn greedy_policy_never_blocks_slots() {
        let (w, r) = channel(16);
        for i in 0..4 {
            w.try_write(StepData::new(i)).unwrap();
        }
        let sched = ScheduledReader::new(r, PullPolicy::Greedy);
        let mut guards = Vec::new();
        for _ in 0..4 {
            let (g, _, _) = sched.pull().unwrap();
            guards.push(g);
        }
        assert_eq!(sched.in_flight(), 4);
    }

    #[test]
    fn scheduled_policy_caps_concurrent_pulls() {
        let (w, r) = channel(16);
        for i in 0..8 {
            w.try_write(StepData::new(i)).unwrap();
        }
        let sched = ScheduledReader::new(r, PullPolicy::Scheduled { max_concurrent: 2 });
        let peak = Arc::new(AtomicUsize::new(0));
        let pulled = Arc::new(AtomicUsize::new(0));
        // Two pulls hold both slots ...
        let held: Vec<_> = (0..2).map(|_| sched.pull().unwrap()).collect();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (sched, peak, pulled) = (sched.clone(), peak.clone(), pulled.clone());
            handles.push(std::thread::spawn(move || {
                while let Some((_guard, _, _)) = sched.pull() {
                    peak.fetch_max(sched.in_flight(), Ordering::Relaxed);
                    pulled.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        // ... so every other consumer parks on the slot wait, whatever is
        // queued: the cap, not the data, is what holds them.
        while sched.inner.slots.lock().readers_parked() < 4 {
            std::thread::yield_now();
        }
        assert_eq!(sched.in_flight(), 2);
        // Freed, the four race through the six steps left (closed first,
        // so their pulls end once the queue is drained), two at a time.
        sched.inner.source.close();
        drop(held);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pulled.load(Ordering::Relaxed), 6);
        assert!(peak.load(Ordering::Relaxed) <= 2, "cap violated: {}", peak.load(Ordering::Relaxed));
    }

    #[test]
    fn dropping_guard_frees_the_slot() {
        let (w, r) = channel(4);
        w.try_write(StepData::new(0)).unwrap();
        w.try_write(StepData::new(1)).unwrap();
        let sched = ScheduledReader::new(r, PullPolicy::fifo());
        let (g, meta, _) = sched.pull().unwrap();
        assert_eq!(meta.step, 0);
        assert_eq!(sched.in_flight(), 1);
        drop(g);
        assert_eq!(sched.in_flight(), 0);
        let (_g, meta, _) = sched.pull().unwrap();
        assert_eq!(meta.step, 1);
    }

    #[test]
    fn closed_channel_releases_slot_and_returns_none() {
        let (w, r) = channel(4);
        drop(w);
        let sched = ScheduledReader::new(r, PullPolicy::fifo());
        sched.inner.source.close();
        assert!(sched.pull().is_none());
        assert_eq!(sched.in_flight(), 0);
    }

    #[test]
    fn timeout_while_waiting_for_slot_returns_none() {
        let (w, r) = channel(4);
        w.try_write(StepData::new(0)).unwrap();
        w.try_write(StepData::new(1)).unwrap();
        let sched = ScheduledReader::new(r, PullPolicy::fifo());
        let (_hold, _, _) = sched.pull().unwrap(); // occupies the only slot
        assert!(sched.pull_timeout(Duration::from_millis(20)).is_none());
    }
}
