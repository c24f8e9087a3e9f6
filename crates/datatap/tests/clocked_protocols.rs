//! Deterministic regression tests for the transport's two protocol
//! contracts fixed alongside the streaming engine:
//!
//! * [`Writer::pause`] returns a **typed drain outcome** — an abort by
//!   close or failure is `Err(PauseAborted)`, never a success-shaped
//!   count — and the write gate survives a concurrent resume until the
//!   drain finishes;
//! * [`ScheduledReader::pull_timeout`] charges slot-wait time and
//!   data-wait time against **one** budget, so the total block time never
//!   exceeds the caller's timeout on the channel's clock.
//!
//! Everything here runs on injected clocks ([`ManualClock`] or the
//! hand-sequenced [`HandoffClock`]), so the assertions are exact virtual
//! time equalities, not sleep-based approximations.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use adios::StepData;
use datatap::{
    channel_with_clock, Clock, ManualClock, PauseAborted, PullPolicy, ScheduledReader, WriteError,
};
use sim_core::{SimDuration, SimTime};

fn step(ix: u64) -> StepData {
    StepData::new(ix)
}

// --- Writer::pause typed outcome -----------------------------------------

#[test]
fn pause_aborted_by_fail_is_an_error_not_a_count() {
    let (w, _r) = channel_with_clock(4, Arc::new(ManualClock::new()));
    w.try_write(step(0)).unwrap();
    w.try_write(step(1)).unwrap();
    let w_pause = w.clone();
    let pauser = thread::spawn(move || w_pause.pause());
    // Nobody pulls: the drain can only end through the failure, whatever
    // the interleaving (fail before or after the pause engages).
    assert_eq!(w.fail("node crash"), 2, "both buffered steps are lost");
    assert_eq!(
        pauser.join().unwrap(),
        Err(PauseAborted::Failed("node crash")),
        "a decrease protocol must see the lost steps, not a drained count"
    );
}

#[test]
fn pause_on_an_already_failed_channel_aborts_immediately() {
    let (w, _r) = channel_with_clock(4, Arc::new(ManualClock::new()));
    w.try_write(step(0)).unwrap();
    w.fail("power loss");
    assert_eq!(w.pause(), Err(PauseAborted::Failed("power loss")));
}

#[test]
fn pause_aborted_by_close_reports_the_undrained_backlog() {
    let (w, r) = channel_with_clock(4, Arc::new(ManualClock::new()));
    w.try_write(step(0)).unwrap();
    w.try_write(step(1)).unwrap();
    w.try_write(step(2)).unwrap();
    let w_pause = w.clone();
    let pauser = thread::spawn(move || w_pause.pause());
    // Nobody pulls: the drain can only end through the close.
    r.close();
    assert_eq!(pauser.join().unwrap(), Err(PauseAborted::Closed { remaining: 3 }));
    // The closing reader can still drain the backlog the pause reported.
    assert!(r.pull().is_some());
}

#[test]
fn pause_after_clean_drain_still_succeeds_when_closed_late() {
    let (w, r) = channel_with_clock(2, Arc::new(ManualClock::new()));
    w.try_write(step(0)).unwrap();
    let w_pause = w.clone();
    let pauser = thread::spawn(move || w_pause.pause());
    // Pull once the gate has engaged (the reported backlog is the one at
    // that instant). Drain completes; the close arriving afterwards must
    // not turn the already-successful drain into an abort.
    while !w.is_paused() {
        thread::yield_now();
    }
    let (m, _) = r.pull().unwrap();
    assert_eq!(m.step, 0);
    assert_eq!(pauser.join().unwrap(), Ok(1));
    r.close();
    assert_eq!(w.try_write(step(1)).unwrap_err(), WriteError::Closed);
}

#[test]
fn resume_during_pause_cannot_reopen_the_write_gate() {
    let (w, r) = channel_with_clock(4, Arc::new(ManualClock::new()));
    w.try_write(step(0)).unwrap();
    let w_pause = w.clone();
    let pauser = thread::spawn(move || w_pause.pause());
    // Wait until the drain engages; it cannot finish before we pull, so
    // this spin terminates and the gate is observably held.
    while !w.is_paused() {
        thread::yield_now();
    }
    // A resume racing the active drain clears the paused flag…
    w.resume();
    // …but the write gate must survive until the drain completes:
    // otherwise this write would refill the queue and stall the pauser
    // indefinitely.
    assert_eq!(
        w.try_write(step(1)).unwrap_err(),
        WriteError::Paused,
        "the drain gate must hold across a concurrent resume"
    );
    assert!(w.is_paused(), "the channel is still quiescing");
    let (m, _) = r.pull().unwrap();
    assert_eq!(m.step, 0);
    assert_eq!(pauser.join().unwrap(), Ok(1), "the drain completed cleanly");
    // The resume already landed, so the channel comes out unpaused and
    // writable.
    assert!(!w.is_paused());
    assert_eq!(w.try_write(step(2)).unwrap().step, 2);
    assert_eq!(r.queued(), 1);
}

// --- ScheduledReader::pull_timeout single budget --------------------------

/// A clock for sequencing a partial slot wait deterministically. The
/// first blocking wait advances virtual time by `first_advance` and
/// signals the test (it cannot park here — `block_slice` runs with the
/// wait's mutex held); it returns a generous *real* wait that the test
/// interrupts by freeing the pull slot (condvar notify). Until the test
/// calls [`HandoffClock::release`], further waits leave virtual time
/// untouched (absorbing any spurious wakeup); after `release`, they jump
/// to the deadline like [`ManualClock`] does.
struct HandoffClock {
    now: ManualClock,
    first_advance: SimDuration,
    waited: mpsc::Sender<()>,
    first_done: std::sync::atomic::AtomicBool,
    released: std::sync::atomic::AtomicBool,
}

impl HandoffClock {
    fn new(first_advance: SimDuration) -> (Arc<HandoffClock>, mpsc::Receiver<()>) {
        let (waited_tx, waited_rx) = mpsc::channel();
        let clock = Arc::new(HandoffClock {
            now: ManualClock::new(),
            first_advance,
            waited: waited_tx,
            first_done: std::sync::atomic::AtomicBool::new(false),
            released: std::sync::atomic::AtomicBool::new(false),
        });
        (clock, waited_rx)
    }

    /// After this, blocked waits jump virtual time to their deadline.
    fn release(&self) {
        self.released.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

impl Clock for HandoffClock {
    fn now(&self) -> SimTime {
        self.now.now()
    }

    fn block_slice(&self, remaining: SimDuration) -> Duration {
        use std::sync::atomic::Ordering;
        if !self.first_done.swap(true, Ordering::SeqCst) {
            // First wait: consume part of the budget, hand control to the
            // test, and let the condvar really wait (the test's notify
            // interrupts it long before this bound).
            self.now.advance(self.first_advance.min(remaining));
            self.waited.send(()).expect("test is listening");
            Duration::from_secs(5)
        } else if self.released.load(Ordering::SeqCst) {
            // Jump to the deadline, as a manual clock would.
            self.now.advance(remaining);
            Duration::ZERO
        } else {
            // Spurious wakeup before the test acted: no virtual progress.
            Duration::from_secs(5)
        }
    }
}

/// The regression the fix pins: a slot wait that consumes part of the
/// budget must leave the inner data wait only the remainder. The old code
/// handed the inner pull a fresh full timeout, so the total virtual block
/// time came to `slot wait + timeout` — up to 2× the caller's timeout.
#[test]
fn pull_timeout_total_block_time_is_bounded_by_the_timeout() {
    let (clock, waited) = HandoffClock::new(SimDuration::from_secs(4));
    let (w, r) = channel_with_clock(4, clock.clone());
    w.try_write(step(0)).unwrap();
    let sched = ScheduledReader::new(r, PullPolicy::fifo());
    // Occupy the only pull slot.
    let (guard, m, _) = sched.pull().expect("slot free, data present");
    assert_eq!(m.step, 0);

    let sched2 = sched.clone();
    let puller = thread::spawn(move || sched2.pull_timeout(Duration::from_secs(10)));
    // The puller blocks on the slot; its first wait advances virtual time
    // to t=4s (4 of the 10s budget spent) and really waits until we drop
    // the guard (the notify interrupts the wait).
    waited.recv().expect("puller reached the slot wait");
    clock.release();
    drop(guard);

    // The puller now acquires the slot at t=4s with an empty channel. The
    // inner data wait must get only the remaining 6s: total virtual time
    // lands exactly on start + timeout, not start + 4s + timeout.
    assert!(puller.join().unwrap().is_none(), "no data ever arrived");
    assert_eq!(
        clock.now(),
        SimTime::from_secs(10),
        "slot wait and data wait must share one 10s budget"
    );
    assert_eq!(sched.in_flight(), 0, "the timed-out pull released its slot");
}

/// When the slot wait consumes the whole budget, the pull must give up at
/// the deadline without touching the inner data wait at all.
#[test]
fn pull_timeout_expiring_in_the_slot_wait_returns_at_the_deadline() {
    let (clock, waited) = HandoffClock::new(SimDuration::from_secs(10));
    let (w, r) = channel_with_clock(4, clock.clone());
    w.try_write(step(0)).unwrap();
    let sched = ScheduledReader::new(r, PullPolicy::fifo());
    let (guard, _, _) = sched.pull().expect("slot free, data present");

    let sched2 = sched.clone();
    let puller = thread::spawn(move || sched2.pull_timeout(Duration::from_secs(10)));
    // The first wait burns the entire 10s budget, then we free the slot:
    // the puller may acquire it, but the deadline has already passed, so
    // it must return None at exactly t=10s instead of granting the inner
    // pull a fresh budget (the old behaviour: None at t=20s).
    waited.recv().expect("puller reached the slot wait");
    clock.release();
    drop(guard);

    assert!(puller.join().unwrap().is_none());
    assert_eq!(
        clock.now(),
        SimTime::from_secs(10),
        "an expired deadline must not buy the inner pull a fresh budget"
    );
    assert_eq!(sched.in_flight(), 0);
}

/// Data arriving within the remaining budget is still delivered — the
/// tightened deadline only trims the wait, it does not drop live steps.
#[test]
fn pull_timeout_remaining_budget_still_delivers_data() {
    let (clock, waited) = HandoffClock::new(SimDuration::from_secs(4));
    let (w, r) = channel_with_clock(4, clock.clone());
    w.try_write(step(0)).unwrap();
    let sched = ScheduledReader::new(r, PullPolicy::fifo());
    let (guard, _, _) = sched.pull().expect("slot free, data present");

    let sched2 = sched.clone();
    let puller = thread::spawn(move || {
        sched2.pull_timeout(Duration::from_secs(10)).map(|(_, m, _)| m.step)
    });
    waited.recv().expect("puller reached the slot wait");
    // Supply data BEFORE freeing the slot, so when the puller acquires it
    // at t=4s the step is already there: the pull must succeed within the
    // remaining budget without any further virtual wait. (The clock is
    // never released — a spurious wakeup makes no virtual progress.)
    w.try_write(step(7)).unwrap();
    drop(guard);

    assert_eq!(puller.join().unwrap(), Some(7));
    assert_eq!(clock.now(), SimTime::from_secs(4), "no further virtual wait was needed");
}
