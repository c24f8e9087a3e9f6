//! The two-phase staged channel: metadata push, data pull.
//!
//! DataTap/DataStager's defining behaviour is that a writer never pushes
//! bulk data at a receiver. It buffers the payload locally, pushes a small
//! *metadata* record, and the receiver *pulls* the payload when it is ready
//! (over RDMA on the real machine). This keeps slow receivers from being
//! overwhelmed and lets the receiver schedule pulls to manage interconnect
//! contention.
//!
//! [`Channel`] implements those semantics for the threaded runtime:
//! bounded buffering with backpressure (a full buffer blocks the writer —
//! the "application blocking" the paper's management exists to prevent),
//! and a pause/resume protocol used by the container decrease operation:
//! [`Writer::pause`] stops new announcements and blocks until every
//! announced step has been pulled, so no time step can be lost while the
//! downstream container is being resized.
//!
//! The channel owns its FIFO, the high-water mark, `peek_meta` and the
//! `datatap.*` telemetry. The protocol around them — admission order,
//! parking, pause/drain, close/fail, the deadline of a timed pull, who is
//! woken and when — is [`crate::gate`]'s, shared with the stream engine
//! (DESIGN.md, "One gate").

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use adios::StepData;
use sim_core::SimTime;
use simtel::{Category, Telemetry};

use crate::clock::{Clock, WallClock};
use crate::gate::{Gate, Gated};
use crate::sched_reader::PullSource;

/// Metadata announcing one buffered output step. Three plain words —
/// `Copy`, so the per-message paths hand it around without cloning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepMeta {
    /// Output-step index.
    pub step: u64,
    /// Payload size in bytes (what the pull will move).
    pub bytes: u64,
    /// Identifier of the writer that buffered the payload.
    pub writer: u32,
}

/// Why a write could not be accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteError {
    /// The channel buffer is full (receiver too slow).
    QueueFull,
    /// The channel was closed by the reader side.
    Closed,
    /// The writer is paused by a control action.
    Paused,
    /// The channel failed (endpoint crash injected via [`Writer::fail`]).
    Failed(&'static str),
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::QueueFull => write!(f, "staging queue full"),
            WriteError::Closed => write!(f, "channel closed"),
            WriteError::Paused => write!(f, "writer paused"),
            WriteError::Failed(reason) => write!(f, "channel failed: {reason}"),
        }
    }
}

impl std::error::Error for WriteError {}

/// Why a checked pull returned no step. This is the typed surface for
/// failed pulls: a reader blocked on a crashed endpoint gets
/// [`PullError::Failed`] instead of hanging forever.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PullError {
    /// The channel failed (endpoint crash injected via [`Writer::fail`]);
    /// any payload buffered at the crashed writer is unrecoverable.
    Failed(&'static str),
    /// The channel was closed and the buffer fully drained.
    Closed,
    /// The deadline passed with no step available.
    TimedOut,
}

impl std::fmt::Display for PullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PullError::Failed(reason) => write!(f, "pull failed: {reason}"),
            PullError::Closed => write!(f, "channel closed and drained"),
            PullError::TimedOut => write!(f, "pull timed out"),
        }
    }
}

impl std::error::Error for PullError {}

/// Why a [`Writer::pause`] drain was aborted before every announced step
/// had been pulled. A decrease protocol that receives this must treat the
/// drain as **failed** — steps may have been lost (`Failed`) or may still
/// be in a buffer it can no longer observe (`Closed`) — instead of
/// proceeding as if the channel quiesced cleanly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PauseAborted {
    /// The reader side closed the channel mid-drain. `remaining` steps
    /// were still buffered when the drain gave up (a closing reader may
    /// still drain them, but the pauser can no longer wait for it).
    Closed {
        /// Steps still buffered when the drain aborted.
        remaining: usize,
    },
    /// The channel failed mid-drain (endpoint crash); every step still
    /// buffered at the crashed writer was discarded.
    Failed(&'static str),
}

impl std::fmt::Display for PauseAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PauseAborted::Closed { remaining } => {
                write!(f, "pause aborted: channel closed with {remaining} steps undrained")
            }
            PauseAborted::Failed(reason) => {
                write!(f, "pause aborted: channel failed: {reason}")
            }
        }
    }
}

impl std::error::Error for PauseAborted {}

/// The channel's own state under the gate: the FIFO and its bound.
struct Fifo {
    queue: VecDeque<(StepMeta, StepData)>,
    capacity: usize,
    high_watermark: usize,
}

struct Inner {
    gate: Gate<Fifo>,
    telemetry: Telemetry,
}

impl Inner {
    /// Records a queue-depth sample under [`Category::Transport`].
    fn gauge_queued(&self, queued: usize) {
        if self.telemetry.enabled(Category::Transport) {
            let now = self.gate.clock().now();
            self.telemetry.gauge(Category::Transport, "datatap.queued", now, queued as f64);
        }
    }

    /// Marks a control action (`pause`, `resume`, `fail`) on the timeline.
    fn mark(&self, action: &str) {
        if self.telemetry.enabled(Category::Transport) {
            let now = self.gate.clock().now();
            self.telemetry.mark(Category::Transport, "datatap", action, now);
        }
    }
}

/// Creates a staged channel with a buffer of `capacity` steps, timing its
/// timeout paths against the process wall clock.
///
/// # Panics
/// Panics if `capacity` is zero.
pub fn channel(capacity: usize) -> (Writer, Reader) {
    channel_with_clock(capacity, Arc::new(WallClock::new()))
}

/// As [`channel`], but with an injected [`Clock`] — a [`ManualClock`]
/// makes timeout behaviour fully deterministic in tests.
///
/// [`ManualClock`]: crate::clock::ManualClock
///
/// # Panics
/// Panics if `capacity` is zero.
pub fn channel_with_clock(capacity: usize, clock: Arc<dyn Clock>) -> (Writer, Reader) {
    channel_with_telemetry(capacity, clock, Telemetry::disabled())
}

/// As [`channel_with_clock`], but recording flow through `telemetry`
/// (announce/pull totals, queue-depth gauge, pause/resume markers — all
/// under [`Category::Transport`]).
///
/// # Panics
/// Panics if `capacity` is zero.
pub fn channel_with_telemetry(
    capacity: usize,
    clock: Arc<dyn Clock>,
    telemetry: Telemetry,
) -> (Writer, Reader) {
    assert!(capacity > 0, "channel capacity must be positive");
    let fifo = Fifo { queue: VecDeque::with_capacity(capacity), capacity, high_watermark: 0 };
    let inner = Arc::new(Inner { gate: Gate::new(fifo, clock), telemetry });
    (Writer { inner: inner.clone(), id: 0 }, Reader { inner })
}

/// The producing end. Cloneable: parallel writers (e.g. the ranks of an MPI
/// component) share the buffer.
#[derive(Clone)]
pub struct Writer {
    inner: Arc<Inner>,
    id: u32,
}

impl Writer {
    /// Returns a writer handle with a distinct writer id (for metadata
    /// attribution).
    pub fn with_id(&self, id: u32) -> Writer {
        Writer { inner: self.inner.clone(), id }
    }

    /// Attempts to buffer a step without blocking.
    pub fn try_write(&self, step: StepData) -> Result<StepMeta, WriteError> {
        self.put(false, step)
    }

    /// Buffers a step, blocking while the buffer is full or the writer is
    /// paused — this is the "application blocks on I/O" failure mode.
    pub fn write(&self, step: StepData) -> Result<StepMeta, WriteError> {
        self.put(true, step)
    }

    fn put(&self, block: bool, payload: StepData) -> Result<StepMeta, WriteError> {
        let gate = &self.inner.gate;
        let room = |st: &mut Gated<Fifo>| Ok::<_, WriteError>(st.queue.len() < st.capacity);
        let mut st = gate.admit(block, room)?;
        let meta =
            StepMeta { step: payload.step(), bytes: payload.payload_bytes(), writer: self.id };
        st.queue.push_back((meta, payload));
        st.high_watermark = st.high_watermark.max(st.queue.len());
        self.inner.telemetry.count(Category::Transport, "datatap.announced", 1);
        self.inner.gauge_queued(st.queue.len());
        st.wake_readers = true;
        gate.release(st);
        Ok(meta)
    }

    /// Pauses the channel and blocks until every announced step has been
    /// pulled. On success, returns the number of steps that had to drain.
    ///
    /// This is the consistency action the decrease protocol waits on; its
    /// cost is what dominates Fig. 5. Because that protocol's "no step is
    /// lost" guarantee rests on the drain actually completing, an aborted
    /// drain is a typed error, never a success-shaped count:
    /// [`PauseAborted::Failed`] if the channel failed mid-drain (buffered
    /// steps were discarded), [`PauseAborted::Closed`] if the reader side
    /// closed while steps were still buffered. The write gate survives a
    /// concurrent [`Writer::resume`] until the drain is over (see
    /// [`Gate::pause`]); the channel then comes out of it unpaused.
    pub fn pause(&self) -> Result<usize, PauseAborted> {
        let (st, outcome) = self.inner.gate.pause(
            |fifo| fifo.queue.len(),
            |st| {
                self.inner.telemetry.count(Category::Transport, "datatap.pauses", 1);
                self.inner.mark("pause");
                st
            },
        );
        if outcome.is_err() {
            self.inner.telemetry.count(Category::Transport, "datatap.pause_aborts", 1);
        }
        self.inner.gate.release(st);
        outcome
    }

    /// Resumes a paused channel. If a [`Writer::pause`] drain is still in
    /// progress, the paused flag clears immediately but the write gate
    /// stays held until that drain finishes.
    pub fn resume(&self) {
        let mut st = self.inner.gate.lock();
        st.resume();
        self.inner.mark("resume");
        self.inner.gate.release(st);
    }

    /// True if the channel currently rejects writes: explicitly paused, or
    /// quiescing because a pause drain is still in progress.
    pub fn is_paused(&self) -> bool {
        self.inner.gate.lock().is_paused()
    }

    /// Writers blocked in [`Writer::write`] right now: what a test waits
    /// on instead of sleeping until a writer has "surely" parked.
    #[doc(hidden)]
    pub fn parked_writers(&self) -> usize {
        self.inner.gate.lock().writers_parked()
    }

    /// Injects an endpoint failure: the channel enters the failed state,
    /// every buffered-but-unpulled payload is discarded (it lived in the
    /// crashed writer's memory and is unrecoverable), and all blocked
    /// parties wake — writers fail with [`WriteError::Failed`], checked
    /// pulls with [`PullError::Failed`], and plain pulls return `None`
    /// instead of hanging. Returns the number of steps lost.
    pub fn fail(&self, reason: &'static str) -> usize {
        let mut st = self.inner.gate.lock();
        let Some(lost) = st.fail(reason, |fifo| fifo.queue.drain(..).count()) else { return 0 };
        self.inner.telemetry.count(Category::Transport, "datatap.failed_steps", lost as u64);
        self.inner.mark("fail");
        self.inner.gate.release(st);
        lost
    }
}

/// The consuming end.
pub struct Reader {
    inner: Arc<Inner>,
}

impl Reader {
    /// Peeks the metadata of the next buffered step without pulling it.
    pub fn peek_meta(&self) -> Option<StepMeta> {
        self.inner.gate.lock().queue.front().map(|(meta, _)| *meta)
    }

    /// Pops the next buffered step, if any, and decides to wake whoever
    /// waits for queue space (blocked writers, pause drains).
    fn pop(&self, st: &mut Gated<Fifo>) -> Option<(StepMeta, StepData)> {
        let step = st.queue.pop_front()?;
        self.inner.telemetry.count(Category::Transport, "datatap.pulled", 1);
        self.inner.gauge_queued(st.queue.len());
        st.wake_writers = true;
        Some(step)
    }

    /// The one blocking pull: waits for a step until the channel fails or
    /// closes, or until `deadline` on the channel's [`Clock`] passes.
    fn take(&self, deadline: Option<SimTime>) -> Result<(StepMeta, StepData), PullError> {
        let (st, step) = self.inner.gate.take_until(deadline, |st| Ok(self.pop(st)))?;
        self.inner.gate.release(st);
        Ok(step)
    }

    /// Pulls the next step, blocking until one is available. Returns `None`
    /// once the channel is closed and drained, or once it has failed (use
    /// [`Reader::pull_checked`] to distinguish — a failed pull surfaces as
    /// a typed [`PullError::Failed`] rather than a silent hang).
    pub fn pull(&self) -> Option<(StepMeta, StepData)> {
        self.take(None).ok()
    }

    /// Pulls the next step with a typed outcome: `Ok` with the step,
    /// [`PullError::Failed`] if the channel's endpoint crashed (no hang),
    /// [`PullError::Closed`] once closed and drained, or
    /// [`PullError::TimedOut`] if `timeout` elapses first (measured on the
    /// channel's [`Clock`]).
    pub fn pull_checked(
        &self,
        timeout: Duration,
    ) -> Result<(StepMeta, StepData), PullError> {
        self.take(Some(self.inner.gate.deadline(timeout)))
    }

    /// Pulls with a timeout; `None` on timeout or closed-and-drained.
    ///
    /// The deadline is computed on the channel's [`Clock`], so under a
    /// manual clock the timeout only expires when virtual time is advanced
    /// past it.
    pub fn pull_timeout(&self, timeout: Duration) -> Option<(StepMeta, StepData)> {
        self.pull_checked(timeout).ok()
    }

    /// Attempts a pull without blocking.
    pub fn try_pull(&self) -> Option<(StepMeta, StepData)> {
        let mut st = self.inner.gate.lock();
        let step = self.pop(&mut st);
        self.inner.gate.release(st);
        step
    }

    /// Steps currently buffered (announced but not yet pulled).
    pub fn queued(&self) -> usize {
        self.inner.gate.lock().queue.len()
    }

    /// The deepest the buffer has ever been.
    pub fn high_watermark(&self) -> usize {
        self.inner.gate.lock().high_watermark
    }

    /// The failure reason, if the channel's endpoint has crashed.
    pub fn failure(&self) -> Option<&'static str> {
        self.inner.gate.lock().failure()
    }

    /// Closes the channel; blocked writers fail with
    /// [`WriteError::Closed`], blocked pulls drain then end.
    pub fn close(&self) {
        let mut st = self.inner.gate.lock();
        st.close();
        self.inner.gate.release(st);
    }
}

impl Drop for Reader {
    fn drop(&mut self) {
        self.close();
    }
}

impl PullSource for Reader {
    fn pull(&self) -> Option<(StepMeta, StepData)> {
        Reader::pull(self)
    }

    fn pull_timeout(&self, timeout: Duration) -> Option<(StepMeta, StepData)> {
        Reader::pull_timeout(self, timeout)
    }

    fn clock(&self) -> Arc<dyn Clock> {
        self.inner.gate.clock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn step(ix: u64) -> StepData {
        StepData::new(ix)
    }

    /// Spins until `ready`: a hand-shake on state the gate already has,
    /// where a sleep would only make the race unlikely.
    fn spin_until(ready: impl Fn() -> bool) {
        while !ready() {
            thread::yield_now();
        }
    }

    #[test]
    fn metadata_precedes_data() {
        let (w, r) = channel(4);
        w.try_write(step(0)).unwrap();
        let meta = r.peek_meta().unwrap();
        assert_eq!(meta.step, 0);
        // Peeking does not consume.
        let (meta2, _) = r.pull().unwrap();
        assert_eq!(meta, meta2);
    }

    #[test]
    fn try_write_reports_full() {
        let (w, _r) = channel(2);
        w.try_write(step(0)).unwrap();
        w.try_write(step(1)).unwrap();
        assert_eq!(w.try_write(step(2)).unwrap_err(), WriteError::QueueFull);
    }

    #[test]
    fn blocking_write_resumes_after_pull() {
        let (w, r) = channel(1);
        w.write(step(0)).unwrap();
        let w2 = w.clone();
        let writer = thread::spawn(move || w2.write(step(1)).map(|m| m.step));
        spin_until(|| w.parked_writers() == 1);
        let (m, _) = r.pull().unwrap();
        assert_eq!(m.step, 0);
        assert_eq!(writer.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn pause_drains_announced_steps() {
        let (w, r) = channel(8);
        for i in 0..3 {
            w.try_write(step(i)).unwrap();
        }
        let w2 = w.clone();
        let pauser = thread::spawn(move || w2.pause());
        // Drain from the reader side, once the gate has engaged (the
        // reported backlog is the one at that instant); pause must complete
        // exactly when the queue empties.
        while !w.is_paused() {
            thread::yield_now();
        }
        for _ in 0..3 {
            r.pull().unwrap();
        }
        assert_eq!(pauser.join().unwrap(), Ok(3));
        assert!(w.is_paused());
        assert_eq!(w.try_write(step(9)).unwrap_err(), WriteError::Paused);
        w.resume();
        w.try_write(step(9)).unwrap();
    }

    #[test]
    fn close_unblocks_everyone() {
        let (w, r) = channel(1);
        w.try_write(step(0)).unwrap();
        let w2 = w.clone();
        let blocked = thread::spawn(move || w2.write(step(1)));
        spin_until(|| w.parked_writers() == 1);
        r.close();
        assert_eq!(blocked.join().unwrap().unwrap_err(), WriteError::Closed);
        // Buffered data is still drainable after close.
        assert!(r.pull().is_some());
        assert!(r.pull().is_none());
    }

    #[test]
    fn telemetry_tracks_flow() {
        use crate::clock::ManualClock;
        use simtel::TelemetryConfig;
        let tel = Telemetry::new(TelemetryConfig::all());
        let clock = Arc::new(ManualClock::new());
        let (w, r) = channel_with_telemetry(4, clock, tel.clone());
        for i in 0..4 {
            w.try_write(step(i)).unwrap();
        }
        r.pull().unwrap();
        assert_eq!(tel.counter("datatap.announced"), 4);
        assert_eq!(tel.counter("datatap.pulled"), 1);
        assert_eq!(r.queued(), 3);
        assert_eq!(r.high_watermark(), 4);
        // The queue-depth gauge saw every transition: 1, 2, 3, 4, then 3.
        let depths: Vec<f64> = tel.series("datatap.queued").iter().map(|(_, v)| *v).collect();
        assert_eq!(depths, vec![1.0, 2.0, 3.0, 4.0, 3.0]);
    }

    #[test]
    fn telemetry_marks_pause_and_resume() {
        use crate::clock::ManualClock;
        use simtel::TelemetryConfig;
        let tel = Telemetry::new(TelemetryConfig::all());
        let clock = Arc::new(ManualClock::new());
        let (w, _r) = channel_with_telemetry(2, clock, tel.clone());
        assert_eq!(w.pause(), Ok(0)); // empty queue: returns immediately
        w.resume();
        assert_eq!(tel.counter("datatap.pauses"), 1);
        let snap = tel.snapshot();
        let marks: Vec<&str> = snap.markers.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(marks, vec!["pause", "resume"]);
    }

    #[test]
    fn pull_timeout_times_out() {
        let (_w, r) = channel(1);
        assert!(r.pull_timeout(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn pull_timeout_under_manual_clock_is_virtual() {
        use crate::clock::ManualClock;
        let clock = Arc::new(ManualClock::new());
        let (_w, r) = channel_with_clock(1, clock.clone());
        // The wait passes by advancing virtual time, not by sleeping: an
        // hour-long timeout returns immediately, and the clock lands
        // exactly on the deadline.
        assert!(r.pull_timeout(Duration::from_secs(3600)).is_none());
        assert_eq!(clock.now(), sim_core::SimTime::from_secs(3600));
    }

    #[test]
    fn manual_clock_already_past_deadline_never_blocks() {
        use crate::clock::ManualClock;
        use sim_core::SimTime;
        let clock = Arc::new(ManualClock::at(SimTime::from_secs(5)));
        let (w, r) = channel_with_clock(2, clock.clone());
        assert!(r.pull_timeout(Duration::from_millis(10)).is_none());
        // Data present still wins regardless of the clock.
        w.try_write(step(3)).unwrap();
        assert_eq!(r.pull_timeout(Duration::from_millis(10)).unwrap().0.step, 3);
    }

    #[test]
    fn failed_channel_surfaces_typed_errors_instead_of_hanging() {
        use crate::clock::ManualClock;
        let clock = Arc::new(ManualClock::new());
        let (w, r) = channel_with_clock(4, clock);
        w.try_write(step(0)).unwrap();
        w.try_write(step(1)).unwrap();
        // A reader blocked in pull() when the endpoint dies must wake: the
        // failure lands once the third pull below has parked.
        let w2 = w.clone();
        let failer = thread::spawn(move || {
            spin_until(|| w2.inner.gate.lock().readers_parked() == 1);
            w2.fail("bonds node kernel panic")
        });
        // Drain the two live steps first, then block.
        assert!(r.pull().is_some());
        assert!(r.pull().is_some());
        assert!(r.pull().is_none(), "pull on a failed channel must return, not hang");
        assert_eq!(failer.join().unwrap(), 0, "queue was drained before the crash");
        // The typed surface names the reason.
        assert_eq!(
            r.pull_checked(Duration::from_secs(3600)).unwrap_err(),
            PullError::Failed("bonds node kernel panic")
        );
        assert_eq!(r.failure(), Some("bonds node kernel panic"));
        // Writers see the failure too.
        assert_eq!(
            w.try_write(step(2)).unwrap_err(),
            WriteError::Failed("bonds node kernel panic")
        );
        assert_eq!(w.write(step(3)).unwrap_err(), WriteError::Failed("bonds node kernel panic"));
    }

    #[test]
    fn fail_discards_buffered_payloads() {
        let (w, r) = channel(4);
        w.try_write(step(0)).unwrap();
        w.try_write(step(1)).unwrap();
        assert_eq!(w.fail("power loss"), 2);
        // The crashed writer's buffered payloads are unrecoverable.
        assert!(r.try_pull().is_none());
        assert_eq!(r.queued(), 0);
        // Failing twice is idempotent.
        assert_eq!(w.fail("again"), 0);
        assert_eq!(r.failure(), Some("power loss"));
    }

    #[test]
    fn pull_checked_times_out_and_closes() {
        use crate::clock::ManualClock;
        let clock = Arc::new(ManualClock::new());
        let (w, r) = channel_with_clock(2, clock);
        assert_eq!(
            r.pull_checked(Duration::from_millis(5)).unwrap_err(),
            PullError::TimedOut
        );
        w.try_write(step(7)).unwrap();
        assert_eq!(r.pull_checked(Duration::from_millis(5)).unwrap().0.step, 7);
        r.close();
        assert_eq!(r.pull_checked(Duration::from_millis(5)).unwrap_err(), PullError::Closed);
    }

    #[test]
    fn parallel_writers_share_buffer() {
        use crate::clock::ManualClock;
        use simtel::TelemetryConfig;
        let tel = Telemetry::new(TelemetryConfig::all());
        let (w, r) = channel_with_telemetry(64, Arc::new(ManualClock::new()), tel.clone());
        let mut handles = Vec::new();
        for wid in 0..4u32 {
            let w = w.with_id(wid);
            handles.push(thread::spawn(move || {
                for i in 0..16u64 {
                    w.write(step(i)).unwrap();
                }
            }));
        }
        let mut pulled = 0;
        while pulled < 64 {
            r.pull().unwrap();
            pulled += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tel.counter("datatap.announced"), 64);
        assert_eq!(tel.counter("datatap.pulled"), 64);
    }
}
