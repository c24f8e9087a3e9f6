//! The step log and its writer/reader groups.
//!
//! One [`StreamEngine`] owns a bounded log of *sealed* global steps. A
//! writer group of `N` ranks contributes per-rank fragments through
//! [`StepWriter`] handles; when all `N` fragments of the lowest staged
//! step are present, the step *seals* — it is appended to the log at the
//! next log offset and becomes visible to every cursor at once. Reader
//! cursors ([`StreamReader`]) consume the log independently: each named
//! cursor has a durable position that survives its handles being dropped,
//! which is what makes mid-stream restart lossless.
//!
//! Flow control composes three gates on the write path:
//!
//! * the **retention bound** — at most `retention` sealed steps are held;
//!   a step is truncated from the front only once *every registered*
//!   cursor has consumed it, so a detached (restarting) reader holds its
//!   place and eventually backpressures the writers instead of losing
//!   steps;
//! * **per-reader windows** — an attached cursor may advertise a window
//!   `w`; writers block while that cursor lags `w` or more steps behind
//!   the seal frontier;
//! * the **pause gate** — [`StepWriter::pause`] stops new fragments and
//!   drains the sealed backlog through every attached cursor, with the
//!   same typed-outcome contract as the staged channel
//!   ([`datatap::PauseAborted`]): an abort by failure or close is an
//!   error, never a success-shaped count, and the gate survives a racing
//!   [`StepWriter::resume`] until the drain completes.
//!
//! Every operation *decides* under the log mutex and *acts* after
//! releasing it (`Inner::finish`): which condvar to notify (and only if a
//! waiter count says someone is parked on it), which announcements go to
//! the control stone (queued in lock order, submitted by one thread at a
//! time), which truncated steps to free. Waking a parked thread costs the
//! waker tens of microseconds on a small VM; done under the mutex, that is
//! time the other side spends queueing for the lock.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use adios::{AttrValue, StepData};
use datatap::{Clock, PauseAborted, PullSource, StepMeta, WallClock};
use evpath::{Event, OverlaySender, StoneId};
use sim_core::{SimDuration, SimTime};
use simtel::{Category, Telemetry};

use crate::sync::{Condvar, Mutex, MutexGuard};

/// A consumer that takes this long to free one slot is slow next to what a
/// wake-up costs (10-20 us for the waker): a wake per step is then under
/// half a percent of a core, and the low-water mark has nothing to batch.
/// The step cadences this engine carries sit well to either side: tens of
/// microseconds to a millisecond between streaming ranks and an encoder,
/// tens of milliseconds into an analysis kernel.
const SLOW_CONSUMER: SimDuration = SimDuration::from_millis(5);

/// Shape of a stream: the writer-group width and the log bounds.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Writer ranks: every global step seals from exactly this many
    /// fragments.
    pub writers: u32,
    /// Sealed steps retained in the log. Writers block rather than seal
    /// past this bound while any registered cursor still needs the oldest
    /// retained step.
    pub retention: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { writers: 1, retention: 4 }
    }
}

/// Why a fragment could not be accepted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamWriteError {
    /// The log is at its retention bound (or an attached cursor's window
    /// is exhausted) and the write would have to block.
    WindowFull,
    /// The engine was closed.
    Closed,
    /// The writer group is paused by a control action.
    Paused,
    /// The engine failed (endpoint crash injected via
    /// [`StepWriter::fail`]).
    Failed(&'static str),
    /// The fragment's rank is outside the configured writer group.
    RankOutOfRange {
        /// The offending rank.
        rank: u32,
        /// The configured group width.
        writers: u32,
    },
    /// The fragment's step index does not exceed the rank's previous
    /// fragment (per-rank step sequences must be strictly increasing).
    StaleStep {
        /// The offending step index.
        step: u64,
        /// The rank's last accepted step index.
        last: u64,
    },
}

impl std::fmt::Display for StreamWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamWriteError::WindowFull => write!(f, "stream window full"),
            StreamWriteError::Closed => write!(f, "stream closed"),
            StreamWriteError::Paused => write!(f, "writer group paused"),
            StreamWriteError::Failed(reason) => write!(f, "stream failed: {reason}"),
            StreamWriteError::RankOutOfRange { rank, writers } => {
                write!(f, "rank {rank} outside writer group of {writers}")
            }
            StreamWriteError::StaleStep { step, last } => {
                write!(f, "step {step} not after the rank's last step {last}")
            }
        }
    }
}

impl std::error::Error for StreamWriteError {}

/// Where a cursor starts when a reader attaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attach {
    /// At the oldest retained sealed step.
    Oldest,
    /// At the current step: the next step to seal. This is the late-join
    /// position — a reader attaching while step `k` is being assembled
    /// receives `k, k+1, …` and none of the history.
    Current,
    /// At the cursor's durable position from a previous attachment — the
    /// restart path. Fails if the cursor name was never registered.
    Resume,
}

/// Why a reader could not attach.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttachError {
    /// The named cursor already has live handles; clone the existing
    /// [`StreamReader`] to share its position instead.
    Busy(String),
    /// [`Attach::Resume`] named a cursor that was never registered.
    Unknown(String),
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::Busy(name) => write!(f, "cursor '{name}' already attached"),
            AttachError::Unknown(name) => write!(f, "cursor '{name}' was never registered"),
        }
    }
}

impl std::error::Error for AttachError {}

/// One sealed global step: the `N` rank fragments assembled into a single
/// log entry, plus the union of their step attributes.
#[derive(Clone, Debug)]
pub struct GlobalStep {
    /// The application's step index (shared by all fragments).
    pub index: u64,
    /// The log offset this step sealed at (0, 1, 2, … in seal order).
    pub offset: u64,
    /// The fragments in rank order (`fragments.len()` equals the writer
    /// group width).
    pub fragments: Vec<StepData>,
    /// Step attributes merged across fragments in rank order (later ranks
    /// win on key collision) — the provenance surface of the step.
    pub attrs: BTreeMap<String, AttrValue>,
}

/// A control-plane announcement published to the engine's overlay stone
/// (when one is wired via [`StreamBuilder::control`]).
#[derive(Clone, Debug)]
pub enum StreamControl {
    /// A global step sealed into the log.
    Sealed {
        /// The application step index.
        step: u64,
        /// The log offset it sealed at.
        offset: u64,
    },
    /// A reader cursor attached.
    Attached {
        /// Cursor name.
        reader: String,
        /// The log offset it will consume next.
        at: u64,
    },
    /// A cursor's last handle was dropped; its position stays registered.
    Detached {
        /// Cursor name.
        reader: String,
        /// The durable log offset it parked at.
        at: u64,
    },
    /// A cursor was retired: unregistered, releasing its retention hold.
    Retired {
        /// Cursor name.
        reader: String,
    },
    /// The writer group paused.
    Paused,
    /// The writer group resumed.
    Resumed,
    /// The engine closed.
    Closed,
    /// The engine failed.
    Failed {
        /// The injected failure reason.
        reason: &'static str,
    },
}

struct CursorState {
    /// Log offset of the next step this cursor consumes.
    next: u64,
    /// Fragment position within that step (for fragment-at-a-time pulls).
    frag: usize,
    /// Live [`StreamReader`] handles on this cursor.
    handles: usize,
    /// Advertised flow-control window, in sealed steps.
    window: Option<usize>,
}

struct LogState {
    sealed: VecDeque<Arc<GlobalStep>>,
    /// Log offset of `sealed.front()`.
    base: u64,
    /// Incomplete steps keyed by application step index: one rank-indexed
    /// fragment slot vector per step.
    staging: BTreeMap<u64, Vec<Option<StepData>>>,
    /// Last accepted step index per rank (enforces strict per-rank
    /// monotonicity).
    last_step: Vec<Option<u64>>,
    cursors: BTreeMap<String, CursorState>,
    writer_handles: usize,
    paused: bool,
    /// Active pause drains; the write gate is held while non-zero even if
    /// a concurrent resume cleared `paused` (same contract as the staged
    /// channel).
    drainers: usize,
    closed: bool,
    failed: Option<&'static str>,
    sealed_total: u64,
    /// Writers parked on `writer_cv` inside `write`. Pause drainers, the
    /// other waiters on that condvar, are counted by `drainers`.
    gate_parked: usize,
    /// When the first of them parked, or the last truncation above the
    /// low-water mark that they slept through: the start of the wait for
    /// the next slot (see [`Inner::refill_due`]).
    gate_since: SimTime,
    /// Readers parked on `reader_cv`.
    readers_parked: usize,
    /// What the operation holding the lock has decided so far;
    /// [`Inner::finish`] carries it out once the lock is released.
    wake_writers: bool,
    wake_readers: bool,
    /// Truncated steps, freed after the lock is released.
    retired: Vec<Arc<GlobalStep>>,
    /// Control announcements in lock order, and whether some thread is
    /// already submitting them (it takes whatever is queued meanwhile).
    outbox: VecDeque<StreamControl>,
    announcing: bool,
}

impl LogState {
    /// Log offset one past the newest sealed step.
    fn frontier(&self) -> u64 {
        self.base + self.sealed.len() as u64
    }

    fn write_gated(&self) -> bool {
        self.paused || self.drainers > 0
    }

    /// True while a write must wait for readers: the retention bound is
    /// hit, or an attached cursor's advertised window is exhausted.
    fn window_blocked(&self, retention: usize) -> bool {
        if self.sealed.len() >= retention {
            return true;
        }
        let frontier = self.frontier();
        self.cursors.values().any(|c| {
            c.handles > 0
                && c.window.is_some_and(|w| frontier.saturating_sub(c.next) >= w as u64)
        })
    }

    /// True while an attached cursor advertises a window: its gate moves
    /// with every step that cursor consumes.
    fn windowed(&self) -> bool {
        self.cursors.values().any(|c| c.handles > 0 && c.window.is_some())
    }

    /// Sealed steps not yet consumed by the slowest attached cursor.
    fn backlog(&self) -> usize {
        let frontier = self.frontier();
        self.cursors
            .values()
            .filter(|c| c.handles > 0)
            .map(|c| (frontier.saturating_sub(c.next)) as usize)
            .max()
            .unwrap_or(0)
    }
}

struct Inner {
    cfg: StreamConfig,
    state: Mutex<LogState>,
    writer_cv: Condvar,
    reader_cv: Condvar,
    clock: Arc<dyn Clock>,
    telemetry: Telemetry,
    control: Option<(OverlaySender, StoneId)>,
}

impl Inner {
    /// Queues `msg` for the control stone. The outbox order is the lock
    /// order, so `Sealed` offsets reach the stone strictly increasing.
    fn announce(&self, st: &mut LogState, msg: StreamControl) {
        if self.control.is_some() {
            st.outbox.push_back(msg);
        }
    }

    /// Ends an operation: releases the lock, then does what the operation
    /// decided while holding it. A condvar is notified only if a thread is
    /// parked on it. The outbox is drained by one thread at a time, so the
    /// submission order is the queue order; an operation that finds another
    /// thread draining leaves its announcements to that thread, which
    /// submits them before its own operation returns.
    fn finish(&self, mut st: MutexGuard<'_, LogState>) {
        let wake_writers = std::mem::take(&mut st.wake_writers) && st.gate_parked + st.drainers > 0;
        let wake_readers = std::mem::take(&mut st.wake_readers) && st.readers_parked > 0;
        // A cursor advance retires at most one step, so the per-step path
        // only pops; a retire or re-attach can release several at once.
        let retired = st.retired.pop();
        let more: Vec<_> = st.retired.drain(..).collect();
        let mut next = if st.announcing { None } else { st.outbox.pop_front() };
        st.announcing |= next.is_some();
        drop(st);
        if wake_readers {
            self.reader_cv.notify_all();
        }
        if wake_writers {
            self.writer_cv.notify_all();
        }
        drop((retired, more));
        while let Some(msg) = next {
            if let Some((sender, stone)) = &self.control {
                sender.submit(*stone, Event::new(msg));
            }
            let mut st = self.state.lock();
            next = st.outbox.pop_front();
            st.announcing = next.is_some();
        }
    }

    /// Parks a reader until a seal, close or failure wakes it, or for
    /// `slice` when the pull has a deadline.
    fn park_reader(&self, st: &mut MutexGuard<'_, LogState>, slice: Option<Duration>) {
        // Park-safety rule. The low-water mark lets a gate-parked writer
        // sleep through truncations, and this thread may be the only one
        // serving the cursors that writer is waiting for: it must not go
        // to sleep on a writer the gate would admit. The wait below
        // releases the lock at once, so the woken writer does not queue.
        if st.gate_parked > 0 && !st.write_gated() && !st.window_blocked(self.cfg.retention) {
            self.writer_cv.notify_all();
        }
        st.readers_parked += 1;
        match slice {
            Some(slice) => {
                self.reader_cv.wait_for(st, slice);
            }
            None => self.reader_cv.wait(st),
        }
        st.readers_parked -= 1;
    }

    fn gauge_retained(&self, st: &LogState) {
        if self.telemetry.enabled(Category::Transport) {
            self.telemetry.gauge(
                Category::Transport,
                "stream.retained",
                self.clock.now(),
                st.sealed.len() as f64,
            );
        }
    }

    /// Seals every complete step at the staging front. Per-rank step
    /// sequences are strictly increasing, so once the lowest staged step
    /// has all its fragments no later arrival can precede it.
    fn seal_ready(&self, st: &mut LogState) {
        while let Some(&step) = st.staging.keys().next() {
            let complete =
                st.staging.get(&step).is_some_and(|slots| slots.iter().all(Option::is_some));
            if !complete {
                break;
            }
            let Some(slots) = st.staging.remove(&step) else { break };
            let fragments: Vec<StepData> = slots.into_iter().flatten().collect();
            let mut attrs = BTreeMap::new();
            for frag in &fragments {
                for (key, value) in frag.attrs() {
                    attrs.insert(key.to_string(), value.clone());
                }
            }
            let offset = st.frontier();
            st.sealed.push_back(Arc::new(GlobalStep { index: step, offset, fragments, attrs }));
            st.sealed_total += 1;
            self.telemetry.count(Category::Transport, "stream.sealed", 1);
            self.gauge_retained(st);
            self.announce(st, StreamControl::Sealed { step, offset });
            st.wake_readers = true;
        }
    }

    /// Retires sealed steps every registered cursor has passed, and says
    /// whether there were any. With no cursors registered nothing holds
    /// history, so the log truncates freely (fire-and-forget mode).
    fn truncate(&self, st: &mut LogState) -> bool {
        let before = st.base;
        while st.cursors.values().all(|c| c.next > st.base) {
            let Some(step) = st.sealed.pop_front() else { break };
            st.retired.push(step);
            st.base += 1;
        }
        let dropped = st.base > before;
        if dropped {
            self.telemetry.count(Category::Transport, "stream.truncated", 1);
            self.gauge_retained(st);
        }
        dropped
    }

    /// A cursor moved past a step: truncates, then decides whether the
    /// writer side is worth waking. Pause drainers watch the backlog,
    /// which every advance moves, and a window gate moves with every step
    /// its cursor consumes. A writer parked on the retention bound is
    /// woken by a truncation that [`Inner::refill_due`] accepts.
    fn cursor_advanced(&self, st: &mut LogState) {
        let truncated = self.truncate(st);
        let parked = st.gate_parked > 0;
        if st.drainers > 0 || (parked && (st.windowed() || (truncated && self.refill_due(st)))) {
            st.wake_writers = true;
        }
    }

    /// Whether a truncation should wake the writers parked on the
    /// retention bound. At the low-water mark, half the retention, always:
    /// the writer refills the log in one burst, where a wake per truncated
    /// step would have it write one step and park again. Above the mark
    /// only when the consumer is slow, that is when this slot took
    /// [`SLOW_CONSUMER`] to come free: there is no burst to wait for then,
    /// and holding the writer back would double its wait for nothing.
    fn refill_due(&self, st: &mut LogState) -> bool {
        if st.sealed.len() <= self.cfg.retention / 2 {
            return true;
        }
        let now = self.clock.now();
        let waited = now.saturating_since(st.gate_since);
        st.gate_since = now;
        waited >= SLOW_CONSUMER
    }

    fn close(&self, st: &mut LogState) {
        if !st.closed {
            st.closed = true;
            self.announce(st, StreamControl::Closed);
        }
        st.wake_writers = true;
        st.wake_readers = true;
    }
}

/// Builds a [`StreamEngine`] with optional clock, telemetry, and
/// control-plane wiring.
pub struct StreamBuilder {
    cfg: StreamConfig,
    clock: Arc<dyn Clock>,
    telemetry: Telemetry,
    control: Option<(OverlaySender, StoneId)>,
}

impl StreamBuilder {
    /// Injects the engine's time source (a [`datatap::ManualClock`] makes
    /// every timeout deterministic).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> StreamBuilder {
        self.clock = clock;
        self
    }

    /// Records seal/delivery/pause flow under [`Category::Transport`].
    pub fn telemetry(mut self, telemetry: Telemetry) -> StreamBuilder {
        self.telemetry = telemetry;
        self
    }

    /// Publishes [`StreamControl`] announcements to `stone` on the given
    /// overlay sender.
    pub fn control(mut self, sender: OverlaySender, stone: StoneId) -> StreamBuilder {
        self.control = Some((sender, stone));
        self
    }

    /// Finishes the engine.
    ///
    /// # Panics
    /// Panics if the configured writer-group width or retention is zero.
    pub fn build(self) -> StreamEngine {
        assert!(self.cfg.writers >= 1, "writer group must have at least one rank");
        assert!(self.cfg.retention >= 1, "retention must hold at least one step");
        let writers = self.cfg.writers as usize;
        // The recycled buffers are allocated here, once, not lazily by
        // whichever thread truncates or announces first: a block that
        // outlives everything else on that thread's heap keeps the
        // allocator from returning the heap (DESIGN.md §14). More than 64
        // steps retire at once only off the per-step path, which may grow it.
        let retired = Vec::with_capacity(self.cfg.retention.min(64));
        let outbox = VecDeque::with_capacity(if self.control.is_some() { 16 } else { 0 });
        StreamEngine {
            inner: Arc::new(Inner {
                cfg: self.cfg,
                state: Mutex::new(LogState {
                    sealed: VecDeque::new(),
                    base: 0,
                    staging: BTreeMap::new(),
                    last_step: vec![None; writers],
                    cursors: BTreeMap::new(),
                    writer_handles: 0,
                    paused: false,
                    drainers: 0,
                    closed: false,
                    failed: None,
                    sealed_total: 0,
                    gate_parked: 0,
                    gate_since: SimTime::ZERO,
                    readers_parked: 0,
                    wake_writers: false,
                    wake_readers: false,
                    retired,
                    outbox,
                    announcing: false,
                }),
                writer_cv: Condvar::new(),
                reader_cv: Condvar::new(),
                clock: self.clock,
                telemetry: self.telemetry,
                control: self.control,
            }),
        }
    }
}

/// The step log plus its writer group and reader cursors. Clonable — all
/// clones share the one log.
#[derive(Clone)]
pub struct StreamEngine {
    inner: Arc<Inner>,
}

impl StreamEngine {
    /// Creates an engine on the wall clock with no telemetry.
    ///
    /// # Panics
    /// Panics if the configured writer-group width or retention is zero.
    pub fn new(cfg: StreamConfig) -> StreamEngine {
        StreamEngine::builder(cfg).build()
    }

    /// Starts a [`StreamBuilder`] for clock/telemetry/control wiring.
    pub fn builder(cfg: StreamConfig) -> StreamBuilder {
        StreamBuilder {
            cfg,
            clock: Arc::new(WallClock::new()),
            telemetry: Telemetry::disabled(),
            control: None,
        }
    }

    /// Opens a writer handle for `rank`. When the last writer handle
    /// drops, the engine closes (readers drain the log, then end).
    ///
    /// # Panics
    /// Panics if `rank` is outside the configured writer group.
    pub fn writer(&self, rank: u32) -> StepWriter {
        assert!(rank < self.inner.cfg.writers, "rank outside the writer group");
        let mut st = self.inner.state.lock();
        st.writer_handles += 1;
        drop(st);
        StepWriter { inner: self.inner.clone(), rank }
    }

    /// Attaches a reader to the named cursor at the given position. The
    /// cursor's position is durable: dropping every handle *detaches* but
    /// keeps the position registered, so a later [`Attach::Resume`]
    /// continues with no step duplicated or lost. `window`, when given,
    /// bounds how far the seal frontier may run ahead of this cursor
    /// while it is attached.
    pub fn reader(
        &self,
        name: impl Into<String>,
        attach: Attach,
        window: Option<usize>,
    ) -> Result<StreamReader, AttachError> {
        let name = name.into();
        let mut st = self.inner.state.lock();
        let frontier = st.frontier();
        let base = st.base;
        let at = match st.cursors.get_mut(&name) {
            Some(cursor) => {
                if cursor.handles > 0 {
                    return Err(AttachError::Busy(name));
                }
                match attach {
                    Attach::Oldest => {
                        cursor.next = base;
                        cursor.frag = 0;
                    }
                    Attach::Current => {
                        cursor.next = frontier;
                        cursor.frag = 0;
                    }
                    Attach::Resume => {}
                }
                cursor.handles = 1;
                cursor.window = window;
                cursor.next
            }
            None => {
                if matches!(attach, Attach::Resume) {
                    return Err(AttachError::Unknown(name));
                }
                let next = if matches!(attach, Attach::Current) { frontier } else { base };
                st.cursors
                    .insert(name.clone(), CursorState { next, frag: 0, handles: 1, window });
                next
            }
        };
        self.inner.announce(&mut st, StreamControl::Attached { reader: name.clone(), at });
        self.inner.finish(st);
        Ok(StreamReader { inner: self.inner.clone(), name })
    }

    /// Closes the engine: writers fail with [`StreamWriteError::Closed`],
    /// readers drain the retained log and then end, active pause drains
    /// abort with [`PauseAborted::Closed`].
    pub fn close(&self) {
        let mut st = self.inner.state.lock();
        self.inner.close(&mut st);
        self.inner.finish(st);
    }

    /// Global steps sealed over the engine's lifetime.
    pub fn sealed_steps(&self) -> u64 {
        self.inner.state.lock().sealed_total
    }

    /// Sealed steps currently retained in the log.
    pub fn retained(&self) -> usize {
        self.inner.state.lock().sealed.len()
    }

    /// The engine's time source.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.inner.clock.clone()
    }
}

/// One rank's writer handle into the stream's writer group.
pub struct StepWriter {
    inner: Arc<Inner>,
    rank: u32,
}

impl Clone for StepWriter {
    fn clone(&self) -> StepWriter {
        let mut st = self.inner.state.lock();
        st.writer_handles += 1;
        drop(st);
        StepWriter { inner: self.inner.clone(), rank: self.rank }
    }
}

impl Drop for StepWriter {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock();
        st.writer_handles -= 1;
        if st.writer_handles == 0 {
            self.inner.close(&mut st);
        }
        self.inner.finish(st);
    }
}

impl StepWriter {
    /// This handle's rank within the writer group.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// A handle for another rank of the same group.
    pub fn with_rank(&self, rank: u32) -> StepWriter {
        assert!(rank < self.inner.cfg.writers, "rank outside the writer group");
        let clone = self.clone();
        StepWriter { inner: clone.inner.clone(), rank }
    }

    fn check(&self, st: &LogState, step: u64) -> Result<(), StreamWriteError> {
        if let Some(reason) = st.failed {
            return Err(StreamWriteError::Failed(reason));
        }
        if st.closed {
            return Err(StreamWriteError::Closed);
        }
        if self.rank >= self.inner.cfg.writers {
            return Err(StreamWriteError::RankOutOfRange {
                rank: self.rank,
                writers: self.inner.cfg.writers,
            });
        }
        if let Some(Some(last)) = st.last_step.get(self.rank as usize) {
            if step <= *last {
                return Err(StreamWriteError::StaleStep { step, last: *last });
            }
        }
        Ok(())
    }

    fn push(&self, st: &mut LogState, data: StepData) -> StepMeta {
        let step = data.step();
        let meta = StepMeta { step, bytes: data.payload_bytes(), writer: self.rank };
        if let Some(slot) = st.last_step.get_mut(self.rank as usize) {
            *slot = Some(step);
        }
        let writers = self.inner.cfg.writers as usize;
        let slots = st.staging.entry(step).or_insert_with(|| vec![None; writers]);
        if let Some(slot) = slots.get_mut(self.rank as usize) {
            *slot = Some(data);
        }
        self.inner.telemetry.count(Category::Transport, "stream.announced", 1);
        self.inner.seal_ready(st);
        meta
    }

    /// Contributes this rank's fragment for a step without blocking.
    /// Fragment step indices must be strictly increasing per rank; the
    /// step seals when every rank's fragment has arrived.
    pub fn try_write(&self, data: StepData) -> Result<StepMeta, StreamWriteError> {
        let mut st = self.inner.state.lock();
        self.check(&st, data.step())?;
        if st.write_gated() {
            return Err(StreamWriteError::Paused);
        }
        if st.window_blocked(self.inner.cfg.retention) {
            return Err(StreamWriteError::WindowFull);
        }
        let meta = self.push(&mut st, data);
        self.inner.finish(st);
        Ok(meta)
    }

    /// As [`StepWriter::try_write`], but blocks while the pause gate is
    /// held or the retention/window bounds require readers to catch up —
    /// reader-side flow control backpressuring the application.
    pub fn write(&self, data: StepData) -> Result<StepMeta, StreamWriteError> {
        let mut st = self.inner.state.lock();
        loop {
            self.check(&st, data.step())?;
            if !st.write_gated() && !st.window_blocked(self.inner.cfg.retention) {
                let meta = self.push(&mut st, data);
                self.inner.finish(st);
                return Ok(meta);
            }
            if st.gate_parked == 0 {
                st.gate_since = self.inner.clock.now();
            }
            st.gate_parked += 1;
            self.inner.writer_cv.wait(&mut st);
            st.gate_parked -= 1;
        }
    }

    /// Pauses the writer group and blocks until every *sealed* step has
    /// been consumed by every attached cursor. On success, returns the
    /// backlog that had to drain. Fragments still staging (announced by
    /// some ranks but not yet sealed) survive the pause and seal after
    /// [`StepWriter::resume`] — they were never visible to readers, so
    /// the drain guarantee concerns only announced (sealed) steps.
    ///
    /// The outcome contract is the staged channel's: an abort is a typed
    /// [`PauseAborted`] — [`PauseAborted::Failed`] if the engine failed
    /// mid-drain (retained steps were discarded), [`PauseAborted::Closed`]
    /// if it was closed with steps still undelivered — never a
    /// success-shaped count. The write gate engages before the drain and
    /// survives a concurrent [`StepWriter::resume`] until the drain ends.
    pub fn pause(&self) -> Result<usize, PauseAborted> {
        let mut st = self.inner.state.lock();
        st.paused = true;
        st.drainers += 1;
        let draining = st.backlog();
        self.inner.telemetry.count(Category::Transport, "stream.pauses", 1);
        self.inner.announce(&mut st, StreamControl::Paused);
        // `Paused` goes out before the drain, not after it. The gate holds
        // across the gap (`drainers` is counted), and the loop re-reads
        // whatever a racing resume, close or fail did meanwhile.
        self.inner.finish(st);
        let mut st = self.inner.state.lock();
        let outcome = loop {
            // Failure first: fail() clears the log, so an empty backlog on
            // a failed engine means steps were discarded, not drained.
            if let Some(reason) = st.failed {
                break Err(PauseAborted::Failed(reason));
            }
            let backlog = st.backlog();
            if backlog == 0 {
                break Ok(draining);
            }
            if st.closed {
                break Err(PauseAborted::Closed { remaining: backlog });
            }
            self.inner.writer_cv.wait(&mut st);
        };
        st.drainers -= 1;
        if outcome.is_err() {
            self.inner.telemetry.count(Category::Transport, "stream.pause_aborts", 1);
        }
        if st.drainers == 0 && !st.paused {
            // A resume landed mid-drain: the gate opens only now.
            st.wake_writers = true;
        }
        self.inner.finish(st);
        outcome
    }

    /// Resumes a paused writer group. If a [`StepWriter::pause`] drain is
    /// still in progress, the paused flag clears immediately but the
    /// write gate stays held until that drain finishes.
    pub fn resume(&self) {
        let mut st = self.inner.state.lock();
        st.paused = false;
        self.inner.announce(&mut st, StreamControl::Resumed);
        st.wake_writers = true;
        self.inner.finish(st);
    }

    /// True while writes are rejected: explicitly paused, or quiescing
    /// because a pause drain is still in progress.
    pub fn is_paused(&self) -> bool {
        self.inner.state.lock().write_gated()
    }

    /// Injects an endpoint failure: retained sealed steps and staging
    /// fragments are discarded (they lived in crashed memory), blocked
    /// parties wake with typed errors. Returns the number of global steps
    /// lost (sealed-but-undelivered plus incomplete).
    pub fn fail(&self, reason: &'static str) -> usize {
        let mut st = self.inner.state.lock();
        if st.failed.is_some() {
            return 0;
        }
        st.failed = Some(reason);
        let lost = st.sealed.len() + st.staging.len();
        let LogState { sealed, retired, .. } = &mut *st;
        retired.extend(sealed.drain(..));
        st.staging.clear();
        self.inner.telemetry.count(Category::Transport, "stream.failed_steps", lost as u64);
        self.inner.announce(&mut st, StreamControl::Failed { reason });
        st.wake_writers = true;
        st.wake_readers = true;
        self.inner.finish(st);
        lost
    }
}

/// A handle on a named reader cursor. Clones share the cursor's position,
/// so a pool of workers pulling through clones divides the stream between
/// them (the staged channel's work-sharing semantics); independent named
/// cursors each see the full stream.
pub struct StreamReader {
    inner: Arc<Inner>,
    name: String,
}

impl std::fmt::Debug for StreamReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamReader").field("name", &self.name).finish_non_exhaustive()
    }
}

impl Clone for StreamReader {
    fn clone(&self) -> StreamReader {
        let mut st = self.inner.state.lock();
        if let Some(cursor) = st.cursors.get_mut(&self.name) {
            cursor.handles += 1;
        }
        drop(st);
        StreamReader { inner: self.inner.clone(), name: self.name.clone() }
    }
}

impl Drop for StreamReader {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock();
        let Some(cursor) = st.cursors.get_mut(&self.name) else { return };
        cursor.handles -= 1;
        if cursor.handles > 0 {
            return;
        }
        let at = cursor.next;
        // The cursor stays registered at `at`: the retention gate keeps
        // holding its steps, and window gating stops (a detached reader
        // cannot pull, so its window must not wedge the writers).
        self.inner.announce(&mut st, StreamControl::Detached { reader: self.name.clone(), at });
        st.wake_writers = true;
        self.inner.finish(st);
    }
}

impl StreamReader {
    /// The cursor's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The log offset of the next step this cursor will consume.
    pub fn position(&self) -> u64 {
        self.inner.state.lock().cursors.get(&self.name).map_or(0, |c| c.next)
    }

    /// Sealed steps waiting for this cursor.
    pub fn queued(&self) -> usize {
        let st = self.inner.state.lock();
        let frontier = st.frontier();
        st.cursors.get(&self.name).map_or(0, |c| frontier.saturating_sub(c.next) as usize)
    }

    /// The failure reason, if the engine has failed.
    pub fn failure(&self) -> Option<&'static str> {
        self.inner.state.lock().failed
    }

    /// The engine's time source (deadlines for the timeout pulls live on
    /// this axis).
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.inner.clock.clone()
    }

    /// Unregisters the cursor entirely, releasing its retention hold: the
    /// log may truncate past its position and a later attach under this
    /// name starts fresh.
    pub fn retire(self) {
        let mut st = self.inner.state.lock();
        st.cursors.remove(&self.name);
        self.inner.truncate(&mut st);
        self.inner.announce(&mut st, StreamControl::Retired { reader: self.name.clone() });
        st.wake_writers = true;
        self.inner.finish(st);
        // Drop now runs against an unregistered cursor and is a no-op.
    }

    /// Takes the next fragment at the cursor, advancing the shared
    /// position. `None` when nothing is sealed at the cursor yet.
    fn take_fragment(&self, st: &mut LogState) -> Option<(StepMeta, StepData)> {
        let frontier = st.frontier();
        let (next, frag_ix) = {
            let cursor = st.cursors.get(&self.name)?;
            if cursor.next >= frontier {
                return None;
            }
            (cursor.next, cursor.frag)
        };
        let ix = (next - st.base) as usize;
        let global = st.sealed.get(ix)?.clone();
        let frag = global.fragments.get(frag_ix)?.clone();
        let meta =
            StepMeta { step: global.index, bytes: frag.payload_bytes(), writer: frag_ix as u32 };
        let mut advanced = false;
        if let Some(cursor) = st.cursors.get_mut(&self.name) {
            cursor.frag += 1;
            if cursor.frag >= global.fragments.len() {
                cursor.frag = 0;
                cursor.next += 1;
                advanced = true;
            }
        }
        self.inner.telemetry.count(Category::Transport, "stream.delivered", 1);
        if advanced {
            self.inner.cursor_advanced(st);
        }
        Some((meta, frag))
    }

    /// Takes the whole step at the cursor, advancing past it. Fragments
    /// already consumed via [`StreamReader::pull`] are still part of the
    /// returned step (the step is shared, not re-cut).
    fn take_step(&self, st: &mut LogState) -> Option<Arc<GlobalStep>> {
        let frontier = st.frontier();
        let next = {
            let cursor = st.cursors.get(&self.name)?;
            if cursor.next >= frontier {
                return None;
            }
            cursor.next
        };
        let ix = (next - st.base) as usize;
        let global = st.sealed.get(ix)?.clone();
        if let Some(cursor) = st.cursors.get_mut(&self.name) {
            cursor.frag = 0;
            cursor.next += 1;
        }
        self.inner
            .telemetry
            .count(Category::Transport, "stream.delivered", global.fragments.len() as u64);
        self.inner.cursor_advanced(st);
        Some(global)
    }

    /// True once the cursor can never produce again: failed, retired, or
    /// closed with the backlog fully consumed.
    fn finished(&self, st: &LogState) -> bool {
        if st.failed.is_some() {
            return true;
        }
        match st.cursors.get(&self.name) {
            None => true,
            Some(cursor) => st.closed && cursor.next >= st.frontier(),
        }
    }

    /// Takes at the cursor with `take`, parking until something seals
    /// there, the cursor is finished, or `timeout` (one deadline on the
    /// engine's [`Clock`] for the whole wait) passes.
    fn take_blocking<T>(
        &self,
        timeout: Option<Duration>,
        take: impl Fn(&Self, &mut LogState) -> Option<T>,
    ) -> Option<T> {
        let deadline = timeout.map(|t| self.inner.clock.now() + to_sim(t));
        let mut st = self.inner.state.lock();
        loop {
            if let Some(out) = take(self, &mut st) {
                self.inner.finish(st);
                return Some(out);
            }
            if self.finished(&st) {
                return None;
            }
            let slice = match deadline {
                None => None,
                Some(deadline) => {
                    let now = self.inner.clock.now();
                    if now >= deadline {
                        return None;
                    }
                    Some(self.inner.clock.block_slice(deadline.since(now)))
                }
            };
            self.inner.park_reader(&mut st, slice);
        }
    }

    /// Pulls the next fragment (step-major, rank-minor order), blocking
    /// until one seals. `None` once the engine is closed and this cursor
    /// has consumed everything, or on failure.
    pub fn pull(&self) -> Option<(StepMeta, StepData)> {
        self.take_blocking(None, Self::take_fragment)
    }

    /// As [`StreamReader::pull`] with a deadline on the engine's
    /// [`Clock`]; `None` on timeout too.
    pub fn pull_timeout(&self, timeout: Duration) -> Option<(StepMeta, StepData)> {
        self.take_blocking(Some(timeout), Self::take_fragment)
    }

    /// Pulls the next whole sealed step, blocking until one seals. `None`
    /// once the engine is closed and drained, or on failure.
    pub fn next_step(&self) -> Option<Arc<GlobalStep>> {
        self.take_blocking(None, Self::take_step)
    }

    /// As [`StreamReader::next_step`] with a deadline on the engine's
    /// [`Clock`].
    pub fn next_step_timeout(&self, timeout: Duration) -> Option<Arc<GlobalStep>> {
        self.take_blocking(Some(timeout), Self::take_step)
    }

    /// Attempts to take the next whole sealed step without blocking.
    pub fn try_next_step(&self) -> Option<Arc<GlobalStep>> {
        let mut st = self.inner.state.lock();
        let step = self.take_step(&mut st);
        self.inner.finish(st);
        step
    }
}

/// Stream cursors plug into [`datatap::ScheduledReader`] like the staged
/// channel's reader does, so one [`datatap::PullPolicy`] layer governs
/// pulls from both transports.
impl PullSource for StreamReader {
    fn pull(&self) -> Option<(StepMeta, StepData)> {
        StreamReader::pull(self)
    }

    fn pull_timeout(&self, timeout: Duration) -> Option<(StepMeta, StepData)> {
        StreamReader::pull_timeout(self, timeout)
    }

    fn clock(&self) -> Arc<dyn Clock> {
        StreamReader::clock(self)
    }
}

fn clamp_u64(ns: u128) -> u64 {
    ns.min(u64::MAX as u128) as u64
}

fn to_sim(d: Duration) -> SimDuration {
    SimDuration::from_nanos(clamp_u64(d.as_nanos()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datatap::ManualClock;

    fn frag(step: u64, rank: u32) -> StepData {
        let mut s = StepData::new(step);
        s.set_attr("rank", AttrValue::Int(rank as i64));
        s
    }

    fn engine(writers: u32, retention: usize) -> StreamEngine {
        StreamEngine::builder(StreamConfig { writers, retention })
            .clock(Arc::new(ManualClock::new()))
            .build()
    }

    #[test]
    fn steps_seal_only_when_every_rank_contributed() {
        let eng = engine(2, 8);
        let w0 = eng.writer(0);
        let w1 = eng.writer(1);
        let r = eng.reader("viz", Attach::Oldest, None).unwrap();
        w0.try_write(frag(0, 0)).unwrap();
        assert_eq!(eng.sealed_steps(), 0);
        assert!(r.try_next_step().is_none(), "half a step must stay invisible");
        w1.try_write(frag(0, 1)).unwrap();
        assert_eq!(eng.sealed_steps(), 1);
        let step = r.try_next_step().unwrap();
        assert_eq!(step.index, 0);
        assert_eq!(step.offset, 0);
        assert_eq!(step.fragments.len(), 2);
        assert_eq!(step.attrs.get("rank"), Some(&AttrValue::Int(1)), "later rank wins the merge");
    }

    #[test]
    fn rank_skew_still_seals_in_step_order() {
        let eng = engine(2, 8);
        let w0 = eng.writer(0);
        let w1 = eng.writer(1);
        // Rank 0 runs three steps ahead before rank 1 contributes at all.
        w0.try_write(frag(0, 0)).unwrap();
        w0.try_write(frag(1, 0)).unwrap();
        w0.try_write(frag(2, 0)).unwrap();
        assert_eq!(eng.sealed_steps(), 0, "no step seals on one rank's fragments alone");
        w1.try_write(frag(0, 1)).unwrap();
        w1.try_write(frag(1, 1)).unwrap();
        assert_eq!(eng.sealed_steps(), 2, "the laggard's fragments seal the waiting steps");
        w1.try_write(frag(2, 1)).unwrap();
        let r = eng.reader("viz", Attach::Oldest, None).unwrap();
        let got: Vec<u64> = std::iter::from_fn(|| r.try_next_step()).map(|s| s.index).collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn per_rank_steps_must_strictly_increase() {
        let eng = engine(1, 8);
        let w = eng.writer(0);
        w.try_write(frag(3, 0)).unwrap();
        assert_eq!(
            w.try_write(frag(3, 0)).unwrap_err(),
            StreamWriteError::StaleStep { step: 3, last: 3 }
        );
        assert_eq!(
            w.try_write(frag(1, 0)).unwrap_err(),
            StreamWriteError::StaleStep { step: 1, last: 3 }
        );
        // Gaps are fine: step indices need not be contiguous.
        w.try_write(frag(10, 0)).unwrap();
        assert_eq!(eng.sealed_steps(), 2);
    }

    #[test]
    fn fragment_pulls_are_step_major_rank_minor() {
        let eng = engine(3, 8);
        // Keep every rank's handle alive: the engine closes when the last
        // writer handle drops.
        let group: Vec<StepWriter> = (0..3).map(|rank| eng.writer(rank)).collect();
        for (rank, w) in group.iter().enumerate() {
            w.try_write(frag(0, rank as u32)).unwrap();
            w.try_write(frag(1, rank as u32)).unwrap();
        }
        let r = eng.reader("frags", Attach::Oldest, None).unwrap();
        let mut seen = Vec::new();
        for _ in 0..6 {
            let (meta, data) = r.pull_timeout(Duration::ZERO).unwrap();
            assert_eq!(meta.step, data.step());
            seen.push((meta.step, meta.writer));
        }
        assert_eq!(seen, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        assert_eq!(r.queued(), 0);
    }

    #[test]
    fn retention_blocks_try_write_until_readers_advance() {
        let eng = engine(1, 2);
        let w = eng.writer(0);
        let r = eng.reader("slow", Attach::Oldest, None).unwrap();
        w.try_write(frag(0, 0)).unwrap();
        w.try_write(frag(1, 0)).unwrap();
        assert_eq!(w.try_write(frag(2, 0)).unwrap_err(), StreamWriteError::WindowFull);
        assert!(r.next_step().is_some());
        // Consuming step 0 truncates it (the only cursor passed it).
        assert_eq!(eng.retained(), 1);
        w.try_write(frag(2, 0)).unwrap();
    }

    #[test]
    fn attached_window_gates_the_writer() {
        let eng = engine(1, 8);
        let w = eng.writer(0);
        let r = eng.reader("windowed", Attach::Oldest, Some(1)).unwrap();
        w.try_write(frag(0, 0)).unwrap();
        assert_eq!(
            w.try_write(frag(1, 0)).unwrap_err(),
            StreamWriteError::WindowFull,
            "a window of 1 admits one undelivered step"
        );
        assert!(r.next_step().is_some());
        w.try_write(frag(1, 0)).unwrap();
        // A detached cursor's window must not wedge the writers.
        drop(r);
        w.try_write(frag(2, 0)).unwrap();
        w.try_write(frag(3, 0)).unwrap();
    }

    #[test]
    fn late_joiner_attaches_at_the_current_step() {
        let eng = engine(1, 8);
        let w = eng.writer(0);
        for step in 0..3 {
            w.try_write(frag(step, 0)).unwrap();
        }
        let late = eng.reader("late", Attach::Current, None).unwrap();
        assert!(late.try_next_step().is_none(), "history is skipped");
        w.try_write(frag(3, 0)).unwrap();
        let got = late.try_next_step().unwrap();
        assert_eq!(got.index, 3, "the late joiner starts at the step sealed after attach");
        assert_eq!(got.attrs.get("rank"), Some(&AttrValue::Int(0)), "attributes flow");
    }

    #[test]
    fn detached_cursor_resumes_with_no_dup_or_loss() {
        let eng = engine(1, 8);
        let w = eng.writer(0);
        for step in 0..4 {
            w.try_write(frag(step, 0)).unwrap();
        }
        let r = eng.reader("restart", Attach::Oldest, None).unwrap();
        assert_eq!(r.try_next_step().unwrap().index, 0);
        assert_eq!(r.try_next_step().unwrap().index, 1);
        drop(r); // the reader dies mid-stream
        assert_eq!(eng.retained(), 2, "the parked cursor holds its unread steps");
        w.try_write(frag(4, 0)).unwrap();
        let r = eng.reader("restart", Attach::Resume, None).unwrap();
        let got: Vec<u64> = std::iter::from_fn(|| r.try_next_step()).map(|s| s.index).collect();
        assert_eq!(got, vec![2, 3, 4], "rejoin continues exactly where the crash left off");
    }

    #[test]
    fn resume_of_an_unknown_cursor_is_an_error() {
        let eng = engine(1, 4);
        assert_eq!(
            eng.reader("ghost", Attach::Resume, None).unwrap_err(),
            AttachError::Unknown("ghost".into())
        );
        let _r = eng.reader("live", Attach::Oldest, None).unwrap();
        assert_eq!(
            eng.reader("live", Attach::Resume, None).unwrap_err(),
            AttachError::Busy("live".into())
        );
    }

    #[test]
    fn cloned_handles_share_the_cursor_position() {
        let eng = engine(1, 8);
        let w = eng.writer(0);
        for step in 0..4 {
            w.try_write(frag(step, 0)).unwrap();
        }
        let a = eng.reader("pool", Attach::Oldest, None).unwrap();
        let b = a.clone();
        assert_eq!(a.try_next_step().unwrap().index, 0);
        assert_eq!(b.try_next_step().unwrap().index, 1, "clones divide the stream");
        drop(a);
        assert_eq!(b.try_next_step().unwrap().index, 2, "one live handle keeps it attached");
    }

    #[test]
    fn retire_releases_the_retention_hold() {
        let eng = engine(1, 2);
        let w = eng.writer(0);
        let r = eng.reader("archival", Attach::Oldest, None).unwrap();
        w.try_write(frag(0, 0)).unwrap();
        w.try_write(frag(1, 0)).unwrap();
        assert_eq!(w.try_write(frag(2, 0)).unwrap_err(), StreamWriteError::WindowFull);
        r.retire();
        w.try_write(frag(2, 0)).unwrap();
        assert_eq!(
            eng.reader("archival", Attach::Resume, None).unwrap_err(),
            AttachError::Unknown("archival".into()),
            "retirement forgets the position"
        );
    }

    #[test]
    fn pause_drains_the_backlog_and_reports_it() {
        let eng = engine(1, 8);
        let w = eng.writer(0);
        let r = eng.reader("sink", Attach::Oldest, None).unwrap();
        for step in 0..3 {
            w.try_write(frag(step, 0)).unwrap();
        }
        let w2 = w.clone();
        let pauser = std::thread::spawn(move || w2.pause());
        // The reported backlog is the one at the instant the gate engages:
        // pull only once it has, or a fast reader drains first.
        while !w.is_paused() {
            std::thread::yield_now();
        }
        for _ in 0..3 {
            assert!(r.next_step().is_some());
        }
        assert_eq!(pauser.join().unwrap(), Ok(3));
        assert!(w.is_paused());
        assert_eq!(w.try_write(frag(9, 0)).unwrap_err(), StreamWriteError::Paused);
        w.resume();
        w.try_write(frag(9, 0)).unwrap();
    }

    /// Runs `body` on its own thread and fails the test, instead of
    /// hanging it, if a lost wake-up leaves `body` parked.
    fn within_10s(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(Duration::from_secs(10)) {
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("a thread stayed parked"),
            // Done, or `body` panicked and dropped the sender: join reports which.
            _ => runner.join().unwrap(),
        }
    }

    fn wait_for_parked_writer(eng: &StreamEngine) {
        while eng.inner.state.lock().gate_parked == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_writer_parked_at_the_bound_is_woken_at_the_low_water_mark() {
        within_10s(|| {
            let eng = engine(1, 4);
            let w = eng.writer(0);
            let r = eng.reader("sink", Attach::Oldest, None).unwrap();
            for step in 0..4 {
                w.try_write(frag(step, 0)).unwrap();
            }
            let w2 = w.clone();
            let writer = std::thread::spawn(move || w2.write(frag(4, 0)).map(|m| m.step));
            wait_for_parked_writer(&eng);
            // Three retained is above the mark (4 / 2): the gate would admit
            // the write, but nobody wakes the writer for a single slot.
            assert_eq!(r.try_next_step().unwrap().index, 0);
            assert_eq!((eng.retained(), eng.sealed_steps()), (3, 4));
            assert_eq!(eng.inner.state.lock().gate_parked, 1);
            // Two retained is the mark.
            assert_eq!(r.try_next_step().unwrap().index, 1);
            assert_eq!(writer.join().unwrap(), Ok(4));
        });
    }

    #[test]
    fn a_slow_consumer_wakes_the_parked_writer_for_every_slot() {
        within_10s(|| {
            let clock = Arc::new(ManualClock::new());
            let eng = StreamEngine::builder(StreamConfig { writers: 1, retention: 8 })
                .clock(clock.clone())
                .build();
            let w = eng.writer(0);
            let r = eng.reader("kernel", Attach::Oldest, None).unwrap();
            for step in 0..8 {
                w.try_write(frag(step, 0)).unwrap();
            }
            let w2 = w.clone();
            let writer = std::thread::spawn(move || w2.write(frag(8, 0)).map(|m| m.step));
            wait_for_parked_writer(&eng);
            // A slot that comes free sooner than SLOW_CONSUMER after the
            // park is one of a burst: the writer sleeps on, and the wait
            // for the next slot starts here.
            clock.advance(SimDuration::from_millis(4));
            assert_eq!(r.try_next_step().unwrap().index, 0);
            assert_eq!((eng.retained(), eng.sealed_steps()), (7, 8));
            assert_eq!(eng.inner.state.lock().gate_parked, 1);
            // The next one took the consumer 5 ms. Seven retained is far
            // above the mark (8 / 2), and the writer is woken all the same.
            clock.advance(SLOW_CONSUMER);
            assert_eq!(r.try_next_step().unwrap().index, 1);
            assert_eq!(writer.join().unwrap(), Ok(8));
            assert_eq!(eng.retained(), 7);
        });
    }

    #[test]
    fn a_reader_parking_while_the_gate_admits_wakes_the_parked_writer() {
        within_10s(|| {
            let eng = engine(1, 8);
            let w = eng.writer(0);
            let fast = eng.reader("fast", Attach::Oldest, None).unwrap();
            let slow = eng.reader("slow", Attach::Oldest, None).unwrap();
            for step in 0..8 {
                w.try_write(frag(step, 0)).unwrap();
            }
            let w2 = w.clone();
            let writer = std::thread::spawn(move || w2.write(frag(8, 0)).map(|m| m.step));
            wait_for_parked_writer(&eng);
            // This thread serves both cursors. It truncates two steps, which
            // leaves six, above the low-water mark: the writer sleeps on.
            for step in 0..2 {
                assert_eq!(slow.try_next_step().unwrap().index, step);
                assert_eq!(fast.try_next_step().unwrap().index, step);
            }
            assert_eq!((eng.retained(), eng.sealed_steps()), (6, 8));
            while fast.try_next_step().is_some() {}
            // Parking on the faster cursor would now sleep on a writer that
            // only this thread's other cursor could ever wake. The park
            // wakes it instead, and its seal wakes this pull.
            assert_eq!(fast.next_step().unwrap().index, 8);
            assert_eq!(writer.join().unwrap(), Ok(8));
        });
    }

    #[test]
    fn pause_drains_past_a_detached_cursor_that_pins_the_log() {
        within_10s(|| {
            let eng = engine(1, 8);
            let w = eng.writer(0);
            let live = eng.reader("live", Attach::Oldest, None).unwrap();
            drop(eng.reader("restarting", Attach::Oldest, None).unwrap());
            for step in 0..3 {
                w.try_write(frag(step, 0)).unwrap();
            }
            let w2 = w.clone();
            let pauser = std::thread::spawn(move || w2.pause());
            while !w.is_paused() {
                std::thread::yield_now();
            }
            // The detached cursor holds offset 0, so these advances truncate
            // nothing; the drain counts attached cursors only and must hear
            // of every one of them.
            for _ in 0..3 {
                assert!(live.next_step().is_some());
            }
            assert_eq!(pauser.join().unwrap(), Ok(3));
            assert_eq!(eng.retained(), 3);
        });
    }

    #[test]
    fn pause_aborted_by_fail_is_a_typed_error() {
        let eng = engine(1, 8);
        let w = eng.writer(0);
        let _r = eng.reader("sink", Attach::Oldest, None).unwrap();
        w.try_write(frag(0, 0)).unwrap();
        let w2 = w.clone();
        let pauser = std::thread::spawn(move || w2.pause());
        // Nobody pulls: the drain can only end through the failure.
        assert_eq!(w.fail("injected crash"), 1);
        assert_eq!(pauser.join().unwrap(), Err(PauseAborted::Failed("injected crash")));
    }

    #[test]
    fn pause_aborted_by_close_reports_the_backlog() {
        let eng = engine(1, 8);
        let w = eng.writer(0);
        let _r = eng.reader("sink", Attach::Oldest, None).unwrap();
        w.try_write(frag(0, 0)).unwrap();
        w.try_write(frag(1, 0)).unwrap();
        let w2 = w.clone();
        let pauser = std::thread::spawn(move || w2.pause());
        eng.close();
        assert_eq!(pauser.join().unwrap(), Err(PauseAborted::Closed { remaining: 2 }));
    }

    #[test]
    fn staging_fragments_survive_a_pause() {
        let eng = engine(2, 8);
        let w0 = eng.writer(0);
        let w1 = eng.writer(1);
        let _r = eng.reader("sink", Attach::Oldest, None).unwrap();
        w0.try_write(frag(0, 0)).unwrap();
        // Step 0 is incomplete: the drain must not wait for it (rank 1 is
        // write-gated and could never complete it).
        assert_eq!(w0.pause(), Ok(0));
        w0.resume();
        w1.try_write(frag(0, 1)).unwrap();
        assert_eq!(eng.sealed_steps(), 1, "the staged fragment sealed after resume");
    }

    #[test]
    fn close_lets_readers_drain_then_end() {
        let eng = engine(1, 8);
        let w = eng.writer(0);
        let r = eng.reader("sink", Attach::Oldest, None).unwrap();
        w.try_write(frag(0, 0)).unwrap();
        drop(w); // last writer handle: the engine closes
        assert_eq!(r.next_step().unwrap().index, 0);
        assert!(r.next_step().is_none());
        assert!(r.pull().is_none());
    }

    #[test]
    fn fail_discards_the_log_and_unblocks_readers() {
        let eng = engine(2, 8);
        let w0 = eng.writer(0);
        let w1 = eng.writer(1);
        let r = eng.reader("sink", Attach::Oldest, None).unwrap();
        w0.try_write(frag(0, 0)).unwrap();
        w1.try_write(frag(0, 1)).unwrap();
        w0.try_write(frag(1, 0)).unwrap(); // staging, incomplete
        assert_eq!(w0.fail("node crash"), 2, "one sealed and one staging step lost");
        assert!(r.pull().is_none());
        assert_eq!(r.failure(), Some("node crash"));
        assert_eq!(w1.try_write(frag(1, 1)).unwrap_err(), StreamWriteError::Failed("node crash"));
    }

    #[test]
    fn timeout_pulls_are_virtual_under_a_manual_clock() {
        let clock = Arc::new(ManualClock::new());
        let eng = StreamEngine::builder(StreamConfig { writers: 1, retention: 4 })
            .clock(clock.clone())
            .build();
        let _w = eng.writer(0);
        let r = eng.reader("sink", Attach::Oldest, None).unwrap();
        // An hour-long wait returns immediately by advancing virtual time.
        assert!(r.next_step_timeout(Duration::from_secs(3600)).is_none());
        assert_eq!(clock.now(), SimTime::from_secs(3600));
        assert!(r.pull_timeout(Duration::from_secs(30)).is_none());
        assert_eq!(clock.now(), SimTime::from_secs(3630));
    }

    #[test]
    fn telemetry_counts_the_flow() {
        use simtel::TelemetryConfig;
        let tel = Telemetry::new(TelemetryConfig::all());
        let eng = StreamEngine::builder(StreamConfig { writers: 2, retention: 4 })
            .clock(Arc::new(ManualClock::new()))
            .telemetry(tel.clone())
            .build();
        let w0 = eng.writer(0);
        let w1 = eng.writer(1);
        let r = eng.reader("sink", Attach::Oldest, None).unwrap();
        w0.try_write(frag(0, 0)).unwrap();
        w1.try_write(frag(0, 1)).unwrap();
        assert!(r.next_step().is_some());
        assert_eq!(tel.counter("stream.announced"), 2);
        assert_eq!(tel.counter("stream.sealed"), 1);
        assert_eq!(tel.counter("stream.delivered"), 2, "a whole step counts its fragments");
    }
}
