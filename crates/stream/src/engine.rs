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
//!   drains the sealed backlog through every attached cursor.
//!
//! The pause gate, the admission order, parking, close/fail, the deadline
//! of a timed pull and the counted wakes are [`datatap::gate`]'s, the very
//! code the staged channel runs on (DESIGN.md, "One gate"). The engine
//! keeps what is its own: staging and the seal rule, the cursors, the
//! retention bound with its low-water mark, and what [`Inner::finish`]
//! does once the lock is released — which announcements go to the control
//! stone (queued in lock order, submitted by one thread at a time) and
//! which truncated steps to free.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Weak};
use std::time::Duration;

use adios::{AttrValue, StepData};
use datatap::gate::{Gate, Gated, Guard};
use datatap::{Clock, PauseAborted, PullError, PullSource, StepMeta, WallClock, WriteError};
use evpath::{Event, OverlaySender, StoneId};
use sim_core::{SimDuration, SimTime};
use simtel::{Category, Telemetry};

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

/// The gate's refusals, in the engine's vocabulary.
impl From<WriteError> for StreamWriteError {
    fn from(refused: WriteError) -> StreamWriteError {
        match refused {
            WriteError::QueueFull => StreamWriteError::WindowFull,
            WriteError::Closed => StreamWriteError::Closed,
            WriteError::Paused => StreamWriteError::Paused,
            WriteError::Failed(reason) => StreamWriteError::Failed(reason),
        }
    }
}

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
    /// True while [`StreamReader`] handles on this cursor are alive.
    attached: bool,
    /// Advertised flow-control window, in sealed steps.
    window: Option<usize>,
    /// Which registration of the name this is (see [`Attachment`]).
    gen: u64,
}

type Cursors = BTreeMap<String, CursorState>;

/// The engine's own state under the gate.
#[derive(Default)]
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
    cursors: Cursors,
    /// Cursors registered so far: the next one's generation.
    registered: u64,
    /// The live writer handles' shared token, if any are alive.
    writers: Weak<WriterGroup>,
    sealed_total: u64,
    /// When the first writer parked on the retention bound, or the last
    /// truncation above the low-water mark that the parked writers slept
    /// through: the start of the wait for the next slot (see
    /// [`Inner::refill_due`]).
    gate_since: SimTime,
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

    /// True while a write must wait for readers: the retention bound is
    /// hit, or an attached cursor's advertised window is exhausted.
    fn window_blocked(&self, retention: usize) -> bool {
        if self.sealed.len() >= retention {
            return true;
        }
        let frontier = self.frontier();
        self.cursors.values().any(|c| {
            c.attached && c.window.is_some_and(|w| frontier.saturating_sub(c.next) >= w as u64)
        })
    }

    /// True while an attached cursor advertises a window: its gate moves
    /// with every step that cursor consumes.
    fn windowed(&self) -> bool {
        self.cursors.values().any(|c| c.attached && c.window.is_some())
    }

    /// Sealed steps not yet consumed by the slowest attached cursor.
    fn backlog(&self) -> usize {
        let frontier = self.frontier();
        self.cursors
            .values()
            .filter(|c| c.attached)
            .map(|c| (frontier.saturating_sub(c.next)) as usize)
            .max()
            .unwrap_or(0)
    }
}

struct Inner {
    cfg: StreamConfig,
    gate: Gate<LogState>,
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

    /// Ends an operation: releases the lock through the gate (which wakes
    /// whom the operation decided to wake), then frees the steps it
    /// truncated and submits its announcements. The outbox is drained by
    /// one thread at a time, so the submission order is the queue order; an
    /// operation that finds another thread draining leaves its
    /// announcements to that thread, which submits them before its own
    /// operation returns.
    fn finish(&self, mut st: Guard<'_, LogState>) {
        // A cursor advance retires at most one step, so the per-step path
        // only pops; a retire or re-attach can release several at once.
        let retired = st.retired.pop();
        let more: Vec<_> = st.retired.drain(..).collect();
        let mut next = if st.announcing { None } else { st.outbox.pop_front() };
        st.announcing |= next.is_some();
        self.gate.release(st);
        drop((retired, more));
        while let Some(msg) = next {
            if let Some((sender, stone)) = &self.control {
                sender.submit(*stone, Event::new(msg));
            }
            let mut st = self.gate.lock();
            next = st.outbox.pop_front();
            st.announcing = next.is_some();
        }
    }

    fn gauge_retained(&self, st: &LogState) {
        if self.telemetry.enabled(Category::Transport) {
            let (now, retained) = (self.gate.clock().now(), st.sealed.len() as f64);
            self.telemetry.gauge(Category::Transport, "stream.retained", now, retained);
        }
    }

    /// Seals every complete step at the staging front. Per-rank step
    /// sequences are strictly increasing, so once the lowest staged step
    /// has all its fragments no later arrival can precede it.
    fn seal_ready(&self, st: &mut Gated<LogState>) {
        while let Some(lowest) = st.staging.first_entry() {
            if !lowest.get().iter().all(Option::is_some) {
                break;
            }
            let (step, slots) = lowest.remove_entry();
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
    /// writer side is worth waking. Pause drains watch the backlog,
    /// which every advance moves, and a window gate moves with every step
    /// its cursor consumes. A writer parked on the retention bound is
    /// woken by a truncation that [`Inner::refill_due`] accepts.
    fn cursor_advanced(&self, st: &mut Gated<LogState>) {
        let truncated = self.truncate(st);
        let parked = st.writers_parked() > 0;
        if st.draining() || (parked && (st.windowed() || (truncated && self.refill_due(st)))) {
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
        let now = self.gate.clock().now();
        let waited = now.saturating_since(st.gate_since);
        st.gate_since = now;
        waited >= SLOW_CONSUMER
    }

    /// Closes the stream; announced once.
    fn close(&self) {
        let mut st = self.gate.lock();
        if st.close() {
            self.announce(&mut st, StreamControl::Closed);
        }
        self.finish(st);
    }
}

/// What the writer handles share. Handle counts are `Arc`'s: a count moves
/// only when a handle is cloned or dropped, and the last drop runs this.
struct WriterGroup(Arc<Inner>);

impl Drop for WriterGroup {
    /// The last writer handle dropped: the stream closes.
    fn drop(&mut self) {
        self.0.close();
    }
}

/// What the handles on one cursor share: one *registration* of its name.
/// A name retired and registered again is a new cursor with a new
/// generation, so handles left over from the old one find nothing: their
/// pulls end, and their drop detaches nobody.
struct Attachment {
    inner: Arc<Inner>,
    name: String,
    gen: u64,
}

impl Attachment {
    fn of<'a>(&self, cursors: &'a mut Cursors) -> Option<&'a mut CursorState> {
        cursors.get_mut(&self.name).filter(|c| c.gen == self.gen)
    }
}

impl Drop for Attachment {
    /// The cursor's last handle dropped: it detaches, unless it was
    /// retired meanwhile.
    fn drop(&mut self) {
        let mut st = self.inner.gate.lock();
        let Some(cursor) = self.of(&mut st.cursors) else { return };
        // The cursor stays registered at `at`: the retention gate keeps
        // holding its steps, and window gating stops (a detached reader
        // cannot pull, so its window must not wedge the writers).
        cursor.attached = false;
        let at = cursor.next;
        let reader = self.name.clone();
        self.inner.announce(&mut st, StreamControl::Detached { reader, at });
        st.wake_writers = true;
        self.inner.finish(st);
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
        let log =
            LogState { last_step: vec![None; writers], retired, outbox, ..LogState::default() };
        StreamEngine {
            inner: Arc::new(Inner {
                cfg: self.cfg,
                gate: Gate::new(log, self.clock),
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
        let mut st = self.inner.gate.lock();
        let group = st.writers.upgrade().unwrap_or_else(|| {
            let group = Arc::new(WriterGroup(self.inner.clone()));
            st.writers = Arc::downgrade(&group);
            group
        });
        StepWriter { group, rank }
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
        let mut st = self.inner.gate.lock();
        let start = match attach {
            Attach::Oldest => Some(st.base),
            Attach::Current => Some(st.frontier()),
            Attach::Resume => None,
        };
        let log: &mut LogState = &mut st;
        let cursor = match log.cursors.entry(name.clone()) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(_) if start.is_none() => return Err(AttachError::Unknown(name)),
            Entry::Vacant(fresh) => {
                log.registered += 1;
                let gen = log.registered;
                fresh.insert(CursorState { next: 0, frag: 0, attached: false, window, gen })
            }
        };
        if cursor.attached {
            return Err(AttachError::Busy(name));
        }
        cursor.attached = true;
        if let Some(next) = start {
            cursor.next = next;
            cursor.frag = 0;
        }
        cursor.window = window;
        let (at, gen) = (cursor.next, cursor.gen);
        self.inner.announce(&mut st, StreamControl::Attached { reader: name.clone(), at });
        self.inner.finish(st);
        Ok(StreamReader { cursor: Arc::new(Attachment { inner: self.inner.clone(), name, gen }) })
    }

    /// Closes the engine: writers fail with [`StreamWriteError::Closed`],
    /// readers drain the retained log and then end, active pause drains
    /// abort with [`PauseAborted::Closed`].
    pub fn close(&self) {
        self.inner.close();
    }

    /// Global steps sealed over the engine's lifetime.
    pub fn sealed_steps(&self) -> u64 {
        self.inner.gate.lock().sealed_total
    }

    /// Sealed steps currently retained in the log.
    pub fn retained(&self) -> usize {
        self.inner.gate.lock().sealed.len()
    }

    /// The engine's time source.
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.inner.gate.clock().clone()
    }
}

/// One rank's writer handle into the stream's writer group.
#[derive(Clone)]
pub struct StepWriter {
    group: Arc<WriterGroup>,
    rank: u32,
}

impl StepWriter {
    /// This handle's rank within the writer group.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// The engine's own admission check: the rank is in the group and its
    /// step index moves strictly forward.
    fn check(&self, st: &LogState, step: u64) -> Result<(), StreamWriteError> {
        let (rank, writers) = (self.rank, self.group.0.cfg.writers);
        if rank >= writers {
            return Err(StreamWriteError::RankOutOfRange { rank, writers });
        }
        match st.last_step.get(rank as usize) {
            Some(Some(last)) if step <= *last => {
                Err(StreamWriteError::StaleStep { step, last: *last })
            }
            _ => Ok(()),
        }
    }

    fn put(&self, block: bool, data: StepData) -> Result<StepMeta, StreamWriteError> {
        let inner = &self.group.0;
        let (rank, step) = (self.rank, data.step());
        let room = |st: &mut Gated<LogState>| -> Result<bool, StreamWriteError> {
            self.check(st, step)?;
            let room = !st.window_blocked(inner.cfg.retention);
            if block && !room && st.writers_parked() == 0 {
                // The first writer to park on the bound: the wait for the
                // next slot starts now.
                st.gate_since = inner.gate.clock().now();
            }
            Ok(room)
        };
        let mut st = inner.gate.admit(block, room)?;
        let meta = StepMeta { step, bytes: data.payload_bytes(), writer: rank };
        if let Some(slot) = st.last_step.get_mut(rank as usize) {
            *slot = Some(step);
        }
        let writers = inner.cfg.writers as usize;
        let slots = st.staging.entry(step).or_insert_with(|| vec![None; writers]);
        if let Some(slot) = slots.get_mut(rank as usize) {
            *slot = Some(data);
        }
        inner.telemetry.count(Category::Transport, "stream.announced", 1);
        inner.seal_ready(&mut st);
        inner.finish(st);
        Ok(meta)
    }

    /// Contributes this rank's fragment for a step without blocking.
    /// Fragment step indices must be strictly increasing per rank; the
    /// step seals when every rank's fragment has arrived.
    pub fn try_write(&self, data: StepData) -> Result<StepMeta, StreamWriteError> {
        self.put(false, data)
    }

    /// As [`StepWriter::try_write`], but blocks while the pause gate is
    /// held or the retention/window bounds require readers to catch up —
    /// reader-side flow control backpressuring the application.
    pub fn write(&self, data: StepData) -> Result<StepMeta, StreamWriteError> {
        self.put(true, data)
    }

    /// Pauses the writer group and blocks until every *sealed* step has
    /// been consumed by every attached cursor. On success, returns the
    /// backlog that had to drain. Fragments still staging (announced by
    /// some ranks but not yet sealed) survive the pause and seal after
    /// [`StepWriter::resume`] — they were never visible to readers, so
    /// the drain guarantee concerns only announced (sealed) steps.
    ///
    /// The contract is [`Gate::pause`]'s, the staged channel's too: an
    /// abort is a typed [`PauseAborted`] — `Failed` if the engine failed
    /// mid-drain (retained steps were discarded), `Closed` if it was
    /// closed with steps still undelivered — and the write gate survives
    /// a concurrent [`StepWriter::resume`] until the drain ends.
    pub fn pause(&self) -> Result<usize, PauseAborted> {
        let inner = &self.group.0;
        let (st, outcome) = inner.gate.pause(LogState::backlog, |mut st| {
            inner.telemetry.count(Category::Transport, "stream.pauses", 1);
            inner.announce(&mut st, StreamControl::Paused);
            // `Paused` goes out before the drain, not after it: the gate
            // holds across the gap, and the drain re-reads whatever a
            // racing resume, close or fail did meanwhile.
            inner.finish(st);
            inner.gate.lock()
        });
        if outcome.is_err() {
            inner.telemetry.count(Category::Transport, "stream.pause_aborts", 1);
        }
        inner.finish(st);
        outcome
    }

    /// Resumes a paused writer group. If a [`StepWriter::pause`] drain is
    /// still in progress, the paused flag clears immediately but the
    /// write gate stays held until that drain finishes.
    pub fn resume(&self) {
        let inner = &self.group.0;
        let mut st = inner.gate.lock();
        st.resume();
        inner.announce(&mut st, StreamControl::Resumed);
        inner.finish(st);
    }

    /// True while writes are rejected: explicitly paused, or quiescing
    /// because a pause drain is still in progress.
    pub fn is_paused(&self) -> bool {
        self.group.0.gate.lock().is_paused()
    }

    /// Injects an endpoint failure: retained sealed steps and staging
    /// fragments are discarded (they lived in crashed memory), blocked
    /// parties wake with typed errors. Returns the number of global steps
    /// lost (sealed-but-undelivered plus incomplete).
    pub fn fail(&self, reason: &'static str) -> usize {
        let inner = &self.group.0;
        let mut st = inner.gate.lock();
        let discard = |log: &mut LogState| {
            let lost = log.sealed.len() + log.staging.len();
            log.retired.extend(log.sealed.drain(..));
            log.staging.clear();
            lost
        };
        let Some(lost) = st.fail(reason, discard) else { return 0 };
        inner.telemetry.count(Category::Transport, "stream.failed_steps", lost as u64);
        inner.announce(&mut st, StreamControl::Failed { reason });
        inner.finish(st);
        lost
    }
}

/// A handle on a named reader cursor. Clones share the cursor's position,
/// so a pool of workers pulling through clones divides the stream between
/// them (the staged channel's work-sharing semantics); independent named
/// cursors each see the full stream.
#[derive(Clone)]
pub struct StreamReader {
    cursor: Arc<Attachment>,
}

impl std::fmt::Debug for StreamReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamReader").field("name", &self.name()).finish_non_exhaustive()
    }
}

impl StreamReader {
    /// The cursor's name.
    pub fn name(&self) -> &str {
        &self.cursor.name
    }

    /// The log offset of the next step this cursor will consume.
    pub fn position(&self) -> u64 {
        let mut st = self.cursor.inner.gate.lock();
        self.cursor.of(&mut st.cursors).map_or(0, |c| c.next)
    }

    /// Sealed steps waiting for this cursor.
    pub fn queued(&self) -> usize {
        let mut st = self.cursor.inner.gate.lock();
        let frontier = st.frontier();
        self.cursor.of(&mut st.cursors).map_or(0, |c| frontier.saturating_sub(c.next) as usize)
    }

    /// The failure reason, if the engine has failed.
    pub fn failure(&self) -> Option<&'static str> {
        self.cursor.inner.gate.lock().failure()
    }

    /// The engine's time source (deadlines for the timeout pulls live on
    /// this axis).
    pub fn clock(&self) -> Arc<dyn Clock> {
        self.cursor.inner.gate.clock().clone()
    }

    /// Unregisters the cursor entirely, releasing its retention hold: the
    /// log may truncate past its position and a later attach under this
    /// name starts fresh. Clones of this handle are inert from here on:
    /// their pulls end, and neither they nor this handle's own drop touch
    /// whatever is registered under the name next.
    pub fn retire(self) {
        let inner = &self.cursor.inner;
        let mut st = inner.gate.lock();
        if self.cursor.of(&mut st.cursors).is_none() {
            return;
        }
        st.cursors.remove(self.name());
        inner.truncate(&mut st);
        inner.announce(&mut st, StreamControl::Retired { reader: self.name().into() });
        st.wake_writers = true;
        st.wake_readers = true;
        inner.finish(st);
    }

    /// Takes the next fragment at the cursor, advancing the shared
    /// position. `None` when nothing is sealed at the cursor yet.
    fn take_fragment(
        &self,
        st: &mut Gated<LogState>,
    ) -> Result<Option<(StepMeta, StepData)>, PullError> {
        let log: &mut LogState = st;
        let cursor = self.cursor.of(&mut log.cursors).ok_or(PullError::Closed)?;
        let Some(global) = log.sealed.get((cursor.next - log.base) as usize) else {
            return Ok(None);
        };
        let Some(frag) = global.fragments.get(cursor.frag).cloned() else { return Ok(None) };
        let meta = StepMeta {
            step: global.index,
            bytes: frag.payload_bytes(),
            writer: cursor.frag as u32,
        };
        cursor.frag += 1;
        let advanced = cursor.frag >= global.fragments.len();
        if advanced {
            cursor.frag = 0;
            cursor.next += 1;
        }
        let inner = &self.cursor.inner;
        inner.telemetry.count(Category::Transport, "stream.delivered", 1);
        if advanced {
            inner.cursor_advanced(st);
        }
        Ok(Some((meta, frag)))
    }

    /// Takes the whole step at the cursor, advancing past it. Fragments
    /// already consumed via [`StreamReader::pull`] are still part of the
    /// returned step (the step is shared, not re-cut).
    fn take_step(&self, st: &mut Gated<LogState>) -> Result<Option<Arc<GlobalStep>>, PullError> {
        let log: &mut LogState = st;
        let cursor = self.cursor.of(&mut log.cursors).ok_or(PullError::Closed)?;
        let Some(global) = log.sealed.get((cursor.next - log.base) as usize).cloned() else {
            return Ok(None);
        };
        cursor.frag = 0;
        cursor.next += 1;
        let (inner, delivered) = (&self.cursor.inner, global.fragments.len() as u64);
        inner.telemetry.count(Category::Transport, "stream.delivered", delivered);
        inner.cursor_advanced(st);
        Ok(Some(global))
    }

    /// Takes at the cursor with `take`, parking until something seals
    /// there, the cursor can never produce again (failed, retired, or
    /// closed with the backlog consumed), or `timeout` passes — one
    /// deadline on the engine's [`Clock`] for the whole wait.
    fn take_blocking<T>(
        &self,
        timeout: Option<Duration>,
        take: impl Fn(&Self, &mut Gated<LogState>) -> Result<Option<T>, PullError>,
    ) -> Option<T> {
        let inner = &self.cursor.inner;
        let deadline = timeout.map(|timeout| inner.gate.deadline(timeout));
        let attempt = |st: &mut Gated<LogState>| {
            let out = take(self, st)?;
            // Park-safety rule. The low-water mark lets a writer parked on
            // the bound sleep through truncations, and this thread may be
            // the only one serving the cursors that writer waits for: it
            // must not go to sleep on a writer the gate would admit. The
            // gate carries this wake out under the lock, before it parks us.
            let unserved = out.is_none() && st.writers_parked() > 0;
            if unserved && !st.is_paused() && !st.window_blocked(inner.cfg.retention) {
                st.wake_writers = true;
            }
            Ok(out)
        };
        let (st, out) = inner.gate.take_until(deadline, attempt).ok()?;
        inner.finish(st);
        Some(out)
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
        let inner = &self.cursor.inner;
        let mut st = inner.gate.lock();
        let step = self.take_step(&mut st).ok().flatten();
        inner.finish(st);
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
    fn a_dropped_writer_clone_never_closes_and_the_last_drop_closes_once() {
        let eng = engine(2, 8);
        let w0 = eng.writer(0);
        // What `with_rank` got wrong: a handle made and dropped beside a
        // live one must leave the stream open, and the live one droppable.
        drop(eng.writer(1));
        drop(w0.clone());
        w0.try_write(frag(0, 0)).unwrap();
        drop(w0);
        assert_eq!(eng.writer(1).try_write(frag(0, 1)).unwrap_err(), StreamWriteError::Closed);
    }

    #[test]
    fn a_stale_clone_of_a_retired_cursor_is_inert() {
        let eng = engine(1, 8);
        let w = eng.writer(0);
        w.try_write(frag(0, 0)).unwrap();
        let r = eng.reader("a", Attach::Oldest, None).unwrap();
        let stale = r.clone();
        r.retire();
        // (Retiring the only cursor let the log truncate step 0.)
        let fresh = eng.reader("a", Attach::Oldest, None).unwrap();
        w.try_write(frag(1, 0)).unwrap();
        // The stale clone names a cursor that no longer exists, not the
        // one registered under its name since: it pulls nothing ...
        assert!(stale.try_next_step().is_none());
        assert!(stale.next_step().is_none(), "a pull on a retired cursor ends, it does not park");
        assert_eq!((stale.position(), stale.queued()), (0, 0));
        assert_eq!(fresh.queued(), 1, "the stale pulls took nothing from the new cursor");
        // ... and neither cloning nor dropping it detaches the new cursor.
        drop(stale.clone());
        drop(stale);
        assert_eq!(
            eng.reader("a", Attach::Resume, None).unwrap_err(),
            AttachError::Busy("a".into()),
            "the new cursor's handle is still alive"
        );
        assert_eq!(fresh.try_next_step().unwrap().index, 1, "and it still reads the log");
        drop(fresh);
        drop(eng.reader("a", Attach::Resume, None).unwrap());
    }

    #[test]
    fn retiring_a_cursor_ends_the_pull_a_clone_is_parked_in() {
        within_10s(|| {
            let eng = engine(1, 8);
            let _w = eng.writer(0);
            let r = eng.reader("a", Attach::Oldest, None).unwrap();
            let parked = r.clone();
            let puller = std::thread::spawn(move || parked.next_step().map(|s| s.index));
            while eng.inner.gate.lock().readers_parked() == 0 {
                std::thread::yield_now();
            }
            r.retire();
            assert_eq!(puller.join().unwrap(), None);
        });
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
        while eng.inner.gate.lock().writers_parked() == 0 {
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
            assert_eq!(eng.inner.gate.lock().writers_parked(), 1);
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
            assert_eq!(eng.inner.gate.lock().writers_parked(), 1);
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
