#![cfg(loom)]
//! Model-check suite for the one gate both transports run on.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (ci.sh's loom job), which
//! swaps the gate's mutex/condvar for the loom stand-in (`datatap::gate` is
//! the only seam). The pause-protocol models are written once, over a
//! small [`Transport`] view, and run against the staged channel and the
//! stream engine both; their properties are the protocol's deadlock and
//! lost-step classes:
//!
//! * a pause must not return before every announced step drains,
//! * a writer blocked by pause must always see the resume wakeup,
//! * a close or fail must unblock a draining pause — and must surface as
//!   a typed [`PauseAborted`], never as a success-shaped count,
//! * a resume racing a draining pause must not reopen the write gate
//!   mid-drain (a refilled queue would stall the pauser indefinitely).
//!
//! The engine-only models cover what the step log adds. It decides under
//! the lock whom to wake and wakes them after releasing it, only when a
//! waiter count says someone is parked, and lets a writer parked on the
//! retention bound sleep until the low-water mark. Each of those is a
//! place to lose a wake-up; every model deadlocks (and the job times out)
//! if one is lost:
//!
//! * a writer parked at a retention of 1 or 2 against a reader that
//!   truncates and parks in turn,
//! * a writer parked above the low-water mark while the one thread that
//!   serves both cursors parks on the faster of them,
//! * a pause drain racing a seal and a resume,
//! * a cursor attaching and detaching while a pause drain counts backlogs,
//! * truncations at the retention bound racing a pause and its resume.
//!
//! The vendored loom is a bounded stress search, not an exhaustive proof:
//! failures are real protocol bugs, passes are probabilistic. Every model
//! runs on a `ManualClock` that stands still, prints how many
//! interleavings it explored and fails if that drops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adios::StepData;
use datatap::loom::{self, thread};
use datatap::{channel_with_clock, ManualClock, PauseAborted, WriteError};
use stream::{Attach, StreamConfig, StreamEngine, StreamReader, StreamWriteError};

/// An engine whose clock stands still: no consumer ever looks slow, so a
/// writer parked above the low-water mark is woken by the mark or by the
/// park-safety rule alone, the case these models are about.
fn engine(retention: usize) -> StreamEngine {
    StreamEngine::builder(StreamConfig { writers: 1, retention })
        .clock(Arc::new(ManualClock::new()))
        .build()
}

/// Runs `body` under `loom::model` and reports the interleavings explored.
fn explore(name: &str, body: impl Fn() + Send + Sync + 'static) {
    let explored = Arc::new(AtomicU64::new(0));
    let count = explored.clone();
    loom::model(move || {
        count.fetch_add(1, Ordering::Relaxed);
        body();
    });
    let explored = explored.load(Ordering::Relaxed);
    println!("loom_gate: {name} explored {explored} interleavings");
    assert!(explored >= 64, "the model explored only {explored} interleavings");
}

// --- the pause protocol, once, on both transports ---------------------------

/// What the pause-protocol models need of a transport: a 1:1 coupling
/// with room for `capacity` steps, steps named by their index.
trait Transport: 'static {
    type Writer: Clone + Send + 'static;
    type Reader: Send + 'static;
    fn open(capacity: usize) -> (Self::Writer, Self::Reader);
    fn try_write(w: &Self::Writer, step: u64) -> Result<u64, WriteError>;
    fn write(w: &Self::Writer, step: u64) -> Result<u64, WriteError>;
    fn pause(w: &Self::Writer) -> Result<usize, PauseAborted>;
    fn resume(w: &Self::Writer);
    fn is_paused(w: &Self::Writer) -> bool;
    fn fail(w: &Self::Writer, reason: &'static str) -> usize;
    fn pull(r: &Self::Reader) -> Option<u64>;
    fn queued(r: &Self::Reader) -> usize;
    fn close(r: &Self::Reader);
}

/// The staged channel.
struct Staged;

impl Transport for Staged {
    type Writer = datatap::Writer;
    type Reader = datatap::Reader;
    fn open(capacity: usize) -> (datatap::Writer, datatap::Reader) {
        channel_with_clock(capacity, Arc::new(ManualClock::new()))
    }
    fn try_write(w: &datatap::Writer, step: u64) -> Result<u64, WriteError> {
        w.try_write(StepData::new(step)).map(|m| m.step)
    }
    fn write(w: &datatap::Writer, step: u64) -> Result<u64, WriteError> {
        w.write(StepData::new(step)).map(|m| m.step)
    }
    fn pause(w: &datatap::Writer) -> Result<usize, PauseAborted> {
        w.pause()
    }
    fn resume(w: &datatap::Writer) {
        w.resume()
    }
    fn is_paused(w: &datatap::Writer) -> bool {
        w.is_paused()
    }
    fn fail(w: &datatap::Writer, reason: &'static str) -> usize {
        w.fail(reason)
    }
    fn pull(r: &datatap::Reader) -> Option<u64> {
        r.pull().map(|(m, _)| m.step)
    }
    fn queued(r: &datatap::Reader) -> usize {
        r.queued()
    }
    fn close(r: &datatap::Reader) {
        r.close()
    }
}

/// The stream engine as a 1:1 coupling: one rank, one cursor, retention
/// for capacity.
struct Streamed;

fn staged_error(e: StreamWriteError) -> WriteError {
    match e {
        StreamWriteError::WindowFull => WriteError::QueueFull,
        StreamWriteError::Closed => WriteError::Closed,
        StreamWriteError::Paused => WriteError::Paused,
        StreamWriteError::Failed(reason) => WriteError::Failed(reason),
        other => panic!("the models write one rank, in order: {other}"),
    }
}

impl Transport for Streamed {
    type Writer = stream::StepWriter;
    type Reader = (StreamEngine, StreamReader);
    fn open(capacity: usize) -> (stream::StepWriter, (StreamEngine, StreamReader)) {
        let eng = engine(capacity);
        let r = eng.reader("sink", Attach::Oldest, None).expect("fresh cursor");
        (eng.writer(0), (eng, r))
    }
    fn try_write(w: &stream::StepWriter, step: u64) -> Result<u64, WriteError> {
        w.try_write(StepData::new(step)).map(|m| m.step).map_err(staged_error)
    }
    fn write(w: &stream::StepWriter, step: u64) -> Result<u64, WriteError> {
        w.write(StepData::new(step)).map(|m| m.step).map_err(staged_error)
    }
    fn pause(w: &stream::StepWriter) -> Result<usize, PauseAborted> {
        w.pause()
    }
    fn resume(w: &stream::StepWriter) {
        w.resume()
    }
    fn is_paused(w: &stream::StepWriter) -> bool {
        w.is_paused()
    }
    fn fail(w: &stream::StepWriter, reason: &'static str) -> usize {
        w.fail(reason)
    }
    fn pull(r: &(StreamEngine, StreamReader)) -> Option<u64> {
        r.1.pull().map(|(m, _)| m.step)
    }
    fn queued(r: &(StreamEngine, StreamReader)) -> usize {
        r.1.queued()
    }
    fn close(r: &(StreamEngine, StreamReader)) {
        r.0.close()
    }
}

/// Declares a test that explores `models::$name` on both transports.
macro_rules! on_both_transports {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            explore(concat!(stringify!($name), " (staged channel)"), models::$name::<Staged>);
            explore(concat!(stringify!($name), " (stream engine)"), models::$name::<Streamed>);
        }
    )*};
}

on_both_transports!(
    pause_waits_for_full_drain,
    pause_resume_never_loses_a_wakeup,
    close_aborts_a_draining_pause_with_a_typed_outcome,
    fail_aborts_a_draining_pause_with_a_typed_outcome,
    resume_cannot_reopen_the_gate_mid_drain,
);

mod models {
    use super::*;

    pub fn pause_waits_for_full_drain<T: Transport>() {
        let (w, r) = T::open(4);
        for i in 0..2 {
            T::try_write(&w, i).expect("capacity 4 holds 2 steps");
        }
        let w2 = w.clone();
        let pauser = thread::spawn(move || T::pause(&w2));
        let reader = thread::spawn(move || {
            let got: Vec<u64> =
                (0..2).map(|_| T::pull(&r).expect("two steps were announced")).collect();
            (r, got)
        });
        let (r, got) = reader.join().expect("reader thread");
        assert_eq!(got, vec![0, 1], "announced order is pull order");
        // pause() reports the backlog at the instant it engages — the
        // reader may already have drained some of it.
        let drained = pauser.join().expect("pauser thread").expect("drain completes");
        assert!(drained <= 2);
        // After pause returns the transport is quiesced: paused and empty.
        assert!(T::is_paused(&w));
        assert_eq!(T::queued(&r), 0, "pause returned before the drain finished");
        assert_eq!(T::try_write(&w, 9).unwrap_err(), WriteError::Paused);
    }

    pub fn pause_resume_never_loses_a_wakeup<T: Transport>() {
        let (w, r) = T::open(1);
        let w2 = w.clone();
        let writer = thread::spawn(move || T::write(&w2, 7));
        let pauser = thread::spawn(move || {
            let drained = T::pause(&w);
            T::resume(&w);
            drained
        });
        // Whatever the interleaving — write before pause (pause drains
        // through our pull), pause before write (resume must wake the
        // blocked writer) — the step lands and nobody deadlocks.
        assert_eq!(T::pull(&r), Some(7), "the write always completes");
        assert_eq!(writer.join().expect("writer thread").expect("write succeeds"), 7);
        assert!(pauser.join().expect("pauser thread").expect("drain completes") <= 1);
    }

    pub fn close_aborts_a_draining_pause_with_a_typed_outcome<T: Transport>() {
        let (w, r) = T::open(4);
        T::try_write(&w, 0).expect("capacity 4 holds 1 step");
        let w2 = w.clone();
        let pauser = thread::spawn(move || T::pause(&w2));
        let closer = thread::spawn(move || {
            T::close(&r);
            r
        });
        // Nobody pulls, so the drain can only end via the close — and that
        // must be distinguishable from a completed drain.
        assert_eq!(
            pauser.join().expect("pauser thread"),
            Err(PauseAborted::Closed { remaining: 1 }),
            "an aborted drain must not look like success"
        );
        let r = closer.join().expect("closer thread");
        // Buffered data is still drainable after close.
        assert_eq!(T::pull(&r), Some(0));
        assert_eq!(T::pull(&r), None);
    }

    pub fn fail_aborts_a_draining_pause_with_a_typed_outcome<T: Transport>() {
        let (w, r) = T::open(4);
        T::try_write(&w, 0).expect("capacity 4 holds 1 step");
        let w2 = w.clone();
        let pauser = thread::spawn(move || T::pause(&w2));
        let failer = thread::spawn(move || T::fail(&w, "injected crash"));
        // The drain can only end via the failure; the buffered step was
        // discarded, so success would be a silent lost step.
        assert_eq!(
            pauser.join().expect("pauser thread"),
            Err(PauseAborted::Failed("injected crash")),
            "a failed drain must not look like success"
        );
        assert_eq!(failer.join().expect("failer thread"), 1, "one step was lost");
        assert_eq!(T::pull(&r), None, "pull on a failed transport returns");
    }

    pub fn resume_cannot_reopen_the_gate_mid_drain<T: Transport>() {
        let (w, r) = T::open(4);
        T::try_write(&w, 0).expect("capacity 4 holds 1 step");
        let w_pause = w.clone();
        let pauser = thread::spawn(move || T::pause(&w_pause));
        // Wait for the pause to engage before racing anything against it:
        // the gate cannot drop until the puller (spawned below) drains the
        // queue, so this spin terminates and every schedule exercises the
        // resume/write-racing-an-active-drain interleavings.
        while !T::is_paused(&w) {
            thread::yield_now();
        }
        let w_resume = w.clone();
        let resumer = thread::spawn(move || T::resume(&w_resume));
        let w_refill = w.clone();
        // A writer racing the pause/resume pair: it must never slip a step
        // in while the drain is still waiting for the queue to empty.
        let refiller = thread::spawn(move || T::try_write(&w_refill, 1));
        let puller = thread::spawn(move || {
            let first = T::pull(&r).expect("the announced step drains");
            (r, first)
        });
        let drained = pauser.join().expect("pauser thread").expect("drain completes");
        assert!(drained <= 1);
        resumer.join().expect("resumer thread");
        let (r, first) = puller.join().expect("puller thread");
        assert_eq!(first, 0);
        // Whatever the refiller saw — Paused (gate held) or Ok (it ran
        // after the drain finished and the resume landed) — the pauser's
        // contract held: when pause() returned Ok, the queue held nothing
        // announced before the drain completed. A refill that succeeded
        // must have happened after the gate dropped, so at most one step
        // remains now.
        match refiller.join().expect("refiller thread") {
            Ok(step) => {
                assert_eq!(step, 1);
                assert_eq!(T::queued(&r), 1);
            }
            Err(e) => {
                assert_eq!(e, WriteError::Paused);
                assert_eq!(T::queued(&r), 0);
            }
        }
    }
}

// --- what the step log adds ------------------------------------------------

#[test]
fn a_gate_parked_writer_always_hears_the_truncation() {
    explore("writer parked at retention 1-2", || {
        for retention in [1, 2] {
            let eng = engine(retention);
            let w = eng.writer(0);
            let r = eng.reader("sink", Attach::Oldest, None).expect("fresh cursor");
            let writer = thread::spawn(move || {
                for step in 0..4 {
                    w.write(StepData::new(step)).expect("the stream stays open");
                }
            });
            for step in 0..4 {
                assert_eq!(r.next_step().expect("four steps were written").index, step);
            }
            writer.join().expect("writer thread");
            assert!(r.next_step().is_none(), "the dropped writer closed the stream");
        }
    });
}

#[test]
fn parking_on_the_faster_cursor_wakes_the_parked_writer() {
    explore("one thread, two cursors, retention 3", || {
        let eng = engine(3);
        let w = eng.writer(0);
        let fast = eng.reader("fast", Attach::Oldest, None).expect("fresh cursor");
        let slow = eng.reader("slow", Attach::Oldest, None).expect("fresh cursor");
        let writer = thread::spawn(move || {
            for step in 0..6 {
                w.write(StepData::new(step)).expect("the stream stays open");
            }
        });
        // `fast` runs a full log ahead of `slow`: each `slow` step truncates
        // one, which leaves two retained, above the low-water mark of one.
        // The next `fast` pull finds nothing sealed and parks — with the
        // writer, in some schedules, still parked on the bound.
        for step in 0..3 {
            assert_eq!(fast.next_step().expect("six steps were written").index, step);
        }
        for step in 0..3 {
            assert_eq!(slow.next_step().expect("six steps were written").index, step);
            assert_eq!(fast.next_step().expect("six steps were written").index, step + 3);
        }
        writer.join().expect("writer thread");
        for step in 3..6 {
            assert_eq!(slow.next_step().expect("six steps were written").index, step);
        }
    });
}

#[test]
fn a_pause_drain_survives_a_racing_seal_and_resume() {
    explore("pause drain vs seal and resume", || {
        let eng = engine(4);
        let w = eng.writer(0);
        let r = eng.reader("sink", Attach::Oldest, None).expect("fresh cursor");
        w.try_write(StepData::new(0)).expect("retention 4 holds 1 step");
        let w_pause = w.clone();
        let pauser = thread::spawn(move || w_pause.pause());
        // Lands before the gate engages, or parks on it until the resume.
        let w_seal = w.clone();
        let sealer = thread::spawn(move || w_seal.write(StepData::new(1)).map(|m| m.step));
        let w_resume = w.clone();
        let resumer = thread::spawn(move || {
            // The gate stays engaged until this resume, so the spin ends.
            while !w_resume.is_paused() {
                thread::yield_now();
            }
            w_resume.resume();
        });
        // The drain needs this cursor; the parked sealer needs the resume.
        assert_eq!(r.next_step().expect("step 0 is sealed").index, 0);
        assert_eq!(r.next_step().expect("the sealer's write lands").index, 1);
        let drained = pauser.join().expect("pauser thread").expect("drain completes");
        assert!(drained <= 2, "pause reports the backlog at engage time");
        assert_eq!(sealer.join().expect("sealer thread"), Ok(1));
        resumer.join().expect("resumer thread");
    });
}

#[test]
fn a_cursor_attaching_and_detaching_mid_drain_cannot_strand_the_pause() {
    explore("attach/detach during a pause drain", || {
        let eng = engine(4);
        let w = eng.writer(0);
        let sink = eng.reader("sink", Attach::Oldest, None).expect("fresh cursor");
        for step in 0..2 {
            w.try_write(StepData::new(step)).expect("retention 4 holds 2 steps");
        }
        let w_pause = w.clone();
        let pauser = thread::spawn(move || w_pause.pause());
        // A second cursor joins at the oldest step — from then on the drain
        // waits for it too —, takes one step or none, and leaves with the
        // rest unread. Its detach lowers the backlog without a pull: the
        // drain must hear of it, or it waits for a reader that is gone.
        let late_eng = eng.clone();
        let visitor = thread::spawn(move || {
            let late = late_eng.reader("late", Attach::Oldest, None).expect("fresh cursor");
            let _ = late.try_next_step();
            late.position()
        });
        for step in 0..2 {
            assert_eq!(sink.next_step().expect("two steps were sealed").index, step);
        }
        let drained = pauser.join().expect("pauser thread").expect("drain completes");
        assert!(drained <= 2, "pause reports the backlog at engage time");
        let parked_at = visitor.join().expect("visitor thread");
        // Quiesced for every cursor still attached; the visitor's position
        // stays registered, so what it left unread stays retained.
        assert!(w.is_paused());
        assert_eq!(sink.queued(), 0);
        assert_eq!(eng.retained() as u64, 2 - parked_at, "the detached cursor pins its unread steps");
    });
}

#[test]
fn truncations_at_the_bound_racing_a_pause_and_resume_lose_no_wakeup() {
    explore("retention-truncate vs pause and resume", || {
        for retention in [1, 3] {
            let eng = engine(retention);
            let w = eng.writer(0);
            let r = eng.reader("sink", Attach::Oldest, None).expect("fresh cursor");
            // Parks on the retention bound, on the pause gate, or on both
            // in turn: a truncation may find it gated and a resume may find
            // the log full, and each wake must still reach it.
            let w_write = w.clone();
            let writer = thread::spawn(move || {
                for step in 0..5 {
                    w_write.write(StepData::new(step)).expect("the stream stays open");
                }
            });
            let pauser = thread::spawn(move || {
                let drained = w.pause();
                w.resume();
                drained
            });
            for step in 0..5 {
                assert_eq!(r.next_step().expect("five steps were written").index, step);
            }
            writer.join().expect("writer thread");
            let drained = pauser.join().expect("pauser thread").expect("drain completes");
            assert!(drained <= retention, "the backlog never exceeds the retention");
            assert!(r.next_step().is_none(), "the dropped writers closed the stream");
        }
    });
}
