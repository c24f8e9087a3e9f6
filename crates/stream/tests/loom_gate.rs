#![cfg(loom)]
//! Model-check suite for the step log's gates.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (ci.sh's loom job), which
//! swaps the engine's mutex/condvar for the loom stand-in via
//! `stream::sync`. The engine decides under its mutex whom to wake and
//! wakes them after releasing it, only when a waiter count says someone
//! is parked, and lets a writer parked on the retention bound sleep until
//! the low-water mark. Each of those is a place to lose a wake-up; every
//! model below deadlocks (and the job times out) if one is lost:
//!
//! * a writer parked at a retention of 1 or 2 against a reader that
//!   truncates and parks in turn,
//! * a writer parked above the low-water mark while the one thread that
//!   serves both cursors parks on the faster of them,
//! * a pause drain racing a seal and a resume.
//!
//! The vendored loom is a bounded stress search, not an exhaustive proof:
//! failures are real protocol bugs, passes are probabilistic. Each test
//! prints how many interleavings it explored and fails if that drops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adios::StepData;
use datatap::loom::{self, thread};
use datatap::ManualClock;
use stream::{Attach, StreamConfig, StreamEngine};

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
