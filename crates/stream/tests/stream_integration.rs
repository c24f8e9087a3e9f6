//! Integration tests of the N↔M streaming contract under real threads:
//! a writer group redistributing fragments to several independent
//! cursors, late joiners, a restarted reader rejoining mid-stream, the
//! scheduled-pull policy layer over a stream cursor, and the control
//! announcements on the event overlay.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use adios::{AttrValue, StepData};
use datatap::{Clock, ManualClock, PullPolicy, ScheduledReader};
use evpath::{Action, Overlay};
use sim_core::SimTime;
use stream::{Attach, StreamConfig, StreamControl, StreamEngine};

fn frag(step: u64, rank: u32) -> StepData {
    let mut s = StepData::new(step);
    s.set_attr("rank", AttrValue::Int(rank as i64));
    s.set_attr("origin", AttrValue::Str(format!("writer-{rank}")));
    s
}

/// Three writer ranks, two independent cursors: both consumers observe
/// the identical global-step sequence, every step carrying all three
/// fragments, whatever the rank interleaving.
#[test]
fn three_writers_two_readers_see_identical_sequences() {
    let eng = StreamEngine::new(StreamConfig { writers: 3, retention: 8 });
    let steps = 20u64;

    let viz = eng.reader("viz", Attach::Oldest, None).unwrap();
    let analytics = eng.reader("analytics", Attach::Oldest, None).unwrap();

    let consume = |r: stream::StreamReader| {
        thread::spawn(move || {
            let mut seq = Vec::new();
            while let Some(step) = r.next_step() {
                assert_eq!(step.fragments.len(), 3, "a sealed step carries all fragments");
                for (rank, f) in step.fragments.iter().enumerate() {
                    assert_eq!(f.step(), step.index, "fragments agree on the step");
                    assert_eq!(f.attr("rank"), Some(&AttrValue::Int(rank as i64)));
                }
                seq.push(step.index);
            }
            seq
        })
    };
    let viz_thread = consume(viz);
    let analytics_thread = consume(analytics);

    // Every rank holds its handle before any rank writes: fragments stage
    // without blocking, so a rank could otherwise finish and drop the only
    // live handle, which closes the engine under the ranks not yet created.
    let handles: Vec<_> = (0..3u32).map(|rank| (rank, eng.writer(rank))).collect();
    let mut writers = Vec::new();
    for (rank, w) in handles {
        writers.push(thread::spawn(move || {
            for step in 0..steps {
                // MD-style non-contiguous step indices, written under the
                // blocking path so retention backpressure applies.
                w.write(frag(step * 5, rank)).unwrap();
            }
        }));
    }
    eng.clone().writer(0); // dropped immediately: must NOT close (others live)
    for w in writers {
        w.join().unwrap();
    }
    // All rank handles are gone now: the engine closed and readers drain.
    let expected: Vec<u64> = (0..steps).map(|s| s * 5).collect();
    assert_eq!(viz_thread.join().unwrap(), expected);
    assert_eq!(analytics_thread.join().unwrap(), expected);
    assert_eq!(eng.sealed_steps(), steps);
}

/// A reader attaching mid-run with [`Attach::Current`] sees only steps
/// sealed after the attach — and per-step attributes flow through to it.
#[test]
fn late_joiner_starts_at_the_current_step() {
    let eng = StreamEngine::new(StreamConfig { writers: 2, retention: 16 });
    let w0 = eng.writer(0);
    let w1 = eng.writer(1);
    let archival = eng.reader("archival", Attach::Oldest, None).unwrap();

    for step in 0..4 {
        w0.try_write(frag(step, 0)).unwrap();
        w1.try_write(frag(step, 1)).unwrap();
    }
    assert_eq!(eng.sealed_steps(), 4);

    let late = eng.reader("late-viz", Attach::Current, None).unwrap();
    for step in 4..8 {
        w0.try_write(frag(step, 0)).unwrap();
        w1.try_write(frag(step, 1)).unwrap();
    }
    drop(w0);
    drop(w1);

    let late_steps: Vec<u64> = std::iter::from_fn(|| late.next_step()).map(|s| s.index).collect();
    assert_eq!(late_steps, vec![4, 5, 6, 7], "history stays invisible to the late joiner");

    let all: Vec<u64> = std::iter::from_fn(|| archival.next_step()).map(|s| s.index).collect();
    assert_eq!(all, (0..8).collect::<Vec<_>>(), "the original cursor still sees everything");
}

/// A reader that dies mid-stream and rejoins with [`Attach::Resume`]
/// observes every step exactly once, even though the writers kept going —
/// the registered cursor backpressures the writers instead of losing
/// retained steps.
#[test]
fn restarted_reader_rejoins_without_duplication_or_loss() {
    // Tight retention proves the hold: with the cursor parked at step 3
    // the writer can run at most `retention` steps ahead, then blocks.
    let eng = StreamEngine::new(StreamConfig { writers: 1, retention: 4 });
    let w = eng.writer(0);
    let steps = 12u64;

    let writer = {
        let w = w.clone();
        thread::spawn(move || {
            for step in 0..steps {
                w.write(frag(step, 0)).unwrap();
            }
        })
    };
    drop(w);

    let mut seen = Vec::new();
    let r = eng.reader("analytics", Attach::Oldest, None).unwrap();
    for _ in 0..3 {
        seen.push(r.next_step().unwrap().index);
    }
    drop(r); // the analytics reader crashes mid-stream

    // Writers continue into the retention window while the cursor is
    // parked; the restarted reader resumes exactly where it left off.
    let r = eng.reader("analytics", Attach::Resume, None).unwrap();
    while let Some(step) = r.next_step() {
        seen.push(step.index);
    }
    writer.join().unwrap();
    assert_eq!(seen, (0..steps).collect::<Vec<_>>(), "no duplicate, no loss across the restart");
}

/// The scheduled-pull policy layer accepts a stream cursor wherever it
/// accepts a staged-channel reader: concurrency limits and the clock both
/// come through the [`datatap::PullSource`] seam.
#[test]
fn scheduled_reader_pulls_a_stream_cursor_under_policy() {
    let clock = Arc::new(ManualClock::new());
    let eng = StreamEngine::builder(StreamConfig { writers: 1, retention: 16 })
        .clock(clock.clone())
        .build();
    let w = eng.writer(0);
    for step in 0..4 {
        w.try_write(frag(step, 0)).unwrap();
    }

    let cursor = eng.reader("viz", Attach::Oldest, None).unwrap();
    let sched = ScheduledReader::new(cursor, PullPolicy::Scheduled { max_concurrent: 1 });

    let (guard, meta, _) = sched.pull().expect("data is sealed");
    assert_eq!(meta.step, 0);
    assert_eq!(sched.in_flight(), 1);
    // The single slot is taken: a timed pull must give up at its deadline
    // on the injected clock, charging the wait virtually.
    assert!(sched.pull_timeout(Duration::from_secs(2)).is_none());
    assert_eq!(clock.now(), SimTime::from_secs(2));
    drop(guard);
    let (_, meta, _) = sched.pull().expect("slot free again");
    assert_eq!(meta.step, 1);
}

/// Control-plane announcements reach the overlay: seals, attaches,
/// detaches, pause/resume, and close, countable by a monitoring stone.
#[test]
fn control_announcements_flow_to_the_overlay() {
    let overlay = Overlay::new("stream-control");
    let counts: Arc<[AtomicU64; 6]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
    let c = counts.clone();
    let stone = overlay.add_stone(Action::Terminal(Box::new(move |ev| {
        let ix = match ev.expect::<StreamControl>() {
            StreamControl::Sealed { .. } => 0,
            StreamControl::Attached { .. } => 1,
            StreamControl::Detached { .. } => 2,
            StreamControl::Paused => 3,
            StreamControl::Resumed => 4,
            _ => 5,
        };
        c[ix].fetch_add(1, Ordering::Relaxed);
    })));

    let eng = StreamEngine::builder(StreamConfig { writers: 1, retention: 8 })
        .control(overlay.sender(), stone)
        .build();
    let w = eng.writer(0);
    let r = eng.reader("viz", Attach::Oldest, None).unwrap();
    w.try_write(frag(0, 0)).unwrap();
    w.try_write(frag(1, 0)).unwrap();
    let w2 = w.clone();
    let pauser = std::thread::spawn(move || w2.pause());
    // Drain the two sealed steps through the cursor while the pause
    // holds the gate.
    assert_eq!(r.next_step().unwrap().index, 0);
    assert_eq!(r.next_step().unwrap().index, 1);
    let drained = pauser.join().unwrap().expect("drain completes");
    assert!(drained <= 2, "pause reports the backlog at engage time");
    w.resume();
    drop(r);
    eng.close();
    overlay.flush();
    overlay.shutdown();

    assert_eq!(counts[0].load(Ordering::Relaxed), 2, "two seal announcements");
    assert_eq!(counts[1].load(Ordering::Relaxed), 1, "one attach");
    assert_eq!(counts[2].load(Ordering::Relaxed), 1, "one detach");
    assert_eq!(counts[3].load(Ordering::Relaxed), 1, "one pause");
    assert_eq!(counts[4].load(Ordering::Relaxed), 1, "one resume");
    assert!(counts[5].load(Ordering::Relaxed) >= 1, "the close announces");
}

/// Per-step attributes merge across the writer group and reach every
/// reader — the provenance surface for steps that later go to disk.
#[test]
fn merged_attributes_reach_all_readers() {
    let eng = StreamEngine::new(StreamConfig { writers: 2, retention: 4 });
    let w0 = eng.writer(0);
    let w1 = eng.writer(1);
    let readers: Vec<_> = ["viz", "analytics", "archival"]
        .iter()
        .map(|name| eng.reader(*name, Attach::Oldest, None).unwrap())
        .collect();

    let mut a = StepData::new(0);
    a.set_attr("temperature", AttrValue::Float(0.7));
    let mut b = StepData::new(0);
    b.set_attr("strain", AttrValue::Float(0.01));
    w0.try_write(a).unwrap();
    w1.try_write(b).unwrap();

    for r in &readers {
        let step = r.try_next_step().unwrap();
        let attrs: BTreeMap<&str, &AttrValue> =
            step.attrs.iter().map(|(k, v)| (k.as_str(), v)).collect();
        assert_eq!(attrs.get("temperature"), Some(&&AttrValue::Float(0.7)));
        assert_eq!(attrs.get("strain"), Some(&&AttrValue::Float(0.01)));
    }
}

/// Timeout pulls on a manual clock advance virtual time instead of
/// sleeping: an hour of waiting costs nothing real.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "measuring that a virtual wait takes no real time"
)]
fn virtual_timeouts_never_sleep() {
    let clock = Arc::new(ManualClock::new());
    let eng = StreamEngine::builder(StreamConfig { writers: 1, retention: 4 })
        .clock(clock.clone())
        .build();
    let _w = eng.writer(0);
    let r = eng.reader("viz", Attach::Oldest, None).unwrap();
    // This real-time measurement is the test's whole point: proving the
    // hour-long virtual wait costs nothing on the wall.
    let t0 = std::time::Instant::now();
    assert!(r.next_step_timeout(Duration::from_secs(3600)).is_none());
    assert_eq!(clock.now(), SimTime::from_secs(3600));
    assert!(t0.elapsed() < Duration::from_secs(5), "the hour was virtual");
}
