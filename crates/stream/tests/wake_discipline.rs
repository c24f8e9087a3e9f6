//! The engine's wake discipline under real threads: announcements reach
//! the control stone in lock order although they are submitted outside
//! the lock, and no wake-up is lost to the low-water mark or to the
//! waiter counts at any retention.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use adios::{AttrValue, StepData};
use datatap::ManualClock;
use evpath::{Action, Overlay};
use stream::{Attach, StreamConfig, StreamControl, StreamEngine};

const RANKS: u32 = 4;

fn frag(step: u64, rank: u32) -> StepData {
    let mut s = StepData::new(step);
    s.set_attr("rank", AttrValue::Int(rank as i64));
    s
}

/// One thread per rank, each writing `steps` fragments through the
/// blocking path; the last handle to drop closes the engine.
///
/// Every rank's handle exists before any thread starts. Staging is not
/// bounded, so a rank spawned alone could stage all its fragments and
/// drop its handle — the group's last — before the next rank's handle
/// was made, closing the stream under the others.
fn spawn_writers(eng: &StreamEngine, steps: u64) -> Vec<thread::JoinHandle<()>> {
    let writers: Vec<_> = (0..RANKS).map(|rank| eng.writer(rank)).collect();
    writers
        .into_iter()
        .map(|w| {
            let rank = w.rank();
            thread::spawn(move || {
                for step in 0..steps {
                    w.write(frag(step, rank)).expect("the stream stays open");
                }
            })
        })
        .collect()
}

/// Runs `body` on its own thread and fails the test, instead of hanging
/// it, if a lost wake-up leaves the threads parked.
fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = channel();
    let runner = thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(limit) {
        Err(RecvTimeoutError::Timeout) => panic!("threads still parked after {limit:?}"),
        // Done, or `body` panicked and dropped the sender: join reports which.
        _ => runner.join().unwrap(),
    }
}

/// Four writer threads race to seal 2,000 steps while a cursor crashes
/// and resumes. The terminal stone must see `Sealed` offsets strictly
/// increasing, one per sealed step, and every `Attached`/`Detached`
/// between the seals it happened between: a cursor at offset `at` has
/// `at` seals behind it and at most a retention's worth ahead.
#[test]
fn announcements_reach_the_stone_in_lock_order() {
    const STEPS: u64 = 2_000;
    const RETENTION: usize = 8;
    let overlay = Overlay::new("announce-order");
    let seen: Arc<Mutex<Vec<StreamControl>>> = Arc::default();
    let sink = seen.clone();
    let stone = overlay.add_stone(Action::Terminal(Box::new(move |ev| {
        sink.lock().unwrap().push(ev.expect::<StreamControl>().clone());
    })));
    let eng = StreamEngine::builder(StreamConfig { writers: RANKS, retention: RETENTION })
        .control(overlay.sender(), stone)
        .build();

    let cursor = eng.reader("sink", Attach::Oldest, None).unwrap();
    let reader_eng = eng.clone();
    let reader = thread::spawn(move || {
        let mut cursor = cursor;
        for offset in 0..STEPS {
            if offset % 500 == 250 {
                drop(cursor);
                cursor = reader_eng.reader("sink", Attach::Resume, None).unwrap();
            }
            assert_eq!(cursor.next_step().unwrap().offset, offset);
        }
        assert!(cursor.next_step().is_none(), "the last writer handle closed the stream");
    });
    for writer in spawn_writers(&eng, STEPS) {
        writer.join().unwrap();
    }
    reader.join().unwrap();
    overlay.flush();
    overlay.shutdown();

    let seen = seen.lock().unwrap();
    let (mut sealed, mut attached, mut detached) = (0u64, 0, 0);
    let between_its_seals = |at: u64, sealed: u64| at <= sealed && sealed <= at + RETENTION as u64;
    assert!(matches!(seen.first(), Some(StreamControl::Attached { at: 0, .. })), "attach first");
    for msg in seen.iter() {
        match msg {
            StreamControl::Sealed { step, offset } => {
                assert_eq!((*step, *offset), (sealed, sealed), "seal announced out of order");
                sealed += 1;
            }
            StreamControl::Attached { at, .. } => {
                assert!(between_its_seals(*at, sealed), "attach at {at} after {sealed} seals");
                attached += 1;
            }
            StreamControl::Detached { at, .. } => {
                assert!(between_its_seals(*at, sealed), "detach at {at} after {sealed} seals");
                detached += 1;
            }
            StreamControl::Closed => assert_eq!(sealed, STEPS, "closed before the last seal"),
            other => panic!("unexpected announcement {other:?}"),
        }
    }
    assert_eq!(sealed, eng.sealed_steps());
    assert_eq!(sealed, STEPS);
    // The first attach, four crash/resume pairs, and the final drop.
    assert_eq!((attached, detached), (5, 5));
    assert!(matches!(seen.last(), Some(StreamControl::Detached { at: STEPS, .. })));
}

/// Four writer threads against three cursors on two reader threads, at
/// retentions where the low-water mark is zero, one, and half a window.
/// One thread serves `viz` step-wise; the other serves `tail`
/// fragment-wise and `restart`, which it keeps dropping and resuming — so
/// it parks on one cursor while the writers wait for the other. Every
/// cursor must see every offset exactly once, and nobody may stay parked.
/// The clock stands still, so no reader ever looks slow and only the mark
/// and the park-safety rule wake a gate-parked writer.
#[test]
fn no_wake_up_is_lost_at_any_retention() {
    const STEPS: u64 = 20_000;
    for retention in [1usize, 2, 3, 8] {
        within(Duration::from_secs(120), move || {
            let eng = StreamEngine::builder(StreamConfig { writers: RANKS, retention })
                .clock(Arc::new(ManualClock::new()))
                .build();
            let viz = eng.reader("viz", Attach::Oldest, None).unwrap();
            let tail = eng.reader("tail", Attach::Oldest, None).unwrap();
            let restart = eng.reader("restart", Attach::Oldest, None).unwrap();

            let step_wise = thread::spawn(move || {
                for offset in 0..STEPS {
                    assert_eq!(viz.next_step().unwrap().offset, offset);
                }
                assert!(viz.next_step().is_none());
            });
            // A detached cursor pins the log, so it may stay away for
            // fewer steps than the log retains.
            let away = (retention as u64 - 1).min(3);
            let reader_eng = eng.clone();
            let two_cursors = thread::spawn(move || {
                let mut restart = Some(restart);
                let mut resumed = 0u64;
                for offset in 0..STEPS {
                    for rank in 0..RANKS {
                        let (meta, _) = tail.pull().unwrap();
                        assert_eq!((meta.step, meta.writer), (offset, rank));
                    }
                    if offset % 97 == 0 {
                        restart = None;
                    }
                    if offset % 97 == away {
                        restart = Some(reader_eng.reader("restart", Attach::Resume, None).unwrap());
                    }
                    if let Some(cursor) = &restart {
                        while resumed <= offset {
                            assert_eq!(cursor.next_step().unwrap().offset, resumed);
                            resumed += 1;
                        }
                    }
                }
                assert!(tail.pull().is_none());
            });
            for writer in spawn_writers(&eng, STEPS) {
                writer.join().unwrap();
            }
            step_wise.join().unwrap();
            two_cursors.join().unwrap();
            assert_eq!(eng.sealed_steps(), STEPS);
        });
    }
}
