//! Fan-out streaming: one MD writer group feeding three pipelines at
//! once over the step-streaming engine.
//!
//! A two-rank writer group (a live [`mdsim::MdEngine`] split into rank
//! chunks) seals global steps into the stream log. Three named cursors
//! consume it concurrently:
//!
//! * **viz** renders every step as it seals (here: a density readout);
//! * **analytics** crashes mid-stream and rejoins with `Attach::Resume`,
//!   observing every step exactly once — the parked cursor held its
//!   place, backpressuring the writers instead of losing steps;
//! * **archival** writes every fragment to a BP container file, which a
//!   [`stream::FileSource`] then replays to prove file/stream parity.
//!
//! A fourth reader attaches with `Attach::Current` mid-run and sees only
//! the tail. Control announcements (seals, attaches, detaches) flow to an
//! EVPath overlay, as a container manager would observe them.
//!
//! ```text
//! cargo run --release --example stream_fanout
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adios::{AttrValue, BpFileWriter};
use evpath::{Action, Overlay};
use iocontainers::codec;
use mdsim::{MdConfig, MdEngine};
use smartpointer::split_snapshot;
use stream::{
    Attach, FileSource, StepSource, StreamConfig, StreamControl, StreamEngine,
};

const STEPS: u64 = 10;
const RANKS: u32 = 2;

#[expect(
    clippy::disallowed_methods,
    reason = "the writer group and its readers are real threads, as in an application"
)]
fn main() {
    // Control plane: count seal/attach/detach announcements on an overlay.
    let overlay = Overlay::new("stream-manager");
    let sealed = Arc::new(AtomicU64::new(0));
    let attached = Arc::new(AtomicU64::new(0));
    let detached = Arc::new(AtomicU64::new(0));
    let (s, a, d) = (sealed.clone(), attached.clone(), detached.clone());
    let stone = overlay.add_stone(Action::Terminal(Box::new(move |ev| {
        match ev.expect::<StreamControl>() {
            StreamControl::Sealed { .. } => s.fetch_add(1, Ordering::Relaxed),
            StreamControl::Attached { .. } => a.fetch_add(1, Ordering::Relaxed),
            StreamControl::Detached { .. } => d.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    })));

    let eng = StreamEngine::builder(StreamConfig { writers: RANKS, retention: 4 })
        .control(overlay.sender(), stone)
        .build();

    let archive_dir =
        std::env::temp_dir().join(format!("ioc-stream-fanout-{}", std::process::id()));
    std::fs::create_dir_all(&archive_dir).expect("temp dir is writable");
    let archive_path = archive_dir.join("stream-archive.bp");

    println!(
        "streaming {STEPS} steps from a {RANKS}-rank writer group to 3 concurrent readers..."
    );

    let mut live_archive: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        // --- Writer group: the MD application, split into rank chunks. ---
        let writers: Vec<_> = (0..RANKS).map(|rank| eng.writer(rank)).collect();
        scope.spawn({
            let writers = writers;
            move || {
                let mut md = MdEngine::new(MdConfig::default());
                for _ in 0..STEPS {
                    let snap = md.run_epoch(2);
                    for (rank, chunk) in
                        split_snapshot(&snap, RANKS as usize).into_iter().enumerate()
                    {
                        let mut step = codec::snapshot_to_step(&chunk);
                        step.set_attr("rank", AttrValue::Int(rank as i64));
                        writers[rank].write(step).expect("stream accepts the fragment");
                    }
                }
                // Writers drop here: the engine closes and readers drain.
            }
        });

        // --- viz: consumes whole sealed steps as they arrive. ------------
        let viz = eng.reader("viz", Attach::Oldest, None).expect("fresh cursor");
        let viz_thread = scope.spawn(move || {
            let mut seen = Vec::new();
            while let Some(step) = viz.next_step() {
                assert_eq!(step.fragments.len(), RANKS as usize);
                seen.push(step.index);
            }
            seen
        });

        // --- analytics: crashes after 3 steps, rejoins, loses nothing. ---
        let analytics_thread = scope.spawn(|| {
            let mut seen = Vec::new();
            let r = eng.reader("analytics", Attach::Oldest, None).expect("fresh cursor");
            for _ in 0..3 {
                if let Some(step) = r.next_step() {
                    seen.push(step.index);
                }
            }
            drop(r); // the analytics pipeline dies mid-stream...
            // ...and restarts: Resume picks up the durable cursor.
            let r = eng.reader("analytics", Attach::Resume, None).expect("cursor is parked");
            while let Some(step) = r.next_step() {
                seen.push(step.index);
            }
            seen
        });

        // --- archival: streams every fragment into a BP container. -------
        let archival = eng.reader("archival", Attach::Oldest, None).expect("fresh cursor");
        let archive_path2 = archive_path.clone();
        let archival_thread = scope.spawn(move || {
            let mut bp = BpFileWriter::create(&archive_path2).expect("archive is writable");
            let mut steps = Vec::new();
            while let Some((_, frag)) = archival.pull() {
                steps.push(frag.step());
                bp.append("atoms", &frag).expect("append succeeds");
            }
            bp.finalize().expect("finalize succeeds");
            steps
        });

        // --- late joiner: attaches mid-run, sees only the tail. ----------
        let late_thread = scope.spawn(|| {
            // Give the writer group a head start so some steps are history.
            loop {
                if eng.sealed_steps() >= 3 {
                    break;
                }
                std::thread::yield_now();
            }
            let r = eng.reader("late-viz", Attach::Current, None).expect("fresh cursor");
            let first_visible = eng.sealed_steps();
            let mut seen = Vec::new();
            while let Some(step) = r.next_step() {
                seen.push(step.index);
            }
            (first_visible, seen)
        });

        let viz_seen = viz_thread.join().expect("viz thread");
        let analytics_seen = analytics_thread.join().expect("analytics thread");
        live_archive = archival_thread.join().expect("archival thread");
        let (late_start, late_seen) = late_thread.join().expect("late thread");

        assert_eq!(viz_seen.len() as u64, STEPS, "viz saw every step");
        assert_eq!(viz_seen, analytics_seen, "restart cost analytics nothing: no dup, no loss");
        assert!(
            late_seen.len() as u64 <= STEPS - late_start,
            "the late joiner skipped the history before its attach"
        );
        println!(
            "viz consumed {} steps; analytics restarted mid-stream and still saw all {}; \
             late joiner saw the {}-step tail",
            viz_seen.len(),
            analytics_seen.len(),
            late_seen.len()
        );
    });

    // --- File/stream parity: replay the archive through StepSource. ------
    let mut replay = FileSource::open(&archive_path).expect("archive is readable");
    let mut replayed = Vec::new();
    while let Some(frag) = replay.next_step().expect("archive replays cleanly") {
        assert!(frag.attr("rank").is_some(), "provenance attrs survived the file trip");
        replayed.push(frag.step());
    }
    assert_eq!(replayed, live_archive, "offline replay matches the live stream exactly");
    println!(
        "archive replay: {} fragments match the live sequence bit for bit",
        replayed.len()
    );

    overlay.flush();
    overlay.shutdown();
    assert_eq!(sealed.load(Ordering::Relaxed), STEPS, "every step announced its seal");
    assert!(attached.load(Ordering::Relaxed) >= 5, "attach announcements flowed");
    assert!(detached.load(Ordering::Relaxed) >= 1, "the crash announced its detach");
    println!(
        "control plane observed {} seals, {} attaches, {} detaches",
        sealed.load(Ordering::Relaxed),
        attached.load(Ordering::Relaxed),
        detached.load(Ordering::Relaxed)
    );

    std::fs::remove_dir_all(&archive_dir).ok();
    println!("\nstream fan-out complete: N={RANKS} writers, M=4 cursors, zero steps lost");
}
