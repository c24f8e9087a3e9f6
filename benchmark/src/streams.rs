//! The two stream workloads: `stream_fanout` and `stream_archive`.
//!
//! Both drive one `StreamEngine` per round with N = 4 writer ranks from a
//! single writer thread and serve every cursor from a single reader
//! thread — a closed loop: the writer blocks on the retention gate
//! whenever the reader falls 8 steps behind. `stream_fanout` moves 1 KiB
//! fragments to three cursors, so lock/condvar/seal/cursor bookkeeping is
//! all there is; `stream_archive` moves 256 KiB fragments to one cursor
//! that BP-encodes them, then decodes the archive again, so the codec is.
//!
//! The last `StepWriter` drop closes the engine, which is what ends the
//! reader's loop; the reader checks that it then sees `None`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use adios::{bp, AttrValue, DataType, Dims, StepData, Value};
use bytes::Bytes;
use evpath::{Action, Overlay};
use stream::{Attach, StepWriter, StreamConfig, StreamControl, StreamEngine, StreamReader};

use crate::trace::Tracer;
use crate::util::{median, pin_to_cpu, Rng, SchedUse, Summary};
use crate::workload::{Budget, Checker, Outcome};

pub const RANKS: u32 = 4;
const RETENTION: usize = 8;
/// Steps the `analytics` cursor stays detached after its seeded crash:
/// fewer than the retention, or the parked cursor would wedge the writer.
const DETACHED_STEPS: u64 = 4;
/// Generator stamps live in a ring; at most `RETENTION + 1` steps are in
/// flight, so any power of two above that works.
const STAMP_RING: usize = 64;

pub struct StreamInput {
    /// `pool[rank][i]`: pre-generated payloads, handed out as step
    /// `k` → `pool[rank][k % len]`. Clones share the bytes.
    pool: Vec<Vec<Value>>,
    frag_bytes: usize,
    steps_per_round: u64,
    /// Step at which `stream_fanout`'s analytics cursor crashes.
    crash_at: u64,
    /// The traced run wraps the calls of every `span_every`-th step in
    /// spans. `stream_fanout` makes ten calls of a few µs per step; timing
    /// each one slowed the run by 5–17 %, every fourth by about 2 %.
    span_every: u64,
}

fn pool(rng: &mut Rng, per_rank: usize, frag_bytes: usize) -> Vec<Vec<Value>> {
    (0..RANKS)
        .map(|_| {
            (0..per_rank)
                .map(|_| {
                    let mut buf = vec![0u8; frag_bytes];
                    rng.fill(&mut buf);
                    Value::from_bytes(
                        DataType::U8,
                        Dims::local1d(frag_bytes as u64),
                        Bytes::from(buf),
                    )
                    .expect("length matches dims")
                })
                .collect()
        })
        .collect()
}

pub fn fanout_setup(seed: u64, small: bool) -> StreamInput {
    let mut rng = Rng(seed ^ 0xFA00);
    let steps_per_round = if small { 1_000 } else { 10_000 };
    // The crash lands in the middle half of the round.
    let crash_at = steps_per_round / 4 + rng.below(steps_per_round / 2);
    StreamInput {
        pool: pool(&mut rng, 64, 1024),
        frag_bytes: 1024,
        steps_per_round,
        crash_at,
        span_every: 4,
    }
}

pub fn archive_setup(seed: u64, small: bool) -> StreamInput {
    let mut rng = Rng(seed ^ 0xA4C0);
    StreamInput {
        pool: pool(&mut rng, 16, 256 * 1024),
        frag_bytes: 256 * 1024,
        steps_per_round: if small { 4 } else { 32 },
        crash_at: 0,
        span_every: 1,
    }
}

impl StreamInput {
    fn payload(&self, rank: u32, step: u64) -> &Value {
        let row = &self.pool[rank as usize];
        &row[step as usize % row.len()]
    }

    fn sampled(&self, step: u64) -> bool {
        step.is_multiple_of(self.span_every)
    }

    fn fragment(&self, rank: u32, step: u64) -> StepData {
        let mut frag = StepData::new(step);
        frag.write_unchecked("payload", self.payload(rank, step).clone());
        frag.set_attr("rank", AttrValue::Int(rank as i64));
        frag
    }
}

/// What one round's threads hand back.
struct WriterSide {
    tracer: Tracer,
    wall_ns: u64,
    sched: SchedUse,
}

struct ReaderSide {
    tracer: Tracer,
    wall_ns: u64,
    sched: SchedUse,
    latencies_us: Vec<f64>,
    lost: u64,
    duplicated: u64,
    resume_attach_us: f64,
    /// Encoded archive (stream_archive only).
    archive: Vec<Bytes>,
}

/// The writer thread: stamps each step, writes its four fragments, and
/// closes the engine by dropping the writers.
fn write_all(
    input: &StreamInput,
    writers: Vec<StepWriter>,
    stamps: &[AtomicU64],
    epoch: Instant,
    mut tr: Tracer,
    check_tx: &mut Checker,
) -> WriterSide {
    let started = Instant::now();
    let ((), sched) = SchedUse::around(|| {
        for step in 0..input.steps_per_round {
            stamps[step as usize % STAMP_RING]
                .store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
            let sampled = input.sampled(step);
            let wrote = tr.span_if(sampled, "bench.write_step", step, |tr| {
                for (rank, writer) in writers.iter().enumerate() {
                    let frag = input.fragment(rank as u32, step);
                    tr.span_if(sampled, "stream.write", step, |_| writer.write(frag))
                        .map_err(|e| format!("write of step {step} rank {rank}: {e}"))?;
                }
                Ok::<(), String>(())
            });
            if let Err(why) = wrote {
                check_tx.op(false, || why);
                return;
            }
        }
        drop(writers);
    });
    WriterSide {
        tracer: tr,
        wall_ns: started.elapsed().as_nanos() as u64,
        sched,
    }
}

/// Tracks one cursor's view of the step sequence.
#[derive(Default)]
struct Sequence {
    next: u64,
    lost: u64,
    duplicated: u64,
}

impl Sequence {
    /// Records that the cursor delivered `got`; true when it is exactly
    /// the next step.
    fn deliver(&mut self, got: u64) -> bool {
        let ok = got == self.next;
        if got > self.next {
            self.lost += got - self.next;
        } else if got < self.next {
            self.duplicated += 1;
        }
        self.next = self.next.max(got + 1);
        ok
    }
}

fn latency_us(stamps: &[AtomicU64], epoch: Instant, step: u64) -> f64 {
    let stamped = stamps[step as usize % STAMP_RING].load(Ordering::Acquire);
    (epoch.elapsed().as_nanos() as u64).saturating_sub(stamped) as f64 / 1e3
}

/// Closes the engine when the reader leaves, however it leaves: if it
/// panics on a broken cursor, the writer must not stay parked on the
/// retention gate and hang the scope. Closing a closed engine is a no-op.
struct CloseOnExit<'a>(&'a StreamEngine);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

// ------------------------------------------------------------ stream_fanout

struct ControlCounts {
    sealed: AtomicU64,
    attached: AtomicU64,
    detached: AtomicU64,
}

fn fanout_read(
    input: &StreamInput,
    eng: &StreamEngine,
    cursors: Vec<StreamReader>,
    stamps: &[AtomicU64],
    epoch: Instant,
    mut tr: Tracer,
    check: &mut Checker,
) -> ReaderSide {
    let started = Instant::now();
    let steps = input.steps_per_round;
    let mut latencies_us = Vec::with_capacity(steps as usize);
    let (mut viz_seq, mut ana_seq, mut tail_seq) = (
        Sequence::default(),
        Sequence::default(),
        Sequence::default(),
    );
    let mut resume_attach_us = 0.0;

    let _close = CloseOnExit(eng);
    let [viz, analytics, tail]: [StreamReader; 3] =
        cursors.try_into().expect("fan-out serves three cursors");
    let mut analytics = Some(analytics);

    let ((), sched) = SchedUse::around(|| {
        for step in 0..steps {
            let sampled = input.sampled(step);
            tr.span_if(sampled, "bench.read_step", step, |tr| {
                let got = tr.span_if(sampled, "stream.next_step", step, |_| viz.next_step());
                let ok = got.as_ref().is_some_and(|s| {
                    viz_seq.deliver(s.index) && s.fragments.len() == RANKS as usize
                });
                check.op(ok, || {
                    format!("viz at step {step}: {:?}", got.as_ref().map(|s| s.index))
                });

                let mut tail_ok = true;
                let mut tail_step = None;
                for rank in 0..RANKS {
                    let got = tr.span_if(sampled, "stream.pull", step, |_| tail.pull());
                    tail_ok &= got.as_ref().is_some_and(|(meta, frag)| {
                        meta.writer == rank && meta.step == step && frag.step() == step
                    });
                    tail_step = got.map(|(meta, _)| meta.step);
                }
                tail_ok &= tail_step.is_some_and(|s| tail_seq.deliver(s));
                check.op(tail_ok, || format!("tail at step {step}: {tail_step:?}"));

                // The analytics pipeline dies at its seeded step, stays down
                // for DETACHED_STEPS, then resumes its durable cursor and
                // catches up: every step exactly once.
                if step == input.crash_at {
                    analytics = None;
                }
                if step == input.crash_at + DETACHED_STEPS {
                    let t0 = Instant::now();
                    analytics = Some(tr.span("stream.resume_attach", step, |_| {
                        eng.reader("analytics", Attach::Resume, None)
                            .expect("cursor is parked")
                    }));
                    resume_attach_us = t0.elapsed().as_nanos() as f64 / 1e3;
                }
                if let Some(reader) = &analytics {
                    while ana_seq.next <= step {
                        let want = ana_seq.next;
                        let got = tr.span_if(input.sampled(want), "stream.next_step", want, |_| {
                            reader.next_step()
                        });
                        let ok = got.as_ref().is_some_and(|s| ana_seq.deliver(s.index));
                        check.op(ok, || format!("analytics wanted {want}"));
                        if !ok {
                            ana_seq.next = want + 1;
                        }
                        latencies_us.push(latency_us(stamps, epoch, want));
                    }
                }
            });
        }
        // The writers dropped: every cursor must now report end of stream.
        let ended = viz.next_step().is_none() && tail.pull().is_none();
        check.op(ended, || {
            "cursors did not end after the last writer dropped".into()
        });
    });

    ReaderSide {
        tracer: tr,
        wall_ns: started.elapsed().as_nanos() as u64,
        sched,
        latencies_us,
        lost: viz_seq.lost + ana_seq.lost + tail_seq.lost,
        duplicated: viz_seq.duplicated + ana_seq.duplicated + tail_seq.duplicated,
        resume_attach_us,
        archive: Vec::new(),
    }
}

// ----------------------------------------------------------- stream_archive

fn archive_read(
    input: &StreamInput,
    eng: &StreamEngine,
    cursors: Vec<StreamReader>,
    stamps: &[AtomicU64],
    epoch: Instant,
    mut tr: Tracer,
    check: &mut Checker,
) -> ReaderSide {
    let started = Instant::now();
    let steps = input.steps_per_round;
    let mut latencies_us = Vec::with_capacity(steps as usize);
    let mut archive = Vec::with_capacity((steps * RANKS as u64) as usize);
    let mut seq = Sequence::default();
    let _close = CloseOnExit(eng);
    let [archival]: [StreamReader; 1] = cursors.try_into().expect("the archive has one cursor");

    let ((), sched) = SchedUse::around(|| {
        while let Some((meta, frag)) = tr.span("stream.pull", seq.next, |_| archival.pull()) {
            if meta.writer == RANKS - 1 {
                latencies_us.push(latency_us(stamps, epoch, meta.step));
                let ok = seq.deliver(meta.step);
                check.op(ok, || {
                    format!("archival got step {} out of order", meta.step)
                });
            }
            let blob = tr.span("adios.bp_encode", meta.step, |_| bp::encode("atoms", &frag));
            archive.push(blob);
        }
        let complete = seq.next == steps;
        if !complete {
            seq.lost += steps - seq.next;
            check.ops(steps - seq.next, false, || {
                format!("stream ended at {}", seq.next)
            });
        }
    });

    ReaderSide {
        tracer: tr,
        wall_ns: started.elapsed().as_nanos() as u64,
        sched,
        latencies_us,
        lost: seq.lost,
        duplicated: seq.duplicated,
        resume_attach_us: 0.0,
        archive,
    }
}

/// Decodes the archive and checks bit-parity with the live sequence; one
/// operation per step.
fn replay(input: &StreamInput, archive: &[Bytes], tr: &mut Tracer, check: &mut Checker) {
    for (step, blobs) in archive.chunks(RANKS as usize).enumerate() {
        let step = step as u64;
        let mut ok = blobs.len() == RANKS as usize;
        for (rank, blob) in blobs.iter().enumerate() {
            let decoded = tr.span("adios.bp_decode", step, |_| bp::decode(blob.clone()));
            ok &= decoded.is_ok_and(|d| {
                d.group == "atoms"
                    && d.data.step() == step
                    && d.data.attr("rank") == Some(&AttrValue::Int(rank as i64))
                    && d.data.value("payload").is_some_and(|v| {
                        v.bytes().as_ref() == input.payload(rank as u32, step).bytes().as_ref()
                    })
            });
        }
        check.op(ok, || {
            format!("replay of step {step} differs from the live sequence")
        });
    }
}

// ------------------------------------------------------------------- rounds

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fanout,
    Archive,
}

pub fn run(kind: Kind, input: &StreamInput, budget: Budget, tr: &mut Tracer) -> Outcome {
    let mut check = Checker::default();
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut mb_rates, mut resume_us) = (Vec::new(), Vec::new());
    let mut sched = SchedUse::default();
    let (mut writer_ns, mut reader_ns) = (0u64, 0u64);
    let (mut lost, mut duplicated, mut wall_s) = (0u64, 0u64, 0.0);
    let steps = input.steps_per_round;
    let started = Instant::now();

    while budget.more(started, rates.len()) {
        let t0 = Instant::now();
        let counts = Arc::new(ControlCounts {
            sealed: AtomicU64::new(0),
            attached: AtomicU64::new(0),
            detached: AtomicU64::new(0),
        });
        // Control announcements go to a terminal stone, as a container
        // manager would observe them (fan-out only).
        let overlay = (kind == Kind::Fanout).then(|| Overlay::new("bench-stream"));
        let mut builder = StreamEngine::builder(StreamConfig {
            writers: RANKS,
            retention: RETENTION,
        });
        if let Some(overlay) = &overlay {
            let c = counts.clone();
            let stone = overlay.add_stone(Action::Terminal(Box::new(move |ev| {
                match ev.expect::<StreamControl>() {
                    StreamControl::Sealed { .. } => c.sealed.fetch_add(1, Ordering::Relaxed),
                    StreamControl::Attached { .. } => c.attached.fetch_add(1, Ordering::Relaxed),
                    StreamControl::Detached { .. } => c.detached.fetch_add(1, Ordering::Relaxed),
                    _ => 0,
                };
            })));
            builder = builder.control(overlay.sender(), stone);
        }
        let eng = builder.build();
        let writers: Vec<StepWriter> = (0..RANKS).map(|r| eng.writer(r)).collect();
        let stamps: Vec<AtomicU64> = (0..STAMP_RING).map(|_| AtomicU64::new(0)).collect();
        let epoch = Instant::now();
        let (writer_tr, reader_tr) = (tr.fork("writer"), tr.fork("reader"));
        let (mut writer_check, mut reader_check) = (Checker::default(), Checker::default());

        // Cursors attach before the writer thread exists, so no step can
        // seal (and truncate) ahead of them.
        let names: &[&str] = match kind {
            Kind::Fanout => &["viz", "analytics", "tail"],
            Kind::Archive => &["archival"],
        };
        let cursors: Vec<StreamReader> = names
            .iter()
            .map(|name| {
                eng.reader(*name, Attach::Oldest, None)
                    .expect("fresh cursor attaches")
            })
            .collect();
        let read = match kind {
            Kind::Fanout => fanout_read,
            Kind::Archive => archive_read,
        };

        let (w, r) = std::thread::scope(|scope| {
            // Writer on CPU 0, reader on CPU 1, every round. Left to the
            // scheduler the pair sometimes shares a core for seconds, where
            // a hand-off costs a context switch instead of waking an idle
            // vCPU: 3x the throughput, and a different workload.
            let writer = scope.spawn(|| {
                pin_to_cpu(0);
                write_all(input, writers, &stamps, epoch, writer_tr, &mut writer_check)
            });
            let reader = scope.spawn(|| {
                pin_to_cpu(1);
                read(
                    input,
                    &eng,
                    cursors,
                    &stamps,
                    epoch,
                    reader_tr,
                    &mut reader_check,
                )
            });
            (
                writer.join().expect("writer thread"),
                reader.join().expect("reader thread"),
            )
        });
        let live_s = t0.elapsed().as_secs_f64();

        let mut replay_tr = tr.fork("replay");
        let t1 = Instant::now();
        if kind == Kind::Archive {
            replay(input, &r.archive, &mut replay_tr, &mut reader_check);
        }
        let replay_s = t1.elapsed().as_secs_f64();
        let round_s = live_s + replay_s;

        if let Some(overlay) = overlay {
            overlay.flush();
            let sealed = counts.sealed.load(Ordering::Relaxed);
            reader_check.op(sealed == steps, || {
                format!("{sealed} seal announcements for {steps} steps")
            });
            layer.insert(
                "evpath.events_delivered",
                (sealed
                    + counts.attached.load(Ordering::Relaxed)
                    + counts.detached.load(Ordering::Relaxed)) as f64,
            );
            overlay.shutdown();
        }
        let sealed_steps = eng.sealed_steps();
        reader_check.op(sealed_steps == steps, || {
            format!("engine sealed {sealed_steps} of {steps}")
        });

        // Throughput counts a step once it reached every consumer: all
        // cursors live, and for the archive also the replay.
        rates.push(steps as f64 / round_s);
        wall_s += round_s;
        let lat = Summary::of(&r.latencies_us);
        p50s.push(lat.p50 / 1e3);
        p90s.push(lat.p90 / 1e3);
        if kind == Kind::Archive {
            let bytes_encoded: u64 = r.archive.iter().map(|b| b.len() as u64).sum();
            let payload = (steps * RANKS as u64 * input.frag_bytes as u64) as f64;
            mb_rates.push(2.0 * payload / 1e6 / round_s);
            layer.insert("adios.bytes_encoded", bytes_encoded as f64);
        } else {
            resume_us.push(r.resume_attach_us);
        }
        layer.insert("stream.sealed_steps", sealed_steps as f64);

        lost += r.lost;
        duplicated += r.duplicated;
        writer_ns += w.wall_ns;
        reader_ns += r.wall_ns;
        sched.add(w.sched);
        sched.add(r.sched);
        check.absorb(writer_check);
        check.absorb(reader_check);
        tr.merge(w.tracer);
        tr.merge(r.tracer);
        tr.merge(replay_tr);
    }

    layer.insert("stream.steps_lost", lost as f64);
    layer.insert("stream.steps_duplicated", duplicated as f64);
    if kind == Kind::Archive {
        layer.insert("adios.payload_mb_per_s", median(&mb_rates));
    } else {
        layer.insert("stream.resume_attach_us", median(&resume_us));
    }
    if tr.is_on() {
        let write = tr.total("stream.write");
        let next = tr.total("stream.next_step");
        let pull = tr.total("stream.pull");
        let per_call = |t: crate::trace::SpanTotal| t.total_ns as f64 / t.count.max(1) as f64;
        layer.insert("stream.write_ns_per_fragment", per_call(write));
        let reads = crate::trace::SpanTotal {
            count: next.count + pull.count,
            total_ns: next.total_ns + pull.total_ns,
            self_ns: 0,
        };
        layer.insert("stream.next_step_ns", per_call(reads));
        // Sampled spans stand for `span_every` times as many calls.
        let scale = input.span_every as f64;
        layer.insert(
            "stream.writer_blocked_share",
            scale * write.total_ns as f64 / writer_ns.max(1) as f64,
        );
        layer.insert(
            "stream.reader_blocked_share",
            scale * reads.total_ns as f64 / reader_ns.max(1) as f64,
        );
        if kind == Kind::Archive {
            let payload = input.frag_bytes as f64;
            let mb_per_s = |t: crate::trace::SpanTotal| {
                t.count as f64 * payload / 1e6 / (t.total_ns.max(1) as f64 / 1e9)
            };
            let (enc, dec) = (tr.total("adios.bp_encode"), tr.total("adios.bp_decode"));
            layer.insert("adios.bp_encode_mb_per_s", mb_per_s(enc));
            layer.insert("adios.bp_decode_mb_per_s", mb_per_s(dec));
            layer.insert(
                "adios.span_share",
                (enc.total_ns + dec.total_ns) as f64 / 1e9 / wall_s,
            );
        }
    }

    let latency = Summary::of(&p50s);
    Outcome {
        check,
        wall_s,
        work_per_s: Summary::of(&rates),
        latency_ms: latency.p10,
        latency_ms_p90: median(&p90s),
        latency,
        layer,
        sched,
    }
}
