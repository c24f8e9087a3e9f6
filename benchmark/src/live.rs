//! `live_managed`: the paper's Fig. 7 situation on real threads.
//!
//! One round is one `run_threaded` call: a live fracture MD feeds 4 ranks
//! into Helper → O(n²) Bonds → CSym, the manager grows Bonds when its queue
//! backs up, and CSym retires to CNA once the crack shows in the data. The
//! benchmark contributes the calling thread only; the program spawns the
//! rest (about ten threads on however many cores there are).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use datatap::channel;
use iocontainers::{codec, run_threaded, ThreadedAction, ThreadedConfig};
use mdsim::{MdConfig, MdEngine};
use smartpointer::{split_snapshot, AggregationTree};
use stream::{Attach, StreamConfig, StreamEngine};

use crate::trace::Tracer;
use crate::util::{SchedUse, Summary};
use crate::workload::{Budget, Checker, Outcome};

pub struct LiveInput {
    cfg: ThreadedConfig,
    /// Atoms the generated crystal holds, checked against the config in
    /// set-up by building it once.
    atoms: usize,
}

pub fn setup(seed: u64, small: bool) -> LiveInput {
    let (cells, steps) = if small { (5, 20) } else { (10, 40) };
    let md = MdConfig {
        cells: (cells, cells, cells),
        seed,
        // One MD step per output step; the notch yields at mid-run.
        strain_per_step: MdConfig::default().yield_strain / (steps / 2) as f64,
        ..MdConfig::fracture()
    };
    // The crystal is the workload's input: build it once here so a config
    // the engine cannot realise fails in set-up, not in the timed region.
    let atoms = MdEngine::new(md.clone()).system().len();
    assert_eq!(
        atoms,
        md.atom_count(),
        "generated crystal has the configured size"
    );
    let cfg = ThreadedConfig {
        md,
        steps,
        md_steps_per_epoch: 1,
        ranks: 4,
        bonds_use_n2: true,
        manage: true,
        ..ThreadedConfig::default()
    };
    LiveInput { cfg, atoms }
}

impl LiveInput {
    pub fn atoms(&self) -> usize {
        self.atoms
    }

    pub fn steps(&self) -> u64 {
        self.cfg.steps
    }
}

/// The same pipeline, one call after another on this thread: the
/// single-threaded baseline, and the place where each layer's self time
/// under this workload's data can be read from spans. Returns steps/s.
fn serial_replay(input: &LiveInput, tr: &mut Tracer, check: &mut Checker) -> f64 {
    let cfg = &input.cfg;
    let tree = AggregationTree::new(cfg.fan_in.max(2));
    let (w_chunks, r_chunks) = channel(cfg.queue_capacity * cfg.ranks);
    let bonds_stream = StreamEngine::new(StreamConfig {
        writers: 1,
        retention: cfg.queue_capacity,
    });
    let w_bonds = bonds_stream.writer(0);
    let r_bonds = bonds_stream
        .reader("bonds", Attach::Oldest, None)
        .expect("fresh cursor");
    let (w_routed, r_routed) = channel(cfg.queue_capacity);
    let mut cracked = false;

    let t0 = Instant::now();
    let mut md = tr.span("mdsim.engine_new", 0, |_| MdEngine::new(cfg.md.clone()));
    for step in 0..cfg.steps {
        // One parent span per output step; its self time is this function's
        // own glue.
        tr.span("bench.step", step, |tr| {
            let snap = tr.span("mdsim.run_epoch", step, |_| {
                md.run_epoch(cfg.md_steps_per_epoch)
            });
            let chunks = tr.span("smartpointer.split_snapshot", step, |_| {
                split_snapshot(&snap, cfg.ranks)
            });
            for chunk in &chunks {
                let encoded = tr.span("iocontainers.codec_encode", step, |_| {
                    codec::snapshot_to_step(chunk)
                });
                let wrote = tr.span("datatap.write", step, |_| w_chunks.try_write(encoded));
                check.op(wrote.is_ok(), || {
                    format!("serial replay: chunk write at step {step}")
                });
            }
            let mut pending = Vec::with_capacity(cfg.ranks);
            for _ in 0..cfg.ranks {
                let pulled = tr.span("datatap.pull", step, |_| r_chunks.try_pull());
                let decoded = pulled.and_then(|(_, data)| {
                    tr.span("iocontainers.codec_decode", step, |_| {
                        codec::step_to_snapshot(&data)
                    })
                });
                pending.extend(decoded);
            }
            let merged = tr.span("smartpointer.aggregate", step, |_| tree.aggregate(pending));
            let encoded = tr.span("iocontainers.codec_encode", step, |_| {
                codec::snapshot_to_step(&merged)
            });
            let wrote = tr.span("stream.write", step, |_| w_bonds.try_write(encoded));
            let pulled = tr.span("stream.pull", step, |_| {
                r_bonds.pull_timeout(Duration::ZERO)
            });
            let snap = pulled.and_then(|(_, data)| {
                tr.span("iocontainers.codec_decode", step, |_| {
                    codec::step_to_snapshot(&data)
                })
            });
            let Some(snap) = snap.filter(|_| wrote.is_ok()) else {
                check.op(false, || {
                    format!("serial replay: step {step} lost before Bonds")
                });
                return;
            };
            let bonds = tr.span("smartpointer.bonds_n2", step, |_| {
                cfg.bonds.compute_n2(&snap)
            });
            let encoded = tr.span("iocontainers.codec_encode", step, |_| {
                codec::bonds_to_step(&bonds)
            });
            let wrote = tr.span("datatap.write", step, |_| w_routed.try_write(encoded));
            let routed = tr
                .span("datatap.pull", step, |_| r_routed.try_pull())
                .and_then(|(_, data)| {
                    tr.span("iocontainers.codec_decode", step, |_| {
                        codec::step_to_bonds(&data)
                    })
                });
            let Some(routed) = routed.filter(|_| wrote.is_ok()) else {
                check.op(false, || {
                    format!("serial replay: step {step} lost after Bonds")
                });
                return;
            };
            let labelled = if cracked {
                tr.span("smartpointer.cna", step, |_| cfg.cna.compute(&routed))
                    .step
            } else {
                let out = tr.span("smartpointer.csym", step, |_| cfg.csym.compute(&routed));
                cracked = out.break_detected;
                out.step
            };
            check.op(labelled == step, || {
                format!("serial replay: step {step} labelled {labelled}")
            });
        });
    }
    let rate = cfg.steps as f64 / t0.elapsed().as_secs_f64();
    check.op(cracked, || {
        "serial replay: the crack was not detected".into()
    });
    rate
}

pub fn run(input: &LiveInput, budget: Budget, tr: &mut Tracer) -> Outcome {
    let mut check = Checker::default();
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut rates, mut latencies_ms, mut wall_s) = (Vec::new(), Vec::new(), 0.0);
    let mut stage_ms = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut stranded_steps = Vec::new();
    let steps = input.cfg.steps;
    let started = Instant::now();

    let ((), sched) = SchedUse::around(|| {
        while budget.more(started, rates.len()) {
            let round = rates.len() as u64;
            let cfg = input.cfg.clone();
            let t0 = Instant::now();
            let report = tr.span("iocontainers.run_threaded", round, |_| run_threaded(cfg));
            let wall = t0.elapsed().as_secs_f64();
            wall_s += wall;
            rates.push(steps as f64 / wall);

            // One operation per step and stage; CSym and CNA share the
            // last stage (CSym retires at the branch, CNA takes over).
            let [helper, bonds, csym, cna] = report.stage_steps;
            for (name, done) in [("Helper", helper), ("Bonds", bonds)] {
                check.ops(done.min(steps), true, String::new);
                check.ops(steps.saturating_sub(done), false, || {
                    format!("{name} completed {done} of {steps} steps")
                });
            }
            // The branch hand-over can strand steps: whatever the router
            // queued for CSym before the crack flag rose is never analysed
            // once CSym retires (finding recorded in the README). The
            // channel bounds that at `queue_capacity` steps, so those are
            // counted (`branch_stranded_steps`), not failed; anything
            // beyond the bound, or analysed twice, is a failure.
            let analysed = csym + cna;
            let stranded = steps.saturating_sub(analysed);
            let tolerated = input.cfg.queue_capacity as u64;
            check.ops(analysed.min(steps), true, String::new);
            check.ops(
                stranded.saturating_sub(tolerated) + analysed.saturating_sub(steps),
                false,
                || format!("CSym+CNA analysed {analysed} of {steps} steps"),
            );
            stranded_steps.push(stranded as f64);
            check.op(report.errors.is_empty(), || {
                format!("errors: {:?}", report.errors)
            });
            check.op(report.crack_detected_at.is_some(), || {
                "the crack was not detected".into()
            });

            let mut pipeline_ms = 0.0;
            for (stage, &mean_s) in report.mean_latency_s.iter().enumerate() {
                if report.stage_steps[stage] > 0 {
                    pipeline_ms += mean_s * 1e3;
                    stage_ms[stage].push(mean_s * 1e3);
                }
            }
            latencies_ms.push(pipeline_ms);
            let managed = report
                .actions
                .iter()
                .filter(|a| !matches!(a, ThreadedAction::Branch { .. }))
                .count();
            layer.insert("iocontainers.threaded.actions", managed as f64);
            layer.insert(
                "iocontainers.threaded.monitor_events",
                report.monitor_events as f64,
            );
            layer.insert("evpath.events_delivered", report.monitor_events as f64);
        }
    });

    const STAGES: [&str; 4] = [
        "iocontainers.threaded.stage_latency_ms.helper",
        "iocontainers.threaded.stage_latency_ms.bonds",
        "iocontainers.threaded.stage_latency_ms.csym",
        "iocontainers.threaded.stage_latency_ms.cna",
    ];
    for (name, samples) in STAGES.into_iter().zip(&stage_ms) {
        layer.insert(name, Summary::of(samples).p50);
    }
    layer.insert(
        "iocontainers.threaded.branch_stranded_steps",
        stranded_steps.iter().sum::<f64>() / stranded_steps.len().max(1) as f64,
    );
    if tr.is_on() {
        let rate = serial_replay(input, tr, &mut check);
        layer.insert("live.serial_steps_per_s", rate);
    }

    let latency = Summary::of(&latencies_ms);
    Outcome {
        check,
        wall_s,
        work_per_s: Summary::of(&rates),
        latency_ms: latency.p10,
        // Fewer than ten runs fit in one benchmark run, so this p90 is
        // interpolated between the two slowest runs (see the README).
        latency_ms_p90: latency.p90,
        latency,
        layer,
        sched,
    }
}
