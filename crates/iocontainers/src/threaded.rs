//! The threaded container runtime: real kernels on real data.
//!
//! Where [`crate::run_pipeline`] reproduces the paper's cluster-scale
//! figures on simulated time, this runtime executes the actual pipeline
//! end to end on OS threads: a live [`mdsim::MdEngine`] produces atom
//! snapshots; each container is a pool of worker threads fed through a
//! DataTap staged channel; data moves as ADIOS step records (via
//! [`crate::codec`]); per-stage latency flows to a global-manager EVPath
//! overlay; and a manager thread implements the round-robin *increase*
//! operation for Bonds when its staging queue backs up. The CSym → CNA
//! dynamic branch fires from the data itself: one analysis consumer owns
//! the single routed queue behind Bonds and runs CSym on each step until
//! CSym detects the crack, then CNA on every step after it — so no step
//! can be left behind in a retired stage's queue.
//!
//! The Helper → Bonds edge rides the step-streaming engine
//! ([`stream::StreamEngine`]) rather than a raw staged channel: Helper is
//! a one-rank writer group sealing merged steps into a bounded log, the
//! Bonds worker pool shares one named cursor (handle clones divide the
//! stream), and the manager's *decrease* operation uses the engine's
//! typed pause protocol — pause, drain through the cursor, retire a
//! replica, resume — with aborted drains surfacing as errors instead of
//! success-shaped counts.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use datatap::{channel, PauseAborted};
use evpath::{Action as EvAction, Event, Overlay};
use stream::{Attach, StreamConfig, StreamEngine, StreamReader};
use mdsim::{MdConfig, MdEngine};
use sim_core::stats::Welford;
use smartpointer::{split_snapshot, AggregationTree, Bonds, CSym, Cna};

use crate::codec;

/// Configuration of a threaded pipeline run.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// The MD workload.
    pub md: MdConfig,
    /// Output steps to produce.
    pub steps: u64,
    /// MD steps between outputs.
    pub md_steps_per_epoch: u64,
    /// Simulated writer ranks (Helper aggregates this many chunks/step).
    pub ranks: usize,
    /// Aggregation-tree fan-in.
    pub fan_in: usize,
    /// The Bonds kernel.
    pub bonds: Bonds,
    /// The CSym kernel.
    pub csym: CSym,
    /// The CNA kernel.
    pub cna: Cna,
    /// Staged-channel capacity in steps.
    pub queue_capacity: usize,
    /// Use the paper-faithful O(n²) Bonds kernel instead of the
    /// cell-list fast path (useful to stress the manager).
    pub bonds_use_n2: bool,
    /// Bonds round-robin workers at start.
    pub initial_bonds_workers: usize,
    /// Upper bound the manager may grow Bonds to.
    pub max_bonds_workers: usize,
    /// Enable the managing thread (increase-on-backlog).
    pub manage: bool,
    /// Enable the manager's decrease path: when the Bonds stream sits
    /// idle with more than one replica, pause the writer group, drain the
    /// log, retire a replica, and resume.
    pub decrease: bool,
    /// When the manager cannot grow Bonds further and the backlog
    /// persists, take Bonds offline and stage the remaining steps into a
    /// provenance-labeled BP container file in this directory.
    pub offline_dir: Option<PathBuf>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            md: MdConfig::default(),
            steps: 8,
            md_steps_per_epoch: 5,
            ranks: 4,
            fan_in: 2,
            bonds: Bonds::default(),
            csym: CSym::default(),
            cna: Cna::default(),
            queue_capacity: 4,
            bonds_use_n2: false,
            initial_bonds_workers: 1,
            max_bonds_workers: 4,
            manage: true,
            decrease: false,
            offline_dir: None,
        }
    }
}

impl ThreadedConfig {
    /// Sets the simpar worker-thread count on every kernel that has one
    /// (Bonds, CSym, CNA). Kernel outputs are bit-identical for any value
    /// (see `simpar`), so this only changes wall-clock behaviour.
    pub fn with_kernel_threads(mut self, threads: usize) -> Self {
        self.bonds.threads = threads;
        self.csym.threads = threads;
        self.cna.threads = threads;
        self
    }
}

/// A management action taken during a threaded run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadedAction {
    /// The manager added a Bonds round-robin worker.
    IncreaseBonds {
        /// Worker count after the action.
        workers: usize,
    },
    /// The manager paused the stream, drained it, and retired a Bonds
    /// round-robin worker.
    DecreaseBonds {
        /// Worker count after the action.
        workers: usize,
    },
    /// CSym detected the break; CNA took over.
    Branch {
        /// The step at which the break was detected.
        at_step: u64,
    },
    /// The manager took Bonds offline; remaining steps go to disk with
    /// provenance.
    OfflineBonds {
        /// Steps Bonds had completed when pruned.
        completed: u64,
    },
}

/// One monitoring record delivered to the global-manager overlay.
#[derive(Clone, Copy, Debug)]
pub struct StageSample {
    /// Pipeline stage index (0 = Helper, 1 = Bonds, 2 = CSym, 3 = CNA).
    pub stage: usize,
    /// Step measured.
    pub step: u64,
    /// Real processing latency.
    pub latency: Duration,
}

/// Outcome of a threaded run.
#[derive(Debug)]
pub struct ThreadedReport {
    /// Steps the application emitted.
    pub steps_emitted: u64,
    /// Steps each stage completed: (Helper, Bonds, CSym, CNA).
    pub stage_steps: [u64; 4],
    /// Step at which the crack was detected, if it was.
    pub crack_detected_at: Option<u64>,
    /// Management actions, in order.
    pub actions: Vec<ThreadedAction>,
    /// Mean real latency per stage, seconds.
    pub mean_latency_s: [f64; 4],
    /// Monitoring events delivered to the global manager.
    pub monitor_events: u64,
    /// FCC fraction reported by CNA's last step, if CNA ran.
    pub last_fcc_fraction: Option<f64>,
    /// Steps readable from the offline container after Bonds went
    /// offline.
    pub offline_steps: u64,
    /// Steps the offline drainer took from the stream but could not write
    /// (the container could not be created, or an append failed). Each
    /// failure is also in [`Self::errors`].
    pub lost_steps: u64,
    /// The provenance-labeled container file, once the offline path
    /// created it.
    pub offline_path: Option<PathBuf>,
    /// Failures worker threads hit and survived (offline-staging I/O
    /// errors, leaked state). Empty on a clean run.
    pub errors: Vec<String>,
}

struct Shared {
    crack_step: Mutex<Option<u64>>,
    bonds_done: AtomicU64,
    bonds_offline: AtomicBool,
    /// Steps the offline drainer took off the stream, written or lost.
    drained: AtomicU64,
    lost: AtomicU64,
    offline_path: Mutex<Option<PathBuf>>,
    latency: [Mutex<Welford>; 4],
    actions: Mutex<Vec<ThreadedAction>>,
    last_fcc: Mutex<Option<f64>>,
    errors: Mutex<Vec<String>>,
}

const STAGE_NAMES: [&str; 4] = ["Helper", "Bonds", "CSym", "CNA"];

fn observe(shared: &Shared, monitor: &evpath::OverlaySender, sink: evpath::StoneId, sample: StageSample) {
    shared.latency[sample.stage].lock().unwrap().add(sample.latency.as_secs_f64());
    monitor.submit(sink, Event::new(sample));
}

/// Runs the full pipeline on real threads. Blocks until every stage
/// drains.
pub fn run_threaded(cfg: ThreadedConfig) -> ThreadedReport {
    assert!(cfg.initial_bonds_workers >= 1 && cfg.ranks >= 1 && cfg.steps >= 1);
    let shared = Arc::new(Shared {
        crack_step: Mutex::new(None),
        bonds_done: AtomicU64::new(0),
        bonds_offline: AtomicBool::new(false),
        drained: AtomicU64::new(0),
        lost: AtomicU64::new(0),
        offline_path: Mutex::new(None),
        latency: [
            Mutex::new(Welford::new()),
            Mutex::new(Welford::new()),
            Mutex::new(Welford::new()),
            Mutex::new(Welford::new()),
        ],
        actions: Mutex::new(Vec::new()),
        last_fcc: Mutex::new(None),
        errors: Mutex::new(Vec::new()),
    });

    // Global-manager monitoring overlay: every stage reports here.
    let overlay = Overlay::new("global-manager");
    let events = Arc::new(AtomicU64::new(0));
    let ev2 = events.clone();
    let sink = overlay.add_stone(EvAction::Terminal(Box::new(move |_ev| {
        ev2.fetch_add(1, Ordering::Relaxed);
    })));
    let monitor = overlay.sender();

    // Staged channels between containers; the Helper → Bonds edge rides
    // the step-streaming engine (a one-rank writer group over a bounded
    // log) so the worker pool shares a named cursor and the manager can
    // use the typed pause protocol for the decrease operation.
    let (w_chunks, r_chunks) = channel(cfg.queue_capacity * cfg.ranks.max(1));
    let bonds_stream =
        StreamEngine::new(StreamConfig { writers: 1, retention: cfg.queue_capacity });
    let w_bonds = bonds_stream.writer(0);
    let r_bonds = bonds_stream
        .reader("bonds", Attach::Oldest, None)
        .expect("fresh engine has no cursor named 'bonds'");
    let (w_routed, r_routed) = channel(cfg.queue_capacity);
    let retire_tokens = Arc::new(AtomicU64::new(0));

    let steps = cfg.steps;
    std::thread::scope(|scope| {
        // --- Application (LAMMPS stand-in). -----------------------------
        {
            let cfg = cfg.clone();
            scope.spawn(move || {
                let mut md = MdEngine::new(cfg.md.clone());
                for _ in 0..cfg.steps {
                    let snap = md.run_epoch(cfg.md_steps_per_epoch);
                    for (rank, chunk) in
                        split_snapshot(&snap, cfg.ranks).into_iter().enumerate()
                    {
                        let mut step = codec::snapshot_to_step(&chunk);
                        step.set_attr("rank", adios::AttrValue::Int(rank as i64));
                        // Blocking write: a full staging buffer blocks the
                        // application, exactly as on the machine.
                        if w_chunks.write(step).is_err() {
                            return;
                        }
                    }
                }
            });
        }

        // --- Helper: the aggregation tree. -------------------------------
        {
            let cfg = cfg.clone();
            let shared = shared.clone();
            let monitor = monitor.clone();
            let w_bonds = w_bonds.clone();
            scope.spawn(move || {
                let tree = AggregationTree::new(cfg.fan_in.max(2));
                let mut done = 0u64;
                let mut pending: Vec<mdsim::Snapshot> = Vec::with_capacity(cfg.ranks);
                while done < cfg.steps {
                    let Some((_, step)) = r_chunks.pull() else { break };
                    let t0 = Instant::now();
                    if let Some(chunk) = codec::step_to_snapshot(&step) {
                        pending.push(chunk);
                    }
                    if pending.len() == cfg.ranks {
                        let merged = tree.aggregate(std::mem::take(&mut pending));
                        let out = codec::snapshot_to_step(&merged);
                        let step_ix = merged.step;
                        if w_bonds.write(out).is_err() {
                            break;
                        }
                        done += 1;
                        observe(
                            &shared,
                            &monitor,
                            sink,
                            StageSample { stage: 0, step: step_ix, latency: t0.elapsed() },
                        );
                    }
                }
            });
        }

        // --- Bonds: a growable round-robin worker pool. -------------------
        // `scope` can be captured by the manager thread so the increase
        // operation spawns real replica threads at runtime.
        let spawn_bonds_worker = {
            let cfg = cfg.clone();
            let shared = shared.clone();
            let monitor = monitor.clone();
            let r_bonds = r_bonds.clone();
            let w_routed = w_routed.clone();
            let retire_tokens = retire_tokens.clone();
            move || {
                let cfg = cfg.clone();
                let shared = shared.clone();
                let monitor = monitor.clone();
                let r_bonds = r_bonds.clone();
                let w_routed = w_routed.clone();
                let retire_tokens = retire_tokens.clone();
                scope.spawn(move || {
                    loop {
                        if shared.bonds_done.load(Ordering::Acquire) >= cfg.steps
                            || shared.bonds_offline.load(Ordering::Acquire)
                        {
                            break;
                        }
                        // Decrease: a pending retire token means the
                        // manager paused and drained the stream so one
                        // replica can exit without stranding a step.
                        if retire_tokens
                            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| {
                                t.checked_sub(1)
                            })
                            .is_ok()
                        {
                            break;
                        }
                        let Some((_, step)) =
                            r_bonds.pull_timeout(Duration::from_millis(20))
                        else {
                            continue;
                        };
                        let t0 = Instant::now();
                        let Some(snap) = codec::step_to_snapshot(&step) else { continue };
                        let out = if cfg.bonds_use_n2 {
                            cfg.bonds.compute_n2(&snap)
                        } else {
                            cfg.bonds.compute(&snap)
                        };
                        let encoded = codec::bonds_to_step(&out);
                        if w_routed.write(encoded).is_err() {
                            break;
                        }
                        shared.bonds_done.fetch_add(1, Ordering::AcqRel);
                        observe(
                            &shared,
                            &monitor,
                            sink,
                            StageSample { stage: 1, step: snap.step, latency: t0.elapsed() },
                        );
                    }
                });
            }
        };
        let worker_count = Arc::new(AtomicU64::new(0));
        for _ in 0..cfg.initial_bonds_workers {
            spawn_bonds_worker();
            worker_count.fetch_add(1, Ordering::Relaxed);
        }

        // --- Analysis: CSym until it detects the break, CNA after it. -----
        {
            let cfg = cfg.clone();
            let shared = shared.clone();
            let monitor = monitor.clone();
            scope.spawn(move || {
                // Every step Bonds completes arrives here; the rest go to
                // the offline drainer.
                let mut pulled = 0u64;
                let mut cracked = false;
                while pulled + shared.drained.load(Ordering::Acquire) < steps {
                    let Some((_, step)) = r_routed.pull_timeout(Duration::from_millis(20))
                    else {
                        continue;
                    };
                    pulled += 1;
                    let t0 = Instant::now();
                    let Some(bonds) = codec::step_to_bonds(&step) else { continue };
                    let sample =
                        |stage, step| StageSample { stage, step, latency: t0.elapsed() };
                    if cracked {
                        let out = cfg.cna.compute(&bonds);
                        *shared.last_fcc.lock().unwrap() = Some(out.fcc_fraction);
                        observe(&shared, &monitor, sink, sample(3, out.step));
                    } else {
                        let out = cfg.csym.compute(&bonds);
                        observe(&shared, &monitor, sink, sample(2, out.step));
                        if out.break_detected {
                            // Dynamic branch: CSym retires, CNA takes over.
                            cracked = true;
                            *shared.crack_step.lock().unwrap() = Some(out.step);
                            shared
                                .actions
                                .lock()
                                .unwrap()
                                .push(ThreadedAction::Branch { at_step: out.step });
                        }
                    }
                }
            });
        }

        // --- Manager: the increase operation on backlog. ------------------
        if cfg.manage {
            let cfg = cfg.clone();
            let shared = shared.clone();
            let worker_count = worker_count.clone();
            let r_stats = r_bonds.clone();
            let spawn_bonds_worker = spawn_bonds_worker.clone();
            let retire_tokens = retire_tokens.clone();
            let w_manage = w_bonds.clone();
            let r_drain = r_bonds.clone();
            scope.spawn(move || {
                let mut saturated_checks = 0u32;
                let mut idle_checks = 0u32;
                loop {
                    if shared.bonds_done.load(Ordering::Acquire) >= cfg.steps {
                        break;
                    }
                    let queued = r_stats.queued();
                    let workers = worker_count.load(Ordering::Relaxed) as usize;
                    if queued > cfg.queue_capacity / 2 {
                        if workers < cfg.max_bonds_workers {
                            // The increase operation: spawn a round-robin
                            // replica on the shared staged channel.
                            spawn_bonds_worker();
                            worker_count.fetch_add(1, Ordering::Relaxed);
                            shared
                                .actions
                                .lock()
                                .unwrap()
                                .push(ThreadedAction::IncreaseBonds { workers: workers + 1 });
                        } else if let Some(dir) = &cfg.offline_dir {
                            saturated_checks += 1;
                            if saturated_checks >= 5 {
                                // No more resources: take Bonds offline and
                                // stage the remaining steps to disk with
                                // provenance, exactly as the 1024-node
                                // scenario does.
                                let done = shared.bonds_done.load(Ordering::Acquire);
                                shared.bonds_offline.store(true, Ordering::Release);
                                shared
                                    .actions
                                    .lock()
                                    .unwrap()
                                    .push(ThreadedAction::OfflineBonds { completed: done });
                                let (dir, shared) = (dir.clone(), shared.clone());
                                scope.spawn(move || {
                                    drain_offline(&dir, cfg.steps, &shared, &r_drain)
                                });
                                break;
                            }
                        }
                    } else {
                        saturated_checks = 0;
                        if cfg.decrease && queued == 0 && workers > 1 {
                            idle_checks += 1;
                            if idle_checks >= 5 {
                                idle_checks = 0;
                                // The decrease operation, on the paper's
                                // pause → drain → unlink → resume
                                // protocol. The typed pause outcome
                                // distinguishes a completed drain from an
                                // abort: only a clean drain retires a
                                // replica.
                                match w_manage.pause() {
                                    Ok(_drained) => {
                                        retire_tokens.fetch_add(1, Ordering::AcqRel);
                                        worker_count.fetch_sub(1, Ordering::Relaxed);
                                        shared.actions.lock().unwrap().push(
                                            ThreadedAction::DecreaseBonds {
                                                workers: workers - 1,
                                            },
                                        );
                                    }
                                    Err(PauseAborted::Failed(reason)) => {
                                        shared.errors.lock().unwrap().push(format!(
                                            "manager: decrease pause aborted: {reason}"
                                        ));
                                    }
                                    Err(PauseAborted::Closed { .. }) => {
                                        w_manage.resume();
                                        break;
                                    }
                                }
                                w_manage.resume();
                            }
                        } else {
                            idle_checks = 0;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            });
        }
    });

    overlay.flush();
    let monitor_events = events.load(Ordering::Relaxed);
    overlay.shutdown();

    // Read results through the shared handle rather than unwrapping the
    // Arc: every spawn joined at the end of the scope above, so nothing
    // races these reads — and a leaked clone degrades to a reported error
    // instead of a panic after an otherwise-successful run.
    let mean = |ix: usize| shared.latency[ix].lock().unwrap().mean();
    let stage_steps = [
        shared.latency[0].lock().unwrap().count(),
        shared.latency[1].lock().unwrap().count(),
        shared.latency[2].lock().unwrap().count(),
        shared.latency[3].lock().unwrap().count(),
    ];
    let mean_latency_s = [mean(0), mean(1), mean(2), mean(3)];
    let crack_detected_at = *shared.crack_step.lock().unwrap();
    let offline_path = shared.offline_path.lock().unwrap().take();
    let lost_steps = shared.lost.load(Ordering::Acquire);
    let last_fcc_fraction = *shared.last_fcc.lock().unwrap();
    let actions = std::mem::take(&mut *shared.actions.lock().unwrap());
    let mut errors = std::mem::take(&mut *shared.errors.lock().unwrap());
    if Arc::strong_count(&shared) != 1 {
        errors.push("a worker thread leaked a shared-state handle".to_string());
    }
    ThreadedReport {
        steps_emitted: cfg.steps,
        stage_steps,
        crack_detected_at,
        actions,
        mean_latency_s,
        monitor_events,
        last_fcc_fraction,
        offline_steps: shared.drained.load(Ordering::Acquire) - lost_steps,
        lost_steps,
        offline_path,
        errors,
    }
}

/// The offline drainer, spawned when the manager takes Bonds offline:
/// stamps every step left in the Bonds stream with provenance and appends
/// it to a BP container in `dir`.
///
/// I/O failures must not panic the scope, and must not stop the drain
/// either: the other stages terminate on `drained`, so a drainer that
/// exits early would leave Helper blocked on a full staging queue forever.
/// A step that cannot be written counts as lost. A failure is recorded in
/// `errors` and drops the writer, so the file holds exactly the steps not
/// lost: an append torn by the failure is past the last whole frame.
fn drain_offline(dir: &Path, steps: u64, shared: &Shared, r_drain: &StreamReader) {
    let record = |msg: String| shared.errors.lock().unwrap().push(msg);
    let path = dir.join("offline-staged.bp");
    let mut writer =
        match std::fs::create_dir_all(dir).and_then(|()| adios::BpFileWriter::create(&path)) {
            Ok(w) => {
                *shared.offline_path.lock().unwrap() = Some(path);
                Some(w)
            }
            Err(e) => {
                record(format!("offline drainer: create {}: {e}", path.display()));
                None
            }
        };
    let prov = crate::provenance::Provenance::from_split(&["Helper"], &["Bonds", "CSym"]);
    while shared.bonds_done.load(Ordering::Acquire) + shared.drained.load(Ordering::Acquire)
        < steps
    {
        let Some((_, mut step)) = r_drain.pull_timeout(Duration::from_millis(20)) else {
            continue;
        };
        prov.stamp(&mut step);
        let written = writer.as_mut().map(|w| w.append("atoms", &step));
        if let Some(Err(e)) = &written {
            record(format!("offline drainer: append step {}: {e}", step.step()));
            writer = None;
        }
        if !matches!(written, Some(Ok(()))) {
            shared.lost.fetch_add(1, Ordering::AcqRel);
        }
        shared.drained.fetch_add(1, Ordering::AcqRel);
    }
    if let Some(Err(e)) = writer.map(adios::BpFileWriter::finalize) {
        record(format!("offline drainer: finalize: {e}"));
    }
}

/// Stage display names, aligned with [`StageSample::stage`].
pub fn stage_names() -> [&'static str; 4] {
    STAGE_NAMES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_run_flows_through_csym() {
        let cfg = ThreadedConfig { steps: 4, manage: false, ..ThreadedConfig::default() };
        let report = run_threaded(cfg);
        assert_eq!(report.stage_steps[0], 4, "helper steps");
        assert_eq!(report.stage_steps[1], 4, "bonds steps");
        assert_eq!(report.stage_steps[2], 4, "csym sees all steps, no crack");
        assert_eq!(report.stage_steps[3], 0, "cna never activates");
        assert!(report.crack_detected_at.is_none());
        assert!(report.monitor_events >= 12);
    }

    /// Yields at 15 MD steps; at 5 MD steps per output the crack opens
    /// around output step 3.
    fn fracture_md() -> MdConfig {
        MdConfig {
            temperature: 0.02,
            strain_per_step: 0.002,
            yield_strain: 0.03,
            ..MdConfig::default()
        }
    }

    #[test]
    fn fracture_run_branches_to_cna() {
        let cfg = ThreadedConfig {
            md: fracture_md(),
            steps: 8,
            manage: false,
            ..ThreadedConfig::default()
        };
        let report = run_threaded(cfg);
        let crack = report.crack_detected_at.expect("crack must be detected");
        assert!((2..=5).contains(&crack), "crack at step {crack}");
        assert!(report.stage_steps[3] > 0, "cna must take over: {:?}", report.stage_steps);
        assert!(report
            .actions
            .iter()
            .any(|a| matches!(a, ThreadedAction::Branch { .. })));
        // CNA labels the cracked crystal: fcc fraction below 1.
        let fcc = report.last_fcc_fraction.expect("cna ran");
        assert!(fcc < 1.0 && fcc > 0.3, "fcc fraction {fcc}");
    }

    /// Step conservation across the dynamic branch: whatever Bonds
    /// completes is analysed by exactly one of CSym and CNA, at every
    /// queue depth, and the run ends (a watchdog fails it otherwise). A
    /// fast producer in front of a pool of slow Bonds replicas delivers
    /// steps to the analysis in bursts — the regime where a step could
    /// once be stranded behind the branch.
    #[test]
    fn branch_conserves_steps() {
        const STEPS: u64 = 8;
        for queue_capacity in [1, 2, 4] {
            for seed in [1, 2, 3] {
                for manage in [false, true] {
                    let base = fracture_md();
                    let md = MdConfig {
                        seed,
                        // One MD step per output; yields at mid-run.
                        strain_per_step: base.yield_strain / (STEPS / 2) as f64,
                        ..base
                    };
                    let cfg = ThreadedConfig {
                        md,
                        steps: STEPS,
                        md_steps_per_epoch: 1,
                        queue_capacity,
                        bonds_use_n2: true,
                        initial_bonds_workers: 4,
                        manage,
                        ..ThreadedConfig::default()
                    };
                    let case = format!("capacity {queue_capacity}, seed {seed}, manage {manage}");
                    let (done_tx, done_rx) = std::sync::mpsc::channel();
                    std::thread::spawn(move || {
                        // The receiver is gone only if the watchdog fired.
                        let _ = done_tx.send(run_threaded(cfg));
                    });
                    let report = done_rx
                        .recv_timeout(Duration::from_secs(60))
                        .unwrap_or_else(|e| panic!("{case}: run did not finish: {e}"));
                    assert_eq!(report.stage_steps[1], STEPS, "{case}: bonds steps");
                    assert_eq!(
                        report.stage_steps[2] + report.stage_steps[3],
                        STEPS,
                        "{case}: csym + cna must analyse every step: {:?}",
                        report.stage_steps
                    );
                    assert!(report.crack_detected_at.is_some(), "{case}: no crack");
                    assert!(report.errors.is_empty(), "{case}: {:?}", report.errors);
                }
            }
        }
    }

    /// Premise: one Bonds worker falls behind the MD producer. The input
    /// sets that up, not the kernel's speed: the n² Bonds cost grows as
    /// atoms², the MD step's as atoms, so a large enough crystal backs the
    /// queue up for any kernel. 12³ cells (6,912 atoms) give the
    /// Bonds-to-MD cost ratio that 8³ gave the 3× slower branchy kernel.
    #[test]
    fn manager_grows_bonds_under_backlog() {
        // One slow bonds worker (n² kernel on a larger crystal) with a
        // fast producer: the staging queue backs up and the manager adds
        // replicas.
        let cfg = ThreadedConfig {
            md: MdConfig { cells: (12, 12, 12), ..MdConfig::default() },
            steps: 10,
            md_steps_per_epoch: 1,
            bonds_use_n2: true,
            initial_bonds_workers: 1,
            max_bonds_workers: 4,
            queue_capacity: 4,
            manage: true,
            ..ThreadedConfig::default()
        };
        let report = run_threaded(cfg);
        assert_eq!(report.stage_steps[1], 10, "all steps processed");
        assert!(
            report.actions.iter().any(|a| matches!(a, ThreadedAction::IncreaseBonds { .. })),
            "manager should have increased bonds: {:?}",
            report.actions
        );
    }

    #[test]
    fn manager_decreases_idle_bonds() {
        // A slow producer (long MD epochs) in front of an over-provisioned
        // Bonds pool: the stream sits idle between steps, so the manager
        // pauses, drains, and retires replicas — and every step still
        // lands because the pause protocol only retires after a clean
        // drain.
        let cfg = ThreadedConfig {
            steps: 5,
            initial_bonds_workers: 3,
            max_bonds_workers: 3,
            queue_capacity: 4,
            manage: true,
            decrease: true,
            ..ThreadedConfig::default()
        };
        let report = run_threaded(cfg);
        assert_eq!(report.stage_steps[1], 5, "decrease must not lose steps");
        assert!(
            report.actions.iter().any(|a| matches!(a, ThreadedAction::DecreaseBonds { .. })),
            "manager should have retired an idle bonds replica: {:?}",
            report.actions
        );
        assert!(report.errors.is_empty(), "clean run: {:?}", report.errors);
    }

    #[test]
    fn stage_names_align() {
        assert_eq!(stage_names(), ["Helper", "Bonds", "CSym", "CNA"]);
    }
}

#[cfg(test)]
mod offline_tests {
    use super::*;
    use crate::provenance::Provenance;

    /// The threaded counterpart of the 1024-node scenario: the manager
    /// exhausts its replica budget, takes Bonds offline, and the leftover
    /// steps land in a provenance-labeled BP container that post-hoc
    /// analysis can replay.
    ///
    /// Premise: a single Bonds worker stays behind the MD producer for the
    /// manager's five saturated checks. The crystal size sets that up, as
    /// for `manager_grows_bonds_under_backlog`: n² Bonds against O(n) MD,
    /// and 13³ cells (8,788 atoms) give the ratio 9³ gave the 3× slower
    /// branchy kernel.
    #[test]
    fn saturated_bonds_goes_offline_with_provenance() {
        let dir = std::env::temp_dir()
            .join(format!("ioc-threaded-offline-{}", std::process::id()));
        let cfg = ThreadedConfig {
            md: MdConfig { cells: (13, 13, 13), ..MdConfig::default() },
            steps: 12,
            md_steps_per_epoch: 1,
            bonds_use_n2: true,   // slow kernel
            initial_bonds_workers: 1,
            max_bonds_workers: 1, // no growth possible
            queue_capacity: 2,
            manage: true,
            offline_dir: Some(dir.clone()),
            ..ThreadedConfig::default()
        };
        let report = run_threaded(cfg);

        assert!(
            report.actions.iter().any(|a| matches!(a, ThreadedAction::OfflineBonds { .. })),
            "manager must prune bonds: {:?}",
            report.actions
        );
        assert!(report.offline_steps > 0, "steps must be staged to disk");
        assert_eq!(report.lost_steps, 0);
        assert_eq!(
            report.stage_steps[1] + report.offline_steps,
            12,
            "every step is either processed or staged"
        );

        // The container file is readable and provenance-complete.
        let path = report.offline_path.expect("offline container written");
        let mut reader = adios::BpFileReader::open(&path).expect("valid container");
        assert_eq!(reader.len() as u64, report.offline_steps);
        let step = reader.read_at(0).expect("readable step");
        let prov = Provenance::read(&step.data);
        assert_eq!(prov.processed_by, vec!["Helper"]);
        assert_eq!(prov.pending_ops, vec!["Bonds", "CSym"]);
        // And the staged atoms decode.
        assert!(crate::codec::step_to_snapshot(&step.data).is_some());
        assert!(report.errors.is_empty(), "clean run: {:?}", report.errors);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// An unwritable offline directory must not panic or hang the run: the
    /// drainer reports the failure, keeps counting steps through so every
    /// stage still terminates, and the report carries the error. Same
    /// premise and crystal as `saturated_bonds_goes_offline_with_provenance`:
    /// Bonds must fall behind for the manager to prune it at all.
    #[test]
    fn unwritable_offline_dir_is_reported_not_fatal() {
        // A *file* where the directory should go makes create_dir_all fail
        // portably.
        let blocker = std::env::temp_dir()
            .join(format!("ioc-threaded-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"in the way").expect("test setup");
        let cfg = ThreadedConfig {
            md: MdConfig { cells: (13, 13, 13), ..MdConfig::default() },
            steps: 12,
            md_steps_per_epoch: 1,
            bonds_use_n2: true,
            initial_bonds_workers: 1,
            max_bonds_workers: 1,
            queue_capacity: 2,
            manage: true,
            offline_dir: Some(blocker.join("offline")),
            ..ThreadedConfig::default()
        };
        let report = run_threaded(cfg);
        assert!(
            report.actions.iter().any(|a| matches!(a, ThreadedAction::OfflineBonds { .. })),
            "manager still prunes bonds: {:?}",
            report.actions
        );
        assert!(
            report.errors.iter().any(|e| e.contains("offline drainer")),
            "the I/O failure surfaces in the report: {:?}",
            report.errors
        );
        assert!(report.offline_path.is_none(), "no container could be written");
        assert_eq!(report.offline_steps, 0, "nothing reached a file");
        assert_eq!(
            report.stage_steps[1] + report.lost_steps,
            12,
            "the drain still completes so no stage deadlocks"
        );
        std::fs::remove_file(&blocker).ok();
    }

    /// With growth available, the same load is absorbed and nothing goes
    /// offline — management works before it prunes.
    #[test]
    fn growth_prevents_offline() {
        let dir = std::env::temp_dir()
            .join(format!("ioc-threaded-no-offline-{}", std::process::id()));
        let cfg = ThreadedConfig {
            md: MdConfig { cells: (8, 8, 8), ..MdConfig::default() },
            steps: 10,
            md_steps_per_epoch: 1,
            bonds_use_n2: true,
            initial_bonds_workers: 1,
            max_bonds_workers: 6,
            queue_capacity: 2,
            manage: true,
            offline_dir: Some(dir.clone()),
            ..ThreadedConfig::default()
        };
        let report = run_threaded(cfg);
        assert!(
            !report.actions.iter().any(|a| matches!(a, ThreadedAction::OfflineBonds { .. })),
            "growth should suffice: {:?}",
            report.actions
        );
        assert_eq!(report.stage_steps[1], 10);
        assert_eq!(report.offline_steps, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
