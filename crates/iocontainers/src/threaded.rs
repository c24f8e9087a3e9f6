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
//! ([`stream::StreamEngine`]): Helper is a one-rank writer group sealing
//! merged steps into a bounded log, and the Bonds replicas divide the
//! stream by pulling through one handle on one named cursor. The manager's
//! *decrease* is a retire token alone: the next replica to reach its pull
//! claims it and exits, and the cursor keeps the backlog for the others.
//!
//! Stages end when their input closes, never on a poll. Helper ends with
//! the application's last step and owns the stream's only writer handle,
//! so its return closes the stream; the replicas and the drainer drain it;
//! the routed queue closes once they have, and the analysis consumer
//! drains it and ends. The manager checks the backlog every 10 ms while
//! Helper runs and exits as soon as Helper returns: the application has
//! stopped writing, so there is nothing left to protect.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use datatap::channel;
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
    /// idle with more than one replica, hand out a retire token. The next
    /// replica to reach its pull exits; the shared cursor keeps any
    /// backlog for the others.
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
    /// The manager handed out a retire token: the next Bonds round-robin
    /// worker to reach its pull exits.
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
    /// errors). Empty on a clean run.
    pub errors: Vec<String>,
}

/// What the stage threads report into; they borrow it for the run.
#[derive(Default)]
struct Shared {
    crack_step: Mutex<Option<u64>>,
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

impl Shared {
    fn act(&self, action: ThreadedAction) {
        self.actions.lock().unwrap().push(action);
    }
}

const STAGE_NAMES: [&str; 4] = ["Helper", "Bonds", "CSym", "CNA"];

/// Records `stage`'s latency on `step`, timed from `t0`, and reports it to
/// the global manager.
fn observe(
    shared: &Shared,
    monitor: &evpath::OverlaySender,
    sink: evpath::StoneId,
    stage: usize,
    step: u64,
    t0: Instant,
) {
    let latency = t0.elapsed();
    shared.latency[stage].lock().unwrap().add(latency.as_secs_f64());
    monitor.submit(sink, Event::new(StageSample { stage, step, latency }));
}

/// Runs the full pipeline on real threads. Blocks until every stage
/// drains.
pub fn run_threaded(cfg: ThreadedConfig) -> ThreadedReport {
    assert!(cfg.initial_bonds_workers >= 1 && cfg.ranks >= 1 && cfg.steps >= 1);
    let shared = Shared::default();

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
    // log) so the worker pool shares a named cursor. `w_bonds` is the
    // stream's only writer handle: Helper owns it, and its drop closes
    // the stream.
    let (w_chunks, r_chunks) = channel(cfg.queue_capacity * cfg.ranks.max(1));
    let bonds_stream =
        StreamEngine::new(StreamConfig { writers: 1, retention: cfg.queue_capacity });
    let w_bonds = bonds_stream.writer(0);
    let r_bonds = bonds_stream
        .reader("bonds", Attach::Oldest, None)
        .expect("fresh engine has no cursor named 'bonds'");
    let (w_routed, r_routed) = channel(cfg.queue_capacity);
    let retire_tokens = AtomicU64::new(0);
    // Helper holds the only sender: its return ends the manager's wait.
    let (helper_alive, helper_gone) = mpsc::channel::<()>();

    {
        let (cfg, shared, monitor, retire_tokens) = (&cfg, &shared, &monitor, &retire_tokens);
        let (r_bonds, w_routed, r_routed) = (&r_bonds, &w_routed, &r_routed);
        std::thread::scope(|outer| {
            // --- Analysis: CSym until it detects the break, CNA after it.
            // Every step Bonds completes arrives here; the routed queue
            // closes once the inner scope has joined every thread.
            outer.spawn(move || {
                let mut cracked = false;
                while let Some((_, step)) = r_routed.pull() {
                    let t0 = Instant::now();
                    let Some(bonds) = codec::step_to_bonds(&step) else { continue };
                    if cracked {
                        let out = cfg.cna.compute(&bonds);
                        *shared.last_fcc.lock().unwrap() = Some(out.fcc_fraction);
                        observe(shared, monitor, sink, 3, out.step, t0);
                    } else {
                        let out = cfg.csym.compute(&bonds);
                        observe(shared, monitor, sink, 2, out.step, t0);
                        if out.break_detected {
                            // Dynamic branch: CSym retires, CNA takes over.
                            cracked = true;
                            *shared.crack_step.lock().unwrap() = Some(out.step);
                            shared.act(ThreadedAction::Branch { at_step: out.step });
                        }
                    }
                }
            });

            std::thread::scope(|scope| {
                // --- Application (LAMMPS stand-in). -------------------------
                scope.spawn(move || {
                    let mut md = MdEngine::new(cfg.md.clone());
                    for _ in 0..cfg.steps {
                        let snap = md.run_epoch(cfg.md_steps_per_epoch);
                        for (rank, chunk) in
                            split_snapshot(&snap, cfg.ranks).into_iter().enumerate()
                        {
                            let mut step = codec::snapshot_to_step(&chunk);
                            step.set_attr("rank", adios::AttrValue::Int(rank as i64));
                            // Blocking write: a full staging buffer blocks
                            // the application, exactly as on the machine.
                            if w_chunks.write(step).is_err() {
                                return;
                            }
                        }
                    }
                });

                // --- Helper: the aggregation tree. ---------------------------
                scope.spawn(move || {
                    let _alive = helper_alive;
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
                            if w_bonds.write(out).is_err() {
                                break;
                            }
                            done += 1;
                            observe(shared, monitor, sink, 0, merged.step, t0);
                        }
                    }
                });

                // --- Bonds: a growable round-robin worker pool. ---------------
                // The manager calls this too, so the increase operation
                // spawns real replica threads at runtime.
                let spawn_bonds_worker = move || {
                    scope.spawn(move || {
                        // A replica leaves before its next pull when Bonds
                        // went offline or it claims a retire token, and
                        // otherwise ends with the stream.
                        let leave = || {
                            shared.bonds_offline.load(Ordering::Acquire)
                                || retire_tokens
                                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| {
                                        t.checked_sub(1)
                                    })
                                    .is_ok()
                        };
                        while !leave() {
                            let Some((_, step)) = r_bonds.pull() else { break };
                            let t0 = Instant::now();
                            let Some(snap) = codec::step_to_snapshot(&step) else { continue };
                            let out = if cfg.bonds_use_n2 {
                                cfg.bonds.compute_n2(&snap)
                            } else {
                                cfg.bonds.compute(&snap)
                            };
                            if w_routed.write(codec::bonds_to_step(&out)).is_err() {
                                break;
                            }
                            observe(shared, monitor, sink, 1, snap.step, t0);
                        }
                    });
                };
                for _ in 0..cfg.initial_bonds_workers {
                    spawn_bonds_worker();
                }

                // --- Manager: increase, decrease and offline on the backlog.
                if cfg.manage {
                    scope.spawn(move || {
                        let mut workers = cfg.initial_bonds_workers;
                        let (mut saturated_checks, mut idle_checks) = (0u32, 0u32);
                        while let Err(mpsc::RecvTimeoutError::Timeout) =
                            helper_gone.recv_timeout(Duration::from_millis(10))
                        {
                            let queued = r_bonds.queued();
                            if queued > cfg.queue_capacity / 2 {
                                if workers < cfg.max_bonds_workers {
                                    // The increase operation: spawn a
                                    // round-robin replica on the shared cursor.
                                    spawn_bonds_worker();
                                    workers += 1;
                                    shared.act(ThreadedAction::IncreaseBonds { workers });
                                } else if let Some(dir) = &cfg.offline_dir {
                                    saturated_checks += 1;
                                    if saturated_checks >= 5 {
                                        // No more resources: take Bonds
                                        // offline and stage the remaining
                                        // steps to disk with provenance,
                                        // exactly as the 1024-node scenario
                                        // does.
                                        let completed = shared.latency[1].lock().unwrap().count();
                                        shared.bonds_offline.store(true, Ordering::Release);
                                        shared.act(ThreadedAction::OfflineBonds { completed });
                                        drain_offline(dir, shared, r_bonds);
                                        break;
                                    }
                                }
                            } else {
                                saturated_checks = 0;
                                if cfg.decrease && queued == 0 && workers > 1 {
                                    idle_checks += 1;
                                    if idle_checks >= 5 {
                                        idle_checks = 0;
                                        // The decrease operation: a retire
                                        // token alone. Replicas share one
                                        // cursor, so whatever is queued
                                        // stays there for the others.
                                        retire_tokens.fetch_add(1, Ordering::AcqRel);
                                        workers -= 1;
                                        shared.act(ThreadedAction::DecreaseBonds { workers });
                                    }
                                } else {
                                    idle_checks = 0;
                                }
                            }
                        }
                    });
                }
            });
            r_routed.close();
        });
    }

    overlay.flush();
    let monitor_events = events.load(Ordering::Relaxed);
    overlay.shutdown();

    // Every thread joined the scope above, which re-raises any panic: the
    // state is ours again, and no lock in it is poisoned.
    let Shared { crack_step, drained, lost, offline_path, latency, actions, last_fcc, errors, .. } =
        shared;
    let latency = latency.map(|stage| stage.into_inner().unwrap());
    let lost_steps = lost.into_inner();
    ThreadedReport {
        steps_emitted: cfg.steps,
        stage_steps: latency.each_ref().map(Welford::count),
        crack_detected_at: crack_step.into_inner().unwrap(),
        actions: actions.into_inner().unwrap(),
        mean_latency_s: latency.each_ref().map(Welford::mean),
        monitor_events,
        last_fcc_fraction: last_fcc.into_inner().unwrap(),
        offline_steps: drained.into_inner() - lost_steps,
        lost_steps,
        offline_path: offline_path.into_inner().unwrap(),
        errors: errors.into_inner().unwrap(),
    }
}

/// The offline drainer, run by the manager when it takes Bonds offline:
/// stamps every step left in the Bonds stream with provenance and appends
/// it to a BP container in `dir`, until the stream is closed and drained.
///
/// I/O failures must not panic the scope, and must not stop the drain
/// either: once Bonds is offline the drainer is the stream's only reader,
/// so one that exits early would leave Helper blocked on a full log
/// forever. A step that cannot be written counts as lost. A failure is
/// recorded in `errors` and drops the writer, so the file holds exactly
/// the steps not lost: an append torn by the failure is past the last
/// whole frame.
fn drain_offline(dir: &Path, shared: &Shared, r_drain: &StreamReader) {
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
    while let Some((_, mut step)) = r_drain.pull() {
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
    /// once be stranded behind the branch. With decrease on, replicas may
    /// also retire mid-run: the shared cursor must keep their backlog.
    #[test]
    fn branch_conserves_steps() {
        const STEPS: u64 = 8;
        for queue_capacity in [1, 2, 4] {
            for seed in [1, 2, 3] {
                for (manage, decrease) in [(false, false), (true, false), (true, true)] {
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
                        decrease,
                        ..ThreadedConfig::default()
                    };
                    let case = format!(
                        "capacity {queue_capacity}, seed {seed}, manage {manage}, decrease {decrease}"
                    );
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
        // retires replicas — and every step still lands because a replica
        // leaves only before a pull, and the cursor keeps what it would
        // have pulled for the others.
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
    /// drainer reports the failure, keeps draining the stream so every
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
