//! The managed-pipeline experiment engine.
//!
//! Runs the paper's end-to-end scenario on the discrete-event kernel: the
//! application emits an output step every cadence; steps flow Helper →
//! Bonds → CSym (→ CNA after the crack-detection branch) through bounded
//! staging queues; containers process steps at their calibrated service
//! times; local managers report latency and queue depth to the global
//! manager, whose policy rebalances nodes or prunes hopeless bottlenecks.
//!
//! Modeling notes (documented deviations, see DESIGN.md):
//! * transfers are charged `bytes/bandwidth + latency` with per-container
//!   ingress serialization (the NIC effect that matters to queueing);
//! * during a resize the target container's intake is paused — upstream
//!   DataTap writers hold data — so steps accumulate and arrive in a
//!   burst afterwards, reproducing the paper's post-increase latency
//!   transient;
//! * a queue overflow marks the run "blocked" (the application would stall
//!   on I/O); data continues to accumulate upstream so the experiment can
//!   still be observed, as the paper's figures do.

use std::collections::VecDeque;

use sim_core::{shared, Shared, Sim, SimDuration, SimTime};
use simnet::{NodeId, StagingArea};
use simtel::{Category, Telemetry};

use datatap::TransportCosts;
use simfault::{Fault, LossSampler};

use d2t::{run_transaction, FaultPlan, TxnConfig};
use simnet::{Network, NetworkConfig};

use crate::container::{ContainerId, ContainerState, QueuedStep, Status};
use crate::error::Error;
use crate::experiment::{
    AdmissionControl, ClusterConfig, Directive, Experiment, ExperimentConfig, WorkloadConfig,
};
use crate::monitor::{Action, LatencySample, MonitorLog, ResourceSource};
use crate::policy::{
    decide_cluster, decide_recovery, ClusterDecision, ContainerView, Decision, FailureView,
    TenantPolicyView,
};
use crate::protocol::estimate;
use crate::provenance::Provenance;
use crate::sla::SlaAttainment;

/// Indices of the containers in pipeline order.
const HELPER: usize = 0;
/// Bonds' index.
const BONDS: usize = 1;
/// CSym's index.
const CSYM: usize = 2;
/// CNA's index.
const CNA: usize = 3;
/// The optional visualization container's index (present only when the
/// configuration enables it).
const VIZ: usize = 4;

/// Per-control-message cost used by the protocol duration estimates.
const PER_MSG: SimDuration = SimDuration::from_micros(10);

/// Result of a pipeline run.
#[derive(Debug)]
pub struct PipelineRun {
    /// The global manager's monitoring log (latency/queue/e2e series and
    /// the action log) — everything the figure harnesses print.
    pub log: MonitorLog,
    /// When the pipeline first blocked (queue overflow), if ever.
    pub blocked_at: Option<SimTime>,
    /// Steps written to disk with provenance because downstream analytics
    /// were offline.
    pub disk_steps: Vec<(u64, Provenance)>,
    /// Whether the crack-detection branch fired.
    pub crack_detected: bool,
    /// Containers offline at the end (by name).
    pub offline: Vec<&'static str>,
    /// Final node count per container (by name).
    pub final_units: Vec<(&'static str, u32)>,
    /// Virtual time when the run drained.
    pub finished_at: SimTime,
    /// Steps fully processed per container (by name).
    pub completed: Vec<(&'static str, u64)>,
    /// Containers still in the crashed state at the end (by name); empty
    /// when recovery resolved every injected failure.
    pub failed: Vec<&'static str>,
    /// Heartbeats the global manager received from local managers, over
    /// every tenant (zero when the fault plan is empty: heartbeating is
    /// only scheduled for fault-injected runs, keeping clean runs'
    /// schedules untouched).
    pub heartbeats_delivered: u64,
    /// Restart attempts spent per container (by name).
    pub restarts: Vec<(&'static str, u32)>,
    /// Engine-internal errors the run survived (broken resource
    /// accounting, impossible allocations) — the same pattern as
    /// [`crate::threaded::ThreadedReport::errors`]: rather than panicking
    /// mid-run, the engine degrades (skips the action, leaves the
    /// container inactive) and records what happened here. Empty on a
    /// clean run; a non-empty list means the configuration or the engine
    /// violated an invariant and the results should not be trusted.
    pub errors: Vec<String>,
    /// The run's telemetry handle (disabled unless the configuration's
    /// [`simtel::TelemetryConfig`] enabled categories). Snapshot it and
    /// feed [`simtel::export`] to produce Perfetto or CSV traces.
    pub telemetry: Telemetry,
}

/// How a tenant's admission resolved over the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionOutcome {
    /// The tenant ran, with its containers online from the given virtual
    /// time ([`SimTime::ZERO`] when it started with the machine).
    Admitted {
        /// When the tenant's containers came online.
        at: SimTime,
    },
    /// The tenant waited in the admission queue and never got in.
    Queued,
    /// Admission control rejected the tenant outright: its initial
    /// allocation did not fit the spare staging nodes.
    Rejected {
        /// Nodes the tenant's initially active containers wanted.
        held: u32,
        /// Spare staging nodes at evaluation time.
        spare: u32,
    },
}

/// One tenant's slice of an [`ExperimentRun`].
#[derive(Debug)]
pub struct TenantRun {
    /// The tenant's id (from its [`WorkloadConfig`]).
    pub id: String,
    /// How admission resolved for this tenant.
    pub admission: AdmissionOutcome,
    /// The tenant's SLA attainment over the run.
    pub attainment: SlaAttainment,
    /// The tenant's full per-pipeline report: its own monitor log, disk
    /// steps, blocked/crack state, final units. `heartbeats_delivered`
    /// and `errors` are machine-global and repeated on every tenant.
    pub run: PipelineRun,
}

/// Result of a multi-tenant [`Experiment`] run.
#[derive(Debug)]
pub struct ExperimentRun {
    /// Per-tenant results, in submission order.
    pub tenants: Vec<TenantRun>,
    /// Virtual time when the whole machine drained.
    pub finished_at: SimTime,
    /// Machine-global engine errors (see [`PipelineRun::errors`]).
    pub errors: Vec<String>,
    /// The machine's telemetry handle.
    pub telemetry: Telemetry,
}

impl ExperimentRun {
    /// The first thing that went wrong, as the crate's public [`Error`]:
    /// an admission rejection, or an engine-invariant violation the run
    /// survived. `None` for a clean run (a queued-but-never-admitted
    /// tenant is visible in its [`TenantRun::admission`], not here).
    pub fn first_error(&self) -> Option<Error> {
        for t in &self.tenants {
            if let AdmissionOutcome::Rejected { held, spare } = t.admission {
                return Some(Error::AdmissionRejected { tenant: t.id.clone(), held, spare });
            }
        }
        self.errors.first().map(|e| Error::Pipeline(e.clone()))
    }
}

impl Experiment {
    /// Runs this experiment to completion on a fresh kernel seeded with
    /// the cluster's seed.
    pub fn run(self) -> ExperimentRun {
        run_experiment(self)
    }
}

/// Internal admission lifecycle (the public report shape is
/// [`AdmissionOutcome`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AdmissionState {
    Admitted { at: SimTime },
    Queued,
    /// The admission protocol is running; leases happen at completion.
    AdmitInFlight,
    Rejected { held: u32, spare: u32 },
}

/// Per-tenant runtime state. The tenant's containers occupy the global
/// container vector's contiguous range `base..base + count`.
struct TenantRt {
    wl: WorkloadConfig,
    base: usize,
    count: usize,
    /// Telemetry name/track prefix (`"<id>/"` in multi-tenant runs, empty
    /// for a single tenant so the exported trace stays byte-identical to
    /// the legacy engine's).
    prefix: String,
    log: MonitorLog,
    admission: AdmissionState,
    crack_detected: bool,
    first_blocked_at: Option<SimTime>,
    disk_steps: Vec<(u64, Provenance)>,
    /// Active message-loss window for this tenant's ingress paths.
    loss: Option<(LossSampler, SimTime)>,
}

struct World {
    cluster: ClusterConfig,
    tenants: Vec<TenantRt>,
    /// Tenant index owning each container (parallel to `containers`).
    tenant_of: Vec<usize>,
    containers: Vec<ContainerState>,
    staging: StagingArea,
    telemetry: Telemetry,
    costs: TransportCosts,
    ingress_free: Vec<SimTime>,
    stalled: Vec<VecDeque<QueuedStep>>,
    /// Steps dispatched to replicas whose completion events are pending;
    /// tracked so an offline action can flush in-flight work to disk.
    in_flight: Vec<Vec<QueuedStep>>,
    action_in_flight: bool,
    last_action_at: SimTime,
    trade_count: u32,
    // Fault injection and recovery state. All of it is inert (and none of
    // it schedules events) when every tenant's fault plan is empty, so a
    // clean run's event schedule is bit-identical to a build without
    // fault injection.
    /// Per-container ingress degradation: (bandwidth factor, latency
    /// factor, expiry). Expires lazily at the next transfer — no events.
    degraded: Vec<Option<(f64, f64, SimTime)>>,
    /// Dispatch epoch per container, bumped when a crash discards the
    /// in-flight set; stale completion events from before the crash carry
    /// the old epoch and are ignored.
    epoch: Vec<u64>,
    /// When each container's local manager last heartbeat.
    heartbeat_last: Vec<SimTime>,
    /// Containers the failure detector has declared dead.
    declared_failed: Vec<bool>,
    /// Restart attempts spent per container.
    restart_attempts: Vec<u32>,
    /// Invariant violations the run survived; surfaced as
    /// [`PipelineRun::errors`].
    errors: Vec<String>,
    /// Heartbeats the global manager has received.
    heartbeats: u64,
    /// Reusable buffers for the periodic policy tick (see
    /// [`PolicyScratch`]); taken out with `mem::take` for the duration of
    /// a tick and returned with its heap blocks intact.
    scratch: PolicyScratch,
}

/// Scratch space for [`policy_tick`]. The tick rebuilds the global
/// manager's view of every tenant each round; at steady state that was
/// two fresh `Vec`s plus one `Vec<ContainerView>` per admitted tenant per
/// tick. The buffers live here across rounds instead: `queued` and
/// `tenants` are cleared in place, and each tenant's view vector is
/// drained back into `view_pool` after the decision so the next round
/// pops an already-sized allocation.
#[derive(Default)]
struct PolicyScratch {
    queued: Vec<(u32, u32)>,
    tenants: Vec<TenantPolicyView>,
    view_pool: Vec<Vec<ContainerView>>,
}

type W = Shared<World>;

impl World {
    fn new(ex: Experiment) -> World {
        let Experiment { cluster, workloads } = ex;
        let mut staging = StagingArea::with_nodes(cluster.sim_nodes, cluster.staging_nodes);
        let telemetry = Telemetry::new(cluster.telemetry);
        let multi = workloads.len() > 1;
        let mut errors = Vec::new();
        let mut tenants = Vec::with_capacity(workloads.len());
        let mut containers = Vec::new();
        let mut tenant_of = Vec::new();
        for (t, wl) in workloads.into_iter().enumerate() {
            let prefix = if multi { format!("{}/", wl.id) } else { String::new() };
            let mut log = MonitorLog::with_scoped_telemetry(telemetry.clone(), prefix.clone());
            let specs = wl.container_specs();
            let base = containers.len();
            let count = specs.len();
            // Runtime admission control: the tenant's whole initial
            // allocation must fit the spare pool, or the tenant is
            // rejected/queued as configured. (The legacy engine started
            // overcommitted configs partially; a tenant is now an
            // all-or-nothing unit.)
            let held = wl.held_nodes();
            let spare = staging.spare();
            let admission = if held <= spare {
                AdmissionState::Admitted { at: SimTime::ZERO }
            } else {
                match cluster.admission {
                    AdmissionControl::Queue => AdmissionState::Queued,
                    AdmissionControl::Reject => AdmissionState::Rejected { held, spare },
                }
            };
            let admitted = matches!(admission, AdmissionState::Admitted { .. });
            // The cost model's per-run inputs: fixed once the tenant is built.
            let (atoms, cadence) = (wl.atoms(), wl.sla.output_cadence);
            for (i, spec) in specs.into_iter().enumerate() {
                let id = ContainerId((base + i) as u32);
                log.register(id, spec.name);
                let nodes = if admitted && spec.starts_active {
                    match staging.lease(spec.initial_nodes) {
                        Ok(nodes) => nodes,
                        Err(e) => {
                            // Unreachable once held <= spare, but keep the
                            // downgrade: record, start inactive.
                            errors.push(format!("initial allocation for {}: {e}", spec.name));
                            Vec::new()
                        }
                    }
                } else {
                    Vec::new() // waiting/rejected tenants hold nothing
                };
                let mut st = ContainerState::new(id, spec, nodes, atoms, cadence);
                if !admitted || (st.spec.starts_active && st.nodes.is_empty()) {
                    st.status = Status::Inactive;
                }
                st.reset_replicas(SimTime::ZERO);
                containers.push(st);
                tenant_of.push(t);
            }
            tenants.push(TenantRt {
                wl,
                base,
                count,
                prefix,
                log,
                admission,
                crack_detected: false,
                first_blocked_at: None,
                disk_steps: Vec::new(),
                loss: None,
            });
        }
        let n = containers.len();
        World {
            cluster,
            tenants,
            tenant_of,
            containers,
            staging,
            telemetry,
            costs: TransportCosts::default(),
            ingress_free: vec![SimTime::ZERO; n],
            stalled: vec![VecDeque::new(); n],
            in_flight: vec![Vec::new(); n],
            action_in_flight: false,
            last_action_at: SimTime::ZERO,
            trade_count: 0,
            degraded: vec![None; n],
            epoch: vec![0; n],
            heartbeat_last: vec![SimTime::ZERO; n],
            declared_failed: vec![false; n],
            restart_attempts: vec![0; n],
            heartbeats: 0,
            scratch: PolicyScratch::default(),
            errors,
        }
    }

    /// Writers feeding container `ix`: a tenant's Helper is fed by its
    /// application partition's output ranks (one writer per 32 simulation
    /// nodes, the aggregation tree's leaf fan-in); everything else by the
    /// replicas of the containers its spec `depends_on` in the same
    /// tenant (CNA by Bonds, Viz by Helper).
    fn upstream_writers(&self, ix: usize) -> u32 {
        let t = &self.tenants[self.tenant_of[ix]];
        if ix == t.base + HELPER {
            return (t.wl.sim_nodes / 32).max(1);
        }
        let feeders = &self.containers[ix].spec.depends_on;
        self.tenant_slice(t.base, t.count)
            .iter()
            .filter(|c| feeders.contains(&c.spec.name))
            .map(|c| c.units().max(1))
            .sum::<u32>()
            .max(1)
    }

    /// Leases `count` spare nodes, downgrading an accounting violation
    /// (caller asked for more than the checked spare count) from a panic
    /// to a recorded error plus an empty lease.
    fn lease_or_record(&mut self, count: u32, action: &str) -> Vec<NodeId> {
        match self.staging.lease(count) {
            Ok(nodes) => nodes,
            Err(e) => {
                self.errors.push(format!("{action}: lease of {count} node(s) failed: {e}"));
                Vec::new()
            }
        }
    }

    /// Returns nodes to staging, downgrading an accounting violation
    /// (nodes not owned by the pool) from a panic to a recorded error.
    fn release_or_record(&mut self, nodes: &[NodeId], action: &str) {
        if let Err(e) = self.staging.release(nodes) {
            self.errors
                .push(format!("{action}: release of {} node(s) failed: {e}", nodes.len()));
        }
    }

    /// Ingress transfer time into container `dst` at virtual time `now`.
    ///
    /// The payload term routes through [`sim_core::widemath`] (u128
    /// ceiling division):
    /// `bytes * 1e9` overflows (pre-fix: silently saturates) `u64` already
    /// at ~18.4 GB, and truncation rounded sub-nanosecond transfers to
    /// zero. Results past `u64::MAX` nanoseconds clamp. An active NIC
    /// degradation on `dst` scales bandwidth down and the fixed overhead
    /// up; an active message-loss window may charge one retransmit. Both
    /// expire lazily here, so a faultless run schedules no extra events.
    fn transfer_time_at(&mut self, dst: usize, bytes: u64, now: SimTime) -> SimDuration {
        let mut bw = self.cluster.bandwidth_bps;
        let mut overhead = SimDuration::from_micros(6);
        match self.degraded[dst] {
            Some((bw_factor, lat_factor, until)) if now < until => {
                bw = ((bw as f64 * bw_factor.clamp(f64::MIN_POSITIVE, 1.0)) as u64).max(1);
                overhead = SimDuration::from_secs_f64(overhead.as_secs_f64() * lat_factor.max(1.0));
            }
            Some(_) => self.degraded[dst] = None,
            None => {}
        }
        let ns = sim_core::widemath::mul_div_ceil(bytes, 1_000_000_000, bw);
        let mut xfer = SimDuration::from_nanos(ns) + overhead;
        let loss = &mut self.tenants[self.tenant_of[dst]].loss;
        if loss.as_ref().is_some_and(|(_, until)| now >= *until) {
            *loss = None;
        }
        if let Some((sampler, _)) = loss {
            // A lost announcement is retransmitted after one timeout:
            // the step is never lost, it just pays the transfer twice.
            if sampler.sample() {
                xfer = xfer * 2;
            }
        }
        xfer
    }

    /// The step-accepting containers downstream of `cid` in the data path,
    /// in forwarding order; two `None`s mean the pipeline ends here. Helper
    /// fans out to both the analytics chain (Bonds) and, when launched, the
    /// visualization container; no container has more than two targets, so
    /// a fixed pair carries them without allocating. Failed and stalled
    /// analytics containers still receive steps — their queues are the
    /// recovery path's guarantee that no time step is lost while the
    /// manager reacts.
    fn downstream_targets(&self, cid: usize) -> [Option<usize>; 2] {
        let t = &self.tenants[self.tenant_of[cid]];
        let (base, count) = (t.base, t.count);
        let accepts =
            |ix: &usize| self.containers.get(*ix).is_some_and(ContainerState::accepts_steps);
        match cid - base {
            HELPER => [
                Some(base + BONDS).filter(accepts),
                Some(base + VIZ).filter(|&ix| {
                    count > VIZ && self.containers.get(ix).is_some_and(ContainerState::is_online)
                }),
            ],
            BONDS => [[base + CSYM, base + CNA].into_iter().find(accepts), None],
            _ => [None, None],
        }
    }

    /// True for the analytics chain (visualization is a side sink and does
    /// not participate in provenance or the analytics end-to-end path).
    fn is_analytics(&self, cid: usize) -> bool {
        cid - self.tenants[self.tenant_of[cid]].base < VIZ
    }

    /// Provenance for a step exiting at `cid` with downstream pruned
    /// (visualization is excluded: it owes the data nothing). Scoped to
    /// the owning tenant's analytics chain.
    fn provenance_at(&self, cid: usize) -> Provenance {
        let t = &self.tenants[self.tenant_of[cid]];
        let (base, end) = (t.base, t.base + t.count.min(VIZ));
        let local = cid - base;
        let ran: Vec<&str> = self
            .containers
            .get(base..(base + (local + 1)).min(end))
            .unwrap_or(&[])
            .iter()
            .map(|c| c.spec.name)
            .collect();
        let pruned: Vec<&str> = self
            .containers
            .get(base + local + 1..end)
            .unwrap_or(&[])
            .iter()
            .filter(|c| c.owed)
            .map(|c| c.spec.name)
            .collect();
        Provenance::from_split(&ran, &pruned)
    }

    fn queued_bytes(&self, cid: usize) -> u64 {
        self.containers[cid].queue.iter().map(|q| q.bytes).sum()
    }

    /// The `[base, base + count)` window of the flat container vec — one
    /// tenant's containers. The bounds are fixed at construction; an
    /// out-of-range window degrades to an empty slice rather than
    /// panicking.
    fn tenant_slice(&self, base: usize, count: usize) -> &[ContainerState] {
        self.containers.get(base..base + count).unwrap_or(&[])
    }
}

/// Runs one configured experiment to completion.
pub fn run_pipeline(cfg: ExperimentConfig) -> PipelineRun {
    let mut sim = Sim::new(cfg.seed);
    run_pipeline_in(&mut sim, cfg)
}

/// Runs the experiment inside a caller-built kernel — e.g. one with a
/// perturbed tie-break and tracing enabled, as the schedule-invariance
/// checker does. The kernel's RNG seed should normally match `cfg.seed`.
///
/// This is single-tenant sugar over [`run_experiment_in`]: the config is
/// wrapped in [`Experiment::single`] and the sole tenant's report is
/// returned. A single-tenant experiment schedules exactly the events the
/// legacy single-pipeline engine did, so traces stay bit-identical.
pub fn run_pipeline_in(sim: &mut Sim, cfg: ExperimentConfig) -> PipelineRun {
    let mut run = run_experiment_in(sim, Experiment::single(cfg));
    run.tenants.remove(0).run
}

/// Runs a multi-tenant experiment to completion on a fresh kernel seeded
/// with the cluster's seed.
pub fn run_experiment(ex: Experiment) -> ExperimentRun {
    let mut sim = Sim::new(ex.cluster().seed);
    run_experiment_in(&mut sim, ex)
}

/// Runs a multi-tenant experiment inside a caller-built kernel.
pub fn run_experiment_in(sim: &mut Sim, ex: Experiment) -> ExperimentRun {
    let world: W = shared(World::new(ex));
    let telemetry = world.borrow().telemetry.clone();

    // Kernel-category telemetry observes every executed event by label via
    // the kernel's event hook. The hook cannot touch the schedule, so this
    // is schedule-neutral by construction. Labels come from a small fixed
    // set of `&'static str`s, so each one's counter name is built the first
    // time it fires and found by address afterwards.
    if telemetry.enabled(Category::Kernel) {
        let tel = telemetry.clone();
        let mut keys: Vec<(&'static str, String)> = Vec::new();
        sim.set_event_hook(Box::new(move |_at, label| {
            let ix = match keys.iter().position(|&(l, _)| std::ptr::eq(l, label)) {
                Some(ix) => ix,
                None => {
                    keys.push((label, format!("kernel.{label}")));
                    keys.len() - 1
                }
            };
            tel.count(Category::Kernel, &keys[ix].1, 1);
        }));
    }

    // Application output steps, per admitted tenant, in tenant order.
    // Queued tenants emit nothing until admission launches them.
    let n_tenants = world.borrow().tenants.len();
    for t in 0..n_tenants {
        let (admitted, steps, cadence) = {
            let w = world.borrow();
            let tn = &w.tenants[t];
            (
                matches!(tn.admission, AdmissionState::Admitted { .. }),
                tn.wl.steps,
                tn.wl.cadence,
            )
        };
        if !admitted {
            continue;
        }
        for step in 0..steps {
            let w = world.clone();
            sim.schedule_at_named("ioc.emit", SimTime::ZERO + cadence * step, move |sim| {
                emit(sim, &w, t, step)
            });
        }
    }
    // Global-manager policy ticks (bounded, so the run always drains). The
    // tick count covers the slowest non-rejected tenant's emission span —
    // with a single tenant the cluster tick interval equals the tenant
    // cadence, so this reduces to the legacy `1..steps + 30` schedule —
    // doubled when a tenant waits in the admission queue so its post-
    // admission run is still managed.
    let (tick_every, ticks) = {
        let w = world.borrow();
        let tick_every = w.cluster.policy_tick_every;
        let mut span = 0u64;
        let mut any_queued = false;
        for tn in &w.tenants {
            match tn.admission {
                AdmissionState::Rejected { .. } => {}
                _ => {
                    let emit_span = (tn.wl.cadence * tn.wl.steps).as_nanos();
                    span = span.max(emit_span.div_ceil(tick_every.as_nanos().max(1)));
                }
            }
            if matches!(tn.admission, AdmissionState::Queued) {
                any_queued = true;
            }
        }
        (tick_every, if any_queued { span * 2 } else { span })
    };
    for tick in 1..(ticks + 30) {
        let w = world.clone();
        sim.schedule_at_named("ioc.policy_tick", SimTime::ZERO + tick_every * tick, move |sim| {
            policy_tick(sim, &w)
        });
    }
    // Online user directives (admitted tenants only; a queued tenant's
    // directives are scheduled relative to its admission time).
    for t in 0..n_tenants {
        let directives = {
            let w = world.borrow();
            let tn = &w.tenants[t];
            if matches!(tn.admission, AdmissionState::Admitted { .. }) {
                tn.wl.directives.clone()
            } else {
                Vec::new()
            }
        };
        for (at, directive) in directives {
            let w = world.clone();
            sim.schedule_at_named("ioc.directive", SimTime::ZERO + at, move |sim| {
                perform_directive(sim, &w, t, directive)
            });
        }
    }

    // Fault injection + heartbeat-driven recovery. Everything here is
    // gated on every non-rejected tenant's plan being empty: an empty
    // plan schedules NOTHING, so the clean run's event schedule is
    // bit-identical to a build without simfault wired in.
    let fault_tenants: Vec<usize> = {
        let w = world.borrow();
        (0..n_tenants)
            .filter(|&t| {
                !matches!(w.tenants[t].admission, AdmissionState::Rejected { .. })
                    && !w.tenants[t].wl.faults.is_empty()
            })
            .collect()
    };
    if !fault_tenants.is_empty() {
        for &t in &fault_tenants {
            let plan = world.borrow().tenants[t].wl.faults.clone();
            install_pipeline_faults(sim, &world, t, &plan);
        }
        let hb_every = world.borrow().cluster.recovery.heartbeat_every;
        let detector_lag = world.borrow().cluster.monitoring.delivery_delay;
        {
            let w = world.clone();
            sim.schedule_at_named("fault.heartbeat", SimTime::ZERO + hb_every, move |sim| {
                heartbeat_tick(sim, &w)
            });
        }
        {
            let w = world.clone();
            // The detector evaluates just after each heartbeat round has
            // been delivered to the global manager.
            sim.schedule_at_named(
                "fault.detect",
                SimTime::ZERO + hb_every + detector_lag,
                move |sim| detector_tick(sim, &w),
            );
        }
    }

    // Generous horizon: hopeless-bottleneck drains are bounded by the
    // offline action, but guard against pathological configurations. Sized
    // by the slowest non-rejected tenant.
    let horizon = {
        let w = world.borrow();
        let mut max_span = SimDuration::ZERO;
        for tn in &w.tenants {
            if !matches!(tn.admission, AdmissionState::Rejected { .. }) {
                let span = tn.wl.cadence * (tn.wl.steps + 2);
                if span > max_span {
                    max_span = span;
                }
            }
        }
        SimTime::ZERO + max_span + SimDuration::from_secs(3600 * 4)
    };
    sim.run_until(horizon);
    let finished_at = sim.now();
    if telemetry.enabled(Category::Kernel) {
        sim.clear_event_hook();
    }

    let mut w = world.borrow_mut();
    let heartbeats_delivered = w.heartbeats;
    let errors = w.errors.clone();
    let mut tenants = Vec::with_capacity(w.tenants.len());
    for t in 0..w.tenants.len() {
        let log = std::mem::replace(&mut w.tenants[t].log, MonitorLog::new());
        let tn = &w.tenants[t];
        let (base, count) = (tn.base, tn.count);
        let slice = w.tenant_slice(base, count);
        let admission = match tn.admission {
            AdmissionState::Admitted { at } => AdmissionOutcome::Admitted { at },
            AdmissionState::Queued | AdmissionState::AdmitInFlight => AdmissionOutcome::Queued,
            AdmissionState::Rejected { held, spare } => {
                AdmissionOutcome::Rejected { held, spare }
            }
        };
        let emitted =
            if matches!(admission, AdmissionOutcome::Admitted { .. }) { tn.wl.steps } else { 0 };
        let attainment = tn.wl.sla.attainment(
            emitted,
            log.e2e_series().points().iter().map(|&(_, v)| v),
            slice.iter().flat_map(|c| {
                log.latency_series(c.id)
                    .map(|s| s.points().iter().map(|&(_, v)| v).collect::<Vec<_>>())
                    .unwrap_or_default()
            }),
        );
        let run = PipelineRun {
            log,
            blocked_at: tn.first_blocked_at,
            disk_steps: tn.disk_steps.clone(),
            crack_detected: tn.crack_detected,
            offline: slice
                .iter()
                .filter(|c| matches!(c.status, Status::Offline))
                .map(|c| c.spec.name)
                .collect(),
            final_units: slice.iter().map(|c| (c.spec.name, c.units())).collect(),
            completed: slice.iter().map(|c| (c.spec.name, c.completed)).collect(),
            failed: slice
                .iter()
                .filter(|c| matches!(c.status, Status::Failed))
                .map(|c| c.spec.name)
                .collect(),
            heartbeats_delivered,
            restarts: slice
                .iter()
                .map(|c| (c.spec.name, w.restart_attempts[c.id.0 as usize]))
                .collect(),
            finished_at,
            telemetry: telemetry.clone(),
            errors: errors.clone(),
        };
        tenants.push(TenantRun { id: w.tenants[t].wl.id.clone(), admission, attainment, run });
    }
    ExperimentRun { tenants, finished_at, errors, telemetry }
}

fn emit(sim: &mut Sim, world: &W, t: usize, step: u64) {
    let (helper, arrival, qstep) = {
        let mut w = world.borrow_mut();
        let helper = w.tenants[t].base + HELPER;
        let bytes = w.tenants[t].wl.step_bytes();
        let xfer = w.transfer_time_at(helper, bytes, sim.now());
        let start = sim.now().max(w.ingress_free[helper]);
        let arrival = start + xfer;
        w.ingress_free[helper] = arrival;
        (
            helper,
            arrival,
            QueuedStep { step, bytes, entered: arrival, emitted: sim.now() },
        )
    };
    let w = world.clone();
    sim.schedule_at_named("ioc.arrive", arrival, move |sim| arrive(sim, &w, helper, qstep));
}

fn arrive(sim: &mut Sim, world: &W, cid: usize, mut qstep: QueuedStep) {
    {
        let mut w = world.borrow_mut();
        let t = w.tenant_of[cid];
        match w.containers[cid].status {
            Status::Offline | Status::Inactive => {
                // Mid-flight data landing on a pruned container goes to
                // disk, labeled with its provenance.
                let base = w.tenants[t].base;
                let local = cid - base;
                let prov = w.provenance_at(base + local.saturating_sub(1));
                w.containers[cid].bypassed += 1;
                w.tenants[t].disk_steps.push((qstep.step, prov));
                let at = sim.now();
                let e2e = at.since(qstep.emitted);
                w.tenants[t].log.record_e2e(at, e2e);
                return;
            }
            // Failed/stalled containers keep queueing arrivals: recovery
            // must lose no time step, so data waits for the restart (or is
            // flushed to disk with provenance by the offline fallback).
            Status::Online | Status::Resizing { .. } | Status::Failed | Status::Stalled { .. } => {
                let cap = w.containers[cid].spec.queue_capacity;
                if w.containers[cid].queue.len() >= cap {
                    // Overflow: the application (or upstream stage) blocks.
                    if !w.containers[cid].overflowed {
                        w.containers[cid].overflowed = true;
                        let id = w.containers[cid].id;
                        let at = sim.now();
                        w.tenants[t].log.record_action(at, Action::Blocked { container: id });
                        if w.tenants[t].first_blocked_at.is_none() {
                            w.tenants[t].first_blocked_at = Some(at);
                        }
                    }
                    w.stalled[cid].push_back(qstep);
                    return;
                }
                qstep.entered = sim.now();
                w.containers[cid].queue.push_back(qstep);
            }
        }
    }
    try_dispatch(sim, world, cid);
}

fn try_dispatch(sim: &mut Sim, world: &W, cid: usize) {
    loop {
        let dispatched = {
            let mut w = world.borrow_mut();
            if w.containers[cid].status != Status::Online || w.containers[cid].queue.is_empty() {
                None
            } else {
                let now = sim.now();
                let t = w.tenant_of[cid];
                let monitoring = w.cluster.monitoring;
                let c = &mut w.containers[cid];
                match (c.next_free_replica(), c.queue.pop_front()) {
                    (Some(idx), Some(qstep)) if c.replica_free[idx] <= now => {
                        let mut service = c.step_time();
                        if monitoring.samples_step(qstep.step) {
                            service += monitoring.per_sample_cost;
                        }
                        let done = now + service;
                        c.replica_free[idx] = done;
                        w.in_flight[cid].push(qstep);
                        if w.telemetry.enabled(Category::Container) {
                            let track = format!(
                                "{}{}",
                                w.tenants[t].prefix, w.containers[cid].spec.name
                            );
                            w.telemetry.span(Category::Container, &track, "step", now, done);
                        }
                        // Accept a stalled step into the freed queue slot.
                        if let Some(mut s) = w.stalled[cid].pop_front() {
                            s.entered = now;
                            w.containers[cid].queue.push_back(s);
                        }
                        Some((qstep, done, w.epoch[cid]))
                    }
                    (_, Some(qstep)) => {
                        // No replica free yet: the step goes back where it
                        // came from and this dispatch round ends.
                        c.queue.push_front(qstep);
                        None
                    }
                    (_, None) => None,
                }
            }
        };
        match dispatched {
            Some((qstep, done, epoch)) => {
                let w = world.clone();
                sim.schedule_at_named("ioc.complete", done, move |sim| {
                    complete(sim, &w, cid, qstep, epoch)
                });
            }
            None => break,
        }
    }
}

fn complete(sim: &mut Sim, world: &W, cid: usize, qstep: QueuedStep, epoch: u64) {
    let now = sim.now();
    let mut activate_branch = false;
    let (t, sample, forward) = {
        let mut w = world.borrow_mut();
        let t = w.tenant_of[cid];
        // A crash between dispatch and completion discarded this replica's
        // work (the step went back to the queue under a new epoch).
        if w.epoch[cid] != epoch {
            return;
        }
        // If the offline protocol already flushed this step to disk, the
        // replica's work was discarded along with the container.
        let Some(pos) = w.in_flight[cid].iter().position(|q| q.step == qstep.step) else {
            return;
        };
        w.in_flight[cid].swap_remove(pos);
        if matches!(w.containers[cid].status, Status::Offline) {
            // Retired mid-step (dynamic branch): the work is still valid
            // output, but the container no longer reports or forwards.
            w.tenants[t].log.record_e2e(now, now.since(qstep.emitted));
            return;
        }
        let latency = now.since(qstep.entered);
        let c = &mut w.containers[cid];
        c.latency_window.push(latency);
        c.completed += 1;
        let sample = LatencySample {
            container: c.id,
            step: qstep.step,
            latency,
            queue_len: c.queue.len(),
            taken_at: now,
        };
        if w.telemetry.enabled(Category::Sla) && w.tenants[t].wl.sla.container_violated(latency) {
            let prefix = &w.tenants[t].prefix;
            let track = format!("{}{}", prefix, w.containers[cid].spec.name);
            let counter = format!("{prefix}sla.violations");
            w.telemetry.mark(Category::Sla, &track, "sla.violation", now);
            w.telemetry.count(Category::Sla, &counter, 1);
        }

        // Dynamic branch: CSym detecting the break retires itself and
        // activates CNA (which then reads from Bonds).
        let base = w.tenants[t].base;
        if cid == base + CSYM && !w.tenants[t].crack_detected {
            if let Some(crack_at) = w.tenants[t].wl.crack_at_step {
                if qstep.step >= crack_at {
                    activate_branch = true;
                }
            }
        }

        let targets = w.downstream_targets(cid);
        let analytics_targets =
            targets.iter().flatten().filter(|&&dst| w.is_analytics(dst)).count();
        let bytes = (qstep.bytes as f64 * w.containers[cid].spec.output_ratio) as u64;
        let forward = targets.map(|dst| {
            let dst = dst?;
            let xfer = w.transfer_time_at(dst, bytes, now);
            let start = now.max(w.ingress_free[dst]);
            let arrival = start + xfer;
            w.ingress_free[dst] = arrival;
            Some((dst, arrival, QueuedStep { bytes, entered: arrival, ..qstep }))
        });
        if analytics_targets == 0 && w.is_analytics(cid) {
            // Analytics-path exit: record end-to-end latency; if downstream
            // was pruned by policy, the step goes to disk with provenance.
            w.tenants[t].log.record_e2e(now, now.since(qstep.emitted));
            let end = base + w.tenants[t].count.min(VIZ);
            let owes_downstream =
                w.containers.get(cid + 1..end).is_some_and(|cs| cs.iter().any(|c| c.owed));
            if owes_downstream {
                let prov = w.provenance_at(cid);
                w.tenants[t].disk_steps.push((qstep.step, prov));
            }
        }
        (t, sample, forward)
    };

    if activate_branch {
        perform_branch(sim, world, t);
    }

    for (dst, arrival, fwd) in forward.into_iter().flatten() {
        let w = world.clone();
        sim.schedule_at_named("ioc.arrive", arrival, move |sim| arrive(sim, &w, dst, fwd));
    }

    // Local manager reports to the global manager over the control
    // overlay, at the configured sampling frequency.
    let monitoring = world.borrow().cluster.monitoring;
    if monitoring.samples_step(sample.step) {
        let w = world.clone();
        sim.schedule_in_named("ioc.monitor", monitoring.delivery_delay, move |_sim| {
            w.borrow_mut().tenants[t].log.record(&sample);
        });
    }

    // The completing replica is free again.
    try_dispatch(sim, world, cid);
}

/// Activates an inactive container, leasing up to its configured node
/// count from the spare pool. Returns `false` (and does nothing) when the
/// container is not inactive or no node is available.
fn activate_container(sim: &mut Sim, world: &W, ix: usize) -> bool {
    let now = sim.now();
    let activated = {
        let mut w = world.borrow_mut();
        if w.containers[ix].status != Status::Inactive {
            false
        } else {
            let want = w.containers[ix].spec.initial_nodes.max(1);
            let take = want.min(w.staging.spare());
            let nodes = if take == 0 { Vec::new() } else { w.lease_or_record(take, "activate") };
            if nodes.is_empty() {
                false
            } else {
                let t = w.tenant_of[ix];
                let c = &mut w.containers[ix];
                c.nodes = nodes;
                c.reset_replicas(now);
                c.status = Status::Online;
                let id = c.id;
                w.tenants[t].log.record_action(now, Action::Activate { container: id });
                true
            }
        }
    };
    if activated {
        try_dispatch(sim, world, ix);
    }
    activated
}

/// Executes an online user directive at the global manager.
fn perform_directive(sim: &mut Sim, world: &W, t: usize, directive: Directive) {
    let target = {
        let w = world.borrow();
        let (base, count) = (w.tenants[t].base, w.tenants[t].count);
        let name = match directive {
            Directive::LaunchViz => "Viz",
            Directive::Activate(name) => name,
        };
        w.tenant_slice(base, count)
            .iter()
            .position(|c| c.spec.name == name)
            .map(|local| base + local)
    };
    if let Some(ix) = target {
        activate_container(sim, world, ix);
    }
}

/// Tenant `t`'s CSym detected the break: retire CSym, activate CNA on
/// CSym's nodes plus whatever spare nodes its allocation calls for.
fn perform_branch(sim: &mut Sim, world: &W, t: usize) {
    let (csym, cna) = {
        let mut w = world.borrow_mut();
        w.tenants[t].crack_detected = true;
        let base = w.tenants[t].base;
        let (csym, cna) = (base + CSYM, base + CNA);

        // Retire CSym (its question is answered); not "owed" work.
        let released: Vec<_> = std::mem::take(&mut w.containers[csym].nodes);
        w.containers[csym].status = Status::Offline;
        w.containers[csym].replica_free.clear();
        w.release_or_record(&released, "retire CSym");
        (csym, cna)
    };
    // CNA activates on the released nodes (plus any other spares).
    activate_container(sim, world, cna);
    {
        // Steps queued at CSym still need the post-break analysis.
        let mut w = world.borrow_mut();
        let pending: Vec<_> = w.containers[csym].queue.drain(..).collect();
        for q in pending {
            w.containers[cna].queue.push_back(q);
        }
    }
    try_dispatch(sim, world, cna);
}

/// Periodic global-manager evaluation: build per-tenant local-manager
/// views, run the pure cluster policy (admission first, then fair-share
/// rebalancing with cross-tenant steal), execute the decision.
fn policy_tick(sim: &mut Sim, world: &W) {
    let decision = {
        let mut w = world.borrow_mut();
        if !w.cluster.policy.enabled
            || w.action_in_flight
            || sim.now() < w.last_action_at + w.cluster.policy.cooldown
        {
            return;
        }
        w.telemetry.count(Category::Management, "policy.rounds", 1);
        // The tick's buffers are recycled across rounds (see
        // [`PolicyScratch`]); take them out so the build below can hold a
        // shared borrow of the world.
        let mut scratch = std::mem::take(&mut w.scratch);
        {
            let w = &*w;
            let total_weight: u64 = w
                .tenants
                .iter()
                .filter(|tn| matches!(tn.admission, AdmissionState::Admitted { .. }))
                .map(|tn| tn.wl.weight as u64)
                .sum();
            scratch.queued.extend(
                w.tenants
                    .iter()
                    .enumerate()
                    .filter(|(_, tn)| matches!(tn.admission, AdmissionState::Queued))
                    .map(|(i, tn)| (i as u32, tn.wl.held_nodes())),
            );
            for (i, tn) in w.tenants.iter().enumerate() {
                if !matches!(tn.admission, AdmissionState::Admitted { .. }) {
                    continue;
                }
                let mut views = scratch.view_pool.pop().unwrap_or_default();
                views.extend(w.tenant_slice(tn.base, tn.count).iter().map(|c| {
                    // The head-of-line age bounds the next completion's
                    // latency from below; it lets the manager see a starving
                    // queue even before the first (very slow) completion.
                    let head_age = c
                        .queue
                        .front()
                        .map(|q| sim.now().since(q.entered))
                        .unwrap_or(SimDuration::ZERO);
                    let avg = c.latency_window.mean().max(head_age);
                    ContainerView {
                        id: c.id,
                        online: c.status == Status::Online,
                        essential: c.spec.essential,
                        units: c.units(),
                        needed: c.units_needed(),
                        spareable: c.units_spareable(),
                        queue_len: c.queue.len() + w.stalled[c.id.0 as usize].len(),
                        queue_capacity: c.spec.queue_capacity,
                        avg_latency: avg,
                        samples: c.latency_window.len() + c.queue.len(),
                    }
                }));
                let held: u32 = views.iter().map(|v| v.units).sum();
                let fair_share = (w.cluster.staging_nodes as u64 * tn.wl.weight as u64
                    / total_weight.max(1)) as u32;
                scratch.tenants.push(TenantPolicyView {
                    tenant: i as u32,
                    sla: tn.wl.sla,
                    fair_share,
                    held,
                    views,
                });
            }
        }
        let decision =
            decide_cluster(&w.cluster.policy, &scratch.tenants, &scratch.queued, w.staging.spare());
        scratch.queued.clear();
        for mut tv in scratch.tenants.drain(..) {
            tv.views.clear();
            scratch.view_pool.push(tv.views);
        }
        w.scratch = scratch;
        decision
    };

    match decision {
        ClusterDecision::None => {}
        ClusterDecision::Admit { tenant } => perform_admission(sim, world, tenant as usize),
        ClusterDecision::Act { decision, .. } => match decision {
            Decision::None => {}
            Decision::Rebalance { target, lease_spare, steal } => {
                perform_rebalance(sim, world, target, lease_spare, steal);
            }
            Decision::Offline { target } => perform_offline(sim, world, target),
            // The SLA policy never restarts; that decision belongs to the
            // failure detector's recovery path.
            Decision::Restart { .. } => {}
        },
        ClusterDecision::CrossSteal { target, lease_spare, donor, take, .. } => {
            perform_rebalance(sim, world, target, lease_spare, Some((donor, take)));
        }
    }
}

/// Launches a queued tenant: the admission protocol (container launches
/// plus DataTap reader registration for every initially active stage) runs
/// for its estimated duration, then the tenant's leases are taken and its
/// emission/directive schedule begins relative to the admission time.
fn perform_admission(sim: &mut Sim, world: &W, t: usize) {
    let duration = {
        let mut w = world.borrow_mut();
        w.action_in_flight = true;
        w.tenants[t].admission = AdmissionState::AdmitInFlight;
        let tn = &w.tenants[t];
        let mut writers = (tn.wl.sim_nodes / 32).max(1);
        let mut stages = Vec::new();
        for c in w.tenant_slice(tn.base, tn.count) {
            if c.spec.starts_active {
                stages.push((writers, c.spec.initial_nodes.max(1)));
                writers = c.spec.initial_nodes.max(1);
            }
        }
        estimate::admission(&stages, &w.costs, PER_MSG) + w.cluster.launch.sample(sim)
    };
    let w2 = world.clone();
    sim.schedule_in_named("ioc.admit", duration, move |sim| {
        let now = sim.now();
        let launched = {
            let mut w = w2.borrow_mut();
            let held = w.tenants[t].wl.held_nodes();
            let spare = w.staging.spare();
            if held > spare {
                // The machine filled up while the protocol ran: back to
                // the queue, try again at a later tick.
                w.tenants[t].admission = AdmissionState::Queued;
                w.action_in_flight = false;
                w.last_action_at = now;
                false
            } else {
                let (base, count) = (w.tenants[t].base, w.tenants[t].count);
                for ix in base..base + count {
                    if !w.containers[ix].spec.starts_active {
                        continue;
                    }
                    let want = w.containers[ix].spec.initial_nodes;
                    let nodes = w.lease_or_record(want, "admission");
                    let c = &mut w.containers[ix];
                    c.nodes = nodes;
                    c.status = Status::Online;
                    c.reset_replicas(now);
                    let id = c.id;
                    w.heartbeat_last[ix] = now;
                    w.tenants[t].log.record_action(now, Action::Activate { container: id });
                }
                w.tenants[t].admission = AdmissionState::Admitted { at: now };
                w.action_in_flight = false;
                w.last_action_at = now;
                true
            }
        };
        if !launched {
            return;
        }
        // The tenant's application starts emitting now; its directives are
        // relative to its own start.
        let (steps, cadence, directives, base, count) = {
            let w = w2.borrow();
            let tn = &w.tenants[t];
            (tn.wl.steps, tn.wl.cadence, tn.wl.directives.clone(), tn.base, tn.count)
        };
        for step in 0..steps {
            let w = w2.clone();
            sim.schedule_at_named("ioc.emit", now + cadence * step, move |sim| {
                emit(sim, &w, t, step)
            });
        }
        for (at, directive) in directives {
            let w = w2.clone();
            sim.schedule_at_named("ioc.directive", now + at, move |sim| {
                perform_directive(sim, &w, t, directive)
            });
        }
        for ix in base..base + count {
            try_dispatch(sim, &w2, ix);
        }
    });
}

fn perform_rebalance(
    sim: &mut Sim,
    world: &W,
    target: ContainerId,
    lease_spare: u32,
    steal: Option<(ContainerId, u32)>,
) {
    world.borrow_mut().action_in_flight = true;
    match steal {
        Some((donor, k)) => {
            // A trade moves a resource between two containers; guarded by
            // a D2T control transaction it either fully commits or rolls
            // back with nothing moved. The transaction is simulated over
            // the control plane (a separate event context: it involves
            // only manager traffic) and its duration and outcome are
            // charged here.
            let (txn_duration, aborted) = {
                let mut w = world.borrow_mut();
                let trade_ix = w.trade_count;
                w.trade_count += 1;
                let inject = w.cluster.trade_faults.contains(&trade_ix);
                let writers = w.containers[donor.0 as usize].units().max(1);
                let readers = w.containers[target.0 as usize].units().max(1);
                let mut txn_sim = Sim::new(w.cluster.seed ^ (0xD2D2 + trade_ix as u64));
                let net = Network::new(NetworkConfig::portals_xt4());
                let cfg = TxnConfig { writers, readers, ..TxnConfig::default() };
                let mut faults = FaultPlan::default();
                if inject {
                    faults.drop_writer_votes.insert(0);
                }
                let report = run_transaction(&mut txn_sim, &net, &cfg, &faults);
                (report.duration, report.decision == d2t::Decision::Abort)
            };
            let w2 = world.clone();
            if aborted {
                // Roll back: nothing moved; retry after the cooldown.
                sim.schedule_in_named("ioc.trade_txn", txn_duration, move |sim| {
                    let mut w = w2.borrow_mut();
                    let at = sim.now();
                    let t = w.tenant_of[target.0 as usize];
                    w.tenants[t]
                        .log
                        .record_action(at, Action::TradeAborted { donor, recipient: target });
                    w.action_in_flight = false;
                    w.last_action_at = at;
                });
            } else {
                // Committed: proceed with the physical trade after the
                // transaction completes.
                sim.schedule_in_named("ioc.trade_txn", txn_duration, move |sim| {
                    start_steal(sim, &w2, target, donor, k, lease_spare);
                });
            }
        }
        None => start_increase(sim, world, target, lease_spare, ResourceSource::Spare),
    }
}

/// The physical trade: decrease the donor, then grow the target with the
/// stolen (plus any spare) nodes.
fn start_steal(
    sim: &mut Sim,
    world: &W,
    target: ContainerId,
    donor: ContainerId,
    k: u32,
    lease_spare: u32,
) {
            // Phase 1: decrease the donor (pausing its upstream writers).
            let dec_duration = {
                let mut w = world.borrow_mut();
                let donor_ix = donor.0 as usize;
                let upstream_writers = w.upstream_writers(donor_ix);
                let queued = w.queued_bytes(donor_ix);
                let d = estimate::decrease(
                    upstream_writers,
                    k,
                    &w.costs,
                    PER_MSG,
                    queued / upstream_writers.max(1) as u64,
                    w.cluster.bandwidth_bps,
                );
                w.containers[donor_ix].status = Status::Resizing { until: sim.now() + d };
                d
            };
            let w2 = world.clone();
            sim.schedule_in_named("ioc.trade_dec", dec_duration, move |sim| {
                let source = {
                    let mut w = w2.borrow_mut();
                    let donor_ix = donor.0 as usize;
                    let keep = w.containers[donor_ix].nodes.len().saturating_sub(k as usize);
                    let removed: Vec<_> = w.containers[donor_ix].nodes.split_off(keep);
                    w.release_or_record(&removed, "trade decrease");
                    w.containers[donor_ix].status = Status::Online;
                    let now = sim.now();
                    w.containers[donor_ix].reset_replicas(now);
                    let dt = w.tenant_of[donor_ix];
                    w.tenants[dt].log.record_action(
                        now,
                        Action::Decrease { container: donor, removed: k },
                    );
                    // A foreign donor is recorded distinctly in the
                    // recipient's action log.
                    if dt == w.tenant_of[target.0 as usize] {
                        ResourceSource::StolenFrom(donor)
                    } else {
                        ResourceSource::StolenFromTenant { tenant: dt as u32, container: donor }
                    }
                };
                try_dispatch(sim, &w2, donor.0 as usize);
                start_increase(sim, &w2, target, lease_spare + k, source);
            });
}

fn start_increase(sim: &mut Sim, world: &W, target: ContainerId, add: u32, source: ResourceSource) {
    let inc_duration = {
        let mut w = world.borrow_mut();
        let tix = target.0 as usize;
        let upstream_writers = w.upstream_writers(tix);
        let proto = estimate::increase(upstream_writers, add, &w.costs, PER_MSG);
        let launch = w.cluster.launch;
        let total = proto + launch.sample(sim);
        w.containers[tix].status = Status::Resizing { until: sim.now() + total };
        total
    };
    let w2 = world.clone();
    sim.schedule_in_named("ioc.trade_inc", inc_duration, move |sim| {
        {
            let mut w = w2.borrow_mut();
            let tix = target.0 as usize;
            let add = add.min(w.staging.spare());
            if add > 0 {
                let nodes = w.lease_or_record(add, "trade increase");
                w.containers[tix].nodes.extend(nodes);
            }
            let units = w.containers[tix].units();
            let replicas = w.containers[tix].spec.effective_replicas(units);
            // New replicas are free immediately; existing ones keep their
            // in-flight work (conservatively reset to now: in-flight steps
            // already have completion events scheduled).
            let mut frees = w.containers[tix].replica_free.clone();
            frees.resize(replicas, sim.now());
            w.containers[tix].replica_free = frees;
            w.containers[tix].status = Status::Online;
            let at = sim.now();
            let t = w.tenant_of[tix];
            w.tenants[t]
                .log
                .record_action(at, Action::Increase { container: target, added: add, source });
            w.action_in_flight = false;
            w.last_action_at = at;
        }
        try_dispatch(sim, &w2, target.0 as usize);
    });
}

fn perform_offline(sim: &mut Sim, world: &W, target: ContainerId) {
    let now = sim.now();
    let mut w = world.borrow_mut();
    let tix = target.0 as usize;
    let t = w.tenant_of[tix];
    let (base, count) = (w.tenants[t].base, w.tenants[t].count);

    // Cascade: the target plus everything downstream (within the owning
    // tenant's pipeline) that depends on it (transitively) and is not
    // already offline.
    let mut cascade = vec![tix];
    for i in tix + 1..base + count {
        if matches!(w.containers[i].status, Status::Offline) {
            continue;
        }
        let deps = &w.containers[i].spec.depends_on;
        let depends_on_cascade =
            cascade.iter().any(|&c| deps.contains(&w.containers[c].spec.name));
        if depends_on_cascade {
            cascade.push(i);
        }
    }

    let mut ids = Vec::with_capacity(cascade.len());
    for &ix in &cascade {
        let released: Vec<_> = std::mem::take(&mut w.containers[ix].nodes);
        if !released.is_empty() {
            w.release_or_record(&released, "offline cascade");
        }
        w.containers[ix].status = Status::Offline;
        w.containers[ix].owed = true;
        w.containers[ix].replica_free.clear();
        ids.push(w.containers[ix].id);
    }

    // Flush queued and stalled steps of the pruned containers to disk with
    // provenance: they were processed up to the container before the cut.
    let local = tix - base;
    let prov = w.provenance_at(base + local.saturating_sub(1));
    for &ix in &cascade {
        let mut drained: Vec<_> = w.containers[ix].queue.drain(..).collect();
        drained.extend(w.stalled[ix].drain(..));
        drained.append(&mut w.in_flight[ix]);
        for q in drained {
            w.tenants[t].disk_steps.push((q.step, prov.clone()));
            w.tenants[t].log.record_e2e(now, now.since(q.emitted));
        }
    }

    w.tenants[t].log.record_action(now, Action::Offline { containers: ids });
    w.last_action_at = now;
}

// ---------------------------------------------------------------------------
// Fault injection and heartbeat-driven recovery.
//
// None of this runs for an empty fault plan: `run_pipeline_in` schedules the
// injectors, the heartbeat chain, and the detector chain only when the plan
// has events, so a clean run's schedule (and trace hash) is bit-identical to
// a build without fault support.
// ---------------------------------------------------------------------------

/// True once every tenant is terminal: rejected tenants trivially, queued
/// tenants never (the detector keeps running so admission can still act),
/// admitted tenants once every emitted step has exited the pipeline
/// (processed or written to disk) — the signal for the self-rescheduling
/// heartbeat and detector chains to stop instead of running to the
/// horizon.
fn run_drained(w: &World) -> bool {
    w.tenants.iter().all(|tn| match tn.admission {
        AdmissionState::Rejected { .. } => true,
        AdmissionState::Queued | AdmissionState::AdmitInFlight => false,
        AdmissionState::Admitted { .. } => tn.log.e2e_series().len() as u64 >= tn.wl.steps,
    })
}

fn install_pipeline_faults(sim: &mut Sim, world: &W, t: usize, plan: &simfault::FaultPlan) {
    for (ev_ix, ev) in plan.events().iter().enumerate() {
        let fault = ev.fault;
        let seed = plan.seed;
        let w = world.clone();
        sim.schedule_at_named("fault.inject", SimTime::ZERO + ev.at, move |sim| {
            inject(sim, &w, t, fault, seed, ev_ix)
        });
    }
}

/// Marks a fault on the owning tenant's fault track (unprefixed in
/// single-tenant runs, matching the legacy trace byte for byte).
fn fault_mark(w: &World, t: usize, label: &str, now: SimTime) {
    if w.telemetry.enabled(Category::Fault) {
        let track = format!("{}fault", w.tenants[t].prefix);
        w.telemetry.mark(Category::Fault, &track, label, now);
    }
}

fn inject(sim: &mut Sim, world: &W, t: usize, fault: Fault, plan_seed: u64, ev_ix: usize) {
    let now = sim.now();
    match fault {
        Fault::NodeCrash { node } => crash_node(sim, world, NodeId(node)),
        Fault::NodeDegrade { node, bandwidth_factor, latency_factor, lasts } => {
            let mut w = world.borrow_mut();
            if let Some(ix) = w.containers.iter().position(|c| c.nodes.contains(&NodeId(node))) {
                w.degraded[ix] = Some((bandwidth_factor, latency_factor, now + lasts));
                let name = w.containers[ix].spec.name;
                let owner = w.tenant_of[ix];
                fault_mark(&w, owner, &format!("degrade {name}"), now);
            }
        }
        Fault::MessageLoss { probability, lasts } => {
            let mut w = world.borrow_mut();
            // Sampler seeding mirrors simfault's network hook: the plan
            // seed XOR the event index, so the draw sequence is a pure
            // function of (seed, plan) — the sanctioned determinism escape.
            let sampler = LossSampler::new(plan_seed ^ (0xFA17 + ev_ix as u64), probability);
            w.tenants[t].loss = Some((sampler, now + lasts));
            fault_mark(&w, t, "loss window opens", now);
        }
        Fault::ContainerCrash { container } => {
            let target = {
                let w = world.borrow();
                let tn = &w.tenants[t];
                w.tenant_slice(tn.base, tn.count)
                    .iter()
                    .position(|c| c.spec.name == container)
                    .map(|local| tn.base + local)
            };
            if let Some(ix) = target {
                fail_container(sim, world, ix);
            }
        }
        Fault::ContainerStall { container, lasts } => {
            let target = {
                let w = world.borrow();
                let tn = &w.tenants[t];
                w.tenant_slice(tn.base, tn.count)
                    .iter()
                    .position(|c| c.spec.name == container)
                    .map(|local| tn.base + local)
            };
            if let Some(ix) = target {
                stall_container(sim, world, ix, lasts);
            }
        }
    }
}

/// A staging-node crash: the node leaves the pool forever
/// ([`StagingArea::fail_node`]); a container holding it shrinks, and
/// shrinking to zero nodes is a container crash.
fn crash_node(sim: &mut Sim, world: &W, node: NodeId) {
    let now = sim.now();
    let dead_container = {
        let mut w = world.borrow_mut();
        match w.containers.iter().position(|c| c.nodes.contains(&node)) {
            Some(ix) => {
                w.containers[ix].nodes.retain(|&n| n != node);
                w.staging.fail_node(node);
                let units = w.containers[ix].units();
                if units == 0 {
                    Some(ix)
                } else {
                    // Surviving replicas absorb the load; in-flight work is
                    // conservatively kept (completion events already
                    // scheduled), only capacity shrinks.
                    w.containers[ix].reset_replicas(now);
                    let name = w.containers[ix].spec.name;
                    let owner = w.tenant_of[ix];
                    fault_mark(&w, owner, &format!("node {} down ({name})", node.0), now);
                    None
                }
            }
            None => {
                w.staging.fail_node(node);
                None
            }
        }
    };
    if let Some(ix) = dead_container {
        fail_container(sim, world, ix);
    }
}

/// Executes a container crash: fence its nodes (a fenced node never
/// returns to the pool), send in-flight work back to the head of the queue
/// in step order under a new dispatch epoch (the work is lost, the data is
/// not), and mark the container failed. The global manager learns of the
/// crash only through missed heartbeats.
fn fail_container(sim: &mut Sim, world: &W, ix: usize) {
    let now = sim.now();
    let mut w = world.borrow_mut();
    if !matches!(
        w.containers[ix].status,
        Status::Online | Status::Resizing { .. } | Status::Stalled { .. }
    ) {
        return;
    }
    let nodes = std::mem::take(&mut w.containers[ix].nodes);
    for n in &nodes {
        w.staging.fail_node(*n);
    }
    w.epoch[ix] += 1;
    let mut inflight = std::mem::take(&mut w.in_flight[ix]);
    inflight.sort_by_key(|q| q.step);
    for q in inflight.into_iter().rev() {
        w.containers[ix].queue.push_front(q);
    }
    w.containers[ix].replica_free.clear();
    w.containers[ix].status = Status::Failed;
    if w.telemetry.enabled(Category::Fault) {
        let name = w.containers[ix].spec.name;
        let owner = w.tenant_of[ix];
        fault_mark(&w, owner, &format!("crash {name}"), now);
        let counter = format!("{}fault.container_crashes", w.tenants[owner].prefix);
        w.telemetry.count(Category::Fault, &counter, 1);
    }
}

/// Wedges an online container until `lasts` elapses: intake continues and
/// in-service steps finish, but nothing new is dispatched. Its local
/// manager stops heartbeating, so a stall outlasting the miss window is
/// (correctly) indistinguishable from a crash to the detector, which will
/// fence and restart it.
fn stall_container(sim: &mut Sim, world: &W, ix: usize, lasts: SimDuration) {
    let until = sim.now() + lasts;
    {
        let mut w = world.borrow_mut();
        if w.containers[ix].status != Status::Online {
            return;
        }
        w.containers[ix].status = Status::Stalled { until };
        let name = w.containers[ix].spec.name;
        let owner = w.tenant_of[ix];
        fault_mark(&w, owner, &format!("stall {name}"), sim.now());
    }
    let w2 = world.clone();
    sim.schedule_at_named("fault.unstall", until, move |sim| {
        let resumed = {
            let mut w = w2.borrow_mut();
            if matches!(w.containers[ix].status, Status::Stalled { .. }) {
                w.containers[ix].status = Status::Online;
                true
            } else {
                false // fenced or restarted meanwhile
            }
        };
        if resumed {
            try_dispatch(sim, &w2, ix);
        }
    });
}

/// One heartbeat round: every live (online or resizing) container's local
/// manager beats; the beat lands in the global manager's table and is
/// counted. Reschedules itself until the run drains.
fn heartbeat_tick(sim: &mut Sim, world: &W) {
    let now = sim.now();
    let (done, every) = {
        let mut w = world.borrow_mut();
        let done = run_drained(&w);
        if !done {
            for ix in 0..w.containers.len() {
                if w.containers[ix].is_online() {
                    w.heartbeat_last[ix] = now;
                    w.heartbeats += 1;
                }
            }
        }
        (done, w.cluster.recovery.heartbeat_every)
    };
    if !done {
        let w = world.clone();
        sim.schedule_in_named("fault.heartbeat", every, move |sim| heartbeat_tick(sim, &w));
    }
}

/// One failure-detector round at the global manager: declare any watched
/// container whose heartbeats stopped for `miss_limit` periods, then run
/// the pure recovery policy for (at most one) declared-dead container —
/// restart on spares, or fall back to offline staging. Reschedules itself
/// until the run drains.
fn detector_tick(sim: &mut Sim, world: &W) {
    let now = sim.now();
    let (done, every, newly_declared) = {
        let mut w = world.borrow_mut();
        let done = run_drained(&w);
        let mut newly = Vec::new();
        if !done {
            let miss_limit = w.cluster.recovery.miss_limit;
            let window = w.cluster.recovery.heartbeat_every * miss_limit as u64;
            for ix in 0..w.containers.len() {
                if w.declared_failed[ix] {
                    continue;
                }
                // Offline and inactive are deliberate manager states, not
                // failures; everything else is expected to heartbeat.
                let watched = matches!(
                    w.containers[ix].status,
                    Status::Online
                        | Status::Resizing { .. }
                        | Status::Stalled { .. }
                        | Status::Failed
                );
                if watched && now.since(w.heartbeat_last[ix]) > window {
                    w.declared_failed[ix] = true;
                    let id = w.containers[ix].id;
                    let t = w.tenant_of[ix];
                    w.tenants[t].log.record_action(
                        now,
                        Action::ContainerFailed { container: id, missed: miss_limit },
                    );
                    newly.push(ix);
                }
            }
        }
        (done, w.cluster.recovery.heartbeat_every, newly)
    };
    // Fence newly declared containers (the manager cannot distinguish a
    // dead process from a wedged one, so their nodes are fenced either
    // way before recovery reallocates).
    for ix in newly_declared {
        fail_container(sim, world, ix);
    }

    let decision = {
        let w = world.borrow();
        if done || w.action_in_flight {
            None
        } else {
            w.containers
                .iter()
                .enumerate()
                .find(|&(ix, c)| w.declared_failed[ix] && matches!(c.status, Status::Failed))
                .map(|(ix, c)| {
                    let view = FailureView {
                        id: c.id,
                        needed: c.units_needed(),
                        restarts_so_far: w.restart_attempts[ix],
                    };
                    decide_recovery(&w.cluster.recovery, &view, w.staging.spare())
                })
        }
    };
    match decision {
        Some(Decision::Restart { target, lease_spare }) => {
            perform_restart(sim, world, target, lease_spare);
        }
        Some(Decision::Offline { target }) => {
            // No spares (or retry budget spent): generalized offline
            // staging — upstream output goes to disk with provenance.
            perform_offline(sim, world, target);
        }
        _ => {}
    }

    if !done {
        let w = world.clone();
        sim.schedule_in_named("fault.detect", every, move |sim| detector_tick(sim, &w));
    }
}

/// Restarts a failed container on `lease_spare` spare staging nodes.
/// The duration charges the full endpoint re-setup
/// ([`estimate::restart`]), the configured launch cost, and a linear
/// virtual-time backoff per prior attempt.
fn perform_restart(sim: &mut Sim, world: &W, target: ContainerId, lease_spare: u32) {
    let ix = target.0 as usize;
    let total = {
        let mut w = world.borrow_mut();
        w.action_in_flight = true;
        w.restart_attempts[ix] += 1;
        let attempt = w.restart_attempts[ix];
        let upstream_writers = w.upstream_writers(ix);
        let proto = estimate::restart(upstream_writers, lease_spare, &w.costs, PER_MSG);
        let backoff = w.cluster.recovery.restart_backoff * (attempt - 1) as u64;
        let launch = w.cluster.launch;
        let total = proto + launch.sample(sim) + backoff;
        w.containers[ix].status = Status::Resizing { until: sim.now() + total };
        total
    };
    let w2 = world.clone();
    sim.schedule_in_named("ioc.restart", total, move |sim| {
        let restarted = {
            let mut w = w2.borrow_mut();
            let now = sim.now();
            let add = lease_spare.min(w.staging.spare());
            let nodes = if add == 0 { Vec::new() } else { w.lease_or_record(add, "restart") };
            if nodes.is_empty() {
                // The spare pool emptied while the restart was in flight:
                // this attempt fails; the detector falls back next round.
                w.containers[ix].status = Status::Failed;
                w.action_in_flight = false;
                w.last_action_at = now;
                false
            } else {
                let add = nodes.len() as u32;
                w.containers[ix].nodes = nodes;
                w.containers[ix].reset_replicas(now);
                w.containers[ix].status = Status::Online;
                w.declared_failed[ix] = false;
                let attempt = w.restart_attempts[ix];
                let id = w.containers[ix].id;
                let t = w.tenant_of[ix];
                w.tenants[t]
                    .log
                    .record_action(now, Action::Restarted { container: id, attempt, added: add });
                w.action_in_flight = false;
                w.last_action_at = now;
                true
            }
        };
        if restarted {
            try_dispatch(sim, &w2, ix);
        }
    });
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Action;
    use crate::policy::PolicyConfig;

    fn latency_points(run: &PipelineRun, name: &str) -> Vec<(SimTime, f64)> {
        let id = run
            .log
            .containers()
            .find(|&id| run.log.name_of(id) == name)
            .expect("container registered");
        run.log.latency_series(id).expect("series exists").points().to_vec()
    }

    #[test]
    fn fig7_steals_from_helper_and_recovers() {
        let run = run_pipeline(ExperimentConfig::fig7());
        // The manager decreased Helper and increased Bonds with the stolen
        // node, exactly the Fig. 7 action sequence.
        let mut saw_decrease_helper = false;
        let mut saw_increase_bonds_stolen = false;
        for (_, a) in run.log.actions() {
            match a {
                Action::Decrease { container, .. }
                    if run.log.name_of(*container) == "Helper" =>
                {
                    saw_decrease_helper = true
                }
                Action::Increase { container, source, .. }
                    if run.log.name_of(*container) == "Bonds" =>
                {
                    assert!(matches!(source, ResourceSource::StolenFrom(_)));
                    saw_increase_bonds_stolen = true;
                }
                _ => {}
            }
        }
        assert!(saw_decrease_helper, "actions: {:?}", run.log.actions());
        assert!(saw_increase_bonds_stolen);
        assert!(run.blocked_at.is_none(), "Fig. 7 must not block");
        assert!(run.offline.is_empty(), "Fig. 7 takes nothing offline");

        // Bonds latency rises, then falls back after the action.
        let pts = latency_points(&run, "Bonds");
        let peak = pts.iter().map(|&(_, v)| v).fold(0.0, f64::max);
        let last = pts.last().expect("bonds produced samples").1;
        assert!(peak > 30.0, "latency must violate the SLA before action: peak {peak}");
        assert!(last < peak * 0.75, "latency must recover: last {last} vs peak {peak}");
        // All steps processed.
        let bonds_done =
            run.completed.iter().find(|(n, _)| *n == "Bonds").expect("bonds exists").1;
        assert_eq!(bonds_done, ExperimentConfig::fig7().steps);
    }

    #[test]
    fn fig8_converges_using_spares() {
        let run = run_pipeline(ExperimentConfig::fig8());
        let mut spare_added = 0;
        for (_, a) in run.log.actions() {
            if let Action::Increase { container, added, source } = a {
                if run.log.name_of(*container) == "Bonds" {
                    assert!(matches!(source, ResourceSource::Spare));
                    spare_added += added;
                }
            }
        }
        assert_eq!(spare_added, 4, "Bonds must consume exactly the 4 spare nodes");
        assert!(run.blocked_at.is_none(), "Fig. 8 completes before any queue overflow");
        assert!(run.offline.is_empty());
        let bonds_done =
            run.completed.iter().find(|(n, _)| *n == "Bonds").expect("bonds exists").1;
        assert_eq!(bonds_done, ExperimentConfig::fig8().steps);
        // Bonds ends with 6 replicas: the rate needed at 512 nodes.
        let bonds_units =
            run.final_units.iter().find(|(n, _)| *n == "Bonds").expect("bonds exists").1;
        assert_eq!(bonds_units, 6);
    }

    #[test]
    fn fig9_takes_bonds_and_csym_offline_before_overflow() {
        let run = run_pipeline(ExperimentConfig::fig9());
        assert!(run.offline.contains(&"Bonds"), "offline: {:?}", run.offline);
        assert!(run.offline.contains(&"CSym"), "dependents cascade: {:?}", run.offline);
        assert!(run.blocked_at.is_none(), "the runtime must act before overflow");
        // Spares were consumed first, as the paper describes.
        assert!(run.log.actions().iter().any(|(_, a)| matches!(
            a,
            Action::Increase { source: ResourceSource::Spare, .. }
        )));
        // Data written to disk is labeled with pending analytics.
        assert!(!run.disk_steps.is_empty());
        let (_, prov) = &run.disk_steps[0];
        assert!(prov.pending_ops.contains(&"Bonds".to_string()), "prov: {prov:?}");
        assert!(prov.processed_by.contains(&"Helper".to_string()));
    }

    #[test]
    fn fig10_end_to_end_latency_drops_sharply_after_offline() {
        let run = run_pipeline(ExperimentConfig::fig10());
        let offline_at = run
            .log
            .actions()
            .iter()
            .find_map(|(t, a)| matches!(a, Action::Offline { .. }).then_some(*t))
            .expect("offline action happened");
        let e2e = run.log.e2e_series().points();
        let before: Vec<f64> =
            e2e.iter().filter(|&&(t, _)| t <= offline_at).map(|&(_, v)| v).collect();
        let after: Vec<f64> = e2e
            .iter()
            .filter(|&&(t, _)| t > offline_at + SimDuration::from_secs(30))
            .map(|&(_, v)| v)
            .collect();
        assert!(!before.is_empty() && !after.is_empty(), "need points on both sides");
        let peak_before = before.iter().copied().fold(0.0, f64::max);
        let typical_after = after[after.len() / 2];
        assert!(
            typical_after < peak_before / 4.0,
            "sharp decrease expected: before peak {peak_before}, after {typical_after}"
        );
    }

    #[test]
    fn unmanaged_fig9_blocks_the_application() {
        let mut cfg = ExperimentConfig::fig9();
        cfg.policy = PolicyConfig { enabled: false, ..PolicyConfig::default() };
        let run = run_pipeline(cfg);
        assert!(run.blocked_at.is_some(), "without management the pipeline must block");
        assert!(run.offline.is_empty());
    }

    #[test]
    fn crack_branch_retires_csym_and_activates_cna() {
        let mut cfg = ExperimentConfig::fig7();
        cfg.crack_at_step = Some(4);
        cfg.steps = 20;
        let run = run_pipeline(cfg);
        assert!(run.crack_detected);
        assert!(run.offline.contains(&"CSym"), "CSym retires after detection");
        assert!(run
            .log
            .actions()
            .iter()
            .any(|(_, a)| matches!(a, Action::Activate { .. })));
        let cna_done = run.completed.iter().find(|(n, _)| *n == "CNA").expect("cna").1;
        assert!(cna_done > 0, "CNA must process post-break steps");
    }

    #[test]
    fn healthy_small_run_needs_no_management() {
        // Tiny data: every stage sustains the cadence comfortably.
        let mut cfg = ExperimentConfig::fig7();
        cfg.sim_nodes = 8;
        cfg.steps = 10;
        let run = run_pipeline(cfg);
        let managing = run
            .log
            .actions()
            .iter()
            .filter(|(_, a)| !matches!(a, Action::Activate { .. }))
            .count();
        assert_eq!(managing, 0, "actions: {:?}", run.log.actions());
        assert!(run.blocked_at.is_none());
        // Everything flowed through to the pipeline end.
        assert_eq!(run.log.e2e_series().len(), 10);
    }

    #[test]
    fn telemetry_captures_the_managed_run() {
        let mut cfg = ExperimentConfig::fig7();
        cfg.telemetry = simtel::TelemetryConfig::all();
        let run = run_pipeline(cfg);
        let snap = run.telemetry.snapshot();
        // Container service spans on per-container tracks.
        assert!(snap.spans.iter().any(|s| s.track == "Bonds" && s.name == "step"));
        assert!(snap.spans.iter().any(|s| s.track == "Helper"));
        // The Fig. 7 backlog violates the SLA before the manager acts.
        assert!(run.telemetry.counter("sla.violations") > 0);
        assert!(snap.markers.iter().any(|m| m.name == "sla.violation"));
        // Management rounds ran and actions were marked on the manager track.
        assert!(run.telemetry.counter("policy.rounds") > 0);
        assert!(run.telemetry.counter("manager.actions") > 0);
        assert!(snap.markers.iter().any(|m| m.track == "manager"));
        // Kernel-category event counts follow the schedule's labels.
        assert_eq!(
            run.telemetry.counter("kernel.ioc.emit"),
            ExperimentConfig::fig7().steps
        );
        // Monitoring gauges mirror the figure-harness series.
        assert!(!run.telemetry.series("end_to_end_s").is_empty());
        assert!(!run.telemetry.series("Bonds_latency_s").is_empty());
    }

    #[test]
    fn deterministic_runs() {
        let a = run_pipeline(ExperimentConfig::fig9());
        let b = run_pipeline(ExperimentConfig::fig9());
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.offline, b.offline);
        assert_eq!(a.log.e2e_series().points(), b.log.e2e_series().points());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use simfault::FaultPlan as SimFaultPlan;

    /// Fig. 7 shape with spare headroom: Bonds crashes mid-run, the
    /// detector notices the missed heartbeats, and recovery restarts it on
    /// spare nodes. Every emitted step still exits the pipeline.
    #[test]
    fn bonds_crash_is_detected_and_restarted_on_spares() {
        let cfg = ExperimentConfig::fig7()
            .to_builder()
            .staging_nodes(16) // 13 held + 3 spares
            .faults(SimFaultPlan::new().crash_container(SimDuration::from_secs(120), "Bonds"))
            .build()
            .expect("valid");
        let steps = cfg.steps;
        let run = run_pipeline(cfg);

        let failed_at = run
            .log
            .actions()
            .iter()
            .find_map(|(t, a)| {
                matches!(a, Action::ContainerFailed { container, .. }
                    if run.log.name_of(*container) == "Bonds")
                .then_some(*t)
            })
            .expect("heartbeat loss must be detected");
        assert!(failed_at > SimTime::from_secs(120), "detection follows the crash");
        let restarted = run.log.actions().iter().any(|(t, a)| {
            *t > failed_at
                && matches!(a, Action::Restarted { container, attempt: 1, .. }
                    if run.log.name_of(*container) == "Bonds")
        });
        assert!(restarted, "actions: {:?}", run.log.actions());

        // Zero lost steps: every emitted step exited the pipeline, and the
        // restarted container finished the run online.
        assert_eq!(run.log.e2e_series().len() as u64, steps);
        assert!(run.failed.is_empty(), "recovery resolved the crash");
        assert!(run.offline.is_empty(), "no offline fallback was needed");
        assert_eq!(run.heartbeats_delivered, 363, "one beat per live container per round");
        let bonds_restarts =
            run.restarts.iter().find(|(n, _)| *n == "Bonds").expect("bonds exists").1;
        assert_eq!(bonds_restarts, 1);
        // Bounded end-to-end latency even through the outage.
        let worst = run.log.e2e_series().max_value().unwrap_or(f64::INFINITY);
        assert!(worst < 120.0, "e2e stayed bounded: worst {worst}");
    }

    /// Plain Fig. 7 has zero spares: when Bonds crashes there is nothing to
    /// restart it on, so recovery falls back to generalized offline
    /// staging — downstream data goes to disk with provenance, and the run
    /// still accounts for every step.
    #[test]
    fn crash_without_spares_falls_back_to_offline_staging() {
        let cfg = ExperimentConfig::fig7()
            .to_builder()
            .faults(SimFaultPlan::new().crash_container(SimDuration::from_secs(150), "Bonds"))
            .build()
            .expect("valid");
        let steps = cfg.steps;
        let run = run_pipeline(cfg);

        assert!(run.log.actions().iter().any(|(_, a)| matches!(
            a,
            Action::ContainerFailed { container, .. }
                if run.log.name_of(*container) == "Bonds"
        )));
        assert!(run.offline.contains(&"Bonds"), "offline: {:?}", run.offline);
        assert!(run.offline.contains(&"CSym"), "dependents cascade: {:?}", run.offline);
        assert!(run.failed.is_empty(), "the fallback resolved the failure");
        assert!(!run.disk_steps.is_empty(), "bypassed steps land on disk with provenance");
        let (_, prov) = run.disk_steps.last().expect("disk steps exist");
        assert!(prov.pending_ops.contains(&"Bonds".to_string()), "prov: {prov:?}");
        assert_eq!(run.log.e2e_series().len() as u64, steps, "every step accounted for");
    }

    /// A stall shorter than the heartbeat miss window self-heals before the
    /// detector reacts: no failure is declared, nothing restarts.
    #[test]
    fn short_stall_self_heals_without_detection() {
        let cfg = ExperimentConfig::fig8()
            .to_builder()
            .faults(SimFaultPlan::new().stall_container(
                SimDuration::from_secs(90),
                "Bonds",
                SimDuration::from_secs(10), // < 3 × 5 s miss window
            ))
            .build()
            .expect("valid");
        let steps = cfg.steps;
        let run = run_pipeline(cfg);
        assert!(run
            .log
            .actions()
            .iter()
            .all(|(_, a)| !matches!(a, Action::ContainerFailed { .. } | Action::Restarted { .. })));
        assert_eq!(run.log.e2e_series().len() as u64, steps);
        assert!(run.restarts.iter().all(|&(_, n)| n == 0));
    }

    /// NIC degradation and message loss stretch transfers inside their
    /// windows, deterministically: two identical runs agree point-for-point,
    /// and the faulted run finishes no earlier than the clean one.
    #[test]
    fn degradation_and_loss_are_deterministic() {
        let plan = SimFaultPlan::new()
            .lose_messages(SimDuration::from_secs(30), 0.5, SimDuration::from_secs(120))
            .degrade_node(
                SimDuration::from_secs(30),
                256, // Helper's first staging node (Fig. 7 layout)
                0.25,
                4.0,
                SimDuration::from_secs(120),
            );
        let cfg = ExperimentConfig::fig7()
            .to_builder()
            .faults(plan)
            .build()
            .expect("valid");
        let a = run_pipeline(cfg.clone());
        let b = run_pipeline(cfg);
        assert_eq!(a.finished_at, b.finished_at);
        assert_eq!(a.log.e2e_series().points(), b.log.e2e_series().points());
        let clean = run_pipeline(ExperimentConfig::fig7());
        assert!(a.finished_at >= clean.finished_at, "faults never speed the run up");
    }

    /// An empty fault plan schedules nothing: the kernel trace hash is
    /// identical to the clean configuration's, and repeatable.
    #[test]
    fn empty_fault_plan_is_schedule_neutral() {
        let hash_of = |cfg: ExperimentConfig| {
            let mut sim = Sim::new(cfg.seed);
            sim.record_trace();
            run_pipeline_in(&mut sim, cfg);
            sim.take_trace().expect("trace recorded").schedule_hash()
        };
        let mut small = ExperimentConfig::fig7();
        small.steps = 8;
        let clean = hash_of(small.clone());
        let mut empty_plan = small.clone();
        empty_plan.faults = SimFaultPlan::new(); // explicitly empty
        assert_eq!(hash_of(empty_plan), clean, "empty plan must not perturb the schedule");
        let mut faulted = small;
        faulted.faults =
            SimFaultPlan::new().stall_container(SimDuration::from_secs(20), "Bonds", SimDuration::from_secs(5));
        assert_ne!(hash_of(faulted), clean, "a real fault does change the schedule");
    }

    /// Crashing a staging node out from under a container shrinks it; the
    /// last node's crash kills the container outright and recovery takes
    /// over.
    #[test]
    fn node_crash_shrinks_then_kills_the_container() {
        // Fig. 7 layout: staging ids start at sim_nodes (256); Helper
        // leases 8 (256..264), Bonds takes 264.
        let cfg = ExperimentConfig::fig7()
            .to_builder()
            .staging_nodes(16)
            .faults(SimFaultPlan::new().crash_node(SimDuration::from_secs(120), 264))
            .build()
            .expect("valid");
        let steps = cfg.steps;
        let run = run_pipeline(cfg);
        // Bonds held node 264 (possibly among others after a resize): its
        // crash either shrank or killed Bonds; in the killed case recovery
        // restarted it. Either way, no step is lost.
        assert_eq!(run.log.e2e_series().len() as u64, steps);
        assert!(run.failed.is_empty());
    }
}

#[cfg(test)]
mod viz_tests {
    use super::*;
    use crate::experiment::{Directive, VizConfig};
    use crate::monitor::Action;
    use crate::policy::PolicyConfig;

    /// Resize, restart and steal durations count the writers that feed a
    /// container. In a crack + Viz world CNA is fed by Bonds, not by CSym
    /// before it, and Viz by Helper, not by CNA.
    #[test]
    fn upstream_writers_follow_depends_on() {
        let mut cfg = ExperimentConfig::fig7();
        cfg.staging_nodes = 16;
        cfg.crack_at_step = Some(4);
        cfg.viz = Some(VizConfig { nodes: 3, active_from_start: true });
        let w = World::new(Experiment::single(cfg));
        let units: Vec<u32> = w.containers.iter().map(|c| c.units()).collect();
        assert_eq!(units, [8, 1, 4, 0, 3], "Helper, Bonds, CSym, CNA, Viz");
        assert_eq!(w.upstream_writers(BONDS), 8);
        assert_eq!(w.upstream_writers(CSYM), 1);
        assert_eq!(w.upstream_writers(CNA), 1, "CNA is fed by Bonds");
        assert_eq!(w.upstream_writers(VIZ), 8, "Viz is fed by Helper");
    }

    /// The paper's introduction scenario: analytics needing resources
    /// steals from the visualization container when it does not need them.
    #[test]
    fn analytics_steals_from_overprovisioned_viz() {
        let mut cfg = ExperimentConfig::fig7();
        cfg.staging_nodes = 8;
        cfg.initial = smartpointer::Table1Names { helper: 2, bonds: 1, csym: 2, cna: 2 };
        cfg.viz = Some(VizConfig { nodes: 3, active_from_start: true });
        let run = run_pipeline(cfg);
        let stole_from_viz = run.log.actions().iter().any(|(_, a)| {
            matches!(
                a,
                Action::Increase { source: crate::monitor::ResourceSource::StolenFrom(d), .. }
                    if run.log.name_of(*d) == "Viz"
            )
        });
        assert!(stole_from_viz, "actions: {:?}", run.log.actions());
        assert!(run.blocked_at.is_none());
        // Viz keeps running on its remaining nodes.
        let viz_done = run.completed.iter().find(|(n, _)| *n == "Viz").expect("viz exists").1;
        assert!(viz_done > 0, "viz must still process steps after the steal");
    }

    /// Online user direction: launch the visualization mid-run.
    #[test]
    fn launch_viz_directive_activates_mid_run() {
        let mut cfg = ExperimentConfig::fig7();
        cfg.staging_nodes = 15; // 13 held + 2 spare for the viz launch
        cfg.viz = Some(VizConfig { nodes: 2, active_from_start: false });
        cfg.directives = vec![(SimDuration::from_secs(60), Directive::LaunchViz)];
        let run = run_pipeline(cfg);
        assert!(run
            .log
            .actions()
            .iter()
            .any(|(t, a)| matches!(a, Action::Activate { .. })
                && t.as_secs_f64() >= 60.0));
        let viz_done = run.completed.iter().find(|(n, _)| *n == "Viz").expect("viz exists").1;
        assert!(viz_done > 0 && viz_done < ExperimentConfig::fig7().steps,
            "viz only sees steps after its launch: {viz_done}");
    }

    /// A user can also force an inactive filter on without the data branch.
    #[test]
    fn activate_directive_forces_cna_on() {
        let mut cfg = ExperimentConfig::fig7();
        cfg.staging_nodes = 16; // room for CNA's 2 nodes
        cfg.directives = vec![(SimDuration::from_secs(45), Directive::Activate("CNA"))];
        let run = run_pipeline(cfg);
        // CNA is online but reads nothing until CSym retires — forcing it
        // on is a no-op for the data path unless the branch fires too.
        assert!(run
            .log
            .actions()
            .iter()
            .any(|(_, a)| matches!(a, Action::Activate { .. })));
    }

    /// Without policy, the viz container is left alone even when analytics
    /// starve — the unmanaged baseline for the steal scenario.
    #[test]
    fn unmanaged_run_never_steals_from_viz() {
        let mut cfg = ExperimentConfig::fig7();
        cfg.staging_nodes = 8;
        cfg.initial = smartpointer::Table1Names { helper: 2, bonds: 1, csym: 2, cna: 2 };
        cfg.viz = Some(VizConfig { nodes: 3, active_from_start: true });
        cfg.policy = PolicyConfig { enabled: false, ..PolicyConfig::default() };
        cfg.steps = 60;
        let run = run_pipeline(cfg);
        assert!(run.log.actions().iter().all(|(_, a)| !matches!(a, Action::Increase { .. })));
        assert!(run.blocked_at.is_some(), "starving bonds must eventually block");
    }
}

#[cfg(test)]
mod monitoring_tests {
    use super::*;
    use crate::monitor::MonitorConfig;

    /// The paper's point about flexible monitoring: aggressive sampling
    /// perturbs the monitored components; reducing the frequency recovers
    /// the lost throughput.
    #[test]
    fn heavy_monitoring_perturbs_the_bottleneck() {
        let run_with = |report_every: u64, per_sample_cost: SimDuration| {
            let mut cfg = ExperimentConfig::fig7();
            cfg.monitoring = MonitorConfig {
                report_every,
                per_sample_cost,
                delivery_delay: SimDuration::from_micros(20),
            };
            cfg.steps = 20;
            run_pipeline(cfg)
        };
        let cost = SimDuration::from_secs(2); // pathological probe cost
        let heavy = run_with(1, cost);
        let light = run_with(8, cost);
        // Compare the bottleneck's mean observed latency: the per-sample
        // cost inflates every heavy-run service time.
        let bonds_mean = |r: &PipelineRun| {
            let id = r
                .log
                .containers()
                .find(|&id| r.log.name_of(id) == "Bonds")
                .expect("bonds registered");
            let pts = r.log.latency_series(id).expect("series").points().to_vec();
            pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len() as f64
        };
        let (h, l) = (bonds_mean(&heavy), bonds_mean(&light));
        assert!(
            h > l + 1.0,
            "per-step sampling at 2 s/sample must inflate Bonds latency: {h} vs {l}"
        );
        // Lighter monitoring reports fewer samples.
        let count = |r: &PipelineRun| {
            r.log
                .containers()
                .filter_map(|id| r.log.latency_series(id))
                .map(|s| s.len())
                .sum::<usize>()
        };
        assert!(count(&light) < count(&heavy));
    }

    #[test]
    fn default_monitoring_is_cheap() {
        // The default 50 µs probe must not change experiment outcomes.
        let run = run_pipeline(ExperimentConfig::fig7());
        assert!(run.blocked_at.is_none());
        assert!(run.offline.is_empty());
    }
}

#[cfg(test)]
mod trade_tests {
    use super::*;
    use crate::monitor::Action;
    use smartpointer::ComputeModel;

    /// Nodes held by containers at the end of a run (the rest are spare;
    /// the staging area itself enforces no-double-lease).
    fn held_nodes(run: &PipelineRun) -> u32 {
        run.final_units.iter().map(|&(_, u)| u).sum()
    }

    /// The cost model's per-run constants are fixed when the world is
    /// built, but the unit count is read per dispatch: after a
    /// `trade_inc` grows a `Parallel` container (nodes extended, replicas
    /// not reset), the next dispatch is charged what a fresh evaluation
    /// gives at the new size.
    #[test]
    fn dispatch_after_trade_inc_uses_the_new_unit_count() {
        let mut cfg = ExperimentConfig::fig7();
        cfg.staging_nodes = 16; // 13 held + 3 spares
        let (atoms, cadence, monitoring) = (cfg.atoms(), cfg.sla.output_cadence, cfg.monitoring);
        let mut w = World::new(Experiment::single(cfg));
        let old = &w.containers[BONDS];
        let spec = crate::ContainerSpec { model: ComputeModel::Parallel, ..old.spec.clone() };
        let mut bonds = ContainerState::new(old.id, spec, old.nodes.clone(), atoms, cadence);
        bonds.reset_replicas(SimTime::ZERO);
        let (id, service) = (bonds.id, bonds.spec.service);
        let step = QueuedStep { step: 1, bytes: 1, entered: SimTime::ZERO, emitted: SimTime::ZERO };
        bonds.queue.push_back(step);
        w.containers[BONDS] = bonds;

        let world = shared(w);
        let mut sim = Sim::new(1);
        start_increase(&mut sim, &world, id, 2, ResourceSource::Spare);
        assert!(sim.step().is_some(), "trade_inc runs");
        let w = world.borrow();
        let bonds = &w.containers[BONDS];
        assert_eq!(bonds.units(), 3);
        assert_eq!(bonds.replica_free.len(), 1, "Parallel runs one instance");
        let mut fresh = service.step_time_with(atoms, ComputeModel::Parallel, 3);
        if monitoring.samples_step(step.step) {
            fresh += monitoring.per_sample_cost;
        }
        assert_eq!(w.in_flight[BONDS].len(), 1, "the queued step was dispatched");
        assert_eq!(bonds.replica_free[0], sim.now() + fresh);
        assert!(fresh < service.step_time_with(atoms, ComputeModel::Parallel, 1));
    }

    /// A transactional trade commits: the Fig. 7 steal still happens, with
    /// the transaction's latency charged.
    #[test]
    fn committed_trade_behaves_like_fig7() {
        let cfg = ExperimentConfig::fig7();
        let run = run_pipeline(cfg.clone());
        assert!(run.log.actions().iter().any(|(_, a)| matches!(a, Action::Decrease { .. })));
        assert!(run.log.actions().iter().any(|(_, a)| matches!(a, Action::Increase { .. })));
        assert!(run.blocked_at.is_none());
        // Node inventory is conserved.
        assert!(held_nodes(&run) <= cfg.staging_nodes);
    }

    /// An injected transaction failure rolls the trade back atomically —
    /// the donor keeps its node, the recipient gets nothing — and a retry
    /// succeeds on the next evaluation.
    #[test]
    fn aborted_trade_moves_nothing_then_retries() {
        let mut cfg = ExperimentConfig::fig7();
        cfg.trade_faults = vec![0]; // first trade aborts
        let run = run_pipeline(cfg.clone());

        let actions = run.log.actions();
        let abort_pos = actions
            .iter()
            .position(|(_, a)| matches!(a, Action::TradeAborted { .. }))
            .expect("first trade must abort");
        // Nothing moved before or at the abort.
        assert!(actions[..abort_pos]
            .iter()
            .all(|(_, a)| !matches!(a, Action::Decrease { .. } | Action::Increase { .. })));
        // The retry (trade 1) commits later.
        assert!(actions[abort_pos + 1..]
            .iter()
            .any(|(_, a)| matches!(a, Action::Increase { .. })));
        // Inventory still conserved and the run still succeeds.
        assert!(run.blocked_at.is_none());
        assert!(held_nodes(&run) <= cfg.staging_nodes);
    }

    /// With every trade failing, the bottleneck never gets the node; the
    /// pipeline stays consistent (no partial trades) even while degraded.
    #[test]
    fn persistent_trade_failure_never_leaks_nodes() {
        let mut cfg = ExperimentConfig::fig7();
        cfg.trade_faults = (0..64).collect();
        cfg.steps = 30;
        let run = run_pipeline(cfg.clone());
        assert!(run.log.actions().iter().all(|(_, a)| !matches!(a, Action::Increase { .. })));
        let aborts = run
            .log
            .actions()
            .iter()
            .filter(|(_, a)| matches!(a, Action::TradeAborted { .. }))
            .count();
        assert!(aborts >= 2, "retries keep aborting: {aborts}");
        // Donor kept everything: helper still holds its 8 nodes.
        let helper =
            run.final_units.iter().find(|(n, _)| *n == "Helper").expect("helper").1;
        assert_eq!(helper, 8);
    }
}
