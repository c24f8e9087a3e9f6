//! Container specifications and runtime state.
//!
//! A container wraps one analytics component: it holds the staging nodes
//! the component runs on, the component's compute model and cost model,
//! its ingress queue, and the bookkeeping its local manager exposes to
//! global management (latency window, queue depth, resize estimates).

use std::collections::VecDeque;

use sim_core::stats::SlidingWindow;
use sim_core::{SimDuration, SimTime};
use simnet::NodeId;
use smartpointer::{ComputeModel, ServiceModel};

/// Identifier of a container within one pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ContainerId(pub u32);

/// Lifecycle status of a container.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Processing steps normally.
    Online,
    /// A resize protocol is in flight: intake is paused (upstream DataTap
    /// writers are paused) until the given time.
    Resizing {
        /// When the resize completes and intake resumes.
        until: SimTime,
    },
    /// Taken offline: the component no longer runs; upstream outputs
    /// destined here are written to disk with provenance instead.
    Offline,
    /// Declared but not yet started (e.g. CNA before a crack is detected).
    Inactive,
    /// Crashed (injected fault): the component is dead and consumes nothing
    /// until recovery restarts it or takes it offline. Arriving steps keep
    /// queueing — recovery must lose none of them.
    Failed,
    /// Temporarily wedged (injected processing stall): intake continues but
    /// no step is dispatched until the given time.
    Stalled {
        /// When processing resumes.
        until: SimTime,
    },
}

/// Static description of one container.
#[derive(Clone, Debug)]
pub struct ContainerSpec {
    /// Component name (also the container's name).
    pub name: &'static str,
    /// Compute model the component uses (Table I).
    pub model: ComputeModel,
    /// Calibrated service-time model.
    pub service: ServiceModel,
    /// Nodes the container starts with.
    pub initial_nodes: u32,
    /// Ingress queue capacity in steps; overflow blocks the pipeline.
    pub queue_capacity: usize,
    /// Essential containers are never taken offline by policy.
    pub essential: bool,
    /// Containers that must be online for this one to be useful (their
    /// removal cascades here).
    pub depends_on: Vec<&'static str>,
    /// Whether the container starts active (CNA starts inactive and is
    /// activated by the dynamic branch).
    pub starts_active: bool,
    /// Ratio of output bytes to input bytes (Bonds forwards atoms plus an
    /// adjacency list, CSym/CNA emit small annotations).
    pub output_ratio: f64,
}

impl ContainerSpec {
    /// Replicas the engine runs at `units` nodes: round-robin components
    /// run one replica per node; single-instance components always run
    /// exactly one regardless of node count.
    pub fn effective_replicas(&self, units: u32) -> usize {
        match self.model {
            ComputeModel::RoundRobin => units.max(1) as usize,
            _ => 1,
        }
    }
}

/// A step waiting in (or moving through) a container.
#[derive(Clone, Copy, Debug)]
pub struct QueuedStep {
    /// Output-step index.
    pub step: u64,
    /// Payload bytes.
    pub bytes: u64,
    /// When the step entered this container (latency epoch).
    pub entered: SimTime,
    /// When the step was originally emitted by the application (for
    /// end-to-end latency).
    pub emitted: SimTime,
}

/// Runtime state of a container inside the discrete-event pipeline.
#[derive(Debug)]
pub struct ContainerState {
    /// The static spec.
    pub spec: ContainerSpec,
    /// This container's id.
    pub id: ContainerId,
    /// Nodes currently held.
    pub nodes: Vec<NodeId>,
    /// Per-replica next-free time (one replica per node).
    pub replica_free: Vec<SimTime>,
    /// Ingress queue.
    pub queue: VecDeque<QueuedStep>,
    /// Lifecycle status.
    pub status: Status,
    /// Recent per-step latencies (entry → exit).
    pub latency_window: SlidingWindow,
    /// Steps fully processed.
    pub completed: u64,
    /// Steps dropped because the container was offline when they arrived.
    pub bypassed: u64,
    /// True once the queue has overflowed (pipeline blocked).
    pub overflowed: bool,
    /// True when the container was pruned by policy with work still owed
    /// to the stored data (recorded in provenance as a pending op). Branch
    /// retirement (CSym after detection) does not owe work.
    pub owed: bool,
    /// Single-instance service time at the tenant's atom count. The atom
    /// count and the cost model are fixed for the run, so this is
    /// evaluated once, at construction.
    base_step_time: SimDuration,
    /// Units needed to sustain the tenant's cadence (fixed for the run
    /// for the same reason).
    needed: u32,
}

impl ContainerState {
    /// Creates runtime state for a spec with its initially assigned nodes,
    /// for a tenant simulating `atoms` atoms and emitting one step every
    /// `cadence`.
    pub fn new(
        id: ContainerId,
        spec: ContainerSpec,
        nodes: Vec<NodeId>,
        atoms: u64,
        cadence: SimDuration,
    ) -> ContainerState {
        let status = if spec.starts_active { Status::Online } else { Status::Inactive };
        let replica_free = vec![SimTime::ZERO; nodes.len()];
        let base_step_time = spec.service.step_time(atoms);
        let needed = spec.service.units_to_sustain_from(base_step_time, spec.model, cadence);
        ContainerState {
            spec,
            id,
            nodes,
            replica_free,
            queue: VecDeque::new(),
            status,
            latency_window: SlidingWindow::new(4),
            completed: 0,
            bypassed: 0,
            overflowed: false,
            owed: false,
            base_step_time,
            needed,
        }
    }

    /// Resource units (replicas/ranks) currently held.
    pub fn units(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// True when the container accepts and processes steps.
    pub fn is_online(&self) -> bool {
        matches!(self.status, Status::Online | Status::Resizing { .. })
    }

    /// True when arriving steps should queue here rather than bypass to
    /// disk. A failed or stalled container still *accepts* steps — its
    /// queue is the recovery path's claim that no time step is lost — it
    /// just stops consuming them until recovery acts.
    pub fn accepts_steps(&self) -> bool {
        matches!(
            self.status,
            Status::Online | Status::Resizing { .. } | Status::Failed | Status::Stalled { .. }
        )
    }

    /// Service time for one step at the current size. The unit count is
    /// read on every call, so a resize takes effect at the next dispatch.
    pub fn step_time(&self) -> SimDuration {
        self.spec.service.scaled_step_time(self.base_step_time, self.spec.model, self.units())
    }

    /// Sustained throughput (steps/s) at the current size.
    pub fn throughput(&self) -> f64 {
        self.spec.service.throughput_from(self.base_step_time, self.spec.model, self.units())
    }

    /// Local-manager estimate: units needed to sustain the cadence. This is
    /// the "ask the container-local authority what is needed to speed it
    /// up" interface of the paper.
    pub fn units_needed(&self) -> u32 {
        self.needed
    }

    /// Local-manager estimate: units this container could give away while
    /// still sustaining the cadence (its over-provisioning margin).
    pub fn units_spareable(&self) -> u32 {
        if !self.is_online() {
            return 0;
        }
        self.units().saturating_sub(self.needed.max(1))
    }

    /// Resets the per-replica free times to match the current node count,
    /// with every replica free at `at` (used after a resize or restart).
    pub fn reset_replicas(&mut self, at: SimTime) {
        let n = self.spec.effective_replicas(self.units());
        self.replica_free.clear();
        self.replica_free.resize(n, at);
    }

    /// The earliest-free replica index, if any replica exists.
    pub fn next_free_replica(&self) -> Option<usize> {
        self.replica_free
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartpointer::default_models;

    fn bonds_spec() -> ContainerSpec {
        ContainerSpec {
            name: "Bonds",
            model: ComputeModel::RoundRobin,
            service: default_models().bonds,
            initial_nodes: 1,
            queue_capacity: 8,
            essential: false,
            depends_on: vec!["Helper"],
            starts_active: true,
            output_ratio: 1.5,
        }
    }

    const CADENCE: SimDuration = SimDuration::from_secs(15);

    fn state(nodes: u32) -> ContainerState {
        let spec = bonds_spec();
        let atoms = mdsim::atoms_for_nodes(256);
        ContainerState::new(ContainerId(1), spec, (0..nodes).map(NodeId).collect(), atoms, CADENCE)
    }

    #[test]
    fn units_track_nodes() {
        let st = state(3);
        assert_eq!(st.units(), 3);
        assert!(st.is_online());
    }

    #[test]
    fn round_robin_throughput_scales_with_units() {
        let one = state(1).throughput();
        let three = state(3).throughput();
        assert!((three / one - 3.0).abs() < 1e-9);
    }

    #[test]
    fn local_manager_estimates() {
        let st = state(1);
        // ~19.4 s service: needs 2 RR replicas, can spare none.
        assert_eq!(st.units_needed(), 2);
        assert_eq!(st.units_spareable(), 0);
        let big = state(5);
        assert_eq!(big.units_spareable(), 3);
    }

    #[test]
    fn inactive_spec_starts_inactive() {
        let spec = ContainerSpec { starts_active: false, ..bonds_spec() };
        let st = ContainerState::new(ContainerId(0), spec, vec![NodeId(9)], 1_000_000, CADENCE);
        assert_eq!(st.status, Status::Inactive);
        assert!(!st.is_online());
        assert_eq!(st.units_spareable(), 0);
    }

    #[test]
    fn failed_and_stalled_accept_steps_but_are_not_online() {
        let mut st = state(2);
        st.status = Status::Failed;
        assert!(st.accepts_steps());
        assert!(!st.is_online());
        assert_eq!(st.units_spareable(), 0);
        st.status = Status::Stalled { until: SimTime::from_secs(30) };
        assert!(st.accepts_steps());
        assert!(!st.is_online());
        st.status = Status::Offline;
        assert!(!st.accepts_steps());
    }

    #[test]
    fn next_free_replica_picks_earliest() {
        let mut st = state(3);
        st.replica_free = vec![
            SimTime::from_secs(10),
            SimTime::from_secs(5),
            SimTime::from_secs(7),
        ];
        assert_eq!(st.next_free_replica(), Some(1));
    }
}
