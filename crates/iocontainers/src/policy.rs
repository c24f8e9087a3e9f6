//! The global manager's management policy.
//!
//! The paper's "simple management policy": watch per-container latency;
//! when a container violates the SLA, ask its local manager what it needs
//! (resource units to sustain the cadence), satisfy the need from spare
//! staging nodes first, then by stealing from an over-provisioned
//! container *if that completes the remedy*, and as a last resort take the
//! bottleneck (and everything depending on it) offline before its queue
//! overflows and blocks the application.
//!
//! The decision function is pure — it maps a snapshot of container views
//! to a [`Decision`] — so every branch is unit-testable without a
//! simulation.

use sim_core::SimDuration;

use crate::container::ContainerId;
use crate::sla::Sla;

/// Tunables of the policy.
#[derive(Clone, Copy, Debug)]
pub struct PolicyConfig {
    /// Master switch (off = unmanaged baseline).
    pub enabled: bool,
    /// Samples in the bottleneck-detection window.
    pub window: usize,
    /// Minimum virtual time between management actions.
    pub cooldown: SimDuration,
    /// Queue fill fraction beyond which an unfixable bottleneck is taken
    /// offline (the "act before the pipeline blocks" trigger).
    pub offline_queue_frac: f64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            enabled: true,
            window: 3,
            cooldown: SimDuration::from_secs(15),
            offline_queue_frac: 0.5,
        }
    }
}

/// Heartbeat-driven failure detection and recovery tunables.
///
/// Local managers emit heartbeats over the control overlay; the global
/// manager declares a container failed after `miss_limit` consecutive
/// missed beats and then recovers it — restart on spare staging nodes
/// (bounded retries with virtual-time backoff), falling back to
/// generalized offline staging when no spares remain or the retry budget
/// is spent.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryConfig {
    /// Heartbeat period for every container's local manager.
    pub heartbeat_every: SimDuration,
    /// Consecutive missed heartbeats before a container is declared failed.
    pub miss_limit: u32,
    /// Restart attempts per container before falling back to offline
    /// staging.
    pub max_restarts: u32,
    /// Extra delay added per prior attempt before a restart completes
    /// (linear backoff in virtual time).
    pub restart_backoff: SimDuration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            heartbeat_every: SimDuration::from_secs(5),
            miss_limit: 3,
            max_restarts: 2,
            restart_backoff: SimDuration::from_secs(5),
        }
    }
}

/// The global manager's view of a container it has declared failed.
#[derive(Clone, Copy, Debug)]
pub struct FailureView {
    /// The failed container.
    pub id: ContainerId,
    /// Units needed to sustain the cadence (the restart target size).
    pub needed: u32,
    /// Restart attempts already spent on this container.
    pub restarts_so_far: u32,
}

/// A local manager's view of one container, as reported to the global
/// manager.
#[derive(Clone, Copy, Debug)]
pub struct ContainerView {
    /// The container.
    pub id: ContainerId,
    /// Accepting and processing steps.
    pub online: bool,
    /// Never taken offline by policy.
    pub essential: bool,
    /// Resource units currently held.
    pub units: u32,
    /// Local estimate: units needed to sustain the cadence.
    pub needed: u32,
    /// Local estimate: units it could give away and still sustain.
    pub spareable: u32,
    /// Current ingress queue depth.
    pub queue_len: usize,
    /// Ingress queue capacity.
    pub queue_capacity: usize,
    /// Average latency over the monitoring window.
    pub avg_latency: SimDuration,
    /// Samples available in the window.
    pub samples: usize,
}

/// What the global manager decided to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Nothing to do.
    None,
    /// Grow `target` using spare nodes and/or nodes stolen from a donor.
    Rebalance {
        /// The bottleneck container.
        target: ContainerId,
        /// Spare staging nodes to lease.
        lease_spare: u32,
        /// Donor container and node count, when stealing completes the
        /// remedy.
        steal: Option<(ContainerId, u32)>,
    },
    /// Take `target` offline (dependents cascade at execution time).
    Offline {
        /// The hopeless bottleneck.
        target: ContainerId,
    },
    /// Restart a failed container on spare staging nodes.
    Restart {
        /// The failed container.
        target: ContainerId,
        /// Spare staging nodes to lease for the restarted instance.
        lease_spare: u32,
    },
}

/// Evaluates the recovery policy for a container the failure detector has
/// declared dead: restart on spares while both the retry budget and the
/// spare pool allow it, otherwise fall back to generalized offline staging
/// (upstream output is redirected to disk with provenance — even an
/// essential container gets no better option once its nodes are gone).
pub fn decide_recovery(cfg: &RecoveryConfig, failed: &FailureView, spare: u32) -> Decision {
    if failed.restarts_so_far >= cfg.max_restarts || spare == 0 {
        return Decision::Offline { target: failed.id };
    }
    Decision::Restart { target: failed.id, lease_spare: failed.needed.max(1).min(spare) }
}

/// Evaluates the policy against the current container views.
pub fn decide(cfg: &PolicyConfig, sla: &Sla, views: &[ContainerView], spare: u32) -> Decision {
    if !cfg.enabled {
        return Decision::None;
    }

    // Bottleneck: the online container with the longest average latency,
    // with enough samples to trust the estimate.
    let Some(bottleneck) = views
        .iter()
        .filter(|v| v.online && v.samples >= cfg.window.min(2))
        .max_by(|a, b| a.avg_latency.cmp(&b.avg_latency))
    else {
        return Decision::None;
    };

    if !sla.container_violated(bottleneck.avg_latency) {
        return Decision::None;
    }

    let deficit = bottleneck.needed.saturating_sub(bottleneck.units);
    if deficit == 0 {
        // Correctly sized: the backlog is transient and will drain.
        return Decision::None;
    }

    let lease_spare = deficit.min(spare);
    let remaining = deficit - lease_spare;

    if remaining == 0 {
        return Decision::Rebalance { target: bottleneck.id, lease_spare, steal: None };
    }

    // Steal only when a single donor can complete the remedy — partially
    // harming a donor without fixing the bottleneck helps no one.
    let donor = views
        .iter()
        .filter(|v| v.online && v.id != bottleneck.id && v.spareable >= remaining)
        .max_by_key(|v| v.spareable);
    if let Some(donor) = donor {
        return Decision::Rebalance {
            target: bottleneck.id,
            lease_spare,
            steal: Some((donor.id, remaining)),
        };
    }

    if lease_spare > 0 {
        // Partial relief from spares while it lasts.
        return Decision::Rebalance { target: bottleneck.id, lease_spare, steal: None };
    }

    // No resources anywhere. Prune the bottleneck before its queue
    // overflows and blocks the application — unless it is essential.
    let fill = bottleneck.queue_len as f64 / bottleneck.queue_capacity.max(1) as f64;
    if !bottleneck.essential && fill >= cfg.offline_queue_frac {
        return Decision::Offline { target: bottleneck.id };
    }

    Decision::None
}

/// One tenant's slice of the machine, as the cluster-level arbiter sees
/// it: the per-container views its local managers reported, its SLA, and
/// its fair-share position.
#[derive(Clone, Debug)]
pub struct TenantPolicyView {
    /// Tenant index (submission order).
    pub tenant: u32,
    /// The SLA this tenant is managed against.
    pub sla: Sla,
    /// The tenant's fair share of the staging area
    /// (`staging_nodes · weight / Σ weights` over admitted tenants).
    pub fair_share: u32,
    /// Staging nodes the tenant's containers currently hold.
    pub held: u32,
    /// Per-container local-manager views, in pipeline order.
    pub views: Vec<ContainerView>,
}

/// What the cluster-level arbiter decided for this policy round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClusterDecision {
    /// Nothing to do.
    None,
    /// Admit a queued tenant: enough spare nodes freed up for its held
    /// allocation. Admission outranks rebalancing — the machine fills
    /// itself before optimizing whoever is already on it.
    Admit {
        /// The tenant to admit (submission order index).
        tenant: u32,
    },
    /// Execute an ordinary within-tenant decision (spares, in-tenant
    /// steal, or offline) for the chosen tenant.
    Act {
        /// The tenant the decision belongs to.
        tenant: u32,
        /// The per-tenant policy's decision.
        decision: Decision,
    },
    /// Cross-tenant steal: no in-tenant remedy completes, but a container
    /// of another tenant underuses its allocation enough to cover the
    /// rest.
    CrossSteal {
        /// The bottleneck's tenant.
        tenant: u32,
        /// The bottleneck container.
        target: ContainerId,
        /// Spare staging nodes leased alongside the steal.
        lease_spare: u32,
        /// The donor's tenant.
        donor_tenant: u32,
        /// The donor container.
        donor: ContainerId,
        /// Nodes taken from the donor.
        take: u32,
    },
}

/// The bottleneck candidate of one tenant, per the same rules
/// [`decide`] applies: the online container with the longest trusted
/// average latency, if it violates the tenant's SLA with a positive unit
/// deficit.
fn tenant_candidate<'a>(
    cfg: &PolicyConfig,
    tv: &'a TenantPolicyView,
) -> Option<(&'a ContainerView, u32)> {
    let bottleneck = tv
        .views
        .iter()
        .filter(|v| v.online && v.samples >= cfg.window.min(2))
        .max_by(|a, b| a.avg_latency.cmp(&b.avg_latency))?;
    if !tv.sla.container_violated(bottleneck.avg_latency) {
        return None;
    }
    let deficit = bottleneck.needed.saturating_sub(bottleneck.units);
    (deficit > 0).then_some((bottleneck, deficit))
}

/// Evaluates the cluster-level policy: admission of queued tenants first,
/// then fair-share arbitration across violating tenants, then the chosen
/// tenant's within-tenant policy ([`decide`]), upgraded to a cross-tenant
/// steal when the in-tenant remedy is incomplete and another tenant
/// underuses its allocation.
///
/// `queued` lists waiting tenants as `(tenant, held_nodes)` in submission
/// order; `spare` is the free staging-node count. With a single admitted
/// tenant and nothing queued this reduces *exactly* to
/// `Act { tenant, decision: decide(...) }` — the property that keeps
/// single-tenant runs bit-identical to the legacy engine.
pub fn decide_cluster(
    cfg: &PolicyConfig,
    tenants: &[TenantPolicyView],
    queued: &[(u32, u32)],
    spare: u32,
) -> ClusterDecision {
    if !cfg.enabled {
        return ClusterDecision::None;
    }

    // Admission first, in submission order.
    for &(tenant, held) in queued {
        if held <= spare {
            return ClusterDecision::Admit { tenant };
        }
    }

    // Which tenants are violating with a real deficit? A single pass
    // tracks the count and the minimum, so the hot policy tick allocates
    // nothing. Serve the tenant furthest under its fair share first; the
    // fixed-point ratio keeps the ordering integer-deterministic, and the
    // strict `<` keeps the lowest index on ties (matching the old
    // `min_by_key` over `(ratio, i)`).
    let mut n_candidates = 0usize;
    let mut picked: Option<(u128, usize)> = None;
    for (i, tv) in tenants.iter().enumerate() {
        if tenant_candidate(cfg, tv).is_none() {
            continue;
        }
        n_candidates += 1;
        let ratio = (tv.held as u128 * 1_000_000) / tv.fair_share.max(1) as u128;
        if picked.is_none_or(|(best, _)| ratio < best) {
            picked = Some((ratio, i));
        }
    }
    let Some((_, pick)) = picked else {
        return ClusterDecision::None;
    };

    let tv = &tenants[pick];
    // Under contention, a tenant at or beyond its fair share must find
    // the nodes inside its own allocation (or another tenant's surplus);
    // uncontested, spares flow freely — which is also the single-tenant
    // legacy behaviour.
    let spare_cap = if n_candidates > 1 {
        spare.min(tv.fair_share.saturating_sub(tv.held))
    } else {
        spare
    };
    let decision = decide(cfg, &tv.sla, &tv.views, spare_cap);
    if let Decision::Rebalance { steal: Some(_), .. } = decision {
        return ClusterDecision::Act { tenant: tv.tenant, decision };
    }

    // `pick` came from the candidate set, so this is always Some; if the
    // invariant ever broke we degrade to the in-tenant decision rather
    // than panic.
    let Some((bottleneck, deficit)) = tenant_candidate(cfg, tv) else {
        return ClusterDecision::Act { tenant: tv.tenant, decision };
    };
    let lease_spare = deficit.min(spare_cap);
    let remaining = deficit - lease_spare;
    if remaining > 0 {
        // The in-tenant remedy is incomplete. A donor container in another
        // tenant whose surplus covers the rest completes it; prefer the
        // donor tenant furthest over its fair share, then the biggest
        // surplus, then the lowest container id.
        let donor = tenants
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != pick)
            .flat_map(|(j, dv)| {
                dv.views
                    .iter()
                    .filter(|v| v.online && v.spareable >= remaining)
                    .map(move |v| (j, v))
            })
            .max_by_key(|&(j, v)| {
                let dv = &tenants[j];
                (dv.held.saturating_sub(dv.fair_share), v.spareable, std::cmp::Reverse(v.id))
            });
        if let Some((j, v)) = donor {
            return ClusterDecision::CrossSteal {
                tenant: tv.tenant,
                target: bottleneck.id,
                lease_spare,
                donor_tenant: tenants[j].tenant,
                donor: v.id,
                take: remaining,
            };
        }
    }
    ClusterDecision::Act { tenant: tv.tenant, decision }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u32, units: u32, needed: u32, spareable: u32, avg_s: u64) -> ContainerView {
        ContainerView {
            id: ContainerId(id),
            online: true,
            essential: false,
            units,
            needed,
            spareable,
            queue_len: 2,
            queue_capacity: 8,
            avg_latency: SimDuration::from_secs(avg_s),
            samples: 3,
        }
    }

    fn sla() -> Sla {
        Sla::from_cadence(SimDuration::from_secs(15)) // violation above 30 s
    }

    #[test]
    fn healthy_pipeline_needs_nothing() {
        let views = [view(0, 8, 1, 7, 2), view(1, 2, 2, 0, 20)];
        assert_eq!(decide(&PolicyConfig::default(), &sla(), &views, 4), Decision::None);
    }

    #[test]
    fn spares_are_preferred() {
        let views = [view(0, 8, 1, 7, 2), view(1, 2, 6, 0, 45)];
        assert_eq!(
            decide(&PolicyConfig::default(), &sla(), &views, 4),
            Decision::Rebalance { target: ContainerId(1), lease_spare: 4, steal: None }
        );
    }

    #[test]
    fn steal_completes_the_remedy() {
        // Fig. 7 shape: no spares, Bonds one short, Helper over-provisioned.
        let views = [view(0, 8, 1, 7, 2), view(1, 1, 2, 0, 45)];
        assert_eq!(
            decide(&PolicyConfig::default(), &sla(), &views, 0),
            Decision::Rebalance {
                target: ContainerId(1),
                lease_spare: 0,
                steal: Some((ContainerId(0), 1)),
            }
        );
    }

    #[test]
    fn no_partial_steal() {
        // Donor can spare 3, bottleneck needs 10 more: stealing would not
        // fix it, so with no spares the decision falls through to offline
        // (queue at 50%).
        let mut bott = view(1, 2, 12, 0, 60);
        bott.queue_len = 4;
        let views = [view(0, 4, 1, 3, 2), bott];
        assert_eq!(
            decide(&PolicyConfig::default(), &sla(), &views, 0),
            Decision::Offline { target: ContainerId(1) }
        );
    }

    #[test]
    fn partial_spares_before_offline() {
        let views = [view(0, 4, 1, 3, 2), view(1, 2, 12, 0, 60)];
        assert_eq!(
            decide(&PolicyConfig::default(), &sla(), &views, 4),
            Decision::Rebalance { target: ContainerId(1), lease_spare: 4, steal: None }
        );
    }

    #[test]
    fn offline_waits_for_queue_pressure() {
        let mut bott = view(1, 2, 12, 0, 60);
        bott.queue_len = 1; // 12.5% < 50%
        let views = [view(0, 2, 1, 1, 2), bott];
        assert_eq!(decide(&PolicyConfig::default(), &sla(), &views, 0), Decision::None);
    }

    #[test]
    fn essential_containers_never_go_offline() {
        let mut bott = view(0, 1, 12, 0, 60);
        bott.essential = true;
        bott.queue_len = 8;
        assert_eq!(decide(&PolicyConfig::default(), &sla(), &[bott], 0), Decision::None);
    }

    #[test]
    fn correctly_sized_transient_is_left_alone() {
        // Latency above SLA but units already match the need: backlog is
        // draining (e.g. right after a resize).
        let views = [view(1, 6, 6, 0, 45)];
        assert_eq!(decide(&PolicyConfig::default(), &sla(), &views, 4), Decision::None);
    }

    #[test]
    fn disabled_policy_does_nothing() {
        let views = [view(1, 1, 6, 0, 100)];
        let cfg = PolicyConfig { enabled: false, ..PolicyConfig::default() };
        assert_eq!(decide(&cfg, &sla(), &views, 8), Decision::None);
    }

    #[test]
    fn recovery_restarts_on_spares_within_budget() {
        let cfg = RecoveryConfig::default();
        let failed = FailureView { id: ContainerId(1), needed: 2, restarts_so_far: 0 };
        assert_eq!(
            decide_recovery(&cfg, &failed, 4),
            Decision::Restart { target: ContainerId(1), lease_spare: 2 }
        );
        // Spares cap the lease.
        assert_eq!(
            decide_recovery(&cfg, &failed, 1),
            Decision::Restart { target: ContainerId(1), lease_spare: 1 }
        );
        // Zero-need containers still get one node back.
        let tiny = FailureView { needed: 0, ..failed };
        assert_eq!(
            decide_recovery(&cfg, &tiny, 4),
            Decision::Restart { target: ContainerId(1), lease_spare: 1 }
        );
    }

    #[test]
    fn recovery_falls_back_to_offline_staging() {
        let cfg = RecoveryConfig::default();
        // No spares left.
        let failed = FailureView { id: ContainerId(1), needed: 2, restarts_so_far: 0 };
        assert_eq!(decide_recovery(&cfg, &failed, 0), Decision::Offline { target: ContainerId(1) });
        // Retry budget spent.
        let spent = FailureView { restarts_so_far: cfg.max_restarts, ..failed };
        assert_eq!(decide_recovery(&cfg, &spent, 8), Decision::Offline { target: ContainerId(1) });
    }

    #[test]
    fn offline_ignores_inactive_containers() {
        let mut off = view(2, 0, 0, 0, 500);
        off.online = false;
        let views = [view(0, 8, 1, 7, 2), off];
        assert_eq!(decide(&PolicyConfig::default(), &sla(), &views, 0), Decision::None);
    }

    fn tenant(ix: u32, fair_share: u32, held: u32, views: Vec<ContainerView>) -> TenantPolicyView {
        TenantPolicyView { tenant: ix, sla: sla(), fair_share, held, views }
    }

    #[test]
    fn single_tenant_cluster_reduces_to_decide() {
        let cfg = PolicyConfig::default();
        for (views, spare) in [
            (vec![view(0, 8, 1, 7, 2), view(1, 2, 6, 0, 45)], 4u32), // spares
            (vec![view(0, 8, 1, 7, 2), view(1, 1, 2, 0, 45)], 0),    // in-tenant steal
            (vec![view(0, 8, 1, 7, 2), view(1, 2, 2, 0, 20)], 4),    // healthy
        ] {
            let expected = decide(&cfg, &sla(), &views, spare);
            let tv = tenant(0, 13, 13, views);
            let got = decide_cluster(&cfg, &[tv], &[], spare);
            match expected {
                Decision::None => assert_eq!(got, ClusterDecision::None),
                d => assert_eq!(got, ClusterDecision::Act { tenant: 0, decision: d }),
            }
        }
    }

    #[test]
    fn admission_outranks_rebalancing() {
        let cfg = PolicyConfig::default();
        let starving = tenant(0, 8, 2, vec![view(1, 2, 6, 0, 45)]);
        // Second queued tenant fits, first does not: submission order wins
        // among those that fit.
        let got = decide_cluster(&cfg, &[starving], &[(1, 9), (2, 4)], 6);
        assert_eq!(got, ClusterDecision::Admit { tenant: 2 });
    }

    #[test]
    fn fair_share_serves_the_most_under_share_tenant() {
        let cfg = PolicyConfig::default();
        // Both tenants violate and need 2 nodes; tenant 1 is far under its
        // share, tenant 0 is over.
        let t0 = tenant(0, 8, 12, vec![view(0, 2, 4, 0, 45)]);
        let t1 = tenant(1, 8, 3, vec![view(10, 2, 4, 0, 45)]);
        let got = decide_cluster(&cfg, &[t0, t1], &[], 4);
        assert_eq!(
            got,
            ClusterDecision::Act {
                tenant: 1,
                decision: Decision::Rebalance {
                    target: ContainerId(10),
                    lease_spare: 2,
                    steal: None
                },
            }
        );
    }

    #[test]
    fn contention_caps_spares_at_the_fair_share() {
        let cfg = PolicyConfig::default();
        // Tenant 0 is picked (more under share) but only 1 node under its
        // share: the lease is capped at 1 of the 4 spares, leaving nodes
        // for the other violating tenant's turn.
        let t0 = tenant(0, 8, 7, vec![view(0, 2, 5, 0, 45)]);
        let t1 = tenant(1, 8, 8, vec![view(10, 2, 5, 0, 45)]);
        let got = decide_cluster(&cfg, &[t0, t1], &[], 4);
        assert_eq!(
            got,
            ClusterDecision::Act {
                tenant: 0,
                decision: Decision::Rebalance {
                    target: ContainerId(0),
                    lease_spare: 1,
                    steal: None
                },
            }
        );
    }

    #[test]
    fn cross_tenant_steal_taps_an_underusing_tenant() {
        let cfg = PolicyConfig::default();
        // Tenant 0's bottleneck needs 2; no spares and no in-tenant donor.
        // Tenant 1 holds far more than its share and can spare 3.
        let t0 = tenant(0, 8, 3, vec![view(0, 1, 3, 0, 45)]);
        let t1 = tenant(1, 8, 13, vec![view(10, 13, 1, 3, 2)]);
        let got = decide_cluster(&cfg, &[t0, t1], &[], 0);
        assert_eq!(
            got,
            ClusterDecision::CrossSteal {
                tenant: 0,
                target: ContainerId(0),
                lease_spare: 0,
                donor_tenant: 1,
                donor: ContainerId(10),
                take: 2,
            }
        );
    }

    #[test]
    fn cross_steal_not_taken_when_in_tenant_remedy_completes() {
        let cfg = PolicyConfig::default();
        let t0 = tenant(0, 8, 9, vec![view(0, 8, 1, 7, 2), view(1, 1, 2, 0, 45)]);
        let t1 = tenant(1, 8, 7, vec![view(10, 7, 1, 6, 2)]);
        let got = decide_cluster(&cfg, &[t0, t1], &[], 0);
        assert_eq!(
            got,
            ClusterDecision::Act {
                tenant: 0,
                decision: Decision::Rebalance {
                    target: ContainerId(1),
                    lease_spare: 0,
                    steal: Some((ContainerId(0), 1)),
                },
            }
        );
    }

    #[test]
    fn disabled_policy_decides_nothing_cluster_wide() {
        let cfg = PolicyConfig { enabled: false, ..PolicyConfig::default() };
        let t0 = tenant(0, 8, 2, vec![view(0, 1, 6, 0, 100)]);
        assert_eq!(decide_cluster(&cfg, &[t0], &[(1, 2)], 8), ClusterDecision::None);
    }
}
