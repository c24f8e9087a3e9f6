//! Property-based tests on the core invariants, spanning crates.

use proptest::prelude::*;

use adios::{AttrValue, DataType, Dims, StepData, Value};
use d2t::{Aggregate, RootState, Vote, VoteCollector};
use datatap::TransportCosts;
use iocontainers::policy::{
    decide, decide_recovery, ContainerView, Decision, FailureView, PolicyConfig, RecoveryConfig,
};
use iocontainers::{ContainerId, ContainerSpec, ContainerState, Provenance, Sla};
use sim_core::stats::{SlidingWindow, Welford};
use sim_core::SimDuration;
use simnet::{NetworkConfig, NodeId, StagingArea, Topology};
use smartpointer::{ComputeModel, ServiceModel};

// ---------------------------------------------------------------- adios --

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        proptest::collection::vec(any::<f64>().prop_filter("finite", |x| x.is_finite()), 0..64)
            .prop_map(|v| Value::from_f64(&v, Dims::local1d(v.len() as u64)).unwrap()),
        proptest::collection::vec(any::<i64>(), 0..64)
            .prop_map(|v| Value::from_i64(&v, Dims::local1d(v.len() as u64)).unwrap()),
        proptest::collection::vec(any::<u8>(), 0..256)
            .prop_map(|v| Value::from_u8(&v, Dims::local1d(v.len() as u64)).unwrap()),
    ]
}

fn arb_step() -> impl Strategy<Value = StepData> {
    (
        any::<u64>(),
        proptest::collection::btree_map("[a-z]{1,12}", arb_value(), 0..8),
        proptest::collection::btree_map(
            "[a-z_.]{1,16}",
            prop_oneof![
                any::<i64>().prop_map(AttrValue::Int),
                "[ -~]{0,32}".prop_map(AttrValue::Str),
                any::<f64>().prop_filter("finite", |x| x.is_finite()).prop_map(AttrValue::Float),
            ],
            0..6,
        ),
    )
        .prop_map(|(ix, vals, attrs)| {
            let mut s = StepData::new(ix);
            for (k, v) in vals {
                s.write_unchecked(k, v);
            }
            for (k, v) in attrs {
                s.set_attr(k, v);
            }
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bp_codec_round_trips_arbitrary_steps(step in arb_step()) {
        let blob = adios::bp::encode("group", &step);
        let back = adios::bp::decode(blob).expect("encode/decode must round-trip");
        prop_assert_eq!(back.group.as_str(), "group");
        prop_assert_eq!(back.data.step(), step.step());
        prop_assert_eq!(back.data.values().count(), step.values().count());
        for (name, value) in step.values() {
            let got = back.data.value(name).expect("variable survives");
            prop_assert_eq!(got.bytes().as_ref(), value.bytes().as_ref());
            prop_assert_eq!(got.dtype(), value.dtype());
        }
        for (key, attr) in step.attrs() {
            prop_assert_eq!(back.data.attr(key).expect("attribute survives"), attr);
        }
    }

    #[test]
    fn bp_codec_detects_single_byte_corruption(
        step in arb_step(),
        flip in any::<(usize, u8)>()
    ) {
        let blob = adios::bp::encode("g", &step).to_vec();
        let pos = 12 + flip.0 % blob.len().saturating_sub(12).max(1); // skip magic+checksum
        let mask = if flip.1 == 0 { 1 } else { flip.1 };
        let mut bad = blob.clone();
        bad[pos] ^= mask;
        prop_assert!(adios::bp::decode(bytes::Bytes::from(bad)).is_err());
    }

    #[test]
    fn value_length_validation_is_exact(len in 0u64..64, extra in 1usize..16) {
        let data = vec![0u8; (len as usize) * 8 + extra];
        let r = Value::from_bytes(DataType::F64, Dims::local1d(len), bytes::Bytes::from(data));
        prop_assert!(r.is_err());
    }
}

// ------------------------------------------------------------------ d2t --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn vote_collector_verdict_is_unanimity(
        size in 1usize..32,
        votes in proptest::collection::vec((0u32..32, any::<bool>()), 0..64)
    ) {
        let mut c = VoteCollector::new(size);
        let mut first_vote: std::collections::BTreeMap<u32, bool> = Default::default();
        for (pid, yes) in votes {
            let pid = pid % size as u32;
            first_vote.entry(pid).or_insert(yes);
            c.record(pid, if yes { Vote::Yes } else { Vote::No });
        }
        let all_voted = first_vote.len() == size;
        let any_no = first_vote.values().any(|&v| !v);
        match c.verdict() {
            Vote::Yes => prop_assert!(all_voted && !any_no),
            Vote::No => prop_assert!(!all_voted || any_no),
        }
    }

    #[test]
    fn aggregate_merge_is_order_independent(
        votes in proptest::collection::vec(any::<bool>(), 1..40)
    ) {
        let mut fwd = Aggregate::default();
        for &v in &votes {
            fwd.merge(Aggregate::from_vote(if v { Vote::Yes } else { Vote::No }));
        }
        let mut rev = Aggregate::default();
        for &v in votes.iter().rev() {
            rev.merge(Aggregate::from_vote(if v { Vote::Yes } else { Vote::No }));
        }
        prop_assert_eq!(fwd, rev);
        prop_assert_eq!(fwd.count as usize, votes.len());
    }

    #[test]
    fn root_decision_is_and_of_verdicts(groups in proptest::collection::vec(any::<bool>(), 1..6)) {
        let mut r = RootState::new(groups.len());
        for &g in &groups {
            r.record(if g { Vote::Yes } else { Vote::No });
        }
        let d = r.decision().expect("all groups reported");
        prop_assert_eq!(d == d2t::Decision::Commit, groups.iter().all(|&g| g));
    }
}

// --------------------------------------------------------------- simnet --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn staging_area_never_double_leases(
        total in 1u32..64,
        ops in proptest::collection::vec((any::<bool>(), 0u32..16), 1..40)
    ) {
        let mut area = StagingArea::with_nodes(0, total);
        let mut held: Vec<Vec<NodeId>> = Vec::new();
        for (lease, n) in ops {
            if lease {
                if let Ok(nodes) = area.lease(n) {
                    // Leased nodes must be disjoint from everything held.
                    for batch in &held {
                        for node in &nodes {
                            prop_assert!(!batch.contains(node));
                        }
                    }
                    held.push(nodes);
                }
            } else if let Some(batch) = held.pop() {
                prop_assert!(area.release(&batch).is_ok());
            }
            let held_count: u32 = held.iter().map(|b| b.len() as u32).sum();
            prop_assert_eq!(area.spare() + held_count, total);
        }
    }

    #[test]
    fn torus_hops_are_a_metric(
        dims in (1u32..6, 1u32..6, 1u32..6),
        a in 0u32..200, b in 0u32..200, c in 0u32..200
    ) {
        let size = dims.0 * dims.1 * dims.2;
        let topo = Topology::Torus3D { dims };
        let (a, b, c) = (NodeId(a % size), NodeId(b % size), NodeId(c % size));
        // Identity, symmetry, triangle inequality.
        prop_assert_eq!(topo.hops(a, a), 0);
        prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
        prop_assert!(topo.hops(a, c) <= topo.hops(a, b) + topo.hops(b, c));
    }
}

// ---------------------------------------------------------------- stats --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn welford_merge_matches_sequential(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
        split in any::<prop::sample::Index>()
    ) {
        let cut = split.index(xs.len());
        let mut whole = Welford::new();
        for &x in &xs {
            whole.add(x);
        }
        let (mut a, mut b) = (Welford::new(), Welford::new());
        for &x in &xs[..cut] {
            a.add(x);
        }
        for &x in &xs[cut..] {
            b.add(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-3);
    }

    #[test]
    fn sliding_window_mean_bounded_by_extremes(
        cap in 1usize..16,
        xs in proptest::collection::vec(0u64..100_000, 1..64)
    ) {
        let mut w = SlidingWindow::new(cap);
        for &x in &xs {
            w.push(SimDuration::from_micros(x));
        }
        let tail: Vec<u64> = xs[xs.len().saturating_sub(cap)..].to_vec();
        let min = *tail.iter().min().unwrap();
        let max = *tail.iter().max().unwrap();
        let mean = w.mean().as_micros();
        prop_assert!(mean >= min && mean <= max, "{min} <= {mean} <= {max}");
        prop_assert_eq!(w.max().as_micros(), max);
    }
}

// --------------------------------------------------------------- policy --

fn arb_view(id: u32) -> impl Strategy<Value = ContainerView> {
    (any::<bool>(), 0u32..16, 0u32..24, 0usize..8, 0u64..400, 0usize..8).prop_map(
        move |(online, units, needed, queue_len, lat_s, samples)| ContainerView {
            id: ContainerId(id),
            online,
            essential: id == 0,
            units,
            needed,
            spareable: units.saturating_sub(needed.max(1)),
            queue_len,
            queue_capacity: 8,
            avg_latency: SimDuration::from_secs(lat_s),
            samples,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn policy_decisions_are_always_safe(
        v0 in arb_view(0), v1 in arb_view(1), v2 in arb_view(2),
        spare in 0u32..8
    ) {
        let views = [v0, v1, v2];
        let cfg = PolicyConfig::default();
        let sla = Sla::paper_default();
        match decide(&cfg, &sla, &views, spare) {
            Decision::None => {}
            Decision::Rebalance { target, lease_spare, steal } => {
                let t = views.iter().find(|v| v.id == target).unwrap();
                prop_assert!(t.online, "only online containers are grown");
                prop_assert!(lease_spare <= spare, "cannot lease more than spare");
                let deficit = t.needed.saturating_sub(t.units);
                prop_assert!(lease_spare + steal.map(|(_, k)| k).unwrap_or(0) <= deficit);
                if let Some((donor, k)) = steal {
                    prop_assert_ne!(donor, target, "no self-steal");
                    let d = views.iter().find(|v| v.id == donor).unwrap();
                    prop_assert!(d.online);
                    prop_assert!(k <= d.spareable, "donor keeps what it needs");
                }
            }
            Decision::Offline { target } => {
                let t = views.iter().find(|v| v.id == target).unwrap();
                prop_assert!(!t.essential, "essential containers never go offline");
                prop_assert!(t.online);
                prop_assert!(sla.container_violated(t.avg_latency));
            }
            Decision::Restart { .. } => {
                prop_assert!(false, "the SLA policy never restarts; that is recovery's job");
            }
        }
    }

    #[test]
    fn recovery_decisions_are_always_safe(
        needed in 0u32..16,
        restarts_so_far in 0u32..6,
        spare in 0u32..8,
        max_restarts in 0u32..4
    ) {
        let cfg = RecoveryConfig { max_restarts, ..RecoveryConfig::default() };
        let failed = FailureView { id: ContainerId(1), needed, restarts_so_far };
        match decide_recovery(&cfg, &failed, spare) {
            Decision::Restart { target, lease_spare } => {
                prop_assert_eq!(target, failed.id);
                prop_assert!(restarts_so_far < max_restarts, "retries stay bounded");
                prop_assert!(lease_spare >= 1 && lease_spare <= spare);
            }
            Decision::Offline { target } => {
                prop_assert_eq!(target, failed.id);
                prop_assert!(spare == 0 || restarts_so_far >= max_restarts);
            }
            other => prop_assert!(false, "recovery never rebalances: {:?}", other),
        }
    }
}

// ------------------------------------------------------- transport costs --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The overflow fix's contract: wire time is monotone non-decreasing in
    /// the payload size all the way up to `u64::MAX` bytes (the old
    /// `bytes * 1e9` arithmetic wrapped long before that and broke this).
    #[test]
    fn wire_time_is_monotone_in_bytes(
        a in any::<u64>(),
        b in any::<u64>(),
        src in 0u32..64,
        dst in 0u32..64
    ) {
        let cfg = NetworkConfig::qdr_torus((4, 4, 4));
        let (lo, hi) = (a.min(b), a.max(b));
        let (src, dst) = (NodeId(src), NodeId(dst));
        prop_assert!(cfg.wire_time(src, dst, lo) <= cfg.wire_time(src, dst, hi));
    }

    /// Same contract for the datatap drain estimate, including the
    /// degenerate 1 B/s bandwidth where every byte overflowed before.
    #[test]
    fn drain_time_is_monotone_in_queued_bytes(
        a in any::<u64>(),
        b in any::<u64>(),
        bw in 1u64..u64::MAX
    ) {
        let costs = TransportCosts::default();
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(costs.drain_time(lo, bw) <= costs.drain_time(hi, bw));
        // And it never panics at the extremes.
        let _ = costs.drain_time(u64::MAX, 1);
        let _ = costs.drain_time(u64::MAX, u64::MAX);
    }
}

// ----------------------------------------------------------- provenance --

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn provenance_round_trips_and_completes_in_order(
        ran in proptest::collection::vec("[A-Za-z]{1,8}", 0..4),
        pruned in proptest::collection::vec("[A-Za-z]{1,8}", 0..4)
    ) {
        let ran_refs: Vec<&str> = ran.iter().map(String::as_str).collect();
        let pruned_refs: Vec<&str> = pruned.iter().map(String::as_str).collect();
        let p = Provenance::from_split(&ran_refs, &pruned_refs);
        let mut step = StepData::new(0);
        p.stamp(&mut step);
        let mut back = Provenance::read(&step);
        // Commas in names would break the list encoding; the generator
        // avoids them, and the round trip must be exact.
        prop_assert_eq!(&back, &p);
        // Completing in order always succeeds; out of order never does.
        let pending = back.pending_ops.clone();
        for (i, op) in pending.iter().enumerate() {
            for later in &pending[i + 1..] {
                if later != op {
                    prop_assert!(!back.complete(later));
                }
            }
            prop_assert!(back.complete(op));
        }
        prop_assert!(back.fully_processed());
    }
}

// ----------------------------------------------------------- cost model --

/// The cost model as one closed form per call, evaluated from the atom
/// count every time: the reference the precomputed split must equal.
fn reference_step_time_with(
    m: &ServiceModel,
    atoms: u64,
    model: ComputeModel,
    units: u32,
) -> SimDuration {
    let x = atoms as f64 / 1e6;
    let base = SimDuration::from_secs_f64(m.coeff_s * x.powf(m.exponent));
    match model {
        ComputeModel::Serial | ComputeModel::RoundRobin => base,
        ComputeModel::Parallel | ComputeModel::Tree => {
            let units = units.max(1) as f64;
            base.mul_f64(1.0 / (1.0 + m.parallel_efficiency * (units - 1.0)))
        }
    }
}

fn reference_units_to_sustain(
    m: &ServiceModel,
    atoms: u64,
    model: ComputeModel,
    cadence: SimDuration,
) -> u32 {
    let need = reference_step_time_with(m, atoms, ComputeModel::Serial, 1).as_secs_f64()
        / cadence.as_secs_f64();
    match model {
        ComputeModel::RoundRobin => need.ceil().max(1.0) as u32,
        ComputeModel::Parallel | ComputeModel::Tree => {
            if need <= 1.0 {
                1
            } else {
                (((need - 1.0) / m.parallel_efficiency) + 1.0).ceil() as u32
            }
        }
        ComputeModel::Serial => 1,
    }
}

fn arb_compute_model() -> impl Strategy<Value = ComputeModel> {
    (0u8..4).prop_map(|k| match k {
        0 => ComputeModel::Serial,
        1 => ComputeModel::RoundRobin,
        2 => ComputeModel::Parallel,
        _ => ComputeModel::Tree,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn precomputed_cost_model_matches_fresh_evaluation(
        coeff_s in 0.0f64..500.0,
        exponent in 0.0f64..3.5,
        parallel_efficiency in 0.05f64..1.0,
        (mantissa, decade) in (1u64..1000, 0u32..6),
        units in 0u32..=32,
        model in arb_compute_model(),
        cadence_ms in 1u64..600_000
    ) {
        let service = ServiceModel { coeff_s, exponent, parallel_efficiency };
        let atoms = mantissa * 10u64.pow(decade);
        let cadence = SimDuration::from_millis(cadence_ms);
        let want_time = reference_step_time_with(&service, atoms, model, units);
        let want_units = reference_units_to_sustain(&service, atoms, model, cadence);

        // The split form: the atom-dependent base once, the unit scaling
        // per call.
        let base = service.step_time(atoms);
        prop_assert_eq!(service.scaled_step_time(base, model, units), want_time);
        prop_assert_eq!(service.step_time_with(atoms, model, units), want_time);
        prop_assert_eq!(service.units_to_sustain_from(base, model, cadence), want_units);
        prop_assert_eq!(service.units_to_sustain(atoms, model, cadence), want_units);

        // A container holds the same constants from construction on and
        // reads its unit count per call.
        let spec = ContainerSpec {
            name: "C",
            model,
            service,
            initial_nodes: units,
            queue_capacity: 4,
            essential: false,
            depends_on: Vec::new(),
            starts_active: true,
            output_ratio: 1.0,
        };
        let nodes = (0..units).map(NodeId).collect();
        let st = ContainerState::new(ContainerId(0), spec, nodes, atoms, cadence);
        prop_assert_eq!(st.step_time(), want_time);
        prop_assert_eq!(st.units_needed(), want_units);
        prop_assert_eq!(
            st.throughput().to_bits(),
            service.throughput(atoms, model, units).to_bits()
        );
    }
}
