//! Layer probes: each calls one layer's public functions directly, on one
//! thread, on inputs shaped like the workload that leans on that layer.
//! A probe's cost times the workload's call count is what
//! `recon.explained_share` adds up.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use adios::{AttrValue, DataType, Dims, StepData, Value};
use bytes::Bytes;
use d2t::{run_transaction, TxnConfig};
use datatap::{channel, PullPolicy, ScheduledReader};
use evpath::{Action, Event, Overlay};
use iocontainers::policy::{decide, decide_cluster, ContainerView, TenantPolicyView};
use iocontainers::{codec, ContainerId, PolicyConfig, Sla};
use mdsim::{MdConfig, MdEngine};
use sim_core::{Sim, SimDuration, SimTime};
use simnet::{Network, NetworkConfig, NodeId};
use smartpointer::{split_snapshot, AggregationTree, Bonds, CSym, Cna};
use stream::{Attach, StreamConfig, StreamEngine};

use crate::util::{median, time_per_call, Rng};

/// Seconds each probe may spend.
const PROBE_S: f64 = 0.06;

/// Pending events `des_cluster200` starts with: one pre-scheduled emit per
/// tenant step (12 × 40 + 188 × 120) plus its policy ticks.
const CLUSTER200_PENDING: u64 = 23_200;

fn sim_replay_ns_per_event() -> f64 {
    const CHAINS: u64 = 64;
    const EVENTS: u64 = 100_000;
    fn link(sim: &mut Sim, mut rng: Rng, budget: u64) {
        if budget > 1 {
            let delay = SimDuration::from_nanos(rng.below(10_000));
            sim.schedule_in_named("probe.replay", delay, move |sim| link(sim, rng, budget - 1));
        }
    }
    let mut samples = Vec::new();
    for rep in 0..3 {
        let mut sim = Sim::new(rep);
        // The standing backlog the hot events are pushed and popped past.
        for i in 0..CLUSTER200_PENDING {
            sim.schedule_at_named(
                "probe.pending",
                SimTime::from_secs(3_600) + SimDuration::from_nanos(i),
                |_| {},
            );
        }
        for chain in 0..CHAINS {
            let rng = Rng(chain);
            sim.schedule_at_named("probe.replay", SimTime::from_nanos(chain), move |sim| {
                link(sim, rng, EVENTS / CHAINS)
            });
        }
        let t0 = Instant::now();
        sim.run_until(SimTime::from_secs(1_800));
        let hot = sim.events_executed();
        samples.push(t0.elapsed().as_nanos() as f64 / hot as f64);
    }
    median(&samples)
}

fn sim_new_us() -> f64 {
    1e6 * time_per_call(PROBE_S, 64, || {
        let mut sim = Sim::new(7);
        for i in 0..100u64 {
            sim.schedule_at_named("probe.first", SimTime::from_nanos(i * 1_000), |_| {});
        }
        black_box(sim.events_pending());
    })
}

fn net_transfer_ns_per_op() -> f64 {
    const OPS: u32 = 1_000;
    1e9 / OPS as f64
        * time_per_call(PROBE_S, 4, || {
            let mut sim = Sim::new(3);
            let net = Network::new(NetworkConfig::portals_xt4());
            for i in 0..OPS {
                let (src, dst) = (NodeId(i % 256), NodeId(256 + i % 13));
                black_box(net.borrow().config().wire_time(src, dst, 8 << 20));
                Network::transfer(&net, &mut sim, src, dst, 8 << 20, |_| {});
            }
            sim.run();
        })
}

fn network_new_us() -> f64 {
    // fig7's machine: 256 simulation + 13 staging NICs touched once each.
    1e6 * time_per_call(PROBE_S, 8, || {
        let mut sim = Sim::new(3);
        let net = Network::new(NetworkConfig::portals_xt4());
        for i in 0..256 {
            Network::transfer(&net, &mut sim, NodeId(i), NodeId(256 + i % 13), 64, |_| {});
        }
        black_box(net.borrow().stats());
    })
}

fn evpath_dispatch_ns_per_event() -> f64 {
    const EVENTS: u64 = 1_000;
    let ov = Overlay::new("probe");
    let sink = ov.add_stone(Action::Terminal(Box::new(|ev| {
        black_box(ev.id());
    })));
    let filter = ov.add_stone(Action::Filter {
        predicate: Box::new(|ev| *ev.expect::<u64>() % 2 == 0),
        target: sink,
    });
    let per_batch = time_per_call(PROBE_S, 4, || {
        for i in 0..EVENTS {
            ov.submit(filter, Event::new(i));
        }
        ov.flush();
    });
    ov.shutdown();
    1e9 * per_batch / EVENTS as f64
}

fn datatap_write_pull_ns() -> f64 {
    let (w, r) = channel(4);
    let mut step = 0u64;
    1e9 * time_per_call(PROBE_S, 1_000, || {
        step += 1;
        w.try_write(StepData::new(step))
            .expect("capacity 4 holds one step");
        black_box(r.try_pull().expect("the step just written"));
    })
}

/// `pause` → `resume` on a fresh channel and on one that carried four
/// steps and was drained before the pause; the mean of the two.
fn datatap_pause_resume_ns() -> f64 {
    let pair = |w: &datatap::Writer| {
        time_per_call(PROBE_S / 2.0, 1_000, || {
            black_box(w.pause().expect("nothing to drain"));
            w.resume();
        })
    };
    let (fresh, _fresh_reader) = channel(4);
    let (used, used_reader) = channel(4);
    for step in 0..4 {
        used.try_write(StepData::new(step)).expect("capacity 4");
    }
    while used_reader.try_pull().is_some() {}
    1e9 * (pair(&fresh) + pair(&used)) / 2.0
}

/// Four scheduled pulls (slot, pull, guard drop) of steps written outside
/// the timed region.
fn datatap_sched_pull_ns() -> f64 {
    let (w, r) = channel(4);
    let sched = ScheduledReader::new(r, PullPolicy::fifo());
    let mut step = 0u64;
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < PROBE_S {
        let mut timed_ns = 0u128;
        for _ in 0..250 {
            for _ in 0..4 {
                step += 1;
                w.try_write(StepData::new(step)).expect("capacity 4");
            }
            let t0 = Instant::now();
            for _ in 0..4 {
                let (guard, meta, _data) = sched.pull().expect("a written step");
                black_box(meta);
                drop(guard);
            }
            timed_ns += t0.elapsed().as_nanos();
        }
        samples.push(timed_ns as f64 / 1_000.0);
    }
    median(&samples)
}

fn kib_fragment(payload: &Value, rank: u32, step: u64) -> StepData {
    let mut frag = StepData::new(step);
    frag.write_unchecked("payload", payload.clone());
    frag.set_attr("rank", AttrValue::Int(rank as i64));
    frag
}

/// `stream_fanout`'s shape on one thread: 4 ranks `try_write` a 1 KiB
/// fragment each, 3 cursors `try_next_step`.
fn stream_seal_pull_ns_per_step() -> f64 {
    let payload = Value::from_bytes(
        DataType::U8,
        Dims::local1d(1024),
        Bytes::from(vec![7u8; 1024]),
    )
    .expect("length matches dims");
    let eng = StreamEngine::new(StreamConfig {
        writers: 4,
        retention: 8,
    });
    let writers: Vec<_> = (0..4).map(|r| eng.writer(r)).collect();
    let cursors: Vec<_> = ["viz", "analytics", "tail"]
        .iter()
        .map(|name| {
            eng.reader(*name, Attach::Oldest, None)
                .expect("fresh cursor")
        })
        .collect();
    let mut step = 0u64;
    1e9 * time_per_call(PROBE_S, 500, || {
        step += 1;
        for (rank, w) in writers.iter().enumerate() {
            w.try_write(kib_fragment(&payload, rank as u32, step))
                .expect("log has room");
        }
        for c in &cursors {
            black_box(c.try_next_step().expect("the step just sealed"));
        }
    })
}

fn stream_pause_resume_ns() -> f64 {
    let eng = StreamEngine::new(StreamConfig {
        writers: 1,
        retention: 8,
    });
    let w = eng.writer(0);
    let _cursor = eng
        .reader("only", Attach::Oldest, None)
        .expect("fresh cursor");
    1e9 * time_per_call(PROBE_S, 1_000, || {
        black_box(w.pause().expect("nothing to drain"));
        w.resume();
    })
}

/// Everything that needs `live_managed`'s crystal: one 4,000-atom
/// snapshot shared by the MD, Helper, kernel and codec probes.
fn live_shaped(out: &mut BTreeMap<&'static str, f64>) {
    let cfg = MdConfig {
        cells: (10, 10, 10),
        ..MdConfig::fracture()
    };
    let atoms = cfg.atom_count() as f64;
    let mut md = MdEngine::new(cfg);
    let per_atom = |secs: f64| 1e9 * secs / atoms;

    out.insert(
        "mdsim.ns_per_atom_step",
        per_atom(time_per_call(PROBE_S, 1, || {
            black_box(md.run_epoch(1));
        })),
    );
    let snap = md.run_epoch(1);
    let tree = AggregationTree::new(2);
    out.insert(
        "smartpointer.aggregate_ns_per_atom",
        per_atom(time_per_call(PROBE_S, 4, || {
            black_box(tree.aggregate(split_snapshot(&snap, 4)));
        })),
    );
    let (bonds, csym, cna) = (Bonds::default(), CSym::default(), Cna::default());
    out.insert(
        "smartpointer.bonds_n2_ns_per_atom",
        per_atom(time_per_call(PROBE_S, 1, || {
            black_box(bonds.compute_n2(&snap));
        })),
    );
    out.insert(
        "smartpointer.bonds_ns_per_atom",
        per_atom(time_per_call(PROBE_S, 1, || {
            black_box(bonds.compute(&snap));
        })),
    );
    let bonded = bonds.compute(&snap);
    out.insert(
        "smartpointer.csym_ns_per_atom",
        per_atom(time_per_call(PROBE_S, 1, || {
            black_box(csym.compute(&bonded));
        })),
    );
    out.insert(
        "smartpointer.cna_ns_per_atom",
        per_atom(time_per_call(PROBE_S, 1, || {
            black_box(cna.compute(&bonded));
        })),
    );
    out.insert(
        "iocontainers.codec_encode_ns_per_atom",
        per_atom(time_per_call(PROBE_S, 4, || {
            black_box(codec::snapshot_to_step(&snap));
            black_box(codec::bonds_to_step(&bonded));
        })),
    );
    let (snap_step, bonds_step) = (
        codec::snapshot_to_step(&snap),
        codec::bonds_to_step(&bonded),
    );
    out.insert(
        "iocontainers.codec_decode_ns_per_atom",
        per_atom(time_per_call(PROBE_S, 4, || {
            black_box(codec::step_to_snapshot(&snap_step));
            black_box(codec::step_to_bonds(&bonds_step));
        })),
    );
}

/// Fork-join of empty work over two chunks on two threads, minus the same
/// call run inline on one: what a parallel kernel pays before any work.
fn simpar_fork_join_us() -> f64 {
    let call = |threads| {
        time_per_call(PROBE_S / 2.0, 16, || {
            black_box(simpar::map_chunks(2, threads, |range| range.len()));
        })
    };
    1e6 * (call(2) - call(1)).max(0.0)
}

fn d2t_txn_host_us() -> f64 {
    let cfg = TxnConfig {
        writers: 4,
        readers: 4,
        ..TxnConfig::default()
    };
    1e6 * time_per_call(PROBE_S, 4, || {
        let mut sim = Sim::new(6);
        let net = Network::new(NetworkConfig::qdr_torus((18, 18, 18)));
        black_box(run_transaction(
            &mut sim,
            &net,
            &cfg,
            &d2t::FaultPlan::default(),
        ));
    })
}

fn views(n: u32) -> Vec<ContainerView> {
    (0..n)
        .map(|i| ContainerView {
            id: ContainerId(i),
            online: true,
            essential: i == 0,
            units: 2 + i,
            needed: 2 + i,
            spareable: 0,
            queue_len: 1,
            queue_capacity: 8,
            avg_latency: SimDuration::from_secs(10 + i as u64),
            samples: 3,
        })
        .collect()
}

fn decide_ns() -> f64 {
    let (cfg, sla, views) = (PolicyConfig::default(), Sla::paper_default(), views(5));
    1e9 * time_per_call(PROBE_S, 10_000, || {
        black_box(decide(&cfg, &sla, black_box(&views), 4));
    })
}

fn decide_cluster_us_200t() -> f64 {
    let cfg = PolicyConfig::default();
    let tenants: Vec<TenantPolicyView> = (0..200)
        .map(|tenant| TenantPolicyView {
            tenant,
            sla: Sla::paper_default(),
            fair_share: 5,
            held: 5,
            views: views(4),
        })
        .collect();
    1e6 * time_per_call(PROBE_S, 100, || {
        black_box(decide_cluster(&cfg, black_box(&tenants), &[], 4));
    })
}

/// Runs every probe; keys are per-layer metric names.
pub fn run_all() -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    out.insert("sim-core.replay_ns_per_event", sim_replay_ns_per_event());
    out.insert("sim-core.new_sim_us", sim_new_us());
    out.insert("simnet.transfer_ns_per_op", net_transfer_ns_per_op());
    out.insert("simnet.network_new_us", network_new_us());
    out.insert(
        "evpath.dispatch_ns_per_event",
        evpath_dispatch_ns_per_event(),
    );
    out.insert("datatap.write_pull_ns_per_step", datatap_write_pull_ns());
    out.insert("datatap.pause_resume_ns", datatap_pause_resume_ns());
    out.insert("datatap.sched_pull_ns_per_step", datatap_sched_pull_ns());
    out.insert(
        "stream.seal_pull_ns_per_step_1t",
        stream_seal_pull_ns_per_step(),
    );
    out.insert("stream.pause_resume_ns", stream_pause_resume_ns());
    live_shaped(&mut out);
    out.insert("simpar.fork_join_us", simpar_fork_join_us());
    out.insert("d2t.txn_host_us", d2t_txn_host_us());
    out.insert("iocontainers.decide_ns", decide_ns());
    out.insert(
        "iocontainers.decide_cluster_us_200t",
        decide_cluster_us_200t(),
    );
    out
}
