//! Generators for the paper's tables and figures.
//!
//! Each public function computes the data behind one table or figure of
//! the paper (or one of this repo's sweeps and ablations) and returns it
//! as a printable [`Table`]; the `figures` binary prints them. Every value
//! is a deterministic outcome of the simulation, not a wall-clock
//! measurement — performance is measured in `benchmark/` (see
//! `BENCHMARK.json`).

use std::rc::Rc;

use d2t::{run_transaction, BroadcastShape, FaultPlan, TxnConfig};
use datatap::TransportCosts;
use iocontainers::protocol::{estimate, run_decrease, run_increase, ProtocolLayout};
use iocontainers::{run_pipeline, Action, ExperimentConfig, MonitorConfig, PipelineRun};
use sim_core::{shared, Shared, Sim, SimDuration, SimTime};
use simnet::{LaunchModel, Net, Network, NetworkConfig, NodeId};

/// A labeled table: header plus rows of cells.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (printed above the data).
    pub title: String,
    /// Column names.
    pub header: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = format!("# {}\n", self.title);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

fn ms(d: SimDuration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

fn us(d: SimDuration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Table I: SmartPointer analysis-action characteristics, generated from
/// the live component metadata.
pub fn table1() -> Table {
    let rows = smartpointer::table1()
        .into_iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                c.complexity.to_string(),
                c.models.iter().map(|m| m.to_string()).collect::<Vec<_>>().join(", "),
                if c.dynamic_branching { "Yes" } else { "No" }.to_string(),
            ]
        })
        .collect();
    Table {
        title: "Table I: Characteristics for SmartPointer Analysis Actions".into(),
        header: vec!["Component".into(), "Complexity".into(), "Compute Model".into(), "Dynamic Branching".into()],
        rows,
    }
}

/// Table II: weak-scaling experiment data sizes.
pub fn table2() -> Table {
    let rows = mdsim::TABLE2
        .iter()
        .map(|&(nodes, atoms)| {
            let mib = mdsim::output_bytes(atoms) as f64 / (1024.0 * 1024.0);
            vec![nodes.to_string(), atoms.to_string(), format!("{mib:.1} MiB")]
        })
        .collect();
    Table {
        title: "Table II: Experiment Data Sizes (per output step)".into(),
        header: vec!["Node Count".into(), "Atoms".into(), "Data size".into()],
        rows,
    }
}

/// The replica-count sweep used by Figs. 4 and 5.
pub const RESIZE_SWEEP: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// Fig. 4: time to increase container size, split into the dominant
/// intra-container metadata exchange and the negligible manager messages.
/// The `aprun` launch cost is reported in its own column, factored out of
/// the totals exactly as the paper does.
pub fn fig4() -> Table {
    let costs = TransportCosts::default();
    let mut rows = Vec::new();
    for &k in &RESIZE_SWEEP {
        let mut sim = Sim::new(4);
        let net = Network::new(NetworkConfig::portals_xt4());
        let layout = ProtocolLayout::microbench(8, 4);
        let new: Vec<NodeId> = (1000..1000 + k).map(NodeId).collect();
        let r = run_increase(&mut sim, &net, &layout, &new, &costs, LaunchModel::Aprun);
        rows.push(vec![
            k.to_string(),
            ms(r.total),
            ms(r.intra_container),
            us(r.manager_msgs),
            format!("{:.1}", r.launch.as_secs_f64()),
        ]);
    }
    Table {
        title: "Fig. 4: Time to Increase Container Size (8 upstream writers)".into(),
        header: vec![
            "replicas_added".into(),
            "total_ms".into(),
            "intra_container_ms".into(),
            "manager_msgs_us".into(),
            "aprun_s (factored out)".into(),
        ],
        rows,
    }
}

/// Fig. 5: time to decrease container size; dominated by waiting for the
/// upstream DataTap writers to pause and drain.
pub fn fig5() -> Table {
    let costs = TransportCosts::default();
    // One 67 MB output step buffered across 8 writers at decrease time.
    let queued_per_writer = mdsim::output_bytes(mdsim::atoms_for_nodes(256)) / 8;
    let mut rows = Vec::new();
    for &k in &RESIZE_SWEEP {
        let mut sim = Sim::new(5);
        let net = Network::new(NetworkConfig::portals_xt4());
        let layout = ProtocolLayout::microbench(8, 32);
        let victims: Vec<NodeId> = layout.replicas[..k as usize].to_vec();
        let r = run_decrease(
            &mut sim,
            &net,
            &layout,
            &victims,
            &costs,
            queued_per_writer,
            1_600_000_000,
        );
        rows.push(vec![
            k.to_string(),
            ms(r.total),
            ms(r.pause_wait),
            us(r.intra_container),
            us(r.manager_msgs),
        ]);
    }
    Table {
        title: "Fig. 5: Time to Decrease Container Size (8 writers, one buffered step)".into(),
        header: vec![
            "replicas_removed".into(),
            "total_ms".into(),
            "writer_pause_ms".into(),
            "teardown_us".into(),
            "manager_msgs_us".into(),
        ],
        rows,
    }
}

/// The writer:reader core ratios of Fig. 6.
pub const TXN_SWEEP: [(u32, u32); 7] =
    [(64, 4), (128, 4), (256, 4), (512, 4), (1024, 8), (2048, 8), (4096, 16)];

/// Fig. 6: D2T transaction completion time vs. writer:reader core ratio.
pub fn fig6() -> Table {
    let mut rows = Vec::new();
    for &(writers, readers) in &TXN_SWEEP {
        let run = |broadcast| {
            let mut sim = Sim::new(6);
            let net = Network::new(NetworkConfig::qdr_torus((18, 18, 18)));
            let cfg = TxnConfig { writers, readers, broadcast, ..TxnConfig::default() };
            run_transaction(&mut sim, &net, &cfg, &FaultPlan::default())
        };
        let tree = run(BroadcastShape::Tree { fanout: 8 });
        let flat = run(BroadcastShape::Flat);
        rows.push(vec![
            format!("{writers}:{readers}"),
            ms(tree.duration),
            ms(flat.duration),
            tree.messages.to_string(),
        ]);
    }
    Table {
        title: "Fig. 6: Resilience (D2T) Protocol Overhead vs writer:reader ratio".into(),
        header: vec![
            "writers:readers".into(),
            "txn_time_ms (tree)".into(),
            "txn_time_ms (flat)".into(),
            "messages".into(),
        ],
        rows,
    }
}

/// Renders a pipeline run's per-container latency samples and management
/// actions (the content of Figs. 7–9).
pub fn pipeline_figure(title: &str, run: &PipelineRun) -> Table {
    let mut rows = Vec::new();
    for id in run.log.containers() {
        let name = run.log.name_of(id);
        if let Some(series) = run.log.latency_series(id) {
            for &(t, v) in series.points() {
                rows.push(vec![
                    format!("{:.1}", t.as_secs_f64()),
                    name.to_string(),
                    format!("{v:.2}"),
                ]);
            }
        }
    }
    rows.sort_by(|a, b| {
        a[0].parse::<f64>().unwrap().partial_cmp(&b[0].parse::<f64>().unwrap()).unwrap()
    });
    for (t, action) in run.log.actions() {
        rows.push(vec![
            format!("{:.1}", t.as_secs_f64()),
            "ACTION".into(),
            describe_action(run, action),
        ]);
    }
    Table {
        title: title.into(),
        header: vec!["t_s".into(), "container".into(), "latency_s / action".into()],
        rows,
    }
}

fn describe_action(run: &PipelineRun, action: &Action) -> String {
    match action {
        Action::Increase { container, added, source } => {
            let src = match source {
                iocontainers::ResourceSource::Spare => "spare".to_string(),
                iocontainers::ResourceSource::StolenFrom(d) => {
                    format!("stolen from {}", run.log.name_of(*d))
                }
                iocontainers::ResourceSource::StolenFromTenant { tenant, container } => {
                    format!("stolen from tenant {tenant}#{}", container.0)
                }
            };
            format!("increase {} by {added} ({src})", run.log.name_of(*container))
        }
        Action::Decrease { container, removed } => {
            format!("decrease {} by {removed}", run.log.name_of(*container))
        }
        Action::Offline { containers } => format!(
            "offline: {}",
            containers.iter().map(|c| run.log.name_of(*c)).collect::<Vec<_>>().join(", ")
        ),
        Action::Activate { container } => format!("activate {}", run.log.name_of(*container)),
        Action::Blocked { container } => {
            format!("PIPELINE BLOCKED at {}", run.log.name_of(*container))
        }
        Action::TradeAborted { donor, recipient } => format!(
            "trade aborted: {} -> {} (rolled back)",
            run.log.name_of(*donor),
            run.log.name_of(*recipient)
        ),
        Action::ContainerFailed { container, missed } => format!(
            "FAILED {} ({missed} heartbeats missed)",
            run.log.name_of(*container)
        ),
        Action::Restarted { container, attempt, added } => format!(
            "restarted {} (attempt {attempt}, +{added} nodes)",
            run.log.name_of(*container)
        ),
    }
}

/// Fig. 7 data: events for 256 simulation + 13 staging nodes.
pub fn fig7() -> Table {
    pipeline_figure(
        "Fig. 7: Events emitted for 256 simulation and 13 staging nodes",
        &run_pipeline(ExperimentConfig::fig7()),
    )
}

/// Fig. 8 data: events for 512 simulation + 24 staging nodes.
pub fn fig8() -> Table {
    pipeline_figure(
        "Fig. 8: Events emitted for 512 simulation and 24 staging nodes",
        &run_pipeline(ExperimentConfig::fig8()),
    )
}

/// Fig. 9 data: events for 1024 simulation + 24 staging nodes.
pub fn fig9() -> Table {
    pipeline_figure(
        "Fig. 9: Events emitted for 1024 simulation and 24 staging nodes",
        &run_pipeline(ExperimentConfig::fig9()),
    )
}

/// Fig. 10 data: end-to-end latency for the Fig. 9 configuration.
pub fn fig10() -> Table {
    let run = run_pipeline(ExperimentConfig::fig10());
    let mut rows: Vec<Vec<String>> = run
        .log
        .e2e_series()
        .points()
        .iter()
        .map(|&(t, v)| vec![format!("{:.1}", t.as_secs_f64()), format!("{v:.2}")])
        .collect();
    for (t, action) in run.log.actions() {
        rows.push(vec![
            format!("{:.1}", t.as_secs_f64()),
            format!("ACTION: {}", describe_action(&run, action)),
        ]);
    }
    rows.sort_by(|a, b| {
        a[0].parse::<f64>().unwrap().partial_cmp(&b[0].parse::<f64>().unwrap()).unwrap()
    });
    Table {
        title: "Fig. 10: End-to-End Latency (1024 simulation, 24 staging nodes)".into(),
        header: vec!["t_s".into(), "end_to_end_s".into()],
        rows,
    }
}

/// Sensitivity sweep: how the 512-node scenario's outcome changes with
/// the staging-area size — the "sizing" decision containers free users
/// from making by hand.
pub fn sweep_staging() -> Table {
    let mut rows = Vec::new();
    // (staging size, initial helper/bonds/csym allocation): allocations
    // shrink with the area; whatever is left over starts spare.
    let points: [(u32, (u32, u32, u32)); 6] = [
        (8, (2, 2, 4)),
        (10, (2, 2, 6)),
        (14, (6, 2, 6)),
        (20, (12, 2, 6)),
        (24, (12, 2, 6)),
        (32, (12, 2, 6)),
    ];
    for (staging, (helper, bonds, csym)) in points {
        let base = ExperimentConfig::fig8();
        let cna = base.initial.cna;
        let cfg = base
            .to_builder()
            .staging_nodes(staging)
            .initial(smartpointer::Table1Names { helper, bonds, csym, cna })
            .build()
            .expect("sweep allocations fit their staging area");
        let run = run_pipeline(cfg);
        let increases: u32 = run
            .log
            .actions()
            .iter()
            .filter_map(|(_, a)| match a {
                Action::Increase { added, .. } => Some(*added),
                _ => None,
            })
            .sum();
        let offline = if run.offline.is_empty() { "-".to_string() } else { run.offline.join("+") };
        let blocked = run.blocked_at.map(|t| format!("{:.0}s", t.as_secs_f64()));
        rows.push(vec![
            staging.to_string(),
            increases.to_string(),
            offline,
            blocked.unwrap_or_else(|| "-".into()),
            format!("{:.1}", run.log.e2e_series().max_value().unwrap_or(0.0)),
        ]);
    }
    Table {
        title: "Sweep: staging-area size vs outcome (512 simulation nodes)".into(),
        header: vec![
            "staging_nodes".into(),
            "nodes_added".into(),
            "offline".into(),
            "blocked_at".into(),
            "e2e_peak_s".into(),
        ],
        rows,
    }
}

/// Sensitivity sweep: output cadence vs. outcome at the Fig. 8 scale.
pub fn sweep_cadence() -> Table {
    let mut rows = Vec::new();
    for cadence_s in [8u64, 10, 15, 20, 30, 45] {
        let cadence = SimDuration::from_secs(cadence_s);
        let cfg = ExperimentConfig::fig8()
            .to_builder()
            .cadence(cadence)
            .sla(iocontainers::Sla::from_cadence(cadence))
            .build()
            .expect("cadence sweep configs are valid");
        let run = run_pipeline(cfg);
        let increases: u32 = run
            .log
            .actions()
            .iter()
            .filter_map(|(_, a)| match a {
                Action::Increase { added, .. } => Some(*added),
                _ => None,
            })
            .sum();
        let offline = if run.offline.is_empty() { "-".to_string() } else { run.offline.join("+") };
        rows.push(vec![
            cadence_s.to_string(),
            increases.to_string(),
            offline,
            if run.blocked_at.is_some() { "yes" } else { "no" }.to_string(),
        ]);
    }
    Table {
        title: "Sweep: output cadence vs outcome (512 simulation nodes, 24 staging)".into(),
        header: vec![
            "cadence_s".into(),
            "nodes_added".into(),
            "offline".into(),
            "blocked".into(),
        ],
        rows,
    }
}

/// One 256-node output step, and the staging link's bandwidth.
const STEP_BYTES: u64 = 67_000_000;
const STAGING_BW: u64 = 1_600_000_000;

/// Total simulated time of an application that computes for `compute`
/// and then outputs one step, `steps` times. Synchronous staging blocks
/// it for every transfer; asynchronous staging buffers the step and
/// overlaps the transfer with the next compute phase.
fn app_run(sync: bool, steps: u32, compute: SimDuration) -> SimDuration {
    struct App {
        net: Net,
        sync: bool,
        compute: SimDuration,
        finished: Shared<SimTime>,
    }
    const APP: NodeId = NodeId(0);
    const STAGE: NodeId = NodeId(1);

    fn do_step(sim: &mut Sim, app: Rc<App>, remaining: u32) {
        if remaining == 0 {
            *app.finished.borrow_mut() = sim.now();
            return;
        }
        sim.schedule_in(app.compute, move |sim| {
            let net = app.net.clone();
            if app.sync {
                Network::transfer(&net, sim, APP, STAGE, STEP_BYTES, move |sim| {
                    do_step(sim, app, remaining - 1)
                });
            } else {
                Network::transfer(&net, sim, APP, STAGE, STEP_BYTES, |_| {});
                do_step(sim, app, remaining - 1);
            }
        });
    }

    let mut sim = Sim::new(1);
    let finished = shared(SimTime::ZERO);
    let app = App {
        net: Network::new(NetworkConfig::portals_xt4()),
        sync,
        compute,
        finished: finished.clone(),
    };
    do_step(&mut sim, Rc::new(app), steps);
    sim.run();
    let t = *finished.borrow();
    t.since(SimTime::ZERO)
}

/// (synchronous, asynchronous) application time for 50 output steps.
/// One transfer takes ≈ 42 ms at 1.6 GB/s; compute is of the same order,
/// the regime where the paper's "up to 2×" applies.
fn staging_times() -> (SimDuration, SimDuration) {
    let compute = SimDuration::from_millis(45);
    (app_run(true, 50, compute), app_run(false, 50, compute))
}

/// Latency of a monitoring control message that reaches a staging node
/// 1 ms into a burst of eight bulk pulls. Greedy: every announced step is
/// pulled at once. Server-directed: one pull outstanding at a time.
fn control_latency_during_pulls(greedy: bool) -> SimDuration {
    const READER: NodeId = NodeId(0);
    const BULK: u32 = 8;

    fn pull_chain(sim: &mut Sim, net: &Net, next: u32) {
        if next > BULK {
            return;
        }
        let net2 = net.clone();
        Network::rdma_get(net, sim, READER, NodeId(next), STEP_BYTES, move |sim| {
            pull_chain(sim, &net2, next + 1)
        });
    }

    let mut sim = Sim::new(2);
    let net = Network::new(NetworkConfig::portals_xt4());
    if greedy {
        for writer in 1..=BULK {
            Network::rdma_get(&net, &mut sim, READER, NodeId(writer), STEP_BYTES, |_| {});
        }
    } else {
        pull_chain(&mut sim, &net, 1);
    }

    let sent = SimTime::ZERO + SimDuration::from_millis(1);
    let delivered = shared(SimTime::ZERO);
    let slot = delivered.clone();
    sim.schedule_at(sent, move |sim| {
        Network::send_control(&net, sim, NodeId(99), READER, move |sim| {
            *slot.borrow_mut() = sim.now();
        });
    });
    sim.run();
    let at = *delivered.borrow();
    at.since(sent)
}

/// Decrease of 4 of 16 replicas behind 8 writers that each hold
/// `queued_per_writer` buffered bytes: the strongly consistent protocol
/// drains them during the writer pause, a lazy decrease (0 bytes) would
/// not wait — and would put those steps at risk.
fn decrease_total(queued_per_writer: u64) -> SimDuration {
    let mut sim = Sim::new(3);
    let net = Network::new(NetworkConfig::portals_xt4());
    let layout = ProtocolLayout::microbench(8, 16);
    let victims: Vec<NodeId> = layout.replicas[..4].to_vec();
    let costs = TransportCosts::default();
    run_decrease(&mut sim, &net, &layout, &victims, &costs, queued_per_writer, STAGING_BW).total
}

/// Growing a 4-replica container by `k`: (round-robin replica growth,
/// MPI-style growth). Replica growth is the increase protocol alone
/// (EVPath-style runtimes launch replicas without `aprun`); an MPI
/// component must tear down all `4 + k` ranks and relaunch through
/// `aprun` on top of it.
fn growth_times(k: u32) -> (SimDuration, SimDuration) {
    let costs = TransportCosts::default();
    let mut sim = Sim::new(7);
    let net = Network::new(NetworkConfig::portals_xt4());
    let layout = ProtocolLayout::microbench(8, 4);
    let new: Vec<NodeId> = (1000..1000 + k).map(NodeId).collect();
    let rr = run_increase(&mut sim, &net, &layout, &new, &costs, LaunchModel::Instant).total;
    let teardown =
        estimate::decrease(8, 4 + k, &costs, SimDuration::from_micros(10), 0, STAGING_BW);
    let relaunch = LaunchModel::Aprun.sample(&mut Sim::new(7));
    (rr, rr + teardown + relaunch)
}

/// Mean Bonds latency over 20 steps of the Fig. 7 scenario when every
/// monitoring sample costs the container a pathological 1 s and one is
/// taken every `report_every` steps.
fn bonds_mean_latency(report_every: u64) -> f64 {
    let mut cfg = ExperimentConfig::fig7();
    cfg.monitoring = MonitorConfig {
        report_every,
        per_sample_cost: SimDuration::from_secs(1),
        delivery_delay: SimDuration::from_micros(20),
    };
    cfg.steps = 20;
    let run = run_pipeline(cfg);
    let id = run
        .log
        .containers()
        .find(|&id| run.log.name_of(id) == "Bonds")
        .expect("the Fig. 7 pipeline has a Bonds container");
    let points = run.log.latency_series(id).expect("Bonds reports latency").points();
    points.iter().map(|&(_, v)| v).sum::<f64>() / points.len() as f64
}

/// Ablations of the design choices DESIGN.md calls out: asynchronous vs.
/// synchronous data movement, scheduled vs. greedy pulls, writer pause
/// (strong consistency) vs. lazy decrease, round-robin replica growth vs.
/// MPI-style relaunch, and monitoring frequency vs. perturbation.
pub fn ablations() -> Table {
    let secs = |d: SimDuration| format!("{:.3} s", d.as_secs_f64());
    let millis = |d: SimDuration| format!("{} ms", ms(d));
    let row = |what: &str, base: String, alt: String, ratio: f64| {
        let ratio = if ratio < 100.0 { format!("{ratio:.2}x") } else { format!("{ratio:.0}x") };
        vec![what.to_string(), base, alt, ratio]
    };

    let (sync_t, async_t) = staging_times();
    let greedy = control_latency_during_pulls(true);
    let scheduled = control_latency_during_pulls(false);
    let strong = decrease_total(STEP_BYTES / 8);
    let lazy = decrease_total(0);
    let mut rows = vec![
        row(
            "sync vs async staging (50 steps of 67 MB)",
            secs(sync_t),
            secs(async_t),
            sync_t / async_t,
        ),
        row(
            "greedy vs scheduled pulls (control latency, 8-step burst)",
            millis(greedy),
            millis(scheduled),
            greedy / scheduled,
        ),
        row(
            "writer pause vs lazy decrease (one buffered step)",
            millis(strong),
            millis(lazy),
            strong / lazy,
        ),
    ];
    for k in [1, 4, 16] {
        let (rr, mpi) = growth_times(k);
        rows.push(row(
            &format!("MPI relaunch vs replica growth (grow by {k})"),
            secs(mpi),
            millis(rr),
            mpi / rr,
        ));
    }
    let (every_step, every_8th) = (bonds_mean_latency(1), bonds_mean_latency(8));
    rows.push(row(
        "monitor every step vs every 8th (Bonds mean latency, 1 s probe)",
        format!("{every_step:.2} s"),
        format!("{every_8th:.2} s"),
        every_step / every_8th,
    ));
    Table {
        title: "Ablations: the design choices behind the container runtime".into(),
        header: vec!["ablation".into(), "baseline".into(), "alternative".into(), "ratio".into()],
        rows,
    }
}

/// Runs the Fig. 7 scenario with telemetry fully on and renders the trace
/// artifacts: a Perfetto/Chrome-trace JSON and the gauge time series as
/// CSV. The `figures trace` job writes these to `target/traces/`.
pub fn trace_artifacts() -> (String, String) {
    let cfg = ExperimentConfig::builder_from(ExperimentConfig::fig7())
        .telemetry(simtel::TelemetryConfig::all())
        .build()
        .expect("the Fig. 7 preset is valid");
    let run = run_pipeline(cfg);
    let snap = run.telemetry.snapshot();
    (simtel::export::chrome_trace_json(&snap), simtel::export::series_csv(&snap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_nonempty() {
        for t in [table1(), table2(), fig4(), fig5(), fig6()] {
            assert!(!t.rows.is_empty(), "{} has no rows", t.title);
            let text = t.render();
            assert!(text.lines().count() >= t.rows.len() + 2);
        }
    }

    #[test]
    fn fig4_total_grows_monotonically() {
        let t = fig4();
        let totals: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        for w in totals.windows(2) {
            assert!(w[1] > w[0], "fig4 totals must grow: {totals:?}");
        }
    }

    #[test]
    fn fig5_pause_dominates_everywhere() {
        let t = fig5();
        for row in &t.rows {
            let total: f64 = row[1].parse().unwrap();
            let pause: f64 = row[2].parse().unwrap();
            assert!(pause / total > 0.8, "pause must dominate: {row:?}");
        }
    }

    #[test]
    fn fig6_scales_sublinearly() {
        let t = fig6();
        let first: f64 = t.rows.first().unwrap()[1].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[1].parse().unwrap();
        // 64 -> 4096 writers is 64x; time must grow far less than 64x.
        assert!(last / first < 16.0, "fig6 ratio {}", last / first);
    }

    #[test]
    fn sweeps_show_the_expected_regimes() {
        let staging = sweep_staging();
        // The smallest staging area cannot save Bonds (offline or blocked);
        // the largest absorbs the load.
        let first = &staging.rows[0];
        assert!(first[2] != "-" || first[3] != "-", "18 nodes must degrade: {first:?}");
        let last = staging.rows.last().unwrap();
        assert_eq!(last[2], "-", "32 nodes must suffice: {last:?}");

        let cadence = sweep_cadence();
        // Faster cadences demand more nodes; the slowest needs none.
        let fast: u32 = cadence.rows[0][1].parse().unwrap();
        let slow: u32 = cadence.rows.last().unwrap()[1].parse().unwrap();
        assert!(fast > slow, "fast cadence must demand more nodes ({fast} vs {slow})");
        assert_eq!(slow, 0);
    }

    #[test]
    fn fig10_contains_offline_action() {
        let t = fig10();
        assert!(t.rows.iter().any(|r| r[1].contains("offline")), "no offline action in fig10");
    }

    #[test]
    fn ablations_render_every_experiment() {
        let t = ablations();
        assert_eq!(t.rows.len(), 7, "3 pairwise ablations, 3 growth sizes, monitoring");
        assert!(t.rows.iter().all(|r| r.len() == t.header.len()));
    }

    // The ratios EXPERIMENTS.md quotes, pinned.

    #[test]
    fn async_staging_approaches_the_papers_2x() {
        let (sync_t, async_t) = staging_times();
        let speedup = sync_t / async_t;
        assert!((speedup - 1.93).abs() < 0.005, "async speedup {speedup:.3}");
    }

    #[test]
    fn scheduled_pulls_bound_control_plane_perturbation() {
        let greedy = control_latency_during_pulls(true).as_secs_f64() * 1e3;
        let scheduled = control_latency_during_pulls(false).as_secs_f64() * 1e3;
        assert_eq!((greedy.round(), scheduled.round()), (334.0, 41.0));
    }

    #[test]
    fn writer_pause_is_the_dominant_decrease_cost() {
        let ratio = decrease_total(STEP_BYTES / 8) / decrease_total(0);
        assert_eq!(ratio.round(), 23.0, "pause cost ratio {ratio:.2}");
    }

    #[test]
    fn relaunch_based_growth_dwarfs_replica_growth() {
        for k in [1, 4, 16] {
            let (rr, mpi) = growth_times(k);
            assert!(mpi > rr * 100, "grow by {k}: relaunch {mpi} vs replicas {rr}");
        }
    }

    #[test]
    fn heavy_monitoring_perturbs_the_bottleneck() {
        let (every_step, every_8th) = (bonds_mean_latency(1), bonds_mean_latency(8));
        assert!(every_step > every_8th, "{every_step:.2} s vs {every_8th:.2} s");
    }

    #[test]
    fn trace_artifacts_are_nonempty() {
        let (json, csv) = trace_artifacts();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("Bonds"), "container track missing from trace");
        assert!(csv.lines().count() > 1, "series CSV must have data rows");
    }
}
