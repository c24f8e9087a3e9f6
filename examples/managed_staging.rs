//! Managed staging at machine scale: the paper's weak-scaling scenarios.
//!
//! Replays the three Fig. 7/8/9 configurations on the discrete-event
//! substrate and narrates what the global manager did: stealing a node
//! from the over-provisioned Helper at 256 simulation nodes, consuming
//! the spare staging nodes at 512, and pruning the hopeless Bonds
//! container (with its dependents) at 1024 — before the pipeline blocks.
//!
//! ```text
//! cargo run --release --example managed_staging
//! ```

use iocontainers::{run_pipeline, Action, ExperimentConfig, PipelineRun, ResourceSource};
use simtel::export::{chrome_trace_json, series_csv};
use simtel::TelemetryConfig;

fn narrate(name: &str, run: &PipelineRun) {
    println!("== {name} ==");
    for (t, action) in run.log.actions() {
        println!("  t={:>7.1}s  {}", t.as_secs_f64(), run.log.action_label(action));
    }
    if run.log.actions().is_empty() {
        println!("  (no management action was needed)");
    }
    match run.blocked_at {
        Some(t) => println!("  !! application blocked at t={:.1}s", t.as_secs_f64()),
        None => println!("  application never blocked"),
    }
    if !run.disk_steps.is_empty() {
        let (step, prov) = &run.disk_steps[0];
        println!(
            "  {} steps stored with provenance (e.g. step {step}: ran {:?}, owed {:?})",
            run.disk_steps.len(),
            prov.processed_by,
            prov.pending_ops
        );
    }
    let e2e = run.log.e2e_series();
    if let (Some(max), Some(last)) = (e2e.max_value(), e2e.last_value()) {
        println!("  end-to-end latency: peak {max:.1}s, final {last:.1}s");
    }
    println!();
}

fn main() {
    println!("I/O container management across the paper's weak-scaling setups\n");
    // The Fig. 7 run records full telemetry; its trace is exported below.
    let fig7 = run_pipeline(
        ExperimentConfig::builder_from(ExperimentConfig::fig7())
            .telemetry(TelemetryConfig::all())
            .build()
            .expect("the Fig. 7 preset is valid"),
    );
    narrate("Fig. 7 — 256 simulation / 13 staging nodes (no spares)", &fig7);
    let fig8 = run_pipeline(ExperimentConfig::fig8());
    narrate("Fig. 8 — 512 simulation / 24 staging nodes (4 spares)", &fig8);
    let fig9 = run_pipeline(ExperimentConfig::fig9());
    narrate("Fig. 9/10 — 1024 simulation / 24 staging nodes (insufficient)", &fig9);

    // The three management outcomes the figures show.
    let name = |run: &PipelineRun, id| run.log.name_of(id);
    assert!(
        fig7.log.actions().iter().any(|(_, a)| matches!(a,
            Action::Increase { container, source: ResourceSource::StolenFrom(donor), .. }
                if name(&fig7, *container) == "Bonds" && name(&fig7, *donor) == "Helper")),
        "Fig. 7: Bonds steals a node from Helper"
    );
    assert!(
        fig8.log.actions().iter().any(|(_, a)| matches!(a,
            Action::Increase { container, added: 4, source: ResourceSource::Spare }
                if name(&fig8, *container) == "Bonds")),
        "Fig. 8: Bonds leases the 4 spare nodes"
    );
    assert!(fig9.offline.contains(&"Bonds"), "Fig. 9: Bonds is taken offline");
    assert!(!fig9.disk_steps.is_empty(), "Fig. 9: bypassed steps are stored on disk");
    assert!(
        fig9.disk_steps.iter().all(|(_, prov)| prov.pending_ops.iter().any(|op| op == "Bonds")),
        "Fig. 9: every stored step's provenance owes Bonds"
    );
    for run in [&fig7, &fig8, &fig9] {
        assert!(run.blocked_at.is_none(), "the application never blocks");
    }

    // Export the Fig. 7 trace: per-container service spans, management
    // markers, SLA violations, and the monitoring gauges.
    let snap = fig7.telemetry.snapshot();
    assert!(
        snap.counters.get("kernel.ioc.arrive").is_some_and(|&n| n > 0),
        "Kernel telemetry counts executed events by label"
    );
    let dir = std::path::Path::new("target/traces");
    std::fs::create_dir_all(dir).expect("create target/traces");
    let json_path = dir.join("managed_staging.trace.json");
    let csv_path = dir.join("managed_staging.series.csv");
    std::fs::write(&json_path, chrome_trace_json(&snap)).expect("write Perfetto trace");
    std::fs::write(&csv_path, series_csv(&snap)).expect("write series CSV");
    println!("Fig. 7 trace: {} (open at https://ui.perfetto.dev)", json_path.display());
    println!("Fig. 7 series: {}", csv_path.display());
}
