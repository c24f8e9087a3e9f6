//! Deterministic fault injection and manager-driven failure recovery.
//!
//! A Fig. 7-style managed run loses its Bonds container mid-flight. The
//! local managers emit heartbeats to the global manager, which notices the
//! missed beats, fences the failed container, and restarts it on spare
//! staging nodes — or, when no spares remain, falls back to generalized
//! offline staging so data keeps flowing to disk with its processing
//! provenance. Either way: zero lost steps.
//!
//! ```text
//! cargo run --release --example fault_recovery
//! ```

use iocontainers::{run_pipeline, Action, ExperimentConfig};
use sim_core::SimDuration;
use simfault::FaultPlan;

fn narrate(run: &iocontainers::PipelineRun) {
    for (t, action) in run.log.actions() {
        println!("  [{:7.2} s] {}", t.as_secs_f64(), run.log.action_label(action));
    }
}

fn main() {
    println!("simfault: deterministic faults + manager-driven recovery\n");

    // --- Baseline: the clean Fig. 7 run. --------------------------------
    let clean = run_pipeline(ExperimentConfig::fig7());
    let clean_worst = clean.log.e2e_series().max_value().unwrap_or(f64::NAN);
    println!(
        "clean run:      {} steps, worst e2e {clean_worst:.2} s, finished at {:.1} s",
        clean.log.e2e_series().len(),
        clean.finished_at.as_secs_f64()
    );

    // --- Scenario 1: Bonds crashes; spares exist; restart. ---------------
    let cfg = ExperimentConfig::fig7()
        .to_builder()
        .staging_nodes(16) // 13 held by the pipeline + 3 spares
        .faults(FaultPlan::new().crash_container(SimDuration::from_secs(120), "Bonds"))
        .build()
        .expect("valid config");
    let steps = cfg.steps;
    println!("\nscenario 1: Bonds crashes at t=120 s with spare nodes available");
    let run = run_pipeline(cfg);
    narrate(&run);

    let detected = run.log.actions().iter().any(|(_, a)| {
        matches!(a, Action::ContainerFailed { container, .. }
            if run.log.name_of(*container) == "Bonds")
    });
    let restarted = run.log.actions().iter().any(|(_, a)| {
        matches!(a, Action::Restarted { container, .. }
            if run.log.name_of(*container) == "Bonds")
    });
    assert!(detected, "heartbeat loss must be detected");
    assert!(restarted, "recovery must restart Bonds on spares");
    assert!(run.failed.is_empty(), "no container may end the run failed");
    assert!(run.offline.is_empty(), "restart made offline fallback unnecessary");
    assert_eq!(run.log.e2e_series().len() as u64, steps, "zero lost steps");
    assert!(run.heartbeats_delivered > 0, "heartbeats reached the global manager");
    let worst = run.log.e2e_series().max_value().unwrap_or(f64::INFINITY);
    assert!(worst < 120.0, "e2e latency stayed bounded through the outage");
    println!(
        "  -> detected, restarted; {} heartbeats delivered; {} steps out, worst e2e {worst:.2} s",
        run.heartbeats_delivered,
        run.log.e2e_series().len()
    );

    // --- Scenario 2: same crash, but no spares: offline staging. ---------
    let cfg = ExperimentConfig::fig7()
        .to_builder()
        .faults(FaultPlan::new().crash_container(SimDuration::from_secs(150), "Bonds"))
        .build()
        .expect("valid config");
    let steps = cfg.steps;
    println!("\nscenario 2: the same crash with zero spare nodes");
    let run = run_pipeline(cfg);
    narrate(&run);
    assert!(run.offline.contains(&"Bonds"), "no spares: Bonds goes offline");
    assert!(run.failed.is_empty(), "offline fallback resolves the failure");
    assert!(!run.disk_steps.is_empty(), "bypassed data lands on disk");
    let (_, prov) = run.disk_steps.last().expect("disk steps exist");
    assert!(prov.pending_ops.contains(&"Bonds".to_string()), "provenance labels the gap");
    assert_eq!(run.log.e2e_series().len() as u64, steps, "still zero lost steps");
    println!(
        "  -> offline fallback: {} steps staged to disk, pending ops {:?}",
        run.disk_steps.len(),
        prov.pending_ops
    );

    // --- Scenario 3: determinism. ----------------------------------------
    let plan = FaultPlan::new()
        .lose_messages(SimDuration::from_secs(30), 0.5, SimDuration::from_secs(120))
        .degrade_node(SimDuration::from_secs(30), 256, 0.25, 4.0, SimDuration::from_secs(120));
    let cfg = ExperimentConfig::fig7().to_builder().faults(plan).build().expect("valid");
    let a = run_pipeline(cfg.clone());
    let b = run_pipeline(cfg);
    assert_eq!(a.finished_at, b.finished_at, "same seed + same plan => same run");
    assert_eq!(a.log.e2e_series().points(), b.log.e2e_series().points());
    println!(
        "\nscenario 3: loss + NIC degradation, run twice: identical traces \
         (finished at {:.1} s both times)",
        a.finished_at.as_secs_f64()
    );

    println!("\nall fault-recovery invariants hold");
}
