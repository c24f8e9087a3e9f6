//! Resilient control operations with doubly-distributed transactions.
//!
//! When two containers trade resources, a failure mid-trade must not leave
//! the system believing a node was removed from the donor but never added
//! to the recipient. This example runs the D2T protocol across a writer
//! group and a reader group, then injects vote loss and explicit aborts to
//! show the all-or-nothing guarantee holding under failure.
//!
//! ```text
//! cargo run --release --example resilient_trade
//! ```

use d2t::{run_transaction, Decision, FaultPlan, TxnConfig};
use sim_core::Sim;
use simnet::{Network, NetworkConfig};

fn run(label: &str, cfg: &TxnConfig, faults: &FaultPlan, expect: Decision) {
    let mut sim = Sim::new(42);
    let net = Network::new(NetworkConfig::qdr_torus((16, 16, 16)));
    let report = run_transaction(&mut sim, &net, cfg, faults);
    println!(
        "{label:<42} -> {:?} in {:.3} ms ({} messages)",
        report.decision,
        report.duration.as_secs_f64() * 1e3,
        report.messages
    );
    assert_eq!(report.decision, expect, "{label}");
}

fn main() {
    println!("D2T: two-group transactions for container resource trades\n");

    let cfg = TxnConfig { writers: 512, readers: 4, ..TxnConfig::default() };
    run("clean trade (512 writers : 4 readers)", &cfg, &FaultPlan::default(), Decision::Commit);

    let mut no_vote = FaultPlan::default();
    no_vote.writer_no_votes.insert(128);
    run("one writer votes no", &cfg, &no_vote, Decision::Abort);

    let mut lost = FaultPlan::default();
    lost.drop_reader_votes.insert(2);
    run("a reader's vote is lost (timeout)", &cfg, &lost, Decision::Abort);

    println!("\nscaling with the writer group (the paper's Fig. 6 sweep):");
    for writers in [64u32, 256, 1024, 4096] {
        let cfg = TxnConfig { writers, readers: 4, ..TxnConfig::default() };
        let mut sim = Sim::new(42);
        let net = Network::new(NetworkConfig::qdr_torus((18, 18, 18)));
        let report = run_transaction(&mut sim, &net, &cfg, &FaultPlan::default());
        assert_eq!(report.decision, Decision::Commit);
        println!(
            "  {writers:>5} writers : 4 readers -> {:.3} ms",
            report.duration.as_secs_f64() * 1e3
        );
    }
}
