//! Offline post-processing of provenance-labeled data.
//!
//! When management takes analytics offline, the staged data lands in BP
//! container files labeled with `pending_ops` — the analyses still owed.
//! This example plays the full round trip: a strained run writes its
//! steps with Bonds/CSym/CNA owed (as the 1024-node scenario does), then a
//! post-processing pass opens the container, replays the owed analytics
//! in pipeline order, finds the crack, and reports the resulting material
//! fragments.
//!
//! ```text
//! cargo run --release --example post_processing
//! ```

use adios::{BpFileReader, BpFileWriter};
use iocontainers::{codec, Provenance};
use mdsim::{MdConfig, MdEngine};
use smartpointer::{Bonds, CSym, FragmentFinder, FragmentTracker};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::temp_dir().join("io-containers-postprocess.bp");

    // --- online phase: analytics offline, data stored with provenance ---
    println!("online phase: staging 6 output steps with Bonds/CSym owed...");
    let mut md = MdEngine::new(MdConfig {
        temperature: 0.02,
        strain_per_step: 0.003,
        yield_strain: 0.04,
        ..MdConfig::default()
    });
    let mut writer = BpFileWriter::create(&path)?;
    for _ in 0..6 {
        let snap = md.run_epoch(5);
        let mut step = codec::snapshot_to_step(&snap);
        Provenance::from_split(&["Helper"], &["Bonds", "CSym"]).stamp(&mut step);
        writer.append("atoms", &step)?;
    }
    let path = writer.finalize()?;
    println!("wrote {} ({} bytes)\n", path.display(), std::fs::metadata(&path)?.len());

    // --- offline phase: replay the owed analytics ----------------------
    println!("post-processing pass:");
    let mut reader = BpFileReader::open(&path)?;
    assert_eq!((reader.len(), reader.torn_bytes()), (6, 0), "every staged step reads back");
    let mut tracker = FragmentTracker::new();
    for ix in 0..reader.len() {
        let stored = reader.read_at(ix)?;
        let mut prov = Provenance::read(&stored.data);
        let snap = codec::step_to_snapshot(&stored.data).expect("atoms schema");

        let bonds = Bonds::default().compute(&snap);
        assert!(prov.complete("Bonds"), "pipeline order enforced");
        let csym = CSym::default().compute(&bonds);
        assert!(prov.complete("CSym"));
        assert!(prov.fully_processed());

        let frags = FragmentFinder.compute(&bonds);
        tracker.observe(&snap.ids, &frags);

        println!(
            "  step {}: strain {:.3}, {} bonds, csp max {:.2}, break={}, fragments={}",
            stored.data.step(),
            snap.strain,
            bonds.adjacency.edge_count() / 2,
            csym.max_csp,
            csym.break_detected,
            frags.count()
        );
    }

    println!("\nfragment history:");
    for event in tracker.events() {
        println!("  {event:?}");
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}
