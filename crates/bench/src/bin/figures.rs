//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run -p bench --release --bin figures -- all
//! cargo run -p bench --release --bin figures -- fig7
//! cargo run -p bench --release --bin figures -- ablations
//! cargo run -p bench --release --bin figures -- trace   # Perfetto + CSV
//! ```

use bench::{
    ablations, fig10, fig4, fig5, fig6, fig7, fig8, fig9, sweep_cadence, sweep_staging, table1,
    table2, Table,
};

type Job = (&'static str, fn() -> Table);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");

    // The trace job produces files rather than a printable table.
    if what == "trace" {
        let (json, csv) = bench::trace_artifacts();
        let dir = std::path::Path::new("target/traces");
        std::fs::create_dir_all(dir).expect("create target/traces");
        let json_path = dir.join("fig7.trace.json");
        let csv_path = dir.join("fig7.series.csv");
        std::fs::write(&json_path, json).expect("write Perfetto trace");
        std::fs::write(&csv_path, csv).expect("write series CSV");
        println!("wrote {} (open at https://ui.perfetto.dev)", json_path.display());
        println!("wrote {}", csv_path.display());
        return;
    }

    let jobs: Vec<Job> = vec![
        ("table1", table1 as fn() -> Table),
        ("table2", table2),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("sweep_staging", sweep_staging as fn() -> Table),
        ("sweep_cadence", sweep_cadence),
        ("ablations", ablations),
    ];

    let selected: Vec<&Job> = if what == "all" {
        jobs.iter().collect()
    } else {
        jobs.iter().filter(|(name, _)| *name == what).collect()
    };

    if selected.is_empty() {
        eprintln!(
            "unknown figure '{what}'; expected one of: all trace {}",
            jobs.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")
        );
        std::process::exit(2);
    }

    for (_, job) in selected {
        println!("{}", job().render());
    }
}
