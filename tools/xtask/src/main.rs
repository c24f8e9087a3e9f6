//! Workspace task runner, invoked as `cargo xtask <task>` (the alias lives
//! in `.cargo/config.toml`).
//!
//! Tasks:
//! * `lint` — run the simlint determinism/robustness pass over the
//!   sim-path crates; exits nonzero if any hazard is found.
//!   * `--stats` first prints the call-graph and escape summary.
//! * `invariance` — run the schedule-invariance checker (the runtime race
//!   detector) on the managed-pipeline experiment, via its in-crate tests.
//! * `api` — snapshot the `iocontainers` facade (every `pub mod` / `pub
//!   use` item in its `lib.rs`) and diff it against the committed baseline
//!   (`tests/public_api_baseline.txt`), so accidental API breaks fail CI.
//!   * `--write-baseline` records the current surface as the new baseline
//!     after a deliberate API change.

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // tools/xtask/ → workspace root is two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels under the workspace root")
        .to_path_buf()
}

/// One-screen lint coverage summary (`cargo xtask lint --stats`).
fn print_stats(stats: &simlint::Stats) {
    println!(
        "simlint v3: {} files, {} functions, {} resolved call edges ({} unknown callees)",
        stats.files, stats.functions, stats.resolved_calls, stats.unknown_calls
    );
    println!("hot set: {} functions reachable from the hot roots", stats.hot_functions);
    let per_rule: Vec<String> = simlint::Rule::all_rules()
        .iter()
        .map(|r| format!("{} {}", r.name(), stats.per_rule.get(r.name()).copied().unwrap_or(0)))
        .collect();
    let total: usize = stats.per_rule.values().sum();
    println!("findings: {total} ({})", per_rule.join(", "));
    let consumed = stats.escapes.iter().filter(|e| e.consumed > 0).count();
    let stale = stats.escapes.len() - consumed;
    println!(
        "escapes: {} reasoned ({consumed} consumed, {stale} stale)",
        stats.escapes.len()
    );
    for e in &stats.escapes {
        println!("  {}:{} allow({}) suppresses {}", e.file, e.line, e.rule, e.consumed);
    }
}

fn lint(args: &[String]) -> ExitCode {
    let stats = match args {
        [] => false,
        [flag] if flag == "--stats" => true,
        _ => {
            eprintln!("usage: cargo xtask lint [--stats]");
            return ExitCode::from(2);
        }
    };
    let root = workspace_root();
    let report = match simlint::lint_workspace_report(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simlint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if stats {
        print_stats(&report.stats);
    }
    let findings = report.findings;
    if findings.is_empty() {
        println!("simlint: clean (no hazards in sim-path crates)");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        println!("{f}");
    }
    eprintln!(
        "simlint: {} hazard{} found",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    );
    ExitCode::FAILURE
}

fn invariance() -> ExitCode {
    // Delegate to the in-crate checker tests: xtask deliberately does NOT
    // link the sim stack, so `cargo xtask lint` still works when the code
    // under lint doesn't compile.
    let status = std::process::Command::new(env!("CARGO"))
        .args(["test", "-q", "--package", "iocontainers", "--lib", "invariance"])
        .current_dir(workspace_root())
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => {
            eprintln!(
                "invariance: schedule divergence detected — the model has a simulation race"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask invariance: cannot run cargo test: {e}");
            ExitCode::from(2)
        }
    }
}

/// Flattens the `iocontainers` facade into one line per exported item:
/// every `pub mod` and every name a `pub use` re-exports (brace groups
/// expanded), sorted. Formatting, comments, and grouping don't affect the
/// snapshot — only the actual set of exported paths does.
fn api_surface(lib_rs: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut buf = String::new();
    let mut in_item = false;
    for raw in lib_rs.lines() {
        let line = raw.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if !in_item {
            if line.starts_with("pub mod ") || line.starts_with("pub use ") {
                buf.clear();
                in_item = true;
            } else {
                continue;
            }
        } else {
            buf.push(' ');
        }
        buf.push_str(line);
        if let Some(end) = buf.find(';') {
            let item: String = buf[..end].split_whitespace().collect::<Vec<_>>().join(" ");
            in_item = false;
            if let Some(rest) = item.strip_prefix("pub use ") {
                if let Some(brace) = rest.find('{') {
                    let prefix = rest[..brace].trim();
                    let inner = rest[brace + 1..].trim_end_matches('}');
                    items.extend(
                        inner
                            .split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(|name| format!("pub use {prefix}{name}")),
                    );
                } else {
                    items.push(format!("pub use {rest}"));
                }
            } else {
                items.push(item);
            }
        }
    }
    items.sort();
    items
}

fn api(args: &[String]) -> ExitCode {
    let write = match args {
        [] => false,
        [flag] if flag == "--write-baseline" => true,
        _ => {
            eprintln!("usage: cargo xtask api [--write-baseline]");
            return ExitCode::from(2);
        }
    };
    let root = workspace_root();
    let lib = root.join("crates/iocontainers/src/lib.rs");
    let baseline_path = root.join("tests/public_api_baseline.txt");
    let src = match std::fs::read_to_string(&lib) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask api: cannot read {}: {e}", lib.display());
            return ExitCode::from(2);
        }
    };
    let current = api_surface(&src);

    if write {
        let mut out = current.join("\n");
        out.push('\n');
        if let Err(e) = std::fs::write(&baseline_path, out) {
            eprintln!("xtask api: cannot write {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
        println!("api: baseline of {} item(s) written to {}", current.len(), baseline_path.display());
        return ExitCode::SUCCESS;
    }

    let baseline: Vec<String> = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s.lines().map(str::to_string).filter(|l| !l.is_empty()).collect(),
        Err(e) => {
            eprintln!(
                "xtask api: cannot read baseline {}: {e}\n(run `cargo xtask api --write-baseline` to create it)",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
    };
    let removed: Vec<_> = baseline.iter().filter(|l| !current.contains(l)).collect();
    let added: Vec<_> = current.iter().filter(|l| !baseline.contains(l)).collect();
    if removed.is_empty() && added.is_empty() {
        println!("api: surface matches the baseline ({} items)", current.len());
        return ExitCode::SUCCESS;
    }
    for l in &removed {
        println!("- {l}");
    }
    for l in &added {
        println!("+ {l}");
    }
    eprintln!(
        "api: public surface drifted from tests/public_api_baseline.txt \
         ({} removed, {} added); if intended, run `cargo xtask api --write-baseline`",
        removed.len(),
        added.len()
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("invariance") => invariance(),
        Some("api") => api(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask <lint [--stats] | invariance | api [--write-baseline]>"
            );
            ExitCode::from(2)
        }
    }
}
