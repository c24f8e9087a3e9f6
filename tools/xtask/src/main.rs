//! Workspace task runner, invoked as `cargo xtask <task>` (the alias lives
//! in `.cargo/config.toml`).
//!
//! Tasks:
//! * `lint` — run the simlint determinism/robustness pass over the
//!   sim-path crates; exits nonzero if any hazard is found.
//!   * `--format json` emits the versioned findings artifact instead of
//!     the human one-liner-per-finding form.
//!   * `--baseline FILE` fails only on findings NOT covered by the
//!     baseline artifact (line-insensitive multiset match), so CI gates
//!     on *new* findings while a cleanup is in flight.
//!   * `--write-baseline FILE` records the current findings as the new
//!     baseline and exits 0.
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

#[derive(Default)]
struct LintOpts {
    json: bool,
    stats: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn parse_lint_opts(args: &[String]) -> Result<LintOpts, String> {
    let mut opts = LintOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => opts.json = true,
                Some("text") => opts.json = false,
                other => return Err(format!("--format expects json|text, got {other:?}")),
            },
            "--stats" => opts.stats = true,
            "--baseline" => {
                let path = it.next().ok_or("--baseline expects a file path")?;
                opts.baseline = Some(PathBuf::from(path));
            }
            "--write-baseline" => {
                let path = it.next().ok_or("--write-baseline expects a file path")?;
                opts.write_baseline = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown lint flag {other:?}")),
        }
    }
    if opts.baseline.is_some() && opts.write_baseline.is_some() {
        return Err("--baseline and --write-baseline are mutually exclusive".into());
    }
    if opts.stats && opts.json {
        return Err("--stats prints the human summary; drop --format json".into());
    }
    Ok(opts)
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
    let opts = match parse_lint_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: {e}");
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
    if opts.stats {
        print_stats(&report.stats);
    }
    let findings = report.findings;

    if let Some(path) = &opts.write_baseline {
        let artifact = simlint::baseline::render_json(&findings);
        if let Err(e) = std::fs::write(path, artifact) {
            eprintln!("xtask lint: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "simlint: baseline of {} finding(s) written to {}",
            findings.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    // With a baseline, only findings outside it gate the exit code; the
    // report (text or JSON) shows just the gating set so CI logs point
    // straight at what regressed.
    let gating = match &opts.baseline {
        Some(path) => {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("xtask lint: cannot read baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let keys = match simlint::baseline::parse_baseline(&src) {
                Ok(k) => k,
                Err(e) => {
                    eprintln!("xtask lint: bad baseline {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            simlint::baseline::new_findings(&findings, &keys)
        }
        None => findings,
    };

    if opts.json {
        print!("{}", simlint::baseline::render_json(&gating));
    } else if gating.is_empty() {
        println!("simlint: clean (no hazards in sim-path crates)");
    } else {
        for f in &gating {
            println!("{f}");
        }
    }
    if gating.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "simlint: {} {}hazard{} found",
        gating.len(),
        if opts.baseline.is_some() { "new " } else { "" },
        if gating.len() == 1 { "" } else { "s" }
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
                "usage: cargo xtask <lint [--format json] [--stats] [--baseline FILE | --write-baseline FILE] | invariance | api [--write-baseline]>"
            );
            ExitCode::from(2)
        }
    }
}
