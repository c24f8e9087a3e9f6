//! Interprocedural (v3) fixture tests: the call-graph-driven
//! alloc-in-hot-path rule, stale-escape reporting, cross-file hot-chain
//! context on panic findings, and a regression pin that every reasoned
//! escape in the real workspace still earns its keep.

use std::path::Path;

use simlint::{lint_units, Rule, RuleSet, SourceUnit};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).expect("fixture exists")
}

fn unit(rel: &str, name: &str) -> SourceUnit {
    SourceUnit { rel: rel.to_string(), src: fixture(name), rules: RuleSet::all() }
}

#[test]
fn alloc_hot_fixture_direct_transitive_escaped() {
    let report =
        lint_units(&[unit("crates/fixa/src/lib.rs", "alloc_hot.rs")]).expect("fixture parses");
    let alloc: Vec<&simlint::Finding> =
        report.findings.iter().filter(|f| f.rule == Rule::AllocInHotPath).collect();
    let lines: Vec<usize> = alloc.iter().map(|f| f.line).collect();

    // Direct hits in the root itself: vec!, Vec::new, growth of the
    // born-here buffer.
    assert!(lines.contains(&6), "vec! in entry: {alloc:?}");
    assert!(lines.contains(&7), "Vec::new in entry: {alloc:?}");
    assert!(lines.contains(&8), "growth of a born local: {alloc:?}");

    // Transitive hit one call down, annotated with the chain.
    let step1 = alloc.iter().find(|f| f.line == 13).expect("format! in step1");
    assert!(step1.message.contains("hot path: entry → step1"), "{}", step1.message);
    assert!(step1.message.contains("root entry@2"), "{}", step1.message);

    // The escaped depth-two allocation is suppressed — and the escape is
    // recorded as consumed, not stale.
    assert!(!lines.contains(&20), "escaped to_string must not fire: {alloc:?}");
    assert!(report.findings.iter().all(|f| f.rule != Rule::StaleEscape), "{:?}", report.findings);
    let escape = report.stats.escapes.iter().find(|e| e.line == 19).expect("escape tracked");
    assert_eq!((escape.rule.as_str(), escape.consumed), ("alloc-in-hot-path", 1));

    // The mem::take-born scratch buffer is the sanctioned idiom.
    assert!(!lines.contains(&26), "take-born push must stay clean: {alloc:?}");

    // Beyond the configured depth nothing fires.
    assert!(!lines.contains(&31), "beyond-depth alloc must not fire: {alloc:?}");
}

#[test]
fn stale_escape_fixture_reports_only_the_dead_escape() {
    let report =
        lint_units(&[unit("crates/fixa/src/lib.rs", "stale_escape.rs")]).expect("fixture parses");
    let stale: Vec<&simlint::Finding> =
        report.findings.iter().filter(|f| f.rule == Rule::StaleEscape).collect();
    assert_eq!(stale.len(), 1, "{:?}", report.findings);
    assert_eq!(stale[0].line, 11, "{stale:?}");
    assert!(stale[0].message.contains("allow(panic-path)"), "{}", stale[0].message);

    // The live escape next door consumed its finding and is not reported.
    let live = report.stats.escapes.iter().find(|e| e.line == 6).expect("live escape tracked");
    assert_eq!(live.consumed, 1);
    assert!(report.findings.iter().all(|f| f.rule != Rule::PanicPath), "{:?}", report.findings);
}

#[test]
fn panic_chain_crosses_files_with_hot_context() {
    let report = lint_units(&[
        unit("crates/fixa/src/a.rs", "panic_chain_a.rs"),
        unit("crates/fixa/src/b.rs", "panic_chain_b.rs"),
    ])
    .expect("fixtures parse");
    let panic: Vec<&simlint::Finding> =
        report.findings.iter().filter(|f| f.rule == Rule::PanicPath).collect();
    let hit = panic
        .iter()
        .find(|f| f.file == "crates/fixa/src/b.rs" && f.line == 5)
        .expect("unwrap flagged in helper");
    assert!(hit.message.contains("hot path: entry → helper"), "{}", hit.message);
    assert!(hit.message.contains("root entry"), "{}", hit.message);
}

/// Regression pin for DESIGN.md §7: the real workspace lints clean, and
/// every reasoned escape suppresses exactly what it did when it was
/// written — the panic-path original at one finding, plus the hot-path
/// escapes added with the v3 rule. An entry appearing here
/// with `consumed: 0` would instead surface as a stale-escape finding.
#[test]
fn workspace_is_clean_and_escapes_all_earn_their_keep() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = simlint::lint_workspace_report(&root).expect("workspace lints");
    assert!(report.findings.is_empty(), "{:?}", report.findings);

    let mut got: Vec<(String, String, usize)> = report
        .stats
        .escapes
        .iter()
        .map(|e| (e.file.clone(), e.rule.clone(), e.consumed))
        .collect();
    got.sort();
    let want: Vec<(String, String, usize)> = [
        ("crates/evpath/src/overlay.rs", "alloc-in-hot-path", 1),
        ("crates/evpath/src/overlay.rs", "alloc-in-hot-path", 1),
        ("crates/sim-core/src/kernel.rs", "alloc-in-hot-path", 1),
        ("crates/sim-core/src/trace.rs", "alloc-in-hot-path", 2),
        ("crates/simnet/src/net.rs", "alloc-in-hot-path", 1),
        ("crates/simnet/src/net.rs", "alloc-in-hot-path", 1),
        ("crates/simnet/src/net.rs", "alloc-in-hot-path", 2),
        ("crates/simnet/src/net.rs", "panic-path", 1),
        ("crates/simtel/src/telemetry.rs", "alloc-in-hot-path", 1),
        ("crates/simtel/src/telemetry.rs", "alloc-in-hot-path", 2),
        ("crates/simtel/src/telemetry.rs", "alloc-in-hot-path", 2),
        ("crates/simtel/src/telemetry.rs", "alloc-in-hot-path", 2),
    ]
    .into_iter()
    .map(|(f, r, n)| (f.to_string(), r.to_string(), n))
    .collect();
    assert_eq!(got, want);
}
