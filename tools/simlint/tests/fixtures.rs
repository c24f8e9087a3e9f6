//! Fixture-file tests: each rule fires on its fixture, the clean fixture
//! reports nothing, and `allow(rule, reason)` escapes suppress
//! everything they cover.
//!
//! The fixtures under `tests/fixtures/` are scanned as text, never
//! compiled — they deliberately contain the hazards the lint exists for.

use std::path::Path;

use simlint::{lint_source, Rule, RuleSet};

fn lint_fixture(name: &str) -> Vec<simlint::Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    lint_source(Path::new(name), &src, &RuleSet::all()).expect("fixture parses")
}

#[test]
fn panic_path_fixture_triggers() {
    let f = lint_fixture("panic_path.rs");
    let lines: Vec<usize> =
        f.iter().filter(|f| f.rule == Rule::PanicPath).map(|f| f.line).collect();
    assert!(lines.contains(&5), "unwrap: {f:?}");
    assert!(lines.contains(&9), "expect: {f:?}");
    assert!(lines.contains(&15), "panic!: {f:?}");
    assert!(lines.contains(&20), "literal index: {f:?}");
    assert!(lines.contains(&24), "arithmetic index: {f:?}");
    assert!(lines.contains(&28), "range slicing: {f:?}");
    // The by-construction bare-variable index idiom is sanctioned.
    assert!(!lines.contains(&32), "containers[id] must not fire: {f:?}");
    // Test code is exempt.
    assert!(lines.iter().all(|&l| l < 34), "test mod must be exempt: {f:?}");
}

#[test]
fn width_math_fixture_triggers() {
    let f = lint_fixture("width_math.rs");
    let lines: Vec<usize> =
        f.iter().filter(|f| f.rule == Rule::UncheckedWidthMath).map(|f| f.line).collect();
    assert!(lines.contains(&4), "bytes*scale/bps: {f:?}");
    assert!(lines.contains(&8), "chained multiply: {f:?}");
    assert!(!lines.contains(&12), "u128 widening is safe: {f:?}");
    assert!(!lines.contains(&16), "widemath routing is safe: {f:?}");
    assert!(!lines.contains(&20), "saturating_mul is explicit: {f:?}");
    assert!(!lines.contains(&24), "unit-less multiply out of scope: {f:?}");
}

#[test]
fn clean_fixture_is_clean() {
    assert_eq!(lint_fixture("clean.rs"), vec![]);
}

#[test]
fn allow_escapes_with_reasons_suppress_every_finding() {
    assert_eq!(lint_fixture("allowed.rs"), vec![]);
}

#[test]
fn diagnostics_carry_file_line_and_column() {
    let f = lint_fixture("panic_path.rs");
    let rendered = f[0].to_string();
    assert!(rendered.starts_with("panic_path.rs:5:"), "{rendered}");
    assert!(rendered.contains("[panic-path]"), "{rendered}");
}
