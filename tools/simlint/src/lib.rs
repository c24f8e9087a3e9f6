//! # simlint — determinism static analysis for the simulation substrate
//!
//! The experiment harness's credibility rests on bit-identical replays:
//! the same seed must produce the same schedule, the same figures, the
//! same report. This linter parses every sim-path crate into an item
//! AST (via the vendored `syn` stand-in), resolves `use` aliases, and
//! enforces seven rule classes:
//!
//! * **wall-clock** — `Instant::now()` / `SystemTime` in simulation
//!   code. Virtual time must come from the kernel clock (`SimTime`).
//! * **unordered-iter** — hash iteration whose order flow could not be
//!   resolved by the dataflow pass (the conservative verdict).
//! * **order-taint** — hash iteration whose order *provably* reaches an
//!   order-observable sink (event scheduling, exported output, trace
//!   hashes). The dataflow pass also proves the inverse: iterations
//!   consumed commutatively (`+=`, `insert`, `max`, collects into
//!   ordered or re-keyed collections) pass with no escape at all.
//! * **adhoc-rng** — RNG construction outside the kernel's seeded
//!   `StdRng` (`thread_rng`, `from_entropy`, `rand::random`).
//! * **thread-spawn** — `std::thread::spawn` in single-threaded sim
//!   crates; the DES kernel is the only scheduler.
//! * **panic-path** — `unwrap`/`expect`, `panic!`-family macros, and
//!   hazardous indexing (literal/arithmetic indices, range slicing) in
//!   engine hot paths. Test code is exempt; everything else must
//!   propagate typed errors.
//! * **unchecked-width-math** — u64 multiply chains over
//!   bytes × bandwidth/time-scale operands outside
//!   `sim_core::widemath`'s u128 ceiling helpers.
//!
//! Findings carry `file:line:column` spans. A finding is suppressed by
//! `// simlint: allow(<rule>, <reason>)` on the same line or the line
//! directly above — the reason is **mandatory**; reasonless escapes are
//! ignored and the unsuppressed finding says why. Per-path rule
//! configuration lives in [`ruleset_for`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

pub mod baseline;
pub mod callgraph;
mod engine;
mod rules;
mod taint;

/// The determinism rules simlint enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads (`Instant::now`, `SystemTime`) in sim code.
    WallClock,
    /// Hash iteration with unresolved order flow.
    UnorderedIter,
    /// Hash iteration order proven to reach an order-observable sink.
    OrderTaint,
    /// RNG construction not derived from the experiment seed.
    AdhocRng,
    /// Free-running `std::thread::spawn` in single-threaded sim crates.
    ThreadSpawn,
    /// Panicking constructs in engine hot paths.
    PanicPath,
    /// Unwidened u64 arithmetic on bytes/bandwidth/time operands.
    UncheckedWidthMath,
    /// Heap allocation reachable from a configured hot root (v3,
    /// interprocedural — see [`callgraph`]).
    AllocInHotPath,
    /// A reasoned `allow(...)` escape that no longer suppresses any
    /// finding (v3; workspace passes only).
    StaleEscape,
}

impl Rule {
    /// The rule's name as used in diagnostics and `allow(...)` escapes.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::UnorderedIter => "unordered-iter",
            Rule::OrderTaint => "order-taint",
            Rule::AdhocRng => "adhoc-rng",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::PanicPath => "panic-path",
            Rule::UncheckedWidthMath => "unchecked-width-math",
            Rule::AllocInHotPath => "alloc-in-hot-path",
            Rule::StaleEscape => "stale-escape",
        }
    }

    /// Every rule, for stats tables.
    pub fn all_rules() -> &'static [Rule] {
        &[
            Rule::WallClock,
            Rule::UnorderedIter,
            Rule::OrderTaint,
            Rule::AdhocRng,
            Rule::ThreadSpawn,
            Rule::PanicPath,
            Rule::UncheckedWidthMath,
            Rule::AllocInHotPath,
            Rule::StaleEscape,
        ]
    }
}

/// Which rules apply to a given file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuleSet {
    /// Enforce [`Rule::WallClock`].
    pub wall_clock: bool,
    /// Enforce [`Rule::UnorderedIter`].
    pub unordered_iter: bool,
    /// Enforce [`Rule::OrderTaint`].
    pub order_taint: bool,
    /// Enforce [`Rule::AdhocRng`].
    pub adhoc_rng: bool,
    /// Enforce [`Rule::ThreadSpawn`].
    pub thread_spawn: bool,
    /// Enforce [`Rule::PanicPath`].
    pub panic_path: bool,
    /// Enforce [`Rule::UncheckedWidthMath`].
    pub width_math: bool,
    /// Enforce [`Rule::AllocInHotPath`] (workspace passes only — needs
    /// the call graph, so [`lint_source`] never fires it).
    pub alloc_hot: bool,
    /// Enforce [`Rule::StaleEscape`] (workspace passes only).
    pub stale_escape: bool,
}

impl RuleSet {
    /// Every rule on — what fixtures and the hot-path files get.
    pub fn all() -> RuleSet {
        RuleSet {
            wall_clock: true,
            unordered_iter: true,
            order_taint: true,
            adhoc_rng: true,
            thread_spawn: true,
            panic_path: true,
            width_math: true,
            alloc_hot: true,
            stale_escape: true,
        }
    }

    /// The sim-path default: the four legacy rules plus the order-taint
    /// dataflow; panic-path and width-math are opt-in per hot path. The
    /// interprocedural v3 rules are on everywhere — allocation is only
    /// flagged in *hot* functions, and stale escapes are hazards in any
    /// file.
    pub fn sim_default() -> RuleSet {
        RuleSet { panic_path: false, width_math: false, ..RuleSet::all() }
    }
}

/// One diagnostic: a determinism hazard at a specific span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative file path (as passed to the linter).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub column: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file,
            self.line,
            self.column,
            self.rule.name(),
            self.message
        )
    }
}

/// Lints one file's source under `rules`, honouring `allow(...)`
/// escapes. Fails with a `line:col: message` string if the file does not
/// parse.
pub fn lint_source(path: &Path, src: &str, rules: &RuleSet) -> Result<Vec<Finding>, String> {
    lint_source_with(path, src, rules, &BTreeSet::new())
}

/// [`lint_source`] with extra crate-level hash-typed names (struct
/// fields declared in sibling files of the same crate).
pub fn lint_source_with(
    path: &Path,
    src: &str,
    rules: &RuleSet,
    extra_hash_names: &BTreeSet<String>,
) -> Result<Vec<Finding>, String> {
    let file = syn::parse_file(src).map_err(|e| e.to_string())?;
    let cx = engine::FileCx::build(&file.items, src);
    let flat = engine::flatten(&file.items);
    let mut fns = Vec::new();
    engine::for_each_fn(&file.items, false, &mut fns);

    let mut hash_names = taint::collect_hash_names(&cx, &flat);
    hash_names.extend(extra_hash_names.iter().cloned());

    let mut raw = Vec::new();
    rules::token_rules(&cx, &flat, rules, &mut raw);
    if rules.panic_path {
        rules::panic_path(&fns, &mut raw);
    }
    if rules.width_math {
        rules::width_math(&fns, &mut raw);
    }
    taint::analyze(&cx, &fns, &hash_names, rules, &mut raw);

    let rel = path.to_string_lossy().replace('\\', "/");
    let mut findings = Vec::new();
    rules::finalize(&rel, &cx, raw, &mut findings);
    findings.sort_by_key(|f| (f.line, f.column, f.rule));
    findings.dedup_by_key(|f| (f.line, f.column, f.rule));
    Ok(findings)
}

/// The rule configuration for a workspace-relative path, or `None` if
/// the file is out of scope.
///
/// This table is the single source of truth for which crates are "sim
/// path" (sim defaults on) versus genuinely threaded transports
/// (threading rules off, **RNG rules always on**), and for which hot
/// paths additionally get the panic-path and width-math classes.
pub fn ruleset_for(rel: &Path) -> Option<RuleSet> {
    let p = rel.to_string_lossy().replace('\\', "/");
    if !p.ends_with(".rs") {
        return None;
    }
    let in_scope = p.starts_with("src/") || p.starts_with("crates/");
    if !in_scope {
        return None; // vendor stubs, tools, benches, integration tests
    }
    let mut rs = RuleSet::sim_default();
    // datatap is the threaded two-phase transport: its tests exercise real
    // writer/reader threads, and its timeout path owns an injected clock.
    if p.starts_with("crates/datatap/") {
        rs.thread_spawn = false;
    }
    // The EVPath overlay runs stones on real worker threads.
    if p.starts_with("crates/evpath/") {
        rs.thread_spawn = false;
    }
    // simpar is the deterministic fork/join substrate: scoped spawns are
    // its whole purpose (and its merge order makes them safe), so the
    // thread rule is off — but it must stay clock- and RNG-free, since
    // every analytics kernel's determinism rests on it.
    if p.starts_with("crates/simpar/") {
        rs.thread_spawn = false;
    }
    // The threaded pipeline bridge is honest wall-clock/threads territory —
    // but still must not construct OS-seeded RNGs.
    if p == "crates/iocontainers/src/threaded.rs" {
        rs.wall_clock = false;
        rs.thread_spawn = false;
    }
    // The step-streaming engine is threaded-transport territory like
    // datatap (its unit tests spawn real pausers/pullers), and its
    // library paths carry live experiment data: a panic there loses every
    // attached pipeline at once, so failures must be typed.
    if p.starts_with("crates/stream/") {
        rs.thread_spawn = false;
    }
    // simfault deliberately owns per-plan RNGs (message-loss sampling) and
    // is NOT exempted from anything: its samplers derive from the plan seed
    // via `seed_from_u64`, which is the sanctioned construction everywhere,
    // so every rule stays on.

    // Engine hot paths: a panic mid-run loses the whole experiment, so
    // failure must surface as typed errors. The gate is the protocol code
    // of both transports — it came out of the stream engine and stays
    // under the rule that covered it there.
    let panic_scope = p.starts_with("crates/sim-core/src/")
        || p.starts_with("crates/simnet/src/")
        || p.starts_with("crates/stream/src/")
        || p == "crates/datatap/src/gate.rs"
        || p == "crates/iocontainers/src/pipeline.rs"
        || p == "crates/iocontainers/src/policy.rs"
        || p == "crates/iocontainers/src/protocol.rs";
    if panic_scope {
        rs.panic_path = true;
    }
    // Bytes × bandwidth × time arithmetic lives here; everything must
    // route through sim_core::widemath. widemath.rs itself is the
    // sanctioned u128 sink and is excluded.
    let width_scope = p.starts_with("crates/simnet/src/")
        || p == "crates/datatap/src/cost.rs"
        || p == "crates/iocontainers/src/pipeline.rs";
    if width_scope && p != "crates/sim-core/src/widemath.rs" {
        rs.width_math = true;
    }
    Some(rs)
}

/// Recursively collects the `.rs` files under `root` that are in scope,
/// in sorted (deterministic) order.
fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.file_name());
        for e in entries {
            let path = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" {
                    continue;
                }
                walk(&path, out)?;
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for top in ["src", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    Ok(out)
}

/// The crate-grouping key of a workspace-relative path (hash-typed field
/// names are shared crate-wide for the taint pass).
fn crate_key(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => format!("crates/{}", parts.next().unwrap_or("")),
        other => other.unwrap_or("").to_string(),
    }
}

/// One file handed to [`lint_units`]: workspace-relative path, raw
/// source, and its rule configuration.
pub struct SourceUnit {
    /// Workspace-relative path (forward slashes).
    pub rel: String,
    /// The file's source text.
    pub src: String,
    /// Which rules apply.
    pub rules: RuleSet,
}

/// How much one reasoned escape comment earned: the number of findings
/// it suppressed across every pass. Zero means the escape is stale (and
/// reported, when the file's ruleset has `stale_escape` on).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EscapeUse {
    /// File owning the escape comment.
    pub file: String,
    /// 1-based line of the comment.
    pub line: usize,
    /// The rule text as written inside `allow(...)` (may be `all`).
    pub rule: String,
    /// Findings suppressed by this escape.
    pub consumed: usize,
}

/// Workspace-level lint statistics (`cargo xtask lint --stats`).
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Files linted.
    pub files: usize,
    /// Function items seen by the call graph (tests included).
    pub functions: usize,
    /// Resolved call-graph edges (call sites with a proven callee).
    pub resolved_calls: usize,
    /// Call sites left as conservative unknown-callee edges.
    pub unknown_calls: usize,
    /// Functions reachable from the hot-root set.
    pub hot_functions: usize,
    /// Post-escape finding counts per rule name.
    pub per_rule: BTreeMap<&'static str, usize>,
    /// Every reasoned escape with its consumption count.
    pub escapes: Vec<EscapeUse>,
}

/// Findings plus the statistics of the run that produced them.
pub struct Report {
    /// All unsuppressed findings, ordered by file then span.
    pub findings: Vec<Finding>,
    /// The run's statistics.
    pub stats: Stats,
}

/// Lints a set of files as one workspace: per-file rules plus the
/// interprocedural v3 passes (call-graph reachability, alloc-in-hot-path,
/// hot-chain context on panic/order findings, stale-escape). This is the
/// engine behind [`lint_workspace`]; fixtures drive it directly with
/// in-memory multi-file sets.
pub fn lint_units(units: &[SourceUnit]) -> Result<Report, String> {
    let mut files = Vec::new();
    for u in units {
        files.push(syn::parse_file(&u.src).map_err(|e| format!("{}: {e}", u.rel))?);
    }
    let cxs: Vec<engine::FileCx> =
        units.iter().zip(&files).map(|(u, f)| engine::FileCx::build(&f.items, &u.src)).collect();

    // Crate-wide hash-typed names (fields declared in one file, iterated
    // in another).
    let mut crate_hash: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for ((u, f), cx) in units.iter().zip(&files).zip(&cxs) {
        let flat = engine::flatten(&f.items);
        crate_hash
            .entry(crate_key(&u.rel))
            .or_default()
            .extend(taint::collect_hash_names(cx, &flat));
    }

    // The workspace call graph and the hot set: built-in roots plus any
    // `// simlint: hot-root(...)` directives.
    let graph_units: Vec<(usize, String, &[syn::Item])> = units
        .iter()
        .enumerate()
        .zip(&files)
        .map(|((i, u), f)| (i, crate_key(&u.rel), f.items.as_slice()))
        .collect();
    let graph = callgraph::build(&graph_units);
    let mut roots: Vec<callgraph::HotRoot> = callgraph::DEFAULT_HOT_ROOTS
        .iter()
        .filter_map(|s| callgraph::parse_hot_root(s))
        .collect();
    for u in units {
        roots.extend(callgraph::hot_root_directives(&u.src));
    }
    let hot = callgraph::hot_set(&graph, &roots);
    let mut hot_by_unit: Vec<Vec<usize>> = vec![Vec::new(); units.len()];
    for &ix in hot.keys() {
        hot_by_unit[graph.nodes[ix].unit].push(ix);
    }

    let mut findings = Vec::new();
    let mut stats = Stats {
        files: units.len(),
        functions: graph.nodes.len(),
        resolved_calls: graph.resolved_calls,
        unknown_calls: graph.unknown_calls,
        hot_functions: hot.len(),
        ..Stats::default()
    };

    for (i, u) in units.iter().enumerate() {
        let file = &files[i];
        let cx = &cxs[i];
        let flat = engine::flatten(&file.items);
        let mut fns = Vec::new();
        engine::for_each_fn(&file.items, false, &mut fns);

        let mut hash_names = taint::collect_hash_names(cx, &flat);
        if let Some(extra) = crate_hash.get(&crate_key(&u.rel)) {
            hash_names.extend(extra.iter().cloned());
        }

        let mut raw = Vec::new();
        rules::token_rules(cx, &flat, &u.rules, &mut raw);
        if u.rules.panic_path {
            rules::panic_path(&fns, &mut raw);
        }
        if u.rules.width_math {
            rules::width_math(&fns, &mut raw);
        }
        taint::analyze(cx, &fns, &hash_names, &u.rules, &mut raw);

        // Hot-chain context: a panic/order finding inside a hot function
        // names the call chain that reaches it.
        let hot_fn_at = |line: usize| -> Option<usize> {
            hot_by_unit[i]
                .iter()
                .copied()
                .filter(|&ix| {
                    let n = &graph.nodes[ix];
                    n.start_line <= line && line <= n.end_line
                })
                .max_by_key(|&ix| graph.nodes[ix].start_line)
        };
        for (span, rule, message) in &mut raw {
            if matches!(rule, Rule::PanicPath | Rule::OrderTaint) {
                if let Some(ix) = hot_fn_at(span.line) {
                    let info = &hot[&ix];
                    message.push_str(&format!(
                        " (hot path: {}, root {})",
                        callgraph::chain_display(&graph, &info.chain),
                        info.root
                    ));
                }
            }
        }

        // The alloc-in-hot-path rule over this unit's hot functions.
        if u.rules.alloc_hot {
            for &ix in &hot_by_unit[i] {
                let node = &graph.nodes[ix];
                let Some(f) = fns.iter().find(|f| {
                    f.item.ident.span.line == node.start_line && f.item.ident.text == node.name
                }) else {
                    continue;
                };
                let Some(body) = &f.item.body else { continue };
                let info = &hot[&ix];
                let suffix = format!(
                    " (hot path: {}, root {})",
                    callgraph::chain_display(&graph, &info.chain),
                    info.root
                );
                let mut sites = Vec::new();
                rules::alloc_sites(&body.stream, &mut sites);
                raw.extend(sites.into_iter().map(|(span, rule, mut msg)| {
                    msg.push_str(&suffix);
                    (span, rule, msg)
                }));
            }
        }

        raw.sort_by_key(|(s, r, _)| (s.line, s.column, *r));
        raw.dedup_by(|a, b| a.0.line == b.0.line && a.0.column == b.0.column && a.1 == b.1);

        let mut unit_findings = Vec::new();
        let mut consumed = BTreeMap::new();
        rules::finalize_tracked(&u.rel, cx, raw, &mut unit_findings, &mut consumed);

        // Stale escapes: reasoned allow(...) comments that suppressed
        // nothing in any pass.
        for (line, escapes) in &cx.escapes {
            for e in escapes {
                if e.reason.is_none() {
                    continue;
                }
                let used = consumed.get(&(*line, e.rule.clone())).copied().unwrap_or(0);
                stats.escapes.push(EscapeUse {
                    file: u.rel.clone(),
                    line: *line,
                    rule: e.rule.clone(),
                    consumed: used,
                });
                if used == 0 && u.rules.stale_escape {
                    unit_findings.push(Finding {
                        file: u.rel.clone(),
                        line: *line,
                        column: 1,
                        rule: Rule::StaleEscape,
                        message: format!(
                            "allow({}) no longer suppresses any finding; \
                             delete the stale escape or restore what it justified",
                            e.rule
                        ),
                    });
                }
            }
        }

        unit_findings.sort_by_key(|f| (f.line, f.column, f.rule));
        unit_findings.dedup_by_key(|f| (f.line, f.column, f.rule));
        findings.extend(unit_findings);
    }

    for f in &findings {
        *stats.per_rule.entry(f.rule.name()).or_insert(0) += 1;
    }
    Ok(Report { findings, stats })
}

/// Lints every in-scope file under the workspace `root`. Paths in the
/// returned findings are workspace-relative. Parse failures become
/// `InvalidData` IO errors naming the file.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    lint_workspace_report(root).map(|r| r.findings)
}

/// [`lint_workspace`] with the run's [`Stats`] attached.
pub fn lint_workspace_report(root: &Path) -> std::io::Result<Report> {
    let mut units = Vec::new();
    for abs in collect_files(root)? {
        let rel = abs.strip_prefix(root).unwrap_or(&abs).to_path_buf();
        let Some(rules) = ruleset_for(&rel) else { continue };
        let src = std::fs::read_to_string(&abs)?;
        units.push(SourceUnit { rel: rel.to_string_lossy().replace('\\', "/"), src, rules });
    }
    lint_units(&units)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source(Path::new("test.rs"), src, &RuleSet::all()).expect("fixture parses")
    }

    #[test]
    fn instant_now_is_flagged_with_span() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}\n";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::WallClock);
        assert_eq!(f[0].line, 2);
        assert!(f[0].column > 1, "span carries a real column");
        assert!(f[0].to_string().starts_with("test.rs:2:"));
        assert!(f[0].to_string().contains("[wall-clock]"));
    }

    #[test]
    fn aliased_instant_is_still_wall_clock() {
        let src = "use std::time::Instant as Clock;\nfn f() { let t = Clock::now(); }\n";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::WallClock);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn launch_model_instant_variant_is_not_wall_clock() {
        let src = "fn f() { let m = LaunchModel::Instant; g(Instant); }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let src = "// Instant::now() in a comment\nfn f() { let s = \"thread_rng()\"; }\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let src = "fn f() {\n// simlint: allow(adhoc-rng, fixture: sanctioned in this test)\n\
                   let r = thread_rng();\n\
                   let q = thread_rng(); // simlint: allow(adhoc-rng, fixture: ditto)\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn reasonless_allow_no_longer_suppresses() {
        let src = "fn f() {\n// simlint: allow(adhoc-rng)\nlet r = thread_rng();\n}\n";
        let f = lint(src);
        assert_eq!(f.len(), 1, "legacy escapes without a reason are dead");
        assert!(f[0].message.contains("missing a reason"));
    }

    #[test]
    fn allow_of_other_rule_does_not_suppress() {
        let src = "fn f() {\n// simlint: allow(wall-clock, wrong rule)\nlet r = thread_rng();\n}\n";
        assert_eq!(lint(src).len(), 1);
    }

    #[test]
    fn hashmap_iteration_is_flagged_lookup_is_not() {
        let src = "fn f(m: HashMap<u32, u32>) {\n    let _ = m.get(&1);\n    \
                   for (k, v) in &m {\n        use_it(k, v);\n    }\n}\n";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnorderedIter);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn let_bound_hashset_drain_is_flagged() {
        let src = "fn f() {\n    let mut s = HashSet::new();\n    s.insert(1);\n    \
                   for x in s.drain() { g(x); }\n}\n";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn struct_field_hash_iteration_is_flagged() {
        let src = "struct S { per_stone: HashMap<u64, u64> }\nimpl S {\n    fn g(&self) { \
                   for k in self.per_stone.keys() { h(k); } }\n}\n";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnorderedIter);
    }

    #[test]
    fn btreemap_is_clean() {
        let src = "fn f(m: BTreeMap<u32, u32>) { for (k, v) in &m { g(k, v); } }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn commutative_reduction_passes_without_escape() {
        let src = "fn f(m: HashMap<u32, u64>) {\n    let mut total = 0u64;\n    \
                   for (_, v) in &m {\n        total += v;\n    }\n    let _ = total;\n}\n";
        assert!(lint(src).is_empty(), "order-insensitive reduction is clean");
    }

    #[test]
    fn sum_chain_passes_without_escape() {
        let src = "fn f(m: HashMap<u32, u64>) -> u64 { m.values().sum() }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn collect_into_btree_passes_without_escape() {
        let src = "fn f(m: HashMap<u32, u64>) {\n    \
                   let v: BTreeSet<u32> = m.keys().copied().collect();\n    emit(v);\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn sorted_vec_then_sink_passes() {
        let src = "fn f(m: HashMap<u32, u64>, out: &mut Vec<u32>) {\n    \
                   let mut v: Vec<u32> = m.keys().copied().collect();\n    v.sort();\n    \
                   out.extend(v);\n}\n";
        assert!(lint(src).is_empty(), "sort launders iteration order");
    }

    #[test]
    fn iteration_reaching_scheduler_is_order_taint() {
        let src = "fn f(m: HashMap<u32, u64>, sim: &mut Sim) {\n    \
                   for k in m.keys() {\n        sim.schedule(k);\n    }\n}\n";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::OrderTaint);
        assert!(f[0].message.contains("schedule"));
    }

    #[test]
    fn unwrap_in_engine_fn_is_panic_path() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::PanicPath);
    }

    #[test]
    fn unwrap_in_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { g().unwrap(); }\n}\n\
                   fn prod() -> u32 { h().expect(\"boom\") }\n";
        let f = lint(src);
        assert_eq!(f.len(), 1, "only the non-test expect is flagged");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn bare_variable_indexing_is_not_flagged() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[i] }";
        assert!(lint(src).is_empty(), "by-construction index idiom is sanctioned");
    }

    #[test]
    fn literal_and_arithmetic_indexing_are_flagged() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { v[0] + v[i - 1] }";
        let f = lint(src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == Rule::PanicPath));
    }

    #[test]
    fn range_slicing_is_flagged() {
        let src = "fn f(v: &[u32], n: usize) -> &[u32] { &v[..n] }";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("range slicing"));
    }

    #[test]
    fn width_hazard_multiply_is_flagged_u128_is_not() {
        let bad = "fn f(queued_bytes: u64, bandwidth_bps: u64) -> u64 {\n    \
                   queued_bytes * 1_000_000_000 / bandwidth_bps\n}\n";
        let f = lint(bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UncheckedWidthMath);

        let widened = "fn f(queued_bytes: u64, bandwidth_bps: u64) -> u64 {\n    \
                       ((queued_bytes as u128 * 1_000_000_000u128) / bandwidth_bps as u128) as u64\n}\n";
        assert!(lint(widened).is_empty(), "explicit u128 widening is safe");

        let routed = "fn f(queued_bytes: u64, bandwidth_bps: u64) -> u64 {\n    \
                      widemath::mul_div_ceil(queued_bytes, 1_000_000_000, bandwidth_bps)\n}\n";
        assert!(lint(routed).is_empty(), "the sanctioned sink is exempt");
    }

    #[test]
    fn thread_spawn_respects_ruleset() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(lint(src).len(), 1);
        let mut rs = RuleSet::all();
        rs.thread_spawn = false;
        assert!(lint_source(Path::new("t.rs"), src, &rs).expect("parses").is_empty());
    }

    #[test]
    fn aliased_spawn_is_flagged() {
        let src = "use std::thread::spawn;\nfn f() { spawn(|| {}); }\n";
        let f = lint(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::ThreadSpawn);
    }

    #[test]
    fn threaded_bridge_keeps_rng_rules() {
        let rs = ruleset_for(Path::new("crates/iocontainers/src/threaded.rs")).unwrap();
        assert!(!rs.wall_clock && !rs.thread_spawn);
        assert!(rs.adhoc_rng && rs.unordered_iter && rs.order_taint);
    }

    #[test]
    fn simpar_is_thread_exempt_but_rng_checked() {
        let rs = ruleset_for(Path::new("crates/simpar/src/lib.rs")).unwrap();
        assert!(!rs.thread_spawn);
        assert!(rs.wall_clock && rs.adhoc_rng && rs.unordered_iter);
    }

    #[test]
    fn hot_paths_get_panic_and_width_rules() {
        let pipeline = ruleset_for(Path::new("crates/iocontainers/src/pipeline.rs")).unwrap();
        assert!(pipeline.panic_path && pipeline.width_math);
        let net = ruleset_for(Path::new("crates/simnet/src/net.rs")).unwrap();
        assert!(net.panic_path && net.width_math);
        let kernel = ruleset_for(Path::new("crates/sim-core/src/kernel.rs")).unwrap();
        assert!(kernel.panic_path && !kernel.width_math);
        let cost = ruleset_for(Path::new("crates/datatap/src/cost.rs")).unwrap();
        assert!(cost.width_math && !cost.panic_path);
        // The sanctioned u128 sink is not width-checked against itself.
        let wm = ruleset_for(Path::new("crates/sim-core/src/widemath.rs")).unwrap();
        assert!(!wm.width_math && wm.panic_path);
        // Cold paths keep the sim defaults.
        let tel = ruleset_for(Path::new("crates/simtel/src/lib.rs")).unwrap();
        assert!(!tel.panic_path && !tel.width_math);
    }

    #[test]
    fn stream_engine_is_panic_checked_and_thread_exempt() {
        let engine = ruleset_for(Path::new("crates/stream/src/engine.rs")).unwrap();
        assert!(engine.panic_path, "library paths carry live data: failures must be typed");
        assert!(!engine.thread_spawn, "the engine is threaded-transport territory");
        assert!(engine.wall_clock && engine.adhoc_rng, "clock and RNG discipline stay on");
        // The integration tests assert with unwrap/expect freely: only
        // src/ gets the panic class.
        let tests = ruleset_for(Path::new("crates/stream/tests/stream_integration.rs")).unwrap();
        assert!(!tests.panic_path && !tests.thread_spawn);
        // The engine's pause/drain, close/fail and wait protocol moved into
        // datatap's gate: it did not leave the panic class by moving, and
        // the rest of datatap did not enter it.
        let gate = ruleset_for(Path::new("crates/datatap/src/gate.rs")).unwrap();
        assert!(gate.panic_path && !gate.thread_spawn && gate.wall_clock && gate.adhoc_rng);
        let channel = ruleset_for(Path::new("crates/datatap/src/channel.rs")).unwrap();
        assert!(!channel.panic_path);
    }

    #[test]
    fn indexed_event_queue_keeps_every_determinism_rule_on() {
        // The event-kernel speed campaign rewrote the queue for
        // throughput; this pin guarantees the hot path did not buy its
        // speed by slipping out of lint scope. Every determinism rule and
        // the panic-path rule must stay on for queue.rs, exactly like the
        // kernel that drives it.
        let rs = ruleset_for(Path::new("crates/sim-core/src/queue.rs")).unwrap();
        assert!(rs.wall_clock && rs.adhoc_rng && rs.unordered_iter && rs.thread_spawn);
        assert!(rs.order_taint);
        assert!(rs.panic_path, "queue sifts/indexing must surface errors, not panic");
        assert!(!rs.width_math, "time ranks are plain u64s, not byte-bandwidth math");
    }

    #[test]
    fn fns_after_a_restricted_visibility_struct_stay_visible_to_panic_path() {
        // queue.rs opens with `pub(crate) struct EventQueue<T> { … }`; a
        // parser regression once swallowed every item after such a struct
        // into one token run, leaving per-fn rules (panic-path, width-math,
        // order-taint) blind to the whole hot path while token-linear
        // rules still fired. Pin the shape end-to-end.
        let src = "pub(crate) struct Q<T> {\n    slots: Vec<T>,\n}\n\
                   impl<T> Q<T> {\n    fn pop_front(&mut self) -> u32 { self.slots.first().unwrap() }\n}\n";
        let f = lint(src);
        assert_eq!(f.len(), 1, "unwrap inside the impl must be seen: {f:?}");
        assert_eq!(f[0].rule, Rule::PanicPath);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn vendor_and_tools_are_out_of_scope() {
        assert!(ruleset_for(Path::new("vendor/rand/src/lib.rs")).is_none());
        assert!(ruleset_for(Path::new("tools/simlint/src/lib.rs")).is_none());
        assert!(ruleset_for(Path::new("crates/sim-core/src/kernel.rs")).is_some());
    }

    #[test]
    fn simfault_is_fully_in_scope_and_seeded_rng_passes() {
        // The fault-injection crate gets every sim rule: its loss samplers
        // are only sanctioned because they derive from the plan seed.
        let rs = ruleset_for(Path::new("crates/simfault/src/lib.rs")).unwrap();
        assert!(rs.wall_clock && rs.adhoc_rng && rs.unordered_iter && rs.thread_spawn);
        let seeded = "fn f(seed: u64) { let rng = StdRng::seed_from_u64(seed ^ 0xFA17); }";
        assert!(
            lint_source(Path::new("crates/simfault/src/lib.rs"), seeded, &rs)
                .expect("parses")
                .is_empty(),
            "seed_from_u64 is the sanctioned construction"
        );
        let adhoc = "fn f() { let rng = rand::thread_rng(); }";
        assert_eq!(
            lint_source(Path::new("crates/simfault/src/lib.rs"), adhoc, &rs)
                .expect("parses")
                .iter()
                .filter(|f| f.rule == Rule::AdhocRng)
                .count(),
            1,
            "OS-seeded construction stays flagged even in simfault"
        );
    }

    #[test]
    fn raw_strings_and_lifetimes_lex_cleanly() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let _ = r#\"thread_rng()\"#; x }";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn json_roundtrip_and_baseline_diff() {
        let f1 = Finding {
            file: "crates/x/src/lib.rs".to_string(),
            line: 10,
            column: 5,
            rule: Rule::WallClock,
            message: "msg \"quoted\"".to_string(),
        };
        let f2 = Finding { line: 99, rule: Rule::PanicPath, ..f1.clone() };
        let json = baseline::render_json(&[f1.clone(), f2.clone()]);
        let keys = baseline::parse_baseline(&json).expect("own artifact parses");
        assert_eq!(keys.len(), 2);
        // Line drift does not resurrect a baselined finding…
        let drifted = Finding { line: 11, ..f1.clone() };
        assert!(baseline::new_findings(&[drifted], &keys).is_empty());
        // …but a genuinely new finding still fails.
        let fresh = Finding { message: "different".to_string(), ..f1 };
        assert_eq!(baseline::new_findings(&[fresh], &keys).len(), 1);
    }
}
